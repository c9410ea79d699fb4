import argparse
import configparser
import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcflow import cli
from tcflow import data as dt
from tcflow.cli import DEFAULTS, RunConfig, build_parser, main
from tcflow.flow import FlowConfig


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    code = run_cli("generate", "--family", "sine", "--anomaly", "spike",
                   "--anomaly", "platform", "--n-steps", 400, "--seed", 5,
                   "--out-dir", out)
    assert code == 0
    return out


class TestGenerate:
    def test_writes_three_csvs_and_config(self, generated):
        for name in ("train_clean.csv", "train_labeled.csv", "test_labeled.csv",
                     "resolved-generate.ini"):
            assert (generated / name).exists()

    def test_clean_file_has_no_labels_and_labeled_files_do(self, generated):
        clean = dt.load_csv(generated / "train_clean.csv")
        assert clean.labels is None and clean.values.shape == (400, 2)
        test = dt.load_csv(generated / "test_labeled.csv", has_labels=True)
        assert test.labels.any() and not test.labels.all()

    def test_zero_anomalies_write_an_all_zero_label_column(self, tmp_path):
        cfg = tmp_path / "gen.ini"
        cfg.write_text("[generate]\nn_anomalies = 0\n")
        assert run_cli("generate", "--config", cfg, "--n-steps", 200,
                       "--out-dir", tmp_path / "gen") == 0
        for name in ("train_labeled.csv", "test_labeled.csv"):
            header = (tmp_path / "gen" / name).read_text().splitlines()[0]
            assert header == "ch0,ch1,label"
            ds = dt.load_csv(tmp_path / "gen" / name, has_labels=True)
            assert ds.n_channels == 2 and not ds.labels.any()

    def test_resolved_config_records_seed(self, generated):
        text = (generated / "resolved-generate.ini").read_text()
        assert "seed = 5" in text

    def test_unknown_anomaly_kind_fails_cleanly(self, tmp_path, capsys):
        code = run_cli("generate", "--anomaly", "wobble", "--out-dir", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.fixture(scope="module")
def trained(generated, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    cfg = out / "run.ini"
    cfg.write_text(
        "[flow]\ncoupling_layers = 2\ncond_multiplier = 2\n"
        "[train]\nepochs = 3\nbatch_size = 128\n"
        "[encoder]\nlookback = 4\n"
    )
    code = run_cli("train", "--data", generated / "train_clean.csv",
                   "--method", "tcnf-base", "--config", cfg,
                   "--seed", 0, "--out-dir", out)
    assert code == 0
    return out


class TestTrainScoreEvaluate:
    def test_train_artifacts(self, trained):
        assert (trained / "model.tcf").exists()
        report = (trained / "train_report.csv").read_text().splitlines()
        assert report[0] == "epoch,train_loss,val_loss,best"
        assert (trained / "resolved-train.ini").exists()

    def test_score_then_evaluate(self, generated, trained, tmp_path):
        out = tmp_path / "score"
        code = run_cli("score", "--model", trained / "model.tcf",
                       "--data", generated / "test_labeled.csv", "--labeled",
                       "--svg", "--out-dir", out)
        assert code == 0
        assert (out / "scores.csv").exists() and (out / "scores.svg").exists()

        ev = tmp_path / "eval"
        code = run_cli("evaluate", "--scores", out / "scores.csv", "--out-dir", ev)
        assert code == 0
        text = (ev / "metrics.csv").read_text()
        assert text.startswith("# vus_variant=")
        assert ",auc_roc," in text and ",vus_roc," in text and ",f1," in text

    def test_export_latent(self, generated, trained, tmp_path):
        out = tmp_path / "latent"
        code = run_cli("export-latent", "--model", trained / "model.tcf",
                       "--data", generated / "test_labeled.csv", "--labeled",
                       "--out-dir", out)
        assert code == 0
        header = (out / "latent.csv").read_text().splitlines()[0]
        assert header == "u0,u1,logdet,score,label"

    def test_scoring_is_reproducible_byte_for_byte(self, generated, trained, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("score", "--model", trained / "model.tcf",
                           "--data", generated / "test_labeled.csv", "--labeled",
                           "--out-dir", out) == 0
            outs.append((out / "scores.csv").read_bytes())
        assert outs[0] == outs[1]


class TestLibraryChainEqualsCli:
    """``train_model`` then ``score_series`` or ``export_latent`` on the raw
    series are the CLI's ``train`` then ``score`` or ``export-latent``: the
    model normalizes, so neither side prepares anything."""

    def test_scores_and_latents_are_bit_identical(self, tmp_path):
        from tcflow.conditioners import EncoderConfig
        from tcflow.score import export_latent, load_score_csv, score_series
        from tcflow.train import TrainConfig, train_model

        gen = tmp_path / "gen"  # 3 channels, so the model pads a fourth
        assert run_cli("generate", "--n-channels", 3, "--n-steps", 300, "--seed", 2,
                       "--out-dir", gen) == 0
        cfg = tmp_path / "run.ini"
        cfg.write_text("[flow]\ncoupling_layers = 2\ncond_multiplier = 2\n"
                       "[train]\nepochs = 2\nbatch_size = 64\n[encoder]\nlookback = 3\n")
        test_csv = gen / "test_labeled.csv"
        assert run_cli("train", "--data", gen / "train_clean.csv", "--method", "tcnf-base",
                       "--config", cfg, "--seed", 4, "--out-dir", tmp_path / "train") == 0
        model_path = tmp_path / "train" / "model.tcf"
        for command in ("score", "export-latent"):
            assert run_cli(command, "--model", model_path, "--data", test_csv, "--labeled",
                           "--out-dir", tmp_path / command) == 0

        model, _ = train_model(
            dt.load_csv(gen / "train_clean.csv"), EncoderConfig("passthrough", lookback=3),
            FlowConfig(2, cond_multiplier=2),
            TrainConfig(epochs=2, batch_size=64, seed=4))
        test = dt.load_csv(test_csv, has_labels=True)
        assert model.dim == 4
        cli_scores, _ = load_score_csv(tmp_path / "score" / "scores.csv")
        np.testing.assert_array_equal(score_series(model, test).scores, cli_scores.scores)
        export_latent(model, test, tmp_path / "latent.csv")
        assert ((tmp_path / "latent.csv").read_bytes()
                == (tmp_path / "export-latent" / "latent.csv").read_bytes())


class TestEvaluatePerfectScores:
    def test_scores_equal_to_labels_give_unit_auc(self, tmp_path):
        labels = np.zeros(60, dtype=bool)
        labels[20:26] = True
        scores_path = tmp_path / "scores.csv"
        with open(scores_path, "w") as fh:
            fh.write("t,score,label\n")
            for t, flag in enumerate(labels):
                fh.write(f"{t},{float(flag)!r},{int(flag)}\n")
        out = tmp_path / "eval"
        assert run_cli("evaluate", "--scores", scores_path, "--out-dir", out) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        auc = next(float(l.split(",")[3]) for l in lines if ",auc_roc," in l)
        assert auc == 1.0


class TestSearchCommand:
    def test_search_writes_trials_and_model(self, generated, tmp_path):
        out = tmp_path / "search"
        cfg = tmp_path / "search.ini"
        cfg.write_text("[search]\ncandidate_epochs = 2\nfinal_epochs = 2\nlookback_max = 6\n")
        code = run_cli("search", "--train", generated / "train_clean.csv",
                       "--labeled", generated / "train_labeled.csv",
                       "--method", "tcnf-base", "--budget", 9,
                       "--config", cfg, "--seed", 1, "--out-dir", out)
        assert code == 0
        assert (out / "model.tcf").exists()
        lines = (out / "trials.csv").read_text().splitlines()
        assert len(lines) == 2 + 9
        header = lines[1].split(",")
        assert header[:6] == ["generation", "index", "fitness", "auc", "vus", "val_loss"]

    def test_a_trials_row_replays_through_train_score_evaluate(self, generated, tmp_path,
                                                                monkeypatch):
        # a row's cells, pasted as they are, are INI values that rebuild its candidate
        monkeypatch.setenv("TCFLOW_WORKERS", "1")
        cfg = tmp_path / "search.ini"
        cfg.write_text("[search]\ncandidate_epochs = 2\nfinal_epochs = 1\n")
        search = tmp_path / "search"
        assert run_cli("search", "--train", generated / "train_clean.csv",
                       "--labeled", generated / "train_labeled.csv",
                       "--method", "tcnf-cnn", "--budget", 10,
                       "--config", cfg, "--out-dir", search) == 0
        with open(search / "trials.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        row = min(rows, key=lambda r: float(r["fitness"]))
        sections = {"run": {"seed": row["seed"]}, "train": {"epochs": "2", "patience": "3"}}
        for key, cell in row.items():
            for section in ("flow", "encoder"):
                if key in DEFAULTS[section]:
                    sections.setdefault(section, {})[key] = cell
        # every cell but the seven Trial columns is a [flow] or [encoder] key
        assert len(sections["flow"]) + len(sections["encoder"]) == len(row) - 7
        replay = configparser.ConfigParser()
        replay.read_dict(sections)
        with open(tmp_path / "replay.ini", "w") as fh:
            replay.write(fh)

        assert run_cli("train", "--data", generated / "train_clean.csv", "--method", "tcnf-cnn",
                       "--config", tmp_path / "replay.ini", "--out-dir", tmp_path / "train") == 0
        assert run_cli("score", "--model", tmp_path / "train" / "model.tcf",
                       "--data", generated / "train_labeled.csv", "--labeled",
                       "--out-dir", tmp_path / "score") == 0
        assert run_cli("evaluate", "--scores", tmp_path / "score" / "scores.csv",
                       "--out-dir", tmp_path / "eval") == 0
        with open(tmp_path / "eval" / "metrics.csv", newline="") as fh:
            metrics = {r["metric"]: float(r["value"])
                       for r in csv.DictReader(line for line in fh if not line.startswith("#"))}
        assert metrics["auc_roc"] == float(row["auc"])
        assert metrics["vus_roc"] == float(row["vus"])


class TestSearchWorkers:
    @pytest.mark.parametrize("method, budget", [("tcnf-base", 9), ("tcnf-stateful", 10)])
    def test_default_pool_writes_the_same_trials_and_model_as_one_worker(
            self, tmp_path, monkeypatch, method, budget):
        import tcflow.hyperopt as hyperopt

        pools = []

        class CountedPool(hyperopt.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(hyperopt, "ProcessPoolExecutor", CountedPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # two CPUs on any host
        data = tmp_path / "data"  # 100 steps: the stateful walk trains one row at a time
        assert run_cli("generate", "--anomaly", "spike", "--n-steps", 100, "--seed", 5,
                       "--out-dir", data) == 0
        cfg = tmp_path / "search.ini"
        cfg.write_text("[search]\ncandidate_epochs = 1\nfinal_epochs = 1\nlookback_max = 6\n")
        outputs = []
        for workers in ("default", "1"):
            if workers == "default":
                monkeypatch.delenv("TCFLOW_WORKERS", raising=False)
            else:
                monkeypatch.setenv("TCFLOW_WORKERS", workers)
            out = tmp_path / workers
            assert run_cli("search", "--train", data / "train_clean.csv",
                           "--labeled", data / "train_labeled.csv",
                           "--method", method, "--budget", budget,
                           "--config", cfg, "--seed", 1, "--out-dir", out) == 0
            outputs.append([(out / name).read_bytes() for name in ("trials.csv", "model.tcf")])
        assert pools == [2]
        assert outputs[0] == outputs[1]


class TestSearchConfig:
    def test_search_model_has_the_configured_lstm_hidden(self, tmp_path, monkeypatch):
        # lstm_hidden is not searched; every trial builds on the [encoder] section
        from tcflow.train import load_model

        monkeypatch.setenv("TCFLOW_WORKERS", "1")
        data = tmp_path / "data"
        assert run_cli("generate", "--n-steps", 100, "--seed", 5, "--out-dir", data) == 0
        cfg = tmp_path / "search.ini"
        cfg.write_text("[encoder]\nlstm_hidden = 16\n"
                       "[search]\ncandidate_epochs = 1\nfinal_epochs = 1\nlookback_max = 4\n")
        out = tmp_path / "search"
        assert run_cli("search", "--train", data / "train_clean.csv",
                       "--labeled", data / "train_labeled.csv", "--method", "tcnf-stateless",
                       "--budget", 10, "--config", cfg, "--out-dir", out) == 0
        encoder = load_model(out / "model.tcf").encoder
        assert encoder.cfg.lstm_hidden == 16 and encoder.hidden == 16
        assert read_resolved(out, "search")["encoder"]["lstm_hidden"] == "16"


class TestReport:
    def test_mean_and_std_over_runs(self, tmp_path):
        paths = []
        for i, auc in enumerate((0.8, 0.9)):
            p = tmp_path / f"metrics{i}.csv"
            p.write_text("# vus_variant=x window=3\ndataset,model,metric,value\n"
                         f"sine,m{i},auc_roc,{auc}\n")
            paths.append(p)
        out = tmp_path / "report"
        assert run_cli("report", *paths, "--out-dir", out) == 0
        lines = (out / "report.csv").read_text().splitlines()
        row = next(l for l in lines if l.startswith("sine,auc_roc,"))
        _, _, mean, std, n = row.split(",")
        assert float(mean) == pytest.approx(0.85)
        assert float(std) == pytest.approx(0.05)
        assert n == "2"

    def test_ids_with_commas_survive_evaluate_then_report(self, tmp_path):
        scores_path = tmp_path / "s,1.csv"
        scores_path.write_text("t,score,label\n0,0.0,0\n1,1.0,1\n2,0.5,0\n3,2.0,1\n")
        paths = []
        for i, dataset_id in enumerate(("sine,a", "sine,a", "#a", "dataset")):
            out = tmp_path / f"eval{i}"
            assert run_cli("evaluate", "--scores", scores_path, "--dataset-id", dataset_id,
                           "--model-id", f"m,{i}", "--out-dir", out) == 0
            paths.append(out / "metrics.csv")
        out = tmp_path / "eval-default-id"
        assert run_cli("evaluate", "--scores", scores_path, "--out-dir", out) == 0
        paths.append(out / "metrics.csv")
        assert run_cli("report", *paths, "--out-dir", tmp_path / "report") == 0
        with open(tmp_path / "report" / "report.csv", newline="") as fh:
            rows = {(row[0], row[1]): row[2:] for row in csv.reader(fh) if len(row) == 5}
        assert rows[("sine,a", "auc_roc")] == ["1.0", "0.0", "2"]
        assert rows[("s,1", "auc_roc")] == ["1.0", "0.0", "1"]
        assert rows[("#a", "auc_roc")] == ["1.0", "0.0", "1"]
        assert rows[("dataset", "auc_roc")] == ["1.0", "0.0", "1"]

    def test_file_without_comment_line_keeps_its_first_row(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("dataset,model,metric,value\nd,m,auc_roc,0.5\nd,m,vus_roc,0.25\n")
        assert run_cli("report", path, "--out-dir", tmp_path / "report") == 0
        lines = (tmp_path / "report" / "report.csv").read_text().splitlines()
        assert lines[2:] == ["d,auc_roc,0.5,0.0,1", "d,vus_roc,0.25,0.0,1"]

    @pytest.mark.parametrize("text", [
        "",
        "# vus_variant=x window=3\n",
        "d,m,auc_roc,0.5\n",
        "# vus_variant=x window=3\ndataset,model,value\nd,m,0.5\n",
    ], ids=["empty", "comment-only", "no-header", "other-header"])
    def test_missing_header_rejected_naming_the_file(self, tmp_path, capsys, text):
        path = tmp_path / "metrics.csv"
        path.write_text(text)
        assert run_cli("report", path, "--out-dir", tmp_path / "report") == 1
        err = capsys.readouterr().err
        assert "DataError" in err and f"{path}: header " in err

    @pytest.mark.parametrize("row, message", [
        ("sine,m,auc_roc", "row 2 is not dataset,model,metric,value"),
        ("sine,m,auc_roc,high", "row 2 is not dataset,model,metric,value"),
    ], ids=["three-cells", "non-numeric-value"])
    def test_malformed_metrics_row_rejected_naming_file_and_row(self, tmp_path, capsys,
                                                                row, message):
        path = tmp_path / "metrics.csv"
        path.write_text("# vus_variant=x window=3\ndataset,model,metric,value\n"
                        f"sine,m,auc_roc,0.5\n{row}\n")
        assert run_cli("report", path, "--out-dir", tmp_path / "report") == 1
        err = capsys.readouterr().err
        assert "DataError" in err and str(path) in err and message in err


DEFAULT_INI = """\
[run]
seed = 0
out_dir = runs
method = tcnf-base

[generate]
family = sine
n_steps = 2000
n_channels = 2
noise = 0.05
anomalies = spike
n_anomalies = 3
anomaly_magnitude = nan
anomaly_length = 20

[flow]
coupling_layers = 4
cond_multiplier = 4
cond_layers = 3
cond_dropout = 0.1
cond_funnel = 1.5

[encoder]
lookback = 10
mlp_layers = 3
mlp_compression = 2
cnn_layers = 2
cnn_kernel = 3
cnn_max_channels = 8
lstm_layers = 1
lstm_hidden = 0
dropout = 0.1

[train]
epochs = 30
batch_size = 128
learning_rate = 0.001
patience = 10
clip_norm = 5.0

[search]
budget = 18
objective = labeled-30-70
candidate_epochs = 10
final_epochs = 30
lookback_max = 50

[metrics]
window = -1

"""


class TestRunConfig:
    def test_default_resolved_config_text(self, tmp_path):
        RunConfig().write(tmp_path / "resolved.ini")
        assert (tmp_path / "resolved.ini").read_text() == DEFAULT_INI


def read_resolved(out, command) -> configparser.ConfigParser:
    resolved = configparser.ConfigParser(interpolation=None)
    assert resolved.read(out / f"resolved-{command}.ini")
    return resolved


class TestResolvedConfig:
    @pytest.mark.parametrize("command", ["generate", "train", "score", "evaluate", "search",
                                         "export-latent", "report"])
    def test_every_command_writes_its_resolved_config(self, generated, trained, tmp_path,
                                                      command):
        scores = tmp_path / "scores.csv"
        scores.write_text("t,score,label\n0,0.0,0\n1,1.0,1\n2,0.5,0\n3,2.0,1\n")
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("# vus_variant=x window=3\ndataset,model,metric,value\n"
                           "sine,m,auc_roc,0.5\n")
        cfg = tmp_path / "run.ini"
        cfg.write_text("[train]\nepochs = 1\n"
                       "[search]\ncandidate_epochs = 1\nfinal_epochs = 1\nlookback_max = 6\n")
        model, test = trained / "model.tcf", generated / "test_labeled.csv"
        argv = {
            "generate": ["--n-steps", 200],
            "train": ["--data", generated / "train_clean.csv"],
            "score": ["--model", model, "--data", test, "--labeled"],
            "evaluate": ["--scores", scores],
            "search": ["--train", generated / "train_clean.csv",
                       "--labeled", generated / "train_labeled.csv", "--budget", 9],
            "export-latent": ["--model", model, "--data", test, "--labeled"],
            "report": [metrics],
        }[command]
        out = tmp_path / "out"
        assert run_cli(command, *argv, "--config", cfg, "--seed", 3, "--out-dir", out) == 0
        resolved = read_resolved(out, command)
        assert resolved["run"]["seed"] == "3" and resolved["run"]["out_dir"] == str(out)
        assert resolved["search"]["lookback_max"] == "6"


def subparsers() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def key_flags():
    """(command, action) for every flag whose dest names a config key."""
    return [(command, action) for command, sub in subparsers().items()
            for action in sub._actions if "." in action.dest]


def required_argv(command):
    """Placeholder values for the command's required arguments."""
    argv = []
    for action in subparsers()[command]._actions:
        if not action.option_strings:
            argv.append("x")
        elif action.required:
            argv += [action.option_strings[0], "x"]
    return argv


class TestFlags:
    def test_each_flag_names_a_config_key(self):
        flags = {}
        for _, action in key_flags():
            section, key = action.dest.split(".")
            assert key in DEFAULTS.get(section, {}), action.dest
            flags.setdefault(action.option_strings[0], action.dest)
            assert flags[action.option_strings[0]] == action.dest
        assert len(flags) == 11

    @pytest.mark.parametrize("command,action", key_flags(),
                             ids=lambda x: x if isinstance(x, str) else x.option_strings[0])
    def test_flag_overrides_config_file_in_resolved_ini(self, monkeypatch, tmp_path,
                                                        command, action):
        # the command itself is stubbed: the flag's way to the INI is main's alone
        monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), lambda *args: None)
        section, key = action.dest.split(".")
        default = DEFAULTS[section][key]
        if key == "out_dir":
            in_file, flag = tmp_path / "from-file", tmp_path / "from-flag"
        elif action.choices:
            in_file, flag = action.choices[0], action.choices[-1]
        elif key == "anomalies":  # a list of kinds, checked with the other keys
            in_file, flag = dt.ANOMALY_KINDS[0], dt.ANOMALY_KINDS[-1]
        elif isinstance(default, str):
            in_file, flag = "from-file", "from-flag"
        else:
            in_file, flag = default + 1, default + 2
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{section}]\n{key} = {in_file}\n")
        out = tmp_path / "from-flag" if key == "out_dir" else tmp_path / "out"
        assert run_cli(command, *required_argv(command), "--config", cfg,
                       "--out-dir", out, action.option_strings[0], flag) == 0
        resolved = read_resolved(out, command)
        assert type(default)(resolved[section][key]) == type(default)(flag)

    def test_percent_sign_is_read_and_written_as_itself(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "cmd_report", lambda *args: None)
        out = tmp_path / "100%"
        assert run_cli("report", "x", "--out-dir", out) == 0
        assert read_resolved(out, "report")["run"]["out_dir"] == str(out)
        again = tmp_path / "again"
        assert run_cli("report", "x", "--config", out / "resolved-report.ini",
                       "--out-dir", again) == 0
        assert (out / "resolved-report.ini").read_text().replace(str(out), str(again)) == \
            (again / "resolved-report.ini").read_text()

    def test_repeated_anomaly_flags_join_into_one_key(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "cmd_generate", lambda *args: None)
        assert run_cli("generate", "--anomaly", "spike", "--anomaly", "platform",
                       "--out-dir", tmp_path) == 0
        assert read_resolved(tmp_path, "generate")["generate"]["anomalies"] == "spike,platform"


MAX = "1.7976931348623157e+308"  # the largest finite float: "finite" as an inclusive bound


def _case(command, sections, message, flags=()):
    """One rejected value: the command, its INI settings by section, any
    flags, and the whole error message, which names the key and the value."""
    name = ",".join([command] + [f"{k}={v}" for keys in sections.values() for k, v in keys.items()]
                    + [f"{flag}={value}" for flag, value in zip(flags[::2], flags[1::2])])
    return pytest.param(command, sections, flags, message, id=name)


REJECTED = [
    *[_case("generate", {"generate": {"n_steps": 200, key: value}},
            f"[generate] {key} {rule}: {value}")
      for key, value, rule in [
          ("n_anomalies", "-1", "out of range [0, inf]"),
          ("noise", "-0.5", f"out of range [0, {MAX}]"),
          ("n_steps", "50", "out of range [100, inf]"),
          ("n_channels", "1", "out of range [2, inf]"),
          ("noise", "inf", f"out of range [0, {MAX}]"),
          ("noise", "nan", f"out of range [0, {MAX}]"),
          # a nan anomaly_magnitude, the default, takes each kind's own magnitude
          ("anomaly_magnitude", "inf", "must be finite"),
          ("anomaly_magnitude", "-inf", "must be finite")]],
    *[_case(command, {}, f"[metrics] window out of range [-1, inf]: {window}",
            flags=("--metric-window", window))
      for window in (-2, -7) for command in ("evaluate", "search")],
    *[_case("generate", {"generate": {"n_steps": 200, "anomalies": kind, "anomaly_length": length}},
            f"[generate] anomaly_length out of range [1, inf]: {length}")
      for length in (0, -3) for kind in ("platform", "spike")],
    _case("train", {"run": {"method": "tcnf-stateless"}, "encoder": {"lstm_hidden": -3},
                    "train": {"epochs": 1}}, "[encoder] lstm_hidden out of range [0, inf]: -3"),
    _case("train", {"flow": {"coupling_layers": 0}},
          "[flow] coupling_layers out of range [1, inf]: 0"),
    _case("train", {"train": {"clip_norm": -1}}, "[train] clip_norm out of range [0, inf]: -1.0"),
    _case("train", {"train": {"learning_rate": "inf"}},
          f"[train] learning_rate out of range [5e-324, {MAX}]: inf"),
    *[_case("search", {"search": {key: value}}, f"[search] {key} out of range [1, inf]: {value}")
      for value in (0, -1) for key in ("candidate_epochs", "final_epochs", "lookback_max")],
    _case("generate", {"run": {"seed": -1}}, "[run] seed out of range [0, inf]: -1"),
    # the choice keys
    _case("train", {"run": {"method": "tcnf-gru"}},
          "[run] method not one of realnvp, tcnf-base, tcnf-fixed, tcnf-mlp, tcnf-cnn, "
          "tcnf-stateless, tcnf-stateful: 'tcnf-gru'"),
    _case("generate", {"generate": {"family": "square"}},
          "[generate] family not one of sine, saw, increasing, wave, random-walk, cbf: 'square'"),
    _case("search", {"search": {"objective": "auc"}},
          "[search] objective not one of labeled-30-70, val-loss: 'auc'"),
    # every key is checked, whether or not the command or the method reads it
    _case("train", {"run": {"method": "tcnf-cnn"}, "encoder": {"mlp_layers": 2}},
          "[encoder] mlp_layers out of range [3, 20]: 2"),
    _case("search", {"flow": {"cond_layers": 9}}, "[flow] cond_layers out of range [3, 8]: 9"),
    _case("evaluate", {"train": {"batch_size": 0}}, "[train] batch_size out of range [1, inf]: 0"),
    # below one population of the method's search
    _case("search", {}, "[search] budget out of range [9, inf]: 5", flags=("--budget", 5)),
    _case("search", {"run": {"method": "realnvp"}}, "[search] budget out of range [8, inf]: 7",
          flags=("--budget", 7)),
    # the [generate] anomalies, checked with every other key
    _case("generate", {}, "[generate] anomalies has an unknown kind 'bogus'",
          flags=("--anomaly", "bogus")),
    _case("train", {"generate": {"anomalies": "spike, bogus"}},
          "[generate] anomalies has an unknown kind 'bogus'"),
    _case("evaluate", {"generate": {"anomalies": " , "}},
          "[generate] anomalies is empty; n_anomalies = 3"),
    *[_case(command, {"generate": {"n_steps": 200, "n_anomalies": 150}},
            "[generate] n_anomalies = 150 does not fit a series of 200 steps (at most 99)")
      for command in ("generate", "search")],
]


class TestErrors:
    def test_empty_anomaly_list_needs_zero_anomalies(self, tmp_path, capsys):
        cfg = tmp_path / "gen.ini"
        cfg.write_text("[generate]\nanomalies =\n")
        args = ("generate", "--config", cfg, "--n-steps", 200, "--out-dir", tmp_path / "gen")
        assert run_cli(*args) == 1
        err = capsys.readouterr().err
        assert "CliError" in err and "[generate] anomalies" in err
        cfg.write_text("[generate]\nanomalies =\nn_anomalies = 0\n")
        assert run_cli(*args) == 0
        assert dt.load_csv(tmp_path / "gen" / "test_labeled.csv").n_steps == 200

    @pytest.mark.parametrize("command,sections,flags,message", REJECTED)
    def test_bad_value_rejected_naming_its_key_before_the_output_directory(
            self, generated, tmp_path, capsys, command, sections, flags, message):
        scores = tmp_path / "scores.csv"
        scores.write_text("t,score,label\n0,0.1,0\n1,0.9,1\n2,0.2,0\n3,0.8,1\n")
        inputs = {
            "generate": (),
            "train": ("--data", generated / "train_clean.csv"),
            "evaluate": ("--scores", scores),
            "search": ("--train", generated / "train_clean.csv",
                       "--labeled", generated / "train_labeled.csv", "--budget", 9),
        }[command]
        cfg = tmp_path / "run.ini"
        cfg.write_text("".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                               for section, keys in sections.items()))
        out = tmp_path / "out"
        code = run_cli(command, *inputs, "--config", cfg, *flags, "--out-dir", out)
        assert code == 1
        assert capsys.readouterr().err == f"error: CliError: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("n_anomalies", [150, 500])
    def test_too_many_anomalies_for_the_series_rejected(self, tmp_path, capsys, n_anomalies):
        # 150 leaves one-step slots whose ranges can overlap, 500 empty ones
        cfg = tmp_path / "gen.ini"
        cfg.write_text(f"[generate]\nn_anomalies = {n_anomalies}\n")
        code = run_cli("generate", "--config", cfg, "--n-steps", 200,
                       "--out-dir", tmp_path / "gen")
        assert code == 1
        err = capsys.readouterr().err
        assert "CliError" in err and f"[generate] n_anomalies = {n_anomalies}" in err
        assert "series of 200 steps (at most 99)" in err
        assert not (tmp_path / "gen" / "train_clean.csv").exists()
        cfg.write_text("[generate]\nn_anomalies = 99\n")
        assert run_cli("generate", "--config", cfg, "--n-steps", 200,
                       "--out-dir", tmp_path / "gen") == 0

    def test_missing_file_exits_one_with_single_line(self, tmp_path, capsys):
        code = run_cli("train", "--data", tmp_path / "nope.csv", "--out-dir", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[train]\nwarp_speed = 9\n")
        code = run_cli("train", "--data", tmp_path / "x.csv", "--config", cfg,
                       "--out-dir", tmp_path)
        assert code == 1
        assert "warp_speed" in capsys.readouterr().err


KEYS = [(section, key) for section, keys in DEFAULTS.items() for key in keys]
ODD_VALUES = ["", " ", "0", "-1", "1", "2.5", "1e400", "-1e400", "5e-324", "nan", "inf", "-inf",
              "1_000", "0x10", "true", "abc", "%", "100%", "%(seed)s", "[run]", "#", "é"]


@st.composite
def triples(draw):
    """(section, key, value string): odd strings, numbers and text, each
    key's range ends and the values just outside them, and its choices."""
    section, key = draw(st.sampled_from(KEYS))
    near = list(cli.CHOICES.get((section, key), ()))
    if key in cli.RANGES.get(section, {}):
        for end in cli.RANGES[section][key]:
            near += [str(end)] + ([str(end - 1), str(end + 1)] if isinstance(end, int) else [])
    value = draw(st.one_of(
        st.sampled_from(ODD_VALUES + near),
        st.integers(-10**6, 10**6).map(str),
        st.floats().map(str),
        st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=6),
    ))
    return section, key, value


class TestConfigCheck:
    @settings(max_examples=300, deadline=None)
    @example(("train", "batch_size", "0"))
    @example(("encoder", "mlp_layers", "2"))
    @example(("run", "out_dir", "runs-100%"))
    @given(triple=triples())
    def test_any_value_builds_every_view_or_is_rejected_naming_its_key(self, triple):
        section, key, value = triple
        ini = configparser.ConfigParser(interpolation=None)
        ini[section] = {key: value}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.ini"
            with open(path, "w") as fh:
                ini.write(fh)
            try:
                cfg = cli._build_config(argparse.Namespace(config=str(path)))
                for method in cli.METHODS:
                    cfg.encoder_config(method)
                FlowConfig(**cfg.values["flow"])
                cfg.train_config()
            except cli.CliError as exc:
                assert f"[{section}] {key}" in str(exc)

    def test_a_flag_mends_a_bad_file_value(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "cmd_train", lambda *args: None)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[encoder]\nlookback = 0\n")
        argv = ("train", "--data", "x", "--config", cfg)
        assert run_cli(*argv, "--out-dir", tmp_path / "bad") == 1
        assert "[encoder] lookback out of range [1, inf]: 0" in capsys.readouterr().err
        assert run_cli(*argv, "--lookback", 4, "--out-dir", tmp_path / "mended") == 0
        assert read_resolved(tmp_path / "mended", "train")["encoder"]["lookback"] == "4"


def _accepted(section, key) -> str:
    """A key's accepted values as the README's Configuration table states them."""
    if (section, key) in cli.CHOICES:
        return ", ".join(f"`{choice}`" for choice in cli.CHOICES[section, key])
    lower, upper = cli.RANGES[section][key]
    return f"`[{lower}, {upper}]`"


def test_readme_configuration_table_matches_defaults_and_bounds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in readme.split("## Configuration", 1)[1].splitlines()
            if line.startswith("| `")]
    assert [(section.strip("`[]"), key.strip("`")) for section, key, *_ in rows] == KEYS
    for section, key, default, accepted in rows:
        section, key = section.strip("`[]"), key.strip("`")
        assert default == f"`{DEFAULTS[section][key]}`", key
        if (section, key) in cli.CHOICES or key in cli.RANGES.get(section, {}):
            assert accepted.split(";")[0] == _accepted(section, key), key


# Settable values of src/ as tools/settable_values.py counts them: defaulted
# parameters, defaulted dataclass fields and config keys. A change that adds
# or removes a knob edits this number on purpose.
SETTABLE_VALUES = 105


def test_settable_value_count_is_the_recorded_one():
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, root / "tools" / "settable_values.py", root / "src"],
                         capture_output=True, text=True, check=True).stdout
    assert out.split(": ")[-1].strip() == str(SETTABLE_VALUES), out
