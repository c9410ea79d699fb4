"""Write every CLI artifact of a small fixed pipeline, for byte-identity checks.

Usage: python tools/cli_outputs.py SRC OUT

Imports ``tcflow`` from the source directory SRC (for example ``src`` of a
checkout) and runs, through ``tcflow.cli.main``, into the empty directory OUT:

- ``generate``: a 600-step sine with spike and platform anomalies, seed 7;
- ``generate`` of each other family (saw, increasing, wave, random-walk,
  cbf) with all 8 anomaly kinds and ``[generate] n_anomalies = 8``, so every
  family generator and every anomaly injection is compared;
- ``train`` for 2 epochs with each of the 7 methods, and again with 2-layer
  LSTMs (``[encoder] lstm_layers = 2``) for ``tcnf-stateless`` and
  ``tcnf-stateful``, whose training draws the dropout between LSTM layers;
- a one-generation search (2 candidate and 2 final epochs) for ``tcnf-base``
  (budget 9), and for ``tcnf-mlp``, ``tcnf-cnn``, ``tcnf-stateless`` and
  ``tcnf-stateful`` (budget 10), so every kind of search row (``cond_*``,
  ``lookback`` and each encoder's ``enc_*``) is decoded into a config and
  the stateful training path runs with searched settings;
- ``score --labeled``, ``evaluate`` and ``export-latent`` on the test series
  for all 14 models;
- one ``report`` over the 14 ``metrics.csv`` files;
- ``generate`` of a 3-channel series (so the pad channel is added), headerless
  copies of its training and test CSVs (first line stripped), and ``train``,
  ``score --labeled --svg``, ``evaluate`` and ``export-latent`` of
  ``tcnf-base`` on those copies, so header detection and the score plot are
  part of the comparison;
- a hand-made ``t,score,label`` scores CSV with integer-valued scores, many
  of them tied across both classes, and ``evaluate`` on it, so the tie
  grouping of every metric and of the best-F1 threshold is compared (model
  scores almost never tie).

That is 173 files.

A change that must not alter any output is checked by running this against
the parent's ``src`` and the change's, each into its own directory, then
``diff -r`` of the two. The commands run inside OUT with relative paths,
so the resolved INIs of both runs name the same ``out_dir``. Every command
must exit 0.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

CONFIG = """\
[train]
epochs = 2

[search]
candidate_epochs = 2
final_epochs = 2
"""
TWO_LAYER_LSTM = "\n[encoder]\nlstm_layers = 2\n"
EIGHT_ANOMALIES = "[generate]\nn_anomalies = 8\n"
# method -> budget: one population of its search space
SEARCHES = {"tcnf-base": 9, "tcnf-mlp": 10, "tcnf-cnn": 10, "tcnf-stateless": 10,
            "tcnf-stateful": 10}


def main(src: str, out: str) -> int:
    sys.path.insert(0, str(Path(src).resolve()))
    from tcflow.cli import METHODS, main as cli
    from tcflow.data import ANOMALY_KINDS

    out = Path(out)
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    data, config, config_2 = Path("data"), Path("config.ini"), Path("config-lstm2.ini")
    config.write_text(CONFIG)
    config_2.write_text(CONFIG + TWO_LAYER_LSTM)
    config_8 = Path("config-anomalies.ini")
    config_8.write_text(EIGHT_ANOMALIES)

    def run(*argv):
        argv = [str(a) for a in argv]
        if cli(argv) != 0:
            raise SystemExit(f"failed: tcflow {' '.join(argv)}")

    run("generate", "--family", "sine", "--anomaly", "spike", "--anomaly", "platform",
        "--n-steps", 600, "--seed", 7, "--out-dir", data)
    every_kind = [arg for kind in ANOMALY_KINDS for arg in ("--anomaly", kind)]
    for family in ("saw", "increasing", "wave", "random-walk", "cbf"):
        run("generate", "--config", config_8, "--family", family, *every_kind,
            "--n-steps", 600, "--seed", 7, "--out-dir", Path(f"data-{family}"))
    models = {}
    for method in METHODS:
        run("train", "--config", config, "--data", data / "train_clean.csv",
            "--method", method, "--out-dir", Path(method, "train"))
        models[method] = Path(method, "train") / "model.tcf"
    for method in ("tcnf-stateless", "tcnf-stateful"):
        name = f"{method}-2layer"
        run("train", "--config", config_2, "--data", data / "train_clean.csv",
            "--method", method, "--out-dir", Path(name, "train"))
        models[name] = Path(name, "train") / "model.tcf"
    for method, budget in SEARCHES.items():
        name = f"{method}-search"
        run("search", "--config", config, "--train", data / "train_clean.csv",
            "--labeled", data / "train_labeled.csv", "--method", method,
            "--budget", budget, "--out-dir", name)
        models[name] = Path(name, "model.tcf")
    test = data / "test_labeled.csv"
    for name, model in models.items():
        run("score", "--model", model, "--data", test, "--labeled",
            "--out-dir", Path(name, "score"))
        run("evaluate", "--scores", Path(name, "score", "scores.csv"),
            "--out-dir", Path(name, "evaluate"))
        run("export-latent", "--model", model, "--data", test, "--labeled",
            "--out-dir", Path(name, "latent"))
    run("report", *(Path(name, "evaluate", "metrics.csv") for name in models),
        "--out-dir", "report")

    data_3, bare = Path("data-3ch"), Path("headerless")
    run("generate", "--family", "sine", "--n-channels", 3, "--n-steps", 600, "--seed", 8,
        "--out-dir", data_3)
    bare.mkdir()
    for name in ("train_clean.csv", "test_labeled.csv"):
        lines = (data_3 / name).read_text().splitlines(keepends=True)
        (bare / name).write_text("".join(lines[1:]))
    run("train", "--config", config, "--data", bare / "train_clean.csv",
        "--method", "tcnf-base", "--out-dir", bare / "train")
    run("score", "--model", bare / "train" / "model.tcf", "--data", bare / "test_labeled.csv",
        "--labeled", "--svg", "--out-dir", bare / "score")
    run("evaluate", "--scores", bare / "score" / "scores.csv", "--out-dir", bare / "evaluate")
    run("export-latent", "--model", bare / "train" / "model.tcf",
        "--data", bare / "test_labeled.csv", "--labeled", "--out-dir", bare / "latent")

    tied = Path("tied-scores.csv")
    rows = ["t,score,label"]
    for t in range(300):
        label = int(t % 50 >= 40)
        rows.append(f"{t},{(t * 7) % 5 + 2 * label}.0,{label}")
    tied.write_text("\n".join(rows) + "\n")
    run("evaluate", "--scores", tied, "--out-dir", "tied-evaluate")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
