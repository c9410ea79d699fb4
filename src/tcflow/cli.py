"""Command-line pipeline: generate, train, score, evaluate, search,
export-latent and report.

Every run resolves its configuration (file, then flags) against a fixed
schema and rejects unknown keys. A flag that sets a key names it as its
argparse ``dest`` ("section.key"). ``main`` builds the config and the output
directory for every command and, when the command succeeds, writes the fully
resolved config next to its outputs as ``resolved-<command>.ini``, so any
artifact can be reproduced from that file plus the seed. All randomness
derives from the single per-run seed.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data as dt
from . import metrics as mx
from .conditioners import EncoderConfig
from .flow import FlowConfig, check_values, field_defaults
from .hyperopt import (
    METHOD_ENCODERS,
    OBJECTIVES,
    default_population,
    run_search,
    space_for_method,
)
from .metrics import select_threshold
from .score import (
    export_latent,
    load_score_csv,
    score_series,
    write_score_svg,
)
from .train import TrainConfig, load_model, save_model, train_model

METHODS = tuple(METHOD_ENCODERS)
METRICS_HEADER = ["dataset", "model", "metric", "value"]  # of evaluate's metrics.csv

# per-kind default anomaly strength (sigma units, absolute level for platform,
# factor for amplitude/pattern)
ANOMALY_MAGNITUDES = {
    "spike": 4.0, "platform": 0.3, "mean-shift": 2.0, "amplitude": 2.5,
    "pattern": 2.5, "variance": 3.0, "trend": 3.0, "cutoff": 0.0,
}


# Every key's type is the type of its default.
DEFAULTS = {
    "run": {"seed": 0, "out_dir": "runs", "method": "tcnf-base"},
    "generate": {
        "family": "sine", "n_steps": 2000, "n_channels": 2, "noise": 0.05,
        "anomalies": "spike", "n_anomalies": 3, "anomaly_magnitude": float("nan"),
        "anomaly_length": 20,
    },
    "flow": field_defaults(FlowConfig),
    "encoder": field_defaults(EncoderConfig, skip=("kind",)),
    "train": field_defaults(TrainConfig, skip=("seed",)),
    "search": {
        "budget": 18, "objective": OBJECTIVES[0], "candidate_epochs": 10, "final_epochs": 30,
        "lookback_max": 50,  # the searched lookback's upper bound
    },
    "metrics": {"window": -1},
}

# Inclusive bounds by section and key: [flow], [encoder] and [train] read the
# dataclasses' RANGES, and the series floors are generate_synthetic's own.
RANGES = {
    "run": {"seed": (0, np.inf)},
    "generate": {"n_steps": (dt.MIN_STEPS, np.inf), "n_channels": (dt.MIN_CHANNELS, np.inf),
                 "noise": (0, sys.float_info.max), "n_anomalies": (0, np.inf),
                 "anomaly_length": (1, np.inf)},
    "flow": FlowConfig.RANGES,
    "encoder": EncoderConfig.RANGES,
    "train": TrainConfig.RANGES,
    "search": dict.fromkeys(("candidate_epochs", "final_epochs", "lookback_max"), (1, np.inf)),
    "metrics": {"window": (-1, np.inf)},  # -1 infers the window from the labels
}
# The allowed values of each choice key.
CHOICES = {("run", "method"): METHODS, ("generate", "family"): dt.FAMILIES,
           ("search", "objective"): OBJECTIVES}


class CliError(ValueError):
    pass


class RunConfig:
    """Schema-checked layered configuration: defaults, then file, then flags."""

    def __init__(self):
        self.values = {section: dict(keys) for section, keys in DEFAULTS.items()}

    def load_file(self, path: str) -> None:
        parser = configparser.ConfigParser(interpolation=None)  # '%' is literal
        read = parser.read(path)
        if not read:
            raise CliError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in DEFAULTS:
                raise CliError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                self.set(section, key, raw)

    def set(self, section: str, key: str, raw) -> None:
        if key not in DEFAULTS.get(section, {}):
            raise CliError(f"unknown config key [{section}] {key}")
        try:
            self.values[section][key] = type(DEFAULTS[section][key])(raw)
        except ValueError:
            raise CliError(f"bad value for [{section}] {key}: {raw!r}") from None

    def write(self, path) -> None:
        parser = configparser.ConfigParser(interpolation=None)
        for section, keys in self.values.items():
            parser[section] = {k: str(v) for k, v in keys.items()}
        with open(path, "w") as fh:
            parser.write(fh)

    # -- typed views ---------------------------------------------------

    def encoder_config(self, method: str) -> EncoderConfig:
        return EncoderConfig(kind=METHOD_ENCODERS[method], **self.values["encoder"])

    def train_config(self) -> TrainConfig:
        return TrainConfig(seed=self.values["run"]["seed"], **self.values["train"])


def _anomaly_kinds(anomalies: str) -> list[str]:
    """The kinds of a comma-separated ``[generate] anomalies`` value."""
    return [kind.strip() for kind in anomalies.split(",") if kind.strip()]


def _build_config(args) -> RunConfig:
    """The defaults, then the file, then the flags; the result is checked
    against ``CHOICES``, then the types of ``DEFAULTS`` and ``RANGES``, then
    the method's least budget and the ``[generate]`` anomalies, so a flag
    can mend a bad file value."""
    cfg = RunConfig()
    if args.config:
        cfg.load_file(args.config)
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            if isinstance(value, list):  # --anomaly, repeatable
                value = ",".join(value)
            cfg.set(*dest.split("."), value)
    for (section, key), choices in CHOICES.items():
        if (value := cfg.values[section][key]) not in choices:
            raise CliError(f"[{section}] {key} not one of {', '.join(choices)}: {value!r}")

    def check(section, ranges):
        try:
            check_values(cfg.values[section], DEFAULTS[section], ranges)
        except ValueError as exc:
            raise CliError(f"[{section}] {exc}") from None

    for section, ranges in RANGES.items():
        check(section, ranges)
    # the budget buys one population of the method's search at least
    space = space_for_method(cfg.values["run"]["method"], cfg.values["search"]["lookback_max"])
    check("search", {"budget": (default_population(len(space)), np.inf)})
    g = cfg.values["generate"]
    if np.isinf(g["anomaly_magnitude"]):  # nan: each kind's own
        raise CliError(f"[generate] anomaly_magnitude must be finite: {g['anomaly_magnitude']}")
    kinds, n_anoms, n_steps = _anomaly_kinds(g["anomalies"]), g["n_anomalies"], g["n_steps"]
    if not kinds and n_anoms > 0:
        raise CliError(f"[generate] anomalies is empty; n_anomalies = {n_anoms}")
    if unknown := [kind for kind in kinds if kind not in dt.ANOMALY_KINDS]:
        raise CliError(f"[generate] anomalies has an unknown kind {unknown[0]!r}")
    # each anomaly's slot needs 2 steps or more, room for a range of length
    # >= 1 after jitter (see _inject_round)
    if n_anoms > 0 and n_steps // (n_anoms + 1) < 2:
        raise CliError(f"[generate] n_anomalies = {n_anoms} does not fit a series of "
                       f"{n_steps} steps (at most {n_steps // 2 - 1})")
    return cfg


# -- commands -----------------------------------------------------------------


def cmd_generate(args, cfg: RunConfig, out: Path) -> None:
    seed = cfg.values["run"]["seed"]
    g = cfg.values["generate"]
    kinds = _anomaly_kinds(g["anomalies"])
    clean = dt.generate_synthetic(g["family"], g["n_steps"], g["n_channels"], g["noise"], seed)
    labeled = dt.generate_synthetic(g["family"], g["n_steps"], g["n_channels"], g["noise"], seed + 1)
    test = dt.generate_synthetic(g["family"], g["n_steps"], g["n_channels"], g["noise"], seed + 2)
    rng = np.random.default_rng(seed + 3)
    labeled = _inject_round(labeled, kinds, g, rng)
    test = _inject_round(test, kinds, g, rng)

    dt.save_csv(clean, out / "train_clean.csv", with_labels=False)
    dt.save_csv(labeled, out / "train_labeled.csv")
    dt.save_csv(test, out / "test_labeled.csv")
    print(f"wrote train_clean.csv train_labeled.csv test_labeled.csv to {out}")


def _inject_round(ds, kinds, g, rng) -> dt.TimeSeriesDataset:
    n_anoms = g["n_anomalies"]
    n_steps = ds.n_steps
    ds = replace(ds, labels=np.zeros(n_steps, dtype=bool))  # labels even for n_anoms = 0
    # evenly strided slots keep injected ranges from colliding
    slot = n_steps // (n_anoms + 1)
    for i in range(n_anoms):
        kind = kinds[i % len(kinds)]
        length = 1 if kind == "spike" else min(g["anomaly_length"], slot // 2)
        start = (i + 1) * slot + int(rng.integers(-slot // 4, slot // 4 + 1))
        start = int(np.clip(start, 1, n_steps - length - 1))
        magnitude = g["anomaly_magnitude"]
        if np.isnan(magnitude):
            magnitude = ANOMALY_MAGNITUDES[kind]
        channel = int(rng.integers(0, ds.n_channels))
        spec = dt.AnomalySpec(kind, start, length, magnitude, (channel,))
        ds = dt.inject_anomaly(ds, spec, seed=int(rng.integers(0, 2**31)))
    return ds


def cmd_train(args, cfg: RunConfig, out: Path) -> None:
    method = cfg.values["run"]["method"]
    ds = dt.load_csv(args.data)
    encoder_cfg = cfg.encoder_config(method)
    model, report = train_model(
        ds, encoder_cfg, FlowConfig(**cfg.values["flow"]), cfg.train_config(),
        model_id=f"{method}-seed{cfg.values['run']['seed']}",
    )
    save_model(model, out / "model.tcf")
    report.to_csv(out / "train_report.csv")
    print(f"best epoch {report.best_epoch} val loss {report.best_val_loss:.4f}; "
          f"model written to {out / 'model.tcf'}")


def cmd_score(args, cfg: RunConfig, out: Path) -> None:
    model = load_model(args.model)
    ds = dt.load_csv(args.data, has_labels=args.labeled)
    series = score_series(model, ds)
    series.to_csv(out / "scores.csv", labels=ds.labels)
    if args.svg:
        write_score_svg(series, out / "scores.svg", labels=ds.labels)
    print(f"scored {series.scores.size} timesteps to {out / 'scores.csv'}")


def cmd_evaluate(args, cfg: RunConfig, out: Path) -> None:
    series, labels = load_score_csv(args.scores)
    if labels is None:
        if not args.data:
            raise CliError("scores file has no labels; pass --data with a labeled csv")
        labels = dt.load_csv(args.data, has_labels=True).labels
    window = mx.resolve_metric_window(cfg.values["metrics"]["window"], labels)
    scores = series.scores
    auc = mx.auc_roc(scores, labels)
    vus = mx.vus_roc(scores, labels, window)
    pr = mx.auc_pr(scores, labels)
    threshold = select_threshold(scores, labels)
    precision, recall, f1 = mx.precision_recall_f1(scores, labels, threshold)
    dataset_id = args.dataset_id or Path(args.scores).stem
    model_id = args.model_id or "model"
    rows = [
        ("auc_roc", auc), ("vus_roc", vus), ("auc_pr", pr),
        ("precision", precision), ("recall", recall), ("f1", f1),
        ("threshold", threshold), ("combined_30_70", mx.combined_objective(auc, vus)),
    ]
    dt.write_table(out / "metrics.csv", METRICS_HEADER,
                   [[dataset_id] * len(rows), [model_id] * len(rows), *zip(*rows)],
                   comment=f"vus_variant={mx.VUS_VARIANT} window={window}")
    print(f"auc={auc:.4f} vus={vus:.4f} f1={f1:.4f} -> {out / 'metrics.csv'}")


def cmd_search(args, cfg: RunConfig, out: Path) -> None:
    method = cfg.values["run"]["method"]
    s = cfg.values["search"]
    train_ds = dt.load_csv(args.train)
    labeled = dt.load_csv(args.labeled, has_labels=True) if args.labeled else None
    result = run_search(
        train_ds, labeled, method, s["objective"], s["budget"], cfg.encoder_config(method),
        cfg.train_config(), s["candidate_epochs"], s["final_epochs"], s["lookback_max"],
        metric_window=cfg.values["metrics"]["window"],
    )
    result.trials_csv(out / "trials.csv")
    save_model(result.best_model, out / "model.tcf")
    best = result.best_trial
    print(f"{len(result.trials)} trials; best fitness {best.fitness:.4f} "
          f"(auc={best.auc:.4f} vus={best.vus:.4f}); model at {out / 'model.tcf'}")


def cmd_export_latent(args, cfg: RunConfig, out: Path) -> None:
    model = load_model(args.model)
    ds = dt.load_csv(args.data, has_labels=args.labeled)
    export_latent(model, ds, out / "latent.csv")
    print(f"latent representation written to {out / 'latent.csv'}")


def cmd_report(args, cfg: RunConfig, out: Path) -> None:
    groups: dict[tuple[str, str], list[float]] = {}
    for path in args.inputs:
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            if header and header[0].startswith("#"):  # the comment line
                header = next(rows, None)
            if header != METRICS_HEADER:
                raise dt.DataError(f"{path}: header {header} is not {METRICS_HEADER}")
            for i, row in enumerate(rows, 1):
                try:
                    dataset, _model, metric, value = row
                    groups.setdefault((dataset, metric), []).append(float(value))
                except ValueError:
                    raise dt.DataError(f"{path}: row {i} is not dataset,model,metric,value "
                                       f"with a numeric value: {row}") from None
    stats = [(d, m, np.mean(v), np.std(v), len(v)) for (d, m), v in sorted(groups.items())]
    dt.write_table(out / "report.csv", ["dataset", "metric", "mean", "std", "n"],
                   list(zip(*stats)), comment=f"vus_variant={mx.VUS_VARIANT}")
    print(f"aggregated {len(args.inputs)} metric files to {out / 'report.csv'}")


# -- argument parsing -----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="INI config file")
    p.add_argument("--seed", dest="run.seed", type=int)
    p.add_argument("--out-dir", dest="run.out_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tcflow",
                                     description="conditioned-flow anomaly detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write synthetic train/eval/test CSVs")
    _add_common(p)
    p.add_argument("--family", dest="generate.family", choices=dt.FAMILIES)
    p.add_argument("--anomaly", dest="generate.anomalies", action="append",
                   help="anomaly kind, repeatable")
    p.add_argument("--n-steps", dest="generate.n_steps", type=int)
    p.add_argument("--n-channels", dest="generate.n_channels", type=int)
    p.add_argument("--noise", dest="generate.noise", type=float)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit a model on a clean training CSV")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--method", dest="run.method", choices=METHODS)
    p.add_argument("--lookback", dest="encoder.lookback", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score a CSV with a trained model")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--labeled", action="store_true", help="data CSV has a label column")
    p.add_argument("--svg", action="store_true", help="also write a score plot")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="compute metrics from a score CSV")
    _add_common(p)
    p.add_argument("--scores", required=True)
    p.add_argument("--data", help="labeled CSV if scores carry no labels")
    p.add_argument("--metric-window", dest="metrics.window", type=int)
    p.add_argument("--dataset-id")
    p.add_argument("--model-id")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("search", help="CMA-ES hyperparameter search")
    _add_common(p)
    p.add_argument("--train", required=True, help="clean training CSV")
    p.add_argument("--labeled", help="labeled evaluation CSV")
    p.add_argument("--method", dest="run.method", choices=METHODS)
    p.add_argument("--budget", dest="search.budget", type=int)
    p.add_argument("--metric-window", dest="metrics.window", type=int)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("export-latent", help="dump the normalized representation")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--labeled", action="store_true")
    p.set_defaults(func=cmd_export_latent)

    p = sub.add_parser("report", help="aggregate metric CSVs (mean and std per dataset)")
    _add_common(p)
    p.add_argument("inputs", nargs="+", help="metrics.csv files")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        out = Path(cfg.values["run"]["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        args.func(args, cfg, out)
        cfg.write(out / f"resolved-{args.command}.ini")
        return 0
    except Exception as exc:  # single machine-parseable line on any failure
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
