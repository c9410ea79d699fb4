"""Command-line pipeline: generate, train, score, evaluate, search,
export-latent and report.

Every run resolves its configuration (file, then flags) against a fixed
schema, rejects unknown keys, and writes the fully resolved config next to
its outputs so any artifact can be reproduced from that file plus the seed.
All randomness derives from the single per-run seed.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import data as dt
from . import metrics as mx
from .conditioners import EncoderConfig
from .flow import ConditionerConfig, FlowConfig
from .hyperopt import (
    CANDIDATE_EPOCHS,
    CANDIDATE_PATIENCE,
    FINAL_EPOCHS,
    LOOKBACK_MAX,
    METHOD_ENCODERS,
    OBJECTIVES,
    flow_config,
    run_search,
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

# per-kind default anomaly strength (sigma units, absolute level for platform,
# factor for amplitude/pattern)
ANOMALY_MAGNITUDES = {
    "spike": 4.0, "platform": 0.3, "mean-shift": 2.0, "amplitude": 2.5,
    "pattern": 2.5, "variance": 3.0, "trend": 3.0, "cutoff": 0.0,
}


def _field_defaults(cls, skip=()) -> dict:
    return {f.name: f.default for f in fields(cls) if f.name not in skip}


# Every key's type is the type of its default.
DEFAULTS = {
    "run": {"seed": 0, "out_dir": "runs", "method": "tcnf-base"},
    "generate": {
        "family": "sine", "n_steps": 2000, "n_channels": 2, "noise": 0.05,
        "anomalies": "spike", "n_anomalies": 3, "anomaly_magnitude": float("nan"),
        "anomaly_length": 20,
    },
    "flow": {
        "coupling_layers": FlowConfig.n_layers,
        **{ConditionerConfig.KEY_PREFIX + name: value
           for name, value in _field_defaults(ConditionerConfig).items()},
    },
    "encoder": _field_defaults(EncoderConfig, skip=("kind",)),
    "train": _field_defaults(TrainConfig, skip=("seed",)),
    "search": {
        "budget": 18, "objective": OBJECTIVES[0], "candidate_epochs": CANDIDATE_EPOCHS,
        "final_epochs": FINAL_EPOCHS, "lookback_max": LOOKBACK_MAX,
    },
    "metrics": {"window": -1},
}


class CliError(ValueError):
    pass


class RunConfig:
    """Schema-checked layered configuration: defaults, then file, then flags."""

    def __init__(self):
        self.values = {section: dict(keys) for section, keys in DEFAULTS.items()}

    def load_file(self, path: str) -> None:
        parser = configparser.ConfigParser()
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

    def get(self, section: str, key: str):
        return self.values[section][key]

    def write(self, path) -> None:
        parser = configparser.ConfigParser()
        for section, keys in self.values.items():
            parser[section] = {k: str(v) for k, v in keys.items()}
        with open(path, "w") as fh:
            parser.write(fh)

    # -- typed views ---------------------------------------------------

    def encoder_config(self, method: str) -> EncoderConfig:
        return EncoderConfig(kind=METHOD_ENCODERS[method], **self.values["encoder"])

    def flow_config(self) -> FlowConfig:
        return flow_config(self.values["flow"])

    def train_config(self) -> TrainConfig:
        return TrainConfig(seed=self.get("run", "seed"), **self.values["train"])


def _build_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg.load_file(args.config)
    if args.seed is not None:
        cfg.set("run", "seed", args.seed)
    if args.out_dir is not None:
        cfg.set("run", "out_dir", args.out_dir)
    if getattr(args, "method", None):
        cfg.set("run", "method", args.method)
    if getattr(args, "lookback", None) is not None:
        cfg.set("encoder", "lookback", args.lookback)
    if getattr(args, "metric_window", None) is not None:
        cfg.set("metrics", "window", args.metric_window)
    if getattr(args, "budget", None) is not None:
        cfg.set("search", "budget", args.budget)
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.get("run", "out_dir"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _method(cfg: RunConfig) -> str:
    method = cfg.get("run", "method")
    if method not in METHODS:
        raise CliError(f"unknown method {method!r} (choose from {', '.join(METHODS)})")
    return method


def _prepare_train(path: str) -> dt.TimeSeriesDataset:
    ds = dt.load_csv(path)
    return dt.pad_even_channels(dt.normalize_minmax(ds))


def _prepare_scored(path: str, model, has_labels: bool) -> dt.TimeSeriesDataset:
    ds = dt.load_csv(path, has_labels=has_labels)
    if model.norm_stats is None:
        raise CliError("model carries no normalization statistics")
    return dt.pad_even_channels(dt.normalize_with_stats(ds, model.norm_stats))


# -- commands -----------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = _build_config(args)
    if args.family:
        cfg.set("generate", "family", args.family)
    if args.anomaly:
        cfg.set("generate", "anomalies", ",".join(args.anomaly))
    for flag in ("n_steps", "n_channels", "noise"):
        value = getattr(args, flag)
        if value is not None:
            cfg.set("generate", flag, value)
    out = _out_dir(cfg)
    seed = cfg.get("run", "seed")
    g = cfg.values["generate"]
    kinds = [k.strip() for k in g["anomalies"].split(",") if k.strip()]
    if not kinds and g["n_anomalies"] > 0:
        raise CliError(f"[generate] anomalies is empty; n_anomalies = {g['n_anomalies']}")
    for kind in kinds:
        if kind not in dt.ANOMALY_KINDS:
            raise CliError(f"unknown anomaly kind {kind!r}")

    clean = dt.generate_synthetic(g["family"], g["n_steps"], g["n_channels"], g["noise"], seed)
    labeled = dt.generate_synthetic(g["family"], g["n_steps"], g["n_channels"], g["noise"], seed + 1)
    test = dt.generate_synthetic(g["family"], g["n_steps"], g["n_channels"], g["noise"], seed + 2)
    rng = np.random.default_rng(seed + 3)
    labeled = _inject_round(labeled, kinds, g, rng)
    test = _inject_round(test, kinds, g, rng)

    dt.save_csv(clean, out / "train_clean.csv", with_labels=False)
    dt.save_csv(labeled, out / "train_labeled.csv")
    dt.save_csv(test, out / "test_labeled.csv")
    cfg.write(out / "resolved-generate.ini")
    print(f"wrote train_clean.csv train_labeled.csv test_labeled.csv to {out}")
    return 0


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


def cmd_train(args) -> int:
    cfg = _build_config(args)
    out = _out_dir(cfg)
    method = _method(cfg)
    ds = _prepare_train(args.data)
    encoder_cfg = cfg.encoder_config(method)
    model, report = train_model(
        ds, encoder_cfg, cfg.flow_config(), cfg.train_config(),
        model_id=f"{method}-seed{cfg.get('run', 'seed')}",
    )
    save_model(model, out / "model.tcf")
    report.to_csv(out / "train_report.csv")
    cfg.write(out / "resolved-train.ini")
    print(f"best epoch {report.best_epoch} val loss {report.best_val_loss:.4f}; "
          f"model written to {out / 'model.tcf'}")
    return 0


def cmd_score(args) -> int:
    cfg = _build_config(args)
    out = _out_dir(cfg)
    model = load_model(args.model)
    ds = _prepare_scored(args.data, model, has_labels=args.labeled)
    series = score_series(model, ds)
    series.to_csv(out / "scores.csv", labels=ds.labels)
    if args.svg:
        write_score_svg(series, out / "scores.svg", labels=ds.labels)
    cfg.write(out / "resolved-score.ini")
    print(f"scored {series.scores.size} timesteps to {out / 'scores.csv'}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _build_config(args)
    out = _out_dir(cfg)
    series, labels = load_score_csv(args.scores)
    if labels is None:
        if not args.data:
            raise CliError("scores file has no labels; pass --data with a labeled csv")
        labels = dt.load_csv(args.data, has_labels=True).labels
    window = cfg.get("metrics", "window")
    if window < 0:
        window = mx.infer_metric_window(labels)
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
    dt.write_table(out / "metrics.csv", ["dataset", "model", "metric", "value"],
                   [[dataset_id] * len(rows), [model_id] * len(rows), *zip(*rows)],
                   comment=f"vus_variant={mx.VUS_VARIANT} window={window}")
    cfg.write(out / "resolved-evaluate.ini")
    print(f"auc={auc:.4f} vus={vus:.4f} f1={f1:.4f} -> {out / 'metrics.csv'}")
    return 0


def cmd_search(args) -> int:
    cfg = _build_config(args)
    out = _out_dir(cfg)
    method = _method(cfg)
    train_ds = dt.load_csv(args.train)
    labeled = dt.load_csv(args.labeled, has_labels=True) if args.labeled else None
    s = cfg.values["search"]
    window = cfg.get("metrics", "window")
    candidate_cfg = TrainConfig(**dict(cfg.values["train"], epochs=s["candidate_epochs"],
                                       patience=CANDIDATE_PATIENCE))
    result = run_search(
        train_ds, labeled, method, s["objective"], s["budget"],
        seed=cfg.get("run", "seed"),
        metric_window=None if window < 0 else window,
        candidate_cfg=candidate_cfg,
        final_epochs=s["final_epochs"],
        lookback_max=s["lookback_max"],
    )
    result.trials_csv(out / "trials.csv")
    save_model(result.best_model, out / "model.tcf")
    cfg.write(out / "resolved-search.ini")
    best = result.best_trial
    print(f"{len(result.trials)} trials; best fitness {best.fitness:.4f} "
          f"(auc={best.auc:.4f} vus={best.vus:.4f}); model at {out / 'model.tcf'}")
    return 0


def cmd_export_latent(args) -> int:
    cfg = _build_config(args)
    out = _out_dir(cfg)
    model = load_model(args.model)
    ds = _prepare_scored(args.data, model, has_labels=args.labeled)
    export_latent(model, ds, out / "latent.csv")
    cfg.write(out / "resolved-export-latent.ini")
    print(f"latent representation written to {out / 'latent.csv'}")
    return 0


def cmd_report(args) -> int:
    cfg = _build_config(args)
    out = _out_dir(cfg)
    groups: dict[tuple[str, str], list[float]] = {}
    for path in args.inputs:
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            next(rows, None)  # the comment line
            next(rows, None)  # the header
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
    return 0


# -- argument parsing -----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="INI config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tcflow",
                                     description="conditioned-flow anomaly detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write synthetic train/eval/test CSVs")
    _add_common(p)
    p.add_argument("--family", choices=dt.FAMILIES, default=None)
    p.add_argument("--anomaly", action="append", default=None,
                   help="anomaly kind, repeatable")
    p.add_argument("--n-steps", dest="n_steps", type=int, default=None)
    p.add_argument("--n-channels", dest="n_channels", type=int, default=None)
    p.add_argument("--noise", type=float, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit a model on a clean training CSV")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=METHODS, default=None)
    p.add_argument("--lookback", type=int, default=None)
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
    p.add_argument("--data", default=None, help="labeled CSV if scores carry no labels")
    p.add_argument("--metric-window", dest="metric_window", type=int, default=None)
    p.add_argument("--dataset-id", default=None)
    p.add_argument("--model-id", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("search", help="CMA-ES hyperparameter search")
    _add_common(p)
    p.add_argument("--train", required=True, help="clean training CSV")
    p.add_argument("--labeled", default=None, help="labeled evaluation CSV")
    p.add_argument("--method", choices=METHODS, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--metric-window", dest="metric_window", type=int, default=None)
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
        return args.func(args)
    except Exception as exc:  # single machine-parseable line on any failure
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
