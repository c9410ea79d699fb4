"""Outside-in tracing of tcflow's layers for the traced benchmark run.

The program itself carries no tracing code. ``Tracer.install`` replaces the
public functions and methods of each tcflow module with wrappers, at the
place where the program looks each name up (``tcflow.cli.train_model`` and
``tcflow.hyperopt.train_model`` are separate lookups of one function), and
``Tracer.uninstall`` puts the originals back.

A span records its name, start, end and parent span. Spans stay in memory,
in flat arrays, until the run ends. A span's self time is its duration minus
the durations of its direct child spans. Counters (nodes built, rows,
candidates, ...) are recorded at the same boundaries.
"""

from __future__ import annotations

import math
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

DIFFCORE_OPS = (
    "constant", "add", "sub", "neg", "mul", "matmul", "tanh", "sigmoid", "exp",
    "log", "sum_", "mean", "getitem", "concat", "reshape", "dropout", "conv1d",
    "lstm_cell",
)

# Per-layer metric -> (unit, the end-to-end metrics it should move, the
# workloads it should move them on). Written down before measuring so that a
# later change can be checked against the prediction; "no change" entries are
# the workloads that bypass the layer's hot path.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "diffcore.nodes": ("count", "fit_s (search_s, train_s), peak_rss_mb", "search, stateful; long-series is the forward-only check"),
    "diffcore.node_mb": ("MB", "peak_rss_mb, fit_s", "search, stateful; long-series is the forward-only check"),
    "diffcore.backward_calls": ("count", "fit_s", "search, stateful"),
    "diffcore.backward_s": ("s", "fit_s", "search, stateful"),
    **{
        f"diffcore.op.{op}.{kind}": (unit, "fit_s, score_steps_per_s", "search, stateful; long-series is the forward-only check")
        for op in DIFFCORE_OPS
        for kind, unit in (("calls", "count"), ("s", "s"))
    },
    "train.train_model_calls": ("count", "fit_s", "search, stateful"),
    "train.train_model_s": ("s", "fit_s", "search, stateful"),
    "train.epochs": ("count", "fit_s", "search, stateful"),
    "train.adam_steps": ("count", "fit_s", "search, stateful"),
    "train.adam_step_s": ("s", "fit_s", "search, stateful"),
    "train.save_model_s": ("s", "fit_s", "search, stateful"),
    "train.load_model_s": ("s", "score_steps_per_s", "all"),
    "flow.log_prob_calls": ("count", "fit_s, score_steps_per_s", "stateful (1 row per call); no change on search"),
    "flow.rows": ("count", "fit_s, score_steps_per_s", "stateful; no change on search"),
    "flow.rows_per_call": ("rows/call", "fit_s, score_steps_per_s", "stateful; base is flow.log_prob_calls"),
    "flow.coupling_inverse_calls": ("count", "fit_s, score_steps_per_s", "stateful; no change on search"),
    "flow.log_prob_s": ("s", "fit_s, score_steps_per_s", "stateful; no change on search"),
    "conditioners.encode_calls": ("count", "fit_s, score_steps_per_s", "stateful, long-series"),
    "conditioners.encode_rows": ("count", "fit_s, score_steps_per_s", "stateful, long-series"),
    "conditioners.encode_s": ("s", "fit_s, score_steps_per_s", "stateful, long-series"),
    "hyperopt.candidates": ("count", "fit_s (search_s), ok_share", "search"),
    "hyperopt.candidates_failed": ("count", "ok_share", "search"),
    "hyperopt.cma_s": ("s", "fit_s (search_s)", "search"),
    "score.steps": ("count", "score_steps_per_s", "long-series"),
    "score.score_series_s": ("s", "score_steps_per_s", "long-series"),
    "score.to_csv_s": ("s", "score_steps_per_s", "long-series"),
    "score.load_score_csv_s": ("s", "evaluate_steps_per_s", "long-series"),
    "score.select_threshold_s": ("s", "evaluate_steps_per_s", "long-series"),
    "metrics.auc_roc_s": ("s", "evaluate_steps_per_s", "long-series; no change on search"),
    "metrics.vus_roc_s": ("s", "evaluate_steps_per_s", "long-series; no change on search"),
    "metrics.weighted_auc_roc_calls": ("count", "evaluate_steps_per_s", "long-series; no change on search"),
    "metrics.auc_pr_s": ("s", "evaluate_steps_per_s", "long-series; no change on search"),
    "metrics.precision_recall_f1_calls": ("count", "evaluate_steps_per_s", "long-series; no change on search"),
    "metrics.precision_recall_f1_s": ("s", "evaluate_steps_per_s", "long-series; no change on search"),
    "data.load_csv_rows": ("count", "score_steps_per_s, setup_s", "long-series"),
    "data.load_csv_s": ("s", "score_steps_per_s", "long-series"),
    "data.save_csv_s": ("s", "setup_s", "long-series"),
    **{
        f"cli.{cmd}_s": ("s", "run_s", "all")
        for cmd in ("train", "search", "score", "evaluate")
    },
    "trace.untraced_run_s": ("s", "base of trace.overhead_share", "all"),
    "trace.overhead_s": ("s", "none: traced run_s minus untraced run_s", "all"),
    "trace.overhead_share": ("1", "none: trace.overhead_s / trace.untraced_run_s", "all"),
}

# Counts that must repeat exactly between two traced runs of the same inputs.
COUNT_METRICS = tuple(name for name, (unit, _, _) in LAYER_METRICS.items() if unit == "count")


def _rows(value) -> int:
    """Leading dimension of an array, a Node or a nested list."""
    value = getattr(value, "value", value)
    return int(np.shape(value)[0])


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    @contextmanager
    def span(self, name: str):
        """A benchmark-level span (set-up, timed phase) around a block."""
        index = self._begin(self._id(name))
        try:
            yield
        finally:
            self._finish(index)

    def _begin(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(perf_counter())
        return index

    def _finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str | None, count=None):
        """Wrapper of ``fn`` that records a span called ``name`` (no span when
        ``name`` is None) and then calls ``count(args, kwargs, result)``."""
        if name is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(args, kwargs, result)
                return result
            return counted
        name_id = self._id(name)
        begin, finish = self._begin, self._finish

        def traced(*args, **kwargs):
            index = begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(index)
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, name: str | None, count=None) -> None:
        """Replace ``owner.attr`` (a module global or a method defined on the
        class itself) by its traced wrapper."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Patch every layer boundary of tcflow listed in ``LAYER_METRICS``."""
        from tcflow import cli, data, flow, hyperopt, metrics, score, train
        from tcflow import conditioners as cond
        from tcflow import diffcore as dc

        add = self.add

        for cmd in ("train", "search", "score", "evaluate"):
            self.patch(cli, f"cmd_{cmd}", f"cli.{cmd}")

        self.patch(data, "load_csv", "data.load_csv",
                   lambda a, k, ds: add("data.load_csv_rows", ds.n_steps))
        self.patch(data, "save_csv", "data.save_csv")

        def nodes(args, kwargs, result):
            add("diffcore.nodes")
            add("diffcore.node_bytes", args[0].value.nbytes)

        self.patch(dc.Node, "__init__", None, nodes)
        for op in DIFFCORE_OPS:
            self.patch(dc, op, f"diffcore.op.{op}")
        self.patch(dc, "backward", "diffcore.backward")

        def trained(args, kwargs, result):
            add("train.epochs", len(result[1].train_losses))

        for owner in (cli, hyperopt):
            self.patch(owner, "train_model", "train.train_model", trained)
        self.patch(train, "adam_step", "train.adam_step")
        self.patch(train, "nll_loss", "train.nll_loss")
        self.patch(cli, "save_model", "train.save_model")
        self.patch(cli, "load_model", "train.load_model")

        self.patch(flow.FlowModel, "log_prob_nodes", "flow.log_prob",
                   lambda a, k, r: add("flow.rows", _rows(a[1])))
        self.patch(flow.CouplingLayer, "inverse", "flow.coupling_inverse")

        def encoded(args, kwargs, result):
            add("conditioners.encode_rows", _rows(args[1]))

        for cls in (cond.Encoder, cond.PassthroughEncoder, cond.FixedSummaryEncoder,
                    cond.MlpEncoder, cond.CnnEncoder, cond.LstmEncoder):
            self.patch(cls, "encode_batch", "conditioners.encode", encoded)
        self.patch(cond.StatefulLstmEncoder, "encode_step", "conditioners.encode",
                   lambda a, k, r: add("conditioners.encode_rows", 1))

        def told(args, kwargs, result):
            fitness = np.asarray(args[2], dtype=np.float64)
            add("hyperopt.candidates", fitness.size)
            add("hyperopt.candidates_failed", int((~np.isfinite(fitness)).sum()))

        self.patch(hyperopt.CmaEs, "ask", "hyperopt.cma")
        self.patch(hyperopt.CmaEs, "tell", "hyperopt.cma", told)
        self.patch(cli, "run_search", "hyperopt.run_search")

        for owner in (cli, hyperopt):
            self.patch(owner, "score_series", "score.score_series",
                       lambda a, k, r: add("score.steps", a[1].n_steps))
        self.patch(score.ScoreSeries, "to_csv", "score.to_csv")
        self.patch(cli, "load_score_csv", "score.load_score_csv")
        self.patch(cli, "select_threshold", "score.select_threshold")

        for fn in ("auc_roc", "vus_roc", "auc_pr", "precision_recall_f1"):
            self.patch(metrics, fn, f"metrics.{fn}")
        for fn in ("auc_roc", "vus_roc"):
            self.patch(hyperopt, fn, f"metrics.{fn}")
        self.patch(metrics, "weighted_auc_roc", None,
                   lambda a, k, r: add("metrics.weighted_auc_roc_calls"))

    # -- results ---------------------------------------------------------

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        names, parent = np.asarray(self.name_id), np.asarray(self.parent)
        duration = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent],
                               minlength=duration.size)
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        total = np.bincount(names, weights=duration, minlength=width)
        self_s = np.bincount(names, weights=duration - children, minlength=width)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def save_spans(self, path) -> None:
        """Write every span as flat arrays: name index, parent index, start, end."""
        np.savez_compressed(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                            parent=np.asarray(self.parent), start=np.asarray(self.start),
                            end=np.asarray(self.end))

    def layer_metrics(self, untraced_run_s: float, traced_run_s: float) -> dict[str, float]:
        """Every metric of ``LAYER_METRICS`` from the recorded spans and counts."""
        spans = self.span_table()

        def calls(span):
            return spans.get(span, {}).get("calls", 0)

        def self_s(span):
            return spans.get(span, {}).get("self_s", 0.0)

        c = self.counts
        out: dict[str, float] = {
            "diffcore.nodes": c.get("diffcore.nodes", 0),
            "diffcore.node_mb": c.get("diffcore.node_bytes", 0) / 1e6,
            "diffcore.backward_calls": calls("diffcore.backward"),
            "diffcore.backward_s": self_s("diffcore.backward"),
        }
        for op in DIFFCORE_OPS:
            out[f"diffcore.op.{op}.calls"] = calls(f"diffcore.op.{op}")
            out[f"diffcore.op.{op}.s"] = self_s(f"diffcore.op.{op}")
        log_prob_calls = calls("flow.log_prob")
        out.update({
            "train.train_model_calls": calls("train.train_model"),
            "train.train_model_s": self_s("train.train_model"),
            "train.epochs": c.get("train.epochs", 0),
            "train.adam_steps": calls("train.adam_step"),
            "train.adam_step_s": self_s("train.adam_step"),
            "train.save_model_s": self_s("train.save_model"),
            "train.load_model_s": self_s("train.load_model"),
            "flow.log_prob_calls": log_prob_calls,
            "flow.rows": c.get("flow.rows", 0),
            "flow.rows_per_call": c.get("flow.rows", 0) / log_prob_calls if log_prob_calls else 0.0,
            "flow.coupling_inverse_calls": calls("flow.coupling_inverse"),
            "flow.log_prob_s": self_s("flow.log_prob"),
            "conditioners.encode_calls": calls("conditioners.encode"),
            "conditioners.encode_rows": c.get("conditioners.encode_rows", 0),
            "conditioners.encode_s": self_s("conditioners.encode"),
            "hyperopt.candidates": c.get("hyperopt.candidates", 0),
            "hyperopt.candidates_failed": c.get("hyperopt.candidates_failed", 0),
            "hyperopt.cma_s": self_s("hyperopt.cma"),
            "score.steps": c.get("score.steps", 0),
            "score.score_series_s": self_s("score.score_series"),
            "score.to_csv_s": self_s("score.to_csv"),
            "score.load_score_csv_s": self_s("score.load_score_csv"),
            "score.select_threshold_s": self_s("score.select_threshold"),
            "metrics.auc_roc_s": self_s("metrics.auc_roc"),
            "metrics.vus_roc_s": self_s("metrics.vus_roc"),
            "metrics.weighted_auc_roc_calls": c.get("metrics.weighted_auc_roc_calls", 0),
            "metrics.auc_pr_s": self_s("metrics.auc_pr"),
            "metrics.precision_recall_f1_calls": calls("metrics.precision_recall_f1"),
            "metrics.precision_recall_f1_s": self_s("metrics.precision_recall_f1"),
            "data.load_csv_rows": c.get("data.load_csv_rows", 0),
            "data.load_csv_s": self_s("data.load_csv"),
            "data.save_csv_s": self_s("data.save_csv"),
        })
        for cmd in ("train", "search", "score", "evaluate"):
            out[f"cli.{cmd}_s"] = self_s(f"cli.{cmd}")
        overhead = traced_run_s - untraced_run_s
        out["trace.untraced_run_s"] = untraced_run_s
        out["trace.overhead_s"] = overhead
        out["trace.overhead_share"] = overhead / untraced_run_s if untraced_run_s > 0 else math.nan
        assert set(out) == set(LAYER_METRICS), set(out) ^ set(LAYER_METRICS)
        return out
