#!/usr/bin/env python3
"""tcflow benchmark: drives the real ``tcflow`` CLI on seeded workloads.

    python3 perfbench/run.py --workload search --seed 0 --seconds 25 --trace 0

Each workload is one closed sequence of CLI commands (``tcflow.cli.main``,
called in-process) run by this single process, so the process's peak RSS
belongs to that workload. Search candidates run sequentially:
``TCFLOW_WORKERS`` is removed from the environment. The training side of a
workload (training series, search guide series, the program's seed) is
fixed, so every seed asks for the same fit work; ``--seed`` draws the
held-out labeled test series that ``score`` and ``evaluate`` work on.

* ``--trace 0`` measures the end-to-end metrics with tracing off. Set-up
  repeats and reports its median. The fit command (``search`` or
  ``train``) repeats over the first half of ``--seconds``, score and
  evaluate over the second half; each reports its mean.
  ``fit_s`` is ``search_s`` on the search workload and ``train_s`` on the
  stateful one; the long-series workload fits in set-up.
* ``--trace 1`` runs set-up and the sequence once untraced, then once more
  with every layer boundary of tcflow wrapped by ``tracer.py``, and reports
  the per-layer metrics and the tracing overhead.

Every time is a wall time rescaled by a probe loop run just before and just
after it (see ``probe``), because a shared host can change speed by up to
1.7x for seconds at a time; the report keeps the raw wall times.

Output checks run after the timed phase: every command exits 0, ``scores.csv``
has one finite score per input row, ``auc_roc`` agrees with an independent
pairwise oracle, the search meets the acceptance floor, and repeats of the
same code write byte-identical inputs and outputs. The last line of standard
output is one JSON object; a failed check or command makes the exit code
non-zero. A report with every sample goes to ``perfbench/out/``.
``--workload all`` runs every workload, each in a fresh process, and prints
a table of every end-to-end metric. ``--smoke`` shrinks every size so the
whole harness runs in seconds (``test_smoke.py``).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 3  # at least; cheap set-ups repeat for SETUP_SECONDS
SETUP_SECONDS = 2.0
PROBE_REFERENCE_S = 0.016  # probe time at which scaled times equal wall times
MIN_USE_SAMPLES = 3  # score/evaluate passes per run, at least
AUC_ORACLE_TOL = 1e-12
SEARCH_AUC_FLOOR = 0.80  # acceptance criterion a07

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("fit_s", "s", "lower"),
    ("score_steps_per_s", "steps/s", "higher"),
    ("evaluate_steps_per_s", "steps/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("test_auc_roc", "1", "higher"),
    ("test_vus_roc", "1", "higher"),
    ("ok_share", "1", "higher"),
)


class CommandFailed(RuntimeError):
    def __init__(self, argv, code, error_line):
        super().__init__(f"tcflow {argv[0]} exited {code}: {error_line}")


class CheckFailed(RuntimeError):
    pass


# -- inputs ---------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    why: str
    base_seed: int
    family: str
    n_train: int
    n_test: int
    n_anomalies: int  # in the test series; the guide series takes len(anomalies)
    anomalies: list  # (kind, length, magnitude), cycled
    ini: dict  # INI sections handed to every command
    fit: str  # "search", "train", or "setup-train" (the fit is part of set-up)
    guide: bool = False  # write a labeled guide series for the search objective


A07_ANOMALIES = [("spike", 1, 5.0), ("platform", 25, 0.25), ("spike", 1, 4.0)]
# the two-epoch stateful model is weak: level and spread anomalies keep its
# AUC well above chance, so the AUC guard stays steady across test draws
STATEFUL_ANOMALIES = [("mean-shift", 20, 2.0), ("spike", 1, 5.0), ("variance", 30, 3.0),
                      ("amplitude", 30, 2.5)]
MIXED_ANOMALIES = [
    ("spike", 1, 5.0), ("platform", 25, 0.25), ("mean-shift", 20, 2.0),
    ("variance", 30, 3.0), ("pattern", 40, 2.2), ("amplitude", 30, 2.5),
]


def workloads(smoke: bool) -> dict[str, Workload]:
    """The three workloads at full size, or tiny for the smoke test."""
    search_ini = {
        "run": {"method": "tcnf-base"},
        "train": {"learning_rate": 3e-3},
        "search": {"budget": 9, "candidate_epochs": 8, "final_epochs": 20, "lookback_max": 50},
    }
    stateful_ini = {"run": {"method": "tcnf-stateful"}, "encoder": {"lookback": 10},
                    "train": {"epochs": 2}}
    long_ini = {"run": {"method": "tcnf-cnn"}, "encoder": {"lookback": 20}}
    # (training steps, test steps, anomalies in the test series)
    sizes = {"search": (2000, 2000, 15), "stateful": (1000, 1000, 8), "long-series": (2000, 40000, 39)}
    if smoke:
        search_ini["search"].update(candidate_epochs=1, final_epochs=1, lookback_max=5)
        stateful_ini["train"]["epochs"] = 1
        long_ini["train"] = {"epochs": 1}
        sizes = {"search": (200, 200, 3), "stateful": (120, 150, 2), "long-series": (200, 2000, 1)}
    return {
        "search": Workload(
            "search", "time to a tuned detector: CMA-ES search whose cost is diffcore graph "
            "building, backward and Adam at batch 128; metrics are negligible here",
            100, "sine", *sizes["search"], A07_ANOMALIES, search_ini, "search", guide=True),
        "stateful": Workload(
            "stateful", "batch-of-1 stateful LSTM path: train and score walk the series one "
            "row per flow call, the path batched-path work must leave unchanged",
            200, "wave", *sizes["stateful"], STATEFUL_ANOMALIES, stateful_ini, "train"),
        "long-series": Workload(
            "long-series", "forward-only 1024-row inference plus CSV I/O and every metric on a "
            "40k-step labeled series; no backward pass in the timed phase",
            300, "wave", *sizes["long-series"], MIXED_ANOMALIES, long_ini, "setup-train"),
    }


def _labeled_series(dt, wl: Workload, seed: int, rng, n_anomalies: int):
    ds = dt.generate_synthetic(wl.family, wl.n_test, 2, noise=0.05, seed=seed)
    slot = wl.n_test / (n_anomalies + 1)
    jitter = int(min(100, slot // 4))
    for i in range(n_anomalies):
        kind, length, magnitude = wl.anomalies[i % len(wl.anomalies)]
        start = int((i + 1) * slot + rng.integers(-jitter, jitter))
        channel = int(rng.integers(0, 2))
        spec = dt.AnomalySpec(kind, start, length, magnitude, (channel,))
        ds = dt.inject_anomaly(ds, spec, seed=int(rng.integers(1 << 30)))
    return ds


def write_inputs(dt, wl: Workload, seed: int, d: Path) -> dict:
    """Clean training CSV, labeled test CSV (and guide CSV) plus the INI file.

    The training side (training series, guide series and the program's own
    seed) is fixed per workload, so every seed asks for the same training and
    search work; ``seed`` draws the held-out test series. Anomalies sit at
    evenly strided starts jittered by up to 100 steps, one channel each, as
    in the acceptance gate's bundle.
    """
    d.mkdir(parents=True)
    dt.save_csv(dt.generate_synthetic(wl.family, wl.n_train, 2, noise=0.05, seed=wl.base_seed),
                d / "train.csv", with_labels=False)
    if wl.guide:
        guide = _labeled_series(dt, wl, wl.base_seed + 1, np.random.default_rng(wl.base_seed + 3),
                                len(wl.anomalies))
        dt.save_csv(guide, d / "guide.csv")
    test = _labeled_series(dt, wl, wl.base_seed + 2 + seed, np.random.default_rng([wl.base_seed, seed]),
                           wl.n_anomalies)
    dt.save_csv(test, d / "test.csv")
    ini = configparser.ConfigParser()
    for section, keys in wl.ini.items():
        ini[section] = {k: str(v) for k, v in keys.items()}
    ini["run"]["seed"] = str(wl.base_seed)
    with open(d / "run.ini", "w") as fh:
        ini.write(fh)
    return {"dir": d, "labels": test.labels.copy()}


# -- running commands ---------------------------------------------------------------


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop that does not touch tcflow.

    On a shared host the speed of one virtual CPU can swing by 1.7x between
    states that last from a fraction of a second to tens of seconds (seen on
    a 2-vCPU Xeon virtual machine). Probing right before and after a command
    measures the state the command ran in; dividing by the probe halved the
    run-to-run spread of the timings there.
    """
    total = 0
    start = perf_counter()
    for i in range(150_000):
        total += i * i % 7
    return perf_counter() - start


@dataclass
class Timing:
    """A wall time plus the mean of the probes taken around it."""

    wall: float
    probe: float

    @property
    def scaled(self) -> float:
        """The wall time rescaled to the reference host speed."""
        return self.wall * PROBE_REFERENCE_S / self.probe


def timed(fn):
    """Call ``fn()`` between two probes; returns its result and its Timing."""
    before = probe()
    start = perf_counter()
    result = fn()
    wall = perf_counter() - start
    return result, Timing(wall, (before + probe()) / 2)


@dataclass
class Ledger:
    """Every CLI command run, with its timing, plus search trial outcomes."""

    commands: list = field(default_factory=list)  # (command, exit code, Timing)
    trials: int = 0
    trials_failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.commands) + self.trials

    @property
    def failed(self) -> int:
        return sum(1 for _, code, _ in self.commands if code != 0) + self.trials_failed


def run_cli(cli, ledger: Ledger, argv: list[str]) -> Timing:
    """Run one tcflow command in-process."""
    gc.collect()  # each command starts from a clean heap, as a fresh process would
    out, err = io.StringIO(), io.StringIO()

    def main() -> int:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                return exc.code if isinstance(exc.code, int) else 2

    code, timing = timed(main)
    ledger.commands.append((argv[0], code, timing))
    if code != 0:
        lines = err.getvalue().strip().splitlines() or ["(no error output)"]
        raise CommandFailed(argv, code, lines[-1])
    return timing


def set_up(ctx, wl: Workload, seed: int, d: Path) -> tuple[dict, Timing, Timing | None]:
    """Write the inputs (and fit the model when the fit is set-up work).
    Returns the inputs, the set-up timing and the fit timing."""
    gc.collect()
    fit_timing = []

    def work() -> dict:
        inputs = write_inputs(ctx.dt, wl, seed, d)
        if wl.fit == "setup-train":
            fit_timing.append(run_cli(ctx.cli, ctx.ledger, [
                "train", "--config", str(d / "run.ini"), "--data", str(d / "train.csv"),
                "--out-dir", str(d)]))
            inputs["model"] = d / "model.tcf"
        return inputs

    inputs, timing = timed(work)
    return inputs, timing, (fit_timing or [None])[0]


def fit(ctx, wl: Workload, inputs: dict, out: Path) -> Timing:
    """The timed command that yields the model (``search`` or ``train``)."""
    d, ini = inputs["dir"], str(inputs["dir"] / "run.ini")
    if wl.fit == "search":
        timing = run_cli(ctx.cli, ctx.ledger, [
            "search", "--config", ini, "--train", str(d / "train.csv"),
            "--labeled", str(d / "guide.csv"), "--out-dir", str(out)])
        count_trials(ctx.ledger, out / "trials.csv")
        return timing
    return run_cli(ctx.cli, ctx.ledger, [
        "train", "--config", ini, "--data", str(d / "train.csv"), "--out-dir", str(out)])


def use(ctx, inputs: dict, model: Path, out: Path) -> tuple[Timing, Timing]:
    """Score the labeled test CSV with ``model``, then evaluate the scores."""
    d, ini = inputs["dir"], str(inputs["dir"] / "run.ini")
    out.mkdir(parents=True, exist_ok=True)
    score = run_cli(ctx.cli, ctx.ledger, [
        "score", "--config", ini, "--model", str(model), "--data", str(d / "test.csv"),
        "--labeled", "--out-dir", str(out)])
    evaluate = run_cli(ctx.cli, ctx.ledger, [
        "evaluate", "--config", ini, "--scores", str(out / "scores.csv"), "--out-dir", str(out)])
    return score, evaluate


def count_trials(ledger: Ledger, path: Path) -> None:
    """Search trials are operations too: a non-finite fitness is a failure."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    col = rows[0].index("fitness")
    fitness = [float(r[col]) for r in rows[1:]]
    ledger.trials += len(fitness)
    ledger.trials_failed += sum(1 for f in fitness if not math.isfinite(f))


# -- output checks (outside every timed region) ------------------------------------------


def oracle_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Pairwise AUC: each positive/negative pair won counts 1, a tie 1/2.
    Counted exactly through a sorted copy of the negatives."""
    pos = scores[labels]
    neg = np.sort(scores[~labels])
    below = np.searchsorted(neg, pos, side="left")
    at_or_below = np.searchsorted(neg, pos, side="right")
    twice_wins = 2 * int(below.sum()) + int((at_or_below - below).sum())
    return twice_wins / (2.0 * pos.size * neg.size)


def read_metrics(path: Path) -> dict[str, float]:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    col, val = rows[0].index("metric"), rows[0].index("value")
    return {r[col]: float(r[val]) for r in rows[1:]}


def check_outputs(out: Path, labels: np.ndarray) -> dict[str, float]:
    """Scores file shape and finiteness, labels and the AUC oracle."""
    with open(out / "scores.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["t", "score", "label"] or len(rows) - 1 != labels.size:
        raise CheckFailed(f"{out.name}/scores.csv: header {rows[0]}, {len(rows) - 1} rows "
                          f"for {labels.size} input rows")
    steps = np.array([int(r[0]) for r in rows[1:]])
    scores = np.array([float(r[1]) for r in rows[1:]])
    written = np.array([r[2] == "1" for r in rows[1:]])
    if not np.array_equal(steps, np.arange(labels.size)):
        raise CheckFailed(f"{out.name}/scores.csv: timestep column is not 0..{labels.size - 1}")
    if not np.isfinite(scores).all():
        raise CheckFailed(f"{out.name}/scores.csv: non-finite score at row "
                          f"{int(np.flatnonzero(~np.isfinite(scores))[0]) + 1}")
    if not np.array_equal(written, labels):
        raise CheckFailed(f"{out.name}/scores.csv: label column differs from the generated labels")
    metrics = read_metrics(out / "metrics.csv")
    oracle = oracle_auc(scores, labels)
    if abs(metrics["auc_roc"] - oracle) > AUC_ORACLE_TOL:
        raise CheckFailed(f"{out.name}/metrics.csv: auc_roc {metrics['auc_roc']!r} differs from "
                          f"the pairwise oracle {oracle!r}")
    return metrics


def same_bytes(dirs: list[Path], names: list[str]) -> int:
    """Every file in ``names`` is byte-identical across ``dirs``; returns the
    number of comparisons made."""
    compared = 0
    for name in names:
        first = (dirs[0] / name).read_bytes()
        for d in dirs[1:]:
            if (d / name).read_bytes() != first:
                raise CheckFailed(f"{name} differs between repeats {dirs[0].name} and {d.name}")
            compared += 1
    return compared


def input_files(wl: Workload) -> list[str]:
    names = ["train.csv", "test.csv", "run.ini"] + (["guide.csv"] if wl.guide else [])
    return names + (["model.tcf"] if wl.fit == "setup-train" else [])


def run_checks(wl: Workload, smoke: bool, setups: list[dict], fits: list[Path],
               uses: list[Path]) -> tuple[dict, dict[str, float]]:
    """All output checks. ``setups`` are repeated set-ups, ``fits`` the output
    directories of repeated fit commands, ``uses`` of score/evaluate passes."""
    checks = {"commands_exit_0": "pass"}
    labels = setups[0]["labels"]
    metrics = [check_outputs(d, labels) for d in uses]
    checks["scores_one_finite_per_row"] = f"pass ({len(uses)} files of {labels.size} rows)"
    checks["auc_roc_matches_oracle"] = f"pass ({len(uses)} files, tolerance {AUC_ORACLE_TOL})"
    auc = metrics[0]["auc_roc"]
    if wl.fit == "search" and not smoke:
        if auc < SEARCH_AUC_FLOOR:
            raise CheckFailed(f"search test auc_roc {auc:.4f} is below the a07 floor {SEARCH_AUC_FLOOR}")
        checks["search_auc_floor"] = f"pass ({auc:.4f} >= {SEARCH_AUC_FLOOR})"
    else:
        checks["search_auc_floor"] = "not applicable (" + ("smoke sizes" if smoke else "no search") + ")"
    n = same_bytes([s["dir"] for s in setups], input_files(wl))
    checks["set_up_repeats_identical"] = f"pass ({n} comparisons)"
    n = same_bytes(uses, ["scores.csv", "metrics.csv"])
    checks["use_repeats_identical"] = f"pass, scores.csv and metrics.csv ({n} comparisons)"
    fit_files = ["model.tcf"] + (["trials.csv"] if wl.fit == "search" else [])
    if wl.fit == "setup-train":
        checks["fit_repeats_identical"] = "pass, model.tcf is a set-up output (compared above)"
    elif len(fits) < 2:
        checks["fit_repeats_identical"] = (
            f"not run here: one {wl.fit} fits in --seconds; the --trace 1 run compares "
            + " and ".join(fit_files) + " of two runs")
    else:
        n = same_bytes(fits, fit_files)
        checks["fit_repeats_identical"] = f"pass, {' and '.join(fit_files)} ({n} comparisons)"
    return checks, metrics[0]


# -- environment -----------------------------------------------------------------


def openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy has loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from its own ``.git`` directory only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(removed_workers) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tcflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "tcflow_source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "TCFLOW_WORKERS": "unset" if removed_workers is None else f"unset (was {removed_workers!r})",
        "platform": platform.platform(),
    }


# -- the two modes ----------------------------------------------------------------------


@dataclass
class Context:
    cli: object
    dt: object
    ledger: Ledger
    work: Path


def _repeat(step, budget: float, at_least: int) -> int:
    """Call ``step(i)`` until another call would likely end past ``budget``
    seconds, and at least ``at_least`` times; returns the number of calls."""
    begin, n = perf_counter(), 0
    while True:
        step(n)
        n += 1
        elapsed = perf_counter() - begin
        if n >= at_least and elapsed * (n + 1) / n > budget:
            return n


def measure(ctx: Context, wl: Workload, seed: int, seconds: int, smoke: bool) -> dict:
    """Untraced run: end-to-end metrics with their samples.

    Every time is a wall time rescaled by the probes around it (``Timing``).
    Set-up repeats ``SETUP_REPEATS`` times or for ``SETUP_SECONDS`` (at most
    ``seconds``), whichever is longer, and reports its median. The fit command repeats
    over the first half of ``seconds`` (at least once); score and evaluate
    alternate over the second half (at least ``MIN_USE_SAMPLES`` times).
    Their times are means over the window; rates divide the steps by them.
    """
    setups, setup_t, fit_t = [], [], []

    def setup_step(i):
        inputs, timing, fit_timing = set_up(ctx, wl, seed, ctx.work / f"setup{i}")
        setups.append(inputs)
        setup_t.append(timing)
        if fit_timing is not None:
            fit_t.append(fit_timing)

    _repeat(setup_step, min(SETUP_SECONDS, seconds), SETUP_REPEATS)
    inputs = setups[-1]
    fits, fit_budget = [], 0.0
    if wl.fit == "setup-train":
        model = inputs["model"]
    else:
        fit_budget = seconds / 2

        def fit_step(i):
            fits.append(ctx.work / f"fit{i}")
            fit_t.append(fit(ctx, wl, inputs, fits[-1]))

        _repeat(fit_step, fit_budget, 1)
        model = fits[-1] / "model.tcf"
    uses, score_t, evaluate_t = [], [], []

    def use_step(i):
        uses.append(ctx.work / f"use{i}")
        score, evaluate = use(ctx, inputs, model, uses[-1])
        score_t.append(score)
        evaluate_t.append(evaluate)

    _repeat(use_step, seconds - fit_budget, MIN_USE_SAMPLES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks, metrics = run_checks(wl, smoke, setups, fits, uses)
    steps = inputs["labels"].size
    fit_s, score_s, evaluate_s = (statistics.fmean(t.scaled for t in ts)
                                  for ts in (fit_t, score_t, evaluate_t))
    values = {
        "setup_s": statistics.median(t.scaled for t in setup_t),
        "run_s": (fit_s if wl.fit != "setup-train" else 0.0) + score_s + evaluate_s,
        "fit_s": fit_s,
        "score_steps_per_s": steps / score_s,
        "evaluate_steps_per_s": steps / evaluate_s,
        "peak_rss_mb": peak_rss_mb,
        "test_auc_roc": metrics["auc_roc"],
        "test_vus_roc": metrics["vus_roc"],
        "ok_share": 1.0 - ctx.ledger.failed / ctx.ledger.attempted,
    }
    samples = {"setup_s": setup_t, "fit_s": fit_t, "score_s": score_t, "evaluate_s": evaluate_t}
    units = {name: unit for name, unit, _ in END_TO_END}
    return {
        "metrics": {name: {"value": values[name], "unit": units[name]} for name, _, _ in END_TO_END},
        "samples": {name: {"scaled_s": [t.scaled for t in ts], "wall_s": [t.wall for t in ts],
                           "probe_s": [t.probe for t in ts]} for name, ts in samples.items()},
        "unscaled_means_s": {name: statistics.fmean(t.wall for t in ts) for name, ts in samples.items()},
        "checks": checks,
        "fit_command": {"search": "search (fit_s is search_s)", "train": "train (fit_s is train_s)",
                        "setup-train": "train, run in set-up"}[wl.fit],
        "test_steps": steps,
    }


def trace(ctx: Context, wl: Workload, seed: int, smoke: bool, spans_path: Path) -> dict:
    """Set-up, fit, score and evaluate once untraced, then once traced.
    Span times are raw wall times; the run times that give the tracing
    overhead are rescaled like the end-to-end times."""
    from tracer import LAYER_METRICS, Tracer

    def one_pass(tag: str, phase) -> tuple[dict, float]:
        with phase("bench.setup"):
            inputs, _, _ = set_up(ctx, wl, seed, ctx.work / f"setup-{tag}")
        out = ctx.work / f"pass-{tag}"
        with phase("bench.timed"):
            timings = [] if wl.fit == "setup-train" else [fit(ctx, wl, inputs, out)]
            model = inputs["model"] if wl.fit == "setup-train" else out / "model.tcf"
            timings += use(ctx, inputs, model, out)
        return inputs, sum(t.scaled for t in timings)

    tracer = Tracer()
    plain_inputs, plain_run = one_pass("untraced", lambda name: nullcontext())
    tracer.install()
    try:
        traced_inputs, traced_run = one_pass("traced", tracer.span)
    finally:
        tracer.uninstall()
    tracer.save_spans(spans_path)
    outs = [ctx.work / "pass-untraced", ctx.work / "pass-traced"]
    checks, _ = run_checks(wl, smoke, [plain_inputs, traced_inputs],
                           outs if wl.fit != "setup-train" else [], outs)
    checks["repeats_compared"] = "untraced pass against traced pass"
    layer = tracer.layer_metrics(plain_run, traced_run)
    return {
        "metrics": {name: {"value": layer[name], "unit": LAYER_METRICS[name][0]}
                    for name in LAYER_METRICS},
        "checks": checks,
        "spans": tracer.span_table(),
        "span_count": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "layer_predictions": {name: {"moves": moves, "on": on}
                              for name, (_, moves, on) in LAYER_METRICS.items()},
        "ratio_bases": {
            "flow.rows_per_call": f"flow.rows / flow.log_prob_calls = {layer['flow.rows']} / {layer['flow.log_prob_calls']}",
            "trace.overhead_share": f"trace.overhead_s / trace.untraced_run_s = {layer['trace.overhead_s']!r} / {layer['trace.untraced_run_s']!r}",
        },
        "untraced_run_s": plain_run, "traced_run_s": traced_run,
    }


def import_program():
    """Import tcflow from this checkout's sources, never from elsewhere."""
    if not (SRC / "tcflow" / "cli.py").is_file():
        raise SystemExit(f"error: tcflow sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    from tcflow import cli, data

    if Path(cli.__file__).resolve().parent != SRC / "tcflow":
        raise SystemExit(f"error: tcflow imported from {cli.__file__}, not from {SRC}")
    return cli, data


def run_one(args) -> int:
    removed_workers = os.environ.pop("TCFLOW_WORKERS", None)
    cli, dt = import_program()
    wl = workloads(args.smoke)[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    ctx = Context(cli, dt, Ledger(), Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT)))
    report = {"workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": environment(removed_workers)}
    error = None
    try:
        if args.trace:
            report.update(trace(ctx, wl, args.seed, args.smoke, OUT / f"{tag}-spans.npz"))
        else:
            report.update(measure(ctx, wl, args.seed, args.seconds, args.smoke))
    except (CommandFailed, CheckFailed) as exc:
        error = str(exc)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    ledger = ctx.ledger
    report.update(attempted=max(1, ledger.attempted), failed=ledger.failed, error=error,
                  commands=[{"command": c, "exit": code, "wall_s": t.wall, "probe_s": t.probe, "scaled_s": t.scaled}
                            for c, code, t in ledger.commands])
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}"
          + (" (smoke sizes)" if args.smoke else "") + f"; report {OUT.relative_to(ROOT)}/{tag}.json")
    for key, value in report["environment"].items():
        print(f"  env {key}: {value}")
    if "fit_command" in report:
        print(f"  fit_s times: {report['fit_command']}")
    for name, check in report.get("checks", {}).items():
        print(f"  check {name}: {check}")
    if error:
        print(f"  FAILED: {error}")
    for name, metric in report.get("metrics", {}).items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    result = {"correct": error is None, "attempted": max(1, ledger.attempted),
              "failed": ledger.failed, "metrics": report.get("metrics", {})}
    print(json.dumps(result))
    return 0 if error is None else 1


def run_all(args) -> int:
    """Every workload in its own fresh process; one table of the results."""
    results, status = {}, 0
    for name in workloads(args.smoke):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        argv += ["--smoke"] if args.smoke else []
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.stderr.strip():
            print(proc.stderr.strip())
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        if proc.returncode != 0 or not results[name]["correct"]:
            status = 1
    names = list(next((r["metrics"] for r in results.values() if r["metrics"]), {}))
    print(f"\n{'metric':40s}" + "".join(f"{w:>16s}" for w in results) + "  unit")
    for metric in names:
        cells = [r["metrics"].get(metric, {}).get("value", float("nan")) for r in results.values()]
        unit = next(r["metrics"][metric]["unit"] for r in results.values() if metric in r["metrics"])
        print(f"{metric:40s}" + "".join(f"{c:>16.6g}" for c in cells) + f"  {unit}")
    print("correct: " + ", ".join(f"{w}={r['correct']}" for w, r in results.items()))
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["search", "stateful", "long-series", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25,
                        help="measure for this long; the sequence runs at least once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness's own test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
