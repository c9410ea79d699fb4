"""CMA-ES hyperparameter search over the bounded per-method space.

The optimizer is a standard (mu/mu_w, lambda) covariance matrix adaptation
evolution strategy working in the normalized unit cube: weighted mean
recombination, cumulative step-size adaptation and rank-one plus rank-mu
covariance updates, with candidates reflected back into bounds. Selection is
purely rank based, so any strictly monotone transform of the fitness values
leaves the update unchanged. When the best fitness stagnates the search
restarts with a doubled population. ``CmaEs`` holds its own state.

A search space is a list of ``ParamSpec`` rows, each named by the
``FlowConfig`` or ``EncoderConfig`` field it sets, which is its config key.
Each candidate vector is decoded once, to those fields' values (integers
rounded half-up) that one ``_evaluate_candidate`` call trains and its
``Trial`` records. A candidate trains a reduced-budget model and is ranked
either by the labeled 30:70 AUC/VUS blend or by the best validation loss. ``_train_trial`` trains every
model of a search, each candidate and the winner's refit, by one rule.

The candidates of one generation are independent, so ``run_search`` trains
them on a process pool of ``TCFLOW_WORKERS`` workers, by default one per
usable CPU up to the population size, each with one OpenBLAS thread. One
worker, or one usable CPU, trains them in order in the search's own process.
A pool whose worker dies is dropped: that generation and the rest of the
search run in order in the search's process. Every order gives the same
trials.
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .conditioners import ENCODERS, EncoderConfig
from .data import DataError, TimeSeriesDataset, write_table
from .flow import FlowConfig
from .metrics import auc_roc, combined_objective, resolve_metric_window, vus_roc
from .score import score_series
from .train import TrainConfig, train_model

OBJECTIVES = ("labeled-30-70", "val-loss")

# Early stopping after this many epochs without a better validation loss: a
# candidate's, and the winner's refit's.
CANDIDATE_PATIENCE = 3
FINAL_PATIENCE = 5

METHOD_ENCODERS = {
    "realnvp": "none",
    "tcnf-base": "passthrough",
    "tcnf-fixed": "fixed-encode",
    "tcnf-mlp": "mlp",
    "tcnf-cnn": "cnn",
    "tcnf-stateless": "lstm-stateless",
    "tcnf-stateful": "lstm-stateful",
}


# -- search space -------------------------------------------------------------


@dataclass
class ParamSpec:
    name: str
    lower: float
    upper: float
    kind: str  # real | int

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"{self.name}: lower bound {self.lower} > upper bound {self.upper}")


def space_for_method(method: str, lookback_max: int) -> list[ParamSpec]:
    """Bounded hyperparameter rows for one method: each ``FlowConfig`` field,
    then each ``EncoderConfig`` field the method's encoder reads, that has a
    finite search range. A row is named by its field and spans the field's
    ``RANGES``, except ``coupling_layers`` (3..20) and ``lookback``
    (1..``lookback_max``); it is integer when the field's default is."""
    if method not in METHOD_ENCODERS:
        raise ValueError(f"unknown method {method!r}")
    # the search ranges of the two fields whose config range is unbounded
    searched = {"coupling_layers": (3, 20), "lookback": (1, lookback_max)}
    rows = []
    for cls, attrs in ((FlowConfig, [f.name for f in fields(FlowConfig)]),
                       (EncoderConfig, ENCODERS[METHOD_ENCODERS[method]].reads)):
        for attr in attrs:
            lower, upper = searched.get(attr, cls.RANGES[attr])
            if math.isfinite(upper):
                kind = "int" if type(getattr(cls, attr)) is int else "real"
                rows.append(ParamSpec(attr, lower, upper, kind))
    return rows


def decode(vector: np.ndarray, space: list[ParamSpec]) -> dict:
    """Affine map from the unit cube to bounds; integers round half-up and
    the result is always in-bounds (a row with equal bounds decodes to them)."""
    vector = np.clip(np.asarray(vector, dtype=np.float64), 0.0, 1.0)
    out = {}
    for v, spec in zip(vector, space):
        value = spec.lower + v * (spec.upper - spec.lower)
        if spec.kind == "int":
            value = int(min(max(math.floor(value + 0.5), spec.lower), spec.upper))
        out[spec.name] = value
    return out


def configs_from_params(method: str, params: dict,
                        encoder_cfg: EncoderConfig) -> tuple[EncoderConfig, FlowConfig]:
    """The configs of one trial's decoded ``params``, each read by field name:
    ``encoder_cfg`` with the method's kind, the lookback (1 when not searched)
    and the searched encoder fields, and the flow of the ``FlowConfig``
    fields."""
    kind = METHOD_ENCODERS[method]
    searched = {attr: params[attr] for attr in ENCODERS[kind].reads if attr in params}
    encoder_cfg = replace(encoder_cfg, kind=kind, **{"lookback": 1, **searched})
    return encoder_cfg, FlowConfig(**{f.name: params[f.name] for f in fields(FlowConfig)})


# -- CMA-ES --------------------------------------------------------------------


def default_population(n: int) -> int:
    return 4 + int(math.floor(3.0 * math.log(n)))


def reflect_into_unit(x: np.ndarray) -> np.ndarray:
    """Fold values back into [0, 1] by reflection at both walls."""
    folded = np.mod(x, 2.0)
    return np.where(folded > 1.0, 2.0 - folded, folded)


class CmaEs:
    """Minimizer over [0, 1]^n with stagnation restarts at doubled population.
    ``_init_state`` sets the whole sampling distribution, at the start and at
    each restart."""

    SIGMA0 = 0.3  # the step size at the start and at each restart
    RESTART_WINDOW = 20  # generations per window of the stagnation test
    RESTART_TOL = 1e-12  # a window's least best-fitness gain that is not stagnation

    def __init__(self, n: int, seed: int):
        self.n = n
        self.rng = np.random.default_rng(seed)
        self.best_vector: np.ndarray | None = None
        self.best_fitness = np.inf
        self.restarts = 0
        self._init_state(default_population(n), np.full(n, 0.5))

    def _init_state(self, lam: int, mean: np.ndarray):
        n, mu = self.n, lam // 2
        raw = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
        self.weights = raw / raw.sum()
        self.mu_eff = mu_eff = 1.0 / float((self.weights**2).sum())
        self.lam = lam
        self.mean = mean.astype(np.float64)
        self.sigma = self.SIGMA0
        self.cov = np.eye(n)
        self.path_sigma = np.zeros(n)
        self.path_cov = np.zeros(n)
        self.generation = 0
        self.c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
        self.d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + self.c_sigma
        self.c_cov_path = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n)
        self.c_one = 2.0 / ((n + 1.3) ** 2 + mu_eff)
        self.c_mu = min(1.0 - self.c_one,
                        2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) ** 2 + mu_eff))
        self.chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))
        self._history: list[float] = []

    def _decomposed(self):
        cov = (self.cov + self.cov.T) / 2.0
        eigvals, eigvecs = np.linalg.eigh(cov)
        floor = max(eigvals.max(), 1.0) * 1e-14
        eigvals = np.maximum(eigvals, floor)
        self.cov = (eigvecs * eigvals) @ eigvecs.T
        return eigvecs, np.sqrt(eigvals)

    def ask(self) -> np.ndarray:
        """Sample the population: mean + sigma * N(0, C), reflected into bounds."""
        basis, scale = self._decomposed()
        z = self.rng.standard_normal((self.lam, self.n))
        raw = self.mean + self.sigma * (z * scale) @ basis.T
        return reflect_into_unit(raw)

    def tell(self, candidates: np.ndarray, fitnesses) -> None:
        """Rank-based distribution update; NaN fitness counts as worst."""
        candidates = np.asarray(candidates, dtype=np.float64)
        fitnesses = np.asarray(fitnesses, dtype=np.float64)
        if candidates.shape != (self.lam, self.n) or fitnesses.shape != (self.lam,):
            raise ValueError(
                f"expected {self.lam} candidates of dimension {self.n}, "
                f"got {candidates.shape} with {fitnesses.shape} fitnesses"
            )
        fitnesses = np.where(np.isnan(fitnesses), np.inf, fitnesses)
        order = np.argsort(fitnesses, kind="mergesort")
        if fitnesses[order[0]] < self.best_fitness:
            self.best_fitness = float(fitnesses[order[0]])
            self.best_vector = candidates[order[0]].copy()
        self._history.append(float(fitnesses[order[0]]))
        self.generation += 1
        if not np.all(fitnesses == fitnesses[0]):  # all-equal carries no ranking signal
            self._update(candidates[order])
        if self._stagnated():
            self.restarts += 1
            self._init_state(self.lam * 2, self.rng.uniform(0.0, 1.0, self.n))

    def _update(self, ranked: np.ndarray) -> None:
        basis, scale = self._decomposed()
        y = (ranked[:self.weights.size] - self.mean) / self.sigma
        y_w = self.weights @ y
        self.mean = self.mean + self.sigma * y_w

        inv_sqrt = (basis / scale) @ basis.T
        self.path_sigma = (1.0 - self.c_sigma) * self.path_sigma + math.sqrt(
            self.c_sigma * (2.0 - self.c_sigma) * self.mu_eff
        ) * (inv_sqrt @ y_w)
        norm_ps = float(np.linalg.norm(self.path_sigma))
        expected = math.sqrt(1.0 - (1.0 - self.c_sigma) ** (2.0 * self.generation))
        h_sigma = 1.0 if norm_ps / expected < (1.4 + 2.0 / (self.n + 1.0)) * self.chi_n else 0.0

        self.path_cov = (1.0 - self.c_cov_path) * self.path_cov + h_sigma * math.sqrt(
            self.c_cov_path * (2.0 - self.c_cov_path) * self.mu_eff
        ) * y_w
        rank_one = np.outer(self.path_cov, self.path_cov)
        rank_mu = (self.weights[:, None] * y).T @ y
        self.cov = (
            (1.0 - self.c_one - self.c_mu) * self.cov
            + self.c_one * (rank_one + (1.0 - h_sigma) * self.c_cov_path * (2.0 - self.c_cov_path) * self.cov)
            + self.c_mu * rank_mu
        )
        self.sigma = self.sigma * math.exp((self.c_sigma / self.d_sigma) * (norm_ps / self.chi_n - 1.0))

    def _stagnated(self) -> bool:
        w = self.RESTART_WINDOW
        if len(self._history) < 2 * w:
            return False
        recent = min(self._history[-w:])
        earlier = min(self._history[: -w])
        return earlier - recent < self.RESTART_TOL


# -- candidate evaluation and the search driver ----------------------------------


@dataclass
class Trial:
    generation: int
    index: int
    params: dict
    fitness: float
    auc: float
    vus: float
    val_loss: float
    seed: int  # the trial's training seed, derived from [run] seed and its index


@dataclass
class SearchResult:
    trials: list[Trial]
    best_trial: Trial
    best_model: object
    space: list[ParamSpec]
    method: str
    objective: str
    metric_window: int

    def trials_csv(self, path) -> None:
        """One row per trial: its ``Trial`` fields, then its values by config key."""
        keys = [f.name for f in fields(Trial) if f.name != "params"]
        names = [p.name for p in self.space]
        columns = [[getattr(t, key) for t in self.trials] for key in keys]
        columns += [[t.params[n] for t in self.trials] for n in names]
        write_table(path, keys + names, columns,
                    comment=f"method={self.method} objective={self.objective} "
                            f"metric_window={self.metric_window}")


def _candidate_seed(base_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


def _train_trial(train_ds: TimeSeriesDataset, method: str, encoder_cfg: EncoderConfig,
                 train_cfg: TrainConfig, index: int, params: dict):
    """``train_model`` for the trial ``index``: ``encoder_cfg`` and the flow
    with its decoded ``params``, and ``train_cfg`` (a candidate's or the
    refit's epochs and patience) seeded from its own seed and ``index``."""
    encoder_cfg, flow_cfg = configs_from_params(method, params, encoder_cfg)
    return train_model(train_ds, encoder_cfg, flow_cfg,
                       replace(train_cfg, seed=_candidate_seed(train_cfg.seed, index)),
                       model_id=f"{method}-seed{train_cfg.seed}")


def _evaluate_candidate(index: int, params: dict, *, train_trial, eval_ds: TimeSeriesDataset | None,
                        objective: str, metric_window: int) -> tuple[float, float, float, float]:
    """(fitness, auc, vus, val_loss) of the candidate ``index`` with decoded
    ``params``, trained by ``train_trial(index, params)``; a candidate that
    cannot be trained has fitness inf."""
    try:
        model, report = train_trial(index, params)
        val_loss = report.best_val_loss
        auc = vus = float("nan")
        labels = None if eval_ds is None else eval_ds.labels
        if labels is not None and labels.any() and not labels.all():  # AUC needs both classes
            scores = score_series(model, eval_ds).scores
            auc = auc_roc(scores, labels)
            vus = vus_roc(scores, labels, metric_window)
        if objective == "labeled-30-70":
            fitness = -combined_objective(auc, vus)
        else:
            fitness = val_loss
    except (FloatingPointError, RuntimeError, DataError):  # e.g. no split fits the lookback
        fitness, auc, vus, val_loss = float("inf"), float("nan"), float("nan"), float("nan")
    return fitness, auc, vus, val_loss


def _worker_count(population: int) -> int:
    """``TCFLOW_WORKERS``, or when unset one worker per usable CPU up to
    ``population``."""
    workers = os.environ.get("TCFLOW_WORKERS")
    if workers is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        return min(cpus or 1, population)
    if not workers.isdecimal() or int(workers) < 1:
        raise ValueError(f"TCFLOW_WORKERS must be an integer >= 1: {workers!r}")
    return int(workers)


# argtypes and restype of OpenBLAS's get_num_threads and set_num_threads
_OPENBLAS_PROTOTYPES = {"get": ([], ctypes.c_int), "set": ([ctypes.c_int], None)}


def _openblas_threads_function(verb: str):
    """The ``<verb>_num_threads`` function (``get`` or ``set``) of the
    OpenBLAS that numpy loaded, found among this process's mapped libraries;
    None where none is loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                       "openblas_{}_num_threads"):
            function = getattr(lib, symbol.format(verb), None)
            if function is not None:
                function.argtypes, function.restype = _OPENBLAS_PROTOTYPES[verb]
                return function
    return None


def _one_blas_thread() -> None:
    """Pool initializer: the OpenBLAS that numpy loaded runs one thread in
    this worker, so that the workers do not share cores with BLAS threads.
    Does nothing where no OpenBLAS is loaded."""
    set_threads = _openblas_threads_function("set")
    if set_threads is not None:
        set_threads(1)


def run_search(train: TimeSeriesDataset, labeled_eval: TimeSeriesDataset | None, method: str,
               objective: str, budget: int, encoder_cfg: EncoderConfig, train_cfg: TrainConfig,
               candidate_epochs: int, final_epochs: int, lookback_max: int,
               metric_window: int) -> SearchResult:
    """CMA-ES search over the method's space, seeded by ``train_cfg.seed``; every
    candidate trains on the clean training series for ``candidate_epochs`` and
    is ranked by the chosen objective. The winner is refit for ``final_epochs``
    and returned together with all trials. See ``_train_trial``, and
    ``resolve_metric_window`` for a ``metric_window`` of -1."""
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "labeled-30-70":
        if labeled_eval is None or labeled_eval.labels is None:
            raise ValueError("labeled-30-70 objective requires a labeled evaluation dataset")
        if labeled_eval.labels.all() or not labeled_eval.labels.any():
            raise ValueError(f"labeled-30-70 objective needs both classes in the labeled evaluation "
                             f"series; all its {labeled_eval.n_steps} labels are {labeled_eval.labels[0]:d}")
    space = space_for_method(method, lookback_max)
    opt = CmaEs(len(space), seed=train_cfg.seed)
    if budget < opt.lam:
        raise ValueError(f"budget {budget} is below one population of {opt.lam}")
    workers = _worker_count(opt.lam)

    if labeled_eval is not None:
        if labeled_eval.n_channels != train.n_channels:  # else every candidate would fail
            raise DataError(f"labeled series has {labeled_eval.n_channels} channels, "
                            f"training series has {train.n_channels}")
    metric_window = resolve_metric_window(metric_window,
                                          None if labeled_eval is None else labeled_eval.labels)
    train_trial = partial(_train_trial, train, method, encoder_cfg)
    candidate_cfg = replace(train_cfg, epochs=candidate_epochs, patience=CANDIDATE_PATIENCE)
    # checked before any candidate trains
    final_cfg = replace(train_cfg, epochs=final_epochs, patience=FINAL_PATIENCE)
    candidate = partial(_evaluate_candidate, train_trial=partial(train_trial, candidate_cfg),
                        eval_ds=labeled_eval, objective=objective, metric_window=metric_window)

    trials: list[Trial] = []
    with (ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread)
          if workers > 1 else nullcontext()) as pool:
        evaluate = map if pool is None else pool.map
        while len(trials) + opt.lam <= budget:
            population = opt.ask()
            indices = range(len(trials), len(trials) + len(population))
            params = [decode(vec, space) for vec in population]
            try:
                results = list(evaluate(candidate, indices, params))
            except BrokenProcessPool:  # a worker died: this generation and the rest run here
                evaluate = map
                results = list(evaluate(candidate, indices, params))
            trials += [Trial(opt.generation, i, p, *r, _candidate_seed(train_cfg.seed, i))
                       for i, p, r in zip(indices, params, results)]
            opt.tell(population, np.array([r[0] for r in results]))

    fitness = np.array([t.fitness for t in trials])
    if not np.isfinite(fitness).any():
        raise DataError(f"all {len(trials)} candidates failed; there is no trial to refit")
    best_trial = trials[int(np.argmin(np.where(np.isnan(fitness), np.inf, fitness)))]
    best_model, _ = train_trial(final_cfg, best_trial.index, best_trial.params)
    return SearchResult(trials, best_trial, best_model, space, method, objective, metric_window)
