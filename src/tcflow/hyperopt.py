"""CMA-ES hyperparameter search over the bounded per-method space.

The optimizer is a standard (mu/mu_w, lambda) covariance matrix adaptation
evolution strategy working in the normalized unit cube: weighted mean
recombination, cumulative step-size adaptation and rank-one plus rank-mu
covariance updates, with candidates reflected back into bounds. Selection is
purely rank based, so any strictly monotone transform of the fitness values
leaves the update unchanged. When the best fitness stagnates the search
restarts with a doubled population.

Candidates decode to named hyperparameters (integers rounded half-up), train
a reduced-budget model each, and are ranked either by the labeled 30:70
AUC/VUS blend or by the best validation loss.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .conditioners import EncoderConfig
from .data import (
    DataError,
    TimeSeriesDataset,
    normalize_minmax,
    normalize_with_stats,
    pad_even_channels,
)
from .flow import ConditionerConfig, FlowConfig
from .metrics import auc_roc, combined_objective, infer_metric_window, vus_roc
from .score import score_series
from .train import TrainConfig, train_model

OBJECTIVES = ("labeled-30-70", "val-loss")

# Candidates train on a reduced budget: these epochs, and early stopping after
# this many epochs without a better validation loss.
CANDIDATE_EPOCHS = 10
CANDIDATE_PATIENCE = 3
# Upper bound of the searched lookback.
LOOKBACK_MAX = 50

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
    kind: str = "real"  # real | int

    def __post_init__(self):
        if self.lower >= self.upper:
            raise ValueError(f"{self.name}: lower bound must be below upper bound")
        if self.kind not in ("real", "int"):
            raise ValueError(f"{self.name}: unknown kind {self.kind!r}")


@dataclass
class SearchSpace:
    params: list[ParamSpec]

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.params]

    def __len__(self) -> int:
        return len(self.params)


# The encoder rows of each method's search space, each with the EncoderConfig
# field it sets.
_LSTM_ROWS = [
    (ParamSpec("enc_layers", 1, 10, "int"), "lstm_layers"),
    (ParamSpec("enc_dropout", 0.1, 0.9), "dropout"),
]
_ENCODER_ROWS: dict[str, list[tuple[ParamSpec, str]]] = {
    "tcnf-mlp": [
        (ParamSpec("enc_layers", 3, 20, "int"), "mlp_layers"),
        (ParamSpec("enc_compression", 1, 20, "int"), "mlp_compression"),
        (ParamSpec("enc_dropout", 0.1, 0.9), "dropout"),
    ],
    "tcnf-cnn": [
        (ParamSpec("enc_layers", 1, 5, "int"), "cnn_layers"),
        (ParamSpec("enc_kernel", 3, 7, "int"), "cnn_kernel"),
        (ParamSpec("enc_max_channels", 1, 20, "int"), "cnn_max_channels"),
        (ParamSpec("enc_dropout", 0.1, 0.9), "dropout"),
    ],
    "tcnf-stateless": _LSTM_ROWS,
    "tcnf-stateful": _LSTM_ROWS,
}


def space_for_method(method: str, lookback_max: int = LOOKBACK_MAX) -> SearchSpace:
    """Bounded hyperparameter rows for one method."""
    if method not in METHOD_ENCODERS:
        raise ValueError(f"unknown method {method!r}")
    rows = [
        ParamSpec("coupling_layers", 3, 20, "int"),
        ParamSpec("cond_multiplier", 1, 50, "int"),
        ParamSpec("cond_layers", 3, 8, "int"),
        ParamSpec("cond_dropout", 0.1, 0.9),
        ParamSpec("cond_funnel", 1.0, 10.0),
    ]
    if method != "realnvp":
        rows.append(ParamSpec("lookback", 1, lookback_max, "int"))
    rows += [spec for spec, _ in _ENCODER_ROWS.get(method, [])]
    return SearchSpace(rows)


def decode(vector: np.ndarray, space: SearchSpace) -> dict:
    """Affine map from the unit cube to bounds; integers round half-up and
    the result is always in-bounds."""
    vector = np.clip(np.asarray(vector, dtype=np.float64), 0.0, 1.0)
    out = {}
    for v, spec in zip(vector, space.params):
        value = spec.lower + v * (spec.upper - spec.lower)
        if spec.kind == "int":
            value = int(min(max(math.floor(value + 0.5), spec.lower), spec.upper))
        out[spec.name] = value
    return out


def flow_config(params: dict) -> FlowConfig:
    """The flow from the flat ``coupling_layers`` and ``cond_*`` keys, as
    named in the search space and in the ``[flow]`` config section."""
    cond = ConditionerConfig(
        multiplier=params["cond_multiplier"],
        layers=params["cond_layers"],
        dropout=params["cond_dropout"],
        funnel=params["cond_funnel"],
    )
    return FlowConfig(params["coupling_layers"], cond)


def configs_from_params(method: str, params: dict) -> tuple[EncoderConfig, FlowConfig]:
    enc_kwargs = {attr: params[spec.name] for spec, attr in _ENCODER_ROWS.get(method, [])}
    encoder_cfg = EncoderConfig(METHOD_ENCODERS[method], lookback=params.get("lookback", 1),
                                **enc_kwargs)
    return encoder_cfg, flow_config(params)


# -- CMA-ES --------------------------------------------------------------------


def default_population(n: int) -> int:
    return 4 + int(math.floor(3.0 * math.log(n)))


def reflect_into_unit(x: np.ndarray) -> np.ndarray:
    """Fold values back into [0, 1] by reflection at both walls."""
    folded = np.mod(x, 2.0)
    return np.where(folded > 1.0, 2.0 - folded, folded)


@dataclass
class CmaState:
    """Sampling distribution state of one CMA-ES run."""

    mean: np.ndarray
    sigma: float
    cov: np.ndarray
    path_sigma: np.ndarray
    path_cov: np.ndarray
    generation: int = 0
    lam: int = 0
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0))
    mu_eff: float = 0.0


class CmaEs:
    """Minimizer over [0, 1]^n with stagnation restarts at doubled population."""

    def __init__(self, n: int, seed: int = 0, sigma0: float = 0.3,
                 lam: int | None = None, restart_window: int = 20,
                 restart_tol: float = 1e-12):
        self.n = n
        self.rng = np.random.default_rng(seed)
        self.sigma0 = sigma0
        self.restart_window = restart_window
        self.restart_tol = restart_tol
        self.best_vector: np.ndarray | None = None
        self.best_fitness = np.inf
        self.restarts = 0
        self._history: list[float] = []
        self._init_state(lam or default_population(n), np.full(n, 0.5))

    def _init_state(self, lam: int, mean: np.ndarray):
        mu = lam // 2
        raw = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
        weights = raw / raw.sum()
        self.state = CmaState(
            mean=mean.astype(np.float64),
            sigma=self.sigma0,
            cov=np.eye(self.n),
            path_sigma=np.zeros(self.n),
            path_cov=np.zeros(self.n),
            lam=lam,
            weights=weights,
            mu_eff=1.0 / float((weights**2).sum()),
        )
        n, mu_eff = self.n, self.state.mu_eff
        self.c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
        self.d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + self.c_sigma
        self.c_cov_path = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n)
        self.c_one = 2.0 / ((n + 1.3) ** 2 + mu_eff)
        self.c_mu = min(1.0 - self.c_one,
                        2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) ** 2 + mu_eff))
        self.chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))
        self._history = []

    @property
    def lam(self) -> int:
        return self.state.lam

    def _decomposed(self):
        cov = (self.state.cov + self.state.cov.T) / 2.0
        eigvals, eigvecs = np.linalg.eigh(cov)
        floor = max(eigvals.max(), 1.0) * 1e-14
        eigvals = np.maximum(eigvals, floor)
        self.state.cov = (eigvecs * eigvals) @ eigvecs.T
        return eigvecs, np.sqrt(eigvals)

    def ask(self) -> np.ndarray:
        """Sample the population: mean + sigma * N(0, C), reflected into bounds."""
        st = self.state
        basis, scale = self._decomposed()
        z = self.rng.standard_normal((st.lam, self.n))
        raw = st.mean + st.sigma * (z * scale) @ basis.T
        return reflect_into_unit(raw)

    def tell(self, candidates: np.ndarray, fitnesses) -> None:
        """Rank-based distribution update; NaN fitness counts as worst."""
        st = self.state
        candidates = np.asarray(candidates, dtype=np.float64)
        fitnesses = np.asarray(fitnesses, dtype=np.float64)
        if candidates.shape != (st.lam, self.n) or fitnesses.shape != (st.lam,):
            raise ValueError(
                f"expected {st.lam} candidates of dimension {self.n}, "
                f"got {candidates.shape} with {fitnesses.shape} fitnesses"
            )
        fitnesses = np.where(np.isnan(fitnesses), np.inf, fitnesses)
        order = np.argsort(fitnesses, kind="mergesort")
        if fitnesses[order[0]] < self.best_fitness:
            self.best_fitness = float(fitnesses[order[0]])
            self.best_vector = candidates[order[0]].copy()
        self._history.append(float(fitnesses[order[0]]))
        st.generation += 1
        if not np.all(fitnesses == fitnesses[0]):  # all-equal carries no ranking signal
            self._update(candidates[order], fitnesses[order])
        if self._stagnated():
            self.restarts += 1
            self._init_state(st.lam * 2, self.rng.uniform(0.0, 1.0, self.n))

    def _update(self, ranked: np.ndarray, _fits: np.ndarray) -> None:
        st = self.state
        mu = st.weights.size
        basis, scale = self._decomposed()
        selected = ranked[:mu]
        y = (selected - st.mean) / st.sigma
        y_w = st.weights @ y
        st.mean = st.mean + st.sigma * y_w

        inv_sqrt = (basis / scale) @ basis.T
        st.path_sigma = (1.0 - self.c_sigma) * st.path_sigma + math.sqrt(
            self.c_sigma * (2.0 - self.c_sigma) * st.mu_eff
        ) * (inv_sqrt @ y_w)
        norm_ps = float(np.linalg.norm(st.path_sigma))
        expected = math.sqrt(1.0 - (1.0 - self.c_sigma) ** (2.0 * st.generation))
        h_sigma = 1.0 if norm_ps / expected < (1.4 + 2.0 / (self.n + 1.0)) * self.chi_n else 0.0

        st.path_cov = (1.0 - self.c_cov_path) * st.path_cov + h_sigma * math.sqrt(
            self.c_cov_path * (2.0 - self.c_cov_path) * st.mu_eff
        ) * y_w
        rank_one = np.outer(st.path_cov, st.path_cov)
        rank_mu = (st.weights[:, None] * y).T @ y
        st.cov = (
            (1.0 - self.c_one - self.c_mu) * st.cov
            + self.c_one * (rank_one + (1.0 - h_sigma) * self.c_cov_path * (2.0 - self.c_cov_path) * st.cov)
            + self.c_mu * rank_mu
        )
        st.sigma = st.sigma * math.exp((self.c_sigma / self.d_sigma) * (norm_ps / self.chi_n - 1.0))

    def _stagnated(self) -> bool:
        w = self.restart_window
        if len(self._history) < 2 * w:
            return False
        recent = min(self._history[-w:])
        earlier = min(self._history[: -w])
        return earlier - recent < self.restart_tol


def minimize(func, n: int, budget: int, seed: int = 0, sigma0: float = 0.3,
             lam: int | None = None) -> tuple[np.ndarray, float, int]:
    """Convenience loop: minimize func over [0, 1]^n within a budget of
    evaluations; returns (best vector, best fitness, evaluations used)."""
    opt = CmaEs(n, seed=seed, sigma0=sigma0, lam=lam)
    if budget < opt.lam:
        raise ValueError(f"budget {budget} is below one population of {opt.lam}")
    used = 0
    while used + opt.lam <= budget:
        xs = opt.ask()
        fits = np.array([func(x) for x in xs])
        opt.tell(xs, fits)
        used += opt.lam
    return opt.best_vector, opt.best_fitness, used


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


@dataclass
class SearchResult:
    trials: list[Trial]
    best_trial: Trial
    best_model: object
    space: SearchSpace
    method: str
    objective: str
    metric_window: int

    def trials_csv(self, path) -> None:
        names = self.space.names
        with open(path, "w", newline="") as fh:
            fh.write(f"# method={self.method} objective={self.objective} "
                     f"metric_window={self.metric_window}\n")
            fh.write(",".join(["generation", "index", "fitness", "auc", "vus", "val_loss"] + names) + "\n")
            for t in self.trials:
                row = [str(t.generation), str(t.index), repr(t.fitness),
                       repr(t.auc), repr(t.vus), repr(t.val_loss)]
                row += [repr(float(t.params[n])) for n in names]
                fh.write(",".join(row) + "\n")


def _candidate_seed(base_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


def _evaluate_candidate(args) -> tuple[float, float, float, float]:
    (vector, space, method, train_ds, eval_ds, objective,
     metric_window, train_cfg, base_seed, index) = args
    params = decode(vector, space)
    encoder_cfg, flow_cfg = configs_from_params(method, params)
    cfg = replace(train_cfg, seed=_candidate_seed(base_seed, index))
    try:
        model, report = train_model(train_ds, encoder_cfg, flow_cfg, cfg)
        val_loss = report.best_val_loss
        auc = vus = float("nan")
        if eval_ds is not None and eval_ds.labels is not None:
            scores = score_series(model, eval_ds).scores
            auc = auc_roc(scores, eval_ds.labels)
            vus = vus_roc(scores, eval_ds.labels, metric_window)
        if objective == "labeled-30-70":
            fitness = -combined_objective(auc, vus)
        else:
            fitness = val_loss
    except (FloatingPointError, RuntimeError, DataError):  # e.g. no split fits the lookback
        fitness, auc, vus, val_loss = float("inf"), float("nan"), float("nan"), float("nan")
    return fitness, auc, vus, val_loss


def run_search(
    train: TimeSeriesDataset,
    labeled_eval: TimeSeriesDataset | None,
    method: str,
    objective: str,
    budget: int,
    seed: int = 0,
    metric_window: int | None = None,
    candidate_cfg: TrainConfig | None = None,
    final_epochs: int | None = None,
    lookback_max: int = LOOKBACK_MAX,
    workers: int | None = None,
) -> SearchResult:
    """CMA-ES search over the method's space; every candidate is trained on
    the clean training series and ranked by the chosen objective. The winner
    is refit at full budget and returned together with all trials."""
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "labeled-30-70" and (labeled_eval is None or labeled_eval.labels is None):
        raise ValueError("labeled-30-70 objective requires a labeled evaluation dataset")
    space = space_for_method(method, lookback_max)
    opt = CmaEs(len(space), seed=seed)
    if budget < opt.lam:
        raise ValueError(f"budget {budget} is below one population of {opt.lam}")

    train_prepared = pad_even_channels(normalize_minmax(train))
    eval_prepared = None
    if labeled_eval is not None:
        eval_prepared = pad_even_channels(
            normalize_with_stats(labeled_eval, train_prepared.norm_stats)
        )
        if metric_window is None and labeled_eval.labels is not None:
            metric_window = infer_metric_window(labeled_eval.labels)
    metric_window = int(metric_window or 0)
    candidate_cfg = candidate_cfg or TrainConfig(epochs=CANDIDATE_EPOCHS, patience=CANDIDATE_PATIENCE)
    if workers is None:
        workers = int(os.environ.get("TCFLOW_WORKERS", "1"))

    trials: list[Trial] = []
    vectors: list[np.ndarray] = []
    used = 0
    while used + opt.lam <= budget:
        population = opt.ask()
        arg_list = [
            (vec, space, method, train_prepared, eval_prepared, objective,
             metric_window, candidate_cfg, seed, used + i)
            for i, vec in enumerate(population)
        ]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_evaluate_candidate, arg_list))
        else:
            results = [_evaluate_candidate(a) for a in arg_list]
        generation = opt.state.generation
        for i, (vec, (fitness, auc, vus, val_loss)) in enumerate(zip(population, results)):
            trials.append(Trial(generation, used + i, decode(vec, space),
                                fitness, auc, vus, val_loss))
            vectors.append(vec.copy())
        opt.tell(population, np.array([r[0] for r in results]))
        used += len(population)

    fitness = np.array([t.fitness for t in trials])
    if not np.isfinite(fitness).any():
        raise DataError(f"all {len(trials)} candidates failed; there is no trial to refit")
    best_trial = trials[int(np.argmin(np.where(np.isnan(fitness), np.inf, fitness)))]
    encoder_cfg, flow_cfg = configs_from_params(method, best_trial.params)
    final_cfg = replace(
        candidate_cfg,
        epochs=final_epochs or max(candidate_cfg.epochs * 3, 30),
        patience=max(candidate_cfg.patience, 5),
        seed=_candidate_seed(seed, best_trial.index),
    )
    best_model, _ = train_model(train_prepared, encoder_cfg, flow_cfg, final_cfg,
                                model_id=f"{method}-seed{seed}")
    return SearchResult(trials, best_trial, best_model, space, method, objective, metric_window)
