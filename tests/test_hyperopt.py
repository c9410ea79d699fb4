import os
from functools import partial

import numpy as np
import pytest
from helpers import minimize, openblas_threads

from tcflow import data as dt
from tcflow.cli import DEFAULTS
from tcflow.conditioners import EncoderConfig
from tcflow.flow import FlowConfig
from tcflow.hyperopt import (
    METHOD_ENCODERS,
    CmaEs,
    configs_from_params,
    decode,
    default_population,
    reflect_into_unit,
    run_search,
    space_for_method,
)
from tcflow.train import TrainConfig, train_model


def _blas_threads_candidate(seed, params, **kwargs):
    """A stand-in for ``_evaluate_candidate`` whose fitness is the OpenBLAS
    thread count of the process that evaluates it."""
    return float(openblas_threads()), float("nan"), float("nan"), 0.0


# Every method's search rows as (name, lower, upper, kind), in order, at
# lookback_max 50, the [search] default. Trials are decoded from these rows, so any drift
# changes the trials of a fixed seed.
_SHARED_ROWS = [
    ("coupling_layers", 3, 20, "int"),
    ("cond_multiplier", 1, 50, "int"),
    ("cond_layers", 3, 8, "int"),
    ("cond_dropout", 0.1, 0.9, "real"),
    ("cond_funnel", 1.0, 10.0, "real"),
]
_LOOKBACK_ROW = [("lookback", 1, 50, "int")]
_LSTM_ROWS = [("lstm_layers", 1, 10, "int"), ("dropout", 0.1, 0.9, "real")]
PINNED_SPACES = {
    "realnvp": _SHARED_ROWS,
    "tcnf-base": _SHARED_ROWS + _LOOKBACK_ROW,
    "tcnf-fixed": _SHARED_ROWS + _LOOKBACK_ROW,
    "tcnf-mlp": _SHARED_ROWS + _LOOKBACK_ROW + [
        ("mlp_layers", 3, 20, "int"),
        ("mlp_compression", 1, 20, "int"),
        ("dropout", 0.1, 0.9, "real"),
    ],
    "tcnf-cnn": _SHARED_ROWS + _LOOKBACK_ROW + [
        ("cnn_layers", 1, 5, "int"),
        ("cnn_kernel", 3, 7, "int"),
        ("cnn_max_channels", 1, 20, "int"),
        ("dropout", 0.1, 0.9, "real"),
    ],
    "tcnf-stateless": _SHARED_ROWS + _LOOKBACK_ROW + _LSTM_ROWS,
    "tcnf-stateful": _SHARED_ROWS + _LOOKBACK_ROW + _LSTM_ROWS,
}


class TestSearchSpace:
    def test_every_method_is_pinned(self):
        assert list(PINNED_SPACES) == list(METHOD_ENCODERS)

    @pytest.mark.parametrize("method", list(PINNED_SPACES))
    def test_rows_match_the_pinned_table(self, method):
        rows = [(p.name, p.lower, p.upper, p.kind) for p in space_for_method(method, 50)]
        assert rows == PINNED_SPACES[method]

    @pytest.mark.parametrize("method", list(PINNED_SPACES))
    def test_every_row_is_a_config_key_of_its_type_within_its_range(self, method):
        # so a decoded trial is never a value the config rejects
        configs = {"flow": FlowConfig, "encoder": EncoderConfig}
        for spec in space_for_method(method, 50):
            sections = [section for section in configs if spec.name in DEFAULTS[section]]
            assert sections, f"{spec.name} is no [flow] or [encoder] key"
            default = DEFAULTS[sections[0]][spec.name]
            assert spec.kind == ("int" if type(default) is int else "real"), spec
            lower, upper = configs[sections[0]].RANGES[spec.name]
            assert lower <= spec.lower <= spec.upper <= upper, spec

    @pytest.mark.parametrize("method", list(PINNED_SPACES))
    def test_both_corners_decode_to_valid_configs(self, method):
        space = space_for_method(method, 50)
        for corner in (0.0, 1.0):
            params = decode(np.full(len(space), corner), space)
            encoder_cfg, flow_cfg = configs_from_params(method, params, EncoderConfig())
            assert encoder_cfg.kind == METHOD_ENCODERS[method]
            assert flow_cfg.coupling_layers == params["coupling_layers"]
            assert flow_cfg.cond_funnel == params["cond_funnel"]


class TestPopulationAndDecode:
    def test_default_population_formula(self):
        assert default_population(10) == 10
        assert default_population(5) == 8

    def test_decode_endpoints(self):
        space = space_for_method("tcnf-base", 50)
        lows = decode(np.zeros(len(space)), space)
        highs = decode(np.ones(len(space)), space)
        for spec in space:
            assert lows[spec.name] == spec.lower
            assert highs[spec.name] == spec.upper

    def test_decode_rounds_half_up(self):
        space = space_for_method("tcnf-base", 50)
        mid = decode(np.full(len(space), 0.5), space)
        assert mid["coupling_layers"] == 12  # 3 + 0.5 * 17 = 11.5 rounds up

    @pytest.mark.parametrize("method", ["realnvp", "tcnf-base", "tcnf-fixed",
                                        "tcnf-mlp", "tcnf-cnn",
                                        "tcnf-stateless", "tcnf-stateful"])
    def test_decoded_values_always_in_bounds(self, method):
        space = space_for_method(method, 100)
        rng = np.random.default_rng(0)
        for _ in range(50):
            vec = reflect_into_unit(rng.normal(0.5, 1.0, len(space)))
            params = decode(vec, space)
            for spec in space:
                assert spec.lower <= params[spec.name] <= spec.upper

    def test_reflection_folds_into_unit_cube(self):
        x = np.array([-0.3, 1.4, 2.7, 0.5])
        folded = reflect_into_unit(x)
        assert ((folded >= 0) & (folded <= 1)).all()
        np.testing.assert_allclose(folded, [0.3, 0.6, 0.7, 0.5])


class TestCmaEs:
    def test_tiny_sigma_collapses_population_to_mean(self, monkeypatch):
        monkeypatch.setattr(CmaEs, "SIGMA0", 1e-12)
        opt = CmaEs(4, seed=0)
        xs = opt.ask()
        np.testing.assert_allclose(xs, 0.5, atol=1e-9)

    def test_fixed_seed_gives_identical_population(self):
        a = CmaEs(6, seed=3).ask()
        b = CmaEs(6, seed=3).ask()
        np.testing.assert_array_equal(a, b)

    def test_rank_invariance_under_monotone_transform(self):
        def run(transform):
            opt = CmaEs(5, seed=11)
            rng = np.random.default_rng(2)
            for _ in range(5):
                xs = opt.ask()
                fits = np.array([float(((x - 0.3) ** 2).sum()) for x in xs])
                opt.tell(xs, transform(fits))
            return opt.mean.copy(), opt.sigma

        # exp and affine transforms preserve ranking exactly
        base_mean, base_sigma = run(lambda f: f)
        exp_mean, exp_sigma = run(lambda f: np.exp(f) * 7.0 + 1.0)
        np.testing.assert_allclose(base_mean, exp_mean)
        assert base_sigma == pytest.approx(exp_sigma)

    def test_all_equal_fitness_leaves_mean_unchanged(self):
        opt = CmaEs(4, seed=5)
        xs = opt.ask()
        before = opt.mean.copy()
        opt.tell(xs, np.zeros(opt.lam))
        np.testing.assert_array_equal(opt.mean, before)

    def test_nan_fitness_treated_as_worst(self):
        opt = CmaEs(3, seed=1)
        xs = opt.ask()
        fits = np.linspace(1.0, 2.0, opt.lam)
        fits[0] = np.nan
        opt.tell(xs, fits)
        assert np.isfinite(opt.best_fitness)

    def test_sphere_benchmark_converges(self):
        target = np.array([0.62, 0.31, 0.48, 0.55, 0.41])

        def sphere(v):
            return float(((v - target) ** 2).sum())

        _, best, used = minimize(sphere, 5, budget=3000, seed=0)
        assert best < 1e-8
        assert used <= 3000

    def test_budget_below_population_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            minimize(lambda v: 0.0, 5, budget=3)

    def test_budget_of_exactly_one_population_runs_one_generation(self):
        opt = CmaEs(5, seed=0)
        _, _, used = minimize(lambda v: float((v**2).sum()), 5, budget=opt.lam, seed=0)
        assert used == opt.lam

    def test_mismatched_tell_rejected(self):
        opt = CmaEs(3, seed=0)
        xs = opt.ask()
        with pytest.raises(ValueError, match="candidates"):
            opt.tell(xs[:2], np.zeros(2))

    def test_restart_doubles_population_on_stagnation(self, monkeypatch):
        monkeypatch.setattr(CmaEs, "RESTART_WINDOW", 3)
        opt = CmaEs(3, seed=0)
        lam0 = opt.lam
        for _ in range(8):
            xs = opt.ask()
            opt.tell(xs, np.zeros(opt.lam))  # flat fitness never improves
        assert opt.restarts >= 1
        assert opt.lam == lam0 * (2 ** opt.restarts)


class TestRunSearch:
    def _datasets(self):
        train = dt.generate_synthetic("sine", 260, 2, noise=0.1, seed=0)
        labeled = dt.generate_synthetic("sine", 260, 2, noise=0.1, seed=1)
        labeled = dt.inject_anomaly(labeled, dt.AnomalySpec("spike", 120, 1, 6.0, (0,)))
        labeled = dt.inject_anomaly(labeled, dt.AnomalySpec("platform", 200, 12, 0.2, (1,)))
        return train, labeled

    def test_labeled_objective_end_to_end(self, tmp_path):
        train, labeled = self._datasets()
        result = run_search(
            train, labeled, "tcnf-base", "labeled-30-70", 9, EncoderConfig(),
            TrainConfig(batch_size=128, seed=0), candidate_epochs=2, final_epochs=2,
            lookback_max=8,
            metric_window=-1,
        )
        assert len(result.trials) == 9
        assert result.best_trial.fitness <= np.nanmedian([t.fitness for t in result.trials])
        for trial in result.trials:
            for spec in result.space:
                assert spec.lower <= trial.params[spec.name] <= spec.upper
        path = tmp_path / "trials.csv"
        result.trials_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# method=tcnf-base")
        assert len(lines) == 2 + len(result.trials)

    def test_val_loss_objective_needs_no_labels(self):
        train, _ = self._datasets()
        result = run_search(
            train, None, "realnvp", "val-loss", 8, EncoderConfig(),
            TrainConfig(batch_size=128, seed=1), candidate_epochs=2, final_epochs=2,
            lookback_max=50,
            metric_window=-1,
        )
        assert np.isfinite(result.best_trial.fitness)
        assert np.isnan(result.best_trial.auc)

    def test_labeled_objective_without_labels_rejected(self):
        train, _ = self._datasets()
        with pytest.raises(ValueError, match="label"):
            run_search(train, None, "tcnf-base", "labeled-30-70", 9, EncoderConfig(),
                       TrainConfig(), 10, 30, 50, metric_window=-1)

    def test_labeled_series_of_another_width_rejected_before_training(self, monkeypatch):
        import tcflow.hyperopt as hyperopt

        train, _ = self._datasets()
        labeled = dt.inject_anomaly(dt.generate_synthetic("sine", 260, 3, noise=0.1, seed=1),
                                    dt.AnomalySpec("spike", 120, 1, 6.0, (0,)))
        monkeypatch.setattr(hyperopt, "train_model", lambda *a, **k: pytest.fail("trained"))
        with pytest.raises(dt.DataError, match="labeled series has 3 channels, "
                                               "training series has 2"):
            run_search(train, labeled, "tcnf-base", "labeled-30-70", 9, EncoderConfig(),
                       TrainConfig(), 10, 30, 50, metric_window=-1)

    def test_budget_below_population_rejected(self):
        train, labeled = self._datasets()
        with pytest.raises(ValueError, match="budget"):
            run_search(train, labeled, "tcnf-base", "labeled-30-70", 2, EncoderConfig(),
                       TrainConfig(), 10, 30, 50, metric_window=-1)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_infeasible_lookback_is_a_failed_trial(self, seed):
        # 300 steps leave no train/validation split for lookbacks near 50;
        # both seeds draw such candidates in the first generation
        train = dt.generate_synthetic("sine", 300, 2, noise=0.1, seed=0)
        result = run_search(
            train, None, "tcnf-base", "val-loss", 9, EncoderConfig(), TrainConfig(seed=seed),
            candidate_epochs=1, final_epochs=1, lookback_max=50,
            metric_window=-1,
        )
        failed = [t for t in result.trials if not np.isfinite(t.fitness)]
        assert 0 < len(failed) < len(result.trials)
        for t in failed:
            assert t.fitness == np.inf
            assert np.isnan(t.auc) and np.isnan(t.vus) and np.isnan(t.val_loss)
        assert np.isfinite(result.best_trial.fitness)

    def test_two_workers_write_the_same_trials_as_one(self, tmp_path, monkeypatch):
        # two generations share one pool of two processes
        import tcflow.hyperopt as hyperopt

        pools = []

        class CountedPool(hyperopt.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(hyperopt, "ProcessPoolExecutor", CountedPool)
        train, labeled = self._datasets()
        rows = []
        for workers in (1, 2):
            monkeypatch.setenv("TCFLOW_WORKERS", str(workers))
            result = run_search(
                train, labeled, "tcnf-base", "labeled-30-70", 18, EncoderConfig(),
                TrainConfig(batch_size=128, seed=3), candidate_epochs=1, final_epochs=1,
                lookback_max=8,
                metric_window=-1,
            )
            path = tmp_path / f"trials-{workers}.csv"
            result.trials_csv(path)
            rows.append(path.read_text())
        assert pools == [2]
        assert len(rows[0].splitlines()) == 2 + 18
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("cpus, pools", [(1, []), (4, [4]), (64, [9])])
    def test_default_worker_count_is_the_usable_cpus_up_to_the_population(
            self, monkeypatch, cpus, pools):
        import tcflow.hyperopt as hyperopt

        built = []

        class PoolBuilt(Exception):
            pass

        class CountedPool:
            def __init__(self, **kwargs):
                built.append(kwargs)
                raise PoolBuilt  # the count is known; train nothing

        monkeypatch.setattr(hyperopt, "ProcessPoolExecutor", CountedPool)
        monkeypatch.delenv("TCFLOW_WORKERS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        train, labeled = self._datasets()
        search = partial(run_search, train, labeled, "tcnf-base", "labeled-30-70", 9,
                         EncoderConfig(), TrainConfig(seed=0), candidate_epochs=1,
                         final_epochs=1, lookback_max=8, metric_window=-1)
        if pools:
            with pytest.raises(PoolBuilt):
                search()
        else:
            assert len(search().trials) == 9
        assert [kwargs["max_workers"] for kwargs in built] == pools
        assert all(kwargs["initializer"] is hyperopt._one_blas_thread for kwargs in built)

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        import tcflow.hyperopt as hyperopt

        parent_threads = openblas_threads()
        if parent_threads is None:
            pytest.skip("numpy has no OpenBLAS")
        monkeypatch.setattr(hyperopt, "_evaluate_candidate", _blas_threads_candidate)
        monkeypatch.setenv("TCFLOW_WORKERS", "2")
        train, _ = self._datasets()
        result = run_search(train, None, "tcnf-base", "val-loss", 9, EncoderConfig(),
                            TrainConfig(seed=0), candidate_epochs=1, final_epochs=1,
                            lookback_max=8, metric_window=-1)
        assert [t.fitness for t in result.trials] == [1.0] * 9
        assert openblas_threads() == parent_threads

    def test_a_dead_worker_leaves_the_search_to_the_parent(self, tmp_path, monkeypatch):
        # every pool worker dies in its first candidate; the parent then
        # trains both generations and the refit, and writes the same trials
        import tcflow.hyperopt as hyperopt

        parent, calls = os.getpid(), []

        def dies_in_a_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            calls.append(args)
            return train_model(*args, **kwargs)

        monkeypatch.setattr(hyperopt, "train_model", dies_in_a_worker)
        train, labeled = self._datasets()
        rows = []
        for workers in ("2", "1"):
            monkeypatch.setenv("TCFLOW_WORKERS", workers)
            calls.clear()
            result = run_search(
                train, labeled, "tcnf-base", "labeled-30-70", 18, EncoderConfig(),
                TrainConfig(batch_size=128, seed=3), candidate_epochs=1, final_epochs=1,
                lookback_max=8,
                metric_window=-1,
            )
            assert len(calls) == 18 + 1
            path = tmp_path / f"trials-{workers}.csv"
            result.trials_csv(path)
            rows.append(path.read_text())
        assert rows[0] == rows[1]

    def test_bad_final_epochs_rejected_before_any_candidate_trains(self, monkeypatch):
        import tcflow.hyperopt as hyperopt

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return train_model(*args, **kwargs)

        monkeypatch.setattr(hyperopt, "train_model", counted)
        monkeypatch.setenv("TCFLOW_WORKERS", "1")
        train, labeled = self._datasets()
        with pytest.raises(ValueError, match="epochs"):
            run_search(train, labeled, "tcnf-base", "labeled-30-70", 9, EncoderConfig(),
                       TrainConfig(seed=0), candidate_epochs=1, final_epochs=0,
                       lookback_max=8, metric_window=-1)
        assert calls == []

    @pytest.mark.parametrize("label", [False, True])
    def test_one_class_labeled_series_rejected_before_any_candidate_trains(
            self, monkeypatch, label):
        import tcflow.hyperopt as hyperopt

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return train_model(*args, **kwargs)

        monkeypatch.setattr(hyperopt, "train_model", counted)
        monkeypatch.setenv("TCFLOW_WORKERS", "1")
        train, labeled = self._datasets()
        labeled.labels = np.full(labeled.n_steps, label)
        message = (f"needs both classes in the labeled evaluation series; "
                   f"all its 260 labels are {int(label)}")
        with pytest.raises(ValueError, match=message):
            run_search(train, labeled, "tcnf-base", "labeled-30-70", 9, EncoderConfig(),
                       TrainConfig(seed=0), candidate_epochs=1, final_epochs=1,
                       lookback_max=8, metric_window=-1)
        assert calls == []

    @pytest.mark.parametrize("label", [False, True])
    def test_val_loss_search_over_a_one_class_labeled_series_records_nan_metrics(
            self, monkeypatch, label):
        # val-loss ranks by validation loss alone; AUC and VUS need both classes
        monkeypatch.setenv("TCFLOW_WORKERS", "1")
        train = dt.generate_synthetic("sine", 300, 2, noise=0.1, seed=0)
        labeled = dt.generate_synthetic("sine", 300, 2, noise=0.1, seed=1)
        labeled.labels = np.full(labeled.n_steps, label)
        result = run_search(train, labeled, "tcnf-base", "val-loss", 9, EncoderConfig(),
                            TrainConfig(seed=0), candidate_epochs=1, final_epochs=1,
                            lookback_max=8, metric_window=-1)
        assert len(result.trials) == 9
        assert all(np.isnan(t.auc) and np.isnan(t.vus) for t in result.trials)
        assert all(t.fitness == t.val_loss for t in result.trials)
        assert np.isfinite(result.best_trial.fitness)

    @pytest.mark.parametrize("workers", ["abc", "0", "-2"])
    def test_bad_worker_count_rejected_before_any_candidate_trains(self, monkeypatch, workers):
        import tcflow.hyperopt as hyperopt

        calls = []
        monkeypatch.setattr(hyperopt, "train_model", lambda *a, **k: calls.append(a))
        monkeypatch.setenv("TCFLOW_WORKERS", workers)
        train, labeled = self._datasets()
        message = f"TCFLOW_WORKERS must be an integer >= 1: '{workers}'"
        with pytest.raises(ValueError, match=message):
            run_search(train, labeled, "tcnf-base", "labeled-30-70", 9, EncoderConfig(),
                       TrainConfig(seed=0), candidate_epochs=1, final_epochs=1,
                       lookback_max=8, metric_window=-1)
        assert calls == []

    def test_lookback_max_of_one_searches_lookback_one(self):
        # the lookback row 1..1 has one value; every candidate decodes to it
        train, _ = self._datasets()
        result = run_search(train, None, "tcnf-base", "val-loss", 9, EncoderConfig(),
                            TrainConfig(seed=0), candidate_epochs=1, final_epochs=1,
                            lookback_max=1, metric_window=-1)
        assert len(result.trials) == 9
        assert {t.params["lookback"] for t in result.trials} == {1}
        assert result.best_model.encoder.cfg.lookback == 1

    def test_search_with_no_finite_trial_fails_before_refit(self):
        # lookbacks up to 250 leave no train/validation split of 300 steps
        train = dt.generate_synthetic("sine", 300, 2, noise=0.1, seed=0)
        with pytest.raises(dt.DataError, match="all 9 candidates failed"):
            run_search(train, None, "tcnf-base", "val-loss", 9, EncoderConfig(),
                       TrainConfig(seed=0), candidate_epochs=1, final_epochs=1,
                       lookback_max=250, metric_window=-1)

    def test_each_trial_seed_is_derived_once_and_the_refit_trains_with_it(self, monkeypatch):
        # the refit is train_model with the winner's recorded seed, the one
        # that trials.csv holds and a replay uses
        import tcflow.hyperopt as hyperopt
        from tcflow.hyperopt import FINAL_PATIENCE, configs_from_params

        derived = []
        original = hyperopt._candidate_seed
        monkeypatch.setattr(hyperopt, "_candidate_seed",
                            lambda *args: derived.append(args) or original(*args))
        monkeypatch.setenv("TCFLOW_WORKERS", "1")
        train, _ = self._datasets()
        result = run_search(train, None, "tcnf-base", "val-loss", 9, EncoderConfig(),
                            TrainConfig(seed=2), candidate_epochs=1, final_epochs=2,
                            lookback_max=8, metric_window=-1)
        assert derived == [(2, t.index) for t in result.trials]
        best = result.best_trial
        encoder_cfg, flow_cfg = configs_from_params("tcnf-base", best.params, EncoderConfig())
        model, _ = train_model(train, encoder_cfg, flow_cfg,
                               TrainConfig(epochs=2, patience=FINAL_PATIENCE, seed=best.seed))
        for got, want in zip(result.best_model.parameters(), model.parameters(), strict=True):
            np.testing.assert_array_equal(got.value, want.value, err_msg=got.name)

    def test_candidate_fitness_equals_chained_train_score_evaluate(self):
        # the search's internal evaluation must match running the pipeline
        # stages by hand with the same hyperparameters and derived seed
        from tcflow.hyperopt import _candidate_seed, configs_from_params
        from tcflow.metrics import auc_roc, combined_objective, vus_roc
        from tcflow.score import score_series

        train, labeled = self._datasets()
        result = run_search(
            train, labeled, "tcnf-base", "labeled-30-70", 9, EncoderConfig(),
            TrainConfig(batch_size=128, seed=4), candidate_epochs=2, final_epochs=2,
            lookback_max=8,
            metric_window=-1,
        )
        trial = result.trials[3]
        assert trial.seed == _candidate_seed(4, trial.index)
        encoder_cfg, flow_cfg = configs_from_params("tcnf-base", trial.params, EncoderConfig())
        model, _ = train_model(
            train, encoder_cfg, flow_cfg,
            TrainConfig(epochs=2, batch_size=128, patience=3, seed=trial.seed),
        )
        scores = score_series(model, labeled).scores
        auc = auc_roc(scores, labeled.labels)
        vus = vus_roc(scores, labeled.labels, result.metric_window)
        assert auc == pytest.approx(trial.auc, abs=1e-12)
        assert -combined_objective(auc, vus) == pytest.approx(trial.fitness, abs=1e-12)
