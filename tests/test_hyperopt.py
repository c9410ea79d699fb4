import numpy as np
import pytest

from tcflow import data as dt
from tcflow.hyperopt import (
    CmaEs,
    decode,
    default_population,
    minimize,
    reflect_into_unit,
    run_search,
    space_for_method,
)
from tcflow.train import TrainConfig


class TestPopulationAndDecode:
    def test_default_population_formula(self):
        assert default_population(10) == 10
        assert default_population(5) == 8

    def test_decode_endpoints(self):
        space = space_for_method("tcnf-base")
        lows = decode(np.zeros(len(space)), space)
        highs = decode(np.ones(len(space)), space)
        for spec in space.params:
            assert lows[spec.name] == spec.lower
            assert highs[spec.name] == spec.upper

    def test_decode_rounds_half_up(self):
        space = space_for_method("tcnf-base")
        mid = decode(np.full(len(space), 0.5), space)
        assert mid["coupling_layers"] == 12  # 3 + 0.5 * 17 = 11.5 rounds up

    @pytest.mark.parametrize("method", ["realnvp", "tcnf-base", "tcnf-fixed",
                                        "tcnf-mlp", "tcnf-cnn",
                                        "tcnf-stateless", "tcnf-stateful"])
    def test_decoded_values_always_in_bounds(self, method):
        space = space_for_method(method, lookback_max=100)
        rng = np.random.default_rng(0)
        for _ in range(50):
            vec = reflect_into_unit(rng.normal(0.5, 1.0, len(space)))
            params = decode(vec, space)
            for spec in space.params:
                assert spec.lower <= params[spec.name] <= spec.upper

    def test_reflection_folds_into_unit_cube(self):
        x = np.array([-0.3, 1.4, 2.7, 0.5])
        folded = reflect_into_unit(x)
        assert ((folded >= 0) & (folded <= 1)).all()
        np.testing.assert_allclose(folded, [0.3, 0.6, 0.7, 0.5])


class TestCmaEs:
    def test_tiny_sigma_collapses_population_to_mean(self):
        opt = CmaEs(4, seed=0, sigma0=1e-12)
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
            return opt.state.mean.copy(), opt.state.sigma

        # exp and affine transforms preserve ranking exactly
        base_mean, base_sigma = run(lambda f: f)
        exp_mean, exp_sigma = run(lambda f: np.exp(f) * 7.0 + 1.0)
        np.testing.assert_allclose(base_mean, exp_mean)
        assert base_sigma == pytest.approx(exp_sigma)

    def test_all_equal_fitness_leaves_mean_unchanged(self):
        opt = CmaEs(4, seed=5)
        xs = opt.ask()
        before = opt.state.mean.copy()
        opt.tell(xs, np.zeros(opt.lam))
        np.testing.assert_array_equal(opt.state.mean, before)

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

    def test_restart_doubles_population_on_stagnation(self):
        opt = CmaEs(3, seed=0, restart_window=3, restart_tol=1e-12)
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
            train, labeled, "tcnf-base", "labeled-30-70", budget=9, seed=0,
            candidate_cfg=TrainConfig(epochs=2, batch_size=128, patience=2),
            final_epochs=2, lookback_max=8,
        )
        assert len(result.trials) == 9
        assert result.best_trial.fitness <= np.nanmedian([t.fitness for t in result.trials])
        for trial in result.trials:
            for spec in result.space.params:
                assert spec.lower <= trial.params[spec.name] <= spec.upper
        path = tmp_path / "trials.csv"
        result.trials_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# method=tcnf-base")
        assert len(lines) == 2 + len(result.trials)

    def test_val_loss_objective_needs_no_labels(self):
        train, _ = self._datasets()
        result = run_search(
            train, None, "realnvp", "val-loss", budget=8, seed=1,
            candidate_cfg=TrainConfig(epochs=2, batch_size=128, patience=2),
            final_epochs=2,
        )
        assert np.isfinite(result.best_trial.fitness)
        assert np.isnan(result.best_trial.auc)

    def test_labeled_objective_without_labels_rejected(self):
        train, _ = self._datasets()
        with pytest.raises(ValueError, match="label"):
            run_search(train, None, "tcnf-base", "labeled-30-70", budget=9)

    def test_budget_below_population_rejected(self):
        train, labeled = self._datasets()
        with pytest.raises(ValueError, match="budget"):
            run_search(train, labeled, "tcnf-base", "labeled-30-70", budget=2)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_infeasible_lookback_is_a_failed_trial(self, seed):
        # 300 steps leave no train/validation split for lookbacks near 50;
        # both seeds draw such candidates in the first generation
        train = dt.generate_synthetic("sine", 300, 2, noise=0.1, seed=0)
        result = run_search(
            train, None, "tcnf-base", "val-loss", budget=9, seed=seed,
            candidate_cfg=TrainConfig(epochs=1, patience=1), final_epochs=1,
            lookback_max=50,
        )
        failed = [t for t in result.trials if not np.isfinite(t.fitness)]
        assert 0 < len(failed) < len(result.trials)
        for t in failed:
            assert t.fitness == np.inf
            assert np.isnan(t.auc) and np.isnan(t.vus) and np.isnan(t.val_loss)
        assert np.isfinite(result.best_trial.fitness)

    def test_search_with_no_finite_trial_fails_before_refit(self):
        # lookbacks up to 250 leave no train/validation split of 300 steps
        train = dt.generate_synthetic("sine", 300, 2, noise=0.1, seed=0)
        with pytest.raises(dt.DataError, match="all 9 candidates failed"):
            run_search(train, None, "tcnf-base", "val-loss", budget=9, seed=0,
                       candidate_cfg=TrainConfig(epochs=1, patience=1), final_epochs=1,
                       lookback_max=250)

    def test_candidate_fitness_equals_chained_train_score_evaluate(self):
        # the search's internal evaluation must match running the pipeline
        # stages by hand with the same hyperparameters and derived seed
        from tcflow.data import normalize_minmax, normalize_with_stats, pad_even_channels
        from tcflow.hyperopt import _candidate_seed, configs_from_params
        from tcflow.metrics import auc_roc, combined_objective, vus_roc
        from tcflow.score import score_series
        from tcflow.train import train_model

        train, labeled = self._datasets()
        result = run_search(
            train, labeled, "tcnf-base", "labeled-30-70", budget=9, seed=4,
            candidate_cfg=TrainConfig(epochs=2, batch_size=128, patience=2),
            final_epochs=2, lookback_max=8,
        )
        trial = result.trials[3]
        encoder_cfg, flow_cfg = configs_from_params("tcnf-base", trial.params)
        train_p = pad_even_channels(normalize_minmax(train))
        eval_p = pad_even_channels(normalize_with_stats(labeled, train_p.norm_stats))
        model, _ = train_model(
            train_p, encoder_cfg, flow_cfg,
            TrainConfig(epochs=2, batch_size=128, patience=2,
                        seed=_candidate_seed(4, trial.index)),
        )
        scores = score_series(model, eval_p).scores
        auc = auc_roc(scores, eval_p.labels)
        vus = vus_roc(scores, eval_p.labels, result.metric_window)
        assert auc == pytest.approx(trial.auc, abs=1e-12)
        assert -combined_objective(auc, vus) == pytest.approx(trial.fitness, abs=1e-12)
