import math

import numpy as np
import pytest
from helpers import build_model_with_encoder, randomize_model

from tcflow import data as dt
from tcflow.conditioners import KINDS, EncoderConfig
from tcflow.flow import gaussian_log_density
from tcflow.score import (
    ScoreSeries,
    export_latent,
    load_score_csv,
    score_series,
    select_threshold,
    write_score_svg,
)


def zero_dataset(n_steps=6, dim=2):
    return dt.TimeSeriesDataset(
        np.zeros((n_steps, dim)),
        norm_stats=(np.full(dim, -1.0), np.full(dim, 1.0)),
        provenance="zeros",
    )


class TestScoreSeries:
    def test_identity_model_on_origin_scores_log_two_pi(self):
        model = build_model_with_encoder(2, 2, EncoderConfig("none"))
        series = score_series(model, zero_dataset())
        np.testing.assert_allclose(series.scores, math.log(2 * math.pi))

    def test_scores_cover_every_timestep(self):
        model = build_model_with_encoder(2, 2, EncoderConfig("passthrough", lookback=5))
        ds = zero_dataset(37)
        assert score_series(model, ds).scores.shape == (37,)

    def test_duplicated_sequence_duplicates_scores(self):
        model = build_model_with_encoder(2, 2, EncoderConfig("passthrough", lookback=3), seed=5)
        randomize_model(model, np.random.default_rng(0), scale=0.2)
        rng = np.random.default_rng(1)
        values = rng.normal(size=(40, 2))
        base = dt.TimeSeriesDataset(values, norm_stats=(np.full(2, -1.0), np.full(2, 1.0)))
        doubled = dt.TimeSeriesDataset(
            np.vstack([values, values]), norm_stats=base.norm_stats)
        a = score_series(model, base).scores
        b = score_series(model, doubled).scores
        # the second copy repeats the first except at the boundary splice
        np.testing.assert_allclose(b[40 + 3 :], a[3:], atol=1e-10)

    def test_deterministic(self):
        model = build_model_with_encoder(2, 3, EncoderConfig("passthrough", lookback=4), seed=9)
        randomize_model(model, np.random.default_rng(3), scale=0.3)
        ds = dt.TimeSeriesDataset(
            np.random.default_rng(4).normal(size=(50, 2)),
            norm_stats=(np.full(2, -1.0), np.full(2, 1.0)))
        np.testing.assert_array_equal(score_series(model, ds).scores,
                                      score_series(model, ds).scores)

    def test_channel_count_mismatch_rejected(self):
        model = build_model_with_encoder(4, 2, EncoderConfig("none"))
        with pytest.raises(ValueError, match="channels"):
            score_series(model, zero_dataset(10, 2))

    def test_stateful_scoring_matches_series_length(self):
        model = build_model_with_encoder(
            2, 2, EncoderConfig("lstm-stateful", lookback=4, lstm_layers=1))
        ds = zero_dataset(23)
        assert score_series(model, ds).scores.shape == (23,)

    @pytest.mark.parametrize("n_steps", [1, 4, 5, 6, 13])
    def test_stateful_scores_match_per_row_reference_walk(self, n_steps):
        # lookback 5: series shorter than, equal to and not a multiple of it
        model = build_model_with_encoder(
            2, 2, EncoderConfig("lstm-stateful", lookback=5, lstm_layers=2), seed=7)
        randomize_model(model, np.random.default_rng(8), scale=0.3)
        values = np.random.default_rng(9).normal(size=(n_steps, 2))
        ds = dt.TimeSeriesDataset(values, norm_stats=(np.full(2, -1.0), np.full(2, 1.0)))
        stream = np.vstack([values[:1], values[:-1]])
        handle = model.encoder.new_handle()
        expected = []
        for t in range(n_steps):
            w = model.encoder.encode_step(stream[t], handle, t)
            expected.append(-model.log_prob(values[t : t + 1], w)[0])
        np.testing.assert_allclose(score_series(model, ds).scores, expected, rtol=1e-12, atol=0)

    def test_trained_model_peaks_inside_injected_spike_range(self):
        from tcflow.flow import ConditionerConfig, FlowConfig
        from tcflow.train import TrainConfig, train_model

        clean = dt.generate_synthetic("sine", 500, 2, noise=0.1, seed=0)
        prepared = dt.pad_even_channels(dt.normalize_minmax(clean))
        model, _ = train_model(
            prepared, EncoderConfig("passthrough", lookback=4),
            FlowConfig(2, ConditionerConfig(2, 3, 0.1, 1.5)),
            TrainConfig(epochs=6, batch_size=128, learning_rate=3e-3, seed=1))
        test = dt.generate_synthetic("sine", 500, 2, noise=0.1, seed=2)
        test = dt.inject_anomaly(test, dt.AnomalySpec("spike", 250, 1, 6.0, (0,)))
        test = dt.pad_even_channels(dt.normalize_with_stats(test, prepared.norm_stats))
        series = score_series(model, test)
        peak = int(np.argmax(series.scores))
        buffer = 4  # lookback-wide slack after the labeled point
        assert 250 <= peak <= 250 + buffer


class TestSelectThreshold:
    def test_quantile_one_is_max(self):
        scores = np.array([0.3, 2.0, 1.1, 0.9])
        assert select_threshold(scores, policy="quantile", q=1.0) == 2.0

    def test_best_f1_on_separable_scores_reaches_one(self):
        from tcflow.metrics import precision_recall_f1

        scores = np.array([0.1, 0.2, 5.0, 6.0])
        labels = np.array([0, 0, 1, 1], dtype=bool)
        thr = select_threshold(scores, labels, policy="best-f1")
        assert precision_recall_f1(scores, labels, thr)[2] == 1.0

    def test_best_f1_worked_example(self):
        thr = select_threshold(np.array([1.0, 2.0, 3.0, 4.0]),
                               np.array([0, 0, 1, 1], dtype=bool), policy="best-f1")
        assert 2.0 < thr <= 3.0

    def test_best_f1_without_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            select_threshold(np.arange(4.0), policy="best-f1")


class TestExportLatent:
    def test_identity_model_latent_equals_input(self, tmp_path):
        # with one layer there is no half-swap, so fresh parameters give the
        # literal identity map
        model = build_model_with_encoder(2, 1, EncoderConfig("none"))
        rng = np.random.default_rng(0)
        values = rng.normal(size=(12, 2))
        ds = dt.TimeSeriesDataset(values, norm_stats=(np.full(2, -1.0), np.full(2, 1.0)))
        path = tmp_path / "latent.csv"
        export_latent(model, ds, path)
        rows = path.read_text().splitlines()
        assert rows[0] == "u0,u1,logdet,score"
        assert len(rows) == 13
        parsed = np.array([[float(c) for c in r.split(",")] for r in rows[1:]])
        np.testing.assert_allclose(parsed[:, :2], values, atol=1e-12)
        np.testing.assert_allclose(parsed[:, 2], 0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_score_reconstructs_from_latent_and_logdet(self, tmp_path, kind):
        model = build_model_with_encoder(2, 3, EncoderConfig(kind, lookback=3), seed=2)
        randomize_model(model, np.random.default_rng(1), scale=0.3)
        rng = np.random.default_rng(5)
        ds = dt.TimeSeriesDataset(rng.normal(size=(30, 2)),
                                  norm_stats=(np.full(2, -1.0), np.full(2, 1.0)))
        path = tmp_path / "latent.csv"
        export_latent(model, ds, path)
        rows = path.read_text().splitlines()[1:]
        parsed = np.array([[float(c) for c in r.split(",")] for r in rows])
        latent, logdet, stored_score = parsed[:, :2], parsed[:, 2], parsed[:, 3]
        recomputed = -(gaussian_log_density(latent) + logdet)
        np.testing.assert_array_equal(recomputed, stored_score)
        series = score_series(model, ds)
        np.testing.assert_array_equal(stored_score, series.scores)

    def test_labeled_dataset_adds_label_column(self, tmp_path):
        model = build_model_with_encoder(2, 2, EncoderConfig("none"))
        ds = zero_dataset(8)
        ds = dt.TimeSeriesDataset(ds.values, labels=np.arange(8) % 2 == 0,
                                  norm_stats=ds.norm_stats)
        path = tmp_path / "latent.csv"
        export_latent(model, ds, path)
        header = path.read_text().splitlines()[0]
        assert header.endswith(",label")

    def test_byte_identical_across_runs(self, tmp_path):
        model = build_model_with_encoder(2, 2, EncoderConfig("passthrough", lookback=2), seed=3)
        randomize_model(model, np.random.default_rng(2), scale=0.2)
        ds = dt.TimeSeriesDataset(np.random.default_rng(3).normal(size=(20, 2)),
                                  norm_stats=(np.full(2, -1.0), np.full(2, 1.0)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_latent(model, ds, p1)
        export_latent(model, ds, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCsvAndSvg:
    def test_score_csv_round_trip(self, tmp_path):
        series = ScoreSeries(np.array([1.5, -0.25, 3.0]), "m", "d")
        labels = np.array([0, 1, 0], dtype=bool)
        path = tmp_path / "scores.csv"
        series.to_csv(path, labels=labels)
        back, back_labels = load_score_csv(path)
        np.testing.assert_array_equal(back.scores, series.scores)
        np.testing.assert_array_equal(back_labels, labels)

    def test_svg_is_deterministic(self, tmp_path):
        series = ScoreSeries(np.sin(np.linspace(0, 6, 200)))
        labels = np.zeros(200, dtype=bool)
        labels[50:60] = True
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        write_score_svg(series, a, labels)
        write_score_svg(series, b, labels)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("<svg")
