import math

import numpy as np
import pytest
from helpers import (
    best_f1_threshold_oracle,
    build_model_with_encoder,
    latent,
    log_prob,
    randomize_model,
)

from tcflow import data as dt
from tcflow.conditioners import KINDS, EncoderConfig, build_encoder
from tcflow.flow import FlowConfig, FlowModel, gaussian_log_density
from tcflow.metrics import select_threshold
from tcflow.score import (
    ScoreSeries,
    export_latent,
    load_score_csv,
    score_series,
    write_score_svg,
)


def zero_dataset(n_steps=6, dim=2):
    return dt.TimeSeriesDataset(np.zeros((n_steps, dim)))


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
        base = dt.TimeSeriesDataset(values)
        doubled = dt.TimeSeriesDataset(np.vstack([values, values]))
        a = score_series(model, base).scores
        b = score_series(model, doubled).scores
        # the second copy repeats the first except at the boundary splice
        np.testing.assert_allclose(b[40 + 3 :], a[3:], atol=1e-10)

    def test_deterministic(self):
        model = build_model_with_encoder(2, 3, EncoderConfig("passthrough", lookback=4), seed=9)
        randomize_model(model, np.random.default_rng(3), scale=0.3)
        ds = dt.TimeSeriesDataset(np.random.default_rng(4).normal(size=(50, 2)))
        np.testing.assert_array_equal(score_series(model, ds).scores,
                                      score_series(model, ds).scores)

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_step_series_raises_for_every_kind(self, tmp_path, kind):
        # as in training: no kind scores or exports a series of 0 steps, and
        # the export opens no file
        model = build_model_with_encoder(2, 2, EncoderConfig(kind, lookback=3))
        path = tmp_path / "latent.csv"
        with pytest.raises(dt.DataError, match="series of 0 steps"):
            score_series(model, zero_dataset(0))
        with pytest.raises(dt.DataError, match="series of 0 steps"):
            export_latent(model, zero_dataset(0), path)
        assert not path.exists()

    def test_channel_count_mismatch_rejected(self):
        model = build_model_with_encoder(4, 2, EncoderConfig("none"))
        with pytest.raises(dt.DataError, match="stats cover 4 channels, dataset has 2"):
            score_series(model, zero_dataset(10, 2))

    def test_model_cannot_be_built_without_statistics(self):
        # scoring applies the model's statistics and never fits its own, so
        # a model has them from its construction on
        encoder = build_encoder(EncoderConfig("passthrough", lookback=2), 2,
                                np.random.default_rng(0))
        with pytest.raises(TypeError, match="norm_stats"):
            FlowModel(2, FlowConfig(), encoder, rng=np.random.default_rng(0))
        with pytest.raises(TypeError):
            FlowModel(2, FlowConfig(), encoder, None, np.random.default_rng(0))

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
        ds = dt.TimeSeriesDataset(np.random.default_rng(9).normal(size=(n_steps, 2)))
        values = dt.prepare(ds, model.norm_stats)[0]
        stream = np.vstack([values[:1], values[:-1]])
        states = model.encoder.zero_states(1)
        expected = []
        for t in range(n_steps):
            w, states = model.encoder.encode_step(stream[t : t + 1], states, None)
            expected.append(-log_prob(model, values[t : t + 1], w)[0])
        np.testing.assert_allclose(score_series(model, ds).scores, expected, rtol=1e-12, atol=0)

    def test_stateful_flow_runs_on_batch_blocks_not_on_chunks(self):
        # the flow's block size is _BATCH rows for every kind: on a wide net,
        # BLAS results depend on the row count, so running the flow on each
        # lookback-row chunk changes the last bits of latents and scores
        from tcflow.score import _BATCH, _latent_series

        model = build_model_with_encoder(
            8, 2, EncoderConfig("lstm-stateful", lookback=3), seed=11, multiplier=50)
        randomize_model(model, np.random.default_rng(12), scale=0.3)
        ds = dt.TimeSeriesDataset(np.random.default_rng(13).normal(size=(2500, 8)))
        values = dt.prepare(ds, model.norm_stats)[0]
        stream = np.vstack([values[:1], values[:-1]])  # row t is conditioned on row t - 1
        contexts = model.encoder.encode_step(stream, model.encoder.zero_states(1), None)[0].value
        latents, log_dets = map(np.concatenate, zip(*[
            latent(model, values[lo : lo + _BATCH], contexts[lo : lo + _BATCH])
            for lo in range(0, values.shape[0], _BATCH)]))
        scores = -(gaussian_log_density(latents) + log_dets)
        for got, expected in zip(_latent_series(model, ds), (latents, log_dets, scores)):
            np.testing.assert_array_equal(got, expected)

    def test_stateless_lstm_peak_memory_does_not_grow_with_its_working_arrays(self):
        # each stateless-LSTM context is a view of its block's whole
        # (lookback, 1024, 2 * hidden) LSTM output; scoring copies it, so the
        # peak grows with the (T, context_dim) contexts, not with those outputs
        import tracemalloc

        model = build_model_with_encoder(8, 2, EncoderConfig("lstm-stateless", lookback=50))
        peaks = []
        for n_steps in (5_000, 20_000):
            ds = dt.TimeSeriesDataset(np.random.default_rng(0).normal(size=(n_steps, 8)))
            tracemalloc.start()
            try:
                score_series(model, ds)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 20 * 2**20, peaks

    @pytest.mark.parametrize("kind, bound_mib", [("cnn", 12), ("lstm-stateless", 12)])
    def test_scoring_keeps_no_graph_of_the_encoder(self, kind, bound_mib):
        # scoring runs under dc.no_grad: a recorded graph keeps each block's
        # conv or LSTM intermediates alive up to the next block, a peak of
        # 15.2 MiB (cnn) and 14.5 MiB (stateless LSTM) on this series, against
        # 8.4 and 10.1 MiB without one
        import tracemalloc

        model = build_model_with_encoder(2, 4, EncoderConfig(kind, lookback=20))
        ds = dt.TimeSeriesDataset(np.random.default_rng(0).normal(size=(40_000, 2)))
        tracemalloc.start()
        try:
            score_series(model, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20, peak

    def test_each_block_graph_is_freed_before_the_next_is_built(self, monkeypatch):
        # a block's coupling nodes hold its conditioner activations: keeping
        # them alive into the next block doubles the scoring peak
        import weakref

        from tcflow import diffcore as dc
        from tcflow.score import _BATCH

        model = build_model_with_encoder(2, 3, EncoderConfig("passthrough", lookback=3))
        built, live = [], []
        original = dc.coupling_inverse

        def recording(*args):
            live.append(sum(ref() is not None for ref in built))
            out = original(*args)
            built.append(weakref.ref(out.value))  # lives as long as the node
            return out

        monkeypatch.setattr(dc, "coupling_inverse", recording)
        score_series(model, dt.TimeSeriesDataset(np.zeros((2 * _BATCH + 1, 2))))
        assert live == [0, 1, 2] * 3

    def test_trained_model_peaks_inside_injected_spike_range(self):
        from tcflow.flow import FlowConfig
        from tcflow.train import TrainConfig, train_model

        clean = dt.generate_synthetic("sine", 500, 2, noise=0.1, seed=0)
        model, _ = train_model(
            clean, EncoderConfig("passthrough", lookback=4),
            FlowConfig(2, 2, 3, 0.1, 1.5),
            TrainConfig(epochs=6, batch_size=128, learning_rate=3e-3, seed=1))
        test = dt.generate_synthetic("sine", 500, 2, noise=0.1, seed=2)
        test = dt.inject_anomaly(test, dt.AnomalySpec("spike", 250, 1, 6.0, (0,)))
        series = score_series(model, test)
        peak = int(np.argmax(series.scores))
        buffer = 4  # lookback-wide slack after the labeled point
        assert 250 <= peak <= 250 + buffer


class TestSelectThreshold:
    def test_best_f1_on_separable_scores_reaches_one(self):
        from tcflow.metrics import precision_recall_f1

        scores = np.array([0.1, 0.2, 5.0, 6.0])
        labels = np.array([0, 0, 1, 1], dtype=bool)
        thr = select_threshold(scores, labels)
        assert precision_recall_f1(scores, labels, thr)[2] == 1.0

    def test_best_f1_worked_example(self):
        thr = select_threshold(np.array([1.0, 2.0, 3.0, 4.0]),
                               np.array([0, 0, 1, 1], dtype=bool))
        assert 2.0 < thr <= 3.0

    def test_best_f1_without_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            select_threshold(np.arange(4.0), None)


    @pytest.mark.parametrize("seed", range(6))
    def test_best_f1_equals_per_threshold_loop(self, seed):
        # the loop over every unique score is the exact oracle, ties included;
        # a NaN score is rejected with its index
        rng = np.random.default_rng(seed)
        for n in (1, 2, 7, 60, 400):
            scores = (rng.integers(0, 6, n).astype(float) if seed % 2
                      else rng.normal(size=n))
            if seed == 4:
                scores[rng.random(n) < 0.1] = np.nan
            labels = rng.random(n) < 0.2
            nan = np.flatnonzero(np.isnan(scores))
            if nan.size:
                with pytest.raises(ValueError, match=f"non-finite score at index {nan[0]}:"):
                    select_threshold(scores, labels)
            else:
                assert select_threshold(scores, labels) == best_f1_threshold_oracle(scores, labels)


class TestExportLatent:
    def test_identity_model_latent_equals_input(self, tmp_path):
        # with one layer there is no half-swap, so fresh parameters give the
        # literal identity map
        model = build_model_with_encoder(2, 1, EncoderConfig("none"))
        rng = np.random.default_rng(0)
        ds = dt.TimeSeriesDataset(rng.normal(size=(12, 2)))
        values = dt.prepare(ds, model.norm_stats)[0]
        path = tmp_path / "latent.csv"
        export_latent(model, ds, path)
        rows = path.read_text().splitlines()
        assert rows[0] == "u0,u1,logdet,score"
        assert len(rows) == 13
        parsed = np.array([[float(c) for c in r.split(",")] for r in rows[1:]])
        np.testing.assert_allclose(parsed[:, :2], values, atol=1e-12)
        np.testing.assert_allclose(parsed[:, 2], 0.0, atol=1e-12)

    def test_untrained_model_writes_negative_zero_log_dets(self, tmp_path):
        # the pass starts the running log-det at -0.0, and each fresh layer
        # adds -0.0 (its zero head's negated scale sum): every cell is -0.0
        model = build_model_with_encoder(4, 3, EncoderConfig("passthrough", lookback=2))
        ds = dt.TimeSeriesDataset(np.random.default_rng(0).normal(size=(9, 4)))
        path = tmp_path / "latent.csv"
        export_latent(model, ds, path)
        rows = path.read_text().splitlines()
        column = rows[0].split(",").index("logdet")
        assert [row.split(",")[column] for row in rows[1:]] == ["-0.0"] * 9

    @pytest.mark.parametrize("kind", KINDS)
    def test_score_reconstructs_from_latent_and_logdet(self, tmp_path, kind):
        model = build_model_with_encoder(2, 3, EncoderConfig(kind, lookback=3), seed=2)
        randomize_model(model, np.random.default_rng(1), scale=0.3)
        rng = np.random.default_rng(5)
        ds = dt.TimeSeriesDataset(rng.normal(size=(30, 2)))
        path = tmp_path / "latent.csv"
        export_latent(model, ds, path)
        rows = path.read_text().splitlines()[1:]
        parsed = np.array([[float(c) for c in r.split(",")] for r in rows])
        latent, logdet, stored_score = parsed[:, :2], parsed[:, 2], parsed[:, 3]
        recomputed = -(gaussian_log_density(latent) + logdet)
        np.testing.assert_array_equal(recomputed, stored_score)
        series = score_series(model, ds)
        np.testing.assert_array_equal(stored_score, series.scores)

    def test_non_finite_score_raises_as_in_score_series(self, tmp_path):
        # caps near the float maximum overflow exp(scale): infinite latents
        # and log-dets, so every score is inf or nan
        model = build_model_with_encoder(2, 2, EncoderConfig("none"))
        randomize_model(model, np.random.default_rng(0), scale=0.5)
        for layer in model.layers:
            layer.scale_cap.value = np.full_like(layer.scale_cap.value, 1.7e308)
        ds = dt.TimeSeriesDataset(np.random.default_rng(1).normal(size=(5, 2)))
        path = tmp_path / "latent.csv"
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite score at timestep 0"):
                score_series(model, ds)
            with pytest.raises(FloatingPointError, match="non-finite score at timestep 0"):
                export_latent(model, ds, path)
        assert not path.exists()

    def test_labeled_dataset_adds_label_column(self, tmp_path):
        model = build_model_with_encoder(2, 2, EncoderConfig("none"))
        ds = dt.TimeSeriesDataset(np.zeros((8, 2)), labels=np.arange(8) % 2 == 0)
        path = tmp_path / "latent.csv"
        export_latent(model, ds, path)
        header = path.read_text().splitlines()[0]
        assert header.endswith(",label")

    def test_byte_identical_across_runs(self, tmp_path):
        model = build_model_with_encoder(2, 2, EncoderConfig("passthrough", lookback=2), seed=3)
        randomize_model(model, np.random.default_rng(2), scale=0.2)
        ds = dt.TimeSeriesDataset(np.random.default_rng(3).normal(size=(20, 2)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_latent(model, ds, p1)
        export_latent(model, ds, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCsvAndSvg:
    def test_score_csv_round_trip(self, tmp_path):
        series = ScoreSeries(np.array([1.5, -0.25, 3.0]))
        labels = np.array([0, 1, 0], dtype=bool)
        path = tmp_path / "scores.csv"
        series.to_csv(path, labels=labels)
        back, back_labels = load_score_csv(path)
        np.testing.assert_array_equal(back.scores, series.scores)
        np.testing.assert_array_equal(back_labels, labels)

    @pytest.mark.parametrize("text, message", [
        ("t,score,label\n0,1.0,0\n1,nan,1\n", r"non-finite score at row 2, column 2: nan"),
        ("t,score,label\n0,1.0,0\n1,0.5,2\n", r"non-binary label at row 2, column 3: 2.0"),
        ("t,score,label\n0,1.0,0\n1,0.5\n", r"ragged row 2 has 2 cells, expected 3"),
        ("t,score\n0,1.0\n1,high\n", r"non-numeric cell at row 2, column 2: 'high'"),
        ("t,score,label\n0,1.0,yes\n", r"non-numeric cell at row 1, column 3: 'yes'"),
        ("t,value,label\n0,1.0,0\n", r"no 'score' column"),
    ], ids=["nan-score", "label-2", "short-row", "non-numeric-score", "non-numeric-label",
            "no-score-header"])
    def test_bad_score_csv_rejected_naming_row_and_column(self, tmp_path, text, message):
        path = tmp_path / "scores.csv"
        path.write_text(text)
        with pytest.raises(dt.DataError, match=message):
            load_score_csv(path)

    def test_score_column_found_by_header_name(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("score,t,label\n0.25,0,1\n-1.5,1,0\n")
        series, labels = load_score_csv(path)
        np.testing.assert_array_equal(series.scores, [0.25, -1.5])
        np.testing.assert_array_equal(labels, [True, False])

    def test_svg_is_deterministic(self, tmp_path):
        series = ScoreSeries(np.sin(np.linspace(0, 6, 200)))
        labels = np.zeros(200, dtype=bool)
        labels[50:60] = True
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        write_score_svg(series, a, labels)
        write_score_svg(series, b, labels)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("<svg")
