import math
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import (
    backward_grads,
    build_model_with_encoder,
    param_grads,
    randomize_model,
    reference_window_rows,
)

from tcflow import diffcore as dc
from tcflow import data as dt
from tcflow.conditioners import KINDS, EncoderConfig
from tcflow.flow import ConditionerConfig, FlowConfig, gaussian_log_density, nll_loss
from tcflow.train import (
    AdamState,
    SerializationError,
    TrainConfig,
    TrainingDiverged,
    _chunk_batches,
    _mean_loss,
    _window_batches,
    adam_step,
    load_model,
    save_model,
    train_model,
)


def small_cfgs(n_layers=2, multiplier=2, cond_layers=3):
    return FlowConfig(n_layers, ConditionerConfig(multiplier, cond_layers, 0.1, 1.5))


def prepared_sine(n_steps=400, n_channels=2, noise=0.1, seed=0):
    ds = dt.generate_synthetic("sine", n_steps, n_channels, noise=noise, seed=seed)
    return dt.pad_even_channels(dt.normalize_minmax(ds))


class TestAdam:
    def _param(self, value, name="p"):
        return dc.Parameter(np.asarray(value, dtype=float), name)

    def test_zero_gradient_is_a_fixed_point(self):
        p = self._param([1.0, -2.0])
        state = AdamState([p])
        adam_step(state, lr=1e-3)
        np.testing.assert_array_equal(p.value, [1.0, -2.0])

    def test_first_step_matches_hand_computation(self):
        # bias correction makes the first update -lr * g/(|g| + eps)
        p = self._param([0.0])
        state = AdamState([p])
        p.grad[...] = 1.0
        adam_step(state, lr=1e-3)
        assert p.value[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_parameter_groups_updated_independently(self):
        a = self._param([0.0], "a")
        b = self._param([0.0], "b")
        state = AdamState([a, b])
        a.grad[...] = 1.0
        adam_step(state, lr=1e-3)
        assert a.value[0] != 0.0
        assert b.value[0] == 0.0

    def test_nan_gradient_names_parameter(self):
        p = self._param([0.0], "w3")
        state = AdamState([p])
        p.grad[...] = np.nan
        with pytest.raises(FloatingPointError, match="w3"):
            adam_step(state, lr=1e-3)

    def test_global_norm_clip_rescales(self):
        p = self._param(np.zeros(4))
        state = AdamState([p])
        p.grad[...] = 100.0
        adam_step(state, lr=1.0, clip_norm=1.0)
        # after clipping, every coordinate sees the same (scaled) gradient
        assert np.isfinite(p.value).all()
        assert np.allclose(p.value, p.value[0])


def _per_parameter_adam(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                        clip_norm=0.0):
    """Reference: the Adam update one parameter at a time (moments by name)."""
    if clip_norm > 0:
        total = np.sqrt(sum(float((grads[p.name] ** 2).sum()) for p in params if p.name in grads))
        if total > clip_norm:
            grads = {name: g * (clip_norm / total) for name, g in grads.items()}
    for p in params:
        g = grads.get(p.name)
        if g is None:
            continue
        m[p.name] *= beta1
        m[p.name] += (1.0 - beta1) * g
        v[p.name] *= beta2
        v[p.name] += (1.0 - beta2) * g * g
        m_hat = m[p.name] / (1.0 - beta1**t)
        v_hat = v[p.name] / (1.0 - beta2**t)
        p.value -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestFlatBuffer:
    # b1 and b2 share a size: the clip norm sums them in one gathered group
    SHAPES = {"w1": (7, 5), "b1": (5,), "w2": (5, 5), "b2": (5,), "w3": (5, 3), "cap": (3,)}

    def _pair(self):
        rng = np.random.default_rng(0)
        values = {name: rng.normal(size=shape) for name, shape in self.SHAPES.items()}
        flat = [dc.Parameter(values[name].copy(), name) for name in self.SHAPES]
        loop = [dc.Parameter(values[name].copy(), name) for name in self.SHAPES]
        return flat, loop

    @staticmethod
    def _assert_one_buffer(params):
        base = params[0].value.base
        assert base is not None and base.ndim == 1
        size = 0
        for p in params:
            assert p.value.base is base, p.name
            size += p.value.size
        assert base.size == size

    def test_flat_adam_equals_per_parameter_loop_with_clipping(self):
        flat, loop = self._pair()
        state = AdamState(flat)
        m = {p.name: np.zeros_like(p.value) for p in loop}
        v = {p.name: np.zeros_like(p.value) for p in loop}
        rng = np.random.default_rng(1)
        clipped = 0
        for t in range(1, 21):
            scale = 3.0 if t % 3 else 0.1
            grads = {name: rng.normal(size=shape) * scale for name, shape in self.SHAPES.items()}
            clipped += np.sqrt(sum(float((g**2).sum()) for g in grads.values())) > 5.0
            for p in flat:
                p.grad[...] = grads[p.name]
            adam_step(state, lr=1e-2, clip_norm=5.0)
            _per_parameter_adam(loop, grads, m, v, t, lr=1e-2, clip_norm=5.0)
            for a, b in zip(flat, loop):
                np.testing.assert_array_equal(a.value, b.value, err_msg=f"{a.name} step {t}")
        assert 0 < clipped < 20
        np.testing.assert_array_equal(state.m, np.concatenate([m[p.name].ravel() for p in flat]))
        np.testing.assert_array_equal(state.v, np.concatenate([v[p.name].ravel() for p in flat]))

    def test_gradients_from_backward_are_views_of_the_buffer(self):
        flat, loop = self._pair()
        state = AdamState(flat)
        x = dc.constant(np.random.default_rng(2).normal(size=(4, 7)))

        def loss(params):
            w1, b1, w2, b2, w3, cap = params
            h = dc.tanh(dc.add(dc.matmul(x, w1), b1))
            h = dc.tanh(dc.add(dc.matmul(h, w2), b2))
            return dc.sum_(dc.mul(dc.matmul(h, w3), cap))

        m = {p.name: np.zeros_like(p.value) for p in loop}
        v = {p.name: np.zeros_like(p.value) for p in loop}
        for t in range(1, 4):
            dc.backward(loss(flat))
            for p in flat:
                assert p.grad.base is state.grads
            adam_step(state, lr=0.1, clip_norm=1.0)
            dc.backward(loss(loop))
            _per_parameter_adam(loop, param_grads(loop), m, v, t, lr=0.1, clip_norm=1.0)
            for a, b in zip(flat, loop):
                np.testing.assert_array_equal(a.value, b.value, err_msg=a.name)

    def test_nan_gradient_names_its_parameter_among_many(self):
        flat, _ = self._pair()
        state = AdamState(flat)
        flat[2].grad[1, 2] = np.nan
        with pytest.raises(FloatingPointError, match="'w2'"):
            adam_step(state, lr=1e-3)

    @pytest.mark.parametrize("kind", ["none", "mlp", "lstm-stateful"])
    def test_parameters_are_views_of_one_buffer_after_training_and_loading(self, kind, tmp_path):
        ds = prepared_sine(200, seed=1)
        model, report = train_model(ds, EncoderConfig(kind, lookback=4), small_cfgs(),
                                    TrainConfig(epochs=3, seed=0))
        self._assert_one_buffer(model.parameters())
        path = tmp_path / "model.tcf"
        save_model(model, path)
        loaded = load_model(path)
        self._assert_one_buffer(loaded.parameters())
        for a, b in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a.value, b.value)

    @pytest.mark.parametrize("kind,layers", [(kind, 1) for kind in KINDS] + [
        ("lstm-stateless", 2), ("lstm-stateful", 2)])
    def test_every_parameter_gets_a_gradient_on_every_step(self, kind, layers, monkeypatch):
        # Adam reads every gradient from the buffer: NaN-fill it before each
        # backward, so a parameter the graph misses fails the step by name
        import tcflow.train as train_module

        states, calls = [], 0
        real_state, real_backward = train_module.AdamState, dc.backward

        def recording_state(params):
            states.append(real_state(params))
            return states[-1]

        def nan_filled_backward(root):
            nonlocal calls
            states[-1].grads.fill(np.nan)
            real_backward(root)
            calls += 1

        monkeypatch.setattr(train_module, "AdamState", recording_state)
        monkeypatch.setattr(dc, "backward", nan_filled_backward)
        ds = prepared_sine(200, seed=2)
        train_model(ds, EncoderConfig(kind, lookback=4, lstm_layers=layers), small_cfgs(),
                    TrainConfig(epochs=2, batch_size=64, seed=0))
        assert len(states) == 1 and states[0].step == calls >= 4

    def test_restore_writes_the_best_epoch_into_the_buffer(self, monkeypatch):
        # record the buffer's values at each epoch's validation; the model
        # returned must hold the best epoch's, in the same buffer
        import tcflow.train as train_module

        seen = []
        original = train_module._mean_loss

        def mean_loss(model, batches, rng, adam=None, cfg=None):
            if adam is None:
                seen.append(np.concatenate([p.value.ravel() for p in model.parameters()]))
            return original(model, batches, rng, adam, cfg)

        monkeypatch.setattr(train_module, "_mean_loss", mean_loss)
        ds = prepared_sine(300, seed=4)
        model, report = train_model(ds, EncoderConfig("passthrough", lookback=4), small_cfgs(),
                                    TrainConfig(epochs=6, learning_rate=0.3, seed=1))
        assert report.best_epoch < len(report.val_losses)
        self._assert_one_buffer(model.parameters())
        np.testing.assert_array_equal(
            np.concatenate([p.value.ravel() for p in model.parameters()]),
            seen[report.best_epoch - 1])


class TestTrainModel:
    def test_identity_initialized_first_loss_is_base_nll(self):
        ds = prepared_sine()
        model = build_model_with_encoder(2, 2, EncoderConfig("passthrough", lookback=4))
        batch = ds.values[10:30]
        ctx = np.stack([ds.values[i - 4 : i] for i in range(10, 30)])
        loss = nll_loss(model, batch, model.encoder.encode_batch(ctx))
        expected = -gaussian_log_density(batch).mean()
        assert float(loss.value) == pytest.approx(expected)

    def test_batch_loss_is_mean_of_pointwise_nll(self):
        ds = prepared_sine()
        model = build_model_with_encoder(2, 2, EncoderConfig("none"), seed=3)
        batch = ds.values[:16]
        per_point = -model.log_prob(batch)
        assert float(nll_loss(model, batch).value) == pytest.approx(per_point.mean())

    def test_white_noise_converges_to_gaussian_entropy(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((1000, 2))
        ds = dt.TimeSeriesDataset(values, norm_stats=(np.full(2, -1.0), np.full(2, 1.0)))
        model, report = train_model(
            ds, EncoderConfig("none"), small_cfgs(),
            TrainConfig(epochs=5, batch_size=256, seed=1),
        )
        # Monte-Carlo oracle: mean NLL of the true density on a fresh sample
        fresh = rng.standard_normal((10000, 2))
        oracle = float(-gaussian_log_density(fresh).mean())
        assert math.isclose(oracle, math.log(2 * math.pi) + 1.0, rel_tol=0.02)
        assert abs(report.best_val_loss - oracle) < 0.15

    def test_fixed_seed_reproduces_report(self):
        ds = prepared_sine(300)
        cfg = TrainConfig(epochs=3, batch_size=64, seed=7)
        _, r1 = train_model(ds, EncoderConfig("passthrough", lookback=4), small_cfgs(), cfg)
        _, r2 = train_model(ds, EncoderConfig("passthrough", lookback=4), small_cfgs(), cfg)
        assert r1.train_losses == r2.train_losses
        assert r1.val_losses == r2.val_losses
        assert r1.best_epoch == r2.best_epoch

    def test_best_epoch_at_most_first_epoch_loss(self):
        ds = prepared_sine(500, seed=3)
        _, report = train_model(
            ds, EncoderConfig("passthrough", lookback=6), small_cfgs(),
            TrainConfig(epochs=8, batch_size=128, seed=2),
        )
        assert report.best_val_loss <= report.val_losses[0]
        assert report.best_epoch == int(np.argmin(report.val_losses)) + 1

    def test_training_reduces_loss_on_sine(self):
        ds = prepared_sine(600, noise=0.2, seed=5)
        _, report = train_model(
            ds, EncoderConfig("passthrough", lookback=6), small_cfgs(n_layers=3),
            TrainConfig(epochs=10, batch_size=128, seed=0),
        )
        assert report.best_val_loss < report.val_losses[0]

    def test_heldout_clean_continuation_within_twice_train_nll(self):
        ds = prepared_sine(700, noise=0.4, seed=11)
        model, report = train_model(
            ds, EncoderConfig("passthrough", lookback=6), small_cfgs(n_layers=2),
            TrainConfig(epochs=8, batch_size=128, seed=4),
        )
        train_nll = report.train_losses[-1]
        assert train_nll > 0  # noise level keeps the optimum above zero
        continuation = dt.generate_synthetic("sine", 300, 2, noise=0.4, seed=99)
        continuation = dt.pad_even_channels(
            dt.normalize_with_stats(continuation, ds.norm_stats))
        from tcflow.score import score_series
        series = score_series(model, continuation)
        assert np.median(series.scores) <= 2.0 * train_nll

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_surfaces_structured_error(self):
        ds = prepared_sine(300)
        with pytest.raises((TrainingDiverged, FloatingPointError)):
            train_model(
                ds, EncoderConfig("none"), small_cfgs(),
                TrainConfig(epochs=10, batch_size=64, learning_rate=1e12,
                            clip_norm=0.0, seed=0),
            )

    def test_unnormalized_dataset_rejected(self):
        ds = dt.generate_synthetic("sine", 200, 2, seed=0)
        with pytest.raises(ValueError, match="normalized"):
            train_model(ds, EncoderConfig("none"), small_cfgs(), TrainConfig(epochs=1))

    def test_stateful_training_runs_and_tracks_validation(self):
        ds = prepared_sine(160, seed=2)
        cfg = EncoderConfig("lstm-stateful", lookback=8, lstm_layers=1)
        model, report = train_model(ds, cfg, small_cfgs(n_layers=2),
                                    TrainConfig(epochs=2, seed=0))
        assert len(report.val_losses) == 2
        assert np.isfinite(report.val_losses).all()
        assert model.encoder.kind == "lstm-stateful"


class TestBatchedRows:
    @pytest.mark.parametrize("mode", ["random-sections", "sequential-tail"])
    @pytest.mark.parametrize("lookback", [1, 4, 30])
    @pytest.mark.parametrize("kind", ["none", "passthrough"])
    def test_rows_match_window_and_set_construction(self, kind, lookback, mode):
        # the split masks over padded_context_windows pick the same rows, in
        # the same order, as the windows filtered by split-index membership
        ds = prepared_sine(400, seed=5)
        lookback = lookback if kind != "none" else 0  # as train_model splits
        train_idx, val_idx = dt.split_train_val(ds.n_steps, lookback, mode,
                                                np.random.default_rng(1))
        masks = np.zeros((2, ds.n_steps), dtype=bool)
        masks[0, train_idx] = masks[1, val_idx] = True
        # the raw windows as "contexts", every row in one batch, unshuffled
        raw = SimpleNamespace(encode_batch=lambda windows, training, rng: windows)
        batches = _window_batches(raw, ds.values, lookback, *masks, batch_size=ds.n_steps)
        in_order = SimpleNamespace(permutation=np.arange)
        (train,) = batches(True, in_order)
        (val,) = batches(False, None)
        want = reference_window_rows(ds.values, lookback, train_idx, val_idx)
        for rows, expected in zip(train + val, want):
            np.testing.assert_array_equal(rows, expected)


class TestStatefulChunks:
    """The stateful path runs the flow once per chunk; these pin it to the
    per-row construction of acceptance a02 (one flow call per timestep)."""

    def _model(self):
        model = build_model_with_encoder(
            2, 2, EncoderConfig("lstm-stateful", lookback=5, lstm_layers=2), seed=3)
        randomize_model(model, np.random.default_rng(4), scale=0.3)
        return model

    @staticmethod
    def _per_row_nll(model, stream, targets, pick):
        encoder = model.encoder
        states = encoder.zero_states(1)
        terms = []
        for t in range(stream.shape[0]):
            w, states = encoder.encode_step(stream[t : t + 1], states)
            if pick[t]:
                terms.append(dc.neg(model.log_prob_nodes(targets[t : t + 1], w)))
        return dc.mean(dc.concat(terms, axis=0))

    def test_chunk_loss_and_gradients_match_per_row_construction(self):
        model = self._model()
        rng = np.random.default_rng(5)
        stream, targets = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        pick = np.array([True, False, True, True, False])

        contexts, _ = model.encoder.encode_step(stream, model.encoder.zero_states(1))
        chunked = nll_loss(model, targets[pick], contexts[pick])
        chunk_grads = backward_grads(chunked, model.parameters())
        per_row = self._per_row_nll(model, stream, targets, pick)
        row_grads = backward_grads(per_row, model.parameters())

        np.testing.assert_allclose(chunked.value, per_row.value, rtol=1e-12, atol=0)
        assert chunk_grads.keys() == row_grads.keys() == {p.name for p in model.parameters()}
        for name, grad in row_grads.items():
            np.testing.assert_allclose(chunk_grads[name], grad, rtol=1e-10, atol=0, err_msg=name)

    @pytest.mark.parametrize("n_steps", [10, 13, 16])
    def test_validation_loss_matches_per_row_walk(self, n_steps):
        # lookback 5: 10 rows fill whole chunks, 13 and 16 end on a partial
        # one; the validation rows start inside a chunk
        model = self._model()
        values = np.random.default_rng(6).normal(size=(n_steps, 2))
        stream = np.vstack([values[:1], values[:-1]])
        val = np.zeros(n_steps, dtype=bool)
        val[7:] = True
        batches = _chunk_batches(model.encoder, values, ~val, val)
        rng = np.random.default_rng(0)
        val_loss = _mean_loss(model, batches(False, rng), rng)
        expected = float(self._per_row_nll(model, stream, values, val).value)
        np.testing.assert_allclose(val_loss, expected, rtol=1e-12, atol=0)


class TestSerialization:
    def _trained(self, tmp_path, encoder_kind="passthrough"):
        ds = prepared_sine(300)
        enc = EncoderConfig(encoder_kind, lookback=4)
        model, _ = train_model(ds, enc, small_cfgs(), TrainConfig(epochs=2, seed=0))
        path = tmp_path / "model.tcf"
        save_model(model, path)
        return model, path, ds

    def test_round_trip_is_bit_exact(self, tmp_path):
        model, path, _ = self._trained(tmp_path)
        loaded = load_model(path)
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert a.name == b.name
            np.testing.assert_array_equal(a.value, b.value)
        np.testing.assert_array_equal(model.norm_stats[0], loaded.norm_stats[0])

    def test_loaded_model_scores_identically(self, tmp_path):
        from tcflow.score import score_series

        model, path, ds = self._trained(tmp_path)
        loaded = load_model(path)
        a = score_series(model, ds).scores
        b = score_series(loaded, ds).scores
        np.testing.assert_array_equal(a, b)

    def test_truncated_file_rejected(self, tmp_path):
        _, path, _ = self._trained(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 64])
        with pytest.raises(SerializationError, match="truncated"):
            load_model(path)

    def test_version_mismatch_names_both_versions(self, tmp_path):
        _, path, _ = self._trained(tmp_path)
        raw = path.read_bytes()
        patched = raw.replace(b'"format_version": 1', b'"format_version": 9', 1)
        path.write_bytes(patched)
        with pytest.raises(SerializationError, match=r"9.*expected 1"):
            load_model(path)

    def test_declared_shape_must_match_architecture(self, tmp_path):
        # same element count, other shape: reading it would scramble the layer
        model, path, _ = self._trained(tmp_path)
        rows, cols = model.layers[0].hidden[0][0].value.shape
        assert rows != cols
        declared = f'"name": "layer0.h0.w", "shape": [{rows}, {cols}]'.encode()
        raw = path.read_bytes()
        assert declared in raw
        path.write_bytes(raw.replace(declared, declared.replace(
            f"[{rows}, {cols}]".encode(), f"[{cols}, {rows}]".encode())))
        with pytest.raises(SerializationError, match="does not match the declared architecture"):
            load_model(path)

    def test_non_finite_norm_stats_rejected_with_channel(self, tmp_path):
        model, path, _ = self._trained(tmp_path)
        model.norm_stats = (model.norm_stats[0], np.array([model.norm_stats[1][0], np.nan]))
        save_model(model, path)
        with pytest.raises(SerializationError, match="non-finite norm_stats for channel 1"):
            load_model(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.tcf"
        path.write_bytes(b"not a model at all")
        with pytest.raises(SerializationError, match="not a model"):
            load_model(path)

    def test_report_csv_written(self, tmp_path):
        ds = prepared_sine(300)
        _, report = train_model(ds, EncoderConfig("none"), small_cfgs(),
                                TrainConfig(epochs=3, seed=0))
        out = tmp_path / "report.csv"
        report.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,best"
        assert len(lines) == 1 + len(report.train_losses)
