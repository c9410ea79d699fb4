import json
import math
import re
import struct
import tempfile
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import (
    backward_grads,
    build_model_with_encoder,
    context_node,
    identity_stats,
    log_prob,
    param_grads,
    randomize_model,
    reference_split,
    reference_window_rows,
)

from tcflow import diffcore as dc
from tcflow import data as dt
from tcflow.conditioners import KINDS, Encoder, EncoderConfig
from tcflow.flow import FlowConfig, gaussian_log_density, nll_loss
from tcflow.train import (
    MODEL_MAGIC,
    AdamState,
    SerializationError,
    TrainConfig,
    TrainingDiverged,
    _mean_loss,
    adam_step,
    build_model,
    load_model,
    save_model,
    train_model,
)


def small_cfgs(coupling_layers=2, multiplier=2, cond_layers=3):
    return FlowConfig(coupling_layers, multiplier, cond_layers, 0.1, 1.5)


def sine(n_steps=400, n_channels=2, noise=0.1, seed=0):
    return dt.generate_synthetic("sine", n_steps, n_channels, noise=noise, seed=seed)


class TestAdam:
    def _param(self, value, name="p"):
        return dc.Parameter(np.asarray(value, dtype=float), name)

    def test_zero_gradient_is_a_fixed_point(self):
        p = self._param([1.0, -2.0])
        state = AdamState([p])
        adam_step(state, lr=1e-3, clip_norm=0.0)
        np.testing.assert_array_equal(p.value, [1.0, -2.0])

    def test_first_step_matches_hand_computation(self):
        # bias correction makes the first update -lr * g/(|g| + eps)
        p = self._param([0.0])
        state = AdamState([p])
        p.grad[...] = 1.0
        adam_step(state, lr=1e-3, clip_norm=0.0)
        assert p.value[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_parameter_groups_updated_independently(self):
        a = self._param([0.0], "a")
        b = self._param([0.0], "b")
        state = AdamState([a, b])
        a.grad[...] = 1.0
        adam_step(state, lr=1e-3, clip_norm=0.0)
        assert a.value[0] != 0.0
        assert b.value[0] == 0.0

    def test_nan_gradient_names_parameter(self):
        p = self._param([0.0], "w3")
        state = AdamState([p])
        p.grad[...] = np.nan
        with pytest.raises(FloatingPointError, match="w3"):
            adam_step(state, lr=1e-3, clip_norm=0.0)

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
    # b1, b2 and b4 share a size, as do w3 and w4, and neither group is
    # adjacent in the list: the buffer holds each group in one block
    SHAPES = {"w1": (7, 5), "b1": (5,), "w2": (5, 5), "b2": (5,), "w3": (5, 3), "cap": (3,),
              "w4": (3, 5), "b4": (5,)}

    def _pair(self):
        rng = np.random.default_rng(0)
        values = {name: rng.normal(size=shape) for name, shape in self.SHAPES.items()}
        flat = [dc.Parameter(values[name].copy(), name) for name in self.SHAPES]
        loop = [dc.Parameter(values[name].copy(), name) for name in self.SHAPES]
        return flat, loop

    @staticmethod
    def _moment(state, moment, p):
        """``p``'s entries of ``moment`` (``state.m`` or ``state.v``), found at
        the offset of ``p.value`` in ``state.values``."""
        start = (p.value.ctypes.data - state.values.ctypes.data) // state.values.itemsize
        return moment[start : start + p.value.size].reshape(p.value.shape)

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
        for p in flat:
            np.testing.assert_array_equal(self._moment(state, state.m, p), m[p.name], p.name)
            np.testing.assert_array_equal(self._moment(state, state.v, p), v[p.name], p.name)

    def test_gradients_from_backward_are_views_of_the_buffer(self):
        flat, loop = self._pair()
        state = AdamState(flat)
        x = dc.constant(np.random.default_rng(2).normal(size=(4, 7)))

        def loss(params):
            w1, b1, w2, b2, w3, cap, w4, b4 = params
            h = dc.tanh(dc.add(dc.matmul(x, w1), b1))
            h = dc.tanh(dc.add(dc.matmul(h, w2), b2))
            h = dc.tanh(dc.mul(dc.matmul(h, w3), cap))
            return dc.sum_(dc.add(dc.matmul(h, w4), b4))

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
            adam_step(state, lr=1e-3, clip_norm=0.0)

    @pytest.mark.parametrize("kind", ["none", "mlp", "lstm-stateful"])
    def test_parameters_are_views_of_one_buffer_after_training_and_loading(self, kind, tmp_path):
        ds = sine(200, seed=1)
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
        ds = sine(200, seed=2)
        train_model(ds, EncoderConfig(kind, lookback=4, lstm_layers=layers), small_cfgs(),
                    TrainConfig(epochs=2, batch_size=64, seed=0))
        assert len(states) == 1 and states[0].step == calls >= 4

    def test_restore_writes_the_best_epoch_into_the_buffer(self, monkeypatch):
        # record the buffer's values at each epoch's validation; the model
        # returned must hold the best epoch's, in the same buffer
        import tcflow.train as train_module

        seen = []
        original = train_module._mean_loss

        def mean_loss(model, values, batches, rng, adam=None, cfg=None):
            if adam is None:
                seen.append(np.concatenate([p.value.ravel() for p in model.parameters()]))
            return original(model, values, batches, rng, adam, cfg)

        monkeypatch.setattr(train_module, "_mean_loss", mean_loss)
        ds = sine(300, seed=4)
        model, report = train_model(ds, EncoderConfig("passthrough", lookback=4), small_cfgs(),
                                    TrainConfig(epochs=6, learning_rate=0.3, seed=1))
        assert report.best_epoch < len(report.val_losses)
        self._assert_one_buffer(model.parameters())
        np.testing.assert_array_equal(
            np.concatenate([p.value.ravel() for p in model.parameters()]),
            seen[report.best_epoch - 1])


class TestTrainModel:
    def test_identity_initialized_first_loss_is_base_nll(self):
        values = dt.prepare(sine())[0]
        model = build_model_with_encoder(2, 2, EncoderConfig("passthrough", lookback=4))
        batch = values[10:30]
        ctx = np.stack([values[i - 4 : i] for i in range(10, 30)])
        loss = nll_loss(model, batch, model.encoder.encode_batch(ctx, None), None)
        expected = -gaussian_log_density(batch).mean()
        assert float(loss.value) == pytest.approx(expected)

    def test_batch_loss_is_mean_of_pointwise_nll(self):
        values = dt.prepare(sine())[0]
        model = build_model_with_encoder(2, 2, EncoderConfig("none"), seed=3)
        batch = values[:16]
        per_point = -log_prob(model, batch)
        loss = nll_loss(model, batch, context_node(None, len(batch)), None)
        assert float(loss.value) == pytest.approx(per_point.mean())

    def test_white_noise_converges_to_gaussian_entropy(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((1000, 2))
        model, report = train_model(
            dt.TimeSeriesDataset(values), EncoderConfig("none"), small_cfgs(),
            # the flow starts as the identity and must learn the 2 / span scale
            TrainConfig(epochs=20, batch_size=128, learning_rate=1e-2, seed=1),
        )
        # Monte-Carlo oracle: mean NLL of the true density on a fresh sample
        fresh = rng.standard_normal((10000, 2))
        oracle = float(-gaussian_log_density(fresh).mean())
        assert math.isclose(oracle, math.log(2 * math.pi) + 1.0, rel_tol=0.02)
        # the model sees each channel mapped by 2 / span into [-1, 1]
        lo, hi = model.norm_stats
        shift = float(np.log(2.0 / (hi - lo)).sum())
        assert abs(report.best_val_loss - (oracle + shift)) < 0.15

    def test_fixed_seed_reproduces_report(self):
        ds = sine(300)
        cfg = TrainConfig(epochs=3, batch_size=64, seed=7)
        _, r1 = train_model(ds, EncoderConfig("passthrough", lookback=4), small_cfgs(), cfg)
        _, r2 = train_model(ds, EncoderConfig("passthrough", lookback=4), small_cfgs(), cfg)
        assert r1.train_losses == r2.train_losses
        assert r1.val_losses == r2.val_losses
        assert r1.best_epoch == r2.best_epoch

    def test_best_epoch_at_most_first_epoch_loss(self):
        ds = sine(500, seed=3)
        _, report = train_model(
            ds, EncoderConfig("passthrough", lookback=6), small_cfgs(),
            TrainConfig(epochs=8, batch_size=128, seed=2),
        )
        assert report.best_val_loss <= report.val_losses[0]
        assert report.best_epoch == int(np.argmin(report.val_losses)) + 1

    def test_stops_patience_epochs_after_the_best_and_a_tie_is_no_better(self, monkeypatch):
        # scripted validation losses: the best is epoch 4 (1.5; epoch 6 ties
        # it), so patience 3 stops after epoch 7 and epoch 8 never runs
        import tcflow.train as train_module

        scripted = iter([3.0, 2.0, 2.5, 1.5, 1.6, 1.5, 1.7, 0.1])
        original = train_module._mean_loss

        def mean_loss(model, values, batches, rng, adam=None, cfg=None):
            loss = original(model, values, batches, rng, adam, cfg)
            return loss if adam is not None else next(scripted)

        monkeypatch.setattr(train_module, "_mean_loss", mean_loss)
        _, report = train_model(sine(200, seed=4), EncoderConfig("none"), small_cfgs(),
                                TrainConfig(epochs=8, patience=3, seed=1))
        assert report.val_losses == [3.0, 2.0, 2.5, 1.5, 1.6, 1.5, 1.7]
        assert report.best_epoch == 4 and report.best_val_loss == 1.5


    def test_validation_loss_keeps_no_graph(self, monkeypatch):
        # each training batch's loss records its graph for the backward; the
        # validation pass (no rng) runs under dc.no_grad and records none
        import tcflow.train as train_module

        seen = set()

        def recording(model, points, contexts, rng):
            loss = nll_loss(model, points, contexts, rng)
            seen.add((rng is not None, loss.needs_grad, bool(loss.parents)))
            return loss

        monkeypatch.setattr(train_module, "nll_loss", recording)
        train_model(sine(300, seed=4), EncoderConfig("cnn", lookback=4), small_cfgs(),
                    TrainConfig(epochs=2, seed=1))
        assert seen == {(True, True, True), (False, False, False)}

    def test_unsplittable_lookback_is_rejected_before_the_model_is_built(self):
        # an mlp encoder over 100 series lengths of lookback would ask numpy
        # for about a terabyte of weights; the split's arithmetic rejects the
        # series first, so nothing of that size is allocated
        import tracemalloc

        ds = sine(2000, seed=0)
        tracemalloc.start()
        try:
            with pytest.raises(dt.DataError, match="series too short for five sections"):
                train_model(ds, EncoderConfig("mlp", lookback=100 * ds.n_steps), small_cfgs(),
                            TrainConfig(epochs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, peak

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_series_is_a_data_error(self, kind):
        # a DataError is what a search counts as a failed candidate
        with pytest.raises(dt.DataError, match=r"^series too short to split: 0 steps$"):
            train_model(dt.TimeSeriesDataset(np.zeros((0, 2))), EncoderConfig(kind),
                        small_cfgs(), TrainConfig(epochs=1))

    def test_training_reduces_loss_on_sine(self):
        ds = sine(600, noise=0.2, seed=5)
        _, report = train_model(
            ds, EncoderConfig("passthrough", lookback=6), small_cfgs(coupling_layers=3),
            TrainConfig(epochs=10, batch_size=128, seed=0),
        )
        assert report.best_val_loss < report.val_losses[0]

    def test_heldout_clean_continuation_within_twice_train_nll(self):
        ds = sine(700, noise=0.4, seed=11)
        model, report = train_model(
            ds, EncoderConfig("passthrough", lookback=6), small_cfgs(coupling_layers=2),
            TrainConfig(epochs=8, batch_size=128, seed=4),
        )
        train_nll = report.train_losses[-1]
        assert train_nll > 0  # noise level keeps the optimum above zero
        continuation = dt.generate_synthetic("sine", 300, 2, noise=0.4, seed=99)
        from tcflow.score import score_series
        series = score_series(model, continuation)
        assert np.median(series.scores) <= 2.0 * train_nll

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_surfaces_structured_error(self):
        ds = sine(300)
        with pytest.raises((TrainingDiverged, FloatingPointError)):
            train_model(
                ds, EncoderConfig("none"), small_cfgs(),
                TrainConfig(epochs=10, batch_size=64, learning_rate=1e12,
                            clip_norm=0.0, seed=0),
            )

    @pytest.mark.parametrize("name", ["epochs", "batch_size", "patience"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_count_below_one_names_field_and_value(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} out of range \[1, inf\]: {value}$"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_clip_norm_below_zero_or_nan_names_the_value(self, value):
        with pytest.raises(ValueError, match=rf"^clip_norm out of range \[0, inf\]: {value}$"):
            TrainConfig(clip_norm=value)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
    def test_learning_rate_not_positive_and_finite_names_the_value(self, value):
        # positive and finite: from the smallest positive float to the largest finite one
        with pytest.raises(ValueError, match=rf"^learning_rate out of range "
                                             rf"\[5e-324, 1\.7976931348623157e\+308\]: {value}$"):
            TrainConfig(learning_rate=value)

    def test_raw_odd_channel_series_trains_on_the_padded_dim(self):
        # the model fits its statistics on the raw series' 3 channels and
        # trains on them plus prepare's constant pad column
        ds = sine(200, n_channels=3, seed=0)
        model, _ = train_model(ds, EncoderConfig("none"), small_cfgs(), TrainConfig(epochs=1))
        assert model.dim == 4
        lo, hi = model.norm_stats
        np.testing.assert_array_equal(lo, ds.values.min(axis=0))
        np.testing.assert_array_equal(hi, ds.values.max(axis=0))

    def test_stateful_training_runs_and_tracks_validation(self):
        ds = sine(160, seed=2)
        cfg = EncoderConfig("lstm-stateful", lookback=8, lstm_layers=1)
        model, report = train_model(ds, cfg, small_cfgs(coupling_layers=2),
                                    TrainConfig(epochs=2, seed=0))
        assert len(report.val_losses) == 2
        assert np.isfinite(report.val_losses).all()
        assert model.encoder.kind == "lstm-stateful"


class TestBatchedRows:
    @pytest.mark.parametrize("mode", ["random-sections", "sequential-tail"])
    @pytest.mark.parametrize("lookback", [1, 4, 30])
    @pytest.mark.parametrize("kind", ["none", "passthrough"])
    def test_rows_match_window_and_set_construction(self, kind, lookback, mode):
        # a split's rows t >= lookback and their padded_context_windows are
        # the same rows, in the same order, as the windows filtered by
        # split-index membership
        ds = sine(400, seed=5)
        lookback = lookback if kind != "none" else 0  # as Encoder.split splits
        train_idx, val_idx = reference_split(ds.n_steps, lookback, mode, np.random.default_rng(1))
        # the raw windows as "contexts", every row in one batch, unshuffled
        raw = SimpleNamespace(lookback=lookback, encode_batch=lambda windows, rng: windows)
        if mode == "random-sections":  # the stateless kinds' own split
            train_rows, val_rows = Encoder.split(raw, ds.n_steps, np.random.default_rng(1))
        else:
            train_rows, val_rows = (idx[idx >= lookback] for idx in (train_idx, val_idx))
        in_order = SimpleNamespace(permutation=np.arange)
        ((train_rows, train_ctx),) = Encoder.batches(raw, ds.values, train_rows, ds.n_steps,
                                                     in_order)
        ((val_rows, val_ctx),) = Encoder.batches(raw, ds.values, val_rows, ds.n_steps, None)
        got = (ds.values[train_rows], train_ctx, ds.values[val_rows], val_ctx)
        want = reference_window_rows(ds.values, lookback, train_idx, val_idx)
        for rows, expected in zip(got, want):
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
            w, states = encoder.encode_step(stream[t : t + 1], states, None)
            if pick[t]:
                terms.append(dc.neg(model.log_prob_nodes(targets[t : t + 1], w, None)))
        return dc.mean(dc.concat(terms, axis=0))

    def test_chunk_loss_and_gradients_match_per_row_construction(self):
        model = self._model()
        rng = np.random.default_rng(5)
        stream, targets = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        pick = np.array([True, False, True, True, False])

        contexts, _ = model.encoder.encode_step(stream, model.encoder.zero_states(1), None)
        chunked = nll_loss(model, targets[pick], contexts[pick], None)
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
        batches = model.encoder.batches(values, np.flatnonzero(val), 4096, None)
        val_loss = _mean_loss(model, values, batches, None)
        expected = float(self._per_row_nll(model, stream, values, val).value)
        np.testing.assert_allclose(val_loss, expected, rtol=1e-12, atol=0)


class TestParameterOrder:
    """``model.tcf`` stores the parameters in ``FlowModel.parameters()`` order:
    per coupling layer its hidden (weight, bias) pairs, head and scale cap,
    then the encoder's (weight, bias) pairs. Pinned at one small config (2
    channels, 2 coupling layers with 3 hidden layers of multiplier 2,
    lookback 3, 4 CNN channels, LSTM hidden size 4)."""

    # (kind, lstm_layers) -> (context_dim, encoder parameters in order)
    ENCODERS = {
        ("none", 1): (0, []),
        ("passthrough", 1): (6, []),
        ("fixed-encode", 1): (8, []),
        ("mlp", 1): (3, [("encoder.h0.w", (6, 5)), ("encoder.h0.b", (5,)),
                         ("encoder.h1.w", (5, 4)), ("encoder.h1.b", (4,)),
                         ("encoder.h2.w", (4, 4)), ("encoder.h2.b", (4,)),
                         ("encoder.head.w", (4, 3)), ("encoder.head.b", (3,))]),
        ("cnn", 1): (4, [("encoder.conv0.w", (3, 2, 3)), ("encoder.conv0.b", (3,)),
                         ("encoder.conv1.w", (3, 3, 4)), ("encoder.conv1.b", (4,))]),
        ("lstm-stateless", 1): (4, [("encoder.lstm0.w", (6, 16)), ("encoder.lstm0.b", (16,))]),
        ("lstm-stateful", 1): (4, [("encoder.lstm0.w", (6, 16)), ("encoder.lstm0.b", (16,))]),
        ("lstm-stateless", 2): (4, [("encoder.lstm0.w", (6, 16)), ("encoder.lstm0.b", (16,)),
                                    ("encoder.lstm1.w", (8, 16)), ("encoder.lstm1.b", (16,))]),
        ("lstm-stateful", 2): (4, [("encoder.lstm0.w", (6, 16)), ("encoder.lstm0.b", (16,)),
                                   ("encoder.lstm1.w", (8, 16)), ("encoder.lstm1.b", (16,))]),
    }

    @pytest.mark.parametrize("kind,lstm_layers", [(kind, 1) for kind in KINDS] + [
        ("lstm-stateless", 2), ("lstm-stateful", 2)])
    def test_names_and_shapes_in_order(self, kind, lstm_layers):
        context_dim, encoder = self.ENCODERS[kind, lstm_layers]
        coupling = []
        for i in range(2):
            coupling += [
                (f"layer{i}.h0.w", (1 + context_dim, 4)), (f"layer{i}.h0.b", (4,)),
                (f"layer{i}.h1.w", (4, 2)), (f"layer{i}.h1.b", (2,)),
                (f"layer{i}.h2.w", (2, 2)), (f"layer{i}.h2.b", (2,)),
                (f"layer{i}.head.w", (2, 2)), (f"layer{i}.head.b", (2,)),
                (f"layer{i}.scale_cap", (1,)),
            ]
        cfg = EncoderConfig(kind, lookback=3, cnn_max_channels=4, lstm_layers=lstm_layers)
        model = build_model(2, cfg, small_cfgs(), identity_stats(2), np.random.default_rng(0))
        assert model.encoder.context_dim == context_dim
        assert [(p.name, p.value.shape) for p in model.parameters()] == coupling + encoder


def bad_nested_values():
    """(section, field, key, value): one ``encoder`` or ``conditioner`` field of
    a model header and either a JSON value not of its default's type or a
    number just outside its range. ``key`` is the field's config key, which
    for a ``conditioner`` field is the ``FlowConfig`` field ``cond_`` plus
    its name."""
    named = [("encoder", EncoderConfig, f) for f in fields(EncoderConfig)]
    named += [("conditioner", FlowConfig, f) for f in fields(FlowConfig)
              if f.name.startswith("cond_")]
    cases = []
    for section, cls, f in named:
        kind = type(f.default)
        values = [st.booleans(), st.none(), st.lists(st.integers(), max_size=2)]
        values += [st.text(max_size=4)] if kind is not str else [st.integers()]
        values += [st.floats(-1e6, 1e6)] if kind is not float else []
        if f.name in cls.RANGES:
            lower, upper = cls.RANGES[f.name]
            ends = [(lower, -1)] + ([(upper, 1)] if math.isfinite(upper) else [])
            values.append(st.sampled_from([
                end + step if kind is int else math.nextafter(end, step * math.inf)
                for end, step in ends]))
        cases.append(st.tuples(st.just(section), st.just(f.name.removeprefix("cond_")),
                               st.just(f.name), st.one_of(values)))
    return st.one_of(cases)


@pytest.fixture(scope="module")
def mlp_model_bytes():
    """The bytes of a saved two-channel ``tcnf-mlp`` model (an untrained one)."""
    model = build_model(2, EncoderConfig("mlp", lookback=4), small_cfgs(),
                        (np.zeros(2), np.ones(2)), np.random.default_rng(0),
                        model_id="tcnf-mlp-seed0")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.tcf"
        save_model(model, path)
        return path.read_bytes()


class TestSerialization:
    def _trained(self, tmp_path, encoder_kind="passthrough"):
        ds = sine(300)
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

    @staticmethod
    def _with_header(raw, edit):
        """``raw`` model bytes with the JSON header passed through ``edit``."""
        start = len(MODEL_MAGIC) + 8
        (length,) = struct.unpack_from("<Q", raw, len(MODEL_MAGIC))
        header = json.loads(raw[start : start + length])
        edit(header)
        blob = json.dumps(header).encode()
        return MODEL_MAGIC + struct.pack("<Q", len(blob)) + blob + raw[start + length :]

    @pytest.mark.parametrize("key", ["format_version", "model_id", "dim", "n_layers",
                                     "conditioner", "encoder", "norm_stats", "params"])
    def test_missing_header_key_names_file_and_key(self, tmp_path, key):
        _, path, _ = self._trained(tmp_path)
        path.write_bytes(self._with_header(path.read_bytes(), lambda h: h.pop(key)))
        named = "format version" if key == "format_version" else repr(key)
        with pytest.raises(SerializationError, match=re.escape(str(path))) as excinfo:
            load_model(path)
        assert named in str(excinfo.value)

    def test_mistyped_header_or_nan_parameter_names_the_file(self, tmp_path):
        model, path, _ = self._trained(tmp_path)
        original = path.read_bytes()
        for key, value in (("dim", model.dim), ("n_layers", model.config.coupling_layers)):
            path.write_bytes(self._with_header(original, lambda h: h.update({key: str(value)})))
            with pytest.raises(SerializationError, match=re.escape(
                    f"{path}: bad header: {key} '{value}' is not an integer")):
                load_model(path)
        path.write_bytes(self._with_header(original, lambda h: h.update(model_id=["flow"])))
        with pytest.raises(SerializationError, match=re.escape(
                f"{path}: bad header: model_id ['flow'] is not a string")):
            load_model(path)
        (tmp_path / "mlp").mkdir()
        _, mlp_path, _ = self._trained(tmp_path / "mlp", "mlp")
        mlp_original = mlp_path.read_bytes()
        for section, key, value, expected in (
                ("encoder", "lookback", "3", "lookback '3' is not an integer"),
                ("conditioner", "layers", "3", "cond_layers '3' is not an integer"),
                ("encoder", "mlp_layers", 3.0, "mlp_layers 3.0 is not an integer"),
                ("encoder", "lookback", True, "lookback True is not an integer"),
                ("conditioner", "dropout", "0.2", "cond_dropout '0.2' is not a number"),
                ("encoder", "kind", 1, "kind 1 is not a string")):
            mlp_path.write_bytes(self._with_header(
                mlp_original, lambda h: h[section].update({key: value})))
            with pytest.raises(SerializationError, match=re.escape(
                    f"{mlp_path}: bad header: {expected}")):
                load_model(mlp_path)
        mlp_path.write_bytes(self._with_header(
            mlp_original, lambda h: h.update(norm_stats=[["0.0", "0.0"], ["1", "1"]])))
        with pytest.raises(SerializationError, match=re.escape(
                f"{mlp_path}: bad header: norm_stats entry '0.0' is not a number")):
            load_model(mlp_path)
        model.layers[1].head_b.value[0] = np.nan
        save_model(model, path)
        with pytest.raises(SerializationError, match=re.escape(
                f"{path}: non-finite value in parameter 'layer1.head.b'")):
            load_model(path)

    # in-range values of the unbounded fields (lookback, lstm_hidden) are not
    # drawn: a huge one would build a huge model before the parameter check
    @settings(max_examples=100, deadline=None)
    @example(("encoder", "cnn_kernel", "cnn_kernel", 2))  # a field the mlp kind does not read
    @example(("conditioner", "layers", "cond_layers", 3.0))  # a float for an integer
    @given(case=bad_nested_values())
    def test_bad_nested_header_value_names_the_file_and_key(self, mlp_model_bytes, case):
        section, name, key, value = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.tcf"
            path.write_bytes(self._with_header(mlp_model_bytes,
                                               lambda h: h[section].update({name: value})))
            with pytest.raises(SerializationError) as excinfo:
                load_model(path)
        assert str(excinfo.value).startswith(f"{path}: bad header: {key} ")

    @pytest.mark.parametrize("section, value", [
        ("encoder", 5), ("conditioner", []), ("conditioner", [["layers", 3]]),
        ("conditioner", "x"), ("conditioner", None)])
    def test_non_object_config_header_names_the_file(self, tmp_path, section, value):
        _, path, _ = self._trained(tmp_path)
        path.write_bytes(self._with_header(path.read_bytes(), lambda h: h.update({section: value})))
        with pytest.raises(SerializationError, match=re.escape(f"{path}: bad header: ")):
            load_model(path)

    @pytest.mark.parametrize("section", ["encoder", "conditioner"])
    def test_unknown_config_header_key_names_the_file(self, tmp_path, mlp_model_bytes, section):
        path = tmp_path / "model.tcf"
        path.write_bytes(self._with_header(mlp_model_bytes, lambda h: h[section].update(bogus=1)))
        with pytest.raises(SerializationError, match=re.escape(f"{path}: bad header: ")):
            load_model(path)

    def test_header_keeps_the_format_version_1_names(self, tmp_path):
        # the flow's coupling_layers and cond_* fields are stored as n_layers
        # and the unprefixed conditioner object
        flow_cfg = FlowConfig(1, 2, 4, 0.25, 2.5)
        model = build_model(2, EncoderConfig("none"), flow_cfg,
                            (np.array([-1.0, 0.0]), np.array([1.0, 2.0])),
                            np.random.default_rng(0), model_id="m")
        path = tmp_path / "model.tcf"
        save_model(model, path)
        raw = path.read_bytes()
        (length,) = struct.unpack_from("<Q", raw, len(MODEL_MAGIC))
        start = len(MODEL_MAGIC) + 8
        assert raw[start : start + length].decode() == (
            '{"conditioner": {"dropout": 0.25, "funnel": 2.5, "layers": 4, "multiplier": 2}, '
            '"dim": 2, "encoder": {"cnn_kernel": 3, "cnn_layers": 2, "cnn_max_channels": 8, '
            '"dropout": 0.1, "kind": "none", "lookback": 10, "lstm_hidden": 0, '
            '"lstm_layers": 1, "mlp_compression": 2, "mlp_layers": 3}, "format_version": 1, '
            '"model_id": "m", "n_layers": 1, "norm_stats": [[-1.0, 0.0], [1.0, 2.0]], '
            '"params": [{"name": "layer0.h0.w", "shape": [1, 4]}, '
            '{"name": "layer0.h0.b", "shape": [4]}, {"name": "layer0.h1.w", "shape": [4, 2]}, '
            '{"name": "layer0.h1.b", "shape": [2]}, {"name": "layer0.h2.w", "shape": [2, 2]}, '
            '{"name": "layer0.h2.b", "shape": [2]}, {"name": "layer0.h3.w", "shape": [2, 2]}, '
            '{"name": "layer0.h3.b", "shape": [2]}, {"name": "layer0.head.w", "shape": [2, 2]}, '
            '{"name": "layer0.head.b", "shape": [2]}, {"name": "layer0.scale_cap", "shape": [1]}]}')
        assert load_model(path).config == flow_cfg

    @pytest.mark.parametrize("header", [b"[1]", b"3", b"null", b'"x"'])
    def test_non_object_header_is_corrupt_and_names_the_file(self, tmp_path, header):
        path = tmp_path / "model.tcf"
        path.write_bytes(MODEL_MAGIC + struct.pack("<Q", len(header)) + header)
        with pytest.raises(SerializationError, match=re.escape(
                f"{path}: corrupt header: not a JSON object")):
            load_model(path)

    def test_dim_that_does_not_fit_the_norm_stats_rejected(self, tmp_path):
        _, path, _ = self._trained(tmp_path)
        path.write_bytes(self._with_header(path.read_bytes(), lambda h: h.update(dim=4)))
        with pytest.raises(SerializationError, match=re.escape(
                f"{path}: bad header: dim 4 does not fit 2 norm_stats channels")):
            load_model(path)

    def test_min_above_max_norm_stats_rejected_with_channel(self, tmp_path):
        # a constant channel (min == max) loads; one whose min exceeds its
        # max would map every value of a fresh series to 0
        _, path, _ = self._trained(tmp_path)
        raw = path.read_bytes()

        def pin_channel_0(header, lo, hi):
            header["norm_stats"][0][0], header["norm_stats"][1][0] = lo, hi

        path.write_bytes(self._with_header(raw, lambda h: pin_channel_0(h, 0.5, 0.5)))
        np.testing.assert_array_equal(load_model(path).norm_stats[0][0], 0.5)
        path.write_bytes(self._with_header(raw, lambda h: pin_channel_0(
            h, h["norm_stats"][1][0], h["norm_stats"][0][0])))
        with pytest.raises(SerializationError, match=re.escape(
                f"{path}: bad header: norm_stats min above max for channel 0")):
            load_model(path)

    def test_model_cannot_be_built_without_norm_stats(self):
        # so none can be saved without them either
        with pytest.raises(TypeError, match="norm_stats"):
            build_model(2, EncoderConfig("none"), small_cfgs(), rng=np.random.default_rng(0))

    def test_null_norm_stats_header_names_the_file(self, tmp_path):
        _, path, _ = self._trained(tmp_path)
        path.write_bytes(self._with_header(path.read_bytes(),
                                           lambda h: h.update(norm_stats=None)))
        with pytest.raises(SerializationError, match=re.escape(f"{path}: bad header: norm_stats")):
            load_model(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.tcf"
        path.write_bytes(b"not a model at all")
        with pytest.raises(SerializationError, match="not a model"):
            load_model(path)

    def test_report_csv_written(self, tmp_path):
        ds = sine(300)
        _, report = train_model(ds, EncoderConfig("none"), small_cfgs(),
                                TrainConfig(epochs=3, seed=0))
        out = tmp_path / "report.csv"
        report.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,best"
        assert len(lines) == 1 + len(report.train_losses)
