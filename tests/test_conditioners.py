import functools
import math
import re
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import (
    backward_grads,
    build_model_with_encoder,
    composed_lstm_stack,
    finite_diff_check,
    reference_split,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from tcflow import diffcore as dc
from tcflow import data as dt
from tcflow.conditioners import (
    ENCODERS,
    KINDS,
    Encoder,
    EncoderConfig,
    build_encoder,
    padded_context_windows,
)
from tcflow.flow import FlowConfig, nll_loss
from tcflow.train import TrainConfig


def series(n_steps=12, dim=2, seed=0):
    return np.random.default_rng(seed).normal(size=(n_steps, dim))


class TestMakeWindows:
    """``padded_context_windows`` is the one (target, context) construction;
    its rows t >= lookback are the fully observed windows training uses."""

    def test_unrolls_definition(self):
        values = np.arange(10.0).reshape(5, 2)
        contexts = padded_context_windows(values, 2)
        for t in (2, 3, 4):
            np.testing.assert_array_equal(contexts[t], values[t - 2 : t])

    def test_lookback_of_length_minus_one_gives_single_window(self):
        values = series(6, 3)
        unpadded = padded_context_windows(values, 5)[5:]
        assert len(unpadded) == 1
        np.testing.assert_array_equal(unpadded[0], values[:5])

    @pytest.mark.parametrize("n,k", [(10, 1), (10, 4), (50, 9)])
    def test_window_count(self, n, k):
        contexts = padded_context_windows(series(n), k)
        assert contexts.shape == (n, k, 2)
        assert len(contexts[k:]) == n - k

    def test_rejects_split_without_fully_observed_training_rows(self):
        # 100 rows, lookback 10: five validation sections of 4 rows, each 12
        # rows into its block of 20, leave training rows 0 and 1 only, and
        # neither has a full history, so training has no rows
        model = build_model_with_encoder(2, 2, EncoderConfig("passthrough", lookback=10))
        offsets = SimpleNamespace(integers=lambda lo, hi: 12)
        assert reference_split(100, 10, "random-sections", offsets)[0].tolist() == [0, 1]
        with pytest.raises(ValueError, match="empty"):
            model.encoder.split(100, offsets)

    def test_target_never_inside_its_own_context(self):
        values = series(30, 2, seed=3)
        contexts = padded_context_windows(values, 5)
        for t in range(5, 30):
            np.testing.assert_array_equal(contexts[t], values[t - 5 : t])
            assert not any(np.array_equal(row, values[t]) for row in contexts[t])

    def test_padded_windows_repeat_first_row(self):
        values = np.arange(8.0).reshape(4, 2)
        contexts = padded_context_windows(values, 3)
        assert contexts.shape == (4, 3, 2)
        np.testing.assert_array_equal(contexts[0], np.tile(values[0], (3, 1)))
        np.testing.assert_array_equal(contexts[1], np.vstack([values[0], values[0], values[0]]))
        np.testing.assert_array_equal(contexts[3], values[0:3])
        assert not contexts.flags.writeable  # a view: its windows share rows


class TestRowPairing:
    """``Encoder.split`` and ``Encoder.batches`` own the pairing of rows with
    contexts, for every kind: the stateless kinds in ``size`` blocks of the
    requested order (one permutation of it with an rng), the stateful LSTM
    in series order, one chunk of ``lookback`` rows at a time."""

    LOOKBACK = 4

    def _encoder(self, kind):
        cfg = EncoderConfig(kind, lookback=self.LOOKBACK, cnn_max_channels=3, lstm_hidden=3)
        return build_encoder(cfg, 2, np.random.default_rng(1))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("with_rng", [False, True])
    def test_batches_yield_each_requested_row_once(self, kind, with_rng):
        enc = self._encoder(kind)
        values = series(60, 2, seed=2)
        requested = np.random.default_rng(3).permutation(60)[:37]
        rng = np.random.default_rng(5) if with_rng else None
        blocks = list(enc.batches(values, requested, 8, rng))
        got = np.concatenate([rows for rows, _ in blocks])
        assert sorted(got.tolist()) == sorted(requested.tolist())
        for rows, ctx in blocks:  # kind none's is the empty (rows, 0) context
            assert ctx.value.shape == (len(rows), enc.context_dim)
        if kind == "lstm-stateful":
            np.testing.assert_array_equal(got, np.sort(requested))
            chunks = [np.unique(rows // self.LOOKBACK) for rows, _ in blocks]
            assert all(chunk.size == 1 for chunk in chunks)
            assert len(np.unique(np.concatenate(chunks))) == len(chunks)
        else:
            order = np.random.default_rng(5).permutation(37) if with_rng else np.arange(37)
            np.testing.assert_array_equal(got, requested[order])
            assert [len(rows) for rows, _ in blocks] == [8, 8, 8, 8, 5]

    @pytest.mark.parametrize("kind", KINDS)
    def test_split_honours_gap_and_lookback_cut(self, kind):
        enc = self._encoder(kind)
        train, val = enc.split(200, np.random.default_rng(7))
        stateful = kind == "lstm-stateful"
        assert enc.lookback == (0 if kind == "none" else self.LOOKBACK)
        mode = "sequential-tail" if stateful else "random-sections"
        ref_train, ref_val = reference_split(200, enc.lookback, mode, np.random.default_rng(7))
        cut = 0 if stateful else enc.lookback
        np.testing.assert_array_equal(train, ref_train[ref_train >= cut])
        np.testing.assert_array_equal(val, ref_val[ref_val >= cut])
        assert np.abs(train[:, None] - val[None, :]).min() > enc.lookback
        if cut:
            assert min(train.min(), val.min()) >= self.LOOKBACK
        else:  # no cut: row 0 has a context too
            assert 0 in np.concatenate([train, val])


class TestSplit:
    """``Encoder.split``: five random validation sections for the stateless
    kinds, the last fifth for the stateful LSTM, and no training row within
    ``lookback`` of a validation row. It equals ``reference_split`` cut to
    the rows t >= ``lookback`` (no cut for the stateful LSTM)."""

    EDGES = [(20, 1, 0), (22, 3, 1), (100, 10, 2), (100, 19, 3), (400, 80, 4)]

    @staticmethod
    def _encoder(kind, lookback):
        cfg = EncoderConfig(kind, lookback=lookback)
        return build_encoder(cfg, 2, np.random.default_rng(0))

    @staticmethod
    def _reference(enc, n_steps, seed):
        """``reference_split`` plus the cut, or None where it rejects."""
        stateful = enc.kind == "lstm-stateful"
        mode = "sequential-tail" if stateful else "random-sections"
        try:
            rows = reference_split(n_steps, enc.lookback, mode, np.random.default_rng(seed))
        except dt.DataError:
            return None
        cut = 0 if stateful else enc.lookback
        rows = [idx[idx >= cut] for idx in rows]
        return None if min(idx.size for idx in rows) == 0 else rows

    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_reference_split_and_cut(self, kind):
        draws = np.random.default_rng(KINDS.index(kind))
        configs = self.EDGES + [
            tuple(int(draws.integers(lo, hi)) for lo, hi in ((20, 3001), (1, 121), (0, 1 << 30)))
            for _ in range(300)
        ]
        outcomes = set()
        for n_steps, lookback, seed in configs:
            enc = self._encoder(kind, lookback)
            want = self._reference(enc, n_steps, seed)
            outcomes.add(want is None)
            if want is None:
                with pytest.raises(dt.DataError):
                    enc.split(n_steps, np.random.default_rng(seed))
                continue
            got = enc.split(n_steps, np.random.default_rng(seed))
            for rows, expected in zip(got, want):
                assert rows.dtype == expected.dtype
                np.testing.assert_array_equal(rows, expected)
        assert outcomes == {True, False}  # both accepted and rejected cases ran

    @pytest.mark.parametrize("kind", KINDS)
    def test_check_split_rejects_as_split_does_before_any_encoder_exists(self, kind):
        # train_model asks the class before it builds anything: a series
        # check_split rejects, split rejects with the same message (split may
        # also reject one whose cut leaves no training row)
        draws = np.random.default_rng(len(KINDS) + KINDS.index(kind))
        configs = self.EDGES + [
            tuple(int(draws.integers(lo, hi)) for lo, hi in ((20, 3001), (1, 121), (0, 1 << 30)))
            for _ in range(300)
        ]
        rejected = 0
        for n_steps, lookback, seed in configs:
            cfg = EncoderConfig(kind, lookback=lookback)
            split_error = None
            try:
                build_encoder(cfg, 2, np.random.default_rng(0)).split(
                    n_steps, np.random.default_rng(seed))
            except dt.DataError as exc:
                split_error = str(exc)
            try:
                ENCODERS[kind].check_split(n_steps, cfg)
            except dt.DataError as exc:
                assert str(exc) == split_error
                rejected += 1
        assert 0 < rejected < len(configs)

    def test_sequential_tail_arithmetic(self):
        train, val = self._encoder("lstm-stateful", 10).split(1000, np.random.default_rng(0))
        assert val.min() == 800 and val.max() == 999 and val.size == 200
        assert train.max() <= 789

    @pytest.mark.parametrize("kind", KINDS)
    def test_disjoint(self, kind):
        train, val = self._encoder(kind, 7).split(500, np.random.default_rng(3))
        assert not set(train.tolist()) & set(val.tolist())

    def test_random_sections_reproducible_per_seed(self):
        enc = self._encoder("passthrough", 5)
        a = enc.split(400, np.random.default_rng(9))
        b = enc.split(400, np.random.default_rng(9))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_random_sections_cover_a_fifth(self):
        _, val = self._encoder("passthrough", 5).split(1000, np.random.default_rng(1))
        assert val.size == 200

    @pytest.mark.parametrize("kind", KINDS)
    def test_too_short_series_rejected(self, kind):
        with pytest.raises(dt.DataError):
            self._encoder(kind, 2).split(20, np.random.default_rng(0))

    @settings(max_examples=60, deadline=None)
    @given(
        n_steps=st.integers(100, 2000),
        lookback=st.integers(1, 15),
        kind=st.sampled_from(KINDS),
        seed=st.integers(0, 1 << 16),
    )
    def test_gap_property(self, n_steps, lookback, kind, seed):
        enc = self._encoder(kind, lookback)
        try:
            train, val = enc.split(n_steps, np.random.default_rng(seed))
        except dt.DataError:
            return  # legitimately too short for the kind's layout
        distance = np.abs(train[:, None] - val[None, :]).min()
        assert distance > enc.lookback


class TestPassthrough:
    def test_flatten_definition(self):
        enc = build_encoder(EncoderConfig("passthrough", lookback=2), 2, np.random.default_rng(0))
        ctx = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        np.testing.assert_array_equal(enc.encode_batch(ctx, None).value, [[1.0, 2.0, 3.0, 4.0]])

    def test_context_dim(self):
        enc = build_encoder(EncoderConfig("passthrough", lookback=7), 3, np.random.default_rng(0))
        assert enc.context_dim == 21

    def test_shape_mismatch(self):
        enc = build_encoder(EncoderConfig("passthrough", lookback=2), 2, np.random.default_rng(0))
        with pytest.raises(dc.ShapeError):
            enc.encode_batch(np.zeros((1, 3, 2)), None)


class TestFixedSummary:
    def test_constant_channel_summary(self):
        enc = build_encoder(EncoderConfig("fixed-encode", lookback=4), 1, np.random.default_rng(0))
        ctx = np.full((1, 4, 1), 2.5)
        out = enc.encode_batch(ctx, None).value[0]
        np.testing.assert_allclose(out, [2.5, 0.0, 2.5, 0.0])

    def test_summary_fields(self):
        enc = build_encoder(EncoderConfig("fixed-encode", lookback=3), 1, np.random.default_rng(0))
        ctx = np.array([[[1.0], [2.0], [4.0]]])
        mean, std, last, diff_mean = enc.encode_batch(ctx, None).value[0]
        assert mean == pytest.approx(7.0 / 3.0)
        assert std == pytest.approx(np.std([1.0, 2.0, 4.0]))
        assert last == 4.0
        assert diff_mean == pytest.approx(1.5)

    def test_lookback_one_has_zero_diff(self):
        enc = build_encoder(EncoderConfig("fixed-encode", lookback=1), 2, np.random.default_rng(0))
        out = enc.encode_batch(np.ones((1, 1, 2)), None).value[0]
        np.testing.assert_allclose(out, [1, 1, 0, 0, 1, 1, 0, 0])


class TestMlpEncoder:
    def test_output_dimension_follows_compression(self):
        cfg = EncoderConfig("mlp", lookback=5, mlp_layers=3, mlp_compression=3)
        enc = build_encoder(cfg, 4, np.random.default_rng(0))
        assert enc.context_dim == (5 * 4) // 3
        out = enc.encode_batch(series(9, 4)[None, :5] * np.ones((3, 1, 1)), None)
        assert out.value.shape == (3, enc.context_dim)

    def test_output_floor_of_two(self):
        cfg = EncoderConfig("mlp", lookback=1, mlp_layers=3, mlp_compression=20)
        enc = build_encoder(cfg, 2, np.random.default_rng(0))
        assert enc.context_dim == 2

    @pytest.mark.parametrize("cfg", [
        EncoderConfig("mlp", lookback=3, mlp_layers=3, mlp_compression=2),
        EncoderConfig("cnn", lookback=3, cnn_layers=2, cnn_kernel=3, cnn_max_channels=5),
        EncoderConfig("lstm-stateless", lookback=3, lstm_layers=1),
    ])
    def test_permuting_batch_permutes_outputs(self, cfg):
        enc = build_encoder(cfg, 2, np.random.default_rng(1))
        ctx = np.random.default_rng(2).normal(size=(6, 3, 2))
        perm = np.array([4, 0, 5, 2, 1, 3])
        out = enc.encode_batch(ctx, None).value
        out_perm = enc.encode_batch(ctx[perm], None).value
        np.testing.assert_allclose(out_perm, out[perm])


class TestCnnEncoder:
    def test_context_dim_is_last_channel_width_independent_of_lookback(self):
        for k in (4, 9, 17):
            cfg = EncoderConfig("cnn", lookback=k, cnn_layers=2, cnn_kernel=3, cnn_max_channels=6)
            enc = build_encoder(cfg, 2, np.random.default_rng(0))
            assert enc.context_dim == 6
            out = enc.encode_batch(np.zeros((2, k, 2)), None)
            assert out.value.shape == (2, 6)

    def test_gradients_reach_conv_weights(self):
        cfg = EncoderConfig("cnn", lookback=5, cnn_layers=2, cnn_kernel=3, cnn_max_channels=4)
        enc = build_encoder(cfg, 2, np.random.default_rng(3))
        ctx = np.random.default_rng(4).normal(size=(3, 5, 2))

        def loss():
            out = enc.encode_batch(ctx, None)
            return dc.sum_(dc.mul(out, out))

        assert finite_diff_check(loss, enc.parameters(), epsilon=1e-5) < 1e-4


@pytest.mark.parametrize("kind", ["cnn", "mlp", "lstm-stateless"])
def test_constant_windows_get_no_gradient_and_change_no_parameter_gradient(kind, monkeypatch):
    # the windows (and the flow's input points) are constants, whose input
    # gradients the backward skips; made Parameters instead, they get one,
    # and every model parameter's gradient stays the same, bit for bit
    model = build_model_with_encoder(2, 2, EncoderConfig(kind, lookback=5, cnn_layers=2,
                                                         mlp_layers=3, lstm_layers=2), seed=3)
    data = np.random.default_rng(4)
    points, windows = data.normal(size=(9, 2)), data.normal(size=(9, 5, 2))
    constant = dc.constant

    def train_step(leaf):
        made = []

        def recorded(value):
            made.append(leaf(value))
            return made[-1]

        with monkeypatch.context() as patch:
            patch.setattr(dc, "constant", recorded)
            rng = np.random.default_rng(5)
            loss = nll_loss(model, points, model.encoder.encode_batch(windows, rng), rng)
        return made, backward_grads(loss, model.parameters())

    constants, const_grads = train_step(constant)
    params, param_grads = train_step(lambda value: dc.Parameter(value, "input"))
    assert len(constants) == len(params) > 0
    assert all(node.grad is None for node in constants)
    assert all(p.grad is not None and p.grad.shape == p.value.shape for p in params)
    assert const_grads.keys() == param_grads.keys()
    for name, grad in param_grads.items():
        np.testing.assert_array_equal(const_grads[name], grad, err_msg=name)


class TestLstmEncoder:
    def test_zero_context_zero_bias_gives_zero(self):
        cfg = EncoderConfig("lstm-stateless", lookback=4, lstm_layers=2)
        enc = build_encoder(cfg, 2, np.random.default_rng(0))
        out = enc.encode_batch(np.zeros((2, 4, 2)), None)
        np.testing.assert_array_equal(out.value, np.zeros((2, enc.context_dim)))

    def test_deterministic_in_eval_mode(self):
        cfg = EncoderConfig("lstm-stateless", lookback=3, lstm_layers=1)
        enc = build_encoder(cfg, 2, np.random.default_rng(5))
        ctx = np.random.default_rng(6).normal(size=(4, 3, 2))
        np.testing.assert_array_equal(enc.encode_batch(ctx, None).value,
                                      enc.encode_batch(ctx, None).value)

    def test_gradients_through_time(self):
        cfg = EncoderConfig("lstm-stateless", lookback=3, lstm_layers=2)
        enc = build_encoder(cfg, 2, np.random.default_rng(7))
        ctx = np.random.default_rng(8).normal(size=(2, 3, 2))

        def loss():
            out = enc.encode_batch(ctx, None)
            return dc.sum_(dc.mul(out, out))

        assert finite_diff_check(loss, enc.parameters(), epsilon=1e-5) < 1e-4


class TestStatefulEncoder:
    def _pair(self, seed=11, layers=2):
        stateless = build_encoder(
            EncoderConfig("lstm-stateless", lookback=4, lstm_layers=layers),
            2, np.random.default_rng(seed))
        stateful = build_encoder(
            EncoderConfig("lstm-stateful", lookback=4, lstm_layers=layers),
            2, np.random.default_rng(seed))
        return stateless, stateful

    def test_stepwise_feed_matches_stateless_prefix_run(self):
        stateless, stateful = self._pair()
        values = series(7, 2, seed=12)
        states = stateful.zero_states(1)
        for t in range(values.shape[0]):
            stepped, states = stateful.encode_step(values[t : t + 1], states, None)
            prefix = stateless.encode_batch(values[: t + 1][None, :, :], None).value[0]
            np.testing.assert_allclose(stepped.value[0], prefix, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2,), (1, 2, 2), (0, 2)])
    def test_misshaped_block_rejected_naming_both_shapes(self, shape):
        # a (2, 3) block holds 6 values: a flat reshape would read it as 3
        # rows of the 2 channels
        _, stateful = self._pair()
        with pytest.raises(dc.ShapeError, match=re.escape(f"{shape} and (None, 2)")):
            stateful.encode_step(np.zeros(shape), stateful.zero_states(1), None)

    def test_block_step_equals_single_row_steps(self):
        _, stateful = self._pair()
        values = series(7, 2, seed=13)
        single, rows = stateful.zero_states(1), []
        for t in range(7):
            row, single = stateful.encode_step(values[t : t + 1], single, None)
            rows.append(row.value)
        first, block = stateful.encode_step(values[:3], stateful.zero_states(1), None)
        assert first.value.shape == (3, stateful.hidden)
        rest, block = stateful.encode_step(values[3:], block, None)
        np.testing.assert_array_equal(np.vstack([first.value, rest.value]), np.vstack(rows))
        for s1, s2 in zip(single, block):
            np.testing.assert_array_equal(s1.value, s2.value)

    def test_batches_equal_one_block_step_and_cut_between_chunks(self):
        # lookback 4 over 10 rows: chunks 0-3, 4-7 and a partial one
        _, stateful = self._pair()
        values = series(10, 2, seed=14)
        chunks = list(stateful.batches(values, np.arange(10), 128, None))
        assert [rows.tolist() for rows, _ in chunks] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        shifted = np.vstack([values[:1], values[:-1]])
        whole, _ = stateful.encode_step(shifted, stateful.zero_states(1), None)
        np.testing.assert_array_equal(np.vstack([c.value for _, c in chunks]), whole.value)

        def graph(node):
            return {id(n) for n in dc._topo_order(node) if not isinstance(n, dc.Parameter)}

        assert not graph(chunks[0][1]) & graph(chunks[1][1])

    def test_two_state_chains_same_stream_agree(self):
        _, stateful = self._pair(seed=21)
        values = series(6, 2, seed=22)
        s1, s2 = stateful.zero_states(1), stateful.zero_states(1)
        for t in range(values.shape[0]):
            a, s1 = stateful.encode_step(values[t : t + 1], s1, None)
            b, s2 = stateful.encode_step(values[t : t + 1], s2, None)
            np.testing.assert_array_equal(a.value, b.value)


class TestFusedLstmStack:
    """``LstmEncoder._run_stack`` (one ``dc.lstm_sequence`` node per layer)
    against ``helpers.composed_lstm_stack`` (one ``dc.lstm_cell`` per step and
    layer): values and every gradient are equal, bit for bit."""

    HIDDEN = 3

    def _encoder(self, layers, kind="lstm-stateless", lookback=4):
        cfg = EncoderConfig(kind, lookback=lookback, lstm_layers=layers,
                            lstm_hidden=self.HIDDEN, dropout=0.4)
        enc = build_encoder(cfg, 2, np.random.default_rng(layers))
        for _, b in enc.pairs:
            b.value = np.random.default_rng(7).normal(0.0, 0.5, b.value.shape)
        return enc

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("n_steps", [1, 7])
    @pytest.mark.parametrize("training", [False, True])
    def test_values_and_gradients_equal_per_step_cells(self, layers, batch, n_steps, training):
        enc, hid = self._encoder(layers), self.HIDDEN
        rng = np.random.default_rng(100 * layers + 10 * batch + n_steps)
        x = rng.normal(size=(n_steps, batch, 2))
        states = rng.normal(size=(layers, batch, 2 * hid))
        seq_seed, state_seed = rng.normal(size=(n_steps, batch, hid)), rng.normal(size=states.shape)

        steps = dc.Parameter(x, "x")
        incoming = [dc.Parameter(s, f"s{j}") for j, s in enumerate(states)]
        out, fused_states = enc._run_stack(steps, incoming,
                                           np.random.default_rng(3) if training else None)
        terms = [dc.sum_(dc.mul(out[:, :, :hid], dc.constant(seq_seed)))]
        terms += [dc.sum_(dc.mul(s, dc.constant(q))) for s, q in zip(fused_states, state_seed)]
        fused = backward_grads(functools.reduce(dc.add, terms),
                               enc.parameters() + [steps] + incoming)

        ref_steps = [dc.Parameter(x[t], f"x{t}") for t in range(n_steps)]
        ref_in = [(dc.Parameter(s[:, :hid], f"h{j}"), dc.Parameter(s[:, hid:], f"c{j}"))
                  for j, s in enumerate(states)]
        seq, ref_states = composed_lstm_stack(enc, ref_steps, ref_in,
                                              np.random.default_rng(3) if training else None)
        terms = [dc.sum_(dc.mul(h, dc.constant(q))) for h, q in zip(seq, seq_seed)]
        for (h, c), q in zip(ref_states, state_seed):
            terms += [dc.sum_(dc.mul(h, dc.constant(q[:, :hid]))),
                      dc.sum_(dc.mul(c, dc.constant(q[:, hid:])))]
        ref = backward_grads(functools.reduce(dc.add, terms),
                             enc.parameters() + ref_steps + [p for hc in ref_in for p in hc])

        np.testing.assert_array_equal(out.value[:, :, :hid], np.stack([h.value for h in seq]))
        for state, (h, c) in zip(fused_states, ref_states):
            np.testing.assert_array_equal(state.value, np.hstack([h.value, c.value]))
        for p in enc.parameters():
            np.testing.assert_array_equal(fused[p.name], ref[p.name], err_msg=p.name)
        np.testing.assert_array_equal(
            fused["x"], np.stack([ref[f"x{t}"] for t in range(n_steps)]))
        for j in range(layers):
            np.testing.assert_array_equal(
                fused[f"s{j}"], np.hstack([ref[f"h{j}"], ref[f"c{j}"]]), err_msg=f"layer {j}")

    @pytest.mark.parametrize("layers", [1, 2])
    def test_saturated_gates_equal_per_step_cells_without_overflow_warning(self, layers):
        # rows near 1e6 drive the gates to about 1e5, so exp(-gates)
        # overflows to inf and each sigmoid saturates to exactly 0 or 1
        enc = self._encoder(layers, kind="lstm-stateful")
        rows = np.array([[1e6, -1e6], [-1e6, 1e6], [1e6, 1e6]])
        zeros = dc.constant(np.zeros((1, self.HIDDEN)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            contexts, states = enc.encode_step(rows, enc.zero_states(1), None)
            seq, ref_states = composed_lstm_stack(
                enc, [dc.constant(row[None]) for row in rows], [(zeros, zeros)] * layers)
        np.testing.assert_array_equal(contexts.value, np.vstack([h.value for h in seq]))
        for state, (h, c) in zip(states, ref_states):
            np.testing.assert_array_equal(state.value, np.hstack([h.value, c.value]))
        assert np.isfinite(contexts.value).all()

    def test_batches_with_partial_pick_equal_per_step_cells(self):
        # lookback 4 over 7 rows: a full chunk, then a partial one whose
        # state comes across the cut; a partial pick of each chunk's rows
        enc = self._encoder(2, kind="lstm-stateful")
        values = np.random.default_rng(8).normal(size=(7, 2))
        stream = np.vstack([values[:1], values[:-1]])
        spans = [slice(0, 4), slice(4, 8)]
        picks = [np.array([True, False, True, True]), np.array([False, True, True])]
        fused_rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        states = [(dc.constant(np.zeros((1, self.HIDDEN))),) * 2 for _ in enc.pairs]
        chunks = list(enc.batches(values, np.flatnonzero(np.concatenate(picks)), 128, fused_rng))
        assert [rows.tolist() for rows, _ in chunks] == [[0, 2, 3], [5, 6]]
        for (_, contexts), span, pick in zip(chunks, spans, picks):
            rows = [dc.constant(row[None]) for row in stream[span]]
            seq, states = composed_lstm_stack(enc, rows, states, ref_rng)
            np.testing.assert_array_equal(contexts.value, np.vstack([h.value for h in seq])[pick])
            weights = np.random.default_rng(span.start).normal(size=(int(pick.sum()), self.HIDDEN))
            fused = backward_grads(dc.sum_(dc.mul(contexts, dc.constant(weights))),
                                   enc.parameters())
            ref = backward_grads(dc.sum_(dc.mul(dc.concat(seq, axis=0)[pick],
                                                dc.constant(weights))), enc.parameters())
            for p in enc.parameters():
                np.testing.assert_array_equal(fused[p.name], ref[p.name], err_msg=p.name)
            states = [(dc.constant(h.value), dc.constant(c.value)) for h, c in states]


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"kind": "warp"},
        {"kind": "mlp", "mlp_layers": 2},
        {"kind": "mlp", "mlp_compression": 25},
        {"kind": "cnn", "cnn_kernel": 9},
        {"kind": "cnn", "cnn_layers": 0},
        {"kind": "lstm-stateless", "lstm_layers": 11},
        {"kind": "mlp", "dropout": 0.95},
        {"kind": "passthrough", "lookback": 0},
        {"kind": "lstm-stateless", "lstm_hidden": -1},
        {"kind": "lstm-stateful", "lstm_hidden": -1},
    ])
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EncoderConfig(**kwargs)

    # every ranged field: (config, fixed kwargs, field, its INI key, lower, upper)
    RANGED_FIELDS = [
        (FlowConfig, {}, "coupling_layers", "coupling_layers", 1, math.inf),
        (FlowConfig, {}, "cond_multiplier", "cond_multiplier", 1, 50),
        (FlowConfig, {}, "cond_layers", "cond_layers", 3, 8),
        (FlowConfig, {}, "cond_dropout", "cond_dropout", 0.1, 0.9),
        (FlowConfig, {}, "cond_funnel", "cond_funnel", 1.0, 10.0),
        (EncoderConfig, {"kind": "passthrough"}, "lookback", "lookback", 1, math.inf),
        (EncoderConfig, {"kind": "mlp"}, "mlp_layers", "mlp_layers", 3, 20),
        (EncoderConfig, {"kind": "mlp"}, "mlp_compression", "mlp_compression", 1, 20),
        (EncoderConfig, {"kind": "cnn"}, "cnn_layers", "cnn_layers", 1, 5),
        (EncoderConfig, {"kind": "cnn"}, "cnn_kernel", "cnn_kernel", 3, 7),
        (EncoderConfig, {"kind": "cnn"}, "cnn_max_channels", "cnn_max_channels", 1, 20),
        (EncoderConfig, {"kind": "lstm-stateless"}, "lstm_layers", "lstm_layers", 1, 10),
        (EncoderConfig, {"kind": "lstm-stateful"}, "lstm_layers", "lstm_layers", 1, 10),
        (EncoderConfig, {"kind": "lstm-stateless"}, "lstm_hidden", "lstm_hidden", 0, math.inf),
        (EncoderConfig, {"kind": "lstm-stateful"}, "lstm_hidden", "lstm_hidden", 0, math.inf),
        (EncoderConfig, {"kind": "mlp"}, "dropout", "dropout", 0.1, 0.9),
        (EncoderConfig, {"kind": "cnn"}, "dropout", "dropout", 0.1, 0.9),
        # positive and finite: 0.0 and inf are the values just outside
        (TrainConfig, {}, "learning_rate", "learning_rate", math.ulp(0.0), sys.float_info.max),
    ]

    @pytest.mark.parametrize(
        "cls, fixed, attr, key, lower, upper", RANGED_FIELDS,
        ids=[f"{key}-{fixed.get('kind', 'train' if c is TrainConfig else 'flow')}"
             for c, fixed, _, key, _, _ in RANGED_FIELDS])
    def test_range_ends_accepted_and_just_outside_rejected(self, cls, fixed, attr, key,
                                                           lower, upper):
        ends = [(lower, -1)] + ([] if math.isinf(upper) else [(upper, 1)])
        for end, direction in ends:
            assert getattr(cls(**fixed, **{attr: end}), attr) == end
            if isinstance(end, int):
                value = end + direction
            else:
                value = math.nextafter(end, direction * math.inf)
            with pytest.raises(ValueError, match=rf"^{key} out of range .*: {re.escape(str(value))}$"):
                cls(**fixed, **{attr: value})

    @pytest.mark.parametrize("kwargs, message", [
        ({"kind": "passthrough", "mlp_layers": 0}, "mlp_layers out of range [3, 20]: 0"),
        ({"kind": "passthrough", "dropout": 5.0}, "dropout out of range [0.1, 0.9]: 5.0"),
        ({"kind": "none", "lookback": 0}, "lookback out of range [1, inf]: 0"),
        ({"kind": "mlp", "lstm_hidden": -3}, "lstm_hidden out of range [0, inf]: -3"),
    ])
    def test_fields_a_kind_does_not_read_are_checked_too(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EncoderConfig(**kwargs)

    @pytest.mark.parametrize("cls, kwargs, message", [
        (TrainConfig, {"batch_size": 2.5}, "batch_size 2.5 is not an integer"),
        (TrainConfig, {"seed": "0"}, "seed '0' is not an integer"),
        (TrainConfig, {"clip_norm": True}, "clip_norm True is not a number"),
        (EncoderConfig, {"kind": "mlp", "lookback": True}, "lookback True is not an integer"),
        (EncoderConfig, {"kind": "none", "lstm_hidden": 4.0}, "lstm_hidden 4.0 is not an integer"),
        # the type is checked before the kind
        (EncoderConfig, {"kind": 1}, "kind 1 is not a string"),
        (FlowConfig, {"cond_dropout": "0.2"}, "cond_dropout '0.2' is not a number"),
        (FlowConfig, {"cond_layers": 3.0}, "cond_layers 3.0 is not an integer"),
        (FlowConfig, {"coupling_layers": 4.0}, "coupling_layers 4.0 is not an integer"),
    ])
    def test_wrong_type_rejected_naming_the_key(self, cls, kwargs, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            cls(**kwargs)

    def test_an_integer_or_a_numpy_float_passes_for_a_float(self):
        assert TrainConfig(clip_norm=1).clip_norm == 1
        assert FlowConfig(cond_funnel=np.float64(2.5)).cond_funnel == 2.5
        assert EncoderConfig("mlp", dropout=np.float64(0.5)).dropout == 0.5

    def test_none_kind_builds_empty_encoder(self):
        enc = build_encoder(EncoderConfig("none"), 4, np.random.default_rng(0))
        assert type(enc) is Encoder and enc.kind == "none"
        assert enc.context_dim == 0 and enc.parameters() == []
