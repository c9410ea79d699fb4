import functools
import math
import re
import warnings

import numpy as np
import pytest
from helpers import (
    backward_grads,
    build_model_with_encoder,
    composed_lstm_stack,
    finite_diff_check,
)

from tcflow import diffcore as dc
from tcflow.conditioners import (
    Encoder,
    EncoderConfig,
    build_encoder,
    padded_context_windows,
)
from tcflow.flow import ConditionerConfig
from tcflow.train import _window_batches


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

    def test_rejects_too_short_series(self):
        # no target has a full history, so training has no rows
        values = series(4)
        model = build_model_with_encoder(2, 2, EncoderConfig("passthrough", lookback=4))
        everything = np.ones(4, dtype=bool)
        with pytest.raises(ValueError, match="empty"):
            _window_batches(model.encoder, values, 4, everything, everything, batch_size=128)

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


class TestPassthrough:
    def test_flatten_definition(self):
        enc = build_encoder(EncoderConfig("passthrough", lookback=2), 2)
        ctx = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        np.testing.assert_array_equal(enc.encode_batch(ctx).value, [[1.0, 2.0, 3.0, 4.0]])

    def test_context_dim(self):
        enc = build_encoder(EncoderConfig("passthrough", lookback=7), 3)
        assert enc.context_dim == 21

    def test_shape_mismatch(self):
        enc = build_encoder(EncoderConfig("passthrough", lookback=2), 2)
        with pytest.raises(dc.ShapeError):
            enc.encode_batch(np.zeros((1, 3, 2)))


class TestFixedSummary:
    def test_constant_channel_summary(self):
        enc = build_encoder(EncoderConfig("fixed-encode", lookback=4), 1)
        ctx = np.full((1, 4, 1), 2.5)
        out = enc.encode_batch(ctx).value[0]
        np.testing.assert_allclose(out, [2.5, 0.0, 2.5, 0.0])

    def test_summary_fields(self):
        enc = build_encoder(EncoderConfig("fixed-encode", lookback=3), 1)
        ctx = np.array([[[1.0], [2.0], [4.0]]])
        mean, std, last, diff_mean = enc.encode_batch(ctx).value[0]
        assert mean == pytest.approx(7.0 / 3.0)
        assert std == pytest.approx(np.std([1.0, 2.0, 4.0]))
        assert last == 4.0
        assert diff_mean == pytest.approx(1.5)

    def test_lookback_one_has_zero_diff(self):
        enc = build_encoder(EncoderConfig("fixed-encode", lookback=1), 2)
        out = enc.encode_batch(np.ones((1, 1, 2))).value[0]
        np.testing.assert_allclose(out, [1, 1, 0, 0, 1, 1, 0, 0])


class TestMlpEncoder:
    def test_output_dimension_follows_compression(self):
        cfg = EncoderConfig("mlp", lookback=5, mlp_layers=3, mlp_compression=3)
        enc = build_encoder(cfg, 4, np.random.default_rng(0))
        assert enc.context_dim == (5 * 4) // 3
        out = enc.encode_batch(series(9, 4)[None, :5] * np.ones((3, 1, 1)))
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
        out = enc.encode_batch(ctx).value
        out_perm = enc.encode_batch(ctx[perm]).value
        np.testing.assert_allclose(out_perm, out[perm])


class TestCnnEncoder:
    def test_context_dim_is_last_channel_width_independent_of_lookback(self):
        for k in (4, 9, 17):
            cfg = EncoderConfig("cnn", lookback=k, cnn_layers=2, cnn_kernel=3, cnn_max_channels=6)
            enc = build_encoder(cfg, 2, np.random.default_rng(0))
            assert enc.context_dim == 6
            out = enc.encode_batch(np.zeros((2, k, 2)))
            assert out.value.shape == (2, 6)

    def test_gradients_reach_conv_weights(self):
        cfg = EncoderConfig("cnn", lookback=5, cnn_layers=2, cnn_kernel=3, cnn_max_channels=4)
        enc = build_encoder(cfg, 2, np.random.default_rng(3))
        ctx = np.random.default_rng(4).normal(size=(3, 5, 2))

        def loss():
            out = enc.encode_batch(ctx)
            return dc.sum_(dc.mul(out, out))

        assert finite_diff_check(loss, enc.parameters(), epsilon=1e-5) < 1e-4


class TestLstmEncoder:
    def test_zero_context_zero_bias_gives_zero(self):
        cfg = EncoderConfig("lstm-stateless", lookback=4, lstm_layers=2)
        enc = build_encoder(cfg, 2, np.random.default_rng(0))
        out = enc.encode_batch(np.zeros((2, 4, 2)))
        np.testing.assert_array_equal(out.value, np.zeros((2, enc.context_dim)))

    def test_deterministic_in_eval_mode(self):
        cfg = EncoderConfig("lstm-stateless", lookback=3, lstm_layers=1)
        enc = build_encoder(cfg, 2, np.random.default_rng(5))
        ctx = np.random.default_rng(6).normal(size=(4, 3, 2))
        np.testing.assert_array_equal(enc.encode_batch(ctx).value, enc.encode_batch(ctx).value)

    def test_gradients_through_time(self):
        cfg = EncoderConfig("lstm-stateless", lookback=3, lstm_layers=2)
        enc = build_encoder(cfg, 2, np.random.default_rng(7))
        ctx = np.random.default_rng(8).normal(size=(2, 3, 2))

        def loss():
            out = enc.encode_batch(ctx)
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
            stepped, states = stateful.encode_step(values[t : t + 1], states)
            prefix = stateless.encode_batch(values[: t + 1][None, :, :]).value[0]
            np.testing.assert_allclose(stepped.value[0], prefix, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2,), (1, 2, 2), (0, 2)])
    def test_misshaped_block_rejected_naming_both_shapes(self, shape):
        # a (2, 3) block holds 6 values: a flat reshape would read it as 3
        # rows of the 2 channels
        _, stateful = self._pair()
        with pytest.raises(dc.ShapeError, match=re.escape(f"{shape} and (None, 2)")):
            stateful.encode_step(np.zeros(shape), stateful.zero_states(1))

    def test_block_step_equals_single_row_steps(self):
        _, stateful = self._pair()
        values = series(7, 2, seed=13)
        single, rows = stateful.zero_states(1), []
        for t in range(7):
            row, single = stateful.encode_step(values[t : t + 1], single)
            rows.append(row.value)
        first, block = stateful.encode_step(values[:3], stateful.zero_states(1))
        assert first.value.shape == (3, stateful.hidden)
        rest, block = stateful.encode_step(values[3:], block)
        np.testing.assert_array_equal(np.vstack([first.value, rest.value]), np.vstack(rows))
        for s1, s2 in zip(single, block):
            np.testing.assert_array_equal(s1.value, s2.value)

    def test_walk_equals_one_block_step_and_cuts_between_chunks(self):
        # lookback 4 over 10 rows: chunks 0-3, 4-7 and a partial one
        _, stateful = self._pair()
        values = series(10, 2, seed=14)
        chunks = list(stateful.walk(values))
        assert [span for span, _ in chunks] == [slice(0, 4), slice(4, 8), slice(8, 12)]
        shifted = np.vstack([values[:1], values[:-1]])
        whole, _ = stateful.encode_step(shifted, stateful.zero_states(1))
        np.testing.assert_array_equal(np.vstack([c.value for _, c in chunks]), whole.value)

        def graph(node):
            return {id(n) for n in dc._topo_order(node) if not isinstance(n, dc.Parameter)}

        assert not graph(chunks[0][1]) & graph(chunks[1][1])

    def test_two_state_chains_same_stream_agree(self):
        _, stateful = self._pair(seed=21)
        values = series(6, 2, seed=22)
        s1, s2 = stateful.zero_states(1), stateful.zero_states(1)
        for t in range(values.shape[0]):
            a, s1 = stateful.encode_step(values[t : t + 1], s1)
            b, s2 = stateful.encode_step(values[t : t + 1], s2)
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
        for _, b in enc.cells:
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
        out, fused_states = enc._run_stack(steps, incoming, training, np.random.default_rng(3))
        terms = [dc.sum_(dc.mul(out[:, :, :hid], dc.constant(seq_seed)))]
        terms += [dc.sum_(dc.mul(s, dc.constant(q))) for s, q in zip(fused_states, state_seed)]
        fused = backward_grads(functools.reduce(dc.add, terms),
                               enc.parameters() + [steps] + incoming)

        ref_steps = [dc.Parameter(x[t], f"x{t}") for t in range(n_steps)]
        ref_in = [(dc.Parameter(s[:, :hid], f"h{j}"), dc.Parameter(s[:, hid:], f"c{j}"))
                  for j, s in enumerate(states)]
        seq, ref_states = composed_lstm_stack(enc, ref_steps, ref_in, training,
                                              np.random.default_rng(3))
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
            contexts, states = enc.encode_step(rows, enc.zero_states(1))
            seq, ref_states = composed_lstm_stack(
                enc, [dc.constant(row[None]) for row in rows], [(zeros, zeros)] * layers)
        np.testing.assert_array_equal(contexts.value, np.vstack([h.value for h in seq]))
        for state, (h, c) in zip(states, ref_states):
            np.testing.assert_array_equal(state.value, np.hstack([h.value, c.value]))
        assert np.isfinite(contexts.value).all()

    def test_walk_chunk_with_partial_mask_equals_per_step_cells(self):
        # lookback 4 over 7 rows: a full chunk, then a partial one whose
        # state comes across the cut; a partial pick of each chunk's rows
        enc = self._encoder(2, kind="lstm-stateful")
        values = np.random.default_rng(8).normal(size=(7, 2))
        stream = np.vstack([values[:1], values[:-1]])
        picks = [np.array([True, False, True, True]), np.array([False, True, True])]
        fused_rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        states = [(dc.constant(np.zeros((1, self.HIDDEN))),) * 2 for _ in enc.cells]
        chunks = list(enc.walk(values, training=True, rng=fused_rng))
        assert [span for span, _ in chunks] == [slice(0, 4), slice(4, 8)]
        for (span, contexts), pick in zip(chunks, picks):
            rows = [dc.constant(row[None]) for row in stream[span]]
            seq, states = composed_lstm_stack(enc, rows, states, True, ref_rng)
            np.testing.assert_array_equal(contexts.value, np.vstack([h.value for h in seq]))
            weights = np.random.default_rng(span.start).normal(size=(int(pick.sum()), self.HIDDEN))
            fused = backward_grads(dc.sum_(dc.mul(contexts[pick], dc.constant(weights))),
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
    ])
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EncoderConfig(**kwargs)

    # every ranged field: (config, fixed kwargs, field, its INI key, lower, upper)
    RANGED_FIELDS = [
        (ConditionerConfig, {}, "multiplier", "cond_multiplier", 1, 50),
        (ConditionerConfig, {}, "layers", "cond_layers", 3, 8),
        (ConditionerConfig, {}, "dropout", "cond_dropout", 0.1, 0.9),
        (ConditionerConfig, {}, "funnel", "cond_funnel", 1.0, 10.0),
        (EncoderConfig, {"kind": "passthrough"}, "lookback", "lookback", 1, math.inf),
        (EncoderConfig, {"kind": "mlp"}, "mlp_layers", "mlp_layers", 3, 20),
        (EncoderConfig, {"kind": "mlp"}, "mlp_compression", "mlp_compression", 1, 20),
        (EncoderConfig, {"kind": "cnn"}, "cnn_layers", "cnn_layers", 1, 5),
        (EncoderConfig, {"kind": "cnn"}, "cnn_kernel", "cnn_kernel", 3, 7),
        (EncoderConfig, {"kind": "cnn"}, "cnn_max_channels", "cnn_max_channels", 1, 20),
        (EncoderConfig, {"kind": "lstm-stateless"}, "lstm_layers", "lstm_layers", 1, 10),
        (EncoderConfig, {"kind": "lstm-stateful"}, "lstm_layers", "lstm_layers", 1, 10),
        (EncoderConfig, {"kind": "mlp"}, "dropout", "dropout", 0.1, 0.9),
        (EncoderConfig, {"kind": "cnn"}, "dropout", "dropout", 0.1, 0.9),
    ]

    @pytest.mark.parametrize("cls, fixed, attr, key, lower, upper", RANGED_FIELDS,
                             ids=[f"{key}-{fixed.get('kind', 'flow')}"
                                  for _, fixed, _, key, _, _ in RANGED_FIELDS])
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

    def test_fields_a_kind_does_not_read_are_not_checked(self):
        assert EncoderConfig("passthrough", mlp_layers=0, dropout=5.0).mlp_layers == 0
        assert EncoderConfig("none", lookback=0).lookback == 0

    def test_none_kind_builds_empty_encoder(self):
        enc = build_encoder(EncoderConfig("none"), 4, np.random.default_rng(0))
        assert type(enc) is Encoder and enc.kind == "none"
        assert enc.context_dim == 0 and enc.parameters() == []
