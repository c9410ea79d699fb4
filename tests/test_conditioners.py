import numpy as np
import pytest

from tcflow import diffcore as dc
from tcflow.conditioners import (
    Encoder,
    EncoderConfig,
    build_encoder,
    make_windows,
    padded_context_windows,
)


def series(n_steps=12, dim=2, seed=0):
    return np.random.default_rng(seed).normal(size=(n_steps, dim))


class TestMakeWindows:
    def test_unrolls_definition(self):
        values = np.arange(10.0).reshape(5, 2)
        windows = make_windows(values, 2)
        assert [w[0] for w in windows] == [2, 3, 4]
        np.testing.assert_array_equal(windows[0][1], values[0:2])
        np.testing.assert_array_equal(windows[0][2], values[2])

    def test_lookback_of_length_minus_one_gives_single_window(self):
        values = series(6, 3)
        windows = make_windows(values, 5)
        assert len(windows) == 1
        np.testing.assert_array_equal(windows[0][1], values[:5])

    @pytest.mark.parametrize("n,k", [(10, 1), (10, 4), (50, 9)])
    def test_window_count(self, n, k):
        assert len(make_windows(series(n), k)) == n - k

    def test_rejects_too_short_series(self):
        with pytest.raises(ValueError):
            make_windows(series(4), 4)

    def test_target_never_inside_its_own_context(self):
        values = series(30, 2, seed=3)
        for t, ctx, target in make_windows(values, 5):
            np.testing.assert_array_equal(ctx, values[t - 5 : t])
            assert not any(np.array_equal(row, target) and i + t - 5 == t for i, row in enumerate(ctx))

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

        assert dc.finite_diff_check(loss, enc.parameters(), epsilon=1e-5) < 1e-4


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

        assert dc.finite_diff_check(loss, enc.parameters(), epsilon=1e-5) < 1e-4


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
        handle = stateful.new_handle()
        for t in range(values.shape[0]):
            stepped = stateful.encode_step(values[t], handle, t).value[0]
            prefix = stateless.encode_batch(values[: t + 1][None, :, :]).value[0]
            np.testing.assert_allclose(stepped, prefix, atol=1e-12)

    def test_reset_zeroes_state_and_counter(self):
        _, stateful = self._pair()
        handle = stateful.new_handle()
        stateful.encode_step(np.ones(2), handle, 0)
        handle.reset()
        assert handle.steps_done == 0
        for h, c in handle.states:
            np.testing.assert_array_equal(h.value, 0.0)
            np.testing.assert_array_equal(c.value, 0.0)

    def test_out_of_order_step_names_both_indices(self):
        _, stateful = self._pair()
        handle = stateful.new_handle()
        stateful.encode_step(np.ones(2), handle, 0)
        with pytest.raises(ValueError, match="expected step 1, got 3"):
            stateful.encode_step(np.ones(2), handle, 3)

    def test_step_advances_counter_by_one(self):
        _, stateful = self._pair()
        handle = stateful.new_handle()
        for t in range(5):
            assert handle.steps_done == t
            stateful.encode_step(np.zeros(2), handle, t)
        assert handle.steps_done == 5

    def test_block_step_equals_single_row_steps(self):
        _, stateful = self._pair()
        values = series(7, 2, seed=13)
        single, block = stateful.new_handle(), stateful.new_handle()
        rows = np.vstack([stateful.encode_step(values[t], single, t).value for t in range(7)])
        first = stateful.encode_step(values[:3], block, 0)
        assert first.value.shape == (3, stateful.hidden) and block.steps_done == 3
        rest = stateful.encode_step(values[3:], block, 3)
        assert block.steps_done == 7
        np.testing.assert_array_equal(np.vstack([first.value, rest.value]), rows)
        for (h1, c1), (h2, c2) in zip(single.states, block.states):
            np.testing.assert_array_equal(h1.value, h2.value)
            np.testing.assert_array_equal(c1.value, c2.value)

    def test_two_handles_same_stream_agree(self):
        _, stateful = self._pair(seed=21)
        values = series(6, 2, seed=22)
        h1, h2 = stateful.new_handle(), stateful.new_handle()
        for t in range(values.shape[0]):
            a = stateful.encode_step(values[t], h1, t).value
            b = stateful.encode_step(values[t], h2, t).value
            np.testing.assert_array_equal(a, b)


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

    def test_none_kind_builds_empty_encoder(self):
        enc = build_encoder(EncoderConfig("none"), 4, np.random.default_rng(0))
        assert type(enc) is Encoder and enc.kind == "none"
        assert enc.context_dim == 0 and enc.parameters() == []
