import gc
import warnings

import numpy as np
import pytest
from helpers import finite_diff_check

from tcflow import diffcore as dc


def test_tanh_of_zero_is_zero():
    node = dc.tanh(dc.constant(0.0))
    assert node.value == 0.0


def test_sum_of_symmetric_pair_cancels():
    node = dc.sum_(dc.constant([0.5, -0.5]))
    assert node.value == 0.0


def test_matmul_identity_returns_input():
    v = np.array([[1.7], [-2.3]])
    node = dc.matmul(dc.constant(np.eye(2)), dc.constant(v))
    np.testing.assert_array_equal(node.value, v)


def test_matmul_shape_mismatch_names_op_and_shapes():
    with pytest.raises(dc.ShapeError, match="matmul"):
        dc.matmul(dc.constant(np.zeros((2, 3))), dc.constant(np.zeros((2, 3))))


def test_add_shape_mismatch_raises():
    with pytest.raises(dc.ShapeError, match="add"):
        dc.add(dc.constant(np.zeros(3)), dc.constant(np.zeros(4)))


def test_backward_of_sum_is_all_ones():
    p = dc.Parameter(np.arange(6.0).reshape(2, 3), "p")
    dc.backward(dc.sum_(p))
    np.testing.assert_array_equal(p.grad, np.ones((2, 3)))


def test_backward_of_quadratic():
    # d/dp sum(p*p) = 2p, so at p=[1,2] the gradient is [2,4]
    p = dc.Parameter([1.0, 2.0], "p")
    dc.backward(dc.sum_(dc.mul(p, p)))
    np.testing.assert_allclose(p.grad, [2.0, 4.0])


def test_backward_of_tanh_at_zero_is_one():
    p = dc.Parameter(0.0, "p")
    dc.backward(dc.tanh(p))
    np.testing.assert_allclose(p.grad, 1.0)


def test_sigmoid_saturates_without_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        node = dc.sigmoid(dc.constant([-1e6, 0.0, 1e6]))
    np.testing.assert_array_equal(node.value, [0.0, 0.5, 1.0])


def test_backward_requires_scalar_root():
    p = dc.Parameter([1.0, 2.0], "p")
    with pytest.raises(ValueError, match="scalar"):
        dc.backward(dc.mul(p, p))


def test_value_used_twice_accumulates_both_contributions():
    p = dc.Parameter(3.0, "p")
    # p*p + p -> derivative 2p + 1 = 7
    dc.backward(dc.add(dc.mul(p, p), p))
    np.testing.assert_allclose(p.grad, 7.0)


def test_broadcast_add_bias_gradient_sums_over_batch():
    x = dc.constant(np.ones((4, 3)))
    b = dc.Parameter(np.zeros(3), "b")
    dc.backward(dc.sum_(dc.add(x, b)))
    np.testing.assert_array_equal(b.grad, np.full(3, 4.0))


def test_slice_and_concat_round_trip_gradient():
    p = dc.Parameter(np.arange(8.0).reshape(2, 4), "p")
    left = p[:, :2]
    right = p[:, 2:]
    rebuilt = dc.concat([right, left], axis=1)
    dc.backward(dc.sum_(dc.mul(rebuilt, rebuilt)))
    np.testing.assert_allclose(p.grad, 2.0 * p.value)


def test_dropout_identity_outside_training():
    rng = np.random.default_rng(0)
    x = dc.constant(np.ones((5, 5)))
    assert dc.dropout(x, 0.5, rng, training=False) is x


def test_dropout_deterministic_given_seed():
    x = np.ones((6, 6))
    out1 = dc.dropout(dc.constant(x), 0.4, np.random.default_rng(7), True).value
    out2 = dc.dropout(dc.constant(x), 0.4, np.random.default_rng(7), True).value
    np.testing.assert_array_equal(out1, out2)
    assert (out1 == 0).any()  # something dropped
    # inverted scaling keeps kept entries at 1/(1-rate)
    kept = out1[out1 != 0]
    np.testing.assert_allclose(kept, 1.0 / 0.6)


def test_finite_diff_exact_for_linear_loss():
    p = dc.Parameter(np.array([1.0, -2.0, 0.5]), "p")
    coeff = np.array([2.0, 3.0, -1.0])
    err = finite_diff_check(lambda: dc.sum_(dc.mul(p, dc.constant(coeff))), [p])
    assert err <= 1e-10


def test_finite_diff_two_layer_tanh_net():
    rng = np.random.default_rng(3)
    w1 = dc.Parameter(rng.normal(0, 0.5, (4, 5)), "w1")
    b1 = dc.Parameter(rng.normal(0, 0.1, 5), "b1")
    w2 = dc.Parameter(rng.normal(0, 0.5, (5, 2)), "w2")
    x = dc.constant(rng.normal(0, 1, (3, 4)))

    def loss():
        h = dc.tanh(dc.add(dc.matmul(x, w1), b1))
        out = dc.matmul(h, w2)
        return dc.sum_(dc.mul(out, out))

    assert finite_diff_check(loss, [w1, b1, w2], epsilon=1e-5) < 1e-4


def test_finite_diff_lstm_cell_step():
    rng = np.random.default_rng(5)
    hidden = 3
    w = dc.Parameter(rng.normal(0, 0.4, (2 + hidden, 4 * hidden)), "w")
    b = dc.Parameter(rng.normal(0, 0.1, 4 * hidden), "b")
    x = dc.constant(rng.normal(0, 1, (2, 2)))

    def loss():
        h0 = dc.constant(np.zeros((2, hidden)))
        c0 = dc.constant(np.zeros((2, hidden)))
        h1, c1 = dc.lstm_cell(x, h0, c0, w, b)
        h2, _ = dc.lstm_cell(x, h1, c1, w, b)
        return dc.sum_(dc.mul(h2, h2))

    assert finite_diff_check(loss, [w, b], epsilon=1e-5) < 1e-4


def test_finite_diff_lstm_sequence_through_chained_state():
    # two chained calls, the second starting from the first's final state,
    # as consecutive stateful encode_step calls chain: the gradient reaches
    # the input sequence and the incoming state through both
    rng = np.random.default_rng(6)
    hidden = 3
    w = dc.Parameter(rng.normal(0, 0.4, (2 + hidden, 4 * hidden)), "w")
    b = dc.Parameter(rng.normal(0, 0.1, 4 * hidden), "b")
    x = dc.Parameter(rng.normal(0, 1, (5, 2, 2)), "x")
    state = dc.Parameter(rng.normal(0, 0.5, (2, 2 * hidden)), "state")

    def loss():
        first = dc.lstm_sequence(x[:3], state, w, b)
        second = dc.lstm_sequence(x[3:], first[-1], w, b)
        hidden_seq = first[:, :, :hidden]
        return dc.add(dc.sum_(dc.mul(hidden_seq, hidden_seq)), dc.sum_(dc.mul(second, second)))

    assert finite_diff_check(loss, [x, state, w, b], epsilon=1e-5) < 1e-4


def test_lstm_sequence_shape_mismatch_names_op():
    w = dc.constant(np.zeros((5, 8)))
    b = dc.constant(np.zeros(8))
    with pytest.raises(dc.ShapeError, match="lstm_sequence"):
        dc.lstm_sequence(dc.constant(np.zeros((4, 2, 3))), dc.constant(np.zeros((3, 4))), w, b)
    with pytest.raises(dc.ShapeError, match="lstm_sequence"):
        dc.lstm_sequence(dc.constant(np.zeros((4, 2, 2))), dc.constant(np.zeros((2, 4))), w, b)


def test_finite_diff_conv1d():
    rng = np.random.default_rng(11)
    w = dc.Parameter(rng.normal(0, 0.4, (3, 2, 4)), "w")
    b = dc.Parameter(rng.normal(0, 0.1, 4), "b")
    x = dc.constant(rng.normal(0, 1, (2, 6, 2)))

    def loss():
        out = dc.conv1d(x, w, b)
        return dc.sum_(dc.mul(out, out))

    assert finite_diff_check(loss, [w, b], epsilon=1e-5) < 1e-4


def test_conv1d_preserves_time_length():
    x = dc.constant(np.random.default_rng(0).normal(size=(1, 9, 2)))
    w = dc.constant(np.random.default_rng(1).normal(size=(5, 2, 3)))
    assert dc.conv1d(x, w).value.shape == (1, 9, 3)


def test_conv1d_matches_manual_cross_correlation():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 7, 1))
    w = rng.normal(size=(3, 1, 1))
    out = dc.conv1d(dc.constant(x), dc.constant(w)).value[0, :, 0]
    padded = np.pad(x[0, :, 0], (1, 1))
    expected = np.array([np.dot(padded[i : i + 3], w[:, 0, 0]) for i in range(7)])
    np.testing.assert_allclose(out, expected)


def test_lstm_cell_zero_inputs_zero_bias_gives_zero_hidden():
    rng = np.random.default_rng(0)
    hidden = 4
    w = dc.constant(rng.normal(size=(3 + hidden, 4 * hidden)))
    b = dc.constant(np.zeros(4 * hidden))
    h, c = dc.lstm_cell(
        dc.constant(np.zeros((1, 3))),
        dc.constant(np.zeros((1, hidden))),
        dc.constant(np.zeros((1, hidden))),
        w, b,
    )
    np.testing.assert_array_equal(h.value, np.zeros((1, hidden)))
    np.testing.assert_array_equal(c.value, np.zeros((1, hidden)))


def test_mean_and_log_and_exp_gradients():
    p = dc.Parameter(np.array([1.0, 2.0, 4.0]), "p")

    def loss():
        return dc.mean(dc.log(dc.exp(p)))

    # mean(log(exp(p))) == mean(p), gradient 1/3 everywhere
    dc.backward(loss())
    np.testing.assert_allclose(p.grad, np.full(3, 1.0 / 3.0))
    assert finite_diff_check(loss, [p]) < 1e-6


def test_gradient_shapes_match_values_everywhere():
    p = dc.Parameter(np.ones((2, 3)), "p")
    out = dc.sum_(dc.tanh(p))
    dc.backward(out)
    for node in (p, out):
        assert node.grad.shape == node.value.shape


def test_dropped_graph_is_freed_without_cycle_collection():
    # a graph must be freed by reference counting alone: large intermediates
    # waiting for the cyclic collector inflate the peak memory of scoring
    rng = np.random.default_rng(0)
    gc.collect()
    gc.disable()
    try:
        a = dc.Parameter(rng.normal(size=(2, 3)), "a")
        zeros = dc.constant(np.zeros((2, 2)))
        h, c = dc.lstm_cell(a, zeros, zeros, dc.Parameter(rng.normal(size=(5, 8)), "w"),
                            dc.Parameter(np.zeros(8), "b"))
        conv = dc.conv1d(dc.reshape(a, (2, 3, 1)), dc.Parameter(rng.normal(size=(3, 1, 2)), "k"))
        seq = dc.lstm_sequence(dc.reshape(a, (1, 2, 3)), dc.constant(np.zeros((2, 4))),
                               dc.Parameter(rng.normal(size=(5, 8)), "w2"),
                               dc.Parameter(np.zeros(8), "b2"))
        terms = [dc.exp(h), dc.log(dc.exp(c)), dc.neg(dc.sub(conv[:, 0, :], h)),
                 dc.dropout(h, 0.5, rng, True), seq[0]]
        loss = dc.mean(dc.sum_(dc.concat(terms, axis=1), axis=1))
        dc.backward(loss)
        del loss, h, c, conv, seq, terms
        assert gc.collect() == 0
    finally:
        gc.enable()
