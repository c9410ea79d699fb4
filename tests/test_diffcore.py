import gc
import warnings

import numpy as np
import pytest
from helpers import einsum_conv1d, finite_diff_check
from hypothesis import given, settings
from hypothesis import strategies as st

from tcflow import diffcore as dc
from tcflow.flow import CouplingLayer, FlowConfig


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


def _reached(root):
    """Reference reachability: ``root`` and every ancestor, by identity."""
    seen = {}

    def visit(node):
        if id(node) not in seen:
            seen[id(node)] = node
            for parent in node.parents:
                visit(parent)

    visit(root)
    return seen


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_topo_order_is_a_creation_ordered_walk_of_the_reachable_graph(data):
    # a random DAG over Parameters and constants: ops drawn on any earlier
    # node (shared inputs, diamonds), a hub node consumed four times, and
    # nodes built between the others that the root does not use; at most 10
    # ops on leaves in [-0.25, 0.25] keep every value and gradient finite
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pool = [dc.Parameter(rng.uniform(-0.25, 0.25, 2), f"p{i}")
            for i in range(data.draw(st.integers(1, 3)))]
    pool += [dc.constant(rng.uniform(-0.25, 0.25, 2)) for _ in range(data.draw(st.integers(0, 2)))]
    unused = []
    pick = st.integers(0, 10**6)
    for _ in range(data.draw(st.integers(0, 10))):
        kind = data.draw(st.sampled_from(["add", "mul", "tanh", "neg"]))
        a, b = (pool[data.draw(pick) % len(pool)] for _ in range(2))
        node = dc.add(a, b) if kind == "add" else dc.mul(a, b) if kind == "mul" else (
            dc.tanh(a) if kind == "tanh" else dc.neg(a))
        (unused if data.draw(st.booleans()) else pool).append(node)
    hub = pool[data.draw(pick) % len(pool)]
    pool += [dc.tanh(hub), dc.neg(hub), dc.mul(hub, hub)]
    unused.append(dc.tanh(hub))
    # the root sums a subset of the pool that holds the hub's consumers, plus
    # a scalar Parameter q added to itself k times (so dq = k)
    used = pool[-3:] + [n for n in pool[:-3] if data.draw(st.booleans())]
    total = dc.sum_(used[0])
    for node in used[1:]:
        total = dc.add(total, dc.sum_(node))
    k = data.draw(st.integers(1, 6))
    q = dc.Parameter(0.5, "q")
    q_sum = q
    for _ in range(k - 1):
        q_sum = dc.add(q_sum, q)
    root = dc.add(total, q_sum)

    order = dc._topo_order(root)
    position = {id(node): i for i, node in enumerate(order)}
    assert len(position) == len(order)
    assert position.keys() == _reached(root).keys()
    for node in order:
        assert all(position[id(p)] < position[id(node)] for p in node.parents)
    assert not any(id(node) in position for node in unused)
    assert order[-1] is root

    dc.backward(root)
    assert q.grad == k


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
    x = dc.constant(np.ones((5, 5)))
    assert dc.dropout(x, 0.5, None) is x


def test_dropout_deterministic_given_seed():
    x = np.ones((6, 6))
    out1 = dc.dropout(dc.constant(x), 0.4, np.random.default_rng(7)).value
    out2 = dc.dropout(dc.constant(x), 0.4, np.random.default_rng(7)).value
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
    x = dc.Parameter(rng.normal(0, 1, (2, 6, 2)), "x")

    def loss():
        out = dc.conv1d(x, w, b)
        return dc.sum_(dc.mul(out, out))

    assert finite_diff_check(loss, [x, w, b], epsilon=1e-5) < 1e-4


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 12), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_conv1d_matches_einsum_reference(batch, n_time, n_in, n_out, kernel, seed):
    # the per-tap node against the einsum form plus a separate bias node:
    # values and the gradients of input, weight and bias, within 1e-12 of the
    # reference array's largest magnitude (summation orders differ)
    rng = np.random.default_rng(seed)
    x_value = rng.normal(size=(batch, n_time, n_in))
    w_value = rng.normal(size=(kernel, n_in, n_out))
    b_value = rng.normal(size=n_out)
    g_value = rng.normal(size=(batch, n_time, n_out))
    results = []
    for conv in (dc.conv1d, einsum_conv1d):
        x, w, b = (dc.Parameter(v.copy(), name) for v, name in
                   ((x_value, "x"), (w_value, "w"), (b_value, "b")))
        out = conv(x, w, b)
        dc.backward(dc.sum_(dc.mul(out, dc.constant(g_value))))
        results.append((out.value, x.grad, w.grad, b.grad))
    for got, ref in zip(*results):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_conv1d_preserves_time_length():
    x = dc.constant(np.random.default_rng(0).normal(size=(1, 9, 2)))
    w = dc.constant(np.random.default_rng(1).normal(size=(5, 2, 3)))
    assert dc.conv1d(x, w, dc.constant(np.zeros(3))).value.shape == (1, 9, 3)


def test_conv1d_shape_mismatch_names_op():
    x = dc.constant(np.zeros((1, 9, 2)))
    with pytest.raises(dc.ShapeError, match="conv1d"):
        dc.conv1d(x, dc.constant(np.zeros((3, 3, 4))), dc.constant(np.zeros(4)))
    with pytest.raises(dc.ShapeError, match=r"conv1d: .* and \(1, 4\)"):
        dc.conv1d(x, dc.constant(np.zeros((3, 2, 4))), dc.constant(np.zeros((1, 4))))


def test_conv1d_matches_manual_cross_correlation():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 7, 1))
    w = rng.normal(size=(3, 1, 1))
    out = dc.conv1d(dc.constant(x), dc.constant(w), dc.constant(np.zeros(1))).value[0, :, 0]
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
        conv = dc.conv1d(dc.reshape(a, (2, 3, 1)), dc.Parameter(rng.normal(size=(3, 1, 2)), "k"),
                         dc.constant(np.zeros(2)))
        seq = dc.lstm_sequence(dc.reshape(a, (1, 2, 3)), dc.constant(np.zeros((2, 4))),
                               dc.Parameter(rng.normal(size=(5, 8)), "w2"),
                               dc.Parameter(np.zeros(8), "b2"))
        terms = [dc.exp(h), dc.log(dc.exp(c)), dc.neg(dc.sub(conv[:, 0, :], h)),
                 dc.dropout(h, 0.5, rng), seq[0]]
        loss = dc.mean(dc.sum_(dc.concat(terms, axis=1), axis=1))
        dc.backward(loss)
        del loss, h, c, conv, seq, terms
        assert gc.collect() == 0
    finally:
        gc.enable()


def _every_op():
    """One thunk per operation, each over Parameters, so that a recorded
    call builds a graph; calling a thunk twice gives the same value."""
    rng = np.random.default_rng(0)

    def param(*shape):
        return dc.Parameter(rng.normal(size=shape), "p")

    a, b, m, positive = param(3, 4), param(3, 4), param(4, 2), dc.exp(param(3, 4))
    x, kernel, bias = param(2, 6, 3), param(3, 3, 4), param(4)
    steps, state, w_lstm, b_lstm = param(5, 2, 3), param(2, 8), param(7, 16), param(16)
    layer = CouplingLayer(4, 3, FlowConfig(), rng, "layer")
    for p in layer.parameters():
        p.value = rng.normal(0.0, 0.3, p.value.shape)
    points, context = param(6, 5), param(6, 3)
    masks = [(rng.random((6, w.value.shape[1])) >= 0.5) / 0.5 for w, _ in layer.hidden]
    return {
        "add": lambda: dc.add(a, b),
        "sub": lambda: dc.sub(a, b),
        "neg": lambda: dc.neg(a),
        "mul": lambda: dc.mul(a, b),
        "matmul": lambda: dc.matmul(a, m),
        "tanh": lambda: dc.tanh(a),
        "sigmoid": lambda: dc.sigmoid(a),
        "exp": lambda: dc.exp(a),
        "log": lambda: dc.log(positive),
        "sum": lambda: dc.sum_(a, axis=1),
        "mean": lambda: dc.mean(a, axis=0),
        "slice": lambda: a[1:, ::2],
        "concat": lambda: dc.concat([a, b], axis=1),
        "reshape": lambda: dc.reshape(a, (4, 3)),
        "dropout": lambda: dc.dropout(a, 0.5, np.random.default_rng(1)),
        "conv1d": lambda: dc.conv1d(x, kernel, bias),
        "lstm_cell": lambda: dc.lstm_cell(steps[0], state[:, :4], state[:, 4:], w_lstm, b_lstm)[1],
        "lstm_sequence": lambda: dc.lstm_sequence(steps, state, w_lstm, b_lstm),
        "coupling_inverse": lambda: layer.inverse(points, context, masks, swap=True),
    }


@pytest.mark.parametrize("op", list(_every_op()))
def test_no_grad_computes_the_same_bits_and_keeps_no_graph(op):
    # under no_grad a node over Parameters keeps no inputs and no backward,
    # and its value equals the recorded one bit for bit
    make = _every_op()[op]
    recorded = make()
    with dc.no_grad():
        free = make()
    assert recorded.needs_grad and recorded.parents and recorded._backward is not None
    assert not free.needs_grad and free.parents == () and free._backward is None
    assert free.value.dtype == recorded.value.dtype and free.value.shape == recorded.value.shape
    assert free.value.tobytes() == recorded.value.tobytes()


def test_node_that_needs_no_gradient_keeps_no_graph_outside_no_grad():
    node = dc.tanh(dc.add(dc.constant(np.ones(3)), dc.constant(np.ones(3))))
    assert not node.needs_grad and node.parents == () and node._backward is None


def test_backward_of_a_root_built_under_no_grad_changes_no_gradient():
    p = dc.Parameter(np.array([0.5, -1.0, 2.0]), "p")
    p.grad[:] = 7.0
    with dc.no_grad():
        loss = dc.mean(dc.mul(dc.tanh(p), p))
    dc.backward(loss)
    np.testing.assert_array_equal(p.grad, [7.0, 7.0, 7.0])
    assert loss.grad is None


def test_recording_resumes_after_no_grad_even_when_the_block_raises():
    p = dc.Parameter(np.ones(2), "p")
    with pytest.raises(RuntimeError, match="inside"):
        with dc.no_grad():
            assert not dc.tanh(p).needs_grad
            raise RuntimeError("inside")
    assert dc.tanh(p).needs_grad
    with dc.no_grad():
        with dc.no_grad():
            pass
        assert not dc.tanh(p).needs_grad  # an inner block restores the outer one's state
        assert dc.Parameter(np.ones(2), "q").needs_grad  # a Parameter is always trained
    assert dc.tanh(p).needs_grad
