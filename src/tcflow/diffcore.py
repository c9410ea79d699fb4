"""Minimal reverse-mode differentiation engine over dense float64 arrays.

Graphs are built eagerly: creating a node computes its value immediately, so
the "forward pass" happens at construction time and every intermediate is
cached on its node. An operation's node is created after its inputs, so
creation order (``Node.seq``) is a topological order: ``backward`` walks the
nodes the root reaches once in reverse creation order and accumulates
gradients with the chain rule.

Each node records whether it needs a gradient (``needs_grad``): a
``Parameter`` does, a ``constant`` does not, and an operation's result does
iff one of its inputs does. ``backward`` gives a grad array only to the
nodes that need one, and every backward closure skips the input gradients
of operands that need none (a constant input batch, window or context).
A node that needs no gradient keeps neither its inputs nor its backward
closure. Under ``no_grad()`` no node needs one, so a forward-only pass
(scoring, a validation loss) holds each intermediate only until the next
operation has consumed it, and computes the same values.

Supported operations: add, multiply (both broadcasting), matmul, tanh,
sigmoid, exp, log, sum, mean, slicing, concat, reshape, inverted dropout
(drawn iff an rng is passed) and 1-D "same" convolution over the time axis
(``conv1d``: one node that carries its bias, computed as one matmul per
kernel tap). One LSTM cell step, ``lstm_cell``, is a composition of these
primitives (about 16 nodes). Two fused nodes have a hand-written backward, because the graphs of
primitives they replace are mostly Python overhead on small arrays:
``lstm_sequence`` runs an LSTM layer over a whole sequence (backpropagation
through time), and ``coupling_inverse`` is the inverse of one affine coupling
layer (conditioner net, scale, shift, log-det; ~40 nodes), whose dropout
masks the caller draws and passes in. The values and gradients of each equal
those of the composition it replaces.

``pack`` moves a list of parameters into one contiguous value buffer and one
gradient buffer: each ``value`` and ``grad`` becomes a view, ``backward``
writes each parameter's gradient in place into its ``grad``, and an
optimizer reads them all from the buffer and updates every parameter with
one vectorized op per step.

Graphs are single-owner: build and differentiate a graph on one thread.
Independent graphs (e.g. separate search candidates) can run on separate
worker processes. The ``no_grad`` flag is likewise one per process, not
per thread.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import count
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""

    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {' and '.join(str(s) for s in shapes)}")
        self.op = op
        self.shapes = shapes


_creation = count()  # numbers every node of the process (``Node.seq``)
_recording = True  # False inside ``no_grad``


@contextmanager
def no_grad():
    """Record no graph inside the block: no node made there needs a
    gradient, so none keeps its parents or its backward. Recording resumes
    as it was when the block exits, by an exception too."""
    global _recording
    prior, _recording = _recording, False
    try:
        yield
    finally:
        _recording = prior


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim > 3:
        raise ShapeError("node", arr.shape)
    return arr


class Node:
    """One value in the computation graph.

    ``grad`` is None until ``backward`` reaches the node (a Parameter's is
    a zero array from the start), then it has the shape of ``value``; it
    stays None for a node whose ``needs_grad`` is False, that is, one that
    no Parameter feeds or that was made under ``no_grad``. ``parents`` are
    the inputs of ``op`` in order, and ``backward`` its gradient rule; a
    node that needs no gradient keeps neither (nor does a leaf). ``seq``
    numbers the nodes in creation order.
    """

    __slots__ = ("value", "grad", "op", "parents", "needs_grad", "seq", "_backward")

    def __init__(self, value, op: str, parents: Sequence["Node"] = (),
                 backward: Callable[["Node"], None] | None = None):
        self.seq = next(_creation)
        self.value = _as_array(value)
        self.grad = None
        self.op = op
        self.needs_grad = _recording and any(p.needs_grad for p in parents)
        # a node that needs no gradient keeps neither its inputs nor its
        # backward, which takes the node itself instead of closing over it:
        # a graph has no reference cycle and is freed once unreachable
        self.parents = tuple(parents) if self.needs_grad else ()
        self._backward = backward if self.needs_grad else None

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"

    def __getitem__(self, key):
        return getitem(self, key)


class Parameter(Node):
    """A named trainable leaf with its own ``grad`` array; after ``pack``,
    its ``value`` and ``grad`` are views into the buffers made there."""

    __slots__ = ("name",)

    def __init__(self, value, name: str):
        super().__init__(value, op="param")
        self.grad = np.zeros_like(self.value)
        self.needs_grad = True
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def pack(params: Sequence[Parameter]) -> tuple[np.ndarray, np.ndarray]:
    """Move ``params`` into one contiguous float64 buffer, in list order.

    Returns ``(values, grads)``: every parameter's ``value`` becomes a view
    into ``values`` holding its current entries, and its ``grad`` a view into
    ``grads`` (zeros). Packing an already packed parameter moves it.
    """
    params = list(params)
    values = np.empty(sum(p.value.size for p in params))
    grads = np.zeros_like(values)
    lo = 0
    for p in params:
        hi = lo + p.value.size
        shape = p.value.shape
        values[lo:hi] = p.value.ravel()
        p.value = values[lo:hi].reshape(shape)
        p.grad = grads[lo:hi].reshape(shape)
        lo = hi
    return values, grads


def constant(value) -> Node:
    return Node(value, op="const")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- primitive operations ------------------------------------------------


def add(a: Node, b: Node) -> Node:
    try:
        value = a.value + b.value
    except ValueError:
        raise ShapeError("add", a.value.shape, b.value.shape) from None

    def backward(out):
        if a.needs_grad:
            a.grad += _unbroadcast(out.grad, a.value.shape)
        if b.needs_grad:
            b.grad += _unbroadcast(out.grad, b.value.shape)

    return Node(value, "add", (a, b), backward)


def sub(a: Node, b: Node) -> Node:
    try:
        value = a.value - b.value
    except ValueError:
        raise ShapeError("sub", a.value.shape, b.value.shape) from None

    def backward(out):
        if a.needs_grad:
            a.grad += _unbroadcast(out.grad, a.value.shape)
        if b.needs_grad:
            b.grad -= _unbroadcast(out.grad, b.value.shape)

    return Node(value, "sub", (a, b), backward)


def neg(a: Node) -> Node:
    def backward(out):
        a.grad -= out.grad

    return Node(-a.value, "neg", (a,), backward)


def mul(a: Node, b: Node) -> Node:
    try:
        value = a.value * b.value
    except ValueError:
        raise ShapeError("mul", a.value.shape, b.value.shape) from None

    def backward(out):
        if a.needs_grad:
            a.grad += _unbroadcast(out.grad * b.value, a.value.shape)
        if b.needs_grad:
            b.grad += _unbroadcast(out.grad * a.value, b.value.shape)

    return Node(value, "mul", (a, b), backward)


def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ShapeError("matmul", a.value.shape, b.value.shape)

    def backward(out):
        if a.needs_grad:
            a.grad += out.grad @ b.value.T
        if b.needs_grad:
            b.grad += a.value.T @ out.grad

    return Node(a.value @ b.value, "matmul", (a, b), backward)


def tanh(a: Node) -> Node:
    def backward(out):
        a.grad += out.grad * (1.0 - out.value * out.value)

    return Node(np.tanh(a.value), "tanh", (a,), backward)


def sigmoid(a: Node) -> Node:
    with np.errstate(over="ignore"):  # exp(-x) = inf saturates to 0
        value = 1.0 / (1.0 + np.exp(-a.value))

    def backward(out):
        a.grad += out.grad * out.value * (1.0 - out.value)

    return Node(value, "sigmoid", (a,), backward)


def exp(a: Node) -> Node:
    def backward(out):
        a.grad += out.grad * out.value

    return Node(np.exp(a.value), "exp", (a,), backward)


def log(a: Node) -> Node:
    def backward(out):
        a.grad += out.grad / a.value

    return Node(np.log(a.value), "log", (a,), backward)


def sum_(a: Node, axis: int | None = None) -> Node:
    def backward(out):
        g = out.grad
        if axis is not None:
            g = np.expand_dims(g, axis)
        a.grad += np.broadcast_to(g, a.value.shape)

    return Node(a.value.sum(axis=axis), "sum", (a,), backward)


def mean(a: Node, axis: int | None = None) -> Node:
    n = a.value.size if axis is None else a.value.shape[axis]

    def backward(out):
        g = out.grad
        if axis is not None:
            g = np.expand_dims(g, axis)
        a.grad += np.broadcast_to(g, a.value.shape) / n

    return Node(a.value.mean(axis=axis), "mean", (a,), backward)


def getitem(a: Node, key) -> Node:
    def backward(out):
        scattered = np.zeros_like(a.value)
        scattered[key] = out.grad
        a.grad += scattered

    return Node(a.value[key], "slice", (a,), backward)


def concat(nodes: Sequence[Node], axis: int = 0) -> Node:
    nodes = list(nodes)
    try:
        value = np.concatenate([n.value for n in nodes], axis=axis)
    except ValueError:
        raise ShapeError("concat", *[n.value.shape for n in nodes]) from None
    sizes = [n.value.shape[axis] for n in nodes]
    offsets = np.cumsum([0] + sizes)

    def backward(out):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if not node.needs_grad:
                continue
            idx = [slice(None)] * out.grad.ndim
            idx[axis] = slice(lo, hi)
            node.grad += out.grad[tuple(idx)]

    return Node(value, "concat", nodes, backward)


def reshape(a: Node, shape) -> Node:
    def backward(out):
        a.grad += out.grad.reshape(a.value.shape)

    return Node(a.value.reshape(shape), "reshape", (a,), backward)


def dropout(a: Node, rate: float, rng: np.random.Generator | None) -> Node:
    """Inverted dropout: kept activations are scaled by 1/(1-rate).

    The mask is drawn iff ``rng`` is given; without one (inference) this is
    the identity.
    """
    if rng is None or rate <= 0.0:
        return a
    if rate >= 1.0:
        raise ValueError(f"dropout rate must be < 1, got {rate}")
    mask = (rng.random(a.value.shape) >= rate) / (1.0 - rate)

    def backward(out):
        a.grad += out.grad * mask

    return Node(a.value * mask, "dropout", (a,), backward)


def conv1d(x: Node, weight: Node, bias: Node) -> Node:
    """Cross-correlation over the time axis with "same" zero padding, plus
    ``bias``, as one node.

    ``x`` is (batch, time, in_channels), ``weight`` is
    (kernel, in_channels, out_channels) and ``bias`` is (out_channels,); the
    output keeps the time length. The forward and each gradient are one
    matmul per kernel tap over the padded input's time window for that tap.
    """
    xv, w = x.value, weight.value
    if (xv.ndim != 3 or w.ndim != 3 or xv.shape[2] != w.shape[1]
            or bias.value.shape != w.shape[2:]):
        raise ShapeError("conv1d", xv.shape, w.shape, bias.value.shape)
    kernel, n_in, n_out = w.shape
    n_time = xv.shape[1]
    left, right = (kernel - 1) // 2, kernel // 2
    padded = np.pad(xv, ((0, 0), (left, right), (0, 0)))
    value = padded[:, :n_time] @ w[0]
    for k in range(1, kernel):
        value += padded[:, k : k + n_time] @ w[k]
    value += bias.value

    def backward(out):
        g = out.grad
        g_rows = g.reshape(-1, n_out)
        grad_padded = np.zeros_like(padded) if x.needs_grad else None
        for k in range(kernel):
            if weight.needs_grad:
                weight.grad[k] += padded[:, k : k + n_time].reshape(-1, n_in).T @ g_rows
            if x.needs_grad:
                grad_padded[:, k : k + n_time] += g @ weight.value[k].T
        if x.needs_grad:
            x.grad += grad_padded[:, left : left + n_time]
        if bias.needs_grad:
            bias.grad += g.sum(axis=0).sum(axis=0)

    return Node(value, "conv1d", (x, weight, bias), backward)


def lstm_cell(
    x: Node, h: Node, c: Node, weight: Node, bias: Node
) -> tuple[Node, Node]:
    """One step of a four-gate LSTM cell (sigmoid gates, tanh candidate).

    ``weight`` is (input+hidden, 4*hidden) with gate blocks ordered
    input, forget, candidate, output; ``bias`` is (4*hidden,).
    """
    hidden = h.value.shape[1]
    gates = add(matmul(concat([x, h], axis=1), weight), bias)
    i_gate = sigmoid(gates[:, 0 * hidden : 1 * hidden])
    f_gate = sigmoid(gates[:, 1 * hidden : 2 * hidden])
    candidate = tanh(gates[:, 2 * hidden : 3 * hidden])
    o_gate = sigmoid(gates[:, 3 * hidden : 4 * hidden])
    c_next = add(mul(f_gate, c), mul(i_gate, candidate))
    h_next = mul(o_gate, tanh(c_next))
    return h_next, c_next


def lstm_sequence(steps: Node, state: Node, weight: Node, bias: Node) -> Node:
    """``lstm_cell`` over every step of a sequence, as one node whose
    backward is backpropagation through time.

    ``steps`` is (T, batch, input) and ``state`` the incoming
    (batch, 2*hidden) ``[h | c]``; ``weight`` and ``bias`` are as in
    ``lstm_cell``. Returns (T, batch, 2*hidden): row t is ``[h | c]`` after
    step t, so ``out[:, :, :hidden]`` is the hidden sequence and ``out[-1]``
    the state to hand on. Each step keeps the cell's arithmetic and order,
    and the backward accumulates into ``weight`` and ``bias`` one step at a
    time from the last, so values and gradients (of the weight, the bias,
    the input sequence and the incoming state) equal those of the per-step
    cells.
    """
    xv, sv, w, b = steps.value, state.value, weight.value, bias.value
    hidden = b.size // 4
    if (xv.ndim != 3 or b.shape != (4 * hidden,) or sv.shape != (xv.shape[1], 2 * hidden)
            or w.shape != (xv.shape[2] + hidden, 4 * hidden)):
        raise ShapeError("lstm_sequence", xv.shape, sv.shape, w.shape, b.shape)
    n_steps, batch, n_in = xv.shape
    i_, f_, g_, o_ = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    xh = np.empty((n_steps, batch, n_in + hidden))
    xh[:, :, :n_in] = xv
    acts = np.empty((n_steps, batch, 4 * hidden))  # i, f, candidate, o
    tanh_c = np.empty((n_steps, batch, hidden))
    value = np.empty((n_steps, batch, 2 * hidden))
    h, c = sv[:, :hidden], sv[:, hidden:]
    # exp(-gates) = inf saturates a sigmoid to exactly 0; one errstate per
    # call, as entering one costs about as much as a step's sigmoid
    with np.errstate(over="ignore"):
        for t in range(n_steps):
            xh[t, :, n_in:] = h
            gates = xh[t] @ w + b
            act = acts[t]
            # the sigmoid of every block, then the candidate block's tanh:
            # the same elementwise arithmetic as the cell's per-block nodes
            np.divide(1.0, 1.0 + np.exp(-gates), out=act)
            np.tanh(gates[:, g_], out=act[:, g_])
            c_next = np.add(act[:, f_] * c, act[:, i_] * act[:, g_], out=value[t, :, hidden:])
            h = np.multiply(act[:, o_], np.tanh(c_next, out=tanh_c[t]),
                            out=value[t, :, :hidden])
            c = c_next

    def backward(out):
        grad = out.grad
        i_gate, f_gate, cand, o_gate = (acts[:, :, s] for s in (i_, f_, g_, o_))
        # gate gradient = (d_act * scale) * slope: sigmoid' is (g * s) * (1 - s)
        # and the candidate's tanh' is (g * 1) * (1 - t * t)
        scale = acts.copy()
        scale[:, :, g_] = 1.0
        slope = 1.0 - acts
        slope[:, :, g_] = 1.0 - cand * cand
        tanh_slope = 1.0 - tanh_c * tanh_c
        d_act = np.empty((batch, 4 * hidden))
        dh_carry = dc_carry = 0.0
        for t in reversed(range(n_steps)):
            c_prev = sv[:, hidden:] if t == 0 else value[t - 1, :, hidden:]
            dh = grad[t, :, :hidden] + dh_carry
            np.multiply(dh, tanh_c[t], out=d_act[:, o_])
            dc = (grad[t, :, hidden:] + dc_carry) + (dh * o_gate[t]) * tanh_slope[t]
            np.multiply(dc, c_prev, out=d_act[:, f_])
            np.multiply(dc, cand[t], out=d_act[:, i_])
            np.multiply(dc, i_gate[t], out=d_act[:, g_])
            d_gates = d_act * scale[t] * slope[t]
            bias.grad += d_gates.sum(axis=0)
            weight.grad += xh[t].T @ d_gates
            d_xh = d_gates @ weight.value.T
            if steps.needs_grad:
                steps.grad[t] += d_xh[:, :n_in]
            dh_carry = d_xh[:, n_in:]
            dc_carry = dc * f_gate[t]
        if state.needs_grad:
            state.grad[:, :hidden] += dh_carry
            state.grad[:, hidden:] += dc_carry

    return Node(value, "lstm_sequence", (steps, state, weight, bias), backward)


def coupling_inverse(
    x: Node,
    context: Node,
    hidden: Sequence[tuple[Node, Node]],
    head_w: Node,
    head_b: Node,
    scale_cap: Node,
    masks: Sequence[np.ndarray] | None,
    swap: bool,
) -> Node:
    """Data-to-base pass of one affine coupling layer as a single node.

    With ``half = len(scale_cap)`` and ``dim = 2 * half``, ``x`` is
    (batch, dim + 1): the points, then the running log-det of the layers
    inverted before (``-0.0`` before the first). The first half ``x1``
    passes through. The conditioner runs on ``x1`` concatenated with
    ``context`` ((batch, 0) for kind none): ``h = tanh(h @ w + b)`` per hidden
    layer, each multiplied by its inverted-dropout mask when ``masks`` (one
    (batch, width) array of 0 and 1/(1 - rate) per hidden layer, drawn by the
    caller) is given, then ``raw = h @ head_w + head_b``. With
    ``log_scale = scale_cap * tanh(raw[:, :half])`` and
    ``shift = raw[:, half:]``, the second half becomes
    ``u2 = (x2 - shift) * exp(-log_scale)``.

    Returns (batch, dim + 1): ``[x1 | u2]`` (``[u2 | x1]`` with ``swap``),
    then the running log-det plus ``-log_scale.sum(axis=1)``. Values and
    gradients, the context's included, equal those of the same composition
    of primitives. ``x`` and ``context`` may be constants (``needs_grad``
    False), and the backward then skips their gradients; the weights are
    Parameters.
    """
    xv = x.value
    half = scale_cap.value.shape[0]
    dim = 2 * half
    x1, x2 = xv[:, :half], xv[:, half:dim]
    h = np.concatenate([x1, context.value], axis=1)
    inputs, acts = [], []
    for (w, b), mask in zip(hidden, masks or [None] * len(hidden)):
        inputs.append(h)
        t = h @ w.value
        t += b.value
        acts.append(np.tanh(t, out=t))
        h = t if mask is None else t * mask
    raw = h @ head_w.value
    raw += head_b.value
    scale = np.tanh(raw[:, :half])
    diff = np.subtract(x2, raw[:, half:], out=raw[:, half:])
    log_scale = scale_cap.value * scale
    log_det = log_scale.sum(axis=1)
    np.negative(log_det, out=log_det)
    inv_scale = np.exp(np.negative(log_scale, out=log_scale), out=log_scale)
    value = np.empty((xv.shape[0], dim + 1))
    u2_cols, x1_cols = slice(0, half), slice(half, dim)
    if not swap:
        u2_cols, x1_cols = x1_cols, u2_cols
    value[:, x1_cols] = x1
    np.multiply(diff, inv_scale, out=value[:, u2_cols])
    np.add(xv[:, dim], log_det, out=value[:, dim])
    parents = [x, context]
    for w, b in hidden:
        parents.extend([w, b])
    grad_x, grad_context = x.needs_grad, context.needs_grad

    def backward(out):
        g = out.grad
        g_log_det = g[:, dim]
        g_u2, g_x1 = g[:, u2_cols], g[:, x1_cols]
        g_diff = g_u2 * inv_scale
        g_log_scale = g_u2 * diff
        g_log_scale *= inv_scale
        np.subtract(-g_log_det[:, None], g_log_scale, out=g_log_scale)
        # np.add.reduce is ndarray.sum without its Python-level wrapper
        scale_cap.grad += np.add.reduce(g_log_scale * scale, axis=0)
        g_raw = np.empty((g.shape[0], dim))
        np.multiply(g_log_scale, scale_cap.value, out=g_raw[:, :half])
        g_raw[:, :half] *= 1.0 - scale * scale
        np.negative(g_diff, out=g_raw[:, half:])
        head_b.grad += np.add.reduce(g_raw, axis=0)
        head_w.grad += h.T @ g_raw
        g_h = g_raw @ head_w.value.T
        for j in reversed(range(len(hidden))):
            w, b = hidden[j]
            if masks:
                g_h *= masks[j]
            slope = acts[j] * acts[j]
            g_h *= np.subtract(1.0, slope, out=slope)
            b.grad += np.add.reduce(g_h, axis=0)
            w.grad += inputs[j].T @ g_h
            if j > 0 or grad_x or grad_context:
                g_h = g_h @ w.value.T
        if grad_context:
            context.grad += g_h[:, half:]
        if grad_x:
            x.grad[:, :half] += g_x1 + g_h[:, :half]
            x.grad[:, half:dim] += g_diff
            x.grad[:, dim] += g_log_det

    return Node(value, "coupling", parents + [head_w, head_b, scale_cap], backward)


# -- graph traversal ------------------------------------------------------


def _topo_order(root: Node) -> list[Node]:
    """Every node ``root`` reaches, ``root`` included, once each, in creation
    order (``seq``): a topological order, as a node is created after its
    parents."""
    reached = {root}  # a Node hashes by identity
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if parent not in reached:
                reached.add(parent)
                stack.append(parent)
    return sorted(reached, key=attrgetter("seq"))


def backward(root: Node) -> None:
    """Accumulate d(root)/d(node) over the whole graph into each ``grad``.

    The root must be scalar. Nodes run their backward in reverse creation
    order, so each consumer of a node (created after it) has added its part
    before the node passes its gradient on. A value consumed by several
    downstream nodes receives the sum of all its contributions. A
    Parameter's ``grad`` is zeroed and accumulated in place (in its view of
    the gradient buffer once packed), so the next ``backward`` overwrites it,
    and a parameter the graph does not reach keeps its old ``grad``; every
    other node that needs a gradient gets a new array, and one that needs
    none (a constant and everything computed from constants only) keeps
    ``grad`` None.
    """
    if root.value.size != 1:
        raise ValueError(f"backward requires a scalar root, got shape {root.value.shape}")
    if not root.needs_grad:
        return
    order = _topo_order(root)
    for node in order:
        if isinstance(node, Parameter):
            node.grad.fill(0.0)
        elif node.needs_grad:
            node.grad = np.zeros_like(node.value)
    root.grad.fill(1.0)
    for node in reversed(order):
        if node._backward is not None and node.needs_grad:
            node._backward(node)

