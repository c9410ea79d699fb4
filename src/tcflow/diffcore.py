"""Minimal reverse-mode differentiation engine over dense float64 arrays.

Graphs are built eagerly: creating a node computes its value immediately, so
the "forward pass" happens at construction time and every intermediate is
cached on its node. ``backward`` then walks the graph once in reverse
topological order and accumulates gradients with the chain rule.

Supported operations: add, multiply (both broadcasting), matmul, tanh,
sigmoid, exp, log, sum, mean, slicing, concat, reshape, inverted dropout and
1-D "same" convolution over the time axis. One LSTM cell step,
``lstm_cell``, is a composition of these primitives (about 16 nodes).
Two fused nodes have a hand-written backward, because the graphs of
primitives they replace are mostly Python overhead on small arrays:
``lstm_sequence`` runs an LSTM layer over a whole sequence (backpropagation
through time), and ``coupling_inverse`` is the inverse of one affine coupling
layer (conditioner net, scale, shift, log-det; ~40 nodes). The values and
gradients of each equal those of the composition it replaces.

``pack`` moves a list of parameters into one contiguous value buffer and one
gradient buffer: each ``value`` and ``grad`` becomes a view, ``backward``
writes each parameter's gradient in place into its ``grad``, and an
optimizer reads them all from the buffer and updates every parameter with
one vectorized op per step.

Graphs are single-owner: build and differentiate a graph on one thread.
Independent graphs (e.g. separate search candidates) can run on separate
workers.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""

    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {' and '.join(str(s) for s in shapes)}")
        self.op = op
        self.shapes = shapes


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim > 3:
        raise ShapeError("node", arr.shape)
    return arr


class Node:
    """One value in the computation graph.

    ``grad`` is None until ``backward`` reaches the node (a Parameter's is
    a zero array from the start), then it has the shape of ``value``;
    ``parents`` are the inputs of ``op`` in order. Leaves have no parents.
    """

    __slots__ = ("value", "grad", "op", "parents", "_backward")

    def __init__(self, value, op: str = "leaf", parents: Sequence["Node"] = ()):
        self.value = _as_array(value)
        self.grad = None
        self.op = op
        self.parents = tuple(parents)
        # takes the node itself instead of closing over it: a graph then has
        # no reference cycle and is freed as soon as it is unreachable
        self._backward: Callable[[Node], None] | None = None

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __getitem__(self, key):
        return getitem(self, key)


class Parameter(Node):
    """A named trainable leaf with its own ``grad`` array; after ``pack``,
    its ``value`` and ``grad`` are views into the buffers made there."""

    __slots__ = ("name",)

    def __init__(self, value, name: str):
        super().__init__(value, op="param")
        self.grad = np.zeros_like(self.value)
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


def _wrap(value) -> Node:
    return value if isinstance(value, Node) else constant(value)


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
    out = Node(value, "add", (a, b))

    def backward(out):
        a.grad += _unbroadcast(out.grad, a.value.shape)
        b.grad += _unbroadcast(out.grad, b.value.shape)

    out._backward = backward
    return out


def sub(a: Node, b: Node) -> Node:
    try:
        value = a.value - b.value
    except ValueError:
        raise ShapeError("sub", a.value.shape, b.value.shape) from None
    out = Node(value, "sub", (a, b))

    def backward(out):
        a.grad += _unbroadcast(out.grad, a.value.shape)
        b.grad -= _unbroadcast(out.grad, b.value.shape)

    out._backward = backward
    return out


def neg(a: Node) -> Node:
    out = Node(-a.value, "neg", (a,))

    def backward(out):
        a.grad -= out.grad

    out._backward = backward
    return out


def mul(a: Node, b: Node) -> Node:
    try:
        value = a.value * b.value
    except ValueError:
        raise ShapeError("mul", a.value.shape, b.value.shape) from None
    out = Node(value, "mul", (a, b))

    def backward(out):
        a.grad += _unbroadcast(out.grad * b.value, a.value.shape)
        b.grad += _unbroadcast(out.grad * a.value, b.value.shape)

    out._backward = backward
    return out


def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ShapeError("matmul", a.value.shape, b.value.shape)
    out = Node(a.value @ b.value, "matmul", (a, b))

    def backward(out):
        a.grad += out.grad @ b.value.T
        b.grad += a.value.T @ out.grad

    out._backward = backward
    return out


def tanh(a: Node) -> Node:
    out = Node(np.tanh(a.value), "tanh", (a,))

    def backward(out):
        a.grad += out.grad * (1.0 - out.value * out.value)

    out._backward = backward
    return out


def sigmoid(a: Node) -> Node:
    with np.errstate(over="ignore"):  # exp(-x) = inf saturates to 0
        value = 1.0 / (1.0 + np.exp(-a.value))
    out = Node(value, "sigmoid", (a,))

    def backward(out):
        a.grad += out.grad * out.value * (1.0 - out.value)

    out._backward = backward
    return out


def exp(a: Node) -> Node:
    out = Node(np.exp(a.value), "exp", (a,))

    def backward(out):
        a.grad += out.grad * out.value

    out._backward = backward
    return out


def log(a: Node) -> Node:
    out = Node(np.log(a.value), "log", (a,))

    def backward(out):
        a.grad += out.grad / a.value

    out._backward = backward
    return out


def sum_(a: Node, axis: int | None = None, keepdims: bool = False) -> Node:
    out = Node(a.value.sum(axis=axis, keepdims=keepdims), "sum", (a,))

    def backward(out):
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a.grad += np.broadcast_to(g, a.value.shape)

    out._backward = backward
    return out


def mean(a: Node, axis: int | None = None, keepdims: bool = False) -> Node:
    n = a.value.size if axis is None else a.value.shape[axis]
    out = Node(a.value.mean(axis=axis, keepdims=keepdims), "mean", (a,))

    def backward(out):
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a.grad += np.broadcast_to(g, a.value.shape) / n

    out._backward = backward
    return out


def getitem(a: Node, key) -> Node:
    out = Node(a.value[key], "slice", (a,))

    def backward(out):
        scattered = np.zeros_like(a.value)
        scattered[key] = out.grad
        a.grad += scattered

    out._backward = backward
    return out


def concat(nodes: Sequence[Node], axis: int = 0) -> Node:
    nodes = list(nodes)
    try:
        value = np.concatenate([n.value for n in nodes], axis=axis)
    except ValueError:
        raise ShapeError("concat", *[n.value.shape for n in nodes]) from None
    out = Node(value, "concat", nodes)
    sizes = [n.value.shape[axis] for n in nodes]
    offsets = np.cumsum([0] + sizes)

    def backward(out):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * out.grad.ndim
            idx[axis] = slice(lo, hi)
            node.grad += out.grad[tuple(idx)]

    out._backward = backward
    return out


def reshape(a: Node, shape) -> Node:
    out = Node(a.value.reshape(shape), "reshape", (a,))

    def backward(out):
        a.grad += out.grad.reshape(a.value.shape)

    out._backward = backward
    return out


def dropout(a: Node, rate: float, rng: np.random.Generator, training: bool) -> Node:
    """Inverted dropout: kept activations are scaled by 1/(1-rate).

    Identity outside training mode, so inference never touches the rng.
    """
    if not training or rate <= 0.0:
        return a
    if rate >= 1.0:
        raise ValueError(f"dropout rate must be < 1, got {rate}")
    mask = (rng.random(a.value.shape) >= rate) / (1.0 - rate)
    out = Node(a.value * mask, "dropout", (a,))

    def backward(out):
        a.grad += out.grad * mask

    out._backward = backward
    return out


def conv1d(x: Node, weight: Node, bias: Node | None = None) -> Node:
    """Cross-correlation over the time axis with "same" zero padding.

    ``x`` is (batch, time, in_channels) and ``weight`` is
    (kernel, in_channels, out_channels); the output keeps the time length.
    """
    if x.value.ndim != 3 or weight.value.ndim != 3 or x.value.shape[2] != weight.value.shape[1]:
        raise ShapeError("conv1d", x.value.shape, weight.value.shape)
    kernel = weight.value.shape[0]
    left, right = (kernel - 1) // 2, kernel // 2
    padded = np.pad(x.value, ((0, 0), (left, right), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, kernel, axis=1)
    value = np.einsum("btck,kco->bto", windows, weight.value)
    out = Node(value, "conv1d", (x, weight))
    n_time = x.value.shape[1]

    def backward(out):
        weight.grad += np.einsum("btck,bto->kco", windows, out.grad)
        grad_padded = np.zeros_like(padded)
        for k in range(kernel):
            grad_padded[:, k : k + n_time, :] += out.grad @ weight.value[k].T
        x.grad += grad_padded[:, left : left + n_time, :]

    out._backward = backward
    result = out if bias is None else add(out, bias)
    return result


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
    out = Node(value, "lstm_sequence", (steps, state, weight, bias))

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
            steps.grad[t] += d_xh[:, :n_in]
            dh_carry = d_xh[:, n_in:]
            dc_carry = dc * f_gate[t]
        state.grad[:, :hidden] += dh_carry
        state.grad[:, hidden:] += dc_carry

    out._backward = backward
    return out


def coupling_inverse(
    x: Node,
    context: Node | None,
    hidden: Sequence[tuple[Node, Node]],
    head_w: Node,
    head_b: Node,
    scale_cap: Node,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    swap: bool = False,
) -> Node:
    """Data-to-base pass of one affine coupling layer as a single node.

    With ``half = len(scale_cap)`` and ``dim = 2 * half``, ``x`` is
    (batch, dim), or (batch, dim + 1) when its last column carries the
    running log-det of the layers inverted before. The first half ``x1``
    passes through. The conditioner runs on ``x1`` concatenated with
    ``context``: ``h = tanh(h @ w + b)`` per hidden layer, each followed by
    inverted dropout when ``dropout_rate`` > 0 (masks drawn from ``rng`` in
    layer order), then ``raw = h @ head_w + head_b``. With
    ``log_scale = scale_cap * tanh(raw[:, :half])`` and
    ``shift = raw[:, half:]``, the second half becomes
    ``u2 = (x2 - shift) * exp(-log_scale)``.

    Returns (batch, dim + 1): ``[x1 | u2]`` (``[u2 | x1]`` with ``swap``),
    then the running log-det plus ``-log_scale.sum(axis=1)``. Values and
    gradients, the context's included, equal those of the same composition
    of primitives.
    """
    xv = x.value
    half = scale_cap.value.shape[0]
    dim = 2 * half
    chained = xv.shape[1] == dim + 1
    x1, x2 = xv[:, :half], xv[:, half:dim]
    h = x1 if context is None else np.concatenate([x1, context.value], axis=1)
    inputs, acts, masks = [], [], []
    for w, b in hidden:
        inputs.append(h)
        t = np.tanh(h @ w.value + b.value)
        acts.append(t)
        mask = None
        if dropout_rate > 0.0:
            mask = (rng.random(t.shape) >= dropout_rate) / (1.0 - dropout_rate)
            t = t * mask
        masks.append(mask)
        h = t
    raw = h @ head_w.value + head_b.value
    scale = np.tanh(raw[:, :half])
    log_scale = scale_cap.value * scale
    diff = x2 - raw[:, half:]
    inv_scale = np.exp(-log_scale)
    u2 = diff * inv_scale
    log_det = -log_scale.sum(axis=1)
    value = np.empty((xv.shape[0], dim + 1))
    first, second = (u2, x1) if swap else (x1, u2)
    value[:, :half] = first
    value[:, half:dim] = second
    value[:, dim] = xv[:, dim] + log_det if chained else log_det
    parents = [x] + ([] if context is None else [context])
    for w, b in hidden:
        parents.extend([w, b])
    out = Node(value, "coupling", parents + [head_w, head_b, scale_cap])

    def backward(out):
        g = out.grad
        g_log_det = g[:, dim]
        g_u2, g_x1 = (g[:, :half], g[:, half:dim]) if swap else (g[:, half:dim], g[:, :half])
        g_diff = g_u2 * inv_scale
        g_log_scale = -g_log_det[:, None] - g_u2 * diff * inv_scale
        scale_cap.grad += (g_log_scale * scale).sum(axis=0)
        g_raw = np.concatenate(
            [g_log_scale * scale_cap.value * (1.0 - scale * scale), -g_diff], axis=1)
        head_b.grad += g_raw.sum(axis=0)
        head_w.grad += h.T @ g_raw
        g_h = g_raw @ head_w.value.T
        for (w, b), h_in, t, mask in zip(hidden[::-1], inputs[::-1], acts[::-1], masks[::-1]):
            if mask is not None:
                g_h = g_h * mask
            g_pre = g_h * (1.0 - t * t)
            b.grad += g_pre.sum(axis=0)
            w.grad += h_in.T @ g_pre
            g_h = g_pre @ w.value.T
        if context is not None:
            context.grad += g_h[:, half:]
            g_h = g_h[:, :half]
        x.grad[:, :half] += g_x1 + g_h
        x.grad[:, half:dim] += g_diff
        if chained:
            x.grad[:, dim] += g_log_det

    out._backward = backward
    return out


# -- graph traversal ------------------------------------------------------


def _topo_order(root: Node) -> list[Node]:
    """Iterative post-order DFS; safe for long sequential graphs."""
    order: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(root: Node) -> None:
    """Accumulate d(root)/d(node) over the whole graph into each ``grad``.

    The root must be scalar. A value consumed by several downstream nodes
    receives the sum of all its contributions. A Parameter's ``grad`` is
    zeroed and accumulated in place (in its view of the gradient buffer once
    packed), so the next ``backward`` overwrites it, and a parameter the
    graph does not reach keeps its old ``grad``; every other node gets a new
    array.
    """
    if root.value.size != 1:
        raise ValueError(f"backward requires a scalar root, got shape {root.value.shape}")
    order = _topo_order(root)
    for node in order:
        if isinstance(node, Parameter):
            node.grad.fill(0.0)
        else:
            node.grad = np.zeros_like(node.value)
    root.grad.fill(1.0)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node)

