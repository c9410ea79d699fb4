"""Minimal reverse-mode differentiation engine over dense float64 arrays.

Graphs are built eagerly: creating a node computes its value immediately, so
the "forward pass" happens at construction time and every intermediate is
cached on its node. ``backward`` then walks the graph once in reverse
topological order and accumulates gradients with the chain rule.

Supported operations: add, multiply (both broadcasting), matmul, tanh,
sigmoid, exp, log, sum, mean, slicing, concat, reshape, inverted dropout and
1-D "same" convolution over the time axis. An LSTM cell step is provided as a
composition of these primitives, so its backward pass needs no special code.

Graphs are single-owner: build and differentiate a graph on one thread.
Independent graphs (e.g. separate search candidates) can run on separate
workers.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

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

    ``grad`` is None until ``backward`` reaches the node, then it has the
    shape of ``value``; ``parents`` are the inputs of ``op`` in order.
    Leaves have no parents.
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
    """A named trainable leaf."""

    __slots__ = ("name", "trainable")

    def __init__(self, value, name: str, trainable: bool = True):
        super().__init__(value, op="param")
        self.name = name
        self.trainable = trainable

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


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
    out = Node(1.0 / (1.0 + np.exp(-a.value)), "sigmoid", (a,))

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


def backward(root: Node) -> dict[str, np.ndarray]:
    """Accumulate d(root)/d(node) over the whole graph.

    Returns the gradient per trainable Parameter, keyed by name. The root
    must be scalar. A value consumed by several downstream nodes receives
    the sum of all its contributions.
    """
    if root.value.size != 1:
        raise ValueError(f"backward requires a scalar root, got shape {root.value.shape}")
    order = _topo_order(root)
    for node in order:
        node.grad = np.zeros_like(node.value)
    root.grad = np.ones_like(root.value)
    grads: dict[str, np.ndarray] = {}
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node)
        if isinstance(node, Parameter) and node.trainable:
            grads[node.name] = node.grad
    return grads


def finite_diff_check(
    build_loss: Callable[[], Node],
    params: Iterable[Parameter],
    epsilon: float = 1e-5,
) -> float:
    """Max entrywise relative error between analytic and central-difference
    gradients: |analytic - numeric| / (|analytic| + |numeric| + 1e-12).

    ``build_loss`` must rebuild the scalar loss from the parameters' current
    values and be deterministic (dropout disabled).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    params = list(params)
    analytic = backward(build_loss())
    worst = 0.0
    for p in params:
        a_grad = analytic.get(p.name)
        if a_grad is None:
            raise KeyError(f"parameter {p.name!r} not reached by the loss graph")
        for idx in np.ndindex(p.value.shape):
            saved = p.value[idx]
            p.value[idx] = saved + epsilon
            f_plus = float(build_loss().value)
            p.value[idx] = saved - epsilon
            f_minus = float(build_loss().value)
            p.value[idx] = saved
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            a = float(a_grad[idx])
            err = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12)
            worst = max(worst, err)
    return worst
