"""Affine coupling flow with context-conditioned scale/shift networks.

Each coupling layer leaves the first half of the channels untouched and
applies ``x2 = u2 * exp(s) + t`` to the second half, where ``(s, t)`` come
from a small fully connected net fed with the untouched half concatenated
with a per-timestep context vector. The raw scale is squashed through tanh
and multiplied by a learnable per-feature cap, so ``exp(s)`` can never
overflow. Halves are swapped between consecutive layers so every channel
gets transformed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import diffcore as dc
from .diffcore import Node, Parameter

LOG_TWO_PI = math.log(2.0 * math.pi)


class FlowNanError(FloatingPointError):
    """NaN appeared while normalizing; carries the offending layer index."""

    def __init__(self, layer_index: int):
        super().__init__(f"NaN produced by coupling layer {layer_index}")
        self.layer_index = layer_index


def check_ranges(cfg, names, key_prefix: str = "") -> None:
    """Reject the first of ``names`` outside its inclusive ``cfg.RANGES``
    bounds, naming it as its config key (``key_prefix`` plus the field);
    names without a range pass."""
    for name in names:
        if name in cfg.RANGES:
            lower, upper = cfg.RANGES[name]
            value = getattr(cfg, name)
            if not lower <= value <= upper:
                raise ValueError(f"{key_prefix}{name} out of range [{lower}, {upper}]: {value}")


@dataclass
class ConditionerConfig:
    """Hyperparameters of the per-layer scale/shift network.

    ``RANGES`` bounds each field, inclusively; the search space searches the
    same ranges. Each field's config key and search row is ``KEY_PREFIX``
    plus its name.
    """

    multiplier: int = 4
    layers: int = 3
    dropout: float = 0.1
    funnel: float = 1.5

    KEY_PREFIX: ClassVar[str] = "cond_"
    RANGES: ClassVar[dict[str, tuple]] = {
        "multiplier": (1, 50),
        "layers": (3, 8),
        "dropout": (0.1, 0.9),
        "funnel": (1.0, 10.0),
    }

    def __post_init__(self):
        check_ranges(self, self.RANGES, self.KEY_PREFIX)


@dataclass
class FlowConfig:
    n_layers: int = 4
    conditioner: ConditionerConfig = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.conditioner is None:
            self.conditioner = ConditionerConfig()
        if self.n_layers < 1:
            raise ValueError("need at least one coupling layer")


def gaussian_log_density(u) -> np.ndarray | float:
    """Standard normal log density; accepts a vector or a (batch, dim) array."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim == 1:
        return float(-0.5 * u.shape[0] * LOG_TWO_PI - 0.5 * np.dot(u, u))
    return -0.5 * u.shape[1] * LOG_TWO_PI - 0.5 * (u * u).sum(axis=1)


def _gaussian_log_density_nodes(u: Node) -> Node:
    dim = u.value.shape[1]
    squared = dc.sum_(dc.mul(u, u), axis=1)
    return squared * (-0.5) + (-0.5 * dim * LOG_TWO_PI)


def _hidden_widths(cfg: ConditionerConfig, dim: int) -> list[int]:
    widths = []
    width = float(cfg.multiplier * dim)
    for _ in range(cfg.layers):
        widths.append(max(2, int(width)))
        width = width / cfg.funnel
    return widths


class CouplingLayer:
    """One affine coupling step over ``dim`` channels with context input."""

    def __init__(self, dim: int, context_dim: int, cfg: ConditionerConfig,
                 rng: np.random.Generator, name: str):
        if dim % 2 != 0:
            raise ValueError(f"coupling layer needs an even channel count, got {dim}")
        self.dim = dim
        self.split = dim // 2
        self.context_dim = context_dim
        self.cfg = cfg
        out_half = dim - self.split
        in_dim = self.split + context_dim
        self.hidden: list[tuple[Parameter, Parameter]] = []
        prev = in_dim
        for j, width in enumerate(_hidden_widths(cfg, dim)):
            bound = math.sqrt(6.0 / (prev + width))
            w = Parameter(rng.uniform(-bound, bound, (prev, width)), f"{name}.h{j}.w")
            b = Parameter(np.zeros(width), f"{name}.h{j}.b")
            self.hidden.append((w, b))
            prev = width
        # zero head: the layer starts as the identity transform
        self.head_w = Parameter(np.zeros((prev, 2 * out_half)), f"{name}.head.w")
        self.head_b = Parameter(np.zeros(2 * out_half), f"{name}.head.b")
        self.scale_cap = Parameter(np.ones(out_half), f"{name}.scale_cap")

    def parameters(self) -> list[Parameter]:
        out = []
        for w, b in self.hidden:
            out.extend([w, b])
        out.extend([self.head_w, self.head_b, self.scale_cap])
        return out

    def _scale_shift(self, untouched: Node, context: Node | None,
                     training: bool, rng: np.random.Generator | None) -> tuple[Node, Node]:
        h = untouched if context is None else dc.concat([untouched, context], axis=1)
        for w, b in self.hidden:
            h = dc.tanh(dc.add(dc.matmul(h, w), b))
            if training and self.cfg.dropout > 0:
                h = dc.dropout(h, self.cfg.dropout, rng, training)
        raw = dc.add(dc.matmul(h, self.head_w), self.head_b)
        out_half = self.dim - self.split
        log_scale = dc.mul(self.scale_cap, dc.tanh(raw[:, :out_half]))
        shift = raw[:, out_half:]
        return log_scale, shift

    def forward(self, u: Node, context: Node | None, training: bool = False,
                rng: np.random.Generator | None = None) -> tuple[Node, Node]:
        """Base-to-data direction: returns (x, per-row log|det J|) with
        log-det equal to the row sum of the effective scale."""
        self._check(u, context, (self.dim,))
        u1 = u[:, : self.split]
        u2 = u[:, self.split :]
        log_scale, shift = self._scale_shift(u1, context, training, rng)
        x2 = dc.add(dc.mul(u2, dc.exp(log_scale)), shift)
        return dc.concat([u1, x2], axis=1), dc.sum_(log_scale, axis=1)

    def inverse(self, x: Node, context: Node | None, training: bool = False,
                rng: np.random.Generator | None = None, swap: bool = False) -> Node:
        """Data-to-base direction as one fused node (``dc.coupling_inverse``).

        ``x`` is (batch, dim), or (batch, dim + 1) with a running log-det in
        its last column. Returns (batch, dim + 1): the transformed points
        (halves swapped when ``swap``), then the running log-det plus this
        layer's, which is the negated forward one."""
        self._check(x, context, (self.dim, self.dim + 1))
        rate = self.cfg.dropout if training else 0.0
        return dc.coupling_inverse(x, context, self.hidden, self.head_w, self.head_b,
                                   self.scale_cap, rate, rng, swap)

    def _check(self, points: Node, context: Node | None, widths: tuple[int, ...]):
        if points.value.ndim != 2 or points.value.shape[1] not in widths:
            raise dc.ShapeError("coupling", points.value.shape, widths)
        got_ctx = 0 if context is None else context.value.shape[1]
        if got_ctx != self.context_dim:
            raise dc.ShapeError("coupling context", (got_ctx,), (self.context_dim,))


def _swap_halves(points: Node) -> Node:
    half = points.value.shape[1] // 2
    return dc.concat([points[:, half:], points[:, :half]], axis=1)


class FlowModel:
    """Stack of coupling layers with one shared context encoder.

    The encoder (any object with ``context_dim``, ``parameters()`` and
    ``encode_batch``; the base ``Encoder`` for the unconditioned flow) turns
    lookback windows into the context vector fed to every layer of the stack
    for the same timestep. Scoring never mutates the model, so a trained
    instance may be shared read-only; training owns it exclusively.
    """

    def __init__(self, dim: int, config: FlowConfig, encoder,
                 rng: np.random.Generator, model_id: str = "flow"):
        if dim % 2 != 0 or dim < 2:
            raise ValueError(f"channel count must be even and >= 2, got {dim}")
        self.dim = dim
        self.config = config
        self.encoder = encoder
        self.model_id = model_id
        self.norm_stats = None
        self.layers = [
            CouplingLayer(dim, encoder.context_dim, config.conditioner, rng, f"layer{i}")
            for i in range(config.n_layers)
        ]

    def parameters(self) -> list[Parameter]:
        params = []
        for layer in self.layers:
            params.extend(layer.parameters())
        params.extend(self.encoder.parameters())
        return params

    def _context_node(self, context) -> Node | None:
        if context is None:
            return None
        node = context if isinstance(context, Node) else dc.constant(context)
        if node.value.shape[1] == 0:
            return None
        return node

    def latent_nodes(self, points, context=None, training: bool = False,
                     rng: np.random.Generator | None = None) -> tuple[Node, Node]:
        """Normalize points: (latent, per-row summed log|det J|) as graph nodes.

        ``points`` is (batch, dim); ``context`` is (batch, context_dim), a
        Node when gradients must flow into an encoder. The same context row
        conditions every layer of the stack.
        """
        x = points if isinstance(points, Node) else dc.constant(points)
        ctx = self._context_node(context)
        for i in reversed(range(len(self.layers))):
            x = self.layers[i].inverse(x, ctx, training, rng, swap=i > 0)
            if np.isnan(x.value[:, : self.dim]).any():
                raise FlowNanError(i)
        return x[:, : self.dim], x[:, self.dim]

    def latent(self, points, context=None) -> tuple[np.ndarray, np.ndarray]:
        """Evaluation-mode ``latent_nodes``, plain arrays in and out."""
        latent, log_det = self.latent_nodes(points, context)
        return latent.value, log_det.value

    def log_prob_nodes(self, points, context=None, training: bool = False,
                       rng: np.random.Generator | None = None) -> Node:
        """Per-row conditional log density as a graph node: the base density
        of the latent plus the log-det of the normalizing pass."""
        latent, log_det = self.latent_nodes(points, context, training, rng)
        return dc.add(_gaussian_log_density_nodes(latent), log_det)

    def log_prob(self, points, context=None) -> np.ndarray:
        """Evaluation-mode log density, plain arrays in and out."""
        return self.log_prob_nodes(points, context, training=False).value

    def sample(self, context, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Draw from the base Gaussian and push through the stack."""
        draws = rng.standard_normal((n, self.dim))
        x = dc.constant(draws)
        ctx = None
        if context is not None:
            ctx_arr = np.asarray(context, dtype=np.float64)
            if ctx_arr.ndim == 1:
                ctx_arr = np.broadcast_to(ctx_arr, (n, ctx_arr.shape[0]))
            if ctx_arr.shape[1] > 0:
                ctx = dc.constant(ctx_arr)
        for i, layer in enumerate(self.layers):
            x, _ = layer.forward(x, ctx)
            if i < len(self.layers) - 1:
                x = _swap_halves(x)
        return x.value


def nll_loss(model: FlowModel, points, context=None, training: bool = False,
             rng: np.random.Generator | None = None) -> Node:
    """Mean negative log density over a batch; errors on an empty batch."""
    points = np.asarray(points, dtype=np.float64) if not isinstance(points, Node) else points
    size = points.value.shape[0] if isinstance(points, Node) else points.shape[0]
    if size == 0:
        raise ValueError("nll_loss requires a non-empty batch")
    log_probs = model.log_prob_nodes(points, context, training, rng)
    return dc.mean(dc.neg(log_probs))
