"""Affine coupling flow with context-conditioned scale/shift networks.

Each coupling layer leaves the first half of the channels untouched and
applies ``x2 = u2 * exp(s) + t`` to the second half, where ``(s, t)`` come
from a small fully connected net fed with the untouched half concatenated
with a per-timestep context vector. The raw scale is squashed through tanh
and multiplied by a learnable per-feature cap, so ``exp(s)`` can never
overflow. Halves are swapped between consecutive layers so every channel
gets transformed. ``FlowConfig`` holds the stack's five hyperparameters,
each under one name: its field, its ``[flow]`` config key and its search row.

The detector runs only the data-to-base direction: ``CouplingLayer.inverse``
is one fused node per layer, and ``FlowModel.latent_nodes``, the one entry,
chains them; each layer takes and returns ``[points | running log-det]``. The
base-to-data direction is a test reference (``composed_forward`` in
``tests/helpers.py``), not part of the package. Dropout is drawn iff an rng
is passed, once per pass: one ``rng.random`` call draws the masks of every
hidden layer of every coupling layer, the same doubles in the same order as
one draw per hidden layer. ``dense`` initializes every trainable layer, the
encoders' too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import accumulate, chain
from typing import ClassVar

import numpy as np

from . import diffcore as dc
from .diffcore import Node, Parameter

LOG_TWO_PI = math.log(2.0 * math.pi)
TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}  # every default's type


class FlowNanError(FloatingPointError):
    """NaN appeared while normalizing; carries the offending layer index."""

    def __init__(self, layer_index: int):
        super().__init__(f"NaN produced by coupling layer {layer_index}")
        self.layer_index = layer_index


def field_defaults(cls, skip=()) -> dict:
    return {f.name: f.default for f in fields(cls) if f.name not in skip}


def check_values(values: dict, defaults: dict, ranges: dict) -> None:
    """Reject the first entry of ``values`` not of its default's type (a bool is
    no number; an int and ``np.float64`` pass for a float) or outside its
    inclusive ``ranges`` (NaN is outside every range), named by its key."""
    for name, value in values.items():
        kind = type(defaults[name])
        if not (isinstance(value, kind) and type(value) is not bool
                or kind is float and type(value) is int):
            raise TypeError(f"{name} {value!r} is not {TYPE_NAMES[kind]}")
        if name in ranges:
            lower, upper = ranges[name]
            if not lower <= value <= upper:
                raise ValueError(f"{name} out of range [{lower}, {upper}]: {value}")


@dataclass
class FlowConfig:
    """Hyperparameters of the coupling stack: its layer count, then the
    per-layer scale/shift network's width multiplier, hidden layer count,
    dropout rate and funnel (the factor by which each hidden layer narrows).

    Each field is its ``[flow]`` config key and, where its range is finite,
    its search row. ``RANGES`` bounds each field, inclusively; the search
    space searches the same ranges.
    """

    coupling_layers: int = 4
    cond_multiplier: int = 4
    cond_layers: int = 3
    cond_dropout: float = 0.1
    cond_funnel: float = 1.5

    RANGES: ClassVar[dict[str, tuple]] = {
        "coupling_layers": (1, math.inf),
        "cond_multiplier": (1, 50),
        "cond_layers": (3, 8),
        "cond_dropout": (0.1, 0.9),
        "cond_funnel": (1.0, 10.0),
    }

    def __post_init__(self):
        check_values(vars(self), field_defaults(FlowConfig), self.RANGES)


def gaussian_log_density(u) -> np.ndarray:
    """Standard normal log density over the last axis of ``u``."""
    u = np.asarray(u, dtype=np.float64)
    return -0.5 * u.shape[-1] * LOG_TWO_PI - 0.5 * (u * u).sum(axis=-1)


def _gaussian_log_density_nodes(u: Node) -> Node:
    dim = u.value.shape[1]
    squared = dc.sum_(dc.mul(u, u), axis=1)
    return dc.add(dc.mul(squared, dc.constant(-0.5)), dc.constant(-0.5 * dim * LOG_TWO_PI))


def dense(rng: np.random.Generator, fan_in: int, fan_out: int, name: str,
          shape: tuple[int, ...] | None = None) -> tuple[Parameter, Parameter]:
    """Glorot-uniform weight ``{name}.w`` of ``shape`` (default
    ``(fan_in, fan_out)``) and zero bias ``{name}.b`` of ``fan_out``."""
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return (Parameter(rng.uniform(-bound, bound, shape or (fan_in, fan_out)), f"{name}.w"),
            Parameter(np.zeros(fan_out), f"{name}.b"))


def _hidden_widths(cfg: FlowConfig, dim: int) -> list[int]:
    widths = []
    width = float(cfg.cond_multiplier * dim)
    for _ in range(cfg.cond_layers):
        widths.append(max(2, int(width)))
        width = width / cfg.cond_funnel
    return widths


class CouplingLayer:
    """One affine coupling step over an even ``dim`` of channels with context
    input; ``cfg``'s ``cond_*`` fields shape its scale/shift network."""

    def __init__(self, dim: int, context_dim: int, cfg: FlowConfig,
                 rng: np.random.Generator, name: str):
        self.dim = dim
        self.context_dim = context_dim
        half = dim // 2
        self.hidden: list[tuple[Parameter, Parameter]] = []
        prev = half + context_dim
        for j, width in enumerate(_hidden_widths(cfg, dim)):
            self.hidden.append(dense(rng, prev, width, f"{name}.h{j}"))
            prev = width
        # zero head: the layer starts as the identity transform
        self.head_w = Parameter(np.zeros((prev, dim)), f"{name}.head.w")
        self.head_b = Parameter(np.zeros(dim), f"{name}.head.b")
        self.scale_cap = Parameter(np.ones(half), f"{name}.scale_cap")

    def parameters(self) -> list[Parameter]:
        return [*chain(*self.hidden), self.head_w, self.head_b, self.scale_cap]

    def inverse(self, x: Node, context: Node, masks: list[np.ndarray] | None, swap: bool) -> Node:
        """Data-to-base direction as one fused node (``dc.coupling_inverse``),
        with the inverted-dropout ``masks`` of the conditioner net's hidden
        layers, one (batch, width) array each, or None for no dropout.

        ``x`` is (batch, dim + 1): the points, then the running log-det.
        ``context`` is a (batch, context_dim) node, (batch, 0) for kind ``none``.
        Returns the same form: the transformed points (halves swapped when
        ``swap``), then the running log-det plus this layer's, which is the
        negated forward one."""
        if x.value.ndim != 2 or x.value.shape[1] != self.dim + 1:
            raise dc.ShapeError("coupling", x.value.shape, (self.dim + 1,))
        if context.value.shape[1] != self.context_dim:
            raise dc.ShapeError("coupling context", context.value.shape[1:], (self.context_dim,))
        return dc.coupling_inverse(x, context, self.hidden, self.head_w, self.head_b,
                                   self.scale_cap, masks, swap)


class FlowModel:
    """Stack of ``config.coupling_layers`` coupling layers with one shared
    context encoder.

    The encoder (a ``conditioners.Encoder``, whose ``split`` and ``batches``
    pair rows with contexts; the base ``Encoder`` for the unconditioned flow)
    turns lookback windows into the context vector fed to every layer of the
    stack for the same timestep. ``norm_stats`` are the ``data.prepare``
    (min, max) per channel: finite, no min above its max. Scoring never
    mutates the model, so a trained instance may be shared read-only;
    training owns it exclusively.
    """

    def __init__(self, dim: int, config: FlowConfig, encoder, norm_stats,
                 rng: np.random.Generator, model_id: str = "flow"):
        if dim % 2 != 0 or dim < 2:
            raise ValueError(f"channel count must be even and >= 2, got {dim}")
        lo, hi = np.array(norm_stats, dtype=np.float64)  # a copy the model owns
        if dim != len(lo) + len(lo) % 2:  # prepare pads an odd channel count to even
            raise ValueError(f"dim {dim} does not fit {len(lo)} norm_stats channels")
        for bad, problem in ((~(np.isfinite(lo) & np.isfinite(hi)), "non-finite norm_stats"),
                             (lo > hi, "norm_stats min above max")):
            if bad.any():
                raise ValueError(f"{problem} for channel {np.argmax(bad)}")
        self.dim = dim
        self.config = config
        self.encoder = encoder
        self.norm_stats = (lo, hi)
        self.model_id = model_id
        self.layers = [
            CouplingLayer(dim, encoder.context_dim, config, rng, f"layer{i}")
            for i in range(config.coupling_layers)
        ]

    def parameters(self) -> list[Parameter]:
        params = []
        for layer in self.layers:
            params.extend(layer.parameters())
        params.extend(self.encoder.parameters())
        return params

    def latent_nodes(self, points: np.ndarray, context: Node,
                     rng: np.random.Generator | None) -> tuple[Node, Node]:
        """Normalize points: (latent, per-row summed log|det J|) as graph nodes.

        ``points`` is a (batch, dim) array, which enters the pass as one
        constant ``[points | -0.0]``: -0.0 + v is v for every v, a zero's
        sign included, so the first layer's running log-det is its own bit
        for bit. ``context`` is the (batch, context_dim) node an encoder
        gives, through which gradients flow into it. The same context row
        conditions every layer of the stack. Dropout is drawn iff ``rng`` is
        not None (``_dropout_masks``). A NaN in the latent raises
        ``FlowNanError`` for the first layer of the pass that produced one:
        a NaN stays in the points of every later layer.
        """
        x = dc.constant(np.concatenate([points, np.full((len(points), 1), -0.0)], axis=1))
        order = list(reversed(range(len(self.layers))))
        masks = (self._dropout_masks(len(points), rng) if rng is not None
                 else [None] * len(order))
        outputs = []
        for i, layer_masks in zip(order, masks):
            x = self.layers[i].inverse(x, context, layer_masks, swap=i > 0)
            outputs.append(x)
        if np.isnan(x.value[:, : self.dim]).any():
            raise FlowNanError(next(i for i, out in zip(order, outputs)
                                    if np.isnan(out.value[:, : self.dim]).any()))
        return x[:, : self.dim], x[:, self.dim]

    def _dropout_masks(self, batch: int, rng: np.random.Generator) -> list[list[np.ndarray]]:
        """Inverted-dropout masks of one pass: per layer in pass order, one
        (batch, width) view per hidden layer of a single ``rng.random`` draw
        over all of them, kept where the draw is >= the rate and scaled by
        1/(1 - rate)."""
        rate = self.config.cond_dropout
        widths = [w.value.shape[1] for w, _ in self.layers[0].hidden]
        masks = rng.random(len(self.layers) * batch * sum(widths))
        # the kept flags as 1.0 and 0.0, written over the draw
        np.greater_equal(masks, rate, out=masks, casting="unsafe")
        masks /= 1.0 - rate
        bounds = [0, *accumulate(batch * width for width in widths)]
        return [[row[lo:hi].reshape(batch, -1) for lo, hi in zip(bounds, bounds[1:])]
                for row in masks.reshape(len(self.layers), -1)]

    def log_prob_nodes(self, points, context: Node, rng: np.random.Generator | None) -> Node:
        """Per-row conditional log density as a graph node: the base density
        of the latent plus the log-det of the normalizing pass."""
        latent, log_det = self.latent_nodes(points, context, rng)
        return dc.add(_gaussian_log_density_nodes(latent), log_det)


def nll_loss(model: FlowModel, points, context: Node, rng: np.random.Generator | None) -> Node:
    """Mean negative log density over a batch; errors on an empty batch."""
    points = np.asarray(points, dtype=np.float64)
    if points.shape[0] == 0:
        raise ValueError("nll_loss requires a non-empty batch")
    log_probs = model.log_prob_nodes(points, context, rng)
    return dc.mean(dc.neg(log_probs))
