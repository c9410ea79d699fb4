"""Context encoders: turn the lookback window into the conditioning vector.

Six encoder kinds are supported, from a raw passthrough of the window to a
stateful LSTM whose hidden state is carried from timestep to timestep. All
stateless kinds consume a batch of (lookback, channels) slices, the stateful
LSTM a block of consecutive observations in order; either returns a
(batch, context_dim) node. Learnable encoders are trained end to end with
the flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Node, Parameter

KINDS = (
    "none",
    "passthrough",
    "fixed-encode",
    "mlp",
    "cnn",
    "lstm-stateless",
    "lstm-stateful",
)


@dataclass
class EncoderConfig:
    """Encoder kind plus its kind-specific hyperparameters.

    ``lookback`` is the number of past timesteps summarized per target;
    bounds on the learnable-kind fields match the search space.
    """

    kind: str = "passthrough"
    lookback: int = 10
    mlp_layers: int = 3
    mlp_compression: int = 2
    cnn_layers: int = 2
    cnn_kernel: int = 3
    cnn_max_channels: int = 8
    lstm_layers: int = 1
    lstm_hidden: int = 0  # 0 means "derive from channel count"
    dropout: float = 0.1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown encoder kind {self.kind!r}")
        if self.kind != "none" and self.lookback < 1:
            raise ValueError("lookback must be >= 1")
        if self.kind == "mlp":
            if not 3 <= self.mlp_layers <= 20:
                raise ValueError(f"mlp layers out of range [3, 20]: {self.mlp_layers}")
            if not 1 <= self.mlp_compression <= 20:
                raise ValueError(f"mlp compression out of range [1, 20]: {self.mlp_compression}")
        if self.kind == "cnn":
            if not 1 <= self.cnn_layers <= 5:
                raise ValueError(f"cnn layers out of range [1, 5]: {self.cnn_layers}")
            if not 3 <= self.cnn_kernel <= 7:
                raise ValueError(f"cnn kernel out of range [3, 7]: {self.cnn_kernel}")
            if not 1 <= self.cnn_max_channels <= 20:
                raise ValueError(f"cnn max channels out of range [1, 20]: {self.cnn_max_channels}")
        if self.kind in ("lstm-stateless", "lstm-stateful"):
            if not 1 <= self.lstm_layers <= 10:
                raise ValueError(f"lstm layers out of range [1, 10]: {self.lstm_layers}")
        if self.kind in ("mlp", "cnn", "lstm-stateless", "lstm-stateful"):
            if not 0.1 <= self.dropout <= 0.9:
                raise ValueError(f"encoder dropout out of range [0.1, 0.9]: {self.dropout}")


# -- window construction ---------------------------------------------------


def make_windows(series: np.ndarray, lookback: int):
    """All fully observed (target index, context, target) triples.

    The context holds the ``lookback`` rows immediately before the target,
    oldest first; the target row itself is never part of its own context.
    Targets run from index ``lookback`` to the end, so a series of length T
    yields exactly T - lookback windows.
    """
    series = np.asarray(series, dtype=np.float64)
    n_steps = series.shape[0]
    if lookback < 1:
        raise ValueError("lookback must be >= 1")
    if n_steps <= lookback:
        raise ValueError(f"series length {n_steps} must exceed lookback {lookback}")
    return [
        (t, series[t - lookback : t].copy(), series[t].copy())
        for t in range(lookback, n_steps)
    ]


def padded_context_windows(series: np.ndarray, lookback: int) -> np.ndarray:
    """(T, lookback, D) contexts for every timestep, for scoring alignment.

    The first ``lookback`` targets have no full history; missing rows are
    filled by repeating the first observation.
    """
    series = np.asarray(series, dtype=np.float64)
    n_steps = series.shape[0]
    idx = np.arange(n_steps)[:, None] + np.arange(-lookback, 0)[None, :]
    return series[np.clip(idx, 0, None)]


# -- encoders ---------------------------------------------------------------


class Encoder:
    """Shared interface: ``context_dim``, ``parameters()``, ``encode_batch``.

    Instantiated directly for kind ``none``: the unconditioned flow, with an
    empty context and nothing to learn.
    """

    kind = "none"
    context_dim = 0

    def __init__(self, cfg: EncoderConfig, dim: int):
        self.cfg = cfg
        self.dim = dim

    def parameters(self) -> list[Parameter]:
        return []

    def encode_batch(self, contexts: np.ndarray, training: bool = False,
                     rng: np.random.Generator | None = None) -> Node | None:
        return None

    def _validate(self, contexts, fixed_length: bool = True) -> np.ndarray:
        contexts = np.asarray(contexts, dtype=np.float64)
        expected_time = self.cfg.lookback if fixed_length else None
        wrong_time = fixed_length and contexts.shape[1:2] != (self.cfg.lookback,)
        if contexts.ndim != 3 or wrong_time or contexts.shape[2] != self.dim:
            raise dc.ShapeError("encode", contexts.shape, (None, expected_time, self.dim))
        return contexts


class PassthroughEncoder(Encoder):
    """Raw window, flattened: context_dim = lookback * channels."""

    kind = "passthrough"

    def __init__(self, cfg: EncoderConfig, dim: int):
        super().__init__(cfg, dim)
        self.context_dim = cfg.lookback * dim

    def encode_batch(self, contexts, training=False, rng=None):
        contexts = self._validate(contexts)
        return dc.constant(contexts.reshape(contexts.shape[0], -1))


class FixedSummaryEncoder(Encoder):
    """Per-channel summary statistics: mean, std, last value, mean first
    difference. Fixed function, nothing to learn; context_dim = 4 * channels."""

    kind = "fixed-encode"

    def __init__(self, cfg: EncoderConfig, dim: int):
        super().__init__(cfg, dim)
        self.context_dim = 4 * dim

    def encode_batch(self, contexts, training=False, rng=None):
        contexts = self._validate(contexts)
        mean = contexts.mean(axis=1)
        std = contexts.std(axis=1)
        last = contexts[:, -1, :]
        if contexts.shape[1] > 1:
            diff_mean = np.diff(contexts, axis=1).mean(axis=1)
        else:
            diff_mean = np.zeros_like(mean)
        return dc.constant(np.concatenate([mean, std, last, diff_mean], axis=1))


class MlpEncoder(Encoder):
    """Flattened window through a funnel MLP down to
    max(2, floor(lookback * channels / compression)) outputs."""

    kind = "mlp"

    def __init__(self, cfg: EncoderConfig, dim: int, rng: np.random.Generator):
        super().__init__(cfg, dim)
        in_dim = cfg.lookback * dim
        self.context_dim = max(2, in_dim // cfg.mlp_compression)
        # hidden widths shrink geometrically from the input to the output size
        ratio = self.context_dim / in_dim
        widths = [
            max(2, round(in_dim * ratio ** ((j + 1) / (cfg.mlp_layers + 1))))
            for j in range(cfg.mlp_layers)
        ]
        self.weights: list[tuple[Parameter, Parameter]] = []
        prev = in_dim
        for j, width in enumerate(widths):
            bound = math.sqrt(6.0 / (prev + width))
            self.weights.append((
                Parameter(rng.uniform(-bound, bound, (prev, width)), f"encoder.h{j}.w"),
                Parameter(np.zeros(width), f"encoder.h{j}.b"),
            ))
            prev = width
        bound = math.sqrt(6.0 / (prev + self.context_dim))
        self.head_w = Parameter(rng.uniform(-bound, bound, (prev, self.context_dim)), "encoder.head.w")
        self.head_b = Parameter(np.zeros(self.context_dim), "encoder.head.b")

    def parameters(self):
        out = []
        for w, b in self.weights:
            out.extend([w, b])
        out.extend([self.head_w, self.head_b])
        return out

    def encode_batch(self, contexts, training=False, rng=None):
        contexts = self._validate(contexts)
        h = dc.constant(contexts.reshape(contexts.shape[0], -1))
        for w, b in self.weights:
            h = dc.tanh(dc.add(dc.matmul(h, w), b))
            h = dc.dropout(h, self.cfg.dropout, rng, training)
        return dc.add(dc.matmul(h, self.head_w), self.head_b)


class CnnEncoder(Encoder):
    """Temporal convolutions followed by a global average pool over time, so
    the context size equals the channel width of the last conv layer."""

    kind = "cnn"

    def __init__(self, cfg: EncoderConfig, dim: int, rng: np.random.Generator):
        super().__init__(cfg, dim)
        self.context_dim = cfg.cnn_max_channels
        channels = [
            max(1, round(dim + (cfg.cnn_max_channels - dim) * (j + 1) / cfg.cnn_layers))
            for j in range(cfg.cnn_layers)
        ]
        channels[-1] = cfg.cnn_max_channels
        self.convs: list[tuple[Parameter, Parameter]] = []
        prev = dim
        for j, ch in enumerate(channels):
            fan = cfg.cnn_kernel * prev
            bound = math.sqrt(6.0 / (fan + ch))
            self.convs.append((
                Parameter(rng.uniform(-bound, bound, (cfg.cnn_kernel, prev, ch)), f"encoder.conv{j}.w"),
                Parameter(np.zeros(ch), f"encoder.conv{j}.b"),
            ))
            prev = ch

    def parameters(self):
        out = []
        for w, b in self.convs:
            out.extend([w, b])
        return out

    def encode_batch(self, contexts, training=False, rng=None):
        contexts = self._validate(contexts, fixed_length=False)
        h = dc.constant(contexts)
        for j, (w, b) in enumerate(self.convs):
            h = dc.tanh(dc.conv1d(h, w, b))
            if j < len(self.convs) - 1:
                h = dc.dropout(h, self.cfg.dropout, rng, training)
        return dc.mean(h, axis=1)


class LstmEncoder(Encoder):
    """Stacked LSTM run over the window from a zero state; the context is the
    final hidden state of the top layer."""

    kind = "lstm-stateless"

    def __init__(self, cfg: EncoderConfig, dim: int, rng: np.random.Generator):
        super().__init__(cfg, dim)
        self.hidden = cfg.lstm_hidden if cfg.lstm_hidden > 0 else max(2, 2 * dim)
        self.context_dim = self.hidden
        self.cells: list[tuple[Parameter, Parameter]] = []
        prev = dim
        for j in range(cfg.lstm_layers):
            in_dim = prev + self.hidden
            bound = math.sqrt(6.0 / (in_dim + 4 * self.hidden))
            self.cells.append((
                Parameter(rng.uniform(-bound, bound, (in_dim, 4 * self.hidden)), f"encoder.lstm{j}.w"),
                Parameter(np.zeros(4 * self.hidden), f"encoder.lstm{j}.b"),
            ))
            prev = self.hidden

    def parameters(self):
        out = []
        for w, b in self.cells:
            out.extend([w, b])
        return out

    def _run_stack(self, inputs: list[Node], states: list[tuple[Node, Node]],
                   training: bool, rng) -> tuple[list[Node], list[tuple[Node, Node]]]:
        """Advance every layer over the given step inputs; returns the top
        layer's hidden sequence and the new per-layer states."""
        seq = inputs
        new_states = []
        for j, (w, b) in enumerate(self.cells):
            h, c = states[j]
            outputs = []
            for step in seq:
                h, c = dc.lstm_cell(step, h, c, w, b)
                outputs.append(h)
            new_states.append((h, c))
            if j < len(self.cells) - 1 and training:
                outputs = [dc.dropout(o, self.cfg.dropout, rng, training) for o in outputs]
            seq = outputs
        return seq, new_states

    def zero_states(self, batch: int) -> list[tuple[Node, Node]]:
        return [
            (dc.constant(np.zeros((batch, self.hidden))), dc.constant(np.zeros((batch, self.hidden))))
            for _ in self.cells
        ]

    def encode_batch(self, contexts, training=False, rng=None):
        contexts = self._validate(contexts, fixed_length=False)
        batch = contexts.shape[0]
        steps = [dc.constant(contexts[:, t, :]) for t in range(contexts.shape[1])]
        seq, _ = self._run_stack(steps, self.zero_states(batch), training, rng)
        return seq[-1]


class StatefulHandle:
    """Mutable LSTM state advanced over the series in order.

    Strictly sequential: step ``i`` may only be fed after step ``i - 1``,
    and ``steps_done`` counts how many observations were consumed.
    """

    def __init__(self, encoder: "StatefulLstmEncoder"):
        self.encoder = encoder
        self.reset()

    def reset(self):
        self.steps_done = 0
        self.states = self.encoder.zero_states(1)


class StatefulLstmEncoder(LstmEncoder):
    """Same cells as the stateless LSTM, but the state is handed over from
    timestep to timestep instead of being rebuilt per window."""

    kind = "lstm-stateful"

    def new_handle(self) -> StatefulHandle:
        return StatefulHandle(self)

    def encode_step(self, observations: np.ndarray, handle: StatefulHandle,
                    step_index: int, training: bool = False,
                    rng: np.random.Generator | None = None) -> Node:
        """Consume one row or a (k, channels) block of consecutive rows and
        return the top hidden state after each row, a (k, hidden) node.

        ``step_index`` (the first row's) must follow on from the handle's
        progress, which advances by k; feeding steps out of order raises
        with both indices named.
        """
        if step_index != handle.steps_done:
            raise ValueError(
                f"stateful encoder expected step {handle.steps_done}, got {step_index}"
            )
        rows = np.asarray(observations, dtype=np.float64).reshape(-1, self.dim)
        seq, handle.states = self._run_stack(
            [dc.constant(row[None]) for row in rows], handle.states, training, rng
        )
        handle.steps_done += rows.shape[0]
        return dc.concat(seq, axis=0)

    def detach_states(self, handle: StatefulHandle):
        """Cut the graph between truncation chunks, keeping the values."""
        handle.states = [
            (dc.constant(h.value.copy()), dc.constant(c.value.copy()))
            for h, c in handle.states
        ]


def build_encoder(cfg: EncoderConfig, dim: int,
                  rng: np.random.Generator | None = None) -> Encoder:
    """Instantiate the encoder for ``cfg``; the base ``Encoder`` for kind
    ``none``, the unconditioned flow."""
    if rng is None:
        rng = np.random.default_rng(0)
    if cfg.kind == "none":
        return Encoder(cfg, dim)
    if cfg.kind == "passthrough":
        return PassthroughEncoder(cfg, dim)
    if cfg.kind == "fixed-encode":
        return FixedSummaryEncoder(cfg, dim)
    if cfg.kind == "mlp":
        return MlpEncoder(cfg, dim, rng)
    if cfg.kind == "cnn":
        return CnnEncoder(cfg, dim, rng)
    if cfg.kind == "lstm-stateless":
        return LstmEncoder(cfg, dim, rng)
    if cfg.kind == "lstm-stateful":
        return StatefulLstmEncoder(cfg, dim, rng)
    raise ValueError(f"unknown encoder kind {cfg.kind!r}")
