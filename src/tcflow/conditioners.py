"""Context encoders: turn the lookback window into the conditioning vector.

The encoder owns the pairing of rows with contexts: ``split`` picks the
training and validation rows, every training row more than ``lookback``
from every validation row (five random validation sections for the
stateless kinds, the last fifth for the stateful LSTM), and ``batches``
yields ``(rows, contexts)`` over any rows, for training and scoring. Six
encoder kinds are supported, from a raw passthrough of the window to a
stateful LSTM whose hidden state is carried from timestep to timestep. The
stateless kinds encode blocks of ``padded_context_windows``; the stateful
LSTM walks the series in order, one ``encode_step`` per chunk of
``lookback`` rows. Either gives a
(batch, context_dim) node; each LSTM layer is one ``dc.lstm_sequence`` node
per call. Learnable encoders train with the flow: each layer is a
``flow.dense`` (weight, bias) pair in ``Encoder.pairs``, and dropout is
drawn iff an rng is passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import diffcore as dc
from .data import DataError
from .diffcore import Node, Parameter
from .flow import check_values, dense, field_defaults

TRAIN_SHARE = 0.8  # of the series; the other 20% is validation


@dataclass
class EncoderConfig:
    """Encoder kind plus its kind-specific hyperparameters.

    ``lookback`` is the number of past timesteps summarized per target. A
    kind reads the fields its class lists in ``reads`` (see ``ENCODERS``),
    and every field must lie in its inclusive ``RANGES``. The search space
    searches each finite range, and ``lookback`` over a range of its own.
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

    RANGES: ClassVar[dict[str, tuple]] = {
        "lookback": (1, math.inf),
        "mlp_layers": (3, 20),
        "mlp_compression": (1, 20),
        "cnn_layers": (1, 5),
        "cnn_kernel": (3, 7),
        "cnn_max_channels": (1, 20),
        "lstm_layers": (1, 10),
        "lstm_hidden": (0, math.inf),
        "dropout": (0.1, 0.9),
    }

    def __post_init__(self):
        check_values(vars(self), field_defaults(EncoderConfig), self.RANGES)
        if self.kind not in ENCODERS:
            raise ValueError(f"unknown encoder kind {self.kind!r}")


# -- window construction ---------------------------------------------------


def padded_context_windows(series: np.ndarray, lookback: int) -> np.ndarray:
    """(T, lookback, D) contexts for every timestep: row t holds rows
    t - lookback .. t - 1, so a target is never part of its own context.

    The first ``lookback`` targets have no full history; missing rows are
    filled by repeating the first observation. The result is a read-only
    view of one padded copy of the series, so gathering rows of it copies
    only the windows gathered.
    """
    series = np.asarray(series, dtype=np.float64)
    padded = np.concatenate([np.repeat(series[:1], lookback, axis=0), series])
    windows = sliding_window_view(padded, lookback, axis=0)[: series.shape[0]]
    return windows.transpose(0, 2, 1)


# -- encoders ---------------------------------------------------------------


class Encoder:
    """Shared interface: ``context_dim``, ``parameters()``, ``encode_batch``,
    ``split`` and ``batches``.

    ``reads`` lists the ``EncoderConfig`` fields the kind uses, ``lookback``
    is the history a context reads (0 for a kind that does not read
    ``lookback``), and ``pairs`` the (weight, bias) of each learnable layer,
    in order. Instantiated directly for kind ``none``: the unconditioned
    flow, with an empty context and nothing to learn.
    """

    kind = "none"
    reads: tuple[str, ...] = ()
    context_dim = 0

    def __init__(self, cfg: EncoderConfig, dim: int, rng: np.random.Generator):
        self.cfg = cfg
        self.dim = dim
        self.lookback = cfg.lookback if "lookback" in self.reads else 0
        self.pairs: list[tuple[Parameter, Parameter]] = []

    def parameters(self) -> list[Parameter]:
        return list(chain(*self.pairs))

    @classmethod
    def check_split(cls, n_steps: int, cfg: EncoderConfig) -> None:
        """Raise ``DataError`` unless ``split`` can split an ``n_steps``
        series for ``cfg``; draws nothing, so it can run before the build."""
        _sections(n_steps, cfg.lookback if "lookback" in cls.reads else 0)

    def split(self, n_steps: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Training and validation rows: five equal random validation
        sections, one ``rng.integers`` draw per fifth of the series, with no
        training row within ``lookback`` of any of them, cut to the rows
        t >= ``lookback``, whose window is fully observed. A series that
        fails ``check_split`` or leaves an empty set raises ``DataError``."""
        gap = self.lookback
        section, block = _sections(n_steps, gap)
        in_val, excluded = np.zeros(n_steps, dtype=bool), np.zeros(n_steps, dtype=bool)
        for b in range(5):
            start = b * block + int(rng.integers(0, block - section + 1))
            in_val[start : start + section] = True
            excluded[max(0, start - gap) : start + section + gap] = True
        train, val = np.flatnonzero(~excluded), np.flatnonzero(in_val)
        return _nonempty(train[train >= gap], val[val >= gap])

    def batches(self, values: np.ndarray, rows: np.ndarray, size: int,
                rng: np.random.Generator | None):
        """Yield ``(rows, contexts)``: blocks of ``size`` of ``rows``, in the
        order given or, with an ``rng``, in one ``rng.permutation`` of it
        with dropout on, each with its encoded ``padded_context_windows``:
        one view per call over the whole series, from which each block
        gathers its own windows."""
        windows = padded_context_windows(values, self.lookback)
        if rng is not None:
            rows = rows[rng.permutation(len(rows))]
        for lo in range(0, len(rows), size):
            pick = rows[lo : lo + size]
            yield pick, self.encode_batch(windows[pick], rng)

    def encode_batch(self, contexts: np.ndarray, rng: np.random.Generator | None) -> Node:
        """The empty (batch, 0) context of kind ``none``."""
        return dc.constant(np.empty((len(contexts), 0)))

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
    reads = ("lookback",)

    def __init__(self, cfg: EncoderConfig, dim: int, rng: np.random.Generator):
        super().__init__(cfg, dim, rng)
        self.context_dim = cfg.lookback * dim

    def encode_batch(self, contexts, rng):
        contexts = self._validate(contexts)
        return dc.constant(contexts.reshape(contexts.shape[0], -1))


class FixedSummaryEncoder(Encoder):
    """Per-channel summary statistics: mean, std, last value, mean first
    difference. Fixed function, nothing to learn; context_dim = 4 * channels."""

    kind = "fixed-encode"
    reads = ("lookback",)

    def __init__(self, cfg: EncoderConfig, dim: int, rng: np.random.Generator):
        super().__init__(cfg, dim, rng)
        self.context_dim = 4 * dim

    def encode_batch(self, contexts, rng):
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
    reads = ("lookback", "mlp_layers", "mlp_compression", "dropout")

    def __init__(self, cfg: EncoderConfig, dim: int, rng: np.random.Generator):
        super().__init__(cfg, dim, rng)
        in_dim = cfg.lookback * dim
        self.context_dim = max(2, in_dim // cfg.mlp_compression)
        # hidden widths shrink geometrically from the input to the output size
        ratio = self.context_dim / in_dim
        widths = [
            max(2, round(in_dim * ratio ** ((j + 1) / (cfg.mlp_layers + 1))))
            for j in range(cfg.mlp_layers)
        ]
        prev = in_dim
        for j, width in enumerate(widths):
            self.pairs.append(dense(rng, prev, width, f"encoder.h{j}"))
            prev = width
        self.pairs.append(dense(rng, prev, self.context_dim, "encoder.head"))

    def encode_batch(self, contexts, rng):
        contexts = self._validate(contexts)
        h = dc.constant(contexts.reshape(contexts.shape[0], -1))
        *hidden, (head_w, head_b) = self.pairs
        for w, b in hidden:
            h = dc.tanh(dc.add(dc.matmul(h, w), b))
            h = dc.dropout(h, self.cfg.dropout, rng)
        return dc.add(dc.matmul(h, head_w), head_b)


class CnnEncoder(Encoder):
    """Temporal convolutions followed by a global average pool over time, so
    the context size equals the channel width of the last conv layer."""

    kind = "cnn"
    reads = ("lookback", "cnn_layers", "cnn_kernel", "cnn_max_channels", "dropout")

    def __init__(self, cfg: EncoderConfig, dim: int, rng: np.random.Generator):
        super().__init__(cfg, dim, rng)
        self.context_dim = cfg.cnn_max_channels
        channels = [
            max(1, round(dim + (cfg.cnn_max_channels - dim) * (j + 1) / cfg.cnn_layers))
            for j in range(cfg.cnn_layers)
        ]
        channels[-1] = cfg.cnn_max_channels
        prev = dim
        for j, ch in enumerate(channels):
            self.pairs.append(dense(rng, cfg.cnn_kernel * prev, ch, f"encoder.conv{j}",
                                    (cfg.cnn_kernel, prev, ch)))
            prev = ch

    def encode_batch(self, contexts, rng):
        contexts = self._validate(contexts, fixed_length=False)
        h = dc.constant(contexts)
        for j, (w, b) in enumerate(self.pairs):
            h = dc.tanh(dc.conv1d(h, w, b))
            if j < len(self.pairs) - 1:
                h = dc.dropout(h, self.cfg.dropout, rng)
        return dc.mean(h, axis=1)


class LstmEncoder(Encoder):
    """Stacked LSTM run over the window from a zero state; the context is the
    final hidden state of the top layer. Each layer is one
    ``dc.lstm_sequence`` node over the whole batch of windows, and its state
    is one (batch, 2*hidden) ``[h | c]`` node."""

    kind = "lstm-stateless"
    reads = ("lookback", "lstm_layers", "lstm_hidden", "dropout")

    def __init__(self, cfg: EncoderConfig, dim: int, rng: np.random.Generator):
        super().__init__(cfg, dim, rng)
        self.hidden = cfg.lstm_hidden if cfg.lstm_hidden > 0 else max(2, 2 * dim)
        self.context_dim = self.hidden
        prev = dim
        for j in range(cfg.lstm_layers):
            self.pairs.append(dense(rng, prev + self.hidden, 4 * self.hidden, f"encoder.lstm{j}"))
            prev = self.hidden

    def _run_stack(self, steps: Node, states: list[Node], rng) -> tuple[Node, list[Node]]:
        """Advance every layer over a (T, batch, input) step sequence, one
        ``dc.lstm_sequence`` node per layer, from the per-layer
        (batch, 2*hidden) ``[h | c]`` states. Returns the top layer's
        (T, batch, 2*hidden) node and the new per-layer states; with an rng,
        inverted dropout sits between layers, one mask draw per layer."""
        new_states = []
        for j, (w, b) in enumerate(self.pairs):
            out = dc.lstm_sequence(steps, states[j], w, b)
            new_states.append(out[-1])
            if j < len(self.pairs) - 1:
                steps = dc.dropout(out[:, :, : self.hidden], self.cfg.dropout, rng)
        return out, new_states

    def zero_states(self, batch: int) -> list[Node]:
        return [dc.constant(np.zeros((batch, 2 * self.hidden))) for _ in self.pairs]

    def encode_batch(self, contexts, rng):
        contexts = self._validate(contexts, fixed_length=False)
        steps = dc.constant(contexts.transpose(1, 0, 2))
        out, _ = self._run_stack(steps, self.zero_states(contexts.shape[0]), rng)
        return out[-1, :, : self.hidden]


class StatefulLstmEncoder(LstmEncoder):
    """Same cells as the stateless LSTM, but the state is handed over from
    timestep to timestep instead of being rebuilt per window."""

    kind = "lstm-stateful"

    def encode_step(self, rows: np.ndarray, states: list[Node],
                    rng: np.random.Generator | None) -> tuple[Node, list[Node]]:
        """Run a (k, channels) block of consecutive rows from the per-layer
        (1, 2*hidden) ``[h | c]`` ``states`` (``zero_states(1)`` to start).
        Returns the top hidden state after each row, a (k, hidden) node, and
        the new states, which stay in the graph: chained calls differentiate
        through them. Any other block shape raises ``ShapeError``."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] != self.dim:
            raise dc.ShapeError("encode_step", rows.shape, (None, self.dim))
        out, states = self._run_stack(dc.constant(rows[:, None, :]), states, rng)
        return out[:, 0, : self.hidden], states

    @classmethod
    def check_split(cls, n_steps, cfg):
        """``DataError`` unless a row lies more than ``lookback`` before the tail."""
        if n_steps - validation_size(n_steps) - cfg.lookback < 1:
            raise DataError("split left an empty train or validation window set")

    def split(self, n_steps, rng):
        """The last fifth of the series, and the rows more than ``lookback``
        before it; the state runs through the whole series, so every row has
        a context and none is cut. ``rng`` is not read."""
        self.check_split(n_steps, self.cfg)
        start = n_steps - validation_size(n_steps)
        return np.arange(start - self.lookback), np.arange(start, n_steps)

    def batches(self, values, rows, size, rng):
        """Walk ``values`` in chunks of ``lookback`` rows, in series order
        (``size`` is not read), and yield each chunk's members of ``rows``
        with their contexts: row t's context is the state after its 1-row
        padded window (row t - 1; row 0 repeats itself). The graph is cut
        between chunks, keeping the state values: truncated backpropagation.
        """
        index = np.arange(values.shape[0])
        wanted = np.zeros(values.shape[0], dtype=bool)
        wanted[rows] = True
        stream = padded_context_windows(values, 1)[:, 0]
        states = self.zero_states(1)
        for lo in range(0, stream.shape[0], self.lookback):
            span = slice(lo, lo + self.lookback)
            contexts, states = self.encode_step(stream[span], states, rng)
            pick = wanted[span]
            if pick.all():  # a whole chunk needs no gather node
                yield index[span], contexts
            elif pick.any():
                yield index[span][pick], contexts[pick]
            del contexts  # the caller may free the chunk's graph before the next
            states = [dc.constant(state.value) for state in states]


def validation_size(n_steps: int) -> int:
    """How many rows of an ``n_steps`` series validate: the share that
    ``TRAIN_SHARE`` leaves, rounded. Fewer than 5 raise ``DataError``."""
    val_total = int(round(n_steps * (1.0 - TRAIN_SHARE)))
    if val_total < 5:
        raise DataError(f"series too short to split: {n_steps} steps")
    return val_total


def _sections(n_steps: int, gap: int) -> tuple[int, int]:
    """(section, block): the size of ``Encoder.split``'s validation sections
    and of a fifth of the series; ``DataError`` unless block > section + gap."""
    section, block = validation_size(n_steps) // 5, n_steps // 5
    if block <= section + gap:
        raise DataError(f"series too short for five sections of {section} with gap {gap}")
    return section, block


def _nonempty(train: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if train.size == 0 or val.size == 0:
        raise DataError("split left an empty train or validation window set")
    return train, val


# kind -> encoder class; ``KINDS`` lists the kinds in this order
ENCODERS: dict[str, type[Encoder]] = {
    cls.kind: cls
    for cls in (Encoder, PassthroughEncoder, FixedSummaryEncoder, MlpEncoder,
                CnnEncoder, LstmEncoder, StatefulLstmEncoder)
}
KINDS = tuple(ENCODERS)


def build_encoder(cfg: EncoderConfig, dim: int, rng: np.random.Generator) -> Encoder:
    """Instantiate the encoder for ``cfg``; the base ``Encoder`` for kind
    ``none``, the unconditioned flow."""
    return ENCODERS[cfg.kind](cfg, dim, rng)
