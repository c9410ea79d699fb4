"""End-to-end training of the conditioned flow, plus model (de)serialization.

One loop (``_mean_loss``) trains and validates every encoder kind. Its
batches are shuffled rows t >= lookback of ``padded_context_windows``
(``_window_batches``) or, for the stateful LSTM, the chunks of
``StatefulLstmEncoder.walk`` with the graph cut between chunks (truncated
backpropagation; ``_chunk_batches``). Validation NLL is tracked per epoch
with dropout off, and the best validation epoch's parameters are restored.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import diffcore as dc
from .conditioners import (
    EncoderConfig,
    StatefulLstmEncoder,
    build_encoder,
    padded_context_windows,
)
from .data import DataError, TimeSeriesDataset, split_train_val, write_table
from .flow import ConditionerConfig, FlowConfig, FlowModel, nll_loss

MODEL_MAGIC = b"TCFLOW\x00\x01"
FORMAT_VERSION = 1


class TrainingDiverged(RuntimeError):
    def __init__(self, last_finite_epoch: int):
        super().__init__(f"loss became non-finite; last finite epoch was {last_finite_epoch}")
        self.last_finite_epoch = last_finite_epoch


class SerializationError(ValueError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 128
    learning_rate: float = 1e-3
    patience: int = 10
    clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.batch_size, self.patience) < 1:
            raise ValueError("epochs, batch_size and patience must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 1-based index into the loss lists

    @property
    def best_val_loss(self) -> float:
        return self.val_losses[self.best_epoch - 1]

    def to_csv(self, path) -> None:
        epochs = np.arange(1, len(self.train_losses) + 1)
        write_table(path, ["epoch", "train_loss", "val_loss", "best"],
                    [epochs, self.train_losses, self.val_losses, epochs == self.best_epoch])


# -- Adam ----------------------------------------------------------------------


class AdamState:
    """Adam moments over one flat parameter buffer.

    Construction packs ``params`` (``dc.pack``): ``values`` holds every
    parameter and ``grads`` every gradient, each parameter's ``value`` and
    ``grad`` being views in list order, so ``dc.backward`` leaves the
    gradients in ``grads``. ``m`` and ``v`` are the first and second
    moments, aligned with ``values``.
    """

    def __init__(self, params):
        self.params = list(params)
        self.values, self.grads = dc.pack(self.params)
        sizes = np.array([p.value.size for p in self.params], dtype=np.intp)
        starts = np.cumsum(sizes) - sizes
        # parameters of one size share a (count, size) gather index, so the
        # per-parameter sums of the clip norm take one reduction per size
        self.size_groups = []
        for size in dict.fromkeys(sizes.tolist()):
            members = np.flatnonzero(sizes == size)
            self.size_groups.append((members, starts[members, None] + np.arange(size)))
        self.step = 0
        self.m = np.zeros_like(self.values)
        self.v = np.zeros_like(self.values)
        # scratch for the update: a new buffer-sized temporary per op costs
        # more than the arithmetic
        self._work = np.empty((2, self.values.size))


def adam_step(
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    clip_norm: float = 0.0,
) -> None:
    """Bias-corrected Adam update in place, with optional global-norm clip.

    Reads the gradients from ``state.grads``, where ``dc.backward`` wrote
    them. The NaN check, the moment and parameter updates and the finite
    check each run once over the whole buffer. The clip norm adds up
    per-parameter sums of squares in parameter order, as a loop over the
    parameters would.
    """
    g = state.grads
    if np.isnan(g).any():
        bad = next(p for p in state.params if np.isnan(p.grad).any())
        raise FloatingPointError(f"NaN gradient for parameter {bad.name!r}")
    a, b = state._work
    if clip_norm > 0:
        squares = np.multiply(g, g, out=a)
        sums = np.empty(len(state.params))
        for members, index in state.size_groups:
            gathered = np.take(squares, index, out=b[: index.size].reshape(index.shape))
            sums[members] = gathered.sum(axis=1)
        total = np.sqrt(sum(sums.tolist()))
        if total > clip_norm:
            g = np.multiply(g, clip_norm / total, out=a)
    state.step += 1
    t = state.step
    # the arithmetic of m += (1 - beta1) * g, v += (1 - beta2) * g * g and
    # values -= lr * m_hat / (sqrt(v_hat) + eps), one op at a time in place
    m, v = state.m, state.v
    m *= beta1
    m += np.multiply(g, 1.0 - beta1, out=b)
    v *= beta2
    v += np.multiply(np.multiply(g, 1.0 - beta2, out=b), g, out=b)
    m_hat = np.divide(m, 1.0 - beta1**t, out=a)
    m_hat *= lr
    denominator = np.sqrt(np.divide(v, 1.0 - beta2**t, out=b), out=b)
    denominator += eps
    state.values -= np.divide(m_hat, denominator, out=a)
    if not np.isfinite(state.values).all():
        bad = next(p for p in state.params if not np.isfinite(p.value).all())
        raise FloatingPointError(f"non-finite values in parameter {bad.name!r} after update")


# -- training -------------------------------------------------------------------


def _require_prepared(ds: TimeSeriesDataset):
    if ds.n_channels % 2 != 0:
        raise ValueError("dataset must have an even channel count (pad first)")
    if ds.norm_stats is None:
        raise ValueError("dataset must be normalized before training")


def build_model(
    dim: int,
    encoder_cfg: EncoderConfig,
    flow_cfg: FlowConfig,
    rng: np.random.Generator,
    model_id: str = "flow",
) -> FlowModel:
    encoder = build_encoder(encoder_cfg, dim, rng)
    return FlowModel(dim, flow_cfg, encoder, rng, model_id=model_id)


def train_model(
    ds: TimeSeriesDataset,
    encoder_cfg: EncoderConfig,
    flow_cfg: FlowConfig,
    train_cfg: TrainConfig,
    model_id: str = "flow",
) -> tuple[FlowModel, TrainReport]:
    """Minimize the mean NLL on the training split; returns the model with
    the best-validation-epoch parameters restored, plus the loss history."""
    _require_prepared(ds)
    rng = np.random.default_rng(train_cfg.seed)
    model = build_model(ds.n_channels, encoder_cfg, flow_cfg, rng, model_id=model_id)
    model.norm_stats = ds.norm_stats

    stateful = isinstance(model.encoder, StatefulLstmEncoder)
    mode = "sequential-tail" if stateful else "random-sections"
    lookback = encoder_cfg.lookback if "lookback" in model.encoder.reads else 0
    train_idx, val_idx = split_train_val(ds.n_steps, lookback, mode, rng)
    train_mask, val_mask = np.zeros((2, ds.n_steps), dtype=bool)
    train_mask[train_idx] = val_mask[val_idx] = True

    if stateful:
        source = _chunk_batches(model.encoder, ds.values, train_mask, val_mask)
    else:
        source = _window_batches(model.encoder, ds.values, lookback, train_mask, val_mask,
                                 train_cfg.batch_size)

    adam = AdamState(model.parameters())
    report = TrainReport()
    best_val = np.inf
    best_snapshot = None
    since_best = 0
    for epoch in range(1, train_cfg.epochs + 1):
        train_loss = _mean_loss(model, source(True, rng), rng, adam, train_cfg)
        val_loss = _mean_loss(model, source(False, rng), rng)
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise TrainingDiverged(epoch - 1)
        report.train_losses.append(train_loss)
        report.val_losses.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            report.best_epoch = epoch
            best_snapshot = adam.values.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= train_cfg.patience:
                break
    if best_snapshot is not None:
        adam.values[:] = best_snapshot
    return model, report


def _mean_loss(model, batches, rng, adam=None, cfg=None) -> float:
    """Row-weighted mean NLL of the ``(targets, contexts)`` batches, NaN if
    there are none; with ``adam``, training: one Adam step per batch."""
    total, count = 0.0, 0
    for targets, contexts in batches:
        loss = nll_loss(model, targets, contexts, training=adam is not None, rng=rng)
        if adam is not None:
            dc.backward(loss)
            adam_step(adam, cfg.learning_rate, clip_norm=cfg.clip_norm)
        total += float(loss.value) * len(targets)
        count += len(targets)
    return total / count if count else np.nan


def _window_batches(encoder, values, lookback, train_mask, val_mask, batch_size):
    """``batches(training, rng)`` for every encoder kind but the stateful
    LSTM: a split's targets t >= ``lookback`` and their encoded
    ``padded_context_windows``, shuffled in batches of ``batch_size`` in
    training, by 4096 in order in validation. An empty split raises here."""
    usable = np.arange(values.shape[0]) >= lookback
    contexts = padded_context_windows(values, lookback)
    train, val = ((values[mask & usable], contexts[mask & usable])
                  for mask in (train_mask, val_mask))
    if len(train[0]) == 0 or len(val[0]) == 0:
        raise DataError("split left an empty train or validation window set")

    def batches(training, rng):
        targets, windows = train if training else val
        size = batch_size if training else 4096
        order = rng.permutation(len(targets)) if training else np.arange(len(targets))
        for lo in range(0, len(targets), size):
            pick = order[lo : lo + size]
            yield targets[pick], encoder.encode_batch(windows[pick], training=training, rng=rng)

    return batches


def _chunk_batches(encoder, values, train_mask, val_mask):
    """``batches(training, rng)`` for the stateful LSTM: per chunk of
    ``StatefulLstmEncoder.walk``, its targets in the split and their contexts."""

    def batches(training, rng):
        mask = train_mask if training else val_mask
        for span, contexts in encoder.walk(values, training, rng):
            pick = mask[span]
            if pick.any():
                yield values[span][pick], contexts[pick]

    return batches


# -- serialization -----------------------------------------------------------------


def save_model(model: FlowModel, path) -> None:
    """Versioned binary container; the parameter round trip is bit-exact."""
    params = model.parameters()
    stats = model.norm_stats
    header = {
        "format_version": FORMAT_VERSION,
        "model_id": model.model_id,
        "dim": model.dim,
        "n_layers": model.config.n_layers,
        "conditioner": asdict(model.config.conditioner),
        "encoder": asdict(model.encoder.cfg),
        "norm_stats": None if stats is None else [list(map(float, s)) for s in stats],
        "params": [{"name": p.name, "shape": list(p.value.shape)} for p in params],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for p in params:
            fh.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())


def load_model(path) -> FlowModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MODEL_MAGIC) + 8 or not raw.startswith(MODEL_MAGIC):
        raise SerializationError(f"{path}: not a model file")
    offset = len(MODEL_MAGIC)
    (blob_len,) = struct.unpack_from("<Q", raw, offset)
    offset += 8
    if len(raw) < offset + blob_len:
        raise SerializationError(f"{path}: truncated header")
    try:
        header = json.loads(raw[offset : offset + blob_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"{path}: corrupt header: {exc}") from None
    offset += blob_len
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"{path}: format version {version} not supported (expected {FORMAT_VERSION})"
        )
    encoder_cfg = EncoderConfig(**header["encoder"])
    flow_cfg = FlowConfig(header["n_layers"], ConditionerConfig(**header["conditioner"]))
    model = build_model(header["dim"], encoder_cfg, flow_cfg,
                        np.random.default_rng(0), model_id=header["model_id"])
    if header["norm_stats"] is not None:
        model.norm_stats = tuple(np.asarray(s, dtype=np.float64) for s in header["norm_stats"])
        bad = np.nonzero(~np.isfinite(np.stack(model.norm_stats)))[1]
        if bad.size:
            raise SerializationError(f"{path}: non-finite norm_stats for channel {bad[0]}")
    params = model.parameters()
    if [(p.name, list(p.value.shape)) for p in params] != [
            (entry["name"], entry["shape"]) for entry in header["params"]]:
        raise SerializationError(f"{path}: parameter list does not match the declared architecture")
    values, _ = dc.pack(params)
    start = offset
    for p in params:
        offset += p.value.nbytes
        if offset > len(raw):
            raise SerializationError(f"{path}: truncated parameter data at {p.name!r}")
    values[:] = np.frombuffer(raw, dtype="<f8", count=values.size, offset=start)
    if offset != len(raw):
        raise SerializationError(f"{path}: {len(raw) - offset} trailing bytes")
    return model
