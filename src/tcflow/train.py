"""End-to-end training of the conditioned flow, plus model (de)serialization.

Batched encoders train on shuffled windows; the stateful LSTM variant walks
the sequence in order with truncated backpropagation (graph cut every
``lookback`` steps). Validation NLL is tracked per epoch with dropout off,
and the parameters from the best validation epoch are restored at the end.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import diffcore as dc
from .conditioners import (
    EncoderConfig,
    StatefulLstmEncoder,
    build_encoder,
    make_windows,
)
from .data import DataError, TimeSeriesDataset, split_train_val
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
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    patience: int = 10
    clip_norm: float = 5.0
    seed: int = 0
    split_mode: str = "auto"  # auto | random-sections | sequential-tail

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
    wall_time: float = 0.0

    @property
    def best_val_loss(self) -> float:
        return self.val_losses[self.best_epoch - 1]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("epoch,train_loss,val_loss,best\n")
            for i, (tr, va) in enumerate(zip(self.train_losses, self.val_losses), start=1):
                fh.write(f"{i},{tr!r},{va!r},{int(i == self.best_epoch)}\n")


# -- Adam ----------------------------------------------------------------------


class AdamState:
    """First/second moment accumulators per parameter, by name."""

    def __init__(self, params):
        self.step = 0
        self.m = {p.name: np.zeros_like(p.value) for p in params}
        self.v = {p.name: np.zeros_like(p.value) for p in params}


def adam_step(
    params,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    clip_norm: float = 0.0,
) -> None:
    """Bias-corrected Adam update in place, with optional global-norm clip."""
    for p in params:
        g = grads.get(p.name)
        if g is None:
            continue
        if np.isnan(g).any():
            raise FloatingPointError(f"NaN gradient for parameter {p.name!r}")
    if clip_norm > 0:
        total = np.sqrt(sum(float((grads[p.name] ** 2).sum()) for p in params if p.name in grads))
        if total > clip_norm:
            scale = clip_norm / total
            grads = {name: g * scale for name, g in grads.items()}
    state.step += 1
    t = state.step
    for p in params:
        g = grads.get(p.name)
        if g is None:
            continue
        m = state.m[p.name]
        v = state.v[p.name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p.value -= lr * m_hat / (np.sqrt(v_hat) + eps)
        if not np.isfinite(p.value).all():
            raise FloatingPointError(f"non-finite values in parameter {p.name!r} after update")


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
    start = time.perf_counter()
    rng = np.random.default_rng(train_cfg.seed)
    model = build_model(ds.n_channels, encoder_cfg, flow_cfg, rng, model_id=model_id)
    model.norm_stats = ds.norm_stats

    stateful = isinstance(model.encoder, StatefulLstmEncoder)
    mode = train_cfg.split_mode
    if mode == "auto":
        mode = "sequential-tail" if stateful else "random-sections"
    lookback = encoder_cfg.lookback if encoder_cfg.kind != "none" else 0
    train_idx, val_idx = split_train_val(ds.n_steps, lookback, mode, rng)

    if stateful:
        runner = _StatefulRunner(model, ds.values, train_idx, val_idx, train_cfg, rng)
    else:
        runner = _BatchedRunner(model, ds.values, lookback, train_idx, val_idx, train_cfg, rng)

    params = model.parameters()
    adam = AdamState(params)
    report = TrainReport()
    best_val = np.inf
    best_snapshot = None
    since_best = 0
    for epoch in range(1, train_cfg.epochs + 1):
        train_loss = runner.train_epoch(params, adam)
        val_loss = runner.val_loss()
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise TrainingDiverged(epoch - 1)
        report.train_losses.append(train_loss)
        report.val_losses.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            report.best_epoch = epoch
            best_snapshot = {p.name: p.value.copy() for p in params}
            since_best = 0
        else:
            since_best += 1
            if since_best >= train_cfg.patience:
                break
    if best_snapshot is not None:
        for p in params:
            p.value = best_snapshot[p.name]
    report.wall_time = time.perf_counter() - start
    return model, report


class _BatchedRunner:
    """Shuffled window batches for every encoder kind except the stateful LSTM."""

    def __init__(self, model, values, lookback, train_idx, val_idx, cfg, rng):
        self.model = model
        self.cfg = cfg
        self.rng = rng
        if lookback > 0:
            windows = make_windows(values, lookback)
            targets = np.stack([w[2] for w in windows])
            contexts = np.stack([w[1] for w in windows])
            t_index = np.array([w[0] for w in windows])
        else:
            targets = values
            contexts = None
            t_index = np.arange(values.shape[0])
        train_set = set(train_idx.tolist())
        val_set = set(val_idx.tolist())
        in_train = np.array([t in train_set for t in t_index])
        in_val = np.array([t in val_set for t in t_index])
        self.train_targets = targets[in_train]
        self.val_targets = targets[in_val]
        self.train_contexts = contexts[in_train] if contexts is not None else None
        self.val_contexts = contexts[in_val] if contexts is not None else None
        if self.train_targets.shape[0] == 0 or self.val_targets.shape[0] == 0:
            raise DataError("split left an empty train or validation window set")

    def _loss(self, targets, contexts, training):
        context_node = None
        if contexts is not None:
            context_node = self.model.encoder.encode_batch(contexts, training=training, rng=self.rng)
        return nll_loss(self.model, targets, context_node, training=training, rng=self.rng)

    def train_epoch(self, params, adam) -> float:
        n = self.train_targets.shape[0]
        order = self.rng.permutation(n)
        total = 0.0
        for lo in range(0, n, self.cfg.batch_size):
            pick = order[lo : lo + self.cfg.batch_size]
            ctx = self.train_contexts[pick] if self.train_contexts is not None else None
            loss = self._loss(self.train_targets[pick], ctx, training=True)
            grads = dc.backward(loss)
            adam_step(params, grads, adam, self.cfg.learning_rate,
                      self.cfg.beta1, self.cfg.beta2, self.cfg.adam_eps, self.cfg.clip_norm)
            total += float(loss.value) * pick.size
        return total / n

    def val_loss(self) -> float:
        n = self.val_targets.shape[0]
        total = 0.0
        for lo in range(0, n, 4096):
            ctx = self.val_contexts[lo : lo + 4096] if self.val_contexts is not None else None
            loss = self._loss(self.val_targets[lo : lo + 4096], ctx, training=False)
            total += float(loss.value) * min(4096, n - lo)
        return total / n


class _StatefulRunner:
    """Sequential pass with truncated backpropagation every ``lookback`` steps.

    The encoder consumes the previous observation before each target is
    scored; the first target's "previous" row is the first observation
    itself (repeat padding).
    """

    def __init__(self, model, values, train_idx, val_idx, cfg, rng):
        self.model = model
        self.encoder: StatefulLstmEncoder = model.encoder
        self.values = values
        self.stream = np.vstack([values[:1], values[:-1]])
        self.train_mask = np.zeros(values.shape[0], dtype=bool)
        self.train_mask[train_idx] = True
        self.val_mask = np.zeros(values.shape[0], dtype=bool)
        self.val_mask[val_idx] = True
        self.cfg = cfg
        self.rng = rng
        self.chunk = max(1, self.encoder.cfg.lookback)

    def _walk(self, training: bool, params=None, adam=None) -> tuple[float, float]:
        handle = self.encoder.new_handle()
        n = self.values.shape[0]
        train_total, train_count = 0.0, 0
        val_total, val_count = 0.0, 0
        pending: list[dc.Node] = []
        for t in range(n):
            w = self.encoder.encode_step(self.stream[t], handle, t,
                                         training=training, rng=self.rng)
            point = self.values[t : t + 1]
            if training and self.train_mask[t]:
                pending.append(dc.neg(self.model.log_prob_nodes(
                    point, w, training=True, rng=self.rng)))
                train_total += float(pending[-1].value[0])
                train_count += 1
            elif not training and self.val_mask[t]:
                val_total += -float(self.model.log_prob_nodes(point, w).value[0])
                val_count += 1
            if (t + 1) % self.chunk == 0:
                if training:
                    self._flush(pending, params, adam)
                    pending = []
                self.encoder.detach_states(handle)  # bounds the rolling graph
        if training and pending:
            self._flush(pending, params, adam)
        train_mean = train_total / train_count if train_count else np.nan
        val_mean = val_total / val_count if val_count else np.nan
        return train_mean, val_mean

    def _flush(self, pending, params, adam):
        if not pending:
            return
        loss = dc.mean(dc.concat(pending, axis=0))
        grads = dc.backward(loss)
        adam_step(params, grads, adam, self.cfg.learning_rate,
                  self.cfg.beta1, self.cfg.beta2, self.cfg.adam_eps, self.cfg.clip_norm)

    def train_epoch(self, params, adam) -> float:
        train_mean, _ = self._walk(training=True, params=params, adam=adam)
        return train_mean

    def val_loss(self) -> float:
        _, val_mean = self._walk(training=False)
        return val_mean


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
    params = model.parameters()
    if [p.name for p in params] != [entry["name"] for entry in header["params"]]:
        raise SerializationError(f"{path}: parameter list does not match the declared architecture")
    for p, entry in zip(params, header["params"]):
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        end = offset + 8 * count
        if end > len(raw):
            raise SerializationError(f"{path}: truncated parameter data at {p.name!r}")
        p.value = np.frombuffer(raw[offset:end], dtype="<f8").reshape(shape).copy()
        p.grad = np.zeros_like(p.value)
        offset = end
    if offset != len(raw):
        raise SerializationError(f"{path}: {len(raw) - offset} trailing bytes")
    return model
