"""End-to-end training of the conditioned flow, plus model (de)serialization.

``train_model`` fits ``data.prepare`` on the raw series it is given and
keeps the statistics as the model's ``norm_stats``. One loop
(``_mean_loss``) trains and validates every encoder kind. The
encoder owns the pairing of rows with contexts: ``Encoder.split`` picks the
training and validation rows once, and ``Encoder.batches`` yields each
epoch's ``(rows, contexts)`` batches, shuffled with dropout for training and
in order for validation. Validation NLL is tracked per epoch with dropout
off, and the best validation epoch's parameters are restored.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from . import diffcore as dc
from .conditioners import ENCODERS, EncoderConfig, build_encoder
from .data import TimeSeriesDataset, prepare, write_table
from .flow import FlowConfig, FlowModel, check_values, field_defaults, nll_loss

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

    RANGES: ClassVar[dict[str, tuple]] = {
        **dict.fromkeys(("epochs", "batch_size", "patience"), (1, math.inf)),
        "learning_rate": (math.ulp(0.0), sys.float_info.max),  # positive and finite
        "clip_norm": (0, math.inf),  # 0 turns clipping off
    }

    def __post_init__(self):
        check_values(vars(self), field_defaults(TrainConfig), self.RANGES)


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 1-based index into the loss lists; 0 before the first epoch

    @property
    def best_val_loss(self) -> float:
        return self.val_losses[self.best_epoch - 1] if self.best_epoch else math.inf

    def to_csv(self, path) -> None:
        epochs = np.arange(1, len(self.train_losses) + 1)
        write_table(path, ["epoch", "train_loss", "val_loss", "best"],
                    [epochs, self.train_losses, self.val_losses, epochs == self.best_epoch])


# -- Adam ----------------------------------------------------------------------

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decay rates, denominator epsilon


class AdamState:
    """Adam moments over one flat parameter buffer.

    Construction packs ``params`` (``dc.pack``): ``values`` holds every
    parameter and ``grads`` every gradient, each parameter's ``value`` and
    ``grad`` being views, so ``dc.backward`` leaves the gradients in
    ``grads``. The buffer holds the parameters of one size side by side,
    the sizes in order of first appearance in ``params``. ``m`` and ``v``
    are the first and second moments, aligned with ``values``.
    """

    def __init__(self, params):
        self.params = list(params)
        sizes = np.array([p.value.size for p in self.params], dtype=np.intp)
        # each size group is one (count, size) block of the buffer, so the
        # per-parameter sums of the clip norm take one reduction per size
        self.size_groups = [(np.flatnonzero(sizes == size), size)
                            for size in dict.fromkeys(sizes.tolist())]
        self.values, self.grads = dc.pack(
            [self.params[i] for members, _ in self.size_groups for i in members])
        self.step = 0
        self.m = np.zeros_like(self.values)
        self.v = np.zeros_like(self.values)
        # scratch for the update: a new buffer-sized temporary per op costs
        # more than the arithmetic
        self._work = np.empty((2, self.values.size))


def adam_step(state: AdamState, lr: float, clip_norm: float) -> None:
    """Bias-corrected Adam update in place, with a global-norm clip unless ``clip_norm`` is 0.

    Reads the gradients from ``state.grads``, where ``dc.backward`` wrote
    them. The NaN check, the moment and parameter updates and the finite
    check each run once over the whole buffer. The clip norm adds up
    per-parameter sums of squares in parameter order, as a loop over the
    parameters would; each size group's sums are one reduction over its
    block of the buffer.
    """
    g = state.grads
    if np.isnan(g).any():
        bad = next(p for p in state.params if np.isnan(p.grad).any())
        raise FloatingPointError(f"NaN gradient for parameter {bad.name!r}")
    a, b = state._work
    if clip_norm > 0:
        squares = np.multiply(g, g, out=a)
        sums = np.empty(len(state.params))
        lo = 0
        for members, size in state.size_groups:
            hi = lo + members.size * size
            sums[members] = squares[lo:hi].reshape(members.size, size).sum(axis=1)
            lo = hi
        total = np.sqrt(sum(sums.tolist()))
        if total > clip_norm:
            g = np.multiply(g, clip_norm / total, out=a)
    state.step += 1
    t = state.step
    # the arithmetic of m += (1 - BETA1) * g, v += (1 - BETA2) * g * g and
    # values -= lr * m_hat / (sqrt(v_hat) + EPS), one op at a time in place
    m, v = state.m, state.v
    m *= BETA1
    m += np.multiply(g, 1.0 - BETA1, out=b)
    v *= BETA2
    v += np.multiply(np.multiply(g, 1.0 - BETA2, out=b), g, out=b)
    m_hat = np.divide(m, 1.0 - BETA1**t, out=a)
    m_hat *= lr
    denominator = np.sqrt(np.divide(v, 1.0 - BETA2**t, out=b), out=b)
    denominator += EPS
    state.values -= np.divide(m_hat, denominator, out=a)
    if not np.isfinite(state.values).all():
        bad = next(p for p in state.params if not np.isfinite(p.value).all())
        raise FloatingPointError(f"non-finite values in parameter {bad.name!r} after update")


# -- training -------------------------------------------------------------------


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
    """Fit ``data.prepare`` on the raw ``ds`` and minimize the mean NLL on its
    normalized training split; returns the model, carrying those statistics
    and the best-validation-epoch parameters, plus the loss history. A
    series the encoder kind cannot split, an empty one included, raises
    ``DataError`` before anything else (``Encoder.check_split``). The
    validation loss is computed under ``dc.no_grad``."""
    ENCODERS[encoder_cfg.kind].check_split(ds.n_steps, encoder_cfg)
    values, stats = prepare(ds)
    rng = np.random.default_rng(train_cfg.seed)
    model = build_model(values.shape[1], encoder_cfg, flow_cfg, rng, model_id=model_id)
    model.norm_stats = stats

    encoder = model.encoder
    train_rows, val_rows = encoder.split(ds.n_steps, rng)
    adam = AdamState(model.parameters())
    report = TrainReport()
    for epoch in range(1, train_cfg.epochs + 1):
        train_loss = _mean_loss(
            model, values, encoder.batches(values, train_rows, train_cfg.batch_size, rng),
            rng, adam, train_cfg)
        with dc.no_grad():
            val_loss = _mean_loss(model, values, encoder.batches(values, val_rows, 4096, None), None)
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise TrainingDiverged(epoch - 1)
        report.train_losses.append(train_loss)
        report.val_losses.append(val_loss)
        if val_loss < report.best_val_loss:
            report.best_epoch = epoch
            best_snapshot = adam.values.copy()
        elif epoch - report.best_epoch >= train_cfg.patience:
            break
    adam.values[:] = best_snapshot
    return model, report


def _mean_loss(model, values, batches, rng, adam=None, cfg=None) -> float:
    """Row-weighted mean NLL of ``values[rows]`` over the ``(rows, contexts)``
    batches, NaN if there are none; dropout iff ``rng``; with ``adam``, one
    Adam step per batch."""
    total, count = 0.0, 0
    for rows, contexts in batches:
        loss = nll_loss(model, values[rows], contexts, rng)
        if adam is not None:
            dc.backward(loss)
            adam_step(adam, cfg.learning_rate, clip_norm=cfg.clip_norm)
        total += float(loss.value) * len(rows)
        count += len(rows)
    return total / count if count else np.nan


# -- serialization -----------------------------------------------------------------


def save_model(model: FlowModel, path) -> None:
    """Versioned binary container; the parameter round trip is bit-exact.

    The header keeps format version 1's names for the flow: ``n_layers`` for
    ``coupling_layers``, and the ``cond_*`` fields without their prefix in
    one ``conditioner`` object."""
    params = model.parameters()
    flow = asdict(model.config)
    header = {
        "format_version": FORMAT_VERSION,
        "model_id": model.model_id,
        "dim": model.dim,
        "n_layers": flow.pop("coupling_layers"),
        "conditioner": {name.removeprefix("cond_"): value for name, value in flow.items()},
        "encoder": asdict(model.encoder.cfg),
        "norm_stats": [list(map(float, s)) for s in model.require_norm_stats()],
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
        if type(header) is not dict:  # an object loads as a dict, and nothing else does
            raise ValueError("not a JSON object")
    except ValueError as exc:  # a decode error included
        raise SerializationError(f"{path}: corrupt header: {exc}") from None
    offset += blob_len
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"{path}: format version {version} not supported (expected {FORMAT_VERSION})"
        )
    try:
        top = {"model_id": "", "dim": 0, "n_layers": 0}  # the configs check the rest
        check_values({name: header[name] for name in top}, top, {})
        stats = np.asarray(header["norm_stats"], dtype=np.float64)
        if stats.ndim != 2 or stats.shape[0] != 2:
            raise ValueError(f"norm_stats of shape {stats.shape}, not (2, channels)")
        for value in header["norm_stats"][0] + header["norm_stats"][1]:
            check_values({"norm_stats entry": value}, {"norm_stats entry": 0.0}, {})
        if header["dim"] != stats.shape[1] + stats.shape[1] % 2:  # prepare pads to even
            raise ValueError(f"dim {header['dim']} does not fit {stats.shape[1]} norm_stats channels")
        encoder_cfg = EncoderConfig(**header["encoder"])
        conditioner = header["conditioner"]
        if type(conditioner) is not dict:
            raise TypeError(f"conditioner {conditioner!r} is not an object")
        flow_cfg = FlowConfig(header["n_layers"],
                              **{"cond_" + name: value for name, value in conditioner.items()})
        model = build_model(header["dim"], encoder_cfg, flow_cfg, np.random.default_rng(0),
                            model_id=header["model_id"])
        declared = [(entry["name"], entry["shape"]) for entry in header["params"]]
    except KeyError as exc:
        raise SerializationError(f"{path}: header lacks key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"{path}: bad header: {exc}") from None
    bad = np.nonzero(~np.isfinite(stats))[1]
    if bad.size:
        raise SerializationError(f"{path}: non-finite norm_stats for channel {bad[0]}")
    model.norm_stats = tuple(stats)
    params = model.parameters()
    if [(p.name, list(p.value.shape)) for p in params] != declared:
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
    if not np.isfinite(values).all():
        name = next(p.name for p in params if not np.isfinite(p.value).all())
        raise SerializationError(f"{path}: non-finite value in parameter {name!r}")
    return model
