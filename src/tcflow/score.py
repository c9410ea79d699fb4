"""Per-timestep anomaly scoring, threshold selection and latent export.

The score of a timestep is its negative conditional log density, so higher
means more anomalous. Scores are reported raw: no point adjustment, no
smoothing. The first ``lookback`` timesteps are scored with their missing
history filled by repeating the first observation, keeping score/label
alignment over the whole test series.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .conditioners import StatefulLstmEncoder, padded_context_windows
from .data import TimeSeriesDataset
from .flow import FlowModel, gaussian_log_density

_BATCH = 1024


@dataclass
class ScoreSeries:
    """Scores aligned to the scored series, one per timestep."""

    scores: np.ndarray
    model_id: str = ""
    dataset_id: str = ""

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)

    def to_csv(self, path, labels=None) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            header = ["t", "score"] + (["label"] if labels is not None else [])
            writer.writerow(header)
            for t, s in enumerate(self.scores):
                row = [t, repr(float(s))]
                if labels is not None:
                    row.append(int(labels[t]))
                writer.writerow(row)


def load_score_csv(path) -> tuple[ScoreSeries, np.ndarray | None]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    scores = np.array([float(r[1]) for r in body])
    labels = None
    if "label" in header:
        col = header.index("label")
        labels = np.array([int(r[col]) for r in body], dtype=bool)
    return ScoreSeries(scores), labels


def _latent_series(model: FlowModel, ds: TimeSeriesDataset) -> tuple[np.ndarray, np.ndarray]:
    """Latent coordinates and summed log|det J| per timestep, one flow call
    per ``_BATCH`` rows. The stateful LSTM's state runs from row to row, so
    its (T, hidden) contexts are collected in order first, one truncation
    chunk at a time; other encoders encode padded windows batch by batch."""
    if ds.n_channels != model.dim:
        raise ValueError(f"model expects {model.dim} channels, dataset has {ds.n_channels}")
    values = ds.values
    encoder = model.encoder
    latents = np.empty_like(values)
    log_dets = np.empty(values.shape[0])
    contexts, encode = None, encoder.encode_batch
    if isinstance(encoder, StatefulLstmEncoder):
        stream = np.vstack([values[:1], values[:-1]])
        handle = encoder.new_handle()
        contexts = np.empty((values.shape[0], encoder.context_dim))
        for lo in range(0, values.shape[0], encoder.cfg.lookback):
            span = slice(lo, lo + encoder.cfg.lookback)
            contexts[span] = encoder.encode_step(stream[span], handle, lo).value
            encoder.detach_states(handle)  # keep the rolling graph bounded
        encode = np.asarray  # the contexts are already encoded
    elif encoder.context_dim:
        contexts = padded_context_windows(values, encoder.cfg.lookback)
    for lo in range(0, values.shape[0], _BATCH):
        hi = min(lo + _BATCH, values.shape[0])
        ctx = None if contexts is None else encode(contexts[lo:hi])
        latents[lo:hi], log_dets[lo:hi] = model.latent(values[lo:hi], ctx)
    return latents, log_dets


def score_series(model: FlowModel, ds: TimeSeriesDataset) -> ScoreSeries:
    """Negative log density per timestep; the dataset must already carry the
    training normalization and an even channel count."""
    latents, log_dets = _latent_series(model, ds)
    scores = -(gaussian_log_density(latents) + log_dets)
    bad = np.nonzero(~np.isfinite(scores))[0]
    if bad.size:
        raise FloatingPointError(f"non-finite score at timestep {bad[0]}")
    return ScoreSeries(scores, model_id=model.model_id, dataset_id=ds.provenance)


def select_threshold(scores, labels=None, policy: str = "quantile", q: float = 0.99) -> float:
    """Either the q-quantile of the scores or the threshold with best F1."""
    scores = np.asarray(scores, dtype=np.float64)
    if policy == "quantile":
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        return float(np.quantile(scores, q))
    if policy == "best-f1":
        if labels is None:
            raise ValueError("best-f1 threshold selection requires labels")
        from .metrics import precision_recall_f1

        labels = np.asarray(labels, dtype=bool)
        best_thr, best_f1 = float(scores.max()), -1.0
        for thr in np.unique(scores):
            _, _, f1 = precision_recall_f1(scores, labels, float(thr))
            if f1 > best_f1:
                best_f1, best_thr = f1, float(thr)
        return best_thr
    raise ValueError(f"unknown threshold policy {policy!r}")


def export_latent(model: FlowModel, ds: TimeSeriesDataset, path) -> None:
    """CSV of the normalized representation per timestep: latent coordinates,
    the summed log|det J|, the score and the label (if present). The score is
    redundantly recomputable as -(base log density + log-det)."""
    latents, log_dets = _latent_series(model, ds)
    scores = -(gaussian_log_density(latents) + log_dets)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = [f"u{i}" for i in range(model.dim)] + ["logdet", "score"]
        if ds.labels is not None:
            header.append("label")
        writer.writerow(header)
        for t in range(latents.shape[0]):
            row = [repr(float(v)) for v in latents[t]]
            row.append(repr(float(log_dets[t])))
            row.append(repr(float(scores[t])))
            if ds.labels is not None:
                row.append(int(ds.labels[t]))
            writer.writerow(row)


def write_score_svg(series: ScoreSeries, path, labels=None,
                    width: int = 900, height: int = 240) -> None:
    """Small standalone line plot of the scores with labeled ranges shaded."""
    scores = series.scores
    lo, hi = float(scores.min()), float(scores.max())
    span = hi - lo or 1.0
    margin = 10
    xs = margin + (width - 2 * margin) * np.arange(scores.size) / max(1, scores.size - 1)
    ys = height - margin - (height - 2 * margin) * (scores - lo) / span
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if labels is not None:
        from .data import label_runs

        for start, stop in label_runs(labels):
            x0 = margin + (width - 2 * margin) * start / max(1, scores.size - 1)
            x1 = margin + (width - 2 * margin) * (stop - 1) / max(1, scores.size - 1)
            parts.append(
                f'<rect x="{x0:.2f}" y="{margin}" width="{max(1.0, x1 - x0):.2f}" '
                f'height="{height - 2 * margin}" fill="#fbb" />'
            )
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#225" stroke-width="1"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
