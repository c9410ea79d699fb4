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
from .data import DataError, TimeSeriesDataset
from .flow import FlowModel, gaussian_log_density

_BATCH = 1024


@dataclass
class ScoreSeries:
    """Scores aligned to the scored series, one per timestep."""

    scores: np.ndarray

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
    """Scores, and labels if there is a ``label`` column, from a CSV whose
    header names a ``score`` column, as ``ScoreSeries.to_csv`` writes it. As
    in ``data.load_csv``, a ragged row, a non-numeric or non-finite score and
    a label other than 0 or 1 raise ``DataError`` naming the row (data rows
    count from 1) and column."""
    # row by row: a list of every row's fields, thrown away per call,
    # fragments the heap so that peak memory grows with each call
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if "score" not in header:
            raise DataError(f"{path}: no 'score' column in the header")
        width, score_col = len(header), header.index("score")
        # without a label column the score column stands in, its copy unused
        label_col = header.index("label") if "label" in header else score_col
        scores, labels = [], []
        for row in reader:
            if len(row) != width:
                raise DataError(f"{path}: ragged row {len(labels) + 1} has {len(row)} cells, "
                                f"expected {width}")
            try:
                scores.append(float(row[score_col]))
                labels.append(float(row[label_col]))
            except ValueError:
                col = score_col if len(scores) == len(labels) else label_col
                raise DataError(f"{path}: non-numeric cell at row {len(labels) + 1}, "
                                f"column {col + 1}: {row[col]!r}") from None
    scores, labels = np.array(scores), np.array(labels)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise DataError(f"{path}: non-finite score at row {bad[0] + 1}, column {score_col + 1}: "
                        f"{float(scores[bad[0]])!r}")
    if label_col == score_col:
        return ScoreSeries(scores), None
    bad = np.flatnonzero((labels != 0.0) & (labels != 1.0))
    if bad.size:
        raise DataError(f"{path}: non-binary label at row {bad[0] + 1}, column {label_col + 1}: "
                        f"{float(labels[bad[0]])!r}")
    return ScoreSeries(scores), labels.astype(bool)


def _latent_series(model: FlowModel, ds: TimeSeriesDataset
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Latent coordinates, summed log|det J| and score per timestep, one flow
    call per ``_BATCH`` rows; a non-finite score raises with its timestep.
    The stateful LSTM's state runs from row to row, so its (T, hidden)
    contexts are collected first from one ``StatefulLstmEncoder.walk``;
    other encoders encode ``padded_context_windows`` batch by batch."""
    if ds.n_channels != model.dim:
        raise ValueError(f"model expects {model.dim} channels, dataset has {ds.n_channels}")
    values = ds.values
    encoder = model.encoder
    latents = np.empty_like(values)
    log_dets = np.empty(values.shape[0])
    contexts, encode = None, encoder.encode_batch
    if isinstance(encoder, StatefulLstmEncoder):
        contexts = np.empty((values.shape[0], encoder.context_dim))
        for span, context in encoder.walk(values):
            contexts[span] = context.value
            del context  # free the chunk's graph before the walk builds the next
        encode = np.asarray  # the contexts are already encoded
    elif encoder.context_dim:
        contexts = padded_context_windows(values, encoder.cfg.lookback)
    for lo in range(0, values.shape[0], _BATCH):
        hi = min(lo + _BATCH, values.shape[0])
        ctx = None if contexts is None else encode(contexts[lo:hi])
        latents[lo:hi], log_dets[lo:hi] = model.latent(values[lo:hi], ctx)
    scores = -(gaussian_log_density(latents) + log_dets)
    bad = np.nonzero(~np.isfinite(scores))[0]
    if bad.size:
        raise FloatingPointError(f"non-finite score at timestep {bad[0]}")
    return latents, log_dets, scores


def score_series(model: FlowModel, ds: TimeSeriesDataset) -> ScoreSeries:
    """Negative log density per timestep; the dataset must already carry the
    training normalization and an even channel count."""
    scores = _latent_series(model, ds)[2]
    return ScoreSeries(scores)


def select_threshold(scores, labels) -> float:
    """The unique score whose rule ``score >= threshold`` has the best F1,
    the lowest such score on ties; precision, recall and F1 per threshold are
    those of ``metrics.precision_recall_f1`` (a NaN score is never flagged)."""
    if labels is None:
        raise ValueError("best-f1 threshold selection requires labels")
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    thresholds, group = np.unique(scores, return_inverse=True)
    counted = ~np.isnan(scores)

    def at_or_above(rows):
        return np.cumsum(np.bincount(group[rows], minlength=thresholds.size)[::-1])[::-1]

    flagged, tp = at_or_above(counted), at_or_above(counted & labels)
    precision = np.divide(tp, flagged, out=np.zeros(thresholds.size), where=flagged > 0)
    recall = tp / max(int(labels.sum()), 1)
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=np.zeros(thresholds.size), where=both > 0)
    return float(thresholds[int(np.argmax(f1))])


def export_latent(model: FlowModel, ds: TimeSeriesDataset, path) -> None:
    """CSV of the normalized representation per timestep: latent coordinates,
    the summed log|det J|, the score and the label (if present). The score is
    redundantly recomputable as -(base log density + log-det), and a
    non-finite one raises as in ``score_series``, before the file is opened."""
    latents, log_dets, scores = _latent_series(model, ds)
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
