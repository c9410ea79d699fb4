"""Per-timestep anomaly scoring and latent export.

Both take the raw series and apply ``data.prepare`` with the model's
``norm_stats``, refusing a model without them. The score of a timestep is
its negative conditional log density, so higher means more anomalous.
Scores are reported raw: no point adjustment, no smoothing. Every timestep
is scored: the encoder's ``batches`` pairs each row with its context, the
first ``lookback`` rows with their missing history filled by repeating the
first observation, keeping score/label alignment over the whole test series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .data import (DataError, TimeSeriesDataset, binary_labels, label_runs, prepare, read_table,
                   write_table)
from .flow import FlowModel, gaussian_log_density

_BATCH = 1024


@dataclass
class ScoreSeries:
    """Scores aligned to the scored series, one per timestep."""

    scores: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)

    def to_csv(self, path, labels=None) -> None:
        header, columns = ["t", "score"], [np.arange(self.scores.size), self.scores]
        if labels is not None:
            header.append("label")
            columns.append(labels)
        write_table(path, header, columns)


def load_score_csv(path) -> tuple[ScoreSeries, np.ndarray | None]:
    """Scores, and labels if there is a ``label`` column, from a
    ``data.read_table`` table whose header names a ``score`` column."""
    header, values = read_table(path)
    if header is None or "score" not in header:
        raise DataError(f"{path}: no 'score' column in the header")
    series = ScoreSeries(values[:, header.index("score")])
    if "label" not in header:
        return series, None
    return series, binary_labels(path, values, header.index("label"))


def _latent_series(model: FlowModel, ds: TimeSeriesDataset
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Latent coordinates, summed log|det J| and score per timestep of the
    raw ``ds``; a non-finite score raises with its timestep. The
    (T, context_dim) contexts of every row are collected first from one
    ``Encoder.batches`` walk (the stateful LSTM's state runs from row to
    row), each block's copied so that no view keeps an encoder's working
    array alive, then ``FlowModel.latent_nodes`` runs once per ``_BATCH`` rows."""
    values = prepare(ds, model.require_norm_stats())[0]
    n_steps, encoder = values.shape[0], model.encoder
    contexts = None
    if encoder.context_dim:  # kind none conditions on nothing
        # without an rng, every kind yields the rows in series order
        contexts = np.concatenate([context.value.copy() for _, context in
                                   encoder.batches(values, np.arange(n_steps), _BATCH, None)])
    latents = np.empty_like(values)
    log_dets = np.empty(n_steps)
    for lo in range(0, n_steps, _BATCH):
        block = slice(lo, lo + _BATCH)
        ctx = None if contexts is None else dc.constant(contexts[block])
        # no name holds a node, so a block's graph is freed before the next is built
        latents[block], log_dets[block] = (node.value for node in
                                           model.latent_nodes(values[block], ctx))
    scores = -(gaussian_log_density(latents) + log_dets)
    bad = np.nonzero(~np.isfinite(scores))[0]
    if bad.size:
        raise FloatingPointError(f"non-finite score at timestep {bad[0]}")
    return latents, log_dets, scores


def score_series(model: FlowModel, ds: TimeSeriesDataset) -> ScoreSeries:
    """Negative log density per timestep of the raw series ``ds``."""
    scores = _latent_series(model, ds)[2]
    return ScoreSeries(scores)


def export_latent(model: FlowModel, ds: TimeSeriesDataset, path) -> None:
    """CSV of the normalized representation per timestep: latent coordinates,
    the summed log|det J|, the score and the label (if present). The score is
    redundantly recomputable as -(base log density + log-det), and a
    non-finite one raises as in ``score_series``, before the file is opened."""
    latents, log_dets, scores = _latent_series(model, ds)
    header = [f"u{i}" for i in range(model.dim)] + ["logdet", "score"]
    columns = [*latents.T, log_dets, scores]
    if ds.labels is not None:
        header.append("label")
        columns.append(ds.labels)
    write_table(path, header, columns)


def write_score_svg(series: ScoreSeries, path, labels=None) -> None:
    """Small standalone line plot of the scores with labeled ranges shaded."""
    scores = series.scores
    lo, hi = float(scores.min()), float(scores.max())
    span = hi - lo or 1.0
    width, height, margin = 900, 240, 10
    xs = margin + (width - 2 * margin) * np.arange(scores.size) / max(1, scores.size - 1)
    ys = height - margin - (height - 2 * margin) * (scores - lo) / span
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if labels is not None:
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
