"""Detection metrics: AUC-ROC, AUC-PR, precision/recall/F1 and a ranged
VUS-ROC built on linearly decaying label buffers.

VUS variant implemented here: for every buffer width w in 0..W the binary
labels are widened into continuous weights (1 inside a range, then
(w + 1 - d) / (w + 1) at distance d out to d = w, overlaps taking the max),
a weighted ROC AUC is computed over those weights, and the volume is the
mean of the per-width AUCs. No existence reward, no square-root decay, no
point adjustment.
"""

from __future__ import annotations

import numpy as np

from .data import label_runs

VUS_VARIANT = "linear-buffer-mean-over-widths"


def _validate(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"scores {scores.shape} and labels {labels.shape} must be equal-length vectors")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise ValueError(f"non-finite score at index {bad[0]}: {scores[bad[0]]}")
    return scores, labels.astype(bool)


def _at_or_above(scores, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct scores, highest first, and for each the number of rows
    and of positives scoring at or above it (exact integer counts)."""
    distinct, group = np.unique(scores, return_inverse=True)
    rows = np.cumsum(np.bincount(group, minlength=distinct.size)[::-1])
    hits = np.cumsum(np.bincount(group[labels], minlength=distinct.size)[::-1])
    return distinct[::-1], rows, hits


def auc_roc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative, with
    ties counted half (Mann-Whitney U over tie groups)."""
    scores, labels = _validate(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc_roc needs both classes present")
    _, rows, hits = _at_or_above(scores, labels)
    false_pos = rows - hits
    pos, neg = np.diff(hits, prepend=0), np.diff(false_pos, prepend=0)
    # 2U as an exact integer, so the one rounding is the final division
    twice_wins = 2 * int(pos @ (n_neg - false_pos)) + int(pos @ neg)
    return twice_wins / (2 * n_pos * n_neg)


def _buffer_weights(distance: np.ndarray, width: int) -> np.ndarray:
    return np.clip((width + 1.0 - distance) / (width + 1.0), 0.0, 1.0)


def _distance_to_true(labels: np.ndarray) -> np.ndarray:
    """Cells to the nearest True cell; more than ``labels.size`` without one."""
    n = labels.size
    index = np.arange(n, dtype=np.float64)
    last = np.maximum.accumulate(np.where(labels, index, -float(n + 1)))
    following = np.minimum.accumulate(np.where(labels, index, 2.0 * (n + 1))[::-1])[::-1]
    return np.minimum(index - last, following - index)


def weighted_auc_roc(scores: np.ndarray, weights: np.ndarray) -> float:
    """ROC AUC where each point counts ``weight`` as positive and
    ``1 - weight`` as negative; trapezoidal over unique thresholds."""
    scores, _ = _validate(scores, weights)
    return _weighted_aucs(scores, [weights])[0]


def _weighted_aucs(scores, weight_rows) -> list[float]:
    """``weighted_auc_roc`` for each weight vector, the scores ranked once."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="mergesort")
    boundary = np.nonzero(np.diff(scores[order]))[0]  # last index of each tie group
    aucs = []
    for weights in weight_rows:
        weights = np.asarray(weights, dtype=np.float64)
        total_pos = weights.sum()
        total_neg = (1.0 - weights).sum()
        if total_pos <= 0 or total_neg <= 0:
            raise ValueError("weighted auc needs mass on both classes")
        w = weights[order]
        tp = np.concatenate([[0.0], np.cumsum(w)[boundary], [total_pos]])
        fp = np.concatenate([[0.0], np.cumsum(1.0 - w)[boundary], [total_neg]])
        aucs.append(float(np.trapezoid(tp / total_pos, fp / total_neg)))
    return aucs


def vus_roc(scores, labels, max_width: int) -> float:
    """Mean weighted ROC AUC over buffer widths 0..max_width."""
    scores, labels = _validate(scores, labels)
    if max_width < 0:
        raise ValueError("max_width must be >= 0")
    if not labels.any() or labels.all():
        raise ValueError("vus_roc needs both classes present")
    distance = _distance_to_true(labels)
    widths = range(max_width + 1)
    return float(np.mean(_weighted_aucs(scores, (_buffer_weights(distance, w) for w in widths))))


def precision_recall_f1(scores, labels, threshold: float) -> tuple[float, float, float]:
    """Binary precision/recall/F1 for the rule ``score >= threshold``."""
    scores, labels = _validate(scores, labels)
    predicted = scores >= threshold
    tp = int((predicted & labels).sum())
    fp = int((predicted & ~labels).sum())
    fn = int((~predicted & labels).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def select_threshold(scores, labels) -> float:
    """The distinct score whose rule ``score >= threshold`` has the best F1 of
    ``precision_recall_f1``, the lowest such score on ties."""
    scores, labels = _validate(scores, labels)
    distinct, rows, hits = _at_or_above(scores, labels)
    precision = hits / rows
    recall = hits / max(int(labels.sum()), 1)
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=np.zeros(distinct.size), where=both > 0)
    return float(distinct[distinct.size - 1 - int(np.argmax(f1[::-1]))])


def auc_pr(scores, labels) -> float:
    """Trapezoidal area under the precision-recall curve."""
    scores, labels = _validate(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == labels.size:
        raise ValueError("auc_pr needs both classes present")
    _, rows, hits = _at_or_above(scores, labels)
    precision = hits / rows
    recall = hits / n_pos
    recall = np.concatenate([[0.0], recall])
    precision = np.concatenate([[precision[0]], precision])
    return float(np.trapezoid(precision, recall))


def combined_objective(auc: float, vus: float) -> float:
    """Fixed 30:70 blend of AUC-ROC and VUS-ROC."""
    for name, value in (("auc", auc), ("vus", vus)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    return 0.3 * auc + 0.7 * vus


def resolve_metric_window(window: int, labels) -> int:
    """The VUS max width ``window``; -1 infers the median labeled-range
    length of ``labels``, 0 when ``labels`` is None or has no labeled range."""
    if window != -1:
        return window
    runs = [] if labels is None else label_runs(labels)
    if not runs:
        return 0
    lengths = [stop - start for start, stop in runs]
    return int(np.median(lengths))
