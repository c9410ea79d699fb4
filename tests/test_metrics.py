import numpy as np
import pytest
from helpers import auc_pairwise_oracle, best_f1_threshold_oracle, range_labels
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcflow import metrics as mx


def buffered_weights_oracle(labels, width):
    """Brute-force distance transform for the linear buffer decay."""
    labels = np.asarray(labels, dtype=bool)
    marked = np.nonzero(labels)[0]
    out = np.zeros(labels.size)
    for i in range(labels.size):
        if marked.size == 0:
            break
        d = np.abs(marked - i).min()
        out[i] = max(0.0, (width + 1.0 - d) / (width + 1.0))
    return out


def weighted_auc_sweep_oracle(scores, weights):
    """Threshold sweep with full sums at every unique score."""
    scores = np.asarray(scores, dtype=float)
    weights = np.asarray(weights, dtype=float)
    total_pos = weights.sum()
    total_neg = (1.0 - weights).sum()
    points = [(0.0, 0.0)]
    for theta in sorted(set(scores.tolist()), reverse=True):
        flag = scores >= theta
        points.append(((1.0 - weights)[flag].sum() / total_neg, weights[flag].sum() / total_pos))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points[:-1], points[1:]):
        area += (x1 - x0) * (y1 + y0) / 2.0
    return area


def auc_pr_loop_oracle(scores, labels):
    """Precision and recall of ``score >= theta`` at each distinct score,
    highest first, the first precision repeated at recall 0; trapezoid."""
    n_pos = labels.sum()
    points = []
    for theta in sorted(set(scores.tolist()), reverse=True):
        flagged = scores >= theta
        tp = (flagged & labels).sum()
        points.append((tp / n_pos, tp / flagged.sum()))
    points.insert(0, (0.0, points[0][1]))
    return sum((r1 - r0) * (p0 + p1) / 2.0 for (r0, p0), (r1, p1) in zip(points, points[1:]))


@st.composite
def tied_binary(draw):
    """Scores on a coarse integer grid, so ties are common, with both classes."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 6), st.booleans()), min_size=2, max_size=60)
                 .filter(lambda pairs: 0 < sum(label for _, label in pairs) < len(pairs)))
    scores, labels = zip(*pairs)
    return np.array(scores, dtype=float), np.array(labels)


# every public metric over (scores, 0/1 labels)
METRICS = {
    "auc_roc": mx.auc_roc,
    "auc_pr": mx.auc_pr,
    "vus_roc": lambda scores, labels: mx.vus_roc(scores, labels, 2),
    "weighted_auc_roc": lambda scores, labels: mx.weighted_auc_roc(scores, labels.astype(float)),
    "precision_recall_f1": lambda scores, labels: mx.precision_recall_f1(scores, labels, 0.5),
    "select_threshold": mx.select_threshold,
}


def distance_to_true_loop(labels):
    """The two sweeps ``_distance_to_true`` replaced: exact oracle."""
    n = labels.size
    inf = float(n + 1)
    forward = np.full(n, inf)
    last = -inf
    for i in range(n):
        if labels[i]:
            last = i
        forward[i] = i - last
    backward = np.full(n, inf)
    nxt = inf * 2
    for i in range(n - 1, -1, -1):
        if labels[i]:
            nxt = i
        backward[i] = nxt - i
    return np.minimum(forward, backward)


class TestVectorizedHelpers:
    @pytest.mark.parametrize("seed", range(5))
    def test_distance_to_true_equals_sweeps(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 9, 300):
            labels = rng.random(n) < (0.0 if n == 9 else 0.1)
            np.testing.assert_array_equal(mx._distance_to_true(labels),
                                          distance_to_true_loop(labels))

    @pytest.mark.parametrize("seed", range(3))
    def test_vus_equals_mean_of_per_width_range_labels(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=500)
        labels = np.zeros(500, dtype=bool)
        labels[[40, 41, 42, 300, 480]] = True
        expected = float(np.mean([mx.weighted_auc_roc(scores, range_labels(labels, w))
                                  for w in range(13)]))
        assert mx.vus_roc(scores, labels, 12) == expected


class TestAucRoc:
    def test_perfect_separation(self):
        assert mx.auc_roc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_worked_example(self):
        assert mx.auc_roc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_all_ties_is_half(self):
        assert mx.auc_roc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            mx.auc_roc([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_pairwise_oracle_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 200))
        scores = rng.integers(0, 12, n).astype(float)  # coarse grid forces ties
        labels = rng.random(n) < 0.3
        if labels.all() or not labels.any():
            labels[0] = True
            labels[1] = False
        assert mx.auc_roc(scores, labels) == auc_pairwise_oracle(scores, labels)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 5.0), st.floats(-3.0, 3.0))
    def test_invariant_under_increasing_transform(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=40)
        labels = rng.random(40) < 0.4
        if labels.all() or not labels.any():
            labels[0] = True
            labels[1] = False
        transformed = np.exp(scale * scores) + shift
        assert mx.auc_roc(transformed, labels) == pytest.approx(mx.auc_roc(scores, labels), abs=1e-12)


class TestRangeLabels:
    def test_zero_width_equals_binary(self):
        labels = np.array([0, 1, 1, 0, 0], dtype=bool)
        np.testing.assert_array_equal(range_labels(labels, 0), labels.astype(float))

    def test_single_point_linear_decay(self):
        labels = np.zeros(9, dtype=bool)
        labels[4] = True
        weights = range_labels(labels, 2)
        np.testing.assert_allclose(weights[4], 1.0)
        np.testing.assert_allclose(weights[3], 2.0 / 3.0)
        np.testing.assert_allclose(weights[5], 2.0 / 3.0)
        np.testing.assert_allclose(weights[2], 1.0 / 3.0)
        np.testing.assert_allclose(weights[6], 1.0 / 3.0)
        np.testing.assert_allclose(weights[1], 0.0)
        np.testing.assert_allclose(weights[7], 0.0)

    def test_adjacent_ranges_merge_by_max(self):
        labels = np.zeros(12, dtype=bool)
        labels[3] = True
        labels[6] = True
        weights = range_labels(labels, 3)
        oracle = np.maximum(
            buffered_weights_oracle(np.eye(12, dtype=bool)[3], 3),
            buffered_weights_oracle(np.eye(12, dtype=bool)[6], 3),
        )
        np.testing.assert_allclose(weights, oracle)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_distance_transform_oracle(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.random(60) < 0.15
        for width in (0, 1, 2, 5, 11):
            np.testing.assert_allclose(
                range_labels(labels, width),
                buffered_weights_oracle(labels, width),
            )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 8))
    def test_bounded_and_monotone_in_width(self, seed, width):
        rng = np.random.default_rng(seed)
        labels = rng.random(50) < 0.2
        narrow = range_labels(labels, width)
        wide = range_labels(labels, width + 1)
        assert (narrow >= 0).all() and (narrow <= 1).all()
        assert (wide >= narrow - 1e-12).all()


class TestVusRoc:
    def test_width_zero_equals_auc(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=100)
        labels = rng.random(100) < 0.2
        labels[0] = True
        labels[1] = False
        assert abs(mx.vus_roc(scores, labels, 0) - mx.auc_roc(scores, labels)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_threshold_sweep_oracle(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 15, 50).astype(float)
        labels = rng.random(50) < 0.2
        if not labels.any() or labels.all():
            labels[3] = True
            labels[4] = False
        max_width = 4
        oracle = np.mean([
            weighted_auc_sweep_oracle(scores, buffered_weights_oracle(labels, w))
            for w in range(max_width + 1)
        ])
        assert mx.vus_roc(scores, labels, max_width) == pytest.approx(oracle, abs=1e-12)

    def test_constant_scores_give_half_for_all_widths(self):
        labels = np.zeros(30, dtype=bool)
        labels[10:13] = True
        assert mx.vus_roc(np.ones(30), labels, 5) == pytest.approx(0.5)

    def test_scores_equal_to_labels(self):
        labels = np.zeros(40, dtype=bool)
        labels[20:24] = True
        value = mx.vus_roc(labels.astype(float), labels, 3)
        oracle = np.mean([
            weighted_auc_sweep_oracle(labels.astype(float), buffered_weights_oracle(labels, w))
            for w in range(4)
        ])
        assert value == pytest.approx(oracle, abs=1e-12)


class TestPrecisionRecallF1:
    def test_counting_example(self):
        p, r, f1 = mx.precision_recall_f1([0.0, 1.0, 0.0, 0.0], [0, 1, 1, 0], threshold=0.5)
        assert (p, r) == (1.0, 0.5)
        assert f1 == pytest.approx(2.0 / 3.0)

    def test_threshold_above_max_kills_recall(self):
        _, r, f1 = mx.precision_recall_f1([0.2, 0.4], [1, 0], threshold=1.0)
        assert r == 0.0 and f1 == 0.0

    def test_perfect_predictions(self):
        labels = np.array([0, 1, 1, 0])
        _, _, f1 = mx.precision_recall_f1(labels.astype(float), labels, threshold=0.5)
        assert f1 == 1.0


class TestAucPr:
    def test_perfect_scores(self):
        assert mx.auc_pr([0.1, 0.2, 0.9, 0.95], [0, 0, 1, 1]) == pytest.approx(1.0)

    def test_between_zero_and_one_random(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=80)
        labels = rng.random(80) < 0.3
        labels[0] = True
        labels[1] = False
        assert 0.0 <= mx.auc_pr(scores, labels) <= 1.0


class TestCombinedObjective:
    def test_unit_inputs(self):
        assert mx.combined_objective(1.0, 1.0) == 1.0

    def test_arithmetic(self):
        assert mx.combined_objective(0.8, 0.9) == pytest.approx(0.87)

    def test_zero(self):
        assert mx.combined_objective(0.0, 0.0) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mx.combined_objective(1.2, 0.5)


class TestInferWindow:
    def test_median_run_length(self):
        labels = np.zeros(50, dtype=bool)
        labels[5:8] = True     # length 3
        labels[20:27] = True   # length 7
        labels[40:45] = True   # length 5
        assert mx.resolve_metric_window(-1, labels) == 5

    def test_no_anomalies_gives_zero(self):
        assert mx.resolve_metric_window(-1, np.zeros(10, dtype=bool)) == 0

    def test_no_labels_give_zero_and_a_set_window_is_kept(self):
        labels = np.zeros(20, dtype=bool)
        labels[5:9] = True
        assert mx.resolve_metric_window(-1, None) == 0
        assert mx.resolve_metric_window(0, labels) == 0
        assert mx.resolve_metric_window(7, None) == 7


class TestRejectedInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", METRICS)
    def test_non_finite_score_rejected_with_its_index(self, name, bad):
        scores = np.array([0.1, 0.9, 0.4, bad, 0.7, 0.2])
        labels = np.array([0, 1, 0, 1, 1, 0])
        with pytest.raises(ValueError, match="non-finite score at index 3"):
            METRICS[name](scores, labels)

    @pytest.mark.parametrize("name", METRICS)
    def test_length_mismatch_rejected(self, name):
        with pytest.raises(ValueError, match="equal-length vectors"):
            METRICS[name](np.array([0.1, 0.9, 0.4, 0.3, 0.7]), np.array([0, 1, 0, 1]))


class TestTiedScores:
    @settings(max_examples=60, deadline=None)
    @given(tied_binary())
    def test_auc_roc_equals_pairwise_oracle(self, case):
        assert mx.auc_roc(*case) == auc_pairwise_oracle(*case)

    @settings(max_examples=60, deadline=None)
    @given(tied_binary())
    # F1 is 2/3 at both 2.0 and 1.0, so the lowest best score is taken
    @example((np.array([2.0, 1.0, 1.0, 1.0, 0.0]), np.array([1, 1, 0, 0, 0], dtype=bool)))
    def test_select_threshold_equals_per_threshold_loop(self, case):
        assert mx.select_threshold(*case) == best_f1_threshold_oracle(*case)

    @settings(max_examples=60, deadline=None)
    @given(tied_binary())
    def test_auc_pr_equals_loop_oracle(self, case):
        assert mx.auc_pr(*case) == pytest.approx(auc_pr_loop_oracle(*case), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(tied_binary())
    def test_vus_at_width_zero_equals_auc(self, case):
        assert abs(mx.vus_roc(*case, 0) - mx.auc_roc(*case)) <= 1e-12
