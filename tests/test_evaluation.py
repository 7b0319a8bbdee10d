"""Metrics against brute-force oracles and the t-test against reference values."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from correntia import (
    Dataset,
    DegenerateDifferencesError,
    Model,
    Curve,
    accuracy,
    auc,
    confusion_counts,
    linear_representation,
    multiclass_binary_scores,
    paired_ttest,
    pr_curve,
    roc_curve,
    score_matrix,
    student_t_sf,
)


def mann_whitney(scores, truth):
    """Brute-force pairwise ranking statistic: ties count one half."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=bool)
    pos = scores[truth]
    neg = scores[~truth]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAccuracy:
    def test_identical(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert accuracy([1, 1, 1], [2, 2, 2]) == 0.0

    def test_two_thirds(self):
        assert accuracy([1, 2, 2], [1, 2, 1]) == pytest.approx(2.0 / 3.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 2])

    def test_empty(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=30),
           st.randoms(use_true_random=False))
    def test_permutation_invariant(self, pairs, rand):
        pred = [p for p, _ in pairs]
        truth = [t for _, t in pairs]
        base = accuracy(pred, truth)
        order = list(range(len(pairs)))
        rand.shuffle(order)
        assert accuracy([pred[i] for i in order], [truth[i] for i in order]) == base


class TestConfusionCounts:
    def test_threshold_below_everything(self):
        counts = confusion_counts([0.2, 0.8, 0.5], [True, False, True], -1.0)
        assert counts.tp + counts.fp == 3 and counts.tn == counts.fn == 0

    def test_threshold_above_everything(self):
        counts = confusion_counts([0.2, 0.8, 0.5], [True, False, True], 2.0)
        assert counts.tn + counts.fn == 3 and counts.tp == counts.fp == 0

    def test_hand_case(self):
        counts = confusion_counts([0.9, 0.4, 0.6], [True, False, True], 0.5)
        assert counts == (2, 0, 1, 0)

    def test_totals(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal(50)
        truth = rng.integers(0, 2, 50).astype(bool)
        counts = confusion_counts(scores, truth, 0.1)
        assert counts.tp + counts.fp + counts.tn + counts.fn == 50


class TestRocCurve:
    def test_perfect_ranking_passes_top_left(self):
        curve = roc_curve([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        assert np.any((curve.x == 0.0) & (curve.y == 1.0))

    def test_all_tied_scores_collapse_to_diagonal(self):
        curve = roc_curve([0.5, 0.5, 0.5], [True, False, True])
        assert curve.x.tolist() == [0.0, 1.0] and curve.y.tolist() == [0.0, 1.0]

    def test_hand_sweep(self):
        curve = roc_curve([0.9, 0.4, 0.6], [True, False, True])
        assert curve.x.tolist() == [0.0, 0.0, 0.0, 1.0]
        assert curve.y.tolist() == [0.0, 0.5, 1.0, 1.0]
        assert curve.threshold.tolist() == [math.inf, 0.9, 0.6, 0.4]

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="positive and one negative"):
            roc_curve([0.1, 0.2], [True, True])

    def test_monotone_from_origin_to_corner(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(2, 60))
            scores = np.round(rng.standard_normal(n), 1)
            truth = rng.integers(0, 2, n).astype(bool)
            if truth.all() or not truth.any():
                continue
            curve = roc_curve(scores, truth)
            assert (curve.x[0], curve.y[0]) == (0.0, 0.0)
            assert (curve.x[-1], curve.y[-1]) == (1.0, 1.0)
            assert np.all(np.diff(curve.x) >= 0)
            assert np.all(np.diff(curve.y) >= 0)


    def test_every_point_matches_confusion_counts_at_its_threshold(self):
        # the per-threshold loop the vectorized sweep replaces, with the same divisions
        rng = np.random.default_rng(3)
        scores = np.round(rng.standard_normal(60), 1)
        truth = rng.integers(0, 2, 60).astype(bool)
        roc, pr = roc_curve(scores, truth), pr_curve(scores, truth)
        assert roc.threshold.tolist() == [math.inf, *sorted(set(scores.tolist()), reverse=True)]
        assert np.array_equal(pr.threshold, roc.threshold)
        pos, neg = int(truth.sum()), int((~truth).sum())
        for i, threshold in enumerate(roc.threshold):
            c = confusion_counts(scores, truth, threshold)
            assert (roc.x[i], roc.y[i]) == (c.fp / neg, c.tp / pos)
            assert (pr.x[i], pr.y[i]) == (c.tp / pos, c.tp / (c.tp + c.fp) if c.tp + c.fp else 1.0)


class TestAuc:
    def test_perfect(self):
        assert auc(roc_curve([0.9, 0.8, 0.1], [True, True, False])) == 1.0

    def test_reversed(self):
        assert auc(roc_curve([0.1, 0.2, 0.9], [True, True, False])) == 0.0

    def test_hand_case(self):
        assert auc(roc_curve([0.9, 0.4, 0.6], [True, False, True])) == 1.0

    def test_equals_pairwise_statistic_with_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 80))
            scores = np.round(rng.standard_normal(n) * 2, 1)  # coarse grid forces ties
            truth = rng.integers(0, 2, n).astype(bool)
            if truth.all() or not truth.any():
                continue
            area = auc(roc_curve(scores, truth))
            assert area == pytest.approx(mann_whitney(scores, truth), abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            auc(Curve([], [], []))


class TestCurve:
    def test_arrays_are_read_only_float64_copies(self):
        x = np.array([0.0, 1.0])
        curve = Curve([math.inf, 0.5], x, [0, 1])
        assert all(a.dtype == np.float64 and not a.flags.writeable
                   for a in (curve.threshold, curve.x, curve.y))
        x[1] = 7.0
        assert curve.x[1] == 1.0

    def test_equality_is_exact_over_all_three_arrays(self):
        curve = roc_curve([0.9, 0.4, 0.6], [True, False, True])
        assert curve == roc_curve([0.6, 0.9, 0.4], [True, True, False])
        assert curve != Curve(curve.threshold, curve.x, np.nextafter(curve.y, 2.0))  # one ulp
        assert curve != Curve(curve.threshold[::-1], curve.x, curve.y)
        assert curve != Curve(curve.threshold[:2], curve.x[:2], curve.y[:2])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            Curve([math.inf, 0.5], [0.0, 1.0], [0.0])


class TestPrCurve:
    def test_perfect_ranking_reaches_top_right(self):
        curve = pr_curve([0.9, 0.8, 0.1], [True, True, False])
        assert np.any((curve.x == 1.0) & (curve.y == 1.0))

    def test_hand_case_at_threshold(self):
        curve = pr_curve([0.9, 0.4, 0.6], [True, False, True])
        at_06 = np.flatnonzero(curve.threshold == 0.6)[0]
        assert curve.x[at_06] == 1.0 and curve.y[at_06] == 1.0

    def test_zero_predicted_positives_convention(self):
        curve = pr_curve([0.3, 0.7], [True, False])
        assert curve.x[0] == 0.0 and curve.y[0] == 1.0 and curve.threshold[0] == math.inf

    def test_needs_positives(self):
        with pytest.raises(ValueError, match="positive"):
            pr_curve([0.1, 0.2], [False, False])


class TestPairedTTest:
    def test_zero_mean_difference(self):
        t, p = paired_ttest([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert t == 0.0 and p == 1.0

    def test_swap_negates_t_keeps_p(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(12)
        b = a + rng.standard_normal(12) * 0.5 + 0.3
        t_ab, p_ab = paired_ttest(a, b)
        t_ba, p_ba = paired_ttest(b, a)
        assert t_ab == pytest.approx(-t_ba, abs=1e-12)
        assert p_ab == pytest.approx(p_ba, abs=1e-12)

    def test_large_effect_small_p(self):
        rng = np.random.default_rng(4)
        noise = rng.standard_normal(10)
        # mean difference of ten standard errors
        d = noise - noise.mean()
        se = d.std(ddof=1) / math.sqrt(10)
        a = d + 10 * se
        t, p = paired_ttest(a, np.zeros(10))
        assert t == pytest.approx(10.0, abs=1e-9)
        assert p < 0.001

    def test_constant_shift_is_degenerate(self):
        a = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DegenerateDifferencesError):
            paired_ttest(a, a + 0.5)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            paired_ttest([1.0], [2.0])

    def test_matches_scipy_on_random_instances(self):
        from scipy import stats

        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            a = rng.standard_normal(n)
            b = a + rng.standard_normal(n) * rng.uniform(0.1, 2) + rng.uniform(-1, 1)
            if np.std(a - b, ddof=1) == 0:
                continue
            t, p = paired_ttest(a, b)
            ref = stats.ttest_rel(a, b)
            assert t == pytest.approx(ref.statistic, rel=1e-12)
            assert p == pytest.approx(ref.pvalue, rel=1e-10)


class TestStudentT:
    def test_tail_against_mpmath_grid(self):
        # oracle: twice the upper integral of the t density, independent of the beta form
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for df in (1, 2, 5, 9, 30):
            nu = mpmath.mpf(df)
            norm = mpmath.gamma((nu + 1) / 2) / (mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2))
            for t in (0.1, 1.0, 2.0, 5.0, 20.0):
                upper = mpmath.quad(lambda x: (1 + x * x / nu) ** (-(nu + 1) / 2), [t, mpmath.inf])
                ref = float(2 * norm * upper)
                assert student_t_sf(t, df) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_two_sided_tail_monotone_in_t(self):
        values = [student_t_sf(t, 7) for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_symmetric_in_t(self):
        assert student_t_sf(-1.7, 11) == student_t_sf(1.7, 11)


class TestMulticlassBinaryScores:
    def _model(self):
        return Model(
            weights=np.array([[1.0], [-1.0]]),
            biases=np.zeros(2),
            representation=linear_representation(),
            sigma_final=1.0,
            class_map=("a", "b"),
        )

    def _scores(self, ds):
        return score_matrix(self._model(), ds.features)

    def test_two_class_truth_is_binarized_labels(self):
        ds = Dataset(np.array([[1.0], [-2.0], [3.0]]), np.array([1, 2, 1]), 2)
        scores, truth = multiclass_binary_scores(self._scores(ds), ds.labels, 1)
        np.testing.assert_array_equal(truth, [True, False, True])
        np.testing.assert_allclose(scores, [1.0, -2.0, 3.0])

    def test_absent_positive_class_gives_all_negative_truth(self):
        ds = Dataset(np.array([[1.0], [2.0]]), np.array([1, 1]), 2)
        scores, truth = multiclass_binary_scores(self._scores(ds), ds.labels, 2)
        assert not truth.any()
        with pytest.raises(ValueError):
            roc_curve(scores, truth)

    def test_perfect_model_yields_unit_auc(self):
        ds = Dataset(np.array([[2.0], [1.5], [-1.0], [-2.5]]), np.array([1, 1, 2, 2]), 2)
        scores, truth = multiclass_binary_scores(self._scores(ds), ds.labels, 1)
        assert auc(roc_curve(scores, truth)) == 1.0

    def test_out_of_range_class(self):
        ds = Dataset(np.array([[1.0]]), np.array([1]), 2)
        with pytest.raises(ValueError, match="out of range"):
            multiclass_binary_scores(self._scores(ds), ds.labels, 3)
