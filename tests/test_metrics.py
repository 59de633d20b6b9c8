import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randist.metrics import auc_pr, auc_roc, nmi, pairwise_f
from randist.rng import stream

from oracles import (
    auc_pr_bruteforce,
    auc_roc_bruteforce,
    nmi_bruteforce,
    pairwise_f_bruteforce,
    roc_trapezoid,
)


class TestAucRoc:
    def test_hand_example(self):
        scores, labels = [0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]
        assert auc_roc(scores, labels) == auc_roc_bruteforce(scores, labels) == 0.75

    def test_perfect_separation(self):
        assert auc_roc([5.0, 4.0, 1.0, 0.5], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert auc_roc([1.0, 1.0, 1.0, 1.0], [1, 0, 1, 0]) == 0.5

    def test_matches_trapezoid_on_tie_free_inputs(self):
        rng = stream(1)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            scores = rng.permutation(n).astype(float)  # distinct scores
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            got = auc_roc(scores, labels)
            assert got == pytest.approx(roc_trapezoid(scores.tolist(), labels.tolist()), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="positive and one negative"):
            auc_roc([0.1, 0.2], [1, 1])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            auc_roc([np.nan, 0.2], [1, 0])


class TestAucPr:
    def test_hand_example(self):
        scores, labels = [0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]
        expected = auc_pr_bruteforce(scores, labels)
        assert expected == pytest.approx(5.0 / 6.0, abs=1e-15)
        assert auc_pr(scores, labels) == pytest.approx(expected, abs=1e-12)

    def test_positives_ranked_first(self):
        assert auc_pr([9.0, 8.0, 2.0, 1.0], [1, 1, 0, 0]) == 1.0

    def test_random_scores_approach_positive_rate(self):
        rng = stream(2)
        n, p = 10000, 0.3
        labels = (rng.random(n) < p).astype(int)
        scores = rng.random(n)
        assert abs(auc_pr(scores, labels) - labels.mean()) < 0.05

    def test_tie_break_is_stable_input_order(self):
        # equal scores: earlier rows rank first
        assert auc_pr([1.0, 1.0], [1, 0]) == 1.0
        assert auc_pr([1.0, 1.0], [0, 1]) == 0.5


class TestNmi:
    def test_identical(self):
        assert nmi([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_independent(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0

    def test_contingency_oracle_case(self):
        a, b = [0, 0, 1, 1], [0, 0, 1, 2]
        assert nmi(a, b) == pytest.approx(nmi_bruteforce(a, b), abs=1e-12)

    def test_both_single_cluster(self):
        assert nmi([0, 0, 0], [5, 5, 5]) == 1.0

    def test_one_side_single_cluster(self):
        assert nmi([0, 0, 0], [0, 1, 2]) == 0.0

    def test_relabel_invariance_and_symmetry(self):
        rng = stream(3)
        a = rng.integers(0, 3, 20)
        b = rng.integers(0, 4, 20)
        relabeled = np.array([9, 4, 7])[a]  # permute ids
        assert nmi(a, b) == pytest.approx(nmi(relabeled.tolist(), b), abs=1e-12)
        assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nmi([0, 1], [0, 1, 2])


class TestPairwiseF:
    def test_identical(self):
        assert pairwise_f([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_hand_example(self):
        # truth pairs {01},{23}; predicted pairs {12},{13},{23}; TP = {23}
        a, b = [0, 0, 1, 1], [0, 1, 1, 1]
        assert pairwise_f_bruteforce(a, b) == pytest.approx(0.4, abs=1e-15)
        assert pairwise_f(a, b) == pytest.approx(0.4, abs=1e-12)

    def test_all_singletons_vs_pairs(self):
        assert pairwise_f([0, 0, 1, 1], [0, 1, 2, 3]) == 0.0

    def test_both_all_singletons(self):
        assert pairwise_f([0, 1, 2], [5, 6, 7]) == 1.0

    def test_symmetry(self):
        rng = stream(4)
        a = rng.integers(0, 3, 15).tolist()
        b = rng.integers(0, 3, 15).tolist()
        assert pairwise_f(a, b) == pytest.approx(pairwise_f(b, a), abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            pairwise_f([0], [0])


class TestScaleInvariance:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    def test_positive_scaling_preserves_both_aucs(self, seed, c):
        rng = stream(seed)
        n = int(rng.integers(4, 40))
        scores = rng.standard_normal(n)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auc_roc(scores, labels) == auc_roc(c * scores, labels)
        assert auc_pr(scores, labels) == auc_pr(c * scores, labels)

    def test_shift_preserves_both_aucs(self):
        rng = stream(5)
        scores = rng.standard_normal(30)
        labels = rng.integers(0, 2, 30)
        labels[0], labels[1] = 0, 1
        assert auc_roc(scores, labels) == auc_roc(scores + 100.0, labels)
        assert auc_pr(scores, labels) == auc_pr(scores + 100.0, labels)


class TestBruteForceSuite:
    """Randomized agreement with exhaustive oracles on every input N <= 8."""

    def test_binary_metrics_1000_cases(self):
        rng = stream(6)
        for case in range(1000):
            n = int(rng.integers(2, 9))
            # coarse grid of score values forces plenty of ties
            scores = rng.integers(0, 4, n).astype(float) / 2.0
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[rng.integers(0, n)] = 1 - labels[0]
            assert auc_roc(scores, labels) == pytest.approx(
                auc_roc_bruteforce(scores, labels), abs=1e-12
            ), f"case {case}: {scores} {labels}"
            assert auc_pr(scores, labels) == pytest.approx(
                auc_pr_bruteforce(scores.tolist(), labels.tolist()), abs=1e-12
            ), f"case {case}: {scores} {labels}"

    def test_partition_metrics_1000_cases(self):
        rng = stream(7)
        for case in range(1000):
            n = int(rng.integers(2, 9))
            # up to n cluster ids allows singletons and single-cluster cases
            a = rng.integers(0, n, n).tolist()
            b = rng.integers(0, n, n).tolist()
            assert nmi(a, b) == pytest.approx(nmi_bruteforce(a, b), abs=1e-12), (
                f"case {case}: {a} {b}"
            )
            assert pairwise_f(a, b) == pytest.approx(
                pairwise_f_bruteforce(a, b), abs=1e-12
            ), f"case {case}: {a} {b}"
