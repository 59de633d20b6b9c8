import dataclasses
import math

import numpy as np
import pytest

from randist.mappings import (
    BANDWIDTH_BLOCK,
    MAX_BANDWIDTH_POINTS,
    apply,
    gaussian_rp,
    identity_map,
    median_bandwidth,
    rff,
    sparse_rp,
)
from randist.rng import stream

from oracles import jl_audit, pairwise_target, rbf_kernel

from oracles import median_bandwidth_reference


class TestGaussianRp:
    def test_zero_vector(self):
        m = gaussian_rp(3, 2, seed=0)
        np.testing.assert_array_equal(apply(m, np.zeros((1, 3)))[0], np.zeros(2))

    def test_entries_standard_normal(self):
        m = gaussian_rp(50, 200, seed=1)
        assert abs(m.weights.mean()) < 0.02
        assert abs(m.weights.std() - 1.0) < 0.02

    def test_norm_unbiased_over_resampled_maps(self):
        # E ||(1/sqrt k) A x||^2 = ||x||^2; Monte Carlo over fresh maps
        x = stream(5).standard_normal(3)
        k = 2
        estimates = np.array(
            [float(np.sum(apply(gaussian_rp(3, k, seed=s), x[None, :])[0] ** 2)) for s in range(5000)]
        )
        se = estimates.std(ddof=1) / math.sqrt(len(estimates))
        assert abs(estimates.mean() - float(np.dot(x, x))) < 3 * se

    def test_norm_concentration_at_k2000(self):
        # |norm^2 - 1| <= 0.15 on at least 95 of 100 fresh maps, unit input
        x = np.zeros(8)
        x[0] = 1.0
        hits = 0
        for s in range(100):
            m = gaussian_rp(8, 2000, seed=1000 + s)
            hits += abs(float(np.sum(apply(m, x[None, :])[0] ** 2)) - 1.0) <= 0.15
        assert hits >= 95

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            gaussian_rp(0, 3)
        with pytest.raises(ValueError):
            gaussian_rp(3, 0)


class TestSparseRp:
    def test_default_density(self):
        m = sparse_rp(64, 10, seed=0)
        assert m.density == pytest.approx(1.0 / 8.0)

    def test_nonzero_fraction_matches_density(self):
        m = sparse_rp(100, 100, density=0.2, seed=3)
        frac = np.mean(m.weights != 0.0)
        # binomial std error over 10000 entries is 0.004
        assert abs(frac - 0.2) < 5 * 0.004

    def test_entry_values(self):
        m = sparse_rp(20, 5, density=0.5, seed=1)
        expected = math.sqrt(1.0 / (0.5 * 5))
        values = np.unique(np.abs(m.weights))
        np.testing.assert_allclose(values[values > 0], expected)

    def test_inner_product_unbiased_over_resampled_maps(self):
        d = 64
        rng = stream(11)
        x, y = rng.standard_normal(d), rng.standard_normal(d)
        estimates = np.array(
            [pairwise_target(sparse_rp(d, 8, seed=s), x, y) for s in range(5000)]
        )
        se = estimates.std(ddof=1) / math.sqrt(len(estimates))
        assert abs(estimates.mean() - float(np.dot(x, y))) < 3 * se

    def test_zero_vector(self):
        m = sparse_rp(6, 4, seed=2)
        np.testing.assert_array_equal(apply(m, np.zeros((1, 6)))[0], np.zeros(4))

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            sparse_rp(4, 4, density=0.0)
        with pytest.raises(ValueError):
            sparse_rp(4, 4, density=1.5)


class TestRff:
    def test_offsets_range(self):
        m = rff(5, 300, bandwidth=1.0, seed=4)
        assert np.all(m.offsets >= 0.0) and np.all(m.offsets < 2 * math.pi)

    def test_kernel_approximation_at_4096(self):
        rng = stream(21)
        pts = rng.standard_normal((40, 10))
        sigma = median_bandwidth(pts)
        m = rff(10, 4096, bandwidth=sigma, seed=6)
        errs = []
        for _ in range(20):
            i, j = rng.integers(0, 40, size=2)
            approx = pairwise_target(m, pts[i], pts[j])
            errs.append(abs(approx - rbf_kernel(pts[i], pts[j], sigma)))
        assert np.mean(errs) <= 0.05

    def test_self_kernel_near_one(self):
        x = stream(8).standard_normal(7)
        m = rff(7, 4096, bandwidth=2.0, seed=9)
        assert abs(pairwise_target(m, x, x) - 1.0) <= 0.05

    def test_unbiased_over_resampled_maps(self):
        rng = stream(13)
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        sigma = 1.7
        estimates = np.array(
            [pairwise_target(rff(4, 8, bandwidth=sigma, seed=s), x, y) for s in range(5000)]
        )
        se = estimates.std(ddof=1) / math.sqrt(len(estimates))
        assert abs(estimates.mean() - rbf_kernel(x, y, sigma)) < 3 * se

    def test_median_heuristic_used_when_bandwidth_absent(self):
        X = stream(3).standard_normal((30, 5))
        m = rff(5, 16, data=X, seed=2)
        # 30 points, no subsampling, so the subsample seed cannot matter
        assert m.bandwidth == median_bandwidth(X)
        assert m.bandwidth > 0

    def test_median_heuristic_rejects_nan_data(self):
        X = stream(3).standard_normal((30, 5))
        X[7, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            rff(5, 16, data=X, seed=2)

    def test_needs_bandwidth_or_data(self):
        with pytest.raises(ValueError, match="bandwidth or data"):
            rff(4, 8)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            rff(4, 8, bandwidth=0.0)

    @pytest.mark.parametrize("bandwidth", [float("nan"), float("inf")])
    def test_rejects_non_finite_bandwidth(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            rff(4, 8, bandwidth=bandwidth)


class TestIdentity:
    def test_apply_is_input(self):
        X = stream(1).standard_normal((6, 4))
        m = identity_map(4)
        np.testing.assert_array_equal(apply(m, X), X)

    def test_pairwise_target_is_gram(self):
        X = stream(2).standard_normal((5, 3))
        m = identity_map(3)
        for i in range(5):
            for j in range(5):
                assert pairwise_target(m, X[i], X[j]) == float(np.dot(X[i], X[j]))

    def test_dims(self):
        assert identity_map(7).out_dim == 7


class TestApply:
    def test_single_row_matches_matrix_row(self):
        X = stream(4).standard_normal((5, 6))
        for m in (gaussian_rp(6, 3, seed=1), sparse_rp(6, 3, seed=1), rff(6, 3, bandwidth=1.2, seed=1)):
            full = apply(m, X)
            for r in range(5):
                np.testing.assert_allclose(apply(m, X[r][None, :])[0], full[r], rtol=1e-12, atol=1e-12)

    def test_stacked_equals_separate(self):
        rng = stream(5)
        A, B = rng.standard_normal((4, 6)), rng.standard_normal((3, 6))
        m = gaussian_rp(6, 2, seed=3)
        np.testing.assert_allclose(
            apply(m, np.vstack([A, B])),
            np.vstack([apply(m, A), apply(m, B)]),
            rtol=1e-12,
        )

    def test_dimension_mismatch(self):
        m = gaussian_rp(4, 2, seed=0)
        with pytest.raises(ValueError, match="columns"):
            apply(m, np.ones((3, 5)))

    def test_frozen_map_determinism(self):
        for build in (
            lambda s: gaussian_rp(5, 3, seed=s),
            lambda s: sparse_rp(5, 3, seed=s),
            lambda s: rff(5, 3, bandwidth=2.0, seed=s),
        ):
            a, b = build(99), build(99)
            np.testing.assert_array_equal(a.weights, b.weights)
            x = stream(0).standard_normal(5)
            np.testing.assert_array_equal(apply(a, x[None, :]), apply(b, x[None, :]))

    def test_map_is_immutable(self):
        m = gaussian_rp(3, 2, seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.out_dim = 5


class TestPairwiseTarget:
    def test_orthogonal_identity(self):
        m = identity_map(2)
        assert pairwise_target(m, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_unit_identity(self):
        m = identity_map(2)
        x = np.array([1.0, 0.0])
        assert pairwise_target(m, x, x) == 1.0

    def test_equals_dot_of_apply(self):
        rng = stream(6)
        x, y = rng.standard_normal(5), rng.standard_normal(5)
        m = rff(5, 11, bandwidth=1.0, seed=2)
        mx, my = apply(m, x[None, :])[0], apply(m, y[None, :])[0]
        assert pairwise_target(m, x, y) == float(np.dot(mx, my))


class TestRbfKernel:
    def test_same_point(self):
        x = np.array([1.0, -2.0])
        assert rbf_kernel(x, x, 3.0) == 1.0

    def test_monotone_decay(self):
        sigma = 1.5
        values = [rbf_kernel(np.zeros(1), np.array([t]), sigma) for t in np.linspace(0, 20, 40)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-30

    def test_exp_minus_one_point(self):
        sigma = 0.8
        got = rbf_kernel(np.array([0.0]), np.array([sigma * math.sqrt(2.0)]), sigma)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rbf_kernel(np.zeros(2), np.zeros(3), 1.0)


class TestJlAudit:
    def test_no_violations_at_k2000(self):
        X = stream(14).standard_normal((100, 20))
        m = gaussian_rp(20, 2000, seed=5)
        audit = jl_audit(m, X, epsilon=0.49, n_pairs=3000, seed=1)
        assert audit.violation_rate == 0.0
        # bound = 4 exp(-(eps^2 - eps^3) K / 4), tiny at this K
        expected_bound = 4.0 * math.exp(-(0.49**2 - 0.49**3) * 2000 / 4.0)
        assert audit.bound == pytest.approx(expected_bound)
        assert audit.bound < 1e-20

    def test_duplicated_rows_never_violate(self):
        row = stream(15).standard_normal(12)
        X = np.tile(row, (30, 1))
        m = gaussian_rp(12, 2000, seed=7)
        audit = jl_audit(m, X, epsilon=0.3, n_pairs=500, seed=2)
        assert audit.violation_rate == 0.0

    def test_violation_within_bound_at_recommended_k(self):
        # K chosen as 20 ln(n) / eps^2
        n, eps = 100, 0.45
        k = math.ceil(20 * math.log(n) / eps**2)
        X = stream(16).standard_normal((n, 32))
        m = gaussian_rp(32, k, seed=3)
        audit = jl_audit(m, X, epsilon=eps, n_pairs=4000, seed=4)
        assert audit.violation_rate <= audit.bound + 0.01

    def test_requires_gaussian_kind(self):
        m = sparse_rp(6, 4, seed=0)
        with pytest.raises(ValueError, match="gaussian"):
            jl_audit(m, np.ones((3, 6)), epsilon=0.3)

    def test_epsilon_range(self):
        m = gaussian_rp(4, 8, seed=0)
        with pytest.raises(ValueError):
            jl_audit(m, np.ones((3, 4)), epsilon=0.6)


class TestMedianBandwidth:
    def test_positive_and_deterministic(self):
        X = stream(17).standard_normal((50, 4))
        assert median_bandwidth(X, seed=1) == median_bandwidth(X, seed=1)
        assert median_bandwidth(X, seed=1) > 0

    def test_degenerate_data_falls_back(self):
        X = np.zeros((10, 3))
        assert median_bandwidth(X) == 1.0

    def test_subsamples_large_inputs(self):
        X = stream(18).standard_normal((3000, 2))
        assert median_bandwidth(X, max_points=100, seed=2) > 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_small_inputs_match_reference(self, n):
        # n(n-1)/2 pairs: 0, 1, 3, 6, 10, 15, 21, so odd and even counts
        X = stream(20 + n).standard_normal((n, 3))
        assert median_bandwidth(X) == median_bandwidth_reference(X)

    def test_equal_rows_fall_back(self):
        X = np.tile(stream(21).standard_normal(5), (40, 1))
        assert median_bandwidth(X) == median_bandwidth_reference(X) == 1.0

    def test_matches_reference(self):
        # random, rounded (tied) and duplicated rows, odd and even pair
        # counts, with and without a subsample
        for case in range(60):
            rng = stream(100 + case)
            n = int(rng.integers(2, 300))
            X = rng.standard_normal((n, int(rng.integers(1, 20))))
            if case % 3 == 1:
                X = np.round(X)
            elif case % 3 == 2:
                X = X[rng.integers(0, n, size=n)]
            max_points = int(rng.integers(2, n + 1)) if case % 4 == 0 else MAX_BANDWIDTH_POINTS
            got = median_bandwidth(X, max_points=max_points, seed=case)
            assert got == median_bandwidth_reference(X, max_points=max_points, seed=case)

    @pytest.mark.parametrize(
        "n", [BANDWIDTH_BLOCK - 1, BANDWIDTH_BLOCK, BANDWIDTH_BLOCK + 1, 2 * BANDWIDTH_BLOCK + 1]
    )
    def test_matches_reference_at_block_edges(self, n):
        # the pairs are formed BANDWIDTH_BLOCK rows at a time
        X = stream(30 + n).standard_normal((n, 5))
        for rows in (X, np.round(X)):
            assert median_bandwidth(rows) == median_bandwidth_reference(rows)

    def test_matches_reference_above_max_points(self):
        X = stream(22).standard_normal((MAX_BANDWIDTH_POINTS + 57, 4))
        assert median_bandwidth(X, seed=3) == median_bandwidth_reference(X, seed=3)

    def test_non_finite_input_raises(self):
        # checked on every row, also those a subsample of 2 would leave out
        for bad in (np.nan, np.inf):
            X = stream(23).standard_normal((30, 2))
            X[4, 1] = bad
            for max_points in (MAX_BANDWIDTH_POINTS, 2):
                with pytest.raises(ValueError, match="finite"):
                    median_bandwidth(X, max_points=max_points)
