import dataclasses
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from randist.data import standardize, synth_anomaly, synth_blobs
from randist.mappings import (
    MAX_BANDWIDTH_POINTS,
    apply,
    gram_product,
    identity_map,
    median_bandwidth,
    rff,
    sparse_rp,
)
from randist.rng import stream

from oracles import gaussian_projection, jl_audit, pairwise_target, rbf_kernel

from oracles import median_bandwidth_reference


class TestSparseRp:
    def test_default_density(self):
        m = sparse_rp(64, 10, seed=0)
        assert m.density == 1.0 / 8.0

    def test_nonzero_fraction_matches_density(self):
        m = sparse_rp(25, 400, seed=3)  # density 1/sqrt(25) = 0.2
        frac = np.mean(m.weights != 0.0)
        # binomial std error over 10000 entries is 0.004
        assert abs(frac - 0.2) < 5 * 0.004

    def test_entry_values(self):
        m = sparse_rp(4, 5, seed=1)  # density 1/sqrt(4) = 0.5
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

    def test_norm_concentration_at_k2000(self):
        # |norm^2 - 1| <= 0.15 on at least 95 of 100 fresh maps, for a unit input
        # on one coordinate, which only the nonzero entries of one column reach
        x = np.zeros(8)
        x[0] = 1.0
        hits = 0
        for s in range(100):
            m = sparse_rp(8, 2000, seed=1000 + s)
            hits += abs(float(np.sum(apply(m, x[None, :])[0] ** 2)) - 1.0) <= 0.15
        assert hits >= 95

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            sparse_rp(0, 3)
        with pytest.raises(ValueError, match="dimensions must be positive"):
            sparse_rp(3, 0)


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
        for m in (sparse_rp(6, 3, seed=1), rff(6, 3, bandwidth=1.2, seed=1), identity_map(6)):
            full = apply(m, X)
            for r in range(5):
                np.testing.assert_allclose(apply(m, X[r][None, :])[0], full[r], rtol=1e-12, atol=1e-12)

    def test_stacked_equals_separate(self):
        rng = stream(5)
        A, B = rng.standard_normal((4, 6)), rng.standard_normal((3, 6))
        m = sparse_rp(6, 2, seed=3)
        np.testing.assert_allclose(
            apply(m, np.vstack([A, B])),
            np.vstack([apply(m, A), apply(m, B)]),
            rtol=1e-12,
        )

    def test_row_blocks_into_out_are_the_rows_bits(self):
        X = stream(6).standard_normal((2000, 6))
        for m in (sparse_rp(6, 240, seed=1), rff(6, 240, bandwidth=1.2, seed=1), identity_map(6)):
            out = np.empty((2000, m.out_dim))
            for a, b in ((0, 1000), (1000, 2000)):
                block = out[a:b]
                # a lane maps a block: nothing of the block's size is allocated
                assert _traced_peak(lambda: apply(m, X[a:b], out=block)) < block.nbytes // 8
            assert out.tobytes() == apply(m, X).tobytes()

    def test_dimension_mismatch(self):
        m = sparse_rp(4, 2, seed=0)
        with pytest.raises(ValueError, match="columns"):
            apply(m, np.ones((3, 5)))

    def test_frozen_map_determinism(self):
        for build in (
            lambda s: sparse_rp(5, 3, seed=s),
            lambda s: rff(5, 3, bandwidth=2.0, seed=s),
        ):
            a, b = build(99), build(99)
            np.testing.assert_array_equal(a.weights, b.weights)
            x = stream(0).standard_normal(5)
            np.testing.assert_array_equal(apply(a, x[None, :]), apply(b, x[None, :]))

    def test_map_is_immutable(self):
        m = sparse_rp(3, 2, seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.out_dim = 5


class TestGramProduct:
    """A @ A.T in three blocks of its upper triangle, the last on a lane when one is given."""

    @pytest.mark.parametrize("shape", [(1000, 1024), (1000, 32)])  # the targets' and the blobs' widths
    def test_equals_one_product_at_the_benchmarks_shapes(self, shape):
        A = stream(7).standard_normal(shape)
        R = gram_product(A)
        assert R.tobytes() == (A @ A.T).tobytes()
        assert R.tobytes() == R.T.copy().tobytes()
        with ThreadPoolExecutor(1) as lane:
            assert gram_product(A, lane).tobytes() == R.tobytes()

    def test_random_shapes(self):
        rng = stream(8)
        with ThreadPoolExecutor(1) as lane:
            for _ in range(40):
                n, d = int(rng.integers(1, 301)), int(rng.integers(1, 1025))
                A = rng.random((n, d))  # entries >= 0: no cancellation, so every entry meets the rtol
                R = gram_product(A)
                np.testing.assert_allclose(R, A @ A.T, rtol=1e-12, atol=0.0)
                assert R.tobytes() == R.T.copy().tobytes()
                assert gram_product(A, lane).tobytes() == R.tobytes()


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
        audit = jl_audit(X, lambda A: gaussian_projection(A, 2000, seed=5), epsilon=0.49, n_pairs=3000, seed=1)
        assert audit.violation_rate == 0.0
        # bound = 4 exp(-(eps^2 - eps^3) K / 4), tiny at this K
        expected_bound = 4.0 * math.exp(-(0.49**2 - 0.49**3) * 2000 / 4.0)
        assert audit.bound == pytest.approx(expected_bound)
        assert audit.bound < 1e-20

    def test_duplicated_rows_never_violate(self):
        row = stream(15).standard_normal(12)
        X = np.tile(row, (30, 1))
        m = sparse_rp(12, 2000, seed=7)
        audit = jl_audit(X, lambda A: apply(m, A), epsilon=0.3, n_pairs=500, seed=2)
        assert audit.violation_rate == 0.0

    def test_violation_within_bound_at_recommended_k(self):
        # K chosen as 20 ln(n) / eps^2
        n, eps = 100, 0.45
        k = math.ceil(20 * math.log(n) / eps**2)
        X = stream(16).standard_normal((n, 32))
        audit = jl_audit(X, lambda A: gaussian_projection(A, k, seed=3), epsilon=eps, n_pairs=4000, seed=4)
        assert audit.violation_rate <= audit.bound + 0.01

    def test_sparse_rp_at_k2000_no_violations(self):
        # criterion 2's rows through the shipped very sparse map, which keeps
        # inner products like a Gaussian one (Li, Hastie & Church, KDD 2006);
        # the largest error over these maps is 0.057-0.090
        X = stream(42).standard_normal((200, 64))
        for s in range(5):
            m = sparse_rp(64, 2000, seed=s)
            audit = jl_audit(X, lambda A: apply(m, A), epsilon=0.3, n_pairs=5000, seed=1)
            assert audit.violation_rate == 0.0

    def test_epsilon_range(self):
        m = sparse_rp(4, 8, seed=0)
        with pytest.raises(ValueError):
            jl_audit(np.ones((3, 4)), lambda A: apply(m, A), epsilon=0.6)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        assert median_bandwidth(X, seed=2) == median_bandwidth_reference(X, seed=2) > 0

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
            n = int(rng.integers(2, 300)) + (MAX_BANDWIDTH_POINTS if case % 4 == 0 else 0)
            X = rng.standard_normal((n, int(rng.integers(1, 20))))
            if case % 3 == 1:
                X = np.round(X)
            elif case % 3 == 2:
                X = X[rng.integers(0, n, size=n)]
            assert median_bandwidth(X, seed=case) == median_bandwidth_reference(X, seed=case)

    @pytest.mark.parametrize("n", [127, 128, 129, 257, 1000, 1001])
    def test_matches_reference_at_block_edges(self, n):
        # pair counts of both parities, the largest table taken whole and the
        # smallest one subsampled: row i's pairs are packed into the Gram's
        # buffer behind the rows still to be read
        X = stream(30 + n).standard_normal((n, 5))
        for rows in (X, np.round(X)):
            assert median_bandwidth(rows) == median_bandwidth_reference(rows)

    def test_matches_reference_above_max_points(self):
        X = stream(22).standard_normal((MAX_BANDWIDTH_POINTS + 57, 4))
        assert median_bandwidth(X, seed=3) == median_bandwidth_reference(X, seed=3)

    @pytest.mark.parametrize(
        "make, shape",
        [(synth_anomaly, (950, 50, 16)), (synth_blobs, (4, 250, 32)), (synth_anomaly, (1463, 104, 590))],
        ids=["anomaly-paper", "cluster-wide", "cli-anomaly-wide"],  # the last is subsampled
    )
    def test_matches_reference_at_workload_shapes(self, make, shape):
        X = standardize(make(*shape, seed=31))[0].features
        assert median_bandwidth(X, seed=5) == median_bandwidth_reference(X, seed=5)

    def test_drops_its_subsample_once_the_gram_is_formed(self):
        # subsample 4.7 MB and Gram 8 MB; the distances are packed into the Gram
        X = stream(24).standard_normal((1500, 590))
        assert _traced_peak(lambda: median_bandwidth(X, seed=4)) < 12.5 * 2**20

    def test_peak_is_the_gram(self):
        # no second array of distances: the n x n Gram and a row at a time
        n = 950
        X = stream(25).standard_normal((n, 16))
        assert _traced_peak(lambda: median_bandwidth(X)) < 8 * n * n + 256 * 2**10

    def test_empty_input_falls_back(self):
        for shape in ((0,), (0, 3), (4, 0)):
            assert median_bandwidth(np.empty(shape)) == median_bandwidth_reference(np.empty(shape)) == 1.0

    def test_non_finite_input_raises(self):
        # checked on every row, also on one the subsample leaves out
        n = MAX_BANDWIDTH_POINTS + 30
        drawn = stream(0).choice(n, size=MAX_BANDWIDTH_POINTS, replace=False)  # seed 0's subsample
        left_out = int(np.setdiff1d(np.arange(n), drawn)[0])
        for rows, row in ((30, 4), (n, left_out)):
            for bad in (np.nan, np.inf, -np.inf):
                X = stream(23).standard_normal((rows, 2))
                X[row, 1] = bad
                with pytest.raises(ValueError, match="finite"):
                    median_bandwidth(X)
