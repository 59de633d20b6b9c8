import numpy as np
import pytest

import randist.clustering
import randist.encoder
from randist.clustering import (
    MAX_ITERS, KMeansResult, _lloyd, _Rows, embed, kmeans, restart_scores, run_clustering,
)
from randist.data import Dataset, synth_blobs
from randist.encoder import EncoderModel, TrainConfig
from randist.mappings import identity_map
from randist.metrics import nmi, pairwise_f
from randist.rng import child_seed, stream

from oracles import forward, kmeans_loop


class TestEmbed:
    def _model(self, d, m, seed):
        rng = stream(seed)
        return EncoderModel(
            w=rng.standard_normal((m, d)),
            b=rng.standard_normal(m),
            leaky_slope=0.01,
            random_map=identity_map(d),
        )

    def test_matches_per_row_forward(self):
        model = self._model(5, 3, seed=1)
        X = stream(2).standard_normal((9, 5))
        H = embed(model, X)
        assert H.shape == (9, 3)
        for r in range(9):
            np.testing.assert_allclose(H[r], forward(model, X[r]), rtol=1e-12, atol=1e-12)

    def test_accepts_dataset(self):
        model = self._model(4, 2, seed=3)
        data = Dataset(stream(4).standard_normal((6, 4)))
        np.testing.assert_array_equal(embed(model, data), embed(model, data.features))

    def test_deterministic(self):
        model = self._model(4, 2, seed=5)
        X = stream(6).standard_normal((5, 4))
        np.testing.assert_array_equal(embed(model, X), embed(model, X))


class TestKmeans:
    def test_two_identical_pairs(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [9.0, 9.0]])
        result = kmeans(X, 2, seed=3)
        assert result.inertia == 0.0
        assert result.assignments[0] == result.assignments[1]
        assert result.assignments[2] == result.assignments[3]
        assert result.assignments[0] != result.assignments[2]

    def test_k1_analytic(self):
        X = stream(1).standard_normal((30, 4))
        result = kmeans(X, 1, seed=0)
        np.testing.assert_allclose(result.centroids[0], X.mean(axis=0), rtol=1e-12)
        expected = float(np.sum((X - X.mean(axis=0)) ** 2))
        assert result.inertia == pytest.approx(expected, rel=1e-12)

    def test_k_equals_n(self):
        X = stream(2).standard_normal((8, 3))
        result = kmeans(X, 8, seed=1)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_k_out_of_range(self):
        X = np.ones((4, 2))
        with pytest.raises(ValueError):
            kmeans(X, 5)
        with pytest.raises(ValueError):
            kmeans(X, 0)

    def test_lloyd_monotone_in_iterations(self):
        X = synth_blobs(4, 30, 6, seed=3).features
        inertias = [kmeans(X, 4, max_iters=t, seed=7).inertia for t in range(1, 12)]
        for a, b in zip(inertias, inertias[1:]):
            assert b <= a + 1e-9

    def test_deterministic_per_seed(self):
        X = synth_blobs(3, 25, 5, seed=4).features
        a = kmeans(X, 3, seed=11)
        b = kmeans(X, 3, seed=11)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        assert a.inertia == b.inertia

    @pytest.mark.parametrize("form", ["plain", "gram"])
    def test_empty_cluster_repair_keeps_all_ids(self, form):
        # heavy duplication provokes empty clusters during Lloyd updates
        X = np.array([[0.0], [0.0], [0.0], [0.0], [0.0], [10.0], [10.0]])
        for seed in range(6):
            result = _one_restart(X, form, 3, seed=seed)
            assert set(result.assignments.tolist()) == {0, 1, 2}

    @pytest.mark.parametrize("form", ["plain", "gram"])
    def test_repair_on_last_iteration_reports_reseeded_row(self, form, monkeypatch):
        # seeded at rows -2, 0 and 10, round 2 leaves the cluster seeded at 0
        # empty (0 joins -1.175, both 4.9s join 5.875); the repair reseeds it
        # at the farthest row, 10, and max_iters=2 stops right after it
        X = np.array([-2.0] + [-1.01] * 5 + [0.0] + [4.9] * 2 + [5.05] * 5 + [10.0])[:, None]
        rows = _Rows(X, np.sum(X * X, axis=1)) if form == "plain" else _gram_rows(X)
        real_init = randist.clustering._plusplus_init
        forced = []  # one flag per seeding call, in call order: force the picks?

        def init(rows, k, rng):
            return np.array([0, 6, 14]) if forced.pop(0) else real_init(rows, k, rng)

        monkeypatch.setattr(randist.clustering, "_plusplus_init", init)
        forced[:] = [False, False]
        others = [_lloyd(rows, 3, 2, [s])[0].result(X) for s in (4, 5)]
        forced[:] = [True]
        alone = _lloyd(rows, 3, 2, [0])[0].result(X)
        forced[:] = [False, True, False]
        lockstep = [r.result(X) for r in _lloyd(rows, 3, 2, [4, 0, 5])]
        for got in (alone, lockstep[1]):
            assert got.iterations_run == 2
            assert got.centroids[1, 0] == 10.0  # the reseeded row, bit for bit
            assert got.assignments[14] == 1 and np.sum(got.assignments == 1) == 1
            np.testing.assert_array_equal(got.assignments, alone.assignments)
            assert got.inertia == alone.inertia
        # the other restarts ran on through the repair round, unaffected by it
        for got, want in zip((lockstep[0], lockstep[2]), others):
            assert got.iterations_run == want.iterations_run >= 1
            np.testing.assert_array_equal(got.assignments, want.assignments)
            np.testing.assert_array_equal(got.centroids, want.centroids)

    @pytest.mark.parametrize("form", ["plain", "gram"])
    def test_repair_fills_every_cluster_when_all_rows_tie(self, form):
        # every row sits on every centroid, so all rows join cluster 0 and two
        # clusters are empty; each takes a row no earlier repair of the round took
        X = np.zeros((4, 2))
        result = _one_restart(X, form, 3)
        assert set(result.assignments.tolist()) == {0, 1, 2}
        assert result.iterations_run <= 2 and result.inertia == 0.0

    def test_matches_loop_reference(self):
        # random, blob-shaped and rounded (tied) data; some runs stop at max_iters
        _check_restarts_against_loop(_plain_case, 0)

    def test_gram_path_matches_loop_reference(self):
        # untied random and blob data with n <= d, where the pipeline shares
        # the Gram; some runs stop at max_iters
        _check_restarts_against_loop(_gram_case, 500)

    @pytest.mark.parametrize("form", ["plain", "gram"])
    def test_invariants_on_tied_data(self, form):
        # rounded rows tie often, so the two forms' assignments may differ;
        # each result must still be a consistent K-means state
        for case in range(20):
            rng = stream(600 + case)
            k = int(rng.integers(2, 8))
            d = int(rng.integers(10, 60))
            X = np.round(rng.standard_normal((int(rng.integers(k, d + 1)), d)), 0)
            inertias = []
            for iters in (1, 2, 4, 300):
                result = _one_restart(X, form, k, max_iters=iters, seed=case)
                assert set(result.assignments.tolist()) == set(range(k))
                recomputed = float(np.sum((X - result.centroids[result.assignments]) ** 2))
                assert result.inertia == pytest.approx(recomputed, rel=1e-9, abs=1e-9)
                inertias.append(result.inertia)
            for a, b in zip(inertias, inertias[1:]):
                assert b <= a + 1e-9

    def test_result_fields(self):
        X = synth_blobs(2, 10, 3, seed=5).features
        result = kmeans(X, 2, seed=2)
        assert isinstance(result, KMeansResult)
        assert result.centroids.shape == (2, 3)
        assert result.iterations_run >= 1
        assert np.all(result.assignments >= 0) and np.all(result.assignments < 2)


def _gram_rows(X: np.ndarray) -> _Rows:
    """A K-means input carrying its Gram, as run_clustering builds it for n <= m."""
    return _Rows(X, np.sum(X * X, axis=1), X @ X.T)


def _one_restart(X: np.ndarray, form: str, k: int, max_iters: int = MAX_ITERS, seed: int = 0):
    """`kmeans` on X ("plain"), or its one restart on rows carrying their Gram ("gram")."""
    if form == "plain":
        return kmeans(X, k, max_iters=max_iters, seed=seed)
    return _lloyd(_gram_rows(X), k, max_iters, [seed])[0].result(X)


def _plain_case(case, rng):
    k = int(rng.integers(1, 9))
    n = int(rng.integers(k, 120))
    d = int(rng.integers(1, 12))
    if case % 3 == 0:
        X = rng.standard_normal((n, d))
    elif case % 3 == 1:
        X = synth_blobs(k, max(1, n // k), d, seed=case).features
    else:
        X = np.round(rng.standard_normal((n, d)), 1)
    iters = int(rng.integers(1, 20)) if case % 4 == 0 else 300
    return X, _Rows(X, np.sum(X * X, axis=1)), k, iters


def _gram_case(case, rng):
    k = int(rng.integers(1, 9))
    d = int(rng.integers(20, 150))
    n = int(rng.integers(k, d + 1))
    if case % 2 == 0:
        X = rng.standard_normal((n, d))
    else:
        X = synth_blobs(k, max(1, n // k), d, seed=case).features
    iters = int(rng.integers(1, 6)) if case % 4 == 0 else 300
    return X, _gram_rows(X), k, iters


def _check_restarts_against_loop(make_case, first):
    """Each case runs three seeds one at a time (one-seed `_lloyd` calls) and together
    in one lockstep call; every restart must match the loop reference for
    its seed, and a lockstep restart its one-seed run (assignments,
    iterations, inertia)."""
    stop_rounds_differ = cut_off = False
    for case in range(40):
        X, rows, k, iters = make_case(first + case, stream(first + case))
        seeds = [first + case, 7_000 + case, 9_000 + case]
        alone = [_lloyd(rows, k, iters, [s])[0].result(X) for s in seeds]
        lockstep = [r.result(X) for r in _lloyd(rows, k, iters, seeds)]
        for seed, one, got in zip(seeds, alone, lockstep):
            assignments, inertia = kmeans_loop(X, k, max_iters=iters, seed=seed)
            np.testing.assert_array_equal(got.assignments, assignments)
            assert got.inertia == pytest.approx(inertia, rel=1e-12, abs=1e-12)
            np.testing.assert_array_equal(got.assignments, one.assignments)
            assert got.iterations_run == one.iterations_run
            assert got.inertia == pytest.approx(one.inertia, rel=1e-12, abs=0.0)
            assert got.centroids.shape == (k, X.shape[1])
        counts = {r.iterations_run for r in lockstep}
        stop_rounds_differ |= len(counts) > 1
        cut_off |= iters in counts and len(counts) > 1
    assert stop_rounds_differ and cut_off  # the sweep covers both


@pytest.fixture(scope="module")
def blob_data():
    return synth_blobs(3, 60, 16, seed=8)


class TestRunClustering:
    def _cfg(self, **overrides):
        args = dict(m=24, epochs=80, task="clustering", batch_size=60, seed=5)
        args.update(overrides)
        return TrainConfig(**args)

    def test_separable_blobs_cluster_well(self, blob_data):
        result = run_clustering(blob_data, self._cfg(), restarts=5)
        assert result.nmi_mean >= 0.9
        assert result.f_mean >= 0.9

    def test_single_restart_has_zero_std(self, blob_data):
        result = run_clustering(blob_data, self._cfg(), restarts=1)
        assert result.nmi_std == 0.0 and result.f_std == 0.0

    def test_no_aux_ablation_trains_without_decoder(self, blob_data):
        result = run_clustering(blob_data, self._cfg(use_aux_loss=False), restarts=2)
        assert not result.model.has_decoder
        assert result.nmi_mean > 0.5

    def test_no_pair_ablation_is_reconstruction_only(self, blob_data):
        result = run_clustering(blob_data, self._cfg(use_pair_loss=False), restarts=2)
        assert result.model.has_decoder
        assert np.all(result.trace.pair == 0.0)

    def test_requires_labels(self, blob_data):
        unlabeled = Dataset(blob_data.features.copy())
        with pytest.raises(ValueError, match="labels"):
            run_clustering(unlabeled, self._cfg(), restarts=1)

    def test_restarts_checked_before_training(self, blob_data, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking restarts")

        monkeypatch.setattr("randist.clustering.train", no_training)
        with pytest.raises(ValueError, match="restarts must be >= 1, got 0"):
            run_clustering(blob_data, self._cfg(), restarts=0)

    def test_restart_stats_match_values(self, blob_data):
        result = run_clustering(blob_data, self._cfg(), restarts=4)
        assert result.nmi_mean == pytest.approx(result.nmi_values.mean(), abs=1e-15)
        assert result.nmi_std == pytest.approx(result.nmi_values.std(), abs=1e-15)
        assert len(result.nmi_values) == 4

    def test_deterministic_repeat(self, blob_data):
        a = run_clustering(blob_data, self._cfg(), restarts=3)
        b = run_clustering(blob_data, self._cfg(), restarts=3)
        assert a.nmi_mean == b.nmi_mean and a.f_mean == b.f_mean
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_more_restarts_leave_the_first_ones(self, blob_data):
        # restarts run in lockstep, yet each depends only on its own seed
        a = run_clustering(blob_data, self._cfg(), restarts=2)
        b = run_clustering(blob_data, self._cfg(), restarts=4)
        np.testing.assert_array_equal(a.nmi_values, b.nmi_values[:2])
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_shared_gram_matches_lloyd_restarts(self, blob_data):
        # 180 rows at m = 192: the restarts share the Gram of the embedding,
        # yet give the NMI of plain K-means on the same embedding and seeds
        cfg = self._cfg(m=192, epochs=20)
        result = run_clustering(blob_data, cfg, restarts=4)
        assert result.embeddings.shape[0] <= result.embeddings.shape[1]
        lloyd = [
            kmeans(result.embeddings, 3, seed=child_seed(cfg.seed, 20_000 + r)).assignments
            for r in range(4)
        ]
        np.testing.assert_array_equal(result.nmi_values, [nmi(blob_data.labels, a) for a in lloyd])
        np.testing.assert_array_equal(result.assignments, lloyd[0])

    @pytest.mark.parametrize("m", [24, 192])  # K-means on the embedding's rows, and on its Gram
    def test_restart_scores_are_the_pipelines(self, blob_data, m):
        cfg = self._cfg(m=m, epochs=10)
        result = run_clustering(blob_data, cfg, restarts=4)
        nmis, fs, assignments = restart_scores(result.embeddings, blob_data.labels, 4, cfg.seed)
        assert nmis.tobytes() == result.nmi_values.tobytes()
        assert fs.tobytes() == result.f_values.tobytes()
        assert assignments.tobytes() == result.assignments.tobytes()

    def test_identity_source(self, blob_data):
        # raw-Gram targets scale with d, so this source needs a gentler rate
        result = run_clustering(
            blob_data,
            self._cfg(epochs=60, batch_size=96, learning_rate=0.01),
            restarts=2,
            source="identity",
        )
        assert result.model.random_map.kind == "identity"
        assert result.nmi_mean > 0.9

    def test_relabeling_clusters_leaves_metrics_unchanged(self, blob_data):
        result = run_clustering(blob_data, self._cfg(), restarts=1)
        relabeled = np.array([7, 5, 9])[result.assignments]
        assert nmi(blob_data.labels, relabeled) == pytest.approx(
            result.nmi_mean, abs=1e-12
        )
        assert pairwise_f(blob_data.labels, relabeled) == pytest.approx(
            result.f_mean, abs=1e-12
        )

    def test_a_training_lane_changes_no_result(self, blob_data, monkeypatch):
        # m = 24 >= the batch: each step's decoder branch runs on a lane when a CPU is spare
        results = []
        for lanes in (1, 2):
            monkeypatch.setattr(randist.encoder, "process_count", lambda limit: min(limit, lanes))
            results.append(run_clustering(blob_data, self._cfg(epochs=10, batch_size=24), restarts=3))
        alone, laned = results
        assert (alone.trace.lanes, laned.trace.lanes) == (1, 2)
        assert alone.nmi_values.tobytes() == laned.nmi_values.tobytes()
        assert alone.f_values.tobytes() == laned.f_values.tobytes()
        assert alone.assignments.tobytes() == laned.assignments.tobytes()
        assert alone.embeddings.tobytes() == laned.embeddings.tobytes()
