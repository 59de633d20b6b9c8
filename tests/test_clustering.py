import concurrent.futures
import sys
import threading

import numpy as np
import pytest

import randist.clustering
import randist.encoder
import randist.forks
from randist.clustering import _Restart, _Rows, embed, kmeans, restart_scores, run_clustering
from randist.data import Dataset, synth_blobs
from randist.encoder import EncoderModel, TrainConfig
from randist.errors import NumericError
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
    """`kmeans` returns each restart's final state: its centroids are A @ X, its
    inertia point_d2.sum() and its round count `iterations`."""

    def test_two_identical_pairs(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [9.0, 9.0]])
        result = _one_restart(X, "plain", 2, seed=3)
        assert result.point_d2.sum() == 0.0
        assert result.assignments[0] == result.assignments[1]
        assert result.assignments[2] == result.assignments[3]
        assert result.assignments[0] != result.assignments[2]

    def test_k1_analytic(self):
        X = stream(1).standard_normal((30, 4))
        result = _one_restart(X, "plain", 1, seed=0)
        np.testing.assert_allclose((result.A @ X)[0], X.mean(axis=0), rtol=1e-12)
        expected = float(np.sum((X - X.mean(axis=0)) ** 2))
        assert float(result.point_d2.sum()) == pytest.approx(expected, rel=1e-12)

    def test_k_equals_n(self):
        X = stream(2).standard_normal((8, 3))
        result = _one_restart(X, "plain", 8, seed=1)
        assert float(result.point_d2.sum()) == pytest.approx(0.0, abs=1e-12)

    def test_k_out_of_range(self):
        rows = _plain_rows(np.ones((4, 2)))
        with pytest.raises(ValueError):
            kmeans(rows, 5, [0])
        with pytest.raises(ValueError):
            kmeans(rows, 0, [0])

    def test_no_restart_names_the_count(self):
        # restart_scores hands kmeans its empty seed list; kmeans rejects it by count
        X = synth_blobs(2, 10, 3, seed=5)
        with pytest.raises(ValueError, match="restarts must be >= 1, got 0"):
            kmeans(_plain_rows(X.features), 2, [])
        with pytest.raises(ValueError, match="restarts must be >= 1, got 0"):
            restart_scores(X.features, X.labels, 0, 1)

    def test_lloyd_monotone_in_iterations(self, monkeypatch):
        X = synth_blobs(4, 30, 6, seed=3).features
        inertias = []
        for t in range(1, 12):
            monkeypatch.setattr(randist.clustering, "MAX_ITERS", t)
            inertias.append(float(_one_restart(X, "plain", 4, seed=7).point_d2.sum()))
        for a, b in zip(inertias, inertias[1:]):
            assert b <= a + 1e-9

    def test_deterministic_per_seed(self):
        X = synth_blobs(3, 25, 5, seed=4).features
        a = _one_restart(X, "plain", 3, seed=11)
        b = _one_restart(X, "plain", 3, seed=11)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        assert a.point_d2.sum() == b.point_d2.sum()

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
        # at the farthest row, 10, and MAX_ITERS = 2 stops right after it
        X = np.array([-2.0] + [-1.01] * 5 + [0.0] + [4.9] * 2 + [5.05] * 5 + [10.0])[:, None]
        rows = _plain_rows(X) if form == "plain" else _gram_rows(X)
        real_init = randist.clustering._plusplus_init
        forced = []  # one flag per seeding call, in call order: force the picks?

        def init(rows, k, rng):
            return np.array([0, 6, 14]) if forced.pop(0) else real_init(rows, k, rng)

        monkeypatch.setattr(randist.clustering, "_plusplus_init", init)
        monkeypatch.setattr(randist.clustering, "MAX_ITERS", 2)
        forced[:] = [False, False]
        others = [kmeans(rows, 3, [s])[0] for s in (4, 5)]
        forced[:] = [True]
        alone = kmeans(rows, 3, [0])[0]
        forced[:] = [False, True, False]
        lockstep = kmeans(rows, 3, [4, 0, 5])
        for got in (alone, lockstep[1]):
            assert got.iterations == 2
            assert (got.A @ X)[1, 0] == 10.0  # the reseeded row, bit for bit
            assert got.assignments[14] == 1 and np.sum(got.assignments == 1) == 1
            np.testing.assert_array_equal(got.assignments, alone.assignments)
            assert got.point_d2.sum() == alone.point_d2.sum()
        # the other restarts ran on through the repair round, unaffected by it
        for got, want in zip((lockstep[0], lockstep[2]), others):
            assert got.iterations == want.iterations >= 1
            np.testing.assert_array_equal(got.assignments, want.assignments)
            np.testing.assert_array_equal(got.A @ X, want.A @ X)

    @pytest.mark.parametrize("form", ["plain", "gram"])
    def test_repair_fills_every_cluster_when_all_rows_tie(self, form):
        # every row sits on every centroid, so all rows join cluster 0 and two
        # clusters are empty; each takes a row no earlier repair of the round took
        X = np.zeros((4, 2))
        result = _one_restart(X, form, 3)
        assert set(result.assignments.tolist()) == {0, 1, 2}
        assert result.iterations <= 2 and result.point_d2.sum() == 0.0

    def test_matches_loop_reference(self, monkeypatch):
        # random, blob-shaped and rounded (tied) data; some runs stop at MAX_ITERS
        _check_restarts_against_loop(_plain_case, 0, monkeypatch)

    def test_gram_path_matches_loop_reference(self, monkeypatch):
        # untied random and blob data with n <= d, where the pipeline shares
        # the Gram; some runs stop at MAX_ITERS
        _check_restarts_against_loop(_gram_case, 500, monkeypatch)

    @pytest.mark.parametrize("form", ["plain", "gram"])
    def test_invariants_on_tied_data(self, form, monkeypatch):
        # rounded rows tie often, so the two forms' assignments may differ;
        # each result must still be a consistent K-means state
        for case in range(20):
            rng = stream(600 + case)
            k = int(rng.integers(2, 8))
            d = int(rng.integers(10, 60))
            X = np.round(rng.standard_normal((int(rng.integers(k, d + 1)), d)), 0)
            inertias = []
            for iters in (1, 2, 4, 300):
                monkeypatch.setattr(randist.clustering, "MAX_ITERS", iters)
                result = _one_restart(X, form, k, seed=case)
                assert set(result.assignments.tolist()) == set(range(k))
                inertia = float(result.point_d2.sum())
                recomputed = float(np.sum((X - (result.A @ X)[result.assignments]) ** 2))
                assert inertia == pytest.approx(recomputed, rel=1e-9, abs=1e-9)
                inertias.append(inertia)
            for a, b in zip(inertias, inertias[1:]):
                assert b <= a + 1e-9

    def test_result_fields(self):
        X = synth_blobs(2, 10, 3, seed=5).features
        result = _one_restart(X, "plain", 2, seed=2)
        assert isinstance(result, _Restart)
        assert result.A.shape == (2, 20) and (result.A @ X).shape == (2, 3)
        assert result.point_d2.shape == (20,)
        assert result.iterations >= 1
        assert np.all(result.assignments >= 0) and np.all(result.assignments < 2)


def _plain_rows(X: np.ndarray) -> _Rows:
    """A K-means input without its Gram, as restart_scores builds it for n > width."""
    return _Rows(X, np.sum(X * X, axis=1))


def _gram_rows(X: np.ndarray) -> _Rows:
    """A K-means input carrying its Gram, as run_clustering builds it for n <= m."""
    return _Rows(X, np.sum(X * X, axis=1), X @ X.T)


def _one_restart(X: np.ndarray, form: str, k: int, seed: int = 0) -> _Restart:
    """The final state of one `kmeans` restart on X ("plain") or on rows carrying their Gram ("gram")."""
    return kmeans(_plain_rows(X) if form == "plain" else _gram_rows(X), k, [seed])[0]


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
    return X, _plain_rows(X), k, iters


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


def _check_restarts_against_loop(make_case, first, monkeypatch):
    """Each case runs three seeds one at a time (one-seed `kmeans` calls) and together
    in one lockstep call; every restart must match the loop reference for
    its seed, and a lockstep restart its one-seed run (assignments,
    iterations, inertia)."""
    stop_rounds_differ = cut_off = False
    for case in range(40):
        X, rows, k, iters = make_case(first + case, stream(first + case))
        monkeypatch.setattr(randist.clustering, "MAX_ITERS", iters)
        seeds = [first + case, 7_000 + case, 9_000 + case]
        alone = [kmeans(rows, k, [s])[0] for s in seeds]
        lockstep = kmeans(rows, k, seeds)
        for seed, one, got in zip(seeds, alone, lockstep):
            assignments, inertia = kmeans_loop(X, k, max_iters=iters, seed=seed)
            np.testing.assert_array_equal(got.assignments, assignments)
            assert float(got.point_d2.sum()) == pytest.approx(inertia, rel=1e-12, abs=1e-12)
            np.testing.assert_array_equal(got.assignments, one.assignments)
            assert got.iterations == one.iterations
            assert float(got.point_d2.sum()) == pytest.approx(float(one.point_d2.sum()), rel=1e-12, abs=0.0)
            assert (got.A @ X).shape == (k, X.shape[1])
        counts = {r.iterations for r in lockstep}
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
        rows = _plain_rows(result.embeddings)
        lloyd = [kmeans(rows, 3, [child_seed(cfg.seed, 20_000 + r)])[0].assignments for r in range(4)]
        np.testing.assert_array_equal(result.nmi_values, [nmi(blob_data.labels, a) for a in lloyd])
        np.testing.assert_array_equal(result.assignments, lloyd[0])

    @pytest.mark.parametrize("m", [24, 192])  # K-means on the embedding's rows, and on its Gram
    def test_every_restart_goes_through_kmeans(self, blob_data, monkeypatch, m):
        calls = []

        def counting(rows, k, seeds, lane=None):
            calls.append(len(seeds))
            return kmeans(rows, k, seeds, lane)

        monkeypatch.setattr(randist.clustering, "kmeans", counting)
        run_clustering(blob_data, self._cfg(m=m, epochs=2), restarts=4)
        assert calls == [4]  # one lockstep call runs all the restarts

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
            monkeypatch.setattr(randist.forks, "process_count", lambda limit: min(limit, lanes))
            results.append(run_clustering(blob_data, self._cfg(epochs=10, batch_size=24), restarts=3))
        alone, laned = results
        assert (alone.trace.lanes, laned.trace.lanes) == (1, 2)
        assert alone.nmi_values.tobytes() == laned.nmi_values.tobytes()
        assert alone.f_values.tobytes() == laned.f_values.tobytes()
        assert alone.assignments.tobytes() == laned.assignments.tobytes()
        assert alone.embeddings.tobytes() == laned.embeddings.tobytes()


def _lane_threads() -> list:
    return [t for t in threading.enumerate() if t.name.startswith("randist-lane")]


@pytest.fixture
def lane_blocks(monkeypatch):
    """(function that holds the block, thread that ran it) for each block a lane
    runs, while `forks.spare_lane` starts a lane whatever the CPUs and BLAS threads."""
    monkeypatch.setattr(randist.forks, "process_count", lambda limit: min(limit, 2))
    ran = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            where = getattr(fn, "func", fn).__qualname__

            def block():
                ran.append((where, threading.current_thread().name))
                return fn(*args, **kwargs)

            return super().submit(block)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return ran


class TestRunLane:
    """`run_clustering` holds one lane for the whole call; the second block of
    each one-off product runs on it, and the results are the bits of one thread."""

    SHAPES = {  # name: (clusters, rows per cluster, columns, m)
        "bench": (4, 250, 32, 1024),  # targets, both Grams, embedding and Lloyd products split
        "odd n": (3, 85, 8, 1024),  # 255 rows: both Grams split at c = 72
        "n < 16": (3, 5, 4, 32),  # one block each
        "n > m": (4, 100, 8, 64),  # no Gram: Lloyd's products from the rows
        "one cluster": (1, 60, 8, 64),
    }

    def _run(self, monkeypatch, shape):
        k, per, d, m = self.SHAPES[shape]
        restarts = []

        def recording(*args, **kwargs):
            out = kmeans(*args, **kwargs)
            restarts.append([r.assignments for r in out])
            return out

        monkeypatch.setattr(randist.clustering, "kmeans", recording)
        cfg = TrainConfig.clustering_defaults(m=m, epochs=2, seed=5)
        return run_clustering(synth_blobs(k, per, d, seed=4), cfg, restarts=30), restarts[0]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_lane_changes_no_result(self, monkeypatch, lane_blocks, shape):
        monkeypatch.setattr(randist.forks, "process_count", lambda limit: 1)
        alone, alone_restarts = self._run(monkeypatch, shape)
        assert lane_blocks == []
        monkeypatch.setattr(randist.forks, "process_count", lambda limit: min(limit, 2))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads trade the interpreter lock as often as they can
        try:
            laned, laned_restarts = self._run(monkeypatch, shape)
        finally:
            sys.setswitchinterval(switch)
        assert alone.embeddings.tobytes() == laned.embeddings.tobytes()
        assert [a.tobytes() for a in alone_restarts] == [a.tobytes() for a in laned_restarts]
        assert alone.nmi_values.tobytes() == laned.nmi_values.tobytes()
        assert alone.f_values.tobytes() == laned.f_values.tobytes()
        assert {thread for _, thread in lane_blocks} <= {"randist-lane_0"}
        if shape == "bench":
            where = [name for name, _ in lane_blocks]
            assert where.count("train.<locals>.<lambda>") == 1  # the targets' second row block
            assert where.count("gram_product.<locals>.<lambda>") == 2  # the target and K-means Grams
            assert where.count("EncoderModel.forward_batch.<locals>.rows") == 1
            assert where.count("_centroid_dists.<locals>.<lambda>") >= 1  # Lloyd rounds

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("stop", ["returns", "diverges", "interrupted"])
    def test_no_lane_outlives_the_run(self, monkeypatch, lane_blocks, stop):
        cfg = TrainConfig.clustering_defaults(m=256, epochs=2, seed=6,
                                              learning_rate=1e9 if stop == "diverges" else 0.1)
        alive = []

        def interrupted(self, d2):
            alive.extend(_lane_threads())
            raise KeyboardInterrupt

        if stop == "interrupted":
            monkeypatch.setattr(randist.clustering._Restart, "step", interrupted)
        data = synth_blobs(4, 50, 8, seed=7)
        if stop == "returns":
            run_clustering(data, cfg, restarts=3)
        else:
            with pytest.raises(NumericError if stop == "diverges" else KeyboardInterrupt):
                run_clustering(data, cfg, restarts=3)
        assert lane_blocks  # a lane ran
        assert alive or stop != "interrupted"
        assert _lane_threads() == []
