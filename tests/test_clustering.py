import numpy as np
import pytest

from randist.clustering import KMeansResult, _Rows, embed, kmeans, run_clustering
from randist.data import Dataset, synth_blobs
from randist.encoder import EncoderModel, TrainConfig
from randist.mappings import identity_map
from randist.metrics import nmi, pairwise_f
from randist.rng import child_seed, stream

from oracles import kmeans_loop


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
            np.testing.assert_allclose(H[r], model.forward(X[r]), rtol=1e-12, atol=1e-12)

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
        rows = X if form == "plain" else _gram_rows(X)
        for seed in range(6):
            result = kmeans(rows, 3, seed=seed)
            assert set(result.assignments.tolist()) == {0, 1, 2}

    def test_matches_loop_reference(self):
        # random, blob-shaped and rounded (tied) data; some runs stop at max_iters
        for case in range(40):
            rng = stream(case)
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
            result = kmeans(X, k, max_iters=iters, seed=case)
            assignments, inertia = kmeans_loop(X, k, max_iters=iters, seed=case)
            np.testing.assert_array_equal(result.assignments, assignments)
            assert result.inertia == pytest.approx(inertia, rel=1e-12, abs=1e-12)

    def test_gram_path_matches_loop_reference(self):
        # untied random and blob data with n <= d, where the pipeline shares
        # the Gram; some runs stop at max_iters
        for case in range(40):
            rng = stream(500 + case)
            k = int(rng.integers(1, 9))
            d = int(rng.integers(20, 150))
            n = int(rng.integers(k, d + 1))
            if case % 2 == 0:
                X = rng.standard_normal((n, d))
            else:
                X = synth_blobs(k, max(1, n // k), d, seed=case).features
            iters = int(rng.integers(1, 6)) if case % 4 == 0 else 300
            result = kmeans(_gram_rows(X), k, max_iters=iters, seed=case)
            assignments, inertia = kmeans_loop(X, k, max_iters=iters, seed=case)
            np.testing.assert_array_equal(result.assignments, assignments)
            assert result.inertia == pytest.approx(inertia, rel=1e-12, abs=1e-12)
            assert result.centroids.shape == (k, X.shape[1])

    @pytest.mark.parametrize("form", ["plain", "gram"])
    def test_invariants_on_tied_data(self, form):
        # rounded rows tie often, so the two forms' assignments may differ;
        # each result must still be a consistent K-means state
        for case in range(20):
            rng = stream(600 + case)
            k = int(rng.integers(2, 8))
            d = int(rng.integers(10, 60))
            X = np.round(rng.standard_normal((int(rng.integers(k, d + 1)), d)), 0)
            rows = X if form == "plain" else _gram_rows(X)
            inertias = []
            for iters in (1, 2, 4, 300):
                result = kmeans(rows, k, max_iters=iters, seed=case)
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
        result = run_clustering(blob_data, self._cfg(), restarts=2, ablation="no_aux_loss")
        assert not result.model.has_decoder
        assert result.nmi_mean > 0.5

    def test_no_pair_ablation_is_reconstruction_only(self, blob_data):
        result = run_clustering(blob_data, self._cfg(), restarts=2, ablation="no_pair_loss")
        assert result.model.has_decoder
        assert np.all(result.trace.pair == 0.0)

    def test_requires_labels(self, blob_data):
        unlabeled = Dataset(blob_data.features.copy())
        with pytest.raises(ValueError, match="labels"):
            run_clustering(unlabeled, self._cfg(), restarts=1)

    def test_kmeans_max_iters_checked_before_training(self, blob_data, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking kmeans_max_iters")

        monkeypatch.setattr("randist.clustering.train", no_training)
        with pytest.raises(ValueError, match="max_iters must be >= 1, got 0"):
            run_clustering(blob_data, self._cfg(), restarts=1, kmeans_max_iters=0)

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

    def test_workers_do_not_change_result(self, blob_data):
        a = run_clustering(blob_data, self._cfg(), restarts=4, workers=1)
        b = run_clustering(blob_data, self._cfg(), restarts=4, workers=4)
        np.testing.assert_array_equal(a.nmi_values, b.nmi_values)

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
        threaded = run_clustering(blob_data, cfg, restarts=4, workers=4)
        np.testing.assert_array_equal(threaded.nmi_values, result.nmi_values)
        np.testing.assert_array_equal(threaded.assignments, result.assignments)

    def test_normalize_embeddings_flag(self, blob_data):
        result = run_clustering(blob_data, self._cfg(), restarts=2, normalize_embeddings=True)
        norms = np.linalg.norm(result.embeddings, axis=1)
        np.testing.assert_allclose(norms[norms > 0], 1.0, rtol=1e-12)

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
