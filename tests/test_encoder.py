import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randist.encoder
import randist.forks
from randist.data import standardize, synth_blobs
from randist.encoder import (
    _block,
    _leaky,
    EncoderModel,
    TrainConfig,
    grad_batch,
    init_model,
    train,
)
from randist.errors import NumericError
from randist.forks import spare_lane
from randist.mappings import apply, identity_map, rff, sparse_rp
from randist.rng import stream

from oracles import batch_gradient_loop, batch_objective_loop, fd_gradient, forward


class TestTrainConfig:
    def test_anomaly_defaults(self):
        cfg = TrainConfig.anomaly_defaults()
        assert cfg.m == 50 and cfg.epochs == 200 and cfg.task == "anomaly"
        assert cfg.batch_size == 192 and cfg.learning_rate == 0.1

    def test_clustering_defaults(self):
        cfg = TrainConfig.clustering_defaults()
        assert cfg.m == 1024 and cfg.epochs == 1000 and cfg.task == "clustering"

    def test_overrides(self):
        cfg = TrainConfig.anomaly_defaults(m=10, epochs=5, seed=3)
        assert (cfg.m, cfg.epochs, cfg.seed) == (10, 5, 3)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(m=0, epochs=1),
            dict(m=1, epochs=0),
            dict(m=1, epochs=1, batch_size=1),
            dict(m=1, epochs=1, learning_rate=0.0),
            dict(m=1, epochs=1, aux_weight=-0.1),
            dict(m=1, epochs=1, task="other"),
            dict(m=1, epochs=1, seed=-1),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(learning_rate=float("nan")),
            dict(learning_rate=float("inf")),
            dict(aux_weight=float("nan")),
            dict(aux_weight=float("inf")),
        ],
    )
    def test_rejects_non_finite_rate_and_weight(self, kw):
        name = next(iter(kw))
        with pytest.raises(ValueError, match=f"{name} must be .*finite"):
            TrainConfig(m=1, epochs=1, **kw)

    def test_lists_all_problems(self):
        with pytest.raises(ValueError) as err:
            TrainConfig(m=0, epochs=0, batch_size=1)
        message = str(err.value)
        assert "m must" in message and "epochs must" in message and "batch_size" in message


_EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]


class TestLeaky:
    @settings(max_examples=200, deadline=None)
    @given(
        slope=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
        z=st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()), min_size=1, max_size=40),
    )
    def test_equals_where_bit_for_bit(self, slope, z):
        Z = np.array(z)
        with np.errstate(invalid="ignore"):  # 0 * inf
            H, S = _leaky(Z.copy(), slope)  # _leaky overwrites its argument with H
            expected = np.where(Z > 0, Z, slope * Z)
        np.testing.assert_array_equal(H.view(np.int64), expected.view(np.int64))
        np.testing.assert_array_equal(S, np.where(Z > 0, 1.0, slope))


class TestInitModel:
    def test_bias_exact_zero(self):
        cfg = TrainConfig(m=4, epochs=1, task="anomaly", batch_size=2)
        model = init_model(cfg, sparse_rp(6, 4, seed=0), seed=1)
        np.testing.assert_array_equal(model.b, np.zeros(4))

    def test_decoder_iff_reconstruction(self):
        mapping = sparse_rp(6, 4, seed=0)
        clu = TrainConfig(m=4, epochs=1, task="clustering", batch_size=2)
        assert init_model(clu, mapping, seed=1).has_decoder
        no_aux = TrainConfig(m=4, epochs=1, task="clustering", batch_size=2, use_aux_loss=False)
        assert not init_model(no_aux, mapping, seed=1).has_decoder
        ad = TrainConfig(m=4, epochs=1, task="anomaly", batch_size=2)
        assert not init_model(ad, mapping, seed=1).has_decoder

    def test_novelty_dimension_guard(self):
        cfg = TrainConfig(m=4, epochs=1, task="anomaly", batch_size=2)
        with pytest.raises(ValueError, match="out_dim"):
            init_model(cfg, sparse_rp(6, 5, seed=0), seed=1)

    def test_deterministic(self):
        cfg = TrainConfig(m=3, epochs=1, task="anomaly", batch_size=2)
        mapping = sparse_rp(5, 3, seed=0)
        a = init_model(cfg, mapping, seed=9)
        b = init_model(cfg, mapping, seed=9)
        np.testing.assert_array_equal(a.w, b.w)


class TestForwardDecode:
    def test_identity_region(self):
        model = EncoderModel(
            w=np.eye(3), b=np.zeros(3), leaky_slope=0.01, random_map=identity_map(3)
        )
        X = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(model.forward_batch(X), X)

    def test_negative_region(self):
        model = EncoderModel(
            w=np.eye(1), b=np.zeros(1), leaky_slope=0.01, random_map=identity_map(1)
        )
        np.testing.assert_allclose(model.forward_batch(np.array([[-1.0]])), [[-0.01]])

    def test_positive_homogeneity(self):
        rng = stream(3)
        w = rng.standard_normal((4, 3))
        model = EncoderModel(w=w, b=np.zeros(4), leaky_slope=0.2, random_map=identity_map(3))
        X = rng.standard_normal(3)[None, :]
        np.testing.assert_allclose(model.forward_batch(2.0 * X), 2.0 * model.forward_batch(X), rtol=1e-12)

    def test_forward_batch_matches_rows(self):
        rng = stream(4)
        model = EncoderModel(
            w=rng.standard_normal((4, 5)),
            b=rng.standard_normal(4),
            leaky_slope=0.01,
            random_map=identity_map(5),
        )
        X = rng.standard_normal((7, 5))
        batch = model.forward_batch(X)
        for r in range(7):
            np.testing.assert_allclose(batch[r], forward(model, X[r]), rtol=1e-12, atol=1e-12)

    def test_dim_mismatch(self):
        model = EncoderModel(
            w=np.eye(2), b=np.zeros(2), leaky_slope=0.01, random_map=identity_map(2)
        )
        with pytest.raises(ValueError):
            model.forward_batch(np.zeros((1, 3)))


def _grad_case(seed, d=4, m=3, n=5, task="anomaly", use_pair=True, use_aux=True):
    """A model, a batch of n rows and their mapped rows; m = k = 3."""
    rng = stream(seed)
    X = rng.standard_normal((n, d))
    mapping = sparse_rp(d, m, seed=seed + 1)
    config = TrainConfig(
        m=m, epochs=1, task=task, batch_size=4,
        use_pair_loss=use_pair, use_aux_loss=use_aux, aux_weight=1.0, seed=seed,
    )
    model = init_model(config, mapping, seed=seed + 2)
    return model, X, apply(mapping, X), config


def _analytic_flat(grads, model):
    parts = [grads.dw.ravel(), grads.db.ravel()]
    if model.has_decoder:
        parts += [grads.ddecoder_w.ravel(), grads.ddecoder_b.ravel()]
    return np.concatenate(parts)


def _assert_matches_oracle(model, X, T, config, gram_b=None):
    grads, losses = grad_batch(model, X, T, config, gram_b)
    np.testing.assert_allclose(
        _analytic_flat(grads, model), batch_gradient_loop(model, X, T, config), rtol=1e-12, atol=1e-14
    )
    np.testing.assert_allclose(losses, batch_objective_loop(model, X, T, config), rtol=1e-12, atol=1e-14)


_STEP_SHAPES = dict(
    nb=st.integers(min_value=2, max_value=24),
    m=st.integers(min_value=1, max_value=30),
    k=st.integers(min_value=1, max_value=30),
    task=st.sampled_from(["anomaly", "clustering"]),
    seed=st.integers(min_value=0, max_value=2**31),
)


def _step_case(nb, m, k, task, seed):
    """A random model and batch of nb rows on either side of the max(m, k) < nb switch."""
    if task == "anomaly":
        k = m  # the novelty term compares the embedding with the mapped row
    X = stream(seed).standard_normal((nb, 5))
    mapping = sparse_rp(5, k, seed=seed + 1)
    config = TrainConfig(m=m, epochs=1, task=task, batch_size=nb, seed=0)
    model = init_model(config, mapping, seed=seed + 2)
    return model, X, apply(mapping, X), config


class TestGradients:
    @pytest.mark.parametrize(
        "task,use_pair,use_aux",
        [("anomaly", True, False), ("anomaly", True, True), ("clustering", True, True),
         ("anomaly", False, True), ("clustering", False, True)],
    )
    def test_matches_finite_differences(self, task, use_pair, use_aux):
        # 3 rows <= m = k = 3 take the nb x nb form of the pair term, 5 rows the m x m form
        for n in (3, 5):
            model, X, T, config = _grad_case(31, n=n, task=task, use_pair=use_pair, use_aux=use_aux)
            grads, _ = grad_batch(model, X, T, config)
            analytic = _analytic_flat(grads, model)
            numeric = fd_gradient(
                lambda mod: batch_objective_loop(mod, X, T, config)[0], model, h=1e-5
            )
            scale = np.maximum(np.abs(numeric), 1e-3)
            assert np.max(np.abs(analytic - numeric) / scale) < 1e-4

    def test_gram_path_equals_generic_path(self):
        # nb = 3 <= m = k = 3: the nb x nb residual, with and without a given target Gram
        for task in ("anomaly", "clustering"):
            rng = stream(17)
            X = rng.standard_normal((7, 4))
            mapping = sparse_rp(4, 3, seed=1)
            config = TrainConfig(m=3, epochs=1, task=task, batch_size=4, seed=0)
            model = init_model(config, mapping, seed=2)
            idx = np.array([5, 1, 4])
            targets = apply(mapping, X)[idx]
            _assert_matches_oracle(model, X[idx], targets, config)
            _assert_matches_oracle(model, X[idx], targets, config, gram_b=targets @ targets.T)

    @pytest.mark.parametrize("task,k", [("anomaly", 3), ("clustering", 3), ("clustering", 5)])
    def test_feature_gram_path_equals_generic_path(self, task, k):
        # m, k < nb selects the trace-identity form of the pair term
        rng = stream(19)
        X = rng.standard_normal((12, 4))
        mapping = sparse_rp(4, k, seed=1)
        config = TrainConfig(m=3, epochs=1, task=task, batch_size=8, seed=0)
        model = init_model(config, mapping, seed=2)
        idx = np.array([9, 2, 7, 0, 11, 4, 5, 1])
        _assert_matches_oracle(model, X[idx], apply(mapping, X)[idx], config)

    @pytest.mark.parametrize("task,m", [("anomaly", 64), ("clustering", 64), ("anomaly", 120)])
    def test_terms_over_10000_entries_match_oracle(self, task, m):
        # OpenBLAS splits a dot of more than 10,000 entries across threads: the
        # 192 x 192 residual (with the target Gram), the 192 x 64 novelty
        # residual and, at m = 120 < nb, the 120 x 120 feature Grams
        model, X, T, config = _step_case(192, m, m, task, seed=41)
        _assert_matches_oracle(model, X, T, config)
        _assert_matches_oracle(model, X, T, config, gram_b=T @ T.T)

    @settings(max_examples=40, deadline=None)
    @given(**_STEP_SHAPES)
    def test_step_matches_generic_path_at_any_shape(self, nb, m, k, task, seed):
        _assert_matches_oracle(*_step_case(nb, m, k, task, seed))

    @settings(max_examples=40, deadline=None)
    @given(**_STEP_SHAPES)
    def test_batch_row_order_does_not_change_the_step(self, nb, m, k, task, seed):
        # the objective is a sum over the batch's rows and pairs, so any
        # permutation of the rows gives the same loss and gradients up to
        # summation order (atol covers entries that cancel to ~1e-18)
        model, X, T, config = _step_case(nb, m, k, task, seed)
        perm = stream(seed + 3).permutation(nb)
        grads, (total, _, _) = grad_batch(model, X, T, config)
        p_grads, (p_total, _, _) = grad_batch(model, X[perm], T[perm], config)
        np.testing.assert_allclose(p_total, total, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(p_grads.dw, grads.dw, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(p_grads.db, grads.db, rtol=1e-12, atol=1e-14)

    def test_zero_everything_gives_zero_gradient(self):
        # identity map so the mapped zero input is zero as well
        mapping = identity_map(3)
        config = TrainConfig(m=3, epochs=1, task="anomaly", batch_size=2, seed=0)
        model = init_model(config, mapping, seed=1)
        model.w = np.zeros((3, 3))
        for n in (3, 4):
            X = np.zeros((n, 3))
            grads, (total, _, _) = grad_batch(model, X, apply(mapping, X), config)
            assert total == 0.0
            np.testing.assert_array_equal(grads.dw, 0.0)
            np.testing.assert_array_equal(grads.db, 0.0)

    def test_doubling_weight_doubles_aux_gradient(self):
        # with the pair loss off, gradients scale exactly with aux_weight
        for task in ("anomaly", "clustering"):
            model, X, T, _ = _grad_case(23, task=task)
            cfg1 = TrainConfig(
                m=3, epochs=1, task=task, batch_size=4,
                use_pair_loss=False, aux_weight=1.0, seed=0,
            )
            cfg2 = TrainConfig(
                m=3, epochs=1, task=task, batch_size=4,
                use_pair_loss=False, aux_weight=2.0, seed=0,
            )
            g1, _ = grad_batch(model, X, T, cfg1)
            g2, _ = grad_batch(model, X, T, cfg2)
            np.testing.assert_array_equal(g2.dw, 2.0 * g1.dw)
            np.testing.assert_array_equal(g2.db, 2.0 * g1.db)

    def test_no_loss_enabled(self):
        model, X, T, _ = _grad_case(5)
        with pytest.raises(ValueError, match="no loss enabled"):
            config = TrainConfig(
                m=3, epochs=1, task="anomaly", batch_size=4,
                use_pair_loss=False, use_aux_loss=False, seed=0,
            )
            grad_batch(model, X, T, config)


class TestTrain:
    def _blob_matrix(self, k=3, per=40, d=10, seed=1):
        data = synth_blobs(k, per, d, seed=seed)
        return standardize(data)[0].features, data.labels

    def test_no_loss_enabled(self):
        X, _ = self._blob_matrix()
        with pytest.raises(ValueError, match="no loss enabled"):
            cfg = TrainConfig(
                m=4, epochs=1, task="anomaly", batch_size=16,
                use_pair_loss=False, use_aux_loss=False, seed=0,
            )
            train(X, cfg, sparse_rp(10, 4, seed=0))

    def test_deterministic(self):
        X, _ = self._blob_matrix()
        cfg = TrainConfig(m=6, epochs=8, task="anomaly", batch_size=16, seed=11)
        mapping = rff(10, 6, data=X, seed=3)
        m1, t1 = train(X, cfg, mapping)
        m2, t2 = train(X, cfg, mapping)
        np.testing.assert_array_equal(m1.w, m2.w)
        np.testing.assert_array_equal(m1.b, m2.b)
        np.testing.assert_array_equal(t1.total, t2.total)

    def test_within_cluster_dots_exceed_between(self):
        X, labels = self._blob_matrix(k=3, per=40, d=10, seed=4)
        cfg = TrainConfig(m=8, epochs=60, task="anomaly", batch_size=24, seed=5)
        mapping = rff(10, 8, data=X, seed=6)
        model, _ = train(X, cfg, mapping)
        H = model.forward_batch(X)
        G = H @ H.T
        same = labels[:, None] == labels[None, :]
        off_diag = ~np.eye(len(labels), dtype=bool)
        within = G[same & off_diag].mean()
        between = G[~same].mean()
        assert within > between

    def test_loss_decreases(self):
        X, _ = self._blob_matrix(k=2, per=60, d=8, seed=7)
        cfg = TrainConfig(m=8, epochs=50, task="anomaly", batch_size=24, seed=8)
        model, trace = train(X, cfg, rff(8, 8, data=X, seed=9))
        tenth = max(1, cfg.epochs // 10)
        assert trace.total[-tenth:].mean() <= trace.total[:tenth].mean()

    def test_parameters_finite_at_default_rate(self):
        X, _ = self._blob_matrix(k=3, per=50, d=12, seed=10)
        cfg = TrainConfig(m=12, epochs=40, task="anomaly", batch_size=32, seed=12)
        model, trace = train(X, cfg, rff(12, 12, data=X, seed=13))
        assert np.all(np.isfinite(model.w)) and np.all(np.isfinite(model.b))
        assert np.all(np.isfinite(trace.total))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_epoch(self):
        X, _ = self._blob_matrix(k=2, per=30, d=6, seed=14)
        cfg = TrainConfig(
            m=6, epochs=50, task="anomaly", batch_size=16, learning_rate=1e9, seed=15
        )
        with pytest.raises(NumericError, match="epoch"):
            train(X, cfg, rff(6, 6, data=X, seed=16))

    def test_trailing_singleton_batch_dropped(self):
        X = stream(17).standard_normal((17, 4))
        cfg = TrainConfig(m=4, epochs=3, task="anomaly", batch_size=16, seed=18)
        model, trace = train(X, cfg, sparse_rp(4, 4, seed=19))
        assert np.all(np.isfinite(trace.total))

    def test_identity_map_exact_fit_is_zero_loss(self):
        # W = I reproduces the identity mapping on positive data: zero pair and novelty loss
        X = np.abs(stream(20).standard_normal((12, 5))) + 0.1
        mapping = identity_map(5)
        config = TrainConfig(m=5, epochs=1, task="anomaly", batch_size=4, seed=0)
        model = init_model(config, mapping, seed=1)
        model.w = np.eye(5)
        for n in (5, 12):  # the nb x nb and the m x m form of the pair term
            _, losses = grad_batch(model, X[:n], apply(mapping, X[:n]), config)
            assert losses == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "task,use_pair,calls",
        [("anomaly", True, 1), ("anomaly", False, 1), ("clustering", True, 1), ("clustering", False, 0)],
    )
    def test_maps_training_rows_once(self, monkeypatch, task, use_pair, calls):
        seen = []
        real_apply = randist.encoder.apply

        def counting_apply(*args, **kwargs):
            seen.append(args[1].shape)
            return real_apply(*args, **kwargs)

        monkeypatch.setattr(randist.encoder, "apply", counting_apply)
        X, _ = self._blob_matrix(k=2, per=30, d=6, seed=21)
        cfg = TrainConfig(m=4, epochs=3, task=task, batch_size=16, use_pair_loss=use_pair, seed=22)
        # rff, whose targets the default learning rate is set for: srp's diverge here at epoch 1
        train(X, cfg, rff(6, 4, data=X, seed=23))
        assert seen == [X.shape] * calls

    @pytest.mark.parametrize(
        "task,n,k,m,cached",
        [
            ("clustering", 40, 48, 12, True),
            ("clustering", 40, 40, 40, True),
            ("clustering", 60, 48, 12, False),
            ("anomaly", 20, 24, 24, True),
            ("anomaly", 30, 24, 24, False),
        ],
    )
    def test_target_gram_cache_matches_per_batch_product(self, monkeypatch, task, n, k, m, cached):
        X = stream(24).standard_normal((n, 6))
        mapping = rff(6, k, data=X, seed=25)
        cfg = TrainConfig(m=m, epochs=6, task=task, batch_size=16, seed=26)
        model, trace = train(X, cfg, mapping)

        seen, gathered = [], []
        real_step = randist.encoder.grad_batch

        def per_batch_step(model, Xb, targets_b, config, gram_b=None, lane=None):
            seen.append(gram_b is not None)
            gathered.append(targets_b is not None)
            T = apply(mapping, Xb) if targets_b is None else targets_b
            return real_step(model, Xb, T, config, None, lane)

        monkeypatch.setattr(randist.encoder, "grad_batch", per_batch_step)
        ref_model, ref_trace = train(X, cfg, mapping)
        assert set(seen) == {cached}  # the n x n Gram is formed iff n <= k
        # with the Gram, only the novelty term reads a batch's mapped rows
        assert set(gathered) == {task == "anomaly" or not cached}
        for got, want in [
            (trace.total, ref_trace.total),
            (trace.pair, ref_trace.pair),
            (trace.aux, ref_trace.aux),
            (model.w, ref_model.w),
            (model.b, ref_model.b),
            (model.forward_batch(X), ref_model.forward_batch(X)),
        ]:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "task,use_pair,use_aux",
        [("anomaly", True, True), ("anomaly", False, True), ("clustering", True, True),
         ("clustering", True, False)],
    )
    def test_trace_is_the_mean_of_each_epochs_batch_losses(self, monkeypatch, task, use_pair, use_aux):
        X, _ = self._blob_matrix(k=2, per=40, d=6, seed=27)
        cfg = TrainConfig(
            m=4, epochs=5, task=task, batch_size=16, use_pair_loss=use_pair, use_aux_loss=use_aux, seed=28
        )
        recorded = []
        real_step = randist.encoder.grad_batch

        def recording_step(*args):
            grads, losses = real_step(*args)
            recorded.append(losses)
            return grads, losses

        monkeypatch.setattr(randist.encoder, "grad_batch", recording_step)
        _, trace = train(X, cfg, rff(6, 4, data=X, seed=29))  # srp's targets diverge at lr 0.1
        batches = 5  # 80 rows in batches of 16
        assert len(recorded) == batches * cfg.epochs
        for epoch in range(cfg.epochs):
            losses = recorded[epoch * batches : (epoch + 1) * batches]
            for column, name in enumerate(("total", "pair", "aux")):
                # summed in batch order, as train does
                mean = sum(batch[column] for batch in losses) / batches
                assert getattr(trace, name)[epoch] == mean

    def test_needs_two_rows(self):
        cfg = TrainConfig(m=2, epochs=1, task="anomaly", batch_size=2, seed=0)
        with pytest.raises(ValueError, match="2 rows"):
            train(np.ones((1, 3)), cfg, sparse_rp(3, 2, seed=0))

    def test_map_dimension_check(self):
        cfg = TrainConfig(m=2, epochs=1, task="anomaly", batch_size=2, seed=0)
        with pytest.raises(ValueError, match="columns"):
            train(np.ones((4, 3)), cfg, sparse_rp(5, 2, seed=0))


def _lanes(monkeypatch, lanes: int) -> None:
    """Let `spare_lane` start a lane (lanes=2) or not (1), whatever the CPUs and BLAS threads."""
    monkeypatch.setattr(randist.forks, "process_count", lambda limit: min(limit, lanes))


def _threads(monkeypatch, name: str = "_aux_term") -> list:
    """The names of the threads that run each call of randist.encoder's `name`:
    by default each step's auxiliary branch."""
    names = []
    real = getattr(randist.encoder, name)

    def recording(*args):
        names.append(threading.current_thread().name)
        return real(*args)

    monkeypatch.setattr(randist.encoder, name, recording)
    return names


class TestLane:
    """`train` runs a step's two branches on two threads when its caller passes
    a lane from `spare_lane`; the result must be the bits of one thread."""

    def _train_both(self, monkeypatch, X, cfg, mapping):
        runs = []
        switch = sys.getswitchinterval()
        for lanes in (1, 2):
            _lanes(monkeypatch, lanes)
            before = threading.active_count()
            sys.setswitchinterval(1e-6)  # the threads trade the interpreter lock as often as they can
            try:
                with spare_lane() as lane:
                    assert (lane is None) == (lanes == 1)
                    runs.append(train(X, cfg, mapping, lane))
            finally:
                sys.setswitchinterval(switch)
            assert threading.active_count() == before  # the lane is gone on leaving its block
        return runs

    @pytest.mark.parametrize(
        "task,n,k,use_aux,gram",
        [
            ("clustering", 40, 48, True, True),  # the n x n target Gram: gather and decoder on the lane
            ("clustering", 40, 48, False, True),  # the gather only
            ("clustering", 80, 24, True, False),  # m = k >= nb without the Gram: the decoder only
            ("anomaly", 80, 24, True, False),  # m >= nb: the novelty term on the lane
            ("anomaly", 20, 24, True, True),  # the Gram gather and the novelty term
            ("clustering", 40, 20, True, False),  # m = 20: tail blocks 8 | 12
            ("anomaly", 30, 33, True, True),  # m = 33: tail blocks 16 | 17
            ("clustering", 10, 12, True, True),  # m = 12: one tail block, on the caller
            ("clustering", 34, 48, True, True),  # a trailing batch of 2 rows
            ("clustering", 20, 20, False, True),  # no_aux_loss: the gather, then blocks 8 | 12
        ],
    )
    def test_lane_is_bit_identical_to_one_thread(self, monkeypatch, task, n, k, use_aux, gram):
        X = stream(30).standard_normal((n, 6))
        mapping = rff(6, k, data=X, seed=31)
        cfg = TrainConfig(m=k, epochs=4, task=task, batch_size=16, use_aux_loss=use_aux, seed=32)
        tails = _threads(monkeypatch, "_tail")
        (alone, alone_trace), (laned, laned_trace) = self._train_both(monkeypatch, X, cfg, mapping)
        assert (alone_trace.lanes, laned_trace.lanes) == (1, 2)
        assert any(name.startswith("randist-lane") for name in tails) == (k >= 16)
        for name in ("w", "b", "decoder_w", "decoder_b"):
            want, got = getattr(alone, name), getattr(laned, name)
            assert (None if want is None else want.tobytes()) == (None if got is None else got.tobytes())
        for name in ("total", "pair", "aux"):
            assert getattr(alone_trace, name).tobytes() == getattr(laned_trace, name).tobytes()

    @pytest.mark.parametrize(
        "task,m,use_pair,use_aux",
        [
            ("anomaly", 8, True, True),  # m, k < nb: the feature-Gram form is not worth a lane
            ("clustering", 24, False, True),  # no pair term to run beside
            ("clustering", 24, True, False),  # n > k and no aux term: no second branch
        ],
    )
    def test_no_lane_without_a_wide_step_and_a_second_branch(self, monkeypatch, task, m, use_pair, use_aux):
        X = stream(33).standard_normal((80, 6))
        cfg = TrainConfig(m=m, epochs=1, task=task, batch_size=16, use_pair_loss=use_pair,
                          use_aux_loss=use_aux, seed=34)
        _lanes(monkeypatch, 2)
        names = _threads(monkeypatch)
        with spare_lane() as lane:
            assert lane is not None
            _, trace = train(X, cfg, rff(6, m, data=X, seed=35), lane)
        assert trace.lanes == 1
        assert set(names) <= {threading.current_thread().name}

    def test_without_a_lane_every_block_runs_here(self, monkeypatch):
        # a CPU is spare and every step could use a lane, but the caller passes none
        X = stream(36).standard_normal((40, 6))
        cfg = TrainConfig(m=48, epochs=2, task="clustering", batch_size=16, seed=37)
        _lanes(monkeypatch, 2)
        aux, tails = _threads(monkeypatch), _threads(monkeypatch, "_tail")
        before = threading.active_count()
        _, trace = train(X, cfg, rff(6, 48, data=X, seed=38))
        assert trace.lanes == 1 and threading.active_count() == before
        assert aux and tails and set(aux + tails) == {threading.current_thread().name}

    def test_a_lane_needs_a_spare_cpu(self, monkeypatch):
        X = stream(36).standard_normal((40, 6))
        cfg = TrainConfig(m=48, epochs=1, task="clustering", batch_size=16, seed=37)
        mapping = rff(6, 48, data=X, seed=38)
        monkeypatch.setattr(randist.forks, "_openblas_num_threads", lambda: lambda: 1)
        monkeypatch.setattr(randist.forks.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        with spare_lane() as lane:
            assert lane is None
            assert train(X, cfg, mapping, lane)[1].lanes == 1
        monkeypatch.setattr(randist.forks.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        names = _threads(monkeypatch)
        with spare_lane() as lane:
            assert train(X, cfg, mapping, lane)[1].lanes == 2
        assert names and all(name.startswith("randist-lane") for name in names)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_with_a_lane_reports_the_same_epoch(self, monkeypatch):
        # test_divergence_reports_epoch's run at a batch no wider than m, so a lane runs
        X = TestTrain()._blob_matrix(k=2, per=30, d=6, seed=14)[0]
        cfg = TrainConfig(m=6, epochs=50, task="anomaly", batch_size=6, learning_rate=1e9, seed=15)
        mapping = rff(6, 6, data=X, seed=16)
        messages = []
        for lanes in (1, 2):
            _lanes(monkeypatch, lanes)
            names = _threads(monkeypatch)
            before = threading.active_count()
            with pytest.raises(NumericError, match="epoch") as err, spare_lane() as lane:
                train(X, cfg, mapping, lane)
            assert threading.active_count() == before
            assert names and all(name.startswith("randist-lane") for name in names) == (lanes == 2)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("where", ["caller", "lane"])
    def test_an_interrupt_mid_step_leaves_no_thread(self, monkeypatch, where):
        X = stream(39).standard_normal((40, 6))
        cfg = TrainConfig(m=48, epochs=3, task="clustering", batch_size=16, seed=40)
        mapping = rff(6, 48, data=X, seed=41)
        _lanes(monkeypatch, 2)
        calls = []
        name, real = {"caller": ("_leaky", _leaky), "lane": ("_aux_term", randist.encoder._aux_term)}[where]

        def interrupted(*args):
            calls.append(threading.current_thread().name)
            if len(calls) == 4:  # the second epoch's first step
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(randist.encoder, name, interrupted)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt), spare_lane() as lane:
            train(X, cfg, mapping, lane)
        assert threading.active_count() == before
        assert calls[-1].startswith("randist-lane") == (where == "lane")


def test_short_last_batch_of_a_feature_form_run_is_one_tail_block(monkeypatch):
    # batches of 32, 32 and 8 rows at m = k = 20: the full ones take the feature form and the
    # last the residual form, whose tail stays whole in such a run
    X = stream(48).standard_normal((72, 6))
    cfg = TrainConfig(m=20, epochs=2, task="anomaly", batch_size=32, seed=49)
    widths = []
    real_tail = randist.encoder._tail

    def recording(cols, dH, R, H, *args):
        widths.append(H[:, cols].shape)
        return real_tail(cols, dH, R, H, *args)

    monkeypatch.setattr(randist.encoder, "_tail", recording)
    train(X, cfg, rff(6, 20, data=X, seed=50))
    assert widths == [(32, 20), (32, 20), (8, 20)] * 2


def test_two_tail_blocks_match_one_product():
    # at nb = 64, m = 300 the blocks' R @ H need not be the bits of one product
    # (OpenBLAS 0.3.31 differs there), so the tail is held to a tolerance
    nb, m = 64, 300
    X = stream(44).standard_normal((nb, 6))
    mapping = rff(6, m, data=X, seed=45)
    cfg = TrainConfig(m=m, epochs=1, task="clustering", batch_size=nb, seed=46)
    model = init_model(cfg, mapping, seed=47)
    T = apply(mapping, X)
    grads, _ = grad_batch(model, X, T, cfg)
    H, S = _leaky(X @ model.w.T + model.b, model.leaky_slope)
    dH = (H @ H.T - T @ T.T) @ H * (4.0 / (nb * nb)) + randist.encoder._aux_term(model, H, X, T, cfg)[1]
    dH *= S
    np.testing.assert_allclose(grads.dw, dH.T @ X, rtol=1e-12, atol=0)
    np.testing.assert_allclose(grads.db, dH.sum(axis=0), rtol=1e-12, atol=0)


def test_block_is_the_ix_gather():
    a = stream(42).standard_normal((30, 30))
    idx = stream(43).permutation(30)[:12]
    assert _block(a, idx).tobytes() == a[np.ix_(idx, idx)].tobytes()


# The planted optimum: non-negative rows, the identity map and m = d. Leaky ReLU
# is the identity on z >= 0, so W = I and b = 0 give H = X, which zeroes the pair
# term, the novelty term and, with a decoder of I, the reconstruction term: the
# best loss is exactly 0, and training either moves towards it or is broken.
# Each bound was fixed on seeds 0-4 (numpy 2.4.6, OpenBLAS 0.3.31), with a margin of
# 0.1 below the lowest fit and twice the highest pair-loss ratio there:
#   anomaly     fit 0.699-0.799, pair loss at epoch 200 over epoch 0 0.022-0.030
#   clustering  fit 0.754-0.820, pair loss at epoch 200 over epoch 0 0.023-0.025
# and the gate runs on seeds 5-9. lr x 0.01, no weight update, one epoch only and
# a `_tail` that drops the pair gradient each fail it.
PLANTED_BOUNDS = {"anomaly": (0.60, 0.06), "clustering": (0.65, 0.05)}  # task: (lowest fit, highest ratio)


def _gram_fit(H, T):
    """1 - ||HH^T - TT^T||^2_F / ||TT^T - mean(TT^T)||^2_F: 1 at a perfect fit, 0 for a constant Gram."""
    target = T @ T.T
    residual = H @ H.T - target
    target -= target.mean()
    return 1.0 - np.vdot(residual, residual) / np.vdot(target, target)


@pytest.mark.parametrize("seed", range(5, 10))
@pytest.mark.parametrize("task", PLANTED_BOUNDS)
def test_training_approaches_a_planted_optimum(task, seed):
    n, d, epochs = 600, 8, 200
    X = stream(seed).uniform(0.0, 1.0, (n, d)) / np.sqrt(d)
    model, trace = train(X, TrainConfig(m=d, epochs=epochs, task=task, seed=seed), identity_map(d))
    lowest_fit, highest_ratio = PLANTED_BOUNDS[task]
    assert _gram_fit(model.forward_batch(X), X) >= lowest_fit
    assert trace.pair[epochs - 1] <= highest_ratio * trace.pair[0]
