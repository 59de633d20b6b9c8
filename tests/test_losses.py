"""Value conventions of the training objective, read off the losses that
`grad_batch` reports for one batch, and of the novelty evaluator."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randist.encoder import EncoderModel, TrainConfig, grad_batch, init_model
from randist.losses import novelty_rows
from randist.mappings import apply, identity_map, sparse_rp
from randist.rng import stream

from oracles import batch_objective_loop, forward


def _identity_model(d, slope=0.01, decoder=False):
    return EncoderModel(
        w=np.eye(d),
        b=np.zeros(d),
        leaky_slope=slope,
        random_map=identity_map(d),
        decoder_w=np.eye(d) if decoder else None,
        decoder_b=np.zeros(d) if decoder else None,
    )


def _random_model(d, m, seed, task="anomaly", use_aux=True):
    mapping = sparse_rp(d, m, seed=seed + 1)
    config = TrainConfig(m=m, epochs=1, task=task, batch_size=4, use_aux_loss=use_aux, seed=seed)
    return init_model(config, mapping, seed=seed), config


def _config(m, task="anomaly", **kw):
    return TrainConfig(m=m, epochs=1, task=task, batch_size=4, seed=0, **kw)


def _losses(model, X, targets, config, gram_b=None):
    """(total, pair, aux) as the one gradient kernel reports them."""
    return grad_batch(model, np.asarray(X, dtype=np.float64), targets, config, gram_b)[1]


class TestDistancePredictionLoss:
    """The pair term: raw squared error of each embedded dot product, averaged
    over every ordered pair of the batch, self-pairs included."""

    def test_orthogonal_embeddings_zero_target(self):
        X = np.eye(2)
        _, pair, _ = _losses(_identity_model(2), X, X, _config(2, use_aux_loss=False))
        assert pair == 0.0

    def test_two_vs_one(self):
        # the off-diagonal embedded dot is 2 against a target of 1; the self-pairs
        # match, so two of the four ordered pairs have squared error 1
        X = np.array([[2.0, 0.0], [1.0, 0.0]])
        gram = np.array([[4.0, 1.0], [1.0, 1.0]])
        _, pair, _ = _losses(_identity_model(2), X, X, _config(2, use_aux_loss=False), gram)
        assert pair == 0.5

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_symmetric_and_nonnegative(self, seed):
        rng = stream(seed)
        model, _ = _random_model(3, 4, seed=7)
        X, T = rng.standard_normal((2, 3)), rng.standard_normal((2, 4))
        config = _config(4, use_aux_loss=False)
        a = _losses(model, X, T, config)[1]
        b = _losses(model, X[::-1], T[::-1], config)[1]
        assert a == pytest.approx(b, rel=1e-12) and a >= 0.0


class TestReconstructionLoss:
    """The clustering auxiliary term: squared error of the decoded embedding,
    a mean over the D input coordinates and over the rows."""

    def _recon(self, model, X):
        config = _config(model.m, task="clustering", use_pair_loss=False)
        return _losses(model, X, None, config)[2]

    def test_perfect_autoencoder(self):
        model = _identity_model(3, decoder=True)
        X = np.array([[0.5, 1.0, 2.0]])  # all positive: identity region
        assert self._recon(model, X) == 0.0

    def test_zero_model_zero_input(self):
        model = _identity_model(2, decoder=True)
        model.w = np.zeros((2, 2))
        model.decoder_w = np.zeros((2, 2))
        assert self._recon(model, np.zeros((1, 2))) == 0.0

    def test_zero_model_mean_convention(self):
        # reconstruction is the zero vector; mean over D of squares
        model = _identity_model(2, decoder=True)
        model.w = np.zeros((2, 2))
        model.decoder_w = np.zeros((2, 2))
        assert self._recon(model, np.array([[3.0, 4.0]])) == 12.5

    def test_requires_decoder(self):
        model = _identity_model(2)
        with pytest.raises(ValueError, match="decoder"):
            self._recon(model, np.zeros((1, 2)))


def novelty_loss(model, x) -> float:
    """The novelty of one row, scored alone."""
    return novelty_rows(model, x[None, :])[0]


class TestNoveltyLoss:
    def test_zero_when_model_reproduces_map(self):
        model = _identity_model(3)
        x = np.array([1.0, 2.0, 3.0])  # positive, so forward(x) = x = map(x)
        assert novelty_loss(model, x) == 0.0

    def test_mean_of_squares(self):
        model = _identity_model(2)
        model.b = np.array([1.0, 1.0])
        # forward(0) = [1, 1], map(0) = [0, 0] -> mean of squares = 1
        assert novelty_loss(model, np.zeros(2)) == 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_nonnegative(self, seed):
        model, _ = _random_model(4, 5, seed=3)
        x = stream(seed).standard_normal(4)
        assert novelty_loss(model, x) >= 0.0

    def test_dimension_guard(self):
        mapping = sparse_rp(3, 4, seed=0)
        model = EncoderModel(
            w=np.zeros((2, 3)), b=np.zeros(2), leaky_slope=0.01, random_map=mapping
        )
        with pytest.raises(ValueError, match="out_dim"):
            novelty_loss(model, np.zeros(3))


# 3 rows <= m = k = 4 take the nb x nb form of the pair term, 10 rows the m x m form
_BATCH_ROWS = (3, 10)


class TestBatchObjective:
    """The total grad_batch reports: the pair term plus aux_weight times the
    mean auxiliary loss of the batch rows."""

    def test_zero_weight_reduces_to_pair_loss(self):
        rng = stream(4)
        model, _ = _random_model(3, 5, seed=5)
        config = _config(5, aux_weight=0.0)
        for n in (3, 8):
            X = rng.standard_normal((n, 3))
            total, pair, aux = _losses(model, X, apply(model.random_map, X), config)
            assert aux > 0.0 and total == pair

    def test_single_pair_both_losses_zero(self):
        X = np.array([[1.0, 0.0], [2.0, 0.0]])
        assert _losses(_identity_model(2), X, X, _config(2)) == (0.0, 0.0, 0.0)

    def test_matches_direct_summation(self):
        rng = stream(6)
        model, config = _random_model(3, 4, seed=9)
        for n in _BATCH_ROWS:
            X = rng.standard_normal((n, 3))
            targets = X @ model.random_map.weights.T / np.sqrt(4)  # the Gaussian map by hand
            got = _losses(model, X, targets, config)[0]
            # naive re-summation, separate code path
            H = [forward(model, x) for x in X]
            pair_sum = sum((float(H[a] @ H[b]) - float(targets[a] @ targets[b])) ** 2
                           for a in range(n) for b in range(n))
            aux_sum = sum(float(np.mean((H[a] - targets[a]) ** 2)) for a in range(n))
            expected = pair_sum / n**2 + config.aux_weight * aux_sum / n
            assert got == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_aux_weight(self):
        rng = stream(8)
        model, _ = _random_model(3, 4, seed=2)
        for n in _BATCH_ROWS:
            X = rng.standard_normal((n, 3))
            T = apply(model.random_map, X)
            values = [_losses(model, X, T, _config(4, aux_weight=lam))[0] for lam in (0.0, 0.5, 1.0, 2.0)]
            assert values == sorted(values) and values[0] < values[-1]

    def test_no_loss_enabled(self):
        with pytest.raises(ValueError, match="no loss enabled"):
            config = _config(2, use_pair_loss=False, use_aux_loss=False)
            _losses(_identity_model(2), np.ones((2, 2)), np.ones((2, 2)), config)

    def test_shared_constants_with_grad_batch(self):
        # the values grad_batch reports must be the loop oracle's values
        rng = stream(10)
        for task in ("anomaly", "clustering"):
            model, config = _random_model(4, 4, seed=13, task=task)
            for n in _BATCH_ROWS:
                X = rng.standard_normal((n, 4))
                T = apply(model.random_map, X)
                got = _losses(model, X, T, config)
                np.testing.assert_allclose(got, batch_objective_loop(model, X, T, config), rtol=1e-12)
