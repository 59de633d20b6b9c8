"""The trainable representation: one affine layer plus leaky-ReLU, an
optional linear decoder, the one gradient kernel and the SGD training loop.

Each SGD step regresses the full batch Gram: every ordered pair inside the
shuffled batch, self-pairs included, so each embedding norm is anchored to
its supervisory value. Subsampling pairs leaves the norms under-determined
and makes the near-convergence gradient noisy enough to escape at the
fixed learning rate. `grad_batch` is the only gradient code: dense products
over one batch, exact for that objective. The mapped training rows are
computed once per call to `train`; the pair targets and the novelty term
both read them. The pair term takes the exact form that is cheaper at the
batch's shape: the nb x nb Gram residual when m or k >= nb, the m x m
feature Grams otherwise. With the pair loss on and n rows <= k mapping
width, `train` forms the n x n target Gram once and each nb x nb step reads
its block, gathering mapped rows only for the novelty term; n <= k bounds
that Gram by the n x k mapped rows it is made from (8n^2 bytes, 8 MB at
n = 1000).

Once H is formed, a step's pair term (HH^T - TT^T, then R @ H) and its
auxiliary term (the novelty difference, or the decoder products) are
independent. A lane (one helper thread, which `run_clustering` opens for
its whole call) can run the second of each pair of blocks. `train` uses
the caller's lane and opens none; without one every block runs in turn.
With the n x n target Gram, the lane maps the second of the rows' two
blocks (`forks.halves`) and forms the Gram's block [c, n)^2
(`mappings.gram_product`). A step of the nb x nb form that has a second
branch runs it on the lane: the lane gathers the batch's Gram block while
the caller forms H, runs the auxiliary term while the caller forms R,
then the second of the two column blocks that R @ H and the tail take,
beside the first; BLAS products and large array loops release the
interpreter lock. All blocks follow from shapes and config, so a lane
changes no bit of the result, only the time. The feature-Gram form
(m and k < nb) is too cheap for the handover, so its steps never use one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericError
from .forks import halves
from .mappings import RandomMap, apply, gram_product, row_products
from .rng import child_seed, stream

TASKS = ("anomaly", "clustering")
LEAKY_SLOPE = 0.01  # the encoder's activation; model files store it per model


@dataclass
class TrainConfig:
    m: int
    epochs: int
    task: str = "anomaly"
    batch_size: int = 192
    learning_rate: float = 0.1
    use_pair_loss: bool = True
    use_aux_loss: bool = True
    aux_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        problems = []
        if self.m < 1:
            problems.append(f"m must be >= 1, got {self.m}")
        if self.epochs < 1:
            problems.append(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            problems.append(f"batch_size must be >= 2, got {self.batch_size}")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            problems.append(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not (self.aux_weight >= 0 and math.isfinite(self.aux_weight)):
            problems.append(f"aux_weight must be >= 0 and finite, got {self.aux_weight}")
        if self.task not in TASKS:
            problems.append(f"task must be one of {TASKS}, got {self.task!r}")
        if self.seed < 0:
            problems.append(f"seed must be non-negative, got {self.seed}")
        if not (self.use_pair_loss or self.use_aux_loss):
            problems.append("no loss enabled: use_pair_loss and use_aux_loss are both off")
        if problems:
            raise ValueError("; ".join(problems))

    @classmethod
    def anomaly_defaults(cls, **overrides) -> "TrainConfig":
        args = dict(m=50, epochs=200, task="anomaly")
        args.update(overrides)
        return cls(**args)

    @classmethod
    def clustering_defaults(cls, **overrides) -> "TrainConfig":
        args = dict(m=1024, epochs=1000, task="clustering")
        args.update(overrides)
        return cls(**args)


@dataclass
class EncoderModel:
    w: np.ndarray  # M x D
    b: np.ndarray  # M
    leaky_slope: float
    random_map: RandomMap
    decoder_w: Optional[np.ndarray] = None  # D x M, present iff reconstruction loss
    decoder_b: Optional[np.ndarray] = None  # D

    @property
    def m(self) -> int:
        return self.w.shape[0]

    @property
    def d(self) -> int:
        return self.w.shape[1]

    @property
    def has_decoder(self) -> bool:
        return self.decoder_w is not None

    def forward_batch(self, X: np.ndarray, rowwise: bool = False, lane=None) -> np.ndarray:
        """Embed the rows of X; rowwise=True makes each row independent of the others.
        Otherwise the rows go in two blocks (`forks.halves`), the second on the
        lane when one is given, into arrays allocated here."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"expected an N x {self.d} matrix, got shape {X.shape}")
        if rowwise:
            return _leaky(row_products(X, self.w) + self.b, self.leaky_slope)[0]
        H, S = np.empty((X.shape[0], self.m)), np.empty((X.shape[0], self.m))

        def rows(a, b):
            z = np.matmul(X[a:b], self.w.T, out=H[a:b])
            z += self.b
            _leaky(z, self.leaky_slope, S[a:b])

        halves(lane, rows, X.shape[0])
        return H


@dataclass
class LossTrace:
    total: np.ndarray
    pair: np.ndarray
    aux: np.ndarray
    lanes: int = 1  # the threads that ran the steps: 2 when a lane ran beside the caller


@dataclass
class Gradients:
    dw: np.ndarray
    db: np.ndarray
    ddecoder_w: Optional[np.ndarray] = None
    ddecoder_b: Optional[np.ndarray] = None


def _leaky(Z: np.ndarray, slope: float, S: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    # leaky ReLU H = Z * S and its derivative S, branch-free; for slope in [0, 1]
    # (1 - slope) + slope == 1, so H is np.where(Z > 0, Z, slope * Z) bit for bit.
    # Z is overwritten with H: every caller passes a fresh pre-activation. S, when
    # given, receives the derivative, so nothing of Z's size is allocated here.
    S = (Z > 0.0) * (1.0 - slope) if S is None else np.multiply(np.greater(Z, 0.0, out=S), 1.0 - slope, out=S)
    S += slope
    Z *= S
    return Z, S


def init_model(config: TrainConfig, random_map: RandomMap, seed: int) -> EncoderModel:
    """Fresh parameters for the map's d = in_dim inputs and config.m outputs:
    W ~ N(0, 1/(d*m)), b = 0; decoder ~ N(0, 1/m).

    The 1/m factor keeps the initial embedded dot products O(1) whatever
    the representation width; without it the squared-dot-product loss can
    run away at the fixed 0.1 learning rate on standardized data.
    """
    d, m = random_map.in_dim, config.m
    if config.use_aux_loss and config.task == "anomaly" and m != random_map.out_dim:
        raise ValueError(
            f"novelty loss needs m == mapping out_dim, got m={m}, out_dim={random_map.out_dim}"
        )
    rng = stream(seed)
    w = rng.normal(0.0, math.sqrt(1.0 / (d * m)), size=(m, d))
    b = np.zeros(m)
    decoder_w = decoder_b = None
    if config.use_aux_loss and config.task == "clustering":
        decoder_w = rng.normal(0.0, math.sqrt(1.0 / m), size=(d, m))
        decoder_b = np.zeros(d)
    return EncoderModel(
        w=w,
        b=b,
        leaky_slope=LEAKY_SLOPE,
        random_map=random_map,
        decoder_w=decoder_w,
        decoder_b=decoder_b,
    )


def grad_batch(
    model: EncoderModel,
    Xb: np.ndarray,
    targets_b: Optional[np.ndarray],
    config: TrainConfig,
    gram_b=None,
    lane=None,
) -> tuple[Gradients, tuple[float, float, float]]:
    """Exact gradients of one batch's objective, plus its (total, pair, aux) losses.

    The objective is the pair loss, the mean over all nb^2 ordered pairs of
    the batch rows Xb (self-pairs included) of (h_i.h_j - t_i.t_j)^2, plus
    aux_weight times the mean auxiliary loss of the rows. targets_b (T, the
    mapped rows) feeds the novelty term and, unless gram_b (TT^T) is given,
    the pair term; it may be None when neither reads it. With gram_b, or with
    m or k >= nb, the pair term uses the nb x nb residual R; otherwise
    ||HH^T - TT^T||^2 = ||H^TH||^2 - 2||T^TH||^2 + ||T^TT||^2 and
    R @ H = H(H^TH) - T(T^TH). The leaky-ReLU subgradient at exactly 0 uses
    the negative-side slope.

    With a lane (an executor of one thread, from `train`) the auxiliary term
    and the second of the residual form's two tail blocks run on it; without
    one all run here, with the same bits (the blocks may differ from one
    nb x m product within rtol 1e-12). gram_b may also be a future of the block.

    Each loss value is one BLAS dot of its term with itself (np.vdot), with no
    squared temporary. The losses feed no gradient. OpenBLAS splits a dot of
    more than 10,000 entries across its threads, so such a loss value may
    differ in its last bits between BLAS thread counts; at one thread count it
    repeats bit for bit, and the gradients never depend on it.
    """
    nb = Xb.shape[0]
    Z = Xb @ model.w.T
    Z += model.b
    H, S = _leaky(Z, model.leaky_slope)
    aux = None
    if config.use_aux_loss and lane is not None:
        aux = lane.submit(_aux_term, model, H, Xb, targets_b, config)

    # the feature-Gram form's pair term is formed here; the residual form's R @ H and tail run in
    # column blocks [0, c) and [c, m), c = floor(m / 2) rounded down to a multiple of 8, except
    # in a short batch of a run whose full batches take the feature form (no Gram, m and k < B)
    dH, R, c = None, None, 0
    loss_pair = 0.0
    if config.use_pair_loss:
        T = targets_b
        if gram_b is None and max(model.m, T.shape[1]) < nb:
            HtH, TtH, TtT = H.T @ H, T.T @ H, T.T @ T
            loss_pair = float(np.vdot(HtH, HtH) - 2.0 * np.vdot(TtH, TtH) + np.vdot(TtT, TtT))
            loss_pair /= nb * nb
            dH = H @ HtH
            dH -= T @ TtH
            dH *= 4.0 / (nb * nb)
        else:
            R = H @ H.T
            if gram_b is None:
                R -= T @ T.T
            else:
                R -= gram_b if isinstance(gram_b, np.ndarray) else gram_b.result()
            loss_pair = float(np.vdot(R, R)) / R.size
            c = model.m // 16 * 8 if gram_b is not None or max(model.m, T.shape[1]) >= config.batch_size else 0
    if config.use_aux_loss and aux is None:
        aux = _aux_term(model, H, Xb, targets_b, config)
    if not config.use_pair_loss:  # the auxiliary term is dH, and the tail adds none
        dH = (aux if isinstance(aux, tuple) else aux.result())[1]
    add = aux if config.use_pair_loss else None

    if not c:  # one block, whose dw and db are fresh products
        dw, db = _tail(slice(None), dH, R, H, add, S, Xb)
    else:  # both blocks' outputs are allocated here, not on the lane, which runs the second
        dw, db = np.empty_like(model.w), np.empty_like(model.b)
        first, second = [(slice(a, b), np.empty((nb, b - a))) for a, b in ((0, c), (c, model.m))]
        rest = lane.submit(_tail, *second, R, H, add, S, Xb, dw, db) if lane is not None else None
        _tail(*first, R, H, add, S, Xb, dw, db)
        _tail(*second, R, H, add, S, Xb, dw, db) if rest is None else rest.result()
    aux = aux if aux is None or isinstance(aux, tuple) else aux.result()
    loss_aux, _, ddec_w, ddec_b = aux or (0.0, None, None, None)

    total = loss_pair + config.aux_weight * loss_aux  # a disabled loss is 0.0 and the weight is finite
    if not math.isfinite(total):
        raise NumericError(f"non-finite batch loss {total}")
    grads = Gradients(dw=dw, db=db, ddecoder_w=ddec_w, ddecoder_b=ddec_b)
    return grads, (total, loss_pair, loss_aux)


def _tail(cols: slice, dH, R, H, aux, S, Xb, dw=None, db=None):
    """Columns `cols` of dZ = (R @ H * 4/nb^2 if R else dH, + aux's term) * S, in dH when given,
    then of dw and db: into dw and db when given, else returned fresh. aux is _aux_term's result,
    its future or None. A block's dH is its own array: strided in-place loops are ~3x slower."""
    if R is not None:
        dH = np.matmul(R, H[:, cols], out=dH)
        dH *= 4.0 / R.size
    if aux is not None:
        dH += (aux if isinstance(aux, tuple) else aux.result())[1][:, cols]
    dH *= S[:, cols]
    if dw is None:
        return dH.T @ Xb, dH.sum(axis=0)
    np.matmul(dH.T, Xb, out=dw[cols])
    dH.sum(axis=0, out=db[cols])


def _aux_term(model: EncoderModel, H: np.ndarray, Xb: np.ndarray, targets_b, config: TrainConfig) -> tuple:
    """A batch's auxiliary loss, its term of dH and the decoder's gradients
    (None for the novelty loss): the branch of `grad_batch` a lane can run."""
    nb = Xb.shape[0]
    lam = config.aux_weight
    if config.task == "anomaly":
        term = H - targets_b
        loss_aux = float(np.vdot(term, term)) / term.size
        term *= 2.0 * lam / (model.m * nb)
        return loss_aux, term, None, None
    if not model.has_decoder:
        raise ValueError("reconstruction loss needs a model with a decoder")
    res = H @ model.decoder_w.T
    res += model.decoder_b
    res -= Xb
    loss_aux = float(np.vdot(res, res)) / res.size
    scale = 2.0 * lam / (model.d * nb)
    ddec_w = res.T @ H
    ddec_w *= scale
    ddec_b = res.sum(axis=0)
    ddec_b *= scale
    term = res @ model.decoder_w
    term *= scale
    return loss_aux, term, ddec_w, ddec_b


def _block(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """a[np.ix_(idx, idx)], bit for bit, as two plain gathers, which take less time."""
    return a[idx][:, idx]


def train(
    X: np.ndarray, config: TrainConfig, random_map: RandomMap, lane=None
) -> tuple[EncoderModel, LossTrace]:
    """Plain SGD over within-batch pair products; returns model and loss trace.

    Deterministic in (X, config, random_map): the shuffle and the
    initialization both derive from config.seed. A trailing shuffled batch
    of a single row is dropped (it cannot be paired). lane is the caller's
    (see the module docstring); without one every block runs in turn here.
    """
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {X.shape}")
    n, d = X.shape
    if n < 2:
        raise ValueError(f"need at least 2 rows to form pairs, got {n}")
    if d != random_map.in_dim:
        raise ValueError(f"data has {d} columns, mapping expects {random_map.in_dim}")

    model = init_model(config, random_map, seed=child_seed(config.seed, 0))
    novelty = config.use_aux_loss and config.task == "anomaly"
    k = random_map.out_dim
    use_gram = config.use_pair_loss and n <= k
    shuffle_rng = stream(child_seed(config.seed, 1))
    # steps of the nb x nb form with a second branch (the gather or the aux term) use a lane
    residual = use_gram or (config.use_pair_loss and max(config.m, k) >= min(config.batch_size, n))
    laned = residual and (use_gram or config.use_aux_loss)

    lr = config.learning_rate
    gram = None
    if use_gram:  # the rows in two blocks, then their Gram, each with a block on the lane
        targets = np.empty((n, k))
        halves(lane, lambda a, b: apply(random_map, X[a:b], out=targets[a:b]), n)
        gram = gram_product(targets, lane)
    else:
        targets = apply(random_map, X) if config.use_pair_loss or novelty else None
    # with the pair term served by the Gram, only the novelty term reads the rows
    batch_targets = targets if gram is None or novelty else None
    lane = lane if laned else None
    trace = LossTrace(
        total=np.zeros(config.epochs), pair=np.zeros(config.epochs), aux=np.zeros(config.epochs),
        lanes=1 if lane is None else 2,
    )
    for epoch in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        total = pair = aux = 0.0  # Python floats: the same IEEE sums as an array, cheaper per step
        batches = 0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            if idx.size < 2:
                continue
            gram_b = None
            if gram is not None:
                gram_b = _block(gram, idx) if lane is None else lane.submit(_block, gram, idx)
            targets_b = None if batch_targets is None else batch_targets[idx]
            try:
                grads, (loss_total, loss_pair, loss_aux) = grad_batch(
                    model, X[idx], targets_b, config, gram_b, lane
                )
            except NumericError as err:
                raise NumericError(f"training diverged at epoch {epoch}: {err}") from err
            model.w -= lr * grads.dw
            model.b -= lr * grads.db
            if grads.ddecoder_w is not None:
                model.decoder_w -= lr * grads.ddecoder_w
                model.decoder_b -= lr * grads.ddecoder_b
            total += loss_total
            pair += loss_pair
            aux += loss_aux
            batches += 1
        means = (total / batches, pair / batches, aux / batches)
        if not all(map(math.isfinite, means)):
            raise NumericError(f"training diverged at epoch {epoch}: mean loss {means[0]}")
        trace.total[epoch], trace.pair[epoch], trace.aux[epoch] = means
    return model, trace
