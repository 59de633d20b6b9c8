import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randist.anomaly
import randist.forks
from randist.anomaly import (
    BoostConfig,
    boost_train_member,
    build_map,
    ensemble_score,
    fit_ensemble,
    removal_count,
    run_anomaly,
    score_rows,
)
from randist.data import standardize, synth_anomaly
from randist.encoder import EncoderModel, TrainConfig, train
from randist.errors import NumericError
from randist import mappings
from randist.mappings import MAX_BANDWIDTH_POINTS, apply, gaussian_rp, identity_map, rff, sparse_rp
from randist.metrics import auc_pr, auc_roc
from randist.persist import save_ensemble
from randist.rng import child_seed, stream


def _small_cfg(n_rows=None, **overrides):
    args = dict(m=8, epochs=10, task="anomaly", batch_size=16, seed=7)
    args.update(overrides)
    return TrainConfig(**args)


@pytest.fixture(scope="module")
def toy():
    data = synth_anomaly(280, 20, 6, seed=3)
    X = standardize(data)[0].features
    return data, X


class TestAnomalyScore:
    def test_equals_novelty_loss_bit_exact(self, toy):
        _, X = toy
        cfg = _small_cfg()
        mapping = rff(6, 8, data=X, seed=1)
        model, _ = train(X, cfg, mapping)
        for r in range(0, 40, 7):
            x = X[r : r + 1]
            res = model.forward_batch(x, rowwise=True) - apply(mapping, x, rowwise=True)
            assert score_rows(model, x)[0] == np.mean(res * res, axis=1)[0]

    def test_score_rows_matches_scalar_path(self, toy):
        _, X = toy
        cfg = _small_cfg()
        mapping = rff(6, 8, data=X, seed=1)
        model, _ = train(X, cfg, mapping)
        scores = score_rows(model, X[:25])
        for r in range(25):
            assert scores[r] == score_rows(model, X[r : r + 1])[0]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        d=st.integers(min_value=1, max_value=120),
        m=st.integers(min_value=1, max_value=70),
        kind=st.sampled_from(["rff", "sparse_rp", "gaussian_rp", "identity"]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_row_scores_do_not_depend_on_the_batch(self, n, d, m, kind, seed):
        rng = np.random.default_rng(seed)
        mapping = {
            "rff": lambda: rff(d, m, bandwidth=float(rng.uniform(0.5, 3.0)), seed=seed),
            "sparse_rp": lambda: sparse_rp(d, m, seed=seed),
            "gaussian_rp": lambda: gaussian_rp(d, m, seed=seed),
            "identity": lambda: identity_map(d),
        }[kind]()
        m = mapping.out_dim
        model = EncoderModel(
            w=rng.normal(0.0, 1.0 / np.sqrt(d), size=(m, d)),
            b=rng.normal(0.0, 0.1, size=m),
            leaky_slope=0.01,
            random_map=mapping,
        )
        X = rng.standard_normal((n, d))
        s = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        scores = score_rows(model, X)
        np.testing.assert_array_equal(scores[s], score_rows(model, X[s]))
        for r in range(n):
            assert scores[r] == score_rows(model, X[r : r + 1])[0]


class TestRemovalCount:
    def test_examples(self):
        assert removal_count(0.05, 1000) == 50
        assert removal_count(0.05, 950) == 47
        assert removal_count(0.0, 1000) == 0
        assert removal_count(0.01, 10) == 1  # at least one when fraction > 0

    def test_boost_sizes_1000_950_903(self):
        data = synth_anomaly(950, 50, 6, seed=5)
        X = standardize(data)[0].features
        cfg = BoostConfig(
            train=_small_cfg(epochs=2),
            members=1,
            filter_fraction=0.05,
            filter_rounds=2,
        )
        member = boost_train_member(X, cfg, member_seed=11)
        assert member.train_rows == 903


class TestBoostTrainMember:
    def test_zero_fraction_is_plain_train(self, toy):
        _, X = toy
        cfg = BoostConfig(
            train=_small_cfg(), members=1, filter_fraction=0.0, filter_rounds=3
        )
        member = boost_train_member(X, cfg, member_seed=13)
        mapping = rff(6, 8, data=X, seed=child_seed(13, 0))
        plain_cfg = _small_cfg(seed=child_seed(13, 1))
        plain, _ = train(X, plain_cfg, mapping)
        np.testing.assert_array_equal(member.model.w, plain.w)
        np.testing.assert_array_equal(member.model.b, plain.b)
        assert member.train_rows == X.shape[0]

    def test_deterministic_per_seed(self, toy):
        _, X = toy
        cfg = BoostConfig(train=_small_cfg(), members=1, filter_rounds=1)
        a = boost_train_member(X, cfg, member_seed=21)
        b = boost_train_member(X, cfg, member_seed=21)
        np.testing.assert_array_equal(a.model.w, b.model.w)

    def test_filtering_shrinks_training_set(self, toy):
        _, X = toy
        cfg = BoostConfig(train=_small_cfg(), members=1, filter_fraction=0.05, filter_rounds=2)
        member = boost_train_member(X, cfg, member_seed=23)
        n = X.shape[0]
        r1 = n - removal_count(0.05, n)
        assert member.train_rows == r1 - removal_count(0.05, r1) < n

    def test_rows_are_copied_only_once_one_is_dropped(self, toy, monkeypatch):
        # round 0's fit and round 1's filter read the caller's array itself
        _, X = toy
        seen = []
        real_train, real_score = randist.anomaly.train, randist.anomaly.score_rows

        def spy_train(rows, config, mapping):
            seen.append(("train", rows))
            return real_train(rows, config, mapping)

        def spy_score(model, rows):
            seen.append(("score", rows))
            return real_score(model, rows)

        monkeypatch.setattr(randist.anomaly, "train", spy_train)
        monkeypatch.setattr(randist.anomaly, "score_rows", spy_score)
        cfg = BoostConfig(train=_small_cfg(), members=1, filter_fraction=0.05, filter_rounds=1)
        member = boost_train_member(X, cfg, member_seed=25)
        assert [what for what, _ in seen] == ["train", "score", "train"]
        assert seen[0][1] is X and seen[1][1] is X
        assert seen[2][1] is not X and seen[2][1].shape == (member.train_rows, X.shape[1])

    def test_error_when_too_few_rows_left(self):
        data = synth_anomaly(36, 4, 4, seed=9)
        X = standardize(data)[0].features
        cfg = BoostConfig(
            train=_small_cfg(batch_size=16),
            members=1,
            filter_fraction=0.4,
            filter_rounds=1,
        )
        with pytest.raises(ValueError, match="round 1"):
            boost_train_member(X, cfg, member_seed=3)

    def test_smallest_table_at_the_defaults(self, monkeypatch):
        # 404 rows: 5% filtered leaves 384 = 2 x batch_size 192; 403 leaves 383
        config = BoostConfig(train=TrainConfig.anomaly_defaults(epochs=1), members=1)
        assert run_anomaly(synth_anomaly(384, 20, 4, seed=1), config).ensemble.members[0].train_rows == 384
        fits = []
        real_train = randist.anomaly.train
        monkeypatch.setattr(randist.anomaly, "train", lambda *a: fits.append(1) or real_train(*a))
        with pytest.raises(
            ValueError,
            match=r"round 1 would leave 383 rows, need at least 384 \(2 x batch_size\): "
            "set filter_rounds = 0 or a smaller batch_size",
        ):
            run_anomaly(synth_anomaly(383, 20, 4, seed=1), config)
        assert fits == []  # rejected before any member's first fit

    def test_a_table_too_small_to_filter_is_rejected_before_the_bandwidth_and_the_forks(self, monkeypatch):
        config = BoostConfig(train=TrainConfig.anomaly_defaults(epochs=1), members=4)

        def no_call(*args, **kwargs):
            raise AssertionError("ran before the row counts were checked")

        monkeypatch.setattr(randist.anomaly, "process_count", lambda limit: min(limit, 2))
        monkeypatch.setattr(randist.anomaly, "median_bandwidth", no_call)
        monkeypatch.setattr(os, "fork", no_call)
        with pytest.raises(ValueError, match=r"^filtering at round 1 would leave 383 rows, need at least 384 "):
            fit_ensemble(synth_anomaly(383, 20, 4, seed=1).features, config)


class TestEnsemble:
    def test_single_member_reduces_to_boost_train(self, toy):
        _, X = toy
        cfg = BoostConfig(train=_small_cfg(), members=1, filter_rounds=1)
        ens = fit_ensemble(X, cfg)
        member = boost_train_member(X, cfg, member_seed=child_seed(cfg.train.seed, 0))
        np.testing.assert_array_equal(
            ensemble_score(ens, X[:30]), score_rows(member.model, X[:30])
        )

    def test_member_seeds_distinct(self, toy):
        _, X = toy
        cfg = BoostConfig(train=_small_cfg(epochs=2), members=5, filter_rounds=0)
        ens = fit_ensemble(X, cfg)
        assert len({m.seed for m in ens.members}) == 5

    def test_score_is_member_mean_and_order_invariant(self, toy):
        _, X = toy
        cfg = BoostConfig(train=_small_cfg(epochs=3), members=3, filter_rounds=0)
        ens = fit_ensemble(X, cfg)
        per_member = np.stack([score_rows(m.model, X[:20]) for m in ens.members])
        np.testing.assert_allclose(
            ensemble_score(ens, X[:20]), per_member.mean(axis=0), rtol=0, atol=1e-12
        )
        shuffled = type(ens)(members=[ens.members[2], ens.members[0], ens.members[1]])
        np.testing.assert_allclose(
            ensemble_score(shuffled, X[:20]), ensemble_score(ens, X[:20]), atol=1e-12
        )

    def test_duplicating_a_member_shifts_mean_exactly(self, toy):
        _, X = toy
        cfg = BoostConfig(train=_small_cfg(epochs=3), members=2, filter_rounds=0)
        ens = fit_ensemble(X, cfg)
        a = score_rows(ens.members[0].model, X[:15])
        b = score_rows(ens.members[1].model, X[:15])
        duplicated = type(ens)(members=[ens.members[0], ens.members[0], ens.members[1]])
        np.testing.assert_allclose(
            ensemble_score(duplicated, X[:15]), (2 * a + b) / 3.0, atol=1e-12
        )

    @staticmethod
    def _count_bandwidths(monkeypatch) -> list:
        calls = []
        real = mappings.median_bandwidth

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(mappings, "median_bandwidth", counted)  # what rff calls
        monkeypatch.setattr("randist.anomaly.median_bandwidth", counted)
        # a forked child's calls land in its own copy of the list
        monkeypatch.setattr(randist.anomaly, "process_count", lambda limit: 1)
        return calls

    def test_bandwidth_computed_once_up_to_max_points(self, toy, monkeypatch):
        # with no subsample every member's median is the same: the ensemble
        # computes it once, and each member equals the member trained alone
        _, X = toy
        cfg = BoostConfig(train=_small_cfg(epochs=2), members=3, filter_rounds=0)
        calls = self._count_bandwidths(monkeypatch)
        ens = fit_ensemble(X, cfg)
        assert len(calls) == 1
        for member in ens.members:
            alone = boost_train_member(X, cfg, member.seed)
            assert member.model.random_map.bandwidth == alone.model.random_map.bandwidth
            np.testing.assert_array_equal(score_rows(member.model, X), score_rows(alone.model, X))

    def test_each_member_subsamples_above_max_points(self, monkeypatch):
        X = stream(4).standard_normal((MAX_BANDWIDTH_POINTS + 1, 3))
        cfg = BoostConfig(train=_small_cfg(epochs=1), members=2, filter_rounds=0)
        calls = self._count_bandwidths(monkeypatch)
        ens = fit_ensemble(X, cfg)
        assert len(calls) == 2
        first, second = (m.model.random_map for m in ens.members)
        assert first.bandwidth != second.bandwidth


def _processes(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(randist.anomaly, "process_count", lambda limit: min(limit, workers))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _wrap_member(monkeypatch, change):
    """Route every member through change(X, config, seed, real), in the parent and in the children."""
    real = randist.anomaly.boost_train_member
    monkeypatch.setattr(
        randist.anomaly, "boost_train_member",
        lambda X, config, member_seed: change(X, config, member_seed, real),
    )


class TestMemberProcesses:
    """fit_ensemble trains one share of members per process; the result must
    not depend on how many processes there are."""

    FIVE = BoostConfig(train=_small_cfg(epochs=6), members=5)

    def test_processes_are_the_cpus_over_the_blas_threads(self, monkeypatch):
        processes = randist.forks.process_count
        cpus = len(os.sched_getaffinity(0))

        def blas(threads):
            monkeypatch.setattr(randist.forks, "_openblas_num_threads", lambda: lambda: threads)

        blas(cpus)  # OpenBLAS's default: one thread per CPU
        assert processes(30) == 1
        blas(1)
        assert processes(1) == 1 and processes(30) == min(30, cpus)
        blas(2)
        assert processes(30) == max(1, cpus // 2)
        monkeypatch.setattr(randist.forks, "_openblas_num_threads", lambda: None)  # another BLAS
        assert processes(30) == 1
        blas(1)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert processes(30) == 1

    def test_a_share_of_a_job_of_several_holds_one_cpu(self, monkeypatch):
        # so that a member's training starts no lane beside the other shares' processes
        forks = randist.forks
        monkeypatch.setattr(forks, "_openblas_num_threads", lambda: lambda: 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert forks.process_count(2) == 2
        assert forks.run_shares(lambda k: forks.process_count(2), 2, "test") == [1, 1]
        assert forks.run_shares(lambda k: forks.process_count(2), 1, "test") == [2]
        assert forks.process_count(2) == 2
        _assert_no_child_left()

    def test_blas_threads_are_asked_of_the_loaded_library(self):
        # OpenBLAS reads its thread variables when numpy loads it, so a
        # variable set later changes neither its threads nor the processes
        if randist.forks._openblas_num_threads() is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        cpus = len(os.sched_getaffinity(0))
        code = (
            "import os, randist.forks as f; before = f.process_count(30); "
            "os.environ['OPENBLAS_NUM_THREADS'] = '64' if before > 1 else '1'; "
            "print(before, f.process_count(30))"
        )
        src = str(Path(randist.anomaly.__file__).parents[1])
        got = {}
        for threads in ("1", str(cpus)):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True).stdout.split()
            got[threads] = [int(v) for v in out]
        assert got["1"] == [min(30, cpus)] * 2
        assert got[str(cpus)] == [1, 1]

    def test_one_process_forks_nothing(self, toy, monkeypatch):
        _, X = toy

        def no_fork():
            raise AssertionError("forked with one process")

        _processes(monkeypatch, 1)
        monkeypatch.setattr(os, "fork", no_fork)
        assert fit_ensemble(X, self.FIVE).processes == 1

    def test_members_are_bit_identical_at_any_process_count(self, toy, tmp_path, monkeypatch):
        # 2 and 3 processes split 5 members into uneven strided shares
        _, X = toy
        runs = {}
        for workers in (1, 2, 3):
            _processes(monkeypatch, workers)
            ensemble = fit_ensemble(X, self.FIVE)
            _assert_no_child_left()
            assert ensemble.processes == workers
            path = tmp_path / f"{workers}.rdst"
            save_ensemble(path, [m.model for m in ensemble.members])
            runs[workers] = (ensemble, ensemble_score(ensemble, X).tobytes(), path.read_bytes())
        want, want_scores, want_file = runs[1]
        assert [m.seed for m in want.members] == [child_seed(self.FIVE.train.seed, i) for i in range(5)]
        for workers in (2, 3):
            got, scores, file_bytes = runs[workers]
            assert scores == want_scores and file_bytes == want_file
            for a, b in zip(got.members, want.members):
                assert (a.seed, a.train_rows) == (b.seed, b.train_rows)
                assert a.model.w.tobytes() == b.model.w.tobytes()
                assert a.model.b.tobytes() == b.model.b.tobytes()
                ma, mb = a.model.random_map, b.model.random_map
                assert (ma.kind, ma.seed, ma.bandwidth) == (mb.kind, mb.seed, mb.bandwidth)
                assert ma.weights.tobytes() == mb.weights.tobytes()
                assert ma.offsets.tobytes() == mb.offsets.tobytes()
                for name in ("total", "pair", "aux"):
                    assert getattr(a.trace, name).tobytes() == getattr(b.trace, name).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "overrides, error",
        [
            (dict(learning_rate=1e9), NumericError),  # diverges
            (dict(batch_size=150), ValueError),  # the filter guard: 285 of 300 rows left, 300 needed
        ],
    )
    @pytest.mark.parametrize("failing", [0, 1])  # member 0 is the caller's, member 1 a child's
    def test_a_failing_member_raises_the_same_error_at_any_process_count(
        self, toy, monkeypatch, overrides, error, failing
    ):
        _, X = toy
        seed = child_seed(self.FIVE.train.seed, failing)

        def change(X, config, member_seed, real):
            if member_seed == seed:
                config = replace(config, train=replace(config.train, **overrides))
            return real(X, config, member_seed)

        _wrap_member(monkeypatch, change)
        raised = []
        for workers in (1, 2, 3):
            _processes(monkeypatch, workers)
            with pytest.raises(error) as info:
                fit_ensemble(X, self.FIVE)
            _assert_no_child_left()
            raised.append((type(info.value), str(info.value)))
        assert raised[0][0] is error
        assert raised[1] == raised[2] == raised[0]

    # at 2 processes members 0, 2, 4 are the caller's; at 3, members 0 and 3
    @pytest.mark.parametrize("failing", [(1, 2), (2, 3), (1, 4)])
    def test_the_lowest_numbered_failing_member_is_raised(self, toy, monkeypatch, failing):
        _, X = toy
        seeds = {child_seed(self.FIVE.train.seed, i): i for i in failing}

        def change(X, config, member_seed, real):
            if member_seed in seeds:
                raise ValueError(f"member {seeds[member_seed]} failed")
            return real(X, config, member_seed)

        _wrap_member(monkeypatch, change)
        for workers in (1, 2, 3):
            _processes(monkeypatch, workers)
            with pytest.raises(ValueError, match=rf"^member {failing[0]} failed$"):
                fit_ensemble(X, self.FIVE)
            _assert_no_child_left()

    def test_a_failed_fork_leaks_no_pipe_and_restores_the_signal_mask(self, toy, monkeypatch):
        import signal

        _, X = toy

        def no_fork():
            raise OSError("fork failed")

        _processes(monkeypatch, 3)
        fds, mask = os.listdir("/proc/self/fd"), signal.pthread_sigmask(signal.SIG_BLOCK, ())
        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(OSError, match="fork failed"):
            fit_ensemble(X, self.FIVE)
        assert os.listdir("/proc/self/fd") == fds
        assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == mask
        monkeypatch.undo()
        _processes(monkeypatch, 3)
        fit_ensemble(X, self.FIVE)
        assert os.listdir("/proc/self/fd") == fds
        assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == mask
        _assert_no_child_left()

    def test_a_signal_between_the_forks_leaves_no_child(self, toy, monkeypatch):
        # the signal is held until every child is recorded, so all are killed
        import signal

        _, X = toy
        real_fork = os.fork

        def fork_then_signal():
            pid = real_fork()
            if pid:
                os.kill(os.getpid(), signal.SIGUSR1)
            return pid

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        _processes(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", fork_then_signal)
        previous = signal.signal(signal.SIGUSR1, interrupt)
        try:
            with pytest.raises(KeyboardInterrupt):
                fit_ensemble(X, self.FIVE)
        finally:
            signal.signal(signal.SIGUSR1, previous)
        _assert_no_child_left()

    def test_a_child_that_exits_without_a_result_is_named(self, toy, monkeypatch):
        _, X = toy
        parent, seed = os.getpid(), child_seed(self.FIVE.train.seed, 2)

        def change(X, config, member_seed, real):
            if member_seed == seed and os.getpid() != parent:
                os._exit(7)
            return real(X, config, member_seed)

        _wrap_member(monkeypatch, change)
        _processes(monkeypatch, 3)  # member 2 is the first of worker 2's share
        with pytest.raises(RuntimeError, match=r"worker 2 \(pid \d+\) exited without a result \(exit status 7\)"):
            fit_ensemble(X, self.FIVE)
        _assert_no_child_left()

    @pytest.mark.parametrize("stop", [ValueError("own share"), KeyboardInterrupt(), SystemExit(143)])
    def test_children_are_killed_when_the_callers_share_stops(self, toy, monkeypatch, stop):
        _, X = toy
        parent = os.getpid()

        def change(X, config, member_seed, real):
            if os.getpid() != parent:
                time.sleep(60)  # killed long before this ends
            raise stop

        _wrap_member(monkeypatch, change)
        _processes(monkeypatch, 3)
        start = time.monotonic()
        with pytest.raises(type(stop)):
            fit_ensemble(X, self.FIVE)
        assert time.monotonic() - start < 30
        _assert_no_child_left()


class TestRunAnomaly:
    def test_detects_shell_anomalies(self, toy):
        data, _ = toy
        cfg = BoostConfig(train=_small_cfg(epochs=30), members=2)
        result = run_anomaly(data, cfg)
        assert result.auc_roc is not None and result.auc_roc >= 0.9
        s = result.scores
        assert s[data.labels == 1].mean() > s[data.labels == 0].mean()

    def test_no_boosting_keeps_full_training_set(self, toy):
        data, _ = toy
        cfg = BoostConfig(train=_small_cfg(epochs=2), members=1, filter_rounds=2)
        result = run_anomaly(data, cfg, ablation="no_boosting")
        assert result.ensemble.members[0].train_rows == data.n

    def test_identity_source_forces_k_to_d(self, toy):
        # raw-dot targets are large, so this source wants the wide batches
        data, _ = toy
        cfg = BoostConfig(
            train=_small_cfg(epochs=5, batch_size=96), members=1, filter_rounds=0, source="identity"
        )
        result = run_anomaly(data, cfg)
        member = result.ensemble.members[0]
        assert member.model.random_map.kind == "identity"
        assert member.model.m == data.d == member.model.random_map.out_dim
        # a member trains at its map's width whatever m the config gives
        assert cfg.train.m != data.d
        member = boost_train_member(standardize(data)[0].features, cfg, member_seed=3)
        assert member.model.m == data.d == member.model.random_map.out_dim

    def test_srp_source(self, toy):
        data, _ = toy
        cfg = BoostConfig(
            train=_small_cfg(epochs=5, batch_size=96), members=1, filter_rounds=0, source="srp"
        )
        result = run_anomaly(data, cfg)
        assert result.ensemble.members[0].model.random_map.kind == "sparse_rp"
        assert result.auc_roc is not None

    def test_scores_without_labels(self, toy):
        data, _ = toy
        unlabeled = type(data)(features=data.features.copy())
        cfg = BoostConfig(train=_small_cfg(epochs=2), members=1, filter_rounds=0)
        result = run_anomaly(unlabeled, cfg)
        assert result.auc_roc is None and result.auc_pr is None
        assert result.scores.shape == (data.n,)

    def test_ablation_cannot_remove_only_loss(self, toy):
        data, _ = toy
        cfg = BoostConfig(
            train=_small_cfg(epochs=2, use_aux_loss=False), members=1, filter_rounds=0
        )
        with pytest.raises(ValueError, match="no loss enabled"):
            run_anomaly(data, cfg, ablation="no_pair_loss")

    def test_unknown_ablation(self, toy):
        data, _ = toy
        with pytest.raises(ValueError, match="ablation"):
            run_anomaly(data, ablation="bogus")

    def test_scale_invariance_of_metrics(self, toy):
        data, _ = toy
        cfg = BoostConfig(train=_small_cfg(epochs=10), members=1, filter_rounds=0)
        result = run_anomaly(data, cfg)
        scaled = 7.3 * result.scores
        assert auc_roc(scaled, data.labels) == result.auc_roc
        assert auc_pr(scaled, data.labels) == result.auc_pr

    def test_deterministic_repeat(self, toy):
        data, _ = toy
        cfg = BoostConfig(train=_small_cfg(epochs=5), members=2)
        r1 = run_anomaly(data, cfg)
        r2 = run_anomaly(data, cfg)
        np.testing.assert_array_equal(r1.scores, r2.scores)
        assert r1.auc_roc == r2.auc_roc


class TestBoostConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(members=0),
            dict(filter_fraction=0.5),
            dict(filter_fraction=-0.1),
            dict(filter_rounds=-1),
            dict(source="bogus"),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            BoostConfig(train=_small_cfg(), **kw)

    def test_requires_anomaly_task(self):
        clu = TrainConfig(m=4, epochs=1, task="clustering", batch_size=2)
        with pytest.raises(ValueError, match="anomaly"):
            BoostConfig(train=clu)


class TestBuildMap:
    def test_each_source_is_its_constructor(self):
        X = np.random.default_rng(0).standard_normal((20, 4))
        got = build_map("rff", 6, X, 3)
        want = rff(4, 6, data=X, seed=3)
        assert got.bandwidth == want.bandwidth
        np.testing.assert_array_equal(got.weights, want.weights)
        np.testing.assert_array_equal(got.offsets, want.offsets)
        assert build_map("rff", 6, X, 3, bandwidth=2.0).bandwidth == 2.0
        got = build_map("srp", 6, X, 3)
        np.testing.assert_array_equal(got.weights, sparse_rp(4, 6, seed=3).weights)
        assert build_map("identity", 6, X, 3) == identity_map(4)  # k is the data width

    def test_unknown_source(self):
        with pytest.raises(ValueError, match="source must be one of"):
            build_map("bogus", 6, np.zeros((3, 4)), 0)
