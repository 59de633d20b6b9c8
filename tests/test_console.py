"""The checks that need a process of their own: OpenBLAS reads its thread
variables once, when numpy loads it, so the real process and lane counts, a
one-CPU affinity and byte identity across BLAS thread counts are seen only in
a child. Each case runs `python -m randist.cli` at OpenBLAS's default threads
(one per CPU: no split), at one thread (a process or lane per CPU) and at one
thread on one CPU (no split), and the three must write the same bytes."""
import os
import subprocess
import sys

import pytest

import randist.forks
from randist.data import synth_anomaly, synth_blobs, write_csv
from randist.report import parse_report

from conftest import child_env

RUNS = ("default", "one thread", "one cpu")
CLUSTER = ["cluster", "--batch-size", "16", "--epochs", "3", "--restarts", "3"]
CASES = {  # name: (table, argv, the report key that counts the split)
    "members": (lambda: synth_anomaly(950, 50, 16), ["anomaly", "--members", "2", "--epochs", "5", "--seed", "3"],
                "timing.member_processes"),
    # 2.5 MB, over twice the CSV parse's share floor
    "csv shares": (lambda: synth_anomaly(1900, 100, 64), ["anomaly", "--members", "2", "--epochs", "2", "--seed", "3"],
                   "timing.load_processes"),
    # m >= the batch: each step's decoder branch and second tail block run on
    # the lane; m = 16 splits the tail into column blocks 8 | 8, m = 20 into 8 | 12
    "lanes m=16": (lambda: synth_blobs(4, 100, 8), [*CLUSTER, "--m", "16"], "timing.train_lanes"),
    "lanes m=20": (lambda: synth_blobs(4, 100, 8), [*CLUSTER, "--m", "20"], "timing.train_lanes"),
    # n = 200 <= m: the target Gram and both K-means Grams are formed, in blocks
    # with one on the lane; so are the targets, the embedding and Lloyd's products
    "grams m=1024": (lambda: synth_blobs(4, 50, 8), [*CLUSTER, "--m", "1024"], "timing.train_lanes"),
}
LANES = [case for case in CASES if case.startswith(("lanes", "grams"))]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(report, scores or assignments bytes, model bytes) of each case and run."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("the platform cannot set a process's CPUs")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("fewer than 2 CPUs: nothing is split at one BLAS thread")
    if randist.forks._openblas_num_threads() is None:
        pytest.skip("numpy is not linked against OpenBLAS: nothing is split")
    cpu = min(os.sched_getaffinity(0))
    tmp = tmp_path_factory.mktemp("console")
    got = {}
    for name, (table, argv, _) in CASES.items():
        write_csv(table(), tmp / f"{name}.csv")
        for run in RUNS:
            out, model = tmp / f"{name}.{run}.csv", tmp / f"{name}.{run}.rdst"
            flag = "--out-scores" if argv[0] == "anomaly" else "--out-assignments"
            done = subprocess.run(
                [sys.executable, "-m", "randist.cli", *argv, "--input", f"{name}.csv", "--label-column", "label",
                 flag, str(out), "--out-model", str(model)],
                cwd=tmp, env=child_env(None if run == "default" else 1), capture_output=True, text=True,
                timeout=120, preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if run == "one cpu" else None,
            )
            assert done.returncode == 0, done.stderr
            got[name, run] = (parse_report(done.stdout), out.read_bytes(), model.read_bytes())
    return got


@pytest.mark.parametrize("case", CASES)
def test_the_work_is_split_only_at_one_blas_thread_on_several_cpus(runs, case):
    key = CASES[case][2]
    assert runs[case, "default"][0][key] == "1"
    assert int(runs[case, "one thread"][0][key]) >= 2
    assert runs[case, "one cpu"][0][key] == "1"


@pytest.mark.parametrize("case", CASES)
def test_outputs_are_byte_identical_however_the_work_is_split(runs, case):
    default, threaded, alone = (runs[case, run] for run in RUNS)
    assert threaded[1] == default[1]
    assert alone[1] == threaded[1]
    assert threaded[2] == default[2]
    assert alone[2] == threaded[2]


@pytest.mark.parametrize("case", LANES)
def test_the_frozen_baseline_does_not_change_with_the_lane(runs, case):
    default, threaded, alone = ({k: v for k, v in runs[case, run][0].items() if k.startswith("baseline.frozen.")}
                                for run in RUNS)
    assert len(default) == 4
    assert threaded == default
    assert alone == threaded
