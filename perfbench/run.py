"""randist benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload anomaly-paper --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
The inputs are made from --seed before anything is timed. Set-up time is
sampled in several fresh processes; one more process then runs pipeline
calls back to back (a closed loop, one caller, the program's defaults but
for one BLAS thread) for --seconds and checks every output. Times are
scaled by a reference kernel timed between the calls (reference.py). The
last line of stdout is a JSON object with the end-to-end metrics
(--trace 0) or the per-layer metrics of a traced run (--trace 1). See
perfbench/README.md for what each number means.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 8  # fresh processes sampled for setup_s, besides the measured one
DEADLINE_S = 170.0  # the whole run, inputs and checks included

# One BLAS thread, set before numpy loads here and inherited by every worker.
# With the default of one thread per core, each matrix product waits for a
# thread that anything else on the machine can delay: on 2 cores a process
# using half of one core made cli-anomaly-wide 37% slower at 2 threads and
# left it unchanged at 1, and the two are as fast on a quiet machine.
os.environ.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
sys.path.insert(0, HERE)
from reference import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "run_s.p50": "s",
    "run_s.tail": "s",
    "row_epochs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "quality": "score",
    "quality_2": "score",
}


class RunError(Exception):
    pass


def _exit_on_sigterm(signum, frame):
    # unwinds through the finally blocks that stop the worker and remove the inputs
    raise SystemExit(128 + signum)


def _start_worker(args, workdir, deadline, result=None, probe=False):
    """Run a worker to its end; return the seconds it took to print `ready`."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir,
    ]
    cmd += ["--probe"] if probe else ["--result", result]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RunError(f"worker {'probe ' if probe else ''}failed (exit code {code})")
    return ready


def tail(times: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, and that percentile.

    Below 21 samples no percentile above the median has ten beyond it; the
    median is reported then.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, setup: list, res: dict) -> tuple:
    """The end-to-end metrics, times scaled to the reference speed.

    An operation's time is scaled by the mean of the reference runs just
    before and after it, and set-up time by the median of all of them.
    """
    times = [s * 2.0 * REFERENCE_S / (before + after) for _, _, s, before, after in res["ops"]]
    host = statistics.median(res["reference_s"])
    p50 = statistics.median(times)
    tail_s, tail_pct = tail(times)
    primary, secondary = workload.quality_names
    quality = [q["quality"] for q in res["variants"].values()]
    values = {
        "setup_s": statistics.median(setup) * REFERENCE_S / host,
        "run_s.p50": p50,
        "run_s.tail": tail_s,
        "row_epochs_per_s": res["row_epochs"] / p50,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "quality": statistics.fmean(q[primary] for q in quality),
        "quality_2": statistics.fmean(q[secondary] for q in quality),
    }
    summary = {
        "samples": len(times),
        "raw_p50": statistics.median(s for _, _, s, _, _ in res["ops"]),
        "reference_p50": host,
        "tail_percentile": tail_pct,
        primary: values["quality"],
        secondary: values["quality_2"],
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, summary


def _print_report(args, workload, setup, res, metrics, summary):
    env = res["env"]
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed = {args.seed}  seconds = {args.seconds}  trace = {args.trace}")
    print("environment: " + "  ".join(f"{k} = {v}" for k, v in env.items()))
    print(f"setup samples (s): {' '.join(f'{s:.4f}' for s in setup)}")
    print(f"operations: {len(res['ops'])} timed of {res['attempted']} attempted, "
          f"{res['failed']} failed (failed_frac = {res['failed'] / max(1, res['attempted'])})")
    if summary:
        print(f"run_s.tail is p{summary['tail_percentile']:.1f} of {summary['samples']} samples")
        print(f"unscaled: run_s.p50 = {summary['raw_p50']!r} s; reference kernel median "
              f"{summary['reference_p50']!r} s against {REFERENCE_S} s, which scales set-up by "
              f"{REFERENCE_S / summary['reference_p50']:.4f}")
        for name in workload.quality_names:
            print(f"{name} = {summary[name]!r} (mean over {len(res['variants'])} variants)")
    for v, rec in res["variants"].items():
        print(f"variant {v}: digest {rec['digest']}  " +
              "  ".join(f"{k} = {q!r}" for k, q in rec["quality"].items()))
    for name, value in res["notes"].items():
        print(f"{name} = {value!r} (on the same table, for comparison)")
    for name in res.get("absent", ()):
        print(f"span {name}: absent (no wrap target exists)")
    for name, m in metrics.items():
        value = "absent" if m["value"] is None else repr(m["value"])
        print(f"{name} = {value} {m['unit']}")
    for problem in res["problems"]:
        print(f"CHECK FAILED: {problem}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, _exit_on_sigterm)

    if not os.path.isfile(os.path.join(ROOT, "src", "randist", "__init__.py")):
        print(f"perfbench: no program to measure: {ROOT}/src/randist is missing", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir)
    try:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import randist

        workload.generate(randist, args.seed, workdir)
        # half the probes run before the measured process and half after it,
        # so the median spans the whole run rather than one moment of it
        setup = [_start_worker(args, workdir, deadline, probe=True) for _ in range(SETUP_PROBES // 2)]
        result_path = os.path.join(workdir, "result.json")
        setup.append(_start_worker(args, workdir, deadline, result=result_path))
        setup += [_start_worker(args, workdir, deadline, probe=True) for _ in range(SETUP_PROBES // 2)]
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
        os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
        if args.trace:
            os.replace(os.path.join(workdir, "spans.jsonl"),
                       os.path.join(WORK, "results", f"spans-{args.workload}.jsonl"))
    except RunError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not res["ops"]:
        print(f"perfbench: all {res['attempted']} operations failed; nothing to report", file=sys.stderr)
        return 1
    if args.trace:
        metrics, summary = res["layers"], None
    else:
        metrics, summary = end_to_end(workload, setup, res)
    correct = not res["problems"] and res["failed"] == 0
    _print_report(args, workload, setup, res, metrics, summary)
    digest = hashlib.sha256(
        "".join(rec["digest"] for rec in res["variants"].values()).encode()
    ).hexdigest()
    print(f"determinism digest (all variants) = {digest}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_s": setup, "digest": digest, **res, "metrics": metrics}
    with open(os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": max(1, res["attempted"]),
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
