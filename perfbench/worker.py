"""One benchmark process: import the program, load the inputs, run operations.

Started by run.py, never by hand. It prints `ready` on stdout at the moment
it could start its first timed operation (the end of set-up), then runs
operations back to back for the requested time, with a run of the
reference kernel (reference.py) before the first and after each one, and
writes what it measured to the result file. With --probe it exits at
`ready`, which is how run.py samples set-up time in several fresh
processes.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LOOP_LIMIT_S = 140.0  # a run never measures longer, whatever its variants need
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import randist

    where = os.path.dirname(os.path.abspath(randist.__file__))
    if where != os.path.join(ROOT, "src", "randist"):
        raise ImportError(f"randist was imported from {where}, not from this checkout")
    return randist


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(rd) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas.name": blas.get("name", "unknown"),
        "blas.version": blas.get("version", "unknown"),
        "blas.threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "randist": rd.__version__,
        "git_commit": _git_commit(),
    }


def _check(workload, v, result, first, problems):
    """Output checks, made outside the timed interval."""
    outcome = workload.outcome(v, result)
    values = outcome.values
    n = workload.state["n"]
    if values.shape != (n,):
        problems.append(f"variant {v}: expected {n} values, got shape {values.shape}")
    elif values.dtype.kind == "f" and not np.all(np.isfinite(values)):
        problems.append(f"variant {v}: non-finite outputs")
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    if v not in first:
        first[v] = {"digest": digest, "quality": outcome.quality}
    elif first[v]["digest"] != digest:
        problems.append(f"variant {v}: output digest changed between repeats in one run")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result")
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    rd = _import_program()
    from reference import timed_reference
    from tracing import ROOT as ROOT_SPAN, Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.prepare(rd, args.seed, args.workdir)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.probe:
        return 0

    tracer = Tracer() if args.trace else None
    # (variant, traced, seconds, reference seconds before, after); traced is None for the warm-up
    ops = []
    reference_s = [timed_reference()]  # one before the first operation and one after each
    first = {}  # variant -> digest and quality of its first run
    problems, failed, attempted = [], 0, 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = len(ops) >= 3 if tracer else len(first) == workload.variants or failed > 0
        if (elapsed >= args.seconds and enough) or elapsed >= LOOP_LIMIT_S:
            break
        i = attempted
        # a traced run warms up once, then alternates untraced and traced
        # operations, all on variant 0
        v = 0 if tracer else i % workload.variants
        traced = None if tracer and i == 0 else (tracer is not None and i % 2 == 0)
        attempted += 1
        try:
            if traced:
                tracer.run_id = i
                tracer.install()
                try:
                    t0 = time.perf_counter()
                    result = tracer.record(ROOT_SPAN, workload.run, args=(v,))
                    t1 = time.perf_counter()
                finally:
                    tracer.uninstall()
            else:
                t0 = time.perf_counter()
                result = workload.run(v)
                t1 = time.perf_counter()
        except Exception:  # a failed operation is counted and the loop goes on
            failed += 1
            traceback.print_exc(file=sys.stderr)
            reference_s.append(timed_reference())
            continue
        reference_s.append(timed_reference())
        ops.append((v, traced, t1 - t0, reference_s[-2], reference_s[-1]))
        try:
            _check(workload, v, result, first, problems)
        except Exception as err:  # an output the checks cannot read fails the run, not the process
            problems.append(f"variant {v}: reading the output raised {err!r}")
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    expected = 1 if tracer else workload.variants
    if len(first) < expected and failed == 0:
        problems.append(f"only {len(first)} of {expected} variants ran within {LOOP_LIMIT_S} s")
    if ops:
        try:
            problems.extend(workload.final_problems())
        except Exception as err:
            problems.append(f"closing checks raised {err!r}")

    out = {
        "ops": ops,
        "attempted": attempted,
        "failed": failed,
        "variants": {str(v): first[v] for v in sorted(first)},
        "problems": problems,
        "notes": workload.notes,
        "row_epochs": workload.row_epochs,
        "peak_rss_kb": peak_rss_kb,
        "reference_s": reference_s,
        "env": environment(rd),
    }
    if tracer:
        traced_s = [op[2] for op in ops if op[1] is True]
        untraced_s = [op[2] for op in ops if op[1] is False]
        out["layers"] = layer_metrics(tracer, traced_s, untraced_s)
        out["absent"] = sorted(name for name, ok in tracer.present.items() if not ok)
        tracer.write(os.path.join(args.workdir, "spans.jsonl"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
