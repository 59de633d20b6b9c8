"""Work split into shares, one per process: the caller runs the first share
and a forked child each other one. The users, the ensemble's members and the
CSV parse, are CPU-bound and hold the interpreter lock, so threads would not do.
The encoder's lane is a thread instead: its two branches of one SGD step are
BLAS products and large array loops, which release the lock, and they share
that step's arrays, which a process would have to copy. Inside a share of a
job of several, `process_count` is 1, so a lane never joins a share's process
on its CPU.
"""
from __future__ import annotations

import ctypes
import functools
import os
import pickle

_in_share = False  # True while this process runs a share of a job of several


@functools.cache
def _openblas_num_threads():
    """The loaded OpenBLAS's thread-count getter, or None where no OpenBLAS
    is mapped into this process or its mappings cannot be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn
    return None


def process_count(limit: int) -> int:
    """How many processes share a job of at most `limit` shares: the CPUs
    this process may run on, divided by the threads of the loaded OpenBLAS
    (processes whose BLAS threads outnumber the CPUs wait on each other), at
    most `limit` and at least 1. OpenBLAS reads its thread variables once,
    when numpy loads it, so the threads are asked of the library; its default
    of one thread per CPU gives 1. With another BLAS, or where the platform
    cannot tell the CPUs, it is 1: the rule was checked on OpenBLAS only.
    Inside a share of a `run_shares` job of several it is 1: the job already
    holds the CPUs.
    """
    get_threads = _openblas_num_threads() if limit > 1 and not _in_share else None
    if get_threads is None or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(limit, len(os.sched_getaffinity(0)) // max(1, get_threads())))


def run_shares(work, shares: int, name: str) -> list:
    """[work(0), ..., work(shares - 1)]: work(0) runs in the caller and each
    other share in a forked child, which inherits the inputs and pickles back
    its result, or nothing if it raises or is interrupted (a RuntimeError
    naming `name` and the share). A child leaves through os._exit, so no
    cleanup of the parent's (open files, atexit handlers, test fixtures) runs
    twice. Signals are held until every child is in its try and recorded, so
    no handler can unwind a child into the caller's stack or leave it out of
    the kill of every child still running when anything raises, the caller
    is interrupted or work(0) returns None (then the result is [None]).
    While the shares run, `process_count` is 1 in every one of them.
    """
    if shares == 1:
        return [work(0)]
    import signal  # here, so that importing randist loads no module it did not

    global _in_share
    outer = _in_share
    children = {}  # share -> (pid, read end of its pipe), until reaped
    try:
        _in_share = True  # in the caller's share and, inherited, in each child's
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())  # the old mask
        try:
            for k in range(1, shares):
                read_fd, write_fd = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_fd)
                    os.close(write_fd)
                    raise
                if pid == 0:
                    status = 1
                    try:
                        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                        os.close(read_fd)
                        # all or nothing: what fails to pickle is sent as no result at all
                        data = pickle.dumps(work(k), protocol=pickle.HIGHEST_PROTOCOL)
                        with os.fdopen(write_fd, "wb") as fh:
                            fh.write(data)
                        status = 0
                    finally:
                        os._exit(status)
                os.close(write_fd)
                children[k] = (pid, os.fdopen(read_fd, "rb"))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results = [work(0)]
        if results[0] is None:  # the caller's share abandons the job
            return results
        for k in range(1, shares):
            pid, fh = children[k]
            with fh:
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            del children[k]
            if not data:
                raise RuntimeError(
                    f"{name} worker {k} (pid {pid}) exited without a result "
                    f"(exit status {os.waitstatus_to_exitcode(status)})"
                )
            results.append(pickle.loads(data))  # bytes our own child wrote
        return results
    finally:
        _in_share = outer
        for pid, fh in children.values():
            fh.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
