"""Work split into shares, one per process: the caller runs the first share
and a forked child each other one. The users, the ensemble's members and the
CSV parse, are CPU-bound and hold the interpreter lock, so threads would not do.

The lane of a clustering run is a thread instead (`spare_lane`): one
helper thread that runs the second block of a large product (`beside`,
`halves`), or the second branch of an SGD step, while the caller runs the
first. Only `run_clustering` and the `cluster` command's frozen baseline
open one; the code they call takes it as an argument. Those blocks are
BLAS products and in-place array loops, which release the lock, and they
write into arrays the caller allocated, which a process would have to copy
back; so a lane allocates nothing large for them. The blocks follow from
shapes alone and run in turn without a lane, so a lane changes no bit of a
result, only the time. A share fails by raising, and the caller raises the
exception of the first share that failed, in share order, wherever that
share ran.
"""
from __future__ import annotations

import ctypes
import functools
import os
import pickle
from contextlib import contextmanager

_in_share = False  # True while this process runs a share of a job of several


@functools.cache
def _openblas_num_threads():
    """The loaded OpenBLAS's thread-count getter, or None where no OpenBLAS
    is mapped into this process, or its mappings or library cannot be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
            # the sixth field is the path, any bytes and spaces; " (deleted)" follows one replaced on disk
            libs = {line.split(maxsplit=5)[5].rstrip("\n") for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(lib for lib in libs if not lib.endswith(" (deleted)")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            return None
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
    its result or the Exception it raised. The first share that raised, in
    share order, has its exception raised here. A child that sends back
    nothing (it is interrupted, or what it would send does not pickle) or
    what does not unpickle is a RuntimeError naming `name`, the share and
    which of the two it was. A child leaves through os._exit, so no cleanup
    of the parent's (open files, atexit handlers, test fixtures) runs
    twice. Signals are held until every child is in its try and recorded,
    so no handler can unwind a child into the caller's stack or leave it out
    of the kill of every child still running when anything raises or the
    caller is interrupted. While the shares run, `process_count` is 1 in
    every one of them.
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
                        try:
                            outcome = (True, work(k))
                        except Exception as err:
                            outcome = (False, err)
                        # all or nothing: what fails to pickle is sent as no result at all
                        data = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
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
        for k in range(1, shares):
            pid, fh = children[k]
            with fh:
                data = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[k]
            worker = f"{name} worker {k} (pid {pid})"
            if not data:
                raise RuntimeError(f"{worker} exited without a result (exit status {status})")
            try:
                done, result = pickle.loads(data)  # bytes our own child wrote
            except Exception as err:  # cut short, or an exception whose __init__ its args do not fit
                raise RuntimeError(f"{worker} sent a result that could not be read (exit status {status})") from err
            if not done:
                raise result
            results.append(result)
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


@contextmanager
def spare_lane():
    """A lane for the length of a with block: an executor of one thread,
    named randist-lane, where a CPU is spare (process_count(2) == 2), else
    None. On leaving the block it waits for a running block and cancels the
    rest, so no thread outlives it, also when the block raises."""
    if process_count(2) != 2:
        yield None
        return
    # imported here, so that importing randist loads no module it did not
    from concurrent.futures import ThreadPoolExecutor

    lane = ThreadPoolExecutor(1, thread_name_prefix="randist-lane")
    try:
        yield lane
    finally:
        lane.shutdown(cancel_futures=True)


def beside(lane, first, second) -> None:
    """first() here while second() runs on the lane, or second() after
    first() where lane is None. Both write disjoint parts of arrays that the
    caller allocated, and neither returns anything."""
    rest = None if lane is None else lane.submit(second)
    first()
    second() if rest is None else rest.result()


def halves(lane, block, n: int) -> None:
    """block(0, h) and block(h, n) `beside` each other, with h = n // 16 * 8
    (n / 2 rounded down to a multiple of 8); block(0, n) alone below n = 16."""
    h = n // 16 * 8
    if not h:
        block(0, n)
        return
    beside(lane, functools.partial(block, 0, h), functools.partial(block, h, n))
