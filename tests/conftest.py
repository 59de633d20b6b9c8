import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))


def child_env(blas_threads):
    """The environment of a child python that imports this checkout's randist,
    with OpenBLAS at `blas_threads` threads, or at its default where None."""
    drop = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {key: value for key, value in os.environ.items() if key not in drop}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env
