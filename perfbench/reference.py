"""A fixed piece of work that measures how fast the host runs right now.

The host this benchmark runs on is shared, and its speed moves by a
third over tens of seconds: the same operation on the same input ran at
2.7 s for a minute and a half and at 1.8 s for the half minute after,
with nothing else running in the machine. The worker times this kernel
before the first operation and after every operation, and run.py scales
each operation's time by the kernel's speed around it, so that the
end-to-end times read as if the host ran at one fixed speed.

The kernel calls no program code. It is made of the work the program's
operations spend their time in: parsing floats out of CSV text, as the
CLI reads its input; the input product of a 590-column table with a
50-column map on a 192-row batch; and the 192 x 192 Gram product of a
1024-wide embedding. Matrix products tracked the program's speed best of
the candidates tried. In one three-minute test, the 30-second medians of
anomaly-paper's time scaled by a product kernel stayed within 3% of each
other, where unscaled they ranged from 0.70 s to 1.14 s; scaled by numpy
element-wise arithmetic they moved by 20%. Over ten runs per workload,
the spread of the median time between quartiles fell from 0.18 / 0.10 /
0.11 unscaled to 0.058 / 0.068 / 0.045 scaled (anomaly-paper /
cluster-wide / cli-anomaly-wide). The CSV part is there for
cli-anomaly-wide, which spends about 40% of its time parsing. The
products run on one BLAS thread, as the benchmark sets it; a program
that changes the thread count at run time changes the kernel's time too.
"""
from __future__ import annotations

import csv
import io
import time

import numpy as np

# A round figure within the kernel's times on the 2-core machine of the
# baseline (0.08 s to 0.11 s as the host's speed moved). Scaled times are
# seconds on a host where the kernel takes this long.
REFERENCE_S = 0.1

_RNG = np.random.default_rng(20191226)
_BATCH = _RNG.standard_normal((192, 590))
_MAP = _RNG.standard_normal((590, 50))
_EMBED = _RNG.standard_normal((192, 1024))


_CSV = "\n".join(
    ",".join(f"{(r * 590 + c) % 1013 / 37.0:.6f}" for c in range(590)) for r in range(8)
)


def reference_kernel() -> float:
    """Run the fixed work once; return a checksum so none of it is skipped."""
    acc = 0.0
    for _ in range(24):
        for row in csv.reader(io.StringIO(_CSV)):
            acc += sum(float(cell) for cell in row)
    for _ in range(140):
        acc += float((_BATCH @ _MAP).sum())
    for _ in range(16):
        acc += float((_EMBED @ _EMBED.T).sum())
    return acc


def timed_reference() -> float:
    """Seconds one run of the kernel took."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0
