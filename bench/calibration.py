"""Host-speed calibration: a fixed loop of small numpy operations, small
eigenvalue problems and interpreter work, timed between blocks of a
workload's operations.

On a shared machine other tenants slow every process on the host for
minutes at a time, by up to 2x. Such a slowdown stretches this loop and a
cvwitness operation run next to it alike, so an operation's latency
times ``REFERENCE_MS`` over the loop's time next to it reads the same in
a busy stretch as in a quiet one. The loop never calls into cvwitness,
so no change to the program moves it. Its eigenvalue routines are bound
when this module is imported, before the traced run wraps
``numpy.linalg``, so they leave no spans and cost the same traced and
untraced.

The mix follows the workloads: the numpy half resembles the sampling
oracle's batches, the eigenvalue half the certification path. Over ten
30 s windows of ``sweep-cli``, scaling by small eigenvalue problems alone
spread its throughput by 7% (IQR / median), by the numpy half alone 11%,
and not at all 21%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from numpy.linalg import eigvals, eigvalsh

ITERATIONS = 60
# the loop's time on a quiet host where the reference figures were taken
# (see README.md); scaled latencies read as milliseconds on that host
REFERENCE_MS = 5.0


def _loop() -> float:
    rng = np.random.default_rng(20210702)
    w = rng.standard_normal((6, 6))
    rows: dict[int, list[str]] = {}
    acc = 0.0
    for i in range(ITERATIONS):
        s = rng.standard_normal((6, 6))
        s = s @ s.T
        acc += float(eigvalsh(s)[0]) + abs(complex(eigvals(s[:4, :4])[0]))
        z = rng.standard_normal((128, 6))
        a = z @ w.T
        d = np.einsum("ij,ij->i", a, a)
        acc += float(np.sqrt(d[d > 1.0]).min())
        m = w @ w.T + i * np.eye(6)
        acc += float(np.abs(m).sum(axis=1).max())
        rows[i % 32] = ",".join(f"{x:.6g}" for x in m[0]).split(",")
    return acc + len(rows)


def loop_ns(clock=time.perf_counter_ns) -> int:
    """Time of one pass of the calibration loop on ``clock``, in ns."""
    t0 = clock()
    _loop()
    return clock() - t0


def host_factor() -> float:
    """REFERENCE_MS over the median time of five loop passes, after one
    warm-up pass; multiply a wall time by it to scale it to the reference
    host."""
    loop_ns()
    return REFERENCE_MS * 1e6 / statistics.median(loop_ns() for _ in range(5))
