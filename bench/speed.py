"""Machine-speed reference for times taken on a shared host.

The host this benchmark was defined on shares its cores with other
tenants, and the speed of one core drifts by up to a third within
seconds: the same 24 ensemble members took 22 s in one pass and 29 s
in the next.  So every timed interval is divided by the mean slowdown
of a fixed kernel of the small-matrix numpy calls the library itself
is made of, measured just before and just after the interval.  The
result reads as seconds at the reference speed, the speed at which one
reference chunk takes NOMINAL_S (the typical speed of that 2-core Xeon
host while the benchmark was defined; unloaded, it ran a chunk in
about 2.5 ms).
This takes the drift out; a change to the library still shows, since
the kernel does not use it.
"""

import statistics
import time

import numpy as np

NOMINAL_S = 0.0035
CHUNKS = 3
REPS = 8

_rng = np.random.default_rng(20240)
_MATRICES = [g @ g.T + 4.0 * np.eye(4) for g in _rng.standard_normal((16, 4, 4))]
_RHS = _rng.standard_normal(4)
# bound now, so that the eigvalsh counter of a traced pass never sees it
_eigvalsh = np.linalg.eigvalsh


def _chunk():
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(REPS):
        for M in _MATRICES:
            L = np.linalg.cholesky(M)
            x = np.linalg.solve(M, _RHS)
            w = _eigvalsh(M)
            acc += float(L[0, 0]) + float(x[0]) + float(w[0])
    return time.perf_counter() - t0


def slowdown():
    """Current time per reference chunk over NOMINAL_S (median of CHUNKS)."""
    return statistics.median(_chunk() for _ in range(CHUNKS)) / NOMINAL_S

