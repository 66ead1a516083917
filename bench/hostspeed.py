"""Host-speed probe: fixed work, independent of the program, timed between ops.

On a shared host the same op runs up to 1.7x slower in periods that last
from seconds to minutes, longer than a run, so medians within a run do
not remove the swing.  The probe times two small pieces of fixed work
that slow down the way the ops do: sparse matrix-vector products over a
vector larger than the caches (memory-bound numpy), and formatting floats
to 15 significant digits (pure Python).  Dense BLAS work barely slows and
is left out.

``sample()`` returns the host's slowness: the geometric mean of the two
probe times, each over its reference time below, so 1.0 is the speed at
which the reference times were taken and 1.3 is 30% slower.  An op's
host-adjusted latency is its wall time divided by the mean slowness of
the samples taken just before and just after it.  The probe runs no code
of the program, so a change that slows the program cannot slow the probe
and hide itself.  ``setup_s`` is always adjusted; op times are adjusted
only on workloads whose ops were shown to slow down with the probe
(``Workload.host_adjusted``).
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.sparse as sp

# Median probe times on a 2-vCPU Intel Xeon virtual machine with one BLAS
# thread; they only fix the unit of the adjusted times.
REF_SPARSE_S = 0.035
REF_FORMAT_S = 0.0175

_N = 200_000            # 1.6 MB per vector, 4 MB of CSR matrix
_MATVECS = 40
_FLOATS = 8_000


class HostProbe:
    def __init__(self):
        off = np.full(_N - 1, -0.5)
        self._matrix = sp.diags([np.ones(_N), off, off], [0, 1, -1]).tocsr()
        self._vector = np.ones(_N)
        self._floats = np.random.default_rng(0).standard_normal(_FLOATS).tolist()
        self.sample()   # first call pays for lazy set-up

    def _sparse(self) -> float:
        start = time.perf_counter()
        w = self._vector
        for _ in range(_MATVECS):
            w = self._matrix @ w
        return time.perf_counter() - start

    def _format(self) -> float:
        start = time.perf_counter()
        "\n".join("%.15g,%.15g" % (x, 2.0 * x) for x in self._floats)
        return time.perf_counter() - start

    def sample(self) -> float:
        """Slowness of the host now; 1.0 at the reference times."""
        return math.sqrt(self._sparse() / REF_SPARSE_S
                         * self._format() / REF_FORMAT_S)

    @staticmethod
    def adjust(wall_s: float, before: float, after: float) -> float:
        """Wall time at reference speed, from the samples around it."""
        return wall_s / math.sqrt(before * after)
