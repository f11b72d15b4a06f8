"""Machine-speed probes that put the benchmark's timings on a steady scale.

On a shared host the speed of one core drifts by up to +-30% over minutes,
because neighbouring machines compete for caches and cores.  A median within
a 30-second run cannot remove drift that lasts minutes.  So every timing is
paired with a probe: fixed code of the same grain, timed right before it.
A time t becomes t * nominal / probe, the time it would take on a machine
where the probe takes its nominal time.  The probes do not use ukfkit, so a
change to ukfkit moves the adjusted figures exactly as it moves the raw ones.
The raw figures are reported next to the adjusted ones.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import solve_triangular

PROBE_NOMINAL_S = 0.010
IMPORT_NOMINAL_S = 0.050

_A = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
_B = np.ones((3, 1))


def small_matrices() -> float:
    """Seconds for 3x3 factorizations, solves and products: the sigma-point filters' grain."""
    t0 = time.perf_counter()
    for _ in range(360):
        c = np.linalg.cholesky(_A)
        solve_triangular(c, _B, lower=True)
        p = _A @ _A.T
        float(np.trace(0.5 * (p + p.T)))
    return time.perf_counter() - t0


def ensemble_arrays() -> float:
    """Seconds for Philox draws and fixed-order reductions on 3 x 20000 arrays: the EnKF's grain."""
    t0 = time.perf_counter()
    for k in range(5):
        key = np.array([7, k], dtype=np.uint64)
        z = np.random.Generator(np.random.Philox(key=key)).standard_normal((3, 20_000))
        d = z - z.mean(axis=1)[:, None]
        np.einsum("ik,jk->ij", d, d)
        _A @ z
    return time.perf_counter() - t0


# Runs in a fresh interpreter: times the imports under test, then a fixed set of
# standard-library imports that numpy, scipy and ukfkit do not load, as the probe.
# The probe imports come second so that they preload nothing the first ones need.
IMPORT_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import numpy, scipy, ukfkit\n"
    "t1 = time.perf_counter()\n"
    "import asyncio, configparser, email.parser, html.parser, http.client, optparse, plistlib\n"
    "import sqlite3, tarfile, tomllib, uuid, xml.etree.ElementTree, xmlrpc.client\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1, ukfkit.__file__)\n"
)
