"""Fixed reference computations that gauge the machine's current speed.

On a shared machine the same call can take twice as long a few seconds
later, because other tenants slow every process down for a while.  The
benchmark runs one of these probes before and after every timed call and
divides the call's time by the mean of the two, which cancels that
slowdown; multiplying by the probe's nominal time turns the ratio back
into seconds at a fixed reference speed.

The probes use nothing from ``defquant`` and are imported before it, so no
change to the package can alter them.  ``python_probe`` does the kind of
work of the exact stack (rational arithmetic, dict and tuple traffic);
``numpy_probe`` that of the sampling stack (batched small determinants).
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# the probes' fastest times on a shared 2-vCPU x86-64 virtual machine
# (Python 3.11, numpy 2.4); fixed constants, never re-measured
PYTHON_NOMINAL_S = 0.014
NUMPY_NOMINAL_S = 0.010

_BATCH = (np.random.default_rng(0).random((20000, 4, 4))
          + 1j * np.random.default_rng(1).random((20000, 4, 4)))


def python_probe():
    acc = Fraction(0)
    table = {}
    for k in range(1, 3000):
        acc += Fraction(k % 7 + 1, k % 11 + 1) * Fraction(3, k % 5 + 2)
        key = (k % 31, k % 7)
        table[key] = table.get(key, 0) + k
    return acc


def numpy_probe():
    return complex(np.linalg.det(_BATCH).sum())


PROBES = {"python": (python_probe, PYTHON_NOMINAL_S),
          "numpy": (numpy_probe, NUMPY_NOMINAL_S)}


def timed(probe) -> float:
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0
