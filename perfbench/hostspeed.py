"""Host speed, read from a fixed kernel timed next to each timed section.

On a shared host the same work can take up to twice as long, in spells
that last from seconds to many minutes, and CPU time grows with wall time
then, so no clock of the process sees it.  The kernel below does work of
masec's mix — small numpy calls driven from Python: complex exponentials,
outer products, a small Hermitian eigensolve — without calling masec, so
a change to masec cannot move it.  A section's time divided by the
kernel's time around it, times ``REFERENCE_S``, is the section's time on
a host where the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's fastest time on a 2-core x86-64 VM (numpy 2.4,
# OpenBLAS 0.3.31, one thread); it only sets the scale of the figures.
REFERENCE_S = 0.004
KERNEL_STEPS = 150
KERNEL_REPEATS = 5

_X = np.linspace(0.0, 9.5, 6)
_ANGLES = np.array([0.1, 0.5, 0.9])


def _kernel() -> float:
    acc = 0.0
    for i in range(KERNEL_STEPS):
        a = np.exp(2j * np.pi * np.cos(0.3 + 1e-3 * i) * _X)
        gram = np.outer(a, a.conj()) + np.eye(_X.size)
        g = np.cos(np.outer(_ANGLES, _X))
        acc += float(np.linalg.eigvalsh(gram)[-1]) + float(np.einsum("ij,ij->", g, g))
        acc += sum(float(t) for t in _X)
    return acc


def kernel_s() -> float:
    """Median wall time of KERNEL_REPEATS runs of the kernel."""
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` on the reference host, from the kernel times around it."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
