"""Independent reference values for the benchmark's output checks.

Written against numpy and scipy only, never against masec or a stored
copy of its output.  A single rate comes from LAPACK's Hermitian-definite
generalized eigensolver (``scipy.linalg.eigh``); a batch comes from the
general eigenvalues of (B + I/P)^-1 (A + I/P).  masec reduces the pencil
through a Cholesky factor instead, so a fault there cannot cancel out.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

# Rows per batched eigen solve in ``grid_optimum``; bounds the temporaries.
CHUNK_ROWS = 4096


@dataclass(frozen=True)
class Instance:
    """The physical instance a scenario file describes, angles in radians."""

    n: int
    bob: float
    eves: tuple
    noise: float
    power: float
    wavelength: float
    aperture: float
    min_spacing: float

    @classmethod
    def from_file(cls, path) -> "Instance":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        factor = 1.0 if "bob_angle_rad" in doc else math.pi
        bob = doc["bob_angle_rad"] if "bob_angle_rad" in doc else doc["bob_angle_pi"]
        lam = float(doc.get("wavelength", 1.0))
        return cls(n=int(doc["n_antennas"]), bob=float(bob) * factor,
                   eves=tuple(float(t) * factor for t in doc["eve_angles"]),
                   noise=float(doc.get("noise_power", 1.0)),
                   power=float(doc.get("power_budget", 1.0)),
                   wavelength=lam,
                   aperture=float(doc.get("aperture", 10.0 * lam)),
                   min_spacing=float(doc.get("min_spacing", 0.5 * lam)))

    def with_power(self, power: float) -> "Instance":
        return Instance(self.n, self.bob, self.eves, self.noise, power,
                        self.wavelength, self.aperture, self.min_spacing)

    def bound(self, n: int) -> float:
        """log2(1 + N P_A / sigma^2): every antenna's power reaching Bob."""
        return math.log2(1.0 + n * self.power / self.noise)


def _steering(X, theta, inst):
    return np.exp(2j * np.pi / inst.wavelength * math.cos(theta) * np.asarray(X))


def gains(x, w, inst) -> np.ndarray:
    """|a(x, theta)^H w|^2 toward Bob, then each eavesdropper."""
    return np.array([abs(np.vdot(_steering(x, t, inst), w)) ** 2
                     for t in (inst.bob,) + inst.eves])


def rate(x, w, inst) -> float:
    """Clamped secrecy rate of beamformer ``w`` at positions ``x``."""
    g = gains(x, w, inst)
    value = math.log2(1.0 + g[0] / inst.noise) - math.log2(1.0 + g[1:].sum() / inst.noise)
    return max(value, 0.0)


def _pencil(X, inst):
    """(A + I/P, B + I/P) for each row of ``X``, stacked on the leading axes."""
    X = np.asarray(X, dtype=float)
    n = X.shape[-1]

    def outer(theta):
        a = _steering(X, theta, inst)
        return a[..., :, None] * a[..., None, :].conj()

    shift = np.eye(n) / inst.power
    A = outer(inst.bob) / inst.noise + shift
    B = sum(outer(t) for t in inst.eves) / inst.noise + shift
    return A, B


def optimal_rate(x, inst) -> float:
    """Secrecy rate of the optimal beamformer at positions ``x``."""
    A, B = _pencil(x, inst)
    return max(math.log2(eigh(A, B, eigvals_only=True)[-1]), 0.0)


def gap_tuples(m: int, total: int) -> np.ndarray:
    """Every m-tuple of integers k_j >= 0 with sum k_j <= total, one per row."""
    rows = np.zeros((1, 0), dtype=int)
    for _ in range(m):
        used = rows.sum(axis=1)
        counts = total - used + 1
        nxt = np.concatenate([np.arange(c) for c in counts])
        rows = np.column_stack([np.repeat(rows, counts, axis=0), nxt])
    return rows


def grid_optimum(n: int, inst, step: float) -> float:
    """Best optimal-beamformer rate over layouts whose gaps lie on a grid.

    x_1 = 0 and gap j is d_min + step k_j; a shift of the whole array
    does not change the rate, so this covers every layout whose gaps
    are such multiples.
    """
    slack = inst.aperture - (n - 1) * inst.min_spacing
    total = int(math.floor(slack / step + 1e-9))
    K = gap_tuples(n - 1, total)
    best = -math.inf
    for lo in range(0, K.shape[0], CHUNK_ROWS):
        gaps = inst.min_spacing + step * K[lo:lo + CHUNK_ROWS]
        X = np.concatenate([np.zeros((gaps.shape[0], 1)),
                            np.cumsum(gaps, axis=1)], axis=1)
        A, B = _pencil(X, inst)
        lam = np.linalg.eigvals(np.linalg.solve(B, A)).real.max(axis=1)
        best = max(best, float(lam.max()))
    return max(math.log2(best), 0.0)
