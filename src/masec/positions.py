"""Projected gradient ascent over antenna positions for a fixed beamformer.

The beam gains |a^H(x, theta_i) w|^2 admit a real reparameterization in
the per-antenna cosine/sine vectors g_i, q_i and the real matrices
C = u u^T + z z^T, D = u z^T - z u^T built from w = u + j z.  That lift
yields a closed-form gradient of the (unclamped) secrecy objective,
driving a fixed-step ascent with sequential nearest-point projection
onto the spacing and aperture constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (TWO_PI, AntennaPositions, Scenario, as_coords, as_weights,
                   rate_difference)

LN2 = np.log(2.0)


@dataclass(frozen=True)
class RealLift:
    """Real-valued reparameterization of the beam gains.

    Rows of ``g``/``q`` hold the cosine/sine vectors per steering angle
    (Bob first, then the eavesdroppers), so g[i]**2 + q[i]**2 == 1
    elementwise.  ``C`` is symmetric PSD, ``D`` antisymmetric.
    """

    g: np.ndarray
    q: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def gains(self) -> np.ndarray:
        """Quadratic-form gains f_i = g_i^T C g_i + q_i^T C q_i + 2 g_i^T D q_i."""
        return _lift_gains(self.g, self.q, self.C, self.D)[2]


@dataclass(frozen=True)
class PgaConfig:
    """Inner-loop settings: step size delta, iteration cap, |dPsi| stop."""

    step_size: float = 0.01
    max_inner_iters: int = 500
    inner_tol: float = 1e-8

    def __post_init__(self):
        if not self.step_size > 0.0:
            raise ValueError("step_size must be positive")
        if not self.max_inner_iters >= 1:
            raise ValueError("max_inner_iters must be positive")
        if not self.inner_tol > 0.0:
            raise ValueError("inner_tol must be positive")


def real_lift(x, w, scenario: Scenario) -> RealLift:
    """Build the (g, q, C, D) lift of the beam gains at positions ``x``."""
    xs = as_coords(x)
    wv = as_weights(w)
    if xs.size != wv.size:
        raise ValueError(f"positions ({xs.size}) and beamformer ({wv.size}) "
                         "dimensions disagree")
    phases = (TWO_PI / scenario.wavelength) * np.outer(np.cos(scenario.angles), xs)
    u, z = wv.real, wv.imag
    return RealLift(g=np.cos(phases), q=np.sin(phases),
                    C=np.outer(u, u) + np.outer(z, z),
                    D=np.outer(u, z) - np.outer(z, u))


def objective_psi(x, w, scenario: Scenario) -> float:
    """Unclamped position objective Psi in bps/Hz.

    Identical to the secrecy rate except that the [.]^+ clamp is omitted,
    which keeps gradients alive when the eavesdroppers dominate.
    """
    return rate_difference(x, w, scenario)


def _lift_gains(g, q, C, D):
    """Partial gradients of the gains along g and q, and the gains."""
    # rows of grad_g/grad_q are (2 C g_i + 2 D q_i)^T and (2 C q_i - 2 D g_i)^T
    grad_g = 2.0 * (g @ C - q @ D)
    grad_q = 2.0 * (q @ C + g @ D)
    gains = 0.5 * (np.einsum("ij,ij->i", g, grad_g)
                   + np.einsum("ij,ij->i", q, grad_q))
    return grad_g, grad_q, gains


def _gradient(g, q, C, D, coeff, noise_power):
    """Gradient of Psi from the lift arrays and (2 pi / wavelength) cos(theta_i).

    Returns (grad, gains): the gains are the ones the gradient is built on.
    """
    grad_g, grad_q, gains = _lift_gains(g, q, C, D)
    nabla_f = coeff[:, None] * (g * grad_q - q * grad_g)
    grad = (nabla_f[0] / (noise_power + gains[0])
            - nabla_f[1:].sum(axis=0) / (noise_power + gains[1:].sum())) / LN2
    return grad, gains


def gradient_psi(x, w, scenario: Scenario) -> np.ndarray:
    """Closed-form gradient of ``objective_psi`` w.r.t. the positions.

    Per-antenna entries combine the chain rule through the lift: with
    W_i, S_i the diagonal sine/cosine factors scaled by
    (2 pi / wavelength) cos(theta_i),

        grad f_i = -W_i (2 C g_i + 2 D q_i) + S_i (2 C q_i - 2 D g_i)

    and the log2 terms contribute a 1/ln(2) factor.
    """
    lift = real_lift(x, w, scenario)
    coeff = (TWO_PI / scenario.wavelength) * np.cos(scenario.angles)
    grad, _ = _gradient(lift.g, lift.q, lift.C, lift.D, coeff,
                        scenario.noise_power)
    return grad


def _project(arr: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Sequential nearest-point clamp of a sorted position array, in place."""
    n = arr.size
    d = scenario.min_spacing
    lo = 0.0
    for k in range(n):
        hi = scenario.aperture - (n - 1 - k) * d
        v = arr[k] if arr[k] > lo else lo
        arr[k] = v if v < hi else hi
        lo = arr[k] + d
    return arr


def project_positions(x_raw, scenario: Scenario) -> AntennaPositions:
    """Project raw coordinates onto the feasible set.

    Sorts ascending, then clamps sequentially: x_1 into
    [0, L - (N-1) d_min] and each following x_n into
    [x_{n-1} + d_min, L - (N-n) d_min].  Idempotent; the output satisfies
    the spacing and aperture constraints.
    """
    arr = np.sort(as_coords(x_raw))
    if not np.isfinite(arr).all():
        raise ValueError("positions must be finite")
    scenario.check_feasible(arr.size)
    arr = _project(arr, scenario)
    arr.setflags(write=False)
    return AntennaPositions(arr)


def optimize_positions(x0, w, scenario: Scenario,
                       cfg: PgaConfig | None = None):
    """Projected gradient ascent on Psi with the beamformer held fixed.

    Iterates x <- project(x + delta grad Psi(x)) until the per-iteration
    change of Psi falls below ``cfg.inner_tol`` or the iteration cap is
    hit.  One trig evaluation per step at the new iterate yields both
    the next gradient and Psi, read from the gradient's beam gains.
    Fixed-step ascent is not monotone, so the best iterate seen is
    returned rather than the last one; Psi(returned) >= Psi(x0) always.

    Raises:
        ValueError: ``x0`` is unsorted, or ``AntennaPositions.create``
            rejects it for ``scenario`` (InfeasibleError for too many
            antennas).

    Returns:
        (AntennaPositions, ndarray): best positions and the trace of Psi
        values, entry 0 being ``objective_psi(x0)``.
    """
    if cfg is None:
        cfg = PgaConfig()
    x = np.array(as_coords(x0), dtype=float)
    if np.any(np.diff(x) < 0.0):
        raise ValueError(f"start positions must be sorted ascending: {x}")
    x = np.array(AntennaPositions.create(x, scenario).x)
    wv = as_weights(w)
    cosines = np.cos(scenario.angles)
    u, z = wv.real, wv.imag
    C = np.outer(u, u) + np.outer(z, z)
    D = np.outer(u, z) - np.outer(z, u)
    scale = TWO_PI / scenario.wavelength
    coeff = scale * cosines
    sigma2 = scenario.noise_power

    def gradient_and_gains(x):
        phases = scale * np.outer(cosines, x)
        return _gradient(np.cos(phases), np.sin(phases), C, D, coeff, sigma2)

    psi = objective_psi(x, wv, scenario)
    trace = [psi]
    best_x = x.copy()
    best_psi = psi
    grad, _ = gradient_and_gains(x)
    for _ in range(cfg.max_inner_iters):
        x = _project(np.sort(x + cfg.step_size * grad), scenario)
        grad, gains = gradient_and_gains(x)
        psi_new = (math.log2(1.0 + gains[0] / sigma2)
                   - math.log2(1.0 + gains[1:].sum() / sigma2))
        trace.append(psi_new)
        if psi_new > best_psi:
            best_psi = psi_new
            best_x = x.copy()
        if abs(psi_new - psi) <= cfg.inner_tol:
            break
        psi = psi_new
    best_x.setflags(write=False)
    return AntennaPositions(best_x), np.asarray(trace)


def random_positions(n: int, scenario: Scenario, rng) -> AntennaPositions:
    """Draw feasible positions uniformly.

    Uses the slack parameterization y_n = x_n - (n-1) d_min, under which
    the feasible set maps to sorted i.i.d. uniforms on
    [0, L - (N-1) d_min].
    """
    scenario.check_feasible(n)
    span = scenario.aperture - (n - 1) * scenario.min_spacing
    y = np.sort(rng.uniform(0.0, max(span, 0.0), size=n))
    x = y + scenario.min_spacing * np.arange(n)
    x.setflags(write=False)
    return AntennaPositions(x)
