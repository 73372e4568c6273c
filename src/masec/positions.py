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

from .core import TWO_PI, Scenario, check_positions, rate_difference

LN2 = np.log(2.0)


@dataclass(frozen=True)
class RealLift:
    """Real-valued reparameterization of the beam gains.

    Rows of ``g``/``q`` hold the cosine/sine vectors per steering angle
    (Bob first, then the eavesdroppers), so g[i]**2 + q[i]**2 == 1
    elementwise.  ``C`` is symmetric PSD, ``D`` antisymmetric.  A stack
    of K layouts has a leading axis of length K on every array.
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


def _phase_trig(X, column, scale):
    """Cosines and sines of the phases scale * cos(theta_i) * x_n.

    ``column`` holds cos(theta_i) as an (M+1, 1) column and ``scale`` is
    2 pi / wavelength; each layout of ``X`` gets an (M+1, N) block.
    """
    phases = scale * (column * X[..., None, :])
    return np.cos(phases), np.sin(phases)


def real_lift(x, w, scenario: Scenario) -> RealLift:
    """Build the (g, q, C, D) lift of the beam gains at positions ``x``.

    (K, N) stacks of layouts and beamformers get one lift per row.
    """
    xs, wv = np.asarray(x, dtype=float), np.asarray(w, dtype=complex)
    if not np.isfinite(xs).all():
        raise ValueError("positions must be finite")
    if xs.shape != wv.shape or xs.ndim > 2:
        raise ValueError(f"positions {xs.shape} and beamformer {wv.shape} "
                         "dimensions disagree")
    g, q = _phase_trig(xs, np.cos(scenario.angles)[:, None],
                       TWO_PI / scenario.wavelength)
    u, z = wv.real[..., :, None], wv.imag[..., :, None]
    u_t, z_t = wv.real[..., None, :], wv.imag[..., None, :]
    return RealLift(g=g, q=q, C=u * u_t + z * z_t, D=u * z_t - z * u_t)


def objective_psi(x, w, scenario: Scenario) -> float:
    """Unclamped position objective Psi in bps/Hz.

    Identical to the secrecy rate except that the [.]^+ clamp is omitted,
    which keeps gradients alive when the eavesdroppers dominate.
    """
    return rate_difference(x, w, scenario)


def _lift_gains(g, q, C, D):
    """Halved partial gradients of the gains along g and q, and the gains."""
    # rows of half_g/half_q are (C g_i + D q_i)^T and (C q_i - D g_i)^T; the
    # partial gradients are twice these, a factor that callers fold into
    # their constants (scaling by 2 is exact, so the gains are the same)
    half_g = g @ C - q @ D
    half_q = q @ C + g @ D
    gains = (np.einsum("...ij,...ij->...i", g, half_g)
             + np.einsum("...ij,...ij->...i", q, half_q))
    return half_g, half_q, gains


def _gradient(g, q, half_g, half_q, gains, two_k, noise_power):
    """Gradient of Psi from a lift's g, q and the output of ``_lift_gains``.

    ``two_k`` is the column of 2 k_i, k_i = (2 pi / wavelength) cos(theta_i).
    """
    nabla_f = two_k * (g * half_q - q * half_g)
    bob = gains[..., :1]
    eve = gains[..., 1:].sum(axis=-1, keepdims=True)
    return (nabla_f[..., 0, :] / (noise_power + bob)
            - nabla_f[..., 1:, :].sum(axis=-2) / (noise_power + eve)) / LN2


def gradient_psi(x, w, scenario: Scenario) -> np.ndarray:
    """Closed-form gradient of ``objective_psi`` w.r.t. the positions.

    Per-antenna entries combine the chain rule through the lift: with
    W_i, S_i the diagonal sine/cosine factors scaled by
    (2 pi / wavelength) cos(theta_i),

        grad f_i = -W_i (2 C g_i + 2 D q_i) + S_i (2 C q_i - 2 D g_i)

    and the log2 terms contribute a 1/ln(2) factor.
    """
    lift = real_lift(x, w, scenario)
    two_k = 2.0 * (TWO_PI / scenario.wavelength) * np.cos(scenario.angles)
    return _gradient(lift.g, lift.q,
                     *_lift_gains(lift.g, lift.q, lift.C, lift.D),
                     two_k[:, None], scenario.noise_power)


def _project(rows: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Sequential nearest-point clamp of each sorted row, in place.

    The clamp runs over Python floats, one row of the (K, N) array after
    another.
    """
    n = rows.shape[1]
    d = scenario.min_spacing
    caps = [scenario.aperture - (n - 1 - k) * d for k in range(n)]
    clamped = rows.tolist()
    for row in clamped:
        lo = 0.0
        for k, hi in enumerate(caps):
            v = row[k] if row[k] > lo else lo
            row[k] = v = v if v < hi else hi
            lo = v + d
    rows[:] = clamped
    return rows


def project_positions(x_raw, scenario: Scenario) -> np.ndarray:
    """Project raw coordinates onto the feasible set.

    Sorts ascending, then clamps sequentially: x_1 into
    [0, L - (N-1) d_min] and each following x_n into
    [x_{n-1} + d_min, L - (N-n) d_min].  Idempotent; the output satisfies
    the spacing and aperture constraints.
    """
    arr = np.sort(np.asarray(x_raw, dtype=float))
    if not np.isfinite(arr).all():
        raise ValueError("positions must be finite")
    scenario.check_feasible(arr.size)
    arr = _project(arr[None], scenario)[0]
    arr.setflags(write=False)
    return arr


def optimize_positions(x0, w, scenario: Scenario,
                       cfg: PgaConfig | None = None):
    """Projected gradient ascent on Psi with the beamformer held fixed.

    Iterates x <- project(x + delta grad Psi(x)) until the per-iteration
    change of Psi falls below ``cfg.inner_tol`` or the iteration cap is
    hit.  One trig evaluation per step at the new iterate yields the beam
    gains, which give Psi and, for the chains that take another step, the
    next gradient.  Fixed-step ascent is not monotone, so the best
    iterate seen is returned rather than the last one;
    Psi(returned) >= Psi(x0) always.

    ``x0`` and ``w`` are one layout and its beamformer, or (K, N) stacks
    holding one chain per row.  The chains run in lockstep on stacked
    arrays, each with its own Psi trace, stop test and best iterate; a
    chain that stops leaves the stack, so a step costs what the live
    chains need.  Every chain follows the same iterates as a call with
    its row alone.

    Raises:
        ValueError: ``x0`` and ``w`` are empty or differ in shape, a row
            of ``x0`` is unsorted, or ``check_positions`` rejects it for
            ``scenario`` (InfeasibleError for too many antennas).

    Returns:
        (best, trace).  For one layout, the best (N,) layout and the
        (T+1,) trace of Psi values, entry 0 being ``objective_psi(x0)``.
        For a stack, the (K, N) array of best layouts and a (T+1, K)
        array whose column k is chain k's trace, NaN after the chain
        stopped; T is the number of steps of the longest chain.  The
        layouts are read-only.
    """
    if cfg is None:
        cfg = PgaConfig()
    xs, ws = np.asarray(x0, dtype=float), np.asarray(w, dtype=complex)
    if xs.shape != ws.shape or not 1 <= xs.ndim <= 2 or xs.size == 0:
        raise ValueError(f"positions {xs.shape} and beamformers {ws.shape} "
                         "must be one non-empty vector or (K, N) stacks "
                         "of one shape")
    X, W = np.atleast_2d(xs, ws)
    for x in X:
        if np.any(np.diff(x) < 0.0):
            raise ValueError(f"start positions must be sorted ascending: {x}")
        check_positions(x, scenario)
    lift = real_lift(X, W, scenario)
    g, q, C, D = lift.g, lift.q, lift.C, lift.D
    column = np.cos(scenario.angles)[:, None]
    scale = TWO_PI / scenario.wavelength
    two_k = 2.0 * scale * column
    sigma2 = scenario.noise_power
    trace = [[objective_psi(x, wv, scenario) for x, wv in zip(X, W)]]
    best_psi = list(trace[0])
    best_x = X.copy()
    chains = list(range(len(X)))  # chain of each row of the live stack
    terms = [g, q, *_lift_gains(g, q, C, D)]
    for _ in range(cfg.max_inner_iters):
        grad = _gradient(*terms, two_k, sigma2)
        X = _project(np.sort(X + cfg.step_size * grad, axis=1), scenario)
        g, q = _phase_trig(X, column, scale)
        terms = [g, q, *_lift_gains(g, q, C, D)]
        gains = terms[-1]
        last, step = trace[-1], [math.nan] * len(best_psi)
        keep = []
        for r, (k, g0, ge) in enumerate(zip(
                chains, gains[:, 0].tolist(),
                gains[:, 1:].sum(axis=1).tolist())):
            psi_new = (math.log2(1.0 + g0 / sigma2)
                       - math.log2(1.0 + ge / sigma2))
            step[k] = psi_new
            if psi_new > best_psi[k]:
                best_psi[k] = psi_new
                best_x[k] = X[r]
            if not abs(psi_new - last[k]) <= cfg.inner_tol:
                keep.append(r)
        trace.append(step)
        if not keep:
            break
        if len(keep) < len(chains):
            X, C, D = X[keep], C[keep], D[keep]
            terms = [t[keep] for t in terms]
            chains = [chains[r] for r in keep]
    best_x.setflags(write=False)
    trace = np.array(trace)
    if xs.ndim == 1:
        return best_x[0], trace[:, 0]
    return best_x, trace


def random_positions(n: int, scenario: Scenario, rng) -> np.ndarray:
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
    return x
