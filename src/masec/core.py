"""Physical model of a movable-antenna (MA) linear transmit array.

A transmitter (Alice) carries N antennas on the segment [0, L] whose
coordinates can be adjusted subject to a minimum spacing d_min.  Bob sits
at steering angle theta_0, M colluding eavesdroppers at theta_1..theta_M.
All lengths are in the scenario's length unit with the wavelength carried
explicitly; with the default wavelength of 1.0 positions are expressed
directly in wavelengths.

A layout is a read-only float array of N sorted coordinates and a
beamformer a read-only complex array of N weights.  Input from outside
the library goes through ``check_positions`` and ``check_beamformer``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# Feasibility slack (absolute, in length units): clamp arithmetic such as
# (x + d_min) - x can fall short of d_min by a few ulp.
FEASIBILITY_TOL = 1e-9


class InfeasibleError(ValueError):
    """Aperture cannot hold the requested antenna count at min spacing."""


@dataclass(frozen=True)
class Scenario:
    """Problem instance: geometry, steering angles and budgets.

    Defaults reproduce the reference setup at unit wavelength: noise
    power 1, transmit power budget 1, segment [0, 10] and minimum
    spacing 1/2 (i.e. lambda/2).

    Attributes:
        bob_angle: steering angle of the legitimate receiver, in [0, pi).
        eve_angles: angles of the colluding eavesdroppers, each in [0, pi).
        noise_power: receiver noise power sigma^2 (linear, > 0).
        power_budget: transmit power P_A (linear, > 0).
        wavelength: carrier wavelength in length units (> 0).
        aperture: right end L of the allowed segment [0, L].
        min_spacing: minimum distance d_min between any two antennas.
    """

    bob_angle: float
    eve_angles: tuple
    noise_power: float = 1.0
    power_budget: float = 1.0
    wavelength: float = 1.0
    aperture: float = 10.0
    min_spacing: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "eve_angles",
                           tuple(float(t) for t in np.atleast_1d(self.eve_angles)))
        if len(self.eve_angles) < 1:
            raise ValueError("scenario needs at least one eavesdropper angle")
        for name in ("noise_power", "power_budget", "wavelength",
                     "aperture", "min_spacing"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        for theta in (self.bob_angle,) + self.eve_angles:
            if not np.isfinite(theta) or not 0.0 <= theta < np.pi:
                raise ValueError(f"angles must lie in [0, pi), got {theta!r}")

    @property
    def num_eves(self) -> int:
        return len(self.eve_angles)

    @property
    def angles(self) -> np.ndarray:
        """All steering angles, Bob first."""
        return np.array((self.bob_angle,) + self.eve_angles)

    def check_feasible(self, n: int) -> None:
        """Require L >= (N - 1) d_min so the spacing constraint can hold."""
        if n < 1:
            raise ValueError("antenna count must be at least 1")
        need = (n - 1) * self.min_spacing
        if need > self.aperture + FEASIBILITY_TOL:
            raise InfeasibleError(
                f"aperture {self.aperture} cannot hold {n} antennas at "
                f"spacing {self.min_spacing} (needs {need})")


def check_positions(values, scenario: Scenario) -> np.ndarray:
    """Validate, canonicalize (sort ascending) and freeze positions."""
    arr = np.array(values, dtype=float, ndmin=1)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("positions must be a non-empty 1-D vector")
    if not np.isfinite(arr).all():
        raise ValueError("positions must be finite")
    if np.any(np.diff(arr) < 0.0):
        warnings.warn("antenna positions were unsorted; sorting ascending",
                      UserWarning, stacklevel=2)
        arr = np.sort(arr)
    scenario.check_feasible(arr.size)
    if np.any(np.diff(arr) < scenario.min_spacing - FEASIBILITY_TOL):
        raise ValueError(
            f"adjacent spacing below d_min={scenario.min_spacing}: {arr}")
    if arr[0] < -FEASIBILITY_TOL or arr[-1] > scenario.aperture + FEASIBILITY_TOL:
        raise ValueError(
            f"positions outside [0, {scenario.aperture}]: {arr}")
    arr.setflags(write=False)
    return arr


def check_beamformer(values, scenario: Scenario) -> np.ndarray:
    """Validate the power budget ||w||^2 = P_A and freeze the weights."""
    arr = np.array(values, dtype=complex, ndmin=1)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("beamformer must be a non-empty 1-D vector")
    if not np.isfinite(arr).all():
        raise ValueError("beamformer weights must be finite")
    power = float(np.vdot(arr, arr).real)
    budget = scenario.power_budget
    if abs(power - budget) > 1e-10 * budget:
        raise ValueError(
            f"||w||^2 = {power} violates power budget {budget}")
    arr.setflags(write=False)
    return arr


def steering_vector(x, theta, wavelength: float = 1.0) -> np.ndarray:
    """Array steering vector a(x, theta).

    Entry n equals exp(j (2 pi / wavelength) cos(theta) x_n); every entry
    has unit modulus by construction.

    Args:
        x: antenna coordinates, array-like.
        theta: steering angle in radians, or an array of angles that
            broadcasts against ``x`` (e.g. a column for one vector per
            angle).
        wavelength: carrier wavelength in the same unit as ``x``.

    Returns:
        Complex array of the broadcast shape; length N for a scalar angle.
    """
    xs = np.asarray(x, dtype=float)
    if not np.isfinite(xs).all():
        raise ValueError("positions must be finite")
    if not np.isfinite(theta).all():
        raise ValueError("steering angle must be finite")
    if not np.isfinite(wavelength) or wavelength <= 0.0:
        raise ValueError("wavelength must be finite and positive")
    return np.exp(1j * (TWO_PI / wavelength) * np.cos(theta) * xs)


def _stack_of_one(x, w):
    """``x`` and ``w`` as (K, N) stacks, one row for one layout."""
    xs = np.asarray(x, dtype=float)
    wv = np.asarray(w, dtype=complex)
    if xs.shape != wv.shape or xs.ndim > 2:
        raise ValueError(f"positions {xs.shape} and beamformer {wv.shape} "
                         "dimensions disagree")
    return np.atleast_2d(xs), np.atleast_2d(wv)


def _squared_inner(a, w) -> np.ndarray:
    """|a^H w|^2 over the last axis, for steering vectors ``a``.

    Each inner product is one (1, N) @ (N, 1) ``matmul``, which rounds
    as ``np.vdot`` does, and each squared magnitude Python's
    ``abs(c) ** 2``, which rounds as numpy's scalars do and numpy's
    array ``abs`` and ``** 2`` do not.  So a row gives the same bits in
    a stack of one as in a stack of many.
    """
    inner = a.conj()[..., None, :] @ w[..., :, None]
    return np.array([abs(c) ** 2 for c in inner.ravel().tolist()]
                    ).reshape(inner.shape[:-2])


def beam_gain(x, w, theta, scenario: Scenario):
    """Beam gain |a^H(x, theta) w|^2 of the array toward ``theta``.

    ``x`` and ``w`` are one layout and its beamformer, which gives a
    float, or (K, N) stacks of one shape, which give a (K,) array of
    one gain per row, each with the bits of that row alone.  ``theta``
    is one angle or a (K, 1) column of one angle per row.  One layout
    is a stack of one, so both run the same code.
    """
    X, W = _stack_of_one(x, w)
    a = steering_vector(X, theta, scenario.wavelength)
    if a.shape != X.shape:
        raise ValueError(f"angles {np.shape(theta)} do not give one angle "
                         f"per row of positions {X.shape}")
    gains = _squared_inner(a, W)
    return gains if np.ndim(x) == 2 else float(gains[0])


def rate_difference(x, w, scenario: Scenario):
    """Unclamped secrecy objective in bps/Hz.

    log2(1 + G_0 / sigma^2) - log2(1 + sum_i G_i / sigma^2) with the
    eavesdropper gains summed (colluding case).  May be negative; the
    reported secrecy rate clamps it at zero.  A float for one layout, a
    (K,) array for (K, N) stacks, as ``beam_gain`` takes them.  The
    gains of every angle come from one ``steering_vector`` call, and
    each row of a stack has the bits of that layout's own call.
    """
    X, W = _stack_of_one(x, w)
    a = steering_vector(X[:, None, :], scenario.angles[:, None],
                        scenario.wavelength)
    gains = _squared_inner(a, W[:, None, :])
    sigma2 = scenario.noise_power
    eve_sum = gains[:, 1]
    for column in gains[:, 2:].T:  # in angle order, as a scalar sum adds
        eve_sum = eve_sum + column
    diff = (np.log2(1.0 + gains[:, 0] / sigma2)
            - np.log2(1.0 + eve_sum / sigma2))
    return diff if np.ndim(x) == 2 else float(diff[0])


def secrecy_rate(x, w, scenario: Scenario):
    """Achievable secrecy rate [rate_difference]^+ in bps/Hz (>= 0).

    A float for one layout, a (K,) array for (K, N) stacks, as
    ``rate_difference`` takes them; a row of a stack equals the rate of
    that layout alone, bit for bit.
    """
    diff = rate_difference(x, w, scenario)
    return np.maximum(diff, 0.0) if np.ndim(diff) else max(diff, 0.0)


def mrt_beamformer(x, scenario: Scenario) -> np.ndarray:
    """Maximum-ratio transmission toward Bob: sqrt(P_A) a(x, theta_0) / ||a||."""
    a = steering_vector(x, scenario.bob_angle, scenario.wavelength)
    w = np.sqrt(scenario.power_budget) * a / np.linalg.norm(a)
    w.setflags(write=False)
    return w
