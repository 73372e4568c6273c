"""Physical model of a movable-antenna (MA) linear transmit array.

A transmitter (Alice) carries N antennas on the segment [0, L] whose
coordinates can be adjusted subject to a minimum spacing d_min.  Bob sits
at steering angle theta_0, M colluding eavesdroppers at theta_1..theta_M.
All lengths are in the scenario's length unit with the wavelength carried
explicitly; with the default wavelength of 1.0 positions are expressed
directly in wavelengths.  Every tolerance and step of the solver and of
its oracles scales with the wavelength, so the rates do not depend on
the length unit.

A layout is a read-only float array of N sorted coordinates and a
beamformer a read-only complex array of N weights.  Input from outside
the library goes through ``check_positions`` and ``check_beamformer``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi
LN2 = np.log(2.0)

# Feasibility slack, in wavelengths: clamp arithmetic such as
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
        # read-only arrays that every steering evaluation reads; a copy
        # made by ``dataclasses.replace`` runs this again
        angles = np.array((self.bob_angle,) + self.eve_angles)
        cosines = np.cos(angles)
        phases = 1j * (TWO_PI / self.wavelength) * cosines
        for name, arr in (("_angles", angles), ("_cosines", cosines),
                          ("_phases", phases)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_eves(self) -> int:
        return len(self.eve_angles)

    @property
    def angles(self) -> np.ndarray:
        """All steering angles, Bob first, as a read-only array."""
        return self._angles

    @property
    def cosines(self) -> np.ndarray:
        """cos(theta_i) of every angle, Bob first, as a read-only array."""
        return self._cosines

    @property
    def steering_phases(self) -> np.ndarray:
        """j (2 pi / wavelength) cos(theta_i) of every angle, Bob first.

        Entry i times a position is the phase of that antenna's entry in
        ``steering_vector`` toward angle i, with the same bits.
        """
        return self._phases

    def check_feasible(self, n: int) -> None:
        """Require L >= (N - 1) d_min so the spacing constraint can hold."""
        if n < 1:
            raise ValueError("antenna count must be at least 1")
        need = (n - 1) * self.min_spacing
        if need > self.aperture + FEASIBILITY_TOL * self.wavelength:
            raise InfeasibleError(
                f"aperture {self.aperture} cannot hold {n} antennas at "
                f"spacing {self.min_spacing} (needs {need})")


def check_positions(values, scenario: Scenario, *,
                    stack: bool = False) -> np.ndarray:
    """Validate, canonicalize (sort ascending) and freeze positions.

    With ``stack=True`` ``values`` is a (K, N) stack of layouts, one per
    row, and its rows are not sorted: antenna n of a row stays antenna
    n, so an unsorted row is an error.  Each row is checked for
    finiteness, then order, the antenna count, spacing and the box, and
    the first row with a defect raises the error, naming its values,
    that it raises as a stack of one.  One array operation per check
    serves every row.
    """
    arr = np.array(values, dtype=float, ndmin=1 + stack)
    if arr.ndim != 1 + stack or arr.size < 1:
        raise ValueError("positions must be a non-empty "
                         + ("(K, N) stack" if stack else "1-D vector"))
    if not stack:
        if not np.isfinite(arr).all():
            raise ValueError("positions must be finite")
        if np.any(np.diff(arr) < 0.0):
            warnings.warn("antenna positions were unsorted; sorting ascending",
                          UserWarning, stacklevel=2)
            arr = np.sort(arr)
    _check_rows(np.atleast_2d(arr), scenario)
    arr.setflags(write=False)
    return arr


def _check_rows(X: np.ndarray, scenario: Scenario) -> None:
    """Raise the first defect of the first defective row of ``X``."""
    finite = np.isfinite(X).all(axis=1)
    # a row that is not finite gets zeros here, so no inf - inf is formed
    gaps = np.diff(np.where(finite[:, None], X, 0.0), axis=1)
    unsorted = (gaps < 0.0).any(axis=1)
    tol = FEASIBILITY_TOL * scenario.wavelength
    tight = (gaps < scenario.min_spacing - tol).any(axis=1)
    outside = (X[:, 0] < -tol) | (X[:, -1] > scenario.aperture + tol)
    if finite[0] and not unsorted[0]:
        # a count the aperture cannot hold is a defect of every row
        scenario.check_feasible(X.shape[1])
    bad = np.flatnonzero(~finite | unsorted | tight | outside)
    if not bad.size:
        return
    row, x = bad[0], X[bad[0]]
    if not finite[row]:
        raise ValueError("positions must be finite")
    if unsorted[row]:
        raise ValueError(f"start positions must be sorted ascending: {x}")
    if tight[row]:
        raise ValueError(
            f"adjacent spacing below d_min={scenario.min_spacing}: {x}")
    raise ValueError(f"positions outside [0, {scenario.aperture}]: {x}")


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
    """``x`` and ``w`` as (K, N) stacks, one row for one layout.

    The one check of a (positions, beamformer) input: one layout and its
    beamformer, or a (K, N) stack of each, both arrays of one shape,
    non-empty, with finite positions and weights.
    """
    xs = np.asarray(x, dtype=float)
    wv = np.asarray(w, dtype=complex)
    if xs.shape != wv.shape or not 1 <= xs.ndim <= 2 or not xs.size:
        raise ValueError(f"positions {xs.shape} and beamformer {wv.shape} "
                         "dimensions disagree: need one non-empty layout "
                         "or (K, N) stacks of one shape")
    if not np.isfinite(xs).all():
        raise ValueError("positions must be finite")
    if not np.isfinite(wv).all():
        raise ValueError("beamformer weights must be finite")
    return np.atleast_2d(xs), np.atleast_2d(wv)


def _angle_steering(x, scenario: Scenario) -> np.ndarray:
    """Steering vectors of every angle, Bob first, at a layout or a stack.

    The scenario's ``steering_phases`` on a leading axis give an
    (M+1, N) array for one layout and an (M+1, K, N) array for a (K, N)
    stack, with the bits of one ``steering_vector`` call on a column of
    the angles.  A ``Scenario`` holds finite angles and a positive
    wavelength, so only the positions are checked.
    """
    xs = np.asarray(x, dtype=float)
    if not np.isfinite(xs).all():
        raise ValueError("positions must be finite")
    return np.exp(scenario.steering_phases.reshape((-1,) + (1,) * xs.ndim)
                  * xs)


def _squared_inner(a, w):
    """Inner products c = a^H w of every angle, and the gains |c|^2.

    ``a`` is an (M+1, K, N) stack of steering vectors, angles first, and
    ``w`` a (K, N) stack of beamformers.  Returns the real and imaginary
    parts of the terms conj(a_n) w_n, (M+1, K, N) each, those of their
    sums c over the antennas, (M+1, K) each, and |c|^2.  Everything is
    real arithmetic, elementwise or summed along the last axis, and each
    such operation rounds alike in any array layout (numpy's complex
    multiply fuses its products in some layouts and not in others), so
    a row gets the same bits in a stack of one as in a stack of many.
    """
    ar, ai, wr, wi = a.real, a.imag, w.real, w.imag
    terms = (ar * wr + ai * wi, ar * wi - ai * wr)
    c = (terms[0].sum(axis=-1), terms[1].sum(axis=-1))
    return terms, c, c[0] ** 2 + c[1] ** 2


def _angle_sum(values) -> np.ndarray:
    """Sum of ``values`` over its leading angle axis, in angle order.

    The rows are added one by one, as a scalar sum adds them, so an
    entry's sum does not depend on the stack around it.
    """
    total = values[0]
    for row in values[1:]:
        total = total + row
    return total


def _psi(gains, noise_power: float) -> np.ndarray:
    """Unclamped secrecy objective of each column of (M+1, K) beam gains.

    (log1p(G_0 / sigma^2) - log1p(sum_i G_i / sigma^2)) / ln 2, Bob's
    gain in row 0.  log1p keeps each term to relative precision when
    G / sigma^2 is far below 1, where log2(1 + G / sigma^2) keeps it
    only to eps absolute.
    """
    return (np.log1p(gains[0] / noise_power)
            - np.log1p(_angle_sum(gains[1:]) / noise_power)) / LN2


def _psi_gradient(terms, c, gains, scenario: Scenario) -> np.ndarray:
    """Gradient of Psi in the positions, from ``_squared_inner``'s output.

    With k_i = (2 pi / wavelength) cos(theta_i) the gain G_i = |c_i|^2
    has dG_i/dx_n = 2 k_i Im(conj(c_i) t_in), t_in = conj(a_in) w_n the
    terms that c_i sums, and Psi weighs grad G_0 by
    1 / ((sigma^2 + G_0) ln 2) and each eavesdropper's by
    -1 / ((sigma^2 + sum_i G_i) ln 2).  Im(conj(c_i) t_in) is formed
    before any weight, so a gain that cannot move, as with one antenna
    (c_i = t_i1), gives an exact zero.  Returns the (K, N) gradients.
    """
    sigma2 = scenario.noise_power
    weights = np.empty_like(gains)
    weights[0] = 1.0 / (sigma2 + gains[0])
    weights[1:] = -1.0 / (sigma2 + _angle_sum(gains[1:]))
    weights *= ((2.0 * TWO_PI / scenario.wavelength / LN2)
                * scenario.cosines)[:, None]
    return _angle_sum(weights[..., None] * (c[0][..., None] * terms[1]
                                            - c[1][..., None] * terms[0]))


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
    gains = _squared_inner(a[None], W)[2][0]
    return gains if np.ndim(x) == 2 else float(gains[0])


def rate_difference(x, w, scenario: Scenario):
    """Unclamped secrecy objective in bps/Hz.

    log2(1 + G_0 / sigma^2) - log2(1 + sum_i G_i / sigma^2) with the
    eavesdropper gains summed (colluding case), computed as ``_psi``
    does.  May be negative; the reported secrecy rate clamps it at zero.
    A float for one layout, a (K,) array for (K, N) stacks, as
    ``beam_gain`` takes them.  The gains of every angle come from one
    steering evaluation (``_angle_steering``), and each row of a stack
    has the bits of that layout's own call.
    """
    X, W = _stack_of_one(x, w)
    gains = _squared_inner(_angle_steering(X, scenario), W)[2]
    diff = _psi(gains, scenario.noise_power)
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
