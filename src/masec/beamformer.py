"""Optimal transmit beamformer for fixed antenna positions.

For fixed positions the secrecy objective reduces to a generalized
Rayleigh quotient (1 + w^H A w) / (1 + w^H B w) over ||w||^2 = P_A,
maximized in closed form by the dominant eigenvector of the Hermitian
pencil (A + I/P_A, B + I/P_A).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, islice

import numpy as np

from .core import (AntennaPositions, Beamformer, Scenario, as_coords,
                   as_weights, steering_vector)

# Relative gap under which the top eigenvalue is flagged as degenerate.
DEGENERACY_RTOL = 1e-10

# Matrix entries per batched call in ``best_gap_layout``: the temporaries
# grow as rows * N^2, so larger arrays are scored in fewer rows.
CANDIDATE_CHUNK_ENTRIES = 1024


class EigensolverError(RuntimeError):
    """The eigen decomposition failed to converge."""


@dataclass(frozen=True)
class QuadraticForms:
    """Hermitian PSD quadratic forms of the secrecy objective.

    ``A`` is the rank-1 signal form (1/sigma^2) a_0 a_0^H toward Bob and
    ``B`` the rank-<=M leakage form summed over eavesdropper angles.
    """

    A: np.ndarray
    B: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]


def build_forms(x, scenario: Scenario) -> QuadraticForms:
    """Assemble the signal/leakage forms A and B at the given positions."""
    xs = as_coords(x)
    lam = scenario.wavelength
    sigma2 = scenario.noise_power
    a0 = steering_vector(xs, scenario.bob_angle, lam)
    A = np.outer(a0, a0.conj()) / sigma2
    B = np.zeros((xs.size, xs.size), dtype=complex)
    for theta in scenario.eve_angles:
        ai = steering_vector(xs, theta, lam)
        B += np.outer(ai, ai.conj())
    B /= sigma2
    A.setflags(write=False)
    B.setflags(write=False)
    return QuadraticForms(A=A, B=B)


def rayleigh_objective(forms: QuadraticForms, w, scenario: Scenario) -> float:
    """Value of (1 + w^H A w) / (1 + w^H B w) at the given beamformer."""
    wv = as_weights(w)
    num = 1.0 + float(np.vdot(wv, forms.A @ wv).real)
    den = 1.0 + float(np.vdot(wv, forms.B @ wv).real)
    return num / den


@dataclass(frozen=True)
class BeamformerSolution:
    """Closed-form solve result with eigen diagnostics.

    ``eigenvalue`` is the top generalized eigenvalue, which equals the
    optimal Rayleigh objective; ``degenerate`` flags a (numerically)
    multiple top eigenvalue, in which case any vector of the top
    eigenspace is returned.
    """

    beamformer: Beamformer
    eigenvalue: float
    eigen_gap: float
    degenerate: bool


def solve_beamformer(forms: QuadraticForms, scenario: Scenario) -> BeamformerSolution:
    """Maximize the Rayleigh objective over ||w||^2 = P_A.

    Reduces the pencil (A + I/P_A, B + I/P_A) to a standard Hermitian
    problem through the Cholesky factor of the (positive definite)
    denominator, takes the top eigenpair and maps it back.  The returned
    phase is normalized so the largest-modulus entry is real positive,
    making the output deterministic.
    """
    n = forms.n
    budget = scenario.power_budget
    shift = np.eye(n) / budget
    num = forms.A + shift
    den = forms.B + shift
    try:
        chol = np.linalg.cholesky(den)
        # reduced = L^-1 (A + I/P_A) L^-H, Hermitian with the pencil's spectrum
        reduced = np.linalg.solve(chol, num)
        reduced = np.linalg.solve(chol, reduced.conj().T).conj().T
        reduced = 0.5 * (reduced + reduced.conj().T)
        eigvals, eigvecs = np.linalg.eigh(reduced)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigen decomposition failed: {exc}") from exc
    lam_max = float(eigvals[-1])
    o = np.linalg.solve(chol.conj().T, eigvecs[:, -1])
    o /= np.linalg.norm(o)
    w = np.sqrt(budget) * o
    k = int(np.argmax(np.abs(w)))
    w = w * (w[k].conj() / abs(w[k]))
    w.setflags(write=False)
    if n > 1:
        gap = float(eigvals[-1] - eigvals[-2])
        degenerate = gap <= DEGENERACY_RTOL * max(1.0, abs(lam_max))
    else:
        gap = float("inf")
        degenerate = False
    return BeamformerSolution(beamformer=Beamformer(w), eigenvalue=lam_max,
                              eigen_gap=gap, degenerate=degenerate)


def optimal_beamformer(forms: QuadraticForms, scenario: Scenario) -> Beamformer:
    """Optimal beamformer sqrt(P_A) o_max for the given quadratic forms."""
    return solve_beamformer(forms, scenario).beamformer


def best_secrecy_rates(X, scenario: Scenario) -> np.ndarray:
    """Clamped optimal secrecy rate per candidate position row, batched.

    Row k of the (K, N) array ``X`` is one layout; the result is
    [log2 lambda_max]^+ of its pencil, i.e. the secrecy rate reached by
    the optimal beamformer at that layout.
    """
    k, n = X.shape
    scale = 2.0 * np.pi / scenario.wavelength
    sigma2 = scenario.noise_power

    def outer_forms(theta):
        a = np.exp(1j * scale * np.cos(theta) * X)
        return a[:, :, None] * a[:, None, :].conj()

    A = outer_forms(scenario.bob_angle) / sigma2
    B = np.zeros((k, n, n), dtype=complex)
    for theta in scenario.eve_angles:
        B += outer_forms(theta)
    B /= sigma2
    shift = np.eye(n) / scenario.power_budget
    chol = np.linalg.cholesky(B + shift)
    reduced = np.linalg.solve(chol, A + shift)
    reduced = np.linalg.solve(chol, reduced.conj().transpose(0, 2, 1))
    reduced = 0.5 * (reduced + reduced.conj().transpose(0, 2, 1))
    lam_max = np.linalg.eigvalsh(reduced)[:, -1]
    return np.maximum(np.log2(lam_max), 0.0)


def best_gap_layout(n: int, scenario: Scenario, levels: int, step: float):
    """Highest-rate layout on a gap grid with x_1 = 0.

    Candidates are x_j = (j-1) d_min + step k_j, clipped at L, for every
    non-decreasing integer tuple 0 <= k_2 <= ... <= k_N <= ``levels`` in
    lexicographic order, scored in chunks of about
    ``CANDIDATE_CHUNK_ENTRIES`` matrix entries.  Exact rate ties keep the
    earliest tuple; N = 1 scores its single layout x = [0].

    Returns:
        (AntennaPositions, float): the best layout and its clamped rate.
    """
    rows = max(1, CANDIDATE_CHUNK_ENTRIES // (n * n))
    tuples = combinations_with_replacement(range(levels + 1), n - 1)
    base = scenario.min_spacing * np.arange(1, n, dtype=float)
    best_rate = -np.inf
    best_x = None
    while chunk := list(islice(tuples, rows)):
        X = np.zeros((len(chunk), n))
        X[:, 1:] = np.minimum(base + step * np.array(chunk, dtype=int),
                              scenario.aperture)
        rates = best_secrecy_rates(X, scenario)
        j = int(np.argmax(rates))
        if rates[j] > best_rate:
            best_rate = float(rates[j])
            best_x = X[j].copy()
    best_x.setflags(write=False)
    return AntennaPositions(best_x), best_rate
