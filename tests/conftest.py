import numpy as np
import pytest

from masec import Scenario, random_positions, real_lift
from masec.beamformer import _last_pivot, _pair_phases
from masec.positions import _gradient, _lift_gains


@pytest.fixture
def paper_n4():
    """N=4 reference scenario: Bob at pi/2, Eves at 3pi/4 and pi/4."""
    return Scenario(bob_angle=np.pi / 2, eve_angles=(0.75 * np.pi, 0.25 * np.pi))


@pytest.fixture
def paper_n3():
    """N=3 reference scenario: Bob at pi/2, Eves at 1.1pi/2 and pi/4."""
    return Scenario(bob_angle=np.pi / 2, eve_angles=(0.55 * np.pi, 0.25 * np.pi))


@pytest.fixture
def fig5_scenario():
    """M=3 sweep scenario: Eves at pi/4, 0.85pi/2 and 1.1pi/2."""
    def make(power=1.0):
        return Scenario(bob_angle=np.pi / 2,
                        eve_angles=(0.25 * np.pi, 0.425 * np.pi, 0.55 * np.pi),
                        power_budget=power)
    return make


@pytest.fixture
def make_scenario():
    """Random-scenario factory for property sweeps."""
    def make(rng, m=None, aperture=10.0, min_spacing=0.5):
        m = int(rng.integers(1, 4)) if m is None else m
        return Scenario(
            bob_angle=float(rng.uniform(0.0, np.pi)),
            eve_angles=tuple(float(t) for t in rng.uniform(0.0, np.pi, m)),
            noise_power=float(rng.uniform(0.3, 2.0)),
            power_budget=float(rng.uniform(0.2, 5.0)),
            aperture=aperture,
            min_spacing=min_spacing,
        )
    return make


@pytest.fixture
def make_beamformer():
    """Random power-feasible beamformer factory."""
    def make(n, scenario, rng):
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return w * np.sqrt(scenario.power_budget) / np.linalg.norm(w)
    return make


@pytest.fixture
def random_stacks():
    """Factory of random (scenario, X, W) stacks.

    ``random_stacks(count, seed)`` yields ``count`` stacks at N = 1..9,
    M = 1..5 and K = 1..40 (every fourth K = 1), with sigma^2 in
    [1e-2, 1e2], P_A in [1e-2, 1e10] and power-feasible beamformers.
    """
    def make(count=150, seed=20):
        rng = np.random.default_rng(seed)
        for i in range(count):
            n, m = int(rng.integers(1, 10)), int(rng.integers(1, 6))
            k = 1 if i % 4 == 0 else int(rng.integers(1, 41))
            angles = rng.uniform(0.0, np.pi, m + 1)
            scn = Scenario(bob_angle=float(angles[0]),
                           eve_angles=tuple(angles[1:].tolist()),
                           noise_power=float(10.0 ** rng.uniform(-2.0, 2.0)),
                           power_budget=float(10.0 ** rng.uniform(-2.0, 10.0)),
                           aperture=(n - 1) * 0.5 + float(rng.uniform(0.0, 10.0)))
            X = np.array([random_positions(n, scn, rng) for _ in range(k)])
            W = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
            W *= np.sqrt(scn.power_budget) / np.linalg.norm(W, axis=1,
                                                            keepdims=True)
            yield scn, X, W
    return make


@pytest.fixture
def lift_gradient():
    """Gradient of Psi through the lift, the one Algorithm 1's PGA steps
    along: ``lift_gradient(x, w, scenario)`` for one layout or a stack."""
    def gradient(x, w, scn):
        lift = real_lift(x, w, scn)
        two_k = 2.0 * (2.0 * np.pi / scn.wavelength) * np.cos(scn.angles)
        return _gradient(lift.g, lift.q,
                         *_lift_gains(lift.g, lift.q, lift.C, lift.D),
                         two_k[:, None], scn.noise_power)
    return gradient


@pytest.fixture(scope="session")
def rate_bounds():
    """Reference upper bound log2(1 + t) on the secrecy rate of each layout
    row, ``rate_bounds(X, scenario)``, that the gap scan's table-driven
    bounds are checked against.

    With rho = P_A / sigma^2, a = a(x, theta_0) and the eavesdropper
    steering vectors as the columns of E, t = rho a^H (I + rho E E^H)^-1 a
    satisfies t < lambda_max <= 1 + t by Cauchy-Schwarz in the
    (I + rho E E^H) inner product.  1 + t is the last pivot of
    I + rho Gamma (``_last_pivot``), here with the Gram entries summed
    over the antennas, not gathered from the scan's tables.  The
    computed bound and ``best_secrecy_rates`` keep these inequalities up
    to ``_rate_slack``.
    """
    def bounds(X, scenario):
        X = np.asarray(X, dtype=float)
        gram = _pair_phases(X, scenario).sum(axis=-1)
        return np.log2(_last_pivot(gram, X.shape[-1], scenario,
                                   [scenario.power_budget])[0])
    return bounds
