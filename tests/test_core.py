import dataclasses
import json

import numpy as np
import pytest

from masec import (InfeasibleError, Scenario, SolveConfig,
                   beam_gain, build_forms, check_beamformer, check_positions,
                   fd_gradient, gradient_psi, grid_search, initial_positions,
                   load_solution, mrt_beamformer, objective_psi,
                   optimal_beamformer, optimize_positions, project_positions,
                   random_positions, rate_difference, real_lift, secrecy_rate,
                   solve, solve_beamformer, solve_fpa, steering_vector)
from masec.beamformer import best_gap_layout, best_secrecy_rates
from masec.core import TWO_PI, _angle_steering
from masec.driver import scan_start

ALGORITHM_1 = SolveConfig(ascent="alternating")


class TestSteeringVector:
    def test_broadside_zero_phase(self):
        a = steering_vector([0.0, 0.5], np.pi / 2)
        assert np.allclose(a, [1.0, 1.0], atol=1e-12)

    def test_half_wavelength_endfire(self):
        a = steering_vector([0.0, 0.5], 0.0)
        assert np.allclose(a, [1.0, -1.0], atol=1e-12)

    def test_direct_phase(self):
        a = steering_vector([0.25], np.pi / 3)
        assert np.allclose(a, [np.exp(1j * np.pi / 4)], atol=1e-12)

    def test_unit_modulus(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(0.0, 10.0, size=rng.integers(1, 9))
            a = steering_vector(x, rng.uniform(0.0, np.pi),
                                rng.uniform(0.1, 3.0))
            assert np.max(np.abs(np.abs(a) - 1.0)) <= 1e-12

    def test_angle_aliasing(self):
        # gain depends on theta only through cos(theta)
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 10.0, size=5)
        theta = 0.3 * np.pi
        assert np.allclose(steering_vector(x, theta),
                           steering_vector(x, 2.0 * np.pi - theta), atol=1e-9)

    @pytest.mark.parametrize("x,theta,lam", [
        ([np.nan, 1.0], 1.0, 1.0),
        ([0.0, 1.0], np.inf, 1.0),
        ([0.0, 1.0], 1.0, 0.0),
        ([0.0, 1.0], 1.0, -2.0),
        ([0.0, 1.0], np.array([[0.3], [np.nan]]), 1.0),
    ])
    def test_rejects_bad_input(self, x, theta, lam):
        with pytest.raises(ValueError):
            steering_vector(x, theta, lam)


class TestBeamGain:
    def test_mrt_peak_is_n_times_power(self):
        scn = Scenario(bob_angle=np.pi / 3, eve_angles=(np.pi / 4,),
                       power_budget=2.5)
        x = check_positions([0.0, 0.6, 1.7, 2.9], scn)
        w = mrt_beamformer(x, scn)
        assert beam_gain(x, w, scn.bob_angle, scn) == pytest.approx(
            4 * 2.5, rel=1e-12)

    def test_orthogonal_pair_null(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        w = np.sqrt(1.0) * np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert beam_gain([0.0, 0.5], w, np.pi / 2, scn) <= 1e-25

    def test_matches_real_lift_gains(self, make_scenario, make_beamformer):
        rng = np.random.default_rng(2)
        for _ in range(100):
            scn = make_scenario(rng)
            n = int(rng.integers(1, 8))
            x = rng.uniform(0.0, scn.aperture, size=n)
            w = make_beamformer(n, scn, rng)
            gains = real_lift(x, w, scn).gains()
            for i, theta in enumerate(scn.angles):
                direct = beam_gain(x, w, theta, scn)
                assert abs(gains[i] - direct) <= 1e-9 * max(1.0, direct)

    def test_global_phase_invariance(self, make_scenario, make_beamformer):
        rng = np.random.default_rng(3)
        scn = make_scenario(rng)
        x = rng.uniform(0.0, 10.0, size=4)
        w = make_beamformer(4, scn, rng)
        for phi in rng.uniform(0.0, 2.0 * np.pi, size=5):
            assert beam_gain(x, w * np.exp(1j * phi), 1.1, scn) == \
                pytest.approx(beam_gain(x, w, 1.1, scn), rel=1e-12)

    def test_translation_invariance(self, make_scenario, make_beamformer):
        rng = np.random.default_rng(4)
        scn = make_scenario(rng)
        x = rng.uniform(0.0, 5.0, size=4)
        w = make_beamformer(4, scn, rng)
        g = beam_gain(x, w, 0.8, scn)
        assert beam_gain(x + 3.0, w, 0.8, scn) == pytest.approx(g, rel=1e-9)

    def test_dimension_mismatch(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        with pytest.raises(ValueError, match="dimensions disagree"):
            beam_gain([0.0, 0.5, 1.0], [1.0, 0.0], np.pi / 2, scn)


class TestStackedEvaluation:
    """``beam_gain`` and ``rate_difference`` on (K, N) stacks: each row has
    the bits of its one-layout call."""

    @pytest.fixture
    def stack(self, make_scenario, make_beamformer):
        rng = np.random.default_rng(6)
        scn = make_scenario(rng, m=3)
        X = np.array([random_positions(4, scn, rng) for _ in range(7)])
        W = np.array([make_beamformer(4, scn, rng) for _ in range(7)])
        return scn, X, W

    def test_gains_match_rows(self, random_stacks):
        rows = 0
        for scn, X, W in random_stacks():
            for theta in scn.angles:
                gains = beam_gain(X, W, theta, scn)
                assert gains.shape == (len(X),)
                assert np.array_equal(
                    gains, [beam_gain(x, w, theta, scn) for x, w in zip(X, W)])
            rows += len(X)
        assert rows > 2000

    def test_rates_match_rows(self, random_stacks):
        for scn, X, W in random_stacks():
            for fn in (rate_difference, secrecy_rate):
                rates = fn(X, W, scn)
                assert rates.shape == (len(X),)
                assert np.array_equal(
                    rates, [fn(x, w, scn) for x, w in zip(X, W)])

    def test_angle_column_gives_one_gain_per_row(self, stack):
        scn, X, W = stack
        thetas = np.linspace(0.0, np.pi, len(X))
        gains = beam_gain(X, W, thetas[:, None], scn)
        assert np.array_equal(gains, [beam_gain(x, w, t, scn)
                                      for x, w, t in zip(X, W, thetas)])
        with pytest.raises(ValueError, match="one angle per row"):
            beam_gain(X[0], W[0], thetas[:, None], scn)
        with pytest.raises(ValueError):
            beam_gain(X[:2], W[:2], thetas[:, None], scn)

    def test_one_layout_returns_a_float(self, stack):
        scn, X, W = stack
        assert type(beam_gain(X[0], W[0], scn.bob_angle, scn)) is float
        assert type(rate_difference(X[0], W[0], scn)) is float

    @pytest.mark.parametrize("fn", ["gain", "rate"])
    def test_rejects_mismatched_and_3d_input(self, stack, fn):
        scn, X, W = stack
        call = {"gain": lambda x, w: beam_gain(x, w, scn.bob_angle, scn),
                "rate": lambda x, w: rate_difference(x, w, scn)}[fn]
        for x, w in ((X, W[:-1]), (X, W[:, :-1]), (X[0], W),
                     (X[None], W[None])):
            with pytest.raises(ValueError, match="dimensions disagree"):
                call(x, w)


class TestSecrecyRate:
    def test_identical_bob_eve_clamps_to_zero(self):
        scn = Scenario(bob_angle=np.pi / 3, eve_angles=(np.pi / 3,))
        x = [0.0, 0.5, 1.0]
        assert secrecy_rate(x, mrt_beamformer(x, scn), scn) == 0.0

    def test_eve_dominant_clamps_to_zero(self):
        # beamformer aimed straight at the eavesdropper
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.0,))
        x = [0.0, 0.5]
        w = np.array([1.0, -1.0]) / np.sqrt(2.0)  # MRT toward theta=0
        assert rate_difference(x, w, scn) < 0.0
        assert secrecy_rate(x, w, scn) == 0.0

    def test_exact_log_values(self):
        # gains split over orthogonal steering vectors: G0 = 3, sum G = 1
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.0,), power_budget=2.0)
        x = [0.0, 0.5]
        alpha, beta = np.sqrt(3.0) / 2.0, 0.5
        w = alpha * np.array([1.0, 1.0]) + beta * np.array([1.0, -1.0])
        assert secrecy_rate(x, w, scn) == pytest.approx(1.0, abs=1e-12)

    def test_clamp_matches_unclamped_sign(self, make_scenario, make_beamformer):
        rng = np.random.default_rng(5)
        for _ in range(200):
            scn = make_scenario(rng)
            n = int(rng.integers(1, 6))
            x = rng.uniform(0.0, scn.aperture, size=n)
            w = make_beamformer(n, scn, rng)
            raw = rate_difference(x, w, scn)
            rate = secrecy_rate(x, w, scn)
            assert rate >= 0.0
            assert rate == max(raw, 0.0)

    def test_stack_matches_rows(self, make_scenario, make_beamformer):
        rng = np.random.default_rng(9)
        scn = make_scenario(rng, m=2)
        X = np.array([random_positions(4, scn, rng) for _ in range(12)])
        W = np.array([make_beamformer(4, scn, rng) for _ in range(12)])
        # the first rows beam at an eavesdropper, so their rates clamp to 0
        a = steering_vector(X[:4], scn.eve_angles[0], scn.wavelength)
        W[:4] = np.sqrt(scn.power_budget / 4) * a
        rates = secrecy_rate(X, W, scn)
        assert rates.shape == (12,)
        assert (rates[:4] == 0.0).all() and (rates[4:] >= 0.0).all()
        rows = [secrecy_rate(x, w, scn) for x, w in zip(X, W)]
        assert all(type(r) is float for r in rows)
        assert rates == pytest.approx(rows, rel=1e-13, abs=1e-13)


class TestScenarioValidation:
    def test_requires_eve(self):
        with pytest.raises(ValueError):
            Scenario(bob_angle=np.pi / 2, eve_angles=())

    @pytest.mark.parametrize("kw", [
        dict(bob_angle=np.pi),          # outside [0, pi)
        dict(bob_angle=-0.1),
        dict(noise_power=0.0),
        dict(power_budget=-1.0),
        dict(wavelength=0.0),
        dict(min_spacing=0.0),
        dict(aperture=-5.0),
    ])
    def test_rejects_bad_fields(self, kw):
        base = dict(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        base.update(kw)
        with pytest.raises(ValueError):
            Scenario(**base)

    @pytest.mark.parametrize("kw, message", [
        (dict(wavelength=1e200), "wavelength must lie in"),
        (dict(wavelength=1.1e150, aperture=1e151), "wavelength must lie in"),
        (dict(wavelength=1e-200, aperture=1e-199), "wavelength must lie in"),
        (dict(wavelength=1e-310, aperture=1e-309), "wavelength must lie in"),
        (dict(wavelength=1e-100, aperture=1e300), "aperture must be at most"),
        (dict(aperture=2e150), "aperture must be at most"),
    ])
    def test_rejects_lengths_the_arithmetic_cannot_carry(self, kw, message):
        base = dict(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        with pytest.raises(ValueError, match=message):
            Scenario(**base, **kw)

    @pytest.mark.parametrize("wavelength", [1e-150, 1e150])
    def test_accepts_the_ends_of_the_wavelength_range(self, wavelength):
        # lambda^2 and 2 pi / lambda are normal floats at both ends
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,),
                       wavelength=wavelength, aperture=10.0 * wavelength,
                       min_spacing=0.5 * wavelength)
        for v in (scn.wavelength ** 2, TWO_PI / scn.wavelength):
            assert np.finfo(float).tiny <= v <= np.finfo(float).max

    @pytest.mark.parametrize("kw, message", [
        (dict(power_budget=1e-310), "power_budget must be in"),
        (dict(power_budget=1.1e300, noise_power=1e300),
         "power_budget must be in"),
        (dict(noise_power=1e-310), "noise_power must be in"),
        (dict(noise_power=1.1e300, power_budget=1e300),
         "noise_power must be in"),
        (dict(power_budget=1.1e150), "power_budget / noise_power must be in"),
        (dict(power_budget=1e-300, noise_power=1.1),
         "power_budget / noise_power must be in"),
        # rho past the floats: to inf, to 0 and to a subnormal
        (dict(power_budget=1e300, noise_power=1e-300),
         "power_budget / noise_power must be in"),
        (dict(power_budget=1e-200, noise_power=1e200),
         "power_budget / noise_power must be in"),
        (dict(power_budget=1e-160, noise_power=1e160),
         "power_budget / noise_power must be in"),
    ])
    def test_rejects_powers_the_arithmetic_cannot_carry(self, kw, message):
        base = dict(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        with pytest.raises(ValueError, match=message):
            Scenario(**base, **kw)

    @pytest.mark.parametrize("power_budget, noise_power", [
        # the corners of the accepted range
        (1e-300, 1e-300), (1e-300, 1.0), (1.0, 1e300), (1e300, 1e300),
        (1e300, 1e150), (1e-150, 1e-300),
        # the powers that the tests and CI run
        (1e-200, 1.0), (1.0, 1e200), (1e16, 1.0), (1e-12, 1.0), (1.0, 1e6),
    ])
    def test_accepts_the_ends_of_the_power_ranges(self, power_budget,
                                                  noise_power):
        # I / P_A, the forms' 1 / sigma^2 and rho are normal floats
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,),
                       power_budget=power_budget, noise_power=noise_power)
        for v in (1.0 / scn.power_budget, 1.0 / scn.noise_power,
                  scn.power_budget / scn.noise_power):
            assert np.finfo(float).tiny <= v <= np.finfo(float).max

    def test_feasibility_check(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        scn.check_feasible(21)  # (21 - 1) * 0.5 == L exactly
        with pytest.raises(InfeasibleError):
            scn.check_feasible(22)


class TestAntennaPositions:
    def test_unsorted_input_warns_and_sorts(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        with pytest.warns(UserWarning, match="unsorted"):
            pos = check_positions([1.0, 0.0, 2.5], scn)
        assert np.array_equal(pos, [0.0, 1.0, 2.5])

    def test_spacing_violation_rejected(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        with pytest.raises(ValueError, match="spacing"):
            check_positions([0.0, 0.3], scn)

    def test_box_violation_rejected(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        with pytest.raises(ValueError, match="outside"):
            check_positions([0.0, 10.5], scn)

    def test_immutable(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        pos = check_positions([0.0, 0.5], scn)
        with pytest.raises(ValueError):
            pos[0] = 3.0

    def test_stack_checked_row_by_row(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        X = check_positions([[0.0, 0.5, 1.0], [1.0, 2.0, 3.0]], scn, stack=True)
        assert np.array_equal(X, [[0.0, 0.5, 1.0], [1.0, 2.0, 3.0]])
        assert not X.flags.writeable
        # a stack's rows are not sorted for it; the message shows the row
        with pytest.raises(ValueError, match=r"sorted ascending: \[1\. 0\.\]"):
            check_positions([[0.0, 1.0], [1.0, 0.0]], scn, stack=True)
        with pytest.raises(ValueError, match=r"non-empty \(K, N\) stack"):
            check_positions(np.zeros((1, 1, 2)), scn, stack=True)

    @pytest.mark.parametrize("values, error, match", [
        ([], ValueError, "non-empty 1-D"),
        ([[0.0, 1.0]], ValueError, "non-empty 1-D"),
        ([0.0, np.nan], ValueError, "finite"),
        (np.arange(22.0), InfeasibleError, "cannot hold 22"),
    ])
    def test_malformed_input_rejected(self, values, error, match):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        with pytest.raises(error, match=match):
            check_positions(values, scn)


class TestBeamformerType:
    def test_power_invariant_enforced(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,),
                       power_budget=2.0)
        check_beamformer(np.array([1.0, 1.0j]), scn)
        with pytest.raises(ValueError, match="power budget"):
            check_beamformer(np.array([1.0, 0.5]), scn)

    @pytest.mark.parametrize("values, match", [
        ([], "non-empty 1-D"),
        ([[1.0, 0.0]], "non-empty 1-D"),
        ([1.0, np.inf], "finite"),
    ])
    def test_malformed_input_rejected(self, values, match):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        with pytest.raises(ValueError, match=match):
            check_beamformer(values, scn)


# N=3 on a short aperture keeps the scan and the grid small
SMALL = Scenario(bob_angle=np.pi / 2, eve_angles=(0.55 * np.pi, 0.25 * np.pi),
                 aperture=2.0)
X3 = np.array([0.0, 0.7, 1.5])
W3 = np.full(3, 1.0 / np.sqrt(3.0), dtype=complex)


def _loaded(tmp_path):
    path = tmp_path / "solution.json"
    path.write_text(json.dumps({
        "final_x": X3.tolist(),
        "final_w": [[c.real, c.imag] for c in W3], "final_rate": 0.0}))
    return load_solution(path)


@pytest.mark.parametrize("kind, make", [
    (float, lambda tmp: initial_positions(3, SMALL)),
    (float, lambda tmp: random_positions(3, SMALL, np.random.default_rng(0))),
    (float, lambda tmp: project_positions([1.5, 0.0, 0.2], SMALL)),
    (float, lambda tmp: scan_start(3, SMALL)),
    (float, lambda tmp: best_gap_layout(3, SMALL, 10, 0.1)[0][0]),
    (float, lambda tmp: optimize_positions(X3, W3, SMALL, SolveConfig())[0]),
    (float, lambda tmp: solve(3, SMALL, ALGORITHM_1).final_x),
    (complex, lambda tmp: solve(3, SMALL, ALGORITHM_1).final_w),
    (float, lambda tmp: grid_search(SMALL, 3, 0.05)[0]),
    (complex, lambda tmp: grid_search(SMALL, 3, 0.05)[1]),
    (complex, lambda tmp: optimal_beamformer(build_forms(X3, SMALL), SMALL)),
    (complex, lambda tmp: solve_beamformer(build_forms(X3, SMALL),
                                           SMALL).beamformer),
    (complex, lambda tmp: mrt_beamformer(X3, SMALL)),
    (complex, lambda tmp: solve_fpa(3, SMALL)[0]),
    (float, lambda tmp: _loaded(tmp)[0]),
    (complex, lambda tmp: _loaded(tmp)[1]),
    (float, lambda tmp: check_positions(X3.tolist(), SMALL)),
    (complex, lambda tmp: check_beamformer(W3.tolist(), SMALL)),
], ids=["initial_positions", "random_positions", "project_positions",
        "scan_start", "best_gap_layout", "optimize_positions",
        "solve.final_x", "solve.final_w", "grid_search.x", "grid_search.w",
        "optimal_beamformer", "solve_beamformer", "mrt_beamformer",
        "solve_fpa", "load_solution.x", "load_solution.w",
        "check_positions", "check_beamformer"])
def test_layouts_and_beamformers_are_read_only_arrays(kind, make, tmp_path):
    arr = make(tmp_path)
    assert type(arr) is np.ndarray
    assert arr.shape == (3,) and arr.dtype == kind
    assert not arr.flags.writeable


PAIR_CALLS = {
    "beam_gain": lambda x, w, scn: beam_gain(x, w, scn.bob_angle, scn),
    "rate_difference": rate_difference,
    "secrecy_rate": secrecy_rate,
    "objective_psi": objective_psi,
    "gradient_psi": gradient_psi,
    "real_lift": real_lift,
    "fd_gradient": fd_gradient,
    "optimize_positions": lambda x, w, scn: optimize_positions(
        x, w, scn, SolveConfig()),
}


@pytest.mark.parametrize("x, w, message", [
    pytest.param([], [], "dimensions disagree", id="empty"),
    pytest.param(np.empty((0, 2)), np.empty((0, 2)), "dimensions disagree",
                 id="empty-stack"),
    pytest.param(0.3, 1.0, "dimensions disagree", id="0-d"),
    pytest.param([[[0.0, 0.7]]], [[[1.0, 0.0]]], "dimensions disagree",
                 id="3-d"),
    pytest.param([0.0, 0.7], [1.0, 0.0, 0.0], "dimensions disagree",
                 id="mismatched"),
    pytest.param([[0.0, 0.7]], [1.0, 0.0], "dimensions disagree",
                 id="stack-and-layout"),
    pytest.param([0.0, np.nan], [1.0, 0.0], "finite", id="not-finite"),
    pytest.param([0.0, 0.7], [np.nan, 1.0],
                 "beamformer weights must be finite", id="nan-beamformer"),
    pytest.param([0.0, 0.7], [np.inf, 1.0],
                 "beamformer weights must be finite", id="inf-beamformer"),
])
@pytest.mark.parametrize("fn", PAIR_CALLS)
def test_every_positions_beamformer_input_is_checked_by_one_rule(fn, x, w,
                                                                 message):
    # one layout and its beamformer, or (K, N) stacks of one shape, non-empty
    # and finite: an empty input once gave a rate of 0 or an empty gradient,
    # and a 0-d one a gain
    scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
    with pytest.raises(ValueError, match=message):
        PAIR_CALLS[fn](x, w, scn)


STEERING_CALLS = {
    "steering_vector": lambda X, scn: steering_vector(X, scn.bob_angle,
                                                      scn.wavelength),
    "build_forms": build_forms,
    "best_secrecy_rates": best_secrecy_rates,
    "rate_difference": lambda X, scn: rate_difference(
        X, np.ones(X.shape, dtype=complex), scn),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("fn", STEERING_CALLS)
def test_public_steering_callers_reject_non_finite_positions(fn, bad):
    # the internal steering evaluation checks only the positions; each
    # public entry point still rejects them, one layout or a stack
    scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
    for X in (np.array([[0.0, bad]]), np.array([[0.0, 0.7], [0.0, bad]])):
        with pytest.raises(ValueError, match="positions must be finite"):
            STEERING_CALLS[fn](X, scn)


def test_replaced_scenario_gets_its_own_cached_phases():
    scn = Scenario(bob_angle=np.pi / 3, eve_angles=(np.pi / 4, 0.6 * np.pi))
    other = dataclasses.replace(scn, wavelength=2.0, eve_angles=(0.2,))
    assert np.array_equal(other.angles, [np.pi / 3, 0.2])
    assert np.array_equal(other.cosines, np.cos(other.angles))
    assert np.array_equal(other.steering_phases,
                          1j * (TWO_PI / 2.0) * np.cos(other.angles))
    x = np.array([0.0, 0.7, 1.9])
    for s in (scn, other):
        assert not (s.angles.flags.writeable or s.cosines.flags.writeable
                    or s.steering_phases.flags.writeable)
        # the cached phases give the bits of steering_vector on the angles
        assert np.array_equal(
            _angle_steering(x, s),
            steering_vector(x, s.angles[:, None], s.wavelength))
    assert not np.array_equal(_angle_steering(x, other)[0],
                              _angle_steering(x, scn)[0])
