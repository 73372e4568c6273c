import json

import numpy as np
import pytest

from masec import (GridSpec, InfeasibleError, Scenario, beam_gain,
                   build_forms, check_beamformer, check_positions,
                   grid_search, initial_positions, load_solution,
                   mrt_beamformer, optimal_beamformer, optimize_positions,
                   project_positions, random_positions, rate_difference,
                   real_lift, secrecy_rate, solve, solve_beamformer,
                   solve_fpa, steering_vector)
from masec.beamformer import best_gap_layout
from masec.driver import scan_start


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
    (float, lambda tmp: best_gap_layout(3, SMALL, 10, 0.1)[0]),
    (float, lambda tmp: optimize_positions(X3, W3, SMALL)[0]),
    (float, lambda tmp: solve(3, SMALL).final_x),
    (complex, lambda tmp: solve(3, SMALL).final_w),
    (float, lambda tmp: grid_search(SMALL, GridSpec(0.05, 3))[0]),
    (complex, lambda tmp: grid_search(SMALL, GridSpec(0.05, 3))[1]),
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
