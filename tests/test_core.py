import numpy as np
import pytest

from masec import (AntennaPositions, Beamformer, InfeasibleError, Scenario,
                   beam_gain, mrt_beamformer, rate_difference, real_lift,
                   secrecy_rate, steering_vector)


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
        x = AntennaPositions.create([0.0, 0.6, 1.7, 2.9], scn)
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
            pos = AntennaPositions.create([1.0, 0.0, 2.5], scn)
        assert np.array_equal(pos.x, [0.0, 1.0, 2.5])

    def test_spacing_violation_rejected(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        with pytest.raises(ValueError, match="spacing"):
            AntennaPositions.create([0.0, 0.3], scn)

    def test_box_violation_rejected(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        with pytest.raises(ValueError, match="outside"):
            AntennaPositions.create([0.0, 10.5], scn)

    def test_immutable(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        pos = AntennaPositions.create([0.0, 0.5], scn)
        with pytest.raises(ValueError):
            pos.x[0] = 3.0


class TestBeamformerType:
    def test_power_invariant_enforced(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,),
                       power_budget=2.0)
        Beamformer.create(np.array([1.0, 1.0j]), scn)
        with pytest.raises(ValueError, match="power budget"):
            Beamformer.create(np.array([1.0, 0.5]), scn)
