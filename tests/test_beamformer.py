import numpy as np
import pytest

from masec import (AntennaPositions, EigensolverError, QuadraticForms,
                   Scenario, build_forms, optimal_beamformer,
                   sample_beamformers, secrecy_rate, solve_beamformer,
                   steering_vector)
from masec.beamformer import best_secrecy_rates


def _stationarity_residual(forms, sol, scenario):
    n = forms.n
    shift = np.eye(n) / scenario.power_budget
    wv = sol.beamformer.w
    resid = np.linalg.norm((forms.A + shift) @ wv
                           - sol.eigenvalue * ((forms.B + shift) @ wv))
    return resid / (np.linalg.norm(wv) * np.linalg.norm(forms.A + shift, 2))


class TestBuildForms:
    def test_scalar_case(self):
        scn = Scenario(bob_angle=np.pi / 3, eve_angles=(np.pi / 4, np.pi / 5),
                       noise_power=2.0)
        forms = build_forms([4.2], scn)
        assert forms.A == pytest.approx(np.array([[0.5]]))
        assert forms.B == pytest.approx(np.array([[1.0]]))

    def test_traces(self, make_scenario):
        rng = np.random.default_rng(10)
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.3, 1.1))
        x = rng.uniform(0.0, 10.0, size=4)
        forms = build_forms(x, scn)
        assert np.trace(forms.A).real == pytest.approx(4.0, rel=1e-9)
        assert np.trace(forms.B).real == pytest.approx(8.0, rel=1e-9)

    def test_concrete_two_element(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.0,))
        forms = build_forms([0.0, 0.5], scn)
        assert np.allclose(forms.A, [[1, 1], [1, 1]], atol=1e-12)
        assert np.allclose(forms.B, [[1, -1], [-1, 1]], atol=1e-12)

    def test_hermitian(self, make_scenario):
        rng = np.random.default_rng(11)
        for _ in range(20):
            scn = make_scenario(rng)
            x = rng.uniform(0.0, scn.aperture, size=5)
            forms = build_forms(x, scn)
            for mat in (forms.A, forms.B):
                assert np.linalg.norm(mat - mat.conj().T) <= \
                    1e-12 * np.linalg.norm(mat)


class TestOptimalBeamformer:
    def test_mrt_limit_when_no_leakage(self):
        # B = 0 reduces the solve to the top eigenvector of A
        scn = Scenario(bob_angle=np.pi / 3, eve_angles=(np.pi / 4,),
                       power_budget=2.0)
        a0 = steering_vector([0.0, 0.7, 1.9], np.pi / 3)
        forms = QuadraticForms(A=np.outer(a0, a0.conj()),
                               B=np.zeros((3, 3), dtype=complex))
        w = optimal_beamformer(forms, scn).w
        collinearity = abs(np.vdot(a0, w)) / (np.linalg.norm(a0)
                                              * np.linalg.norm(w))
        assert collinearity == pytest.approx(1.0, abs=1e-12)
        assert np.vdot(w, w).real == pytest.approx(2.0, rel=1e-12)

    def test_orthogonal_steering_pair(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.0,))
        forms = build_forms([0.0, 0.5], scn)
        sol = solve_beamformer(forms, scn)
        assert np.allclose(sol.beamformer.w, [1, 1] / np.sqrt(2), atol=1e-9)
        assert sol.eigenvalue == pytest.approx(3.0, rel=1e-12)
        assert secrecy_rate([0.0, 0.5], sol.beamformer, scn) == \
            pytest.approx(np.log2(3.0), rel=1e-12)

    def test_scalar_case(self):
        scn = Scenario(bob_angle=np.pi / 3, eve_angles=(np.pi / 4, 1.0),
                       power_budget=3.0)
        sol = solve_beamformer(build_forms([1.3], scn), scn)
        w = sol.beamformer.w
        assert w[0].imag == pytest.approx(0.0, abs=1e-12)
        assert w[0].real == pytest.approx(np.sqrt(3.0), rel=1e-12)
        assert sol.eigenvalue == pytest.approx((1 + 3.0) / (1 + 2 * 3.0),
                                               rel=1e-12)

    def test_stationarity(self, make_scenario):
        rng = np.random.default_rng(12)
        for _ in range(25):
            scn = make_scenario(rng)
            n = int(rng.integers(1, 8))
            x = np.sort(rng.uniform(0.0, scn.aperture, size=n))
            forms = build_forms(x, scn)
            sol = solve_beamformer(forms, scn)
            assert _stationarity_residual(forms, sol, scn) <= 1e-8

    def test_beats_random_sampling(self, make_scenario):
        rng = np.random.default_rng(13)
        for seed in range(5):
            scn = make_scenario(rng)
            x = np.sort(rng.uniform(0.0, scn.aperture, size=4))
            forms = build_forms(x, scn)
            sol = solve_beamformer(forms, scn)
            best = sample_beamformers(forms, scn, 10_000, seed)
            assert sol.eigenvalue >= best - 1e-12 * max(1.0, abs(best))

    def test_power_budget(self, make_scenario):
        rng = np.random.default_rng(14)
        for _ in range(10):
            scn = make_scenario(rng)
            x = np.sort(rng.uniform(0.0, scn.aperture, size=3))
            w = optimal_beamformer(build_forms(x, scn), scn)
            assert w.power == pytest.approx(scn.power_budget, rel=1e-10)

    def test_bitwise_determinism(self, paper_n4):
        x = AntennaPositions.create([0.0, 0.9, 1.7, 3.2], paper_n4)
        w1 = optimal_beamformer(build_forms(x, paper_n4), paper_n4).w
        w2 = optimal_beamformer(build_forms(x, paper_n4), paper_n4).w
        assert np.array_equal(w1.view(np.float64), w2.view(np.float64))

    def test_phase_normalization(self, make_scenario):
        rng = np.random.default_rng(15)
        for _ in range(10):
            scn = make_scenario(rng)
            x = np.sort(rng.uniform(0.0, scn.aperture, size=4))
            w = optimal_beamformer(build_forms(x, scn), scn).w
            k = int(np.argmax(np.abs(w)))
            assert w[k].imag == pytest.approx(0.0, abs=1e-12)
            assert w[k].real > 0.0

    def test_degenerate_top_eigenvalue_flagged(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        forms = QuadraticForms(A=np.eye(3, dtype=complex),
                               B=np.zeros((3, 3), dtype=complex))
        sol = solve_beamformer(forms, scn)
        assert sol.degenerate
        assert sol.beamformer.power == pytest.approx(1.0, rel=1e-10)

    def test_solver_failure_is_distinct(self):
        # indefinite denominator breaks the Cholesky step
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        forms = QuadraticForms(A=np.eye(2, dtype=complex),
                               B=-10.0 * np.eye(2, dtype=complex))
        with pytest.raises(EigensolverError):
            solve_beamformer(forms, scn)
        # a budget so large that I/P_A vanishes next to the rank-1 leakage
        huge = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,),
                        power_budget=1e16)
        with pytest.raises(EigensolverError):
            best_secrecy_rates(np.array([[0.0, 0.5, 1.0]] * 2), huge)
