import numpy as np
import pytest

from masec import (InfeasibleError, PgaConfig, Scenario, SolveConfig,
                   beam_gain, build_forms, initial_positions, objective_psi,
                   optimal_beamformer,
                   random_positions, secrecy_rate, solve, solve_fpa)


class TestInitialPositions:
    def test_paper_layout(self, paper_n4):
        assert np.array_equal(initial_positions(4, paper_n4),
                              [0.0, 0.5, 1.0, 1.5])

    def test_single_antenna(self, paper_n4):
        assert np.array_equal(initial_positions(1, paper_n4), [0.0])

    def test_boundary_fill(self, paper_n4):
        x = initial_positions(21, paper_n4)
        assert x[-1] == 10.0
        assert np.allclose(np.diff(x), 0.5)

    def test_infeasible(self, paper_n4):
        with pytest.raises(InfeasibleError):
            initial_positions(22, paper_n4)


class TestSolve:
    def test_paper_n4_reaches_reference_rate(self, paper_n4):
        trace = solve(4, paper_n4)
        assert trace.converged
        # the optimum of this scenario is capped by log2(1 + N P_A / sigma^2)
        assert trace.final_rate <= np.log2(5.0) + 1e-9
        assert trace.final_rate > 2.32

    def test_outer_rates_non_decreasing(self, paper_n4, paper_n3,
                                        make_scenario):
        rng = np.random.default_rng(30)
        cases = [(4, paper_n4), (3, paper_n3)]
        cases += [(int(rng.integers(2, 6)), make_scenario(rng))
                  for _ in range(8)]
        for n, scn in cases:
            trace = solve(n, scn)
            rates = [r.rate_after_x for r in trace.outer]
            assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))
            # the w-step is an exact maximizer given x
            for rec, prev in zip(trace.outer[1:], rates):
                assert rec.rate_after_w >= prev - 1e-9

    def test_rate_after_w_is_the_secrecy_rate_at_the_start(self, paper_n4,
                                                          make_scenario):
        rng = np.random.default_rng(31)
        cases = [(4, paper_n4), (2, Scenario(bob_angle=1.0, eve_angles=(1.0,)))]
        cases += [(int(rng.integers(1, 7)), make_scenario(rng))
                  for _ in range(6)]
        cfg = SolveConfig(pga=PgaConfig(max_inner_iters=20), max_outer_iters=1)
        for n, scn in cases:
            x0 = random_positions(n, scn, rng)
            w = optimal_beamformer(build_forms(x0, scn), scn)
            trace = solve(n, scn, cfg, x0=x0)
            assert trace.outer[0].rate_after_w == secrecy_rate(x0, w, scn)

    def test_final_rate_consistency(self, paper_n4):
        trace = solve(4, paper_n4)
        assert trace.final_rate == secrecy_rate(trace.final_x, trace.final_w,
                                                paper_n4)
        assert trace.final_rate == max(
            objective_psi(trace.final_x, trace.final_w, paper_n4), 0.0)

    def test_identical_bob_eve_gives_zero(self):
        scn = Scenario(bob_angle=np.pi / 3, eve_angles=(np.pi / 3,))
        assert solve(3, scn).final_rate == 0.0

    def test_dominates_fpa(self, paper_n4, paper_n3, make_scenario):
        rng = np.random.default_rng(31)
        cases = [(4, paper_n4), (3, paper_n3)]
        cases += [(int(rng.integers(2, 6)), make_scenario(rng))
                  for _ in range(10)]
        for n, scn in cases:
            ma = solve(n, scn).final_rate
            _, fpa = solve_fpa(n, scn)
            assert ma >= fpa - 1e-9

    def test_trace_shape(self, paper_n4):
        trace = solve(4, paper_n4)
        assert len(trace.inner) == trace.n_outer
        assert [r.iteration for r in trace.outer] == \
            list(range(1, trace.n_outer + 1))

    def test_nonconvergence_reported(self, paper_n4):
        cfg = SolveConfig(pga=PgaConfig(max_inner_iters=5),
                          max_outer_iters=1)
        trace = solve(4, paper_n4, cfg)
        assert not trace.converged
        assert trace.n_outer == 1

    def test_converged_on_the_cap_round(self, paper_n4):
        trace = solve(4, paper_n4)
        rounds = trace.n_outer
        assert trace.converged and rounds >= 2
        capped = solve(4, paper_n4, SolveConfig(max_outer_iters=rounds))
        assert capped.converged
        assert capped.n_outer == rounds
        assert capped.final_rate == trace.final_rate
        short = solve(4, paper_n4, SolveConfig(max_outer_iters=rounds - 1))
        assert not short.converged

    def test_no_slack_keeps_fpa_layout(self, paper_n4):
        # one antenna, or 21 filling [0, 10] at d_min: no gap can widen
        for n in (1, 21):
            trace = solve(n, paper_n4)
            assert np.array_equal(trace.final_x,
                                  initial_positions(n, paper_n4))
            assert trace.final_rate == solve_fpa(n, paper_n4)[1]
        with pytest.raises(InfeasibleError):
            solve(22, paper_n4)

    def test_infeasible_start_rejected(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 2,))
        with pytest.raises(ValueError, match="d_min"):
            solve(3, scn, x0=[3.0, 3.1, 12.0])

    def test_extra_starts_match_single_solves(self, paper_n3, make_scenario):
        # default tolerances: chains stop at different inner steps and rounds
        rng = np.random.default_rng(34)
        cases = [(3, paper_n3)] + [(n, make_scenario(rng)) for n in (4, 5, 6)]
        rounds, winners = set(), set()
        for n, scn in cases:
            starts = np.array([random_positions(n, scn, rng)
                               for _ in range(4)])
            trace = solve(n, scn, x0=starts[0], extra_starts=starts[1:])
            singles = [solve(n, scn, x0=x0) for x0 in starts]
            rates = [t.final_rate for t in singles]
            best = singles[rates.index(max(rates))]
            assert trace.outer == best.outer
            assert len(trace.inner) == len(best.inner)
            for psi, expected in zip(trace.inner, best.inner):
                assert np.array_equal(psi, expected)
            assert np.array_equal(trace.final_x, best.final_x)
            assert np.array_equal(trace.final_w, best.final_w)
            assert trace.converged == best.converged
            rounds |= {t.n_outer for t in singles}
            winners.add(rates.index(max(rates)))
        assert len(rounds) > 1 and winners != {0}

    def test_extra_starts_shape_checked(self, paper_n4):
        x0 = initial_positions(4, paper_n4)
        with pytest.raises(ValueError, match="extra starts"):
            solve(4, paper_n4, x0=x0, extra_starts=x0[:3][None, :])
        for bad in (np.vstack([x0, x0 + 1.0]), x0[:3]):
            with pytest.raises(ValueError, match="one layout of 4"):
                solve(4, paper_n4, x0=bad)

    def test_custom_start(self, paper_n4):
        from masec import check_positions
        x0 = check_positions([0.0, 1.0, 2.0, 3.0], paper_n4)
        trace = solve(4, paper_n4, x0=x0)
        assert trace.final_rate >= secrecy_rate(
            x0, trace.final_w, paper_n4) - 1e-9


class TestSolveFpa:
    def test_paper_n4_near_nulls(self, paper_n4):
        # with four elements the uniform array also steers nulls at the Eves
        w, rate = solve_fpa(4, paper_n4)
        x = initial_positions(4, paper_n4)
        g0 = beam_gain(x, w, paper_n4.bob_angle, paper_n4)
        for theta in paper_n4.eve_angles:
            assert beam_gain(x, w, theta, paper_n4) <= 1e-2 * g0
        assert rate > 0.0

    def test_paper_n3_leaks_and_ma_wins(self, paper_n3):
        w_fpa, _ = solve_fpa(3, paper_n3)
        x_fpa = initial_positions(3, paper_n3)
        trace = solve(3, paper_n3)
        theta1 = paper_n3.eve_angles[0]
        ma_g1 = beam_gain(trace.final_x, trace.final_w, theta1, paper_n3)
        fpa_g1 = beam_gain(x_fpa, w_fpa, theta1, paper_n3)
        ma_g0 = beam_gain(trace.final_x, trace.final_w, paper_n3.bob_angle,
                          paper_n3)
        fpa_g0 = beam_gain(x_fpa, w_fpa, paper_n3.bob_angle, paper_n3)
        assert ma_g1 < fpa_g1
        assert ma_g0 > fpa_g0


class TestSolveConfig:
    @pytest.mark.parametrize("kw", [dict(max_outer_iters=0),
                                    dict(outer_tol=0.0)])
    def test_rejects_nonpositive(self, kw):
        with pytest.raises(ValueError):
            SolveConfig(**kw)
