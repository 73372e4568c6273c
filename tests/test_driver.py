import dataclasses
from pathlib import Path

import numpy as np
import pytest

import masec.beamformer
import masec.core
import masec.driver
import masec.positions
from masec import (InfeasibleError, Scenario, SolveConfig,
                   beam_gain, build_forms, check_positions,
                   initial_positions, load_run_spec, objective_psi,
                   optimal_beamformer, random_positions, run_verification,
                   secrecy_rate, solve, solve_fpa, steering_vector)
from masec.beamformer import best_secrecy_rates
from masec.driver import solve_powers

ALGORITHM_1 = SolveConfig(ascent="alternating")
VALUE = SolveConfig(ascent="value")
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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
        trace = solve(4, paper_n4, ALGORITHM_1)
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
            trace = solve(n, scn, ALGORITHM_1)
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
        cfg = SolveConfig(ascent="alternating", max_inner_iters=20,
                          max_outer_iters=1)
        for n, scn in cases:
            x0 = random_positions(n, scn, rng)
            w = optimal_beamformer(build_forms(x0, scn), scn)
            trace = solve(n, scn, cfg, x0=x0)
            assert trace.outer[0].rate_after_w == secrecy_rate(x0, w, scn)

    @pytest.mark.parametrize("cfg", [
        dataclasses.replace(VALUE, max_outer_iters=6),
        SolveConfig(ascent="alternating", max_inner_iters=30,
                    max_outer_iters=4)], ids=["value", "alternating"])
    def test_reported_rates_are_the_rates_at_the_iterates(self, cfg,
                                                          fig5_scenario):
        # the chains' rates come from one stacked call per round; each must
        # equal the one-layout rate at that chain's iterate, compared with ==
        scn = fig5_scenario()
        rng = np.random.default_rng(35)
        starts = np.array([random_positions(5, scn, rng) for _ in range(6)])
        budget = np.full(len(starts), scn.power_budget)
        chains = masec.driver._ascend_chains(starts.copy(), budget, scn, cfg)
        for k in range(1, cfg.max_outer_iters + 1):
            # a chain follows the same iterates under any round cap, so a
            # run capped at k rounds ends at every chain's k-th iterate
            capped = masec.driver._ascend_chains(
                starts.copy(), budget, scn,
                dataclasses.replace(cfg, max_outer_iters=k))
            for chain, at_k in zip(chains, capped):
                if k <= chain.n_outer:
                    assert chain.outer[k - 1].rate_after_x == secrecy_rate(
                        at_k.final_x, at_k.final_w, scn)
        for chain in chains:
            assert chain.final_rate == secrecy_rate(chain.final_x,
                                                    chain.final_w, scn)

    def test_final_rate_consistency(self, paper_n4):
        trace = solve(4, paper_n4, ALGORITHM_1)
        assert trace.final_rate == secrecy_rate(trace.final_x, trace.final_w,
                                                paper_n4)
        assert trace.final_rate == max(
            objective_psi(trace.final_x, trace.final_w, paper_n4), 0.0)

    def test_identical_bob_eve_gives_zero(self):
        scn = Scenario(bob_angle=np.pi / 3, eve_angles=(np.pi / 3,))
        for cfg in (ALGORITHM_1, VALUE):
            assert solve(3, scn, cfg).final_rate == 0.0

    def test_dominates_fpa(self, paper_n4, paper_n3, make_scenario):
        rng = np.random.default_rng(31)
        cases = [(4, paper_n4), (3, paper_n3)]
        cases += [(int(rng.integers(2, 6)), make_scenario(rng))
                  for _ in range(10)]
        for n, scn in cases:
            ma = solve(n, scn, ALGORITHM_1).final_rate
            _, fpa = solve_fpa(n, scn)
            assert ma >= fpa - 1e-9

    def test_trace_shape(self, paper_n4):
        trace = solve(4, paper_n4, ALGORITHM_1)
        assert len(trace.inner) == trace.n_outer
        assert [r.iteration for r in trace.outer] == \
            list(range(1, trace.n_outer + 1))

    def test_nonconvergence_reported(self, paper_n4):
        cfg = SolveConfig(ascent="alternating", max_inner_iters=5,
                          max_outer_iters=1)
        trace = solve(4, paper_n4, cfg)
        assert not trace.converged
        assert trace.n_outer == 1

    def test_converged_on_the_cap_round(self, paper_n4):
        trace = solve(4, paper_n4, ALGORITHM_1)
        rounds = trace.n_outer
        assert trace.converged and rounds >= 2
        capped = solve(4, paper_n4, SolveConfig(ascent="alternating",
                                                max_outer_iters=rounds))
        assert capped.converged
        assert capped.n_outer == rounds
        assert capped.final_rate == trace.final_rate
        short = solve(4, paper_n4, SolveConfig(ascent="alternating",
                                               max_outer_iters=rounds - 1))
        assert not short.converged

    def test_no_slack_keeps_fpa_layout(self, paper_n4):
        # one antenna, or 21 filling [0, 10] at d_min: no gap can widen
        for n in (1, 21):
            for cfg in (ALGORITHM_1, VALUE):
                trace = solve(n, paper_n4, cfg)
                assert np.array_equal(trace.final_x,
                                      initial_positions(n, paper_n4))
                assert trace.final_rate == solve_fpa(n, paper_n4)[1]
        with pytest.raises(InfeasibleError):
            solve(22, paper_n4, ALGORITHM_1)

    def test_infeasible_start_rejected(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 2,))
        good, bad = [0.0, 1.0, 2.0], [3.0, 3.1, 12.0]
        for cfg in (ALGORITHM_1, VALUE):
            with pytest.raises(ValueError, match="d_min"):
                solve(3, scn, cfg, x0=bad)
            with pytest.raises(ValueError, match="d_min"):
                solve(3, scn, cfg, x0=good, extra_starts=[good, bad])
            with pytest.raises(ValueError, match="sorted ascending"):
                solve(3, scn, cfg, x0=[2.0, 1.0, 0.0])
            with pytest.raises(ValueError, match="outside"):
                solve(3, scn, cfg, x0=[0.0, 1.0, 10.5])

    def test_extra_starts_match_single_solves(self, paper_n3, make_scenario):
        # default tolerances: chains stop at different inner steps and rounds
        rng = np.random.default_rng(34)
        cases = [(3, paper_n3)] + [(n, make_scenario(rng)) for n in (4, 5, 6)]
        rounds, winners = set(), set()
        for n, scn in cases:
            starts = np.array([random_positions(n, scn, rng)
                               for _ in range(4)])
            trace = solve(n, scn, ALGORITHM_1, x0=starts[0],
                          extra_starts=starts[1:])
            singles = [solve(n, scn, ALGORITHM_1, x0=x0) for x0 in starts]
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
            solve(4, paper_n4, ALGORITHM_1, x0=x0,
                  extra_starts=x0[:3][None, :])
        for bad in (np.vstack([x0, x0 + 1.0]), x0[:3]):
            with pytest.raises(ValueError, match="one layout of 4"):
                solve(4, paper_n4, ALGORITHM_1, x0=bad)

    def test_paper_n3_from_the_fpa_layout(self, paper_n3):
        # Algorithm 1 from the uniform layout, as in the reference setup
        trace = solve(3, paper_n3, ALGORITHM_1,
                      x0=initial_positions(3, paper_n3))
        assert trace.final_rate == 1.0430214839778424
        assert trace.n_outer == 47 and trace.converged

    def test_custom_start(self, paper_n4):
        from masec import check_positions
        x0 = check_positions([0.0, 1.0, 2.0, 3.0], paper_n4)
        trace = solve(4, paper_n4, ALGORITHM_1, x0=x0)
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
        trace = solve(3, paper_n3, ALGORITHM_1)
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
                                    dict(outer_tol=0.0),
                                    dict(step_size=0.0),
                                    dict(max_inner_iters=0),
                                    dict(inner_tol=0.0)])
    def test_rejects_nonpositive(self, kw):
        (name,) = kw
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            SolveConfig(**kw)

    def test_ascent(self):
        assert SolveConfig().ascent == "value"
        for bad in ("Value", "", None):
            with pytest.raises(ValueError, match="ascent"):
                SolveConfig(ascent=bad)


class TestValueAscent:
    def test_extra_starts_match_single_solves(self, paper_n3, make_scenario):
        rng = np.random.default_rng(35)
        cases = [(3, paper_n3)] + [(n, make_scenario(rng)) for n in (2, 5, 7)]
        rounds, winners = set(), set()
        for n, scn in cases:
            starts = np.array([random_positions(n, scn, rng)
                               for _ in range(4)])
            trace = solve(n, scn, VALUE, x0=starts[0],
                          extra_starts=starts[1:])
            singles = [solve(n, scn, VALUE, x0=x0) for x0 in starts]
            rates = [t.final_rate for t in singles]
            best = singles[rates.index(max(rates))]
            assert trace.outer == best.outer
            assert len(trace.inner) == len(best.inner)
            for trials, expected in zip(trace.inner, best.inner):
                assert np.array_equal(trials, expected)
            assert np.array_equal(trace.final_x, best.final_x)
            assert np.array_equal(trace.final_w, best.final_w)
            assert trace.converged == best.converged
            rounds |= {t.n_outer for t in singles}
            winners.add(rates.index(max(rates)))
        assert len(rounds) > 1 and winners != {0}

    def test_final_beamformer_is_optimal_at_final_layout(self, paper_n3,
                                                         make_scenario):
        rng = np.random.default_rng(36)
        cases = [(3, paper_n3)] + [(int(rng.integers(2, 7)), make_scenario(rng))
                                   for _ in range(6)]
        for n, scn in cases:
            trace = solve(n, scn, VALUE)
            w = optimal_beamformer(build_forms(trace.final_x, scn), scn)
            assert np.array_equal(trace.final_w, w)
            assert not trace.final_w.flags.writeable
            assert trace.final_rate == secrecy_rate(trace.final_x,
                                                    trace.final_w, scn)

    def test_rounds_raise_the_rate(self, paper_n4, paper_n3, make_scenario):
        rng = np.random.default_rng(37)
        cases = [(4, paper_n4), (3, paper_n3)]
        cases += [(int(rng.integers(2, 7)), make_scenario(rng))
                  for _ in range(8)]
        for n, scn in cases:
            trace = solve(n, scn, VALUE)
            _, fpa = solve_fpa(n, scn)
            assert trace.final_rate >= fpa - 1e-9
            rates = [r.rate_after_x for r in trace.outer]
            assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
            # a round starts where the last one ended
            for rec, prev in zip(trace.outer[1:], rates):
                assert rec.rate_after_w == prev
            for rec, trials in zip(trace.outer, trace.inner):
                assert len(trials) >= 2
                assert rec.rate_after_w == pytest.approx(
                    max(trials[0], 0.0), abs=1e-12)

    def test_stops_when_a_round_gains_nothing(self, paper_n3):
        trace = solve(3, paper_n3, VALUE)
        assert trace.converged and trace.n_outer > 2
        tol = VALUE.inner_tol
        gains = [trials[-1] - trials[0] for trials in trace.inner]
        starts = [trials[0] for trials in trace.inner]
        assert gains[-1] <= tol * max(1.0, abs(starts[-1]))
        assert all(g > tol * max(1.0, abs(f))
                   for g, f in zip(gains[:-1], starts[:-1]))

    def test_round_cap_reported(self, paper_n3):
        trace = solve(3, paper_n3, SolveConfig(ascent="value",
                                               max_outer_iters=1))
        assert trace.n_outer == 1 and not trace.converged

    def test_failed_search_within_rounding_converges(self, monkeypatch):
        # at P_A = 1e10 F is good to about 1e-6 and the rate slack is 3e-4;
        # every trial lands half a slack below F, so the search fails
        # within the rounding of F: a stationary point, in place
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,),
                       power_budget=1e10)
        # gaps of 2 sqrt(2) / 3 null the eavesdropper: the rate is the bound
        x0 = 2.0 * np.sqrt(2.0) / 3.0 * np.arange(3.0)
        drop = 2.0 ** (-0.5 * masec.beamformer._rate_slack(3, scn))
        layout_pass, passes = masec.driver._layout_pass, []

        def lowered(X, scenario, budget):
            lam, finish = layout_pass(X, scenario, budget)
            passes.append(len(X))
            return (lam if len(passes) == 1 else drop * lam), finish
        monkeypatch.setattr(masec.driver, "_layout_pass", lowered)
        trace = solve(3, scn, VALUE, x0=x0)
        assert trace.n_outer == 1 and trace.converged
        trials = trace.inner[0]
        assert len(trials) == 1 + masec.driver.MAX_HALVINGS + 1
        assert max(trials[1:]) < trials[0]
        assert np.array_equal(trace.final_x, x0)
        assert trace.final_rate == trace.outer[0].rate_after_w
        assert trace.final_rate == pytest.approx(34.804243449, abs=1e-9)

    def test_direction_below_the_last_bit_of_f_is_no_step(self, paper_n3,
                                                             monkeypatch):
        # a shift of every antenna leaves F as it is, and g . d is then
        # rounding: a direction whose gain is below the last bit of F is
        # none, so the one trial is the layout itself, accepted with no gain
        monkeypatch.setattr(masec.driver, "_face_directions",
                            lambda H, G, P: np.full_like(G, 1e-3))
        trace = solve(3, paper_n3, SolveConfig(inner_tol=1e-300),
                      x0=initial_positions(3, paper_n3))
        first, second = trace.inner
        assert first[-1] > first[0]
        assert list(second) == [first[-1], first[-1]]
        assert trace.converged
        assert trace.outer[1].rate_after_x == trace.outer[0].rate_after_x

    def test_stationary_start_with_tied_antennas_stays_put(self):
        # with Bob and the eavesdropper at one angle every layout is
        # stationary: the gradient is 0, so the one trial is P(x0), which
        # must be x0 itself.  x0 comes from pooling antennas 1 and 2, whose
        # slack values then tie up to rounding, where a projection that is
        # not idempotent moved antenna 1 by an ulp
        scn = Scenario(bob_angle=np.pi / 3, eve_angles=(np.pi / 3,))
        x0 = masec.positions._project_euclidean(np.array([[1.1, 0.7, 3.3]]),
                                                scn)[0]
        assert x0[1] - x0[0] == pytest.approx(scn.min_spacing)
        trace = solve(3, scn, VALUE, x0=x0)
        assert trace.n_outer == 1 and trace.converged
        assert list(trace.inner[0]) == [trace.inner[0][0]] * 2
        assert np.array_equal(trace.final_x, x0)

    def test_failed_line_search_stops_in_place(self, paper_n3, monkeypatch):
        # no trial can pass an Armijo test this strict
        monkeypatch.setattr(masec.driver, "ARMIJO_C", 1e9)
        x0 = initial_positions(3, paper_n3)
        trace = solve(3, paper_n3, VALUE, x0=x0)
        assert trace.n_outer == 1 and not trace.converged
        assert len(trace.inner[0]) == 1 + masec.driver.MAX_HALVINGS + 1
        assert np.array_equal(trace.final_x, x0)
        assert trace.outer[0].rate_after_x == trace.outer[0].rate_after_w


    def test_one_pass_per_trial_stack(self, fig5_scenario, monkeypatch):
        # a trial stack's beamformers, rates and gradients come from the
        # one steering-vector evaluation and pencil of its line search
        calls = {"_angle_steering": 0, "_pencil": 0, "_layout_pass": 0}

        def counting(module, name):
            fn = getattr(module, name)

            def count(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, count)

        for module, name in ((masec.beamformer, "_angle_steering"),
                             (masec.beamformer, "_pencil"),
                             (masec.driver, "_layout_pass")):
            counting(module, name)
        scn = fig5_scenario(10.0)
        rng = np.random.default_rng(38)
        X = np.array([random_positions(5, scn, rng) for _ in range(4)])
        budget = np.full(len(X), scn.power_budget)
        W, ascend = masec.driver._value_start(X, budget, scn, VALUE)
        assert calls == {"_angle_steering": 1, "_pencil": 1, "_layout_pass": 1}
        rates = secrecy_rate(X, W, scn).tolist()
        live, trials = list(range(len(X))), 0
        while live:
            calls.update(dict.fromkeys(calls, 0))
            records = ascend(live)
            stacks = max(len(trace) for trace, *_ in records) - 1
            assert calls == dict.fromkeys(calls, stacks)
            # a round starts at the rate the last one ended at
            for j, (_, rate_w, rate_x, _) in zip(live, records):
                assert rate_w == rates[j]
                assert rate_x == secrecy_rate(X[j], W[j], scn)
                rates[j] = rate_x
            live = [j for j, (*_, reason) in zip(live, records)
                    if reason is None]
            trials += stacks
        assert trials > 10

    def test_non_finite_trial_layout_is_rejected(self, fig5_scenario,
                                                 monkeypatch):
        # the steering evaluation checks the positions of every trial stack,
        # so a direction that is not finite raises instead of stalling
        scn = fig5_scenario(10.0)
        rng = np.random.default_rng(38)
        X = np.array([random_positions(5, scn, rng) for _ in range(4)])
        _, ascend = masec.driver._value_start(
            X, np.full(len(X), scn.power_budget), scn, VALUE)
        live = list(range(len(X)))
        # the first round's gradient steps give each chain its estimate
        live = [j for j, (*_, reason) in zip(live, ascend(live))
                if reason is None]
        assert live
        monkeypatch.setattr(masec.driver, "_face_directions",
                            lambda H, G, P: np.full(G.shape, np.nan))
        with pytest.raises(ValueError, match="positions must be finite"):
            ascend(live)


def _spd(rng, k, n):
    A = rng.standard_normal((k, n, n))
    return A @ A.transpose(0, 2, 1) + 0.1 * np.eye(n)


class TestQuasiNewton:
    def test_face_direction_is_the_newton_step_on_the_face(self):
        # d = Z (Z^T H^-1 Z)^-1 Z^T g for a basis Z of the face
        rng = np.random.default_rng(39)
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        for _ in range(100):
            n = int(rng.integers(2, 9))
            span = scn.aperture - (n - 1) * scn.min_spacing
            y = np.sort(rng.choice([0.0, span, 1.0, 2.0], size=(4, n)), axis=1)
            X = y + scn.min_spacing * np.arange(n)
            H, G = _spd(rng, 4, n), rng.standard_normal((4, n))
            P = masec.positions._face_projector(X, G, scn)
            D = masec.driver._face_directions(H, G, P)
            for h, g, p, d in zip(H, G, P, D):
                vals, vecs = np.linalg.eigh(p)
                Z = vecs[:, vals > 0.5]
                expected = Z @ np.linalg.solve(Z.T @ np.linalg.solve(h, Z),
                                               Z.T @ g)
                assert np.allclose(d, expected, rtol=1e-8, atol=1e-10)
                assert g @ d >= 0.0
                # antennas that the face holds move by exactly 0
                assert np.all(d[~p.any(axis=1)] == 0.0)

    def test_bfgs_update_meets_the_secant_condition(self):
        rng = np.random.default_rng(40)
        n = 5
        H, S = _spd(rng, 6, n), rng.standard_normal((6, n))
        # the gradient of F falls along s on rows 0-3 and rises on 4-5
        Y = -np.einsum("kij,kj->ki", _spd(rng, 6, n), S)
        Y[4:] *= -1.0
        scaled = np.array([True] * 3 + [False] * 3)
        new, now = masec.driver._bfgs_updates(H.copy(), scaled, S, Y, 1.0)
        assert list(now) == [True] * 4 + [False] * 2
        for k in range(4):
            assert np.allclose(new[k] @ -Y[k], S[k], rtol=1e-10)
            assert np.allclose(new[k], new[k].T)
            assert np.all(np.linalg.eigvalsh(new[k]) > 0.0)
        # no update without positive curvature
        assert np.array_equal(new[4:], H[4:])
        # an estimate not yet scaled starts from -s.y / y.y times I
        gamma = -(S[3] @ Y[3]) / (Y[3] @ Y[3])
        again, _ = masec.driver._bfgs_updates(gamma * np.eye(n)[None],
                                              np.array([True]), S[3:4],
                                              Y[3:4], 1.0)
        assert np.allclose(new[3], again[0], rtol=1e-14)

    def test_first_scaling_is_clipped(self):
        s, y = np.array([[1.0, 0.0]]), np.array([[-1e-12, 0.0]])
        new, _ = masec.driver._bfgs_updates(np.eye(2)[None], np.array([False]),
                                            s, y, 1.0)
        capped, _ = masec.driver._bfgs_updates(
            masec.driver.MAX_STEP * np.eye(2)[None], np.array([True]), s, y,
            1.0)
        assert np.array_equal(new, capped)


class TestSolvePowers:
    @pytest.mark.parametrize("cfg", [VALUE, ALGORITHM_1],
                             ids=["value", "alternating"])
    @pytest.mark.parametrize("n", [3, 5, 6, 7])
    def test_matches_one_solve_per_power(self, n, cfg, fig5_scenario):
        # the sweep_m3 cells with two restarts each, as sweep-n runs them
        scns = [fig5_scenario(p) for p in (1.0, 10.0)]
        extra = []
        for j, scn in enumerate(scns):
            rng = np.random.default_rng([0, n, j])
            extra.append(np.array([random_positions(n, scn, rng)
                                   for _ in range(2)]))
        joint = solve_powers(n, fig5_scenario(), [1.0, 10.0], cfg, extra)
        assert len(joint) == 2
        for scn, starts, trace in zip(scns, extra, joint):
            alone = solve(n, scn, cfg, extra_starts=starts)
            assert trace.outer == alone.outer
            assert trace.n_outer == alone.n_outer
            assert len(trace.inner) == len(alone.inner)
            for got, expected in zip(trace.inner, alone.inner):
                assert np.array_equal(got, expected)
            assert np.array_equal(trace.final_x, alone.final_x)
            assert np.array_equal(trace.final_w, alone.final_w)
            assert trace.final_rate == alone.final_rate
            assert trace.converged == alone.converged

    def test_sweep_m3_n6_converges_under_the_cap(self, fig5_scenario):
        # N = 6 at P_A = 1 once stopped at the 50-round cap
        cfg = SolveConfig()
        traces = solve_powers(6, fig5_scenario(), [1.0, 10.0])
        for trace, reached in zip(traces, (2.80386273295, 5.92595554536)):
            assert trace.converged
            assert trace.n_outer < cfg.max_outer_iters
            assert trace.final_rate >= reached

    def test_rejects_extra_starts_not_one_per_budget(self, paper_n3):
        with pytest.raises(ValueError):
            solve_powers(3, paper_n3, [1.0, 10.0], extra_starts=[None])

    @pytest.mark.parametrize("budgets", [[], [1.0, 0.0], [-1.0], [np.nan],
                                         [np.inf], [[1.0, 10.0]]])
    def test_rejects_budgets_that_are_not_positive_powers(self, paper_n3,
                                                          budgets):
        # as a list of scenario copies, each power was checked by Scenario;
        # unchecked, these failed in the pencil, in a broadcast or with a
        # division warning
        with pytest.raises(ValueError, match="power budgets must be"):
            solve_powers(3, paper_n3, budgets)

    @pytest.mark.parametrize("budgets, message", [
        ([1.0, 1e-310], "power budgets must be in"),
        ([1.0, 1e301], "power budgets must be in"),
        ([1e151, 1.0], "power budgets / noise_power must be in"),
    ])
    def test_rejects_budgets_outside_the_power_range(self, paper_n3, budgets,
                                                     message):
        # the range that Scenario holds its own power to
        with pytest.raises(ValueError, match=message):
            solve_powers(3, paper_n3, budgets)


def _restarts_kind(seed):
    """An instance like the benchmark's ``restarts`` inputs: Bob in
    [0.35, 0.65] pi and three eavesdroppers in [0.05, 0.95] pi, each at
    least 0.15 pi from him, on [0, 10] at spacing 0.5."""
    rng = np.random.default_rng(seed)
    bob, eves = float(rng.uniform(0.35, 0.65)), []
    while len(eves) < 3:
        t = float(rng.uniform(0.05, 0.95))
        if abs(t - bob) >= 0.15:
            eves.append(t)
    return Scenario(bob_angle=bob * np.pi,
                    eve_angles=tuple(np.pi * np.array(eves)))


def _bound(n, scn, budget):
    """log2(1 + N rho) and its rounding allowance at ``budget``."""
    return (np.log2(1.0 + n * budget / scn.noise_power),
            masec.beamformer._rate_slack(n, scn, budget))


def _assert_null(n, scn):
    """``_null_layout`` gives a feasible, read-only layout whose every
    Gamma_0i is 0 up to rounding, and whose rate is the bound."""
    x = masec.driver._null_layout(n, scn)
    assert x is not None and x.shape == (n,) and not x.flags.writeable
    check_positions(x, scn)
    a = [steering_vector(x, t, scn.wavelength) for t in scn.angles]
    gamma = np.abs([np.vdot(a[0], a_i) for a_i in a[1:]])
    # the search stops at 1e-12 N; rounding of the phases adds ~1e-14 N
    assert gamma.max() <= 1e-11 * n
    for budget in (1e-3, 1.0, 10.0, 1e6):
        bound, slack = _bound(n, scn, budget)
        rate = best_secrecy_rates(x[None], scn, budget)[0]
        assert bound - slack <= rate <= bound + slack
    return x


class TestNullLayout:
    """``_null_layout``: a symmetric layout that nulls every eavesdropper,
    which the value ascent returns at the bound for N >= 2M."""

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_nulls_sweep_m3(self, n, fig5_scenario):
        x = _assert_null(n, fig5_scenario())
        # symmetric about the aperture's centre
        assert np.allclose(x + x[::-1], fig5_scenario().aperture,
                           rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_nulls_random_instances(self, seed):
        # 24 instances of the benchmark's restarts kind, N = 6, 7, 8
        for n in (6, 7, 8):
            _assert_null(n, _restarts_kind([seed, n]))

    def test_nulls_at_n_equal_2m(self, paper_n4):
        _assert_null(4, paper_n4)
        _assert_null(2, Scenario(bob_angle=np.pi / 2,
                                 eve_angles=(np.pi / 4,), aperture=2.0))

    def test_none_below_2m(self, fig5_scenario, paper_n3, paper_n4):
        for n in range(1, 6):
            assert masec.driver._null_layout(n, fig5_scenario()) is None
        assert masec.driver._null_layout(3, paper_n3) is None
        # an eavesdropper at Bob's angle leaves Gamma_0i = N
        same = Scenario(bob_angle=np.pi / 3, eve_angles=(np.pi / 3,))
        assert masec.driver._null_layout(4, same) is None
        # 21 antennas fill [0, 10] at d_min: no slack to move in
        assert masec.driver._null_layout(21, paper_n4) is None

    def test_same_bits_on_every_call(self, fig5_scenario):
        for n in (6, 7, 8):
            x = masec.driver._null_layout(n, fig5_scenario())
            again = masec.driver._null_layout(n, fig5_scenario())
            assert x.tobytes() == again.tobytes()


class TestBoundShortcut:
    """Where a null exists the value ascent returns it at the bound, in one
    round, without the scan or a chain; a chain that reaches the bound
    stops there."""

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_sweep_m3_cells_reach_the_bound(self, n, fig5_scenario):
        # these cells once ended 1.8e-3 to 2.2e-2 below the bound after
        # 8 to 30 rounds
        x = masec.driver._null_layout(n, fig5_scenario())
        traces = solve_powers(n, fig5_scenario(), [1.0, 10.0])
        for trace, budget in zip(traces, (1.0, 10.0)):
            scn = fig5_scenario(budget)
            bound, slack = _bound(n, scn, budget)
            assert trace.n_outer == 1 and trace.converged
            assert trace.stop_reason == "bound"
            assert bound - slack <= trace.final_rate <= bound + slack
            assert np.array_equal(trace.final_x, x)
            w = optimal_beamformer(build_forms(x, scn), scn)
            assert np.array_equal(trace.final_w, w)
            assert not trace.final_w.flags.writeable
            assert trace.final_rate == secrecy_rate(x, w, scn)
            assert list(trace.inner[0]) == [trace.inner[0][0]] * 2

    def test_skips_the_scan_and_every_chain(self, fig5_scenario,
                                            monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("ran where a null reaches the bound")
        scn = fig5_scenario()
        rng = np.random.default_rng(41)
        extra = np.array([random_positions(7, scn, rng) for _ in range(3)])
        monkeypatch.setattr(masec.driver, "_scan_starts", unused)
        monkeypatch.setattr(masec.driver, "_ascend_chains", unused)
        trace = solve(7, scn, extra_starts=extra)
        assert trace.stop_reason == "bound"
        # the restarts that do not run are still checked
        extra[1, 2] = extra[1, 1]
        with pytest.raises(ValueError, match="d_min"):
            solve(7, scn, extra_starts=extra)

    def test_algorithm_1_keeps_the_scan_start(self, fig5_scenario,
                                              monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("Algorithm 1 sought a null")
        monkeypatch.setattr(masec.driver, "_null_layout", unused)
        scn = fig5_scenario()
        cfg = SolveConfig(ascent="alternating", max_inner_iters=20,
                          max_outer_iters=2)
        trace = solve(6, scn, cfg)
        assert trace.outer == solve(6, scn, cfg,
                                    x0=masec.driver.scan_start(6, scn)).outer

    def test_budget_short_of_the_bound_takes_the_scan(self, fig5_scenario,
                                                      monkeypatch):
        # a budget whose rate at the null falls short of the ceiling is
        # solved from its scan start, as in a solve with no null
        ceiling = masec.driver._rate_ceiling
        monkeypatch.setattr(
            masec.driver, "_rate_ceiling",
            lambda n, scn, budget: np.where(np.asarray(budget) > 5.0, np.inf,
                                            ceiling(n, scn, budget)))
        low, high = solve_powers(6, fig5_scenario(), [1.0, 10.0])
        assert low.stop_reason == "bound" and low.n_outer == 1
        scn = fig5_scenario(10.0)
        alone = solve(6, scn, x0=masec.driver.scan_start(6, scn))
        assert high.stop_reason == "tol" and high.n_outer > 1
        assert high.outer == alone.outer
        assert np.array_equal(high.final_x, alone.final_x)

    def test_chain_at_a_null_stops_at_the_bound(self, fig5_scenario):
        # regression: a chain started at a null ends after one round,
        # converged, with the bound as its stop reason
        scn = fig5_scenario(10.0)
        x0 = masec.driver._null_layout(7, scn)
        trace = solve(7, scn, SolveConfig(inner_tol=1e-300), x0=x0)
        bound, slack = _bound(7, scn, 10.0)
        assert trace.n_outer == 1 and trace.converged
        assert trace.stop_reason == "bound"
        assert trace.final_rate >= bound - slack

    def test_stop_reasons(self, paper_n3, monkeypatch):
        capped = dataclasses.replace(VALUE, max_outer_iters=1)
        for cfg, reason, converged in (
                (VALUE, "tol", True), (capped, "cap", False),
                (ALGORITHM_1, "tol", True),
                (dataclasses.replace(ALGORITHM_1, max_outer_iters=1), "cap",
                 False)):
            trace = solve(3, paper_n3, cfg)
            assert (trace.stop_reason, trace.converged) == (reason, converged)
        monkeypatch.setattr(masec.driver, "ARMIJO_C", 1e9)
        trace = solve(3, paper_n3, VALUE, x0=initial_positions(3, paper_n3))
        assert (trace.stop_reason, trace.converged) == ("stalled", False)


def _in_unit(scn, lam):
    """``scn`` with every length, the wavelength included, times ``lam``."""
    return dataclasses.replace(scn, wavelength=lam * scn.wavelength,
                               aperture=lam * scn.aperture,
                               min_spacing=lam * scn.min_spacing)


class TestUnitInvariance:
    """Scaling every length by lambda leaves each rate as it is and scales
    each layout by lambda: every step and tolerance of the solver and of
    ``verify`` scales with the wavelength."""

    @pytest.mark.parametrize("lam", [1e-6, 1e-3, 1e3, 1e6])
    def test_solve_and_verify_do_not_depend_on_the_length_unit(self, lam):
        # with absolute steps and tolerances the value ascent stopped after
        # one round at 1e-6, 1e3 and 1e6, at the scan's rates, and verify
        # failed fd-gradient on toy_n2 at 1e-6 and 1e-3; with the steps
        # scaled but not the face solve's regularizer, the sweep_m3 cells
        # at N = 7 raised "Singular matrix" at 1e6
        toy = load_run_spec(SCENARIOS / "toy_n2.json").scenario
        paper = load_run_spec(SCENARIOS / "paper_n3.json").scenario
        sweep = load_run_spec(SCENARIOS / "sweep_m3.json").scenario
        runs = [(solve(n, scn, cfg), solve(n, _in_unit(scn, lam), cfg))
                for n, scn, cfg in ((2, toy, VALUE), (2, toy, ALGORITHM_1),
                                    (3, paper, VALUE))]
        for n in (5, 7):
            runs += zip(solve_powers(n, sweep, [1.0, 10.0]),
                        solve_powers(n, _in_unit(sweep, lam), [1.0, 10.0]))
        for ref, scaled in runs:
            assert scaled.final_rate == pytest.approx(ref.final_rate,
                                                      rel=1e-9)
            # the layout up to a shift and a mirror, which keep the rate:
            # at N = 7 rounding picks either layout of a mirror pair
            gaps, ref_gaps = np.diff(scaled.final_x) / lam, np.diff(
                ref.final_x)
            assert any(np.allclose(gaps, g, rtol=0.0,
                                   atol=1e-9 * ref.final_x[-1])
                       for g in (ref_gaps, ref_gaps[::-1]))
        for n, scn in ((2, toy), (3, paper)):
            assert run_verification(_in_unit(scn, lam), n).passed

    @pytest.mark.parametrize("lam", [1e-6, 1e6])
    def test_null_shortcut_does_not_depend_on_the_length_unit(self, lam):
        # the damping is relative to tr(J^T J): an absolute one changes the
        # search's steps, and so the layout it returns, with the unit
        sweep = load_run_spec(SCENARIOS / "sweep_m3.json").scenario
        for n in (6, 7, 8):
            ref = masec.driver._null_layout(n, sweep)
            x = masec.driver._null_layout(n, _in_unit(sweep, lam))
            assert np.allclose(x / lam, ref, rtol=0.0, atol=1e-9)
            for a, b in zip(solve_powers(n, sweep, [1.0, 10.0]),
                            solve_powers(n, _in_unit(sweep, lam),
                                         [1.0, 10.0])):
                assert a.stop_reason == b.stop_reason == "bound"
                assert b.final_rate == pytest.approx(a.final_rate, rel=1e-12)
