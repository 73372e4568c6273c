"""Invariants of the problem, checked on hypothesis-drawn instances.

Derandomized with a small example budget, so every run checks the same
instances in bounded time.
"""

import dataclasses

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from masec import (Scenario, SolveConfig, build_forms,
                   gradient_psi, objective_psi, random_positions,
                   rate_difference, secrecy_rate, solve, solve_beamformer,
                   solve_fpa, steering_vector)
from masec.beamformer import (_eve_pivots, _gap_layouts, _gap_runs,
                              _GapBounds, _last_pivot, _levels_within,
                              _pair_phases, _peak_pivots, _rate_slack,
                              best_gap_layout, best_secrecy_rates)
from masec.driver import scan_start
from masec.positions import _project_euclidean

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60,
                    database=None)

angles = st.floats(0.0, np.pi, exclude_max=True)


@st.composite
def instances(draw):
    """(scenario, positions, beamformer) with N = 1..8 on a 10-wavelength aperture."""
    scn = Scenario(bob_angle=draw(angles),
                   eve_angles=tuple(draw(st.lists(angles, min_size=1,
                                                  max_size=3))),
                   noise_power=draw(st.floats(0.3, 2.0)),
                   power_budget=draw(st.floats(0.2, 5.0)))
    n = draw(st.integers(1, 8))
    gaps = draw(st.lists(st.floats(0.5, 1.1), min_size=n - 1,
                         max_size=n - 1))
    x = draw(st.floats(0.0, 2.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    parts = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
    w = np.array(draw(parts)) + 1j * np.array(draw(parts))
    assume(np.linalg.norm(w) > 1e-3)
    return scn, x, w * np.sqrt(scn.power_budget) / np.linalg.norm(w)


@PROPERTY
@given(instances(), st.floats(-5.0, 5.0))
def test_translation_invariance(instance, shift):
    scn, x, w = instance
    assert abs(objective_psi(x + shift, w, scn)
               - objective_psi(x, w, scn)) <= 1e-9
    rates = best_secrecy_rates(np.vstack([x, x + shift]), scn)
    assert abs(rates[1] - rates[0]) <= 1e-9


@PROPERTY
@given(instances(), st.floats(-3.0, 10.0))
def test_mirror_invariance(instance, log_power):
    # x' = reverse(x_N - x), w' = reverse(conj w): a(x', theta)^H w' is a
    # phase times conj(a(x, theta)^H w), so every beam gain is kept
    scn, x, w = instance
    mirror = x[-1] - x[::-1]
    psi = rate_difference(x, w, scn)
    assert (abs(rate_difference(mirror, w[::-1].conj(), scn) - psi)
            <= 1e-12 * max(1.0, abs(psi)))
    rates = best_secrecy_rates(np.vstack([x, mirror]), scn)
    assert abs(rates[1] - rates[0]) <= 1e-12 * max(1.0, rates[0])
    # at any power the scorer keeps a mirror pair within the rounding
    # allowance, within which best_gap_layout scores the mirrors of the
    # rows near its best
    scn = dataclasses.replace(scn, power_budget=10.0 ** log_power)
    rates = best_secrecy_rates(np.vstack([x, mirror]), scn)
    assert abs(rates[1] - rates[0]) <= _rate_slack(x.size, scn)


@PROPERTY
@given(instances(), st.floats(-5.0, 5.0))
def test_stacked_forms_match_single_layouts(instance, shift):
    scn, x, _ = instance
    stacked = build_forms(np.vstack([x, x + shift]), scn)
    for k, row in enumerate((x, x + shift)):
        single = build_forms(row, scn)
        assert np.array_equal(stacked.A[k], single.A)
        assert np.array_equal(stacked.B[k], single.B)
    column = steering_vector(x, scn.angles[:, None], scn.wavelength)
    for theta, vector in zip(scn.angles, column):
        assert np.array_equal(vector, steering_vector(x, theta, scn.wavelength))


@PROPERTY
@given(instances())
def test_gradient_sums_to_zero(instance):
    scn, x, w = instance
    grad = gradient_psi(x, w, scn)
    assert abs(grad.sum()) <= 1e-9 * (1.0 + np.abs(grad).sum())


@PROPERTY
@given(instances())
def test_optimal_rate_within_power_bound(instance):
    scn, x, _ = instance
    bound = np.log2(1.0 + x.size * scn.power_budget / scn.noise_power)
    sol = solve_beamformer(build_forms(x, scn), scn)
    assert secrecy_rate(x, sol.beamformer, scn) <= bound + 1e-9
    best = best_secrecy_rates(x[None, :], scn)[0]
    assert best <= bound + 1e-9
    assert abs(best - max(np.log2(sol.eigenvalue), 0.0)) <= 1e-12


@PROPERTY
@given(instances(), st.floats(-3.0, 10.0))
def test_rate_bound_brackets_the_scorer(rate_bounds, instance, log_power):
    # t < lambda_max <= 1 + t, up to the rounding slack of both computations
    scn, x, _ = instance
    scn = dataclasses.replace(scn, power_budget=10.0 ** log_power)
    bound = rate_bounds(x[None, :], scn)[0]
    rate = best_secrecy_rates(x[None, :], scn)[0]
    slack = _rate_slack(x.size, scn)
    assert bound + slack >= rate
    assert rate >= np.log2(np.expm1(bound * np.log(2.0))) - slack


@PROPERTY
@given(instances(), st.floats(-3.0, 10.0), st.integers(1, 60), st.data())
def test_grid_rate_bound_brackets_the_scorer(instance, log_power, levels, data):
    # the same inequalities for the table-driven bound of a gap-grid tuple
    scn, x, _ = instance
    n = x.size
    assume(n > 1)
    scn = dataclasses.replace(scn, power_budget=10.0 ** log_power)
    step = (scn.aperture - (n - 1) * scn.min_spacing) / levels
    K = np.sort(data.draw(st.lists(st.integers(0, levels), min_size=n - 1,
                                   max_size=n - 1)))[None, :]
    bounds = _GapBounds(n, scn, levels, step, [scn.power_budget])
    bound = bounds(K, [-np.inf])[0][0]
    rate = best_secrecy_rates(_gap_layouts(K, scn, step), scn)[0]
    slack = _rate_slack(n, scn)
    assert bound + slack >= rate
    assert rate >= np.log2(np.expm1(bound * np.log(2.0))) - slack
    # the one-eavesdropper bound, which any floor above it returns
    cheap = bounds(K, [np.inf])[0][0]
    assert cheap + slack >= rate and cheap >= bound - slack


@PROPERTY
@given(instances(), st.lists(st.floats(-3.0, 10.0), min_size=1, max_size=3),
       st.integers(1, 60), st.data())
def test_several_budgets_match_one_budget_calls(instance, log_powers, levels,
                                                data):
    # each budget's row of a joint call has the bits of a call with that
    # budget alone: the pivots, the row and run bounds of a gap grid, and
    # the scan's layout and rate
    scn, x, _ = instance
    n = x.size
    assume(n > 1)
    budgets = [10.0 ** p for p in log_powers]
    # at most 6,000 tuples: the grids above 4,096 take the seed pass and runs
    levels = _levels_within(n, 6_000, levels)
    step = (scn.aperture - (n - 1) * scn.min_spacing) / levels
    K = np.sort(np.array(data.draw(st.lists(
        st.lists(st.integers(0, levels), min_size=n - 1, max_size=n - 1),
        min_size=1, max_size=6))), axis=1)
    gram = _pair_phases(_gap_layouts(K, scn, step), scn).sum(axis=-1)
    bob = np.triu_indices(scn.num_eves + 1, 1)[1] == scn.num_eves
    peak = (np.abs(gram[bob]) ** 2).max(axis=0)
    joint = _GapBounds(n, scn, levels, step, budgets)
    for i, budget in enumerate(budgets):
        alone = _GapBounds(n, scn, levels, step, [budget])
        pairs = [(_last_pivot(gram, n, scn, budgets),
                  _last_pivot(gram, n, scn, [budget])),
                 (_peak_pivots(peak, n, scn, budgets),
                  _peak_pivots(peak, n, scn, [budget])),
                 (_eve_pivots(gram[bob], n, scn, budgets),
                  _eve_pivots(gram[bob], n, scn, [budget])),
                 (joint(K, [-np.inf] * len(budgets)), alone(K, [-np.inf])),
                 (joint(K, [np.inf] * len(budgets)), alone(K, [np.inf]))]
        if n > 2:
            runs = next(_gap_runs(n, levels))
            pairs.append((joint.runs(*runs), alone.runs(*runs)))
        for got, expected in pairs:
            assert np.array_equal(got[i], expected[0])
    scans = best_gap_layout(n, scn, levels, step, budgets)
    for budget, (x, rate) in zip(budgets, scans):
        [(x1, rate1)] = best_gap_layout(
            n, dataclasses.replace(scn, power_budget=budget), levels, step)
        assert np.array_equal(x, x1) and rate == rate1


@PROPERTY
@given(instances(), st.booleans(), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_solve_dominates_every_start(instance, from_scan, k, seed):
    scn, x, _ = instance
    n = x.size
    rng = np.random.default_rng(seed)
    extra = np.reshape([random_positions(n, scn, rng) for _ in range(k)],
                       (k, n))
    # scan_start(n, scn) as x0 is the chain that the default start runs
    first = scan_start(n, scn) if from_scan else x
    cfg = SolveConfig(ascent="alternating", max_inner_iters=20,
                      max_outer_iters=2)
    rate = solve(n, scn, cfg, x0=first, extra_starts=extra).final_rate
    starts = np.vstack([first, extra])
    assert rate >= best_secrecy_rates(starts, scn).max() - 1e-12
    if from_scan:
        assert rate >= solve_fpa(n, scn)[1] - 1e-12


@st.composite
def rows_to_project(draw):
    """(scenario, (K, N) rows) whose slack values tie, leave [0, span] or fall.

    Each slack value is one of a few shared levels, so rows tie, or a
    value of its own; the values, in units of the span, reach half a
    span past both ends, and come in any order.
    """
    lam = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))
    n = draw(st.integers(2, 8))
    scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,),
                   wavelength=lam, min_spacing=0.5 * lam,
                   aperture=lam * draw(st.floats(0.5 * n, 12.0)))
    span = scn.aperture - (n - 1) * scn.min_spacing
    value = st.floats(-0.5, 1.5)
    levels = draw(st.lists(value, min_size=1, max_size=3))
    rows = draw(st.lists(st.lists(st.sampled_from(levels) | value,
                                  min_size=n, max_size=n),
                         min_size=1, max_size=8))
    return scn, span * np.array(rows) + scn.min_spacing * np.arange(n)


@settings(PROPERTY, max_examples=150)
@given(rows_to_project())
def test_euclidean_projection_is_idempotent(instance):
    # a pooled block is rebuilt as its mean plus the offsets, so its slack
    # values tie up to rounding: a second projection keeps every bit
    scn, Z = instance
    P = _project_euclidean(Z, scn)
    assert np.array_equal(_project_euclidean(P, scn), P)
    assert np.array_equal(_project_euclidean(Z[::-1], scn), P[::-1])
