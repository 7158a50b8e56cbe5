import dataclasses

import numpy as np
import pytest

from chronodil import oracle
from chronodil.clocks import (build_qubit_phase, build_quasi_ideal, build_swp, ClockModel,
                              IdealisedClock, free_reading)
from chronodil.constants import HBAR
from chronodil.dilation import mean_clock_time, t_coh
from chronodil.kinematics import GaussianState, to_grid
from chronodil.oracle import (
    _fit_exponent,
    _report,
    clock_time_stats,
    default_momentum_grid,
    evolve_characteristics_g,
    verify_mean_time,
    verify_sigma,
)
from chronodil.precision import sigma_breakdown, sigma_dispersion_exact
from helpers import (BENCH_OMEGA, BENCH_PERIOD, BENCH_T, bench_c, bench_cat, bench_gaussian,
                     idealised_surrogate)
from covariant_reference import clock_period, projector
from dense_reference import block_evolve_g0, evolve_hermitian, reduced_clock_density
from split_step import split_step_evolve

G_EARTH = 9.81
# about the step count a 0.1 rad cap on the phase advance per step gives
# for the benchmark packet and clocks below
SPLIT_STEPS = 850

CLOCKS = {"dial d=4": lambda: build_swp(4, BENCH_OMEGA),
          "gaussian dial d=8": lambda: build_quasi_ideal(8, BENCH_OMEGA, np.sqrt(8), m0=2.0),
          "gaussian dial d=64": lambda: idealised_surrogate(BENCH_OMEGA, d=64),
          "qubit phase": lambda: build_qubit_phase(BENCH_OMEGA)}
STATES = {"gaussian": bench_gaussian, "cat": lambda: bench_cat(theta=0.7),
          "rest gaussian": lambda: bench_gaussian(p0_sigmas=0.0)}
LAMS = np.array([1.0, 2.0, 4.0])


# ---------------------------------------------------------------------------
# g = 0 evolution: no force, so every momentum sample keeps its own clock block


def test_zero_clock_hamiltonian_leaves_clock_alone():
    basis0 = np.array([1.0, 0.0], dtype=complex)
    t_op = np.diag([0.0, 1.0]).astype(complex)
    clk = ClockModel(energies=np.zeros(2), psi0=basis0, t_cl=t_op, t2_cl=t_op @ t_op)
    js = evolve_characteristics_g(clk, bench_gaussian(), BENCH_T, 0.0, c=bench_c())
    rho = reduced_clock_density(js)
    assert np.abs(rho - projector(clk.psi0)).max() < 1e-12


def test_narrow_packet_reduces_to_rescaled_time():
    # a near-plane-wave packet runs the clock at the single rate 1 + w(p0)
    state = GaussianState(x0=0.0, p0=3e-28, sigma_x=3e-4, mass=1e-25)
    c = 3e-3  # strong coupling so the rescaling is visible
    clk = build_swp(4, BENCH_OMEGA)
    t = BENCH_T
    js = evolve_characteristics_g(clk, state, t, 0.0, order="c2", c=c)
    rho = reduced_clock_density(js)
    scaled = evolve_hermitian(np.diag(clk.energies), projector(clk.psi0),
                              t * (1.0 - state.p0**2 / (2.0 * state.mass**2 * c**2)))
    # residual spread of w over the packet's +/- 8 sigma_p support
    assert np.abs(rho - scaled).max() < 1e-5


def test_norm_conservation_and_momentum_invariance():
    clk = build_quasi_ideal(8, BENCH_OMEGA, np.sqrt(8), m0=2.0)
    state = bench_gaussian()
    # the default grid grows with t, so both times share the later one
    grid = default_momentum_grid(clk, state, BENCH_T, 0.0, c=bench_c())
    js0 = evolve_characteristics_g(clk, state, 0.0, 0.0, c=bench_c(), grid=grid)
    js1 = evolve_characteristics_g(clk, state, BENCH_T, 0.0, c=bench_c(), grid=grid)
    assert abs(js1.norm() - 1.0) < 1e-8
    # the momentum marginal is time invariant without gravity
    d0, d1 = (np.sum(np.abs(js.amplitudes) ** 2, axis=0) for js in (js0, js1))
    assert np.abs(d1 - d0).max() < 1e-12 * d0.max()


def test_g0_oracle_insensitive_to_grid_refinement():
    # the default grid, which under gravity spans every level's shifted
    # packet, against a 2x refinement of the same span
    clk = build_swp(4, BENCH_OMEGA)
    for state, g in ((bench_gaussian(), 0.0), (bench_cat(theta=0.7), G_EARTH)):
        coarse = evolve_characteristics_g(clk, state, BENCH_T, g, c=bench_c())
        refined = np.linspace(coarse.grid[0], coarse.grid[-1], 2 * coarse.grid.size)
        fine = evolve_characteristics_g(clk, state, BENCH_T, g, c=bench_c(), grid=refined)
        vals = [clock_time_stats(js, clk)[0] for js in (coarse, fine)]
        assert abs(vals[0] - vals[1]) < 1e-12 * max(abs(v) for v in vals)


def test_joint_norm_check_catches_a_grid_that_sampling_accepts():
    # +-5 sigma_p holds all but 5.7e-7 of the packet: above to_grid's bar of
    # 1 - 1e-6, but 57 times the joint norm's tolerance of 1e-8
    clk, state = build_swp(4, BENCH_OMEGA), bench_gaussian()
    grid = np.linspace(state.p0 - 5.0 * state.sigma_p, state.p0 + 5.0 * state.sigma_p, 4001)
    captured = np.sum(np.abs(to_grid(state, grid)) ** 2) * (grid[1] - grid[0])
    assert 1.0 - 1e-6 < captured < 1.0 - 1e-8
    with pytest.raises(ValueError, match="grid under-resolution"):
        evolve_characteristics_g(clk, state, BENCH_T, 0.0, c=bench_c(), grid=grid)


def test_joint_norm_check_rejects_a_nan_state():
    # a unit state, but for one NaN amplitude
    grid = np.linspace(-1.0, 1.0, 64)
    amplitudes = np.full((3, grid.size), 1.0 / np.sqrt(3 * grid.size * (grid[1] - grid[0])),
                         dtype=complex)
    oracle._check_norm(oracle.JointState(grid, amplitudes))
    amplitudes[2, 5] = np.nan
    with pytest.raises(ValueError, match="joint norm nan"):
        oracle._check_norm(oracle.JointState(grid, amplitudes))


def test_idealised_clock_rejected_by_joint_evolution():
    # an IdealisedClock has no energies or ket to evolve with the motion
    clk = IdealisedClock(sigma_t0=1e-4)
    with pytest.raises(TypeError, match="ClockModel, got IdealisedClock"):
        verify_mean_time(clk, bench_gaussian(), BENCH_T, G_EARTH, base_c=bench_c())
    with pytest.raises(TypeError, match="ClockModel, got IdealisedClock"):
        verify_sigma(clk, bench_gaussian(), BENCH_T, base_c=bench_c())


def test_unknown_order_rejected():
    with pytest.raises(ValueError, match="order"):
        evolve_characteristics_g(build_swp(4, BENCH_OMEGA), bench_gaussian(), BENCH_T, 0.0,
                                 order="c3", c=bench_c())


# ---------------------------------------------------------------------------
# the default momentum grid


def density_refinement_gap(clk, state, t, g, order="c2", grid=None):
    """Largest change of the reduced clock density when the grid spacing is
    halved, over the largest entry of its relativistic correction (the
    density minus the free one)."""
    c = bench_c()
    coarse = evolve_characteristics_g(clk, state, t, g, order, c=c, grid=grid)
    span = coarse.grid
    fine = evolve_characteristics_g(clk, state, t, g, order, c=c,
                                    grid=np.linspace(span[0], span[-1], 2 * span.size - 1))
    rho_coarse, rho_fine = (reduced_clock_density(js) for js in (coarse, fine))
    gap = clk.energies[:, None] - clk.energies[None, :]
    free = projector(clk.psi0) * np.exp(-1j * gap * t / HBAR)
    return np.abs(rho_coarse - rho_fine).max() / np.abs(rho_fine - free).max()


@pytest.mark.parametrize("clock_name,state_name,g,order,points", [
    pytest.param("dial d=4", "gaussian", G_EARTH, "c2", (25, 25, 24), id="swp4_gaussian_g"),
    pytest.param("gaussian dial d=8", "cat", G_EARTH, "c2", (29, 29, 28), id="qi8_cat_g"),
    pytest.param("qubit phase", "cat", G_EARTH, "c2", (28, 28, 28), id="qubit_cat_g"),
    pytest.param("gaussian dial d=64", "cat", 0.0, "c2", (34, 30, 29), id="qi64_cat_g0"),
    pytest.param("gaussian dial d=64", "rest gaussian", 0.0, "c4", (29, 25, 25),
                 id="qi64_rest_sigma"),
])
def test_default_grid_size_of_the_verify_cases(clock_name, state_name, g, order, points):
    # 16 sigma_p over 2 pi hbar / (18 sigma_x) is 23 intervals; a cat's
    # separation, the levels' which-path displacement (which falls with
    # the light-speed scaling) and under gravity their spread of shifts add
    # the rest
    clk, state = CLOCKS[clock_name](), STATES[state_name]()
    sizes = tuple(default_momentum_grid(clk, state, BENCH_T, g, order, lam * bench_c()).size
                  for lam in LAMS)
    assert sizes == points
    # verify's stack of the three runs on the grid of lambda = 1
    np.testing.assert_array_equal(
        default_momentum_grid(clk, state, BENCH_T, g, order, LAMS * bench_c()),
        default_momentum_grid(clk, state, BENCH_T, g, order, bench_c()))


@pytest.mark.parametrize("order", ["c2", "c4"])
@pytest.mark.parametrize("g", [0.0, G_EARTH])
@pytest.mark.parametrize("state_name", ["gaussian", "cat"])
@pytest.mark.parametrize("clock_name", ["dial d=4", "qubit phase", "gaussian dial d=8"])
def test_stack_grid_holds_every_light_speed(clock_name, state_name, g, order):
    # the shared grid spans each light speed's own default grid, and its
    # spacing stays within 2 pi hbar / X_c for every c. An own grid rounds
    # its interval count up, so its spacing lies in (n - 2, n - 1] / (n - 1)
    # of that bound: a wider span may round to a spacing up to one
    # interval's share wider than the own one, and no more
    clk, state = CLOCKS[clock_name](), STATES[state_name]()
    t = 3.0 * BENCH_T
    stack = default_momentum_grid(clk, state, t, g, order, np.array([4.0, 1.0, 2.0]) * bench_c())
    for lam in LAMS:
        own = default_momentum_grid(clk, state, t, g, order, lam * bench_c())
        assert stack[0] <= own[0] and stack[-1] >= own[-1]
        assert stack[1] - stack[0] < (own[-1] - own[0]) / (own.size - 2)


@pytest.mark.parametrize("order", ["c2", "c4"])
@pytest.mark.parametrize("g", [0.0, G_EARTH])
@pytest.mark.parametrize("state_name", ["gaussian", "cat"])
@pytest.mark.parametrize("clock_name", ["dial d=4", "qubit phase", "gaussian dial d=8",
                                        "gaussian dial d=64"])
def test_default_grid_matches_its_refinement(clock_name, state_name, g, order):
    # what is left is phase rounding: clock and kinetic phases of up to
    # about 100 rad carry about 1e-14 rad against density corrections near
    # 1e-2, a floor of about 1e-12 of the correction (1.9e-12 at most here)
    clk, state = CLOCKS[clock_name](), STATES[state_name]()
    assert density_refinement_gap(clk, state, BENCH_T, g, order) < 1e-11


def test_long_evolution_resolves_the_phase_between_levels():
    # 50 periods on, the phase between the d = 64 levels winds across the
    # packet (X_c near 900 sigma_x), so the default grid takes about
    # 1,200 points; 129 points miss the correction by 5e-4
    clk = idealised_surrogate(BENCH_OMEGA, d=64)
    t = 50.0 * BENCH_PERIOD + BENCH_T
    assert density_refinement_gap(clk, bench_cat(theta=0.7), t, 0.0) < 1e-11


def test_fast_fall_grid_stays_small_and_resolved():
    # 10 periods into the fall the packet moves at 5.7 c of the scaled light
    # speed; the levels' different kinetic phases, bounded on the packet's
    # support, take about 4,600 points per level
    clk = build_swp(4, BENCH_OMEGA)
    state = bench_gaussian()
    t = 10.0 * BENCH_PERIOD + BENCH_T
    assert default_momentum_grid(clk, state, t, G_EARTH, c=bench_c()).size <= 5000
    assert density_refinement_gap(clk, state, t, G_EARTH) < 1e-10


def test_default_grid_spans_every_level_under_gravity():
    # over half a period the top level of the d = 256 dial loses about
    # 3.8 sigma_p more momentum than the bottom one; a span of 8 sigma_p
    # about the classical drift alone loses 1.4e-5 of the top level's norm
    clk = build_quasi_ideal(256, BENCH_OMEGA, 16.0, m0=64.0)
    state = bench_gaussian()
    t = 0.5 * BENCH_PERIOD
    drift = np.linspace(-8.0, 8.0, 129) * state.sigma_p + state.p0 - state.mass * G_EARTH * t
    with pytest.raises(ValueError, match="captured norm"):
        evolve_characteristics_g(clk, state, t, G_EARTH, c=bench_c(), grid=drift)
    assert density_refinement_gap(clk, state, t, G_EARTH) < 1e-11


def test_default_grid_refuses_an_oversized_grid():
    # 50 periods into the fall the bench packet moves at 28 c of the scaled
    # light speed, and the levels' different quartic kinetic phases would
    # need about 2e7 points per level
    clk, state = build_swp(4, BENCH_OMEGA), bench_gaussian()
    with pytest.raises(ValueError, match="grid="):
        evolve_characteristics_g(clk, state, 50.0 * BENCH_PERIOD + BENCH_T, G_EARTH, c=bench_c())
    # 28 periods in, one light speed needs about 250,000 points per level,
    # 1.0e6 samples; a stack of three shares that grid but needs 3.0e6
    t = 28.0 * BENCH_PERIOD + BENCH_T
    assert default_momentum_grid(clk, state, t, G_EARTH, c=bench_c()).size * clk.dim < 1 << 21
    with pytest.raises(ValueError, match="grid="):
        evolve_characteristics_g(clk, state, t, G_EARTH, c=LAMS * bench_c())


# ---------------------------------------------------------------------------
# evolution with gravity: characteristics oracle and split-step reference


ZERO_G_CASES = [pytest.param(order, clock, state, id=f"{state}-{clock}{suffix}")
                for order, suffix in (("c2", ""), ("c4", "-c4"))
                for clock in ("dial d=4", "gaussian dial d=8", "qubit phase")
                for state in ("gaussian", "cat")]


@pytest.mark.parametrize("order,clock_name,state_name", ZERO_G_CASES)
def test_characteristics_at_zero_g_matches_c2_block_oracle(order, clock_name, state_name):
    # at g = 0 every momentum sample keeps its clock block, so the
    # characteristics solution must reproduce the block-by-block reference
    # with either clock coupling
    clk = CLOCKS[clock_name]()
    state = STATES[state_name]()
    c = bench_c()
    js_char = evolve_characteristics_g(clk, state, BENCH_T, 0.0, order=order, c=c)
    js_block = block_evolve_g0(clk, state, BENCH_T, order, c, js_char.grid)
    (mean_char, spread_char), (mean_block, spread_block) = (
        clock_time_stats(js, clk) for js in (js_char, js_block))
    assert abs(mean_char - mean_block) < 1e-12 * abs(mean_block)
    assert abs(spread_char - spread_block) < 1e-12 * spread_block


def test_characteristics_rejects_narrow_grid():
    clk = build_swp(4, BENCH_OMEGA)
    state = bench_gaussian()
    # wide enough for the unshifted packet, but the shift by the force (about
    # 3 sigma_p here) moves part of the packet off every row of the stacked grid
    grid = np.linspace(state.p0 - 6.0 * state.sigma_p, state.p0 + 8.0 * state.sigma_p, 2048)
    amps = to_grid(state, grid)
    assert np.sum(np.abs(amps) ** 2) * (grid[1] - grid[0]) > 1.0 - 1e-6
    with pytest.raises(ValueError, match="captured norm"):
        evolve_characteristics_g(clk, state, BENCH_T, G_EARTH, c=bench_c(), grid=grid)


def test_split_step_matches_block_oracle_at_zero_g():
    clk = build_swp(4, BENCH_OMEGA)
    state = bench_gaussian()
    c = bench_c()
    js_block = evolve_characteristics_g(clk, state, BENCH_T, 0.0, order="c2", c=c)
    js_split = split_step_evolve(clk, state, BENCH_T, 0.0, steps=SPLIT_STEPS, c=c)
    mean_block = clock_time_stats(js_block, clk)[0]
    mean_split = clock_time_stats(js_split, clk)[0]
    # the p^4 kinetic phase present in the split-step Hamiltonian is
    # momentum-diagonal and common to all clock components, so the clock
    # observables must agree
    assert abs(mean_block - mean_split) < 1e-8 * abs(mean_block)


def test_ehrenfest_trajectory_with_clock_off():
    basis0 = np.array([1.0, 0.0], dtype=complex)
    t_op = np.diag([0.0, 1.0]).astype(complex)
    clk = ClockModel(energies=np.zeros(2), psi0=basis0, t_cl=t_op, t2_cl=t_op @ t_op)
    state = bench_gaussian()
    t = BENCH_T
    # near-physical light speed so the quartic kinetic correction to the
    # group velocity is far below the 0.1% trajectory tolerance
    js = split_step_evolve(clk, state, t, G_EARTH, steps=SPLIT_STEPS, c=1e3 * bench_c())
    density = np.sum(np.abs(js.amplitudes) ** 2, axis=0)
    density = density / (density.sum() * js.spacing)
    mean_x = float(np.sum(js.grid * density) * js.spacing)
    expected = state.x0 + state.p0 * t / state.mass - G_EARTH * t**2 / 2.0
    travel = abs(state.p0 * t / state.mass) + G_EARTH * t**2 / 2.0
    assert abs(mean_x - expected) < 1e-3 * travel


def test_split_step_second_order_convergence():
    clk = build_swp(4, BENCH_OMEGA)
    state = bench_gaussian()
    c = bench_c()
    steps = SPLIT_STEPS
    reference = clock_time_stats(
        split_step_evolve(clk, state, BENCH_T, G_EARTH, steps=8 * steps, c=c), clk)[0]
    err_s = abs(clock_time_stats(
        split_step_evolve(clk, state, BENCH_T, G_EARTH, steps=steps, c=c), clk)[0] - reference)
    err_2s = abs(clock_time_stats(
        split_step_evolve(clk, state, BENCH_T, G_EARTH, steps=2 * steps, c=c), clk)[0] - reference)
    assert err_s / err_2s > 3.0  # second-order signature (ratio near 4)


def test_split_step_matches_characteristics_solution():
    clk = build_quasi_ideal(8, BENCH_OMEGA, np.sqrt(8), m0=2.0)
    state = bench_gaussian()
    c = bench_c()
    mean_split = clock_time_stats(
        split_step_evolve(clk, state, BENCH_T, G_EARTH, steps=SPLIT_STEPS, c=c), clk)[0]
    mean_char = clock_time_stats(
        evolve_characteristics_g(clk, state, BENCH_T, G_EARTH, c=c), clk)[0]
    assert abs(mean_split - mean_char) < 1e-8 * abs(mean_char)


# ---------------------------------------------------------------------------
# verification reports


def test_verify_mean_time_g0_exponent():
    clk = build_swp(4, BENCH_OMEGA)
    report = verify_mean_time(clk, bench_gaussian(), BENCH_T, 0.0,
                              c_scalings=(1.0, 2.0, 4.0), base_c=bench_c())
    assert report.passed
    assert report.exponent_rel < -1.8
    assert all(np.isfinite(v) for v in report.exact)


def test_verify_mean_time_small_coupling_regime():
    # at a gentler coupling the first-order formula is already within 1e-3
    clk = build_swp(4, BENCH_OMEGA)
    report = verify_mean_time(clk, bench_gaussian(), BENCH_T, 0.0,
                              c_scalings=(1.0, 2.0), base_c=20.0 * bench_c())
    assert report.relative_residuals[0] < 1e-3


def test_verify_mean_time_floor_for_plane_wave_at_rest():
    clk = build_swp(4, BENCH_OMEGA)
    state = GaussianState(x0=0.0, p0=0.0, sigma_x=3e-4, mass=1e-25)
    report = verify_mean_time(clk, state, BENCH_T, 0.0,
                              c_scalings=(1.0, 2.0, 4.0), base_c=2.0)
    # sigma_p is six orders below the benchmark's: residuals collapse
    assert report.at_floor or all(r < 1e-9 for r in report.relative_residuals)


def test_verify_mean_time_with_gravity():
    clk = build_quasi_ideal(8, BENCH_OMEGA, np.sqrt(8), m0=2.0)
    report = verify_mean_time(clk, bench_gaussian(), BENCH_T, G_EARTH,
                              c_scalings=(1.0, 2.0, 4.0), base_c=bench_c())
    assert report.passed
    assert report.exponent_rel < -1.8


def test_verify_mean_time_fails_a_first_order_defect(monkeypatch):
    # a closed form off by 1e-2 of its correction / lambda, lambda = c / min(c),
    # leaves relative residuals near 1.2e-2, 5e-3 and 2.6e-3: an exponent
    # near -1.1 that the -1.8 limit fails and a looser one would pass
    real = oracle.mean_clock_time

    def defective(clock, kstate, t, g, c):
        result = real(clock, kstate, t, g, c=c)
        lam = c / np.min(c)
        return dataclasses.replace(result, mean_t=result.mean_t + 1e-2 * result.correction / lam)

    monkeypatch.setattr(oracle, "mean_clock_time", defective)
    report = verify_mean_time(build_swp(4, BENCH_OMEGA), bench_gaussian(), BENCH_T, G_EARTH,
                              c_scalings=LAMS, base_c=bench_c())
    assert report.resolved and not report.at_floor
    assert -1.8 < report.exponent_rel < -0.5
    assert not report.passed


def test_oracle_confirms_coherence_split():
    # three g = 0 oracle runs (superposition and both constituents) against
    # the closed-form coherence contribution
    clk = idealised_surrogate(BENCH_OMEGA, d=64)
    cat = bench_cat(theta=0.0)
    lower = cat.base
    upper = GaussianState(lower.x0 + cat.delta_x0, lower.p0, lower.sigma_x, lower.mass)
    c = bench_c()
    t = BENCH_T

    def oracle_mean(ks):
        js = evolve_characteristics_g(clk, ks, t, 0.0, order="c2", c=c)
        return clock_time_stats(js, clk)[0]

    t_sup = oracle_mean(cat)
    t_mix = cat.alpha * oracle_mean(lower) + (1.0 - cat.alpha) * oracle_mean(upper)
    closed = t_coh(cat, t, 0.0, c=c).t_coh
    assert abs((t_sup - t_mix) - closed) < 1e-2 * abs(closed)


def test_verify_sigma_time_zero_matches_free_spread():
    clk = idealised_surrogate(BENCH_OMEGA, d=64)
    state = bench_gaussian(p0_sigmas=0.0)
    js = evolve_characteristics_g(clk, state, 0.0, 0.0, order="c4", c=bench_c())
    s_nr = free_reading(clk, 0.0).spread
    assert abs(clock_time_stats(js, clk)[1] - s_nr) < 1e-12 * clock_period(clk)


def test_sigma_excess_quadratic_in_time():
    clk = idealised_surrogate(BENCH_OMEGA, d=64)
    state = bench_gaussian(p0_sigmas=0.0)
    c = bench_c()

    def excess(t):
        js = evolve_characteristics_g(clk, state, t, 0.0, order="c4", c=c)
        return clock_time_stats(js, clk)[1] - free_reading(clk, t).spread

    t = 0.55 * BENCH_T
    ratio = excess(2.0 * t) / excess(t)
    assert abs(ratio - 4.0) < 0.2


def test_sigma_excess_tracks_dispersion_term_not_contracted_form():
    # the joint evolution supports the variance-law closed form; the
    # contracted form overshoots by 2.5x for a rest Gaussian
    clk = idealised_surrogate(BENCH_OMEGA, d=64)
    state = bench_gaussian(p0_sigmas=0.0)
    c = bench_c()
    t = 0.3 * clock_period(clk)
    js = evolve_characteristics_g(clk, state, t, 0.0, order="c4", c=c)
    s_nr = free_reading(clk, t).spread
    excess = clock_time_stats(js, clk)[1] - s_nr
    dispersion = sigma_dispersion_exact(state, t, s_nr, c=c)
    assert abs(excess / dispersion - 1.0) < 0.05
    breakdown = sigma_breakdown(clk, state, t, c=c)
    assert 0.35 < excess / breakdown.sigma_i < 0.45


def test_verify_sigma_report_is_honest():
    clk = idealised_surrogate(BENCH_OMEGA, d=64)
    state = bench_gaussian(p0_sigmas=0.0)
    report = verify_sigma(clk, state, 0.3 * clock_period(clk),
                          c_scalings=(1.0, 2.0, 4.0), base_c=bench_c())
    # the contracted closed form leaves a fourth-order residual, so the
    # fitted absolute exponent sits near -4 and the report does not pass
    # its nominal sixth-order expectation
    assert report.exponent_abs is not None
    assert -4.5 < report.exponent_abs < -3.5
    assert not report.passed
    assert not report.at_floor


def test_surrogate_with_gravity_matches_first_order_correction():
    # high-dimensional surrogate for the idealised clock under gravity:
    # the characteristics mean agrees with the first-order formula to
    # better than 1% of the correction term at a gentle coupling
    clk = idealised_surrogate(BENCH_OMEGA, d=64)
    state = bench_gaussian()
    # the top dial energies grow with d, so the second-order terms need a
    # gentler coupling than the d = 8 benchmarks to sit below 1e-2
    c = 6.0 * bench_c()
    result = mean_clock_time(clk, state, BENCH_T, G_EARTH, c=c)
    js = evolve_characteristics_g(clk, state, BENCH_T, G_EARTH, c=c)
    oracle = clock_time_stats(js, clk)[0]
    assert abs(oracle - result.mean_t) < 1e-2 * abs(result.correction)


VERIFY_CASES = [
    pytest.param("dial d=4", "gaussian", G_EARTH, id="swp4_gaussian_g"),
    pytest.param("gaussian dial d=8", "cat", G_EARTH, id="qi8_cat_g"),
    pytest.param("qubit phase", "cat", G_EARTH, id="qubit_cat_g"),
    pytest.param("gaussian dial d=64", "cat", 0.0, id="qi64_cat_g0"),
    pytest.param("gaussian dial d=64", "rest gaussian", None, id="qi64_rest_sigma"),
]


@pytest.mark.parametrize("clock_name,state_name,g", VERIFY_CASES)
def test_stacked_exact_matches_each_scaling_on_its_own_grid(clock_name, state_name, g):
    # lambda = 2 and 4 share the finer grid of lambda = 1; two grids that
    # both resolve the integrand agree to the rounding of the full reading
    # (halving a lambda's own spacing moves it as much)
    clk, state = CLOCKS[clock_name](), STATES[state_name]()
    sigma = g is None
    t = 0.3 * clock_period(clk) if sigma else BENCH_T
    if sigma:
        report = verify_sigma(clk, state, t, c_scalings=LAMS, base_c=bench_c())
    else:
        report = verify_mean_time(clk, state, t, g, c_scalings=LAMS, base_c=bench_c())
    for lam, exact in zip(LAMS, report.exact):
        js = evolve_characteristics_g(clk, state, t, 0.0 if sigma else g,
                                      order="c4" if sigma else "c2", c=lam * bench_c())
        own = clock_time_stats(js, clk)[1 if sigma else 0]
        assert abs(exact - own) < 1e-14 * abs(own)
        if lam == 1.0:
            assert exact == own


@pytest.mark.parametrize("clock_name,state_name,g", VERIFY_CASES)
def test_relative_residual_is_taken_against_the_formed_correction(clock_name, state_name, g):
    # the mean's correction is the t R (1 + tr E) that mean_clock_time formed,
    # the spread's the sigma_I + sigma_NI that sigma_breakdown formed: no
    # total is subtracted from another to get them back
    clk, state = CLOCKS[clock_name](), STATES[state_name]()
    c = LAMS * bench_c()
    if g is None:
        t = 0.3 * clock_period(clk)
        report = verify_sigma(clk, state, t, c_scalings=LAMS, base_c=bench_c())
        breakdown = sigma_breakdown(clk, state, t, c=c)
        corrections = breakdown.sigma_i + breakdown.sigma_ni
    else:
        report = verify_mean_time(clk, state, BENCH_T, g, c_scalings=LAMS, base_c=bench_c())
        corrections = mean_clock_time(clk, state, BENCH_T, g, c=c).correction
    assert report.relative_residuals == tuple(
        r / abs(corr) for r, corr in zip(report.residuals, corrections))


@pytest.mark.parametrize("t, c_scalings, message", [
    (BENCH_T, (1.0, 1.0, 1.0), "at least two distinct c scalings"),
    (BENCH_T, (1.0,), "at least two distinct c scalings"),
    (BENCH_T, 2.0, "at least two distinct c scalings"),
    (0.0, (1.0, 2.0, 4.0), "needs t != 0"),
], ids=["repeated_scaling", "one_scaling", "scalar_scaling", "zero_time"])
def test_verify_rejects_input_it_cannot_judge(t, c_scalings, message):
    # one distinct light speed leaves no decay to fit (0 / 0 in the fit for
    # repeated scalings), and at t = 0 every correction is 0, so every
    # relative residual would be inf
    clk, state = build_swp(4, BENCH_OMEGA), bench_gaussian(p0_sigmas=0.0)
    with pytest.raises(ValueError, match=message):
        verify_mean_time(clk, state, t, G_EARTH, c_scalings=c_scalings, base_c=bench_c())
    with pytest.raises(ValueError, match=message):
        verify_sigma(clk, state, t, c_scalings=c_scalings, base_c=bench_c())


def _count_calls(monkeypatch, module, name, counts):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_verify_evaluates_every_scaling_at_once(monkeypatch):
    # one free read of the clock and one joint evolution, whatever the
    # number of scalings
    from chronodil import dilation, precision

    counts = {}
    _count_calls(monkeypatch, oracle, "evolve_characteristics_g", counts)
    for module in (dilation, precision):
        _count_calls(monkeypatch, module, "free_reading", counts)
    clk, state = build_swp(4, BENCH_OMEGA), bench_gaussian()
    verify_mean_time(clk, state, BENCH_T, G_EARTH, c_scalings=LAMS, base_c=bench_c())
    assert counts == {"evolve_characteristics_g": 1, "free_reading": 1}
    counts.clear()
    verify_sigma(clk, bench_gaussian(p0_sigmas=0.0), 0.1 * BENCH_PERIOD, c_scalings=LAMS,
                 base_c=bench_c())
    assert counts == {"evolve_characteristics_g": 1, "free_reading": 1}


# ---------------------------------------------------------------------------
# the residual-decay fit


def test_fit_exponent_is_the_least_squares_slope():
    rng = np.random.default_rng(16)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            lams = np.sort(rng.uniform(0.5, 8.0, n))
            residuals = np.exp(rng.normal(-20.0, 5.0, n))
            slope = np.polyfit(np.log(lams), np.log(residuals), 1)[0]
            assert abs(_fit_exponent(lams, residuals) - slope) < 1e-12 * max(1.0, abs(slope))


def test_fit_exponent_needs_two_positive_residuals():
    lams = np.array([1.0, 2.0, 4.0])
    assert _fit_exponent(lams, np.array([0.0, 1e-9, 0.0])) is None
    assert _fit_exponent(lams, np.zeros(3)) is None
    assert _fit_exponent(lams, np.array([0.0, 4e-6, 1e-6])) == pytest.approx(-2.0, abs=1e-12)


def test_report_at_the_floor_fits_no_exponent():
    # residuals of one part in 1e15 of the reading are rounding: the report
    # passes on the floor and prints no slope fitted to them
    lams = np.array([1.0, 2.0, 4.0])
    rows = [(1.0, 1.0 + 1e-15 * k, 1e-6 / lam**2) for k, lam in enumerate(lams, 1)]
    report = _report("mean_clock_time", lams, rows, 1.0, "rel", -1.8)
    assert report.at_floor and report.resolved and report.passed
    assert report.exponent_abs is None and report.exponent_rel is None
    # they cannot judge a correction at or below the floor: unresolved, no pass
    for corr, resolved in ((2e-12, True), (1e-12, False), (1e-17, False)):
        report = _report("mean_clock_time", lams, [(1.0, 1.0, corr)] * 3, 1.0, "rel", -1.8)
        assert report.at_floor and report.resolved == resolved and report.passed == resolved


def test_report_refuses_a_correction_of_zero():
    # a zero correction has no relative residual: it is refused, as t = 0 is,
    # rather than reported as an infinite one
    lams = np.array([1.0, 2.0, 4.0])
    rows = [(1.0, 1.0 + 1e-9, 1e-6), (1.0, 1.0 + 1e-10, 0.0), (1.0, 1.0 + 1e-11, 1e-8)]
    with pytest.raises(ValueError, match=r"^verification needs a nonzero correction, "
                                         r"got 0 at c scaling 2\.0$"):
        _report("mean_clock_time", lams, rows, 1.0, "rel", -1.8)
