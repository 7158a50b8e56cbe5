import numpy as np
import pytest

from chronodil.clocks import build_qubit_phase, build_quasi_ideal, build_swp, ClockModel
from chronodil.dilation import mean_clock_time, sup_vs_mix
from chronodil.kinematics import GaussianState
from chronodil.linalg import projector
from chronodil.oracle import (
    clock_time_stats,
    evolve_characteristics_g,
    exact_evolve_g0,
    idealised_surrogate,
    reduced_clock_density,
    verify_mean_time,
    verify_sigma,
)
from chronodil.precision import sigma_breakdown, sigma_dispersion_exact, sigma_nr
from helpers import BENCH_OMEGA, BENCH_T, bench_c, bench_cat, bench_gaussian
from dense_reference import evolve_hermitian
from split_step import split_step_evolve

G_EARTH = 9.81
# about the step count a 0.1 rad cap on the phase advance per step gives
# for the benchmark packet and clocks below
SPLIT_STEPS = 850


# ---------------------------------------------------------------------------
# block-diagonal g = 0 evolution


def test_zero_clock_hamiltonian_leaves_clock_alone():
    basis0 = np.array([1.0, 0.0], dtype=complex)
    t_op = np.diag([0.0, 1.0]).astype(complex)
    clk = ClockModel(energies=np.zeros(2), psi0=basis0, t_cl=t_op, t2_cl=t_op @ t_op,
                     period=np.inf, time_offset=0.0)
    js = exact_evolve_g0(clk, bench_gaussian(), BENCH_T, c=bench_c())
    rho = reduced_clock_density(js)
    assert np.abs(rho - projector(clk.psi0)).max() < 1e-12


def test_narrow_packet_reduces_to_rescaled_time():
    # a near-plane-wave packet runs the clock at the single rate 1 + w(p0)
    from chronodil.precision import w_of_p

    state = GaussianState(x0=0.0, p0=3e-28, sigma_x=3e-4, mass=1e-25)
    c = 3e-3  # strong coupling so the rescaling is visible
    clk = build_swp(4, BENCH_OMEGA)
    t = BENCH_T
    js = exact_evolve_g0(clk, state, t, order="c2", c=c)
    rho = reduced_clock_density(js)
    scaled = evolve_hermitian(np.diag(clk.energies), projector(clk.psi0),
                              t * (1.0 + w_of_p(state.p0, state.mass, c, "c2")))
    # residual spread of w over the packet's +/- 8 sigma_p support
    assert np.abs(rho - scaled).max() < 1e-5


def test_norm_conservation_and_momentum_invariance():
    clk = build_quasi_ideal(8, BENCH_OMEGA, np.sqrt(8), m0=2.0)
    state = bench_gaussian()
    js0 = exact_evolve_g0(clk, state, 0.0, c=bench_c())
    js1 = exact_evolve_g0(clk, state, BENCH_T, c=bench_c())
    assert abs(js1.norm() - 1.0) < 1e-8
    # the momentum marginal is time invariant without gravity
    d0, d1 = (np.sum(np.abs(js.amplitudes) ** 2, axis=0) for js in (js0, js1))
    assert np.abs(d1 - d0).max() < 1e-12 * d0.max()


def test_g0_oracle_insensitive_to_grid_refinement():
    from chronodil.kinematics import default_momentum_grid

    clk = build_swp(4, BENCH_OMEGA)
    state = bench_gaussian()
    vals = []
    coarse = default_momentum_grid(state)
    for grid in (coarse, np.linspace(coarse[0], coarse[-1], 2 * coarse.size)):
        js = exact_evolve_g0(clk, state, BENCH_T, c=bench_c(), grid=grid)
        vals.append(clock_time_stats(js, clk)[0])
    assert abs(vals[0] - vals[1]) < 1e-12 * max(abs(v) for v in vals)


def test_mixture_rejected_by_pure_evolver():
    from chronodil.kinematics import MixtureState

    mix = MixtureState(components=((1.0, bench_gaussian()),))
    with pytest.raises(TypeError, match="ensemble"):
        exact_evolve_g0(build_swp(4, BENCH_OMEGA), mix, BENCH_T, c=bench_c())


# ---------------------------------------------------------------------------
# evolution with gravity: characteristics oracle and split-step reference


@pytest.mark.parametrize("clock_name", ["dial d=4", "gaussian dial d=8", "qubit phase"])
@pytest.mark.parametrize("state_name", ["gaussian", "cat"])
def test_characteristics_at_zero_g_matches_c2_block_oracle(clock_name, state_name):
    # the characteristics solution always carries the quartic kinetic term;
    # at g = 0 it is a phase common to all clock components, so the reading
    # equals the 'c2' block oracle's
    clk = {"dial d=4": build_swp(4, BENCH_OMEGA),
           "gaussian dial d=8": build_quasi_ideal(8, BENCH_OMEGA, np.sqrt(8), m0=2.0),
           "qubit phase": build_qubit_phase(BENCH_OMEGA)}[clock_name]
    state = {"gaussian": bench_gaussian(), "cat": bench_cat(theta=0.7)}[state_name]
    c = bench_c()
    mean_char = clock_time_stats(evolve_characteristics_g(clk, state, BENCH_T, 0.0, c=c), clk)[0]
    mean_block = clock_time_stats(exact_evolve_g0(clk, state, BENCH_T, order="c2", c=c), clk)[0]
    assert abs(mean_char - mean_block) < 1e-12 * abs(mean_block)


def test_characteristics_rejects_mixture_and_narrow_grid():
    from chronodil.kinematics import MixtureState, to_grid

    clk = build_swp(4, BENCH_OMEGA)
    mix = MixtureState(components=((1.0, bench_gaussian()),))
    with pytest.raises(TypeError, match="ensemble"):
        evolve_characteristics_g(clk, mix, BENCH_T, G_EARTH, c=bench_c())
    state = bench_gaussian()
    # wide enough for the unshifted packet, but the shift by the force (about
    # 3 sigma_p here) moves part of the packet off every row of the stacked grid
    grid = np.linspace(state.p0 - 6.0 * state.sigma_p, state.p0 + 8.0 * state.sigma_p, 2048)
    assert to_grid(state, grid).captured_norm > 1.0 - 1e-6
    with pytest.raises(ValueError, match="captured norm"):
        evolve_characteristics_g(clk, state, BENCH_T, G_EARTH, c=bench_c(), grid=grid)


def test_split_step_matches_block_oracle_at_zero_g():
    clk = build_swp(4, BENCH_OMEGA)
    state = bench_gaussian()
    c = bench_c()
    js_block = exact_evolve_g0(clk, state, BENCH_T, order="c2", c=c)
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
    clk = ClockModel(energies=np.zeros(2), psi0=basis0, t_cl=t_op, t2_cl=t_op @ t_op,
                     period=np.inf, time_offset=0.0)
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


def test_oracle_confirms_coherence_split():
    # three block-oracle runs (superposition and both constituents) against
    # the closed-form coherence contribution
    clk = idealised_surrogate(BENCH_OMEGA, d=64)
    cat = bench_cat(theta=0.0)
    lower = cat.base
    upper = GaussianState(lower.x0 + cat.delta_x0, lower.p0, lower.sigma_x, lower.mass)
    c = bench_c()
    t = BENCH_T

    def oracle_mean(ks):
        js = exact_evolve_g0(clk, ks, t, order="c2", c=c)
        return clock_time_stats(js, clk)[0]

    t_sup = oracle_mean(cat)
    t_mix = cat.alpha * oracle_mean(lower) + (1.0 - cat.alpha) * oracle_mean(upper)
    closed = sup_vs_mix(cat, t, 0.0, c=c).t_coh
    assert abs((t_sup - t_mix) - closed) < 1e-2 * abs(closed)


def test_verify_sigma_time_zero_matches_free_spread():
    clk = idealised_surrogate(BENCH_OMEGA, d=64)
    state = bench_gaussian(p0_sigmas=0.0)
    js = exact_evolve_g0(clk, state, 0.0, order="c4", c=bench_c())
    assert abs(clock_time_stats(js, clk)[1] - sigma_nr(clk, 0.0)) < 1e-12 * clk.period


def test_sigma_excess_quadratic_in_time():
    clk = idealised_surrogate(BENCH_OMEGA, d=64)
    state = bench_gaussian(p0_sigmas=0.0)
    c = bench_c()

    def excess(t):
        js = exact_evolve_g0(clk, state, t, order="c4", c=c)
        return clock_time_stats(js, clk)[1] - sigma_nr(clk, t)

    t = 0.55 * BENCH_T
    ratio = excess(2.0 * t) / excess(t)
    assert abs(ratio - 4.0) < 0.2


def test_sigma_excess_tracks_dispersion_term_not_contracted_form():
    # the joint evolution supports the variance-law closed form; the
    # contracted form overshoots by 2.5x for a rest Gaussian
    clk = idealised_surrogate(BENCH_OMEGA, d=64)
    state = bench_gaussian(p0_sigmas=0.0)
    c = bench_c()
    t = 0.3 * clk.period
    js = exact_evolve_g0(clk, state, t, order="c4", c=c)
    s_nr = sigma_nr(clk, t)
    excess = clock_time_stats(js, clk)[1] - s_nr
    dispersion = sigma_dispersion_exact(state, t, s_nr, c=c)
    assert abs(excess / dispersion - 1.0) < 0.05
    breakdown = sigma_breakdown(clk, state, t, c=c)
    assert 0.35 < excess / breakdown.sigma_i < 0.45


def test_verify_sigma_report_is_honest():
    clk = idealised_surrogate(BENCH_OMEGA, d=64)
    state = bench_gaussian(p0_sigmas=0.0)
    report = verify_sigma(clk, state, 0.3 * clk.period,
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
    correction = result.mean_t - result.mean_t_nr
    assert abs(oracle - result.mean_t) < 1e-2 * abs(correction)


def test_verify_mean_time_mixture_state():
    from chronodil.kinematics import MixtureState

    a = bench_gaussian()
    b = GaussianState(a.x0 + 2e-7, a.p0, a.sigma_x, a.mass)
    mix = MixtureState(components=((0.4, a), (0.6, b)))
    clk = build_swp(4, BENCH_OMEGA)
    report = verify_mean_time(clk, mix, BENCH_T, 0.0,
                              c_scalings=(1.0, 2.0, 4.0), base_c=bench_c())
    assert report.passed
