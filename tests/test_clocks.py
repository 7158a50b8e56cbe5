import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chronodil.clocks import (
    ClockModel,
    IdealisedClock,
    build_qubit_phase,
    build_quasi_ideal,
    build_swp,
    circular_mean_time,
    commutator_form_check,
    covariant_moment_check,
    error_trace,
    evolve,
    fourier_time_basis,
    mean_clock_time_nr,
)
from chronodil.constants import HBAR
from chronodil.linalg import projector
from dense_reference import evolve_hermitian


def swp(d, omega=1.0):
    return build_swp(d, omega)


def quasi(d, sigma_bar, m0, omega=1.0, n0=None):
    return build_quasi_ideal(d, omega, sigma_bar, m0, n0)


def qubit(omega=1.0):
    return build_qubit_phase(omega)


# ---------------------------------------------------------------------------
# construction


def test_swp_period_and_time_eigenvalues():
    clk = swp(2)
    assert np.isclose(clk.period, 2.0 * np.pi)
    raw_eigs = np.sort(np.linalg.eigvalsh(clk.t_cl + clk.time_offset * np.eye(clk.dim)))
    assert np.allclose(raw_eigs, [0.0, np.pi], atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_swp_time_basis_mutually_unbiased(d):
    basis = fourier_time_basis(d)
    energy_overlaps = np.abs(basis) ** 2
    assert np.allclose(energy_overlaps, 1.0 / d, atol=1e-12)


def test_swp_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_swp(1, 1.0)
    with pytest.raises(ValueError):
        build_swp(4, 0.0)


def test_quasi_ideal_normalised():
    for d, sb, m0 in [(8, 2.0, 4.0), (16, 4.0, 0.0), (32, np.sqrt(32), 11.3)]:
        clk = quasi(d, sb, m0)
        assert abs(np.vdot(clk.psi0, clk.psi0).real - 1.0) < 1e-12


@pytest.mark.parametrize("clk", [
    swp(5), build_swp(6, 1e3),
    quasi(32, np.sqrt(32), m0=8.0), build_quasi_ideal(16, 1e3, 4.0, 4.0),
    qubit(), build_qubit_phase(1e3),
], ids=["swp", "swp_si", "quasi_ideal", "quasi_ideal_si", "qubit", "qubit_si"])
def test_evolve_matches_dense_reference(clk):
    for frac in (0.0, 0.13, 0.5, 0.77, 3.4):
        t = frac * clk.period
        dense = evolve_hermitian(np.diag(clk.energies), projector(clk.psi0), t, HBAR)
        assert np.abs(projector(evolve(clk, t)) - dense).max() < 1e-13


def test_energies_are_the_stored_diagonal():
    omega = 1.0
    assert np.array_equal(swp(4, omega).energies, np.arange(4) * HBAR * omega)
    assert np.array_equal(qubit(omega).energies, (HBAR * omega / 2) * np.array([-1.0, 1.0]))


def make_clock(**fields):
    """A valid two-level ClockModel with ``fields`` replaced."""
    args = dict(energies=np.array([0.0, 1.0]), psi0=np.array([1.0, 0.0]),
                t_cl=np.eye(2, dtype=complex), t2_cl=np.eye(2, dtype=complex),
                period=1.0, time_offset=0.0)
    return ClockModel(**{**args, **fields})


# the Hamiltonian is given by its real diagonal, the energies
@pytest.mark.parametrize("energies", [
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([0.0, 1.0 + 1e-3j]),
    np.float64(1.0),
    np.array([0.0, np.inf]),
    np.array([np.nan, 1.0]),
], ids=["non_diagonal", "complex_diagonal", "wrong_shape", "infinite", "nan"])
def test_clock_model_requires_real_diagonal_hamiltonian(energies):
    with pytest.raises(ValueError, match="energies"):
        make_clock(energies=energies)


def test_clock_model_rejects_mismatched_state_shape():
    with pytest.raises(ValueError, match="psi0"):
        make_clock(psi0=np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("norm", [0.5, 1.0 + 2e-12, 1.0 - 2e-12])
def test_clock_model_rejects_non_unit_ket(norm):
    with pytest.raises(ValueError, match="unit ket"):
        make_clock(psi0=np.array([norm, 0.0]))
    make_clock(psi0=np.array([1.0 + 5e-13, 0.0]))  # within 1e-12 of a unit norm


@pytest.mark.parametrize("name", ["t_cl", "t2_cl"])
def test_clock_model_rejects_mismatched_moment_operator(name):
    with pytest.raises(ValueError, match=name):
        make_clock(**{name: np.eye(3, dtype=complex)})
    with pytest.raises(ValueError, match=name):
        make_clock(**{name: np.ones(2, dtype=complex)})


@pytest.mark.parametrize("clk, projective", [
    (swp(6), True), (quasi(16, 4.0, m0=4.0), True), (qubit(), False),
], ids=["swp", "quasi_ideal", "qubit"])
def test_second_moment_dominates_squared_first_moment(clk, projective):
    # T2 - T^2 is the outcome variance operator: positive semidefinite, and
    # zero for a projective measurement
    excess = clk.t2_cl - clk.t_cl @ clk.t_cl
    assert np.linalg.eigvalsh(excess).min() > -1e-12
    if projective:
        assert np.abs(excess).max() < 1e-12
    else:
        assert np.linalg.eigvalsh(excess).max() > 0.1


def test_quasi_ideal_circular_mean_matches_centre():
    # a packet centred on the dial cut still has circular mean at the cut
    clk = quasi(16, 4.0, m0=0.0, n0=7.5)
    cm = circular_mean_time(clk)
    dist = min(cm % clk.period, clk.period - cm % clk.period)
    assert dist < 0.05 * clk.period


def test_quasi_ideal_rejects_sigma_out_of_range():
    with pytest.raises(ValueError):
        quasi(8, 0.0, 4.0)
    with pytest.raises(ValueError):
        quasi(8, 9.0, 4.0)


def test_qubit_phase_first_moment_trace():
    clk = qubit(omega=2.0)
    t_raw = clk.t_cl + clk.time_offset * np.eye(clk.dim)
    assert np.isclose(np.trace(t_raw).real, 2.0 * np.pi / 2.0, atol=1e-12)


def test_qubit_phase_rejects_bad_omega():
    with pytest.raises(ValueError):
        build_qubit_phase(-1.0)


# ---------------------------------------------------------------------------
# error trace


def test_idealised_error_trace_vanishes():
    clk = IdealisedClock(sigma_t0=1e-9)
    for t in (0.0, 0.3, 12.0):
        assert error_trace(clk, t) == 0.0


@pytest.mark.parametrize("d", range(2, 17))
def test_swp_error_trace_minus_one_at_focusing_times(d):
    clk = swp(d)
    for m in range(d):
        assert abs(error_trace(clk, m * clk.period / d) + 1.0) < 1e-10


def test_swp_error_trace_between_focusing_times():
    # frozen from brute-force matrix evaluation, cross-checked against the
    # derivative identity d<T>/dt = 1 + tr E(t)
    clk = swp(5)
    t = clk.period / 10.0
    val = error_trace(clk, t)
    assert abs(val - 0.5084572773) < 1e-9
    h = 1e-6
    derivative = (mean_clock_time_nr(clk, t + h)
                  - mean_clock_time_nr(clk, t - h)) / (2.0 * h)
    assert abs(derivative - 1.0 - val) < 1e-6


def test_quasi_ideal_error_smaller_at_higher_dimension():
    def max_error(d):
        clk = quasi(d, np.sqrt(d), m0=d / 4.0)
        times = np.linspace(0.0, clk.period / 2.0, 8 * d)
        return max(abs(error_trace(clk, t)) for t in times)

    assert max_error(32) < max_error(8)


def test_quasi_ideal_error_decay_signature():
    maxima = []
    for d in (8, 16, 32, 64):
        clk = quasi(d, np.sqrt(d), m0=d / 4.0)
        times = np.linspace(0.0, clk.period / 2.0, 8 * d)
        maxima.append(max(abs(error_trace(clk, t)) for t in times))
    assert all(b < a for a, b in zip(maxima, maxima[1:]))
    ratios = [b / a for a, b in zip(maxima, maxima[1:])]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))


@given(st.sampled_from(["swp", "quasi", "qubit"]), st.floats(0.0, 20.0))
@settings(max_examples=40, deadline=None)
def test_error_trace_is_real(kind, t):
    clk = {"swp": lambda: swp(5), "quasi": lambda: quasi(16, 4.0, 8.0),
           "qubit": lambda: qubit()}[kind]()
    # realness is asserted inside error_trace; a complex trace raises
    error_trace(clk, t)


def test_qubit_phase_error_trace_convention():
    # |1 + tr E(t)| = |cos(omega t)| for every t; the computed sign makes
    # 1 + tr E = -cos(omega t)
    clk = qubit()
    for wt in (0.0, 0.4, np.pi / 2.0, 2.2, np.pi, 5.0):
        val = 1.0 + error_trace(clk, wt)
        assert abs(abs(val) - abs(np.cos(wt))) < 1e-12
        assert abs(val + np.cos(wt)) < 1e-12


def test_qubit_phase_good_at_half_turn():
    # at omega t = pi the relativistic term carries weight |1 + tr E| = 1,
    # the same as for an idealised clock
    clk = qubit()
    assert abs(abs(1.0 + error_trace(clk, np.pi)) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# free mean reading


def test_mean_reading_starts_at_zero():
    for clk in (swp(4), quasi(16, 4.0, 8.0), qubit()):
        assert abs(mean_clock_time_nr(clk, 0.0)) < 1e-12


def test_swp_focusing_time_reading():
    clk = swp(4)
    t = clk.period / 4.0
    assert abs(mean_clock_time_nr(clk, t) - t) < 1e-10


def test_quasi_ideal_tracks_lab_time():
    clk = quasi(32, np.sqrt(32), m0=8.0)
    times = np.linspace(0.0, clk.period / 2.0, 101)
    worst = max(abs(mean_clock_time_nr(clk, t) - t) for t in times)
    assert worst < 0.02 * clk.period


@pytest.mark.parametrize("clk, frac", [(swp(5), 0.15), (swp(5), 1.7),
                                       (quasi(16, 4.0, m0=4.0), 0.4), (qubit(), 0.3)],
                         ids=["swp", "swp_wrapped", "quasi_ideal", "qubit"])
def test_integrated_error_trace_matches_quadrature(clk, frac):
    # <T>_NR(t) - t is the integral of tr E over [0, t]; the dial's reading
    # is a smooth expectation value, so this holds past the wrap as well
    from scipy.integrate import quad

    t = frac * clk.period
    numeric, _ = quad(lambda s: error_trace(clk, s), 0.0, t,
                      epsabs=1e-13, epsrel=1e-12, limit=200)
    assert abs(mean_clock_time_nr(clk, t) - t - numeric) < 1e-10


# ---------------------------------------------------------------------------
# covariant-measurement algebra


def test_moment_check_n0_resolution_of_identity():
    for clk in (swp(8), quasi(32, 4.0, 8.0), qubit(), IdealisedClock(0.2)):
        report = covariant_moment_check(clk, 0, 1.0 if isinstance(clk, IdealisedClock)
                                        else 2.0 * clk.period / 8.0)
        assert np.isclose(report.lhs, 1.0, atol=1e-10)
        assert np.isclose(report.rhs, 1.0, atol=1e-10)


def test_moment_check_idealised_first_moment():
    clk = IdealisedClock(sigma_t0=0.4)
    report = covariant_moment_check(clk, 1, 0.7)
    assert report.residual < 1e-14
    assert np.isclose(report.lhs, 0.7)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_moment_check_dial_clocks_wrap_safe(n):
    clk = swp(8)
    report = covariant_moment_check(clk, n, 3.0 * clk.period / 8.0)
    assert report.applicable
    assert report.residual < 1e-8
    qi = quasi(32, 4.0, m0=8.0)
    report = covariant_moment_check(qi, n, 4.0 * qi.period / 32.0)
    assert report.applicable
    assert report.residual < 1e-8


def test_moment_check_qubit_phase_variance_time_independent():
    clk = qubit()
    report = covariant_moment_check(clk, 2, 0.3)
    assert report.residual < 1e-8
    variances = []
    for t in (0.0, 0.3, 1.7):
        m1 = covariant_moment_check(clk, 1, t).lhs
        m2 = covariant_moment_check(clk, 2, t).lhs
        variances.append(m2 - m1**2)
    assert np.ptp(variances) < 1e-10


def test_moment_check_flags_off_grid_dial_times():
    clk = swp(8)
    report = covariant_moment_check(clk, 2, 0.37 * clk.period)
    assert not report.applicable


def test_moment_check_rejects_generic_clock():
    generic = make_clock()
    with pytest.raises(ValueError, match="unsupported"):
        covariant_moment_check(generic, 1, 0.1)


def test_commutator_form_qubit_phase():
    report = commutator_form_check(qubit())
    assert report.applicable
    assert report.residual < 1e-10


def test_commutator_form_flags_wrong_period_at_si_hbar():
    # the residual is dimensionless: a period 50% too long reads 0.5 at SI hbar
    clk = build_qubit_phase(1.0)
    assert commutator_form_check(clk).residual < 1e-10
    wrong = dataclasses.replace(clk, period=1.5 * clk.period)
    assert abs(commutator_form_check(wrong).residual - 0.5) < 1e-10


def test_commutator_form_idealised_pure_heisenberg():
    report = commutator_form_check(IdealisedClock(0.1))
    assert report.applicable
    assert report.residual == 0.0
    assert "Heisenberg" in report.note


def test_commutator_form_discrete_flagged():
    report = commutator_form_check(swp(6))
    assert not report.applicable
    assert "discrete PVM" in report.note
