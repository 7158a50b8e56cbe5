import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chronodil.clocks import (
    ClockModel,
    IdealisedClock,
    build_qubit_phase,
    build_quasi_ideal,
    build_swp,
    apply_time,
    evolve,
    free_reading,
    time_probabilities,
)
from chronodil.constants import ATOMIC_MASS_UNIT, G_STANDARD, HBAR
from chronodil.dilation import mean_clock_time
from chronodil.kinematics import GaussianState
from covariant_reference import (circular_mean_time, clock_period, commutator_residual,
                                  moment_polynomial, phase_moment_operator, projector)
from dense_reference import (dense_moment_operators, dial_moment_operators_circulant,
                             dial_moment_operators_dense, evolve_hermitian, fourier_time_basis)
from helpers import BENCH_OMEGA, free_error_trace


def swp(d, omega=1.0):
    return build_swp(d, omega)


def quasi(d, sigma_bar, m0, omega=1.0):
    return build_quasi_ideal(d, omega, sigma_bar, m0)


def qubit(omega=1.0):
    return build_qubit_phase(omega)


# ---------------------------------------------------------------------------
# construction


def test_swp_period_and_time_eigenvalues():
    clk = swp(2)
    assert np.isclose(clock_period(clk), 2.0 * np.pi)
    raw_eigs = np.sort(np.linalg.eigvalsh(dial_moment_operators_dense(2, 1.0)[0]))
    assert np.allclose(raw_eigs, [0.0, np.pi], atol=1e-12)
    # the calibrated readings are the raw ones less the first, here 0
    assert np.allclose(clk.time_values - clk.time_values[0], raw_eigs, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_swp_time_basis_mutually_unbiased(d):
    basis = fourier_time_basis(d)
    energy_overlaps = np.abs(basis) ** 2
    assert np.allclose(energy_overlaps, 1.0 / d, atol=1e-12)
    # every energy ket (a row of the identity) reads each time ket with 1/d
    assert np.allclose(time_probabilities(swp(d), np.eye(d)), 1.0 / d, atol=1e-12)


def test_fourier_time_basis_unitary():
    basis = fourier_time_basis(256)
    assert np.abs(basis @ basis.conj().T - np.eye(256)).max() < 1e-13
    # the FFT probabilities are |theta_m^dag psi|^2 for every ket of a stack
    rng = np.random.default_rng(11)
    kets = rng.normal(size=(5, 256)) + 1j * rng.normal(size=(5, 256))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    dense = np.abs(kets @ basis.conj()) ** 2
    assert np.abs(time_probabilities(swp(256), kets) - dense).max() < 1e-13 * dense.max()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 64, 256])
@pytest.mark.parametrize("kind", ["swp", "quasi_ideal"])
def test_dial_moment_operators_match_dense_reference(kind, d):
    # the dial's T and T2 = T^2, applied by FFT, against F diag(m tau) F^dag
    # and its square built from an explicit Fourier matrix
    omega = 1e3
    clk = (build_swp(d, omega) if kind == "swp"
           else build_quasi_ideal(d, omega, np.sqrt(d), m0=d / 4.0))
    assert np.isrealobj(clk.time_values) and clk.time_values.shape == (d,)
    t_raw, t2_raw = dial_moment_operators_dense(d, omega)
    for closed, dense in zip(dial_moment_operators_circulant(d, omega), (t_raw, t2_raw)):
        assert np.abs(closed - dense).max() < 1e-12 * np.abs(dense).max()
    t_shifted = t_raw + clk.time_values[0] * np.eye(d)  # the offset is -time_values[0]
    columns = apply_time(clk, np.eye(d))  # row j is T e_j
    assert np.abs(columns.T - t_shifted).max() < 1e-12 * np.abs(t_raw).max()
    squared = apply_time(clk, columns)
    assert np.abs(squared.T - t_shifted @ t_shifted).max() < 1e-12 * np.abs(t2_raw).max()
    # shifting inside the FFT is T - shift I, one shift per ket
    shifts = np.linspace(-1.0, 1.0, d) * clock_period(clk)
    np.testing.assert_allclose(apply_time(clk, np.eye(d), shifts),
                               columns - shifts[:, None] * np.eye(d),
                               rtol=0, atol=1e-12 * np.abs(t_raw).max())


@pytest.mark.parametrize("clk", [
    swp(5), build_swp(4, 1e3), quasi(16, 4.0, m0=4.0), build_quasi_ideal(32, 1e3, 4.0, 8.0),
    qubit(), build_qubit_phase(1e3),
], ids=["swp", "swp_si", "quasi_ideal", "quasi_ideal_si", "qubit", "qubit_si"])
def test_reading_matches_dense_operators(clk):
    # mean, spread and error trace against psi^dag A psi of dense operators,
    # with M = -(i/hbar)(T H - H T) formed in full
    t_op, t2_op = dense_moment_operators(clk)
    h_op = np.diag(clk.energies)
    rate = (-1j / HBAR) * (t_op @ h_op - h_op @ t_op)
    times = np.array([0.0, 0.13, 0.5, 0.77, 3.4]) * clock_period(clk)
    kets = evolve(clk, times)
    mean = np.einsum("nj,jk,nk->n", kets.conj(), t_op, kets).real
    second = np.einsum("nj,jk,nk->n", kets.conj(), t2_op, kets).real
    trace = np.einsum("nj,jk,nk->n", kets.conj(), rate, kets).real - 1.0
    scale = np.abs(t_op).max()
    free = free_reading(clk, times)
    mean_nr, sigma_nr = free.mean, free.spread
    np.testing.assert_allclose(mean_nr, mean, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(sigma_nr**2, second - mean**2, rtol=0, atol=1e-12 * scale**2)
    np.testing.assert_allclose(free_error_trace(clk, times), trace, rtol=0, atol=1e-11)


def test_quasi_ideal_reading_matches_mpmath():
    # <T> and sigma_NR of the d = 128 quasi-ideal dial against the same
    # time-basis sums at 40 digits, from the stored psi0 with exact phases
    # j omega t; a spread taken as sqrt(<T2> - <T>^2) is off by about 4e-14
    import mpmath as mp

    d = 128
    clk = build_quasi_ideal(d, BENCH_OMEGA, np.sqrt(d), 32.0)
    with mp.workdps(40):
        tau = 2 * mp.pi / (mp.mpf(BENCH_OMEGA) * d)
        lam = [m * tau + mp.mpf(clk.time_values[0]) for m in range(d)]
        psi0 = [mp.mpc(z) for z in clk.psi0]
        for frac in (0.1, 0.25, 0.4):
            t = frac * clock_period(clk)
            probs = []
            for m in range(d):
                z = mp.expj(2 * mp.pi * m / d - mp.mpf(BENCH_OMEGA) * mp.mpf(t))
                amp = mp.mpc(0)
                for j in reversed(range(d)):  # sum_j psi0_j z^j by Horner
                    amp = amp * z + psi0[j]
                probs.append(abs(amp) ** 2 / d)
            mean = mp.fsum(p * x for p, x in zip(probs, lam))
            spread = mp.sqrt(mp.fsum(p * (x - mean) ** 2 for p, x in zip(probs, lam)))
            free = free_reading(clk, t)
            mean_nr, sigma_nr = free.mean, free.spread
            assert abs(float((mean_nr - mean) / mean)) < 2e-15
            assert abs(float((sigma_nr - spread) / spread)) < 2e-15


def test_swp_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_swp(1, 1.0)
    with pytest.raises(ValueError):
        build_swp(4, 0.0)


def test_quasi_ideal_rejects_bad_arguments():
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        build_quasi_ideal(1, 1.0, 0.5, 0.0)
    for omega in (0.0, -1.0):
        with pytest.raises(ValueError, match="omega must be positive"):
            build_quasi_ideal(4, omega, 1.0, 0.0)


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
        t = frac * clock_period(clk)
        dense = evolve_hermitian(np.diag(clk.energies), projector(clk.psi0), t, HBAR)
        assert np.abs(projector(evolve(clk, t)) - dense).max() < 1e-13


def test_energies_are_the_stored_diagonal():
    omega = 1.0
    assert np.array_equal(swp(4, omega).energies, np.arange(4) * HBAR * omega)
    assert np.array_equal(qubit(omega).energies, (HBAR * omega / 2) * np.array([-1.0, 1.0]))


def make_clock(**fields):
    """A valid two-level ClockModel with ``fields`` replaced."""
    args = dict(energies=np.array([0.0, 1.0]), psi0=np.array([1.0, 0.0]),
                t_cl=np.eye(2, dtype=complex), t2_cl=np.eye(2, dtype=complex))
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


@pytest.mark.parametrize("norm", [0.5, 1.0 + 2e-12, 1.0 - 2e-12, float("nan")])
def test_clock_model_rejects_non_unit_ket(norm):
    # the message prints the norm as a plain number, not a numpy repr
    with pytest.raises(ValueError, match=re.escape(f"unit ket, got norm {norm!r}") + "$"):
        make_clock(psi0=np.array([norm, 0.0]))
    make_clock(psi0=np.array([1.0 + 5e-13, 0.0]))  # within 1e-12 of a unit norm


@pytest.mark.parametrize("name", ["t_cl", "t2_cl"])
def test_clock_model_rejects_mismatched_moment_operator(name):
    with pytest.raises(ValueError, match=name):
        make_clock(**{name: np.eye(3, dtype=complex)})
    with pytest.raises(ValueError, match=name):
        make_clock(**{name: np.ones(2, dtype=complex)})


@pytest.mark.parametrize("name", ["t_cl", "t2_cl"])
def test_clock_model_rejects_non_hermitian_moment_operator(name):
    op = np.array([[1.0, 0.5 + 0.25j], [0.5 - 0.25j, 2.0]])
    make_clock(**{name: op})
    op[0, 1] += 1e-9
    with pytest.raises(ValueError, match=f"{name} must be Hermitian"):
        make_clock(**{name: op})


@pytest.mark.parametrize("name", ["t_cl", "t2_cl"])
def test_clock_model_rejects_nan_moment_operator(name):
    op = np.array([[1.0, 0.5 + 0.25j], [0.5 - 0.25j, np.nan]])
    with pytest.raises(ValueError, match=f"{name} must be Hermitian"):
        make_clock(**{name: op})


@pytest.mark.parametrize("sigma_t0", [-1e-9, float("nan"), float("inf")])
def test_idealised_clock_rejects_bad_spread(sigma_t0):
    with pytest.raises(ValueError, match="sigma_t0"):
        IdealisedClock(sigma_t0)
    IdealisedClock(0.0)


def make_dial(**fields):
    """A valid two-level ClockModel given by its time values, ``fields`` replaced."""
    args = dict(energies=np.array([0.0, 1.0]), psi0=np.array([1.0, 0.0]),
                time_values=np.array([0.0, 0.5]))
    return ClockModel(**{**args, **fields})


@pytest.mark.parametrize("values", [
    np.array([[0.0, 0.5]]), np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5 + 1e-3j]),
    np.array([0.0, np.inf]), np.array([np.nan, 0.5]),
], ids=["two_dimensional", "wrong_length", "complex", "infinite", "nan"])
def test_clock_model_rejects_bad_time_values(values):
    make_dial()
    with pytest.raises(ValueError, match="time_values"):
        make_dial(time_values=values)


def test_clock_model_takes_exactly_one_measurement():
    with pytest.raises(ValueError, match="not both"):
        make_dial(t_cl=np.eye(2, dtype=complex), t2_cl=np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="t_cl is required"):
        make_dial(time_values=None)


@pytest.mark.parametrize("clk, projective", [
    (swp(6), True), (quasi(16, 4.0, m0=4.0), True), (qubit(), False),
], ids=["swp", "quasi_ideal", "qubit"])
def test_second_moment_dominates_squared_first_moment(clk, projective):
    # T2 - T^2 is the outcome variance operator: positive semidefinite, and
    # zero for a projective measurement
    t_op, t2_op = dense_moment_operators(clk)
    excess = t2_op - t_op @ t_op
    assert np.linalg.eigvalsh(excess).min() > -1e-12
    if projective:
        assert np.abs(excess).max() < 1e-12
    else:
        assert np.linalg.eigvalsh(excess).max() > 0.1


def test_quasi_ideal_circular_mean_matches_centre():
    # a packet centred on the dial cut still has circular mean at the cut
    clk = quasi(16, 4.0, m0=0.0)
    cm = circular_mean_time(clk)
    dist = min(cm % clock_period(clk), clock_period(clk) - cm % clock_period(clk))
    assert dist < 0.05 * clock_period(clk)


def test_quasi_ideal_rejects_sigma_out_of_range():
    with pytest.raises(ValueError):
        quasi(8, 0.0, 4.0)
    with pytest.raises(ValueError):
        quasi(8, 9.0, 4.0)


def test_qubit_phase_first_moment_trace():
    # the raw first moment over one period has trace 2 pi / omega, and the
    # stored one is offset so that <T>(0) = 0
    clk = qubit(omega=2.0)
    t_raw = phase_moment_operator(1, 0.0, np.pi, 2.0)
    assert abs(np.trace(t_raw).real - np.pi) <= 1e-15 * np.pi
    offset = np.vdot(clk.psi0, t_raw @ clk.psi0).real
    defect = np.abs(clk.t_cl - (t_raw - offset * np.eye(clk.dim))).max()
    assert defect <= 1e-15 * np.abs(clk.t_cl).max()


# omega = 1 rad/s, the benchmark's 2 ms period, an SI-scale 1e3 rad/s and an
# optical 7.3e15 rad/s
OMEGAS = [1.0, 2.0 * np.pi / 2e-3, 1e3, 7.3e15]


@pytest.mark.parametrize("omega", OMEGAS)
def test_qubit_phase_first_moment_is_sigma_y(omega):
    # T = sigma_y/omega has a zero diagonal and a purely imaginary
    # off-diagonal, so <+|T|+> is 0 without rounding
    clk = qubit(omega)
    assert np.all(np.diag(clk.t_cl) == 0.0)
    assert np.all(clk.t_cl[[0, 1], [1, 0]].real == 0.0)


@pytest.mark.parametrize("omega", OMEGAS)
def test_qubit_phase_closed_form_matches_window_integral(omega):
    # the window integral over one period less the offset <T>(0) = P/2; its
    # recursion rounds at up to about 1e-15 of the largest entry
    clk = qubit(omega)
    half = np.pi / omega
    t_raw = phase_moment_operator(1, 0.0, 2.0 * half, omega)
    t2_raw = phase_moment_operator(2, 0.0, 2.0 * half, omega)
    calibrated = (t_raw - half * np.eye(2), t2_raw - 2.0 * half * t_raw + half**2 * np.eye(2))
    for stored, integral in zip((clk.t_cl, clk.t2_cl), calibrated):
        assert np.abs(stored - integral).max() <= 2e-15 * np.abs(stored).max()


@pytest.mark.parametrize("omega", OMEGAS[:3])
def test_qubit_phase_closed_form_matches_50_digits(omega):
    # (1/P) int_0^P (s - P/2)^k {1, e^{i omega s}} ds by 50-digit quadrature:
    # the diagonal and the <0|.|1> entry of the k-th calibrated moment. At
    # 7.3e15 rad/s the quadrature itself loses digits, so that omega is
    # held to the window integral only
    mpmath = pytest.importorskip("mpmath")
    clk = qubit(omega)
    with mpmath.mp.workdps(50):
        w = mpmath.mpf(omega)
        period = 2 * mpmath.pi / w

        def moment(k, phase):
            return mpmath.quad(lambda s: (s - period / 2) ** k * phase(s), [0, period]) / period

        for k, stored in ((1, clk.t_cl), (2, clk.t2_cl)):
            diag = moment(k, lambda s: 1)
            off = moment(k, lambda s: mpmath.expj(w * s))
            scale = np.abs(stored).max()
            for got, want in ((stored[0, 0], diag), (stored[1, 1], diag), (stored[0, 1], off),
                              (stored[1, 0], mpmath.conj(off))):
                assert abs(got - complex(want)) <= 1e-15 * scale


def test_qubit_phase_rejects_bad_omega():
    with pytest.raises(ValueError):
        build_qubit_phase(-1.0)


# ---------------------------------------------------------------------------
# error trace


def test_idealised_error_trace_vanishes():
    clk = IdealisedClock(sigma_t0=1e-9)
    for t in (0.0, 0.3, 12.0):
        assert free_error_trace(clk, t) == 0.0


@pytest.mark.parametrize("d", range(2, 17))
def test_swp_error_trace_minus_one_at_focusing_times(d):
    clk = swp(d)
    for m in range(d):
        assert abs(free_error_trace(clk, m * clock_period(clk) / d) + 1.0) < 1e-10


def test_swp_error_trace_between_focusing_times():
    # frozen from brute-force matrix evaluation, cross-checked against the
    # derivative identity d<T>/dt = 1 + tr E(t)
    clk = swp(5)
    t = clock_period(clk) / 10.0
    val = free_error_trace(clk, t)
    assert abs(val - 0.5084572773) < 1e-9
    h = 1e-6
    derivative = (free_reading(clk, t + h).mean - free_reading(clk, t - h).mean) / (2.0 * h)
    assert abs(derivative - 1.0 - val) < 1e-6


def test_reading_derivatives_match_central_differences():
    # q(s) = sigma_NR(s)^2 + (<T>(s) - a)^2 at the fixed a = <T>(t); the
    # differences are good to about 3e-7 at this step
    clk = swp(5)
    t, h = clock_period(clk) / 10.0, 1e-4
    near = free_reading(clk, np.array([t - h, t, t + h]))
    q = near.spread**2 + (near.mean - near.mean[1]) ** 2
    d_q, d2_q, d2_t = free_reading(clk, t).derivatives()
    assert abs(d_q - (q[2] - q[0]) / (2.0 * h)) < 1e-6
    assert abs(d2_q - (q[2] - 2.0 * q[1] + q[0]) / h**2) < 1e-6
    assert abs(d2_t - (near.rate[2] - near.rate[0]) / (2.0 * h)) < 1e-6


def test_quasi_ideal_error_smaller_at_higher_dimension():
    def max_error(d):
        clk = quasi(d, np.sqrt(d), m0=d / 4.0)
        times = np.linspace(0.0, clock_period(clk) / 2.0, 8 * d)
        return max(abs(free_error_trace(clk, t)) for t in times)

    assert max_error(32) < max_error(8)


def test_quasi_ideal_error_trace_at_rounding_floor():
    # at d = 256 the exact trace is far below rounding: the centred form
    # reads a few ulp of 1, where <M> - 1 from uncentred T and H reads 3e-14
    clk = build_quasi_ideal(256, BENCH_OMEGA, 16.0, 64.0)
    times = np.linspace(0.05, 0.45, 40) * clock_period(clk)
    assert np.abs(free_error_trace(clk, times)).max() < 1e-14


def test_quasi_ideal_error_decay_signature():
    maxima = []
    for d in (8, 16, 32, 64):
        clk = quasi(d, np.sqrt(d), m0=d / 4.0)
        times = np.linspace(0.0, clock_period(clk) / 2.0, 8 * d)
        maxima.append(max(abs(free_error_trace(clk, t)) for t in times))
    assert all(b < a for a, b in zip(maxima, maxima[1:]))
    ratios = [b / a for a, b in zip(maxima, maxima[1:])]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))


@given(st.sampled_from(["swp", "quasi", "qubit"]), st.floats(0.0, 20.0))
@settings(max_examples=40, deadline=None)
def test_error_trace_is_real(kind, t):
    clk = {"swp": lambda: swp(5), "quasi": lambda: quasi(16, 4.0, 8.0),
           "qubit": lambda: qubit()}[kind]()
    # the trace is the imaginary part of one inner product: real by construction
    value = free_error_trace(clk, t)
    assert np.isrealobj(value) and np.isfinite(value)


def test_qubit_phase_error_trace_convention():
    # |1 + tr E(t)| = |cos(omega t)| for every t; the computed sign makes
    # 1 + tr E = -cos(omega t)
    clk = qubit()
    for wt in (0.0, 0.4, np.pi / 2.0, 2.2, np.pi, 5.0):
        val = 1.0 + free_error_trace(clk, wt)
        assert abs(abs(val) - abs(np.cos(wt))) < 1e-12
        assert abs(val + np.cos(wt)) < 1e-12


def test_qubit_phase_good_at_half_turn():
    # at omega t = pi the relativistic term carries weight |1 + tr E| = 1,
    # the same as for an idealised clock
    clk = qubit()
    assert abs(abs(1.0 + free_error_trace(clk, np.pi)) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# free mean reading


def test_mean_reading_starts_at_zero():
    for clk in (swp(4), quasi(16, 4.0, 8.0), qubit()):
        assert abs(free_reading(clk, 0.0).mean) < 1e-12


@pytest.mark.parametrize("model", ["swp", "quasi_ideal", "qubit"])
@pytest.mark.parametrize("omega", OMEGAS)
def test_calibration_reads_zero_at_zero(model, omega):
    # <T>(0) = 0 by construction. A dial reads its offset-shifted readings
    # through an FFT round trip, and its calibration takes off what that
    # round trip reads in psi0: every dial stays within 1 ulp of the period.
    # The qubit's closed form reads 0 exactly
    period = 2.0 * np.pi / omega
    if model == "qubit":
        assert free_reading(build_qubit_phase(omega), 0.0).mean == 0.0
        return
    for d in range(2, 257):
        if model == "swp":
            assert abs(free_reading(build_swp(d, omega), 0.0).mean) <= np.spacing(period)
            continue
        for sigma_bar in (np.sqrt(d), max(1.0, d / 4.0)):
            for m0 in (0.0, d / 4.0, d / 2.0):
                mean = free_reading(build_quasi_ideal(d, omega, sigma_bar, m0), 0.0).mean
                assert abs(mean) <= np.spacing(period)


def test_calibration_is_below_the_physical_correction():
    # at the physical c the correction t R (1 + tr E) of the aluminium atom
    # of configs/aluminium.cfg, a Gaussian at rest falling for 1 s, is
    # -4.14e-16 s on a d = 16 dial with a period of 2 pi s; the dial's own
    # reading at t = 0 must sit well below it
    clk = build_quasi_ideal(16, 1.0, 4.0, 8.0)
    state = GaussianState(x0=0.0, p0=0.0, sigma_x=368e-12, mass=27.0 * ATOMIC_MASS_UNIT)
    correction = mean_clock_time(clk, state, 1.0, G_STANDARD).correction
    assert abs(free_reading(clk, 0.0).mean) <= 0.05 * abs(correction)


def test_swp_focusing_time_reading():
    clk = swp(4)
    t = clock_period(clk) / 4.0
    assert abs(free_reading(clk, t).mean - t) < 1e-10


def test_quasi_ideal_tracks_lab_time():
    clk = quasi(32, np.sqrt(32), m0=8.0)
    times = np.linspace(0.0, clock_period(clk) / 2.0, 101)
    worst = np.abs(free_reading(clk, times).mean - times).max()
    assert worst < 0.02 * clock_period(clk)


@pytest.mark.parametrize("clk, frac", [(swp(5), 0.15), (swp(5), 1.7),
                                       (quasi(16, 4.0, m0=4.0), 0.4), (qubit(), 0.3)],
                         ids=["swp", "swp_wrapped", "quasi_ideal", "qubit"])
def test_integrated_error_trace_matches_quadrature(clk, frac):
    # <T>_NR(t) - t is the integral of tr E over [0, t]; the dial's reading
    # is a smooth expectation value, so this holds past the wrap as well
    from scipy.integrate import quad

    t = frac * clock_period(clk)
    numeric, _ = quad(lambda s: free_error_trace(clk, s), 0.0, t,
                      epsabs=1e-13, epsrel=1e-12, limit=200)
    assert abs(free_reading(clk, t).mean - t - numeric) < 1e-10


# ---------------------------------------------------------------------------
# covariant-measurement algebra


def test_moment_check_n0_resolution_of_identity():
    for clk in (swp(8), quasi(32, 4.0, 8.0), qubit()):
        lhs, rhs = moment_polynomial(clk, 0, 2.0 * clock_period(clk) / 8.0)
        assert np.isclose(lhs, 1.0, atol=1e-10)
        assert np.isclose(rhs, 1.0, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_moment_check_dial_clocks_wrap_safe(n):
    clk = swp(8)
    lhs, rhs = moment_polynomial(clk, n, 3.0 * clock_period(clk) / 8.0)
    assert abs(lhs - rhs) < 1e-8
    qi = quasi(32, 4.0, m0=8.0)
    lhs, rhs = moment_polynomial(qi, n, 4.0 * clock_period(qi) / 32.0)
    assert abs(lhs - rhs) < 1e-8


def test_moment_check_qubit_phase_variance_time_independent():
    clk = qubit()
    lhs, rhs = moment_polynomial(clk, 2, 0.3)
    assert abs(lhs - rhs) < 1e-8
    variances = []
    for t in (0.0, 0.3, 1.7):
        m1 = moment_polynomial(clk, 1, t)[0]
        m2 = moment_polynomial(clk, 2, t)[0]
        variances.append(m2 - m1**2)
    assert np.ptp(variances) < 1e-10


# the reference can fail: between dial steps, and on a phase clock read by a
# window measurement whose period disagrees with its spectrum, the two sides
# part by far more than the 1e-8 of the wrap-safe cases
@pytest.mark.parametrize("clk, n, t, period", [
    (swp(8), 1, 0.37 * clock_period(swp(8)), None),
    (swp(8), 2, 0.37 * clock_period(swp(8)), None),
    (qubit(), 2, 0.3, 1.5 * clock_period(qubit())),
], ids=["dial_n1", "dial_n2", "qubit_wrong_period"])
def test_moment_check_can_fail(clk, n, t, period):
    lhs, rhs = moment_polynomial(clk, n, t, period)
    assert abs(lhs - rhs) > 1e-3 * abs(rhs)


def test_commutator_form_qubit_phase():
    assert commutator_residual(qubit()) < 1e-10


def test_commutator_form_flags_wrong_period_at_si_hbar():
    # the residual is dimensionless: moment operators built for a period 1.5
    # times the spectrum's read 0.5 at SI hbar
    clk = build_qubit_phase(1.0)
    assert commutator_residual(clk) < 1e-10
    wrong = dataclasses.replace(clk, energies=1.5 * clk.energies)
    assert abs(commutator_residual(wrong) - 0.5) < 1e-10
