import numpy as np
import pytest

from chronodil.clocks import (ClockModel, IdealisedClock, build_qubit_phase, build_quasi_ideal,
                              build_swp, free_reading, spread_from_moments)
from chronodil.constants import C_LIGHT, ELECTRON_MASS
from chronodil.dilation import mean_clock_time
from chronodil.kinematics import GaussianState
from chronodil.precision import (
    sigma_breakdown,
    sigma_dispersion_exact,
    sigma_ideal_term,
    w_moments,
    w_of_p,
)
from covariant_reference import clock_period
from dense_reference import dense_moment_operators, sigma_nonideal_term_dense
from helpers import BENCH_OMEGA, bench_c, bench_cat, bench_gaussian, free_error_trace

ELECTRON_NM = GaussianState(x0=0.0, p0=0.0, sigma_x=1e-9, mass=ELECTRON_MASS)


# ---------------------------------------------------------------------------
# clock-rate shift moments


def test_w_moments_gaussian_at_rest():
    wm = w_moments(ELECTRON_NM)
    sp = ELECTRON_NM.sigma_p
    m, c = ELECTRON_MASS, C_LIGHT
    expected = -sp**2 / (2.0 * m**2 * c**2) + 9.0 * sp**4 / (8.0 * m**4 * c**4)
    assert np.isclose(wm.mean_w, expected, rtol=1e-13)
    assert np.isclose(wm.mean_w2, 3.0 * sp**4 / (4.0 * m**4 * c**4), rtol=1e-13)


def test_w_moments_vanish_for_point_particle_at_rest():
    wide = w_moments(GaussianState(x0=0.0, p0=0.0, sigma_x=1e-2, mass=ELECTRON_MASS))
    wider = w_moments(GaussianState(x0=0.0, p0=0.0, sigma_x=1e-1, mass=ELECTRON_MASS))
    assert abs(wide.mean_w) < 1e-20
    assert abs(wider.mean_w) < abs(wide.mean_w) / 50.0  # shrinks as sigma_p^2
    assert abs(wider.mean_w2) < abs(wide.mean_w2) / 1e3  # shrinks as sigma_p^4


def test_w_moments_classical_dispersion_limit():
    p0 = 1e-24
    state = GaussianState(x0=0.0, p0=p0, sigma_x=1e-3, mass=ELECTRON_MASS)
    wm = w_moments(state)
    m, c = ELECTRON_MASS, C_LIGHT
    expected = -p0**2 / (2.0 * m**2 * c**2) + 3.0 * p0**4 / (8.0 * m**4 * c**4)
    assert np.isclose(wm.mean_w, expected, rtol=1e-8)


# ---------------------------------------------------------------------------
# idealised term


def test_sigma_ideal_term_gaussian_closed_form():
    sp = ELECTRON_NM.sigma_p
    t, s_nr = 1.0, 1e-9
    value = sigma_ideal_term(ELECTRON_NM, t, s_nr)
    expected = 5.0 * sp**4 * t**2 / (8.0 * s_nr * ELECTRON_MASS**4 * C_LIGHT**4)
    assert np.isclose(value, expected, rtol=1e-13)
    assert value > 0.0


def test_sigma_ideal_term_zero_time():
    assert sigma_ideal_term(ELECTRON_NM, 0.0, 1e-9) == 0.0


def test_sigma_ideal_term_quadratic_in_time():
    values = {t: sigma_ideal_term(ELECTRON_NM, t, 1e-9) for t in (0.5, 1.0, 2.0)}
    assert np.isclose(values[0.5] / values[1.0], 0.25, rtol=1e-12)
    assert np.isclose(values[2.0] / values[1.0], 4.0, rtol=1e-12)


def test_sigma_ideal_term_inverse_quartic_in_c():
    base = sigma_ideal_term(ELECTRON_NM, 1.0, 1e-9, c=C_LIGHT)
    scaled = sigma_ideal_term(ELECTRON_NM, 1.0, 1e-9, c=2.0 * C_LIGHT)
    assert np.isclose(base / scaled, 16.0, rtol=1e-12)


def test_sigma_ideal_term_rejects_sharp_reading():
    with pytest.raises(ValueError, match="positive"):
        sigma_ideal_term(ELECTRON_NM, 1.0, 0.0)


def test_dispersion_exact_term_rejects_sharp_reading():
    for s_nr in (0.0, -1e-9, np.array([1e-9, 0.0])):
        with pytest.raises(ValueError, match="sigma_NR must be positive"):
            sigma_dispersion_exact(ELECTRON_NM, 1.0, s_nr)


def test_dispersion_exact_term_keeps_only_variance_piece():
    sp = ELECTRON_NM.sigma_p
    value = sigma_dispersion_exact(ELECTRON_NM, 1.0, 1e-9)
    expected = 2.0 * sp**4 / (8.0 * 1e-9 * ELECTRON_MASS**4 * C_LIGHT**4)
    assert np.isclose(value, expected, rtol=1e-13)
    # ratio to the contracted closed form is 2/5 for a rest Gaussian
    assert np.isclose(value / sigma_ideal_term(ELECTRON_NM, 1.0, 1e-9), 0.4, rtol=1e-12)


# ---------------------------------------------------------------------------
# non-idealised term


def sigma_ni(clk, state, t, c=C_LIGHT):
    return sigma_breakdown(clk, state, t, c=c).sigma_ni


def test_sigma_nonideal_idealised_limit_is_zero():
    assert sigma_ni(IdealisedClock(1e-9), ELECTRON_NM, 1.0) == 0.0


@pytest.mark.parametrize("name", ["sigma_nr", "sigma_nonideal_term", "sigma_breakdown",
                                  "mean_clock_time_nr", "error_trace", "mean_clock_time"])
def test_unsupported_clock_type_rejected(name):
    # a bare matrix is not a clock: it has no time observable or period; each
    # case asks for one quantity by the library route that returns it
    call = {"sigma_nr": lambda clk: free_reading(clk, 1.0).spread,
            "sigma_nonideal_term": lambda clk: sigma_ni(clk, ELECTRON_NM, 1.0),
            "sigma_breakdown": lambda clk: sigma_breakdown(clk, ELECTRON_NM, 1.0),
            "mean_clock_time_nr": lambda clk: free_reading(clk, 1.0).mean,
            "error_trace": lambda clk: free_error_trace(clk, 1.0),
            "mean_clock_time": lambda clk: mean_clock_time(clk, ELECTRON_NM, 1.0, 0.0)}[name]
    with pytest.raises(TypeError, match="unsupported clock type ndarray"):
        call(np.eye(2))


def test_sigma_nonideal_quasi_ideal_negligible():
    clk = build_quasi_ideal(32, BENCH_OMEGA, np.sqrt(32), m0=8.0)
    state = bench_gaussian(p0_sigmas=0.0)
    t = 0.3 * clock_period(clk)
    c = bench_c()
    br = sigma_breakdown(clk, state, t, c=c)
    ratio = abs(br.sigma_ni) / br.sigma_i
    assert ratio < 1e-3


def test_sigma_nonideal_swp_nonzero_and_real():
    clk = build_swp(4, BENCH_OMEGA)
    t = 0.275 * clock_period(clk)
    value = sigma_ni(clk, bench_gaussian(), t, c=bench_c())
    assert np.isfinite(value)
    assert value != 0.0


def dense_dial(d: int) -> ClockModel:
    """The d-level dial stored as dense T and T2 = T.T: a projective clock
    read through the dense path that the qubit takes."""
    dial = build_swp(d, BENCH_OMEGA)
    t_op, t2_op = dense_moment_operators(dial)
    return ClockModel(dial.energies, dial.psi0, t_cl=t_op, t2_cl=t2_op)


QUBIT = build_qubit_phase(BENCH_OMEGA)


@pytest.mark.parametrize("clk", [
    build_swp(4, BENCH_OMEGA), dense_dial(4),
    build_quasi_ideal(8, BENCH_OMEGA, np.sqrt(8.0), m0=2.0), QUBIT,
], ids=["swp4", "swp4_dense", "quasi_ideal8", "qubit"])
def test_sigma_nonideal_matches_dense_reference(clk):
    c = bench_c()
    for state in (bench_gaussian(), bench_cat()):
        for frac in (0.05, 0.13, 0.275, 0.4, 0.61, 0.87):
            t = frac * clock_period(clk)
            if clk is QUBIT:  # sigma_NI assumes a projective measurement; T2 is not T.T
                with pytest.raises(ValueError, match="assumes a projective time measurement"):
                    sigma_ni(clk, state, t, c=c)
                continue
            dense = sigma_nonideal_term_dense(clk, state, t, c=c)
            assert dense != 0.0
            assert abs(sigma_ni(clk, state, t, c=c) - dense) < 1e-10 * abs(dense)


def test_sigma_nonideal_at_floor_matches_dense_reference():
    # at d = 128 the term is round-off: both forms agree to the floor of sigma_NR
    clk = build_quasi_ideal(128, BENCH_OMEGA, np.sqrt(128.0), m0=32.0)
    state, c = bench_gaussian(), bench_c()
    for frac in (0.1, 0.25, 0.4):
        t = frac * clock_period(clk)
        br = sigma_breakdown(clk, state, t, c=c)
        dense = sigma_nonideal_term_dense(clk, state, t, c=c)
        assert abs(br.sigma_ni - dense) < 1e-14 * br.sigma_nr


def test_sigma_nonideal_at_rounding_floor():
    # at d = 128 the term is rounding; the commutator of the shifted T and H
    # keeps it below 1e-17 s, where the unshifted one reads 2e-17 s
    clk = build_quasi_ideal(128, BENCH_OMEGA, np.sqrt(128.0), m0=32.0)
    times = np.linspace(0.05, 0.45, 40) * clock_period(clk)
    for state in (bench_gaussian(), bench_cat()):
        assert np.abs(sigma_ni(clk, state, times, c=bench_c())).max() < 1e-17


# ---------------------------------------------------------------------------
# assembled breakdown


def test_breakdown_negligible_momentum_spread():
    state = GaussianState(x0=0.0, p0=0.0, sigma_x=1.0, mass=ELECTRON_MASS)
    br = sigma_breakdown(IdealisedClock(1e-9), state, 1.0)
    assert np.isclose(br.total, br.sigma_nr, rtol=1e-15)


def test_breakdown_idealised_assembly():
    br = sigma_breakdown(IdealisedClock(1e-9), ELECTRON_NM, 1e-3)
    assert br.sigma_ni == 0.0
    assert br.total == br.sigma_nr + br.sigma_i
    assert br.sigma_nr == 1e-9


def test_breakdown_matrix_clock_assembly():
    clk = build_quasi_ideal(16, BENCH_OMEGA, 4.0, m0=4.0)
    t = 0.25 * clock_period(clk)
    br = sigma_breakdown(clk, bench_gaussian(), t, c=bench_c())
    assert br.total == br.sigma_nr + br.sigma_i + br.sigma_ni
    assert br.sigma_nr > 0.0


def test_breakdown_evaluates_free_spread_once(monkeypatch):
    # one evolution of psi0 and one reading of its spread feed sigma_NR, the
    # ideal term and the non-idealised term; the mean time reads them once too.
    # The free reading applies T to the stack once for its rate, and only
    # sigma_NI asks for the second-order derivatives, which apply it to two
    # kets more. The clock is built before the counters: its calibration
    # reads psi0 once
    from chronodil import clocks

    clk = build_quasi_ideal(16, BENCH_OMEGA, 4.0, m0=4.0)
    calls = {"evolve": 0, "reading_stats": 0, "apply_time": 0}

    def counting(name):
        real = getattr(clocks, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(clocks, name, counting(name))
    times = np.array([0.1, 0.25]) * clock_period(clk)
    mean_clock_time(clk, bench_gaussian(), times, 9.81, c=bench_c())
    assert calls == {"evolve": 1, "reading_stats": 1, "apply_time": 1}
    sigma_breakdown(clk, bench_gaussian(), times, c=bench_c())
    assert calls == {"evolve": 2, "reading_stats": 2, "apply_time": 4}


def test_free_spread_constant_for_idealised():
    clk = IdealisedClock(2e-9)
    assert free_reading(clk, 0.0).spread == free_reading(clk, 5.0).spread == 2e-9


def test_negative_variance_raises_instead_of_clamping():
    # a second-moment operator of 0 is no measurement's: <T^2> = 0 < <T>^2 = 1
    clk = ClockModel(energies=np.array([0.0, 1.0]), psi0=np.array([1.0, 0.0]),
                     t_cl=np.diag([1.0, -1.0]), t2_cl=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="negative variance"):
        free_reading(clk, 0.3)
    # round-off below a refocused zero spread still reads 0
    assert spread_from_moments(1.0, 1.0 - 1e-13) == 0.0
    with pytest.raises(ValueError, match="negative variance"):
        spread_from_moments(1.0, 1.0 - 1e-11)


def test_free_spread_qubit_phase_uses_outcome_second_moment():
    # the phase measurement is not projective: its second moment is the
    # outcome integral, not the squared observable; hand-computed variance
    # is pi^2/3 + 2 cos(omega t) - sin^2(omega t)
    clk = build_qubit_phase(1.0)
    assert np.isclose(free_reading(clk, 0.0).spread ** 2, np.pi**2 / 3.0 + 2.0, rtol=1e-12)
    assert np.isclose(free_reading(clk, np.pi).spread ** 2, np.pi**2 / 3.0 - 2.0, rtol=1e-12)


def test_w_of_p_orders():
    p, m, c = 1e-24, ELECTRON_MASS, C_LIGHT
    quadratic, quartic = -p**2 / (2.0 * m**2 * c**2), 3.0 * p**4 / (8.0 * m**4 * c**4)
    assert np.isclose(w_of_p(p, m, c), quadratic + quartic, rtol=1e-14)
    assert np.isclose(w_of_p(p, m, c) - quadratic, quartic, rtol=1e-10)
