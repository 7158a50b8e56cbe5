import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from chronodil.clocks import IdealisedClock, build_swp
from chronodil.constants import ATOMIC_MASS_UNIT, C_LIGHT
from chronodil.dilation import classical_proper_time, mean_clock_time, sup_vs_mix, t_coh
from chronodil.kinematics import CatState, GaussianState

MASS = 27.0 * ATOMIC_MASS_UNIT
R_AL = 184e-12  # aluminium Van der Waals radius, used as the length unit


def gaussian(x0=0.0, p0=0.0, sigma_x=2.0 * R_AL, mass=MASS):
    return GaussianState(x0=x0, p0=p0, sigma_x=sigma_x, mass=mass)


# ---------------------------------------------------------------------------
# classical proper time


def test_flat_static_observer():
    assert classical_proper_time(0.0, 0.0, 0.0, 2.5) == 2.5


def test_gravitational_quadratic_term():
    # the g = 9.81, t = 1 s correction is -(1/3)(g/c)^2 = -3.57e-16 s; at
    # that size the reading itself resolves it only to half an ulp of 1
    expected = -(9.81 / C_LIGHT) ** 2 / 3.0
    assert abs(expected + 3.57e-16) < 5e-19
    tau = classical_proper_time(0.0, 0.0, 9.81, 1.0)
    assert abs(tau - (1.0 + expected)) < 6e-17
    # amplified field makes the quadratic term fully representable
    g_big = 9.81e5
    tau_big = classical_proper_time(0.0, 0.0, g_big, 1.0)
    assert np.isclose(tau_big - 1.0, -(g_big / C_LIGHT) ** 2 / 3.0, rtol=1e-5)


def test_velocity_term():
    # v0 = 1 m/s gives -v0^2/(2 c^2) = -5.56e-18 s, below an ulp of the
    # 1 s reading; assert the term itself, then the structure at larger v0
    assert abs(1.0 / (2.0 * C_LIGHT**2) - 5.56e-18) < 5e-21
    v_big = 3.0e4
    tau = classical_proper_time(v_big, 0.0, 0.0, 1.0)
    assert np.isclose(tau - 1.0, -v_big**2 / (2.0 * C_LIGHT**2), rtol=1e-8)


def test_fast_observer_warns():
    with pytest.warns(UserWarning, match="0.01 c"):
        classical_proper_time(0.02 * C_LIGHT, 0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# first-order mean clock time


def test_idealised_gaussian_reproduces_classical_average():
    state = gaussian(x0=1e-6, p0=1e-22)
    clock = IdealisedClock(sigma_t0=1e-9)
    g, t = 9.81, 2.0
    res = mean_clock_time(clock, state, t, g)
    sp = state.sigma_p
    bracket = (1.0 - (state.p0**2 + sp**2) / (2.0 * MASS**2 * C_LIGHT**2)
               + g * state.x0 / C_LIGHT**2 + state.p0 * g * t / (MASS * C_LIGHT**2)
               - (g * t / C_LIGHT) ** 2 / 3.0)
    assert np.isclose(res.mean_t, bracket * t, rtol=1e-15)
    assert res.mean_t == res.mean_t_nr + t * res.r_factor * (1.0 + res.error_trace)


def test_idealised_gaussian_matches_phase_space_average():
    # independent route: Gauss-Hermite average of the classical proper time
    # over the product phase-space density of position and momentum Gaussians
    rng = np.random.default_rng(11)
    clock = IdealisedClock()
    nodes, weights = np.polynomial.hermite_e.hermegauss(7)
    for _ in range(20):
        mass = float(rng.uniform(1e-26, 1e-24))
        state = GaussianState(
            x0=float(rng.uniform(-1e5, 1e5)),
            p0=float(rng.uniform(-3e-3, 3e-3)) * mass * C_LIGHT,
            sigma_x=float(rng.uniform(1e-10, 1e-8)),
            mass=mass,
        )
        g = float(rng.uniform(0.0, 50.0))
        t = float(rng.uniform(0.1, 50.0))
        mean_t = mean_clock_time(clock, state, t, g).mean_t
        avg = 0.0
        for node, weight in zip(nodes, weights):
            p = state.p0 + state.sigma_p * node
            avg += weight / np.sqrt(2.0 * np.pi) * classical_proper_time(
                p / mass, state.x0, g, t)
        assert abs(mean_t - avg) < 1e-13 * abs(avg)


def test_swp_focusing_time_cancels_relativistic_term():
    clock = build_swp(4, 1.0)
    state = gaussian(p0=5e-25)
    t = clock.period / 4.0
    res = mean_clock_time(clock, state, t, 9.81)
    assert abs(res.mean_t - res.mean_t_nr) < 1e-12 * t
    assert abs(1.0 + res.error_trace) < 1e-10


def test_classical_limit_of_narrow_wavepacket():
    # sigma_p -> 0: the idealised-clock reading approaches the classical
    # proper time, with deviation shrinking as sigma_p^2
    clock = IdealisedClock()
    v0, x0, g, t = 2.0, 5.0, 9.81, 1.0
    mass = 9.1093837015e-31  # light particle keeps sigma_p^2/(2 m^2 c^2) resolvable

    def deviation(sigma_x):
        state = GaussianState(x0=x0, p0=v0 * mass, sigma_x=sigma_x, mass=mass)
        res = mean_clock_time(clock, state, t, g)
        return abs(res.mean_t - classical_proper_time(v0, x0, g, t))

    state = GaussianState(x0=x0, p0=v0 * mass, sigma_x=1e-3, mass=mass)
    res = mean_clock_time(clock, state, t, g)
    assert np.isclose(res.mean_t, classical_proper_time(v0, x0, g, t), rtol=1e-14)
    # quadratic rate in sigma_p: doubling sigma_x quarters the deviation
    ratio = deviation(1e-10) / deviation(2e-10)
    assert abs(ratio - 4.0) < 0.01


# ---------------------------------------------------------------------------
# coherence term


def test_t_coh_zero_separation():
    res = t_coh(CatState(base=gaussian(), delta_x0=0.0, alpha=0.4), 1.0, 9.81)
    assert res.t_coh == 0.0


def test_t_coh_balanced_superposition_drops_gravity_term():
    # alpha = 1/2 removes the gravitational piece; only the velocity-spread
    # piece survives, so the value is g-independent
    cat = CatState(base=gaussian(), delta_x0=4.0 * 2.0 * R_AL, alpha=0.5)
    with_g = t_coh(cat, 1.0, 9.81).t_coh
    without_g = t_coh(cat, 1.0, 0.0).t_coh
    assert np.isclose(with_g, without_g, rtol=1e-12)


def test_aluminium_example_value():
    # m = 27 u, sigma_x = 2 r_Al, delta_x0 = 4 r_Al, alpha = 1/2, t = 1 s
    cat = CatState(base=gaussian(sigma_x=2.0 * R_AL), delta_x0=4.0 * R_AL, alpha=0.5)
    value = t_coh(cat, 1.0, 9.81).t_coh
    sv = cat.base.sigma_p / MASS
    lam = np.exp(-0.5)
    expected = lam / (1.0 + lam) * (4.0 * R_AL / (4.0 * R_AL)) ** 2 * sv**2 / C_LIGHT**2 / 2.0
    assert np.isclose(value, expected, rtol=1e-12)
    assert 1.9e-17 < value < 2.4e-17  # frozen from direct evaluation


def test_sup_vs_mix_single_component_limit():
    cat = CatState(base=gaussian(), delta_x0=3.0 * R_AL, alpha=1.0 - 1e-12)
    res = sup_vs_mix(cat, 1.0, 0.0)
    assert abs(res.t_coh) < 1e-12 * abs(res.t_sup)


def test_sup_vs_mix_identity_free_fall_free():
    cat = CatState(base=gaussian(sigma_x=2.0 * R_AL), delta_x0=8.0 * R_AL, alpha=0.5)
    res = sup_vs_mix(cat, 1.0, 0.0)
    closed = t_coh(cat, 1.0, 0.0)
    assert np.isclose(res.t_coh, closed.t_coh, rtol=1e-10)
    assert np.isclose(res.t_sup, res.t_mix + res.t_coh, rtol=1e-12)


def test_sup_vs_mix_quarter_phase_finite():
    # cos(theta) = 0 makes N = 1; the phase term survives through the
    # expanded product, and the direct route must agree
    cat = CatState(base=gaussian(p0=3e-25), delta_x0=4.0 * R_AL, alpha=0.3,
                   theta=np.pi / 2.0)
    res = sup_vs_mix(cat, 0.7, 9.81)
    assert np.isfinite(res.t_coh)
    assert abs(res.t_coh) > 0.0


def test_coherence_identity_random_sweep():
    rng = np.random.default_rng(7)
    for _ in range(100):
        sigma_x = float(rng.uniform(0.5, 4.0)) * R_AL
        cat = CatState(
            base=GaussianState(x0=float(rng.uniform(-1e-9, 1e-9)),
                               p0=float(rng.uniform(-5e-25, 5e-25)),
                               sigma_x=sigma_x, mass=MASS),
            delta_x0=float(rng.uniform(0.0, 8.0)) * sigma_x,
            alpha=float(rng.uniform(0.05, 0.95)),
            theta=float(rng.uniform(0.0, 2.0 * np.pi)),
        )
        g = float(rng.uniform(0.0, 20.0))
        t = float(rng.uniform(0.1, 5.0))
        res = sup_vs_mix(cat, t, g)  # raises if the two routes disagree
        assert np.isfinite(res.t_coh)


def test_t_coh_has_interior_maximum():
    # at fixed alpha and theta = 0 the coherence term peaks at an
    # intermediate separation-to-width ratio
    base = gaussian(sigma_x=2.0 * R_AL)

    def negative_t_coh(ratio):
        cat = CatState(base=base, delta_x0=ratio * base.sigma_x, alpha=0.5)
        return -t_coh(cat, 1.0, 0.0).t_coh

    res = minimize_scalar(negative_t_coh, bracket=(0.5, 2.0, 7.9), method="golden")
    assert 0.2 < res.x < 7.8
    assert -res.fun > -negative_t_coh(0.1)
    assert -res.fun > -negative_t_coh(8.0)


def test_t_coh_vanishes_at_large_separation():
    base = gaussian()
    values = [abs(t_coh(CatState(base=base, delta_x0=r * base.sigma_x, alpha=0.5),
                        1.0, 0.0).t_coh) for r in (6.0, 10.0, 14.0)]
    assert values[2] < values[1] < values[0]
    assert values[2] < 1e-6 * values[0]
