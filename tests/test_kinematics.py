import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chronodil.constants import ATOMIC_MASS_UNIT, C_LIGHT, HBAR
from chronodil.kinematics import (
    CatState,
    GaussianState,
    MixtureState,
    default_momentum_grid,
    moments,
    norm_factor,
    r_factor,
    to_grid,
)
from helpers import quadrature_moment

MASS = 27.0 * ATOMIC_MASS_UNIT
SX = 4e-10


def gaussian(x0=0.0, p0=0.0, sigma_x=SX, mass=MASS):
    return GaussianState(x0=x0, p0=p0, sigma_x=sigma_x, mass=mass)


def cat(delta=4.0 * SX, alpha=0.5, theta=0.0, **kw):
    return CatState(base=gaussian(**kw), delta_x0=delta, alpha=alpha, theta=theta)


# ---------------------------------------------------------------------------
# normalisation factor


def test_norm_factor_identical_constituents():
    assert np.isclose(norm_factor(cat(delta=0.0)), 2.0, atol=1e-14)


def test_norm_factor_four_sigma_separation():
    value = norm_factor(cat(delta=4.0 * SX))
    assert np.isclose(value, 1.0 + np.exp(-2.0), atol=1e-12)


def test_norm_factor_quarter_phase():
    assert np.isclose(norm_factor(cat(theta=np.pi / 2.0, alpha=0.3)), 1.0, atol=1e-14)


def test_norm_factor_decays_monotonically_to_one():
    seps = np.linspace(0.0, 12.0 * SX, 25)
    values = [norm_factor(cat(delta=s)) for s in seps]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert abs(values[-1] - 1.0) < 2e-8


# ---------------------------------------------------------------------------
# moments


def test_gaussian_moments_at_rest():
    m = moments(gaussian())
    sp = gaussian().sigma_p
    assert np.isclose(m.mean_p2, sp**2, rtol=1e-14)
    assert np.isclose(m.mean_p4, 3.0 * sp**4, rtol=1e-14)
    assert np.isclose(m.var_p2, 2.0 * sp**4, rtol=1e-13)


def test_gaussian_second_moment_with_boost():
    p0 = 3.7e-24
    m = moments(gaussian(p0=p0))
    assert np.isclose(m.mean_p2, p0**2 + gaussian().sigma_p**2, rtol=1e-14)


def test_cat_with_zero_separation_equals_gaussian():
    m_cat = moments(cat(delta=0.0))
    m_gauss = moments(gaussian())
    for field in ("mean_x", "mean_p", "mean_p2", "mean_p4"):
        assert np.isclose(getattr(m_cat, field), getattr(m_gauss, field), rtol=1e-12, atol=1e-60)


@pytest.mark.parametrize("state_maker", [
    lambda: gaussian(),
    lambda: gaussian(x0=2e-10, p0=5e-25),
    lambda: cat(),
    lambda: cat(delta=2.5 * SX, alpha=0.3, theta=0.9, p0=4e-25, x0=-1e-10),
    lambda: cat(theta=np.pi / 2.0, alpha=0.7),
    lambda: MixtureState(components=((0.25, gaussian()), (0.75, gaussian(x0=3e-10, p0=2e-25)))),
])
def test_moments_match_quadrature(state_maker):
    state = state_maker()
    m = moments(state)
    for k, value in ((1, m.mean_p), (2, m.mean_p2), (4, m.mean_p4)):
        oracle = quadrature_moment(state, k, "p")
        scale = quadrature_moment(state, k, "p") if k == 1 else oracle
        ref = max(abs(oracle), abs(m.mean_p2 if k == 1 else oracle) ** (k / 2.0)
                  if k > 1 else m.mean_p2**0.5)
        assert abs(value - oracle) < 1e-10 * max(abs(oracle), ref)
    oracle_x = quadrature_moment(state, 1, "x")
    base = state.components[0][1] if isinstance(state, MixtureState) else \
        (state.base if isinstance(state, CatState) else state)
    assert abs(m.mean_x - oracle_x) < 1e-10 * max(abs(oracle_x), base.sigma_x)


def test_moment_inequalities():
    for state in (gaussian(p0=1e-24), cat(theta=1.2, alpha=0.4)):
        m = moments(state)
        assert m.mean_p2 >= m.mean_p**2 - 1e-60
        assert m.mean_p4 >= m.mean_p2**2 - 1e-100


# ---------------------------------------------------------------------------
# kinematic dilation factor


def test_r_factor_gaussian_closed_form():
    g = 9.81
    state = gaussian(x0=1.5e-10, p0=6e-25)
    t = 0.8
    sp = state.sigma_p
    expected = (-(state.p0**2 + sp**2) / (2.0 * MASS**2 * C_LIGHT**2)
                + g * state.x0 / C_LIGHT**2
                + state.p0 * g * t / (MASS * C_LIGHT**2)
                - (g * t / C_LIGHT) ** 2 / 3.0)
    assert np.isclose(r_factor(state, t, g), expected, rtol=1e-14)


def test_r_factor_free_rest_state_time_independent():
    state = gaussian()
    values = {r_factor(state, t, 0.0) for t in (0.0, 1.0, 7.3)}
    assert len(values) == 1
    assert np.isclose(values.pop(), -state.sigma_p**2 / (2.0 * MASS**2 * C_LIGHT**2), rtol=1e-14)


def test_r_factor_cat_matches_quadrature():
    state = cat(delta=4.0 * SX, alpha=0.5, theta=0.0)
    g, t = 9.81, 1.3
    m1 = quadrature_moment(state, 1, "p")
    m2 = quadrature_moment(state, 2, "p")
    mx = quadrature_moment(state, 1, "x")
    oracle = (-m2 / (2.0 * MASS**2 * C_LIGHT**2) + g * mx / C_LIGHT**2
              + m1 * g * t / (MASS * C_LIGHT**2) - (g * t / C_LIGHT) ** 2 / 3.0)
    assert abs(r_factor(state, t, g) - oracle) < 1e-12 * abs(oracle)


@given(st.floats(0.1, 0.9), st.floats(0.0, 6.0), st.floats(-1.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_r_factor_mixture_linearity(w, sep_sigmas, x_off_sigmas):
    a = gaussian()
    b = gaussian(x0=x_off_sigmas * SX, p0=sep_sigmas * a.sigma_p)
    mixture = MixtureState(components=((w, a), (1.0 - w, b)))
    t, g = 0.6, 9.81
    direct = r_factor(mixture, t, g)
    weighted = w * r_factor(a, t, g) + (1.0 - w) * r_factor(b, t, g)
    assert np.isclose(direct, weighted, rtol=1e-13)


# ---------------------------------------------------------------------------
# grid sampling


def test_grid_gaussian_real_and_even_about_mean():
    state = gaussian(x0=0.0, p0=3e-25)
    # an odd point count puts a sample on the mean
    grid = np.linspace(state.p0 - 8.0 * state.sigma_p, state.p0 + 8.0 * state.sigma_p, 401)
    amps = to_grid(state, grid).amplitudes
    assert np.abs(amps.imag).max() < 1e-14 * np.abs(amps).max()
    assert np.abs(amps - amps[::-1]).max() < 1e-12 * np.abs(amps).max()


def test_grid_cat_fringe_period():
    state = cat(delta=6.0 * SX)
    grid = default_momentum_grid(state)
    amps = to_grid(state, grid).amplitudes
    density = np.abs(amps) ** 2
    # locate the fringe frequency by Fourier transforming the density
    dp = grid[1] - grid[0]
    spectrum = np.abs(np.fft.rfft(density - density.mean()))
    freqs = np.fft.rfftfreq(grid.size, d=dp)
    expected = state.delta_x0 / (2.0 * np.pi * HBAR)  # inverse fringe period
    # restrict to frequencies above the envelope lobe before peak picking
    window = freqs > expected / 2.0
    peak = freqs[window][np.argmax(spectrum[window])]
    resolution = 1.0 / (grid[-1] - grid[0])  # one FFT bin
    assert abs(peak - expected) < 1.5 * resolution


def test_grid_rejects_mixture():
    # a mixture is an ensemble with no single wavefunction to sample
    mixture = MixtureState(components=((0.4, gaussian()), (0.6, gaussian(x0=5e-10))))
    grid = default_momentum_grid(gaussian())
    with pytest.raises(TypeError, match="ensemble"):
        to_grid(mixture, grid)


def test_grid_too_narrow_raises():
    state = gaussian()
    narrow = np.linspace(state.p0 - state.sigma_p, state.p0 + state.sigma_p, 128)
    with pytest.raises(ValueError, match="too narrow"):
        to_grid(state, narrow)


def test_grid_cat_resolves_fringes():
    state = cat(delta=40.0 * SX)  # very fine fringes force a denser grid
    grid = default_momentum_grid(state)
    fringe = 2.0 * np.pi * HBAR / state.delta_x0
    assert (grid[1] - grid[0]) <= fringe / 8.0


def test_state_validation():
    with pytest.raises(ValueError):
        GaussianState(x0=0.0, p0=0.0, sigma_x=-1.0, mass=MASS)
    with pytest.raises(ValueError):
        GaussianState(x0=0.0, p0=0.0, sigma_x=SX, mass=0.0)
    with pytest.raises(ValueError):
        CatState(base=gaussian(), delta_x0=-1e-10, alpha=0.5)
    with pytest.raises(ValueError):
        CatState(base=gaussian(), delta_x0=0.0, alpha=1.0)
    with pytest.raises(ValueError):
        MixtureState(components=((0.5, gaussian()), (0.4, gaussian())))


def test_mixture_has_one_mass():
    mix = MixtureState(components=((0.4, gaussian()), (0.6, gaussian(x0=5e-10))))
    assert mix.mass == MASS
    with pytest.raises(ValueError, match="one mass"):
        MixtureState(components=((0.5, gaussian()), (0.5, gaussian(mass=2.0 * MASS))))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["x0", "p0", "sigma_x", "mass", "delta_x0", "alpha", "theta"])
def test_state_rejects_non_finite_parameters(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        if field in ("x0", "p0", "sigma_x", "mass"):
            gaussian(**{field: value})
        else:
            cat(**{{"delta_x0": "delta"}.get(field, field): value})


def test_grid_stack_checks_every_row():
    state = gaussian()
    sp = state.sigma_p
    row = np.linspace(-8.0 * sp, 8.0 * sp, 512)
    stacked = to_grid(state, np.stack([row, row + 0.5 * sp]))
    assert stacked.amplitudes.shape == (2, 512)
    assert np.array_equal(stacked.amplitudes[0], to_grid(state, row).amplitudes)
    # a row shifted off the packet fails on its own, though the first row is fine
    with pytest.raises(ValueError, match="too narrow"):
        to_grid(state, np.stack([row, row + 6.0 * sp]))
