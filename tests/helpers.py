"""Shared test utilities: seeded random states, quadrature oracles and
test-only clock and momentum-measurement baselines."""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from chronodil.clocks import ClockModel, IdealisedClock, build_quasi_ideal, free_reading
from chronodil.config import echo_lines
from chronodil.constants import C_LIGHT, HBAR
from chronodil.kinematics import CatState, GaussianState, norm_factor, r_factor
from chronodil.measurement import (_SUPPORT_SIGMAS, MomentumBinning, _bin_rule,
                                   _conditional_w_moments)
from dense_reference import dagger


# ---------------------------------------------------------------------------
# shared oracle benchmark
#
# A heavy-atom-scale packet with a reduced base light speed: the coupling
# scalings are what the verification fits probe, so the states stay fixed
# while c is dialed. All correction terms stay at the few-percent level at
# the base light speed, keeping the first-order expansion honest.

BENCH_MASS = 1e-25  # kg
BENCH_SIGMA_X = 3e-7  # m
BENCH_PERIOD = 2e-3  # s
BENCH_OMEGA = 2.0 * np.pi / BENCH_PERIOD
BENCH_T = 0.275 * BENCH_PERIOD  # clear of dial focusing times


def bench_gaussian(p0_sigmas: float = 3.0) -> GaussianState:
    sigma_p = HBAR / (2.0 * BENCH_SIGMA_X)
    return GaussianState(x0=0.0, p0=p0_sigmas * sigma_p,
                         sigma_x=BENCH_SIGMA_X, mass=BENCH_MASS)


def bench_cat(theta: float = 0.7) -> CatState:
    return CatState(base=bench_gaussian(), delta_x0=3.0 * BENCH_SIGMA_X,
                    alpha=0.5, theta=theta)


def bench_c(v_over_c: float = 0.05) -> float:
    # base light speed such that sigma_v / c equals the requested ratio
    sigma_v = HBAR / (2.0 * BENCH_SIGMA_X) / BENCH_MASS
    return sigma_v / v_over_c


def idealised_surrogate(omega: float, d: int = 64, sigma_bar: float = 8.0) -> ClockModel:
    """High-dimensional dial clock whose error trace is far below test
    tolerances, started a quarter turn into the dial so that evolutions up
    to half a period stay clear of the dial cut."""
    return build_quasi_ideal(d, omega, sigma_bar, m0=d / 4.0)


def free_error_trace(clock, t):
    """tr E of the free clock at each time, by the library's route: the
    rate of one ``free_reading``, less 1."""
    return free_reading(clock, t).rate - 1.0


def random_hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (a + dagger(a)) / 2.0


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ dagger(a)
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# quadrature oracles over the explicit wavefunctions


def momentum_wavefunction(state, p):
    """Analytic momentum-space wavefunction (pure states only)."""
    def packet(x0, p0, sigma_p):
        env = (2.0 * np.pi * sigma_p**2) ** (-0.25) * np.exp(-(((p - p0) / (2.0 * sigma_p)) ** 2))
        return env * np.exp(-1j * x0 * (p - p0) / HBAR)

    if isinstance(state, GaussianState):
        return packet(state.x0, state.p0, state.sigma_p)
    if isinstance(state, CatState):
        g = state.base
        n = norm_factor(state)
        return (np.sqrt(state.alpha) * packet(g.x0, g.p0, g.sigma_p)
                + np.exp(1j * state.theta) * np.sqrt(1.0 - state.alpha)
                * packet(g.x0 + state.delta_x0, g.p0, g.sigma_p)) / np.sqrt(n)
    raise TypeError(type(state).__name__)


def position_wavefunction(state, x):
    def packet(x0, sigma_x):
        return (2.0 * np.pi * sigma_x**2) ** (-0.25) * np.exp(-((x - x0) ** 2) / (4.0 * sigma_x**2))

    if isinstance(state, GaussianState):
        return packet(state.x0, state.sigma_x) * np.exp(1j * state.p0 * x / HBAR)
    if isinstance(state, CatState):
        g = state.base
        n = norm_factor(state)
        mix = (np.sqrt(state.alpha) * packet(g.x0, g.sigma_x)
               + np.exp(1j * state.theta) * np.sqrt(1.0 - state.alpha)
               * packet(g.x0 + state.delta_x0, g.sigma_x))
        return mix * np.exp(1j * g.p0 * x / HBAR) / np.sqrt(n)
    raise TypeError(type(state).__name__)


def quadrature_moment(state, k: int, axis: str = "p") -> float:
    """<p^k> or <x^k> by adaptive quadrature over the explicit wavefunction."""
    base = state.base if isinstance(state, CatState) else state
    if axis == "p":
        center, width = base.p0, base.sigma_p
        psi = momentum_wavefunction
    else:
        center, width = base.x0 + (state.delta_x0 if isinstance(state, CatState) else 0.0) / 2.0, base.sigma_x
        psi = position_wavefunction
        if isinstance(state, CatState):
            width = base.sigma_x + state.delta_x0
    lo, hi = center - 14.0 * width, center + 14.0 * width
    # the moment integral is of order (|center| + 14 width)^k
    scale = max(abs(lo), abs(hi)) ** k
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(lambda u: u**k * np.abs(psi(state, u)) ** 2, lo, hi,
                      epsabs=1e-14 * scale, epsrel=1e-13, limit=400)
    return float(val)


# ---------------------------------------------------------------------------
# coherence reference


def coherence_direct(cat: CatState, t, g: float, c: float = C_LIGHT):
    """T_sup - T_mix by the general first-order formula, t (R_cat - R_mix),
    from the cat's moments with their interference cross terms and the
    matching mixture's weighted factors; the reference for ``t_coh``."""
    r_mix = cat.alpha * r_factor(cat.base, t, g, c) + (1.0 - cat.alpha) * r_factor(cat.upper, t, g, c)
    return t * (r_factor(cat, t, g, c) - r_mix)


# ---------------------------------------------------------------------------
# momentum-measurement baselines


def unconditioned_sigma(clock: IdealisedClock, kstate: GaussianState, t: float,
                        c: float = C_LIGHT) -> float:
    """Spread with no measurement at all: W's moments over the whole
    momentum support, p0 +- 12 sigma_p."""
    var_w = _conditional_w_moments(kstate, -math.inf, math.inf, c)[2]
    return np.sqrt(clock.sigma_t0**2 + t * t * var_w)


def occupied_bins(kstate: GaussianState, binning: MomentumBinning) -> list[int]:
    """Bin indices whose probability exceeds 1e-13 (contiguous scan outward
    from the bin containing the mean momentum)."""
    center = int(np.floor(kstate.p0 / binning.delta_p + 0.5))
    half_span = int(np.ceil(_SUPPORT_SIGMAS * kstate.sigma_p / binning.delta_p)) + 1
    return [n for n in range(center - half_span, center + half_span + 1)
            if np.sum(_bin_rule(kstate, *binning.edges(n))[1]) > 1e-13]


# ---------------------------------------------------------------------------
# CSV reference


def reference_write_csv(table, cfg, stream) -> None:
    """``cli.write_csv`` with every row through one ``template % tuple(row)``
    of ``'%.17e'`` cells: the per-cell bytes the vectorised writer must keep,
    written to a binary stream."""
    values = np.asarray(table.rows, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite value {values[~np.isfinite(values)][0]} in CSV output")
    text = "".join(f"# {key} = {value}\n" for key, value in table.metadata)
    text += "# config:\n"
    text += "".join(f"# cfg {line}\n" for line in echo_lines(cfg))
    text += ",".join(table.header) + "\n"
    if len(table.rows):
        template = ",".join(["%.17e"] * len(table.header)) + "\n"
        text += "".join(template % tuple(row) for row in table.rows)
    stream.write(text.encode())
