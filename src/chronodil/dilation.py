"""Mean clock-time predictions in the weak-field, low-velocity regime.

The first-order result for a clock with motional state rho_k is

    <T>(t) = <T>_NR(t) + t R(t) (1 + tr E(t)),

where <T>_NR is the free reading, R(t) the kinematic dilation factor and
tr E(t) the clock's error trace. For an idealised clock in a Gaussian
state this reproduces the classical average proper time of an observer
whose velocity is drawn from the same Gaussian.

For a cat state the mean reading differs from the matching classical
mixture by a coherence term T_coh. The library computes it by one
route, the closed form of ``t_coh``; the direct route t (R_cat - R_mix)
from the cat's moments is the test suite's reference for it. The
factored form (N-1)/N tan(theta) is singular at cos(theta) = 0 although
the product is finite there, so the implementation expands the product
before dividing by N.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR
from .clocks import free_reading
from .kinematics import CatState, check_light_speed, moments, norm_factor, overlap, r_factor


@dataclass(frozen=True)
class DilationResult:
    """Mean clock time at lab time t and the pieces it is assembled from.

    ``correction`` is t * r_factor * (1 + error_trace), formed once.
    Invariant: mean_t == mean_t_nr + correction exactly as computed.
    ``classical_tau`` is the proper time of a classical observer launched
    from the state's mean position and velocity. Each field holds one
    value per lab time, or per light speed of a stack (the free reading and
    error trace, which do not depend on c, one value; an IdealisedClock's
    zero error trace stays a scalar).
    """

    t: float | np.ndarray
    mean_t_nr: float | np.ndarray
    r_factor: float | np.ndarray
    error_trace: float | np.ndarray
    correction: float | np.ndarray
    mean_t: float | np.ndarray
    classical_tau: float | np.ndarray


@dataclass(frozen=True)
class CoherenceResult:
    """Superposition vs mixture mean readings and their difference.

    ``t_sup = t_mix + t_coh`` by construction. Computed under the
    good-clock assumption: the error trace is neglected. Each field holds
    one value per lab time or per separation.
    """

    t_sup: float | np.ndarray
    t_mix: float | np.ndarray
    t_coh: float | np.ndarray


def classical_proper_time(v0: float, x0: float, g: float, t: float, c: float = C_LIGHT) -> float:
    """Proper time of a classical clock with initial velocity v0 and
    position x0 in a uniform field g, to first order in the weak-field,
    low-velocity expansion; elementwise over arrays. Warns when |v0|
    exceeds 0.01 c anywhere."""
    if np.any(abs(v0) > 0.01 * c):
        warnings.warn(
            f"|v0| = {np.max(np.abs(v0)):.3e} exceeds 0.01 c; the low-velocity expansion degrades",
            stacklevel=2,
        )
    return _proper_time(v0, x0, g, t, c)


def _proper_time(v0, x0, g: float, t, c: float):
    """``classical_proper_time`` without its velocity warning: classical_tau is
    an auxiliary report field, and the caller picked the expansion regime."""
    gt = g * t / c  # a product, not ** 2: pow on a float can round otherwise than in an array
    bracket = 1.0 - v0**2 / (2.0 * c**2) + g * x0 / c**2 + v0 * g * t / c**2 - gt * gt / 3.0
    return bracket * t


def mean_clock_time(clock, kstate, t, g: float, c: float = C_LIGHT) -> DilationResult:
    """Assemble the first-order mean clock time for any clock model at each time.

    ``clock`` is a matrix ClockModel or an IdealisedClock (free reading t,
    error trace zero). The mass is taken from the motional state. At one
    time ``c`` may be a 1-D stack of light speeds, one result per entry.
    """
    check_light_speed(c)
    free = free_reading(clock, t)
    nr, err = free.mean, free.rate - 1.0
    r = r_factor(kstate, t, g, c)
    correction = t * r * (1.0 + err)
    m = moments(kstate)
    tau = _proper_time(m.mean_p / kstate.mass, m.mean_x, g, t, c)
    return DilationResult(t=t, mean_t_nr=nr, r_factor=r, error_trace=err, correction=correction,
                          mean_t=nr + correction, classical_tau=tau)


def t_coh(cat: CatState, t, g: float, c: float = C_LIGHT) -> CoherenceResult:
    """Coherence contribution to the mean clock time, closed form, at each
    time of ``t`` (and each separation of an array ``cat.delta_x0``).

    T_coh = (1/N) K [ cos(theta) ( (dx/2 sx)^2 sv^2/c^2 - g dx (1-2 alpha)/c^2 )
                      - 2 sin(theta) (sv^2/c^2) dx (pbar - m g t)/hbar ] t/2,

    with K = 2 sqrt(alpha(1-alpha)) <psi_1|psi_2> and N = 1 + K cos(theta).
    The sin(theta) piece is the expanded form of (N-1) tan(theta), finite
    at cos(theta) = 0. The mixture that matches the cat's weights has
    R = alpha R_1 + (1-alpha) R_2 and reads t (1 + R) in the good-clock
    limit, so the error trace is neglected throughout. Raises TypeError on
    a state other than a CatState.
    """
    if not isinstance(cat, CatState):
        raise TypeError(f"the coherence term needs a CatState, got {type(cat).__name__}")
    check_light_speed(c)
    g_state = cat.base
    sv = g_state.sigma_p / g_state.mass
    k_amp = 2.0 * np.sqrt(cat.alpha * (1.0 - cat.alpha)) * overlap(cat)
    motional = (cat.delta_x0 / (2.0 * g_state.sigma_x)) ** 2 * sv**2 / c**2
    gravitational = g * cat.delta_x0 * (1.0 - 2.0 * cat.alpha) / c**2
    phase_term = 2.0 * (sv**2 / c**2) * cat.delta_x0 * (g_state.p0 - g_state.mass * g * t) / HBAR
    coh = k_amp / norm_factor(cat) * (np.cos(cat.theta) * (motional - gravitational)
                                      - np.sin(cat.theta) * phase_term) * t / 2.0
    mix_r = cat.alpha * r_factor(g_state, t, g, c) + (1.0 - cat.alpha) * r_factor(cat.upper, t, g, c)
    mix = t * (1.0 + mix_r)
    return CoherenceResult(t_sup=mix + coh, t_mix=mix, t_coh=coh)
