"""Mean clock-time predictions in the weak-field, low-velocity regime.

The first-order result for a clock with motional state rho_k is

    <T>(t) = <T>_NR(t) + t R(t) (1 + tr E(t)),

where <T>_NR is the free reading, R(t) the kinematic dilation factor and
tr E(t) the clock's error trace. For an idealised clock in a Gaussian
state this reproduces the classical average proper time of an observer
whose velocity is drawn from the same Gaussian.

For a cat state the mean reading differs from the matching classical
mixture by a coherence term T_coh, closed form below. The factored form
(N-1)/N tan(theta) is singular at cos(theta) = 0 although the product is
finite there, so the implementation expands the product before dividing
by N.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR
from .clocks import error_trace, mean_clock_time_nr, require_clock
from .kinematics import CatState, MixtureState, moments, norm_factor, overlap, r_factor


@dataclass(frozen=True)
class DilationResult:
    """Mean clock time at lab time t and the pieces it is assembled from.

    Invariant: mean_t == mean_t_nr + t * r_factor * (1 + error_trace)
    exactly as computed. ``classical_tau`` is the proper time of a
    classical observer launched from the state's mean position and
    velocity. Each field holds one value per lab time (an IdealisedClock's
    zero error trace stays a scalar).
    """

    t: float | np.ndarray
    mean_t_nr: float | np.ndarray
    r_factor: float | np.ndarray
    error_trace: float | np.ndarray
    mean_t: float | np.ndarray
    classical_tau: float | np.ndarray


@dataclass(frozen=True)
class CoherenceResult:
    """Superposition vs mixture mean readings and their difference.

    ``t_sup = t_mix + t_coh`` by construction. Computed under the
    good-clock assumption (error trace neglected), recorded in
    ``good_clock``.
    """

    t_sup: float
    t_mix: float
    t_coh: float
    good_clock: bool = True


def classical_proper_time(v0: float, x0: float, g: float, t: float, c: float = C_LIGHT) -> float:
    """Proper time of a classical clock with initial velocity v0 and
    position x0 in a uniform field g, to first order in the weak-field,
    low-velocity expansion."""
    if abs(v0) > 0.01 * c:
        warnings.warn(
            f"|v0| = {abs(v0):.3e} exceeds 0.01 c; the low-velocity expansion degrades",
            stacklevel=2,
        )
    bracket = 1.0 - v0**2 / (2.0 * c**2) + g * x0 / c**2 + v0 * g * t / c**2 - (g * t / c) ** 2 / 3.0
    return bracket * t


def mean_clock_time(clock, kstate, t, g: float, c: float = C_LIGHT) -> DilationResult:
    """Assemble the first-order mean clock time for any clock model at each time.

    ``clock`` is a matrix ClockModel or an IdealisedClock (free reading t,
    error trace zero). The mass is taken from the motional state.
    """
    require_clock(clock)
    nr = mean_clock_time_nr(clock, t)
    r = r_factor(kstate, t, g, c)
    err = error_trace(clock, t)
    mean_t = nr + t * r * (1.0 + err)
    tau = _classical_tau_of_state(kstate, t, g, c)
    return DilationResult(t=t, mean_t_nr=nr, r_factor=r, error_trace=err,
                          mean_t=mean_t, classical_tau=tau)


def _classical_tau_of_state(kstate, t, g: float, c: float):
    if isinstance(kstate, MixtureState):
        return sum(w * _classical_tau_of_state(comp, t, g, c) for w, comp in kstate.components)
    m = moments(kstate)
    with warnings.catch_warnings():
        # auxiliary report field; the caller picked the expansion regime
        warnings.simplefilter("ignore", UserWarning)
        return classical_proper_time(m.mean_p / kstate.mass, m.mean_x, g, t, c)


def t_coh(cat: CatState, t: float, g: float, c: float = C_LIGHT) -> CoherenceResult:
    """Coherence contribution to the mean clock time, closed form.

    T_coh = (1/N) K [ cos(theta) ( (dx/2 sx)^2 sv^2/c^2 - g dx (1-2 alpha)/c^2 )
                      - 2 sin(theta) (sv^2/c^2) dx (pbar - m g t)/hbar ] t/2,

    with K = 2 sqrt(alpha(1-alpha)) <psi_1|psi_2> and N = 1 + K cos(theta).
    The sin(theta) piece is the expanded form of (N-1) tan(theta), finite
    at cos(theta) = 0. The mixture reading uses the good-clock limit, so
    the error trace is neglected throughout.
    """
    prefactor, motional, gravitational, phase_term = _coherence_terms(cat, t, g, c)
    coh = prefactor * (np.cos(cat.theta) * (motional - gravitational)
                       - np.sin(cat.theta) * phase_term) * t / 2.0
    mix = t * (1.0 + _mixture_r(cat, t, g, c))
    return CoherenceResult(t_sup=mix + coh, t_mix=mix, t_coh=coh)


def _coherence_terms(cat: CatState, t: float, g: float, c: float):
    """K / N and the motional, gravitational and phase terms of T_coh."""
    g_state = cat.base
    sv = g_state.sigma_p / g_state.mass
    k_amp = 2.0 * np.sqrt(cat.alpha * (1.0 - cat.alpha)) * overlap(cat)
    motional = (cat.delta_x0 / (2.0 * g_state.sigma_x)) ** 2 * sv**2 / c**2
    gravitational = g * cat.delta_x0 * (1.0 - 2.0 * cat.alpha) / c**2
    phase_term = 2.0 * (sv**2 / c**2) * cat.delta_x0 * (g_state.p0 - g_state.mass * g * t) / HBAR
    return k_amp / norm_factor(cat), motional, gravitational, phase_term


def _mixture_r(cat: CatState, t: float, g: float, c: float) -> float:
    """R of the classical mixture that matches the cat's weights, alpha R_1 +
    (1-alpha) R_2; its good-clock mean reading is t (1 + R)."""
    return cat.alpha * r_factor(cat.base, t, g, c) + (1.0 - cat.alpha) * r_factor(cat.upper, t, g, c)


def sup_vs_mix(cat: CatState, t: float, g: float, c: float = C_LIGHT) -> CoherenceResult:
    """Compute T_sup and T_mix through the general first-order formula
    (idealised clock, cat-state moments with interference cross terms)
    and check T_sup - T_mix against the closed form of ``t_coh``.

    The difference is evaluated in correction space, t (R_sup - R_mix),
    so the order-one reading never swamps the tiny relativistic pieces.
    Raises ValueError when the two independent routes disagree beyond
    1e-10 of the coherence term's natural scale.
    """
    r_sup = r_factor(cat, t, g, c)
    r_mix = _mixture_r(cat, t, g, c)
    direct = t * (r_sup - r_mix)
    mix = t * (1.0 + r_mix)
    closed = t_coh(cat, t, g, c)
    # the largest single term sets the scale when the terms nearly cancel
    prefactor, *terms = _coherence_terms(cat, t, g, c)
    term_scale = prefactor * max(abs(term) for term in terms) * abs(t) / 2.0
    scale = max(abs(closed.t_coh), 1e-6 * term_scale)
    if scale > 0 and abs(direct - closed.t_coh) > 1e-10 * scale:
        raise ValueError(
            f"coherence identity violated: direct {direct!r} vs closed form {closed.t_coh!r}"
        )
    return CoherenceResult(t_sup=mix + direct, t_mix=mix, t_coh=direct)

