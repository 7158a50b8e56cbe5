"""Decomposition of the clock-time spread under the motional coupling.

At g = 0 and to fourth order in p/(m c), the coupling multiplies the
clock Hamiltonian by 1 + W(p) with

    W(p) = -p^2 / (2 m^2 c^2) + 3 p^4 / (8 m^4 c^4),

so each momentum component runs the clock at a slightly different rate.
The clock-time standard deviation then splits as

    sigma_T(t) = sigma_NR(t) + sigma_I(t) + sigma_NI(t):

a free part, a part that survives for an idealised clock, and a part
sourced entirely by the clock's error operator. The free part is the
spread of the clock's reading in its evolved ket
(``clocks.free_reading``). The idealised term used here is

    sigma_I(t) = t^2 (<p^4> + var(p^2)) / (8 sigma_NR(t) m^4 c^4),

and the non-idealised term is the four-brace trace expression in terms
of E(t), e = (i/hbar)[H, T] - I and the W moments, each brace a time
derivative of the free reading: its rate, or one of the ``derivatives``
it forms on request (the sigma_NI term of ``sigma_breakdown``). That
form takes the second moment as |(T - <T>) psi|^2, so it holds for a
projective time measurement only, and a clock whose T2 is not T.T
raises. A companion ``sigma_dispersion_exact`` gives the excess that
exact joint evolution produces, t^2 var(W) / (2 sigma_NR), whose leading
term keeps var(p^2) but not <p^4>; the two closed forms disagree at
leading order and the oracle module quantifies that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .clocks import ClockModel, free_reading
from .kinematics import check_light_speed, moments


@dataclass(frozen=True)
class WMoments:
    """First and (truncated) second moments of the clock-rate shift W.

    ``mean_w2`` keeps only p^4/(4 m^4 c^4), which is non-negative; the
    cross and p^8 pieces are of sixth order in p/(m c) and dropped. One
    value each per light speed of a stack."""

    mean_w: float | np.ndarray
    mean_w2: float | np.ndarray


@dataclass(frozen=True)
class PrecisionBreakdown:
    """sigma_NR + sigma_I + sigma_NI = total at each time, or at each light
    speed of a stack, exactly as assembled."""

    sigma_nr: float | np.ndarray
    sigma_i: float | np.ndarray
    sigma_ni: float | np.ndarray
    total: float | np.ndarray


def w_of_p(p, mass: float, c: float = C_LIGHT):
    """Per-momentum clock-rate shift W(p), to fourth order in p/(m c)."""
    return -(p**2) / (2.0 * mass**2 * c**2) + 3.0 * p**4 / (8.0 * mass**4 * c**4)


def w_moments(kstate, c: float = C_LIGHT) -> WMoments:
    """<W> and truncated <W^2> from the state's exact momentum moments."""
    m = moments(kstate)
    mass = kstate.mass
    mean_w = -m.mean_p2 / (2.0 * mass**2 * c**2) + 3.0 * m.mean_p4 / (8.0 * mass**4 * c**4)
    mean_w2 = m.mean_p4 / (4.0 * mass**4 * c**4)
    return WMoments(mean_w=mean_w, mean_w2=mean_w2)


def sigma_ideal_term(kstate, t, sigma_nr_value, c: float = C_LIGHT):
    """Idealised-clock precision loss t^2 (<p^4> + var(p^2)) / (8 sigma_NR m^4 c^4).

    Strictly positive for any spread-out momentum state at t > 0. A zero
    free spread sits outside this expression's validity and is an error.
    """
    if np.any(sigma_nr_value <= 0):
        raise ValueError("sigma_NR must be positive; a delta-sharp reading is outside "
                         "the validity of the idealised-term expression")
    m = moments(kstate)
    mass = kstate.mass
    return t * t * (m.mean_p4 + m.var_p2) / (8.0 * sigma_nr_value * mass**4 * c**4)


def sigma_dispersion_exact(kstate, t, sigma_nr_value, c: float = C_LIGHT):
    """Leading excess spread produced by exact joint evolution.

    Each momentum component shifts the reading by t W(p), so the variance
    gains t^2 var(W) and the standard deviation t^2 var(W) / (2 sigma_NR)
    at leading order. Kept alongside ``sigma_ideal_term`` because the two
    differ at leading order (var(W) vs (<p^4> + var(p^2)) / (4 m^4 c^4)).
    """
    if np.any(sigma_nr_value <= 0):
        raise ValueError("sigma_NR must be positive")
    m = moments(kstate)
    mass = kstate.mass
    return t * t * m.var_p2 / (8.0 * sigma_nr_value * mass**4 * c**4)


def _nonideal_term(clock, free, shift, shift2):
    """Error-operator contribution to the clock-time spread at g = 0, at each
    time, from the clock's ``free_reading`` and the rate-shift moments
    shift = t <W> and shift2 = t^2 <W^2>.

    Each brace of the four-brace expression in E(t) = e rho(t),
    e = (i/hbar)[H, T] - I, is a time derivative of the free reading:
    brace1 = d var(T)/dt = dq/dt, brace2 = (d<T>/dt)^2 - 1 and brace3 =
    d^2q/dt^2 + 4 <T> d^2<T>/dt^2 - 2, q = <(T - a)^2> at the fixed a = <T>.
    ``sigma_breakdown`` has ``sigma_ideal_term`` reject a spread <= 0 first.
    q is |(T - a) psi|^2 only for a projective measurement: a dense clock
    whose T2 is not T.T to 1e-12 of its largest entry (the qubit) raises.
    """
    if not isinstance(clock, ClockModel):  # an IdealisedClock
        return 0.0
    if clock.time_values is None:
        t_cl, t2_cl = clock.t_cl, clock.t2_cl
        if np.abs(t2_cl - t_cl @ t_cl).max() > 1e-12 * np.abs(t2_cl).max():
            raise ValueError("sigma_NI assumes a projective time measurement, T2 = T.T; "
                             "this clock's second-moment operator differs")
    brace1, d2_q, d2_t = free.derivatives()
    s_nr, rate = free.spread, free.rate
    brace2 = (rate - 1.0) * (rate + 1.0)
    brace3 = d2_q + 4.0 * free.mean * d2_t - 2.0
    return (shift / (2.0 * s_nr) * brace1 - shift**2 / (8.0 * s_nr**3) * brace1**2
            - shift**2 / (2.0 * s_nr) * brace2 - shift2 / (2.0 * s_nr) * brace3)


def sigma_breakdown(clock, kstate, t, c: float = C_LIGHT) -> PrecisionBreakdown:
    """Assemble the three-way spread decomposition at g = 0 at each time.

    For an IdealisedClock the free spread is its constant t = 0 value and
    the non-idealised term vanishes identically. At one time ``c`` may be
    a 1-D stack of light speeds, one result per entry; the free spread
    does not depend on c and stays one value. A ClockModel whose T2 is not
    T.T, a measurement that is not projective, raises ValueError.
    """
    check_light_speed(c)
    free = free_reading(clock, t)
    s_nr = free.spread
    s_i = sigma_ideal_term(kstate, t, s_nr, c)
    wm = w_moments(kstate, c)
    s_ni = _nonideal_term(clock, free, t * wm.mean_w, wm.mean_w2 * t * t)
    return PrecisionBreakdown(sigma_nr=s_nr, sigma_i=s_i, sigma_ni=s_ni,
                              total=s_nr + s_i + s_ni)
