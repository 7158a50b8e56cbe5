"""Decomposition of the clock-time spread under the motional coupling.

At g = 0 and to fourth order in p/(m c), the coupling multiplies the
clock Hamiltonian by 1 + W(p) with

    W(p) = -p^2 / (2 m^2 c^2) + 3 p^4 / (8 m^4 c^4),

so each momentum component runs the clock at a slightly different rate.
The clock-time standard deviation then splits as

    sigma_T(t) = sigma_NR(t) + sigma_I(t) + sigma_NI(t):

a free part, a part that survives for an idealised clock, and a part
sourced entirely by the clock's error operator. The free part is
sqrt(<T2> - <T>^2) from the clock's two moment operators in its evolved
ket. The idealised term used here is

    sigma_I(t) = t^2 (<p^4> + var(p^2)) / (8 sigma_NR(t) m^4 c^4),

and the non-idealised term is the full four-brace trace expression in
terms of E(t), e = (i/hbar)[H, T] - I and the W moments, evaluated as
inner products of kets (see ``sigma_nonideal_term``); its (i/hbar)
factors take the pinned SI ``constants.HBAR``. A companion
``sigma_dispersion_exact`` gives the excess that exact joint evolution
produces, t^2 var(W) / (2 sigma_NR), whose leading term keeps var(p^2)
but not <p^4>; the two closed forms disagree at leading order and the
oracle module quantifies that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR
from .clocks import ClockModel, IdealisedClock, evolve, rate_operator, require_clock
from .linalg import expectation_real
from .kinematics import moments


@dataclass(frozen=True)
class WMoments:
    """First and (truncated) second moments of the clock-rate shift W.

    ``mean_w2`` keeps only p^4/(4 m^4 c^4), which is non-negative; the
    cross and p^8 pieces are of sixth order in p/(m c) and dropped."""

    mean_w: float
    mean_w2: float


@dataclass(frozen=True)
class PrecisionBreakdown:
    """sigma_NR + sigma_I + sigma_NI = total at each time, exactly as assembled."""

    sigma_nr: float | np.ndarray
    sigma_i: float | np.ndarray
    sigma_ni: float | np.ndarray
    total: float | np.ndarray


def w_of_p(p, mass: float, c: float = C_LIGHT, order: str = "c4"):
    """Per-momentum clock-rate shift W(p). ``order='c2'`` keeps only the
    quadratic term."""
    w = -(p**2) / (2.0 * mass**2 * c**2)
    if order == "c4":
        w = w + 3.0 * p**4 / (8.0 * mass**4 * c**4)
    elif order != "c2":
        raise ValueError(f"order must be 'c2' or 'c4', got {order!r}")
    return w


def w_moments(kstate, c: float = C_LIGHT) -> WMoments:
    """<W> and truncated <W^2> from the state's exact momentum moments."""
    m = moments(kstate)
    mass = kstate.mass
    mean_w = -m.mean_p2 / (2.0 * mass**2 * c**2) + 3.0 * m.mean_p4 / (8.0 * mass**4 * c**4)
    mean_w2 = m.mean_p4 / (4.0 * mass**4 * c**4)
    return WMoments(mean_w=float(mean_w), mean_w2=float(mean_w2))


def sigma_nr(clock, t):
    """Clock-time standard deviation at each time under free evolution."""
    require_clock(clock)
    if isinstance(clock, IdealisedClock):
        return clock.sigma_t0
    psi_t = evolve(clock, t)
    return spread_from_moments(expectation_real(clock.t_cl, psi_t),
                               expectation_real(clock.t2_cl, psi_t))


def spread_from_moments(mean, second):
    """sqrt(<T^2> - <T>^2) elementwise. A variance below -1e-12 <T^2> raises
    ValueError; above it is round-off (the d = 4 dial refocuses to zero spread) and reads 0."""
    var = second - mean**2
    if np.any(var < -1e-12 * second):
        raise ValueError(f"negative variance down to {np.min(var)!r}: "
                         "not the moments of a probability distribution")
    return np.sqrt(np.maximum(var, 0.0))


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
    return t**2 * (m.mean_p4 + m.var_p2) / (8.0 * sigma_nr_value * mass**4 * c**4)


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
    return t**2 * m.var_p2 / (8.0 * sigma_nr_value * mass**4 * c**4)


def sigma_nonideal_term(clock: ClockModel, kstate, t, c: float = C_LIGHT):
    """Error-operator contribution to the clock-time spread at g = 0, at each time.

    The four-brace expression in E(t) = e rho(t), e = (i/hbar)[H, T] - I,
    <W> and <W^2>. With rho(t) = psi psi^dag every trace is an inner
    product of kets, tr(X Y Z rho) = (X^dag psi)^dag Y (Z psi), built from
    u = T psi, v = e psi and h = H psi (T and H Hermitian) by (n_t, d) @ (d, d)
    products, so no (n_t, d, d) tensor is formed. The assembled value must be
    real; an imaginary part above 1e-10 of scale raises instead of being
    symmetrised away.
    """
    return _nonideal_term(clock, kstate, t, c, sigma_nr(clock, t))


def _nonideal_term(clock, kstate, t, c: float, s_nr):
    """``sigma_nonideal_term`` from the free spread ``s_nr`` at the same times."""
    if isinstance(clock, IdealisedClock):
        return 0.0
    wm = w_moments(kstate, c)
    if np.any(s_nr <= 0):
        raise ValueError("sigma_NR must be positive for the non-idealised term")
    t_tr = clock.t_cl.T  # kets @ A.T applies A to every row
    e_tr = (rate_operator(clock) - np.eye(clock.dim)).T

    def dot(x, y):  # <x|y>, row by row
        return np.sum(x.conj() * y, axis=-1)

    psi = evolve(clock, t)
    u, v, h = psi @ t_tr, psi @ e_tr, clock.energies * psi
    tr_e = dot(psi, v)  # tr E
    mean_t_nr = dot(psi, u).real

    brace1 = dot(u, v) + dot(v, u) - 2.0 * mean_t_nr * tr_e  # tr((E + E^dag) T)
    brace2 = 2.0 * tr_e + tr_e**2
    brace3 = (
        2.0 * tr_e
        + (1j / HBAR) * (dot(h, u @ e_tr) - dot(u, h @ e_tr)  # (H e T - T e H) rho
                         + dot(h, v @ t_tr) - dot(v, h @ t_tr))  # H T E - E^dag T H
        + (2j / HBAR) * mean_t_nr * (dot(h, v) - dot(v, h))  # H (E - E^dag)
    )
    first = wm.mean_w * t / (2.0 * s_nr) * brace1
    second = -((wm.mean_w * t) ** 2) / (8.0 * s_nr**3) * brace1**2
    third = -((wm.mean_w * t) ** 2) / (2.0 * s_nr) * brace2
    fourth = -(wm.mean_w2 * t**2) / (2.0 * s_nr) * brace3
    total = first + second + third + fourth
    if np.any(np.abs(np.imag(total)) > 1e-10 * np.maximum(1.0, np.abs(total))):
        raise ValueError(f"non-idealised term has imaginary part "
                         f"{np.max(np.abs(np.imag(total))):.3e}")
    return np.real(total)


def sigma_breakdown(clock, kstate, t, c: float = C_LIGHT) -> PrecisionBreakdown:
    """Assemble the three-way spread decomposition at g = 0 at each time.

    For an IdealisedClock the free spread is its constant t = 0 value and
    the non-idealised term vanishes identically.
    """
    s_nr = sigma_nr(clock, t)
    s_i = sigma_ideal_term(kstate, t, s_nr, c)
    s_ni = _nonideal_term(clock, kstate, t, c, s_nr)
    return PrecisionBreakdown(sigma_nr=s_nr, sigma_i=s_i, sigma_ni=s_ni,
                              total=s_nr + s_i + s_ni)
