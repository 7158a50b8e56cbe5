"""Brute-force joint evolution of clock and motional degrees of freedom.

One exact evolution, ``evolve_characteristics_g``, on a momentum grid and
in the clock's energy eigenbasis, where every part of the Hamiltonian is
diagonal in the clock index. Each clock energy component feels a
constant force, so its momentum wavefunction is shifted along straight
characteristics and picks up the time integral of the momentum-diagonal
energy along them. At g = 0 the force vanishes and the same solution is
the block-diagonal one: each momentum sample evolves its clock block
under H_cl (1 + w(p)) plus a kinematic phase.

It does not step in time, so there is no Trotter error; the only
approximation is the momentum grid itself. Its period in position,
2 pi hbar over its spacing, covers the joint state's extent, and its
captured norm and final norm are checked.

The speed of light is one value or a 1-D stack of L values. A stack
adds a leading axis of length L to the amplitudes and to every
observable read from them, and all its entries share one momentum grid,
the one of the smallest light speed, whose integrand is the widest.

``verify_mean_time`` and ``verify_sigma`` compare the perturbative
closed forms against this evolution while scaling the speed of light
by factors lambda. Holding the states fixed and fitting the residual
against lambda on log-log axes exposes the truncation order of the
closed forms without needing relativistic-scale states. Every scaling
is one light speed of a single stack, so each report takes one free
read of the clock, one grid and one joint evolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR
from .clocks import ClockModel, reading_stats
from .dilation import mean_clock_time
from .kinematics import CatState, check_light_speed, to_grid
from .precision import sigma_breakdown


@dataclass(frozen=True)
class JointState:
    """Clock x kinematic pure state sampled on a grid.

    ``amplitudes[..., n, j]`` is the component on clock basis state n at
    grid point j; a leading axis, if any, holds one state per light speed
    of a stack, all on the same grid. Each discrete norm must be 1 within
    1e-8.
    """

    grid: np.ndarray
    amplitudes: np.ndarray

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def norm(self):
        """Discrete norm, one per state of a stack."""
        return np.sum(np.abs(self.amplitudes) ** 2, axis=(-2, -1)) * self.spacing


@dataclass(frozen=True)
class VerificationReport:
    """Perturbative vs exact values across light-speed scalings, with the
    fitted residual-decay exponents (absolute and relative to the
    correction term), None where ``at_floor`` marks residuals at noise;
    ``resolved`` is False when a correction is at or below that floor."""

    quantity: str
    c_scalings: tuple
    perturbative: tuple
    exact: tuple
    residuals: tuple
    relative_residuals: tuple
    exponent_abs: float | None
    exponent_rel: float | None
    at_floor: bool
    resolved: bool
    passed: bool


def _check_norm(js: JointState) -> JointState:
    norms = np.ravel(js.norm())
    worst = float(norms[np.argmax(np.abs(norms - 1.0))])
    if not (abs(worst - 1.0) <= 1e-8):  # a NaN norm fails too
        raise ValueError(f"grid under-resolution: joint norm {worst!r} deviates from 1")
    return js


# largest light-speeds x clock-levels x momentum-points array the default
# grid may ask for: 32 MB per complex array
_MAX_DEFAULT_SAMPLES = 1 << 21


def _row_shifts(clock: ClockModel, mass: float, t: float, g: float, c) -> np.ndarray:
    """Momentum each clock component loses over [0, t] under its constant
    force m g + E_n g / c^2: shape (d,) for one c, (L, d) for a stack."""
    return (mass * g + clock.energies * g / np.expand_dims(c**2, -1)) * t


def default_momentum_grid(clock: ClockModel, kstate, t: float, g: float, order: str = "c2",
                          c: float | np.ndarray = C_LIGHT) -> np.ndarray:
    """Uniform momentum grid of ``evolve_characteristics_g``.

    Clock row n samples the initial wavefunction at p + s_n, with the shift
    s_n = (m g + E_n g / c^2) t, so the span [p0 - max s - 8 sigma_p,
    p0 - min s + 8 sigma_p] holds every row's packet to 8 spreads. For a
    1-D stack of light speeds, min and max run over every row at every c.

    The clock density is a trapezoid sum over p of a_j(p) a_k*(p) h, exact
    up to the integrand's Fourier tail beyond x = 2 pi hbar / h. So
    h = 2 pi hbar / X, with X the integrand's extent in position: 18 sigma_x
    for the envelope (9 standard deviations of the transform of |phi|^2,
    a tail near 1e-18), a cat's separation delta_x0, and X_c, the which-path
    displacement between clock levels, hbar times the p-slope of the phase
    between them: (E_max - E_min) t q / (m^2 c^2), plus (E_max - E_min)
    3 t q^3 / (2 m^4 c^4) for 'c4'. Under gravity the levels run along
    different characteristics, which adds (max s - min s) times the bound
    on how fast a shift changes the p-slopes of E_n times the elapsed time
    and of the kinetic phase. Every term takes q at
    q_pk = |p0| + 6 sigma_p + max |s|, on the packet's support. Every term
    of X falls with c, so a stack takes its spacing from its smallest c.

    Raises ValueError when the grid would hold more than 2^21 light-speed
    by clock-level by momentum-point samples; pass ``grid`` to the
    evolution instead.
    """
    check_light_speed(c)
    base = kstate.base if isinstance(kstate, CatState) else kstate
    mass, sigma_p = kstate.mass, base.sigma_p
    shifts = _row_shifts(clock, mass, t, g, c)
    s_lo, s_hi = float(shifts.min()), float(shifts.max())
    lo = base.p0 - s_hi - 8.0 * sigma_p
    hi = base.p0 - s_lo + 8.0 * sigma_p
    q_pk = abs(base.p0) + 6.0 * sigma_p + max(abs(s_lo), abs(s_hi))
    rows = np.size(c) * clock.dim
    c_min = np.min(c)  # the widest integrand
    t = abs(t)
    # bounds on |d elapsed / dp|, on its change per unit shift, and on the
    # change of the kinetic phase's p-slope per unit shift
    slope = t * q_pk / (mass**2 * c_min**2)
    d_slope = 0.5 * t / (mass**2 * c_min**2)
    d_kinetic = 0.5 * t * (1.0 / mass + 1.5 * q_pk**2 / (mass**3 * c_min**2))
    if order == "c4":
        slope += 1.5 * t * q_pk**3 / (mass**4 * c_min**4)
        d_slope += 2.25 * t * q_pk**2 / (mass**4 * c_min**4)
    energies = clock.energies
    extent = (18.0 * base.sigma_x + float(np.ptp(energies)) * slope
              + (s_hi - s_lo) * (float(np.max(np.abs(energies))) * d_slope + d_kinetic))
    if isinstance(kstate, CatState):
        extent += kstate.delta_x0
    n_points = int(np.ceil((hi - lo) * extent / (2.0 * np.pi * HBAR))) + 1
    if n_points * rows > _MAX_DEFAULT_SAMPLES:
        raise ValueError(
            f"the default grid needs {n_points} momentum points for {rows} clock rows "
            f"({clock.dim} levels at {np.size(c)} light speeds), more than "
            f"{_MAX_DEFAULT_SAMPLES} samples; pass grid= explicitly"
        )
    return np.linspace(lo, hi, n_points)


def evolve_characteristics_g(clock: ClockModel, kstate, t: float, g: float, order: str = "c2",
                             c: float | np.ndarray = C_LIGHT,
                             grid: np.ndarray | None = None) -> JointState:
    """Closed-form momentum-representation solution, with or without gravity.

    Per clock energy component E_n the Hamiltonian is

        E_n (1 + w(p)) + p^2/2m - p^4/(8 m^3 c^2) + (m g + E_n g / c^2) x,

    with the clock coupling w(p) = -p^2/(2 m^2 c^2) for ``order`` 'c2',
    plus 3 p^4/(8 m^4 c^4) for 'c4'. The force on each component is
    constant, so the component obeys a transport equation in momentum: the
    propagator is a momentum shift plus a phase given by the time integral
    of the momentum-diagonal part along the shifted trajectory. No time
    stepping, no Trotter error. The quartic kinetic term is common to all
    clock components and drops out of the clock readings. The rest energy
    contributes only a global phase and is omitted.

    ``c`` is one light speed, giving amplitudes of shape (d, N), or a 1-D
    stack of L, giving (L, d, N) on one grid: amplitudes[l] is the
    evolution at c[l] on that grid.

    The default grid, ``default_momentum_grid``, spans every clock row's
    shifted packet, and its spacing is 2 pi hbar over the extent in
    position of the integrand of the reduced clock density: the envelope,
    a cat's separation and the which-path displacement between clock rows,
    which grows with t, the clock's energy spread and 1/c^2. For a stack
    it spans every row at every c and takes the smallest c's spacing.
    ``grid`` overrides it.
    """
    if order not in ("c2", "c4"):
        raise ValueError(f"order must be 'c2' or 'c4', got {order!r}")
    if not isinstance(clock, ClockModel):
        raise TypeError(f"the joint evolution needs a ClockModel, got {type(clock).__name__}")
    check_light_speed(c)
    mass = kstate.mass
    if grid is None:
        grid = default_momentum_grid(clock, kstate, t, g, order, c)
    grid = np.asarray(grid, dtype=float)
    energies = clock.energies
    # momentum decreases by shifts[n] over [0, t], shape (d,) or (L, d). At
    # g = 0 every shift is 0, and at the physical c E_n g t / c^2 is below
    # one ulp of m g t, so every row shares one shift: it is kept alone, and
    # the wavefunction and the phase integrals broadcast over the rows
    shifts = _row_shifts(clock, mass, t, g, c)
    if np.ptp(shifts) == 0:
        shifts = shifts.ravel()[:1]
    p, s = grid, shifts[..., None]
    # powers of c as given, so one c keeps its scalar arithmetic
    c2 = np.reshape(c**2, np.shape(c) + (1, 1))
    # integrals over [0, t] of q^2 and q^4 along q(u) = p + s u / t, in
    # polynomial form so that a vanishing force needs no special case
    i2 = t * (p**2 + p * s + s**2 / 3.0)
    i4 = t * (p**4 + 2.0 * p**3 * s + 2.0 * p**2 * s**2 + p * s**3 + s**4 / 5.0)
    # clock-scale phase (E_n times the dilated elapsed time) separate from
    # the large common kinematic phase, which cancels in reduced clock
    # observables
    elapsed = t - i2 / (2.0 * mass**2 * c2)
    if order == "c4":
        elapsed = elapsed + 3.0 * i4 / (8.0 * mass**4 * np.reshape(c**4, c2.shape))
    clock_phase = np.exp(-1j * energies[:, None] * elapsed / HBAR)
    common_phase = np.exp(-1j * (i2 / (2.0 * mass) - i4 / (8.0 * mass**3 * c2)) / HBAR)
    # each shifted grid must capture the state's norm on its own
    amps = clock.psi0[:, None] * to_grid(kstate, p + s) * clock_phase * common_phase
    return _check_norm(JointState(grid=grid, amplitudes=amps))


# ---------------------------------------------------------------------------
# observables on joint states


def clock_time_stats(js: JointState, clock: ClockModel):
    """(mean, standard deviation) of the clock reading on a joint state, one
    each per state of a stack: the reading of the reduced clock density,
    the sum over grid points of each point's clock ket times the grid
    spacing."""
    return reading_stats(clock, np.swapaxes(js.amplitudes, -1, -2), weight=js.spacing)


def _light_speeds(t: float, c_scalings, base_c: float) -> tuple[np.ndarray, np.ndarray]:
    """(scalings, scaled light speeds) of a verification. ValueError at t = 0,
    where every correction is 0, and below two distinct scalings, which fit
    no decay exponent."""
    if t == 0:
        raise ValueError("verification needs t != 0: at t = 0 every correction is 0")
    lams = np.asarray(c_scalings, dtype=float)
    if len(set(np.ravel(lams).tolist())) < 2:
        raise ValueError(f"verification needs at least two distinct c scalings, got {c_scalings!r}")
    return lams, lams * base_c


def _fit_exponent(lams: np.ndarray, residuals: np.ndarray) -> float | None:
    """Least-squares slope of log residual against log lambda over the
    positive residuals, in closed form; None below two of them."""
    mask = residuals > 0
    if mask.sum() < 2:
        return None
    x, y = np.log(lams[mask]), np.log(residuals[mask])
    x = x - x.mean()
    return float(np.dot(x, y - y.mean()) / np.dot(x, x))


def _report(quantity: str, lams: np.ndarray, rows, floor_scale: float,
            judged: str, limit: float) -> VerificationReport:
    """Report from one (perturbative, exact, correction) row per scaling.

    Residuals below 1e-12 of max(``floor_scale``, |exact|) are at the
    floor, where no exponent is fitted; a correction at or below it is
    unresolved and fails. A resolved report passes at the floor, or when
    the exponent named by ``judged`` ('abs' or 'rel') is at most ``limit``.
    """
    perturbative, exact, corrections = (tuple(map(float, col)) for col in zip(*rows))
    residuals = tuple(abs(e - p) for p, e in zip(perturbative, exact))
    relatives = tuple(r / abs(corr) if corr != 0 else np.inf
                      for r, corr in zip(residuals, corrections))
    floor = 1e-12 * max(floor_scale, max(abs(v) for v in exact))
    at_floor = all(r < floor for r in residuals)
    resolved = min(abs(corr) for corr in corrections) > floor
    # residuals at the floor are rounding, with no decay to fit
    exp_abs = None if at_floor else _fit_exponent(lams, np.asarray(residuals))
    exp_rel = None if at_floor else _fit_exponent(lams, np.asarray(relatives))
    fitted = exp_rel if judged == "rel" else exp_abs
    return VerificationReport(
        quantity=quantity, c_scalings=tuple(lams), perturbative=perturbative, exact=exact,
        residuals=residuals, relative_residuals=relatives,
        exponent_abs=exp_abs, exponent_rel=exp_rel, at_floor=at_floor, resolved=resolved,
        passed=resolved and (at_floor or (fitted is not None and fitted <= limit)),
    )


def verify_mean_time(clock: ClockModel, kstate, t: float, g: float,
                     c_scalings=(1.0, 2.0, 4.0), base_c: float = C_LIGHT) -> VerificationReport:
    """Mean clock time: closed form vs joint evolution across c scalings.

    The oracle is the characteristics solution with the 'c2' clock
    coupling, at g = 0 as with gravity on. Every scaling is one light
    speed of a single stack: one closed-form call and one evolution, on
    the grid of the smallest c.

    Passes when the relative residual (residual over the correction
    t R (1 + tr E) that the closed form formed) decays with fitted
    exponent <= -1.8, or when every residual sits at the numerical noise
    floor, and never when a correction is below that floor.
    """
    lams, c = _light_speeds(t, c_scalings, base_c)
    result = mean_clock_time(clock, kstate, t, g, c=c)
    js = evolve_characteristics_g(clock, kstate, t, g, c=c)
    rows = zip(result.mean_t, clock_time_stats(js, clock)[0], result.correction)
    return _report("mean_clock_time", lams, rows, abs(t), "rel", -1.8)


def verify_sigma(clock: ClockModel, kstate, t: float,
                 c_scalings=(1.0, 2.0, 4.0), base_c: float = C_LIGHT) -> VerificationReport:
    """Clock-time spread: three-term decomposition vs joint evolution at
    g = 0, the characteristics solution with the 'c4' clock coupling,
    each called once on the stack of every scaled light speed.

    Passes when the absolute residual decays with fitted exponent <= -5,
    or when every residual sits at the numerical noise floor, never with
    a correction below it. Both exponents are reported as measured, the
    relative one against sigma_I + sigma_NI, the two parts the closed
    form's total adds to the free spread.
    """
    lams, c = _light_speeds(t, c_scalings, base_c)
    breakdown = sigma_breakdown(clock, kstate, t, c=c)
    js = evolve_characteristics_g(clock, kstate, t, 0.0, order="c4", c=c)
    rows = zip(breakdown.total, clock_time_stats(js, clock)[1],
               breakdown.sigma_i + breakdown.sigma_ni)
    return _report("clock_time_spread", lams, rows, 0.0, "abs", -5.0)
