"""Brute-force joint evolution of clock and motional degrees of freedom.

One exact evolution per regime, both on a momentum grid and in the
clock's energy eigenbasis, where every part of the Hamiltonian is
diagonal in the clock index:

* ``exact_evolve_g0``: at g = 0 the total Hamiltonian is block diagonal
  in momentum, so each momentum sample evolves its clock block under
  H_cl (1 + w(p)) plus a kinematic phase.
* ``evolve_characteristics_g``: with gravity on, each clock energy
  component feels a constant force, so its momentum wavefunction is
  shifted along straight characteristics and picks up the time integral
  of the momentum-diagonal energy along them.

Neither route steps in time, so there is no Trotter error; the only
approximation is the momentum grid itself, whose captured norm and final
norm are checked.

``verify_mean_time`` and ``verify_sigma`` compare the perturbative
closed forms against these evolutions while scaling the speed of light
by factors lambda. Holding the states fixed and fitting the residual
against lambda on log-log axes exposes the truncation order of the
closed forms without needing relativistic-scale states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR
from .clocks import ClockModel, reading_stats
from .dilation import mean_clock_time
from .kinematics import CatState, MixtureState, default_momentum_grid, to_grid
from .precision import sigma_breakdown, w_of_p


@dataclass(frozen=True)
class JointState:
    """Clock x kinematic pure state sampled on a grid.

    ``amplitudes[n, j]`` is the component on clock basis state n at grid
    point j. The discrete norm must be 1 within 1e-8.
    """

    grid: np.ndarray
    amplitudes: np.ndarray

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.spacing)


@dataclass(frozen=True)
class VerificationReport:
    """Perturbative vs exact values across light-speed scalings, with the
    fitted residual-decay exponents (absolute and relative to the
    correction term). ``at_floor`` marks residuals at numerical noise."""

    quantity: str
    c_scalings: tuple
    perturbative: tuple
    exact: tuple
    residuals: tuple
    relative_residuals: tuple
    exponent_abs: float | None
    exponent_rel: float | None
    at_floor: bool
    passed: bool
    note: str = ""


def _check_norm(js: JointState) -> JointState:
    norm = js.norm()
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"grid under-resolution: joint norm {norm!r} deviates from 1")
    return js


def _kinetic_energy(p: np.ndarray, mass: float, c: float, order: str) -> np.ndarray:
    hk = p**2 / (2.0 * mass)
    if order == "c4":
        hk = hk - p**4 / (8.0 * mass**3 * c**2)
    return hk


def exact_evolve_g0(clock: ClockModel, kstate, t: float, order: str = "c2",
                    c: float = C_LIGHT, grid: np.ndarray | None = None) -> JointState:
    """Exact g = 0 evolution on a momentum grid (block diagonal, no steps).

    ``order`` selects the truncation of the momentum coupling: 'c2' uses
    w(p) = -p^2/(2 m^2 c^2) with a bare kinetic phase, 'c4' adds the
    3 p^4/(8 m^4 c^4) coupling and the quartic kinetic correction. The
    rest energy contributes only a global phase and is omitted.
    """
    if isinstance(kstate, MixtureState):
        raise TypeError("mixtures are ensembles; evolve each component separately")
    if grid is None:
        grid = default_momentum_grid(kstate)
    mass = kstate.mass
    psi_kin = to_grid(kstate, grid).amplitudes
    energies = clock.energies
    w = w_of_p(grid, mass, c, "c4" if order == "c4" else "c2")
    hk = _kinetic_energy(grid, mass, c, order)
    # clock-scale and kinematic-scale phases are exponentiated separately:
    # their energies can differ by many orders of magnitude, and a single
    # summed exponent would absorb the small clock phase entirely
    clock_phases = np.exp(-1j * np.outer(energies, 1.0 + w) * t / HBAR)
    kin_phase = np.exp(-1j * hk * t / HBAR)
    amps = (clock_phases * clock.psi0[:, None]) * (psi_kin * kin_phase)[None, :]
    return _check_norm(JointState(grid=np.asarray(grid, dtype=float), amplitudes=amps))


# ---------------------------------------------------------------------------
# evolution with gravity


def evolve_characteristics_g(clock: ClockModel, kstate, t: float, g: float,
                             c: float = C_LIGHT, grid: np.ndarray | None = None) -> JointState:
    """Closed-form momentum-representation solution with gravity.

    Per clock energy component E_n the Hamiltonian is

        E_n (1 - p^2/(2 m^2 c^2)) + p^2/2m - p^4/(8 m^3 c^2) + (m g + E_n g / c^2) x.

    The force on each component is constant, so the component obeys a
    transport equation in momentum: the propagator is a momentum shift
    plus a phase given by the time integral of the momentum-diagonal part
    along the shifted trajectory. No time stepping, no Trotter error. The
    quartic kinetic term is always carried, with or without gravity; it is
    common to all clock components and drops out of the clock readings.
    """
    if isinstance(kstate, MixtureState):
        raise TypeError("mixtures are ensembles; evolve each component separately")
    mass = kstate.mass
    base_p0 = kstate.base.p0 if isinstance(kstate, CatState) else kstate.p0
    if grid is None:
        width = 8.0 * kstate.sigma_p + abs(mass * g * t)
        grid = np.linspace(base_p0 - mass * g * t - width, base_p0 + width,
                           4096 if isinstance(kstate, CatState) else 2048)
    grid = np.asarray(grid, dtype=float)
    energies = clock.energies
    # momentum decreases at rate force[n]; rows of the (d, N) arrays are the
    # clock energy components, columns the final momenta
    force = mass * g + energies * g / c**2
    p = grid[None, :]
    s = force[:, None] * t
    # integrals over [0, t] of q^2 and q^4 along q(u) = p + force * u, in
    # polynomial form so that a vanishing force needs no special case
    i2 = t * (p**2 + p * s + s**2 / 3.0)
    i4 = t * (p**4 + 2.0 * p**3 * s + 2.0 * p**2 * s**2 + p * s**3 + s**4 / 5.0)
    # clock-scale phase (E_n times the dilated elapsed time) separate from
    # the large common kinematic phase, which cancels in reduced clock
    # observables
    clock_phase = np.exp(-1j * energies[:, None] * (t - i2 / (2.0 * mass**2 * c**2)) / HBAR)
    common_phase = np.exp(-1j * (i2 / (2.0 * mass) - i4 / (8.0 * mass**3 * c**2)) / HBAR)
    # one sampling of the initial wavefunction on all shifted grids; each row
    # must capture the state's norm on its own
    shifted = to_grid(kstate, p + s).amplitudes
    amps = clock.psi0[:, None] * shifted * clock_phase * common_phase
    return _check_norm(JointState(grid=grid, amplitudes=amps))


# ---------------------------------------------------------------------------
# observables on joint states


def clock_time_stats(js: JointState, clock: ClockModel) -> tuple[float, float]:
    """(mean, standard deviation) of the clock reading on a joint state: the
    reading of the reduced clock density, the sum over grid points of each
    point's clock ket times the grid spacing."""
    mean, spread = reading_stats(clock, js.amplitudes.T, weight=js.spacing)
    return float(mean), float(spread)


def _oracle_mean(clock: ClockModel, kstate, t: float, g: float, c: float) -> float:
    if isinstance(kstate, MixtureState):
        return float(sum(w * _oracle_mean(clock, comp, t, g, c)
                         for w, comp in kstate.components))
    if g == 0.0:
        js = exact_evolve_g0(clock, kstate, t, order="c2", c=c)
    else:
        js = evolve_characteristics_g(clock, kstate, t, g, c=c)
    return clock_time_stats(js, clock)[0]


def _fit_exponent(lams: np.ndarray, residuals: np.ndarray) -> float | None:
    mask = residuals > 0
    if mask.sum() < 2:
        return None
    return float(np.polyfit(np.log(lams[mask]), np.log(residuals[mask]), 1)[0])


def _report(quantity: str, lams: np.ndarray, rows: list, floor_scale: float,
            judged: str, limit: float, note: str) -> VerificationReport:
    """Report from one (perturbative, exact, correction) row per scaling.

    Residuals below 1e-12 of max(``floor_scale``, |exact|) are at the
    floor. Passes at the floor, or when the exponent named by ``judged``
    ('abs' or 'rel') is at most ``limit``.
    """
    perturbative, exact, corrections = (tuple(col) for col in zip(*rows))
    residuals = tuple(abs(e - p) for p, e in zip(perturbative, exact))
    relatives = tuple(r / abs(corr) if corr != 0 else np.inf
                      for r, corr in zip(residuals, corrections))
    floor = 1e-12 * max(floor_scale, max(abs(v) for v in exact))
    at_floor = all(r < floor for r in residuals)
    exp_abs = _fit_exponent(lams, np.asarray(residuals))
    exp_rel = _fit_exponent(lams, np.asarray(relatives))
    fitted = exp_rel if judged == "rel" else exp_abs
    return VerificationReport(
        quantity=quantity, c_scalings=tuple(lams), perturbative=perturbative, exact=exact,
        residuals=residuals, relative_residuals=relatives,
        exponent_abs=exp_abs, exponent_rel=exp_rel, at_floor=at_floor,
        passed=at_floor or (fitted is not None and fitted <= limit), note=note,
    )


def verify_mean_time(clock: ClockModel, kstate, t: float, g: float,
                     c_scalings=(1.0, 2.0, 4.0), base_c: float = C_LIGHT) -> VerificationReport:
    """Mean clock time: closed form vs joint evolution across c scalings.

    The oracle is the block-diagonal evolution with the 'c2' coupling at
    g = 0 and the characteristics solution otherwise. The gravity oracle
    always carries the quartic kinetic term; it is a phase common to all
    clock components, so the readings match the 'c2' block oracle as g
    goes to 0.

    Passes when the relative residual (residual over the relativistic
    correction term) decays with fitted exponent <= -1.8, or when every
    residual sits at the numerical noise floor.
    """
    lams = np.asarray(c_scalings, dtype=float)
    rows = []
    for lam in lams:
        c_eff = lam * base_c
        result = mean_clock_time(clock, kstate, t, g, c=c_eff)
        rows.append((result.mean_t, _oracle_mean(clock, kstate, t, g, c_eff),
                     result.mean_t - result.mean_t_nr))
    return _report("mean_clock_time", lams, rows, abs(t), "rel", -1.8,
                   "relative residual measured against the relativistic correction term")


def verify_sigma(clock: ClockModel, kstate, t: float,
                 c_scalings=(1.0, 2.0, 4.0), base_c: float = C_LIGHT) -> VerificationReport:
    """Clock-time spread: three-term decomposition vs joint evolution (g = 0).

    Passes when the absolute residual decays with fitted exponent <= -5,
    or when every residual sits at the numerical noise floor. Both
    exponents are reported as measured.
    """
    if isinstance(kstate, MixtureState):
        raise TypeError("spread verification expects a pure motional state")
    lams = np.asarray(c_scalings, dtype=float)
    rows = []
    for lam in lams:
        c_eff = lam * base_c
        breakdown = sigma_breakdown(clock, kstate, t, c=c_eff)
        js = exact_evolve_g0(clock, kstate, t, order="c4", c=c_eff)
        rows.append((breakdown.total, clock_time_stats(js, clock)[1],
                     breakdown.total - breakdown.sigma_nr))
    return _report("clock_time_spread", lams, rows, 0.0, "abs", -5.0,
                   "relative residual measured against the spread excess over the free value")
