"""Reference checks that the clock models carry a covariant time measurement.

``moment_polynomial`` gives both sides of the binomial law of the outcome
moments, over a dial window that follows the state,

    <T^(n)>(t) = sum_k C(n, k) t^(n-k) <T^(k)>(0),

exact for a dial (a clock given by ``time_values``) only at whole dial
steps, and for the phase clock at any t once its window is cut at the
outcome-density minimum. ``commutator_residual`` gives the residual of
the phase clock's [T, H] = i hbar (I - (s1 - s0) F(0)), with F(0) the
measurement density at the dial cut and s1 - s0 the period. The period
is the spectrum's, 2 pi hbar / (E1 - E0) (``clock_period``): the state
evolves under the stored energies, while the window measurement rotates
at 2 pi / period. A phase clock whose moment operators disagree with its
spectrum fails the commutator check, and a window measurement given
another period fails the moment check. ``phase_moment_operator``
integrates the phase clock's moment density over any window by the
standard recursion; it is the independent reference for the closed-form
operators that ``build_qubit_phase`` stores.
"""

from __future__ import annotations

import math

import numpy as np

from chronodil.clocks import evolve, time_probabilities
from chronodil.constants import HBAR


def phase_moment_operator(n: int, a: float, b: float, omega: float) -> np.ndarray:
    """integral over [a, b] of s^n F(s) ds for the qubit phase measurement.

    F(s) = (omega/2pi) (I + e^{i omega s}|0><1| + e^{-i omega s}|1><0|),
    the periodic extension of the phase-ket density to the whole line.
    Entries are evaluated in closed form.
    """
    diag = (b ** (n + 1) - a ** (n + 1)) / (n + 1)
    off = _poly_phase_integral(n, a, b, omega)
    op = np.array([[diag, off], [np.conj(off), diag]], dtype=complex)
    return op * omega / (2.0 * np.pi)


def _poly_phase_integral(n: int, a: float, b: float, omega: float) -> complex:
    """integral over [a, b] of s^n e^{i omega s} ds by the standard recursion."""
    if n == 0:
        return (np.exp(1j * omega * b) - np.exp(1j * omega * a)) / (1j * omega)
    boundary = (b**n * np.exp(1j * omega * b) - a**n * np.exp(1j * omega * a)) / (1j * omega)
    return boundary - n / (1j * omega) * _poly_phase_integral(n - 1, a, b, omega)


def projector(ket: np.ndarray) -> np.ndarray:
    return np.outer(ket, np.conj(ket))


def clock_period(clock) -> float:
    """2 pi / omega, with omega = (E1 - E0) / hbar the level spacing that
    every built-in clock shares."""
    return 2.0 * np.pi / (float(clock.energies[1] - clock.energies[0]) / HBAR)


def circular_mean_time(clock, t: float = 0.0) -> float:
    """Mean reading on the dial circle, in [0, period), from the argument of
    the first circular harmonic of the reading distribution (rho_10 for the
    phase clock), which is blind to the dial cut."""
    psi_t = evolve(clock, t)
    if clock.time_values is None:
        harmonic = psi_t[1] * psi_t[0].conj()
    else:
        probs = time_probabilities(clock, psi_t)
        harmonic = np.sum(probs * np.exp(2j * np.pi * np.arange(clock.dim) / clock.dim))
    angle = float(np.angle(harmonic)) % (2.0 * np.pi)
    return angle / (2.0 * np.pi) * clock_period(clock)


def _window_moment(clock, k: int, t: float, period: float) -> float:
    """k-th outcome moment at lab time t over a window that follows the state."""
    psi_t = evolve(clock, t)
    if clock.time_values is None:
        omega = 2.0 * np.pi / period
        r01 = clock.psi0[1] * clock.psi0[0].conj()
        peak0 = (-np.angle(r01) / omega) if abs(r01) > 1e-14 else 0.0
        start = peak0 - period / 2.0 + t
        op = phase_moment_operator(k, start, start + period, omega)
        return float(np.vdot(psi_t, op @ psi_t).real)
    # dial positions start .. start + d - 1, their probabilities rolled into
    # window order; the window moves by whole steps
    d = clock.dim
    step = period / d
    start = round(circular_mean_time(clock) / step) % d - d // 2 + round(t / step)
    probs = time_probabilities(clock, psi_t)
    return float(np.sum(((start + np.arange(d)) * step) ** k * np.roll(probs, -start)))


def moment_polynomial(clock, n: int, t: float,
                      period: float | None = None) -> tuple[float, float]:
    """(<T^(n)>(t), sum_k C(n, k) t^(n-k) <T^(k)>(0)) over the window of a
    measurement with ``period``, by default the clock's ``clock_period``."""
    period = clock_period(clock) if period is None else period
    rhs = sum(math.comb(n, k) * t ** (n - k) * _window_moment(clock, k, 0.0, period)
              for k in range(n + 1))
    return _window_moment(clock, n, t, period), rhs


def commutator_residual(clock) -> float:
    """max |M - I + period F(0)| with M = -(i/hbar)[T, H] for the phase
    clock, F(0) = (omega/pi)|+><+| and omega = (E1 - E0)/hbar.
    Dimensionless: moment operators built for a spectrum off by a fraction
    f read about f."""
    e = clock.energies
    f0 = (float(e[1] - e[0]) / HBAR / np.pi) * projector(np.ones(2) / np.sqrt(2.0))
    rate = (-1j / HBAR) * clock.t_cl * (e[None, :] - e[:, None])  # entries of M
    return float(np.abs(rate - np.eye(clock.dim) + clock_period(clock) * f0).max())
