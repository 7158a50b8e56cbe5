"""Independent split-operator reference for the joint evolution with gravity.

A symmetric (Strang) split-step alternates the momentum-diagonal and the
position-diagonal parts of the Hamiltonian on a position grid, switching
representations with the FFT. In the clock's energy eigenbasis both parts
stay diagonal in the clock index, so each energy component is a scalar
wavefunction. It shares no code with the library's characteristics
solution, so the two cross-check each other; the caller sets the step
count, and the stepping error falls as 1 / steps^2.
"""

from __future__ import annotations

import numpy as np

from chronodil.constants import C_LIGHT, HBAR
from chronodil.kinematics import CatState
from chronodil.oracle import JointState

from helpers import position_wavefunction


def _position_grid(kstate, t: float, g: float, n_points: int) -> np.ndarray:
    base = kstate.base if isinstance(kstate, CatState) else kstate
    spread = base.sigma_x * np.sqrt(1.0 + (HBAR * t / (2.0 * base.mass * base.sigma_x**2)) ** 2)
    x_means = [base.x0]
    if isinstance(kstate, CatState):
        x_means.append(base.x0 + kstate.delta_x0)
    # classical drift x(t') = x0 + v t' - g t'^2 / 2 over the run window
    v = base.p0 / base.mass
    drifts = [0.0, v * t - 0.5 * g * t**2]
    if g != 0.0 and 0.0 < v / g < t:
        drifts.append(0.5 * v**2 / g)  # turning point
    lo = min(x_means) + min(drifts) - 10.0 * spread
    hi = max(x_means) + max(drifts) + 10.0 * spread
    return np.linspace(lo, hi, n_points, endpoint=False)


def split_step_evolve(clock, kstate, t: float, g: float, steps: int,
                      c: float = C_LIGHT, hbar: float = HBAR,
                      n_points: int = 2048) -> JointState:
    """Strang split-step evolution over ``steps`` equal steps.

    Momentum-diagonal part per clock energy E_n:
    E_n (1 - p^2/(2 m^2 c^2)) + p^2/2m - p^4/(8 m^3 c^2); position-diagonal
    part: (m g + E_n g / c^2) x. Raises when the norm leaks or probability
    reaches the grid edges.
    """
    mass = kstate.mass
    x = _position_grid(kstate, t, g, n_points)
    dx = x[1] - x[0]
    p = 2.0 * np.pi * hbar * np.fft.fftfreq(n_points, d=dx)
    energies = clock.energies
    psi = clock.psi0[:, None] * position_wavefunction(kstate, x)[None, :]

    kin_clock = energies[:, None] * (1.0 - p**2 / (2.0 * mass**2 * c**2))[None, :]
    kin_common = p**2 / (2.0 * mass) - p**4 / (8.0 * mass**3 * c**2)
    pot_clock = energies[:, None] * (g / c**2) * x[None, :]
    pot_common = mass * g * x
    dt = t / steps
    # clock-scale and common phases are exponentiated separately: a single
    # summed exponent would absorb the small clock phase
    half_pot = np.exp(-0.5j * pot_clock * dt / hbar) * np.exp(-0.5j * pot_common * dt / hbar)[None, :]
    kin = np.exp(-1j * kin_clock * dt / hbar) * np.exp(-1j * kin_common * dt / hbar)[None, :]

    psi = psi * half_pot
    for step in range(steps):
        psi = np.fft.ifft(kin * np.fft.fft(psi, axis=1), axis=1)
        psi *= half_pot**2 if step < steps - 1 else half_pot

    js = JointState(grid=x, amplitudes=psi)
    if abs(js.norm() - 1.0) > 1e-6:
        raise ValueError(f"norm leak {abs(js.norm() - 1.0):.3e} during split-step run")
    edge = max(1, n_points // 50)
    density = np.sum(np.abs(js.amplitudes) ** 2, axis=0) * dx
    if density[:edge].sum() + density[-edge:].sum() > 1e-6:
        raise ValueError("grid aliasing: probability at the position grid edges")
    return js
