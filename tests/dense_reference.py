"""Dense density-matrix references for the library's ket shortcuts.

``evolve_hermitian`` conjugates a density matrix by exp(-i H t / hbar),
built from an eigendecomposition of H, never from a truncated series, so
it stays unitary to machine precision at any time argument. It works in
any basis. The library stores clocks in their energy eigenbasis and
evolves their kets by a phase per component (``chronodil.clocks.evolve``);
the tests check that shortcut, and the oracles, against this routine.

``sigma_nonideal_term_dense`` is the four-brace spread term written with
d x d matrix products on rho(t), the form the library's ket evaluation
(the sigma_NI term of ``chronodil.precision.sigma_breakdown``) is checked
against. It builds the rate operator and the free spread itself, from
dense moment operators and a dense Hamiltonian.

``fourier_time_basis`` holds a dial's time kets as the columns of an
explicit discrete Fourier matrix, and ``dial_moment_operators_dense``
builds the dial's time observable and its square from another one;
``dial_moment_operators_circulant`` gives the same two operators in
closed form, to a few ulp. The library reads dials by FFT and is checked
against all three. ``dense_moment_operators`` gives any clock's
calibrated T and T2 as matrices, and ``reduced_clock_density`` a joint
state's clock density.

``block_evolve_g0`` is the g = 0 joint evolution written block by block:
without gravity the Hamiltonian is diagonal in momentum, so each momentum
sample evolves its clock block under H_cl (1 + w(p)) times t and carries a
kinetic phase. The library's characteristics solution, which integrates
the same Hamiltonian along momentum trajectories, is checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chronodil.constants import C_LIGHT, HBAR
from chronodil.kinematics import to_grid
from chronodil.precision import w_moments
from covariant_reference import projector

HERMITICITY_RTOL = 1e-12


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def hermiticity_defect(a: np.ndarray) -> float:
    """max |A - A^dag| relative to max |A| (absolute for the zero matrix)."""
    scale = np.abs(a).max()
    defect = np.abs(a - dagger(a)).max()
    return float(defect if scale == 0.0 else defect / scale)


def is_hermitian(a: np.ndarray, rtol: float = HERMITICITY_RTOL) -> bool:
    return hermiticity_defect(a) < rtol


def require_hermitian(a: np.ndarray, name: str = "operator", rtol: float = HERMITICITY_RTOL) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not is_hermitian(a, rtol):
        raise ValueError(f"{name} is not Hermitian (defect {hermiticity_defect(a):.3e})")


def unitary_from_hamiltonian(h: np.ndarray, t: float, hbar: float = HBAR) -> np.ndarray:
    """exp(-i H t / hbar) by Hermitian eigendecomposition."""
    require_hermitian(h, "H")
    energies, vectors = np.linalg.eigh(h)
    phases = np.exp(-1j * energies * t / hbar)
    return (vectors * phases) @ dagger(vectors)


def evolve_hermitian(h: np.ndarray, rho: np.ndarray, t: float, hbar: float = HBAR) -> np.ndarray:
    """Conjugate ``rho`` by exp(-i H t / hbar).

    Raises ValueError on a non-Hermitian generator or mismatched dimensions.
    """
    if h.shape != rho.shape:
        raise ValueError(f"dimension mismatch: H {h.shape} vs rho {rho.shape}")
    u = unitary_from_hamiltonian(h, t, hbar)
    return u @ rho @ dagger(u)


def fourier_time_basis(d: int) -> np.ndarray:
    """Columns are the time-basis kets: theta_m = d^{-1/2} sum_j e^{-2pi i j m / d} |e_j>.

    Entry (j, m) is the d-th root of unity at (j m mod d), gathered from the
    d roots, so no phase argument grows beyond 2 pi."""
    roots = np.exp(-2j * np.pi * np.arange(d) / d) / np.sqrt(d)
    index = np.outer(np.arange(d), np.arange(d))
    index %= d
    return roots[index]


def dial_moment_operators_dense(d: int, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Raw time observable F diag(m tau) F^dag of a d-level dial and its
    second moment F diag((m tau)^2) F^dag, tau = 2 pi / (omega d), with
    F[j, m] = e^{-2 pi i j m / d} / sqrt(d) evaluated entry by entry."""
    tau = 2.0 * np.pi / omega / d
    j = np.arange(d).reshape(-1, 1)
    m = np.arange(d).reshape(1, -1)
    fourier = np.exp(-2j * np.pi * j * m / d) / np.sqrt(d)
    values = np.arange(d) * tau
    return (fourier * values) @ dagger(fourier), (fourier * values**2) @ dagger(fourier)


def dial_moment_operators_circulant(d: int, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """The raw T and T2 of ``dial_moment_operators_dense`` in closed form,
    accurate to a few ulp: both are circulant, T[j, k] = c1[n] and
    T2[j, k] = c2[n] with n = (j - k) mod d, and with
    u = -1/2 + (i/2) cot(pi n / d)

        c1[n] = tau u,    c2[n] = tau^2 ((d - 2) u - 2 u^2)    (n != 0),
        c1[0] = tau (d - 1)/2,    c2[0] = tau^2 (d - 1)(2d - 1)/6,

    from sum_m m z^m = d/(z - 1) and sum_m m^2 z^m = d(d - 2)/(z - 1) -
    2d/(z - 1)^2 over the d-th roots of unity z != 1."""
    tau = 2.0 * np.pi / omega / d
    n = np.arange(1, (d + 1) // 2)  # 0 < n < d/2; entries past d/2 are conjugates
    cot = np.zeros(d)
    cot[n] = 1.0 / np.tan(np.pi * n / d)
    cot[d - n] = -cot[n]  # cot(pi/2) = 0 exactly at n = d/2
    u = -0.5 + 0.5j * cot
    c1, c2 = tau * u, tau**2 * ((d - 2) * u - 2.0 * u * u)
    c1[0], c2[0] = tau * (d - 1) / 2.0, tau**2 * (d - 1) * (2 * d - 1) / 6.0
    index = np.subtract.outer(np.arange(d), np.arange(d)) % d
    return c1[index], c2[index]


def dense_moment_operators(clock) -> tuple[np.ndarray, np.ndarray]:
    """Calibrated (T, T2) of a clock as (dim, dim) matrices: a dense clock's
    stored operators, or a dial's closed-form circulants shifted by its
    reading offset o = -time_values[0], T - o I and T2 - 2 o T + o^2 I."""
    if clock.time_values is None:
        return clock.t_cl, clock.t2_cl
    omega = float(clock.energies[1] - clock.energies[0]) / HBAR
    t_raw, t2_raw = dial_moment_operators_circulant(clock.dim, omega)
    o, ident = -clock.time_values[0], np.eye(clock.dim)
    return t_raw - o * ident, t2_raw - 2.0 * o * t_raw + o**2 * ident


def reduced_clock_density(js) -> np.ndarray:
    """Clock density matrix of a joint state: sum over grid points of each
    point's clock ket times its conjugate, times the grid spacing."""
    return js.amplitudes @ dagger(js.amplitudes) * js.spacing


@dataclass(frozen=True)
class BlockState:
    """Joint amplitudes ``amplitudes[n, j]`` on clock state n at grid point j."""

    grid: np.ndarray
    amplitudes: np.ndarray

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])


def block_evolve_g0(clock, kstate, t: float, order: str, c: float,
                    grid: np.ndarray) -> BlockState:
    """g = 0 joint evolution of a pure state, one clock block per momentum
    sample: exp(-i E_n (1 + w(p)) t / hbar) times the kinetic phase
    exp(-i (p^2/2m - p^4/(8 m^3 c^2)) t / hbar), with w(p) = -p^2/(2 m^2 c^2)
    for ``order`` 'c2', plus 3 p^4/(8 m^4 c^4) for 'c4'."""
    mass = kstate.mass
    w = -grid**2 / (2.0 * mass**2 * c**2)
    if order == "c4":
        w = w + 3.0 * grid**4 / (8.0 * mass**4 * c**4)
    kinetic = grid**2 / (2.0 * mass) - grid**4 / (8.0 * mass**3 * c**2)
    blocks = np.exp(-1j * np.outer(clock.energies, 1.0 + w) * t / HBAR)
    psi = to_grid(kstate, grid) * np.exp(-1j * kinetic * t / HBAR)
    return BlockState(grid=grid, amplitudes=clock.psi0[:, None] * blocks * psi[None, :])


def sigma_nonideal_term_dense(clock, kstate, t: float, c: float = C_LIGHT) -> float:
    """Four-brace non-idealised spread term by direct matrix evaluation on
    the evolved density matrix rho(t), with E(t) = M rho(t) - rho(t),
    M = -(i/hbar)(T H - H T) and sigma_NR = sqrt(tr(T2 rho) - tr(T rho)^2)."""
    wm = w_moments(kstate, c)
    t_op, t2_op = dense_moment_operators(clock)
    h_op = np.diag(clock.energies).astype(complex)
    rho_t = evolve_hermitian(h_op, projector(clock.psi0), t, HBAR)
    rate = (-1j / HBAR) * (t_op @ h_op - h_op @ t_op)
    e_op = rate @ rho_t - rho_t
    e_small = rate - np.eye(clock.dim)
    tr_e = np.trace(e_op)
    mean_t_nr = np.trace(t_op @ rho_t).real
    s_nr = np.sqrt(np.trace(t2_op @ rho_t).real - mean_t_nr**2)

    brace1 = np.trace((e_op + dagger(e_op)) @ t_op) - 2.0 * mean_t_nr * tr_e
    brace2 = 2.0 * tr_e + tr_e**2
    brace3 = (
        2.0 * tr_e
        + (1j / HBAR) * np.trace(
            (h_op @ e_small @ t_op - t_op @ e_small @ h_op) @ rho_t
            + h_op @ t_op @ e_op
            - dagger(e_op) @ t_op @ h_op
        )
        + (2j / HBAR) * mean_t_nr * np.trace(h_op @ (e_op - dagger(e_op)))
    )
    first = wm.mean_w * t / (2.0 * s_nr) * brace1
    second = -((wm.mean_w * t) ** 2) / (8.0 * s_nr**3) * brace1**2
    third = -((wm.mean_w * t) ** 2) / (2.0 * s_nr) * brace2
    fourth = -(wm.mean_w2 * t**2) / (2.0 * s_nr) * brace3
    total = first + second + third + fourth
    if abs(np.imag(total)) > 1e-10 * max(1.0, abs(total)):
        raise ValueError(f"non-idealised term has imaginary part {np.imag(total):.3e}")
    return float(np.real(total))
