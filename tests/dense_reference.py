"""Dense density-matrix references for the library's ket shortcuts.

``evolve_hermitian`` conjugates a density matrix by exp(-i H t / hbar),
built from an eigendecomposition of H, never from a truncated series, so
it stays unitary to machine precision at any time argument. It works in
any basis. The library stores clocks in their energy eigenbasis and
evolves their kets by a phase per component (``chronodil.clocks.evolve``);
the tests check that shortcut, and the oracles, against this routine.

``sigma_nonideal_term_dense`` is the four-brace spread term written with
d x d matrix products on rho(t), the form the library's ket evaluation
(``chronodil.precision.sigma_nonideal_term``) is checked against.
"""

from __future__ import annotations

import numpy as np

from chronodil.clocks import rate_operator
from chronodil.constants import C_LIGHT, HBAR
from chronodil.linalg import dagger, projector
from chronodil.precision import sigma_nr, w_moments

HERMITICITY_RTOL = 1e-12


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


def sigma_nonideal_term_dense(clock, kstate, t: float, c: float = C_LIGHT) -> float:
    """Four-brace non-idealised spread term by direct matrix evaluation on
    the evolved density matrix rho(t), with E(t) = M rho(t) - rho(t)."""
    wm = w_moments(kstate, c)
    s_nr = sigma_nr(clock, t)
    t_op = clock.t_cl
    h_op = np.diag(clock.energies).astype(complex)
    rho_t = evolve_hermitian(h_op, projector(clock.psi0), t, HBAR)
    e_op = rate_operator(clock) @ rho_t - rho_t
    e_small = rate_operator(clock) - np.eye(clock.dim)
    tr_e = np.trace(e_op)
    mean_t_nr = np.trace(t_op @ rho_t).real

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
