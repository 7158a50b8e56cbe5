"""Dense reference for free evolution under any Hermitian generator.

``evolve_hermitian`` conjugates a density matrix by exp(-i H t / hbar),
built from an eigendecomposition of H, never from a truncated series, so
it stays unitary to machine precision at any time argument. It works in
any basis. The library stores clocks in their energy eigenbasis and
evolves them by an elementwise phase (``chronodil.clocks.evolve``); the
tests check that shortcut, and the oracles, against this routine.
"""

from __future__ import annotations

import numpy as np

from chronodil.constants import HBAR
from chronodil.linalg import dagger

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
