"""Dense complex linear algebra for small Hilbert spaces.

Conventions:

* States are density matrices: Hermitian, unit trace, positive
  semidefinite within numerical tolerance.
* Composite systems order the clock factor first in Kronecker products.
* ``evolve_hermitian`` is the dense reference for free evolution: it
  conjugates by exp(-i H t / hbar) built from an eigendecomposition of
  any Hermitian H, never from a truncated series, so it stays unitary to
  machine precision at any time argument. Clocks, stored in their energy
  eigenbasis, evolve by an elementwise phase instead
  (``clocks.evolve``); this routine is what that shortcut is checked
  against.
* Qubit basis: ``|0>`` is the ground state, ``sigma_z = |1><1| - |0><0|``.

All values are immutable after construction and safe to share across
concurrent workers.
"""

from __future__ import annotations

import numpy as np

from .constants import HBAR

HERMITICITY_RTOL = 1e-12

SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)


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


def projector(ket: np.ndarray) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    return np.outer(ket, ket.conj())


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


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the clock factor first."""
    return np.kron(a, b)


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep) -> np.ndarray:
    """Reduced density matrix of a bipartite state.

    ``dims = (d_clock, d_kinematic)`` and ``keep`` is ``'clock'``/``0`` or
    ``'kinematic'``/``1``.
    """
    d0, d1 = dims
    if rho.shape != (d0 * d1, d0 * d1):
        raise ValueError(f"dimension mismatch: rho {rho.shape} vs dims {dims}")
    if keep in ("clock", 0):
        axis = 0
    elif keep in ("kinematic", 1):
        axis = 1
    else:
        raise ValueError(f"keep must be 'clock' or 'kinematic', got {keep!r}")
    r = rho.reshape(d0, d1, d0, d1)
    if axis == 0:
        return np.einsum("ijkj->ik", r)
    return np.einsum("ijil->jl", r)


def expectation(a: np.ndarray, rho: np.ndarray) -> complex:
    """tr(A rho) as a complex number."""
    if a.shape != rho.shape:
        raise ValueError(f"dimension mismatch: A {a.shape} vs rho {rho.shape}")
    return complex(np.einsum("ij,ji->", a, rho))


def expectation_real(a: np.ndarray, rho: np.ndarray, imag_tol: float = 1e-9) -> float:
    """Real part of tr(A rho), checking that the imaginary part is noise.

    Intended for Hermitian observables; the imaginary magnitude is compared
    against ``imag_tol`` times the overall scale.
    """
    val = expectation(a, rho)
    scale = max(abs(val), float(np.abs(a).max()) or 1.0)
    if abs(val.imag) > imag_tol * scale:
        raise ValueError(f"expectation has non-negligible imaginary part {val.imag:.3e}")
    return val.real
