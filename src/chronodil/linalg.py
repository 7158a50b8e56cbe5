"""Dense complex linear algebra for small Hilbert spaces.

Conventions:

* States are density matrices: Hermitian, unit trace, positive
  semidefinite within numerical tolerance.
* Clocks are stored in their energy eigenbasis and evolve by an
  elementwise phase (``clocks.evolve``), so nothing here diagonalises.
* Qubit basis: ``|0>`` is the ground state, ``sigma_z = |1><1| - |0><0|``.

All values are immutable after construction and safe to share across
concurrent workers.
"""

from __future__ import annotations

import numpy as np

SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def projector(ket: np.ndarray) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    return np.outer(ket, ket.conj())


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
