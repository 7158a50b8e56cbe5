"""Dense complex linear algebra for small Hilbert spaces.

Conventions:

* Clock states are unit kets in the clock's energy eigenbasis, where
  free evolution is a phase per component (``clocks.evolve``), so
  nothing here diagonalises.
* Qubit basis: ``|0>`` is the ground state.
"""

from __future__ import annotations

import numpy as np


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def projector(ket: np.ndarray) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    return np.outer(ket, ket.conj())


def expectation(a: np.ndarray, ket: np.ndarray) -> complex:
    """psi^dag A psi as a complex number."""
    if a.shape != (ket.size, ket.size):
        raise ValueError(f"dimension mismatch: A {a.shape} vs ket {ket.shape}")
    return complex(np.vdot(ket, a @ ket))


def expectation_real(a: np.ndarray, ket: np.ndarray, imag_tol: float = 1e-9) -> float:
    """Real part of psi^dag A psi, checking that the imaginary part is noise.

    Intended for Hermitian observables; the imaginary magnitude is compared
    against ``imag_tol`` times the overall scale.
    """
    val = expectation(a, ket)
    scale = max(abs(val), float(np.abs(a).max()) or 1.0)
    if abs(val.imag) > imag_tol * scale:
        raise ValueError(f"expectation has non-negligible imaginary part {val.imag:.3e}")
    return val.real
