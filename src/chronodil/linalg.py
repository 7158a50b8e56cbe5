"""Dense complex linear algebra for small Hilbert spaces.

Conventions:

* Clock states are unit kets in the clock's energy eigenbasis (free
  evolution is a phase, ``clocks.evolve``; nothing here diagonalises). A
  stack of kets is an (n, d) array, one ket per row, one value per ket.
* Qubit basis: ``|0>`` is the ground state.
"""

from __future__ import annotations

import numpy as np


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def projector(ket: np.ndarray) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    return np.outer(ket, ket.conj())


def expectation(a: np.ndarray, kets: np.ndarray):
    """psi^dag A psi of a ket, shape (d,), or of each row of kets, shape (n, d)."""
    if a.shape != (kets.shape[-1],) * 2:
        raise ValueError(f"dimension mismatch: A {a.shape} vs kets {kets.shape}")
    return np.sum(kets.conj() * (kets @ a.T), axis=-1)


def expectation_real(a: np.ndarray, kets: np.ndarray, imag_tol: float = 1e-9):
    """Real part of psi^dag A psi, checking that the imaginary part is noise.

    Intended for Hermitian observables; each ket's imaginary magnitude is
    compared against ``imag_tol`` times its overall scale.
    """
    val = expectation(a, kets)
    scale = np.maximum(np.abs(val), float(np.abs(a).max()) or 1.0)
    if np.any(np.abs(val.imag) > imag_tol * scale):
        raise ValueError(f"expectation has imaginary part {np.max(np.abs(val.imag)):.3e}")
    return val.real
