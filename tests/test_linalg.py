import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covariant_reference import projector
from dense_reference import evolve_hermitian, is_hermitian
from helpers import random_density, random_hermitian

HBAR_ONE = 1.0


def test_zero_generator_is_identity():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 4)
    out = evolve_hermitian(np.zeros((4, 4), dtype=complex), rho, 3.7, hbar=HBAR_ONE)
    assert np.allclose(out, rho, atol=1e-14)


def test_half_period_qubit_rotation():
    # H = diag(0, hbar*omega); after t = pi/omega, |+> goes to |->
    omega = 2.0
    h = np.diag([0.0, omega]).astype(complex)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    out = evolve_hermitian(h, projector(plus), np.pi / omega, hbar=HBAR_ONE)
    assert np.abs(out - projector(minus)).max() < 1e-12


def test_group_law_random_hermitian():
    rng = np.random.default_rng(1)
    h = random_hermitian(rng, 5)
    rho = random_density(rng, 5)
    t1, t2 = 0.83, 1.91
    step = evolve_hermitian(h, evolve_hermitian(h, rho, t1, HBAR_ONE), t2, HBAR_ONE)
    direct = evolve_hermitian(h, rho, t1 + t2, HBAR_ONE)
    assert np.abs(step - direct).max() < 1e-10


def test_evolve_rejects_non_hermitian_and_mismatch():
    rho = np.eye(2, dtype=complex) / 2.0
    with pytest.raises(ValueError, match="Hermitian"):
        evolve_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), rho, 1.0, HBAR_ONE)
    with pytest.raises(ValueError, match="mismatch"):
        evolve_hermitian(np.eye(3, dtype=complex), rho, 1.0, HBAR_ONE)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_evolution_preserves_trace_and_positivity(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    h = random_hermitian(rng, d)
    rho = random_density(rng, d)
    out = evolve_hermitian(h, rho, float(rng.normal()), HBAR_ONE)
    assert abs(np.trace(out).real - 1.0) < 1e-10
    assert np.linalg.eigvalsh(out).min() > -1e-10


def test_local_evolution_commutes_with_partial_trace():
    # generator H_a x 1 + 1 x H_b: evolving then tracing out b equals
    # tracing out b then evolving
    rng = np.random.default_rng(6)
    h_a = random_hermitian(rng, 2)
    h_b = random_hermitian(rng, 3)
    rho = random_density(rng, 6)
    h_total = np.kron(h_a, np.eye(3)) + np.kron(np.eye(2), h_b)
    t = 0.9

    def trace_b(r):
        return np.einsum("ijkj->ik", r.reshape(2, 3, 2, 3))

    evolved_then_traced = trace_b(evolve_hermitian(h_total, rho, t, HBAR_ONE))
    traced_then_evolved = evolve_hermitian(h_a, trace_b(rho), t, HBAR_ONE)
    assert np.abs(evolved_then_traced - traced_then_evolved).max() < 1e-10


def test_hermitian_tag_tolerance():
    a = np.eye(3, dtype=complex)
    a[0, 1] = 1e-14
    assert is_hermitian(a)
    a[0, 1] = 1e-3
    assert not is_hermitian(a)
