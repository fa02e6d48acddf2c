import multiprocessing
from math import isqrt

import numpy as np
import pytest

from nonmarkov.dynamics import sandwich

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


def projector(vec):
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())


def random_cptp(dim, rng, n_kraus=3):
    """Random CPTP superoperator from a normalized Kraus set."""
    ops = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
           for _ in range(n_kraus)]
    gram = sum(op.conj().T @ op for op in ops)
    w, v = np.linalg.eigh(gram)
    correction = (v * 1.0 / np.sqrt(w)) @ v.conj().T
    total = np.zeros((dim * dim, dim * dim), dtype=complex)
    for op in ops:
        total += sandwich(op @ correction)
    return total


def unvec(vector, dim=None):
    """Inverse of the column stacking of ``nonmarkov.dynamics.vec``."""
    vector = np.asarray(vector)
    d = dim if dim is not None else isqrt(vector.size)
    return vector.reshape((d, d), order="F")


def extended_superop(m):
    """Materialize the (d^2)^2 x (d^2)^2 matrix of id ⊗ Λ (small d only), the
    reference for apply_superop on H ⊗ H."""
    n = m.shape[0]
    d = isqrt(n)
    eye = np.eye(d)
    s8 = np.einsum("jq,ip,lkrs->jlikqrps", eye, eye, m.reshape(d, d, d, d))
    return s8.reshape(n * n, n * n)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture(autouse=True)
def no_child_processes_left():
    """Fail a test that leaves child processes running, such as an unclosed pool."""
    yield
    left = multiprocessing.active_children()
    if left:
        pytest.fail(f"child processes still running after the test: {left}")
