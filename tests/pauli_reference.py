"""Pauli matrices and Kronecker products: the tests' reference for building
operators on a register one factor per qubit."""

from typing import Iterable

import numpy as np

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def kron_all(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of `factors`, first factor most significant."""
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        out = np.kron(out, f)
    return out
