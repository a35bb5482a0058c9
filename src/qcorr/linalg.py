"""Dense linear algebra helpers used by the state and model code."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian

HERMITIAN_ATOL = 1e-10

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def is_hermitian(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> bool:
    return bool(np.abs(m - m.conj().T).max() <= atol)


def checked_hermitian(m: np.ndarray) -> np.ndarray:
    """`m` as a float64 or complex128 array (real input stays real), after
    checking that it is square and Hermitian."""
    a = np.asarray(m)
    a = a.astype(complex if np.iscomplexobj(a) else float, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not is_hermitian(a):
        raise NotHermitian("matrix is not Hermitian within 1e-10")
    return a


def hermitian_eigensystem(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix."""
    a = checked_hermitian(m)
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare in practice
        raise ConvergenceFailure(str(exc)) from exc
    return vals, vecs


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of an already-validated Hermitian matrix."""
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(str(exc)) from exc


def kron_all(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of `factors`, first factor most significant."""
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def conjugate_on_qubit(mat: np.ndarray, num_qubits: int, qubit: int, op: np.ndarray) -> np.ndarray:
    """Return (op on `qubit`) @ mat @ (op on `qubit`)^dagger.

    Applies the 2x2 factor on the chosen tensor leg directly, so the full
    2^n x 2^n one-qubit operator is never materialized.
    """
    n = num_qubits
    t = mat.reshape((2,) * (2 * n))
    t = np.moveaxis(np.tensordot(op, t, axes=([1], [qubit])), 0, qubit)
    t = np.moveaxis(np.tensordot(op.conj(), t, axes=([1], [n + qubit])), 0, n + qubit)
    return np.ascontiguousarray(t.reshape(mat.shape))
