"""Dense linear algebra helpers used by the state and model code."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian

HERMITIAN_ATOL = 1e-10


def is_hermitian(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> bool:
    """Whether `m`, or each matrix of a stack (..., d, d), is Hermitian within `atol`."""
    return bool(np.abs(m - np.swapaxes(m.conj(), -1, -2)).max() <= atol)


def real_or_complex(m) -> np.ndarray:
    """`m` as a float64 array if it is real, a complex128 array otherwise."""
    a = np.asarray(m)
    return a.astype(complex if np.iscomplexobj(a) else float, copy=False)


def checked_hermitian(m: np.ndarray) -> np.ndarray:
    """`m` as a float64 or complex128 array (real input stays real), after
    checking that it is square and Hermitian; a stack (..., d, d) is checked
    matrix by matrix."""
    a = real_or_complex(m)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
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
    """Ascending eigenvalues of an already-validated Hermitian matrix, or of
    each matrix of a stack (..., d, d)."""
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(str(exc)) from exc


def superoperator(kraus: Iterable[np.ndarray]) -> np.ndarray:
    """S = sum_k E_k (x) E_k^* of 2x2 Kraus factors, real when every entry is.

    Rows index the output (row, column) pair of a qubit, columns the input
    pair, so S[(r', c'), (r, c)] = sum_k E_k[r', r] conj(E_k[c', c]).
    """
    s = sum(np.kron(e, np.conj(e)) for e in kraus)
    return s.real if not np.any(s.imag) else s


def apply_superoperators(mat: np.ndarray, num_qubits: int,
                         supers: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """`mat` after each 4x4 superoperator S in `supers`, acting on the row and
    column legs of its qubit, in turn.

    Each output quarter (r', c') of a qubit is a sum over the nonzero entries
    of S's row of input quarters (r, c), written into one of two full-size
    buffers that all qubits share; only a second or later term of a row
    makes a quarter-size temporary.  The result is real when `mat` and every
    S are.
    """
    n = num_qubits
    dtype = np.result_type(mat, *(s for _, s in supers))
    buffers = [np.empty(mat.shape, dtype) for _ in supers[:2]]
    src = mat
    for i, (q, s) in enumerate(supers):
        shape = (1 << q, 2, 1 << (n - q - 1), 1 << q, 2, 1 << (n - q - 1))
        t, out = src.reshape(shape), buffers[i % 2].reshape(shape)
        for row in range(4):
            dst = out[:, row >> 1, :, :, row & 1, :]
            terms = [(s[row, col], col) for col in range(4) if s[row, col] != 0]
            if not terms:
                dst[...] = 0
                continue
            coef, col = terms[0]
            np.multiply(t[:, col >> 1, :, :, col & 1, :], coef, out=dst)
            for coef, col in terms[1:]:
                dst += coef * t[:, col >> 1, :, :, col & 1, :]
        src = buffers[i % 2]
    return src
