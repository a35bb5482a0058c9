"""Multi-qubit state carriers, register algebra, and the qs1 state-file format.

Conventions used throughout the package:

* Qubit 0 is the MOST significant bit of a computational-basis index, so for
  three qubits ``|101>`` is basis index 5 and its qubit 0 reads 1.
* Subsets of qubits are plain ``int`` bitmasks with bit ``i`` standing for
  qubit ``i``.  A mask is only meaningful together with the register size.
"""

from __future__ import annotations

import io
import math
import os
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySubset,
    IndexOutOfRange,
    InvalidSubset,
    InvariantViolation,
    NotUnitary,
    OutOfRange,
    ParseError,
    TooLarge,
    ZeroVector,
)
from .linalg import (
    apply_superoperators,
    hermitian_eigenvalues,
    is_hermitian,
    real_or_complex,
    superoperator,
)

TRACE_ATOL = 1e-10
PSD_EIG_FLOOR = -1e-9
NORM_SQ_ATOL = 1e-12
UNITARY_ATOL = 1e-10
# Eigenvalues at or below this are treated as outside the support.
SUPPORT_CUTOFF = 1e-12
# A factor found at intake is kept only if it rebuilds the matrix this closely.
FACTOR_ATOL = 1e-13

# Resource guards for the text state format: a mixed file holds 4^n rows.
MAX_PURE_FILE_QUBITS = 14
MAX_MIXED_FILE_QUBITS = 12


def full_mask(num_qubits: int) -> int:
    return (1 << num_qubits) - 1


def subset_qubits(mask: int) -> list[int]:
    """Qubit indices contained in `mask`, ascending."""
    out = []
    i = 0
    while mask >> i:
        if (mask >> i) & 1:
            out.append(i)
        i += 1
    return out


def check_subset(mask: int, num_qubits: int, *, allow_empty: bool = False) -> None:
    if mask < 0 or mask & ~full_mask(num_qubits):
        raise InvalidSubset(f"mask {mask:#x} reaches outside a {num_qubits}-qubit register")
    if mask == 0 and not allow_empty:
        raise EmptySubset("subset must contain at least one qubit")


def _register_size(dim: int, what: str) -> int:
    n = dim.bit_length() - 1
    if n < 1 or (1 << n) != dim:
        raise DimensionMismatch(f"{what} dimension {dim} is not a power of two >= 2")
    return n


class PureState:
    """A normalized state vector on an n-qubit register.

    Its `factor` is the amplitude column, so subset entropies come from
    Schmidt spectra without ever forming the 2^n x 2^n density matrix.
    """

    __slots__ = ("amplitudes", "num_qubits")

    def __init__(self, amplitudes: np.ndarray | Sequence[complex]):
        a = np.asarray(amplitudes, dtype=complex).reshape(-1)
        self.num_qubits = _register_size(a.shape[0], "state vector")
        if not np.all(np.isfinite(a.view(float))):
            raise InvariantViolation("state vector has non-finite entries")
        norm_sq = float(np.vdot(a, a).real)
        if abs(norm_sq - 1.0) > NORM_SQ_ATOL:
            raise InvariantViolation(f"squared norm {norm_sq!r} differs from 1 by more than {NORM_SQ_ATOL}")
        self.amplitudes = a

    @property
    def factor(self) -> np.ndarray:
        """The 2^n x 1 column V with rho = V V^dagger."""
        return self.amplitudes.reshape(-1, 1)

    def to_density(self) -> "DensityOperator":
        return DensityOperator.from_factor(self.factor)

    def __repr__(self) -> str:
        return f"PureState(num_qubits={self.num_qubits})"


class DensityOperator:
    """A density matrix on an n-qubit register.

    A real matrix is stored as float64 and any other as complex128, so real
    states (chain ground states and what the built-in channels make of them)
    are reduced and diagonalized in real arithmetic.

    Construction checks Hermiticity (1e-10) and unit trace (1e-10); these are
    cheap.  Positivity is checked only when `check_psd=True` (used for
    untrusted input such as state files) because it needs an eigensolve.
    Small negative eigenvalues from round-off are tolerated down to -1e-9 and
    are clamped where entropies are evaluated, never in storage.

    `spectrum` holds the ascending eigenvalues of `matrix` when the
    positivity check computed them, and is None otherwise.

    `factor` is None, or a 2^n x r matrix V with matrix = V V^dagger.
    `from_factor` keeps the V it is given.  The positivity check attaches
    one when the matrix is numerically of low rank (see `_low_rank_factor`);
    `matrix` then stays the matrix passed in, which V V^dagger matches to
    1e-13 in every entry.
    """

    __slots__ = ("matrix", "num_qubits", "factor", "spectrum")

    def __init__(self, matrix: np.ndarray, *, check_psd: bool = False):
        m = real_or_complex(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"density matrix must be square, got shape {m.shape}")
        self.num_qubits = _register_size(m.shape[0], "density matrix")
        if not np.all(np.isfinite(m.view(float))):
            raise InvariantViolation("density matrix has non-finite entries")
        if not is_hermitian(m):
            raise InvariantViolation("density matrix is not Hermitian within 1e-10")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise InvariantViolation(f"trace {tr!r} differs from 1 by more than {TRACE_ATOL}")
        self.matrix = m
        self.factor = None
        self.spectrum = None
        if check_psd:
            vals = hermitian_eigenvalues(m)
            lo = float(vals[0])
            if lo < PSD_EIG_FLOOR:
                raise InvariantViolation(f"minimum eigenvalue {lo!r} below {PSD_EIG_FLOOR}")
            self.spectrum = vals
            self.factor = _low_rank_factor(m, vals)

    @classmethod
    def from_factor(cls, factor: np.ndarray) -> "DensityOperator":
        """rho = V V^dagger for a 2^n x r matrix V with squared Frobenius norm 1.

        Hermiticity and positivity hold by construction, so only finiteness
        and the trace (1e-10) are checked.  The factor is kept, and subset
        entropies are then computed from it.  A real factor stays real.
        """
        v = np.ascontiguousarray(real_or_complex(factor))
        if v.ndim != 2 or v.shape[1] < 1:
            raise DimensionMismatch(f"factor must be a 2^n x r matrix, got shape {v.shape}")
        num_qubits = _register_size(v.shape[0], "factor")
        if not np.all(np.isfinite(v.view(float))):
            raise InvariantViolation("factor has non-finite entries")
        tr = float(np.vdot(v, v).real)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise InvariantViolation(f"trace {tr!r} differs from 1 by more than {TRACE_ATOL}")
        self = cls.__new__(cls)
        self.matrix = v @ v.conj().T
        self.num_qubits = num_qubits
        self.factor = v
        self.spectrum = None
        return self

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityOperator(num_qubits={self.num_qubits})"


def _low_rank_factor(m: np.ndarray, vals: np.ndarray) -> np.ndarray | None:
    """V (d x r) with m = V V^dagger to FACTOR_ATOL in every entry, or None.

    `vals` are m's ascending eigenvalues, and r counts those above
    SUPPORT_CUTOFF.  A factor is sought only when r^2 <= d, where subset
    entropies from V cost less than the dense table, and when the other
    eigenvalues sum in absolute value to at most SUPPORT_CUTOFF, so that by
    the Fannes-Audenaert bound no subset entropy moves by more than about
    3e-11 bits.  V is the first r columns of m's diagonally pivoted Cholesky
    factor, O(d r^2) work.
    """
    d = m.shape[0]
    r = int(np.count_nonzero(vals > SUPPORT_CUTOFF))
    if r * r > d or float(np.abs(vals[:d - r]).sum()) > SUPPORT_CUTOFF:
        return None
    residual = m.diagonal().real.copy()  # diagonal of m - V V^dagger so far
    v = np.zeros((d, r), dtype=m.dtype)
    for k in range(r):
        p = int(np.argmax(residual))
        if not residual[p] > 0.0:
            return None
        v[:, k] = (m[:, p] - v[:, :k] @ v[p, :k].conj()) / math.sqrt(residual[p])
        residual -= np.abs(v[:, k]) ** 2
    gap = v @ v.conj().T
    gap -= m
    return v if np.abs(gap).max() <= FACTOR_ATOL else None


def tensor_product(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Joint state with `a`'s qubits in the more significant positions."""
    return DensityOperator(np.kron(a.matrix, b.matrix))


def partial_trace(rho: DensityOperator, keep: int) -> DensityOperator:
    """Reduced state on the qubits in the mask `keep`.

    Kept qubits are relabeled 0.. in ascending original-index order.
    """
    n = rho.num_qubits
    check_subset(keep, n)
    if keep == full_mask(n):
        return rho
    kept = subset_qubits(keep)
    # Row axis of qubit i carries label i; tracing a qubit gives its column
    # axis the same label, keeping it assigns label n+i.
    labels = list(range(n))
    labels += [n + i if (keep >> i) & 1 else i for i in range(n)]
    out_labels = kept + [n + q for q in kept]
    t = rho.matrix.reshape((2,) * (2 * n))
    reduced = np.einsum(t, labels, out_labels)
    d = 1 << len(kept)
    return DensityOperator(reduced.reshape(d, d))


def apply_local_unitary(rho: DensityOperator, factors: Sequence[np.ndarray]) -> DensityOperator:
    """Conjugate by U_0 x U_1 x ... x U_{n-1}, one 2x2 factor per qubit.

    Each factor acts as the superoperator U (x) U^* on its qubit's row and
    column legs, so the full product operator is never built.
    """
    n = rho.num_qubits
    if len(factors) != n:
        raise DimensionMismatch(f"expected {n} factors, got {len(factors)}")
    mats = []
    for q, u in enumerate(factors):
        m = np.asarray(u, dtype=complex)
        if m.shape != (2, 2):
            raise DimensionMismatch(f"factor {q} has shape {m.shape}, expected (2, 2)")
        if np.abs(m.conj().T @ m - np.eye(2)).max() > UNITARY_ATOL:
            raise NotUnitary(f"factor {q} is not unitary within {UNITARY_ATOL}")
        mats.append(m)
    supers = [(q, superoperator([m])) for q, m in enumerate(mats)]
    return DensityOperator(apply_superoperators(rho.matrix, n, supers))


def make_ghz(num_qubits: int) -> PureState:
    """(|00...0> + |11...1>)/sqrt(2)."""
    if num_qubits < 1:
        raise OutOfRange("need at least one qubit")
    amp = np.zeros(1 << num_qubits, dtype=complex)
    amp[0] = amp[-1] = math.sqrt(0.5)
    return PureState(amp)


def make_state_from_kets(terms: Sequence[tuple[int, complex]], num_qubits: int) -> PureState:
    """Normalized superposition of computational-basis kets.

    `terms` is a list of (basis index, amplitude) pairs; repeated indices
    accumulate.
    """
    if num_qubits < 1:
        raise OutOfRange("need at least one qubit")
    dim = 1 << num_qubits
    amp = np.zeros(dim, dtype=complex)
    for index, coeff in terms:
        if not 0 <= index < dim:
            raise IndexOutOfRange(f"basis index {index} outside a {num_qubits}-qubit register")
        amp[index] += coeff
    norm = float(np.linalg.norm(amp))
    if norm <= 1e-12:
        raise ZeroVector("superposition has (near-)zero norm")
    return PureState(amp / norm)


# ---------------------------------------------------------------------------
# qs1 state files
#
# Line 1:   "qs1 pure <n>"  or  "qs1 mixed <n>"
# Then:     2^n lines "<re> <im>" for pure states, or 4^n lines giving the
#           density matrix row by row.


def write_qs1(path: str | os.PathLike, state: PureState | DensityOperator) -> None:
    if isinstance(state, PureState):
        kind, values = "pure", state.amplitudes
    elif isinstance(state, DensityOperator):
        kind, values = "mixed", state.matrix.reshape(-1)
    else:
        raise TypeError(f"cannot serialize {type(state).__name__}")
    lines = [f"qs1 {kind} {state.num_qubits}"]
    lines.extend(f"{float(z.real)!r} {float(z.imag)!r}" for z in values)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


# Bytes the vectorized body parse accepts.  A body with any other byte (a tab,
# 'inf', '_', ...) goes through the line loop, whose `float` accepts more.
_ENTRY_BYTES = b"0123456789.eE+- \n"


def read_qs1(path: str | os.PathLike) -> PureState | DensityOperator:
    """Parse a qs1 state file; returns a PureState or a validated DensityOperator."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.isascii() or b"\r" in raw:
        # Text mode rejects non-ASCII bytes and turns '\r' line ends into '\n'.
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.read().encode("ascii")
    if not raw:
        raise ParseError("empty state file")
    newline = raw.find(b"\n")
    first = (raw if newline < 0 else raw[:newline]).decode("ascii")
    header = first.split()
    if len(header) != 3 or header[0] != "qs1" or header[1] not in ("pure", "mixed"):
        raise ParseError(f"bad header line {first!r}")
    try:
        n = int(header[2])
    except ValueError:
        raise ParseError(f"bad qubit count {header[2]!r}") from None
    if n < 1:
        raise ParseError(f"bad qubit count {n}")
    if header[1] == "pure":
        if n > MAX_PURE_FILE_QUBITS:
            raise TooLarge(f"pure state files support at most {MAX_PURE_FILE_QUBITS} qubits")
        expected = 1 << n
    else:
        if n > MAX_MIXED_FILE_QUBITS:
            raise TooLarge(f"mixed state files support at most {MAX_MIXED_FILE_QUBITS} qubits")
        expected = 1 << (2 * n)
    found = raw.count(b"\n") - raw.endswith(b"\n")  # a final '\n' ends the last line
    if found != expected:
        raise ParseError(f"expected {expected} entry lines, found {found}")
    values = _parse_entries(raw, newline + 1, expected)
    del raw  # the text is no longer needed while the state is validated
    try:
        if header[1] == "pure":
            return PureState(values)
        return DensityOperator(values.reshape(1 << n, 1 << n), check_psd=True)
    except InvariantViolation as exc:
        raise ParseError(f"state file violates state invariants: {exc}") from exc


def _parse_entries(raw: bytes, start: int, expected: int) -> np.ndarray:
    """The `expected` complex entries of the qs1 body that begins at byte `start`.

    `np.loadtxt` parses a body of plain numbers; its values are bit-identical
    to the line loop's `float`.  Every body it cannot vouch for, including
    every malformed one, goes to the line loop, which names the first bad line.
    """
    # The body has no byte outside _ENTRY_BYTES exactly when the whole file
    # has no such byte beyond those of its header line.
    if raw.translate(None, _ENTRY_BYTES) == raw[:start].translate(None, _ENTRY_BYTES):
        try:
            pairs = np.loadtxt(io.BytesIO(raw), dtype=float, comments=None, skiprows=1,
                               ndmin=2, encoding="ascii")
        except ValueError:
            pairs = None
        # loadtxt skips blank lines, so a blank line shows as a missing row.
        if pairs is not None and pairs.shape == (expected, 2) and np.isfinite(pairs).all():
            return pairs.view(complex).reshape(-1)
    body = raw[start:].decode("ascii").split("\n")
    if body[-1] == "":
        body.pop()
    values = np.empty(expected, dtype=complex)
    for i, line in enumerate(body):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {i + 2}: expected '<re> <im>', got {line!r}")
        try:
            re, im = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(f"line {i + 2}: could not parse {line!r}") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ParseError(f"line {i + 2}: non-finite entry {line!r}")
        values[i] = complex(re, im)
    return values
