"""Multi-qubit state carriers, register algebra, and the qs1 state-file format.

Conventions used throughout the package:

* Qubit 0 is the MOST significant bit of a computational-basis index, so for
  three qubits ``|101>`` is basis index 5 and its qubit 0 reads 1.
* Subsets of qubits are plain ``int`` bitmasks with bit ``i`` standing for
  qubit ``i``.  A mask is only meaningful together with the register size.
"""

from __future__ import annotations

import functools
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
    positivity check found them, and is None otherwise.  A numerically
    low-rank matrix is certified positive without an eigensolve of `matrix`
    when its pivoted Cholesky factor V passes `_certified_factor`; its
    spectrum is then that of V^dagger V, padded with zeros.  Any other
    matrix is diagonalized whole, or popcount sector by popcount sector
    when it holds them apart (`holds_popcount`, `popcount_blocks`).

    `factor` is None, or a 2^n x r matrix V with matrix = V V^dagger.
    `from_factor` keeps the V it is given, and forms `matrix` = V V^dagger
    only when `matrix` is first read (entropies, `ccm` and
    `multi_information` take V and never read it).  The positivity check
    attaches a factor when the matrix is numerically of low rank (see
    `_low_rank_factor`); `matrix` then stays the matrix passed in, which
    V V^dagger matches to 1e-13 in every entry.
    """

    __slots__ = ("_matrix", "num_qubits", "factor", "spectrum")

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
        self._matrix = m
        self.factor = None
        self.spectrum = None
        if check_psd:
            certified = _certified_factor(m)
            if certified is not None:
                self.factor, self.spectrum = certified
                return
            singles, stacks = popcount_blocks(m, holds_popcount(m))
            vals = np.sort(np.concatenate([singles, *(hermitian_eigenvalues(s).reshape(-1)
                                                      for s in stacks)]))
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
        The 2^n x 2^n matrix is formed on the first read of `matrix`.
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
        self._matrix = None
        self.num_qubits = num_qubits
        self.factor = v
        self.spectrum = None
        return self

    @property
    def matrix(self) -> np.ndarray:
        """The 2^n x 2^n density matrix; V V^dagger is formed once, on first read."""
        if self._matrix is None:
            v = self.factor
            self._matrix = v @ v.conj().T
        return self._matrix

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

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
    v = _pivoted_cholesky(m, r)
    if v is None:
        return None
    gap = v @ v.conj().T
    gap -= m
    return v if np.abs(gap).max() <= FACTOR_ATOL else None


def _certified_factor(m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(V, ascending spectrum) for a numerically low-rank m, certified
    without an eigensolve of m, or None.

    V is m's diagonally pivoted Cholesky factor, stopped as soon as the
    residual diagonal sums to at most SUPPORT_CUTOFF, within floor(sqrt(d))
    columns (the rank at which `_low_rank_factor` still factors).  It is
    kept only if S = m - V V^dagger has sqrt(d) ||S||_F <= SUPPORT_CUTOFF
    and max |S| <= FACTOR_ATOL.  Then ||S||_1 <= sqrt(d) ||S||_F bounds the
    trace-norm distance to the positive V V^dagger by SUPPORT_CUTOFF, the
    budget `_low_rank_factor` allows for the eigenvalues it drops, and
    lambda_min(m) >= -SUPPORT_CUTOFF.  The spectrum is that of the r x r
    Gram matrix V^dagger V, which V V^dagger shares, padded with d - r zeros.
    """
    d = m.shape[0]
    v = _pivoted_cholesky(m, math.isqrt(d), SUPPORT_CUTOFF)
    if v is None or np.trace(m).real - np.vdot(v, v).real > SUPPORT_CUTOFF:
        return None  # the residual carries more than the budget: m is not of low rank
    gap = v @ v.conj().T
    gap -= m
    if math.sqrt(d) * float(np.linalg.norm(gap)) > SUPPORT_CUTOFF or np.abs(gap).max() > FACTOR_ATOL:
        return None
    gram = hermitian_eigenvalues(v.conj().T @ v)
    return v, np.sort(np.concatenate([np.zeros(d - v.shape[1]), gram]))


def _pivoted_cholesky(m: np.ndarray, steps: int, stop: float = -math.inf) -> np.ndarray | None:
    """The first `steps` columns V of m's diagonally pivoted Cholesky
    factor, or fewer once the trace of m - V V^dagger is at most `stop`;
    None if a pivot is not positive."""
    residual = m.diagonal().real.copy()  # diagonal of m - V V^dagger so far
    v = np.zeros((m.shape[0], steps), dtype=m.dtype)
    k = 0
    while k < steps and residual.sum() > stop:
        p = int(np.argmax(residual))
        if not residual[p] > 0.0:
            return None
        v[:, k] = (m[:, p] - v[:, :k] @ v[p, :k].conj()) / math.sqrt(residual[p])
        residual -= np.abs(v[:, k]) ** 2
        k += 1
    return np.ascontiguousarray(v[:, :k])


# Entries of a d x d matrix gathered at a time where a second d x d array
# is not to be made.
BLOCK_ENTRIES = 1 << 16


@functools.lru_cache(maxsize=None)
def _popcount_sectors(num_qubits: int) -> tuple[np.ndarray, ...]:
    """The basis indices of each popcount, by ascending popcount; the
    indices of a sector ascend, and sector 0 is index 0 alone."""
    index = np.arange(1 << num_qubits)
    label = sum((index >> q) & 1 for q in range(num_qubits))
    order = np.argsort(label, kind="stable")
    return tuple(np.split(order, np.flatnonzero(np.diff(label[order])) + 1))


@functools.lru_cache(maxsize=None)
def _sector_stacks(num_qubits: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """(the indices of the 1 x 1 popcount sectors, one (s, c) array per
    size c > 1 holding the indices of the s sectors of that size)."""
    by_size: dict[int, list[np.ndarray]] = {}
    for idx in _popcount_sectors(num_qubits):
        by_size.setdefault(idx.size, []).append(idx)
    singles = np.concatenate(by_size.pop(1))
    return singles, tuple(np.stack(group) for group in by_size.values())


def holds_popcount(m: np.ndarray) -> bool:
    """Whether every entry of the 2^n x 2^n matrix `m` between basis states
    of different popcount (a spin ring's magnetization) is exactly 0.0.

    Only exact zeros count: there is no tolerance.  A partial trace sums
    entries between basis states whose traced qubits agree, so it keeps
    these zeros, and every reduced matrix of `m` holds the popcounts of its
    own local index apart (see `popcount_blocks`).  Rows are gathered a few
    of one sector at a time, so no second d x d array is made; sector 0 is
    row 0 alone, so a generic matrix is rejected in O(d).
    """
    rows = max(1, BLOCK_ENTRIES // m.shape[0])
    for idx in _popcount_sectors(m.shape[0].bit_length() - 1):
        for start in range(0, idx.size, rows):
            block = m[idx[start:start + rows]]
            block[:, idx] = 0
            if block.any():
                return False
    return True


def popcount_blocks(m: np.ndarray, split: bool) -> tuple[np.ndarray, list[np.ndarray]]:
    """The eigenvalue problems of a Hermitian 2^n x 2^n matrix: with `split`
    (the matrix holds the popcounts apart, see `holds_popcount`), the real
    diagonal entries of its 1 x 1 sectors, which are eigenvalues, and one
    stack (s, c, c) per size c > 1 of its s sectors of that size; without,
    m is the one problem."""
    if not split:
        return np.empty(0), [m]
    singles, stacks = _sector_stacks(m.shape[0].bit_length() - 1)
    return m[singles, singles].real, [m[idx[:, :, None], idx[:, None, :]] for idx in stacks]


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
