"""The multi-qubit state, register algebra, and the qs1 state-file format.

Conventions used throughout the package:

* Qubit 0 is the MOST significant bit of a computational-basis index, so for
  three qubits ``|101>`` is basis index 5 and its qubit 0 reads 1.
* Subsets of qubits are plain ``int`` bitmasks with bit ``i`` standing for
  qubit ``i``.  A mask is only meaningful together with the register size.

Every state, pure or mixed, is a `DensityOperator`.  It is held in one of
three forms, and forms its 2^n x 2^n `matrix` only when something reads it:

* a factor V with rho = V V^dagger (`from_factor`, ground states, pure
  states as their amplitude column, and mixed state files that
  `_certified_factor` certifies as of low rank);
* popcount blocks (`blocks`, laid out by `sector_views`): a state whose
  entries between basis states of different popcount (a spin ring's
  magnetization) are exactly 0.0 is the direct sum of one
  C(n, k) x C(n, k) block per popcount k, C(2n, n) entries in all, stored
  back to back in one flat array.  Blocks come from two places only: a
  ground-state factor whose columns each lie in one popcount sector gives
  them as V_k V_k^dagger (only the sectors that hold a column are formed),
  and a channel that keeps popcounts apart maps blocks to blocks
  (`apply_local_superoperators`, one scaling array per qubit, which a
  channel keeps when it is small);
* a dense matrix, which is the one-block case: every other matrix passed
  to the public constructor, and so every other mixed state file.

Validation happens once, at the boundary: the public constructor and
`read_qs1` check their input, while `partial_trace`, `tensor_product`,
`apply_local_unitary` and the channels, which keep Hermiticity and the
trace, build their output through the trusted `DensityOperator._trusted`.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import os
import re
from typing import Callable, NamedTuple, Sequence

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


class DensityOperator:
    """A density matrix on an n-qubit register.

    A real matrix is stored as float64 and any other as complex128, so real
    states (chain ground states and what the built-in channels make of them)
    are reduced and diagonalized in real arithmetic.

    The public constructor is the boundary: it checks Hermiticity (1e-10)
    and unit trace (1e-10).  Positivity is checked only when `check_psd=True`
    (used for untrusted input such as state files) because it needs an
    eigensolve.  Small negative eigenvalues from round-off are tolerated down
    to -1e-9 and are clamped where entropies are evaluated, never in storage.
    The maps that keep these properties (`partial_trace`, `tensor_product`,
    `apply_local_superoperators` and so the channels and local unitaries)
    build their output without checking it again.

    `factor` is None, or a 2^n x r matrix V with matrix = V V^dagger.
    `from_factor` keeps the V it is given, and forms `matrix` = V V^dagger
    only when `matrix` is first read (entropies, `ccm` and
    `multi_information` take V and never read it).

    The positivity check sets exactly one of `factor` and `spectrum`.  A
    numerically low-rank matrix whose pivoted Cholesky factor V passes
    `_certified_factor` is certified positive without an eigensolve and
    keeps V as `factor`; `matrix` stays the matrix passed in, within
    SUPPORT_CUTOFF of V V^dagger in trace norm.  Any other matrix is
    diagonalized whole, and `spectrum` holds its ascending eigenvalues.
    Without the check, `spectrum` is None.

    `blocks` is the popcount-block form (see `sector_views`) of a state
    made from a sector-aligned factor or by a map that keeps blocks, and
    None for any other state, which is the one-block case.  A state made
    from blocks forms `matrix` from them on its first read.
    """

    __slots__ = ("_matrix", "_blocks", "_charged", "num_qubits", "factor", "spectrum", "_qubit_symmetry",
                 "__weakref__")

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
        self._blocks = None
        # Whether the state has blocks: True, False, or None while a factor
        # has not been looked at (see `blocks`).
        self._charged = False
        self.factor = None
        self.spectrum = None
        self._qubit_symmetry = None  # found by `entropy.qubit_symmetry`, or given by a channel
        if check_psd:
            self.factor = _certified_factor(m)
            if self.factor is not None:
                return
            vals = hermitian_eigenvalues(m)
            lo = float(vals[0])
            if lo < PSD_EIG_FLOOR:
                raise InvariantViolation(f"minimum eigenvalue {lo!r} below {PSD_EIG_FLOOR}")
            self.spectrum = vals

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
        self = cls._trusted(num_qubits)
        self._charged = None
        self.factor = v
        return self

    @classmethod
    def _trusted(cls, num_qubits: int, *, matrix: np.ndarray | None = None,
                 blocks: np.ndarray | None = None) -> "DensityOperator":
        """The output of a map that keeps Hermiticity and the trace, applied
        to a valid state, given as a `matrix` (the one-block case) or as
        `blocks`: nothing is checked again."""
        self = cls.__new__(cls)
        self.num_qubits = num_qubits
        self._matrix = matrix
        self._blocks = blocks
        self._charged = blocks is not None
        self.factor = None
        self.spectrum = None
        self._qubit_symmetry = None
        return self

    @property
    def matrix(self) -> np.ndarray:
        """The 2^n x 2^n density matrix; formed once, on first read, from the
        factor (V V^dagger) or from the blocks."""
        if self._matrix is None:
            if self.factor is not None:
                v = self.factor
                self._matrix = v @ v.conj().T
            else:
                self._matrix = _matrix_from_blocks(self._blocks, self.num_qubits)
        return self._matrix

    @property
    def blocks(self) -> np.ndarray | None:
        """The popcount blocks of the state back to back (see `sector_views`),
        or None for the one-block case.

        A state made from a factor V forms them once, on first read, when
        every column of V lies in one popcount sector, as block
        k = V_k V_k^dagger over the columns and rows of sector k.
        """
        if self._charged is None:
            self._blocks = _blocks_from_factor(self.factor, self.num_qubits)
            self._charged = self._blocks is not None
        return self._blocks

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def __repr__(self) -> str:
        return f"DensityOperator(num_qubits={self.num_qubits})"


def _certified_factor(m: np.ndarray) -> np.ndarray | None:
    """V (d x r) with m = V V^dagger up to SUPPORT_CUTOFF in trace norm,
    certified without an eigensolve of m, or None.

    V is m's diagonally pivoted Cholesky factor, stopped as soon as the
    residual diagonal sums to at most SUPPORT_CUTOFF, within floor(sqrt(d))
    columns: past r^2 = d, subset entropies from V's Gram matrices cost
    about as much as the dense table.  It is kept only if S = m - V V^dagger
    has sqrt(d) ||S||_F <= SUPPORT_CUTOFF and max |S| <= FACTOR_ATOL.  Then
    ||S||_1 <= sqrt(d) ||S||_F bounds the trace-norm distance to the positive
    V V^dagger by SUPPORT_CUTOFF, so by the Fannes-Audenaert bound no subset
    entropy moves by more than about 3e-11 bits, and
    lambda_min(m) >= -SUPPORT_CUTOFF.
    """
    d = m.shape[0]
    residual = m.diagonal().real.copy()  # diagonal of m - V V^dagger so far
    v = np.zeros((d, math.isqrt(d)), dtype=m.dtype)
    k = 0
    while k < v.shape[1] and residual.sum() > SUPPORT_CUTOFF:
        p = int(np.argmax(residual))
        if not residual[p] > 0.0:
            return None
        v[:, k] = (m[:, p] - v[:, :k] @ v[p, :k].conj()) / math.sqrt(residual[p])
        residual -= np.abs(v[:, k]) ** 2
        k += 1
    v = np.ascontiguousarray(v[:, :k])
    if np.trace(m).real - np.vdot(v, v).real > SUPPORT_CUTOFF:
        return None  # the residual carries more than the budget: m is not of low rank
    gap = v @ v.conj().T
    gap -= m
    if math.sqrt(d) * float(np.linalg.norm(gap)) > SUPPORT_CUTOFF or np.abs(gap).max() > FACTOR_ATOL:
        return None
    return v


# Entries of a working piece: gathered at a time where a second full-size
# array is not to be made, waiting at most in the stacks of eigensolves of
# the entropy table, and held at most by the index arrays of the block
# layout that are kept for reuse (larger ones cost little beside the gathers
# they drive, and are made afresh).
BLOCK_ENTRIES = 1 << 16


class BlockLayout(NamedTuple):
    """Where each popcount block of an n-qubit state sits in its flat array."""

    sectors: tuple[np.ndarray, ...]  # basis indices of popcount k, ascending
    position: np.ndarray             # each basis index's place in its sector
    sizes: tuple[int, ...]           # C(n, k)
    offsets: tuple[int, ...]         # block k is flat[offsets[k]:offsets[k + 1]]
    diagonal: np.ndarray             # each basis index's diagonal entry in the flat array
    popcount: np.ndarray             # each basis index's popcount


@functools.lru_cache(maxsize=None)
def block_layout(num_qubits: int) -> BlockLayout:
    """The popcount blocks of an n-qubit state and their places in its flat
    block array (see `sector_views`).  The sectors ascend in popcount and
    hold ascending basis indices; sector 0 is index 0 alone."""
    index = np.arange(1 << num_qubits)
    label = sum((index >> q) & 1 for q in range(num_qubits))
    order = np.argsort(label, kind="stable")
    sectors = tuple(np.split(order, np.flatnonzero(np.diff(label[order])) + 1))
    position = np.empty(1 << num_qubits, dtype=np.intp)
    for idx in sectors:
        position[idx] = np.arange(idx.size)
    sizes = tuple(idx.size for idx in sectors)
    offsets = (0, *itertools.accumulate(c * c for c in sizes))
    diagonal, popcount = np.empty_like(position), np.empty_like(position)
    for k, idx in enumerate(sectors):
        diagonal[idx] = offsets[k] + np.arange(idx.size) * (idx.size + 1)
        popcount[idx] = k
    return BlockLayout(sectors, position, sizes, offsets, diagonal, popcount)


def cyclic_shift(states: np.ndarray, num_qubits: int) -> np.ndarray:
    """T: the cyclic shift of the register's qubits, qubit i to qubit i + 1,
    on basis indices (qubit i is bit n-1-i)."""
    return (states >> 1) | ((states & 1) << (num_qubits - 1))


@functools.lru_cache(maxsize=None)
def shift_orbits(num_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rep, shift, period) of the shift T on n-qubit basis indices, for
    every index s: rep[s] is the smallest index of s's orbit, s = T^shift[s]
    rep[s], and period[s] is the orbit's size.  Made once for each n and
    read-only."""
    n = num_qubits
    every = np.arange(1 << n)
    rep, shift, period = every, np.zeros(every.size, dtype=np.intp), np.zeros(every.size, dtype=np.intp)
    image = every
    for j in range(1, n + 1):  # image = T^j s; where it is smaller than rep, s = T^(n-j) image
        image = cyclic_shift(image, n)
        smaller = image < rep
        rep = np.where(smaller, image, rep)
        shift = np.where(smaller, n - j, shift)
        period = np.where((period == 0) & (image == every), j, period)
    for a in (rep, shift, period):
        a.flags.writeable = False
    return rep, shift, period


def momentum_fits(momenta: np.ndarray, periods: np.ndarray, order: int) -> np.ndarray:
    """fits[i, j]: whether the orbit of period periods[j] under a shift of
    order `order` holds a state of momentum k = 2 pi momenta[i] / order,
    that is m p = 0 mod order.  (Otherwise sum_{l < p} e^{-ikl} T^l |r>,
    r the orbit's representative, is 0.)"""
    return np.multiply.outer(momenta, periods) % order == 0


def sector_views(blocks: np.ndarray, num_qubits: int) -> list[np.ndarray]:
    """The popcount blocks of an n-qubit state as C(n, k) x C(n, k) views,
    k = 0..n, into its flat block array.

    Block k holds the matrix entries between the basis states of popcount k,
    rows and columns in ascending basis index; the flat array holds block 0,
    block 1, ... back to back, each row-major: C(2n, n) entries in all.
    """
    lay = block_layout(num_qubits)
    return [blocks[lay.offsets[k]:lay.offsets[k + 1]].reshape(c, c) for k, c in enumerate(lay.sizes)]


def _entries(lay: BlockLayout, parts: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """Flat positions of the entries of block k in `rows` x `rows`, row-major,
    for each (k, rows) of `parts` in turn, in one array."""
    out = np.empty(sum(rows.size ** 2 for _, rows in parts), dtype=np.intp)
    start = 0
    for k, rows in parts:
        c = rows.size
        np.add((lay.offsets[k] + rows * lay.sizes[k])[:, None], rows, out=out[start:start + c * c].reshape(c, c))
        start += c * c
    return out


def _kept_when_small(make):
    """`make`, with each result kept for reuse when its index arrays hold at
    most BLOCK_ENTRIES entries in all."""
    kept = {}

    @functools.wraps(make)
    def get(*key):
        out = kept.get(key)
        if out is None:
            out = make(*key)
            if sum(a.size for a in out) <= BLOCK_ENTRIES:
                kept[key] = out
        return out

    return get


@_kept_when_small
def trace_entries(num_qubits: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(zero, one): the flat block array of an n-qubit state with qubit q
    traced out is blocks[zero] + blocks[one].

    Block j of the (n-1)-qubit result sums the entries of block j whose
    rows and columns have qubit q at 0 and those of block j + 1 whose rows
    and columns have it at 1; dropping qubit q keeps the order of either set.
    """
    lay = block_layout(num_qubits)
    bit = 1 << (num_qubits - 1 - q)
    zero = _entries(lay, [(j, np.flatnonzero((lay.sectors[j] & bit) == 0)) for j in range(num_qubits)])
    one = _entries(lay, [(j + 1, np.flatnonzero(lay.sectors[j + 1] & bit)) for j in range(num_qubits)])
    return zero, one


@_kept_when_small
def permuted_entries(num_qubits: int, perm: tuple[int, ...]) -> tuple[np.ndarray]:
    """(where,): the flat block array of an n-qubit state with its qubits
    permuted by `perm` (an axis order, as for `np.transpose`) is blocks[where]."""
    lay = block_layout(num_qubits)
    index = np.arange(1 << num_qubits).reshape((2,) * num_qubits).transpose(perm).reshape(-1)
    return (_entries(lay, [(k, lay.position[index[idx]]) for k, idx in enumerate(lay.sectors)]),)


@_kept_when_small
def _qubit_codes(num_qubits: int, q: int) -> tuple[np.ndarray]:
    """(code,) for qubit q of the flat block array: code is 2 r + c for each
    entry, r and c being qubit q of its row and its column."""
    lay = block_layout(num_qubits)
    bit = 1 << (num_qubits - 1 - q)
    code = np.empty(lay.offsets[-1], dtype=np.int8)
    for k, idx in enumerate(lay.sectors):
        b = ((idx & bit) != 0).astype(np.int8)
        np.add(2 * b[:, None], b, out=code[lay.offsets[k]:lay.offsets[k + 1]].reshape(idx.size, idx.size))
    return (code,)


def factor_sectors(v: np.ndarray, num_qubits: int) -> np.ndarray | None:
    """The popcount sector of each column of a 2^n x r factor V, read from
    the popcounts of its nonzero rows (n + 1 for a column that is 0.0), or
    None if a column reaches into two sectors.  O(2^n r)."""
    label = block_layout(num_qubits).popcount[:, None]
    nonzero = v != 0
    lowest = np.where(nonzero, label, num_qubits + 1).min(axis=0)
    if np.any(nonzero & (label != lowest)):
        return None
    return lowest


def _blocks_from_factor(v: np.ndarray, num_qubits: int) -> np.ndarray | None:
    """The blocks V_k V_k^dagger, V_k the rows of sector k of the columns of
    V that lie in it, or None if a column reaches into two sectors."""
    lowest = factor_sectors(v, num_qubits)
    if lowest is None:
        return None
    lay = block_layout(num_qubits)
    out = np.zeros(lay.offsets[-1], dtype=v.dtype)
    blocks = sector_views(out, num_qubits)
    for k in np.unique(lowest[lowest <= num_qubits]).tolist():  # the sectors that hold a column
        vk = v[np.ix_(lay.sectors[k], np.flatnonzero(lowest == k))]
        blocks[k][...] = vk @ vk.conj().T
    return out


def _matrix_from_blocks(blocks: np.ndarray, num_qubits: int) -> np.ndarray:
    d = 1 << num_qubits
    m = np.zeros((d, d), dtype=blocks.dtype)
    for idx, block in zip(block_layout(num_qubits).sectors, sector_views(blocks, num_qubits)):
        m[np.ix_(idx, idx)] = block
    return m


# Superoperator entries S[(r', c'), (r, c)], at 2 r' + c' and 2 r + c, that
# move a qubit's row and column popcounts apart: r' - c' != r - c.
_MIXES_POPCOUNT = np.array([[(o >> 1) - (o & 1) != (i >> 1) - (i & 1) for i in range(4)] for o in range(4)])


def _qubit_scale(s: np.ndarray, num_qubits: int, q: int) -> np.ndarray:
    """The array by which the 4x4 superoperator S on qubit q scales the
    flat block array of an n-qubit state: S's diagonal entry for each
    entry's code (`_qubit_codes`)."""
    return s.diagonal().take(_qubit_codes(num_qubits, q)[0])


def apply_local_superoperators(rho: DensityOperator, supers: list[tuple[int, np.ndarray]],
                               scales: Callable[[int], np.ndarray | None] | None = None) -> DensityOperator:
    """`rho` after each (qubit, 4x4 superoperator S) of `supers` in turn, S
    acting on its qubit's row and column legs (see `linalg.superoperator`).

    A state with blocks stays in block form when no S moves a qubit's row
    and column popcounts apart: each S then scales the entries of every
    block by its diagonal, and its (|0><0|, |1><1|) entries move entries
    between blocks k + 1 and k (amplitude damping feeds block k + 1 into
    block k).  Any other state or S goes through `apply_superoperators` on
    the matrix, and the result is the one-block case.  S = sum_k E_k (x)
    E_k^* maps Hermitian matrices to Hermitian ones, and the channels and
    unitaries that call this keep the trace, so the output is not checked
    again.

    The scaling multiplies the block array by `_qubit_scale` of each (q, S).
    `scales(q)`, when given, returns that array for qubit q, made earlier
    (a channel keeps its own, since it applies one S to every qubit), or
    None; an array not given is gathered a piece at a time.
    """
    n = rho.num_qubits
    blocks = rho.blocks
    distinct = {id(s): s for _, s in supers}.values()
    if blocks is None or any(s[_MIXES_POPCOUNT].any() for s in distinct):
        return DensityOperator._trusted(n, matrix=apply_superoperators(rho.matrix, n, supers))
    out = blocks.astype(np.result_type(blocks, *distinct))
    for q, s in supers:
        down = up = None
        if s[0, 3] or s[3, 0]:
            # The entries of blocks 0..n-1 with r = c = 0 and, in the same
            # order, those of the next block with r = c = 1: the pairs a
            # trace sums.  Either feed is read before the scaling below
            # changes its source.
            low, high = trace_entries(n, q)
            down = out.take(high) if s[0, 3] else None
            up = out.take(low) if s[3, 0] else None
        scale = None if scales is None else scales(q)
        if scale is not None:
            out *= scale
        else:
            (code,) = _qubit_codes(n, q)
            diagonal = s.diagonal().copy()  # contiguous: gathers from it are faster
            for start in range(0, out.size, BLOCK_ENTRIES):
                out[start:start + BLOCK_ENTRIES] *= diagonal.take(code[start:start + BLOCK_ENTRIES])
        if down is not None:
            down *= s[0, 3]
            out[low] += down
        if up is not None:
            up *= s[3, 0]
            out[high] += up
    return DensityOperator._trusted(n, blocks=out)


def tensor_product(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Joint state with `a`'s qubits in the more significant positions."""
    return DensityOperator._trusted(a.num_qubits + b.num_qubits, matrix=np.kron(a.matrix, b.matrix))


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
    return DensityOperator._trusted(len(kept), matrix=reduced.reshape(d, d))


def apply_local_unitary(rho: DensityOperator, factors: Sequence[np.ndarray]) -> DensityOperator:
    """Conjugate by U_0 x U_1 x ... x U_{n-1}, one 2x2 factor per qubit.

    Each factor acts as the superoperator U (x) U^* on its qubit's row and
    column legs, so the full product operator is never built; diagonal
    factors keep a state's blocks.
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
    return apply_local_superoperators(rho, [(q, superoperator([m])) for q, m in enumerate(mats)])


def make_ghz(num_qubits: int) -> DensityOperator:
    """(|00...0> + |11...1>)/sqrt(2), as a one-column complex factor."""
    if num_qubits < 1:
        raise OutOfRange("need at least one qubit")
    amp = np.zeros(1 << num_qubits, dtype=complex)
    amp[0] = amp[-1] = math.sqrt(0.5)
    return DensityOperator.from_factor(amp.reshape(-1, 1))


def make_state_from_kets(terms: Sequence[tuple[int, complex]], num_qubits: int) -> DensityOperator:
    """Normalized superposition of computational-basis kets, as a one-column factor.

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
    return DensityOperator.from_factor((amp / norm).reshape(-1, 1))


# ---------------------------------------------------------------------------
# qs1 state files
#
# Line 1:   "qs1 pure <n>"  or  "qs1 mixed <n>"
# Then:     2^n lines "<re> <im>" for pure states, or 4^n lines giving the
#           density matrix row by row.


def write_qs1(path: str | os.PathLike, state: DensityOperator) -> None:
    """Write a pure file for a one-column factor of squared norm 1 within NORM_SQ_ATOL, else a mixed file."""
    v = state.factor
    col = v[:, 0].astype(complex, copy=False) if v is not None and v.shape[1] == 1 else None
    if col is not None and abs(float(np.vdot(col, col).real) - 1.0) <= NORM_SQ_ATOL:  # as read_qs1 sums
        kind, values = "pure", col
    else:
        kind, values = "mixed", state.matrix.reshape(-1)
    lines = [f"qs1 {kind} {state.num_qubits}"]
    lines.extend(map("{!r} {!r}".format, values.real.tolist(), values.imag.tolist()))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


# Bytes the vectorized body parse accepts.  A body with any other byte (a tab,
# 'inf', '_', ...) goes through the line loop, whose `float` accepts more.
_ENTRY_BYTES = b"0123456789.eE+- \n"


def read_qs1(path: str | os.PathLike) -> DensityOperator:
    """Parse a qs1 state file into a validated DensityOperator; a pure file
    (squared norm 1 within NORM_SQ_ATOL) gives a one-column complex factor."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if b"\r" in raw:  # '\r\n' and a lone '\r' end a line, as '\n' does
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not raw.isascii():
        bad = re.search(rb"[^\x00-\x7f]", raw).start()
        line = raw.count(b"\n", 0, bad) + 1
        raise ParseError(f"line {line}: non-ASCII byte {raw[bad]:#04x}")
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
        if header[1] == "mixed":
            return DensityOperator(values.reshape(1 << n, 1 << n), check_psd=True)
        norm_sq = float(np.vdot(values, values).real)
        if abs(norm_sq - 1.0) > NORM_SQ_ATOL:
            raise InvariantViolation(f"squared norm {norm_sq!r} differs from 1 by more than {NORM_SQ_ATOL}")
        return DensityOperator.from_factor(values.reshape(-1, 1))
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
