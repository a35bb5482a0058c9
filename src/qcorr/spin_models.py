"""Periodic spin-1/2 chains and ground-state extraction.

The generic chain Hamiltonian is

    H = - sum_{i=0}^{N-1} ( jx X_i X_{i+1} + jy Y_i Y_{i+1} + jz Z_i Z_{i+1} + h Z_i )

with site N identified with site 0.  Note that for N = 2 the periodic sum
visits the single physical bond twice, once per direction; this is kept
literal rather than special-cased.

Concrete chains:

* XXZ:            jx = jy = 1/2, jz = delta/2, h = 0
* transverse Ising: jx = 1, jy = jz = 0, h = lambda
* double XXZ:     two decoupled XXZ rings side by side on one register, the
                  delta ring on the more significant qubits, the lambda ring
                  on the rest

A Hamiltonian is made as `HamiltonianTerms`, its nonzero entries listed as
(row, column, value) triples, at most N + 1 per basis state (`chain_terms`).
The `build_*` functions scatter those terms into a dense matrix.
`ground_state` and `ground_gap` take terms, or a dense matrix that they turn
into terms, and build one dense block per connected component of the terms'
pattern, so no 2^N x 2^N matrix is formed on the way to a ground state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, OutOfRange, TooLarge
from .linalg import checked_hermitian, hermitian_eigensystem, hermitian_eigenvalues, real_or_complex
from .states import DensityOperator

MAX_CHAIN_SPINS = 14
MAX_DOUBLE_CHAIN_SPINS = 6  # per ring; the joint register holds twice this
# Eigenvalues within this fraction of the spectral span of the minimum form
# the lowest level.
DEGENERACY_RTOL = 1e-9


@dataclass(frozen=True)
class SpinChainSpec:
    """Couplings of one periodic chain."""

    num_spins: int
    jx: float = 0.0
    jy: float = 0.0
    jz: float = 0.0
    h: float = 0.0

    def __post_init__(self):
        if self.num_spins < 2:
            raise OutOfRange(f"a chain needs at least 2 spins, got {self.num_spins}")
        for name in ("jx", "jy", "jz", "h"):
            if not math.isfinite(getattr(self, name)):
                raise OutOfRange(f"coupling {name} must be finite")


class GroundStateMode(enum.Enum):
    SUBSPACE_MIXTURE = "subspace-mixture"
    FIRST_VECTOR = "first-vector"


@dataclass(frozen=True)
class GroundStatePolicy:
    """How to turn a (possibly degenerate) lowest eigenspace into a state.

    `subspace-mixture` returns the normalized projector onto every eigenvalue
    within `DEGENERACY_RTOL * (spectral span)` of the minimum; `first-vector`
    keeps one eigenvector of that level, chosen by block order (see
    `ground_state`), with its global phase fixed by making the
    largest-magnitude amplitude real and positive.
    """

    mode: GroundStateMode = GroundStateMode.SUBSPACE_MIXTURE


class HamiltonianTerms(NamedTuple):
    """A dim x dim matrix as its nonzero entries H[rows[k], cols[k]] = values[k],
    one term per entry, in row-major order."""

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


def xxz_ring(num_spins: int, delta: float) -> SpinChainSpec:
    return SpinChainSpec(num_spins, jx=0.5, jy=0.5, jz=delta / 2.0)


def ising_ring(num_spins: int, lam: float) -> SpinChainSpec:
    """Transverse-field Ising ring with exchange 1 and field `lam`."""
    return SpinChainSpec(num_spins, jx=1.0, h=lam)


def chain_terms(*rings: SpinChainSpec) -> HamiltonianTerms:
    """Terms of decoupled rings side by side on one register, the first ring
    on the most significant qubits.

    Built from bit operations on the basis indices (register site i is bit
    n-1-i, and Z|0> = |0>).  The ZZ and field terms are diagonal; XX + YY
    flips both spins of a bond with amplitude -jx + jy z_i z_j, which vanishes
    on aligned pairs when jx = jy.  An entry that two bonds reach (both bonds
    of a 2-spin ring flip the same pair) is their sum, added in bond order,
    and an entry that sums to exactly zero is left out, so the pattern of an
    XXZ ring holds its magnetization sectors apart.  Every value is real.
    """
    n = sum(ring.num_spins for ring in rings)
    if n > MAX_CHAIN_SPINS:
        raise TooLarge(f"chains support at most {MAX_CHAIN_SPINS} spins, got {n}")
    dim = 1 << n
    basis = np.arange(dim)
    diag = np.zeros(dim)
    flips, amplitudes = [], []
    first = 0
    for ring in rings:
        shifts = n - 1 - np.arange(first, first + ring.num_spins)
        first += ring.num_spins
        z = 1 - 2 * ((basis[:, None] >> shifts) & 1)   # z[s, i]: Z eigenvalue of site i
        zz = z * np.roll(z, -1, axis=1)                 # z_i z_{i+1} on bond i
        diag += -(ring.jz * zz.sum(axis=1) + ring.h * z.sum(axis=1))
        if ring.jx != 0.0 or ring.jy != 0.0:
            flips.append((1 << shifts) | (1 << np.roll(shifts, -1)))
            amplitudes.append(-ring.jx + ring.jy * zz)
    rows, cols, values = [basis], [basis], [diag]
    if flips:
        masks = np.concatenate(flips)
        rows.append((basis[:, None] ^ masks).reshape(-1))  # term (s, bond) flips bond in s
        cols.append(np.repeat(basis, masks.size))
        values.append(np.hstack(amplitudes).reshape(-1))
    keys, where = np.unique(np.concatenate(rows) * dim + np.concatenate(cols), return_inverse=True)
    sums = np.zeros(keys.size)
    np.add.at(sums, where, np.concatenate(values))  # in term order, as a dense add.at would
    kept = sums != 0.0
    keys = keys[kept]
    return HamiltonianTerms(dim, keys >> n, keys & (dim - 1), sums[kept])


def _dense(terms: HamiltonianTerms) -> np.ndarray:
    matrix = np.zeros((terms.dim, terms.dim), dtype=terms.values.dtype)
    matrix[terms.rows, terms.cols] = terms.values
    return matrix


def build_hamiltonian(spec: SpinChainSpec) -> np.ndarray:
    """Dense real 2^N x 2^N matrix of the chain described by `spec`: the
    terms of `chain_terms(spec)` scattered into zeros, as float64."""
    return _dense(chain_terms(spec))


def build_xxz(num_spins: int, delta: float) -> np.ndarray:
    return build_hamiltonian(xxz_ring(num_spins, delta))


def build_ising(num_spins: int, lam: float) -> np.ndarray:
    """Transverse-field Ising ring with exchange 1 and field `lam`."""
    return build_hamiltonian(ising_ring(num_spins, lam))


def build_double_xxz(spins_per_chain: int, delta: float, lam: float) -> np.ndarray:
    """Two decoupled XXZ rings on one register, equal to H(delta) x I + I x H(lam):
    the terms of `chain_terms` for the two rings, scattered into zeros."""
    if spins_per_chain > MAX_DOUBLE_CHAIN_SPINS:
        raise TooLarge(f"double chains support at most {MAX_DOUBLE_CHAIN_SPINS} spins per ring")
    return _dense(chain_terms(xxz_ring(spins_per_chain, delta), xxz_ring(spins_per_chain, lam)))


def _as_terms(hamiltonian: HamiltonianTerms | np.ndarray) -> HamiltonianTerms:
    """Terms as given, or the nonzero entries of a dense square matrix."""
    if isinstance(hamiltonian, HamiltonianTerms):
        return hamiltonian
    h = real_or_complex(hamiltonian)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {h.shape}")
    rows, cols = np.nonzero(h)
    return HamiltonianTerms(h.shape[0], rows, cols, h[rows, cols])


def _blocks(terms: HamiltonianTerms) -> list[tuple[np.ndarray, HamiltonianTerms]]:
    """(basis indices, the block's terms in its own indices) per connected
    component of the pattern of the terms and their transposes.  The indices
    of a block ascend, and blocks are ordered by smallest index.

    The matrix is block diagonal on these index sets: they are the
    magnetization sectors of an XXZ ring, the parity sectors of an Ising
    ring, and so on, found from the pattern alone.  A term whose transpose
    is missing still joins both its indices into one block, where the
    block's Hermiticity check catches it.
    """
    dim, rows, cols, values = terms
    every = np.arange(dim)
    source = np.concatenate([rows, cols, every])  # every index links to itself
    order = np.argsort(source, kind="stable")
    target = np.concatenate([cols, rows, every])[order]
    row_starts = np.searchsorted(source[order], every)
    labels = every
    while True:  # each index takes its neighbours' smallest label, then jumps pointers
        new = np.minimum.reduceat(labels[target], row_starts)
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    order = np.argsort(labels, kind="stable")
    is_start = np.diff(labels[order], prepend=-1) != 0
    starts = np.flatnonzero(is_start)
    number = np.cumsum(is_start) - 1  # block number at each sorted position
    block_of = np.empty(dim, dtype=np.intp)
    block_of[order] = number
    local = np.empty(dim, dtype=np.intp)  # position of each index within its block
    local[order] = every - starts[number]
    term_block = block_of[rows]
    by_block = np.argsort(term_block, kind="stable")
    groups = np.split(by_block, np.searchsorted(term_block[by_block], np.arange(1, starts.size)))
    return [(idx, HamiltonianTerms(idx.size, local[rows[t]], local[cols[t]], values[t]))
            for idx, t in zip(np.split(order, starts[1:]), groups)]


def _block_spectra(terms: HamiltonianTerms):
    """(blocks as `_blocks` gives them, ascending eigenvalues of each block).

    Every term lies inside a block, so checking each block for Hermiticity
    checks the whole matrix.  Only one dense block is alive at a time.
    """
    blocks = _blocks(terms)
    return blocks, [hermitian_eigenvalues(checked_hermitian(_dense(b))) for _, b in blocks]


def ground_state(hamiltonian: HamiltonianTerms | np.ndarray,
                 policy: GroundStatePolicy | None = None) -> DensityOperator:
    """Ground state of a Hermitian matrix, given as terms or dense, under the
    given degeneracy policy.

    Every block (see `_blocks`) is built dense from its own terms and gets
    its eigenvalues.  The lowest level is every eigenvalue within
    `DEGENERACY_RTOL` times the whole spectral span of the global minimum,
    whichever blocks it lies in; only a block whose lowest eigenvalue is on
    that level is built again for its eigenvectors, of which it keeps as
    many as it has eigenvalues on the level.  `first-vector` takes the
    lowest eigenvector of the first such block, by smallest basis index.
    The state carries its lowest-level eigenvectors, embedded in the full
    basis, as its factor.
    """
    if policy is None:
        policy = GroundStatePolicy()
    terms = _as_terms(hamiltonian)
    blocks, spectra = _block_spectra(terms)
    lowest = min(vals[0] for vals in spectra)
    span = max(vals[-1] for vals in spectra) - lowest
    top = lowest + DEGENERACY_RTOL * span
    level = [(idx, block, int(np.count_nonzero(vals <= top)))
             for (idx, block), vals in zip(blocks, spectra) if vals[0] <= top]
    if policy.mode is GroundStateMode.FIRST_VECTOR:
        idx, block, _ = level[0]
        v = np.zeros(terms.dim, dtype=terms.values.dtype)
        v[idx] = hermitian_eigensystem(_dense(block))[1][:, 0]
        k = int(np.argmax(np.abs(v)))
        phase = v[k] / abs(v[k])
        v = v * phase.conjugate()
        return DensityOperator.from_factor(v.reshape(-1, 1))
    width = sum(k for *_, k in level)
    factor = np.zeros((terms.dim, width), dtype=terms.values.dtype)
    column = 0
    for idx, block, k in level:
        factor[idx, column:column + k] = hermitian_eigensystem(_dense(block))[1][:, :k]
        column += k
    return DensityOperator.from_factor(factor / math.sqrt(width))


def ground_gap(hamiltonian: HamiltonianTerms | np.ndarray) -> float:
    """Gap between the lowest eigenvalue of a Hermitian matrix, given as terms
    or dense, and the first one above its degeneracy window; +inf if no level
    lies above the window.  Every block gets its eigenvalues only."""
    vals = np.sort(np.concatenate(_block_spectra(_as_terms(hamiltonian))[1]))
    span = float(vals[-1] - vals[0])
    above = vals[vals > vals[0] + DEGENERACY_RTOL * span]
    if above.size == 0:
        return math.inf
    return float(above[0] - vals[0])
