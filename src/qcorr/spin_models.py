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
(row, column, value) triples, at most N + 1 per basis state (`chain_terms`);
this is the one form the library takes.  `ground_state` and `ground_gap`
split the terms into the connected components of their pattern (the
magnetization sectors of an XXZ ring, say).  When the terms are
invariant under the cyclic shift of the register's qubits and the shift maps
every component onto itself, each component is split further into momentum
blocks k = 2 pi m / N, built on the representatives of its shift orbits;
otherwise the trivial group leaves each component whole.  No 2^N x 2^N
matrix is formed on the way to a ground state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import OutOfRange, TooLarge
from .linalg import checked_hermitian, hermitian_eigensystem, hermitian_eigenvalues
from .states import DensityOperator

MAX_CHAIN_SPINS = 14
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
    """How to turn a (possibly degenerate) lowest eigenspace into a state.

    `subspace-mixture` returns the normalized projector onto every eigenvalue
    within `DEGENERACY_RTOL * (spectral span)` of the minimum; `first-vector`
    keeps one eigenvector of that level, chosen by block order (see
    `ground_state`).
    """

    SUBSPACE_MIXTURE = "subspace-mixture"
    FIRST_VECTOR = "first-vector"


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


class _Orbits(NamedTuple):
    """The shift orbits of a Hamiltonian's basis states and the terms that
    build its momentum blocks (see `_spectra`).

    `pattern` holds the blocks of `_blocks` and `roots` the order-th roots of
    unity e^{2 pi i q / order}.  State s is T^shift[s] applied to rep[s], the
    representative (smallest index) of its orbit, and period[s] is the
    orbit's size.  The representatives are ranked block by block, ascending
    within a block, and rank[r] is the rank of representative r.
    fits[m, j] says whether the representative of rank j is compatible with
    the momentum k = 2 pi m / order (m p = 0 mod order), and position[m, j]
    is then its number among the compatible representatives of its block.
    `links` are the terms whose column is a representative a, as (block,
    rank of a, rank of b, H[r, a] sqrt(p_a / p_b), l_r) with r = T^{l_r} b:
    the momentum blocks are sums of them.
    """

    pattern: list[tuple[np.ndarray, HamiltonianTerms]]
    roots: np.ndarray
    rep: np.ndarray
    shift: np.ndarray
    period: np.ndarray
    rank: np.ndarray
    fits: np.ndarray
    position: np.ndarray
    links: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class _Sector(NamedTuple):
    """The momentum block k = 2 pi m / order of pattern block `block`, on
    the representatives compatible with k, and its ascending eigenvalues."""

    block: int
    m: int
    values: np.ndarray


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


def _shift(states: np.ndarray, num_qubits: int) -> np.ndarray:
    """T: the cyclic shift of the register's qubits, site i to site i + 1,
    on basis indices (site i is bit n-1-i)."""
    return (states >> 1) | ((states & 1) << (num_qubits - 1))


def _trivial_group(dim: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """`_translations`' tables for the group of order 1: every state is its
    own orbit."""
    return 1, np.arange(dim), np.zeros(dim, dtype=np.intp), np.ones(dim, dtype=np.intp)


def _shift_invariant(terms: HamiltonianTerms, blocks: list[tuple[np.ndarray, HamiltonianTerms]]) -> bool:
    """Whether the register has at least 2 qubits, the terms are invariant
    under the shift T, entry for entry and value for value, and T maps every
    block onto itself."""
    dim, rows, cols, values = terms
    n = dim.bit_length() - 1
    if n < 2 or dim != 1 << n:
        return False
    moved = _shift(rows, n) * dim + _shift(cols, n)
    order = np.argsort(moved)
    # Terms list their keys ascending, so invariant terms move onto themselves.
    if not (np.array_equal(rows * dim + cols, moved[order]) and np.array_equal(values, values[order])):
        return False
    block_of = np.empty(dim, dtype=np.intp)
    for b, (idx, _) in enumerate(blocks):
        block_of[idx] = b
    return np.array_equal(block_of[_shift(np.arange(dim), n)], block_of)


def _translations(terms: HamiltonianTerms, blocks: list[tuple[np.ndarray, HamiltonianTerms]]
                  ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(order, rep, shift, period) of the cyclic group the terms are taken
    to commute with, for every basis index s: rep[s] is the smallest index
    of s's orbit, s = T^shift[s] rep[s], and period[s] is the orbit's size.

    The group is generated by the qubit shift T when `_shift_invariant`
    holds and every value is a normal float, and is otherwise the trivial
    group.  (The phases and orbit weights of the momentum blocks would round
    a subnormal value to a few bits, or to zero.)
    """
    normal = np.all(np.abs(terms.values) >= np.finfo(float).tiny)
    if not (normal and _shift_invariant(terms, blocks)):
        return _trivial_group(terms.dim)
    n = terms.dim.bit_length() - 1
    every = np.arange(terms.dim)
    rep, shift, period = every, np.zeros(terms.dim, dtype=np.intp), np.zeros(terms.dim, dtype=np.intp)
    image = every
    for j in range(1, n + 1):  # image = T^j s; where it is smaller than rep, s = T^(n-j) image
        image = _shift(image, n)
        smaller = image < rep
        rep = np.where(smaller, image, rep)
        shift = np.where(smaller, n - j, shift)
        period = np.where((period == 0) & (image == every), j, period)
    return n, rep, shift, period


def _momentum_blocks(orbits: _Orbits, parts: list[tuple[int, int]], size: int,
                     real: bool) -> np.ndarray:
    """H_k for the (pattern block, m) pairs `parts`, k = 2 pi m / order, on
    the representatives compatible with k, of which each part has `size`,
    stacked as (len(parts), size, size), real if `real`:

        H_k[b, a] = sum over terms H[r, a] e^{i k l_r} sqrt(p_a / p_b),  r = T^{l_r} b,

    with p the orbit sizes.  The basis vector of representative b is
    |b, k> = p_b^{-1/2} sum_{l < p_b} e^{-i k l} T^l |b>, so only the
    representatives with m p = 0 mod order take part.
    """
    block, cols, rows, amplitudes, turns = orbits.links
    blocks, momenta = (np.array(column)[:, None] for column in zip(*parts))
    wanted = np.zeros(len(orbits.pattern), dtype=bool)
    wanted[blocks] = True
    near = np.flatnonzero(wanted[block])  # the links of the parts' blocks
    part, link = np.nonzero((block[near] == blocks) & orbits.fits[momenta, cols[near]]
                            & orbits.fits[momenta, rows[near]])
    link = near[link]
    m = momenta[part, 0]
    phases = orbits.roots[m * turns[link] % orbits.roots.size]
    if real:  # the real part of a real root is exactly +-1
        phases = phases.real
    stack = np.zeros((len(parts), size, size), dtype=np.result_type(amplitudes, phases))
    entry = (part * size + orbits.position[m, rows[link]]) * size + orbits.position[m, cols[link]]
    np.add.at(stack.reshape(-1), entry, amplitudes[link] * phases)
    return stack


def _spectra(terms: HamiltonianTerms) -> tuple[_Orbits, list[_Sector]]:
    """(the orbit tables, the momentum blocks with their eigenvalues).

    Each block of `_blocks` is split by the momenta k = 2 pi m / order of
    the group `_translations` finds.  Real terms take m = 0 .. order // 2
    only: the block of -m is the complex conjugate of the block of m, with
    the same eigenvalues.  Momenta of one block that share their set of
    compatible representatives form a group, built real when the terms are
    and every e^{ik} in it is +-1.  All momentum blocks of equal size and
    type, from any pattern blocks (the S^z = +-j sectors of a ring have the
    same orbits), are built as one stack, checked for Hermiticity and given
    eigenvalues in one batched `eigvalsh`.  The trivial group leaves one
    momentum, m = 0, whose block is the pattern block itself.

    The terms are exactly invariant under T when the group is not trivial,
    so the matrix is unitarily the direct sum of its momentum blocks, and
    checking every block for Hermiticity checks the whole matrix (for real
    terms the unbuilt blocks are conjugates of built ones).
    """
    pattern = _blocks(terms)
    order, rep, shift, period = _translations(terms, pattern)
    dim, rows, cols, values = terms
    real = not np.iscomplexobj(values)
    momenta = np.arange(order // 2 + 1 if real else order)
    states = np.concatenate([idx for idx, _ in pattern])  # block by block
    block_of = np.empty(dim, dtype=np.intp)
    block_of[states] = np.repeat(np.arange(len(pattern)), [idx.size for idx, _ in pattern])
    reps = states[rep[states] == states]
    rank = np.empty(dim, dtype=np.intp)
    rank[reps] = np.arange(reps.size)
    first = np.searchsorted(block_of[reps], np.arange(len(pattern) + 1))
    fits = np.multiply.outer(momenta, period[reps]) % order == 0
    counts = np.cumsum(fits, axis=1)
    before = np.hstack([np.zeros((momenta.size, 1), dtype=counts.dtype), counts])[:, first]
    position = counts - 1 - before[:, block_of[reps]]
    linked = rep[cols] == cols
    rows, cols = rows[linked], cols[linked]
    links = (block_of[cols], rank[cols], rank[rep[rows]],
             values[linked] * np.sqrt(period[cols] / period[rows]), shift[rows])
    orbits = _Orbits(pattern, np.exp(2j * np.pi * np.arange(order) / order), rep, shift, period,
                     rank, fits, position, links)
    sizes = np.diff(before, axis=1).tolist()  # [m][block]
    labels, stacks = [], {}  # labels: (block, m) of each momentum block, in block order
    for number in range(len(pattern)):
        groups: dict[bytes, list[int]] = {}
        for m, fit in enumerate(fits[:, first[number]:first[number + 1]]):
            if sizes[m][number]:
                groups.setdefault(fit.tobytes(), []).append(m)
        for ms in groups.values():
            key = (sizes[ms[0]][number], real and all(2 * m % order == 0 for m in ms))
            stacks.setdefault(key, []).extend(range(len(labels), len(labels) + len(ms)))
            labels.extend((number, m) for m in ms)
    spectra = [None] * len(labels)
    for (size, flat), where in stacks.items():
        stack = _momentum_blocks(orbits, [labels[i] for i in where], size, flat)
        for i, vals in zip(where, hermitian_eigenvalues(checked_hermitian(stack))):
            spectra[i] = vals
    return orbits, [_Sector(*label, vals) for label, vals in zip(labels, spectra)]


def _checked_terms(hamiltonian: HamiltonianTerms) -> HamiltonianTerms:
    # `_spectra` unpacks its argument as (dim, rows, cols, values), which
    # the rows of a 4 x 4 matrix would silently satisfy.
    if not isinstance(hamiltonian, HamiltonianTerms):
        raise TypeError(f"expected HamiltonianTerms, got {type(hamiltonian).__name__}")
    return hamiltonian


def _embedded(orbits: _Orbits, sector: _Sector, count: int, real: bool, fix_phase: bool
              ) -> tuple[np.ndarray, np.ndarray]:
    """(basis indices, columns there) of the lowest `count` eigenvectors of
    `sector`'s momentum block, each v embedded as sum_b v[b] |b, k>.

    For real terms a block with 0 < k < pi stands for its complex-conjugate
    partner at -k too, and each vector enters as the two real columns
    sqrt(2) Re and sqrt(2) Im of its embedding, the Re columns first.  With
    `fix_phase` (for one vector) its largest-magnitude entry is first made
    real and positive, so that its sqrt(2) Re column does not depend on the
    phase the eigensolver returns.
    """
    roots, m = orbits.roots, sector.m
    pair = real and 0 < 2 * m < roots.size  # 0 < k < pi
    real_block = real and not pair
    stack = _momentum_blocks(orbits, [(sector.block, m)], sector.values.size, real_block)
    vecs = hermitian_eigensystem(stack[0])[1][:, :count]
    if fix_phase:
        j = int(np.argmax(np.abs(vecs[:, 0])))
        vecs = vecs * (vecs[j, 0] / abs(vecs[j, 0])).conjugate()
    idx = orbits.pattern[sector.block][0]
    ranks = orbits.rank[orbits.rep[idx]]  # each state's representative
    fits = orbits.fits[m, ranks]
    rows, ranks = idx[fits], ranks[fits]  # the block's states in these orbits
    amplitudes = (roots[-m * orbits.shift[rows] % roots.size]
                  / np.sqrt(orbits.period[rows]))[:, None]  # e^{-ikl} / sqrt(p)
    w = vecs[orbits.position[m, ranks]] * (amplitudes.real if real_block else amplitudes)
    if pair:
        w = math.sqrt(2.0) * np.hstack([w.real, w.imag])
    return rows, w


def ground_state(hamiltonian: HamiltonianTerms,
                 mode: GroundStateMode = GroundStateMode.SUBSPACE_MIXTURE) -> DensityOperator:
    """Ground state of a Hermitian matrix, given as terms, under the given
    degeneracy mode.

    Every momentum block (see `_spectra`) gets its eigenvalues.  The lowest
    level is every eigenvalue within `DEGENERACY_RTOL` times the whole
    spectral span of the global minimum, whichever blocks it lies in; only a
    momentum block whose lowest eigenvalue is on that level is built again
    for its eigenvectors (`_embedded`).  `subspace-mixture` keeps as many of
    them as the block has eigenvalues on the level, so a real Hamiltonian
    gives a real factor whose columns span the level, and the state carries
    them, scaled to unit trace, as its factor.

    `first-vector` takes one of these blocks: the first pattern block, by
    smallest basis index, whose lowest eigenvalue is on the level, and in it
    the smallest m.  Its lowest eigenvector, phase fixed, gives the first
    column of its embedding (for a paired block the sqrt(2) Re column), a
    pure state.  A level still degenerate inside that momentum block is
    decided by `eigh`.
    """
    terms = _checked_terms(hamiltonian)
    orbits, sectors = _spectra(terms)
    lowest = min(s.values[0] for s in sectors)
    span = max(s.values[-1] for s in sectors) - lowest
    top = lowest + DEGENERACY_RTOL * span
    level = [(s, int(np.count_nonzero(s.values <= top))) for s in sectors if s.values[0] <= top]
    real = not np.iscomplexobj(terms.values)
    if mode is GroundStateMode.FIRST_VECTOR:
        sector = min((s for s, _ in level), key=lambda s: (s.block, s.m))
        rows, w = _embedded(orbits, sector, 1, real, fix_phase=True)
        parts = [(rows, w[:, :1])]
    else:
        parts = [_embedded(orbits, s, k, real, fix_phase=False) for s, k in level]
    width = sum(w.shape[1] for _, w in parts)
    factor = np.zeros((terms.dim, width), dtype=terms.values.dtype)
    column = 0
    for rows, w in parts:
        factor[rows, column:column + w.shape[1]] = w
        column += w.shape[1]
    return DensityOperator.from_factor(factor / math.sqrt(width))


def ground_gap(hamiltonian: HamiltonianTerms) -> float:
    """Gap between the lowest eigenvalue of a Hermitian matrix, given as
    terms, and the first one above its degeneracy window; +inf if no level
    lies above the window.  Every momentum block gets its eigenvalues only
    (a block of real terms and its conjugate partner share them)."""
    vals = np.sort(np.concatenate([s.values for s in _spectra(_checked_terms(hamiltonian))[1]]))
    span = float(vals[-1] - vals[0])
    above = vals[vals > vals[0] + DEGENERACY_RTOL * span]
    if above.size == 0:
        return math.inf
    return float(above[0] - vals[0])
