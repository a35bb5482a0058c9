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
otherwise the trivial group leaves each component whole.  When the terms
are invariant under the spin flip X^N too, the flip maps each component
onto a twin (magnetization S^z onto -S^z) with the same spectrum, and only
one of each twin pair is diagonalized.  No 2^N x 2^N matrix is formed on
the way to a ground state.

The points of a sweep share their pattern: only the coupling values move.
So everything that depends on the pattern alone is built once and kept:
`chain_terms` keeps the bit tables of each ring layout, and the ground-state
path keeps, for the last pattern it saw, the components and their twins,
the shift orbits and where each term enters its momentum block, with which
phase.  Each call still forms the values, decides the group and the
sharing of twins, and builds, checks and diagonalizes the momentum blocks,
in the same order as a first call, so a kept structure changes no result,
bit for bit.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import OutOfRange, TooLarge
from .linalg import checked_hermitian, hermitian_eigensystem, hermitian_eigenvalues
from .states import DensityOperator, cyclic_shift, momentum_fits, shift_orbits

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


class _ChainLayout(NamedTuple):
    """What `chain_terms` takes from the ring sizes and from which rings flip
    alone, read-only.  `rings` holds, ring by ring, the row sums of z z and
    of z (see `chain_terms`) and the z z table itself if the ring flips.
    `keys` holds the distinct row * dim + column keys, ascending, and
    `where` each term's place among them, in term order: the diagonal, then
    each state's flips, bond by bond."""

    rings: list[tuple[np.ndarray, np.ndarray, np.ndarray | None]]
    keys: np.ndarray
    where: np.ndarray


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@functools.lru_cache(maxsize=4)  # an N = 14 layout holds 6 MB
def _chain_layout(rings: tuple[tuple[int, bool], ...]) -> _ChainLayout:
    """`chain_terms`' layout for rings of the given (size, flips) pairs,
    the first ring on the most significant qubits."""
    n = sum(size for size, _ in rings)
    dim = 1 << n
    basis = np.arange(dim)
    tables, flips = [], []
    first = 0
    for size, flip in rings:
        shifts = n - 1 - np.arange(first, first + size)
        first += size
        z = 1 - 2 * ((basis[:, None] >> shifts) & 1)   # z[s, i]: Z eigenvalue of site i
        zz = z * np.roll(z, -1, axis=1)                 # z_i z_{i+1} on bond i
        tables.append((zz.sum(axis=1), z.sum(axis=1), zz if flip else None))
        if flip:
            flips.append((1 << shifts) | (1 << np.roll(shifts, -1)))
    rows, cols = [basis], [basis]
    if flips:
        masks = np.concatenate(flips)
        rows.append((basis[:, None] ^ masks).reshape(-1))  # term (s, bond) flips bond in s
        cols.append(np.repeat(basis, masks.size))
    keys, where = np.unique(np.concatenate(rows) * dim + np.concatenate(cols), return_inverse=True)
    _read_only(*(a for ring in tables for a in ring if a is not None), keys, where)
    return _ChainLayout(tables, keys, where)


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

    The bit tables and the places of the terms depend only on the ring sizes
    and on which rings flip, and are built once for each (`_chain_layout`);
    the values, their sums and the zero filter are worked out on every call.
    """
    n = sum(ring.num_spins for ring in rings)
    if n > MAX_CHAIN_SPINS:
        raise TooLarge(f"chains support at most {MAX_CHAIN_SPINS} spins, got {n}")
    layout = _chain_layout(tuple((ring.num_spins, bool(ring.jx != 0.0 or ring.jy != 0.0))
                                 for ring in rings))
    dim = 1 << n
    diag = np.zeros(dim)
    amplitudes = []
    for ring, (zz_sum, z_sum, zz) in zip(rings, layout.rings):
        diag += -(ring.jz * zz_sum + ring.h * z_sum)
        if zz is not None:
            amplitudes.append(-ring.jx + ring.jy * zz)
    values = [diag]
    if amplitudes:
        values.append(np.hstack(amplitudes).reshape(-1))
    sums = np.zeros(layout.keys.size)
    np.add.at(sums, layout.where, np.concatenate(values))  # in term order, as a dense add.at would
    kept = sums != 0.0
    keys = layout.keys[kept]
    return HamiltonianTerms(dim, keys >> n, keys & (dim - 1), sums[kept])


@dataclass(eq=False)
class _Pattern:
    """What the ground-state path works out from the pattern (dim, rows,
    cols) of a Hamiltonian's terms alone (see `_pattern`), its arrays
    read-only.

    `parts` holds (basis indices, term indices) of each block of `_blocks`,
    and local[s] is the position of basis index s within its block.  When T
    maps the pattern onto itself and every block onto itself, term turn[k]
    is the one T takes to term k; otherwise `turn` is None.  When the spin
    flip X^N maps the pattern onto itself, it maps block b onto block
    twin[b]; otherwise `twin` is None.  `momenta` holds the tables of the
    last group `_spectra` used on this pattern.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    parts: list[tuple[np.ndarray, np.ndarray]]
    local: np.ndarray
    turn: np.ndarray | None
    twin: np.ndarray | None
    momenta: _Momenta | None = None


class _Assembly(NamedTuple):
    """How a stack of momentum blocks is summed from the links of
    `_Momenta`: link number link[j] enters the flat stack at entry[j] with
    the phase phases[j] (see `_momentum_blocks`)."""

    link: np.ndarray
    entry: np.ndarray
    phases: np.ndarray


class _Momenta(NamedTuple):
    """The momentum blocks of one pattern under one group, as far as they do
    not depend on the values of the terms (see `_spectra`), read-only.

    `group` is the (order, rep, shift, period) of `_translations` they were
    built for, `real` says whether the terms were real, and `shared`
    whether twin blocks share their spectra (see `_spectra`).  State s is
    T^shift[s] applied to rep[s], the representative (smallest index) of its
    orbit, and period[s] is the orbit's size.  `blocks` holds the basis
    indices of each pattern block and `roots` the order-th roots of unity
    e^{2 pi i q / order}.  The representatives are ranked block by block,
    ascending within a block, and rank[r] is the rank of representative r.
    fits[m, j] says whether the representative of rank j is compatible with
    the momentum k = 2 pi m / order (m p = 0 mod order), and position[m, j]
    is then its number among the compatible representatives of its block.
    The links are the terms whose column is a representative a, listed by
    `linked`; `links` gives each as (block, rank of a, rank of b, l_r) with
    r = T^{l_r} b, and `ratio` its sqrt(p_a / p_b).  `labels` holds
    (block, m) of every momentum block, block by block, and `stacks` the
    momentum blocks built and diagonalized together, as (size, numbers in
    `labels`, assembly); when `shared`, only those of the block of each
    twin pair with the smaller number are built, and `twins` holds (number
    of the built block, number of its twin) in `labels`.  `embeddings`
    gathers, on first use, each (block, m)'s one-block assembly and
    embedding (see `_embedded`).
    """

    group: tuple[int, np.ndarray, np.ndarray, np.ndarray]
    real: bool
    shared: bool
    blocks: list[np.ndarray]
    roots: np.ndarray
    rank: np.ndarray
    fits: np.ndarray
    position: np.ndarray
    linked: np.ndarray
    links: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ratio: np.ndarray
    labels: list[tuple[int, int]]
    stacks: list[tuple[int, list[int], _Assembly]]
    twins: list[tuple[int, int]]
    embeddings: dict[tuple[int, int], tuple[_Assembly, np.ndarray, np.ndarray, np.ndarray]]


class _Sector(NamedTuple):
    """The momentum block k = 2 pi m / order of pattern block `block`, on
    the representatives compatible with k, and its ascending eigenvalues."""

    block: int
    m: int
    values: np.ndarray


_kept: _Pattern | None = None  # the pattern `_pattern` saw last


def _pattern(terms: HamiltonianTerms) -> _Pattern:
    """The `_Pattern` of the terms: the kept one when its dim, rows and
    columns equal theirs entry for entry, otherwise a new one, kept in its
    place.  Only the last pattern is kept; the points of a sweep share it."""
    global _kept
    dim, rows, cols, _ = terms
    kept = _kept
    if kept is None or kept.dim != dim or not (np.array_equal(kept.rows, rows)
                                               and np.array_equal(kept.cols, cols)):
        kept = _kept = _new_pattern(dim, np.array(rows), np.array(cols))
    return kept


def _new_pattern(dim: int, rows: np.ndarray, cols: np.ndarray) -> _Pattern:
    """The connected components of the pattern and of its transpose (see
    `_blocks`), the terms' order under T when T keeps the pattern and each
    component, and the blocks' twins under X^N."""
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
    parts = list(zip(np.split(order, starts[1:]), groups))
    turn = None
    n = dim.bit_length() - 1
    if n >= 2 and dim == 1 << n:
        moved = cyclic_shift(rows, n) * dim + cyclic_shift(cols, n)
        moved_order = np.argsort(moved)
        # Terms list their keys ascending, so a pattern that T maps onto
        # itself lists its images in this order.
        if (np.array_equal(rows * dim + cols, moved[moved_order])
                and np.array_equal(block_of[cyclic_shift(every, n)], block_of)):
            turn = moved_order
    # X^N maps index s to dim - 1 - s, so it maps the ascending keys of a
    # pattern it keeps onto themselves in reverse: term k to term -1 - k.
    twin = None
    if np.array_equal(rows[::-1], dim - 1 - rows) and np.array_equal(cols[::-1], dim - 1 - cols):
        twin = block_of[dim - 1 - order[starts]]
    _read_only(rows, cols, local, *(a for part in parts for a in part),
               *(a for a in (turn, twin) if a is not None))
    return _Pattern(dim, rows, cols, parts, local, turn, twin)


def _blocks(terms: HamiltonianTerms) -> list[tuple[np.ndarray, HamiltonianTerms]]:
    """(basis indices, the block's terms in its own indices) per connected
    component of the pattern of the terms and their transposes.  The indices
    of a block ascend, and blocks are ordered by smallest index.

    The matrix is block diagonal on these index sets: they are the
    magnetization sectors of an XXZ ring, the parity sectors of an Ising
    ring, and so on, found from the pattern alone (`_pattern`).  A term
    whose transpose is missing still joins both its indices into one block,
    where the block's Hermiticity check catches it.
    """
    pattern = _pattern(terms)
    _, rows, cols, values = terms
    return [(idx, HamiltonianTerms(idx.size, pattern.local[rows[t]], pattern.local[cols[t]], values[t]))
            for idx, t in pattern.parts]


def _trivial_group(dim: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """`_translations`' tables for the group of order 1: every state is its
    own orbit."""
    return 1, np.arange(dim), np.zeros(dim, dtype=np.intp), np.ones(dim, dtype=np.intp)


def _shift_invariant(terms: HamiltonianTerms, pattern: _Pattern) -> bool:
    """Whether the register has at least 2 qubits, T maps the pattern of the
    terms and every one of its blocks onto itself (`_Pattern.turn`, kept
    with the pattern), and the values are invariant under T, value for
    value: only the values are compared on each call."""
    values = terms.values
    return pattern.turn is not None and np.array_equal(values, values[pattern.turn])


def _translations(terms: HamiltonianTerms, pattern: _Pattern
                  ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(order, rep, shift, period) of the cyclic group the terms are taken
    to commute with, for every basis index s: rep[s] is the smallest index
    of s's orbit, s = T^shift[s] rep[s], and period[s] is the orbit's size.
    `pattern` is the terms' `_Pattern`.

    The group is generated by the qubit shift T when `_shift_invariant`
    holds and every value is a normal float, and is otherwise the trivial
    group.  (The phases and orbit weights of the momentum blocks would round
    a subnormal value to a few bits, or to zero.)  Both conditions are
    checked on every call; the orbits of T depend on the register size
    alone and are built once for each (`states.shift_orbits`).
    """
    normal = np.all(np.abs(terms.values) >= np.finfo(float).tiny)
    if not (normal and _shift_invariant(terms, pattern)):
        return _trivial_group(terms.dim)
    n = terms.dim.bit_length() - 1
    return n, *shift_orbits(n)


def _momenta(pattern: _Pattern, group: tuple[int, np.ndarray, np.ndarray, np.ndarray],
             real: bool, shared: bool) -> _Momenta:
    """The `_Momenta` of the pattern under the group, for real terms if
    `real`, with twin blocks sharing their spectra if `shared` (see
    `_spectra`)."""
    order, rep, shift, period = group
    blocks = [idx for idx, _ in pattern.parts]
    momenta = np.arange(order // 2 + 1 if real else order)
    states = np.concatenate(blocks)  # block by block
    block_of = np.empty(pattern.dim, dtype=np.intp)
    block_of[states] = np.repeat(np.arange(len(blocks)), [idx.size for idx in blocks])
    reps = states[rep[states] == states]
    rank = np.empty(pattern.dim, dtype=np.intp)
    rank[reps] = np.arange(reps.size)
    first = np.searchsorted(block_of[reps], np.arange(len(blocks) + 1))
    fits = momentum_fits(momenta, period[reps], order)
    counts = np.cumsum(fits, axis=1)
    before = np.hstack([np.zeros((momenta.size, 1), dtype=counts.dtype), counts])[:, first]
    position = counts - 1 - before[:, block_of[reps]]
    linked = np.flatnonzero(rep[pattern.cols] == pattern.cols)
    rows, cols = pattern.rows[linked], pattern.cols[linked]
    links = (block_of[cols], rank[cols], rank[rep[rows]], shift[rows])
    tables = _Momenta(group, real, shared, blocks, np.exp(2j * np.pi * np.arange(order) / order), rank,
                      fits, position, linked, links, np.sqrt(period[cols] / period[rows]), [], [], [], {})
    sizes = np.diff(before, axis=1).tolist()  # [m][block]
    labels, stacks = tables.labels, {}  # labels: (block, m) of each momentum block, in block order
    numbers = {}  # (block, m) -> its number in `labels`
    for number in range(len(blocks)):
        groups: dict[bytes, list[int]] = {}
        for m, fit in enumerate(fits[:, first[number]:first[number + 1]]):
            if sizes[m][number]:
                groups.setdefault(fit.tobytes(), []).append(m)
        twin = pattern.twin[number] if shared else number
        for ms in groups.values():
            if twin < number:  # built with its twin, numbered before it
                tables.twins.extend((numbers[twin, m], len(labels) + i) for i, m in enumerate(ms))
            else:
                key = (sizes[ms[0]][number], real and all(2 * m % order == 0 for m in ms))
                stacks.setdefault(key, []).extend(range(len(labels), len(labels) + len(ms)))
            numbers.update(((number, m), len(labels) + i) for i, m in enumerate(ms))
            labels.extend((number, m) for m in ms)
    tables.stacks.extend((size, where, _momentum_assembly(tables, [labels[i] for i in where], size, flat))
                         for (size, flat), where in stacks.items())
    _read_only(tables.roots, rank, fits, position, linked, *links, tables.ratio,
               *(a for _, _, assembly in tables.stacks for a in assembly))
    return tables


def _momentum_assembly(tables: _Momenta, parts: list[tuple[int, int]], size: int,
                       real: bool) -> _Assembly:
    """The `_Assembly` of the momentum blocks of the (pattern block, m)
    pairs `parts` (see `_momentum_blocks`), each of `size` representatives,
    with real phases if `real`."""
    block, cols, rows, turns = tables.links
    blocks, momenta = (np.array(column)[:, None] for column in zip(*parts))
    near = np.flatnonzero(np.isin(block, blocks))  # the links of the parts' blocks
    part, link = np.nonzero((block[near] == blocks) & tables.fits[momenta, cols[near]]
                            & tables.fits[momenta, rows[near]])
    link = near[link]
    m = momenta[part, 0]
    phases = tables.roots[m * turns[link] % tables.roots.size]
    if real:  # the real part of a real root is exactly +-1
        phases = phases.real.copy()
    entry = (part * size + tables.position[m, rows[link]]) * size + tables.position[m, cols[link]]
    return _Assembly(link, entry, phases)


def _momentum_blocks(assembly: _Assembly, amplitudes: np.ndarray, count: int, size: int) -> np.ndarray:
    """The `count` momentum blocks of `assembly`, stacked as
    (count, size, size), from the links' amplitudes H[r, a] sqrt(p_a / p_b):

        H_k[b, a] = sum over terms H[r, a] e^{i k l_r} sqrt(p_a / p_b),  r = T^{l_r} b,

    with p the orbit sizes and k = 2 pi m / order.  The basis vector of
    representative b is |b, k> = p_b^{-1/2} sum_{l < p_b} e^{-i k l} T^l |b>,
    so only the representatives with m p = 0 mod order take part.  The
    stack is real when the amplitudes and phases are.
    """
    link, entry, phases = assembly
    stack = np.zeros((count, size, size), dtype=np.result_type(amplitudes, phases))
    np.add.at(stack.reshape(-1), entry, amplitudes[link] * phases)
    return stack


def _same_group(a: tuple[int, np.ndarray, np.ndarray, np.ndarray],
                b: tuple[int, np.ndarray, np.ndarray, np.ndarray]) -> bool:
    return a[0] == b[0] and all(np.array_equal(x, y) for x, y in zip(a[1:], b[1:]))


def _twins_share(pattern: _Pattern, values: np.ndarray) -> bool:
    """Whether X^N maps the pattern onto itself (`_Pattern.twin`) and the
    values too, term for term: then term k's image is term -1 - k."""
    return pattern.twin is not None and np.array_equal(values, values[::-1])


def _spectra(terms: HamiltonianTerms) -> tuple[_Momenta, np.ndarray, list[_Sector]]:
    """(the momentum tables, the links' amplitudes, the momentum blocks with
    their eigenvalues).

    Each block of `_blocks` is split by the momenta k = 2 pi m / order of
    the group `_translations` finds.  Real terms take m = 0 .. order // 2
    only: the block of -m is the complex conjugate of the block of m, with
    the same eigenvalues.  Momenta of one block that share their set of
    compatible representatives form a group, built real when the terms are
    and every e^{ik} in it is +-1.  All momentum blocks of equal size and
    type, from any pattern blocks, are built as one stack, checked for
    Hermiticity and given eigenvalues in one batched `eigvalsh`.  The
    trivial group leaves one momentum, m = 0, whose block is the pattern
    block itself.

    When the terms are exactly invariant under the spin flip X^N
    (`_twins_share`), X^N, which commutes with T, maps each pattern block
    onto its twin (the S^z = -j sector of S^z = j, say; Sandvik's spin
    inversion) and each momentum block onto the twin's of the same m, with
    the same eigenvalues.  Then only the block of each twin pair with the
    smaller number is built and diagonalized, and its twin takes the same
    spectrum array; a block that is its own twin is built as before.

    All of this but the values is worked out once per pattern, group,
    realness and sharing, and kept with the pattern (`_pattern`,
    `_momenta`): the blocks, the orbit tables, where each link enters its
    stack and with which phase.  Every call takes the group from
    `_translations` and the sharing from `_twins_share` again, and then only
    sums its amplitudes into the stacks, checks them and diagonalizes them,
    in the same order as a first call does.

    The terms are exactly invariant under T when the group is not trivial,
    and under X^N when twins share, so the matrix is unitarily the direct
    sum of its momentum blocks, and checking every built block for
    Hermiticity checks the whole matrix (for real terms the unbuilt blocks
    of -m are conjugates of built ones, and a twin is a built block's image).
    """
    pattern = _pattern(terms)
    group = _translations(terms, pattern)
    real = not np.iscomplexobj(terms.values)
    shared = _twins_share(pattern, terms.values)
    tables = pattern.momenta
    if (tables is None or tables.real != real or tables.shared != shared
            or not _same_group(tables.group, group)):
        tables = pattern.momenta = _momenta(pattern, group, real, shared)
    amplitudes = terms.values[tables.linked] * tables.ratio
    spectra = [None] * len(tables.labels)
    for size, where, assembly in tables.stacks:
        stack = _momentum_blocks(assembly, amplitudes, len(where), size)
        for i, vals in zip(where, hermitian_eigenvalues(checked_hermitian(stack))):
            spectra[i] = vals
    for built, twin in tables.twins:
        spectra[twin] = spectra[built]
    return tables, amplitudes, [_Sector(*label, vals) for label, vals in zip(tables.labels, spectra)]


def _checked_terms(hamiltonian: HamiltonianTerms) -> HamiltonianTerms:
    # `_spectra` unpacks its argument as (dim, rows, cols, values), which
    # the rows of a 4 x 4 matrix would silently satisfy.
    if not isinstance(hamiltonian, HamiltonianTerms):
        raise TypeError(f"expected HamiltonianTerms, got {type(hamiltonian).__name__}")
    return hamiltonian


def _embedding(tables: _Momenta, block: int, m: int, size: int, real: bool
               ) -> tuple[_Assembly, np.ndarray, np.ndarray, np.ndarray]:
    """(the assembly of the momentum block k = 2 pi m / order of pattern
    block `block` alone, the block's states in the orbits compatible with k,
    their representatives' positions in the momentum block, e^{-ikl} /
    sqrt(p) of each), real if `real`."""
    _, rep, shift, period = tables.group
    roots, idx = tables.roots, tables.blocks[block]
    ranks = tables.rank[rep[idx]]  # each state's representative
    fits = tables.fits[m, ranks]
    rows, ranks = idx[fits], ranks[fits]
    weights = (roots[-m * shift[rows] % roots.size] / np.sqrt(period[rows]))[:, None]  # e^{-ikl} / sqrt(p)
    if real:
        weights = weights.real.copy()
    assembly, at = _momentum_assembly(tables, [(block, m)], size, real), tables.position[m, ranks]
    _read_only(*assembly, rows, at, weights)
    return assembly, rows, at, weights


def _embedded(tables: _Momenta, amplitudes: np.ndarray, sector: _Sector, count: int,
              fix_phase: bool) -> tuple[np.ndarray, np.ndarray]:
    """(basis indices, columns there) of the lowest `count` eigenvectors of
    `sector`'s momentum block, each v embedded as sum_b v[b] |b, k>.

    For real terms a block with 0 < k < pi stands for its complex-conjugate
    partner at -k too, and each vector enters as the two real columns
    sqrt(2) Re and sqrt(2) Im of its embedding, the Re columns first.  With
    `fix_phase` (for one vector) its largest-magnitude entry is first made
    real and positive, so that its sqrt(2) Re column does not depend on the
    phase the eigensolver returns.  The block's assembly and embedding are
    worked out on its first use and kept in `tables`.
    """
    m, size = sector.m, sector.values.size
    pair = tables.real and 0 < 2 * m < tables.roots.size  # 0 < k < pi
    key = (sector.block, m)
    if key not in tables.embeddings:
        tables.embeddings[key] = _embedding(tables, sector.block, m, size, tables.real and not pair)
    assembly, rows, at, weights = tables.embeddings[key]
    stack = _momentum_blocks(assembly, amplitudes, 1, size)
    vecs = hermitian_eigensystem(stack[0])[1][:, :count]
    if fix_phase:
        j = int(np.argmax(np.abs(vecs[:, 0])))
        vecs = vecs * (vecs[j, 0] / abs(vecs[j, 0])).conjugate()
    w = vecs[at] * weights
    if pair:
        w = math.sqrt(2.0) * np.hstack([w.real, w.imag])
    return rows, w


def ground_state(hamiltonian: HamiltonianTerms,
                 mode: GroundStateMode = GroundStateMode.SUBSPACE_MIXTURE) -> DensityOperator:
    """Ground state of a Hermitian matrix, given as terms, under the given
    degeneracy mode.

    Every momentum block (see `_spectra`) gets its eigenvalues; a spin-flip
    twin takes the spectrum array of the block it shares one with.  The
    lowest level is every eigenvalue within `DEGENERACY_RTOL` times the
    whole spectral span of the global minimum, whichever blocks it lies in,
    so twins are on it together; only a momentum block whose lowest
    eigenvalue is on that level is built again for its eigenvectors
    (`_embedded`), a twin from its own terms.  `subspace-mixture` keeps as many of
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
    if not isinstance(mode, GroundStateMode):
        raise TypeError(f"expected a GroundStateMode, got {type(mode).__name__}")
    tables, amplitudes, sectors = _spectra(terms)
    lowest = min(s.values[0] for s in sectors)
    span = max(s.values[-1] for s in sectors) - lowest
    top = lowest + DEGENERACY_RTOL * span
    level = [(s, int(np.count_nonzero(s.values <= top))) for s in sectors if s.values[0] <= top]
    if mode is GroundStateMode.FIRST_VECTOR:
        sector = min((s for s, _ in level), key=lambda s: (s.block, s.m))
        rows, w = _embedded(tables, amplitudes, sector, 1, fix_phase=True)
        parts = [(rows, w[:, :1])]
    else:
        parts = [_embedded(tables, amplitudes, s, k, fix_phase=False) for s, k in level]
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
    (a block of real terms and its conjugate partner share them, and so do
    spin-flip twins)."""
    vals = np.sort(np.concatenate([s.values for s in _spectra(_checked_terms(hamiltonian))[2]]))
    span = float(vals[-1] - vals[0])
    above = vals[vals > vals[0] + DEGENERACY_RTOL * span]
    if above.size == 0:
        return math.inf
    return float(above[0] - vals[0])
