"""Entropy kernels: von Neumann entropy, relative entropy, mutual information.

Subset entropies S(rho_A) come from one of two spectra.  A state that carries
a factor V (rho = V V^dagger: a pure state's amplitude column, a state built
by `from_factor`, or one certified of low rank when its positivity was
checked) gives rho_A's nonzero spectrum as that of the smaller Gram
matrix of V reshaped to 2^|A| x (2^(n-|A|) r), with no partial trace.  Any
other state is reduced and its reduced data diagonalized.  `subset_entropy`
gives one subset (by `partial_trace` when there is no factor);
`subset_entropies`, the whole table that `ccm` needs, takes either path for
every subset in one walk (`_Walk`), which reduces a state without a factor
by tracing one qubit at a time out of a parent subset.  The whole
register's entropy comes from the spectrum that the positivity check kept,
when there is one.
The table diagonalizes one subset per orbit of the qubit permutations that
leave the state unchanged (`qubit_symmetry` finds generators of that group,
and `orbit_representatives` closes the masks under any generator list).

One walk serves every state, and carries a leading stack axis:
`subset_entropies_many` reads its states once; factors wait in stacks of
the same register size, qubit group, rank, dtype, popcount alignment and
spin flip, each reduced by one transpose and one stacked Gram product per
representative subset; any other state has its root visited as it
arrives, and its children walked with those of the states that share
register size, qubit group, form, dtype and spin flip (`_Walk`), except
that a root in popcount blocks whose qubit group holds the shift has the
entries that its momentum blocks are made from wait with its children, to
be cut with the other roots of its stack (`_Walk.momentum_pieces`).  A state
with popcount blocks (`DensityOperator.blocks`: damped XXZ and double-XXZ
ground states) is carried as blocks all the way down, since a partial trace
keeps the zeros between popcounts; any other state is the one-block case.
A factor whose every column lies in one popcount sector (XXZ and
double-XXZ ground states) has each rho_A block diagonal by popcount too,
and its Gram matrices of A's side, which are rho_A, are taken as their
popcount blocks (`_Walk.factor_pieces`).  A block that is 0.0 in every
state of a stack is not diagonalized, and the others wait with the
matrices of the same width from every subset.  When the spin flip X^n
leaves the state unchanged (`_flips_by_at_most_cutoff`), block m - k
takes block k's spectrum.  A
block is split before its eigensolve by the involutions of its basis that
leave it unchanged (`_block_split`): the flip, on the middle block, and,
when the qubit group holds the ring's reflections, the one of those that
map the subset onto itself whose pieces cost least (Sandvik's reflection
and spin-inversion sectors).  Its pieces wait in its place, and the
matrices and pieces of one width and dtype, whatever subset and stack
they come from, share one stacked `hermitian_eigenvalues` call, whose
eigenvalues give each piece's entropy; a node's is the sum of its
pieces'.  A piece whose eigenvalues are all outside the support adds
nothing, as an absent one does, so a 0.0 block of one state solved with
the other states of its stack leaves its table as it is alone.  The root
of a state in popcount blocks whose qubit group holds the shift T is not
split so: each of its popcount blocks is cut into the momentum blocks of T
(Sandvik's momentum sectors), from one gather and one FFT per block for a
whole stack of roots.  A phase-damped N = 8 ring's largest eigensolve is
19 instead of 256, and its 29 subsets take 11 calls; an amplitude-damped
one's is 19, in 18 calls; the roots' largest is 10.  An XXZ N = 10 ground
state's is 10 instead of 32.

The eigensolves of the largest matrices overlap the walk.  A stack of
BLOCK_ENTRIES entries or more, which shares its batch with no other
matrix, is handed as it is queued to one of a small pool of worker threads
(numpy's eigensolver releases the GIL): as many as the CPUs this process
may use over the BLAS's threads (`_worker_count`), made on the first
hand-off and forgotten in a forked child.  Any other batch is solved by the
walk's thread, with the same `_solve_batch`, so the walk makes the same
calls on the same stacks, and writes the same tables, with or without the
pool.  A whole matrix handed off is the data of a node on the walk's path,
and the walk does not leave the node before it is solved, so no data the
walk has left are alive for an eigensolve; the Gram matrices and pieces
handed off are their own arrays, at most one per worker in flight.

All entropies use log base 2 internally.  Results can be reported either in
bits or in "normalized" units (bits / 2), the scale on which one Bell pair
sits at distance 1 from its closest product state.  Normalized is the default
everywhere.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, InvalidBipartition, OutOfRange
from .linalg import hermitian_eigensystem, hermitian_eigenvalues
from .states import (
    BLOCK_ENTRIES,
    SUPPORT_CUTOFF,
    DensityOperator,
    _kept_when_small,
    block_layout,
    check_subset,
    cyclic_shift,
    factor_sectors,
    full_mask,
    momentum_fits,
    partial_trace,
    permuted_entries,
    shift_orbits,
    subset_qubits,
    trace_entries,
)


class DistanceUnit(enum.Enum):
    BITS = "bits"
    NORMALIZED = "normalized"

    @property
    def factor(self) -> float:
        """Multiplier applied to a value measured in bits."""
        return 1.0 if self is DistanceUnit.BITS else 0.5


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) = -sum_i lam_i log2 lam_i, in bits: `subset_entropy` of the
    whole register.  Eigenvalues <= 1e-12 (including round-off negatives)
    contribute zero."""
    return subset_entropy(rho, full_mask(rho.num_qubits))


def _entropy_bits(vals: np.ndarray) -> np.ndarray:
    """-sum_i lam_i log2 lam_i over the last axis of `vals` (one spectrum, or
    one per row), in bits, with the eigenvalues at or below SUPPORT_CUTOFF
    taken as 1 (1 log2 1 = 0)."""
    return np.maximum(_piece_bits(vals), 0.0)


def _piece_bits(vals: np.ndarray) -> np.ndarray:
    """`_entropy_bits` of `vals` before its clip at 0: the bits of one piece
    of a spectrum, which `_node_bits` adds to the others'.  A piece whose
    eigenvalues are all at or below SUPPORT_CUTOFF (a 0.0 matrix, say)
    gives -0.0, which adds nothing to any sum, as if it were absent."""
    kept = np.where(vals > SUPPORT_CUTOFF, vals, 1.0)
    return -(kept * np.log2(kept)).sum(axis=-1)


def subset_entropy(state: DensityOperator, mask: int) -> float:
    """S(rho_A) in bits for the qubits A in `mask` (non-empty).

    Uses the state's factor when it has one, so its 2^n x 2^n matrix is
    neither formed nor diagonalized, otherwise the partial trace; the whole
    register of a dense state uses its kept spectrum, if any.
    """
    n = state.num_qubits
    v = state.factor
    if v is None:
        if mask == full_mask(n) and state.spectrum is not None:
            return float(_entropy_bits(state.spectrum))
        return float(_entropy_bits(hermitian_eigenvalues(partial_trace(state, mask).matrix)))
    check_subset(mask, n)
    return float(_entropy_bits(hermitian_eigenvalues(_grams(v[None], mask)[0])))


def _grams(factors: np.ndarray, mask: int) -> np.ndarray:
    """For a stack of factors V (s, 2^n, r), the Gram matrices (s, c, c) of
    each V reshaped to 2^|A| x (2^(n-|A|) r), A the qubits of `mask`: of
    the smaller side, c = min(2^|A|, 2^(n-|A|) r), whose nonzero spectrum is
    rho_A's.  One transpose and one stacked product."""
    s, d, r = factors.shape
    n = d.bit_length() - 1
    kept = subset_qubits(mask)
    traced = [q for q in range(n) if not (mask >> q) & 1]
    # Rows index A's basis states; columns index the rest and V's columns.
    m = factors.reshape((s,) + (2,) * n + (r,)).transpose([0] + [1 + q for q in kept + traced] + [n + 1])
    m = m.reshape(s, 1 << len(kept), -1)
    mh = m.conj().transpose(0, 2, 1)
    return m @ mh if m.shape[1] <= m.shape[2] else mh @ m


def qubit_symmetry(state: DensityOperator) -> tuple[tuple[int, ...], ...]:
    """Generators (axis orders, as for `np.transpose`) of the qubit
    permutations found to leave `state` unchanged; () is the trivial group.

    The shift c (q -> q + 1 mod n) is tested first; if it passes, (0 1), and
    if that fails the reflection r (q -> n - 1 - q): (c, (0 1)) generates
    S_n, (c, r) D_n and (c,) C_n.  Only if c fails on an even n >= 4 are
    each half's shift and reflection and the swap of the halves tested,
    and each that passes is kept: two rings side by side get D_N x D_N, and
    the swap too when they are equal.  A generator passes when it changes
    the state by at most SUPPORT_CUTOFF in trace norm (see
    `_moves_by_at_most_cutoff`), the budget of intake's low-rank certificate
    (`states._certified_factor`), so by the Fannes-Audenaert bound it moves no
    subset entropy by more than about 3e-11 bits; a permutation that takes
    L generators moves them by at most L times that (L <= 9 in D_7 x D_7
    with the swap), and the walk's spin flip adds one more; a ring
    reflection that splits a subset's blocks in the walk is such a
    permutation.  Ring ground states, damped or not, pass with trace norms
    below 1e-13.

    The result is kept on the state, so each state is tested at most once;
    `apply_channel_local` on the whole register gives its output the
    generators of its input instead of a test.
    """
    found = state._qubit_symmetry
    if found is None:
        found = state._qubit_symmetry = _tested_symmetry(state)
    return found


def _tested_symmetry(state: DensityOperator) -> tuple[tuple[int, ...], ...]:
    """The generators `qubit_symmetry` returns, found by testing `state`."""
    n = state.num_qubits
    if n < 2:
        return ()
    shift, swap, reflect, halves = _candidates(n)
    if not _moves_by_at_most_cutoff(state, shift):
        return tuple(g for g in halves if _moves_by_at_most_cutoff(state, g))
    if _moves_by_at_most_cutoff(state, swap):
        return shift, swap
    return (shift, reflect) if _moves_by_at_most_cutoff(state, reflect) else (shift,)


@functools.lru_cache(maxsize=None)
def _candidates(n: int) -> tuple:
    """c, (0 1), r and, for even n >= 4, the distinct ones of each half's shift
    and reflection and the swap of the halves, as axis orders."""
    a, b = tuple(range(n // 2)), tuple(range(n // 2, n))
    halves = [a[1:] + a[:1] + b, a[::-1] + b, a + b[1:] + b[:1], a + b[::-1], b + a]
    halves = tuple(dict.fromkeys(halves)) if n % 2 == 0 and n >= 4 else ()
    return (*range(1, n), 0), (1, 0, *range(2, n)), tuple(range(n - 1, -1, -1)), halves


def _moves_by_at_most_cutoff(state: DensityOperator, perm: tuple[int, ...]) -> bool:
    """Whether permuting the qubits of `state` by `perm` (an axis order, as
    for `np.transpose`) changes it by at most SUPPORT_CUTOFF in trace norm
    ||D||_1, where D is the permuted state minus the state.

    The permuted diagonal is compared first: ||D||_1 >= sum_i |D_ii|, so a
    state that fails there is rejected in O(2^n).  With a factor V (d x r),
    D = W W^dagger - V V^dagger for the permuted factor W, whose trace norm
    `_factors_within_cutoff` takes exactly in O(d r^2).  Any other state is
    bounded by ||D||_1 <= sqrt(d) ||D||_F, with ||D||_F summed over pieces
    of BLOCK_ENTRIES entries so that no second full-size array is made: over
    its popcount blocks, which a qubit permutation maps onto themselves,
    when it has them, else over rows.
    """
    n = state.num_qubits
    shape = (2,) * n
    v = state.factor
    blocks = state.blocks if v is None else None
    if v is not None:
        diag = (np.abs(v) ** 2).sum(axis=1)
    elif blocks is not None:
        diag = blocks[block_layout(n).diagonal].real
    else:
        diag = state.matrix.diagonal().real
    if float(np.abs(diag.reshape(shape).transpose(perm).reshape(-1) - diag).sum()) > SUPPORT_CUTOFF:
        return False
    if v is not None:
        return _factors_within_cutoff(v.reshape(shape + (v.shape[1],)).transpose((*perm, n)).reshape(v.shape), v)
    d = 1 << n
    limit = SUPPORT_CUTOFF ** 2 / d  # on ||D||_F^2
    if blocks is not None:
        (where,) = permuted_entries(n, perm)
        starts = range(0, blocks.size, BLOCK_ENTRIES)
        pieces = (blocks.take(where[s:s + BLOCK_ENTRIES]) - blocks[s:s + BLOCK_ENTRIES] for s in starts)
        return _squares_within(pieces, limit)
    m = state.matrix
    index = np.arange(d).reshape(shape).transpose(perm).reshape(-1)
    rows = max(1, BLOCK_ENTRIES // d)
    pieces = (m[np.ix_(index[s:s + rows], index)] - m[s:s + rows] for s in range(0, d, rows))
    return _squares_within(pieces, limit)


def _squares_within(pieces: Iterable[np.ndarray], limit: float) -> bool:
    """Whether ||piece||_F^2 summed over `pieces`, in order, is at most
    `limit`.  The pieces are read one at a time, and none after the sum
    passes `limit`."""
    total = 0.0
    for piece in pieces:
        total += float(np.vdot(piece, piece).real)
        if total > limit:
            return False
    return True


def _factors_within_cutoff(w: np.ndarray, v: np.ndarray) -> bool:
    """Whether W W^dagger - V V^dagger, for factors W and V (d x r), has
    trace norm at most SUPPORT_CUTOFF: if [W V] = Q R, it is the trace norm
    of the 2r x 2r matrix R J R^dagger, with J = diag(1, -1) on W's and V's
    columns, so the test is exact and costs O(d r^2)."""
    r = v.shape[1]
    rr = np.linalg.qr(np.hstack([w, v]), mode="r")
    small = rr[:, :r] @ rr[:, :r].conj().T - rr[:, r:] @ rr[:, r:].conj().T
    return float(np.abs(np.linalg.eigvalsh(small)).sum()) <= SUPPORT_CUTOFF


def _flips_by_at_most_cutoff(state: DensityOperator) -> bool:
    """Whether the spin flip X^n (every qubit's X) changes `state`, which
    has popcount blocks or a factor, by at most SUPPORT_CUTOFF in trace
    norm (`_tested_flip`).

    The result is kept on the state, so each state is tested at most once,
    as `qubit_symmetry` keeps its generators; `apply_channel_local` on the
    whole register, with a channel that commutes with X^n up to round-off
    (phase damping, not amplitude damping), gives its output its input's
    result instead of a test: X^n then moves the output by at most what it
    moves the input plus 16 n eps, since the channel contracts the trace
    norm.
    """
    found = state._spin_flip
    if found is None:
        found = state._spin_flip = _tested_flip(state)
    return found


def _tested_flip(state: DensityOperator) -> bool:
    """The result `_flips_by_at_most_cutoff` keeps, found by testing
    `state` with the budget of `_moves_by_at_most_cutoff`.

    X^n maps basis index i to d - 1 - i, so popcount k to n - k in reversed
    order: the flipped state's block k is block n - k with its rows and
    columns reversed, and its flat block array is the state's, reversed.
    The reversed diagonal is compared first; then, for a factor V, the exact
    trace norm with the flipped factor, V's rows reversed; otherwise
    sqrt(d) ||D||_F, where D = reversed - blocks is odd under reversal, so
    its first half holds half of ||D||_F^2.
    """
    n, v = state.num_qubits, state.factor
    blocks = state.blocks if v is None else None
    diag = (np.abs(v) ** 2).sum(axis=1) if v is not None else blocks[block_layout(n).diagonal].real
    if float(np.abs(diag[::-1] - diag).sum()) > SUPPORT_CUTOFF:
        return False
    if v is not None:
        return _factors_within_cutoff(v[::-1], v)
    limit = SUPPORT_CUTOFF ** 2 / (2 << n)  # on the first half's share of ||D||_F^2
    half = blocks.size // 2
    first, flipped = blocks[:half], blocks[::-1][:half]
    starts = range(0, half, BLOCK_ENTRIES)
    pieces = (flipped[s:s + BLOCK_ENTRIES] - first[s:s + BLOCK_ENTRIES] for s in starts)
    return _squares_within(pieces, limit)


@functools.lru_cache(maxsize=None)
def orbit_representatives(num_qubits: int, generators: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """The smallest mask of each mask's orbit under the group of `generators`
    (as `qubit_symmetry` returns them), indexed by mask: rep = min(rep,
    rep[g(A)]) for each generator g, which maps qubit q to g[q], then
    rep = rep[rep], until nothing changes.  Made once for each
    (n, generators) and read-only."""
    masks = np.arange(1 << num_qubits)
    images = [sum(((masks >> q) & 1) << p for q, p in enumerate(g)) for g in generators]
    reps = masks
    while True:
        new = reps
        for image in images:
            new = np.minimum(new, new[image])
        new = new[new]
        if np.array_equal(new, reps):
            break
        reps = new
    reps.flags.writeable = False
    return reps


class SubsetTable(list):
    """S(rho_A) in bits indexed by mask A, as made by `subset_entropies`.

    `representatives[A]` (the read-only array of `orbit_representatives`)
    is the smallest mask of A's orbit under the state's qubit symmetry; A's
    entry is a copy of that mask's.
    """

    __slots__ = ("representatives",)


# Entries that wait, summed over every stack, to be walked together: the
# representative children of the roots of states without a factor (and the
# entries of the roots that wait to be cut into momentum blocks), and the
# factors of the others.  A state whose own entries pass it is walked alone.
# `ccm`'s dynamic program bounds the temporaries of each level by it too.
STACK_ENTRIES = 1 << 18


def subset_entropies(state: DensityOperator) -> SubsetTable:
    """S(rho_A) in bits for every mask A of the register, indexed by mask
    (entry 0, the empty set, is 0).

    Subsets related by a qubit permutation that leaves the state unchanged
    have equal entropies, so the group of such permutations is found first
    (`qubit_symmetry`) and only the smallest mask of each orbit is
    diagonalized; every other mask copies its representative's entry.  With
    the trivial group every mask is its own representative.

    A state with a factor takes the Gram path (see `subset_entropy`) for
    each representative; when the factor is one column (a pure state),
    S(A) = S(rest of A), so a representative whose complement's orbit comes
    earlier copies that entry, and the whole register gets 0.  Any other
    state is reduced along a tree.  Either is `_Walk`'s, as a stack of one.
    """
    return subset_entropies_many([state])[0]


def subset_entropies_many(states: Iterable[DensityOperator]) -> list[SubsetTable]:
    """`subset_entropies` of each state, bit for bit, in order.

    `states` is read once, and each state is reduced as it arrives by
    `_Walk.add`: a factor waits with those of the states before it of the
    same register size, qubit group, rank, dtype, popcount alignment
    (`states.factor_sectors`) and spin flip, and any other state has
    its root visited alone and its representative children wait with those
    of the states before it of the same register size, qubit group, form
    (blocks or one block), dtype and spin flip, each to be walked as one
    stack; a root in blocks whose group holds the shift waits with them,
    as the entries its momentum blocks are made from.  No state is held
    once it has been reduced, so a generator of states is reduced in the
    memory of one state, the waiting factors, root entries and children,
    and the matrices waiting for their eigensolve or in flight.  If the
    walk is abandoned (an exception from a state, from `states` or from an
    eigensolve), the stacks handed off that have not started are
    cancelled.
    """
    walk = _Walk()
    tables = []
    try:
        for state in states:
            n, generators = state.num_qubits, qubit_symmetry(state)
            rep, table = orbit_representatives(n, generators), np.zeros(1 << n)
            walk.add(state, generators, rep, table)
            tables.append((table, rep))
        walk.finish()
    finally:
        walk.cancel()  # of an abandoned walk, the batches that have not started
    return [_subset_table(table, rep) for table, rep in tables]


def _subset_table(table: np.ndarray, rep: np.ndarray) -> SubsetTable:
    out = SubsetTable(table[rep].tolist())
    out.representatives = rep
    return out


class _Stack:
    """States walked together, each with the table its entropies go to, and
    the pieces of the spectrum of every mask they have reached, under a
    tuple of masks whose matrices are stacked mask by mask: one holder per
    piece, a one-item list that holds, or gets when its eigensolve is made,
    the piece's bits (`_piece_bits`), one float per row of the stack (a
    block and its spin-flip twin share theirs).  A stack of factors keeps
    them until it is walked, and, when they are one column, the masks that
    copy the entry of their complement's representative.  `charged` says whether the
    states' data hold popcounts apart: they have popcount blocks, or each
    column of their factors lies in one popcount sector (`factor_sectors`)."""

    __slots__ = ("charged", "flip", "ring", "gather", "rep", "tables", "pieces", "roots", "children", "factors",
                 "copies")

    def __init__(self, charged: bool, flip: bool, ring: int, rep: np.ndarray, gather: np.ndarray | None = None):
        # ring: n when the qubit group holds the reflections of the n-qubit ring, else 0;
        # gather: when a root visited alone is cut into momentum blocks, its entries that make them
        self.charged, self.flip, self.ring, self.rep, self.gather = charged, flip, ring, rep, gather
        self.tables: list[np.ndarray] = []
        self.pieces: dict[tuple[int, ...], list[list]] = {}
        self.roots: list[np.ndarray] = []  # one (1, entries) array per state: its root's `_root_entries`
        self.children: dict[int, list[np.ndarray]] = {}  # traced qubit -> one (1, entries) array per state
        self.factors: list[np.ndarray] = []  # one (1, 2^n, r) array per state
        self.copies: tuple[np.ndarray, np.ndarray] | None = None  # (masks, the masks they copy)


class _Walk:
    """The reduction of the states of one `subset_entropies_many` call.

    Every array of the walk has a leading axis over the states of a stack.
    A stack of factors V (2^n x r) is reduced mask by mask: for each
    representative A, one transpose of the stack and one stacked Gram
    product give the Gram matrices of V reshaped to 2^|A| x (2^(n-|A|) r),
    the smaller side, whose nonzero spectrum is rho_A's.  A one-column
    factor skips a representative whose complement's representative comes
    first, and copies that entry once the entropies are written.  The Gram
    matrices of representatives of one size and side are stacked, mask by
    mask, into one stack of at most about BLOCK_ENTRIES entries, which
    `factor_pieces` hands on as one: whole, or, when every column of V
    lies in one popcount sector (`states.factor_sectors`, read from the
    rows, without forming the blocks), split: a Gram matrix of A's side is
    rho_A itself, block diagonal by popcount, and is gathered into its
    popcount blocks (`_gram_entries`) to take the spin flip and the
    reflections as a reduced state's blocks do.  (A Gram matrix of the
    other side, past |A| = n/2 when r > 1, is block diagonal too, by the
    label sector(j) - popcount(b) of its columns (b, j), but cutting it so
    measured no faster on the benchmark's sweep, so it is solved whole.)

    Any other state is reduced along a tree.  The parent of a subset is the
    subset plus its lowest missing qubit, and a child's data are its
    parent's with that qubit traced out.  The parent of a representative is
    a representative too (a smallest mask stays smallest in its orbit when
    its lowest missing qubit is added, as tests check for every generator
    list `qubit_symmetry` returns up to n = 14), so only representatives are
    reduced.  A state's root is visited when it arrives, and only its
    representative children are kept, to wait with those of the earlier
    states of its key.  The root of a state in popcount blocks whose qubit
    group holds the shift T (C_n, D_n or S_n) is cut into momentum blocks
    (`momentum_pieces`), which pays only when the roots of a stack are cut
    at once: the entries those blocks are made from, about 1/n of the
    root's (`_root_entries`), are gathered when it arrives and wait with
    its children, and the stack's roots are cut before its children are
    walked.

    At most STACK_ENTRIES factor, root and child entries wait in all.
    Before a state's would pass that, every waiting stack is walked, the
    children depth first; a state whose entries alone pass it is walked
    alone without waiting (depth first from its root, for a state without
    a factor).

    Blocks are reduced by two index gathers (`trace_entries`), one block by
    a reshape and the sum of two slices.  The 1 x 1 blocks are read off; a
    block that is 0.0 in every state of the stack is skipped, and any other
    waits for every state (a 0.0 matrix's eigenvalues are 0, outside the
    support, and add nothing).  A stack that is invariant
    under the spin flip X^n (`_flips_by_at_most_cutoff`) stays so under
    every partial trace, and one whose qubit group holds the ring's
    reflections has each subset's blocks invariant under the reflections
    that map the subset onto itself: at each node block m - k takes block
    k's spectrum under the flip, and every other block waits whole, or as
    the pieces of its split (`_block_split`, `_split`: three gathers per
    piece), cut when it is queued, or, at a root cut into momentum blocks,
    as those blocks.  Every matrix, Gram matrix and piece waits under
    (width, dtype), shared by every stack, until more than BLOCK_ENTRIES
    entries would wait.  The flush then solves each (width, dtype) in one
    `hermitian_eigenvalues` call (`_solve_batch`), and each holder gets the
    bits of its matrices' eigenvalues (`_piece_bits`), one float per state.
    A stack of BLOCK_ENTRIES entries or more would be alone in its batch:
    it is handed to a worker thread as it is queued (`solve`), at most
    `_worker_count` of them in flight, and the visit of a node whose whole
    matrix was handed off waits for it before it returns.  A root takes
    the spectrum the positivity check kept, if any.  Once every batch is
    solved, `finish` writes the tables.  A node's
    entropy is its pieces' bits added in spectrum order (`_node_bits`): the
    1 x 1 blocks, then blocks 1, m - 1, 2, m - 2, ... (each split block's
    pieces in the order of its recipe, each root block's momentum blocks in
    the order m = 0, 1, ...)
    """

    def __init__(self):
        self.waiting: dict[tuple, list] = {}  # (c, dtype) -> [(matrices (s, c, c), holder)]
        self.waiting_entries = 0
        self.stacks: dict[tuple, _Stack] = {}
        self.stacked_entries = 0
        self.queued: list[_Stack] = []  # walked; their entropies are written by `finish`
        self.running: set = set()  # the futures of the stacks handed off, until seen done

    def add(self, state: DensityOperator, generators: tuple, rep: np.ndarray, table: np.ndarray) -> None:
        n, v = state.num_qubits, state.factor
        ring = n if len(generators) == 2 and generators[0] == _candidates(n)[0] else 0  # D_n or S_n
        if v is not None:
            alone = v.size > STACK_ENTRIES
            charged = factor_sectors(v, n) is not None
            flip = charged and _flips_by_at_most_cutoff(state)
            stack = _Stack(charged, flip, ring, rep)
            if not alone:
                stack = self.waiting_stack((n, generators, v.shape[1], v.dtype, charged, flip), v.size, stack)
            stack.tables.append(table)
            stack.factors.append(v[None])
            if alone:
                self.walk_factors(stack, n)
            return
        charged = state.blocks is not None
        data = (state.blocks if charged else state.matrix.reshape(-1))[None]
        flip = charged and _flips_by_at_most_cutoff(state)
        known = None if state.spectrum is None else state.spectrum[None]
        full = full_mask(n)
        children = [q for q in range(n) if n > 1 and rep[full ^ (1 << q)] == full ^ (1 << q)]
        entries = len(children) * (math.comb(2 * n - 2, n - 1) if charged else 1 << (2 * n - 2))
        # A root that the shift leaves unchanged is cut into momentum blocks,
        # which pays only when the roots of a stack are cut together: the
        # entries they are made from wait with its children.
        gather = _root_entries(n, flip)[0] if charged and known is None and _holds_shift(n, generators) else None
        entries += 0 if gather is None else gather.size
        alone = entries > STACK_ENTRIES
        waits = gather is not None and not alone  # a root of n >= 2 qubits has a representative child
        if not waits:
            root = _Stack(charged, flip, ring, rep, gather)
            root.tables.append(table)
            self.visit(root, data, full, n, n, known, descend=alone)
            self.queued.append(root)
        if alone or not children:
            return
        key = (n, generators, data.dtype, charged, flip, waits)  # a factor's has its rank third
        stack = self.waiting_stack(key, entries, _Stack(charged, flip, ring, rep))
        stack.tables.append(table)
        if waits:
            stack.roots.append(data.take(gather, axis=1))
        for q in children:
            stack.children.setdefault(q, []).append(_reduced(data, n, q, charged))

    def waiting_stack(self, key: tuple, entries: int, new: _Stack) -> _Stack:
        """The stack of `key` that a state's `entries` join, `new` if none
        waits, after walking every waiting stack if they would pass
        STACK_ENTRIES."""
        if self.stacked_entries + entries > STACK_ENTRIES:
            self.walk_stacks()
        self.stacked_entries += entries
        return self.stacks.setdefault(key, new)

    def walk_stacks(self) -> None:
        for (n, *_), stack in self.stacks.items():
            if stack.factors:
                self.walk_factors(stack, n)
                continue
            full = full_mask(n)
            if stack.roots:
                stack.pieces[full,] = self.momentum_pieces(np.concatenate(stack.roots), n, stack.flip)
                stack.roots = []
            for q in list(stack.children):
                # Passed unbound, and each state's own child dropped once
                # stacked: only the data on the path being walked stay alive.
                self.visit(stack, np.concatenate(stack.children.pop(q)), full ^ (1 << q), n - 1, q)
            self.queued.append(stack)
        self.stacks.clear()
        self.stacked_entries = 0

    def walk_factors(self, stack: _Stack, n: int) -> None:
        factors = np.concatenate(stack.factors)
        stack.factors = []
        s, _, r = factors.shape
        masks = _representative_masks(stack.rep)
        if r == 1:
            twins = stack.rep[full_mask(n) ^ masks]
            first = twins < masks
            stack.copies = masks[first], twins[first]
            masks = masks[~first]
        batches: dict[tuple, list[int]] = {}  # masks whose Gram matrices are handled as one stack
        for mask in masks.tolist():
            m = mask.bit_count()
            c = min(1 << m, r << (n - m))  # the Gram matrix's width
            # A reflection splits only blocks at least REFLECTED_WIDTH wide: below, masks batch alike.
            wide = stack.charged and c == 1 << m and math.comb(m, m // 2) >= REFLECTED_WIDTH
            reflections = _ring_reflections(stack.ring, mask) if stack.ring and wide else ()
            batch = batches.setdefault((m, c, reflections), [])
            batch.append(mask)
            if len(batch) * s * c * c >= BLOCK_ENTRIES:
                self.factor_pieces(stack, factors, batches.pop((m, c, reflections)), reflections)
        for (*_, reflections), batch in batches.items():
            self.factor_pieces(stack, factors, batch, reflections)
        self.queued.append(stack)

    def factor_pieces(self, stack: _Stack, factors: np.ndarray, masks: list[int], reflections: tuple) -> None:
        """The holders of the spectrum pieces of the Gram matrices of
        `masks`, of one size and side, stacked mask by mask: solved whole,
        or, when they are rho_A of factors whose columns each lie in one
        popcount sector, as rho_A's popcount blocks (`block_pieces`, with
        the leg permutations `reflections`)."""
        grams = np.concatenate([_grams(factors, mask) for mask in masks])
        m = masks[0].bit_count()
        if not stack.charged or grams.shape[-1] != 1 << m:
            stack.pieces[tuple(masks)] = [self.solve(grams)]
            return
        data = grams.reshape(len(grams), -1).take(_gram_entries(m)[0], axis=1)
        stack.pieces[tuple(masks)] = self.block_pieces(data, m, stack.flip, reflections)

    def finish(self) -> None:
        """Walk the waiting stacks and solve the last batch in this thread
        while the stacks handed off finish, then write the entropies of
        every stack: each node's is `_node_bits` of its pieces'.  The
        exception of a stack that failed in a worker is raised from the
        walk, here or where it waited for that stack."""
        self.walk_stacks()
        self.flush()
        self.settle(every=True)
        for stack in self.queued:
            masks = np.fromiter((mask for key in stack.pieces for mask in key), dtype=np.intp)
            bits = np.empty((masks.size, len(stack.tables)))
            j = 0
            for key, pieces in stack.pieces.items():
                bits[j:j + len(key)] = _node_bits(pieces).reshape(len(key), -1)
                j += len(key)
            for table, row in zip(stack.tables, bits.T):
                table[masks] = row
                if stack.copies is not None:
                    to, source = stack.copies
                    table[to] = table[source]
        self.queued.clear()

    def visit(self, stack: _Stack, data: np.ndarray, mask: int, m: int, low: int,
              known: np.ndarray | None = None, descend: bool = True) -> None:
        if known is not None:
            stack.pieces[mask,] = [[_piece_bits(known)]]
        elif stack.gather is not None and mask == stack.rep.size - 1:
            stack.pieces[mask,] = self.momentum_pieces(data.take(stack.gather, axis=1), m, stack.flip)
        elif stack.charged:
            reflections = _ring_reflections(stack.ring, mask) if stack.ring else ()
            stack.pieces[mask,] = self.block_pieces(data, m, stack.flip, reflections)
        else:
            d = 1 << m
            stack.pieces[mask,] = [self.solve(data.reshape(-1, d, d))]
        if descend and m > 1:
            for q in range(low):  # leg q of the data is qubit q: qubits 0..low-1 are all in `mask`
                child = mask & ~(1 << q)
                if stack.rep[child] == child:
                    self.visit(stack, _reduced(data, m, q, stack.charged), child, m - 1, q)
        if not stack.charged:
            # A whole matrix handed off is `data` itself, dropped on return:
            # no data the walk has left stays alive for an eigensolve.
            (holder,) = stack.pieces[mask,]
            if len(holder) > 1:
                holder[1].result()

    def block_pieces(self, data: np.ndarray, m: int, flip: bool, reflections: tuple) -> list[list]:
        """The holders of the spectrum pieces of each state of `data`, blocks
        of an m-qubit node that the leg permutations `reflections` leave
        unchanged, in spectrum order."""
        lay = block_layout(m)
        pieces, twin = [[_piece_bits(data.take([0, lay.offsets[m]], axis=1).real)]], []
        for k in _block_order(m):
            if flip and 2 * k > m:  # block m - k, just before, is its flip
                pieces += twin
                continue
            c = lay.sizes[k]
            block = data[:, lay.offsets[k]:lay.offsets[k + 1]].reshape(-1, c, c)
            twin = self.solve_nonzero(block, _block_split(m, k, reflections, flip and 2 * k == m))
            pieces += twin
        return pieces

    def momentum_pieces(self, entries: np.ndarray, n: int, flip: bool) -> list[list]:
        """The holders of the spectrum pieces of each state of a stack of
        n-qubit roots that the shift T leaves unchanged, given by their
        `_root_entries`, in spectrum order: the 1 x 1 blocks, then each
        block's momentum blocks, m = 0, 1, ...

        The entries of block k are rho[T^j r_a, r_b] over the
        representatives r_a, r_b of its orbits and the shifts j.  Of a block
        whose entries are not 0.0 in every state, one FFT along j and one
        multiply by sqrt(p_a p_b) / n (`_root_momenta`) make them
        sum_j e^{-ikj} rho[T^j r_a, r_b] sqrt(p_a p_b) / n, which on the
        representatives with m p = 0 mod n is the momentum block of -m.
        Real data take m = 0 .. n // 2: the block of -m is the conjugate of
        that of m, so each 0 < m < n/2 stands for two, and m = 0 and n/2 are
        real.  Under the flip, block n - k takes block k's spectrum, as
        elsewhere, and its entries are not gathered."""
        pieces, twin = [[_piece_bits(entries[:, :2].real)]], []
        real = not np.iscomplexobj(entries)
        start = 2
        for k in _block_order(n):
            if flip and 2 * k > n:  # block n - k, just before, is its flip
                pieces.extend(twin)
                continue
            weights, fits = _root_momenta(n, k)
            r = len(weights)
            gathered, start, twin = entries[:, start:start + n * r * r], start + n * r * r, []
            if not gathered.any():
                continue
            gathered = gathered.reshape(-1, n, r, r)  # (s, j, a, b)
            blocks = np.fft.rfft(gathered, axis=1) if real else np.fft.fft(gathered, axis=1)
            blocks *= weights
            for m, fit in enumerate(fits[:blocks.shape[1]]):
                block = blocks[:, m]
                if not fit.all():
                    at = np.flatnonzero(fit)
                    block = block[:, at[:, None], at]
                paired = real and 0 < 2 * m < n
                twin += self.solve_nonzero(block.real if real and not paired else block) * (1 + paired)
            pieces.extend(twin)
        return pieces

    def solve_nonzero(self, matrices: np.ndarray, recipe: tuple | None = None) -> list:
        """The holders of the bits of the whole stack `matrices` (s, c, c):
        one, or, split by `recipe` (see `_block_split`), one per piece that
        `solve_piece` keeps, in the recipe's order; none if every matrix is
        0.0.  (A 0.0 matrix has eigenvalues 0, outside the support: solved
        with the others, it adds -0.0 bits, nothing, as its state alone,
        which skips it.)  The stack is copied or split, so that nothing
        waiting keeps its source alive."""
        if not matrices.any():
            return []
        if recipe is None:
            return [self.solve(matrices.copy())]
        return [holder for piece in _split(matrices, recipe) for holder in self.solve_piece(piece)]

    def solve_piece(self, matrices: np.ndarray) -> list:
        """The holder of `solve` of `matrices` (s, c, c), the pieces of a
        split, in a list, or no holder when no real or imaginary part of an
        entry of any of them passes SUPPORT_CUTOFF / (sqrt(2) c) in absolute
        value: then none of their eigenvalues passes SUPPORT_CUTOFF
        (|lambda| <= ||M||_F <= c max |M_ij|), so each piece's bits would be
        -0.0, which adds nothing: a piece that a symmetry leaves empty but
        for round-off is not diagonalized.  The parts are read by
        reductions, so no temporary of the matrices' size is made."""
        parts = (matrices.real, matrices.imag) if np.iscomplexobj(matrices) else (matrices,)
        largest = max(max(p.max(), -p.min()) for p in parts)
        return [self.solve(matrices)] if math.sqrt(2) * matrices.shape[-1] * largest > SUPPORT_CUTOFF else []

    def solve(self, matrices: np.ndarray) -> list:
        """A holder whose item is, or becomes when the waiting matrices are
        solved, the bits (`_piece_bits`) of the eigenvalues of each of
        `matrices` (s, c, c).

        A stack of BLOCK_ENTRIES entries or more, which shares its batch
        with no other matrix, is handed to the pool of `_worker_count`
        threads as it arrives, after waiting, if that many stacks are in
        flight, for the first of them to finish; its holder then also holds
        the batch's future.  With one worker it waits as the others do."""
        if matrices.shape[-1] == 1:
            return [_piece_bits(matrices[:, 0].real)]
        if self.waiting_entries + matrices.size > BLOCK_ENTRIES:
            self.flush()
        holder, key = [None], (matrices.shape[-1], matrices.dtype)
        if matrices.size >= BLOCK_ENTRIES and _worker_count() > 1:
            if len(self.running) >= _worker_count():
                self.settle(every=False)
            holder.append(_hand_off({key: [(matrices, holder)]}))
            self.running.add(holder[1])
            return holder
        self.waiting.setdefault(key, []).append((matrices, holder))
        self.waiting_entries += matrices.size
        return holder

    def flush(self) -> None:
        """Solve the waiting batch in this thread."""
        batch, self.waiting, self.waiting_entries = self.waiting, {}, 0
        _solve_batch(batch)

    def settle(self, every: bool) -> None:
        """Wait for every batch in flight, or for the first to finish, and
        raise the exception of any that failed."""
        if not self.running:
            return
        from concurrent.futures import ALL_COMPLETED, FIRST_COMPLETED, wait

        done, self.running = wait(self.running, return_when=ALL_COMPLETED if every else FIRST_COMPLETED)
        for future in done:
            future.result()

    def cancel(self) -> None:
        """Cancel the batches handed off that have not started."""
        for future in self.running:
            future.cancel()


def _solve_batch(batch: dict) -> None:
    """Solve a batch of the walk: each (width, dtype) in one
    `hermitian_eigenvalues` call, whose eigenvalues make the bits of all
    its matrices at once, and each holder gets its matrices' bits; the
    matrices of each are dropped once solved."""
    while batch:
        _, items = batch.popitem()
        together = items[0][0] if len(items) == 1 else np.concatenate([a for a, _ in items])
        solved, start = _piece_bits(hermitian_eigenvalues(together)), 0
        for a, holder in items:
            holder[0] = solved[start:start + len(a)]
            start += len(a)


@functools.lru_cache(maxsize=None)
def _worker_count() -> int:
    """The stacks that may be solved at once besides the walk: the CPUs
    this process may use over the threads of each BLAS call, at least 1.
    The BLAS's threads are the first positive integer among
    OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS, else the CPU
    count, which is what OpenBLAS takes when none is set."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return max(1, cpus // int(value))
    return 1


_pool = None  # the threads that solve the stacks handed off, made on the first hand-off


def _hand_off(batch: dict):
    """The future of `_solve_batch(batch)` on the module's pool."""
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(_worker_count(), thread_name_prefix="qcorr-eig")
    return _pool.submit(_solve_batch, batch)


def _forget_pool() -> None:
    """In a forked child the pool's threads are gone: the next hand-off
    makes a new pool."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _node_bits(pieces: list) -> np.ndarray:
    """The entropy in bits of each row of a node whose spectrum's pieces
    have the holders `pieces`: their bits added one after another, in
    spectrum order, then clipped at 0 as `_entropy_bits` clips.  The sum is
    a cumulative one, so that its order does not depend on the number of
    rows (a sum over the pieces' axis goes pairwise for a stack of one);
    with -0.0 for a piece of zeros, a row's bits are its state's alone."""
    return np.maximum(np.cumsum([holder[0] for holder in pieces], axis=0)[-1], 0.0)


def _reduced(data: np.ndarray, m: int, q: int, charged: bool) -> np.ndarray:
    """`data`, a stack of m-qubit states (blocks when `charged`), with qubit q traced out."""
    if charged:
        zero, one = trace_entries(m, q)
        reduced = data.take(zero, axis=1)
        reduced += data.take(one, axis=1)
        return reduced
    outer, inner = 1 << q, 1 << (m - q - 1)
    t = data.reshape(len(data), outer, 2, inner, outer, 2, inner)
    return (t[:, :, 0, :, :, 0, :] + t[:, :, 1, :, :, 1, :]).reshape(len(data), -1)


def _holds_shift(n: int, generators: tuple) -> bool:
    """Whether the qubit group of `generators` (as `qubit_symmetry` returns
    them) holds the shift c: C_n, D_n or S_n."""
    return bool(generators) and generators[0] == _candidates(n)[0]


def _sector_orbits(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(reps, periods): the smallest basis index of each orbit of the shift
    T in popcount sector k of n qubits, ascending, and the orbit's size."""
    rep, _, period = shift_orbits(n)
    idx = block_layout(n).sectors[k]
    reps = idx[rep[idx] == idx]
    return reps, period[reps]


@_kept_when_small
def _root_momenta(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(weights, fits) for popcount block k of an n-qubit root that the
    shift T leaves unchanged, over the representatives r_a of its orbits
    (`_sector_orbits`) and their periods p_a: weights[a, b] is
    sqrt(p_a p_b) / n, and fits[m, a] says whether m p_a = 0 mod n."""
    _, p = _sector_orbits(n, k)
    return np.sqrt(np.multiply.outer(p, p)) / n, momentum_fits(np.arange(n), p, n)


@_kept_when_small
def _root_entries(n: int, flip: bool) -> tuple[np.ndarray]:
    """(where,): the entries of an n-qubit root's flat block array that its
    momentum blocks are made from (`_Walk.momentum_pieces`) are
    blocks[where]: its 1 x 1 blocks 0 and n, then, for each block k in
    `_block_order` (under the flip, k <= n/2 only), rho[T^j r_a, r_b] in the
    order (j, a, b), over the representatives of `_sector_orbits`."""
    lay = block_layout(n)
    parts = [np.array([0, lay.offsets[n]])]
    for k in _block_order(n):
        if flip and 2 * k > n:
            continue
        reps, _ = _sector_orbits(n, k)
        images = [reps]
        for _ in range(n - 1):
            images.append(cyclic_shift(images[-1], n))
        rows = lay.offsets[k] + lay.position[np.array(images)] * lay.sizes[k]  # (j, a)
        parts.append((rows[:, :, None] + lay.position[reps]).reshape(-1))
    return (np.concatenate(parts),)


def _representative_masks(rep: np.ndarray) -> np.ndarray:
    """The nonempty masks that are their orbit's representative, ascending."""
    return np.flatnonzero(rep[1:] == np.arange(1, rep.size)) + 1


@_kept_when_small
def _gram_entries(m: int) -> tuple[np.ndarray]:
    """(where,): the flat block array (see `states.sector_views`) of a
    2^m x 2^m matrix that holds popcounts apart is matrix.reshape(-1)[where]."""
    d = 1 << m
    return (np.concatenate([(idx[:, None] * d + idx).reshape(-1) for idx in block_layout(m).sectors]),)


@functools.lru_cache(maxsize=None)
def _block_order(m: int) -> tuple[int, ...]:
    """The blocks of an m-qubit state larger than 1 x 1, in spectrum order:
    1, m - 1, 2, m - 2, ..."""
    return tuple(k for j in range(1, m // 2 + 1) for k in dict.fromkeys((j, m - j)))


@functools.lru_cache(maxsize=None)
def _ring_reflections(n: int, mask: int) -> tuple[tuple[int, ...], ...]:
    """The leg permutations of the node of `mask` (its qubits in ascending
    order are legs 0..m-1) made by the reflections q -> (j - q) mod n of the
    n-qubit ring that map its qubits onto themselves, without repeats and
    without the identity.  Each is an involution."""
    qubits = subset_qubits(mask)
    leg = {q: i for i, q in enumerate(qubits)}
    perms = (tuple(leg.get((j - q) % n, -1) for q in qubits) for j in range(n))
    return tuple(dict.fromkeys(p for p in perms if -1 not in p and p != tuple(range(len(qubits)))))


@functools.lru_cache(maxsize=None)
def _sector_image(m: int, k: int, perm: tuple[int, ...]) -> np.ndarray:
    """The position in sector k of the image of each of its basis states
    under the leg permutation `perm` (an involution) of m qubits."""
    lay = block_layout(m)
    image = np.arange(1 << m).reshape((2,) * m).transpose(perm).reshape(-1)
    out = lay.position[image[lay.sectors[k]]]
    out.flags.writeable = False
    return out


# Blocks narrower than this take no reflection: below it the gathers of the
# pieces cost more than the eigensolve work they save (in process, on
# single damped N = 8..10 rings).
REFLECTED_WIDTH = 16


@functools.lru_cache(maxsize=None)
def _block_split(m: int, k: int, reflections: tuple, flip: bool) -> tuple | None:
    """The recipe (`_split_recipe`) by which block k of an m-qubit node is
    split before its eigensolve, or None if it is solved whole.  Only the
    chosen recipe is kept.

    `flip` (the middle block of a flip-invariant stack: X^m maps its basis
    state j to c - 1 - j and fixes none) halves the block.  Of the leg
    permutations `reflections`, the first one whose recipe's pieces cost
    least, sum of size^3, splits it, or each half, again, if the block is
    REFLECTED_WIDTH wide or more and that costs less than not."""
    c = block_layout(m).sizes[k]
    chosen = _split_recipe(m, k, None, True) if flip else None
    best = _split_cost(chosen) if flip else c ** 3
    for perm in reflections if c >= REFLECTED_WIDTH else ():
        recipe = _split_recipe(m, k, perm, flip)
        if _split_cost(recipe) < best:
            best, chosen = _split_cost(recipe), recipe
    return chosen


def _split_cost(recipe: tuple) -> int:
    """The eigensolve work of a recipe's pieces: the sum of their size^3."""
    return sum(_split_cost(further) if further else rows.size ** 3 for rows, *_, further in recipe)


def _split_recipe(m: int, k: int, reflection: tuple[int, ...] | None, flip: bool) -> tuple:
    """The pieces of block k of an m-qubit node under a split that
    `_block_split` weighs: the flip's halves, each split again by
    `reflection` when there is one, or `reflection`'s pieces.  Each is
    (rows, twins, signs, weights, its own pieces) as `_involution_pieces`
    gives it: index arrays of the piece's width.

    A reflection P commutes with X^m, so it maps the flip's half of sign e,
    spanned by (e_j + e e_{c-1-j})/sqrt(2), j < c/2, onto itself as a
    signed permutation: to +the vector of P(j) when P(j) < c/2, else to
    e times that of c - 1 - P(j)."""
    c = block_layout(m).sizes[k]
    if not flip:
        return tuple(piece + ((),) for _, piece in _involution_pieces(_sector_image(m, k, reflection), np.ones(c)))
    out = []
    for e, piece in _involution_pieces(c - 1 - np.arange(c), np.ones(c)):
        further = ()
        if reflection is not None:
            image = _sector_image(m, k, reflection)[piece[0]]
            inside = image < c // 2
            halves = _involution_pieces(np.where(inside, image, c - 1 - image), np.where(inside, 1.0, e))
            further = tuple(half + ((),) for _, half in halves)
        out.append(piece + (further,))
    return tuple(out)


def _involution_pieces(image: np.ndarray, sign: np.ndarray) -> list[tuple]:
    """The pieces of a c x c matrix H left unchanged by the signed
    involution Q: e_j -> sign[j] e_{image[j]}, one per eigenvalue e of Q.

    Piece e is H on the orthonormal basis of Q's e-space: e_j for each
    fixed j with sign[j] = e, and (e_j + e sign[j] e_{image[j]})/sqrt(2) for
    each j < image[j].  Its entry (i, l), j and j' the basis states of i and
    l, is w_i w_l (H[j, j'] + e sign[j'] H[j, image[j']]), with w = 1 for a
    pair and 1/sqrt(2) for a fixed state.  Each comes as (e, (rows, twins,
    signs, weights)): the j, their images, e sign[j], and w, or None when
    it is 1 throughout."""
    at = np.arange(image.size)
    out = []
    for e in (1.0, -1.0):
        rows = at[(at < image) | ((at == image) & (sign == e))]
        if rows.size:
            fixed = image[rows] == rows
            weights = np.where(fixed, math.sqrt(0.5), 1.0) if fixed.any() else None
            out.append((e, (rows, image[rows], e * sign[rows], weights)))
    return out


def _split(matrices: np.ndarray, recipe: tuple) -> list[np.ndarray]:
    """The pieces of `recipe` (`_split_recipe`) of `matrices` (s, c, c),
    each (s, size, size), whose spectra make each matrix's: each the rows
    of its basis states, and of those the columns of the states and of their
    images, summed with the signs and weighted."""
    out = []
    for rows, twins, signs, weights, further in recipe:
        picked = matrices.take(rows, axis=1)
        piece = picked.take(rows, axis=2)
        other = picked.take(twins, axis=2)
        other *= signs
        piece += other
        if weights is not None:
            piece *= weights[:, None]
            piece *= weights
        out.extend(_split(piece, further) if further else [piece])
    return out


def relative_entropy(rho: DensityOperator, sigma: DensityOperator,
                     unit: DistanceUnit = DistanceUnit.NORMALIZED) -> float:
    """S(rho || sigma) = Tr rho (log2 rho - log2 sigma), scaled by `unit`.

    Returns +inf when the support of rho is not contained in the support of
    sigma (support membership uses the 1e-12 eigenvalue cutoff).
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"operands act on different registers ({rho.dim} vs {sigma.dim})")
    rho_vals = hermitian_eigenvalues(rho.matrix)
    sig_vals, sig_vecs = hermitian_eigensystem(sigma.matrix)
    # Weight of rho on each eigenvector of sigma.
    weights = np.einsum("ji,jk,ki->i", sig_vecs.conj(), rho.matrix, sig_vecs).real
    outside = sig_vals <= SUPPORT_CUTOFF
    if float(weights[outside].sum()) > SUPPORT_CUTOFF:
        return math.inf
    tr_rho_log_rho = -float(_entropy_bits(rho_vals))
    inside = ~outside
    tr_rho_log_sig = float((weights[inside] * np.log2(sig_vals[inside])).sum())
    bits = tr_rho_log_rho - tr_rho_log_sig
    # Klein's inequality makes the exact value non-negative; round-off may not.
    return max(bits, 0.0) * unit.factor


def mutual_information(rho: DensityOperator, part_a: int,
                       unit: DistanceUnit = DistanceUnit.NORMALIZED) -> float:
    """I(A:B) = S(rho_A) + S(rho_B) - S(rho) across the bipartition (A, rest).

    Equal to the relative entropy between rho and the product of its two
    marginals, but evaluated through reduced-state entropies only, which is
    stable even when the marginals are singular.
    """
    n = rho.num_qubits
    check_subset(part_a, n, allow_empty=True)
    part_b = full_mask(n) ^ part_a
    if part_a == 0 or part_b == 0:
        raise InvalidBipartition("both blocks of a bipartition must be non-empty")
    bits = (subset_entropy(rho, part_a) + subset_entropy(rho, part_b)
            - subset_entropy(rho, full_mask(n)))
    return max(bits, 0.0) * unit.factor


def multi_information(rho: DensityOperator,
                      unit: DistanceUnit = DistanceUnit.NORMALIZED) -> float:
    """Total correlations T_V = sum_i S(rho_i) - S(rho) over single qubits."""
    n = rho.num_qubits
    if n < 2:
        raise OutOfRange("total correlations need at least two qubits")
    return total_correlations(lambda mask: subset_entropy(rho, mask), n, unit)


def total_correlations(entropy, n: int, unit: DistanceUnit = DistanceUnit.NORMALIZED) -> float:
    """T_V of an n-qubit state from `entropy`, which gives S(rho_A) in bits
    for a mask A (a `subset_entropies` table's `__getitem__`, say)."""
    bits = -entropy(full_mask(n))
    for q in range(n):
        bits += entropy(1 << q)
    return max(bits, 0.0) * unit.factor
