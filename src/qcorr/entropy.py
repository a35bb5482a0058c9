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
the same register size, qubit group, rank and dtype, each reduced by one
transpose and one stacked Gram product per representative subset; any
other state has its root visited as it arrives, and its children walked
with those of the states that share register size, qubit group, form,
dtype and spin flip (`_Walk`).  A state with popcount blocks
(`DensityOperator.blocks`: damped XXZ and double-XXZ ground states) is
carried as blocks all the way down, since a partial trace keeps the zeros
between popcounts; any other state is the one-block case.  A block that is
0.0 in every stacked state is not diagonalized, and the others, and the
Gram matrices, wait with the equal matrices of every subset of their size
for one stacked `hermitian_eigenvalues` call.  When the spin flip X^n
leaves the state unchanged (`_flips_by_at_most_cutoff`), block m - k takes
block k's spectrum and the middle block is solved as two halves.  A
phase-damped N = 8 ring's largest eigensolve is 35 instead of 256, and its
29 subsets take 9 calls.

All entropies use log base 2 internally.  Results can be reported either in
bits or in "normalized" units (bits / 2), the scale on which one Bell pair
sits at distance 1 from its closest product state.  Normalized is the default
everywhere.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, InvalidBipartition, OutOfRange
from .linalg import hermitian_eigensystem, hermitian_eigenvalues
from .states import (
    BLOCK_ENTRIES,
    SUPPORT_CUTOFF,
    DensityOperator,
    block_layout,
    check_subset,
    full_mask,
    partial_trace,
    permuted_entries,
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
    kept = np.where(vals > SUPPORT_CUTOFF, vals, 1.0)
    return np.maximum(-(kept * np.log2(kept)).sum(axis=-1), 0.0)


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
    with the swap), and the walk's spin flip adds one more.  Ring ground
    states, damped or not, pass with trace norms below 1e-13.

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
    D = W W^dagger - V V^dagger for the permuted factor W; if [W V] = Q R,
    then ||D||_1 is the trace norm of the 2r x 2r matrix R J R^dagger, with
    J = diag(1, -1) on W's and V's columns, so it is exact and costs
    O(d r^2).  Any other state is bounded by ||D||_1 <= sqrt(d) ||D||_F,
    with ||D||_F summed over pieces of BLOCK_ENTRIES entries so that no
    second full-size array is made: over its popcount blocks, which a qubit
    permutation maps onto themselves, when it has them, else over rows.
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
        r = v.shape[1]
        w = v.reshape(shape + (r,)).transpose((*perm, n)).reshape(v.shape)
        rr = np.linalg.qr(np.hstack([w, v]), mode="r")
        small = rr[:, :r] @ rr[:, :r].conj().T - rr[:, r:] @ rr[:, r:].conj().T
        return float(np.linalg.norm(small, "nuc")) <= SUPPORT_CUTOFF
    d = 1 << n
    limit = SUPPORT_CUTOFF ** 2 / d  # on ||D||_F^2
    total = 0.0
    if blocks is not None:
        (where,) = permuted_entries(n, perm)
        for start in range(0, blocks.size, BLOCK_ENTRIES):
            piece = blocks.take(where[start:start + BLOCK_ENTRIES])
            piece -= blocks[start:start + BLOCK_ENTRIES]
            total += float(np.vdot(piece, piece).real)
            if total > limit:
                return False
        return True
    m = state.matrix
    index = np.arange(d).reshape(shape).transpose(perm).reshape(-1)
    rows = max(1, BLOCK_ENTRIES // d)
    for start in range(0, d, rows):
        block = m[np.ix_(index[start:start + rows], index)]
        block -= m[start:start + rows]
        total += float(np.vdot(block, block).real)
        if total > limit:
            return False
    return True


def _flips_by_at_most_cutoff(state: DensityOperator) -> bool:
    """Whether the spin flip X^n (every qubit's X) changes `state`, which
    has popcount blocks, by at most SUPPORT_CUTOFF in trace norm: the test
    and budget of `_moves_by_at_most_cutoff`.

    X^n maps basis index i to d - 1 - i, so popcount k to n - k in reversed
    order: the flipped state's block k is block n - k with its rows and
    columns reversed, and its flat block array is the state's, reversed.
    The reversed diagonal is compared first; then sqrt(d) ||D||_F, where
    D = reversed - blocks is odd under reversal, so its first half holds
    half of ||D||_F^2.
    """
    n, blocks = state.num_qubits, state.blocks
    diag = blocks[block_layout(n).diagonal].real
    if float(np.abs(diag[::-1] - diag).sum()) > SUPPORT_CUTOFF:
        return False
    limit = SUPPORT_CUTOFF ** 2 / (2 << n)  # on the first half's share of ||D||_F^2
    flipped, half, total = blocks[::-1], blocks.size // 2, 0.0
    for start in range(0, half, BLOCK_ENTRIES):
        stop = min(start + BLOCK_ENTRIES, half)
        piece = flipped[start:stop] - blocks[start:stop]
        total += float(np.vdot(piece, piece).real)
        if total > limit:
            return False
    return True


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
# representative children of the roots of states without a factor, and the
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
    same register size, qubit group, rank and dtype, and any other state has
    its root visited alone and its representative children wait with those
    of the states before it of the same register size, qubit group, form
    (blocks or one block), dtype and spin flip, each to be walked as one
    stack.  No state is held once it has been reduced, so a generator of
    states is reduced in the memory of one state, the waiting factors and
    children, and the matrices waiting for their eigensolve.
    """
    walk = _Walk()
    tables = []
    for state in states:
        n, generators = state.num_qubits, qubit_symmetry(state)
        rep, table = orbit_representatives(n, generators), np.zeros(1 << n)
        walk.add(state, generators, rep, table)
        tables.append((table, rep))
    walk.finish()
    return [_subset_table(table, rep) for table, rep in tables]


def _subset_table(table: np.ndarray, rep: np.ndarray) -> SubsetTable:
    out = SubsetTable(table[rep].tolist())
    out.representatives = rep
    return out


class _Stack:
    """States walked together, each with the table its entropies go to, and
    the spectrum pieces of every mask they have reached: one holder per
    piece, a one-item list filled when its eigensolve is made (a block and
    its spin-flip twin share one).  A stack of factors keeps them until it
    is walked, and, when they are one column, the masks that copy the entry
    of their complement's representative."""

    __slots__ = ("charged", "flip", "rep", "tables", "spectra", "children", "factors", "copies")

    def __init__(self, charged: bool, flip: bool, rep: np.ndarray):
        self.charged, self.flip, self.rep = charged, flip, rep
        self.tables: list[np.ndarray] = []
        self.spectra: dict[int, list[list]] = {}
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
    first, and copies that entry once the entropies are written.

    Any other state is reduced along a tree.  The parent of a subset is the
    subset plus its lowest missing qubit, and a child's data are its
    parent's with that qubit traced out.  The parent of a representative is
    a representative too (a smallest mask stays smallest in its orbit when
    its lowest missing qubit is added, as tests check for every generator
    list `qubit_symmetry` returns up to n = 14), so only representatives are
    reduced.  A state's root is visited when it arrives, and only its
    representative children are kept, to wait with those of the earlier
    states of its key.

    At most STACK_ENTRIES factor and child entries wait in all.  Before a
    state's would pass that, every waiting stack is walked, the children
    depth first; a state whose entries alone pass it is walked alone
    without waiting (depth first from its root, for a state without a
    factor).

    Blocks are reduced by two index gathers (`trace_entries`), one block by
    a reshape and the sum of two slices.  The 1 x 1 blocks are read off; a
    block that is 0.0 in every state of a stack is not diagonalized (its
    eigenvalues are 0, outside the support).  A stack that is invariant
    under the spin flip X^n (`_flips_by_at_most_cutoff`) stays so under
    every partial trace: at each node block m - k takes block k's spectrum,
    and the middle block B of width c is solved as its two c/2-wide halves
    T +- F, T = B[:h, :h] and F = B[:h, h:] with its columns reversed.
    Every other matrix, and every Gram matrix, waits for one
    `hermitian_eigenvalues` call per (subset size, matrix size, dtype),
    shared by every stack, made before more than BLOCK_ENTRIES entries
    would wait.  A root takes the spectrum the positivity check kept, if
    any.  Each spectrum is in the order 1 x 1 blocks, then blocks 1, m - 1,
    2, m - 2, ...
    """

    def __init__(self):
        self.waiting: dict[tuple, list] = {}  # (m, c, dtype) -> [(matrices (s, c, c), holder)]
        self.waiting_entries = 0
        self.stacks: dict[tuple, _Stack] = {}
        self.stacked_entries = 0
        self.queued: list[_Stack] = []  # walked; their last eigensolves wait

    def add(self, state: DensityOperator, generators: tuple, rep: np.ndarray, table: np.ndarray) -> None:
        n, v = state.num_qubits, state.factor
        if v is not None:
            alone = v.size > STACK_ENTRIES
            stack = _Stack(False, False, rep)
            if not alone:
                stack = self.waiting_stack((n, generators, v.shape[1], v.dtype), v.size, stack)
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
        alone = entries > STACK_ENTRIES
        root = _Stack(charged, flip, rep)
        root.tables.append(table)
        self.visit(root, data, full, n, n, known, descend=alone)
        self.queued.append(root)
        if alone or not children:
            return
        key = (n, generators, charged, data.dtype, flip)
        stack = self.waiting_stack(key, entries, _Stack(charged, flip, rep))
        stack.tables.append(table)
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
        masks = _representative_masks(stack.rep)
        if factors.shape[2] == 1:
            twins = stack.rep[full_mask(n) ^ masks]
            first = twins < masks
            stack.copies = masks[first], twins[first]
            masks = masks[~first]
        for mask in masks.tolist():
            stack.spectra[mask] = [self.solve(bin(mask).count("1"), _grams(factors, mask))]
        self.queued.append(stack)

    def finish(self) -> None:
        self.walk_stacks()
        self.flush()

    def visit(self, stack: _Stack, data: np.ndarray, mask: int, m: int, low: int,
              known: np.ndarray | None = None, descend: bool = True) -> None:
        if known is not None:
            stack.spectra[mask] = [[known]]
        elif stack.charged:
            stack.spectra[mask] = self.block_pieces(data, m, stack.flip)
        else:
            d = 1 << m
            stack.spectra[mask] = [self.solve(m, data.reshape(-1, d, d))]
        if not descend or m == 1:
            return
        for q in range(low):  # leg q of the data is qubit q: qubits 0..low-1 are all in `mask`
            child = mask & ~(1 << q)
            if stack.rep[child] == child:
                self.visit(stack, _reduced(data, m, q, stack.charged), child, m - 1, q)

    def block_pieces(self, data: np.ndarray, m: int, flip: bool) -> list[list]:
        """The holders of the spectrum of each state of `data`, blocks of an
        m-qubit state, in spectrum order."""
        lay = block_layout(m)
        pieces, twin = [[data[:, [0, lay.offsets[m]]].real]], None
        for k in _block_order(m):
            if flip and 2 * k > m:  # block m - k, just before, is its flip
                if twin is not None:
                    pieces.append(twin)
                continue
            c = lay.sizes[k]
            block = data[:, lay.offsets[k]:lay.offsets[k + 1]].reshape(-1, c, c)
            twin = None
            if not block.any():
                continue
            if flip and 2 * k == m:  # X^m maps the middle block onto itself
                h = c // 2
                t, f = block[:, :h, :h], block[:, :h, h:][:, :, ::-1]
                pieces.extend(self.solve(m, half) for half in (t + f, t - f) if half.any())
            else:  # a copy: the waiting matrix does not keep `data` alive
                twin = self.solve(m, block.copy())
                pieces.append(twin)
        return pieces

    def solve(self, m: int, matrices: np.ndarray) -> list:
        """A holder whose item is, or becomes when the waiting matrices are
        solved, the eigenvalues of each of `matrices` (s, c, c)."""
        if matrices.shape[-1] == 1:
            return [matrices[:, 0].real]
        if self.waiting_entries + matrices.size > BLOCK_ENTRIES:
            self.flush()
        holder = [None]
        self.waiting.setdefault((m, matrices.shape[-1], matrices.dtype), []).append((matrices, holder))
        self.waiting_entries += matrices.size
        return holder

    def flush(self) -> None:
        """Solve every waiting matrix, then write the entropies of every
        stack that has been walked, whose holders are now all filled."""
        for items in self.waiting.values():
            together = items[0][0] if len(items) == 1 else np.concatenate([a for a, _ in items])
            solved, start = hermitian_eigenvalues(together), 0
            for matrices, holder in items:
                holder[0] = solved[start:start + len(matrices)]
                start += len(matrices)
        self.waiting.clear()
        self.waiting_entries = 0
        for stack in self.queued:
            masks = np.fromiter(stack.spectra, dtype=np.intp, count=len(stack.spectra))
            bits = np.empty((len(stack.tables), masks.size))
            for j, pieces in enumerate(stack.spectra.values()):
                vals = pieces[0][0] if len(pieces) == 1 else np.concatenate([p[0] for p in pieces], axis=1)
                bits[:, j] = _entropy_bits(vals)
            for table, row in zip(stack.tables, bits):
                table[masks] = row
                if stack.copies is not None:
                    to, source = stack.copies
                    table[to] = table[source]
        self.queued.clear()


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


def _representative_masks(rep: np.ndarray) -> np.ndarray:
    """The nonempty masks that are their orbit's representative, ascending."""
    return np.flatnonzero(rep[1:] == np.arange(1, rep.size)) + 1


@functools.lru_cache(maxsize=None)
def _block_order(m: int) -> tuple[int, ...]:
    """The blocks of an m-qubit state larger than 1 x 1, in spectrum order:
    1, m - 1, 2, m - 2, ..."""
    return tuple(k for j in range(1, m // 2 + 1) for k in dict.fromkeys((j, m - j)))


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
    bits = -subset_entropy(rho, full_mask(n))
    for q in range(n):
        bits += subset_entropy(rho, 1 << q)
    return max(bits, 0.0) * unit.factor
