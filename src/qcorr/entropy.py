"""Entropy kernels: von Neumann entropy, relative entropy, mutual information.

Subset entropies S(rho_A) come from one of two spectra.  A state that carries
a factor V (rho = V V^dagger: a `PureState`, a `DensityOperator` built by
`from_factor`, or one certified of low rank when its positivity was
checked) gives rho_A's nonzero spectrum as that of the smaller Gram
matrix of V reshaped to 2^|A| x (2^(n-|A|) r), with no partial trace.  Any
other state is reduced and its reduced data diagonalized: one subset at a
time by `partial_trace`, or, for the whole table that `ccm` needs, by
`subset_entropies`, which walks a tree of subsets, tracing one qubit at a
time out of a parent subset (`_walk_tree`).  The whole register's entropy
comes from the spectrum that the positivity check kept, when there is one.
The table diagonalizes one subset per orbit of the qubit permutations that
leave the state unchanged (`qubit_symmetry` finds generators of that group,
and `orbit_representatives` closes the masks under any generator list).

One walk serves every state without a factor, and carries a leading stack
axis: `subset_entropies_many` walks the states of a list that share register
size, qubit group, form and dtype together (`_walk_tree`).  A state with
popcount blocks (`DensityOperator.blocks`: damped XXZ and double-XXZ ground
states) is carried as blocks all the way down, since a partial trace keeps
the zeros between popcounts; any other state is the one-block case.  A block that is 0.0 in every stacked state is
not diagonalized, and the others wait with the equal blocks of every subset
of their size for one stacked `hermitian_eigenvalues` call.  A phase-damped
N = 8 ring's largest eigensolve is 70 instead of 256, and its 29 subsets
take 10 calls.

All entropies use log base 2 internally.  Results can be reported either in
bits or in "normalized" units (bits / 2), the scale on which one Bell pair
sits at distance 1 from its closest product state.  Normalized is the default
everywhere.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidBipartition, OutOfRange
from .linalg import hermitian_eigensystem, hermitian_eigenvalues
from .states import (
    BLOCK_ENTRIES,
    SUPPORT_CUTOFF,
    DensityOperator,
    PureState,
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
    """S(rho) = -sum_i lam_i log2 lam_i, in bits.

    Eigenvalues <= 1e-12 (including round-off negatives) contribute zero.
    The spectrum kept by the positivity check is used when there is one;
    otherwise a state with a factor V takes the spectrum of the smaller Gram
    matrix of V (r x r for r columns, see `subset_entropy`), so its
    2^n x 2^n matrix is neither formed nor diagonalized.
    """
    vals = rho.spectrum
    if vals is None and rho.factor is not None:
        return subset_entropy(rho, full_mask(rho.num_qubits))
    return _entropy_bits(hermitian_eigenvalues(rho.matrix) if vals is None else vals)


def _entropy_bits(vals: np.ndarray) -> float:
    vals = vals[vals > SUPPORT_CUTOFF]
    if vals.size == 0:
        return 0.0
    return max(float(-(vals * np.log2(vals)).sum()), 0.0)


def subset_entropy(state: PureState | DensityOperator, mask: int) -> float:
    """S(rho_A) in bits for the qubits A in `mask` (non-empty).

    Uses the state's factor when it has one, otherwise the partial trace;
    the whole register of a dense state uses its kept spectrum, if any.
    """
    n = state.num_qubits
    v = state.factor
    if v is None:
        return von_neumann_entropy(state if mask == full_mask(n) else partial_trace(state, mask))
    check_subset(mask, n)
    kept = subset_qubits(mask)
    traced = [q for q in range(n) if not (mask >> q) & 1]
    # Rows index A's basis states; columns index the rest and V's columns.
    m = v.reshape((2,) * n + (v.shape[1],)).transpose(kept + traced + [n])
    m = m.reshape(1 << len(kept), -1)
    gram = m @ m.conj().T if m.shape[0] <= m.shape[1] else m.conj().T @ m
    return _entropy_bits(hermitian_eigenvalues(gram))


def qubit_symmetry(state: PureState | DensityOperator) -> tuple[tuple[int, ...], ...]:
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
    with the swap).  Ring ground states, damped or not, pass with trace
    norms below 1e-13.
    """
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


def _moves_by_at_most_cutoff(state: PureState | DensityOperator, perm: tuple[int, ...]) -> bool:
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

    `representatives[A]` is the smallest mask of A's orbit under the state's
    qubit symmetry; A's entry is a copy of that mask's.
    """

    __slots__ = ("representatives",)


# Root entries, summed over its states, of one stack of `_walk_tree`; past
# it a list is walked in several stacks (a larger state alone).
STACK_ENTRIES = 1 << 18


def subset_entropies(state: PureState | DensityOperator) -> SubsetTable:
    """S(rho_A) in bits for every mask A of the register, indexed by mask
    (entry 0, the empty set, is 0).

    Subsets related by a qubit permutation that leaves the state unchanged
    have equal entropies, so the group of such permutations is found first
    (`qubit_symmetry`) and only the smallest mask of each orbit is
    diagonalized; every other mask copies its representative's entry.  With
    the trivial group every mask is its own representative.

    A state with a factor takes `subset_entropy`'s Gram path for each
    representative; when the factor is one column (a pure state), S(A) =
    S(rest of A), so a representative whose complement's orbit comes earlier
    copies that entry, and the whole register gets 0.  Any other state is
    reduced along a tree by `_walk_tree`, as a stack of one.
    """
    return subset_entropies_many([state])[0]


def subset_entropies_many(states: Sequence[PureState | DensityOperator]) -> list[SubsetTable]:
    """`subset_entropies` of each state, bit for bit, in order.  States
    without a factor of one register size, qubit group, form (blocks or one
    block), dtype and kept spectrum or none take the same gathers, so they
    are walked as one stack of up to STACK_ENTRIES root entries."""
    tables: list = [None] * len(states)
    stacks: dict[tuple, list[int]] = {}
    for i, state in enumerate(states):
        n, generators = state.num_qubits, qubit_symmetry(state)
        if state.factor is None:
            data = state.matrix if state.blocks is None else state.blocks
            key = (n, generators, state.blocks is not None, data.dtype, state.spectrum is not None)
            stacks.setdefault(key, []).append(i)
            continue
        rep = orbit_representatives(n, generators).tolist()
        full, pure = full_mask(n), state.factor.shape[1] == 1
        table = [0.0] * (1 << n)
        for mask in range(1, 1 << n):
            if rep[mask] == mask:
                twin = rep[full ^ mask]
                table[mask] = table[twin] if pure and twin < mask else subset_entropy(state, mask)
        tables[i] = _subset_table(table, rep)
    for (n, generators, charged, _, _), members in stacks.items():
        rep = orbit_representatives(n, generators).tolist()
        per = max(1, STACK_ENTRIES // (math.comb(2 * n, n) if charged else 1 << 2 * n))
        for start in range(0, len(members), per):
            chunk = members[start:start + per]
            for i, table in zip(chunk, _walk_tree([states[i] for i in chunk], charged, rep)):
                tables[i] = _subset_table(table, rep)
    return tables


def _subset_table(table: list[float], rep: list[int]) -> SubsetTable:
    out = SubsetTable(table[r] for r in rep)
    out.representatives = rep
    return out


def _walk_tree(states: list[DensityOperator], charged: bool, rep: list[int]) -> list[list[float]]:
    """The entropy of every representative of `rep` for each of `states`, a
    stack of one key of `subset_entropies_many` (blocks when `charged`).

    Every array of the walk has a leading axis over the states.  The parent
    of a subset is the subset plus its lowest missing qubit, and a child's
    data are its parent's with that qubit traced out.  The parent of a
    representative is a representative too (a smallest mask stays smallest
    in its orbit when its lowest missing qubit is added, as tests check for
    every generator list `qubit_symmetry` returns up to n = 14), so only
    representatives are reduced.  The
    walk is depth first: only the data on the current path and those
    waiting for their eigensolve are alive.

    Blocks are reduced by two index gathers (`trace_entries`), one block by
    a reshape and the sum of two slices.  The 1 x 1 blocks are read off; a
    block that is 0.0 in every state is not diagonalized (its eigenvalues
    are 0, outside the support); every other matrix waits for one
    `hermitian_eigenvalues` call per (subset size, block size), made before
    more than BLOCK_ENTRIES entries would wait.  The root takes the spectra
    the positivity check kept, if any.  Each spectrum is in the order 1 x 1
    blocks, then blocks 1, m - 1, 2, m - 2, ...
    """
    n, size = states[0].num_qubits, len(states)
    waiting: dict[tuple[int, int], list] = {}  # (m, c) -> [(stack (size, c, c), mask, slot)]
    entries = 0
    spectra: dict[int, list] = {}

    def flush() -> None:
        nonlocal entries
        for items in waiting.values():
            stack = items[0][0] if len(items) == 1 else np.concatenate([a for a, _, _ in items])
            solved = hermitian_eigenvalues(stack).reshape(len(items), size, -1)
            for vals, (_, mask, slot) in zip(solved, items):
                spectra[mask][slot] = vals
        waiting.clear()
        entries = 0

    def wait(m: int, stack: np.ndarray, mask: int, slot: int) -> None:
        nonlocal entries
        if entries + stack.size > BLOCK_ENTRIES:
            flush()
        waiting.setdefault((m, stack.shape[-1]), []).append((stack, mask, slot))
        entries += stack.size

    def visit(data: np.ndarray, mask: int, m: int, low: int, known: np.ndarray | None = None) -> None:
        if known is not None:
            spectra[mask] = [known]
        elif charged:
            lay, order = block_layout(m), _block_order(m)
            spectra[mask] = [data[:, [0, lay.offsets[m]]].real] + [None] * len(order)
            for slot, k in enumerate(order, 1):
                block = data[:, lay.offsets[k]:lay.offsets[k + 1]]
                if block.any():  # else the slot stays None
                    c = lay.sizes[k]
                    wait(m, block.reshape(size, c, c), mask, slot)
        else:
            d = 1 << m
            spectra[mask] = [None]
            wait(m, data.reshape(size, d, d), mask, 0)
        if m == 1:
            return
        for q in range(low):  # leg q of the data is qubit q: qubits 0..low-1 are all in `mask`
            child = mask & ~(1 << q)
            if rep[child] != child:
                continue
            if charged:
                zero, one = trace_entries(m, q)
                reduced = data.take(zero, axis=1)
                reduced += data.take(one, axis=1)
            else:
                outer, inner = 1 << q, 1 << (m - q - 1)
                t = data.reshape(size, outer, 2, inner, outer, 2, inner)
                reduced = (t[:, :, 0, :, :, 0, :] + t[:, :, 1, :, :, 1, :]).reshape(size, -1)
            # The child is passed unbound: once its subtree is queued, only the
            # stacks still waiting for their eigensolve keep it alive.
            visit(reduced, child, m - 1, q)

    def stacked(arrays: list[np.ndarray]) -> np.ndarray:
        return arrays[0][None] if size == 1 else np.stack(arrays)  # one state is not copied

    kept = None if states[0].spectrum is None else stacked([s.spectrum for s in states])
    visit(stacked([s.blocks if charged else s.matrix.reshape(-1) for s in states]),
          full_mask(n), n, n, kept)
    flush()
    tables = [[0.0] * (1 << n) for _ in states]
    for mask, spectrum in spectra.items():
        pieces = [p for p in spectrum if p is not None]
        vals = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)
        for table, row in zip(tables, vals):
            table[mask] = _entropy_bits(row)
    return tables


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
    tr_rho_log_rho = -_entropy_bits(rho_vals)
    inside = ~outside
    tr_rho_log_sig = float((weights[inside] * np.log2(sig_vals[inside])).sum())
    bits = tr_rho_log_rho - tr_rho_log_sig
    # Klein's inequality makes the exact value non-negative; round-off may not.
    return max(bits, 0.0) * unit.factor


def mutual_information(rho: PureState | DensityOperator, part_a: int,
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


def multi_information(rho: PureState | DensityOperator,
                      unit: DistanceUnit = DistanceUnit.NORMALIZED) -> float:
    """Total correlations T_V = sum_i S(rho_i) - S(rho) over single qubits."""
    n = rho.num_qubits
    if n < 2:
        raise OutOfRange("total correlations need at least two qubits")
    bits = -subset_entropy(rho, full_mask(n))
    for q in range(n):
        bits += subset_entropy(rho, 1 << q)
    return max(bits, 0.0) * unit.factor
