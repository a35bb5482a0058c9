"""Entropy kernels: von Neumann entropy, relative entropy, mutual information.

Subset entropies S(rho_A) come from one of two spectra.  A state that carries
a factor V (rho = V V^dagger: a `PureState`, a `DensityOperator` built by
`from_factor`, or a numerically low-rank one that got V when its positivity
was checked) gives rho_A's nonzero spectrum as that of the smaller Gram
matrix of V reshaped to 2^|A| x (2^(n-|A|) r), with no partial trace.  Any
other state is reduced and its reduced matrix diagonalized: one subset at a
time by `partial_trace`, or, for the whole table that `ccm` needs, by
`subset_entropies`, which traces one qubit at a time out of a parent subset.
The whole register's entropy comes from the spectrum that the positivity
check kept, when there is one.  The table diagonalizes one subset per orbit
of the qubit permutations that leave the state unchanged (`qubit_symmetry`,
`orbit_representatives`).

A dense state whose entries between basis states of different popcount (the
magnetization of a spin ring: XXZ and double-XXZ ground states, damped or
not) are exactly 0.0 conserves it (`states.holds_popcount`).  A partial
trace keeps those zeros, so every matrix of its table is diagonalized one
popcount sector of its local index at a time: the sectors of each size as
one batched stack, the 1 x 1 sectors read off the diagonal.  Only exact
zeros count, and any other state is diagonalized whole.  The damped N = 8
ring's largest eigensolve is 70 instead of 256, N = 10's 252 instead of
1024.

All entropies use log base 2 internally.  Results can be reported either in
bits or in "normalized" units (bits / 2), the scale on which one Bell pair
sits at distance 1 from its closest product state.  Normalized is the default
everywhere.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DimensionMismatch, InvalidBipartition, OutOfRange
from .linalg import hermitian_eigensystem, hermitian_eigenvalues
from .states import (
    BLOCK_ENTRIES,
    SUPPORT_CUTOFF,
    DensityOperator,
    PureState,
    check_subset,
    full_mask,
    holds_popcount,
    partial_trace,
    popcount_blocks,
    subset_qubits,
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


class QubitGroup(enum.Enum):
    """Group of qubit permutations that leaves a state unchanged (see `qubit_symmetry`)."""

    TRIVIAL = "trivial"
    CYCLIC = "cyclic"        # C_n: the shifts q -> q + k mod n
    DIHEDRAL = "dihedral"    # D_n: the shifts and the reflection q -> n - 1 - q
    SYMMETRIC = "symmetric"  # S_n: every permutation


def qubit_symmetry(state: PureState | DensityOperator) -> QubitGroup:
    """The group of qubit permutations found to leave `state` unchanged.

    Three generators are tested: the shift c (q -> q + 1 mod n), the
    transposition (0 1) and the reflection r (q -> n - 1 - q).  c and (0 1)
    generate S_n, c and r generate D_n, c alone C_n; without c the group is
    trivial.  A generator passes when it changes the state by at most
    SUPPORT_CUTOFF in trace norm (see `_moves_by_at_most_cutoff`), the budget
    intake accepts for the eigenvalues a factor drops, so by the
    Fannes-Audenaert bound it moves no subset entropy by more than about
    3e-11 bits; a permutation that takes L generators moves them by at most
    L times that.  Ring ground states, damped or not, pass with trace norms
    below 1e-13.
    """
    n = state.num_qubits
    if n < 2 or not _moves_by_at_most_cutoff(state, [*range(1, n), 0]):
        return QubitGroup.TRIVIAL
    if _moves_by_at_most_cutoff(state, [1, 0, *range(2, n)]):
        return QubitGroup.SYMMETRIC
    if _moves_by_at_most_cutoff(state, list(range(n - 1, -1, -1))):
        return QubitGroup.DIHEDRAL
    return QubitGroup.CYCLIC


def _moves_by_at_most_cutoff(state: PureState | DensityOperator, perm: list[int]) -> bool:
    """Whether permuting the qubits of `state` by `perm` (an axis order, as
    for `np.transpose`) changes it by at most SUPPORT_CUTOFF in trace norm
    ||D||_1, where D is the permuted state minus the state.

    The permuted diagonal is compared first: ||D||_1 >= sum_i |D_ii|, so a
    state that fails there is rejected in O(2^n).  With a factor V (d x r),
    D = W W^dagger - V V^dagger for the permuted factor W; if [W V] = Q R,
    then ||D||_1 is the trace norm of the 2r x 2r matrix R J R^dagger, with
    J = diag(1, -1) on W's and V's columns, so it is exact and costs
    O(d r^2).  A dense state is bounded by ||D||_1 <= sqrt(d) ||D||_F, with
    ||D||_F summed over blocks of rows so that no second full-size matrix is
    made.
    """
    n = state.num_qubits
    shape = (2,) * n
    v = state.factor
    diag = (np.abs(v) ** 2).sum(axis=1) if v is not None else state.matrix.diagonal().real
    if float(np.abs(diag.reshape(shape).transpose(perm).reshape(-1) - diag).sum()) > SUPPORT_CUTOFF:
        return False
    if v is not None:
        r = v.shape[1]
        w = v.reshape(shape + (r,)).transpose(perm + [n]).reshape(v.shape)
        rr = np.linalg.qr(np.hstack([w, v]), mode="r")
        small = rr[:, :r] @ rr[:, :r].conj().T - rr[:, r:] @ rr[:, r:].conj().T
        return float(np.linalg.norm(small, "nuc")) <= SUPPORT_CUTOFF
    m = state.matrix
    d = m.shape[0]
    index = np.arange(d).reshape(shape).transpose(perm).reshape(-1)
    limit = SUPPORT_CUTOFF ** 2 / d  # on ||D||_F^2
    rows = max(1, BLOCK_ENTRIES // d)
    total = 0.0
    for start in range(0, d, rows):
        block = m[np.ix_(index[start:start + rows], index)]
        block -= m[start:start + rows]
        total += float(np.vdot(block, block).real)
        if total > limit:
            return False
    return True


def orbit_representatives(num_qubits: int, group: QubitGroup) -> np.ndarray:
    """The smallest mask of each mask's orbit under `group`, indexed by mask."""
    n = num_qubits
    masks = np.arange(1 << n)
    if group is QubitGroup.TRIVIAL:
        return masks
    bits = [(masks >> q) & 1 for q in range(n)]
    if group is QubitGroup.SYMMETRIC:
        return (1 << sum(bits)) - 1  # an orbit is a subset size
    full = full_mask(n)
    starts = [masks]
    if group is QubitGroup.DIHEDRAL:
        starts.append(sum(b << (n - 1 - q) for q, b in enumerate(bits)))  # reflected
    reps = masks
    for start in starts:
        for k in range(1, n + 1):
            reps = np.minimum(reps, ((start << k) | (start >> (n - k))) & full)
    return reps


class SubsetTable(list):
    """S(rho_A) in bits indexed by mask A, as made by `subset_entropies`.

    `representatives[A]` is the smallest mask of A's orbit under the state's
    qubit symmetry; A's entry is a copy of that mask's.
    """

    __slots__ = ("representatives",)


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
    copies that entry, and the whole register gets 0.  A dense state is
    reduced along a tree: the parent of a subset is the subset plus its
    lowest missing qubit, and a child's matrix is its parent's with one qubit
    traced out.  The parent of a representative is a representative too (a
    smallest mask stays smallest in its orbit when its lowest missing qubit
    is added, for every group and register size `ccm` takes), so only
    representatives are reduced and diagonalized.  The root takes the
    spectrum the positivity check kept, if any.  The tree is walked depth
    first, so only the matrices on the current path are alive, and no
    reduced matrix is re-validated.
    """
    n = state.num_qubits
    full = full_mask(n)
    rep = orbit_representatives(n, qubit_symmetry(state)).tolist()
    table = [0.0] * (1 << n)
    if state.factor is not None:
        pure = state.factor.shape[1] == 1
        for mask in range(1, 1 << n):
            if rep[mask] == mask:
                twin = rep[full ^ mask]
                table[mask] = table[twin] if pure and twin < mask else subset_entropy(state, mask)
    else:
        matrix = state.matrix
        _reduce_along_tree(matrix, full, n, table, rep, holds_popcount(matrix), state.spectrum)
    out = SubsetTable(table[r] for r in rep)
    out.representatives = rep
    return out


def _reduce_along_tree(matrix: np.ndarray, mask: int, low: int, table: list[float],
                       rep: list[int], split: bool,
                       spectrum: np.ndarray | None = None) -> None:
    """Fill `table` for the representative `mask`, whose reduced matrix is
    `matrix` (with eigenvalues `spectrum`, if known), and for every
    representative below it.  `low` is the lowest qubit missing from `mask`
    (n for the whole register); its children drop one qubit q < low, which
    is leg q of `matrix` because qubits 0..low-1 are all in `mask`.  With
    `split`, every matrix of the tree holds its popcounts apart (see
    `popcount_blocks`) and is diagonalized sector by sector: the 1 x 1
    sectors are read off the diagonal, and the sectors of each larger size
    are diagonalized as one stack."""
    if spectrum is None:
        singles, stacks = popcount_blocks(matrix, split)
        spectrum = np.concatenate([singles, *(hermitian_eigenvalues(s).reshape(-1) for s in stacks)])
    table[mask] = _entropy_bits(spectrum)
    d = matrix.shape[0]
    if d == 2:
        return
    for q in range(low):
        child = mask & ~(1 << q)
        if rep[child] != child:
            continue
        outer, inner = 1 << q, d >> (q + 1)
        t = matrix.reshape(outer, 2, inner, outer, 2, inner)
        # The child is passed unbound, so it is freed as soon as its subtree is done.
        _reduce_along_tree((t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :]).reshape(d // 2, d // 2),
                           child, q, table, rep, split)


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
    kept = rho_vals[rho_vals > SUPPORT_CUTOFF]
    tr_rho_log_rho = float((kept * np.log2(kept)).sum()) if kept.size else 0.0
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
