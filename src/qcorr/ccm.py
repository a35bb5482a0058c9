"""Cumulative correlation measure (CCM).

For a state rho on n >= 2 qubits the measure is defined recursively over
bipartitions (A, B) of the register:

    C(rho) = min_(A,B) [ 2^(n-2) * D(rho, rho_A x rho_B) + C(rho_A) + C(rho_B) ]

with C = 0 on single qubits.  D is the relative entropy, which for the
product of a state's own marginals reduces to the mutual information
S(rho_A) + S(rho_B) - S(rho); the engine always evaluates it in that form.

`ccm` runs a dynamic program over all subsets of the register: the reduced
entropies come in one table (from the state's factor when it has one, as
every pure state does, otherwise by tracing one qubit at a time out of a
larger subset; see `subset_entropies`), and subset values are combined level
by level, subsets of 2, 3, ..., n qubits, every cut of a level costed by a
few numpy gathers for all the tables that share their orbits (`_values`).
Subsets that a qubit permutation leaving the state unchanged maps onto each
other share one entropy and one value: the table diagonalizes, and the DP
minimizes over, the smallest mask of each orbit only; each other mask on the
reported tree has its cut searched for again.  With no such permutation every
mask is its own orbit.  `ccm_many` reads any iterable of states once and
reduces those of the same register size, symmetry, form and dtype in shared
stacks (the states of a whole sweep, say); `ccm` is its one-state case.  The
scalar loop the DP replaces is kept in the tests as its reference.
`ccm_naive` is an intentionally independent
re-implementation by literal recursion (fresh dense reduced matrices at every
level, no caching) kept as a cross-check oracle.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import numpy as np

from .entropy import (
    STACK_ENTRIES,
    DistanceUnit,
    _representative_masks,
    orbit_representatives,
    subset_entropies_many,
    von_neumann_entropy,
)
from .errors import BadArity, OutOfRange, TooLarge
from .states import DensityOperator, _kept_when_small, full_mask, partial_trace

MAX_QUBITS_DP = 14
MAX_QUBITS_NAIVE = 6

# The reported cut of a subset of size m is the smallest A whose cost is
# within TIE_BITS * 2^(m-2) bits of the subset's value, the minimum cost.
# Entropies from a factor and from partial traces differ by round-off of
# about 1e-14 bits, far below this, so exact ties (every cut of a product
# state, say) go to the same cut whichever spectra the entropies came from.
TIE_BITS = 1e-12


@dataclass
class CcmTreeNode:
    """Minimizing bipartition of one subset.

    `distance_term` already carries the 2^(m-2) weight of the subset's size m
    and is expressed in the report's unit.  Children of single-qubit blocks
    are None (their value is identically zero).
    """

    subset: int
    mask_a: int
    mask_b: int
    distance_term: float
    value: float
    left: "CcmTreeNode | None"
    right: "CcmTreeNode | None"


@dataclass
class CcmReport:
    value: float
    unit: DistanceUnit
    tree: CcmTreeNode | None

    def to_dict(self) -> dict:
        return {**asdict(self), "unit": self.unit.value}  # "unit" keeps its place

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _ascending_submasks(rest: int):
    """All submasks of `rest` in ascending numeric order, including 0 and rest."""
    sub = 0
    while True:
        yield sub
        if sub == rest:
            return
        sub = (sub - rest) & rest


def ccm(rho: DensityOperator,
        unit: DistanceUnit = DistanceUnit.NORMALIZED) -> CcmReport:
    """Cumulative correlation measure of `rho`, with the minimizing tree.

    Bipartitions are canonicalized by keeping the subset's lowest qubit index
    in block A.  Every subset's value is the minimum cost over its cuts; the
    tree reports the numerically smallest A whose cost is within TIE_BITS
    times the subset's weight of that minimum, with the minimum as the
    node's value.  Masks of one orbit of the state's qubit symmetry share
    their entropies (see `subset_entropies`) and so their values: the
    minimum is searched for each orbit's smallest mask only, and again for
    every other mask on the reported tree.  This is the
    one-state case of `ccm_many`.
    """
    return ccm_many([rho], unit)[0]


def ccm_many(states: Iterable[DensityOperator],
             unit: DistanceUnit = DistanceUnit.NORMALIZED) -> list[CcmReport]:
    """`ccm` of each state, in order.

    `states` may be any iterable, and is read once: the entropy tables of
    all states come from one `subset_entropies_many` call, which reduces
    each state as it arrives and holds none of them after, and walks states
    of the same register size, symmetry, form and dtype in shared stacks.
    The dynamic program then runs once for each group of tables that share
    their orbits (`_values`), and each state's tree is read off its own
    table.  Every report is the one `ccm` gives the state alone.  A state
    past MAX_QUBITS_DP raises TooLarge when it arrives, before it is reduced.
    """
    def within_cap():
        for rho in states:
            if rho.num_qubits > MAX_QUBITS_DP:
                raise TooLarge(f"ccm supports at most {MAX_QUBITS_DP} qubits, got {rho.num_qubits}")
            yield rho

    tables = subset_entropies_many(within_cap())
    groups: dict[bytes, list[int]] = {}
    for i, table in enumerate(tables):
        groups.setdefault(_representatives(table).tobytes(), []).append(i)
    values: list = [None] * len(tables)
    for key, members in groups.items():
        for i, row in zip(members, _values([tables[i] for i in members], key).tolist()):
            values[i] = row
    return [_report(table, row, unit) for table, row in zip(tables, values)]


def _representatives(table) -> np.ndarray:
    """The orbit representatives of a table's masks; a plain list (a
    per-subset oracle) shares nothing between masks."""
    reps = getattr(table, "representatives", None)
    return orbit_representatives(len(table).bit_length() - 1, ()) if reps is None else reps


def _values(tables: list, reps: bytes) -> np.ndarray:
    """The value of every mask of each of `tables` (one row per table), all
    with the representatives whose bytes are `reps` (the bytes key the cut
    arrays kept for reuse).

    Level m = 2..n at a time, the cuts of the level's representatives are
    costed together for all tables, in chunks of whole masks and of tables
    in which each of a, b, the costs and one gathered term holds at most a
    quarter of STACK_ENTRIES entries: d = max((S[a] + S[b]) - S[M], 0) and
    cost = ((w d) + V[a]) + V[b], w = 2^(m-2), the scalar recursion's
    arithmetic, so every value is the one it gives.  The value of a
    representative is the minimum over its cuts; every other mask copies
    its representative's at the end, so the cuts read representatives only.
    """
    entropies = np.array(tables, dtype=float)
    values = np.zeros_like(entropies)
    rep = np.frombuffer(reps, dtype=np.intp)
    n = rep.size.bit_length() - 1
    sizes = np.bincount(_popcount(_representative_masks(rep), n), minlength=n + 1)
    piece = STACK_ENTRIES // 4  # entries of each of a, b, the costs and one gathered term
    for m in range(2, n + 1):
        width = (1 << (m - 1)) - 1  # cuts of a subset of m qubits
        step = max(1, piece // width)
        for start in range(0, sizes[m], step):
            masks, a, b = _cuts(n, reps, m, start, start + step)
            rows = max(1, piece // a.size)
            for lo in range(0, len(entropies), rows):
                s, v = entropies[lo:lo + rows], values[lo:lo + rows]
                cost = s.take(a, axis=1)
                cost += s.take(b, axis=1)
                cost = cost.reshape(len(s), masks.size, width)
                cost -= s.take(masks, axis=1)[:, :, None]
                np.maximum(cost, 0.0, out=cost)  # mutual information is non-negative; round-off only
                cost *= float(1 << (m - 2))
                cost += v.take(a, axis=1).reshape(cost.shape)
                cost += v.take(b, axis=1).reshape(cost.shape)
                v[:, masks] = cost.min(axis=2)
    return values[:, rep]


def _popcount(masks: np.ndarray, n: int) -> np.ndarray:
    return sum((masks >> q) & 1 for q in range(n))


@_kept_when_small
def _cuts(num_qubits: int, reps: bytes, m: int, start: int, stop: int) -> tuple[np.ndarray, ...]:
    """(masks, a, b): the representatives of m qubits from the start-th to
    before the stop-th, and each one's cuts, mask by mask: block A holds
    the mask's lowest qubit and any proper submask of the others, in
    ascending order, and a and b give A and B each by its representative,
    whose entropy and value it shares."""
    rep = np.frombuffer(reps, dtype=np.intp)
    masks = _representative_masks(rep)
    masks = masks[_popcount(masks, num_qubits) == m][start:stop]
    low = masks & -masks
    subs, rest = np.zeros((masks.size, 1), dtype=np.intp), masks ^ low
    for _ in range(m - 1):  # add each qubit of rest, lowest first: the submasks stay ascending
        bit = rest & -rest
        rest = rest ^ bit
        subs = np.concatenate([subs, subs | bit[:, None]], axis=1)
    a = subs[:, :-1] | low[:, None]  # block B may not be empty
    return masks, rep[a.reshape(-1)], rep[(masks[:, None] ^ a).reshape(-1)]


def _report(entropy_bits: list[float], value_bits: list[float], unit: DistanceUnit) -> CcmReport:
    """One state's report from its entropy table and values, in bits."""
    full = len(entropy_bits) - 1
    return CcmReport(value_bits[full] * unit.factor, unit, _tree(entropy_bits, value_bits, full, unit.factor))


def _tree(entropy_bits: list[float], value_bits: list[float], mask: int, scale: float) -> CcmTreeNode | None:
    """The reported tree below `mask`: the smallest A whose cost is within
    the tie of the mask's value, and the same below each block.  (A module
    function, not a closure over the tables, so that no reference cycle
    keeps a state's lists alive after its report is made.)"""
    if mask & (mask - 1) == 0:  # single qubit
        return None
    weight = float(1 << (bin(mask).count("1") - 2))
    low = mask & -mask
    limit = value_bits[mask] + TIE_BITS * weight
    for sub in _ascending_submasks(mask ^ low):
        a = low | sub
        dist = weight * max(entropy_bits[a] + entropy_bits[mask ^ a] - entropy_bits[mask], 0.0)
        if a != mask and dist + value_bits[a] + value_bits[mask ^ a] <= limit:
            break
    else:
        raise AssertionError(f"no cut of subset {mask:#x} is within the tie of its value")
    return CcmTreeNode(
        subset=mask,
        mask_a=a,
        mask_b=mask ^ a,
        distance_term=dist * scale,
        value=value_bits[mask] * scale,
        left=_tree(entropy_bits, value_bits, a, scale),
        right=_tree(entropy_bits, value_bits, mask ^ a, scale),
    )


def ccm_naive(rho: DensityOperator,
              unit: DistanceUnit = DistanceUnit.NORMALIZED) -> float:
    """Reference evaluation of the measure by direct recursion.

    No memoization, no shared entropy table: reduced states are rebuilt at
    every level and their entropies recomputed.  Exponentially slower than
    `ccm` and capped at 6 qubits; exists to cross-check the dynamic program.
    """
    if rho.num_qubits > MAX_QUBITS_NAIVE:
        raise TooLarge(f"ccm_naive supports at most {MAX_QUBITS_NAIVE} qubits")

    def rec(r: DensityOperator) -> float:
        n = r.num_qubits
        if n == 1:
            return 0.0
        weight = float(1 << (n - 2))
        rest = full_mask(n) ^ 1
        h_full = von_neumann_entropy(r)
        best = None
        for sub in _ascending_submasks(rest):
            if sub == rest:
                continue
            a = 1 | sub
            b = full_mask(n) ^ a
            ra = partial_trace(r, a)
            rb = partial_trace(r, b)
            dist = max(von_neumann_entropy(ra) + von_neumann_entropy(rb) - h_full, 0.0)
            cost = weight * dist + rec(ra) + rec(rb)
            if best is None or cost < best:
                best = cost
        return best

    return rec(rho) * unit.factor


@lru_cache(maxsize=None)
def _ghz_value(x: Fraction, n: int, d: Fraction) -> Fraction:
    if n == 2:
        return x
    if n == 3:
        return 2 * x + d
    top = (1 << (n - 2)) * x
    if n % 2 == 0:
        return top + 2 * _ghz_value(d, n // 2, d)
    return top + _ghz_value(d, n // 2, d) + _ghz_value(d, n // 2 + 1, d)


def ghz_closed_form(num_qubits: int, d: float = 0.5) -> float:
    """CCM of the n-qubit GHZ state, in normalized units, evaluated exactly.

    The minimum always splits a block as evenly as possible; with D = 1 for
    the full GHZ state and d the distance of its dephased sub-blocks this
    telescopes to

        F(x, 2) = x
        F(x, 3) = 2x + d
        F(x, n) = 2^(n-2) x + 2 F(d, n/2)                      (n even)
        F(x, n) = 2^(n-2) x + F(d, (n-1)/2) + F(d, (n+1)/2)    (n odd)

    evaluated here in exact rational arithmetic before conversion to float.
    """
    if num_qubits < 2:
        raise BadArity("the closed form needs at least two qubits")
    if not d >= 0.0:
        raise OutOfRange(f"sub-block distance must be non-negative, got {d!r}")
    return float(_ghz_value(Fraction(1), num_qubits, Fraction(d)))
