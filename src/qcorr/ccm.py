"""Cumulative correlation measure (CCM).

For a state rho on n >= 2 qubits the measure is defined recursively over
bipartitions (A, B) of the register:

    C(rho) = min_(A,B) [ 2^(n-2) * D(rho, rho_A x rho_B) + C(rho_A) + C(rho_B) ]

with C = 0 on single qubits.  D is the relative entropy, which for the
product of a state's own marginals reduces to the mutual information
S(rho_A) + S(rho_B) - S(rho); the engine always evaluates it in that form.

`ccm` runs a dynamic program over all subsets of the register: the reduced
entropies come in one table (from the state's factor when it has one,
otherwise by tracing one qubit at a time out of a larger subset; see
`subset_entropies`), and subset values are combined in ascending mask order,
so every bipartition term costs three table lookups.  Subsets that a qubit
permutation leaving the state unchanged maps onto each other share one
entropy and one value: the table diagonalizes, and the DP minimizes over, the
smallest mask of each orbit only; each other mask on the reported tree has
its cut searched for again.  With no such permutation every mask is its own
orbit.  `ccm_many` takes a list of states and reduces those of the same
register size, symmetry and form as one stack (the damped states of one row
of a noise sweep, say); `ccm` is its one-state case.  `ccm_naive` is an
intentionally independent re-implementation by literal recursion (fresh
dense reduced matrices at every level, no caching) kept as a cross-check
oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .entropy import DistanceUnit, subset_entropies_many, von_neumann_entropy
from .errors import BadArity, OutOfRange, TooLarge
from .states import DensityOperator, PureState, full_mask, partial_trace

MAX_QUBITS_DP = 14
MAX_QUBITS_NAIVE = 6

# The reported cut of a subset of size m is the smallest A whose cost is
# within TIE_BITS * 2^(m-2) bits of the subset's value, the minimum cost.
# Entropies from a factor and from partial traces differ by round-off of
# about 1e-14 bits, far below this, so exact ties (every cut of a product
# state, say) go to the same cut whichever spectra the entropies came from.
TIE_BITS = 1e-12


@dataclass
class CcmStats:
    """Work counters for one `ccm` evaluation.

    They count the register's subsets and the bipartitions of its subsets
    (three table lookups each), whatever the entropy table shared between
    them, so they are not counts of eigensolves.
    """

    subsets_evaluated: int = 0
    entropies_computed: int = 0
    cache_hits: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


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

    def to_dict(self) -> dict:
        return asdict(self)  # the children too, in field order


@dataclass
class CcmReport:
    value: float
    unit: DistanceUnit
    tree: CcmTreeNode | None
    stats: CcmStats = field(default_factory=CcmStats)

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


def ccm(rho: PureState | DensityOperator,
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


def ccm_many(states: Sequence[PureState | DensityOperator],
             unit: DistanceUnit = DistanceUnit.NORMALIZED) -> list[CcmReport]:
    """`ccm` of each state, in order.

    The entropy tables of all states come from one `subset_entropies_many`
    call, which walks states of the same register size, symmetry and form
    as one stack; each state's dynamic program then runs on its own
    table.  Every report is the one `ccm` gives the state alone.
    """
    for rho in states:
        if rho.num_qubits > MAX_QUBITS_DP:
            raise TooLarge(f"ccm supports at most {MAX_QUBITS_DP} qubits, got {rho.num_qubits}")
    tables = iter(subset_entropies_many([rho for rho in states if rho.num_qubits > 1]))
    return [_report(next(tables), rho.num_qubits, unit) if rho.num_qubits > 1
            else CcmReport(0.0, unit, None, CcmStats(subsets_evaluated=1)) for rho in states]


def _report(entropy_bits: list[float], n: int, unit: DistanceUnit) -> CcmReport:
    """The dynamic program and its tree over one state's entropy table."""
    full = full_mask(n)
    # A plain list (a per-subset oracle) shares nothing between masks.
    rep = getattr(entropy_bits, "representatives", range(full + 1))
    value_bits = [0.0] * (full + 1)
    for mask in range(1, full + 1):  # ascending, so every proper submask comes first
        if rep[mask] != mask:
            value_bits[mask] = value_bits[rep[mask]]
        elif mask & (mask - 1):  # a single qubit has value 0
            weight = float(1 << (bin(mask).count("1") - 2))
            low, h_s, best, sub = mask & -mask, entropy_bits[mask], math.inf, 0
            rest = mask ^ low
            while sub != rest:  # the submasks of rest in ascending order; block B may not be empty
                a, b = low | sub, rest ^ sub
                dist = entropy_bits[a] + entropy_bits[b] - h_s
                if dist < 0.0:
                    dist = 0.0  # mutual information is non-negative; round-off only
                cost = weight * dist + value_bits[a] + value_bits[b]
                if cost < best:
                    best = cost
                sub = (sub - rest) & rest
            value_bits[mask] = best

    scale = unit.factor

    def build(mask: int) -> CcmTreeNode | None:
        if mask & (mask - 1) == 0:  # single qubit
            return None
        weight = float(1 << (bin(mask).count("1") - 2))
        low = mask & -mask
        limit = value_bits[mask] + TIE_BITS * weight
        for sub in _ascending_submasks(mask ^ low):  # the smallest A within the tie of the value
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
            left=build(a),
            right=build(mask ^ a),
        )

    bipartitions = (3 ** n + 1) // 2 - (1 << n)  # sum over subsets of size m of 2^(m-1) - 1
    stats = CcmStats(subsets_evaluated=full, entropies_computed=full, cache_hits=3 * bipartitions)
    return CcmReport(value_bits[full] * scale, unit, build(full), stats)


def ccm_naive(rho: PureState | DensityOperator,
              unit: DistanceUnit = DistanceUnit.NORMALIZED) -> float:
    """Reference evaluation of the measure by direct recursion.

    No memoization, no shared entropy table: reduced states are rebuilt at
    every level and their entropies recomputed.  Exponentially slower than
    `ccm` and capped at 6 qubits; exists to cross-check the dynamic program.
    """
    if rho.num_qubits > MAX_QUBITS_NAIVE:
        raise TooLarge(f"ccm_naive supports at most {MAX_QUBITS_NAIVE} qubits")
    if isinstance(rho, PureState):
        rho = rho.to_density()

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
