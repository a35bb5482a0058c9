"""What `spin_models` keeps between calls must not change any result.

`chain_terms` keeps the bit tables of each ring layout, and `ground_state`
and `ground_gap` keep the last pattern's blocks, orbit tables and
momentum-block assembly.  Every result computed in a running sequence, on
whatever the earlier calls left kept, must equal bit for bit the one
computed after everything kept is cleared: the terms, the factor of either
degeneracy mode and the gap.  The sequences cross the points where the
pattern changes (Delta = 0 and lambda = 0 drop the diagonal), where the
group changes on one pattern (a subnormal coupling, a patched
`_translations`), where the terms turn complex, and where N changes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcorr.spin_models
import qcorr.states
from dense_reference import terms_of
from qcorr import (
    GroundStateMode,
    HamiltonianTerms,
    SpinChainSpec,
    chain_terms,
    ground_gap,
    ground_state,
    ising_ring,
    xxz_ring,
)
from qcorr.spin_models import _trivial_group
from test_momentum_sectors import dm_ring, group_orders  # noqa: F401 (a fixture)


def forget():
    """Clear everything `spin_models` keeps between calls."""
    qcorr.spin_models._kept = None
    qcorr.spin_models._chain_layout.cache_clear()
    qcorr.states.shift_orbits.cache_clear()


def solve(make_terms):
    """(terms, factor of each mode, gap) of the terms `make_terms` gives."""
    terms = make_terms()
    return terms, [ground_state(terms, mode).factor for mode in GroundStateMode], ground_gap(terms)


def assert_same(warm, cold):
    (terms, factors, gap), (cold_terms, cold_factors, cold_gap) = warm, cold
    for a, b in zip(terms[1:], cold_terms[1:]):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for a, b in zip(factors, cold_factors):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert gap == cold_gap or (math.isinf(gap) and math.isinf(cold_gap))


def assert_running_equals_cold(makers):
    """Solve every point in turn on what the earlier points kept, then each
    again from nothing kept, and compare."""
    running = [solve(make) for make in makers]
    for make, warm in zip(makers, running):
        forget()
        assert_same(warm, solve(make))


def rings_of(model, n, x):
    if model == "xxz":
        return (xxz_ring(n, x),)
    if model == "ising":
        return (ising_ring(n, x),)
    if model == "diagonal":
        return (SpinChainSpec(n, jz=x, h=0.25),)
    return xxz_ring(n, x), xxz_ring(3, 0.5 - x)


@pytest.mark.parametrize("model, n", [("xxz", 6), ("xxz", 7), ("ising", 6), ("ising", 7), ("dxxz", 3)])
def test_sweeps_across_a_pattern_change(model, n):
    # Delta = 0 (lambda = 0) drops every diagonal term, mid-sweep.
    grid = (-0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5, 0.0, -0.5)
    assert_running_equals_cold([lambda x=x: chain_terms(*rings_of(model, n, x)) for x in grid])


def test_a_subnormal_coupling_takes_the_trivial_group(group_orders):
    tiny = SpinChainSpec(6, jx=0.5, jy=0.5, jz=1e-310)
    makers = [lambda spec=spec: chain_terms(spec) for spec in (xxz_ring(6, 0.5), tiny, xxz_ring(6, 0.5))]
    assert_running_equals_cold(makers)
    # Three calls per point (two modes and the gap), running then cold.
    assert group_orders == ([6] * 3 + [1] * 3 + [6] * 3) * 2


def as_complex(terms):
    return HamiltonianTerms(terms.dim, terms.rows, terms.cols, terms.values.astype(complex))


@pytest.mark.parametrize("n", (4, 5))
def test_complex_terms(n):
    # The same real terms as complex values share the pattern and the group;
    # the odd antiferromagnetic ring's level pairs k and -k, which real
    # terms embed as two real columns and complex ones as two complex.
    ring = SpinChainSpec(n, jx=-0.5, jy=-0.5, jz=-0.5)
    makers = [lambda: terms_of(dm_ring(n, 0.25)), lambda: chain_terms(ring),
              lambda: as_complex(chain_terms(ring)), lambda: chain_terms(ring),
              lambda: terms_of(dm_ring(n, 0.75)), lambda: terms_of(dm_ring(n, 0.25))]
    assert_running_equals_cold(makers)


def test_alternating_sizes():
    makers = [lambda n=n, x=x: chain_terms(xxz_ring(n, x))
              for n, x in ((6, 0.5), (7, 0.5), (6, 0.75), (8, 0.5), (7, 2.0), (6, 0.5))]
    assert_running_equals_cold(makers)


def test_patched_translations_on_the_same_terms(monkeypatch, group_orders):
    make = lambda: chain_terms(xxz_ring(6, 0.5))  # noqa: E731
    before = solve(make)
    with monkeypatch.context() as patch:
        patch.setattr(qcorr.spin_models, "_translations", lambda terms, pattern: _trivial_group(terms.dim))
        trivial = solve(make)
        forget()
        assert_same(trivial, solve(make))
    after = solve(make)
    assert_same(before, after)
    forget()
    assert_same(before, solve(make))
    # The spy sees the calls outside the patch only.
    assert group_orders == [6] * 9


POINTS = st.tuples(st.sampled_from(["xxz", "ising", "dxxz", "diagonal"]), st.integers(2, 6),
                   st.sampled_from([0.0, -1.0, 0.5, 1.0, 2.0]) | st.floats(-2.0, 2.0))


@given(points=st.lists(POINTS, min_size=1, max_size=6))
@settings(deadline=None, max_examples=40)
def test_random_sequences(points):
    assert_running_equals_cold([lambda p=p: chain_terms(*rings_of(*p)) for p in points])
