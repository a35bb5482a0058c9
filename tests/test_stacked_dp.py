"""The dynamic program run on stacks of tables, and `ccm_many` on streams.

`ccm_many` groups the tables that share their orbits and runs the dynamic
program level by level on each group's stack (`qcorr.ccm._values`), with
the scalar recursion's arithmetic: every value must be the one the scalar
loop of `dp_reference` gives, bit for bit, for every group size, chunk
budget and generator list `qubit_symmetry` can return.  Factor states wait
in stacks of the walk like the other states, and a stream of mixed states
must give each the report it gets alone.
"""

import gc
import sys
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcorr.entropy
from qcorr import (
    DensityOperator,
    DistanceUnit,
    amplitude_damping_channel,
    apply_channel_local,
    ccm,
    ccm_many,
    chain_terms,
    full_mask,
    ground_state,
    make_ghz,
    phase_damping_channel,
    xxz_ring,
)
from qcorr.entropy import _candidates, orbit_representatives
from qcorr.errors import TooLarge
from qcorr.sampling import random_density, random_pure_state
from qcorr.states import BLOCK_ENTRIES

from dp_reference import scalar_values

CCM_MODULE = sys.modules["qcorr.ccm"]  # `qcorr.ccm` is the re-exported function
BITS = DistanceUnit.BITS


def generator_lists(n):
    """Every generator list `qubit_symmetry` can return for n qubits: the
    shift with the transposition, with the reflection or alone, and any
    subset of the halves' generators (the trivial group among them)."""
    shift, swap, reflect, halves = _candidates(n)
    lists = [(shift, swap), (shift, reflect), (shift,)] if n >= 2 else []
    for pick in range(1 << len(halves)):
        lists.append(tuple(g for i, g in enumerate(halves) if (pick >> i) & 1))
    return lists


def bits_of(values):
    return np.asarray(values, dtype=float).view(np.int64)


@st.composite
def table_groups(draw):
    """(n, representatives, tables): several tables of one group."""
    n = draw(st.integers(2, 10))
    generators = draw(st.sampled_from(generator_lists(n)))
    rep = orbit_representatives(n, generators)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    sizes = np.array([bin(mask).count("1") for mask in range(1 << n)])
    tables = []
    kinds = st.sampled_from(["random", "ties", "tie edges", "zero"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=4)):
        if kind == "zero":  # a product state: every cut costs 0
            per_mask = np.zeros(1 << n)
        elif kind == "random":
            per_mask = rng.uniform(0.0, 1.0, 1 << n) * sizes
        else:  # entropies on a coarse grid tie exactly; then some move by a whole tie
            per_mask = rng.integers(0, 4, 1 << n) * 0.5
            if kind == "tie edges":
                moved = rng.random(1 << n) < 0.3
                levels = rng.integers(2, n + 1, 1 << n)
                signs = rng.choice([-1.0, 1.0], 1 << n)
                per_mask = per_mask + moved * signs * CCM_MODULE.TIE_BITS * 2.0 ** (levels - 2)
        per_mask[0] = 0.0
        tables.append(per_mask[rep].tolist())  # each orbit shares its representative's entry
    return n, rep, tables


@given(group=table_groups(), budget=st.sampled_from([None, 4, 64, 1000]))
@settings(deadline=None, max_examples=60)
def test_stacked_dp_is_the_scalar_dp(group, budget):
    n, rep, tables = group
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:  # a quarter of it is each chunk's: 4 costs one cut at a time
            mp.setattr(CCM_MODULE, "STACK_ENTRIES", budget)
        values = CCM_MODULE._values(tables, rep.tobytes())
    assert values.shape == (len(tables), 1 << n)
    for table, row in zip(tables, values):
        want = scalar_values(table, rep)
        assert (bits_of(row) == bits_of(want)).all()  # bit for bit, -0.0 apart from 0.0
        got_report = CCM_MODULE._report(table, row.tolist(), BITS)
        want_report = CCM_MODULE._report(table, want, BITS)
        assert got_report.to_json() == want_report.to_json()


# --- streams of states -------------------------------------------------------------


def interleaved_states():
    """Pure (complex and real), certified rank-2, dense and damped block
    states, of several sizes, groups, ranks and dtypes, interleaved."""
    rng = np.random.default_rng(2024)
    v = rng.standard_normal((1 << 4, 2)) + 1j * rng.standard_normal((1 << 4, 2))
    rank2 = v @ v.conj().T
    rank2 = 0.5 * (rank2 + rank2.conj().T) / np.trace(rank2).real
    certified = DensityOperator(rank2, check_psd=True)
    assert certified.factor is not None and certified.factor.shape[1] == 2
    ring5, ring6 = (ground_state(chain_terms(xxz_ring(n, 0.5))) for n in (5, 6))
    assert ring6.factor.dtype == float
    return [
        random_pure_state(4, rng),
        apply_channel_local(ring6, phase_damping_channel(0.3), full_mask(6)),
        ring6,
        certified,
        random_density(3, rng),
        make_ghz(5),
        apply_channel_local(ring5, amplitude_damping_channel(0.4), full_mask(5)),
        random_pure_state(4, rng),
        ring5,
        DensityOperator.from_factor(v / np.linalg.norm(v)),
        random_pure_state(1, rng),
        apply_channel_local(ring6, phase_damping_channel(0.6), full_mask(6)),
        random_density(4, rng, rank=2),
        ground_state(chain_terms(xxz_ring(6, -0.4))),
    ]


@pytest.mark.parametrize("budget", [None, 40, 1])
def test_interleaved_stream_gives_each_state_its_own_report(budget, monkeypatch):
    states = interleaved_states()
    alone = [ccm(state).to_json() for state in states]
    if budget is not None:  # factor and child entries that wait: 1 walks every state alone
        monkeypatch.setattr(qcorr.entropy, "STACK_ENTRIES", budget)
    reports = ccm_many(state for state in states)
    assert [report.to_json() for report in reports] == alone  # bit for bit, in input order


def test_state_past_the_cap_raises_when_it_arrives():
    states = interleaved_states()[:4]
    pulled = []

    def stream():
        for i, state in enumerate(states[:2] + [types.SimpleNamespace(num_qubits=15)] + states[2:]):
            pulled.append(i)
            yield state

    with pytest.raises(TooLarge):
        ccm_many(stream())
    assert pulled == [0, 1, 2]  # nothing after it was read


def test_factor_is_not_held_past_its_stack_walk(monkeypatch):
    # Pure states of one key, three to a stack: each stack is walked when
    # the next state arrives, and then no factor before that state's may
    # be alive.
    n = 6
    monkeypatch.setattr(qcorr.entropy, "STACK_ENTRIES", 3 << n)
    owners, live_after_walks = [], []
    walk = qcorr.entropy._Walk.walk_factors

    def spied(self, stack, num_qubits):
        walk(self, stack, num_qubits)
        gc.collect()
        live_after_walks.append(sum(owner() is not None for owner in owners[:-1]))

    monkeypatch.setattr(qcorr.entropy._Walk, "walk_factors", spied)

    def stream():
        rng = np.random.default_rng(5)
        for _ in range(10):
            state = random_pure_state(n, rng)
            assert qcorr.entropy.qubit_symmetry(state) == ()
            f = state.factor
            owners.append(weakref.ref(f if f.base is None else f.base))
            yield state

    reports = ccm_many(stream())
    assert len(reports) == 10
    assert len(live_after_walks) == 4  # stacks of 3, 3, 3 and 1
    assert live_after_walks == [0] * 4


# --- a large dynamic program ---------------------------------------------------------


def test_large_trivial_table_memory(monkeypatch):
    # A synthetic n = 14 table with no symmetry: 2.4 million cuts.  The cut
    # arrays come in chunks, and only the small ones are kept.
    n = 14
    rng = np.random.default_rng(14)
    table = [0.0] + [bin(mask).count("1") * rng.uniform(0.5, 1.0) for mask in range(1, 1 << n)]
    monkeypatch.setattr(CCM_MODULE, "subset_entropies_many", lambda states: [table for _ in states])
    want_values = scalar_values(table, range(1 << n))
    want = CCM_MODULE._report(table, want_values, BITS)
    tracemalloc.start()
    try:
        report = ccm(make_ghz(n), BITS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.value == want_values[-1]
    assert report.to_json() == want.to_json()
    assert peak <= 16 << 20
    (kept,) = [c.cell_contents for c in CCM_MODULE._cuts.__closure__ if isinstance(c.cell_contents, dict)]
    assert kept and all(sum(a.size for a in arrays) <= BLOCK_ENTRIES for arrays in kept.values())
