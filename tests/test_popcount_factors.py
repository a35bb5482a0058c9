"""Factors whose columns each lie in one popcount sector, in the walk.

Such a factor V (an XXZ or double-XXZ ground state, either mode) has every
reduced state rho_A block diagonal by popcount.  Where the Gram matrix of
A's side, which is rho_A, is the smaller, the walk takes its popcount
blocks, with the spin flip and the ring reflections, where it would take
the whole Gram matrix; the other side's stays whole.
Patching `factor_sectors` out of the walk gives the whole-Gram path: every
subset entropy must agree with it within the Fannes-Audenaert bound of the
budget the flip test allows, and the trees must be the same.  GHZ, and any
factor with a column across two sectors, keep the whole-Gram path.  The
matrices diagonalized must be those of a dense model of the walk
(`dense_reference.model_factor_solves`).
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcorr.entropy
from dense_reference import column_sectors, model_factor_solves
from qcorr import (
    DensityOperator,
    GroundStateMode,
    ccm,
    chain_terms,
    ground_state,
    make_ghz,
    xxz_ring,
)
from qcorr.entropy import subset_entropies
from qcorr.states import SUPPORT_CUTOFF, block_layout, factor_sectors

FIRST = GroundStateMode.FIRST_VECTOR


def fannes_audenaert_bits(trace_distance, dim):
    t = trace_distance
    return t * math.log2(dim - 1) - t * math.log2(t) - (1 - t) * math.log2(1 - t)


def tree_shape(node):
    if node is None:
        return None
    return (node.subset, node.mask_a, tree_shape(node.left), tree_shape(node.right))


def whole_grams(monkeypatch):
    monkeypatch.setattr(qcorr.entropy, "factor_sectors", lambda v, n: None)


def assert_blocked_agrees(state):
    table, report = subset_entropies(state), ccm(state)
    with pytest.MonkeyPatch.context() as mp:
        whole_grams(mp)
        whole_table, whole_report = subset_entropies(state), ccm(state)
    for mask in range(1, 1 << state.num_qubits):
        dim = 1 << bin(mask).count("1")
        assert abs(table[mask] - whole_table[mask]) <= fannes_audenaert_bits(0.5 * SUPPORT_CUTOFF, dim)
    assert tree_shape(report.tree) == tree_shape(whole_report.tree)
    assert report.value == pytest.approx(whole_report.value, abs=1e-10)


def random_aligned(n, rank, seed, flipped=False, complex_=False):
    """A factor of `rank` random columns, each in a random popcount sector;
    with `flipped`, each column's spin flip is added as another column, so
    that the state is flip-invariant."""
    rng = np.random.default_rng(seed)
    lay = block_layout(n)
    v = np.zeros((1 << n, rank), dtype=complex if complex_ else float)
    for j in range(rank):
        idx = lay.sectors[int(rng.integers(0, n + 1))]
        v[idx, j] = rng.standard_normal(idx.size)
        if complex_:
            v[idx, j] += 1j * rng.standard_normal(idx.size)
    if flipped:
        v = np.hstack([v, v[::-1]])
    return DensityOperator.from_factor(v / np.linalg.norm(v))


@st.composite
def ring_ground_states(draw):
    """XXZ ground states, N = 2..12, and double XXZ up to 3 + 3, in either mode."""
    delta = draw(st.floats(-2.5, 2.5) | st.sampled_from([-1.0, 0.0, 1.0]))
    mode = draw(st.sampled_from(list(GroundStateMode)))
    if draw(st.booleans()):
        return ground_state(chain_terms(xxz_ring(draw(st.integers(2, 12)), delta)), mode)
    spins = draw(st.integers(2, 3))
    return ground_state(chain_terms(xxz_ring(spins, delta), xxz_ring(spins, draw(st.floats(-2.5, 2.5)))), mode)


@given(state=ring_ground_states())
@example(state=ground_state(chain_terms(xxz_ring(10, 1.4))))   # rank 2: popcount 0 and 10
@example(state=ground_state(chain_terms(xxz_ring(10, 0.5))))
@example(state=ground_state(chain_terms(xxz_ring(9, -0.3))))   # odd ring: rank 2 across twin sectors
@example(state=ground_state(chain_terms(xxz_ring(12, 0.9)), FIRST))
@example(state=ground_state(chain_terms(xxz_ring(3, 1.5), xxz_ring(3, -0.5))))
@settings(deadline=None, max_examples=30)
def test_ring_ground_states_agree_with_the_whole_gram(state):
    assert factor_sectors(state.factor, state.num_qubits) is not None
    assert_blocked_agrees(state)


@given(n=st.integers(2, 8), rank=st.integers(1, 3), seed=st.integers(0, 2**16), flipped=st.booleans(),
       complex_=st.booleans())
@settings(deadline=None, max_examples=40)
def test_random_aligned_factors_agree_with_the_whole_gram(n, rank, seed, flipped, complex_):
    state = random_aligned(n, rank, seed, flipped, complex_)
    assert factor_sectors(state.factor, n) is not None
    if flipped:
        assert qcorr.entropy._flips_by_at_most_cutoff(state)
    assert_blocked_agrees(state)


def walk_solves(state, monkeypatch):
    """Sizes of the matrices the walk diagonalizes in one `ccm` of `state`,
    and its stacked calls."""
    stacks = []
    solve = qcorr.entropy.hermitian_eigenvalues

    def record(m):
        stacks.append(m)
        return solve(m)

    with monkeypatch.context() as mp:
        mp.setattr(qcorr.entropy, "hermitian_eigenvalues", record)
        ccm(state)
    return Counter(c for m in stacks for c in [m.shape[-1]] * m.shape[0]), len(stacks)


@pytest.mark.parametrize("name, make, total", [
    # The 43 representatives, of one to five qubits, take rho_A's popcount
    # blocks: 82 matrices 3 to 10 wide (block k > m/2 takes the spectrum of
    # block m - k by the flip), where the whole Gram matrices were 43, 2 to
    # 32 wide.
    ("xxz N=10 mixture", lambda: ground_state(chain_terms(xxz_ring(10, 0.5))), 82),
    # Popcount 0 and 10: every block of rho_A is 1 x 1 or 0.0, and past
    # five qubits the other side's Gram matrices, 32 wide and narrower,
    # are solved whole.
    ("xxz N=10 delta=1.4", lambda: ground_state(chain_terms(xxz_ring(10, 1.4))), None),
    ("xxz N=9 mixture", lambda: ground_state(chain_terms(xxz_ring(9, -0.3))), None),
    ("xxz N=8 first vector", lambda: ground_state(chain_terms(xxz_ring(8, 0.5)), FIRST), None),
    ("double xxz 3+3", lambda: ground_state(chain_terms(xxz_ring(3, 1.5), xxz_ring(3, -0.5))), None),
    ("random aligned n=7 rank 3", lambda: random_aligned(7, 3, 5), None),
    ("random flipped n=6 rank 4", lambda: random_aligned(6, 2, 9, flipped=True, complex_=True), None),
])
def test_walk_solves_the_matrices_of_the_model(name, make, total, monkeypatch):
    state = make()
    solved, calls = walk_solves(state, monkeypatch)
    want, want_calls = model_factor_solves(state)
    assert solved == want and calls == want_calls
    if total is not None:
        assert sum(solved.values()) == total


@pytest.mark.parametrize("make", [
    lambda: make_ghz(8),
    lambda: DensityOperator.from_factor(np.eye(64)[:, [3]] * 0.6 + np.eye(64)[:, [7]] * 0.8),  # popcount 2 and 3
    lambda: DensityOperator.from_factor(np.hstack([np.eye(32)[:, [1]], np.eye(32)[:, [0]] + np.eye(32)[:, [6]]])
                                        / math.sqrt(3)),
], ids=["ghz-8", "one column, two sectors", "rank 2, one column across"])
def test_a_column_across_sectors_keeps_the_whole_gram(make, monkeypatch):
    state = make()
    assert factor_sectors(state.factor, state.num_qubits) is None
    solved, calls = walk_solves(state, monkeypatch)
    assert (solved, calls) == model_factor_solves(state)  # every Gram matrix whole
    if state.num_qubits == 8:  # GHZ: one subset of each size 1..4, the rest complements
        assert sorted(solved.elements()) == [2, 4, 8, 16]


@pytest.mark.parametrize("make", [
    lambda: random_aligned(6, 3, 1, flipped=True),
    lambda: ground_state(chain_terms(xxz_ring(7, 0.5))),
    lambda: make_ghz(6),
])
def test_column_sectors_match_the_dense_reading(make):
    state = make()
    found = factor_sectors(state.factor, state.num_qubits)
    assert (None if found is None else found.tolist()) == column_sectors(state.factor)
