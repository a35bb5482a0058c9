"""Subset entropies and DP values shared across qubit-permutation orbits.

`subset_entropies` finds the group of qubit permutations that leaves a state
unchanged and diagonalizes one subset per orbit; `ccm` searches for the
minimum on one mask per orbit.  Both must agree with the per-subset
reference, which diagonalizes every subset and runs the DP on every mask, and
the group found must be the one the state has.
"""

import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcorr.entropy
from qcorr import (
    DensityOperator,
    GroundStateMode,
    SpinChainSpec,
    amplitude_damping_channel,
    apply_channel_local,
    ccm,
    chain_terms,
    full_mask,
    ground_state,
    ising_ring,
    make_ghz,
    make_state_from_kets,
    phase_damping_channel,
    xxz_ring,
)
from qcorr.ccm import MAX_QUBITS_DP
from qcorr.entropy import (
    orbit_representatives,
    qubit_symmetry,
    subset_entropies,
    subset_entropy,
)
from qcorr.sampling import random_density, random_pure_state
from qcorr.states import SUPPORT_CUTOFF

from dense_reference import block_state, one_block

CCM_MODULE = sys.modules["qcorr.ccm"]  # `qcorr.ccm` is the re-exported function

TABLE_TOL = 1e-12
CCM_TOL = 1e-10
ROUNDOFF_BITS = 1e-13  # as in test_factored.py: trees are compared below this gap

FIRST = GroundStateMode.FIRST_VECTOR
MIXTURE = GroundStateMode.SUBSPACE_MIXTURE
# Antiferromagnetic XY coupling frustrates an odd ring: its lowest level is
# degenerate inside one magnetization sector, so `first-vector` keeps one
# vector of a multiplet that the shift rotates.
FRUSTRATED = SpinChainSpec(5, jx=-0.5, jy=-0.5, jz=0.2)


def reference_table(state):
    """S(rho_A) for every mask, one `subset_entropy` call per subset."""
    return [0.0] + [subset_entropy(state, mask) for mask in range(1, full_mask(state.num_qubits) + 1)]


def reference_ccm(state):
    """`ccm` on the reference table; a plain list shares nothing between masks."""
    original = CCM_MODULE.subset_entropies_many
    CCM_MODULE.subset_entropies_many = lambda states: [reference_table(s) for s in states]
    try:
        return ccm(state)
    finally:
        CCM_MODULE.subset_entropies_many = original


def tree_shape(node):
    if node is None:
        return None
    return (node.subset, node.mask_a, tree_shape(node.left), tree_shape(node.right))


def assert_agrees(state):
    table, ref = subset_entropies(state), reference_table(state)
    gap = max(abs(a - b) for a, b in zip(table, ref))
    assert gap <= TABLE_TOL
    if state.num_qubits < 2:
        return
    got, want = ccm(state), reference_ccm(state)
    assert got.value == pytest.approx(want.value, abs=CCM_TOL)
    if gap <= ROUNDOFF_BITS:
        assert tree_shape(got.tree) == tree_shape(want.tree)


def index_permutation(n, perm):
    """Basis index of the state with qubit k's bit taken from qubit perm[k]."""
    return np.arange(1 << n).reshape((2,) * n).transpose(perm).reshape(-1)


def permuted_distance(state, perm):
    """Trace norm of the permuted state minus the state, from the full matrix."""
    m = state.matrix
    p = index_permutation(state.num_qubits, perm)
    return float(np.abs(np.linalg.eigvalsh(m[np.ix_(p, p)] - m)).sum())


# Generators as axis orders, in the order `qubit_symmetry` returns them.
def shift(n):
    return (*range(1, n), 0)


def cyclic(n):
    return (shift(n),)


def dihedral(n):
    return shift(n), tuple(range(n - 1, -1, -1))


def symmetric(n):
    return shift(n), (1, 0, *range(2, n))


def half_generators(n):
    """Each half's shift and reflection, then the swap of the halves (n even; at
    n = 4 a half's shift is its reflection, and `qubit_symmetry` tests it once)."""
    first, second = tuple(range(n // 2)), tuple(range(n // 2, n))
    return (first[1:] + first[:1] + second, first[::-1] + second,
            first + second[1:] + second[:1], first + second[::-1], second + first)


def expected_ring_group(state):
    """D_n for a ring state, S_n if the transposition (0 1) also leaves it unchanged."""
    n = state.num_qubits
    swap = [1, 0, *range(2, n)]
    return symmetric(n) if permuted_distance(state, swap) <= 1e-12 else dihedral(n)


def w_state(n):
    return make_state_from_kets([(1 << q, 1) for q in range(n)], n)


def momentum_w_state(n):
    """One excitation with momentum 2 pi / n: unchanged by the shift, not by the reflection."""
    return make_state_from_kets([(1 << q, np.exp(2j * math.pi * q / n)) for q in range(n)], n)


def dense_copy(state):
    return one_block(state.matrix)


# --- orbits -------------------------------------------------------------------


def brute_force_representatives(n, generators):
    """Smallest mask of each orbit, by closing every mask under the generators."""
    reps = []
    for mask in range(1 << n):
        seen, frontier = {mask}, [mask]
        while frontier:
            m = frontier.pop()
            for g in generators:
                image = sum(1 << g[q] for q in range(n) if (m >> q) & 1)
                if image not in seen:
                    seen.add(image)
                    frontier.append(image)
        reps.append(min(seen))
    return reps


@pytest.mark.parametrize("n", range(1, 9))
def test_orbit_representatives_match_brute_force(n):
    sets = [()]
    if n >= 2:
        sets += [cyclic(n), dihedral(n), symmetric(n)]
    if n in (4, 6, 8):  # n = 4 takes the half-register generators as listed, duplicates and all
        halves = half_generators(n)
        sets += [halves[:4], halves, halves[4:], halves[1:2] + halves[4:]]
    for generators in sets:
        got = orbit_representatives(n, generators)
        assert got.tolist() == brute_force_representatives(n, generators), generators


def symmetry_generator_sets(n):
    """Every generator list `qubit_symmetry` can return on n qubits."""
    if n < 2:
        return [()]
    c, swap, r, halves = qcorr.entropy._candidates(n)
    subsets = [g for k in range(len(halves) + 1) for g in itertools.combinations(halves, k)]
    return [(c,), (c, swap), (c, r), *subsets]


def test_parents_of_representatives_are_representatives():
    """The dense table reduces only representatives, so each must be reached
    from one: adding the lowest missing qubit to the smallest mask of an orbit
    gives the smallest mask of another, for every generator list
    `qubit_symmetry` returns on every register `ccm` takes."""
    for n in range(1, MAX_QUBITS_DP + 1):
        full = full_mask(n)
        for generators in symmetry_generator_sets(n):
            reps = orbit_representatives(n, generators)
            own = np.flatnonzero(reps == np.arange(1 << n))
            own = own[own != full]
            parent = own | ((full ^ own) & -(full ^ own))
            assert np.array_equal(reps[parent], parent), (n, generators)


def test_candidates_are_distinct_permutations():
    for n in range(2, MAX_QUBITS_DP + 1):
        c, swap, r, halves = qcorr.entropy._candidates(n)
        for g in (c, swap, r, *halves):
            assert sorted(g) == list(range(n))
        assert len(set(halves)) == len(halves) == (0 if n % 2 or n < 4 else 3 if n == 4 else 5)
        if n >= 6 and n % 2 == 0:
            assert halves == half_generators(n)


def test_orbit_counts():
    # Binary necklaces and bracelets of length 8 (OEIS A000031, A000029).
    assert len(set(orbit_representatives(8, cyclic(8)).tolist())) == 36
    assert len(set(orbit_representatives(8, dihedral(8)).tolist())) == 30
    assert len(set(orbit_representatives(8, symmetric(8)).tolist())) == 9
    # D_N x D_N: the square of the bracelet count; with the swap of the two
    # rings, the unordered pairs of bracelets, b (b + 1) / 2.
    for n, bracelets in ((10, 8), (14, 18)):
        halves = half_generators(n)
        assert len(set(orbit_representatives(n, halves[:4]).tolist())) == bracelets ** 2
        assert len(set(orbit_representatives(n, halves).tolist())) == bracelets * (bracelets + 1) // 2


# --- detection ----------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_mixture_ring_ground_states_are_dihedral(n):
    for ring in (xxz_ring(n, 0.5), xxz_ring(n, -0.4), ising_ring(n, 0.7)):
        state = ground_state(chain_terms(ring), MIXTURE)
        assert qubit_symmetry(state) == dihedral(n)
        assert qubit_symmetry(dense_copy(state)) == dihedral(n)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
def test_ghz_and_w_are_symmetric(n):
    for state in (make_ghz(n), w_state(n)):
        assert qubit_symmetry(state) == symmetric(n)
        assert qubit_symmetry(dense_copy(state)) == symmetric(n)
    # W lies in the popcount-1 sector, so it also has a block form.
    assert qubit_symmetry(block_state(w_state(n).matrix)) == symmetric(n)


def test_momentum_state_is_cyclic():
    for n in (4, 5, 6):
        state = momentum_w_state(n)
        assert qubit_symmetry(state) == cyclic(n)
        assert qubit_symmetry(dense_copy(state)) == cyclic(n)
        assert_agrees(state)
        assert_agrees(dense_copy(state))


def double_ring(spins, delta1, delta2):
    """Ground state of two XXZ rings side by side, the first on qubits 0..spins-1."""
    return ground_state(chain_terms(xxz_ring(spins, delta1), xxz_ring(spins, delta2)), MIXTURE)


@pytest.mark.parametrize("deltas", [(0.5, 0.5), (0.5, 1.5)], ids=["equal", "unequal"])
@pytest.mark.parametrize("spins", [3, 4])
def test_double_rings_take_the_product_group(spins, deltas):
    """D_N x D_N from each ring's shift and reflection, and the swap of the
    rings when they are equal, on the factor, a dense copy and damped blocks."""
    n = 2 * spins
    halves = half_generators(n)
    expected = halves if deltas[0] == deltas[1] else halves[:4]
    pure = double_ring(spins, *deltas)
    damped = apply_channel_local(pure, amplitude_damping_channel(0.3), full_mask(n))
    assert pure.factor is not None and damped.blocks is not None
    for state in (pure, dense_copy(pure), damped):
        assert qubit_symmetry(state) == expected
        assert_agrees(state)


def test_random_states_are_trivial(rng):
    for n in (2, 3, 5, 7):
        for state in (random_density(n, rng), random_pure_state(n, rng),
                      random_density(n, rng, rank=2)):
            assert qubit_symmetry(state) == ()


def test_first_vector_at_a_degenerate_level_is_trivial():
    h = chain_terms(FRUSTRATED)
    mixture, first = ground_state(h, MIXTURE), ground_state(h, FIRST)
    assert mixture.factor.shape[1] > 1
    assert qubit_symmetry(mixture) == dihedral(5)
    assert qubit_symmetry(first) == ()
    assert qubit_symmetry(dense_copy(first)) == ()
    assert_agrees(first)
    assert_agrees(mixture)


def test_one_qubit_is_trivial():
    assert qubit_symmetry(make_ghz(1)) == ()
    assert subset_entropies(make_ghz(1)).representatives.tolist() == [0, 1]


# --- differential: corpus and ensembles ----------------------------------------


def test_corpus_agrees(corpus):
    for _, state in corpus:
        assert_agrees(state)
        assert_agrees(dense_copy(state))


RING_PARAMS = {
    "xxz": [-1.5, -1.0, -0.4, 0.0, 0.5, 1.0, 1.3, 1.5],  # 1.3, 1.5: rank-2 levels
    "ising": [0.0, 0.3, 1.0, 1.7],
}


def ring_state(model, n, param, mode):
    ring = xxz_ring(n, param) if model == "xxz" else ising_ring(n, param)
    return ground_state(chain_terms(ring), mode)


@given(model=st.sampled_from(sorted(RING_PARAMS)), n=st.integers(3, 8), data=st.data(),
       first=st.booleans())
@settings(deadline=None, max_examples=30)
def test_ring_ground_states(model, n, data, first):
    state = ring_state(model, n, data.draw(st.sampled_from(RING_PARAMS[model])),
                       FIRST if first else MIXTURE)
    if not first:
        assert qubit_symmetry(state) == expected_ring_group(state)
    assert_agrees(state)


@given(model=st.sampled_from(sorted(RING_PARAMS)), n=st.integers(3, 7), data=st.data(),
       damping=st.sampled_from([phase_damping_channel, amplitude_damping_channel]),
       p=st.floats(0.05, 0.95))
@settings(deadline=None, max_examples=25)
def test_damped_ring_ground_states(model, n, data, damping, p):
    pure = ring_state(model, n, data.draw(st.sampled_from(RING_PARAMS[model])), MIXTURE)
    state = apply_channel_local(pure, damping(p), full_mask(n))
    assert state.factor is None
    # A channel on every qubit commutes with every permutation of them.
    assert qubit_symmetry(state) == qubit_symmetry(pure)
    assert_agrees(state)


@given(n=st.integers(2, 7), which=st.sampled_from(["ghz", "w"]), dense=st.booleans())
@settings(deadline=None, max_examples=20)
def test_ghz_and_w(n, which, dense):
    state = make_ghz(n) if which == "ghz" else w_state(n)
    if dense:
        state = dense_copy(state)
    assert qubit_symmetry(state) == symmetric(n)
    assert_agrees(state)


@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["full", "rank2", "pure"]))
@settings(deadline=None, max_examples=20)
def test_random_states(n, seed, kind):
    rng = np.random.default_rng(seed)
    state = {"full": lambda: random_density(n, rng), "rank2": lambda: random_density(n, rng, rank=2),
             "pure": lambda: random_pure_state(n, rng)}[kind]()
    assert qubit_symmetry(state) == ()
    assert_agrees(state)


# --- the acceptance budget -----------------------------------------------------


def fannes_audenaert_bits(trace_distance, dim):
    t = trace_distance
    return t * math.log2(dim - 1) - t * math.log2(t) - (1 - t) * math.log2(1 - t)


def perturbed_dense(eps):
    """A damped XXZ ring with population eps moved between two basis states
    of its magnetization sector, which breaks the shift, as blocks."""
    n = 6
    m = apply_channel_local(ground_state(chain_terms(xxz_ring(n, 0.5))), phase_damping_channel(0.3),
                            full_mask(n)).matrix.copy()
    m[0b000111, 0b000111] += eps
    m[0b001011, 0b001011] -= eps
    return block_state(m)


def perturbed_pure(eps):
    """An XXZ ring ground vector plus eps times a vector that breaks the shift."""
    n = 6
    v = ground_state(chain_terms(xxz_ring(n, 0.5))).factor[:, 0].astype(complex)
    v[0b000111] += eps
    return DensityOperator.from_factor((v / np.linalg.norm(v)).reshape(-1, 1))


SHIFT, REFLECT = [*range(1, 6), 0], list(range(5, -1, -1))  # generators of D_6


@pytest.mark.parametrize("make, path", [(perturbed_dense, "dense"), (perturbed_pure, "factor")])
def test_perturbation_just_above_and_below_the_budget(make, path):
    """The dense path is accepted on sqrt(d) ||D||_F, the factor path on ||D||_1 itself."""
    n, d = 6, 64

    def measure(state, perm):
        if path == "factor":
            return permuted_distance(state, perm)
        m = state.matrix
        p = index_permutation(n, perm)
        return math.sqrt(d) * float(np.linalg.norm(m[np.ix_(p, p)] - m))

    probe = make(1e-6)
    shift_slope = measure(probe, SHIFT) / 1e-6
    slope = max(shift_slope, measure(probe, REFLECT) / 1e-6)
    above, below = make(2.0 * SUPPORT_CUTOFF / shift_slope), make(0.5 * SUPPORT_CUTOFF / slope)
    assert (below.factor is None) == (path == "dense")
    assert measure(above, SHIFT) > SUPPORT_CUTOFF
    assert max(measure(below, SHIFT), measure(below, REFLECT)) <= SUPPORT_CUTOFF

    assert qubit_symmetry(above) == ()
    assert qubit_symmetry(below) == dihedral(6)
    assert_agrees(above)
    # An element of D_6 takes at most 4 generators (c^3 r), each moving the
    # state by at most half the budget in trace distance.
    t = 4 * 0.5 * SUPPORT_CUTOFF
    table, ref = subset_entropies(below), reference_table(below)
    for mask in range(1, 1 << n):
        dim = 1 << bin(mask).count("1")
        assert abs(table[mask] - ref[mask]) <= fannes_audenaert_bits(t, dim)
    assert ccm(below).value == pytest.approx(reference_ccm(below).value, abs=CCM_TOL)


# --- work counts and memory ------------------------------------------------------


def eigensolves(state, monkeypatch):
    """Matrices diagonalized by one `ccm`, with every dense matrix
    diagonalized whole (its popcount blocks are counted in
    test_charge_sectors.py), so that they count the orbit representatives.
    A stack (s, c, c) counts as its s matrices, and none may be all 0.0:
    such a matrix is never diagonalized (a reduced state never is one)."""
    calls = []
    original = qcorr.entropy.hermitian_eigenvalues

    def count(m):
        assert m.reshape(-1, *m.shape[-2:]).any(axis=(1, 2)).all()
        calls.append(m.shape[0] if m.ndim == 3 else 1)
        return original(m)

    monkeypatch.setattr(qcorr.entropy, "hermitian_eigenvalues", count)
    monkeypatch.setattr(DensityOperator, "blocks", property(lambda self: None))
    ccm(state)
    monkeypatch.undo()
    return sum(calls)


def damped_ring(n):
    return apply_channel_local(ground_state(chain_terms(xxz_ring(n, -0.4))), phase_damping_channel(0.4),
                               full_mask(n))


def damped_double_ring(spins):
    return apply_channel_local(double_ring(spins, -0.4, -0.4), phase_damping_channel(0.4),
                               full_mask(2 * spins))


@pytest.mark.parametrize("name, make, count", [
    ("damped ring N=8", lambda: damped_ring(8), 29),           # 30 bracelets less the empty set
    # The 43 representatives a pure state diagonalizes, as rho_A's popcount
    # blocks: 82 matrices (tests/test_popcount_factors.py checks them against
    # a dense model of the walk).
    ("xxz N=10 mixture", lambda: ground_state(chain_terms(xxz_ring(10, 0.5))), 82),
    ("ghz-10", lambda: make_ghz(10), 5),                       # sizes 1..5; the rest are complements
    ("random n=6", lambda: random_density(6, np.random.default_rng(0)), 63),
    # D_4 x D_4 with the swap: 6 bracelets a ring, 21 unordered pairs less the empty set
    ("damped double ring 4+4", lambda: damped_double_ring(4), 20),
])
def test_eigensolve_counts(name, make, count, monkeypatch):
    assert eigensolves(make(), monkeypatch) == count


def test_symmetric_table_peak_memory_n10():
    # tracemalloc sees numpy's arrays, not LAPACK's work buffers.
    state = damped_ring(10)
    assert state.factor is None and qubit_symmetry(state) == dihedral(10)
    tracemalloc.start()
    try:
        subset_entropies(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= state.matrix.nbytes
