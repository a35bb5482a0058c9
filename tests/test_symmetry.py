"""Subset entropies and DP values shared across qubit-permutation orbits.

`subset_entropies` finds the group of qubit permutations that leaves a state
unchanged and diagonalizes one subset per orbit; `ccm` searches for the
minimum on one mask per orbit.  Both must agree with the per-subset
reference, which diagonalizes every subset and runs the DP on every mask, and
the group found must be the one the state has.
"""

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
    GroundStatePolicy,
    PureState,
    SpinChainSpec,
    amplitude_damping_channel,
    apply_channel_local,
    build_hamiltonian,
    build_ising,
    build_xxz,
    ccm,
    full_mask,
    ground_state,
    make_ghz,
    make_state_from_kets,
    phase_damping_channel,
)
from qcorr.ccm import MAX_QUBITS_DP
from qcorr.entropy import (
    QubitGroup,
    orbit_representatives,
    qubit_symmetry,
    subset_entropies,
    subset_entropy,
)
from qcorr.sampling import random_density, random_pure_state
from qcorr.states import SUPPORT_CUTOFF

CCM_MODULE = sys.modules["qcorr.ccm"]  # `qcorr.ccm` is the re-exported function

TABLE_TOL = 1e-12
CCM_TOL = 1e-10
ROUNDOFF_BITS = 1e-13  # as in test_factored.py: trees are compared below this gap

FIRST = GroundStatePolicy(GroundStateMode.FIRST_VECTOR)
MIXTURE = GroundStatePolicy()
# Antiferromagnetic XY coupling frustrates an odd ring: its lowest level is
# degenerate inside one magnetization sector, so `first-vector` keeps one
# vector of a multiplet that the shift rotates.
FRUSTRATED = SpinChainSpec(5, jx=-0.5, jy=-0.5, jz=0.2)


def reference_table(state):
    """S(rho_A) for every mask, one `subset_entropy` call per subset."""
    return [0.0] + [subset_entropy(state, mask) for mask in range(1, full_mask(state.num_qubits) + 1)]


def reference_ccm(state):
    """`ccm` on the reference table; a plain list shares nothing between masks."""
    original = CCM_MODULE.subset_entropies
    CCM_MODULE.subset_entropies = reference_table
    try:
        return ccm(state)
    finally:
        CCM_MODULE.subset_entropies = original


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
    assert got.stats == want.stats
    if gap <= ROUNDOFF_BITS:
        assert tree_shape(got.tree) == tree_shape(want.tree)


def index_permutation(n, perm):
    """Basis index of the state with qubit k's bit taken from qubit perm[k]."""
    return np.arange(1 << n).reshape((2,) * n).transpose(perm).reshape(-1)


def density(state):
    return state.to_density().matrix if isinstance(state, PureState) else state.matrix


def permuted_distance(state, perm):
    """Trace norm of the permuted state minus the state, from the full matrix."""
    m = density(state)
    p = index_permutation(state.num_qubits, perm)
    return float(np.abs(np.linalg.eigvalsh(m[np.ix_(p, p)] - m)).sum())


def expected_ring_group(state):
    """D_n for a ring state, S_n if the transposition (0 1) also leaves it unchanged."""
    n = state.num_qubits
    swap = [1, 0, *range(2, n)]
    return QubitGroup.SYMMETRIC if permuted_distance(state, swap) <= 1e-12 else QubitGroup.DIHEDRAL


def w_state(n):
    return make_state_from_kets([(1 << q, 1) for q in range(n)], n)


def momentum_w_state(n):
    """One excitation with momentum 2 pi / n: unchanged by the shift, not by the reflection."""
    return make_state_from_kets([(1 << q, np.exp(2j * math.pi * q / n)) for q in range(n)], n)


def dense_copy(state):
    return DensityOperator(density(state))


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


@pytest.mark.parametrize("n", range(1, 8))
def test_orbit_representatives_match_brute_force(n):
    shift = [(q + 1) % n for q in range(n)]
    reflect = [n - 1 - q for q in range(n)]
    swap = [1, 0, *range(2, n)] if n >= 2 else [0]
    for group, generators in ((QubitGroup.TRIVIAL, []), (QubitGroup.CYCLIC, [shift]),
                              (QubitGroup.DIHEDRAL, [shift, reflect]),
                              (QubitGroup.SYMMETRIC, [shift, swap])):
        got = orbit_representatives(n, group)
        assert got.tolist() == brute_force_representatives(n, generators)


def test_parents_of_representatives_are_representatives():
    """The dense table reduces only representatives, so each must be reached
    from one: adding the lowest missing qubit to the smallest mask of an orbit
    gives the smallest mask of another, for every register `ccm` takes."""
    for n in range(1, MAX_QUBITS_DP + 1):
        full = full_mask(n)
        for group in QubitGroup:
            reps = orbit_representatives(n, group)
            own = np.flatnonzero(reps == np.arange(1 << n))
            own = own[own != full]
            parent = own | ((full ^ own) & -(full ^ own))
            assert np.array_equal(reps[parent], parent), (n, group)


def test_orbit_counts():
    # Binary necklaces and bracelets of length 8 (OEIS A000031, A000029).
    assert len(set(orbit_representatives(8, QubitGroup.CYCLIC).tolist())) == 36
    assert len(set(orbit_representatives(8, QubitGroup.DIHEDRAL).tolist())) == 30
    assert len(set(orbit_representatives(8, QubitGroup.SYMMETRIC).tolist())) == 9


# --- detection ----------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_mixture_ring_ground_states_are_dihedral(n):
    for h in (build_xxz(n, 0.5), build_xxz(n, -0.4), build_ising(n, 0.7)):
        state = ground_state(h, MIXTURE)
        assert qubit_symmetry(state) is QubitGroup.DIHEDRAL
        assert qubit_symmetry(dense_copy(state)) is QubitGroup.DIHEDRAL


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
def test_ghz_and_w_are_symmetric(n):
    for state in (make_ghz(n), w_state(n)):
        assert qubit_symmetry(state) is QubitGroup.SYMMETRIC
        assert qubit_symmetry(dense_copy(state)) is QubitGroup.SYMMETRIC


def test_momentum_state_is_cyclic():
    for n in (4, 5, 6):
        state = momentum_w_state(n)
        assert qubit_symmetry(state) is QubitGroup.CYCLIC
        assert qubit_symmetry(dense_copy(state)) is QubitGroup.CYCLIC
        assert_agrees(state)
        assert_agrees(dense_copy(state))


def test_random_states_are_trivial(rng):
    for n in (2, 3, 5, 7):
        for state in (random_density(n, rng), random_pure_state(n, rng),
                      random_density(n, rng, rank=2)):
            assert qubit_symmetry(state) is QubitGroup.TRIVIAL


def test_first_vector_at_a_degenerate_level_is_trivial():
    h = build_hamiltonian(FRUSTRATED)
    mixture, first = ground_state(h, MIXTURE), ground_state(h, FIRST)
    assert mixture.factor.shape[1] > 1
    assert qubit_symmetry(mixture) is QubitGroup.DIHEDRAL
    assert qubit_symmetry(first) is QubitGroup.TRIVIAL
    assert qubit_symmetry(dense_copy(first)) is QubitGroup.TRIVIAL
    assert_agrees(first)
    assert_agrees(mixture)


def test_one_qubit_is_trivial():
    assert qubit_symmetry(make_ghz(1)) is QubitGroup.TRIVIAL
    assert subset_entropies(make_ghz(1)).representatives == [0, 1]


# --- differential: corpus and ensembles ----------------------------------------


def test_corpus_agrees(corpus):
    for _, state in corpus:
        assert_agrees(state)
        assert_agrees(dense_copy(state))


RING_PARAMS = {
    "xxz": [-1.5, -1.0, -0.4, 0.0, 0.5, 1.0, 1.3, 1.5],  # 1.3, 1.5: rank-2 levels
    "ising": [0.0, 0.3, 1.0, 1.7],
}


def ring_state(model, n, param, policy):
    h = build_xxz(n, param) if model == "xxz" else build_ising(n, param)
    return ground_state(h, policy)


@given(model=st.sampled_from(sorted(RING_PARAMS)), n=st.integers(3, 8), data=st.data(),
       first=st.booleans())
@settings(deadline=None, max_examples=30)
def test_ring_ground_states(model, n, data, first):
    state = ring_state(model, n, data.draw(st.sampled_from(RING_PARAMS[model])),
                       FIRST if first else MIXTURE)
    if not first:
        assert qubit_symmetry(state) is expected_ring_group(state)
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
    assert qubit_symmetry(state) is qubit_symmetry(pure)
    assert_agrees(state)


@given(n=st.integers(2, 7), which=st.sampled_from(["ghz", "w"]), dense=st.booleans())
@settings(deadline=None, max_examples=20)
def test_ghz_and_w(n, which, dense):
    state = make_ghz(n) if which == "ghz" else w_state(n)
    if dense:
        state = dense_copy(state)
    assert qubit_symmetry(state) is QubitGroup.SYMMETRIC
    assert_agrees(state)


@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["full", "rank2", "pure"]))
@settings(deadline=None, max_examples=20)
def test_random_states(n, seed, kind):
    rng = np.random.default_rng(seed)
    state = {"full": lambda: random_density(n, rng), "rank2": lambda: random_density(n, rng, rank=2),
             "pure": lambda: random_pure_state(n, rng)}[kind]()
    assert qubit_symmetry(state) is QubitGroup.TRIVIAL
    assert_agrees(state)


# --- the acceptance budget -----------------------------------------------------


def fannes_audenaert_bits(trace_distance, dim):
    t = trace_distance
    return t * math.log2(dim - 1) - t * math.log2(t) - (1 - t) * math.log2(1 - t)


def perturbed_dense(eps):
    """A damped XXZ ring with population eps moved between two basis states
    of its magnetization sector, which breaks the shift."""
    n = 6
    m = apply_channel_local(ground_state(build_xxz(n, 0.5)), phase_damping_channel(0.3),
                            full_mask(n)).matrix.copy()
    m[0b000111, 0b000111] += eps
    m[0b001011, 0b001011] -= eps
    return DensityOperator(m)


def perturbed_pure(eps):
    """An XXZ ring ground vector plus eps times a vector that breaks the shift."""
    n = 6
    v = ground_state(build_xxz(n, 0.5)).factor[:, 0].astype(complex)
    v[0b000111] += eps
    return PureState(v / np.linalg.norm(v))


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

    assert qubit_symmetry(above) is QubitGroup.TRIVIAL
    assert qubit_symmetry(below) is QubitGroup.DIHEDRAL
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
    """Eigensolves of one `ccm`, with every dense matrix diagonalized whole
    (its popcount sectors are counted in test_charge_sectors.py), so that
    they count the orbit representatives."""
    calls = []
    original = qcorr.entropy.hermitian_eigenvalues

    def count(m):
        calls.append(m.shape[0])
        return original(m)

    monkeypatch.setattr(qcorr.entropy, "hermitian_eigenvalues", count)
    monkeypatch.setattr(qcorr.entropy, "holds_popcount", lambda m: False)
    report = ccm(state)
    monkeypatch.undo()
    return len(calls), report


def damped_ring(n):
    return apply_channel_local(ground_state(build_xxz(n, -0.4)), phase_damping_channel(0.4),
                               full_mask(n))


@pytest.mark.parametrize("name, make, count", [
    ("damped ring N=8", lambda: damped_ring(8), 29),           # 30 bracelets less the empty set
    ("xxz N=10 mixture", lambda: ground_state(build_xxz(10, 0.5)), 43),
    ("ghz-10", lambda: make_ghz(10), 5),                       # sizes 1..5; the rest are complements
    ("random n=6", lambda: random_density(6, np.random.default_rng(0)), 63),
])
def test_eigensolve_counts(name, make, count, monkeypatch):
    state = make()
    solves, report = eigensolves(state, monkeypatch)
    assert solves == count
    n = state.num_qubits
    assert report.stats.entropies_computed == (1 << n) - 1  # subsets, not eigensolves


def test_symmetric_table_peak_memory_n10():
    # tracemalloc sees numpy's arrays, not LAPACK's work buffers.
    state = damped_ring(10)
    assert state.factor is None and qubit_symmetry(state) is QubitGroup.DIHEDRAL
    tracemalloc.start()
    try:
        subset_entropies(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= state.matrix.nbytes
