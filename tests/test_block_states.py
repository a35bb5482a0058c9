"""States carried as popcount blocks, from the channel to the entropy table.

A ring ground state whose factor columns each lie in one popcount sector,
damped by a channel that keeps popcounts apart, is carried as one block per
popcount (`DensityOperator.blocks`); its subset table is reduced block by
block.  Every state without blocks is the one-block case.  Hiding the blocks
(by replacing `DensityOperator.blocks`) sends the same state down the
one-block path, which must agree with the block path on every subset
entropy, on the value and, below the round-off gap, on the tree; `ccm_naive`
checks both for n <= 6.  Maps that keep Hermiticity and the trace build
their output without checking it again; the public constructor still checks.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcorr.states
from qcorr import (
    DensityOperator,
    KrausChannel,
    amplitude_damping_channel,
    apply_channel_local,
    apply_local_unitary,
    ccm,
    ccm_naive,
    chain_terms,
    full_mask,
    ground_state,
    partial_trace,
    phase_damping_channel,
    read_qs1,
    tensor_product,
    write_qs1,
    xxz_ring,
)
from qcorr.entropy import subset_entropies
from qcorr.errors import InvariantViolation, ParseError
from qcorr.linalg import apply_superoperators, superoperator
from qcorr.sampling import random_density
from qcorr.states import sector_views, subset_qubits

from dense_reference import block_state, holds_popcount

TABLE_TOL = 1e-12
CCM_TOL = 1e-10
NAIVE_TOL = 1e-9
ROUNDOFF_BITS = 1e-13  # as in test_factored.py: trees are compared below this gap
CHANNELS = {"phase": phase_damping_channel, "amplitude": amplitude_damping_channel}


def phase_gates(n, seed):
    """diag(1, e^{i phi}) on every qubit: keeps the popcounts apart and makes
    a real state complex."""
    phis = np.random.default_rng(seed).uniform(0, 2 * np.pi, n)
    return [np.diag([1.0, np.exp(1j * phi)]) for phi in phis]


def damped_ring(n, delta, channel, p, complex_seed=None):
    state = apply_channel_local(ground_state(chain_terms(xxz_ring(n, delta))),
                                CHANNELS[channel](p), full_mask(n))
    if complex_seed is not None:
        state = apply_local_unitary(state, phase_gates(n, complex_seed))
    return state


def tree_shape(node):
    if node is None:
        return None
    return (node.subset, node.mask_a, tree_shape(node.left), tree_shape(node.right))


def hidden_blocks(mp):
    mp.setattr(DensityOperator, "blocks", property(lambda self: None))


def assert_block_path_agrees(state):
    assert state.factor is None and state.blocks is not None
    table, report = subset_entropies(state), ccm(state)
    with pytest.MonkeyPatch.context() as mp:
        hidden_blocks(mp)
        whole_table, whole_report = subset_entropies(state), ccm(state)
    gap = max(abs(a - b) for a, b in zip(table, whole_table))
    assert gap <= TABLE_TOL
    assert report.value == pytest.approx(whole_report.value, abs=CCM_TOL)
    if gap <= ROUNDOFF_BITS:
        assert tree_shape(report.tree) == tree_shape(whole_report.tree)
    if state.num_qubits <= 6:
        assert report.value == pytest.approx(ccm_naive(state), abs=NAIVE_TOL)


# --- the block path against the one-block path and ccm_naive -------------------


@given(n=st.integers(2, 8), delta=st.floats(-2.0, 2.0), channel=st.sampled_from(sorted(CHANNELS)),
       p=st.floats(0.01, 1.0), complex_seed=st.one_of(st.none(), st.integers(0, 2**16)))
@settings(deadline=None, max_examples=40)
def test_damped_rings_agree(n, delta, channel, p, complex_seed):
    state = damped_ring(n, delta, channel, p, complex_seed)
    assert state.blocks.dtype == (np.float64 if complex_seed is None else np.complex128)
    assert_block_path_agrees(state)


# Random phases break the ring's symmetry, so complex states take the trivial
# group: one complex N = 10 case costs 4.6 s on the one-block path.
SEEDED = [(n, channel, seed) for n in (2, 3, 5, 6, 9) for channel in sorted(CHANNELS)
          for seed in (None, 3)] + [(10, "amplitude", None), (10, "phase", None), (10, "phase", 3)]


@pytest.mark.parametrize("n, channel, complex_seed", SEEDED)
def test_seeded_damped_rings_agree(n, channel, complex_seed):
    assert_block_path_agrees(damped_ring(n, -0.7, channel, 0.35, complex_seed))


def test_blocks_hold_the_matrix():
    # The flat array holds C(2n, n) entries, and the matrix formed from it
    # is the dense channel's output.
    n = 6
    state = damped_ring(n, 0.5, "amplitude", 0.4)
    assert state.blocks.size == math.comb(2 * n, n)
    ground = ground_state(chain_terms(xxz_ring(n, 0.5)))
    supers = [(q, superoperator(amplitude_damping_channel(0.4).operators)) for q in range(n)]
    want = apply_superoperators(ground.matrix, n, supers)
    assert np.abs(state.matrix - want).max() <= 1e-15
    for idx, block in zip(qcorr.states.block_layout(n).sectors, sector_views(state.blocks, n)):
        assert np.array_equal(block, state.matrix[np.ix_(idx, idx)])


# --- channels -------------------------------------------------------------------


def twisted_channel():
    """A complex diagonal channel: keeps popcounts apart, makes states complex."""
    return KrausChannel((np.diag([1.0, 1j]),))


def depolarizing_channel(p):
    """Keeps popcounts apart although X and Y flip a qubit: it takes
    |0><1| to (1 - p) |0><1|, and feeds |0><0| and |1><1| into each other,
    so it moves entries both ways between blocks k and k + 1."""
    weights = (1 - 3 * p / 4, p / 4, p / 4, p / 4)
    return KrausChannel(tuple(math.sqrt(w) * e for w, e in zip(weights, PAULIS)))


def bit_flip_channel(p):
    """Mixes popcounts: it takes |0><1| to |1><0|."""
    return KrausChannel((math.sqrt(1 - p) * PAULIS[0], math.sqrt(p) * PAULIS[1]))


PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
KINDS = {"phase": phase_damping_channel, "amplitude": amplitude_damping_channel,
         "depolarizing": depolarizing_channel, "twisted": lambda p: twisted_channel()}


@given(n=st.integers(1, 7), delta=st.floats(-2.0, 2.0), p=st.floats(0.0, 1.0),
       kind=st.sampled_from(sorted(KINDS)), qubits=st.integers(0, 2**7 - 1))
@settings(deadline=None, max_examples=40)
def test_block_channels_match_the_dense_kernel_bit_for_bit(n, delta, p, kind, qubits):
    qubits &= full_mask(n)
    matrix = damped_ring(n, delta, "phase", 0.3).matrix if n > 1 else np.diag([0.25, 0.75])
    state = block_state(matrix)
    channel = KINDS[kind](p)
    out = apply_channel_local(state, channel, qubits)
    assert out.blocks is not None
    s = superoperator(channel.operators)
    want = apply_superoperators(matrix, n, [(q, s) for q in subset_qubits(qubits)]) if qubits else matrix
    assert out.matrix.dtype == want.dtype
    assert np.array_equal(out.matrix, want)


@pytest.mark.parametrize("n", [8, 9, 10])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_one_channel_on_several_states_matches_the_dense_kernel_bit_for_bit(n, kind):
    # The channel keeps its per-qubit scaling arrays while they fit the
    # budget (C(2n, n) entries: N = 8 and 9) and reuses them on the next
    # state; at N = 10 they pass it and are gathered afresh on every call.
    channel = KINDS[kind](0.35)
    s = superoperator(channel.operators)
    ground = ground_state(chain_terms(xxz_ring(n, -0.7)))
    for state in (ground, damped_ring(n, 0.4, "amplitude", 0.3), damped_ring(n, 1.5, "phase", 0.6)):
        want = apply_superoperators(state.matrix, n, [(q, s) for q in range(n)])
        out = apply_channel_local(state, channel, full_mask(n))
        assert out.blocks is not None
        assert out.matrix.dtype == want.dtype and np.array_equal(out.matrix, want)
    kept = channel._scales
    assert all(a.size <= qcorr.states.BLOCK_ENTRIES for a in kept.values())
    fits = math.comb(2 * n, n) <= qcorr.states.BLOCK_ENTRIES
    assert fits == (n < 10) and sorted(kept) == ([(n, q) for q in range(n)] if fits else [])


@pytest.mark.parametrize("n", [2, 4, 6])
def test_a_channel_that_mixes_popcounts_takes_the_dense_kernel(n):
    state = damped_ring(n, 0.5, "amplitude", 0.3)
    channel = bit_flip_channel(0.2)
    out = apply_channel_local(state, channel, full_mask(n))
    assert out.blocks is None and out.factor is None
    s = superoperator(channel.operators)
    want = apply_superoperators(state.matrix, n, [(q, s) for q in range(n)])
    assert np.array_equal(out.matrix, want)
    table, ref = subset_entropies(out), [0.0] + [
        qcorr.entropy.von_neumann_entropy(partial_trace(out, mask)) for mask in range(1, 1 << n)]
    assert max(abs(a - b) for a, b in zip(table, ref)) <= TABLE_TOL
    assert ccm(out).value == pytest.approx(ccm_naive(out), abs=NAIVE_TOL)


def test_states_without_blocks_stay_one_block(rng):
    rho = random_density(4, rng)
    assert rho.blocks is None
    assert apply_channel_local(rho, amplitude_damping_channel(0.3), full_mask(4)).blocks is None
    # A factor with a column across two popcount sectors has no blocks.
    v = np.zeros((8, 1))
    v[0b000, 0] = v[0b011, 0] = math.sqrt(0.5)
    assert DensityOperator.from_factor(v).blocks is None


# --- intake ---------------------------------------------------------------------


@pytest.mark.parametrize("channel", sorted(CHANNELS))
def test_a_file_that_holds_popcounts_apart_is_one_block(tmp_path, channel):
    # Intake does not look for popcount blocks: a damped ring read from a
    # file takes the one-block walk, and must agree with the same matrix
    # carried as blocks.
    n = 6
    m = damped_ring(n, 0.5, channel, 0.4).matrix
    path = tmp_path / "damped.qs1"
    write_qs1(path, DensityOperator(m))
    state, reference = read_qs1(path), block_state(m)
    assert np.array_equal(state.matrix, m) and holds_popcount(state.matrix)
    assert state.factor is None and state.blocks is None
    sizes = []
    solve = qcorr.entropy.hermitian_eigenvalues
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcorr.entropy, "hermitian_eigenvalues", lambda a: sizes.append(a.shape[-1]) or solve(a))
        table, report = subset_entropies(state), ccm(state)
    # The root's spectrum was kept at intake; the five-qubit subsets are
    # diagonalized whole, where the blocks would be at most C(5, 2) = 10 wide.
    assert max(sizes) == 1 << (n - 1)
    want_table, want = subset_entropies(reference), ccm(reference)
    gap = max(abs(a - b) for a, b in zip(table, want_table))
    assert gap <= TABLE_TOL
    assert report.value == pytest.approx(want.value, abs=CCM_TOL)
    if gap <= ROUNDOFF_BITS:
        assert tree_shape(report.tree) == tree_shape(want.tree)


# --- validation at the boundary ---------------------------------------------------


def test_the_public_constructor_still_rejects_a_non_hermitian_matrix(tmp_path, rng):
    charged = damped_ring(5, 0.5, "phase", 0.3).matrix.copy()
    charged[1, 2] += 1e-6  # inside popcount sector 1, so the popcounts stay apart
    generic = random_density(3, rng).matrix.copy()
    generic[0, 5] += 1e-6j
    for m in (charged, generic):
        with pytest.raises(InvariantViolation, match="not Hermitian"):
            DensityOperator(m)
    path = tmp_path / "state.qs1"
    body = "\n".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in charged.reshape(-1))
    path.write_text(f"qs1 mixed 5\n{body}\n", encoding="ascii")
    with pytest.raises(ParseError, match="not Hermitian"):
        read_qs1(path)


def test_maps_do_not_check_their_output_again(monkeypatch, rng):
    calls = []
    check = qcorr.states.is_hermitian
    monkeypatch.setattr(qcorr.states, "is_hermitian", lambda m: calls.append(m.shape) or check(m))
    ring = ground_state(chain_terms(xxz_ring(4, 0.5)))
    rho = random_density(4, rng)
    calls.clear()
    damped = apply_channel_local(ring, amplitude_damping_channel(0.3), full_mask(4))
    apply_channel_local(damped, bit_flip_channel(0.3), full_mask(4))
    apply_local_unitary(damped, phase_gates(4, 1))
    apply_local_unitary(rho, [np.eye(2)] * 4)
    partial_trace(damped, 0b0110)
    tensor_product(rho, damped)
    assert calls == []
    DensityOperator(rho.matrix)
    assert calls == [(16, 16)]


# --- memory ---------------------------------------------------------------------


def test_damped_n12_point_peak_memory():
    # One point of `qcorr noise` at N = 12: ground state, channel and ccm.
    # The dense path held three 2^12 x 2^12 float64 matrices (512 MiB);
    # the blocks are C(24, 12) entries, 21.6 MB.  tracemalloc sees numpy's
    # arrays, not LAPACK's work buffers.
    n = 12
    tracemalloc.start()
    try:
        state = ground_state(chain_terms(xxz_ring(n, 0.5)))
        damped = apply_channel_local(state, amplitude_damping_channel(0.3), full_mask(n))
        value = ccm(damped).value
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert damped.blocks.size == math.comb(2 * n, n)
    assert peak <= 128 * 2**20
    assert value > 0.0
