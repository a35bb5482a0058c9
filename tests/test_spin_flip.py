"""The spin flip X^n and the ring reflections in the popcount-block walk.

A state in block form that the global spin flip leaves unchanged (within
the budget of the qubit generators) has block m - k of every reduced state
take block k's spectrum, and its middle block solved as two halves T +- F.
A ring state whose qubit group is D_n has each block of a subset split
again by a reflection that maps the subset onto itself.  Forcing the flip
test to fail and finding no reflection gives the unsplit walk: its tables
must agree with the split ones within the Fannes-Audenaert bound of the
budget, and its trees must be the same.  A coherence that breaks either
symmetry by more than the budget sends the walk down the unsplit path.  A
channel applied to every qubit passes the input's qubit generators to its
output, but the flip is tested on each output: amplitude damping breaks it.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcorr.entropy
from qcorr import (
    DensityOperator,
    amplitude_damping_channel,
    apply_channel_local,
    apply_local_unitary,
    ccm,
    chain_terms,
    full_mask,
    ground_state,
    phase_damping_channel,
    xxz_ring,
)
from qcorr.entropy import _flips_by_at_most_cutoff, _tested_symmetry, qubit_symmetry, subset_entropies
from qcorr.states import SUPPORT_CUTOFF, block_layout

from dense_reference import dihedral, model_solves, one_block

TABLE_TOL = 1e-12
NOISE_DELTAS = np.linspace(-1.5, 0.5, 7)  # the grid of tests/data/noise/xxz_n8_*.csv
NOISE_PS = (0.2, 0.4, 0.6, 0.8)


def fannes_audenaert_bits(trace_distance, dim):
    t = trace_distance
    return t * math.log2(dim - 1) - t * math.log2(t) - (1 - t) * math.log2(1 - t)


def tree_shape(node):
    if node is None:
        return None
    return (node.subset, node.mask_a, tree_shape(node.left), tree_shape(node.right))


def damped(rings, p, phase=None, channel=phase_damping_channel):
    """Ground state of the rings side by side under `channel` on every
    qubit; with `phase`, one phase gate on every qubit makes its blocks
    complex and keeps their values."""
    n = sum(ring.num_spins for ring in rings)
    state = apply_channel_local(ground_state(chain_terms(*rings)), channel(p), full_mask(n))
    if phase is not None:
        state = apply_local_unitary(state, [np.diag([1.0, np.exp(1j * phase)])] * n)
    return state


def unsplit(monkeypatch):
    monkeypatch.setattr(qcorr.entropy, "_flips_by_at_most_cutoff", lambda state: False)
    monkeypatch.setattr(qcorr.entropy, "_ring_reflections", lambda n, mask: ())


def assert_split_agrees(state, monkeypatch):
    """The split walk against the unsplit one: tables within the bound of a
    symmetry that moves the state by SUPPORT_CUTOFF in trace norm, equal
    trees."""
    assert state.factor is None and state.blocks is not None
    table, report = subset_entropies(state), ccm(state)
    with monkeypatch.context() as mp:
        unsplit(mp)
        whole_table, whole_report = subset_entropies(state), ccm(state)
    for mask in range(1, 1 << state.num_qubits):
        dim = 1 << bin(mask).count("1")
        assert abs(table[mask] - whole_table[mask]) <= fannes_audenaert_bits(0.5 * SUPPORT_CUTOFF, dim)
    assert tree_shape(report.tree) == tree_shape(whole_report.tree)
    assert report.value == pytest.approx(whole_report.value, abs=1e-10)


@st.composite
def flip_invariant_rings(draw):
    """Phase-damped XXZ rings (N = 4..10) and double-XXZ rings (2 + 2 ..
    5 + 5), with real or complex blocks."""
    delta, p = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.05, 0.95))
    if draw(st.booleans()):
        rings = (xxz_ring(draw(st.integers(4, 10)), delta),)
    else:
        spins = draw(st.integers(2, 5))
        rings = (xxz_ring(spins, delta), xxz_ring(spins, draw(st.floats(-2.0, 2.0))))
    phase = draw(st.none() | st.floats(0.1, 6.0))
    return damped(rings, p, phase)


@given(state=flip_invariant_rings())
@example(state=damped((xxz_ring(10, -0.7),), 0.4))
@example(state=damped((xxz_ring(5, 0.3), xxz_ring(5, -1.2)), 0.6, 2.0))
@settings(deadline=None, max_examples=25)
def test_split_walk_agrees_with_the_unsplit_walk(state):
    assert _flips_by_at_most_cutoff(state)
    with pytest.MonkeyPatch.context() as mp:
        assert_split_agrees(state, mp)


@st.composite
def damped_rings(draw):
    """Phase- and amplitude-damped XXZ rings, N = 3..10, with real or
    complex blocks: their qubit group is D_N, and the flip holds under
    phase damping only."""
    n, delta, p = draw(st.integers(3, 10)), draw(st.floats(-2.0, 2.0)), draw(st.floats(0.05, 0.95))
    channel = draw(st.sampled_from([phase_damping_channel, amplitude_damping_channel]))
    phase = draw(st.none() | st.floats(0.1, 6.0))
    return damped((xxz_ring(n, delta),), p, phase, channel)


@given(state=damped_rings())
@example(state=damped((xxz_ring(10, -0.7),), 0.4, None, amplitude_damping_channel))
@example(state=damped((xxz_ring(9, 0.3),), 0.6, 2.0, amplitude_damping_channel))
@example(state=damped((xxz_ring(3, -1.2),), 0.3))
@settings(deadline=None, max_examples=25)
def test_reflection_split_agrees_with_the_unsplit_walk(state):
    generators = qubit_symmetry(state)  # D_N, or S_N = D_3 at N = 3: either holds the reflections
    assert len(generators) == 2 and generators[0] == dihedral(state.num_qubits)[0]
    with pytest.MonkeyPatch.context() as mp:
        assert_split_agrees(state, mp)


def random_flip_invariant_blocks(n, seed):
    """A complex state in block form with random blocks, averaged with its
    spin flip (which reverses its flat block array): flip-invariant, with
    no qubit symmetry and complex entries in every block."""
    rng = np.random.default_rng(seed)
    pieces = []
    for c in block_layout(n).sizes:
        g = rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c))
        pieces.append((g @ g.conj().T).reshape(-1))
    blocks = np.concatenate(pieces)
    blocks = (blocks + blocks[::-1]) / 2
    blocks /= blocks[block_layout(n).diagonal].real.sum()
    return DensityOperator._trusted(n, blocks=blocks)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])  # at n = 2 the flip makes the one 2 x 2 block real
def test_complex_random_blocks(n, monkeypatch):
    state = random_flip_invariant_blocks(n, n)
    assert np.abs(state.blocks.imag).max() > 0.1 * np.abs(state.blocks).max()
    assert _flips_by_at_most_cutoff(state)  # no qubit symmetry: the flip is the only split
    assert_split_agrees(state, monkeypatch)
    table, dense = subset_entropies(state), subset_entropies(one_block(state.matrix))
    assert max(abs(a - b) for a, b in zip(table, dense)) <= TABLE_TOL


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """The size of every matrix `np.linalg.eigvalsh` diagonalizes, one entry
    per matrix of a stack."""
    sizes = []
    solve = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        sizes.extend([a.shape[-1]] * (a.shape[0] if a.ndim == 3 else 1))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return sizes


def with_coherence(state, eps):
    """`state` with eps added to every coherence of its popcount-1 block and
    not of block n - 1: the qubit permutations still leave it unchanged,
    the spin flip moves it by sqrt(d) ||D||_F = eps sqrt(2 d n (n - 1))."""
    n, lay = state.num_qubits, block_layout(state.num_qubits)
    blocks = state.blocks.copy()
    one = blocks[lay.offsets[1]:lay.offsets[2]].reshape(n, n)
    one += eps * (np.ones((n, n)) - np.eye(n))
    out = DensityOperator._trusted(n, blocks=blocks)
    out._qubit_symmetry = qubit_symmetry(state)
    return out


def test_flip_breaking_perturbation_takes_the_unsplit_path(eigvalsh_sizes, monkeypatch):
    n = 8
    state = damped((xxz_ring(n, -0.7),), 0.4)
    unit = math.sqrt((1 << n) * 2 * n * (n - 1))  # sqrt(d) ||D||_F at eps = 1
    above = with_coherence(state, 2.0 * SUPPORT_CUTOFF / unit)
    below = with_coherence(state, 0.5 * SUPPORT_CUTOFF / unit)
    assert not _flips_by_at_most_cutoff(above) and _flips_by_at_most_cutoff(below)
    # The reflections split the blocks either way, and the root is cut into
    # momentum blocks; the dense model gives the matrices solved with and
    # without the flip.  The flip only halves middle blocks, and the
    # largest matrix is a child's, which has no middle block, so only the
    # counts tell the two paths apart.
    for perturbed, flip in ((above, False), (below, True)):
        eigvalsh_sizes.clear()
        ccm(perturbed)
        assert Counter(eigvalsh_sizes) == model_solves(perturbed, flip)[0]
    with_flip, without = model_solves(below, True)[0], model_solves(above, False)[0]
    assert with_flip != without and max(with_flip) == max(without) < math.comb(n, n // 2)
    assert_split_agrees(below, monkeypatch)


def with_twist(state, eps):
    """`state` with i eps (C - C^T) added to its popcount-1 block, C the
    cyclic shift of the one up spin, and the flip of that to block n - 1:
    the shift and the spin flip still leave it unchanged, while each ring
    reflection, which maps C to C^T, moves it by sqrt(d) ||D||_F =
    eps sqrt(d) 4 sqrt(n).  The qubit group is tested afresh."""
    n, lay = state.num_qubits, block_layout(state.num_qubits)
    twist = 1j * eps * (np.roll(np.eye(n), 1, axis=1) - np.roll(np.eye(n), -1, axis=1))
    blocks = state.blocks.astype(complex)
    blocks[lay.offsets[1]:lay.offsets[2]] += twist.reshape(-1)
    blocks[lay.offsets[n - 1]:lay.offsets[n]] += twist[::-1, ::-1].reshape(-1)
    return DensityOperator._trusted(n, blocks=blocks)


def test_reflection_breaking_perturbation_takes_the_unsplit_path(eigvalsh_sizes, monkeypatch):
    n = 8
    state = damped((xxz_ring(n, -0.7),), 0.4)
    unit = 4 * math.sqrt((1 << n) * n)  # sqrt(d) ||D||_F of a reflection at eps = 1
    above = with_twist(state, 2.0 * SUPPORT_CUTOFF / unit)
    below = with_twist(state, 0.5 * SUPPORT_CUTOFF / unit)
    shift = dihedral(n)[0]
    assert qubit_symmetry(above) == (shift,) and qubit_symmetry(below) == dihedral(n)
    assert _flips_by_at_most_cutoff(above) and _flips_by_at_most_cutoff(below)
    # Under C_8 no reflection splits a block: the root is cut into momentum
    # blocks, and a child's largest blocks, C(7, 3) = 35 wide, are solved
    # whole; under D_8 they are split again.
    largest = math.comb(n, n // 2) // 2
    for perturbed, expected in ((above, largest), (below, max(model_solves(below, True)[0]))):
        eigvalsh_sizes.clear()
        ccm(perturbed)
        assert max(eigvalsh_sizes) == expected
    assert expected < largest
    assert_split_agrees(below, monkeypatch)


def test_channel_output_inherits_the_generators_not_the_flip(monkeypatch):
    n = 8
    ground = ground_state(chain_terms(xxz_ring(n, -0.4)))
    tested = []
    test = qcorr.entropy._tested_symmetry

    def count(state):
        tested.append(state)
        return test(state)

    monkeypatch.setattr(qcorr.entropy, "_tested_symmetry", count)
    amplitude = apply_channel_local(ground, amplitude_damping_channel(0.4), full_mask(n))
    phase = apply_channel_local(ground, phase_damping_channel(0.4), full_mask(n))
    dihedral = ((*range(1, n), 0), tuple(range(n - 1, -1, -1)))
    assert qubit_symmetry(amplitude) == qubit_symmetry(phase) == qubit_symmetry(ground) == dihedral
    assert tested == [ground]  # tested once, on the input
    assert _tested_symmetry(amplitude) == _tested_symmetry(phase) == dihedral  # what they pass alone
    assert not _flips_by_at_most_cutoff(amplitude) and _flips_by_at_most_cutoff(phase)
    # On part of the register the output is tested on its own.
    part = apply_channel_local(ground, phase_damping_channel(0.4), 0b1)
    assert qubit_symmetry(part) == ()
    assert tested[-1] is part


@pytest.mark.parametrize("channel", [phase_damping_channel, amplitude_damping_channel])
def test_inherited_generators_are_the_tested_ones_on_the_noise_grid(channel):
    # Where the generator list is the same, the entropies are bit for bit
    # those of the state tested on its own.
    n = 8
    for delta in NOISE_DELTAS:
        ground = ground_state(chain_terms(xxz_ring(n, float(delta))))
        for p in NOISE_PS:
            out = apply_channel_local(ground, channel(p), full_mask(n))
            assert qubit_symmetry(out) == _tested_symmetry(out) == qubit_symmetry(ground)
