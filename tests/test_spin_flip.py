"""The spin flip X^n in the popcount-block walk.

A state in block form that the global spin flip leaves unchanged (within
the budget of the qubit generators) has block m - k of every reduced state
take block k's spectrum, and its middle block solved as two halves T +- F.
Forcing the flip test to fail gives the unsplit walk: its tables must agree
with the split ones within the Fannes-Audenaert bound of the budget, and its
trees must be the same.  A channel applied to every qubit passes the input's
qubit generators to its output, but the flip is tested on each output:
amplitude damping breaks it.
"""

import math

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

from dense_reference import one_block

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


def damped(rings, p, phase=None):
    """Phase-damped ground state of the rings side by side; with `phase`, one
    phase gate on every qubit makes its blocks complex and keeps their values."""
    n = sum(ring.num_spins for ring in rings)
    state = apply_channel_local(ground_state(chain_terms(*rings)), phase_damping_channel(p), full_mask(n))
    if phase is not None:
        state = apply_local_unitary(state, [np.diag([1.0, np.exp(1j * phase)])] * n)
    return state


def unsplit(monkeypatch):
    monkeypatch.setattr(qcorr.entropy, "_flips_by_at_most_cutoff", lambda state: False)


def assert_split_agrees(state, monkeypatch):
    """The split walk against the unsplit one: tables within the bound of a
    flip that moves the state by SUPPORT_CUTOFF in trace norm, equal trees."""
    assert state.factor is None and _flips_by_at_most_cutoff(state)
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
    assert_split_agrees(state, monkeypatch)
    table, dense = subset_entropies(state), subset_entropies(one_block(state.matrix))
    assert max(abs(a - b) for a, b in zip(table, dense)) <= TABLE_TOL


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    sizes = []
    solve = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[-1])
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
    for perturbed, largest in ((above, math.comb(n, n // 2)), (below, math.comb(n, n // 2) // 2)):
        eigvalsh_sizes.clear()
        ccm(perturbed)
        assert max(eigvalsh_sizes) == largest
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
