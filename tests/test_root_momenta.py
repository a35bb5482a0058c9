"""The root of a shift-invariant state in popcount blocks, cut into momentum blocks.

When the qubit group of a state in block form holds the ring's shift T (C_n,
D_n or S_n), the walk cuts each popcount block of its root into the momentum
blocks of T, built from one gather of rho[T^j r_a, r_b] and one FFT along j,
with the roots of a stack cut together.  The oracle is the root walked as
every other node is (split by the spin flip and one reflection), which the
tests get by making `_holds_shift` say no.  Only the root changes: every
other subset's entropy must be the oracle's bit for bit, and the root's
must stay within the Fannes-Audenaert bound of the trace-norm budget that
building the blocks as if T left the state exactly unchanged adds (see
`root_bits`), with the same trees.  A perturbation that moves the state by
more than the shift's budget sends its root down the oracle's path, and the
matrices solved are those of the dense model (`dense_reference.model_solves`).
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
    ccm,
    chain_terms,
    full_mask,
    ground_state,
    phase_damping_channel,
    xxz_ring,
)
from qcorr.entropy import _flips_by_at_most_cutoff, qubit_symmetry, subset_entropies, subset_entropies_many
from qcorr.states import SUPPORT_CUTOFF, block_layout

from dense_reference import dihedral, model_solves
from test_spin_flip import fannes_audenaert_bits, tree_shape, with_twist

CHANNELS = {"phase": phase_damping_channel, "amplitude": amplitude_damping_channel}


def root_bits(n):
    """How far the root's entropy may move from the oracle's.  A state that
    passes the shift's test has sqrt(d) ||T rho T^-1 - rho||_F <= SUPPORT_CUTOFF.
    The blocks are those of the matrix that takes the columns of the orbit
    of r_b from T^l rho T^-l, which is at most floor(n^2 / 4) such moves
    from rho in Frobenius norm, and eigvalsh reads one triangle of each, at
    most twice that again: 3 floor(n^2 / 4) SUPPORT_CUTOFF in trace norm.
    The oracle's own split adds at most n + 2 generators' budget."""
    return fannes_audenaert_bits(0.5 * (3 * (n * n // 4) + n + 2) * SUPPORT_CUTOFF, 1 << n)


def with_phases(state, theta, chiral):
    """`state` conjugated by the diagonal unitary e^{i theta f(x)}, where f
    counts the qubits i with x_i = x_{i+1} = 1 and, when `chiral`, also
    x_{i+3} = 1 (indices mod n).  T leaves f, and so the state, unchanged;
    the ring's reflections leave the first f unchanged but not, in general,
    the chiral one.  Entries within a popcount block take the phases
    e^{i theta (f(row) - f(column))}, so the blocks turn complex."""
    n, lay = state.num_qubits, block_layout(state.num_qubits)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    f = (bits & np.roll(bits, -1, axis=1) & (np.roll(bits, -3, axis=1) if chiral else 1)).sum(axis=1)
    phase = np.exp(1j * theta * f)
    blocks = state.blocks.astype(complex)
    for k, idx in enumerate(lay.sectors):
        blocks[lay.offsets[k]:lay.offsets[k + 1]] *= np.outer(phase[idx], phase[idx].conj()).reshape(-1)
    return DensityOperator._trusted(n, blocks=blocks)


def damped(n, delta, channel, p, phases=None):
    """The XXZ ring's ground state under `channel` at strength p on every
    qubit, with `phases` = (theta, chiral) applied by `with_phases`."""
    state = apply_channel_local(ground_state(chain_terms(xxz_ring(n, delta))), CHANNELS[channel](p), full_mask(n))
    if phases is not None and state.blocks is not None:
        state = with_phases(state, *phases)
    return state


def as_before(monkeypatch):
    monkeypatch.setattr(qcorr.entropy, "_holds_shift", lambda n, generators: False)


def assert_agrees_with_the_oracle(state):
    """Every subset but the root bit for bit, the root within `root_bits`,
    the same tree."""
    n = state.num_qubits
    table, report = subset_entropies(state), ccm(state)
    with pytest.MonkeyPatch.context() as mp:
        as_before(mp)
        want, want_report = subset_entropies(state), ccm(state)
    full = full_mask(n)
    assert table[:full] == want[:full]
    assert abs(table[full] - want[full]) <= root_bits(n)
    assert tree_shape(report.tree) == tree_shape(want_report.tree)
    assert report.value == pytest.approx(want_report.value, abs=1e-10)


def cuts(monkeypatch):
    """The number of roots in each call of `_Walk.momentum_pieces`."""
    seen = []
    cut = qcorr.entropy._Walk.momentum_pieces

    def record(self, data, n, flip):
        seen.append(len(data))
        return cut(self, data, n, flip)

    monkeypatch.setattr(qcorr.entropy._Walk, "momentum_pieces", record)
    return seen


def solved_stacks(state):
    """The stacks of matrices that one `ccm` of `state` diagonalizes."""
    stacks = []
    solve = qcorr.entropy.hermitian_eigenvalues

    def record(m):
        stacks.append(m)
        return solve(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcorr.entropy, "hermitian_eigenvalues", record)
        ccm(state)
    return stacks


def sizes(stacks):
    return Counter(c for m in stacks for c in [m.shape[-1]] * len(m))


@st.composite
def damped_rings(draw):
    """Phase- and amplitude-damped XXZ rings, N = 2..10, p in [0, 1], Delta
    on both sides of -1 and 1, with real blocks, complex blocks of D_N, or
    complex blocks that the reflections need not keep."""
    n = draw(st.integers(2, 10))
    delta = draw(st.sampled_from([-1.5, -1.0, -0.7, 0.5, 1.0, 1.5]) | st.floats(-2.0, 2.0))
    channel, p = draw(st.sampled_from(sorted(CHANNELS))), draw(st.floats(0.0, 1.0))
    phases = draw(st.none() | st.tuples(st.floats(0.1, 6.0), st.booleans()))
    return damped(n, delta, channel, p, phases)


@given(state=damped_rings())
@example(state=damped(10, -0.7, "amplitude", 0.4))
@example(state=damped(10, 1.5, "phase", 0.3, (2.0, True)))
@example(state=damped(8, -1.0, "phase", 1.0))
@example(state=damped(8, 0.5, "amplitude", 1.0))
@example(state=damped(9, 1.0, "amplitude", 0.6, (0.7, False)))
@settings(deadline=None, max_examples=30)
def test_momentum_root_agrees_with_the_root_walked_as_before(state):
    assert_agrees_with_the_oracle(state)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
@pytest.mark.parametrize("channel", sorted(CHANNELS))
def test_odd_rings(n, channel):
    # No momentum of an odd ring is pi: of real blocks, m = 0 alone is
    # real, and each 0 < m < n/2 stands for -m too.  The walk solves the
    # dense model's matrices, in its number of calls, and its complex ones
    # are those of the root's m = 1 .. (n - 1)/2.
    state = damped(n, -0.7, channel, 0.4)
    assert qubit_symmetry(state)[0] == dihedral(n)[0]
    stacks = solved_stacks(state)
    solved, _, calls = model_solves(state, _flips_by_at_most_cutoff(state))
    assert sizes(stacks) == solved and len(stacks) == calls
    assert all(m.any(axis=(1, 2)).all() for m in stacks)  # no 0.0 matrix
    assert any(np.iscomplexobj(m) for m in stacks) == (n > 3)  # at n = 3 every momentum block is 1 x 1
    assert_agrees_with_the_oracle(state)


def test_cyclic_group_alone(monkeypatch):
    # A twist above the reflections' budget leaves C_8: no reflection splits
    # a node, and the complex root takes all 8 momenta.
    n = 8
    ring = damped(n, -0.7, "phase", 0.4)
    state = with_twist(ring, 2.0 * SUPPORT_CUTOFF / (4 * math.sqrt((1 << n) * n)))
    assert qubit_symmetry(state) == (dihedral(n)[0],)
    seen = cuts(monkeypatch)
    assert_agrees_with_the_oracle(state)
    assert seen == [1, 1]  # the table's and the `ccm`'s; not the oracle's
    stacks = solved_stacks(state)
    assert sizes(stacks) == model_solves(state, _flips_by_at_most_cutoff(state))[0]
    assert any(np.iscomplexobj(m) for m in stacks)


def with_coherence(state, eps):
    """`state` with eps added to the coherence between its first two
    popcount-1 basis states (and its transpose): the shift moves the
    result by sqrt(d) ||D||_F = 2 eps sqrt(d).  The qubit group is tested
    afresh."""
    n, lay = state.num_qubits, block_layout(state.num_qubits)
    blocks = state.blocks.copy()
    one = blocks[lay.offsets[1]:lay.offsets[2]].reshape(n, n)
    one[0, 1] += eps
    one[1, 0] += eps
    return DensityOperator._trusted(n, blocks=blocks)


@pytest.mark.parametrize("channel", sorted(CHANNELS))
def test_shift_breaking_perturbation_takes_the_old_path(channel, monkeypatch):
    n = 8
    ring = damped(n, -0.7, channel, 0.4)
    unit = 2 * math.sqrt(1 << n)  # sqrt(d) ||D||_F of the shift at eps = 1
    above = with_coherence(ring, 2.0 * SUPPORT_CUTOFF / unit)
    below = with_coherence(ring, 0.5 * SUPPORT_CUTOFF / unit)
    assert qubit_symmetry(above) == () and qubit_symmetry(below) == dihedral(n)
    seen = cuts(monkeypatch)
    subset_entropies(above)
    assert seen == []
    subset_entropies(below)
    assert seen == [1]
    assert_agrees_with_the_oracle(below)
    # The trivial group's 255 subsets fill the waiting stacks several
    # times, so the calls are not counted.
    stacks = solved_stacks(above)
    assert sizes(stacks) == model_solves(above, _flips_by_at_most_cutoff(above))[0]
    assert not any(np.iscomplexobj(m) for m in stacks)  # no momentum block


@pytest.mark.parametrize("n, budget", [(8, None), (8, 3 * (1858 + 3432)), (9, None), (6, 1)])
def test_stacked_roots_are_the_roots_alone(n, budget, monkeypatch):
    # Real and complex, flip-invariant and not, of D_n and C_n: each key
    # stacks apart, and every table is bit for bit the one of the state
    # walked alone.  Within the budget, all roots of a key are cut at once.
    states = [damped(n, delta, channel, p, phases)
              for delta in (-1.2, 0.3) for channel in sorted(CHANNELS) for p in (0.25, 0.7)
              for phases in (None, (1.3, True))]
    alone = [subset_entropies(s) for s in states]
    with monkeypatch.context() as mp:
        if budget is not None:
            mp.setattr(qcorr.entropy, "STACK_ENTRIES", budget)
        seen = cuts(mp)
        tables = subset_entropies_many(states)
    for table, want in zip(tables, alone, strict=True):
        assert list(table) == list(want)
    assert sum(seen) == len(states)
    if budget is None and n == 8:  # within the budget: one cut per key
        assert len(seen) == len({(qubit_symmetry(s), s.blocks.dtype, _flips_by_at_most_cutoff(s)) for s in states})
    if budget == 1:
        assert seen == [1] * len(states)
