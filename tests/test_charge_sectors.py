"""Reduced states diagonalized one popcount sector at a time.

A state carried as popcount blocks (a damped ring, or a matrix that holds
popcounts apart put in block form by the tests' `block_state`) keeps the
zeros between popcounts under every partial trace, so each matrix of its
subset table is diagonalized sector by sector.  Forcing every state to show
no blocks (by replacing `DensityOperator.blocks`) gives the path that
diagonalizes whole matrices, which must agree with the sector path on every
subset entropy and on the tree.  States from the public constructor, and so
mixed state files, are the one-block case.
"""

import math
import re
from collections import Counter

import numpy as np
import pytest

import qcorr.entropy
import qcorr.states
from qcorr import (
    DensityOperator,
    amplitude_damping_channel,
    apply_channel_local,
    apply_local_unitary,
    ccm,
    ccm_many,
    chain_terms,
    full_mask,
    ground_state,
    ising_ring,
    make_ghz,
    phase_damping_channel,
    read_qs1,
    write_qs1,
    xxz_ring,
)
from qcorr.entropy import qubit_symmetry, subset_entropies
from qcorr.errors import ParseError
from qcorr.sampling import random_density

from dense_reference import block_state, dihedral, holds_popcount, model_solves, one_block

TABLE_TOL = 1e-12
CCM_TOL = 1e-10
ROUNDOFF_BITS = 1e-13  # as in test_factored.py: trees are compared below this gap
SPECTRUM_TOL = 1e-12
CHANNELS = {"phase": phase_damping_channel, "amplitude": amplitude_damping_channel}


def damped_ring(n, delta, channel, p):
    """The XXZ ring's ground state with `channel` at strength p on every qubit."""
    state = ground_state(chain_terms(xxz_ring(n, delta)))
    return apply_channel_local(state, CHANNELS[channel](p), full_mask(n))


def phase_gates(n, seed):
    """diag(1, e^{i phi}) on every qubit: keeps the popcount sectors apart and
    makes a real state complex."""
    phis = np.random.default_rng(seed).uniform(0, 2 * np.pi, n)
    return [np.diag([1.0, np.exp(1j * phi)]) for phi in phis]


def _cases():
    # Delta = 2.0 is ferromagnetic: its ground state mixes |0..0> and |1..1>.
    for n in range(2, 9):
        for channel in CHANNELS:
            for delta, p in ((-1.5, 0.3), (0.5, 0.8), (2.0, 0.4)):
                yield (f"{channel}-xxz{delta}-p{p}-{n}",
                       lambda n=n, delta=delta, channel=channel, p=p: damped_ring(n, delta, channel, p))
    for n in (9, 10):
        for channel in CHANNELS:
            yield (f"{channel}-xxz-0.7-p0.4-{n}",
                   lambda n=n, channel=channel: damped_ring(n, -0.7, channel, 0.4))
    for n in (4, 7):
        yield (f"complex-damped-{n}",
               lambda n=n: apply_local_unitary(damped_ring(n, 0.5, "phase", 0.5), phase_gates(n, n)))
    for spins, delta, lam in ((2, 0.5, 1.5), (3, -0.5, 2.0), (4, 1.5, 0.3)):
        yield (f"dxxz{delta},{lam}-{2 * spins}",
               lambda spins=spins, delta=delta, lam=lam: block_state(
                   ground_state(chain_terms(xxz_ring(spins, delta), xxz_ring(spins, lam))).matrix))


def _uncharged():
    # The transverse field flips one spin; GHZ's one coherence joins
    # popcounts 0 and n.  The factors of both reach across sectors.
    for n, lam in ((4, 0.7), (8, 0.5)):
        yield f"ising{lam}-{n}", lambda n=n, lam=lam: ground_state(chain_terms(ising_ring(n, lam)))
    for n in (2, 5, 8):
        yield f"ghz{n}", lambda n=n: make_ghz(n)
    for n in (3, 6):
        yield f"random{n}", lambda n=n: one_block(random_density(n, np.random.default_rng(n)).matrix)


CASES = list(_cases())
UNCHARGED = list(_uncharged())


@pytest.fixture
def without_charge(monkeypatch):
    """Make every dense matrix be diagonalized whole: no state shows blocks."""

    def force():
        monkeypatch.setattr(DensityOperator, "blocks", property(lambda self: None))

    return force


def tree_shape(node):
    if node is None:
        return None
    return (node.subset, node.mask_a, tree_shape(node.left), tree_shape(node.right))


@pytest.mark.parametrize("name, make", CASES, ids=[c[0] for c in CASES])
def test_sectors_match_whole_matrices(without_charge, name, make):
    state = make()
    assert state.factor is None and state.blocks is not None
    assert holds_popcount(state.matrix)
    table, report = subset_entropies(state), ccm(state)
    without_charge()
    whole_table, whole_report = subset_entropies(state), ccm(state)
    gap = max(abs(a - b) for a, b in zip(table, whole_table))
    assert gap <= TABLE_TOL
    assert report.value == pytest.approx(whole_report.value, abs=CCM_TOL)
    if gap <= ROUNDOFF_BITS:
        assert tree_shape(report.tree) == tree_shape(whole_report.tree)


@pytest.mark.parametrize("name, make", UNCHARGED, ids=[c[0] for c in UNCHARGED])
def test_states_without_the_charge(name, make):
    state = make()
    assert state.blocks is None
    assert not holds_popcount(state.matrix)


def test_partial_traces_keep_the_sectors_apart():
    # The exact zeros survive every reduction, so no subset needs a test.
    state = damped_ring(6, 0.5, "amplitude", 0.3)
    for mask in range(1, 1 << 6):
        reduced = qcorr.states.partial_trace(state, mask).matrix
        assert holds_popcount(reduced)


def with_entry(matrix, i, j, value):
    m = matrix.copy()
    m[i, j] = m[j, i] = value
    return m


@pytest.fixture
def eigvalsh_sizes(monkeypatch):
    """The size of every matrix `np.linalg.eigvalsh` diagonalizes, batched or not."""
    sizes = []
    solve = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return sizes


def test_subnormal_entry_takes_the_unsplit_path(eigvalsh_sizes):
    n = 6
    state = DensityOperator(with_entry(damped_ring(n, 0.5, "phase", 0.4).matrix, 0, 1, 5e-324))
    eigvalsh_sizes.clear()
    ccm(state)
    assert max(eigvalsh_sizes) == 1 << n


@pytest.mark.parametrize("n, sector", [(8, 70), (10, 252)])
def test_largest_eigensolve_is_the_half_filled_sector(eigvalsh_sizes, without_charge, monkeypatch, n, sector):
    # The root's blocks are cut into momentum blocks, at most about
    # sector / n wide, and every other node's by the spin flip and the ring
    # reflections; the largest piece is the dense model's, a child's.  A
    # child has n - 1 qubits, an odd number, so the flip splits none of its
    # blocks, and without the reflections its largest block is
    # C(n - 1, n/2) = sector / 2 wide.  Walked as the other nodes are, the
    # root's half-filled sector is the largest block: the flip halves it,
    # and without either split it is solved whole.  Without blocks the whole
    # matrix is.
    state = damped_ring(n, -0.7, "phase", 0.4)
    assert sector == math.comb(n, n // 2) and qubit_symmetry(state) == dihedral(n)

    def largest():
        eigvalsh_sizes.clear()
        ccm(state)
        return max(eigvalsh_sizes)

    split, reflected = max(model_solves(state, True)[0]), max(model_solves(state, False)[0])
    assert split == reflected < sector // 2
    assert largest() == split
    with monkeypatch.context() as mp:
        mp.setattr(qcorr.entropy, "_ring_reflections", lambda n, mask: ())
        assert largest() == sector // 2
        mp.setattr(qcorr.entropy, "_flips_by_at_most_cutoff", lambda state: False)
        assert largest() == sector // 2
    with monkeypatch.context() as mp:
        mp.setattr(qcorr.entropy, "_holds_shift", lambda n, generators: False)
        whole_root = max(model_solves(state, True, False)[0])
        assert whole_root < max(model_solves(state, False, False)[0]) < sector and whole_root < sector // 2
        assert largest() == whole_root
        mp.setattr(qcorr.entropy, "_ring_reflections", lambda n, mask: ())
        assert largest() == sector // 2
        mp.setattr(qcorr.entropy, "_flips_by_at_most_cutoff", lambda state: False)
        assert largest() == sector
    monkeypatch.setattr(qcorr.entropy, "_flips_by_at_most_cutoff", lambda state: False)
    assert largest() == reflected
    without_charge()
    assert largest() == 1 << n


def block_eigensolves(monkeypatch, channel):
    """(stacked calls, matrices diagonalized, share of sum c^3 saved) for one
    `ccm` of the damped N = 8 ring, whose 29 orbit representatives under D_8
    (test_symmetry.py) have 91 blocks larger than 1 x 1.  The walk must
    diagonalize exactly the matrices of `model_solves`, in its number of
    stacked calls, and never a matrix that is 0.0."""
    stacks = []
    solve = qcorr.entropy.hermitian_eigenvalues

    def record(m):
        stacks.append(m)
        return solve(m)

    n = 8
    state = damped_ring(n, -0.4, channel, 0.4)
    assert qubit_symmetry(state) == dihedral(n)
    solved, every, calls = model_solves(state, qcorr.entropy._flips_by_at_most_cutoff(state))
    monkeypatch.setattr(qcorr.entropy, "hermitian_eigenvalues", record)
    ccm(state)
    assert all(m.ndim == 3 and m.any(axis=(1, 2)).all() for m in stacks)  # no zero matrix
    assert solved == Counter(c for m in stacks for c in [m.shape[-1]] * m.shape[0])
    assert len(stacks) == calls
    assert sum(every.values()) == 91
    cubes = sum(k * c ** 3 for c, k in solved.items()) / sum(k * c ** 3 for c, k in every.items())
    return len(stacks), sum(solved.values()), 1 - cubes


def test_eigensolve_calls_of_the_damped_ring(monkeypatch):
    # Phase damping keeps the ground state's popcount-4 sector alone, and
    # the spin flip: of the 73 nonzero blocks, 66 matrices are solved.  The
    # root's middle block is cut into momentum blocks 10, 8, 9, 8 and 10
    # wide; those of m = 1, 2, 3 are complex, and take two calls of their own.
    calls, solved, saved = block_eigensolves(monkeypatch, "phase")
    assert (calls, solved) == (11, 66) and saved == pytest.approx(0.96, abs=0.01)


def test_eigensolve_calls_of_the_amplitude_damped_ring(monkeypatch):
    # Amplitude damping also feeds blocks 0..3; blocks 5..8 stay 0.0, and
    # the flip is broken.
    calls, solved, saved = block_eigensolves(monkeypatch, "amplitude")
    assert (calls, solved) == (18, 99) and saved == pytest.approx(0.92, abs=0.01)


def phase_damped_grid():
    """The benchmark's noise-sweep grid at N = 8: phase damping at
    p = 0, 0.2, .., 0.8 of the XXZ ring at seven Delta in [-1.5, 0.5]."""
    for delta in np.linspace(-1.5, 0.5, 7):
        ground = ground_state(chain_terms(xxz_ring(8, delta)))
        for p in np.linspace(0.0, 0.8, 5):
            yield apply_channel_local(ground, phase_damping_channel(p), full_mask(8))


@pytest.mark.parametrize("states", [
    *(pytest.param(lambda n=n, c=c: [damped_ring(n, -0.4, c, 0.4)], id=f"{c}-{n}")
      for n in (8, 10, 12) for c in ("phase", "amplitude")),
    pytest.param(lambda: list(phase_damped_grid()), id="phase-grid-8"),
    pytest.param(lambda: [ground_state(chain_terms(xxz_ring(10, 0.5)))], id="xxz-mixture-10"),
])
def test_one_eigensolve_per_width_and_dtype_in_each_flush(states, monkeypatch):
    # Whole blocks, Gram matrices, momentum blocks and the pieces of split
    # blocks wait in one queue, so each flush solves every (width, dtype)
    # in one stacked call.
    calls, flushes = [], []
    solve, flush = qcorr.entropy.hermitian_eigenvalues, qcorr.entropy._Walk.flush

    def record_solve(matrices):
        calls.append((matrices.shape[-1], matrices.dtype))
        return solve(matrices)

    def record_flush(self):
        start = len(calls)
        flush(self)
        flushes.append(calls[start:])

    monkeypatch.setattr(qcorr.entropy, "hermitian_eigenvalues", record_solve)
    monkeypatch.setattr(qcorr.entropy._Walk, "flush", record_flush)
    ccm_many(states())
    assert sum(map(len, flushes)) == len(calls) > 0
    for solved in flushes:
        assert len(set(solved)) == len(solved)


# --- intake --------------------------------------------------------------------


def through_file(tmp_path, matrix):
    path = tmp_path / "state.qs1"
    write_qs1(path, DensityOperator(matrix))
    return path


MIN_EIGENVALUE = re.compile(r"minimum eigenvalue (\S+) below -1e-09")


def test_intake_rejects_a_negative_sector(tmp_path, without_charge):
    # A large coherence inside the popcount-1 sector drives one eigenvalue
    # far below zero; the other sectors stay positive.
    n = 5
    m = with_entry(damped_ring(n, 0.5, "phase", 0.3).matrix, 1, 2, 0.5)
    assert holds_popcount(m)
    path = through_file(tmp_path, m)
    messages = []
    for force in (lambda: None, without_charge):
        force()
        with pytest.raises(ParseError) as err:
            read_qs1(path)
        messages.append(str(err.value))
    values = [float(MIN_EIGENVALUE.search(message).group(1)) for message in messages]
    assert [MIN_EIGENVALUE.sub("", message) for message in messages] == [
        "state file violates state invariants: "] * 2
    assert abs(values[0] - values[1]) <= SPECTRUM_TOL and values[0] < -0.4
