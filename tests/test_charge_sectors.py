"""Dense reduced states diagonalized one popcount sector at a time.

A dense state whose entries between basis states of different popcount are
exactly 0.0 keeps those zeros under every partial trace, so each matrix of
its subset table is diagonalized sector by sector, as is a mixed state file
at intake.  Forcing the detector to find no charge (by replacing
`holds_popcount`) gives the path that diagonalizes whole matrices, which
must agree with the sector path on every subset entropy and on the tree.
"""

import math
import re
import tracemalloc

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
from qcorr.entropy import subset_entropies
from qcorr.errors import ParseError
from qcorr.sampling import random_density
from qcorr.states import holds_popcount

TABLE_TOL = 1e-12
CCM_TOL = 1e-10
ROUNDOFF_BITS = 1e-13  # as in test_factored.py: trees are compared below this gap
SPECTRUM_TOL = 1e-12
CHANNELS = {"phase": phase_damping_channel, "amplitude": amplitude_damping_channel}


def damped_ring(n, delta, channel, p):
    """The XXZ ring's ground state with `channel` at strength p on every qubit."""
    state = ground_state(chain_terms(xxz_ring(n, delta)))
    return apply_channel_local(state, CHANNELS[channel](p), full_mask(n))


def dense(state):
    return DensityOperator(state.matrix)


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
               lambda spins=spins, delta=delta, lam=lam: dense(
                   ground_state(chain_terms(xxz_ring(spins, delta), xxz_ring(spins, lam)))))


def _uncharged():
    # The transverse field flips one spin; GHZ's one coherence joins
    # popcounts 0 and n.
    for n, lam in ((4, 0.7), (8, 0.5)):
        yield f"ising{lam}-{n}", lambda n=n, lam=lam: dense(ground_state(chain_terms(ising_ring(n, lam))))
    for n in (2, 5, 8):
        yield f"ghz{n}", lambda n=n: dense(make_ghz(n).to_density())
    for n in (3, 6):
        yield f"random{n}", lambda n=n: random_density(n, np.random.default_rng(n))


CASES = list(_cases())
UNCHARGED = list(_uncharged())


@pytest.fixture
def without_charge(monkeypatch):
    """Make every dense matrix be diagonalized whole."""

    def force():
        for module in (qcorr.entropy, qcorr.states):
            monkeypatch.setattr(module, "holds_popcount", lambda m: False)

    return force


def tree_shape(node):
    if node is None:
        return None
    return (node.subset, node.mask_a, tree_shape(node.left), tree_shape(node.right))


@pytest.mark.parametrize("name, make", CASES, ids=[c[0] for c in CASES])
def test_sectors_match_whole_matrices(without_charge, name, make):
    state = make()
    assert state.factor is None
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
    assert state.factor is None
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


def test_one_subnormal_entry_breaks_the_charge():
    m = damped_ring(6, 0.5, "phase", 0.4).matrix
    assert holds_popcount(m)
    # |000000> against |000001> and |000011>, in row 0.
    assert not holds_popcount(with_entry(m, 0, 1, 5e-324))
    assert not holds_popcount(with_entry(m, 0, 3, 5e-324))
    # Far from row 0: |101000> and |111110>.
    assert not holds_popcount(with_entry(m, 40, 62, 5e-324))
    # Inside one sector: |000001> and |000010>.
    assert holds_popcount(with_entry(m, 1, 2, 5e-324))
    # A negative zero is a zero.
    assert holds_popcount(with_entry(m, 0, 1, -0.0))


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


@pytest.mark.parametrize("n, largest", [(8, 70), (10, 252)])
def test_largest_eigensolve_is_the_half_filled_sector(eigvalsh_sizes, without_charge, n, largest):
    state = damped_ring(n, -0.7, "phase", 0.4)
    assert largest == math.comb(n, n // 2)
    eigvalsh_sizes.clear()
    ccm(state)
    assert max(eigvalsh_sizes) == largest
    without_charge()
    eigvalsh_sizes.clear()
    ccm(state)
    assert max(eigvalsh_sizes) == 1 << n


def test_eigensolve_calls_of_the_damped_ring(monkeypatch):
    # 29 orbit representatives of the damped N = 8 ring (test_symmetry.py);
    # a representative of m qubits takes one batched call per sector size
    # C(m, k) > 1, so 0, 1, 1, 2, 2, 3, 3, 4 calls for m = 1..8, and D_8 has
    # 1, 4, 5, 8, 5, 4, 1, 1 representatives of those sizes.
    calls = []
    solve = qcorr.entropy.hermitian_eigenvalues

    def count(m):
        calls.append(m.shape)
        return solve(m)

    state = damped_ring(8, -0.4, "phase", 0.4)
    monkeypatch.setattr(qcorr.entropy, "hermitian_eigenvalues", count)
    ccm(state)
    assert len(calls) == 1 * 0 + 4 * 1 + 5 * 1 + 8 * 2 + 5 * 2 + 4 * 3 + 1 * 3 + 1 * 4 == 54
    assert all(len(shape) == 3 for shape in calls)  # every call is a stack


def test_detection_makes_no_second_full_matrix():
    n = 10
    charged = damped_ring(n, -0.7, "phase", 0.4).matrix
    generic = random_density(n, np.random.default_rng(1)).matrix
    for m in (charged, generic):
        holds_popcount(m)  # builds the cached sector lists
    # Rows are gathered BLOCK_ENTRIES entries at a time; a generic matrix
    # is rejected from row 0 alone.
    for m, holds, budget in ((charged, True, charged.nbytes // 4),
                             (generic, False, 16 * generic.itemsize * (1 << n))):
        tracemalloc.start()
        try:
            assert holds_popcount(m) is holds
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget


# --- intake --------------------------------------------------------------------


def through_file(tmp_path, matrix):
    path = tmp_path / "state.qs1"
    write_qs1(path, DensityOperator(matrix))
    return path


def test_intake_spectrum_from_sectors(tmp_path, eigvalsh_sizes):
    n = 7
    m = damped_ring(n, 0.5, "amplitude", 0.6).matrix
    path = through_file(tmp_path, m)
    eigvalsh_sizes.clear()
    state = read_qs1(path)
    assert max(eigvalsh_sizes) == math.comb(n, n // 2)
    assert np.all(np.diff(state.spectrum) >= 0.0)
    assert np.abs(state.spectrum - np.linalg.eigvalsh(state.matrix)).max() <= SPECTRUM_TOL


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
