"""The dense subset-entropy table, superoperator channels and the dtype rule.

`subset_entropies` reduces a state without a factor along a tree, one qubit
at a time out of a parent subset.  It must agree with the per-subset
reference, `partial_trace` plus `von_neumann_entropy`, on every subset, and
`ccm` built on it must agree with `ccm` built on the reference.  Channels and
local unitaries act through 4x4 superoperators; they must agree with the
explicit sum over Kraus operators of the full register.
"""

import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcorr.entropy
import qcorr.states
from qcorr import (
    DensityOperator,
    KrausChannel,
    amplitude_damping_channel,
    apply_channel_local,
    apply_local_unitary,
    ccm,
    chain_terms,
    full_mask,
    ground_state,
    make_ghz,
    partial_trace,
    phase_damping_channel,
    von_neumann_entropy,
    xxz_ring,
)
from qcorr.entropy import subset_entropies, subset_entropy
from qcorr.sampling import random_density, random_local_unitaries, random_qubit_channel
from qcorr.states import subset_qubits

from dense_reference import block_state, holds_popcount, one_block
from pauli_reference import kron_all

CCM_MODULE = sys.modules["qcorr.ccm"]  # `qcorr.ccm` is the re-exported function

TABLE_TOL = 1e-12
# An eigenvalue within round-off of SUPPORT_CUTOFF may be kept by one path and
# dropped by the other, which moves an entropy by up to 4e-11 bits.
CUTOFF_TOL = 1e-10
CCM_TOL = 1e-10
ROUNDOFF_BITS = 1e-13  # as in test_factored.py: trees are compared below this gap
CHANNEL_TOL = 1e-12


def reference_table(state):
    """S(rho_A) for every mask by one partial trace per subset."""
    n = state.num_qubits
    return [0.0] + [von_neumann_entropy(partial_trace(state, mask))
                    for mask in range(1, full_mask(n) + 1)]


def reference_ccm(state):
    with mock.patch.object(CCM_MODULE, "subset_entropies_many",
                           lambda states: [reference_table(s) for s in states]):
        return ccm(state)


def tree_shape(node):
    if node is None:
        return None
    return (node.subset, node.mask_a, tree_shape(node.left), tree_shape(node.right))


def assert_table_agrees(state, tol=TABLE_TOL):
    assert state.factor is None
    table, ref = subset_entropies(state), reference_table(state)
    gap = max(abs(a - b) for a, b in zip(table, ref))
    assert gap <= tol
    if state.num_qubits < 2:
        return
    got, want = ccm(state), reference_ccm(state)
    assert got.value == pytest.approx(want.value, abs=CCM_TOL)
    if gap <= ROUNDOFF_BITS:
        assert tree_shape(got.tree) == tree_shape(want.tree)


def test_corpus_tables_agree(corpus):
    for _, state in corpus:
        assert_table_agrees(one_block(state.matrix))
        if holds_popcount(state.matrix):
            assert_table_agrees(block_state(state.matrix))


# --- hypothesis ensembles -----------------------------------------------------


def random_factor(n, rank, rng, real):
    v = rng.standard_normal((1 << n, rank))
    if not real:
        v = v + 1j * rng.standard_normal((1 << n, rank))
    return v / np.linalg.norm(v)


def from_factor_dense(v):
    m = v @ v.conj().T
    return one_block(0.5 * (m + m.conj().T))


def block_diagonal(n, rng, real):
    """A random state with every entry between different Hamming weights zeroed
    (a pinching, so still a state), like a damped XXZ ground state."""
    rho = from_factor_dense(random_factor(n, 1 << n, rng, real)).matrix
    weight = np.array([bin(i).count("1") for i in range(1 << n)])
    return block_state(np.where(weight[:, None] == weight[None, :], rho, 0.0))


def near_cutoff(n, eps, rng, real):
    """Schmidt weight `eps` on a second branch, rotated on qubit 0, as a dense matrix."""
    v = np.zeros(1 << n)
    v[0], v[-1] = math.sqrt(1.0 - eps), math.sqrt(eps)
    g = rng.standard_normal((2, 2)) + (0.0 if real else 1j * rng.standard_normal((2, 2)))
    u, _ = np.linalg.qr(g)
    v = np.tensordot(u, v.reshape(2, -1), axes=([1], [0])).reshape(-1, 1)
    return from_factor_dense(v / np.linalg.norm(v))


def build(kind, n, seed, real, eps):
    rng = np.random.default_rng(seed)
    if kind == "full":
        return from_factor_dense(random_factor(n, 1 << n, rng, real))
    if kind == "rank_deficient":
        rank = int(rng.integers(1, max(2, (1 << n) // 2)))
        return from_factor_dense(random_factor(n, rank, rng, real))
    if kind == "block_diagonal":
        return block_diagonal(n, rng, real)
    return near_cutoff(n, eps, rng, real)


KINDS = ["full", "rank_deficient", "block_diagonal", "near_cutoff"]


@given(kind=st.sampled_from(KINDS), n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
       real=st.booleans(), eps=st.floats(1e-13, 1e-11))
@settings(deadline=None, max_examples=60)
def test_random_ensembles_tables_agree(kind, n, seed, real, eps):
    state = build(kind, n, seed, real, eps)
    assert state.matrix.dtype == (np.float64 if real else np.complex128)
    assert_table_agrees(state, CUTOFF_TOL if kind == "near_cutoff" else TABLE_TOL)


def test_pure_factor_table_uses_complements(rng):
    for v in (random_factor(6, 1, rng, real=False), random_factor(6, 1, rng, real=True)):
        state = DensityOperator.from_factor(v)
        table = subset_entropies(state)
        full = full_mask(6)
        assert table[full] == 0.0
        for mask in range(1, full):
            assert table[mask] == table[full ^ mask]
            assert table[mask] == pytest.approx(subset_entropy(state, mask), abs=TABLE_TOL)


# --- superoperator channels ---------------------------------------------------


def explicit_channel(matrix, n, operators, qubits):
    """sum_k E_k rho E_k^dagger with E_k built on the full register, qubit by qubit."""
    eye = np.eye(2)
    for q in subset_qubits(qubits):
        full_ops = [kron_all(e if k == q else eye for k in range(n)) for e in operators]
        matrix = sum(f @ matrix @ f.conj().T for f in full_ops)
    return matrix


@pytest.mark.parametrize("make", [phase_damping_channel, amplitude_damping_channel])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_damping_matches_explicit_kraus_sum(make, p, rng):
    channel = make(p)
    for n in (1, 3, 4):
        rho = random_density(n, rng)
        for qubits in (1, full_mask(n), 0b101 & full_mask(n)):
            got = apply_channel_local(rho, channel, qubits).matrix
            want = explicit_channel(rho.matrix, n, channel.operators, qubits)
            assert np.abs(got - want).max() <= CHANNEL_TOL


def test_random_channels_match_explicit_kraus_sum(rng):
    for kraus_count in (1, 2, 3):
        for n in (2, 4):
            channel = random_qubit_channel(rng, kraus_count)
            rho = random_density(n, rng)
            for qubits in (0b10, full_mask(n)):
                got = apply_channel_local(rho, channel, qubits).matrix
                want = explicit_channel(rho.matrix, n, channel.operators, qubits)
                assert np.abs(got - want).max() <= CHANNEL_TOL


def test_local_unitaries_match_explicit_product(rng):
    for n in (1, 3):
        rho = random_density(n, rng)
        factors = random_local_unitaries(n, rng)
        u = kron_all(factors)
        got = apply_local_unitary(rho, factors).matrix
        assert np.abs(got - u @ rho.matrix @ u.conj().T).max() <= CHANNEL_TOL


def test_identity_channel_returns_the_input():
    state = ground_state(chain_terms(xxz_ring(4, 0.3)))
    for channel in (phase_damping_channel(0.0), amplitude_damping_channel(0.0)):
        assert apply_channel_local(state, channel, full_mask(4)) is state
    assert state.factor is not None


# --- dtype rule ---------------------------------------------------------------


def eig_dtypes(state, monkeypatch):
    seen = set()
    original = qcorr.entropy.hermitian_eigenvalues

    def record(m):
        seen.add(m.dtype)
        return original(m)

    monkeypatch.setattr(qcorr.entropy, "hermitian_eigenvalues", record)
    subset_entropies(state)
    monkeypatch.undo()
    return seen


def test_real_states_stay_real(monkeypatch):
    state = ground_state(chain_terms(xxz_ring(5, -0.4)))
    assert state.factor.dtype == np.float64 and state.matrix.dtype == np.float64
    assert eig_dtypes(state, monkeypatch) == {np.dtype(np.float64)}
    for channel in (phase_damping_channel(0.3), amplitude_damping_channel(0.3)):
        damped = apply_channel_local(state, channel, full_mask(5))
        assert damped.factor is None and damped.matrix.dtype == np.float64
        # The root's momentum blocks 0 < m < n/2 are complex; walked as a
        # reduced state's blocks, the root is real too.
        assert eig_dtypes(damped, monkeypatch) == {np.dtype(np.float64), np.dtype(np.complex128)}
        monkeypatch.setattr(qcorr.entropy, "_holds_shift", lambda n, generators: False)
        assert eig_dtypes(damped, monkeypatch) == {np.dtype(np.float64)}
    assert DensityOperator(np.eye(4) / 4).matrix.dtype == np.float64
    assert DensityOperator.from_factor(np.eye(4)[:, :1]).matrix.dtype == np.float64


def test_complex_states_stay_complex(monkeypatch, rng):
    assert make_ghz(3).matrix.dtype == np.complex128  # a pure maker's factor is complex
    assert DensityOperator(np.eye(2, dtype=complex) / 2).matrix.dtype == np.complex128
    rho = random_density(4, rng)
    assert rho.matrix.dtype == np.complex128
    assert eig_dtypes(rho, monkeypatch) == {np.dtype(np.complex128)}
    damped = apply_channel_local(rho, phase_damping_channel(0.3), full_mask(4))
    assert damped.matrix.dtype == np.complex128
    # A complex channel makes a real state complex.
    real = ground_state(chain_terms(xxz_ring(4, 0.3)))
    twisted = KrausChannel((np.diag([1.0, 1j]),))
    assert apply_channel_local(real, twisted, 0b1).matrix.dtype == np.complex128


# --- the dense path never partial-traces --------------------------------------


def test_dense_ccm_n8_never_partial_traces(monkeypatch):
    state = apply_channel_local(ground_state(chain_terms(xxz_ring(8, -0.4))),
                                phase_damping_channel(0.4), full_mask(8))
    assert state.factor is None
    want = reference_ccm(state)

    def refuse(*args, **kwargs):
        raise AssertionError("partial_trace used")

    for module in (qcorr.states, qcorr.entropy, CCM_MODULE):
        monkeypatch.setattr(module, "partial_trace", refuse)
    got = ccm(state)
    assert got.value == pytest.approx(want.value, abs=CCM_TOL)
    assert tree_shape(got.tree) == tree_shape(want.tree)


def test_table_peak_memory_n10(rng):
    # tracemalloc sees numpy's arrays, not LAPACK's work buffers.
    n = 10
    state = from_factor_dense(random_factor(n, 1 << n, rng, real=True))
    tracemalloc.start()
    try:
        subset_entropies(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= state.matrix.nbytes
