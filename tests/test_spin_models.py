import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import (
    GroundStateMode,
    SpinChainSpec,
    chain_terms,
    ground_gap,
    ground_state,
    ising_ring,
    xxz_ring,
)
from qcorr.errors import OutOfRange, TooLarge

from dense_reference import build_double_xxz, build_hamiltonian, build_ising, build_xxz, terms_of
from pauli_reference import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, kron_all

FIRST = GroundStateMode.FIRST_VECTOR


def manual_chain(n, jx, jy, jz, h):
    dim = 1 << n
    ham = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        j = (i + 1) % n
        for c, p in ((jx, PAULI_X), (jy, PAULI_Y), (jz, PAULI_Z)):
            ops = [PAULI_I] * n
            ops[i] = p
            ops[j] = p
            ham -= c * kron_all(ops)
        ops = [PAULI_I] * n
        ops[i] = PAULI_Z
        ham -= h * kron_all(ops)
    return ham


def test_spec_validation():
    with pytest.raises(OutOfRange):
        SpinChainSpec(1, jx=1.0)
    with pytest.raises(OutOfRange):
        SpinChainSpec(3, jx=math.inf)


def test_two_spin_ring_doubles_its_bond():
    ham = build_hamiltonian(SpinChainSpec(2, jx=1.0))
    assert np.allclose(ham, -2.0 * np.kron(PAULI_X, PAULI_X))


COUPLING = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


@given(n=st.integers(2, 7), jx=COUPLING, jy=COUPLING, jz=COUPLING, h=COUPLING)
@settings(deadline=None, max_examples=80)
def test_bit_op_build_matches_kron_reference(n, jx, jy, jz, h):
    # n = 2 is the ring whose periodic sum visits its one bond twice
    ham = build_hamiltonian(SpinChainSpec(n, jx=jx, jy=jy, jz=jz, h=h))
    assert ham.dtype == np.float64
    assert np.abs(ham - manual_chain(n, jx, jy, jz, h)).max() <= 1e-12


def test_ising_ring_matches_manual_build():
    assert np.allclose(build_ising(3, 0.7), manual_chain(3, 1.0, 0.0, 0.0, 0.7))


def test_xxz_ring_matches_manual_build():
    assert np.allclose(build_xxz(4, 0.6), manual_chain(4, 0.5, 0.5, 0.3, 0.0))


def test_hamiltonians_are_hermitian():
    for ham in (build_xxz(3, -1.2), build_ising(4, 1.1), build_double_xxz(2, 0.4, -0.8)):
        assert np.allclose(ham, ham.conj().T)


def test_diagonal_coupling_energy():
    ham = build_hamiltonian(SpinChainSpec(3, jz=1.0))
    # |000>: all three ZZ bonds aligned, each contributing -1
    assert ham[0, 0] == pytest.approx(-3.0)
    assert np.allclose(ham, np.diag(np.diag(ham)))


def test_ising_zero_field_ground_energy():
    vals = np.linalg.eigvalsh(build_ising(4, 0.0))
    assert vals[0] == pytest.approx(-4.0, abs=1e-12)


def test_double_chain_is_a_kron_sum():
    a = build_xxz(2, 0.4)
    b = build_xxz(2, -0.9)
    eye = np.eye(4)
    assert np.allclose(build_double_xxz(2, 0.4, -0.9), np.kron(a, eye) + np.kron(eye, b))


def test_size_guards():
    with pytest.raises(TooLarge):
        chain_terms(SpinChainSpec(15, jx=1.0))
    with pytest.raises(TooLarge):
        chain_terms(xxz_ring(8, 0.5), xxz_ring(7, 0.5))


def test_ground_states_take_terms_only():
    # The rows of a 4 x 4 matrix would unpack as (dim, rows, cols, values).
    for call in (ground_state, ground_gap):
        with pytest.raises(TypeError):
            call(np.eye(4))


def test_ground_state_takes_a_mode_only():
    # The 3-spin ring's ground level is degenerate, so the two modes differ
    # and a string taken for the default would show.
    terms = chain_terms(xxz_ring(3, 0.5))
    assert ground_state(terms, GroundStateMode.FIRST_VECTOR).factor.shape[1] == 1
    assert ground_state(terms).factor.shape[1] == 2
    with pytest.raises(TypeError):
        ground_state(terms, "first-vector")


# --- ground states -----------------------------------------------------------


def test_first_vector_is_an_eigenstate():
    ham = build_ising(3, 0.8)
    rho = ground_state(chain_terms(ising_ring(3, 0.8)), FIRST)
    vals = np.linalg.eigvalsh(ham)
    # rho = |v><v| with Hv = E0 v
    assert np.allclose(ham @ rho.matrix, vals[0] * rho.matrix, atol=1e-9)
    assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0, abs=1e-10)


def test_xxz_three_ring_ground_is_a_doublet():
    # The 3-site ring's lowest level is a two-fold momentum doublet at every
    # anisotropy; the mixture policy returns the normalized rank-2 projector.
    for delta in (-1.5, -0.3, 0.2, 0.8, 2.0):
        terms = chain_terms(xxz_ring(3, delta))
        rho = ground_state(terms)
        spectrum = np.sort(np.linalg.eigvalsh(rho.matrix))
        assert np.allclose(spectrum[:-2], 0.0, atol=1e-10)
        assert np.allclose(spectrum[-2:], 0.5, atol=1e-10)
        assert ground_gap(terms) > 1e-6


def test_mixture_projector_commutes_with_hamiltonian():
    ham = build_xxz(3, -0.7)
    rho = ground_state(chain_terms(xxz_ring(3, -0.7)))
    assert np.allclose(ham @ rho.matrix, rho.matrix @ ham, atol=1e-9)


def test_unique_ground_state_modes_agree():
    # the 3-spin Ising ring at moderate field has a non-degenerate ground level
    terms = chain_terms(ising_ring(3, 0.5))
    assert ground_gap(terms) > 1e-3
    mixture = ground_state(terms)
    first = ground_state(terms, FIRST)
    assert np.abs(mixture.matrix - first.matrix).max() < 1e-9


def test_ground_gap_flat_spectrum():
    assert ground_gap(terms_of(np.zeros((4, 4)))) == math.inf
    assert ground_gap(terms_of(np.diag([0.0, 0.0, 1.0, 3.0]))) == pytest.approx(1.0)
