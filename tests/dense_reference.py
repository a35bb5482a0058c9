"""Dense matrices, and the states and terms made from them: the tests'
reference for the forms the library takes.

The library takes a Hamiltonian as `HamiltonianTerms` only, and a state has
popcount blocks only when they come from a sector-aligned factor or from a
channel that keeps popcounts apart.  These helpers build dense chain
Hamiltonians from `chain_terms`, terms from any dense matrix, and the block
or one-block state of a dense density matrix, asserting the form they make.
"""

import numpy as np

from qcorr import DensityOperator, HamiltonianTerms, chain_terms, ising_ring, xxz_ring
from qcorr.states import block_layout

# --- Hamiltonians -------------------------------------------------------------


def dense(terms):
    """The dim x dim matrix of `terms`, scattered into zeros."""
    matrix = np.zeros((terms.dim, terms.dim), dtype=terms.values.dtype)
    matrix[terms.rows, terms.cols] = terms.values
    return matrix


def terms_of(matrix):
    """The nonzero entries of a dense square matrix, in row-major order."""
    h = np.asarray(matrix)
    h = h.astype(complex if np.iscomplexobj(h) else float, copy=False)
    assert h.ndim == 2 and h.shape[0] == h.shape[1]
    rows, cols = np.nonzero(h)
    return HamiltonianTerms(h.shape[0], rows, cols, h[rows, cols])


def build_hamiltonian(spec):
    return dense(chain_terms(spec))


def build_xxz(num_spins, delta):
    return dense(chain_terms(xxz_ring(num_spins, delta)))


def build_ising(num_spins, lam):
    return dense(chain_terms(ising_ring(num_spins, lam)))


def build_double_xxz(spins_per_chain, delta, lam):
    """H(delta) x I + I x H(lam), the delta ring on the more significant qubits."""
    return dense(chain_terms(xxz_ring(spins_per_chain, delta), xxz_ring(spins_per_chain, lam)))


# --- density operators --------------------------------------------------------


def popcounts(num_qubits):
    return np.array([bin(i).count("1") for i in range(1 << num_qubits)])


def holds_popcount(matrix):
    """Whether every entry of `matrix` between basis states of different
    popcount is exactly 0.0 (a negative zero is a zero)."""
    weight = popcounts(matrix.shape[0].bit_length() - 1)
    return not np.asarray(matrix)[weight[:, None] != weight[None, :]].any()


def one_block(matrix, *, check_psd=False):
    """The state of a dense density matrix, as the public constructor makes
    it: the one-block case."""
    state = DensityOperator(matrix, check_psd=check_psd)
    assert state.blocks is None
    return state


def block_state(matrix, *, check_psd=False):
    """The state of a dense density matrix that holds popcounts apart, in
    popcount-block form.  The matrix passes the public constructor's checks
    first; with `check_psd` the state keeps the spectrum, and any low-rank
    factor, that they find."""
    checked = DensityOperator(matrix, check_psd=check_psd)
    m = checked.matrix
    assert holds_popcount(m)
    n = checked.num_qubits
    blocks = np.concatenate([m[np.ix_(idx, idx)].reshape(-1) for idx in block_layout(n).sectors])
    state = DensityOperator._trusted(n, matrix=m, blocks=blocks)
    state.factor, state.spectrum = checked.factor, checked.spectrum
    assert state.blocks is not None
    return state
