"""Chain ground states from terms, against the same calls on dense matrices.

Sweeps hand `ground_state` a chain as `HamiltonianTerms`, its nonzero
(row, column, value) triples, the one form it takes; the tests turn a dense
matrix into the same kind of triples by `np.nonzero` (`terms_of`).  The
dense reference builders scatter the terms into zeros, so the terms of the
dense matrix must be the chain's terms and give bit-identical factors and
equal gaps.  Double XXZ is two rings on one
register; it is checked against the Kronecker sum H(delta) x I + I x H(lam).
The memory tests show that no 2^N x 2^N matrix is formed on the way to a
ground state, its `ccm` and its total correlations.
"""

import math
import tracemalloc

import numpy as np
import pytest

import qcorr.entropy
import qcorr.spin_models
from qcorr import (
    DensityOperator,
    GroundStateMode,
    HamiltonianTerms,
    SpinChainSpec,
    ccm,
    chain_terms,
    ground_gap,
    ground_state,
    ising_ring,
    multi_information,
    von_neumann_entropy,
    xxz_ring,
)
from qcorr.errors import NotHermitian
from qcorr.spin_models import _blocks

from dense_reference import build_double_xxz, build_hamiltonian, build_ising, build_xxz, terms_of

FIRST = GroundStateMode.FIRST_VECTOR
MODES = (GroundStateMode.SUBSPACE_MIXTURE, FIRST)

DELTAS = (-2.0, -1.0, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.5)
LAMBDAS = (0.0, 0.7, 1.0, 1.7)
GENERIC = (
    ("jx!=jy", dict(jx=1.0, jy=0.3, jz=0.2, h=0.4)),
    ("jy-only", dict(jy=1.0)),
    ("xxz+field", dict(jx=0.5, jy=0.5, jz=0.3, h=0.2)),
)
DOUBLE_POINTS = ((1.0, 1.0), (1.0 - 1e-6, 0.5), (-1.0, 1.0 + 1e-6), (0.3, -0.8), (2.0, 1.0))


def _models():
    for delta in DELTAS:
        yield f"xxz{delta!r}", (lambda n, d=delta: xxz_ring(n, d)), (lambda n, d=delta: build_xxz(n, d))
    for lam in LAMBDAS:
        yield f"ising{lam!r}", (lambda n, x=lam: ising_ring(n, x)), (lambda n, x=lam: build_ising(n, x))
    for name, couplings in GENERIC:
        spec = (lambda n, c=couplings: SpinChainSpec(n, **c))
        yield name, spec, (lambda n, s=spec: build_hamiltonian(s(n)))


CASES = [(f"{name}-{n}", spec, build, n) for name, spec, build in _models() for n in range(2, 11)]


def old_build(spec):
    """The dense builder the terms replaced: diagonal set, flips added with np.add.at."""
    n = spec.num_spins
    dim = 1 << n
    basis = np.arange(dim)
    shifts = n - 1 - np.arange(n)
    z = 1 - 2 * ((basis[:, None] >> shifts) & 1)
    zz = z * np.roll(z, -1, axis=1)
    ham = np.zeros((dim, dim))
    ham[basis, basis] = -(spec.jz * zz.sum(axis=1) + spec.h * z.sum(axis=1))
    if spec.jx != 0.0 or spec.jy != 0.0:
        flips = (1 << shifts) | (1 << np.roll(shifts, -1))
        np.add.at(ham, (basis[:, None] ^ flips, basis[:, None]), -spec.jx + spec.jy * zz)
    return ham


@pytest.mark.parametrize("name, spec, build, n", CASES, ids=[c[0] for c in CASES])
def test_terms_match_the_dense_matrix(name, spec, build, n):
    terms = chain_terms(spec(n))
    dense = build(n)
    assert np.array_equal(dense, old_build(spec(n)))
    for mode in MODES:
        got = ground_state(terms, mode).factor
        want = ground_state(terms_of(dense), mode).factor
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want)
    assert ground_gap(terms) == ground_gap(terms_of(dense))


@pytest.mark.parametrize("n", range(2, 11))
def test_terms_are_the_nonzero_entries_in_row_major_order(n):
    for spec in (xxz_ring(n, 0.5), ising_ring(n, 0.0), SpinChainSpec(n, jx=1.0, jy=0.3, h=0.4)):
        terms = chain_terms(spec)
        dense = build_hamiltonian(spec)
        rows, cols = np.nonzero(dense)
        assert terms.dim == 1 << n
        assert np.array_equal(terms.rows, rows) and np.array_equal(terms.cols, cols)
        assert np.array_equal(terms.values, dense[rows, cols])
        assert np.all(terms.values != 0.0)
        assert np.bincount(terms.cols, minlength=terms.dim).max() <= n + 1


def test_aligned_flips_leave_the_magnetization_sectors_apart():
    # XXZ flips of aligned pairs have amplitude exactly 0: kept, they would
    # merge the N + 1 magnetization sectors into two parity blocks.
    blocks = _blocks(chain_terms(xxz_ring(10, 0.5)))
    assert [len(idx) for idx, _ in blocks] == [math.comb(10, k) for k in range(11)]
    assert len(_blocks(chain_terms(ising_ring(10, 0.7)))) == 2


def test_asymmetric_entry_raises():
    skew = np.diag([1.0, 2.0, 3.0, 4.0])
    skew[0, 3] = 0.5
    for ham in (terms_of(skew), HamiltonianTerms(4, np.array([0, 0, 1, 2, 3]), np.array([0, 3, 1, 2, 3]),
                                       np.array([1.0, 0.5, 2.0, 3.0, 4.0]))):
        with pytest.raises(NotHermitian):
            ground_state(ham)
        with pytest.raises(NotHermitian):
            ground_gap(ham)


@pytest.mark.parametrize("spins", (2, 3, 4, 5))
def test_double_xxz_is_the_kron_sum(spins):
    eye = np.eye(1 << spins)
    for delta, lam in DOUBLE_POINTS:
        kron_sum = np.kron(build_xxz(spins, delta), eye) + np.kron(eye, build_xxz(spins, lam))
        assert np.abs(build_double_xxz(spins, delta, lam) - kron_sum).max() <= 1e-12
        terms = chain_terms(xxz_ring(spins, delta), xxz_ring(spins, lam))
        assert abs(ccm(ground_state(terms)).value - ccm(ground_state(terms_of(kron_sum))).value) <= 1e-10


@pytest.fixture
def eigh_sizes(monkeypatch):
    sizes = []
    solve = qcorr.spin_models.hermitian_eigensystem

    def spy(m):
        sizes.append(m.shape[0])
        return solve(m)

    monkeypatch.setattr(qcorr.spin_models, "hermitian_eigensystem", spy)
    return sizes


def shift_orbits(n, states):
    """Number of orbits of the cyclic shift of n qubits among `states`."""
    full = (1 << n) - 1
    return len({min(((s >> j) | (s << (n - j))) & full for j in range(n)) for s in states})


def weight(n, ones):
    return [s for s in range(1 << n) if bin(s).count("1") == ones]


# Each level vector comes from one momentum block, whose size is the number
# of shift orbits of its magnetization or parity sector (all orbits fit k = 0).
@pytest.mark.parametrize("spec, expected", [
    (xxz_ring(10, 0.5), [shift_orbits(10, weight(10, 5))]),  # 26 of the 252 states
    (xxz_ring(10, 2.0), [1, 1]),  # the two fully polarized states
    (xxz_ring(10, 1.0), [shift_orbits(10, weight(10, k)) for k in range(11)]),  # k = 0 in every sector
    (ising_ring(10, 0.7), [shift_orbits(10, [s for s in range(1024) if bin(s).count("1") % 2 == 0])]),
])
def test_only_blocks_on_the_lowest_level_get_eigenvectors(eigh_sizes, spec, expected):
    ground_state(chain_terms(spec))
    assert eigh_sizes == expected


# `first-vector` diagonalizes the one momentum block its vector comes from,
# not the whole pattern block (924 and 2048 states here).
@pytest.mark.parametrize("spec, expected", [
    (xxz_ring(12, 0.5), [80]),  # shift orbits of the 924 S^z = 0 states
    (ising_ring(12, 0.9), [180]),  # shift orbits of the 2048 even-parity states
])
def test_first_vector_diagonalizes_one_momentum_block(eigh_sizes, spec, expected):
    ground_state(chain_terms(spec), FIRST)
    assert eigh_sizes == expected


def test_xxz12_ground_state_ccm_and_tv_stay_below_half_a_dense_h():
    # One dense H at N = 12 is 128 MB, and so is V V^dagger.
    terms = chain_terms(xxz_ring(12, 0.5))
    tracemalloc.start()
    try:
        state = ground_state(terms)
        ccm(state)
        multi_information(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


def test_from_factor_forms_its_matrix_on_first_read():
    v = np.random.default_rng(5).standard_normal((4096, 1))
    v /= np.linalg.norm(v)
    tracemalloc.start()
    try:
        state = DensityOperator.from_factor(v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert state.dim == 4096
    matrix = state.matrix
    assert np.array_equal(matrix, v @ v.T)
    assert state.matrix is matrix


@pytest.mark.parametrize("real", (True, False))
def test_von_neumann_entropy_of_a_factor_takes_its_gram(monkeypatch, real):
    rng = np.random.default_rng(11)
    v = rng.standard_normal((64, 3))
    if not real:
        v = v + 1j * rng.standard_normal((64, 3))
    state = DensityOperator.from_factor(v / np.linalg.norm(v))
    dense = von_neumann_entropy(DensityOperator(state.matrix))
    sizes = []
    solve = qcorr.entropy.hermitian_eigenvalues

    def spy(m):
        sizes.append(m.shape)
        return solve(m)

    monkeypatch.setattr(qcorr.entropy, "hermitian_eigenvalues", spy)
    fresh = DensityOperator.from_factor(state.factor)
    assert abs(von_neumann_entropy(fresh) - dense) <= 1e-12
    assert sizes == [(3, 3)]
