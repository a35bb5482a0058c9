"""Momentum blocks against the magnetization-sector path and dense `eigh`.

A chain whose terms are invariant under the cyclic shift of the register's
qubits is split into (pattern block, momentum) blocks; any other input takes
the trivial group, whose one momentum block per pattern block is that block
itself.  Forcing the trivial group (by replacing `_translations`) gives the
path without momenta, which must agree with the momentum path on the
lowest-level projector, the gap and the measure.  `first-vector` must agree
too where the first pattern block on the level holds one vector of it;
elsewhere it is some real eigenvector of the level.  Real terms must give a
real factor with orthonormal columns, also where the level pairs momenta k
and -k.
"""

import math
import tracemalloc

import numpy as np
import pytest

import qcorr.spin_models
from dense_reference import dense, terms_of
from pauli_reference import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, kron_all
from qcorr import (
    GroundStateMode,
    HamiltonianTerms,
    SpinChainSpec,
    ccm,
    chain_terms,
    ground_gap,
    ground_state,
    ising_ring,
    xxz_ring,
)
from qcorr.spin_models import _trivial_group

FIRST = GroundStateMode.FIRST_VECTOR
RTOL = 1e-9  # spin_models.DEGENERACY_RTOL
TOL = 1e-9

GENERIC = (
    ("jx!=jy", dict(jx=1.0, jy=0.3, jz=0.2, h=0.4)),
    ("jy-only", dict(jy=1.0)),
    ("xxz+field", dict(jx=0.5, jy=0.5, jz=0.3, h=0.2)),
)
# Antiferromagnetic Heisenberg and XXZ rings: on odd rings their lowest
# level pairs momenta k and -k.
FRUSTRATED = (
    ("heisenberg-af", dict(jx=-0.5, jy=-0.5, jz=-0.5)),
    ("xxz-af", dict(jx=-0.5, jy=-0.5, jz=-0.2)),
)


def _specs():
    for n in range(2, 11):
        for delta in (-2.0, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.5):
            yield f"xxz{delta!r}-{n}", xxz_ring(n, delta)
        for lam in (0.0, 0.7, 1.0):
            yield f"ising{lam!r}-{n}", ising_ring(n, lam)
        for name, couplings in GENERIC + FRUSTRATED:
            yield f"{name}-{n}", SpinChainSpec(n, **couplings)
    yield "xxz0.5-11", xxz_ring(11, 0.5)
    yield "heisenberg-af-11", SpinChainSpec(11, **FRUSTRATED[0][1])
    yield "xxz0.5-12", xxz_ring(12, 0.5)
    yield "xxz1.0-12", xxz_ring(12, 1.0)
    yield "ising1.0-11", ising_ring(11, 1.0)


SPECS = list(_specs())


@pytest.fixture
def group_orders(monkeypatch):
    """The order of every group `_translations` returns."""
    orders = []
    find = qcorr.spin_models._translations

    def spy(terms, pattern):
        found = find(terms, pattern)
        orders.append(found[0])
        return found

    monkeypatch.setattr(qcorr.spin_models, "_translations", spy)
    return orders


def without_momenta(monkeypatch):
    monkeypatch.setattr(qcorr.spin_models, "_translations",
                        lambda terms, pattern: _trivial_group(terms.dim))


def orthonormal(state):
    """The factor's columns scaled to unit norm, after checking that they
    are orthogonal and of equal norm, as a uniform mixture's are."""
    q = state.factor * math.sqrt(state.factor.shape[1])
    assert np.abs(q.conj().T @ q - np.eye(q.shape[1])).max() <= 1e-12
    return q


def projector_distance(a, b):
    """Spectral norm of P_a - P_b for the lowest-level projectors of two
    uniform mixtures of the same rank: the sine of their largest principal
    angle, ||(I - P_b) Q_a||_2, computed from the factors alone."""
    qa, qb = orthonormal(a), orthonormal(b)
    assert qa.shape == qb.shape
    return float(np.linalg.norm(qa - qb @ (qb.conj().T @ qa), 2))


def first_block_level(terms):
    """(lowest eigenvalue, how many eigenvalues of its level lie in the
    first pattern block, by smallest basis index, that holds any), from
    dense `eigvalsh` of each block."""
    spectra = [np.linalg.eigvalsh(dense(block)) for _, block in qcorr.spin_models._blocks(terms)]
    vals = np.concatenate(spectra)
    top = vals.min() + RTOL * (vals.max() - vals.min())
    return vals.min(), next(n for n in (np.count_nonzero(s <= top) for s in spectra) if n)


def assert_matches_dense(ham, state, gap):
    """The state's level and the gap against one dense eigh of `ham`: same
    rank, projectors within TOL in spectral norm, gaps within TOL."""
    vals, vecs = np.linalg.eigh(ham)
    top = vals[0] + RTOL * (vals[-1] - vals[0])
    ground, above = vecs[:, vals <= top], vals[vals > top]
    q = orthonormal(state)
    assert q.shape[1] == ground.shape[1]
    assert np.linalg.norm(q - ground @ (ground.conj().T @ q), 2) <= TOL
    assert abs(gap - (above[0] - vals[0])) <= TOL if above.size else math.isinf(gap)


@pytest.mark.parametrize("name, spec", SPECS, ids=[name for name, _ in SPECS])
def test_momentum_blocks_match_the_sector_blocks(monkeypatch, group_orders, name, spec):
    terms = chain_terms(spec)
    state, gap, first = ground_state(terms), ground_gap(terms), ground_state(terms, FIRST)
    assert group_orders == [spec.num_spins] * 3
    assert state.factor.dtype == np.float64
    without_momenta(monkeypatch)
    sector_state, sector_gap = ground_state(terms), ground_gap(terms)
    assert projector_distance(state, sector_state) <= TOL
    assert gap == sector_gap if math.isinf(gap) else abs(gap - sector_gap) <= TOL
    assert abs(ccm(state).value - ccm(sector_state).value) <= TOL
    v = first.factor
    assert v.shape == (terms.dim, 1) and v.dtype == np.float64
    e0, count = first_block_level(terms)
    if count == 1:
        assert projector_distance(first, ground_state(terms, FIRST)) <= TOL
    else:  # the level is degenerate inside that block: any vector of it
        assert np.linalg.norm(dense(terms) @ v - e0 * v) <= TOL


@pytest.mark.parametrize("n", (3, 5, 7))
@pytest.mark.parametrize("name, couplings", FRUSTRATED + GENERIC,
                         ids=[c[0] for c in FRUSTRATED + GENERIC])
def test_real_factor_matches_dense_eigh(n, name, couplings):
    terms = chain_terms(SpinChainSpec(n, **couplings))
    state = ground_state(terms)
    assert state.factor.dtype == np.float64
    assert_matches_dense(dense(terms), state, ground_gap(terms))


def test_odd_antiferromagnetic_ring_pairs_plus_and_minus_k():
    # The 5-site Heisenberg ring's lowest level is fourfold: S^z = +-1/2
    # times k = +-4 pi / 5; each (S^z, k) block enters as two real columns.
    state = ground_state(chain_terms(SpinChainSpec(5, **FRUSTRATED[0][1])))
    assert state.factor.shape == (32, 4) and state.factor.dtype == np.float64


def dm_ring(n, d):
    """A ring with a Dzyaloshinskii-Moriya term, complex and shift invariant:
    H = -sum_i (X_i X_{i+1} + Y_i Y_{i+1}) / 2 + d (X_i Y_{i+1} - Y_i X_{i+1})
        + Z_i Z_{i+1} / 4 + Z_i / 4, with dyadic couplings, so every entry
    is a sum without round-off and the terms are exactly invariant."""

    def bond(a, b, i):
        ops = [PAULI_I] * n
        ops[i], ops[(i + 1) % n] = a, b
        return kron_all(ops)

    def site(a, i):
        ops = [PAULI_I] * n
        ops[i] = a
        return kron_all(ops)

    return -sum(0.5 * (bond(PAULI_X, PAULI_X, i) + bond(PAULI_Y, PAULI_Y, i))
                + d * (bond(PAULI_X, PAULI_Y, i) - bond(PAULI_Y, PAULI_X, i))
                + 0.25 * bond(PAULI_Z, PAULI_Z, i) + 0.25 * site(PAULI_Z, i) for i in range(n))


@pytest.mark.parametrize("n", (3, 4, 5, 6, 7))
@pytest.mark.parametrize("d", (0.25, 0.75))
def test_complex_terms_take_every_momentum(group_orders, n, d):
    ham = dm_ring(n, d)
    state = ground_state(terms_of(ham))
    assert group_orders == [n]
    assert np.iscomplexobj(state.factor)
    assert_matches_dense(ham, state, ground_gap(terms_of(ham)))


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


OTHER = (
    ("double-xxz-3+3", chain_terms(xxz_ring(3, 0.5), xxz_ring(3, 1.5))),
    ("double-xxz-4+4", chain_terms(xxz_ring(4, 1.0), xxz_ring(4, 1.0))),
    ("diagonal", chain_terms(SpinChainSpec(6, jz=1.0, h=0.3))),
    # Flips of aligned pairs only conserve the difference of the two
    # sublattices' magnetizations, which the shift negates.
    ("aligned-flips-only", chain_terms(SpinChainSpec(6, jx=0.5, jy=-0.5, jz=0.2))),
    # Subnormal values would lose their digits in the phases.
    ("subnormal-xxz", chain_terms(SpinChainSpec(5, jx=5e-324, jy=5e-324, jz=1e-320))),
    ("random-complex-16", terms_of(random_hermitian(16, 3))),
    ("random-real-8", terms_of(random_hermitian(8, 4).real)),
    ("one-qubit", terms_of(np.array([[1.0, 0.5], [0.5, -1.0]]))),
)


@pytest.mark.parametrize("name, terms", OTHER, ids=[name for name, _ in OTHER])
def test_other_input_takes_the_trivial_group(group_orders, name, terms):
    state = ground_state(terms)
    assert group_orders == [1]
    assert_matches_dense(dense(terms), state, ground_gap(terms))


def test_invariance_is_exact():
    # One value moved by one ulp breaks the symmetry: the trivial group.
    terms = chain_terms(xxz_ring(6, 0.5))
    values = terms.values.copy()
    values[7] = np.nextafter(values[7], np.inf)
    nudged = HamiltonianTerms(terms.dim, terms.rows, terms.cols, values)
    pattern = qcorr.spin_models._pattern(nudged)
    assert qcorr.spin_models._translations(nudged, pattern)[0] == 1
    assert qcorr.spin_models._translations(terms, qcorr.spin_models._pattern(terms))[0] == 6


@pytest.fixture
def solve_sizes(monkeypatch):
    """Matrix size of every eigensolve `spin_models` makes, batched or not."""
    sizes = []
    for name in ("hermitian_eigensystem", "hermitian_eigenvalues"):
        solve = getattr(qcorr.spin_models, name)

        def spy(m, solve=solve):
            sizes.append(m.shape[-1])
            return solve(m)

        monkeypatch.setattr(qcorr.spin_models, name, spy)
    return sizes


def test_xxz14_ground_state(solve_sizes):
    # S^z = 0 at N = 14 holds 3432 states in 246 shift orbits, the largest
    # momentum block; one dense 3432-state block alone is 94 MB.
    n = 14
    terms = chain_terms(xxz_ring(n, 0.5))
    tracemalloc.start()
    try:
        state = ground_state(terms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    full = (1 << n) - 1
    half = [s for s in range(1 << n) if bin(s).count("1") == n // 2]
    orbits = len({min(((s >> j) | (s << (n - j))) & full for j in range(n)) for s in half})
    assert orbits == 246
    assert max(solve_sizes) == orbits
    v = state.factor
    hv = np.zeros_like(v)
    np.add.at(hv, terms.rows, terms.values[:, None] * v[terms.cols])
    e0 = float(np.vdot(v, hv).real / np.vdot(v, v).real)
    assert np.linalg.norm(hv - e0 * v) <= 1e-9
    assert peak <= 48 * 2**20
