"""Block-by-block ground states against a dense `np.linalg.eigh` reference.

`ground_state` and `ground_gap` diagonalize the connected blocks of a
Hamiltonian's nonzero pattern one at a time (the magnetization sectors of XXZ,
the parity sectors of Ising, the (S^z_1, S^z_2) blocks of double XXZ).  The
reference here diagonalizes the whole matrix at once.  The grids cross the
XXZ level crossing at delta = 1, where the (N+1)-fold multiplet spreads over
every magnetization sector, and pass within 1e-6 of it on both sides.
"""

import math

import numpy as np
import pytest

from qcorr import (
    DensityOperator,
    GroundStateMode,
    SpinChainSpec,
    ccm,
    chain_terms,
    ground_gap,
    ground_state,
    ising_ring,
    xxz_ring,
)

from dense_reference import dense

FIRST = GroundStateMode.FIRST_VECTOR
RTOL = 1e-9  # spin_models.DEGENERACY_RTOL
TOL = 1e-9

DELTAS = (-2.0, -1.0 - 1e-6, -1.0, -0.4, 0.0, 0.7, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.5)
LAMBDAS = (0.0, 0.3, 1.0, 1.7)
DOUBLE_POINTS = ((1.0, 1.0), (1.0 - 1e-6, 0.5), (-1.0, 1.0 + 1e-6), (0.3, -0.8), (2.0, 1.0))
GENERIC = (
    ("jx!=jy", dict(jx=1.0, jy=0.3, jz=0.2, h=0.4)),
    ("jy-only", dict(jy=1.0)),
    ("xxz+field", dict(jx=0.5, jy=0.5, jz=0.3, h=0.2)),
)


def _cases():
    for n in range(2, 9):
        for delta in DELTAS:
            yield f"xxz-{n}-{delta!r}", (xxz_ring(n, delta),)
        for lam in LAMBDAS:
            yield f"ising-{n}-{lam!r}", (ising_ring(n, lam),)
    for spins in (2, 3, 4):
        for delta, lam in DOUBLE_POINTS:
            yield f"dxxz-{spins}-{delta!r}-{lam!r}", (xxz_ring(spins, delta), xxz_ring(spins, lam))
    for n in range(2, 8):
        for name, couplings in GENERIC:
            yield f"{name}-{n}", (SpinChainSpec(n, **couplings),)


CASES = list(_cases())


@pytest.fixture(params=CASES, ids=[c[0] for c in CASES])
def terms(request):
    return chain_terms(*request.param[1])


def dense_reference(ham):
    """(lowest-level eigenvectors, gap) from one eigh of the whole matrix."""
    vals, vecs = np.linalg.eigh(ham)
    top = vals[0] + RTOL * (vals[-1] - vals[0])
    above = vals[vals > top]
    gap = float(above[0] - vals[0]) if above.size else math.inf
    return vecs[:, vals <= top], gap


def test_mixture_and_gap_match_dense(terms):
    ground, gap = dense_reference(dense(terms))
    reference = DensityOperator.from_factor(ground / math.sqrt(ground.shape[1]))
    state = ground_state(terms)
    assert state.factor.shape[1] == ground.shape[1]
    assert np.abs(state.matrix - reference.matrix).max() <= TOL
    assert abs(ccm(state).value - ccm(reference).value) <= TOL
    got = ground_gap(terms)
    assert got == gap if math.isinf(gap) else abs(got - gap) <= TOL


def test_first_vector_is_on_the_lowest_level(terms):
    hamiltonian = dense(terms)
    ground, _ = dense_reference(hamiltonian)
    e0 = np.linalg.eigvalsh(hamiltonian)[0]
    rho = ground_state(terms, FIRST).matrix
    assert np.abs(hamiltonian @ rho - e0 * rho).max() <= TOL
    if ground.shape[1] == 1:
        v = ground[:, 0]
        assert np.abs(rho - np.outer(v, v.conj())).max() <= TOL


def test_first_vector_takes_the_first_block():
    # At delta = 1 the ferromagnetic multiplet has one state per magnetization
    # sector; the first block by smallest basis index is {|0...0>}.
    rho = ground_state(chain_terms(xxz_ring(4, 1.0)), FIRST).matrix
    expected = np.zeros((16, 16))
    expected[0, 0] = 1.0
    assert np.abs(rho - expected).max() <= TOL


def test_degenerate_level_across_sectors_is_kept_whole():
    # delta > 1: the two fully polarized states sit in the two extreme sectors
    state = ground_state(chain_terms(xxz_ring(5, 2.0)))
    assert state.factor.shape[1] == 2
    assert np.allclose(np.diag(state.matrix).real[[0, 31]], 0.5)
