"""Hypothesis ensembles: block-by-block ground states against one dense `eigh`.

Random chain couplings at N = 2..7, and XXZ rings at and within 1e-6 of the
level crossing at delta = 1 in a random longitudinal field.  The reference
diagonalizes the whole Hamiltonian at once and takes as the lowest level
every eigenvalue within 1e-9 times the spectral span of the minimum, the
documented degeneracy window.

A level split by about the window itself (a field of 1e-9, say) is
ill-posed: round-off of 1e-15 decides which of its eigenvalues fall inside,
and the projector onto a cluster cut that finely is fixed only to about
1e-15 / (its distance to the next eigenvalue).  Any two correct eigensolvers
disagree there, so the random ensemble skips couplings that put an
eigenvalue between 1e-11 and 1e-6 spectral spans above the minimum.

Both ensembles must take momentum blocks wherever the chain allows them: a
spy on `_translations` checks that every call found the shift group of the
ring, unless no pair of spins is flipped (diagonal chains), only aligned
pairs are (jx = -jy, whose blocks the shift does not map onto themselves),
or an entry is subnormal.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qcorr.spin_models
from qcorr import SpinChainSpec, chain_terms, ground_gap, ground_state

from dense_reference import dense

WINDOW_RTOL = 1e-9
TOL = 1e-9

COUPLING = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
# A field of at least 0.01 splits the delta = 1 multiplet far outside the window.
FIELD = st.one_of(st.just(0.0), st.floats(0.01, 3.0), st.floats(-3.0, -0.01))


def dense_reference(ham):
    """(lowest-level projector, gap) from one eigh of the whole matrix."""
    vals, vecs = np.linalg.eigh(ham)
    top = vals[0] + WINDOW_RTOL * (vals[-1] - vals[0])
    ground = vecs[:, vals <= top]
    above = vals[vals > top]
    gap = float(above[0] - vals[0]) if above.size else math.inf
    return ground @ ground.conj().T / ground.shape[1], gap


def well_posed(ham):
    """No eigenvalue between 1e-11 and 1e-6 spectral spans above the minimum."""
    vals = np.linalg.eigvalsh(ham)
    above = vals - vals[0]
    span = above[-1]
    return not np.any((above > 1e-11 * span) & (above < 1e-6 * span))


def assert_matches_dense(terms):
    """Projector and gap against the dense reference; returns the orders of
    the groups the two calls used."""
    projector, gap = dense_reference(dense(terms))
    orders = []
    find = qcorr.spin_models._translations

    def spy(terms, pattern):
        found = find(terms, pattern)
        orders.append(found[0])
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qcorr.spin_models, "_translations", spy)
        assert np.abs(ground_state(terms).matrix - projector).max() <= TOL
        got = ground_gap(terms)
    assert got == gap if math.isinf(gap) else abs(got - gap) <= TOL
    return orders


@given(n=st.integers(2, 7), jx=COUPLING, jy=COUPLING, jz=COUPLING, h=COUPLING)
@settings(deadline=None, max_examples=60)
def test_random_couplings_match_dense(n, jx, jy, jz, h):
    terms = chain_terms(SpinChainSpec(n, jx=jx, jy=jy, jz=jz, h=h))
    ham = dense(terms)
    assume(well_posed(ham))
    orders = assert_matches_dense(terms)
    normal = np.all(np.abs(ham[ham != 0.0]) >= np.finfo(float).tiny)
    if (jx != 0.0 or jy != 0.0) and jx != -jy and normal:
        assert orders == [n, n]


@given(n=st.integers(2, 7), offset=st.sampled_from((-1e-6, 0.0, 1e-6)), h=FIELD)
@settings(deadline=None, max_examples=40)
def test_xxz_at_the_crossing_matches_dense(n, offset, h):
    orders = assert_matches_dense(chain_terms(
        SpinChainSpec(n, jx=0.5, jy=0.5, jz=(1.0 + offset) / 2.0, h=h)))
    assert orders == [n, n]
