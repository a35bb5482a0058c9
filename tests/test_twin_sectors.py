"""Spin-flip twin sectors in the ground-state path.

Terms that the spin flip X^N leaves unchanged, value for value, map each
pattern block onto its twin (S^z = j onto S^z = -j for an XXZ ring, (m1, m2)
onto (N1 - m1, N2 - m2) for two rings), with the same spectrum, so
`_spectra` diagonalizes one block of each twin pair and gives the other the
same eigenvalues.  Patching `_twins_share` out gives the path that
diagonalizes both: the level, the state in either mode and the gap must
agree with it.  One value moved by one ulp, or a tiny field, takes the
unshared path, and the matrices diagonalized must be those of a brute-force
model of the sectors (`dense_reference.model_spectra_solves`).
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcorr.spin_models
from dense_reference import dense, model_spectra_solves
from qcorr import (
    GroundStateMode,
    HamiltonianTerms,
    SpinChainSpec,
    chain_terms,
    ground_gap,
    ground_state,
    xxz_ring,
)

FIRST = GroundStateMode.FIRST_VECTOR


def unshared(monkeypatch):
    monkeypatch.setattr(qcorr.spin_models, "_twins_share", lambda pattern, values: False)


def projector_distance(a, b):
    """||P_a - P_b||_2 for the level projectors of two uniform mixtures of
    the same rank, from their factors (columns of equal norm)."""
    qa, qb = (s.factor * math.sqrt(s.factor.shape[1]) for s in (a, b))
    assert qa.shape == qb.shape
    return float(np.linalg.norm(qa - qb @ (qb.conj().T @ qa), 2))


@st.composite
def flip_invariant_terms(draw):
    """XXZ rings of N = 2..12 and double XXZ rings up to 3 + 3, with Delta
    on both sides of the crossings at -1 and 1 and on them."""
    delta = draw(st.floats(-2.5, 2.5) | st.sampled_from([-1.0, 0.0, 1.0]))
    if draw(st.booleans()):
        return chain_terms(xxz_ring(draw(st.integers(2, 12)), delta))
    spins = draw(st.integers(2, 3))
    return chain_terms(xxz_ring(spins, delta), xxz_ring(spins, draw(st.floats(-2.5, 2.5))))


@given(terms=flip_invariant_terms())
@example(terms=chain_terms(xxz_ring(10, 1.4)))      # the level is the twin pair popcount 0 and 10
@example(terms=chain_terms(xxz_ring(7, 0.5)))       # odd ring: the level is twin sectors S^z = +-1/2
@example(terms=chain_terms(xxz_ring(3, 1.5), xxz_ring(3, -0.5)))
@settings(deadline=None, max_examples=40)
def test_shared_twins_agree_with_both_solved(terms):
    assert qcorr.spin_models._twins_share(qcorr.spin_models._pattern(terms), terms.values)
    mixture, first, gap = ground_state(terms), ground_state(terms, FIRST), ground_gap(terms)
    with pytest.MonkeyPatch.context() as mp:
        unshared(mp)
        want_mixture, want_first, want_gap = ground_state(terms), ground_state(terms, FIRST), ground_gap(terms)
    assert mixture.factor.shape == want_mixture.factor.shape  # the same level count
    assert projector_distance(mixture, want_mixture) <= 1e-12
    assert np.array_equal(first.factor, want_first.factor)
    if math.isinf(want_gap):
        assert math.isinf(gap)
    else:
        assert gap == pytest.approx(want_gap, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n, delta", [(6, 0.5), (7, -0.3), (10, 1.4)])
def test_flip_breaking_nudge_takes_the_unshared_path(n, delta):
    # One Z Z value moved by one ulp breaks the flip, and the shift too: the
    # pattern blocks are diagonalized whole, every one of them.
    terms = chain_terms(xxz_ring(n, delta))
    z = int(np.flatnonzero((terms.rows == terms.cols) & (terms.rows == 1))[0])
    values = terms.values.copy()
    values[z] = np.nextafter(values[z], np.inf)
    assert_unshared(HamiltonianTerms(terms.dim, terms.rows, terms.cols, values),
                    model_spectra_solves([xxz_ring(n, delta)], shared=False, momenta=False))


@pytest.mark.parametrize("n, delta", [(6, 0.5), (7, -0.3), (10, 1.4)])
def test_a_field_takes_the_unshared_momentum_path(n, delta):
    # A field of 1e-14 keeps the shift and breaks the flip.
    spec = SpinChainSpec(n, jx=0.5, jy=0.5, jz=delta / 2.0, h=1e-14)
    assert_unshared(chain_terms(spec), model_spectra_solves([spec], shared=False))


def assert_unshared(terms, model):
    pattern = qcorr.spin_models._pattern(terms)
    assert pattern.twin is not None  # the pattern still maps onto itself
    assert not qcorr.spin_models._twins_share(pattern, terms.values)
    tables, _, sectors = qcorr.spin_models._spectra(terms)
    assert not tables.shared and tables.twins == []
    assert Counter(c for size, where, _ in tables.stacks for c in [size] * len(where)) == model
    vals = np.linalg.eigvalsh(dense(terms))
    assert min(s.values[0] for s in sectors) == pytest.approx(vals[0], abs=1e-12)
    assert ground_gap(terms) == pytest.approx(vals[vals > vals[0] + 1e-9 * (vals[-1] - vals[0])][0] - vals[0],
                                              abs=1e-12)


@pytest.fixture
def spectra_solves(monkeypatch):
    """Sizes of the matrices `_spectra` diagonalizes, one entry per matrix
    of each stacked call."""
    sizes = Counter()
    solve = qcorr.spin_models.hermitian_eigenvalues

    def spy(m):
        sizes.update([m.shape[-1]] * m.shape[0])
        return solve(m)

    monkeypatch.setattr(qcorr.spin_models, "hermitian_eigenvalues", spy)
    return sizes


@pytest.mark.parametrize("rings", [
    *[(xxz_ring(n, 0.5),) for n in range(2, 13)],
    (xxz_ring(10, 1.4),),
    (xxz_ring(2, 0.3), xxz_ring(2, -1.1)),
    (xxz_ring(3, 1.5), xxz_ring(3, -0.5)),
], ids=lambda rings: "+".join(str(ring.num_spins) for ring in rings))
def test_spectra_solve_one_block_of_each_twin_pair(rings, spectra_solves):
    ground_gap(chain_terms(*rings))
    assert spectra_solves == model_spectra_solves(rings, shared=True)


def test_xxz10_solves_the_twin_sectors_once(spectra_solves, monkeypatch):
    # N = 10: sectors S^z = +-j pair up for j = 1..5, S^z = 0 is its own
    # twin and holds 6 of the 56 momentum blocks; 31 are diagonalized.
    terms = chain_terms(xxz_ring(10, 0.5))
    ground_gap(terms)
    shared = +spectra_solves
    spectra_solves.clear()
    unshared(monkeypatch)
    ground_gap(terms)
    assert (sum(shared.values()), sum(spectra_solves.values())) == (31, 56)
    assert spectra_solves == model_spectra_solves([xxz_ring(10, 0.5)], shared=False)
