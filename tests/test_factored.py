"""The factored subset-entropy path against the dense partial-trace path.

A state built from a factor V (rho = V V^dagger) gets its subset spectra from
V; the same matrix rebuilt with `DensityOperator(matrix)` has no factor and
goes through partial traces.  Both must give the same entropies, values and
minimizing trees.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcorr.entropy
import qcorr.states
from qcorr import (
    DensityOperator,
    ccm,
    full_mask,
    ghz_closed_form,
    make_ghz,
    make_state_from_kets,
    multi_information,
    mutual_information,
)
from qcorr.entropy import subset_entropy

from dense_reference import one_block

ENTROPY_TOL = 1e-10
CCM_TOL = 1e-9
# Away from SUPPORT_CUTOFF the two paths' entropies differ by round-off only
# (about 1e-14 bits), well inside the DP's tie tolerance.  An eigenvalue within
# round-off of the cutoff is kept by one path and dropped by the other, which
# moves an entropy by up to 4e-11 bits; the minimizing tree may then differ.
ROUNDOFF_BITS = 1e-13


def dense_copy(state):
    return one_block(state.matrix)


def tree_shape(node):
    if node is None:
        return None
    return (node.subset, node.mask_a, tree_shape(node.left), tree_shape(node.right))


def assert_paths_agree(state):
    """Returns whether the trees were compared (the tables agree to round-off)."""
    dense = dense_copy(state)
    assert dense.factor is None
    n = state.num_qubits
    gap = 0.0
    for mask in range(1, full_mask(n) + 1):
        diff = abs(subset_entropy(state, mask) - subset_entropy(dense, mask))
        assert diff <= ENTROPY_TOL, mask
        gap = max(gap, diff)
    factored_report, dense_report = ccm(state), ccm(dense)
    assert factored_report.value == pytest.approx(dense_report.value, abs=CCM_TOL)
    if gap > ROUNDOFF_BITS:
        return False
    assert tree_shape(factored_report.tree) == tree_shape(dense_report.tree)
    return True


def w_state(n):
    return make_state_from_kets([(1 << q, 1) for q in range(n)], n)


def product_state(n, rng):
    v = np.ones(1, dtype=complex)
    for _ in range(n):
        q = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = np.kron(v, q / np.linalg.norm(q))
    return DensityOperator.from_factor(v.reshape(-1, 1))


def random_factor(n, rank, rng):
    v = rng.standard_normal((1 << n, rank)) + 1j * rng.standard_normal((1 << n, rank))
    return v / np.linalg.norm(v)


def near_cutoff(n, eps, rng):
    """Schmidt weight `eps` on a second branch, dressed by a random rotation of qubit 0."""
    v = np.zeros(1 << n, dtype=complex)
    v[0], v[-1] = math.sqrt(1.0 - eps), math.sqrt(eps)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    v = np.tensordot(u, v.reshape(2, -1), axes=([1], [0])).reshape(-1)
    return DensityOperator.from_factor((v / np.linalg.norm(v)).reshape(-1, 1))


def build(kind, n, seed, eps):
    rng = np.random.default_rng(seed)
    if kind == "ghz":
        return make_ghz(n)
    if kind == "w":
        return w_state(n)
    if kind == "product":
        return product_state(n, rng)
    if kind == "basis":
        return make_state_from_kets([(int(rng.integers(1 << n)), 1)], n)
    if kind == "near_cutoff":
        return near_cutoff(n, eps, rng)
    if kind == "pure":
        return DensityOperator.from_factor(random_factor(n, 1, rng))
    if kind == "rank2":
        return DensityOperator.from_factor(random_factor(n, 2, rng))
    # a rank-2 mixture of two GHZ-like branches, one of them near the cutoff
    v = np.zeros((1 << n, 2), dtype=complex)
    v[0, 0] = v[-1, 0] = math.sqrt(0.5 * (1.0 - eps))
    v[1, 1] = math.sqrt(eps)
    return DensityOperator.from_factor(v)


KINDS = ["ghz", "w", "product", "basis", "near_cutoff", "pure", "rank2", "rank2_near_cutoff"]


def test_corpus_paths_agree(corpus):
    factored = [(name, s) for name, s in corpus if s.factor is not None]
    assert len(factored) >= 6  # every pure corpus entry carries its amplitude column
    for name, state in factored:
        assert assert_paths_agree(state), name


@given(kind=st.sampled_from(KINDS), n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       eps=st.floats(1e-13, 1e-11))
@settings(deadline=None, max_examples=60)
def test_random_ensembles_paths_agree(kind, n, seed, eps):
    assert_paths_agree(build(kind, n, seed, eps))


@pytest.mark.parametrize("n", [3, 5, 8])
def test_ghz_w_and_product_trees_agree(n, rng):
    for state in (make_ghz(n), w_state(n), product_state(n, rng)):
        assert assert_paths_agree(state)


def test_schmidt_weight_on_the_cutoff(rng):
    # Entropies and values still agree; the tree may not (see ROUNDOFF_BITS).
    for n in (3, 4, 5, 6):
        for _ in range(5):
            assert_paths_agree(near_cutoff(n, 1e-12, rng))


def test_pure_state_and_its_density_agree(rng):
    pure = DensityOperator.from_factor(random_factor(4, 1, rng))
    amplitudes = pure.factor[:, 0]
    assert np.allclose(pure.matrix, np.outer(amplitudes, amplitudes.conj()))
    assert ccm(pure).value == pytest.approx(ccm(dense_copy(pure)).value, abs=CCM_TOL)
    for part_a in (0b0001, 0b0110):
        assert mutual_information(pure, part_a) == pytest.approx(
            mutual_information(dense_copy(pure), part_a), abs=ENTROPY_TOL)
    assert multi_information(pure) == pytest.approx(
        multi_information(dense_copy(pure)), abs=ENTROPY_TOL)


def test_subset_entropy_checks_the_mask():
    from qcorr.errors import EmptySubset, InvalidSubset

    for state in (make_ghz(2), dense_copy(make_ghz(2))):
        with pytest.raises(EmptySubset):
            subset_entropy(state, 0)
        with pytest.raises(InvalidSubset):
            subset_entropy(state, 0b100)


def test_ghz12_never_forms_a_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense path used")

    # `qcorr.ccm` is the re-exported function, so the module comes from sys.modules.
    for module in (qcorr.states, qcorr.entropy, sys.modules["qcorr.ccm"]):
        monkeypatch.setattr(module, "partial_trace", refuse)
    monkeypatch.setattr(DensityOperator, "matrix", property(refuse))
    assert ccm(make_ghz(12)).value == pytest.approx(ghz_closed_form(12), abs=CCM_TOL)
