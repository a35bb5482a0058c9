import json
import sys
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import (
    DensityOperator,
    DistanceUnit,
    ccm,
    ccm_many,
    ccm_naive,
    full_mask,
    ghz_closed_form,
    make_ghz,
    make_state_from_kets,
    tensor_product,
)
from qcorr.errors import BadArity, OutOfRange, TooLarge
from qcorr.sampling import random_density

BITS = DistanceUnit.BITS
NORM = DistanceUnit.NORMALIZED

# CCM of the n-qubit GHZ state in normalized units, n = 2..10.
GHZ_TABLE = {2: 1.0, 3: 2.5, 4: 5.0, 5: 10.0, 6: 19.0, 7: 36.5, 8: 70.0, 9: 137.0, 10: 268.0}


def dephased_ghz(n):
    dim = 1 << n
    m = np.zeros((dim, dim))
    m[0, 0] = m[dim - 1, dim - 1] = 0.5
    return DensityOperator(m)


# --- closed form -------------------------------------------------------------


def test_closed_form_table_is_exact():
    for n, want in GHZ_TABLE.items():
        assert ghz_closed_form(n) == want


def test_closed_form_arguments():
    with pytest.raises(BadArity):
        ghz_closed_form(1)
    with pytest.raises(OutOfRange):
        ghz_closed_form(4, d=-0.25)


def test_closed_form_without_subblock_distance():
    # d = 0 kills every recursive term, leaving only the top-level split
    for n in range(2, 12):
        assert ghz_closed_form(n, d=0.0) == float(1 << (n - 2))


@given(n=st.integers(2, 10), numer=st.integers(0, 64), denom_pow=st.integers(0, 6))
@settings(deadline=None)
def test_closed_form_affine_in_subblock_distance(n, numer, denom_pow):
    # The recursion multiplies d by constants and adds, so the value is an
    # affine function of d; dyadic inputs make the check exact.
    d = Fraction(numer, 1 << denom_pow)
    at_zero = Fraction(ghz_closed_form(n, 0.0))
    slope = Fraction(ghz_closed_form(n, 1.0)) - at_zero
    assert Fraction(ghz_closed_form(n, float(d))) == at_zero + d * slope


# --- engine on known states --------------------------------------------------


ONE_QUBIT = {  # the three forms a one-qubit state takes, and a pure state from kets
    "dense": lambda: DensityOperator(np.diag([0.7, 0.3])),
    "kept": lambda: DensityOperator(np.diag([0.7, 0.3]), check_psd=True),
    "factor": lambda: DensityOperator.from_factor(np.array([[0.6], [0.8j]])),
    "pure": lambda: make_state_from_kets([(0, 0.6), (1, 0.8j)], 1),
}


@pytest.mark.parametrize("form", ONE_QUBIT)
def test_single_qubit_is_zero(form):
    rho = ONE_QUBIT[form]()
    if form == "kept":
        assert rho.spectrum is not None
    report = ccm(rho)
    assert report.to_dict() == {"value": 0.0, "unit": "normalized", "tree": None}
    assert ccm_many([rho, rho])[1].to_dict() == report.to_dict()


def test_bell_pair():
    bell = make_ghz(2)
    assert ccm(bell).value == pytest.approx(1.0, abs=1e-12)
    assert ccm(bell, BITS).value == pytest.approx(2.0, abs=1e-12)
    root = ccm(bell).tree
    assert (root.subset, root.mask_a, root.mask_b) == (0b11, 0b01, 0b10)
    assert root.distance_term == pytest.approx(1.0, abs=1e-12)
    assert root.left is None and root.right is None


def test_worked_pure_states():
    bell = make_ghz(2)
    two_pairs = tensor_product(bell, bell)
    assert ccm(two_pairs).value == pytest.approx(2.0, abs=1e-9)
    half_lit = make_state_from_kets([(0, 1), (14, 1)], 4)  # (|0000>+|1110>)/sqrt2
    assert ccm(half_lit).value == pytest.approx(2.5, abs=1e-9)
    assert ccm(make_ghz(4)).value == pytest.approx(5.0, abs=1e-9)


def test_ghz4_minimizing_tree():
    root = ccm(make_ghz(4)).tree
    assert root.subset == 0b1111
    # the even split wins; the tie over which pair joins qubit 0 resolves low
    assert (root.mask_a, root.mask_b) == (0b0011, 0b1100)
    assert root.distance_term == pytest.approx(4.0, abs=1e-9)
    for child in (root.left, root.right):
        assert child.value == pytest.approx(0.5, abs=1e-9)
        assert child.left is None and child.right is None


def test_value_is_the_minimum_within_a_tie(monkeypatch):
    """Two cuts of a 3-qubit table 0.9 of a tie apart: the value is the lower
    cost, and the tree keeps the smaller A with that value."""
    module = sys.modules["qcorr.ccm"]  # `qcorr.ccm` is the re-exported function
    eps = 0.9 * module.TIE_BITS * 2  # the tie of a 3-qubit subset is TIE_BITS * 2^(3-2)
    table = [0.0, 1.0, 1.0, 1.0 - eps, 1.0, 1.0, 1.0, 1.0]  # S({0, 1}) lowered by eps
    monkeypatch.setattr(module, "subset_entropies_many", lambda states: [table for _ in states])
    report = ccm(make_ghz(3), BITS)
    # A = {0}: 2 * 1 + 0 + 1 = 3.  A = {0, 1}: 2 * (1 - eps) + (1 + eps) + 0 = 3 - eps.
    want = 2.0 * (table[3] + table[4] - table[7]) + (table[1] + table[2] - table[3])
    assert want < 3.0
    assert report.value == want
    assert report.tree.mask_a == 0b001  # cost 3.0, within the tie of the value
    assert report.tree.value == want
    assert report.tree.distance_term == 2.0


def test_dp_matches_closed_form():
    for n in range(2, 7):
        got = ccm(make_ghz(n)).value
        assert got == pytest.approx(GHZ_TABLE[n], abs=1e-9)


def test_classical_ghz_mixtures():
    assert ccm(dephased_ghz(3)).value == pytest.approx(1.5, abs=1e-9)
    assert ccm(dephased_ghz(4)).value == pytest.approx(3.0, abs=1e-9)


def test_product_state_has_zero_measure(rng):
    from qcorr.sampling import random_product_density

    rho = random_product_density(3, rng)
    assert ccm(rho).value == pytest.approx(0.0, abs=1e-9)


# --- DP vs naive -------------------------------------------------------------


def test_dp_matches_naive_on_corpus(corpus):
    for name, rho in corpus:
        if rho.num_qubits > 4:
            continue
        dp = ccm(rho).value
        naive = ccm_naive(rho)
        assert dp == pytest.approx(naive, abs=1e-9), name


def test_dp_matches_naive_on_random_mixtures(rng):
    for n in (2, 3, 4):
        for _ in range(3):
            rho = random_density(n, rng)
            assert ccm(rho).value == pytest.approx(ccm_naive(rho), abs=1e-9)


# --- report structure --------------------------------------------------------


def _walk(node, seen):
    seen.append(node)
    expected_children = 0.0
    for child, mask in ((node.left, node.mask_a), (node.right, node.mask_b)):
        if child is not None:
            assert child.subset == mask
            expected_children += child.value
            _walk(child, seen)
        else:
            assert mask & (mask - 1) == 0  # leaf blocks are single qubits
    assert node.mask_a | node.mask_b == node.subset
    assert node.mask_a & node.mask_b == 0
    assert node.mask_a & -node.mask_a == node.subset & -node.subset
    assert node.value == pytest.approx(node.distance_term + expected_children, abs=1e-12)


def test_tree_is_consistent(rng):
    rho = random_density(4, rng)
    report = ccm(rho)
    assert report.tree.subset == full_mask(4)
    assert report.tree.value == pytest.approx(report.value, abs=1e-12)
    seen = []
    _walk(report.tree, seen)
    assert len(seen) >= 3  # root plus at least one split per side on 4 qubits


def test_report_serializes(rng):
    report = ccm(random_density(2, rng))
    payload = json.loads(report.to_json())
    assert payload["unit"] == "normalized"
    assert payload["value"] == report.value
    assert payload["tree"]["subset"] == 0b11
    assert set(payload) == {"value", "unit", "tree"}


# --- units and pieces --------------------------------------------------------


def test_value_units_scale(rng):
    rho = random_density(3, rng)
    assert ccm(rho, BITS).value == pytest.approx(2.0 * ccm(rho, NORM).value, abs=1e-12)
    assert ccm_naive(rho, BITS) == pytest.approx(2.0 * ccm_naive(rho, NORM), abs=1e-12)


def test_size_guards():
    with pytest.raises(TooLarge):
        ccm(types.SimpleNamespace(num_qubits=15))
    with pytest.raises(TooLarge):
        ccm_naive(types.SimpleNamespace(num_qubits=7))
