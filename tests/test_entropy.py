import math

import numpy as np
import pytest

from qcorr import (
    DensityOperator,
    DistanceUnit,
    make_ghz,
    multi_information,
    mutual_information,
    partial_trace,
    relative_entropy,
    tensor_product,
    von_neumann_entropy,
)
from qcorr.errors import DimensionMismatch, InvalidBipartition, OutOfRange
from qcorr.sampling import haar_unitary, random_density, random_pure_state

BITS = DistanceUnit.BITS
NORM = DistanceUnit.NORMALIZED


def test_unit_factors():
    assert BITS.factor == 1.0
    assert NORM.factor == 0.5


def test_von_neumann_known_values():
    assert von_neumann_entropy(DensityOperator(np.diag([1.0, 0.0]))) == 0.0
    assert von_neumann_entropy(DensityOperator(np.eye(2) / 2)) == pytest.approx(1.0, abs=1e-14)
    assert von_neumann_entropy(DensityOperator(np.eye(4) / 4)) == pytest.approx(2.0, abs=1e-14)
    skew = DensityOperator(np.diag([0.75, 0.25]))
    assert von_neumann_entropy(skew) == pytest.approx(0.8112781244591328, abs=1e-15)


def test_von_neumann_pure_states_clamp_to_zero(rng):
    for n in (1, 2, 3):
        s = von_neumann_entropy(random_pure_state(n, rng))
        assert 0.0 <= s < 1e-10


def test_von_neumann_basis_independent(rng):
    rho = random_density(2, rng)
    u = haar_unitary(4, rng)
    rotated = DensityOperator(u @ rho.matrix @ u.conj().T)
    assert von_neumann_entropy(rotated) == pytest.approx(von_neumann_entropy(rho), abs=1e-12)


def test_relative_entropy_known_value():
    ground = DensityOperator(np.diag([1.0, 0.0]))
    maximally_mixed = DensityOperator(np.eye(2) / 2)
    assert relative_entropy(ground, maximally_mixed, BITS) == pytest.approx(1.0, abs=1e-12)
    assert relative_entropy(ground, maximally_mixed) == pytest.approx(0.5, abs=1e-12)


def test_relative_entropy_self_is_zero(rng):
    rho = random_density(2, rng)
    assert relative_entropy(rho, rho, BITS) == pytest.approx(0.0, abs=1e-10)


def test_relative_entropy_infinite_outside_support():
    ground = DensityOperator(np.diag([1.0, 0.0]))
    mixed = DensityOperator(np.eye(2) / 2)
    assert relative_entropy(mixed, ground, BITS) == math.inf


def test_relative_entropy_dimension_check(rng):
    with pytest.raises(DimensionMismatch):
        relative_entropy(random_density(1, rng), random_density(2, rng))


def test_relative_entropy_nonnegative(rng):
    for _ in range(20):
        a, b = random_density(2, rng), random_density(2, rng)
        assert relative_entropy(a, b, BITS) >= 0.0


def test_mutual_information_bell():
    bell = make_ghz(2)
    assert mutual_information(bell, 0b01, BITS) == pytest.approx(2.0, abs=1e-12)
    assert mutual_information(bell, 0b01) == pytest.approx(1.0, abs=1e-12)
    # symmetric in the two blocks
    assert mutual_information(bell, 0b10) == pytest.approx(mutual_information(bell, 0b01))


def test_mutual_information_product_is_zero(rng):
    joint = tensor_product(random_density(1, rng), random_density(2, rng))
    assert mutual_information(joint, 0b001, BITS) == pytest.approx(0.0, abs=1e-10)
    assert mutual_information(joint, 0b001, BITS) >= 0.0


def test_mutual_information_matches_relative_entropy(rng):
    # On full-rank states, I(A:B) and S(rho || rho_A x rho_B) agree; the
    # entropy form is just the numerically safe route to the same number.
    # Blocks here are leading prefixes so the product keeps the labeling.
    for _ in range(10):
        rho = random_density(3, rng)
        for part_a in (0b001, 0b011):
            marginals = tensor_product(
                partial_trace(rho, part_a), partial_trace(rho, 0b111 ^ part_a)
            )
            via_entropy = mutual_information(rho, part_a, BITS)
            via_divergence = relative_entropy(rho, marginals, BITS)
            assert via_entropy == pytest.approx(via_divergence, abs=1e-7)


def test_mutual_information_rejects_trivial_blocks():
    bell = make_ghz(2)
    with pytest.raises(InvalidBipartition):
        mutual_information(bell, 0)
    with pytest.raises(InvalidBipartition):
        mutual_information(bell, 0b11)


def test_multi_information_ghz_and_classical():
    for n in (2, 3, 4):
        ghz = make_ghz(n)
        assert multi_information(ghz, BITS) == pytest.approx(float(n), abs=1e-12)
    # dephasing the GHZ coherence removes exactly one bit of correlation
    dephased = np.zeros((8, 8))
    dephased[0, 0] = dephased[7, 7] = 0.5
    assert multi_information(DensityOperator(dephased), BITS) == pytest.approx(2.0, abs=1e-12)


def test_multi_information_rejects_single_qubit(rng):
    with pytest.raises(OutOfRange):
        multi_information(random_density(1, rng))


def test_bits_are_twice_normalized(rng):
    rho = random_density(3, rng)
    assert mutual_information(rho, 0b001, BITS) == pytest.approx(
        2.0 * mutual_information(rho, 0b001, NORM), abs=1e-14)
    assert multi_information(rho, BITS) == pytest.approx(
        2.0 * multi_information(rho, NORM), abs=1e-14)
