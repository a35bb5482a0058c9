"""Every public maker of a state against every public function that takes one.

A pure state is a `DensityOperator` whose factor is its amplitude column, so
every function takes what every maker returns.  Each result is compared with
the same function on the one-block copy of the state's matrix.
"""

import math

import numpy as np
import pytest

from qcorr import (
    DensityOperator,
    apply_channel_local,
    apply_local_unitary,
    ccm,
    ccm_naive,
    chain_terms,
    full_mask,
    ground_state,
    make_ghz,
    make_state_from_kets,
    multi_information,
    mutual_information,
    partial_trace,
    phase_damping_channel,
    read_qs1,
    relative_entropy,
    tensor_product,
    von_neumann_entropy,
    write_qs1,
    xxz_ring,
)
from qcorr.errors import ParseError
from qcorr.sampling import random_density, random_local_unitaries

from dense_reference import one_block

N = 4
MATRIX_ATOL = 1e-14
ENTROPY_ATOL = 1e-10
CCM_ATOL = 1e-9


def qs1_file(path, kind, values):
    """A qs1 file written line by line, without `write_qs1`."""
    n = (values.size.bit_length() - 1) // (1 if kind == "pure" else 2)
    lines = [f"qs1 {kind} {n}"] + [f"{z.real!r} {z.imag!r}" for z in values.reshape(-1).tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def pure_file(tmp_path, rng):
    v = ginibre(rng, 1 << N, 1)
    return read_qs1(qs1_file(tmp_path / "pure.qs1", "pure", v / np.linalg.norm(v)))


def mixed_file(tmp_path, rng, rank):
    a = ginibre(rng, 1 << N, rank)
    m = a @ a.conj().T
    return read_qs1(qs1_file(tmp_path / f"rank{rank}.qs1", "mixed", m / np.trace(m).real))


def xxz_ground():
    return ground_state(chain_terms(xxz_ring(N, 0.5)))


# A squared norm 1 + 5e-11 is within the library's 1e-10 trace tolerance but
# past a pure file's 1e-12, so these rank-one states are written as mixed files.
OFF_NORM = 1.0 + 5e-11


def off_norm_factor(tmp_path, rng):
    return DensityOperator.from_factor(make_ghz(N).factor * math.sqrt(OFF_NORM))


def off_norm_mixed_file(tmp_path, rng):
    v = make_ghz(N).factor
    return read_qs1(qs1_file(tmp_path / "off_norm.qs1", "mixed", OFF_NORM * (v @ v.conj().T)))


MAKERS = {
    "make_ghz": lambda tmp_path, rng: make_ghz(N),
    "make_state_from_kets": lambda tmp_path, rng: make_state_from_kets([(0, 1), (5, 1j), (14, 0.5)], N),
    "pure_file": pure_file,
    "mixed_file_rank2": lambda tmp_path, rng: mixed_file(tmp_path, rng, 2),
    "mixed_file_full": lambda tmp_path, rng: mixed_file(tmp_path, rng, 1 << N),
    "ground_state": lambda tmp_path, rng: xxz_ground(),
    "damped_blocks": lambda tmp_path, rng: apply_channel_local(
        xxz_ground(), phase_damping_channel(0.3), full_mask(N)),
    "random_density": lambda tmp_path, rng: random_density(N, rng),
    "off_norm_factor": off_norm_factor,
    "off_norm_mixed_file": off_norm_mixed_file,
}

# The makers whose states `write_qs1` writes as pure files.
WRITTEN_PURE = {"make_ghz", "make_state_from_kets", "pure_file", "ground_state"}


@pytest.fixture(params=list(MAKERS))
def made(request, tmp_path, rng):
    state = MAKERS[request.param](tmp_path, rng)
    return request.param, state, one_block(state.matrix.copy())


def test_the_makers_give_every_form(made):
    name, state, _ = made
    assert isinstance(state, DensityOperator) and state.num_qubits == N
    if name in ("make_ghz", "make_state_from_kets", "pure_file"):
        assert state.factor.shape == (1 << N, 1) and state.factor.dtype == np.complex128
    elif name == "mixed_file_rank2":
        assert state.factor.shape == (1 << N, 2)
    elif name in ("off_norm_factor", "off_norm_mixed_file"):  # certified of rank one
        assert state.factor.shape == (1 << N, 1)
    elif name == "mixed_file_full":
        assert state.factor is None and state.spectrum is not None
    elif name == "damped_blocks":
        assert state.factor is None and state.blocks is not None


def test_partial_trace(made):
    _, state, ref = made
    for keep in (0b0001, 0b0110, 0b1011, full_mask(N)):
        got = partial_trace(state, keep).matrix
        assert np.allclose(got, partial_trace(ref, keep).matrix, rtol=0, atol=MATRIX_ATOL)


def test_tensor_product(made):
    _, state, ref = made
    plus = make_ghz(1)
    assert np.allclose(tensor_product(state, plus).matrix, np.kron(ref.matrix, plus.matrix),
                       rtol=0, atol=MATRIX_ATOL)
    assert np.allclose(tensor_product(plus, state).matrix, np.kron(plus.matrix, ref.matrix),
                       rtol=0, atol=MATRIX_ATOL)


def test_apply_channel_local(made):
    _, state, ref = made
    channel = phase_damping_channel(0.4)
    for qubits in (0b0101, full_mask(N)):
        got = apply_channel_local(state, channel, qubits).matrix
        assert np.allclose(got, apply_channel_local(ref, channel, qubits).matrix, rtol=0, atol=MATRIX_ATOL)


def test_apply_local_unitary(made, rng):
    _, state, ref = made
    factors = random_local_unitaries(N, rng)
    got = apply_local_unitary(state, factors).matrix
    assert np.allclose(got, apply_local_unitary(ref, factors).matrix, rtol=0, atol=MATRIX_ATOL)


def test_von_neumann_entropy(made):
    _, state, ref = made
    assert von_neumann_entropy(state) == pytest.approx(von_neumann_entropy(ref), abs=ENTROPY_ATOL)


def test_relative_entropy(made):
    _, state, ref = made
    mixed = DensityOperator(np.eye(1 << N) / (1 << N))
    # S(rho || I/d) = n tr(rho) - S(rho) bits, reported in normalized units.
    want = 0.5 * (N * np.trace(ref.matrix).real - von_neumann_entropy(ref))
    assert relative_entropy(state, mixed) == pytest.approx(want, abs=ENTROPY_ATOL)
    assert relative_entropy(state, state) == pytest.approx(0.0, abs=ENTROPY_ATOL)
    assert relative_entropy(ref, state) == pytest.approx(0.0, abs=ENTROPY_ATOL)


def test_mutual_information(made):
    _, state, ref = made
    for part_a in (0b0001, 0b0011, 0b0110):
        assert mutual_information(state, part_a) == pytest.approx(
            mutual_information(ref, part_a), abs=ENTROPY_ATOL)


def test_multi_information(made):
    _, state, ref = made
    assert multi_information(state) == pytest.approx(multi_information(ref), abs=ENTROPY_ATOL)


def test_ccm(made):
    _, state, ref = made
    assert ccm(state).value == pytest.approx(ccm(ref).value, abs=CCM_ATOL)


def test_ccm_naive(made):
    _, state, _ = made
    assert ccm_naive(state) == pytest.approx(ccm(state).value, abs=CCM_ATOL)


def test_qs1_round_trip(made, tmp_path):
    name, state, _ = made
    path = tmp_path / "back.qs1"
    write_qs1(path, state)
    back = read_qs1(path)
    pure = name in WRITTEN_PURE
    assert path.read_text(encoding="ascii").split("\n", 1)[0] == f"qs1 {'pure' if pure else 'mixed'} {N}"
    if pure:  # the amplitude values, read back as complex
        assert np.array_equal(back.factor, state.factor.astype(complex))
    else:
        assert np.array_equal(back.matrix, state.matrix)
    assert ccm(back).value == pytest.approx(ccm(state).value, abs=CCM_ATOL)
    assert multi_information(back) == pytest.approx(multi_information(state), abs=ENTROPY_ATOL)


@pytest.mark.parametrize("excess,accepted", [(5e-12, False), (5e-13, True)])
def test_pure_file_norm_boundary(tmp_path, excess, accepted):
    # A pure file's squared norm must be 1 within 1e-12, a tighter bound than
    # the 1e-10 trace tolerance of a factor built in the library.
    values = np.array([math.sqrt(1.0 + excess), 0.0], dtype=complex)
    path = qs1_file(tmp_path / "edge.qs1", "pure", values)
    norm_sq = float(np.vdot(values, values).real)
    if accepted:
        assert read_qs1(path).factor.shape == (2, 1)
        return
    with pytest.raises(ParseError) as exc:
        read_qs1(path)
    assert str(exc.value) == (f"state file violates state invariants: squared norm {norm_sq!r} "
                              "differs from 1 by more than 1e-12")
