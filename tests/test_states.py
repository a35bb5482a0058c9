import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcorr import (
    DensityOperator,
    apply_local_unitary,
    full_mask,
    hermitian_eigensystem,
    make_ghz,
    make_state_from_kets,
    partial_trace,
    read_qs1,
    subset_qubits,
    tensor_product,
    write_qs1,
)
from qcorr.errors import (
    DimensionMismatch,
    EmptySubset,
    IndexOutOfRange,
    InvalidSubset,
    InvariantViolation,
    NotHermitian,
    NotUnitary,
    OutOfRange,
    ParseError,
    TooLarge,
    ZeroVector,
)
from qcorr.sampling import haar_unitary, random_density

I2 = np.eye(2) / 2


def ket_density(index, n):
    return make_state_from_kets([(index, 1)], n)


# --- eigensystem -----------------------------------------------------------


def test_eigensystem_pauli_z():
    vals, vecs = hermitian_eigensystem(np.diag([1.0, -1.0]))
    assert np.allclose(vals, [-1.0, 1.0])  # ascending
    assert np.allclose(np.abs(vecs[:, 0]), [0.0, 1.0])


def test_eigensystem_reconstructs_random_hermitian(rng):
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m = a + a.conj().T
    vals, vecs = hermitian_eigensystem(m)
    rebuilt = (vecs * vals) @ vecs.conj().T
    assert np.abs(rebuilt - m).max() <= 1e-8 * np.abs(m).max()
    assert np.all(np.diff(vals) >= 0)


def test_eigensystem_keeps_real_input_real():
    vals, vecs = hermitian_eigensystem(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert vecs.dtype == np.float64
    assert np.allclose(vals, [1.0, 3.0])


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        hermitian_eigensystem(np.ones((2, 3)))


# --- carriers --------------------------------------------------------------


def test_pure_state_requires_unit_norm():
    # A state vector built in the library is held to the factor's trace
    # tolerance; `test_pure_file_norm_boundary` pins the file's.
    with pytest.raises(InvariantViolation):
        DensityOperator.from_factor(np.array([[1.0], [1.0]]))
    with pytest.raises(InvariantViolation):
        DensityOperator.from_factor(np.array([[np.nan], [0.0]]))
    with pytest.raises(InvariantViolation):
        DensityOperator.from_factor(np.array([[math.sqrt(1 + 5e-10)], [0.0]]))
    assert DensityOperator.from_factor(np.array([[math.sqrt(1 + 5e-11)], [0.0]])).num_qubits == 1


def test_density_operator_invariants():
    with pytest.raises(InvariantViolation):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(InvariantViolation):
        DensityOperator(np.eye(2))  # trace 2
    # indefinite but unit trace: accepted unless positivity is requested
    m = np.diag([1.5, -0.5])
    DensityOperator(m)
    with pytest.raises(InvariantViolation):
        DensityOperator(m, check_psd=True)
    with pytest.raises(DimensionMismatch):
        DensityOperator(np.eye(3) / 3)  # not a qubit register


# --- tensor product and partial trace --------------------------------------


def test_tensor_product_places_first_factor_high():
    joint = tensor_product(ket_density(0, 1), ket_density(1, 1))
    expect = np.zeros((4, 4))
    expect[1, 1] = 1.0  # |01> with qubit 0 most significant
    assert np.allclose(joint.matrix, expect)


def test_tensor_product_trace_multiplicative(rng):
    a, b = random_density(1, rng), random_density(2, rng)
    joint = tensor_product(a, b)
    assert joint.num_qubits == 3
    assert abs(np.trace(joint.matrix) - 1.0) < 1e-12


def test_partial_trace_bell_marginals():
    bell = make_ghz(2)
    for mask in (0b01, 0b10):
        assert np.allclose(partial_trace(bell, mask).matrix, I2)


def test_partial_trace_recovers_product_factors(rng):
    a, b = random_density(1, rng), random_density(1, rng)
    joint = tensor_product(a, b)
    assert np.allclose(partial_trace(joint, 0b01).matrix, a.matrix)  # qubit 0 = first factor
    assert np.allclose(partial_trace(joint, 0b10).matrix, b.matrix)


def test_partial_trace_ghz_pair_is_dephased():
    ghz = make_ghz(4)
    pair = partial_trace(ghz, 0b0011)
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[3, 3] = 0.5
    assert np.allclose(pair.matrix, expect)


def test_partial_trace_errors():
    bell = make_ghz(2)
    with pytest.raises(EmptySubset):
        partial_trace(bell, 0)
    with pytest.raises(InvalidSubset):
        partial_trace(bell, 0b100)


_NEST_RHO = random_density(4, np.random.default_rng(77))


@given(outer=st.integers(1, 15), inner=st.integers(1, 15))
@settings(deadline=None, max_examples=60)
def test_partial_trace_nests(outer, inner):
    """Tracing down in two hops equals one hop, for inner subsets of outer."""
    assume(inner & outer == inner)
    first = partial_trace(_NEST_RHO, outer)
    kept = subset_qubits(outer)
    relabeled = 0
    for pos, q in enumerate(kept):
        if (inner >> q) & 1:
            relabeled |= 1 << pos
    two_hop = partial_trace(first, relabeled)
    one_hop = partial_trace(_NEST_RHO, inner)
    assert np.abs(two_hop.matrix - one_hop.matrix).max() < 1e-12


# --- local unitaries --------------------------------------------------------


def test_local_unitary_flips_qubit():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    flipped = apply_local_unitary(ket_density(0, 2), [x, np.eye(2)])
    assert np.allclose(flipped.matrix, ket_density(2, 2).matrix)  # |00> -> |10>


def test_local_unitary_preserves_spectrum(rng):
    rho = random_density(3, rng)
    rotated = apply_local_unitary(rho, [haar_unitary(2, rng) for _ in range(3)])
    assert np.allclose(np.linalg.eigvalsh(rotated.matrix), np.linalg.eigvalsh(rho.matrix))


def test_local_unitary_errors():
    bell = make_ghz(2)
    with pytest.raises(NotUnitary):
        apply_local_unitary(bell, [np.eye(2), np.ones((2, 2))])
    with pytest.raises(DimensionMismatch):
        apply_local_unitary(bell, [np.eye(2)])


# --- constructors and bit convention ----------------------------------------


def test_qubit_zero_is_most_significant():
    # |101> is basis index 5: qubit 0 reads 1, qubit 1 reads 0, qubit 2 reads 1
    rho = ket_density(5, 3)
    assert np.allclose(partial_trace(rho, 0b001).matrix, np.diag([0.0, 1.0]))
    assert np.allclose(partial_trace(rho, 0b010).matrix, np.diag([1.0, 0.0]))
    assert np.allclose(partial_trace(rho, 0b100).matrix, np.diag([0.0, 1.0]))


def test_make_ghz_amplitudes():
    s = make_ghz(2)
    assert s.factor.shape == (4, 1) and s.factor.dtype == np.complex128
    assert np.allclose(s.factor[:, 0], [math.sqrt(0.5), 0.0, 0.0, math.sqrt(0.5)])
    with pytest.raises(OutOfRange):
        make_ghz(0)


def test_make_state_from_kets_accumulates_and_normalizes():
    s = make_state_from_kets([(0, 1), (0, 1), (3, 2)], 2)
    assert np.allclose(s.factor[:, 0], [2 / math.sqrt(8), 0, 0, 2 / math.sqrt(8)])


def test_make_state_from_kets_errors():
    with pytest.raises(IndexOutOfRange):
        make_state_from_kets([(4, 1)], 2)
    with pytest.raises(ZeroVector):
        make_state_from_kets([(1, 1), (1, -1)], 2)


# --- qs1 files ---------------------------------------------------------------


def test_qs1_roundtrip_pure(tmp_path):
    path = tmp_path / "ghz.qs1"
    write_qs1(path, make_ghz(3))
    back = read_qs1(path)
    assert back.factor.shape == (8, 1)
    assert np.array_equal(back.factor, make_ghz(3).factor)


def test_qs1_roundtrip_mixed(tmp_path, rng):
    rho = random_density(2, rng)
    path = tmp_path / "mixed.qs1"
    write_qs1(path, rho)
    back = read_qs1(path)
    assert isinstance(back, DensityOperator)
    assert np.array_equal(back.matrix, rho.matrix)


@given(st.lists(st.floats(-1, 1, allow_nan=False, allow_infinity=False, width=32),
                min_size=8, max_size=8))
@settings(deadline=None, max_examples=40)
def test_qs1_roundtrip_arbitrary_amplitudes(tmp_path_factory, raw):
    v = np.array(raw[:4]) + 1j * np.array(raw[4:])
    norm = np.linalg.norm(v)
    assume(norm > 1e-3)
    state = DensityOperator.from_factor((v / norm).reshape(-1, 1))
    path = tmp_path_factory.mktemp("qs1") / "state.qs1"
    write_qs1(path, state)
    assert np.array_equal(read_qs1(path).factor, state.factor)


def per_scalar_qs1(kind, n, values):
    """A qs1 file formatted one numpy scalar at a time, as `write_qs1` once did."""
    lines = [f"qs1 {kind} {n}"] + [f"{float(z.real)!r} {float(z.imag)!r}" for z in values.reshape(-1)]
    return ("\n".join(lines) + "\n").encode("ascii")


def edge_case_states(rng):
    """States whose entries hold -0.0, subnormals and values that need all 17
    significant digits: a pure state, a complex and a real mixed state."""
    parts = rng.standard_normal((8, 2))
    parts[0, 0], parts[1] = -0.0, (1e-310, -0.0)
    parts /= np.linalg.norm(parts)  # in real arithmetic, which keeps the signs of zeros
    pure = DensityOperator.from_factor(parts.view(complex))
    m = random_density(2, rng).matrix.copy()
    m[0, 1], m[1, 0] = complex(5e-324, -0.0), complex(5e-324, 0.0)
    real = np.diag([0.1, 0.2, 0.3, 0.4]) * (1.0 + 2.0 ** -52)
    real[0, 1] = real[1, 0] = -0.0
    real[2, 3] = real[3, 2] = 1e-310
    return [pure, DensityOperator(m), DensityOperator(real)]


def test_qs1_bytes_match_the_per_scalar_format(tmp_path, rng):
    for state in edge_case_states(rng):
        path = tmp_path / "state.qs1"
        write_qs1(path, state)
        if state.factor is not None:
            want = per_scalar_qs1("pure", state.num_qubits, state.factor[:, 0])
        else:
            want = per_scalar_qs1("mixed", state.num_qubits, state.matrix)
        assert path.read_bytes() == want
        assert b"-0.0" in want and b"e-3" in want


@pytest.mark.parametrize("text,error", [
    ("", ParseError),
    ("qs2 pure 1\n0 0\n1 0\n", ParseError),
    ("qs1 pure x\n0 0\n1 0\n", ParseError),
    ("qs1 pure 1\n1 0\n", ParseError),                      # missing a line
    ("qs1 pure 1\n1 0\n0 0\n0 0\n", ParseError),            # extra line
    ("qs1 pure 1\n1\n0 0\n", ParseError),                   # one token
    ("qs1 pure 1\n1 0\n\n", ParseError),                    # blank body line
    ("qs1 pure 1\n# 0\n1 0\n", ParseError),                 # comment-like line
    ("qs1 pure 1\n1 0 0\n0 0\n", ParseError),               # three fields
    ("qs1 pure 1\nnan 0\n0 0\n", ParseError),
    ("qs1 pure 1\ninf 0\n0 0\n", ParseError),
    ("qs1 pure 1\none 0\n0 0\n", ParseError),
    ("qs1 mixed 1\n0.9 0\n0.5 0\n0.5 0\n0.1 0\n", ParseError),   # not PSD
    ("qs1 pure 0\n", ParseError),
    ("qs1 mixed 13\n", TooLarge),
    ("qs1 pure 15\n", TooLarge),
    ("\ufeffqs1 pure 1\n1 0\n0 0\n", ParseError),          # a UTF-8 byte order mark
    ("qs1 pure 1\n1 0\n0 \u00e9\n", ParseError),             # a non-ASCII body line
])
def test_qs1_rejects_malformed_files(tmp_path, text, error):
    path = tmp_path / "bad.qs1"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error):
        read_qs1(path)


@pytest.mark.parametrize("body,message", [
    ("1 0\n\n", "line 3: expected '<re> <im>', got ''"),
    ("# 0\n1 0\n", "line 2: could not parse '# 0'"),
    ("1 0\n0 0 0\n", "line 3: expected '<re> <im>', got '0 0 0'"),
    ("1e999 0\n0 0\n", "line 2: non-finite entry '1e999 0'"),
    ("1 0\n0 -1e400\n", "line 3: non-finite entry '0 -1e400'"),
    ("1 0\r0 \u00e9\r", "line 3: non-ASCII byte 0xc3"),
])
def test_qs1_errors_name_the_line(tmp_path, body, message):
    path = tmp_path / "bad.qs1"
    path.write_text("qs1 pure 1\n" + body, encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        read_qs1(path)
    assert str(exc.value) == message


@pytest.mark.parametrize("body", [
    " 0.6  0\n0.8 -0.0\n",          # extra spaces
    "0.6\t0\n0.8 0\n",              # a tab
    "6_0e-2 0\r\n0.8 0\r\n",        # an underscore, CRLF line ends
    "+.6 0E0\n8e-1 -0\n",           # signs and exponents
    "0.6 0\n0.8 0",                  # no final newline
    "0.6 0\r0.8 0\r",               # lone '\r' line ends
    "0.6 0\r\n0.8 0\r",             # both kinds
])
def test_qs1_body_values_match_float(tmp_path, body):
    path = tmp_path / "odd.qs1"
    path.write_bytes(("qs1 pure 1\n" + body).encode("ascii"))
    want = [complex(*map(float, line.split())) for line in body.splitlines()]
    got = read_qs1(path).factor[:, 0]
    assert got.tobytes() == np.array(want, dtype=complex).tobytes()


def test_from_factor_keeps_the_factor(rng):
    v = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    v /= np.linalg.norm(v)
    rho = DensityOperator.from_factor(v)
    assert rho.num_qubits == 3
    assert np.array_equal(rho.factor, v)
    assert np.allclose(rho.matrix, v @ v.conj().T)
    assert DensityOperator(rho.matrix).factor is None
    assert make_ghz(2).factor.shape == (4, 1)


def test_from_factor_rejects_bad_factors():
    with pytest.raises(DimensionMismatch):
        DensityOperator.from_factor(np.ones(4) / 2)
    with pytest.raises(DimensionMismatch):
        DensityOperator.from_factor(np.ones((3, 1)) / math.sqrt(3))
    with pytest.raises(InvariantViolation):
        DensityOperator.from_factor(np.ones((4, 1)))
    with pytest.raises(InvariantViolation):
        DensityOperator.from_factor(np.array([[1.0], [np.nan]]))


def test_subset_helpers():
    assert full_mask(3) == 0b111
    assert subset_qubits(0b1011) == [0, 1, 3]
