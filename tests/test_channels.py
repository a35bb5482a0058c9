import numpy as np
import pytest

from qcorr import (
    DensityOperator,
    KrausChannel,
    amplitude_damping_channel,
    apply_channel_local,
    make_ghz,
    phase_damping_channel,
)
from qcorr.errors import InvalidSubset, InvariantViolation, OutOfRange
from qcorr.sampling import random_density, random_qubit_channel


def test_channel_certifies_trace_preservation():
    with pytest.raises(InvariantViolation):
        KrausChannel((np.eye(2) * 0.5,))
    with pytest.raises(InvariantViolation):
        KrausChannel(())
    with pytest.raises(InvariantViolation):
        KrausChannel((np.eye(3),))
    with pytest.raises(InvariantViolation):
        KrausChannel((np.array([[np.inf, 0.0], [0.0, 1.0]]),))
    KrausChannel((np.eye(2),))  # identity passes


def test_channels_compare_and_hash_by_identity():
    a, b = phase_damping_channel(0.1), phase_damping_channel(0.1)
    assert a == a and hash(a) == hash(a)
    assert a != b  # equal operators, two channels; comparing their arrays would raise
    assert len({a, b}) == 2


def test_damping_strength_ranges():
    for build in (phase_damping_channel, amplitude_damping_channel):
        with pytest.raises(OutOfRange):
            build(-0.1)
        with pytest.raises(OutOfRange):
            build(1.1)
        build(0.0)
        build(1.0)


def test_phase_damping_shrinks_coherence():
    plus = DensityOperator(np.full((2, 2), 0.5))
    out = apply_channel_local(plus, phase_damping_channel(0.36), 0b1)
    # populations untouched, off-diagonals scaled by sqrt(1 - p) = 0.8
    assert np.allclose(np.diag(out.matrix), [0.5, 0.5])
    assert out.matrix[0, 1] == pytest.approx(0.4)


def test_phase_damping_extremes():
    plus = DensityOperator(np.full((2, 2), 0.5))
    untouched = apply_channel_local(plus, phase_damping_channel(0.0), 0b1)
    assert np.allclose(untouched.matrix, plus.matrix)
    flattened = apply_channel_local(plus, phase_damping_channel(1.0), 0b1)
    assert np.allclose(flattened.matrix, np.eye(2) / 2)


def test_amplitude_damping_moves_population():
    mixed = DensityOperator(np.eye(2) / 2)
    out = apply_channel_local(mixed, amplitude_damping_channel(0.5), 0b1)
    assert np.allclose(out.matrix, np.diag([0.75, 0.25]))
    excited = DensityOperator(np.diag([0.0, 1.0]))
    drained = apply_channel_local(excited, amplitude_damping_channel(1.0), 0b1)
    assert np.allclose(drained.matrix, np.diag([1.0, 0.0]))


def test_apply_respects_mask():
    ghz = make_ghz(3)
    channel = phase_damping_channel(0.5)
    noop = apply_channel_local(ghz, channel, 0)
    assert noop is ghz
    one = apply_channel_local(ghz, channel, 0b001)
    # a single damped qubit already scales the GHZ coherence
    assert one.matrix[0, 7] == pytest.approx(0.5 * np.sqrt(0.5))
    both_orders = apply_channel_local(apply_channel_local(ghz, channel, 0b001), channel, 0b110)
    all_at_once = apply_channel_local(ghz, channel, 0b111)
    assert np.allclose(both_orders.matrix, all_at_once.matrix)
    with pytest.raises(InvalidSubset):
        apply_channel_local(ghz, channel, 0b1000)


def test_apply_preserves_trace_and_positivity(rng):
    rho = random_density(3, rng)
    for _ in range(5):
        channel = random_qubit_channel(rng)
        rho = apply_channel_local(rho, channel, 0b011)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho.matrix).min() > -1e-9


def test_damping_commutes_across_qubits():
    # channels acting on different qubits commute
    bell = make_ghz(2)
    ch_a = phase_damping_channel(0.3)
    ch_b = amplitude_damping_channel(0.6)
    ab = apply_channel_local(apply_channel_local(bell, ch_a, 0b01), ch_b, 0b10)
    ba = apply_channel_local(apply_channel_local(bell, ch_b, 0b10), ch_a, 0b01)
    assert np.allclose(ab.matrix, ba.matrix)
