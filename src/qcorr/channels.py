"""Single-qubit Kraus channels and their local application to registers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, OutOfRange
from .linalg import apply_superoperators, superoperator
from .states import DensityOperator, check_subset, subset_qubits

TP_ATOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """A qubit channel rho -> sum_i E_i rho E_i^dagger.

    Construction certifies trace preservation: sum_i E_i^dagger E_i = I
    within 1e-10.
    """

    operators: tuple[np.ndarray, ...]
    label: str = ""

    def __post_init__(self):
        ops = tuple(np.asarray(e, dtype=complex) for e in self.operators)
        if not ops:
            raise InvariantViolation("a channel needs at least one Kraus operator")
        for e in ops:
            if e.shape != (2, 2):
                raise InvariantViolation(f"Kraus operator has shape {e.shape}, expected (2, 2)")
            if not np.all(np.isfinite(e.view(float))):
                raise InvariantViolation("Kraus operator has non-finite entries")
        total = sum(e.conj().T @ e for e in ops)
        if np.abs(total - np.eye(2)).max() > TP_ATOL:
            raise InvariantViolation("channel is not trace preserving within 1e-10")
        object.__setattr__(self, "operators", ops)


def phase_damping_channel(p: float) -> KrausChannel:
    """Diagonal damping pair: E0 = diag(1, sqrt(1-p)), E1 = diag(0, sqrt(p)).

    Decays the off-diagonal coherence of a qubit by sqrt(1-p) while leaving
    populations untouched.
    """
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"damping strength must lie in [0, 1], got {p!r}")
    e0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=complex)
    e1 = np.array([[0.0, 0.0], [0.0, math.sqrt(p)]], dtype=complex)
    return KrausChannel((e0, e1), label="phase-damping")


def amplitude_damping_channel(p: float) -> KrausChannel:
    """Dissipative damping: E0 = diag(1, sqrt(1-p)), E1 = sqrt(p) |0><1|."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"damping strength must lie in [0, 1], got {p!r}")
    e0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=complex)
    e1 = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((e0, e1), label="amplitude-damping")


def apply_channel_local(rho: DensityOperator, channel: KrausChannel, qubits: int) -> DensityOperator:
    """Apply `channel` independently to every qubit in the mask `qubits`.

    The channel acts through its superoperator (see `linalg.superoperator`),
    which stays real for real Kraus operators, so a real state stays real.
    An exact identity channel (damping strength 0) returns `rho` itself,
    factor included.
    """
    n = rho.num_qubits
    check_subset(qubits, n, allow_empty=True)
    s = superoperator(channel.operators)
    if qubits == 0 or np.array_equal(s, np.eye(4)):
        return rho
    supers = [(q, s) for q in subset_qubits(qubits)]
    return DensityOperator(apply_superoperators(rho.matrix, n, supers))
