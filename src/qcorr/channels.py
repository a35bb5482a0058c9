"""Single-qubit Kraus channels and their local application to registers.

A channel acts on each chosen qubit through its 4x4 superoperator S = sum_k
E_k (x) E_k^* (`linalg.superoperator`, built once with the channel), applied
by `states.apply_local_superoperators`.  On blocks, S's diagonal scales each
qubit's entries through one array per (register size, qubit), which the
channel keeps when it holds at most `states.BLOCK_ENTRIES` entries (N <= 9,
`KrausChannel._scale`), so a sweep that damps many states makes it once and
then pays one multiply per qubit and state.  A state in popcount-block form (a
ring ground state, say, whose factor columns each lie in one popcount
sector) stays in it, and its 2^n x 2^n matrix is never formed, under every
channel whose S keeps row and column popcounts together.  The two built-in
channels do: phase damping scales the entries of each block, and amplitude
damping also feeds block k + 1 into block k.  A `KrausChannel` built by hand
takes the same route when its S qualifies (depolarizing noise, which is not
built in, does and feeds both ways).  A Kraus set whose S moves them apart
(a bit flip, say), or a state without blocks, goes through the dense kernel
`linalg.apply_superoperators`.  The output is not validated again: S maps
Hermitian matrices to Hermitian ones, and construction certified that the
channel keeps the trace.  Nor is its qubit symmetry tested again when the
channel acts on every qubit: it takes the input's generators, and, under a
channel that commutes with the spin flip (phase damping), the input's flip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import _flips_by_at_most_cutoff, qubit_symmetry
from .errors import InvariantViolation, OutOfRange
from .linalg import superoperator
from .states import (
    BLOCK_ENTRIES,
    DensityOperator,
    apply_local_superoperators,
    check_subset,
    full_mask,
    _qubit_scale,
    subset_qubits,
)

TP_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A qubit channel rho -> sum_i E_i rho E_i^dagger.

    Construction certifies trace preservation: sum_i E_i^dagger E_i = I
    within 1e-10, and builds the channel's superoperator once, read-only.
    Channels compare, and hash, by identity: their operators are arrays.
    """

    operators: tuple[np.ndarray, ...]
    _superoperator: np.ndarray = field(init=False, repr=False)
    _scales: dict = field(default_factory=dict, init=False, repr=False)

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
        s = superoperator(ops)
        s.flags.writeable = False
        object.__setattr__(self, "_superoperator", s)

    def _scale(self, num_qubits: int, q: int) -> np.ndarray | None:
        """The array by which this channel scales the flat block array of an
        n-qubit state on qubit q (`states._qubit_scale`), kept for the next
        state; None past BLOCK_ENTRIES entries (N >= 10), where the kernel
        gathers it a piece at a time instead."""
        if math.comb(2 * num_qubits, num_qubits) > BLOCK_ENTRIES:
            return None
        key = (num_qubits, q)
        if key not in self._scales:
            self._scales[key] = _qubit_scale(self._superoperator, num_qubits, q)
        return self._scales[key]


def phase_damping_channel(p: float) -> KrausChannel:
    """Diagonal damping pair: E0 = diag(1, sqrt(1-p)), E1 = diag(0, sqrt(p)).

    Decays the off-diagonal coherence of a qubit by sqrt(1-p) while leaving
    populations untouched.
    """
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"damping strength must lie in [0, 1], got {p!r}")
    e0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=complex)
    e1 = np.array([[0.0, 0.0], [0.0, math.sqrt(p)]], dtype=complex)
    return KrausChannel((e0, e1))


def amplitude_damping_channel(p: float) -> KrausChannel:
    """Dissipative damping: E0 = diag(1, sqrt(1-p)), E1 = sqrt(p) |0><1|."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"damping strength must lie in [0, 1], got {p!r}")
    e0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=complex)
    e1 = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((e0, e1))


def apply_channel_local(rho: DensityOperator, channel: KrausChannel, qubits: int) -> DensityOperator:
    """Apply `channel` independently to every qubit in the mask `qubits`.

    The channel acts through the superoperator built with it (see
    `linalg.superoperator`), which stays real for real Kraus operators, so a
    real state stays real, and block by block on a state with popcount
    blocks when it keeps them (see the module docstring).  On the whole
    register the output carries `rho`'s `qubit_symmetry` generators, and,
    when the channel commutes with the spin flip X^n and the output has
    popcount blocks, `rho`'s spin-flip test (`_flips_by_at_most_cutoff`).  An
    exact identity channel (damping strength 0) returns `rho` itself, factor
    included.
    """
    n = rho.num_qubits
    check_subset(qubits, n, allow_empty=True)
    s = channel._superoperator
    if qubits == 0 or np.array_equal(s, np.eye(4)):
        return rho
    out = apply_local_superoperators(rho, [(q, s) for q in subset_qubits(qubits)], lambda q: channel._scale(n, q))
    if qubits == full_mask(n):
        # The same channel on every qubit commutes with qubit permutations
        # and contracts the trace norm, so every permutation moves the
        # output by at most what it moves `rho`: the output keeps `rho`'s
        # generators within their budget, and `rho` is tested at most once.
        out._qubit_symmetry = qubit_symmetry(rho)
        # The same holds for the spin flip X^n when S equals P S P, P the
        # swap (0, 0) <-> (1, 1), (0, 1) <-> (1, 0) of a qubit's (row,
        # column) pairs that X makes, up to the unit round-off eps of S's
        # entries (phase damping's S[3, 3] = (1 - p) + p misses 1 by up to
        # eps at some p): the channel is then within 8 eps per qubit, in the
        # trace norm, of one that commutes with X^n, so the flip moves the
        # output by at most what it moves `rho` plus 16 n eps, under
        # 1e-13 at n = 14.  Amplitude damping moves |1> to |0> and keeps
        # the test.
        if out.blocks is not None and np.abs(s[::-1, ::-1] - s).max() <= np.finfo(float).eps:
            out._spin_flip = _flips_by_at_most_cutoff(rho)
    return out
