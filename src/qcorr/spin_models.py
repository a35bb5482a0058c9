"""Periodic spin-1/2 chains and ground-state extraction.

The generic chain Hamiltonian is

    H = - sum_{i=0}^{N-1} ( jx X_i X_{i+1} + jy Y_i Y_{i+1} + jz Z_i Z_{i+1} + h Z_i )

with site N identified with site 0.  Note that for N = 2 the periodic sum
visits the single physical bond twice, once per direction; this is kept
literal rather than special-cased.

Concrete chains:

* XXZ:            jx = jy = 1/2, jz = delta/2, h = 0
* transverse Ising: jx = 1, jy = jz = 0, h = lambda
* double XXZ:     two decoupled XXZ rings, H(delta) x I + I x H(lambda)
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, TooLarge
from .linalg import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, hermitian_eigensystem, kron_all
from .states import DensityOperator

MAX_CHAIN_SPINS = 14
MAX_DOUBLE_CHAIN_SPINS = 6  # per ring; the joint register holds twice this


@dataclass(frozen=True)
class SpinChainSpec:
    """Couplings of one periodic chain."""

    num_spins: int
    jx: float = 0.0
    jy: float = 0.0
    jz: float = 0.0
    h: float = 0.0
    periodic: bool = True

    def __post_init__(self):
        if self.num_spins < 2:
            raise OutOfRange(f"a chain needs at least 2 spins, got {self.num_spins}")
        for name in ("jx", "jy", "jz", "h"):
            if not math.isfinite(getattr(self, name)):
                raise OutOfRange(f"coupling {name} must be finite")
        if not self.periodic:
            raise OutOfRange("only periodic chains are supported")


class GroundStateMode(enum.Enum):
    SUBSPACE_MIXTURE = "subspace-mixture"
    FIRST_VECTOR = "first-vector"


@dataclass(frozen=True)
class GroundStatePolicy:
    """How to turn a (possibly degenerate) lowest eigenspace into a state.

    `subspace-mixture` returns the normalized projector onto every eigenvalue
    within `degeneracy_rtol * (spectral span)` of the minimum; `first-vector`
    keeps the first eigenvector, with its global phase fixed by making the
    largest-magnitude amplitude real and positive.
    """

    mode: GroundStateMode = GroundStateMode.SUBSPACE_MIXTURE
    degeneracy_rtol: float = 1e-9

    def __post_init__(self):
        if not self.degeneracy_rtol > 0.0:
            raise OutOfRange("degeneracy_rtol must be positive")


def _one_site(n: int, i: int, op: np.ndarray) -> np.ndarray:
    factors = [PAULI_I] * n
    factors[i] = op
    return kron_all(factors)


def _two_site(n: int, i: int, j: int, op: np.ndarray) -> np.ndarray:
    factors = [PAULI_I] * n
    factors[i] = op
    factors[j] = op
    return kron_all(factors)


def build_hamiltonian(spec: SpinChainSpec) -> np.ndarray:
    """Dense 2^N x 2^N matrix of the chain described by `spec`."""
    n = spec.num_spins
    if n > MAX_CHAIN_SPINS:
        raise TooLarge(f"chains support at most {MAX_CHAIN_SPINS} spins, got {n}")
    dim = 1 << n
    ham = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        j = (i + 1) % n
        for coupling, pauli in ((spec.jx, PAULI_X), (spec.jy, PAULI_Y), (spec.jz, PAULI_Z)):
            if coupling != 0.0:
                ham -= coupling * _two_site(n, i, j, pauli)
        if spec.h != 0.0:
            ham -= spec.h * _one_site(n, i, PAULI_Z)
    return ham


def build_xxz(num_spins: int, delta: float) -> np.ndarray:
    return build_hamiltonian(SpinChainSpec(num_spins, jx=0.5, jy=0.5, jz=delta / 2.0))


def build_ising(num_spins: int, lam: float) -> np.ndarray:
    """Transverse-field Ising ring with exchange 1 and field `lam`."""
    return build_hamiltonian(SpinChainSpec(num_spins, jx=1.0, h=lam))


def build_double_xxz(spins_per_chain: int, delta: float, lam: float) -> np.ndarray:
    """Two decoupled XXZ rings on one register: H(delta) x I + I x H(lam)."""
    if spins_per_chain > MAX_DOUBLE_CHAIN_SPINS:
        raise TooLarge(f"double chains support at most {MAX_DOUBLE_CHAIN_SPINS} spins per ring")
    first = build_xxz(spins_per_chain, delta)
    second = build_xxz(spins_per_chain, lam)
    eye = np.eye(first.shape[0])
    return np.kron(first, eye) + np.kron(eye, second)


def ground_state(hamiltonian: np.ndarray,
                 policy: GroundStatePolicy | None = None) -> DensityOperator:
    """Ground state of a Hermitian matrix under the given degeneracy policy.

    The state carries its lowest-level eigenvectors as its factor.
    """
    if policy is None:
        policy = GroundStatePolicy()
    vals, vecs = hermitian_eigensystem(hamiltonian)
    if policy.mode is GroundStateMode.FIRST_VECTOR:
        v = vecs[:, 0]
        k = int(np.argmax(np.abs(v)))
        phase = v[k] / abs(v[k])
        v = v * phase.conjugate()
        return DensityOperator.from_factor(v.reshape(-1, 1))
    span = float(vals[-1] - vals[0])
    tol = policy.degeneracy_rtol * span
    block = vecs[:, vals <= vals[0] + tol]
    return DensityOperator.from_factor(block / math.sqrt(block.shape[1]))


def ground_gap(hamiltonian: np.ndarray, rtol: float = 1e-9) -> float:
    """Gap between the lowest eigenvalue and the first one above its
    degeneracy window; +inf if no level lies above the window."""
    vals, _ = hermitian_eigensystem(hamiltonian)
    span = float(vals[-1] - vals[0])
    above = vals[vals > vals[0] + rtol * span]
    if above.size == 0:
        return math.inf
    return float(above[0] - vals[0])
