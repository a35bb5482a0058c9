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

from .errors import DimensionMismatch, OutOfRange, TooLarge
from .linalg import checked_hermitian, hermitian_eigensystem, hermitian_eigenvalues
from .states import DensityOperator

MAX_CHAIN_SPINS = 14
MAX_DOUBLE_CHAIN_SPINS = 6  # per ring; the joint register holds twice this
# Eigenvalues within this fraction of the spectral span of the minimum form
# the lowest level.
DEGENERACY_RTOL = 1e-9


@dataclass(frozen=True)
class SpinChainSpec:
    """Couplings of one periodic chain."""

    num_spins: int
    jx: float = 0.0
    jy: float = 0.0
    jz: float = 0.0
    h: float = 0.0

    def __post_init__(self):
        if self.num_spins < 2:
            raise OutOfRange(f"a chain needs at least 2 spins, got {self.num_spins}")
        for name in ("jx", "jy", "jz", "h"):
            if not math.isfinite(getattr(self, name)):
                raise OutOfRange(f"coupling {name} must be finite")


class GroundStateMode(enum.Enum):
    SUBSPACE_MIXTURE = "subspace-mixture"
    FIRST_VECTOR = "first-vector"


@dataclass(frozen=True)
class GroundStatePolicy:
    """How to turn a (possibly degenerate) lowest eigenspace into a state.

    `subspace-mixture` returns the normalized projector onto every eigenvalue
    within `DEGENERACY_RTOL * (spectral span)` of the minimum; `first-vector`
    keeps one eigenvector of that level, chosen by block order (see
    `ground_state`), with its global phase fixed by making the
    largest-magnitude amplitude real and positive.
    """

    mode: GroundStateMode = GroundStateMode.SUBSPACE_MIXTURE


def build_hamiltonian(spec: SpinChainSpec) -> np.ndarray:
    """Dense real 2^N x 2^N matrix of the chain described by `spec`.

    Built from bit operations on the basis indices (site i is bit N-1-i, and
    Z|0> = |0>).  The ZZ and field terms are diagonal; XX + YY flips both
    spins of a bond with amplitude -jx + jy z_i z_j, which vanishes on aligned
    pairs when jx = jy.  Every entry is real, so the matrix is float64.
    """
    n = spec.num_spins
    if n > MAX_CHAIN_SPINS:
        raise TooLarge(f"chains support at most {MAX_CHAIN_SPINS} spins, got {n}")
    dim = 1 << n
    basis = np.arange(dim)
    shifts = n - 1 - np.arange(n)
    z = 1 - 2 * ((basis[:, None] >> shifts) & 1)      # z[s, i]: Z eigenvalue of site i
    zz = z * np.roll(z, -1, axis=1)                    # z_i z_{i+1} on bond i
    ham = np.zeros((dim, dim))
    ham[basis, basis] = -(spec.jz * zz.sum(axis=1) + spec.h * z.sum(axis=1))
    if spec.jx != 0.0 or spec.jy != 0.0:
        flips = (1 << shifts) | (1 << np.roll(shifts, -1))
        # add.at, not +=: for N = 2 both bonds flip the same pair of bits
        np.add.at(ham, (basis[:, None] ^ flips, basis[:, None]), -spec.jx + spec.jy * zz)
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


def _blocks(matrix: np.ndarray) -> list[np.ndarray]:
    """Basis indices of the connected components of the nonzero pattern of
    `matrix` and its adjoint, each ascending, ordered by smallest index.

    The matrix is block diagonal on these index sets: they are the magnetization
    sectors of an XXZ ring, the parity sectors of an Ising ring, and so on,
    found from the pattern alone.
    """
    dim = matrix.shape[0]
    linked = (matrix != 0) | (matrix.T != 0) | np.eye(dim, dtype=bool)
    rows, cols = np.nonzero(linked)
    row_starts = np.searchsorted(rows, np.arange(dim))  # every row holds its diagonal
    labels = np.arange(dim)
    while True:  # each index takes its neighbours' smallest label, then jumps pointers
        new = np.minimum.reduceat(labels[cols], row_starts)
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def _block_spectra(hamiltonian: np.ndarray, vectors: bool = True):
    """(indices, ascending eigenvalues, eigenvector columns or None) per block.

    Every nonzero entry lies inside a block, so checking each block for
    Hermiticity checks the whole matrix.
    """
    h = np.asarray(hamiltonian)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {h.shape}")
    spectra = []
    for idx in _blocks(h):
        block = h[np.ix_(idx, idx)]
        if vectors:
            spectra.append((idx, *hermitian_eigensystem(block)))
        else:
            spectra.append((idx, hermitian_eigenvalues(checked_hermitian(block)), None))
    return spectra


def ground_state(hamiltonian: np.ndarray,
                 policy: GroundStatePolicy | None = None) -> DensityOperator:
    """Ground state of a Hermitian matrix under the given degeneracy policy.

    The matrix is diagonalized block by block (see `_blocks`).  The lowest
    level is every eigenvalue within `DEGENERACY_RTOL` times the whole
    spectral span of the global minimum, whichever blocks it lies in.
    `first-vector` takes the lowest eigenvector of the first block, by
    smallest basis index, whose lowest eigenvalue is on that level.  The state
    carries its lowest-level eigenvectors, embedded in the full basis, as its
    factor.
    """
    if policy is None:
        policy = GroundStatePolicy()
    spectra = _block_spectra(hamiltonian)
    dim = len(hamiltonian)
    lowest = min(vals[0] for _, vals, _ in spectra)
    span = max(vals[-1] for _, vals, _ in spectra) - lowest
    top = lowest + DEGENERACY_RTOL * span
    if policy.mode is GroundStateMode.FIRST_VECTOR:
        idx, _, vecs = next(b for b in spectra if b[1][0] <= top)
        v = np.zeros(dim, dtype=vecs.dtype)
        v[idx] = vecs[:, 0]
        k = int(np.argmax(np.abs(v)))
        phase = v[k] / abs(v[k])
        v = v * phase.conjugate()
        return DensityOperator.from_factor(v.reshape(-1, 1))
    columns = []
    for idx, vals, vecs in spectra:
        kept = vecs[:, vals <= top]
        embedded = np.zeros((dim, kept.shape[1]), dtype=kept.dtype)
        embedded[idx] = kept
        columns.append(embedded)
    block = np.hstack(columns)
    return DensityOperator.from_factor(block / math.sqrt(block.shape[1]))


def ground_gap(hamiltonian: np.ndarray) -> float:
    """Gap between the lowest eigenvalue and the first one above its
    degeneracy window; +inf if no level lies above the window."""
    vals = np.sort(np.concatenate([v for _, v, _ in _block_spectra(hamiltonian, vectors=False)]))
    span = float(vals[-1] - vals[0])
    above = vals[vals > vals[0] + DEGENERACY_RTOL * span]
    if above.size == 0:
        return math.inf
    return float(above[0] - vals[0])
