"""Seeded random states, unitaries, and channels for the property checks."""

from __future__ import annotations

import numpy as np

from .channels import KrausChannel
from .states import DensityOperator, tensor_product


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    q, r = np.linalg.qr(_ginibre(rng, dim, dim))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_pure_state(num_qubits: int, rng: np.random.Generator) -> DensityOperator:
    """A Haar-random state vector, as a one-column complex factor."""
    v = _ginibre(rng, 1 << num_qubits, 1)
    return DensityOperator.from_factor(v / np.linalg.norm(v))


def random_density(num_qubits: int, rng: np.random.Generator,
                   rank: int | None = None) -> DensityOperator:
    """rho = A A^dagger / Tr(A A^dagger) with A complex Gaussian (full rank by default)."""
    dim = 1 << num_qubits
    a = _ginibre(rng, dim, rank if rank is not None else dim)
    m = a @ a.conj().T
    return DensityOperator(m / np.trace(m).real)


def random_product_density(num_qubits: int, rng: np.random.Generator) -> DensityOperator:
    out = random_density(1, rng)
    for _ in range(num_qubits - 1):
        out = tensor_product(out, random_density(1, rng))
    return out


def random_local_unitaries(num_qubits: int, rng: np.random.Generator) -> list[np.ndarray]:
    return [haar_unitary(2, rng) for _ in range(num_qubits)]


def random_qubit_channel(rng: np.random.Generator, kraus_count: int = 2) -> KrausChannel:
    """Random CPTP qubit channel from a Haar-random isometry into `kraus_count` branches."""
    q, _ = np.linalg.qr(_ginibre(rng, 2 * kraus_count, 2))
    ops = [q[2 * i:2 * i + 2, :] for i in range(kraus_count)]
    return KrausChannel(tuple(ops))
