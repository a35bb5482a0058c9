import os

import numpy as np
import pytest
from hypothesis import settings


from qcorr import (
    DensityOperator,
    apply_channel_local,
    full_mask,
    make_ghz,
    make_state_from_kets,
    phase_damping_channel,
    tensor_product,
)
from qcorr.sampling import random_density, random_product_density, random_pure_state

# CI draws the same hypothesis examples on every run, so a failure there
# replays locally with `CI=1`; no example is timed out on a slow runner.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(90537)


def classical_ghz_mixture(n: int) -> DensityOperator:
    """(|0..0><0..0| + |1..1><1..1|)/2 — a GHZ state with its coherence removed."""
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 0] = m[dim - 1, dim - 1] = 0.5
    return DensityOperator(m)


@pytest.fixture(scope="session")
def corpus():
    """Named states on <= 4 qubits used by cross-check suites."""
    rng = np.random.default_rng(424242)
    bell = make_ghz(2)
    states = [
        ("zero3", make_state_from_kets([(0, 1)], 3)),
        ("bell", bell),
        ("ghz3", make_ghz(3)),
        ("ghz4", make_ghz(4)),
        ("ghz2xghz2", tensor_product(bell, bell)),
        ("ghz3x0", make_state_from_kets([(0, 1), (14, 1)], 4)),
        ("w3", make_state_from_kets([(1, 1), (2, 1), (4, 1)], 3)),
        ("ghz2_dephased", classical_ghz_mixture(2)),
        ("ghz3_dephased", classical_ghz_mixture(3)),
        ("ghz4_dephased", classical_ghz_mixture(4)),
        ("product3", random_product_density(3, rng)),
        ("bell_damped", apply_channel_local(bell, phase_damping_channel(0.3), full_mask(2))),
        ("pure3", random_pure_state(3, rng)),
        ("lowrank3", random_density(3, rng, rank=2)),
    ]
    for n in (2, 3, 4):
        for k in range(2):
            states.append((f"mixed{n}_{k}", random_density(n, rng)))
    return states
