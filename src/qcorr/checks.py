"""Executable invariants of the measure, run over seeded random ensembles.

Each check returns a :class:`CheckResult` with the worst observed violation,
so the same code backs the fast `qcorr check` command, the unit tests, and
the slower acceptance gate (which raises the ensemble sizes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ccm import ccm, ccm_naive, ghz_closed_form
from .channels import amplitude_damping_channel, apply_channel_local, phase_damping_channel
from .entropy import DistanceUnit, mutual_information, relative_entropy
from .sampling import (
    random_density,
    random_local_unitaries,
    random_product_density,
    random_qubit_channel,
)
from .spin_models import chain_terms, ground_state, xxz_ring
from .states import apply_local_unitary, full_mask, make_ghz, partial_trace, tensor_product

NONNEGATIVITY_TOL = 1e-9
PRODUCT_TOL = 1e-8
LOCAL_UNITARY_TOL = 1e-7
ANCILLA_TOL = 1e-7
CONTRACTIVITY_TOL = 1e-7
ADDITIVITY_TOL = 1e-7
DP_VS_NAIVE_TOL = 1e-9
CLOSED_FORM_TOL = 1e-9
MI_VS_RELATIVE_TOL = 1e-7
SSA_TOL = 1e-8


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _sizes(count: int, choices: tuple[int, ...]) -> list[int]:
    return [choices[i % len(choices)] for i in range(count)]


def _result(name: str, worst: float, tol: float, count: int) -> CheckResult:
    return CheckResult(name, worst <= tol,
                       f"worst violation {worst:.3e} (tolerance {tol:.0e}, {count} cases)")


def check_nonnegativity(rng: np.random.Generator, count: int) -> CheckResult:
    """ccm >= 0 on random mixed states."""
    worst = 0.0
    for n in _sizes(count, (2, 3, 4, 5)):
        value = ccm(random_density(n, rng)).value
        worst = max(worst, -value)
    return _result("nonnegativity", worst, NONNEGATIVITY_TOL, count)


def check_product_states(rng: np.random.Generator, count: int) -> CheckResult:
    """ccm == 0 on full product states."""
    worst = 0.0
    for n in _sizes(count, (2, 3, 4, 5)):
        worst = max(worst, abs(ccm(random_product_density(n, rng)).value))
    return _result("product states", worst, PRODUCT_TOL, count)


def check_local_unitary_invariance(rng: np.random.Generator, count: int) -> CheckResult:
    """ccm is unchanged by per-qubit unitaries."""
    worst = 0.0
    for n in _sizes(count, (2, 3, 4, 5)):
        rho = random_density(n, rng)
        rotated = apply_local_unitary(rho, random_local_unitaries(n, rng))
        worst = max(worst, abs(ccm(rotated).value - ccm(rho).value))
    return _result("local-unitary invariance", worst, LOCAL_UNITARY_TOL, count)


def check_ancilla_invariance(rng: np.random.Generator, count: int) -> CheckResult:
    """Appending uncorrelated qubits leaves ccm unchanged."""
    worst = 0.0
    for i, n in enumerate(_sizes(count, (2, 3))):
        extra = 1 + (i % 2)
        rho = random_density(n, rng)
        padded = tensor_product(rho, random_product_density(extra, rng))
        worst = max(worst, abs(ccm(padded).value - ccm(rho).value))
    return _result("ancilla invariance", worst, ANCILLA_TOL, count)


def check_channel_contractivity(rng: np.random.Generator, count: int) -> CheckResult:
    """Independent per-qubit channels cannot increase ccm."""
    worst = 0.0
    for n in _sizes(count, (2, 3, 4)):
        rho = random_density(n, rng)
        noisy = rho
        for q in range(n):
            noisy = apply_channel_local(noisy, random_qubit_channel(rng), 1 << q)
        worst = max(worst, ccm(noisy).value - ccm(rho).value)
    return _result("channel contractivity", worst, CONTRACTIVITY_TOL, count)


def check_additivity(rng: np.random.Generator, count: int) -> CheckResult:
    """ccm(phi x psi) = ccm(phi) + ccm(psi)."""
    worst = 0.0
    for i, n1 in enumerate(_sizes(count, (1, 2))):
        n2 = 2 + (i % 2)
        phi = random_density(n1, rng)
        psi = random_density(n2, rng)
        joint = ccm(tensor_product(phi, psi)).value
        worst = max(worst, abs(joint - ccm(phi).value - ccm(psi).value))
    return _result("additivity", worst, ADDITIVITY_TOL, count)


def check_ghz_growth() -> CheckResult:
    """The GHZ closed form is strictly increasing in the qubit count."""
    values = [ghz_closed_form(n) for n in range(2, 11)]
    ok = all(b > a for a, b in zip(values, values[1:]))
    return CheckResult("ghz growth", ok,
                       f"values n=2..10: {', '.join(f'{v:g}' for v in values)}")


def check_dp_vs_naive(rng: np.random.Generator, count: int) -> CheckResult:
    """Dynamic program equals literal recursion on random mixed states, and
    on XXZ rings damped by either built-in channel, whose table the dynamic
    program takes from popcount blocks."""
    worst = 0.0
    states = [random_density(n, rng) for n in _sizes(count, (2, 3, 4))]
    channels = (phase_damping_channel, amplitude_damping_channel)
    for i, n in enumerate(_sizes(count, (2, 3, 4, 5, 6))):
        ring = ground_state(chain_terms(xxz_ring(n, float(rng.uniform(-2.0, 2.0)))))
        damping = channels[i % 2](float(rng.uniform(0.0, 1.0)))
        states.append(apply_channel_local(ring, damping, full_mask(n)))
    for rho in states:
        worst = max(worst, abs(ccm(rho).value - ccm_naive(rho)))
    return _result("dp vs naive recursion", worst, DP_VS_NAIVE_TOL, len(states))


def check_closed_form_vs_dp(max_qubits: int = 6) -> CheckResult:
    """DP on actual GHZ states reproduces the closed form."""
    worst = 0.0
    for n in range(2, max_qubits + 1):
        direct = ccm(make_ghz(n)).value
        worst = max(worst, abs(direct - ghz_closed_form(n)))
    return _result("ghz closed form vs dp", worst, CLOSED_FORM_TOL, max_qubits - 1)


def check_mutual_info_vs_relative_entropy(rng: np.random.Generator, count: int) -> CheckResult:
    """I(A:B) equals S(rho || rho_A x rho_B) on full-rank states."""
    worst = 0.0
    for i in range(count):
        rho = random_density(3, rng)
        part_a = (1 << (1 + i % 2)) - 1  # {0} or {0,1}
        sigma = tensor_product(partial_trace(rho, part_a),
                               partial_trace(rho, full_mask(3) ^ part_a))
        direct = relative_entropy(rho, sigma, DistanceUnit.BITS)
        via_entropies = mutual_information(rho, part_a, DistanceUnit.BITS)
        worst = max(worst, abs(direct - via_entropies))
    return _result("mutual information vs relative entropy", worst, MI_VS_RELATIVE_TOL, count)


def check_strong_subadditivity(rng: np.random.Generator, count: int) -> CheckResult:
    """Discarding a qubit cannot raise mutual information: I(A:B) <= I(A:BC)."""
    worst = 0.0
    for _ in range(count):
        rho = random_density(3, rng)
        with_c = mutual_information(rho, 0b001, DistanceUnit.BITS)
        without_c = mutual_information(partial_trace(rho, 0b011), 0b001, DistanceUnit.BITS)
        worst = max(worst, without_c - with_c)
    return _result("strong subadditivity", worst, SSA_TOL, count)


def run_default_checks(seed: int, count: int = 25) -> list[CheckResult]:
    """The whole battery at a modest ensemble size, for `qcorr check`."""
    rng = np.random.default_rng(seed)
    return [
        check_nonnegativity(rng, count),
        check_product_states(rng, count),
        check_local_unitary_invariance(rng, count),
        check_ancilla_invariance(rng, count),
        check_channel_contractivity(rng, count),
        check_additivity(rng, count),
        check_ghz_growth(),
        check_dp_vs_naive(rng, max(count // 2, 5)),
        check_closed_form_vs_dp(),
        check_mutual_info_vs_relative_entropy(rng, count),
        check_strong_subadditivity(rng, count),
    ]
