"""Cumulative correlation measure for multi-qubit mixed states.

The package computes a recursively defined correlation measure that sums
weighted relative-entropy distances to product states over a minimizing
binary tree of bipartitions, plus the supporting pieces: entropy kernels,
periodic spin-chain models whose critical points the measure detects, and
single-qubit damping channels.
"""

from .ccm import (
    CcmReport,
    CcmStats,
    CcmTreeNode,
    ccm,
    ccm_naive,
    ghz_closed_form,
)
from .channels import (
    KrausChannel,
    amplitude_damping_channel,
    apply_channel_local,
    phase_damping_channel,
)
from .entropy import (
    DistanceUnit,
    multi_information,
    mutual_information,
    relative_entropy,
    von_neumann_entropy,
)
from .linalg import hermitian_eigensystem
from .spin_models import (
    GroundStateMode,
    GroundStatePolicy,
    HamiltonianTerms,
    SpinChainSpec,
    build_double_xxz,
    build_hamiltonian,
    build_ising,
    build_xxz,
    chain_terms,
    ground_gap,
    ground_state,
    ising_ring,
    xxz_ring,
)
from .states import (
    DensityOperator,
    PureState,
    apply_local_unitary,
    full_mask,
    make_ghz,
    make_state_from_kets,
    partial_trace,
    read_qs1,
    subset_qubits,
    tensor_product,
    write_qs1,
)
from .sweeps import (
    ParamRange,
    SweepConfig,
    build_grid,
    central_difference,
    noise_sweep_rows,
    sweep_rows,
    write_csv,
)

__all__ = [
    "CcmReport",
    "CcmStats",
    "CcmTreeNode",
    "DensityOperator",
    "DistanceUnit",
    "GroundStateMode",
    "GroundStatePolicy",
    "HamiltonianTerms",
    "KrausChannel",
    "ParamRange",
    "PureState",
    "SpinChainSpec",
    "SweepConfig",
    "amplitude_damping_channel",
    "apply_channel_local",
    "apply_local_unitary",
    "build_double_xxz",
    "build_grid",
    "build_hamiltonian",
    "build_ising",
    "build_xxz",
    "ccm",
    "ccm_naive",
    "central_difference",
    "chain_terms",
    "full_mask",
    "ghz_closed_form",
    "ground_gap",
    "ground_state",
    "hermitian_eigensystem",
    "ising_ring",
    "make_ghz",
    "make_state_from_kets",
    "multi_information",
    "mutual_information",
    "noise_sweep_rows",
    "partial_trace",
    "phase_damping_channel",
    "read_qs1",
    "relative_entropy",
    "subset_qubits",
    "sweep_rows",
    "tensor_product",
    "von_neumann_entropy",
    "write_csv",
    "write_qs1",
    "xxz_ring",
]
