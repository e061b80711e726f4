"""Superadiabatic gate teleportation on small dense registers.

Submodules:
    operators        dense register linear algebra
    schedules        drive interpolation paths and their derivatives
    spectral         analytic parity-block eigensystem, step exponential
    model            Hamiltonian families, parities, canonical states
    counterdiabatic  velocity compensation terms
    evolution        propagation and teleportation drivers
    cost             energetic cost measures and sweeps
    cli              command-line interface (`sagt ...`)
"""

__version__ = "0.1.0"

from .cost import (
    CostReport,
    adiabatic_cost,
    cost_closed_form,
    cost_multi,
    cost_numeric,
    cost_scaling,
    cost_sweep,
    mu,
)
from .counterdiabatic import block_cd, sector_cd
from .evolution import (
    RunRecord,
    adiabatic_reference,
    exact_sector_propagator,
    fidelity,
    propagate,
    run_gate_teleport,
    run_state_teleport,
)
from .model import (
    GATE_NAMES,
    CapacityError,
    HamiltonianFamily,
    ParitySet,
    bell_state,
    embed_on_outputs,
    initial_state,
    multi_sector_family,
    named_gate,
    parity,
    parity_set,
    rotate_family,
    single_sector_family,
    superadiabatic_family,
    target_state,
)
from .operators import (
    commutator,
    frobenius_norm,
    pauli_string,
    place_on_qubits,
    random_state,
    random_unitary,
    tensor,
    unitary_step,
)
from .schedules import Schedule, builtin_schedule, chi, make_schedule
from .spectral import (
    block_eigenvector_derivatives,
    block_eigenvectors,
    block_energies,
    block_hamiltonian,
    embed_block_vector,
    embed_blocks,
    gap,
)

__all__ = [name for name in dir() if not name.startswith("_")]
