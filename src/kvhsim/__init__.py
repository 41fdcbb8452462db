"""Koopman-van Hove phase-space simulation and verification toolkit."""

from .grid import (
    FD4,
    PERIODIC,
    PhaseGrid,
    ScalarField,
    divergence,
    integrate,
    partial_p,
    partial_q,
    poisson_bracket,
)
from .hamiltonian import (
    HamiltonianSpec,
    OneForm,
    PolynomialHamiltonian,
    canonical_one_form,
    flow_map,
    hamiltonian_vector_field,
    jmap,
    phase_space_lagrangian,
    polynomial_hamiltonian,
    scenario_hamiltonian,
)
from .kvh import (
    WaveFunction,
    apply_prequantum,
    characteristics_oracle,
    commutator_residual,
    evolve,
    gaussian_wavepacket,
    hermitian_inner,
    kvh_energy,
    symplectic_form,
)

__version__ = "0.1.0"
