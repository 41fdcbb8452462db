"""Koopman-van Hove phase-space simulation and verification toolkit."""

from .grid import (
    FD4,
    PERIODIC,
    PhaseGrid,
    ScalarField,
    divergence,
    integrate,
)
from .hamiltonian import (
    HamiltonianSpec,
    OneForm,
    PolynomialHamiltonian,
    flow_map,
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
)

__version__ = "0.1.0"
