"""Classical Liouville evolution by pushforward along characteristics.

The semi-Lagrangian pushforward is the oracle of the momentum-map checks:
the density of an evolved wavefunction must be the pushforward of its
initial density.
"""

from __future__ import annotations

from .grid import ScalarField
from .hamiltonian import Characteristics


def evolve_pushforward(rho0: ScalarField, ch: Characteristics) -> ScalarField:
    """Semi-Lagrangian evolution: rho(t, z) = rho0(backward flow of z).

    The Hamiltonian flow is symplectic, so the Jacobian factor is one and
    the pushforward is the pullback of rho0 along `ch`, which must be flowed
    on rho0's grid. Nodes whose characteristic left the box are zero.
    """
    return ch.pullback(rho0)
