"""Reference solver for the classical Liouville equation.

Two independent discretizations: semi-Lagrangian pushforward along exact
(RK4) characteristics, and spectral RK4 time stepping of {H, rho}. Their
agreement certifies the oracle used by the momentum-map naturality tests.
"""

from __future__ import annotations

import numpy as np

from .grid import ScalarField, rk4_steps
from .hamiltonian import Characteristics, HamiltonianSpec, coefficient_fields


def evolve_pushforward(rho0: ScalarField, ch: Characteristics) -> ScalarField:
    """Semi-Lagrangian evolution: rho(t, z) = rho0(backward flow of z).

    The Hamiltonian flow is symplectic, so the Jacobian factor is one and
    the pushforward is the pullback of rho0 along `ch`, which must be flowed
    on rho0's grid. Nodes whose characteristic left the box are zero.
    """
    return ch.pullback(rho0)


def evolve_spectral(
    rho0: ScalarField, H: HamiltonianSpec, t_final: float, dt: float
) -> ScalarField:
    """RK4 cross-check for the semi-Lagrangian scheme: d rho/dt = {H, rho},
    with closed-form Hamiltonian partials. A non-finite step raises
    EvolutionAborted."""
    g = rho0.grid
    a, b, _ = coefficient_fields(H, g)
    work = np.empty((g.n_q, g.n_p))

    def rhs(values, out):
        g.bracket(a, b, values, out=out[0], work=work)

    state = (rho0.values.astype(float),)
    for _ in rk4_steps(rhs, state, t_final, dt):
        pass
    return ScalarField(g, state[0])
