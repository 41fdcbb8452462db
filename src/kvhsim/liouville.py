"""Reference solver for the classical Liouville equation.

Two independent discretizations: semi-Lagrangian pushforward along exact
(RK4) characteristics, and spectral RK4 time stepping of {H, rho}. Their
agreement certifies the oracle used by the momentum-map naturality tests.
"""

from __future__ import annotations

import numpy as np

from .grid import ScalarField, rk4_steps
from .hamiltonian import Characteristics, HamiltonianSpec, coefficient_fields
from .kvh import interpolate_field


def liouville_rhs(rho: ScalarField, H: HamiltonianSpec) -> ScalarField:
    """{H, rho} with closed-form Hamiltonian partials."""
    a, b, _ = coefficient_fields(H, rho.grid)
    return ScalarField(rho.grid, rho.grid.bracket(a, b, rho.values))


def evolve_pushforward(rho0: ScalarField, ch: Characteristics) -> ScalarField:
    """Semi-Lagrangian evolution: rho(t, z) = rho0(backward flow of z).

    The Hamiltonian flow is symplectic, so the Jacobian factor is one and
    the pushforward is plain composition (bicubic interpolation) at the
    foot points of `ch`, which must be flowed on rho0's grid. Nodes whose
    characteristic left the box are zero.
    """
    g = rho0.grid
    ch.check_grid(g)
    if ch.t == 0:
        return rho0.copy()
    values = interpolate_field(rho0, ch.q0, ch.p0)
    values = np.where(ch.exited, 0.0, values)
    return ScalarField(g, values)


def evolve_spectral(
    rho0: ScalarField, H: HamiltonianSpec, t_final: float, dt: float
) -> ScalarField:
    """RK4 cross-check for the semi-Lagrangian scheme; a non-finite step
    raises EvolutionAborted."""
    g = rho0.grid
    a, b, _ = coefficient_fields(H, g)
    work = np.empty((g.n_q, g.n_p))

    def rhs(values, out):
        g.bracket(a, b, values, out=out[0], work=work)

    state = (rho0.values.astype(float),)
    for _ in rk4_steps(rhs, state, t_final, dt):
        pass
    return ScalarField(g, state[0])
