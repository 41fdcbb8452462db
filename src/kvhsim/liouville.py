"""Reference solver for the classical Liouville equation.

Two independent discretizations: semi-Lagrangian pushforward along exact
(RK4) characteristics, and spectral RK4 time stepping of {H, rho}. Their
agreement certifies the oracle used by the momentum-map naturality tests.
"""

from __future__ import annotations

import numpy as np

from .grid import PhaseGrid, ScalarField, rk4_steps, time_steps
from .hamiltonian import HamiltonianSpec, backward_characteristics, coefficient_fields
from .kvh import interpolate_field


def _bracket_rhs(H: HamiltonianSpec, g: PhaseGrid):
    """values -> ({H, values},) on g, with the coefficients sampled once."""
    a, b, _ = coefficient_fields(H, g)

    def rhs(values):
        return (a * g.ddp(values) - b * g.ddq(values),)

    return rhs


def liouville_rhs(rho: ScalarField, H: HamiltonianSpec) -> ScalarField:
    """{H, rho} with closed-form Hamiltonian partials."""
    (drho,) = _bracket_rhs(H, rho.grid)(rho.values)
    return ScalarField(rho.grid, drho)


def evolve_pushforward(
    rho0: ScalarField, H: HamiltonianSpec, t: float, dt: float = 1e-3,
    on_exit: str = "error",
) -> ScalarField:
    """Semi-Lagrangian evolution: rho(t, z) = rho0(backward flow of z).

    The Hamiltonian flow is symplectic, so the Jacobian factor is one and
    the pushforward is plain composition (bicubic interpolation).
    on_exit: "error" or "zero" (for boundary-clear densities).
    """
    g = rho0.grid
    if t == 0:
        return rho0.copy()
    q0, p0, _, bad = backward_characteristics(H, g, t, dt, on_exit)
    values = interpolate_field(rho0, q0, p0)
    values = np.where(bad, 0.0, values)
    return ScalarField(g, values)


def evolve_spectral(
    rho0: ScalarField, H: HamiltonianSpec, t_final: float, dt: float
) -> ScalarField:
    """RK4 cross-check for the semi-Lagrangian scheme."""
    g = rho0.grid
    rhs = _bracket_rhs(H, g)
    state = (rho0.values.astype(float).copy(),)
    n_steps, dt = time_steps(t_final, dt)
    for state in rk4_steps(rhs, state, dt, n_steps):
        pass
    return ScalarField(g, state[0])
