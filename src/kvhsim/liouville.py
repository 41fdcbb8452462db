"""Reference solver for the classical Liouville equation.

Two independent discretizations: semi-Lagrangian pushforward along exact
(RK4) characteristics, and spectral RK4 time stepping of {H, rho}. Their
agreement certifies the oracle used by the momentum-map naturality tests.
"""

from __future__ import annotations

import numpy as np

from .grid import PhaseGrid, ScalarField, rk4_steps, time_steps
from .hamiltonian import Characteristics, HamiltonianSpec, coefficient_fields
from .kvh import interpolate_field


def _bracket_rhs(H: HamiltonianSpec, g: PhaseGrid, dtype=float):
    """rhs(values, out=(d,)) writing {H, values} into d, for fields of `dtype`
    on g, with the coefficients sampled once."""
    a, b, _ = coefficient_fields(H, g)
    work = np.empty((g.n_q, g.n_p), dtype)

    def rhs(values, out):
        (d,) = out
        np.multiply(a, g.ddp(values, out=d), out=d)
        np.multiply(b, g.ddq(values, out=work), out=work)
        np.subtract(d, work, out=d)

    return rhs


def liouville_rhs(rho: ScalarField, H: HamiltonianSpec) -> ScalarField:
    """{H, rho} with closed-form Hamiltonian partials."""
    dtype = np.result_type(rho.values, 1.0)
    drho = np.empty(rho.values.shape, dtype)
    _bracket_rhs(H, rho.grid, dtype)(rho.values, out=(drho,))
    return ScalarField(rho.grid, drho)


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
    """RK4 cross-check for the semi-Lagrangian scheme."""
    g = rho0.grid
    rhs = _bracket_rhs(H, g)
    state = (rho0.values.astype(float),)
    n_steps, dt = time_steps(t_final, dt)
    for state in rk4_steps(rhs, state, dt, n_steps):
        pass
    return ScalarField(g, state[0])
