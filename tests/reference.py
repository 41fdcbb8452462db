"""Independent references the tests compare the library against.

Each is a second formula or solver for something the library computes
another way, and no library code calls it:

- `bracket_density`, the momentum map to densities in its bracket form,
  against `madelung.classical_density`;
- `evolve_spectral`, spectral RK4 stepping of the Liouville equation,
  against the semi-Lagrangian `liouville.evolve_pushforward`;
- `quantum_energy`, the energy that `qhd.schrodinger_evolve` conserves;
- `connection_residual`, the strict-contact condition that the lifts of
  `hamiltonian.backward_characteristics` satisfy.
"""

from __future__ import annotations

import numpy as np

from kvhsim.grid import PhaseGrid, ScalarField, rk4_steps
from kvhsim.hamiltonian import HamiltonianSpec, central_gradient, coefficient_fields, flow_with_action
from kvhsim.kvh import WaveFunction
from kvhsim.qhd import QWaveFunction


def bracket_density(psi: WaveFunction) -> ScalarField:
    """Momentum map to densities: |Ψ|² + ∂_p(p|Ψ|²) + iħ{Ψ, conj Ψ}.

    The middle term is -div(JA |Ψ|²) for the canonical one-form A = p dq,
    whose image under J is (0, -p). The result is real up to round-off.
    """
    g = psi.grid
    v = psi.field.values
    abssq = np.abs(v) ** 2
    bracket = g.bracket(g.ddq(v), g.ddp(v), np.conj(v))
    rho = abssq + g.ddp(g.P * abssq) + 1j * psi.hbar * bracket
    return ScalarField(g, np.real(rho))


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


def quantum_energy(psi: QWaveFunction, V: np.ndarray) -> float:
    g = psi.grid
    dpsi = g.ddx(psi.values)
    kinetic = (psi.hbar**2 / 2) * np.abs(dpsi) ** 2
    potential = V * np.abs(psi.values) ** 2
    return float(np.real(g.integrate(kinetic + potential)))


def connection_residual(G: HamiltonianSpec, t: float, grid: PhaseGrid, dt: float) -> float:
    """L2 residual of the membership condition eta*A + dphi = A for the lift
    of G's time-t flow eta, flowed with step dt from the nodes of `grid`."""
    _, pc, _ = flow_with_action(G, t, grid.Q, grid.P, dt)

    def eta_q_and_action(q, p):
        qf, _, action = flow_with_action(G, t, q, p, dt)
        return qf, action

    # one flow per displaced node set serves both off-grid central differences
    (deta_q, daction_q), (deta_p, daction_p) = central_gradient(eta_q_and_action, grid.Q, grid.P)
    # pullback (eta*A)_i = p(eta(z)) * d eta_q / d z_i; phi = -action
    res_q = pc * deta_q - daction_q - grid.P
    res_p = pc * deta_p - daction_p
    return float(
        np.sqrt(
            np.real(
                (np.abs(res_q) ** 2 + np.abs(res_p) ** 2).sum() * grid.dq * grid.dp
            )
        )
    )
