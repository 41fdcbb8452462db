"""Independent references the tests compare the library against.

Each is a second formula or solver for something the library computes
another way, and no library code calls it:

- `bracket_density`, the momentum map to densities in its bracket form,
  against `madelung.classical_density`;
- `lie_derivative_coordinates`, the Lie derivative of a one-form along X_H
  by the coordinate formula, from closed-form second partials, against the
  first-partial Cartan form in `madelung.one_form_transport_residual`;
- `evolve_spectral`, spectral RK4 stepping of the Liouville equation,
  against the semi-Lagrangian `liouville.evolve_pushforward`;
- `quantum_energy`, the energy that `qhd.schrodinger_evolve` conserves;
- `connection_residual`, the strict-contact condition that the lifts of
  `hamiltonian.backward_characteristics` satisfy;
- `kron_prequantum_matrix` and `kron_sigma`, the kernel layer's operators
  through N x N krons of the 1-D derivative matrices, against
  `vonneumann.prequantum_matrix` and `hydro_from_kernel`, which apply the
  1-D matrices along the kernel's axes.
"""

from __future__ import annotations

import numpy as np

from kvhsim.grid import PERIODIC, PhaseGrid, ScalarField, derivative_matrix, rk4_steps
from kvhsim.hamiltonian import HamiltonianSpec, central_gradient, coefficient_fields, flow_with_action
from kvhsim.kvh import WaveFunction
from kvhsim.qhd import QWaveFunction
from kvhsim.vonneumann import VNKernel, _local_stencil_matrix


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


def lie_derivative_coordinates(tau_q, tau_p, H: HamiltonianSpec, hessian, g: PhaseGrid):
    """(£_X tau)_i = X·grad(tau_i) + tau_j ∂_i X^j for X = X_H = (h_p, -h_q),
    with X·grad(tau_i) = -{H, tau_i} and the Jacobian of X_H from the second
    partials hessian = (h_qq, h_qp, h_pp), callables of (q, p)."""
    a, b, _ = coefficient_fields(H, g)
    h_qq, h_qp, h_pp = (np.broadcast_to(f(g.Q, g.P), g.Q.shape) for f in hessian)
    jacobian = ((h_qp, -h_qq), (h_pp, -h_qp))  # rows (∂_q X, ∂_p X)
    return tuple(
        -g.bracket(a, b, tau) + tau_q * dXq + tau_p * dXp
        for tau, (dXq, dXp) in zip((tau_q, tau_p), jacobian)
    )


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


def _krons(Mq: np.ndarray, Mp: np.ndarray, grid: PhaseGrid):
    """(D_q, D_p) on flattened fields: the N x N krons of the 1-D matrices."""
    return np.kron(Mq, np.eye(grid.n_p)), np.kron(np.eye(grid.n_q), Mp)


def kron_prequantum_matrix(H: HamiltonianSpec, grid: PhaseGrid, hbar: float) -> np.ndarray:
    """iħ(diag(h_q) D_p - diag(h_p) D_q) - diag(L_H), D the krons of the
    matrices of `grid.derivative_matrix`."""
    Mq, Mp = derivative_matrix(grid.n_q, grid.dq, grid.bc), derivative_matrix(grid.n_p, grid.dp, grid.bc)
    Dq, Dp = _krons(Mq, Mp, grid)
    a, b, lh = (c.reshape(-1) for c in coefficient_fields(H, grid))
    return 1j * hbar * (a[:, None] * Dp - b[:, None] * Dq) - np.diag(lh)


def kron_sigma(theta: VNKernel):
    """(sigma_q, sigma_p) of the kernel: iħ/2 times the second-slot minus the
    first-slot derivative at coincidence, each the diagonal of a product with
    the kron of the extraction's 1-D matrix (the grid's own on periodic
    grids, the 9-point stencils on fd4 grids)."""
    g = theta.grid
    if g.bc == PERIODIC:
        Mq, Mp = derivative_matrix(g.n_q, g.dq, g.bc), derivative_matrix(g.n_p, g.dp, g.bc)
    else:
        Mq, Mp = _local_stencil_matrix(g.n_q) / g.dq, _local_stencil_matrix(g.n_p) / g.dp
    sigma = []
    for D in _krons(Mq, Mp, g):
        d2 = np.einsum("ij,ij->i", theta.K, D)
        d1 = np.einsum("ij,ji->i", D, theta.K)
        sigma.append(np.real((1j * theta.hbar / 2) * (d2 - d1)).reshape(g.n_q, g.n_p))
    return tuple(sigma)
