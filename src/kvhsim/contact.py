"""Strict contact transformations and their unitary action on wavefunctions.

Only lifts of Hamiltonian flows are constructed: the time-t flow of X_G
paired with the phase accumulated from -L_G along the trajectories. Such
pairs preserve the connection one-form, and their unitary action reduces
to composition with the inverse flow times a phase (the flow has unit
Jacobian, so no density factor appears). A lift is therefore given by its
backward characteristics (`hamiltonian.backward_characteristics`): the foot
points are η⁻¹ of the nodes, and the action along them is the phase. The
lift is unique only up to a constant phase, taken to be zero: no check can
see it, as it multiplies both terms of the equivariance residual alike and
|UΨ|² drops it. Nodes whose characteristic leaves the box are zeroed, which
is valid for wavefunctions supported away from the outflow region.

The equivariance residual checks U† L̂_H U = L̂_{H∘η}, for a closed-form
composition H∘η, on the lift alone: ‖L̂_H(UΨ) - U(L̂_{H∘η}Ψ)‖ / ‖Ψ‖. The
numerator is ‖U(U† L̂_H U Ψ - L̂_{H∘η}Ψ)‖, and a unitary U preserves the norm,
so the two forms agree; this one needs only the lift's own backward flow.
Off the horizons where the flow permutes the nodes, the discrete U is
unitary only up to the spline's interpolation floor, which then bounds both
forms (test_composition_at_other_angles).
"""

from __future__ import annotations

import numpy as np

from .grid import PhaseGrid, ScalarField, l2_norm
from .hamiltonian import Characteristics, HamiltonianSpec, central_gradient, flow_with_action
from .kvh import WaveFunction, apply_prequantum, characteristics_oracle


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


def apply_van_hove(ch: Characteristics, psi: WaveFunction) -> WaveFunction:
    """Unitary action: U Ψ(z) = exp(-i phi(η⁻¹ z)/ħ) Ψ(η⁻¹ z).

    phi evaluated at η⁻¹(z) is the action accumulated on the backward
    trajectory, so U is the characteristics oracle on the lift's backward
    characteristics `ch`.
    """
    return characteristics_oracle(psi, ch)


def equivariance_residual(
    ch: Characteristics,
    H: HamiltonianSpec,
    psi: WaveFunction,
    composed: HamiltonianSpec,
) -> tuple[float, WaveFunction]:
    """Relative residual of U† L̂_H U = L̂_{H∘η} on psi, for `composed` the
    closed form of H∘η, taken as ‖L̂_H(U psi) - U(L̂_{H∘η} psi)‖ / ‖psi‖;
    returned with U psi.

    For a unitary U this is the norm of U†L̂_H U psi - L̂_{H∘η} psi, and both
    applications of U share the backward characteristics `ch`, so no inverse
    flow is made. Off node-permuting horizons the spline floor bounds either
    form.
    """
    upsi = apply_van_hove(ch, psi)
    lhs = apply_prequantum(H, upsi)
    rhs = apply_van_hove(ch, apply_prequantum(composed, psi))
    diff = ScalarField(psi.grid, lhs.field.values - rhs.field.values)
    return l2_norm(diff) / psi.norm(), upsi
