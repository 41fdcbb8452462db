"""Strict contact transformations and their unitary action on wavefunctions.

Only lifts of Hamiltonian flows are constructed: the time-t flow of X_G
paired with the phase accumulated from -L_G along the trajectories. Such
pairs preserve the connection one-form, and their unitary action reduces
to composition with the inverse flow times a phase (the flow has unit
Jacobian, so no density factor appears). The lift is unique only up to a
constant phase, taken to be zero: no check can see it, as it multiplies
both terms of the equivariance residual alike and |UΨ|² drops it. Nodes
whose characteristic leaves the box are zeroed, which is valid for
wavefunctions supported away from the outflow region.

The equivariance residual checks U† L̂_H U = L̂_{H∘η}, for a closed-form
composition H∘η, on the lift alone: ‖L̂_H(UΨ) - U(L̂_{H∘η}Ψ)‖ / ‖Ψ‖. The
numerator is ‖U(U† L̂_H U Ψ - L̂_{H∘η}Ψ)‖, and a unitary U preserves the norm,
so the two forms agree; this one needs only the lift's own backward flow.
Off the horizons where the flow permutes the nodes, the discrete U is
unitary only up to the spline's interpolation floor, which then bounds both
forms (test_composition_at_other_angles).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import PhaseGrid, ScalarField, l2_norm
from .hamiltonian import (
    Characteristics,
    HamiltonianSpec,
    backward_characteristics,
    central_gradient,
    flow_map,
    flow_with_action,
)
from .kvh import WaveFunction, apply_prequantum, characteristics_oracle


@dataclass
class ContactTransform:
    """Lift of a Hamiltonian flow to the prequantum bundle.

    generator: the Hamiltonian G whose flow is lifted.
    time: flow time.
    flow_dt: step used when integrating trajectories.
    """

    generator: HamiltonianSpec
    time: float
    grid: PhaseGrid
    flow_dt: float = 1e-3

    @cached_property
    def backward(self) -> Characteristics:
        """Every grid node flowed back by `time`, computed once per transform;
        exited nodes are recorded in `exited` and zeroed by the action."""
        return backward_characteristics(self.generator, self.grid, self.time, self.flow_dt)

    def eta(self, q, p):
        """Forward flow map."""
        return flow_map(self.generator, self.time, (q, p), self.flow_dt)

    def connection_residual(self) -> float:
        """L2 residual of the membership condition eta*A + dphi = A."""
        g = self.grid
        _, pc = self.eta(g.Q, g.P)

        def eta_q_and_action(q, p):
            qf, _, action = flow_with_action(self.generator, self.time, q, p, self.flow_dt)
            return qf, action

        # one flow per displaced node set serves both off-grid central differences
        (deta_q, daction_q), (deta_p, daction_p) = central_gradient(eta_q_and_action, g.Q, g.P)
        # pullback (eta*A)_i = p(eta(z)) * d eta_q / d z_i; phi = -action
        res_q = pc * deta_q - daction_q - g.P
        res_p = pc * deta_p - daction_p
        return float(
            np.sqrt(
                np.real(
                    (np.abs(res_q) ** 2 + np.abs(res_p) ** 2).sum() * g.dq * g.dp
                )
            )
        )


def apply_van_hove(T: ContactTransform, psi: WaveFunction) -> WaveFunction:
    """Unitary action: U Ψ(z) = exp(-i phi(η⁻¹ z)/ħ) Ψ(η⁻¹ z).

    phi evaluated at η⁻¹(z) is the action accumulated on the backward
    trajectory, so U is the characteristics oracle on the lift's backward
    characteristics.
    """
    return characteristics_oracle(psi, T.backward)


def equivariance_residual(
    T: ContactTransform,
    H: HamiltonianSpec,
    psi: WaveFunction,
    composed: HamiltonianSpec,
) -> float:
    """Relative residual of U† L̂_H U = L̂_{H∘η} on psi, for `composed` the
    closed form of H∘η, taken as ‖L̂_H(U psi) - U(L̂_{H∘η} psi)‖ / ‖psi‖.

    For a unitary U this is the norm of U†L̂_H U psi - L̂_{H∘η} psi, and both
    applications of U share T.backward, so no inverse flow is made. Off
    node-permuting horizons the spline floor bounds either form.
    """
    lhs = apply_prequantum(H, apply_van_hove(T, psi))
    rhs = apply_van_hove(T, apply_prequantum(composed, psi))
    diff = ScalarField(psi.grid, lhs.field.values - rhs.field.values)
    return l2_norm(diff) / psi.norm()
