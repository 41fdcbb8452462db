"""Strict contact transformations and their unitary action on wavefunctions.

Only lifts of Hamiltonian flows are constructed: the time-t flow of X_G
paired with the phase accumulated from -L_G along the trajectories. Such
pairs preserve the connection one-form, and their unitary action reduces
to composition with the inverse flow times a phase (the flow has unit
Jacobian, so no density factor appears).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import PhaseGrid, ScalarField, l2_norm
from .hamiltonian import (
    Characteristics,
    HamiltonianSpec,
    backward_characteristics,
    central_gradient,
    check_on_exit,
    flow_jacobian,
    flow_map,
    flow_with_action,
)
from .kvh import WaveFunction, _prequantum, apply_prequantum, characteristics_oracle


@dataclass
class ContactTransform:
    """Lift of a Hamiltonian flow to the prequantum bundle.

    generator: the Hamiltonian G whose flow is lifted.
    time: flow time.
    theta: constant phase offset (the lift is unique only up to it).
    flow_dt: step used when integrating trajectories.
    on_exit: "error" rejects characteristics that leave the box; "zero"
    assigns zero there (valid for boundary-clear wavefunctions).
    """

    generator: HamiltonianSpec
    time: float
    theta: float
    grid: PhaseGrid
    flow_dt: float = 1e-3
    on_exit: str = "error"
    _inverse: "ContactTransform | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        check_on_exit(self.on_exit)

    @cached_property
    def backward(self) -> Characteristics:
        """Every grid node flowed back by `time`, computed once per transform."""
        return backward_characteristics(
            self.generator, self.grid, self.time, self.flow_dt, self.on_exit
        )

    def eta(self, q, p):
        """Forward flow map."""
        return flow_map(self.generator, self.time, (q, p), self.flow_dt)

    def jacobian_field(self) -> ScalarField:
        """Numerical Jacobian determinant of eta (should be 1)."""
        det = flow_jacobian(
            self.generator, self.time, self.grid.Q, self.grid.P, self.flow_dt
        )
        return ScalarField(self.grid, det)

    def inverse(self) -> "ContactTransform":
        """The lift of the time -t flow, built once, so that its `backward`
        is flowed once; the inverse of the inverse is this transform."""
        if self._inverse is None:
            inv = ContactTransform(
                self.generator, -self.time, -self.theta, self.grid, self.flow_dt, self.on_exit
            )
            inv._inverse = self
            self._inverse = inv
        return self._inverse

    def connection_residual(self) -> float:
        """L2 residual of the membership condition eta*A + dphi = A."""
        g = self.grid
        _, pc = self.eta(g.Q, g.P)

        def eta_q_and_action(q, p):
            qf, _, action = flow_with_action(self.generator, self.time, q, p, self.flow_dt)
            return qf, action

        # one flow per displaced node set serves both off-grid central differences
        (deta_q, daction_q), (deta_p, daction_p) = central_gradient(
            eta_q_and_action, g.Q, g.P, 1e-5
        )
        # pullback (eta*A)_i = p(eta(z)) * d eta_q / d z_i; phi = theta - action
        res_q = pc * deta_q - daction_q - g.P
        res_p = pc * deta_p - daction_p
        return float(
            np.sqrt(
                np.real(
                    (np.abs(res_q) ** 2 + np.abs(res_p) ** 2).sum() * g.dq * g.dp
                )
            )
        )


def lift_hamiltonian_flow(
    G: HamiltonianSpec,
    t: float,
    theta: float,
    grid: PhaseGrid,
    flow_dt: float = 1e-3,
    on_exit: str = "error",
) -> ContactTransform:
    """Lift the time-t flow of X_G to a strict contact transformation.

    on_exit is checked here and kept by the lift and its inverse.
    """
    T = ContactTransform(G, t, theta, grid, flow_dt, on_exit)
    if on_exit == "error":
        # fail early if grid nodes leave the box: the forward flow by t is the
        # inverse's backward flow, kept for the inverse's van Hove action
        T.inverse().backward
    return T


def apply_van_hove(T: ContactTransform, psi: WaveFunction) -> WaveFunction:
    """Unitary action: U Ψ(z) = exp(-i phi(η⁻¹ z)/ħ) Ψ(η⁻¹ z).

    phi evaluated at η⁻¹(z) equals theta plus the action accumulated on
    the backward trajectory, so U is the characteristics oracle on the
    lift's backward characteristics, times exp(-i theta/ħ).
    """
    moved = characteristics_oracle(psi, T.backward)
    values = np.exp(-1j * T.theta / psi.hbar) * moved.field.values
    return WaveFunction(ScalarField(psi.grid, values), psi.hbar)


def _composed_prequantum(
    T: ContactTransform, H: HamiltonianSpec, psi: WaveFunction
) -> WaveFunction:
    """Apply the prequantum operator of H∘η, built numerically.

    H∘η and its partials are sampled by flowing slightly displaced node
    sets and central-differencing the composed scalar with step 1e-4.
    """
    g = psi.grid

    def h_eta(q, p):
        qf, pf = T.eta(q, p)
        return H.h(qf, pf)

    hc = h_eta(g.Q, g.P)
    dh_q, dh_p = central_gradient(h_eta, g.Q, g.P, 1e-4)
    return _prequantum(psi, dh_q, dh_p, g.P * dh_p - hc)


def equivariance_residual(
    T: ContactTransform,
    H: HamiltonianSpec,
    psi: WaveFunction,
    composed: HamiltonianSpec | None = None,
) -> float:
    """Relative residual of U† L̂_H U = L̂_{H∘η} on psi.

    Pass `composed` when H∘η is known in closed form; otherwise it is
    constructed numerically from the flow.
    """
    lhs = apply_van_hove(T.inverse(), apply_prequantum(H, apply_van_hove(T, psi)))
    if composed is not None:
        rhs = apply_prequantum(composed, psi)
    else:
        rhs = _composed_prequantum(T, H, psi)
    diff = ScalarField(psi.grid, lhs.field.values - rhs.field.values)
    return l2_norm(diff) / psi.norm()
