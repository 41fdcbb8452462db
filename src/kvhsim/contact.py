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

from .grid import ScalarField, l2_norm
# unused here, but perfbench's tracer test reads contact.flow_with_action
from .hamiltonian import Characteristics, HamiltonianSpec, flow_with_action  # noqa: F401
from .kvh import WaveFunction, apply_prequantum, characteristics_oracle


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
