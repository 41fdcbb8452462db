"""Hydrodynamic (Madelung) layer on phase space.

The momentum map of a wavefunction to hydrodynamic variables (sigma, D),
the momentum map of (sigma, D) to the classical density, and the polar
variables (S, D): their evolution and the residual of the transport law
of the one-form dS - A by the Lie derivative along X_H.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .grid import (
    GridMismatchError,
    PhaseGrid,
    ScalarField,
    divergence,
    rk4_steps,
)
from .hamiltonian import HamiltonianSpec, OneForm, coefficient_fields, self_broadcast
from .kvh import WaveFunction


@dataclass
class HydroState:
    """Momentum one-form and density: (sigma, D)."""

    sigma: OneForm
    D: ScalarField

    @property
    def grid(self) -> PhaseGrid:
        return self.D.grid


@dataclass
class PolarPair:
    """Smooth phase S (units of action) and density D; D is None where only
    S is evolved."""

    S: ScalarField
    D: ScalarField | None


def hydro_from_wavefunction(psi: WaveFunction) -> HydroState:
    """sigma = hbar Im(conj(Ψ) grad Ψ), D = |Ψ|²."""
    g = psi.grid
    v = psi.field.values
    conj_v = np.conj(v)
    sigma_q = psi.hbar * np.imag(conj_v * g.ddq(v))
    sigma_p = psi.hbar * np.imag(conj_v * g.ddp(v))
    D = np.abs(v) ** 2
    return HydroState(
        OneForm(ScalarField(g, sigma_q), ScalarField(g, sigma_p)),
        ScalarField(g, D),
    )


def classical_density(h: HydroState) -> ScalarField:
    """Momentum map to densities: D + ∂_q σ_p + ∂_p(pD - σ_q), which is
    D + div(Jσ - JA D) for A = p dq, JA = (0, -p). The one formula for the
    (σ, D) of wavefunctions and of kernels alike."""
    g = h.grid
    v_p = ScalarField(g, g.P * h.D.values - h.sigma.a_q.values)
    return ScalarField(g, h.D.values + divergence(h.sigma.a_p, v_p).values)


def evolve_polar(pair: PolarPair, H: HamiltonianSpec, t_final: float, dt: float, stride: int = 0):
    """RK4 evolution of the polar-variable transport
        dS/dt = L_H + {H, S},  dD/dt = {H, D}
    with coefficients sampled once; returns (times, snapshots), a snapshot
    every `stride` steps and at t_final. A non-finite step raises
    EvolutionAborted.

    The two fields do not couple, so each is differentiated on its own grid:
    S on pair.S.grid, D on pair.D.grid. Those must share their nodes (n_q,
    n_p and bounds), else GridMismatchError; their bc may differ. A pair
    whose D is None evolves S alone, bit for bit as beside a D, and its
    snapshots carry D = None.
    """
    gS = pair.S.grid
    state = (pair.S.values.astype(float),)
    if pair.D is not None:
        gD = pair.D.grid
        nodes = [(g.n_q, g.n_p, g.q_min, g.q_max, g.p_min, g.p_max) for g in (gS, gD)]
        if nodes[0] != nodes[1]:
            raise GridMismatchError(f"S and D lie on different nodes: {nodes[0]} and {nodes[1]}")
        state += (pair.D.values.astype(float),)
    a, b, lh = coefficient_fields(H, gS)
    work = np.empty((gS.n_q, gS.n_p))

    def rhs(S, *D, out):
        dS = out[0]
        gS.bracket(a, b, S, out=dS, work=work)
        np.add(lh, dS, out=dS)
        if D:
            gD.bracket(a, b, D[0], out=out[1], work=work)

    times, snaps = [], []
    for t, (S, *D) in chain([(0.0, state)], rk4_steps(rhs, state, t_final, dt, stride)):
        times.append(t)
        D_t = ScalarField(gD, D[0].copy()) if D else None
        snaps.append(PolarPair(ScalarField(gS, S.copy()), D_t))
    return times, snaps


def _lie_coefficients(H: HamiltonianSpec, g: PhaseGrid):
    """(dH/dq, dH/dp) on the grid, so X_H = (dH/dp, -dH/dq), and the Jacobian
    rows of X_H ((d_q Xq, d_q Xp), (d_p Xq, d_p Xp))."""
    a, b, _ = coefficient_fields(H, g)
    h_qq = self_broadcast(H.h_qq(g.Q, g.P), g)
    h_qp = self_broadcast(H.h_qp(g.Q, g.P), g)
    h_pp = self_broadcast(H.h_pp(g.Q, g.P), g)
    return a, b, ((h_qp, -h_qq), (h_pp, -h_qp))


def _lie_derivative_one_form(tau_q, tau_p, coeffs, g: PhaseGrid):
    """Coordinate formula (£_X tau)_i = X·grad(tau_i) + tau_j d_i X^j for X = X_H,
    with the advection X_H·grad(tau_i) = -{H, tau_i}; each sum is rounded
    left to right as written.
    """
    a, b, jacobian = coeffs
    return tuple(
        -g.bracket(a, b, tau) + tau_q * dXq + tau_p * dXp
        for tau, (dXq, dXp) in zip((tau_q, tau_p), jacobian)
    )


def one_form_transport_residual(snapshots, times, H: HamiltonianSpec):
    """Residual time-series of (d/dt + £_{X_H})(dS - A) = 0.

    The time derivative is a centered difference between neighboring
    snapshots, so residuals are reported at interior snapshot times; only
    the one-forms of three neighboring snapshots are held at a time.
    """
    if len(snapshots) < 3:
        raise ValueError("need at least three snapshots for a centered time derivative")
    g = snapshots[0].S.grid
    taus = ((g.ddq(pair.S.values) - g.P, g.ddp(pair.S.values)) for pair in snapshots)
    coeffs = _lie_coefficients(H, g)
    prev, cur = next(taus), next(taus)
    out = []
    for k, nxt in enumerate(taus, start=1):
        dt_c = times[k + 1] - times[k - 1]
        dtau_q = (nxt[0] - prev[0]) / dt_c
        dtau_p = (nxt[1] - prev[1]) / dt_c
        lie_q, lie_p = _lie_derivative_one_form(cur[0], cur[1], coeffs, g)
        res = np.sqrt(
            ((dtau_q + lie_q) ** 2 + (dtau_p + lie_p) ** 2).sum() * g.dq * g.dp
        )
        out.append(float(res))
        prev, cur = cur, nxt
    return out
