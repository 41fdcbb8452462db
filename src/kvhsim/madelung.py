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
    time_steps,
)
from .hamiltonian import HamiltonianSpec, OneForm, coefficient_fields
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
    with coefficients sampled once. Yields (t, snapshot) pairs: the initial
    pair at t = 0, then one every `stride` steps and one at t_final. Each
    snapshot holds its own copies of the fields, so a consumer keeps what
    it reads and no more. A non-finite step raises EvolutionAborted where
    the stream is read.

    The two fields do not couple, so each is differentiated on its own grid:
    S on pair.S.grid, D on pair.D.grid. Those must share their nodes (n_q,
    n_p and bounds), else GridMismatchError at the call; their bc may
    differ. A pair whose D is None evolves S alone, bit for bit as beside a
    D, and its snapshots carry D = None.
    """
    gS = pair.S.grid
    gD = None if pair.D is None else pair.D.grid
    if gD is not None:
        nodes = [(g.n_q, g.n_p, g.q_min, g.q_max, g.p_min, g.p_max) for g in (gS, gD)]
        if nodes[0] != nodes[1]:
            raise GridMismatchError(f"S and D lie on different nodes: {nodes[0]} and {nodes[1]}")
    time_steps(t_final, dt)  # a bad horizon or step raises here, not where the stream is read
    return _polar_stream(pair, gS, gD, H, t_final, dt, stride)


def _polar_stream(pair: PolarPair, gS: PhaseGrid, gD: PhaseGrid | None, H, t_final, dt, stride):
    state = (pair.S.values.astype(float),)
    if gD is not None:
        state += (pair.D.values.astype(float),)
    a, b, lh = coefficient_fields(H, gS)
    work = np.empty((gS.n_q, gS.n_p))

    def rhs(S, *D, out):
        dS = out[0]
        gS.bracket(a, b, S, out=dS, work=work)
        np.add(lh, dS, out=dS)
        if D:
            gD.bracket(a, b, D[0], out=out[1], work=work)

    for t, (S, *D) in chain([(0.0, state)], rk4_steps(rhs, state, t_final, dt, stride)):
        D_t = ScalarField(gD, D[0].copy()) if D else None
        yield t, PolarPair(ScalarField(gS, S.copy()), D_t)


def _lie_derivative(tau_q, tau_p, a, b, g: PhaseGrid):
    """£_X tau for X = X_H and tau = dS - A, by Cartan's formula
    £_X = i_X d + d i_X: d tau = -dA = dq∧dp and i_X(dq∧dp) = dH = (a, b),
    so £_X tau = (a, b) + d(i_X tau) with i_X tau = tau_q b - tau_p a.
    Takes the first partials a = dH/dq, b = dH/dp and two grid derivatives.
    """
    G = tau_q * b - tau_p * a
    return a + g.ddq(G), b + g.ddp(G)


def one_form_transport_residual(stream, H: HamiltonianSpec):
    """Residual time-series of (d/dt + £_{X_H})(dS - A) = 0 along a stream
    of (t, PolarPair), as evolve_polar yields it.

    The time derivative is a centered difference between neighboring
    snapshots, so residuals are reported at interior snapshot times. The
    stream is read once: only the one-forms of three neighboring snapshots
    are held at a time, never the snapshots themselves.
    """
    a = b = None
    window = []  # (t, tau_q, tau_p) of at most three neighboring snapshots
    out = []
    for t, pair in stream:
        g = pair.S.grid
        if a is None:
            a, b = coefficient_fields(H, g)[:2]
        del window[:-2]
        window.append((t, g.ddq(pair.S.values) - g.P, g.ddp(pair.S.values)))
        if len(window) < 3:
            continue
        (t_prev, *prev), (_, *cur), (t_next, *nxt) = window
        dt_c = t_next - t_prev
        dtau_q = (nxt[0] - prev[0]) / dt_c
        dtau_p = (nxt[1] - prev[1]) / dt_c
        lie_q, lie_p = _lie_derivative(cur[0], cur[1], a, b, g)
        res = np.sqrt(
            ((dtau_q + lie_q) ** 2 + (dtau_p + lie_p) ** 2).sum() * g.dq * g.dp
        )
        out.append(float(res))
    if not out:
        raise ValueError("need at least three snapshots for a centered time derivative")
    return out
