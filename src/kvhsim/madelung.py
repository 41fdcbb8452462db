"""Hydrodynamic (Madelung) layer on phase space.

Polar decomposition of wavefunctions, the momentum-map expressions for
the classical density, and the two equivalent evolution systems: polar
variables (S, D) and hydrodynamic variables (sigma, D).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .grid import (
    PhaseGrid,
    ScalarField,
    divergence,
    poisson_bracket,
    rk4_steps,
)
from .hamiltonian import (
    HamiltonianSpec,
    OneForm,
    canonical_one_form,
    coefficient_fields,
    jmap,
    self_broadcast,
)
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
    """Phase S (units of action) and density D.

    mask is None for globally defined smooth S; otherwise it marks where
    the phase could be unwrapped (density above the polar threshold).
    """

    S: ScalarField
    D: ScalarField
    mask: np.ndarray | None = None
    n_components: int = 1
    component_offsets: tuple = ()


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


def _neighbors(iq, ip, n_q, n_p):
    yield (iq - 1) % n_q, ip
    yield (iq + 1) % n_q, ip
    yield iq, (ip - 1) % n_p
    yield iq, (ip + 1) % n_p


def polar_decompose(psi: WaveFunction) -> PolarPair:
    """Polar form Ψ = sqrt(D) exp(iS/ħ) with flood-fill phase unwrapping.

    Unwrapping starts from the density maximum and proceeds by breadth
    first search over nodes with D > 1e-8 max D; each disconnected support
    component gets its own (reported) phase offset. S is zero off-support.
    """
    g = psi.grid
    v = psi.field.values
    D = np.abs(v) ** 2
    mask = D > 1e-8 * D.max()
    theta = np.zeros_like(D)
    angle = np.angle(v)
    visited = np.zeros_like(mask)
    offsets = []
    remaining = mask.copy()
    while remaining.any():
        start = np.unravel_index(np.argmax(np.where(remaining, D, -np.inf)), D.shape)
        offsets.append(float(angle[start]))
        theta[start] = angle[start]
        visited[start] = True
        remaining[start] = False
        queue = deque([start])
        while queue:
            iq, ip = queue.popleft()
            for jq, jp in _neighbors(iq, ip, g.n_q, g.n_p):
                if mask[jq, jp] and not visited[jq, jp]:
                    jump = angle[jq, jp] - angle[iq, ip]
                    jump = (jump + np.pi) % (2 * np.pi) - np.pi
                    theta[jq, jp] = theta[iq, ip] + jump
                    visited[jq, jp] = True
                    remaining[jq, jp] = False
                    queue.append((jq, jp))
    S = psi.hbar * theta
    S[~mask] = 0.0
    return PolarPair(
        S=ScalarField(g, S),
        D=ScalarField(g, D),
        mask=None if mask.all() else mask,
        n_components=len(offsets),
        component_offsets=tuple(offsets),
    )


def reconstruct_wavefunction(pair: PolarPair, hbar: float = 1.0) -> WaveFunction:
    values = np.sqrt(np.maximum(pair.D.values, 0.0)) * np.exp(
        1j * pair.S.values / hbar
    )
    return WaveFunction(ScalarField(pair.S.grid, values), hbar)


def classical_density(psi: WaveFunction) -> ScalarField:
    """Momentum map to densities: |Ψ|² - div(JA |Ψ|²) + iħ{Ψ, conj Ψ}.

    In canonical coordinates JA = (0, -p), so the middle term is
    +d/dp(p |Ψ|²). The result is real up to round-off.
    """
    g = psi.grid
    abssq = np.abs(psi.field.values) ** 2
    A = canonical_one_form(g)
    ja_q, ja_p = jmap(A)
    div_term = divergence(
        ScalarField(g, ja_q.values * abssq), ScalarField(g, ja_p.values * abssq)
    )
    bracket = poisson_bracket(psi.field, psi.field.conj())
    rho = abssq - div_term.values + 1j * psi.hbar * bracket.values
    return ScalarField(g, np.real(rho))


def classical_density_from_hydro(h: HydroState) -> ScalarField:
    """Alternative density representation: D + div(J sigma - J A D)."""
    g = h.grid
    js_q, js_p = jmap(h.sigma)
    A = canonical_one_form(g)
    ja_q, ja_p = jmap(A)
    v_q = ScalarField(g, js_q.values - ja_q.values * h.D.values)
    v_p = ScalarField(g, js_p.values - ja_p.values * h.D.values)
    return ScalarField(g, h.D.values + divergence(v_q, v_p).values)


class MaskedPhaseError(ValueError):
    """Operation requires a globally defined smooth phase."""


def evolve_polar(pair: PolarPair, H: HamiltonianSpec, t_final: float, dt: float, stride: int = 0):
    """RK4 evolution of the polar-variable transport
        dS/dt = L_H + {H, S},  dD/dt = {H, D}
    for an unmasked pair, coefficients sampled once; returns (times,
    snapshots), a snapshot every `stride` steps and at t_final. A masked
    pair raises MaskedPhaseError, a non-finite step EvolutionAborted."""
    if pair.mask is not None:
        raise MaskedPhaseError("masked polar decomposition not accepted; supply smooth S")
    g = pair.S.grid
    a, b, lh = coefficient_fields(H, g)
    work = np.empty((g.n_q, g.n_p))

    def rhs(S, D, out):
        dS, dD = out
        g.bracket(a, b, S, out=dS, work=work)
        np.add(lh, dS, out=dS)
        g.bracket(a, b, D, out=dD, work=work)

    state = (pair.S.values.astype(float), pair.D.values.astype(float))
    times, snaps = [], []
    for t, (S, D) in chain([(0.0, state)], rk4_steps(rhs, state, t_final, dt, stride)):
        times.append(t)
        snaps.append(PolarPair(ScalarField(g, S.copy()), ScalarField(g, D.copy())))
    return times, snaps


def _lie_coefficients(H: HamiltonianSpec, g: PhaseGrid):
    """(dH/dq, dH/dp) on the grid, so X_H = (dH/dp, -dH/dq), and the Jacobian
    rows of X_H ((d_q Xq, d_q Xp), (d_p Xq, d_p Xp))."""
    if H.h_qq is None or H.h_qp is None or H.h_pp is None:
        raise ValueError(f"{H.name}: second partials required for Lie-derivative transport")
    a, b, _ = coefficient_fields(H, g)
    h_qq = self_broadcast(H.h_qq(g.Q, g.P), g)
    h_qp = self_broadcast(H.h_qp(g.Q, g.P), g)
    h_pp = self_broadcast(H.h_pp(g.Q, g.P), g)
    return a, b, ((h_qp, -h_qq), (h_pp, -h_qp))


def _lie_derivative_one_form(tau_q, tau_p, coeffs, g: PhaseGrid, out=None, work=None):
    """Coordinate formula (£_X tau)_i = X·grad(tau_i) + tau_j d_i X^j for X = X_H,
    with the advection X_H·grad(tau_i) = -{H, tau_i}.

    Written into the pair `out`, with `work` as a temporary, when given; each
    sum is rounded left to right as written.
    """
    a, b, jacobian = coeffs
    if out is None:
        out = np.empty_like(tau_q), np.empty_like(tau_q)
        work = np.empty_like(tau_q)
    for lie, tau, (dXq, dXp) in zip(out, (tau_q, tau_p), jacobian):
        np.negative(g.bracket(a, b, tau, out=lie, work=work), out=lie)
        np.add(lie, np.multiply(tau_q, dXq, out=work), out=lie)
        np.add(lie, np.multiply(tau_p, dXp, out=work), out=lie)
    return out


def one_form_transport_residual(snapshots, times, H: HamiltonianSpec):
    """Residual time-series of (d/dt + £_{X_H})(dS - A) = 0.

    The time derivative is a centered difference between neighboring
    snapshots, so residuals are reported at interior snapshot times.
    """
    if len(snapshots) < 3:
        raise ValueError("need at least three snapshots for a centered time derivative")
    g = snapshots[0].S.grid
    taus = []
    for pair in snapshots:
        if pair.mask is not None:
            raise MaskedPhaseError("transport residual requires smooth unmasked S")
        tau_q = g.ddq(pair.S.values) - g.P
        tau_p = g.ddp(pair.S.values)
        taus.append((tau_q, tau_p))
    coeffs = _lie_coefficients(H, g)
    out = []
    for k in range(1, len(snapshots) - 1):
        dt_c = times[k + 1] - times[k - 1]
        dtau_q = (taus[k + 1][0] - taus[k - 1][0]) / dt_c
        dtau_p = (taus[k + 1][1] - taus[k - 1][1]) / dt_c
        lie_q, lie_p = _lie_derivative_one_form(taus[k][0], taus[k][1], coeffs, g)
        res = np.sqrt(
            ((dtau_q + lie_q) ** 2 + (dtau_p + lie_p) ** 2).sum() * g.dq * g.dp
        )
        out.append(float(res))
    return out


def evolve_hydro(h0: HydroState, H: HamiltonianSpec, t_final: float, dt: float) -> HydroState:
    """RK4 time stepping of the Lie-Poisson hydrodynamic system: transport of
    tau = sigma - D A by
        d tau/dt + £_{X_H} tau = 0,  dD/dt + div(D X_H) = 0,
    assembled back in (sigma, D) variables, coefficients sampled once.
    A non-finite step raises EvolutionAborted.
    """
    g = h0.grid
    coeffs = _lie_coefficients(H, g)
    Xq, Xp = coeffs[1], -coeffs[0]
    tau_q, work, work2 = (np.empty((g.n_q, g.n_p)) for _ in range(3))

    def rhs(sq, sp, D, out):
        dsigma_q, dsigma_p, dD = out
        # tau = sigma - D A, A = p dq
        np.subtract(sq, np.multiply(D, g.P, out=tau_q), out=tau_q)
        lie_q, lie_p = _lie_derivative_one_form(
            tau_q, sp, coeffs, g, out=(dsigma_q, dsigma_p), work=work
        )
        # dD = -(dq(D Xq) + dp(D Xp))
        g.ddq(np.multiply(D, Xq, out=work), out=dD)
        g.ddp(np.multiply(D, Xp, out=work), out=work2)
        np.negative(np.add(dD, work2, out=dD), out=dD)
        # dsigma_q = -lie_q + dD p, dsigma_p = -lie_p
        np.add(np.negative(lie_q, out=lie_q), np.multiply(dD, g.P, out=work), out=lie_q)
        np.negative(lie_p, out=lie_p)

    state = (
        h0.sigma.a_q.values.astype(float),
        h0.sigma.a_p.values.astype(float),
        h0.D.values.astype(float),
    )
    for _ in rk4_steps(rhs, state, t_final, dt):
        pass
    sq, sp, D = state
    return HydroState(OneForm(ScalarField(g, sq), ScalarField(g, sp)), ScalarField(g, D))


def hydro_energy(h: HydroState, H: HamiltonianSpec) -> float:
    """h(sigma, D) = integral of (X_H · sigma - D L_H)."""
    g = h.grid
    a, b, lh = coefficient_fields(H, g)
    Xq, Xp = b, -a
    integrand = Xq * h.sigma.a_q.values + Xp * h.sigma.a_p.values - h.D.values * lh
    return float(np.real(g.integrate_values(integrand)))
