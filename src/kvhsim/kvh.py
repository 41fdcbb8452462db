"""Koopman wavefunctions, the prequantum operator and unitary evolution.

The covariant Liouvillian acting on a wavefunction is
    iħ {H, Ψ} - L_H Ψ,  L_H = p dH/dp - H,
with the bracket term built from closed-form Hamiltonian partials and
grid derivatives of Ψ. Time stepping is explicit RK4 on the full
complex field; unitarity is monitored, not enforced.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import (
    EvolutionAborted,
    GridMismatchError,
    PhaseGrid,
    ScalarField,
    interpolate_field,  # noqa: F401  perfbench traces it under this module's name
    l2_norm,
    rk4_steps,
)
from .hamiltonian import (
    Characteristics,
    HamiltonianSpec,
    PolynomialHamiltonian,
    coefficient_fields,
)


@dataclass
class WaveFunction:
    """Koopman wavefunction: complex field on phase space with a scale ħ."""

    field: ScalarField
    hbar: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.field.values.dtype.kind != "c":
            self.field = ScalarField(self.field.grid, self.field.values.astype(complex))

    @property
    def grid(self) -> PhaseGrid:
        return self.field.grid

    def norm(self) -> float:
        return l2_norm(self.field)

    def copy(self) -> "WaveFunction":
        return WaveFunction(self.field.copy(), self.hbar)


def gaussian_wavepacket(
    grid: PhaseGrid,
    center=(0.0, 0.0),
    sigma=(1.0, 1.0),
    phase: Callable | None = None,
    hbar: float = 1.0,
) -> WaveFunction:
    """Normalized Gaussian on phase space, optionally with phase exp(iS/ħ).

    `phase` is a callable S(q, p) in units of action.
    """
    q0, p0 = center
    sq, sp = sigma
    env = np.exp(-((grid.Q - q0) ** 2) / (4 * sq**2) - ((grid.P - p0) ** 2) / (4 * sp**2))
    values = env.astype(complex)
    if phase is not None:
        values = values * np.exp(1j * phase(grid.Q, grid.P) / hbar)
    psi = WaveFunction(ScalarField(grid, values), hbar)
    psi.field.values /= psi.norm()
    return psi


def _check_compatible(a: WaveFunction, b: WaveFunction) -> None:
    if not a.grid.same_geometry(b.grid):
        raise GridMismatchError("wavefunctions live on different grids")
    if a.hbar != b.hbar:
        raise GridMismatchError("wavefunctions carry different hbar")


def hermitian_inner(psi1: WaveFunction, psi2: WaveFunction) -> complex:
    """<psi1|psi2> = integral of conj(psi1) psi2 dz."""
    _check_compatible(psi1, psi2)
    return complex(psi1.grid.integrate_values(np.conj(psi1.field.values) * psi2.field.values))


def apply_prequantum(H: HamiltonianSpec, psi: WaveFunction, coefficients=None) -> WaveFunction:
    """Covariant Liouvillian: iħ {H, Ψ} - L_H Ψ.

    coefficients: (dH/dq, dH/dp, L_H) of `coefficient_fields` on psi's grid,
    sampled here when not given.
    """
    grid = psi.grid
    a, b, lh = coefficient_fields(H, grid) if coefficients is None else coefficients
    values = 1j * psi.hbar * grid.bracket(a, b, psi.field.values) - lh * psi.field.values
    return WaveFunction(ScalarField(grid, values), psi.hbar)


@dataclass
class Trajectory:
    """The first and the latest snapshot of an evolution, with the time and
    the conserved quantities of every kept snapshot."""

    times: list
    initial: WaveFunction
    latest: WaveFunction
    norms: list = field(default_factory=list)
    energies: list = field(default_factory=list)

    def final(self):
        return self.latest


def evolve(
    H: HamiltonianSpec,
    psi0: WaveFunction,
    t_final: float,
    dt: float,
    stride: int = 0,
    record_energy: bool = True,
) -> Trajectory:
    """Time-step the wavefunction transport dΨ/dt = {H, Ψ} + (i/ħ) L_H Ψ with
    classical RK4.

    stride: snapshot every `stride` steps (0 keeps only start and end). Every
    snapshot adds its time, norm and energy to the trajectory, but only the
    first and the latest field are held: the latest is copied into one
    array for the whole run. A non-finite step raises EvolutionAborted
    carrying the last snapshot and its time.
    """
    grid = psi0.grid
    hbar = psi0.hbar
    a, b, lh = coefficient_fields(H, grid)
    phase_rate = (1j / hbar) * lh

    work = np.empty((grid.n_q, grid.n_p), complex)

    def rhs(values, out):
        # {H, Ψ} + (i/ħ) L_H Ψ, rounded as written left to right;
        # rk4_steps steps a tuple of fields, here the wavefunction alone
        (d,) = out
        grid.bracket(a, b, values, out=d, work=work)
        np.multiply(phase_rate, values, out=work)
        np.add(d, work, out=d)

    cfl = dt * (np.max(np.abs(b)) / grid.dq + np.max(np.abs(a)) / grid.dp)
    if cfl > 0.5:
        warnings.warn(
            f"advisory CFL number {cfl:.2f} exceeds 0.5",
            RuntimeWarning,
        )

    def record(t, psi):
        traj.times.append(t)
        traj.norms.append(psi.norm())
        if record_energy:
            traj.energies.append(kvh_energy(H, psi, (a, b, lh)))

    state = (psi0.field.values.astype(complex),)
    initial = WaveFunction(ScalarField(grid, state[0].copy()), hbar)
    traj = Trajectory(times=[], initial=initial, latest=initial)
    record(0.0, initial)
    try:
        for t, (values,) in rk4_steps(rhs, state, t_final, dt, stride):
            if traj.latest is initial:
                traj.latest = WaveFunction(ScalarField(grid, values.copy()), hbar)
            else:
                np.copyto(traj.latest.field.values, values)
            record(t, traj.latest)
    except EvolutionAborted as exc:
        exc.last_good = traj.final()
        raise
    return traj


def characteristics_oracle(psi0: WaveFunction, ch: Characteristics) -> WaveFunction:
    """Exact KvH solution by the method of characteristics: the pullback of
    psi0 along `ch` times the accumulated-action phase exp(-i action/ħ).

    Nodes whose characteristic left the box are zero. `ch` must be flowed on
    psi0's grid.
    """
    values = ch.phase(psi0.hbar) * ch.pullback(psi0.field).values
    return WaveFunction(ScalarField(psi0.grid, values), psi0.hbar)


def kvh_energy(H: HamiltonianSpec, psi: WaveFunction, coefficients=None) -> float:
    """h(Ψ) = <Ψ| L̂_H Ψ>; real up to Hermiticity round-off. `coefficients`
    as for `apply_prequantum`."""
    return hermitian_inner(psi, apply_prequantum(H, psi, coefficients)).real


def commutator_residual(H: HamiltonianSpec, F: HamiltonianSpec, psi: WaveFunction) -> float:
    """Relative residual of [L̂_H, L̂_F] = iħ L̂_{H,F} on psi.

    Both Hamiltonians must be polynomial, so that the Poisson bracket {H,F}
    has a closed form.
    """
    if not (isinstance(H, PolynomialHamiltonian) and isinstance(F, PolynomialHamiltonian)):
        raise ValueError("closed-form {H,F} required for non-polynomial inputs")
    hf = apply_prequantum(H, apply_prequantum(F, psi))
    fh = apply_prequantum(F, apply_prequantum(H, psi))
    hb = apply_prequantum(H.poisson_with(F), psi)
    resid = (
        hf.field.values
        - fh.field.values
        - 1j * psi.hbar * hb.field.values
    )
    return l2_norm(ScalarField(psi.grid, resid)) / psi.norm()
