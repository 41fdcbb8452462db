"""1D quantum hydrodynamics demonstrator.

Split-step Schrodinger evolution on a periodic configuration-space grid,
the hydrodynamic momentum map (momentum density, density), and the two
Madelung residuals (continuity and momentum balance with the quantum
potential).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import _spectral_1d, spectral_ik, time_steps


@dataclass(eq=False)
class LineGrid:
    """Uniform periodic grid on configuration space."""

    x_min: float
    x_max: float
    n: int

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @cached_property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    @cached_property
    def _ik(self) -> np.ndarray:
        return spectral_ik(self.n, self.dx)

    @cached_property
    def k(self) -> np.ndarray:
        # the kinetic phase needs the Nyquist mode, which _ik drops
        return 2 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    def ddx(self, values: np.ndarray) -> np.ndarray:
        return _spectral_1d(values, self._ik, 0)

    def integrate(self, values: np.ndarray):
        return values.sum() * self.dx


@dataclass
class QWaveFunction:
    grid: LineGrid
    values: np.ndarray
    hbar: float = 1.0
    mass: float = 1.0

    def norm(self) -> float:
        return float(np.sqrt(np.real(self.grid.integrate(np.abs(self.values) ** 2))))

    def copy(self) -> "QWaveFunction":
        return QWaveFunction(self.grid, self.values.copy(), self.hbar, self.mass)


def coherent_state(
    grid: LineGrid, x0: float, p0: float, omega: float = 1.0, hbar: float = 1.0, mass: float = 1.0
) -> QWaveFunction:
    """Gaussian coherent state of the harmonic oscillator, normalized on the grid."""
    width = np.sqrt(hbar / (mass * omega))
    values = np.exp(
        -((grid.x - x0) ** 2) / (2 * width**2) + 1j * p0 * grid.x / hbar
    ).astype(complex)
    psi = QWaveFunction(grid, values, hbar, mass)
    psi.values /= psi.norm()
    return psi


def schrodinger_evolve(
    psi0: QWaveFunction, V: np.ndarray, t_final: float, dt: float, stride: int = 0
):
    """Strang split-step evolution of iħ dpsi/dt = -ħ²/(2m) psi'' + V psi.

    Returns (times, snapshots). V must be sampled on the grid.
    """
    g = psi0.grid
    hbar, mass = psi0.hbar, psi0.mass
    V = np.asarray(V, dtype=float)
    if V.shape != (g.n,):
        raise ValueError("potential must be sampled on the grid")
    n_steps, dt = time_steps(t_final, dt)
    half_v = np.exp(-0.5j * V * dt / hbar)
    kinetic = np.exp(-0.5j * hbar * g.k**2 * dt / mass)
    values = psi0.values.astype(complex).copy()
    times = [0.0]
    snaps = [psi0.copy()]
    for step in range(1, n_steps + 1):
        values = half_v * values
        values = np.fft.ifft(kinetic * np.fft.fft(values))
        values = half_v * values
        if not np.all(np.isfinite(values)):
            raise RuntimeError(f"NaN in Schrodinger evolution at step {step}")
        if (stride and step % stride == 0) or step == n_steps:
            times.append(step * dt)
            snaps.append(QWaveFunction(g, values.copy(), hbar, mass))
    return times, snaps


def quantum_madelung_momap(psi: QWaveFunction):
    """(momentum density, density) = (ħ Im(conj(psi) psi'), |psi|²)."""
    mu = psi.hbar * np.imag(np.conj(psi.values) * psi.grid.ddx(psi.values))
    D = np.abs(psi.values) ** 2
    return mu, D


def quantum_energy(psi: QWaveFunction, V: np.ndarray) -> float:
    g = psi.grid
    dpsi = g.ddx(psi.values)
    kinetic = (psi.hbar**2 / (2 * psi.mass)) * np.abs(dpsi) ** 2
    potential = V * np.abs(psi.values) ** 2
    return float(np.real(g.integrate(kinetic + potential)))


def continuity_residual(times, snapshots):
    """L2 residual time-series of dD/dt + (mu/m)' at interior snapshots."""
    g = snapshots[0].grid
    mass = snapshots[0].mass
    out = []
    for k in range(1, len(snapshots) - 1):
        dt_c = times[k + 1] - times[k - 1]
        D_prev = np.abs(snapshots[k - 1].values) ** 2
        D_next = np.abs(snapshots[k + 1].values) ** 2
        dD = (D_next - D_prev) / dt_c
        mu, _ = quantum_madelung_momap(snapshots[k])
        res = dD + g.ddx(mu / mass)
        out.append(float(np.sqrt(np.real(g.integrate(res**2)))))
    return out


def bohm_potential_residual(times, snapshots, V: np.ndarray, mask_eps: float = 1e-6):
    """L2 residual of dv/dt + v v' + (1/m)(V + Q)' over the supported region.

    v = mu/(m D); nodes where D falls below mask_eps at the snapshot or
    its neighbors are excluded. Spatial derivatives are only ever taken
    of the globally smooth fields mu, D and V, then combined pointwise;
    differentiating masked ratios (v, Q) directly would spray Gibbs
    oscillations from the density tails across the whole line.
    """
    g = snapshots[0].grid
    hbar, mass = snapshots[0].hbar, snapshots[0].mass
    # local stencils for the potential: V need not be periodic, and the
    # spectral derivative of a non-periodic sample is polluted everywhere
    Vx = np.gradient(np.asarray(V, dtype=float), g.dx, edge_order=2)

    def vel(psi):
        mu, D = quantum_madelung_momap(psi)
        safe = np.where(D > mask_eps, D, 1.0)
        return np.where(D > mask_eps, mu / (mass * safe), 0.0), D

    out = []
    for k in range(1, len(snapshots) - 1):
        dt_c = times[k + 1] - times[k - 1]
        v_prev, D_prev = vel(snapshots[k - 1])
        v_next, D_next = vel(snapshots[k + 1])
        mu, D = quantum_madelung_momap(snapshots[k])
        mask = (D > mask_eps) & (D_prev > mask_eps) & (D_next > mask_eps)
        if not mask.any():
            raise ValueError("entire domain masked; density too small everywhere")
        Ds = np.where(mask, D, 1.0)
        v = np.where(mask, mu / (mass * Ds), 0.0)
        dv = (v_next - v_prev) / dt_c
        # v' = (mu' D - mu D') / (m D^2), pointwise
        D1 = g.ddx(D)
        vx = (g.ddx(mu) * D - mu * D1) / (mass * Ds**2)
        # Q' from the log form Q = -(hbar^2/4m)(D''/D - D'^2/(2 D^2))
        D2 = g.ddx(D1)
        D3 = g.ddx(D2)
        Qx = -(hbar**2 / (4 * mass)) * (D3 / Ds - 2 * D1 * D2 / Ds**2 + D1**3 / Ds**3)
        res = np.where(mask, dv + v * vx + (Vx + Qx) / mass, 0.0)
        out.append(float(np.sqrt(np.real(g.integrate(res**2)))))
    return out

