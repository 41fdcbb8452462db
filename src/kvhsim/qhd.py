"""1D quantum hydrodynamics demonstrator.

Split-step Schrodinger evolution on a periodic configuration-space grid,
the hydrodynamic momentum map (momentum density, density), and the two
Madelung residuals (continuity and momentum balance with the quantum
potential). The particle has unit mass, and coherent states are those of
the unit-frequency oscillator V = x²/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import EvolutionAborted, _spectral_1d, spectral_ik, time_steps

MASK_EPS = 1e-6


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
        """d/dx along the last axis: of one sample, or of each row of a stack."""
        return _spectral_1d(values, self._ik, -1)

    def integrate(self, values: np.ndarray):
        """Integral along the last axis: of one sample, or of each row of a stack."""
        return values.sum(axis=-1) * self.dx


@dataclass
class QWaveFunction:
    grid: LineGrid
    values: np.ndarray
    hbar: float = 1.0

    def norm(self) -> float:
        return float(np.sqrt(np.real(self.grid.integrate(np.abs(self.values) ** 2))))

    def copy(self) -> "QWaveFunction":
        return QWaveFunction(self.grid, self.values.copy(), self.hbar)


class UnresolvedStateError(ValueError):
    """A sampled state has a zero or non-finite norm on its grid."""


def coherent_state(grid: LineGrid, x0: float, p0: float, hbar: float = 1.0) -> QWaveFunction:
    """Gaussian coherent state of V = x²/2, normalized on the grid.

    A zero or non-finite sampled norm, as from a width sqrt(ħ) far below the
    grid spacing, raises UnresolvedStateError."""
    width = np.sqrt(hbar)
    values = np.exp(
        -((grid.x - x0) ** 2) / (2 * width**2) + 1j * p0 * grid.x / hbar
    ).astype(complex)
    psi = QWaveFunction(grid, values, hbar)
    norm = psi.norm()
    if not (np.isfinite(norm) and norm > 0):
        raise UnresolvedStateError(
            f"coherent state at hbar = {hbar:.3g} (width {width:.3g}) has norm {norm:.3g} "
            f"on a grid of spacing dx = {grid.dx:.3g}"
        )
    psi.values /= norm
    return psi


def schrodinger_evolve(psi0: QWaveFunction, V: np.ndarray, t_final: float, dt: float):
    """Strang split-step evolution of iħ dpsi/dt = -ħ²/2 psi'' + V psi.

    Returns (times, snapshots), a snapshot at every step: the residuals use
    centered time differences, so the snapshot spacing enters squared. V
    must be sampled on the grid. A non-finite step raises EvolutionAborted,
    whose t is the last kept time.
    """
    g = psi0.grid
    hbar = psi0.hbar
    V = np.asarray(V, dtype=float)
    if V.shape != (g.n,):
        raise ValueError("potential must be sampled on the grid")
    n_steps, dt = time_steps(t_final, dt)
    half_v = np.exp(-0.5j * V * dt / hbar)
    kinetic = np.exp(-0.5j * hbar * g.k**2 * dt)
    values = psi0.values.astype(complex).copy()
    times = [0.0]
    snaps = [psi0.copy()]
    for step in range(1, n_steps + 1):
        values = half_v * values
        values = np.fft.ifft(kinetic * np.fft.fft(values))
        values = half_v * values
        if not np.all(np.isfinite(values)):
            raise EvolutionAborted(f"NaN in Schrodinger evolution at step {step}", times[-1])
        times.append(step * dt)
        snaps.append(QWaveFunction(g, values.copy(), hbar))
    return times, snaps


def quantum_madelung_momap(psi: QWaveFunction):
    """(momentum density, density) = (ħ Im(conj(psi) psi'), |psi|²).

    psi.values may stack several samples, one per row; each row is mapped
    as if alone.
    """
    mu = psi.hbar * np.imag(np.conj(psi.values) * psi.grid.ddx(psi.values))
    D = np.abs(psi.values) ** 2
    return mu, D


# interior snapshots per band of the residual series: a quarter period at
# dt 2.5e-3 stacked whole held 17 MB of temporaries in the Bohm residual
_SERIES_BAND = 64


def _bands(times, snapshots):
    """(times, snapshots) of consecutive bands of interior snapshots, each
    band with the neighbour on either side that its time differences read."""
    for a in range(0, len(snapshots) - 2, _SERIES_BAND):
        b = min(a + _SERIES_BAND + 2, len(snapshots))
        yield times[a:b], snapshots[a:b]


def _series(times, snapshots):
    """The snapshots stacked one per row: the centered time steps of the
    interior rows, as a column, and the momentum map (mu, D) of every row,
    each computed once."""
    t = np.asarray(times, dtype=float)
    first = snapshots[0]
    stack = QWaveFunction(first.grid, np.array([s.values for s in snapshots]), first.hbar)
    return (t[2:] - t[:-2])[:, None], *quantum_madelung_momap(stack)


def continuity_residual(times, snapshots):
    """L2 residual time-series of dD/dt + mu' at interior snapshots, each
    band of snapshots evaluated in one pass over its stacked series."""
    g = snapshots[0].grid
    out = []
    for band_times, band in _bands(times, snapshots):
        dt_c, mu, D = _series(band_times, band)
        res = (D[2:] - D[:-2]) / dt_c + g.ddx(mu[1:-1])
        out += np.sqrt(g.integrate(res**2)).tolist()
    return out


def bohm_potential_residual(times, snapshots, V: np.ndarray):
    """L2 residual of dv/dt + v v' + (V + Q)' over the supported region.

    v = mu/D; nodes where D is at or below MASK_EPS at the snapshot or
    its neighbors are excluded. Spatial derivatives are only ever taken
    of the globally smooth fields mu, D and V, then combined pointwise;
    differentiating masked ratios (v, Q) directly would spray Gibbs
    oscillations from the density tails across the whole line. Each band
    of snapshots is evaluated in one pass over its stacked series.
    """
    g = snapshots[0].grid
    hbar = snapshots[0].hbar
    # local stencils for the potential: V need not be periodic, and the
    # spectral derivative of a non-periodic sample is polluted everywhere
    Vx = np.gradient(np.asarray(V, dtype=float), g.dx, edge_order=2)
    out = []
    for band_times, band in _bands(times, snapshots):
        dt_c, mu_all, D_all = _series(band_times, band)
        # each snapshot's own velocity, masked by its own density alone
        supported = D_all > MASK_EPS
        v_all = np.where(supported, mu_all / np.where(supported, D_all, 1.0), 0.0)
        mu, D = mu_all[1:-1], D_all[1:-1]
        mask = supported[1:-1] & supported[:-2] & supported[2:]
        if not mask.any(axis=-1).all():
            raise ValueError("entire domain masked; density too small everywhere")
        Ds = np.where(mask, D, 1.0)
        v = np.where(mask, mu / Ds, 0.0)
        dv = (v_all[2:] - v_all[:-2]) / dt_c
        # v' = (mu' D - mu D') / D^2, pointwise
        D1 = g.ddx(D)
        vx = (g.ddx(mu) * D - mu * D1) / Ds**2
        # Q' from the log form Q = -(hbar^2/4)(D''/D - D'^2/(2 D^2))
        D2 = g.ddx(D1)
        D3 = g.ddx(D2)
        Qx = -(hbar**2 / 4) * (D3 / Ds - 2 * D1 * D2 / Ds**2 + D1**3 / Ds**3)
        res = np.where(mask, dv + v * vx + (Vx + Qx), 0.0)
        out += np.sqrt(g.integrate(res**2)).tolist()
    return out
