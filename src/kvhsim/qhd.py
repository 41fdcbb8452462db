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
    def k(self) -> np.ndarray:
        # the kinetic phase needs the Nyquist mode, which spectral_ik drops
        return 2 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    def ddx(self, values: np.ndarray) -> np.ndarray:
        """d/dx along the last axis: of one sample, or of each row of a stack."""
        return _spectral_1d(values, spectral_ik(self.n, self.dx), -1)

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

    Yields (t, snapshot) pairs, psi0's copy at t = 0 and then one after
    every step: the residuals use centered time differences, so the
    snapshot spacing enters squared. Each snapshot owns its values, so a
    consumer keeps what it reads and no more. V must be sampled on the
    grid, else ValueError at the call; a bad horizon or step raises there
    too. A non-finite step raises EvolutionAborted where the stream is
    read, whose t is the last yielded time.
    """
    g = psi0.grid
    V = np.asarray(V, dtype=float)
    if V.shape != (g.n,):
        raise ValueError("potential must be sampled on the grid")
    n_steps, dt = time_steps(t_final, dt)
    return _split_steps(psi0, V, n_steps, dt)


def _split_steps(psi0: QWaveFunction, V: np.ndarray, n_steps: int, dt: float):
    g = psi0.grid
    hbar = psi0.hbar
    half_v = np.exp(-0.5j * V * dt / hbar)
    kinetic = np.exp(-0.5j * hbar * g.k**2 * dt)
    values = psi0.values.astype(complex).copy()
    yield 0.0, psi0.copy()
    for step in range(1, n_steps + 1):
        # every product is a new array, so the one yielded is never overwritten
        values = half_v * values
        values = np.fft.ifft(kinetic * np.fft.fft(values))
        values = half_v * values
        if not np.all(np.isfinite(values)):
            raise EvolutionAborted(f"NaN in Schrodinger evolution at step {step}", (step - 1) * dt)
        yield step * dt, QWaveFunction(g, values, hbar)


def quantum_madelung_momap(psi: QWaveFunction):
    """(momentum density, density) = (ħ Im(conj(psi) psi'), |psi|²).

    psi.values may stack several samples, one per row; each row is mapped
    as if alone.
    """
    mu = psi.hbar * np.imag(np.conj(psi.values) * psi.grid.ddx(psi.values))
    D = np.abs(psi.values) ** 2
    return mu, D


# interior snapshots per band of the residual series: the band's stacked
# temporaries, not the snapshots, set the peak memory of the qhd check
_SERIES_BAND = 32


def snapshot_bands(stream):
    """Consecutive bands of a (t, snapshot) stream, as lists of pairs: each
    band's interior snapshots with the neighbour on either side that their
    centered time differences read, so consecutive bands share two pairs.
    Only one band of at most _SERIES_BAND + 2 pairs is held at a time. A
    stream of fewer than three snapshots has no interior snapshot and
    raises ValueError.
    """
    band = []
    yielded = False
    for pair in stream:
        band.append(pair)
        if len(band) == _SERIES_BAND + 2:
            yield band
            yielded = True
            band = band[-2:]
    if len(band) > 2:
        yield band
    elif not yielded:
        raise ValueError("need at least three snapshots for a centered time derivative")


def _series(band):
    """The band's snapshots stacked one per row: the centered time steps of
    the interior rows, as a column, and the momentum map (mu, D) of every
    row, each computed once."""
    t = np.asarray([t for t, _ in band], dtype=float)
    first = band[0][1]
    stack = QWaveFunction(first.grid, np.array([s.values for _, s in band]), first.hbar)
    return (t[2:] - t[:-2])[:, None], *quantum_madelung_momap(stack)


def continuity_residual(stream):
    """L2 residual time-series of dD/dt + mu' at the interior snapshots of a
    (t, snapshot) stream, each band of snapshot_bands evaluated in one pass
    over its stacked series."""
    out = []
    for band in snapshot_bands(stream):
        g = band[0][1].grid
        dt_c, mu, D = _series(band)
        res = (D[2:] - D[:-2]) / dt_c + g.ddx(mu[1:-1])
        out += np.sqrt(g.integrate(res**2)).tolist()
    return out


def bohm_potential_residual(stream, V: np.ndarray):
    """L2 residual of dv/dt + v v' + (V + Q)' over the supported region, at
    the interior snapshots of a (t, snapshot) stream.

    v = mu/D; nodes where D is at or below MASK_EPS at the snapshot or
    its neighbors are excluded. Spatial derivatives are only ever taken
    of the globally smooth fields mu, D and V, then combined pointwise;
    differentiating masked ratios (v, Q) directly would spray Gibbs
    oscillations from the density tails across the whole line. Each band
    of snapshot_bands is evaluated in one pass over its stacked series.
    """
    out = []
    for band in snapshot_bands(stream):
        g, hbar = band[0][1].grid, band[0][1].hbar
        # local stencils for the potential: V need not be periodic, and the
        # spectral derivative of a non-periodic sample is polluted everywhere
        Vx = np.gradient(np.asarray(V, dtype=float), g.dx, edge_order=2)
        dt_c, mu_all, D_all = _series(band)
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
