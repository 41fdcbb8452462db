"""1D quantum hydrodynamics demonstrator."""

import numpy as np
import pytest

from kvhsim.qhd import (
    MASK_EPS,
    LineGrid,
    QWaveFunction,
    UnresolvedStateError,
    bohm_potential_residual,
    coherent_state,
    continuity_residual,
    quantum_madelung_momap,
    schrodinger_evolve,
)
from reference import quantum_energy


@pytest.fixture
def grid():
    return LineGrid(-10.0, 10.0, 256)


@pytest.fixture
def harmonic(grid):
    return 0.5 * grid.x**2


class TestStates:
    def test_coherent_state_normalized(self, grid):
        psi = coherent_state(grid, x0=1.0, p0=0.5)
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("hbar", [1e-300, 1e-30])
    def test_unresolved_coherent_state_is_refused(self, grid, hbar):
        # the width sqrt(hbar) is far below dx, so every sample underflows to 0
        with pytest.raises(UnresolvedStateError, match=r"hbar = .*dx = 0\.0781"):
            coherent_state(grid, x0=1.0, p0=0.0, hbar=hbar)

    def test_plane_wave_momentum_density(self, grid):
        k = 2 * np.pi * 3 / 20.0  # grid-commensurate wavenumber
        values = np.exp(1j * k * grid.x) / np.sqrt(20.0)
        psi = QWaveFunction(grid, values)
        mu, D = quantum_madelung_momap(psi)
        np.testing.assert_allclose(mu, k * D, atol=1e-12)


class TestEvolution:
    def test_norm_and_energy_conserved(self, grid, harmonic):
        psi0 = coherent_state(grid, x0=1.0, p0=0.0)
        times, snaps = schrodinger_evolve(psi0, harmonic, 1.0, 1e-3)
        assert abs(snaps[-1].norm() - 1.0) < 1e-12
        e0 = quantum_energy(snaps[0], harmonic)
        e1 = quantum_energy(snaps[-1], harmonic)
        assert abs(e1 - e0) < 1e-7

    def test_ground_state_density_stationary(self, grid, harmonic):
        psi0 = coherent_state(grid, x0=0.0, p0=0.0)
        _, snaps = schrodinger_evolve(psi0, harmonic, 1.0, 1e-3)
        d0 = np.abs(snaps[0].values) ** 2
        d1 = np.abs(snaps[-1].values) ** 2
        # split-step phase errors leave a tiny density ripple
        assert np.max(np.abs(d1 - d0)) < 1e-6

    def test_potential_shape_checked(self, grid):
        psi0 = coherent_state(grid, x0=0.0, p0=0.0)
        with pytest.raises(ValueError):
            schrodinger_evolve(psi0, np.zeros(7), 0.1, 1e-2)

    def test_a_snapshot_at_every_step(self, grid, harmonic):
        psi0 = coherent_state(grid, x0=1.0, p0=0.0)
        times, snaps = schrodinger_evolve(psi0, harmonic, 0.03, 1e-2)
        assert times == pytest.approx([0.0, 0.01, 0.02, 0.03])
        assert len(snaps) == 4


class TestHydrodynamicResiduals:
    def test_continuity(self, grid, harmonic):
        psi0 = coherent_state(grid, x0=1.0, p0=0.0)
        times, snaps = schrodinger_evolve(psi0, harmonic, 0.2, 1e-3)
        assert max(continuity_residual(times, snaps)) < 1e-5

    def test_bohm_momentum_balance(self, grid, harmonic):
        psi0 = coherent_state(grid, x0=1.0, p0=0.0)
        times, snaps = schrodinger_evolve(psi0, harmonic, 0.2, 1e-3)
        assert max(bohm_potential_residual(times, snaps, harmonic)) < 1e-4

    @pytest.mark.parametrize(
        "n, x0, p0, hbar",
        [(256, 1.0, 0.0, 1.0), (200, -2.0, 1.5, 0.5)],
        ids=["check-line", "moving-narrow"],
    )
    def test_batched_series_equal_the_per_snapshot_loops(self, n, x0, p0, hbar):
        g = LineGrid(-10.0, 10.0, n)
        V = 0.5 * g.x**2
        psi0 = coherent_state(g, x0=x0, p0=p0, hbar=hbar)
        times, snaps = schrodinger_evolve(psi0, V, 0.2, 1e-3)
        # the density tails fall below MASK_EPS, so the Bohm mask cuts in
        D = np.abs(snaps[0].values) ** 2
        assert (D <= MASK_EPS).any() and (D > MASK_EPS).any()
        cont, bohm = per_snapshot_residuals(times, snaps, V)
        assert np.array_equal(continuity_residual(times, snaps), cont)
        assert np.array_equal(bohm_potential_residual(times, snaps, V), bohm)

    def test_all_masked_rejected(self, grid, harmonic):
        # a peak density near 0.56e-8, below MASK_EPS at every node
        psi0 = coherent_state(grid, x0=1.0, p0=0.0)
        psi0.values *= 1e-4
        times, snaps = schrodinger_evolve(psi0, harmonic, 0.01, 1e-3)
        assert max(np.abs(s.values).max() ** 2 for s in snaps) < MASK_EPS
        with pytest.raises(ValueError, match="entire domain masked"):
            bohm_potential_residual(times, snaps, harmonic)



def per_snapshot_residuals(times, snapshots, V):
    """The continuity and Bohm residual series, one snapshot at a time: the
    reference the batched residuals must equal bit for bit."""
    g = snapshots[0].grid
    hbar = snapshots[0].hbar
    Vx = np.gradient(np.asarray(V, dtype=float), g.dx, edge_order=2)

    def vel(psi):
        mu, D = quantum_madelung_momap(psi)
        safe = np.where(D > MASK_EPS, D, 1.0)
        return np.where(D > MASK_EPS, mu / safe, 0.0), D

    cont, bohm = [], []
    for k in range(1, len(snapshots) - 1):
        dt_c = times[k + 1] - times[k - 1]
        v_prev, D_prev = vel(snapshots[k - 1])
        v_next, D_next = vel(snapshots[k + 1])
        mu, D = quantum_madelung_momap(snapshots[k])
        res = (D_next - D_prev) / dt_c + g.ddx(mu)
        cont.append(float(np.sqrt(np.real(g.integrate(res**2)))))
        mask = (D > MASK_EPS) & (D_prev > MASK_EPS) & (D_next > MASK_EPS)
        Ds = np.where(mask, D, 1.0)
        v = np.where(mask, mu / Ds, 0.0)
        dv = (v_next - v_prev) / dt_c
        D1 = g.ddx(D)
        vx = (g.ddx(mu) * D - mu * D1) / Ds**2
        D2 = g.ddx(D1)
        D3 = g.ddx(D2)
        Qx = -(hbar**2 / 4) * (D3 / Ds - 2 * D1 * D2 / Ds**2 + D1**3 / Ds**3)
        res = np.where(mask, dv + v * vx + (Vx + Qx), 0.0)
        bohm.append(float(np.sqrt(np.real(g.integrate(res**2)))))
    return cont, bohm
