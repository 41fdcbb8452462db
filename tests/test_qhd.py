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
    quantum_energy,
    quantum_madelung_momap,
    schrodinger_evolve,
)


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

    def test_all_masked_rejected(self, grid, harmonic):
        # a peak density near 0.56e-8, below MASK_EPS at every node
        psi0 = coherent_state(grid, x0=1.0, p0=0.0)
        psi0.values *= 1e-4
        times, snaps = schrodinger_evolve(psi0, harmonic, 0.01, 1e-3)
        assert max(np.abs(s.values).max() ** 2 for s in snaps) < MASK_EPS
        with pytest.raises(ValueError, match="entire domain masked"):
            bohm_potential_residual(times, snaps, harmonic)

