"""Hydrodynamic layer: momentum maps, polar decomposition, transport."""

import numpy as np
import pytest

from kvhsim.grid import FD4, EvolutionAborted, PhaseGrid, ScalarField, integrate, l1_norm
from kvhsim.hamiltonian import OneForm, scenario_hamiltonian
from kvhsim.kvh import gaussian_wavepacket, kvh_energy
from kvhsim.madelung import (
    HydroState,
    MaskedPhaseError,
    PolarPair,
    classical_density,
    classical_density_from_hydro,
    evolve_hydro,
    evolve_polar,
    hydro_energy,
    hydro_from_wavefunction,
    one_form_transport_residual,
    polar_decompose,
    reconstruct_wavefunction,
)


@pytest.fixture
def grid():
    return PhaseGrid(-8, 8, -8, 8, 128, 128)


@pytest.fixture
def psi(grid):
    return gaussian_wavepacket(
        grid, center=(0.5, 0.3), sigma=(0.8, 0.8), phase=lambda q, p: 0.3 * q - 0.2 * p
    )


def polar_pair(n=48):
    g = PhaseGrid(-8, 8, -8, 8, n, n, FD4)
    S0 = ScalarField(g, 0.3 * g.Q - 0.2 * g.P + 0.05 * g.Q * g.P)
    env = np.exp(-((g.Q - 0.5) ** 2 + (g.P - 0.3) ** 2) / (2 * 0.8**2))
    D0 = ScalarField(g, env / np.real(g.integrate_values(env)))
    return g, PolarPair(S0, D0)


class TestMomentumMaps:
    def test_sigma_equals_density_times_grad_phase(self, psi):
        # for psi = sqrt(D) exp(iS/hbar), sigma = D grad S
        h = hydro_from_wavefunction(psi)
        D = np.abs(psi.field.values) ** 2
        np.testing.assert_allclose(h.sigma.a_q.values, 0.3 * D, atol=1e-8)
        np.testing.assert_allclose(h.sigma.a_p.values, -0.2 * D, atol=1e-8)

    def test_classical_density_mass(self, psi):
        rho = classical_density(psi)
        assert np.real(integrate(rho)) == pytest.approx(1.0, abs=1e-10)

    def test_density_representations_agree(self, grid, psi):
        rho = classical_density(psi)
        rho_h = classical_density_from_hydro(hydro_from_wavefunction(psi))
        assert l1_norm(ScalarField(grid, rho.values - rho_h.values)) < 1e-8

    def test_energy_representations_agree(self, psi):
        H = scenario_hamiltonian("harmonic")
        e_wave = kvh_energy(H, psi)
        e_hydro = hydro_energy(hydro_from_wavefunction(psi), H)
        assert e_wave == pytest.approx(e_hydro, abs=1e-10)


class TestPolarDecomposition:
    def test_roundtrip(self, grid):
        psi = gaussian_wavepacket(
            grid, center=(0.0, 0.0), sigma=(1.2, 1.2), phase=lambda q, p: 0.2 * q + 0.1 * p
        )
        pair = polar_decompose(psi)
        back = reconstruct_wavefunction(pair, psi.hbar)
        # agreement on the unwrapped support
        mask = pair.mask if pair.mask is not None else np.ones_like(
            psi.field.values, dtype=bool
        )
        err = np.max(np.abs((back.field.values - psi.field.values)[mask]))
        assert err < 1e-10
        assert pair.n_components == 1

    def test_masked_phase_rejected_by_evolve_polar(self):
        psi = gaussian_wavepacket(PhaseGrid(-8, 8, -8, 8, 48, 48, FD4), sigma=(0.5, 0.5))
        pair = polar_decompose(psi)
        assert pair.mask is not None
        with pytest.raises(MaskedPhaseError):
            evolve_polar(pair, scenario_hamiltonian("harmonic"), 0.01, 1e-3)


class TestPolarEvolution:
    def test_density_mass_conserved(self):
        g, pair = polar_pair()
        H = scenario_hamiltonian("harmonic")
        _, snaps = evolve_polar(pair, H, 0.5, 1e-3)
        m0 = np.real(integrate(pair.D))
        m1 = np.real(integrate(snaps[-1].D))
        assert m1 == pytest.approx(m0, abs=1e-8)

    def test_transport_residual_small(self):
        g, pair = polar_pair()
        H = scenario_hamiltonian("harmonic")
        times, snaps = evolve_polar(pair, H, 0.05, 2.5e-4, stride=1)
        res = one_form_transport_residual(snaps, times, H)
        assert max(res) < 1e-5

    def test_transport_needs_three_snapshots(self):
        g, pair = polar_pair(24)
        with pytest.raises(ValueError):
            one_form_transport_residual([pair, pair], [0.0, 0.1], scenario_hamiltonian("free"))

    def test_hydro_evolution_matches_polar(self):
        # evolve (sigma, D) directly and via (S, D); compare sigma = D grad S
        g, pair = polar_pair()
        H = scenario_hamiltonian("harmonic")
        from kvhsim.hamiltonian import OneForm

        sigma0 = OneForm(
            ScalarField(g, pair.D.values * g.ddq(pair.S.values)),
            ScalarField(g, pair.D.values * g.ddp(pair.S.values)),
        )
        from kvhsim.madelung import HydroState

        h_t = evolve_hydro(HydroState(sigma0, pair.D), H, 0.2, 1e-3)
        _, snaps = evolve_polar(pair, H, 0.2, 1e-3)
        p_t = snaps[-1]
        ref_q = p_t.D.values * g.ddq(p_t.S.values)
        scale = np.max(np.abs(ref_q))
        # the two discretizations differ at the FD4 truncation level of the
        # coarse 48-node grid; the gap shrinks by ~16x per refinement
        assert np.max(np.abs(h_t.sigma.a_q.values - ref_q)) / scale < 2e-2
        np.testing.assert_allclose(h_t.D.values, p_t.D.values, atol=1e-5)

    def test_unstable_step_raises(self):
        # dt 0.5 on 32 nodes is far beyond the RK4 limit; the pair overflows to NaN
        g, pair = polar_pair(32)
        H = scenario_hamiltonian("harmonic")
        sigma0 = OneForm(
            ScalarField(g, pair.D.values * g.ddq(pair.S.values)),
            ScalarField(g, pair.D.values * g.ddp(pair.S.values)),
        )
        with pytest.raises(EvolutionAborted, match="non-finite state"):
            evolve_polar(pair, H, 200.0, 0.5)
        with pytest.raises(EvolutionAborted, match="non-finite state"):
            evolve_hydro(HydroState(sigma0, pair.D), H, 200.0, 0.5)

    def test_second_partials_required(self):
        g, pair = polar_pair(24)
        from kvhsim.hamiltonian import HamiltonianSpec
        from kvhsim.madelung import HydroState
        from kvhsim.hamiltonian import OneForm

        H = HamiltonianSpec(
            name="no2nd",
            h=lambda q, p: 0.5 * p**2,
            h_q=lambda q, p: 0.0 * q,
            h_p=lambda q, p: p + 0.0 * q,
        )
        state = HydroState(
            OneForm(ScalarField(g, g.P * pair.D.values), ScalarField(g, 0 * g.P)),
            pair.D,
        )
        with pytest.raises(ValueError, match="second partials"):
            evolve_hydro(state, H, 0.01, 1e-3)
