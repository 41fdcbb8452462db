"""Hydrodynamic layer: momentum maps, polar evolution, one-form transport."""

import numpy as np
import pytest

from kvhsim import cli, madelung
from kvhsim.cli import (
    RunConfig,
    RunContext,
    _edge_content,
    apply_scenario_defaults,
    check_madelung,
    check_transport,
)
from kvhsim.grid import (
    FD4,
    PERIODIC,
    EvolutionAborted,
    GridMismatchError,
    NonFiniteFieldError,
    PhaseGrid,
    ScalarField,
    integrate,
)
from kvhsim.hamiltonian import HamiltonianSpec, coefficient_fields, scenario_hamiltonian
from kvhsim.kvh import gaussian_wavepacket, kvh_energy
from kvhsim.madelung import (
    PolarPair,
    _lie_coefficients,
    _lie_derivative_one_form,
    classical_density,
    evolve_polar,
    hydro_from_wavefunction,
    one_form_transport_residual,
)
from reference import bracket_density


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
        rho = classical_density(hydro_from_wavefunction(psi))
        assert np.real(integrate(rho)) == pytest.approx(1.0, abs=1e-10)

    def test_density_representations_agree(self):
        # the harmonic-kvh packet on its 64² periodic grid, clear of the box
        # edge to round-off: the (sigma, D) form and the bracket form agree
        # to round-off (8.9e-16 against a peak of 0.65)
        psi = RunContext(RunConfig()).initial_wavefunction()
        rho = classical_density(hydro_from_wavefunction(psi)).values
        assert np.max(np.abs(rho - bracket_density(psi).values)) <= 1e-13

    def test_fd4_density_representations_differ_at_fourth_order(self):
        # on FD4 stencils both forms carry their own 4th-order truncation
        # error (2.4e-3 against the exact density at 64²); they differ by
        # less than that, and the difference falls as h^4
        diffs = []
        for n in (64, 128):
            g = PhaseGrid(-8, 8, -8, 8, n, n, FD4)
            psi = gaussian_wavepacket(
                g, center=(0.5, 0.3), sigma=(0.7, 0.7), phase=lambda q, p: 0.3 * q - 0.2 * p
            )
            D = np.abs(psi.field.values) ** 2
            # sigma = D grad(0.3 q - 0.2 p), so rho = 2D - 0.2 ∂_q D + (p - 0.3) ∂_p D
            exact = D * (2 + 0.2 * (g.Q - 0.5) / 0.49 - (g.P - 0.3) ** 2 / 0.49)
            rho = classical_density(hydro_from_wavefunction(psi)).values
            rho_b = bracket_density(psi).values
            diffs.append(np.max(np.abs(rho - rho_b)))
            assert diffs[-1] < 0.5 * min(np.max(np.abs(rho - exact)), np.max(np.abs(rho_b - exact)))
        assert diffs[0] / diffs[1] > 12.0

    def test_nonfinite_wavefunction_rejected(self, grid, psi):
        psi.field.values[5, 7] = np.nan
        with pytest.raises(NonFiniteFieldError):
            classical_density(hydro_from_wavefunction(psi))

    def test_energy_representations_agree(self, grid, psi):
        # the KvH energy in hydrodynamic variables: integral of X_H·sigma - D L_H
        H = scenario_hamiltonian("harmonic")
        h = hydro_from_wavefunction(psi)
        a, b, lh = coefficient_fields(H, grid)
        integrand = b * h.sigma.a_q.values - a * h.sigma.a_p.values - h.D.values * lh
        e_hydro = float(np.real(grid.integrate_values(integrand)))
        assert kvh_energy(H, psi) == pytest.approx(e_hydro, abs=1e-10)


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

    def test_transport_residual_holds_three_one_forms(self, traced_peak):
        # 201 snapshots on 64², as in the transport check: the working set is
        # the Lie coefficients, three one-forms and the residual's temporaries
        # (27 fields), never one one-form per snapshot (424 fields)
        g = PhaseGrid(-8, 8, -8, 8, 64, 64)
        S = 0.3 * g.Q - 0.2 * g.P + 0.05 * g.Q * g.P
        times = [k * 2.5e-4 for k in range(201)]
        snaps = [PolarPair(ScalarField(g, (1 + t) * S), None) for t in times]
        H = scenario_hamiltonian("harmonic")
        peak = traced_peak(lambda: one_form_transport_residual(snaps, times, H))
        assert peak <= 32 * S.nbytes

    def test_transport_needs_three_snapshots(self):
        g, pair = polar_pair(24)
        with pytest.raises(ValueError):
            one_form_transport_residual([pair, pair], [0.0, 0.1], scenario_hamiltonian("free"))

    def test_unstable_step_raises(self):
        # dt 0.5 on 32 nodes is far beyond the RK4 limit; the pair overflows to NaN
        g, pair = polar_pair(32)
        H = scenario_hamiltonian("harmonic")
        with pytest.raises(EvolutionAborted, match="non-finite state"):
            evolve_polar(pair, H, 200.0, 0.5)

    @pytest.mark.parametrize(
        "d_grid",
        [
            PhaseGrid(-8, 8, -8, 8, 48, 40, PERIODIC),
            PhaseGrid(-8, 8, -8, 7, 48, 48, PERIODIC),
            PhaseGrid(-7.5, 8.5, -8, 8, 48, 48, FD4),
        ],
        ids=["n_p", "p_max", "shifted"],
    )
    def test_fields_on_different_nodes_rejected(self, d_grid):
        g, pair = polar_pair()
        D = ScalarField(d_grid, np.zeros((d_grid.n_q, d_grid.n_p)))
        with pytest.raises(GridMismatchError, match="different nodes"):
            evolve_polar(PolarPair(pair.S, D), scenario_hamiltonian("harmonic"), 0.01, 1e-3)

    def test_second_partials_required(self):
        # the one-form transport residual differentiates X_H, so a
        # Hamiltonian without its second partials cannot be built
        with pytest.raises(TypeError, match="'h_qq', 'h_qp', and 'h_pp'"):
            HamiltonianSpec(
                name="no2nd",
                h=lambda q, p: 0.5 * p**2,
                h_q=lambda q, p: 0.0 * q,
                h_p=lambda q, p: p + 0.0 * q,
            )


def test_harmonic_reference_stays_on_the_64_grid(monkeypatch):
    # at harmonic-kvh defaults the 64² reference's edge modes stay below the
    # fallback's 1e-9, so the check runs the polar pair and the reference on
    # those 64² nodes alone
    edges = []

    def edge_content(values):
        edges.append((values.shape, _edge_content(values)))
        return edges[-1][1]

    monkeypatch.setattr(cli, "_edge_content", edge_content)
    cfg = apply_scenario_defaults(RunConfig(scenario="harmonic-kvh"))
    (result,) = check_madelung(RunContext(cfg))
    assert len(edges) == 1
    shape, edge = edges[0]
    assert shape == (64, 64) and edge <= 1e-9
    assert result.value <= 1e-7


def test_small_hbar_solves_the_reference_on_the_polar_grid():
    # at ħ = 0.25 the packet chirps past the 64² grid by t = 1; refined from
    # there, the reference alone would be 6e-3 off and fail the check
    cfg = apply_scenario_defaults(RunConfig(scenario="harmonic-kvh", dt=2.5e-3, hbar=0.25))
    (result,) = check_madelung(RunContext(cfg))
    assert result.value < result.tol


def test_transport_solves_on_the_run_grid(monkeypatch):
    # the transport check solves S alone, on the run's n_q x n_p nodes
    pairs = []
    evolve_polar = madelung.evolve_polar

    def spy(pair, *args, **kwargs):
        pairs.append(pair)
        return evolve_polar(pair, *args, **kwargs)

    monkeypatch.setattr(madelung, "evolve_polar", spy)
    (result,) = check_transport(RunContext(RunConfig(n_q=64, n_p=48)))
    assert [(p.S.values.shape, p.D) for p in pairs] == [((64, 48), None)]
    assert result.passed


def test_phase_alone_evolves_as_beside_the_density():
    # at the transport check's settings, S evolved without D gives the same
    # snapshots and residuals, bit for bit, as S evolved beside D
    ctx = RunContext(RunConfig())
    pair = cli._polar_initial(ctx, 64, 64)
    H = ctx.H
    times, snaps = evolve_polar(pair, H, 0.05, 2.5e-4, stride=1)
    times_s, snaps_s = evolve_polar(PolarPair(pair.S, None), H, 0.05, 2.5e-4, stride=1)
    assert times_s == times
    assert all(s.D is None for s in snaps_s)
    assert all(np.array_equal(a.S.values, b.S.values) for a, b in zip(snaps_s, snaps, strict=True))
    assert one_form_transport_residual(snaps_s, times_s, H) == one_form_transport_residual(snaps, times, H)


def cartan_defect(name, n, bc):
    """Max defect of Cartan's formula: the Lie derivative of dF along X_H
    is d(X_H·grad F), for a Gaussian F well inside a box of n x n nodes."""
    g = PhaseGrid(-6, 6, -6, 6, n, n, bc)
    F = np.exp(-((g.Q - 0.3) ** 2) - (g.P + 0.2) ** 2)
    F_q, F_p = -2 * (g.Q - 0.3) * F, -2 * (g.P + 0.2) * F
    coeffs = _lie_coefficients(scenario_hamiltonian(name), g)
    a, b, _ = coeffs
    G = b * F_q - a * F_p
    lie_q, lie_p = _lie_derivative_one_form(F_q, F_p, coeffs, g)
    return max(np.max(np.abs(lie_q - g.ddq(G))), np.max(np.abs(lie_p - g.ddp(G))))


@pytest.mark.parametrize("name", ["harmonic", "quartic", "pendulum"])
def test_lie_derivative_of_exact_form_is_exact(name):
    # F is at round-off on the box edge, so spectral derivatives are exact
    assert cartan_defect(name, 96, PERIODIC) < 1e-9


@pytest.mark.parametrize("name", ["harmonic", "quartic", "pendulum"])
def test_lie_derivative_fd4_converges_at_fourth_order(name):
    assert cartan_defect(name, 96, FD4) / cartan_defect(name, 192, FD4) > 12.0
