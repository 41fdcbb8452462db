"""Hydrodynamic layer: momentum maps, polar evolution, one-form transport."""

import numpy as np
import pytest

from kvhsim import cli, kvh, madelung
from kvhsim.cli import (
    RunConfig,
    RunContext,
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
    _lie_derivative,
    classical_density,
    evolve_polar,
    hydro_from_wavefunction,
    one_form_transport_residual,
)
from reference import bracket_density, lie_derivative_coordinates


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
        snaps = [snap for _, snap in evolve_polar(pair, H, 0.5, 1e-3)]
        m0 = np.real(integrate(pair.D))
        m1 = np.real(integrate(snaps[-1].D))
        assert m1 == pytest.approx(m0, abs=1e-8)

    def test_transport_residual_small(self):
        g, pair = polar_pair()
        H = scenario_hamiltonian("harmonic")
        res = one_form_transport_residual(evolve_polar(pair, H, 0.05, 2.5e-4, stride=1), H)
        assert max(res) < 1e-5

    def test_transport_residual_holds_three_one_forms(self, traced_peak):
        # 201 snapshots on 64², as in the transport check: the working set is
        # the partials (a, b), three one-forms and the residual's temporaries
        # (21 fields), never one one-form per snapshot (424 fields)
        g = PhaseGrid(-8, 8, -8, 8, 64, 64)
        S = 0.3 * g.Q - 0.2 * g.P + 0.05 * g.Q * g.P
        times = [k * 2.5e-4 for k in range(201)]
        snaps = [PolarPair(ScalarField(g, (1 + t) * S), None) for t in times]
        H = scenario_hamiltonian("harmonic")
        peak = traced_peak(lambda: one_form_transport_residual(zip(times, snaps), H))
        assert peak <= 32 * S.nbytes

    def test_transport_over_a_stream_holds_a_window(self, traced_peak):
        # the residual reads the solve's stream on 64², as in the transport
        # check: its peak stays within a few fields whether the solve takes
        # 50 or 200 steps, never one field per snapshot
        g = PhaseGrid(-8, 8, -8, 8, 64, 64, FD4)
        S = ScalarField(g, 0.3 * g.Q - 0.2 * g.P + 0.05 * g.Q * g.P)
        H = scenario_hamiltonian("harmonic")

        def peak(n_steps):
            stream = evolve_polar(PolarPair(S, None), H, n_steps * 2.5e-4, 2.5e-4, stride=1)
            return traced_peak(lambda: one_form_transport_residual(stream, H))

        peak(50)  # the derivative scratch the solve caches is not under test
        field = S.values.nbytes
        assert peak(200) <= peak(50) + 2 * field
        assert peak(200) <= 40 * field

    def test_bad_step_raises_at_the_call(self):
        # like fields on different nodes, before the stream is read
        g, pair = polar_pair(24)
        with pytest.raises(ValueError, match="dt"):
            evolve_polar(pair, scenario_hamiltonian("harmonic"), 0.1, -1e-3)

    def test_transport_needs_three_snapshots(self):
        g, pair = polar_pair(24)
        with pytest.raises(ValueError):
            one_form_transport_residual(zip([0.0, 0.1], [pair, pair]), scenario_hamiltonian("free"))

    def test_unstable_step_raises(self):
        # dt 0.5 on 32 nodes is far beyond the RK4 limit; the pair overflows to NaN
        g, pair = polar_pair(32)
        H = scenario_hamiltonian("harmonic")
        stream = evolve_polar(pair, H, 200.0, 0.5)
        with pytest.raises(EvolutionAborted, match="non-finite state"):
            for _ in stream:
                pass

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
        # at the call: the stream is never read
        g, pair = polar_pair()
        D = ScalarField(d_grid, np.zeros((d_grid.n_q, d_grid.n_p)))
        with pytest.raises(GridMismatchError, match="different nodes"):
            evolve_polar(PolarPair(pair.S, D), scenario_hamiltonian("harmonic"), 0.01, 1e-3)

    def test_first_partials_suffice(self):
        # a non-polynomial H given by its value and first partials alone,
        # sqrt(1 + p²) + q²/2, drives the polar solve and the transport
        # residual on FD4 stencils; the residual is FD4 truncation, 2.8e-3
        # at 48² and 1.9e-4 at 96² on ±6, and falls as h^4
        H = HamiltonianSpec(
            name="relativistic",
            h=lambda q, p: np.sqrt(1 + p**2) + 0.5 * q**2,
            h_q=lambda q, p: q + 0.0 * p,
            h_p=lambda q, p: p / np.sqrt(1 + p**2) + 0.0 * q,
        )

        def residual(n):
            g = PhaseGrid(-6, 6, -6, 6, n, n, FD4)
            S0 = ScalarField(g, 0.3 * g.Q - 0.2 * g.P + 0.05 * g.Q * g.P)
            stream = evolve_polar(PolarPair(S0, None), H, 0.05, 2.5e-4, stride=1)
            res = one_form_transport_residual(stream, H)
            assert len(res) == 199
            return max(res)

        assert residual(48) / residual(96) > 12.0


def test_madelung_solves_on_the_run_grid(monkeypatch):
    # the polar pair and the wavefunction reference both solve on the run's
    # n_q x n_p nodes
    shapes = []
    evolve_polar, evolve = madelung.evolve_polar, kvh.evolve

    def spy_polar(pair, *args, **kwargs):
        shapes.append(("polar", pair.S.values.shape, pair.D.values.shape))
        return evolve_polar(pair, *args, **kwargs)

    def spy_evolve(H, psi, *args, **kwargs):
        shapes.append(("kvh", psi.field.values.shape))
        return evolve(H, psi, *args, **kwargs)

    monkeypatch.setattr(madelung, "evolve_polar", spy_polar)
    monkeypatch.setattr(kvh, "evolve", spy_evolve)
    (result,) = check_madelung(RunContext(RunConfig(n_q=64, n_p=48)))
    assert sorted(shapes) == [("kvh", (64, 48)), ("polar", (64, 48), (64, 48))]
    assert result.passed


def test_small_hbar_passes_on_a_stated_128_grid():
    # at ħ = 0.25 the packet chirps past 64² nodes by t = 1; on a 128² run
    # grid the polar pair and the reference still agree
    cfg = apply_scenario_defaults(
        RunConfig(scenario="harmonic-kvh", dt=2.5e-3, hbar=0.25, n_q=128, n_p=128)
    )
    (result,) = check_madelung(RunContext(cfg))
    assert result.value < 1e-6


def test_small_hbar_fails_on_the_default_grid(tmp_path):
    # the same run on the default 64² grid is a failed check, exit 1 with
    # the value in the report, not a configuration error
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nscenario = harmonic-kvh\nchecks = madelung\ndt = 2.5e-3\nhbar = 0.25\n")
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(ini), "--outdir", str(out)]) == 1
    report = dict(line.split(" = ") for line in (out / "report").read_text().splitlines())
    assert report["madelung_l2.status"] == "fail"
    assert float(report["madelung_l2"]) == pytest.approx(6.66e-3, rel=1e-2)


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
    pair = cli._polar_initial(ctx)
    H = ctx.H
    times, snaps = zip(*evolve_polar(pair, H, 0.05, 2.5e-4, stride=1))
    times_s, snaps_s = zip(*evolve_polar(PolarPair(pair.S, None), H, 0.05, 2.5e-4, stride=1))
    assert times_s == times
    assert all(s.D is None for s in snaps_s)
    assert all(np.array_equal(a.S.values, b.S.values) for a, b in zip(snaps_s, snaps, strict=True))
    assert one_form_transport_residual(zip(times_s, snaps_s), H) == one_form_transport_residual(zip(times, snaps), H)


# closed-form second partials (h_qq, h_qp, h_pp) of each scenario H, which
# only the coordinate formula of the reference needs
SECOND_PARTIALS = {
    "harmonic": (lambda q, p: 1.0, lambda q, p: 0.0, lambda q, p: 1.0),
    "quartic": (lambda q, p: 3 * q**2, lambda q, p: 0.0, lambda q, p: 1.0),
    "pendulum": (lambda q, p: np.cos(q), lambda q, p: 0.0, lambda q, p: 1.0),
}


def lie_gap(name, n, S):
    """Largest gap between the Cartan form of the residual's Lie derivative
    and the coordinate formula, for tau = dS - A on an n x n FD4 box."""
    g = PhaseGrid(-6, 6, -6, 6, n, n, FD4)
    H = scenario_hamiltonian(name)
    S = S(g.Q, g.P)
    tau_q, tau_p = g.ddq(S) - g.P, g.ddp(S)
    a, b, _ = coefficient_fields(H, g)
    lie = _lie_derivative(tau_q, tau_p, a, b, g)
    ref = lie_derivative_coordinates(tau_q, tau_p, H, SECOND_PARTIALS[name], g)
    return max(np.max(np.abs(x - y)) for x, y in zip(lie, ref))


@pytest.mark.parametrize("name", ["harmonic", "quartic"])
def test_lie_derivative_matches_coordinate_formula(name):
    # for a quadratic S every field either form differentiates is a
    # polynomial of degree at most 4, which FD4 differentiates exactly: the
    # two agree to round-off, 3.4e-12 (harmonic) and 8.5e-11 (quartic)
    assert lie_gap(name, 96, lambda q, p: 0.3 * q - 0.2 * p + 0.05 * q * p + 0.1 * q**2) < 1e-9


@pytest.mark.parametrize("name", ["harmonic", "quartic", "pendulum"])
def test_lie_derivative_agrees_with_coordinate_formula_at_fourth_order(name):
    # the two forms differ by FD4 truncation: the gap falls as h^4
    def S(q, p):
        return np.exp(-((q - 0.3) ** 2) - (p + 0.2) ** 2) + 0.3 * q - 0.2 * p

    assert lie_gap(name, 96, S) / lie_gap(name, 192, S) > 12.0


@pytest.mark.parametrize("scenario", ["harmonic-kvh", "free-kvh", "point-particle", "qhd-coherent"])
def test_transport_check_passes_at_scenario_defaults(tmp_path, scenario):
    argv = ["run", "--scenario", scenario, "--check", "transport", "--outdir", str(tmp_path / "o")]
    assert cli.main(argv) == 0
    assert "transport_residual.status = pass" in (tmp_path / "o" / "report").read_text()
