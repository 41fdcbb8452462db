"""Classical Liouville reference solvers."""

import numpy as np
import pytest

from kvhsim.grid import FD4, EvolutionAborted, GridMismatchError, PhaseGrid, ScalarField, l1_norm, integrate
from kvhsim.hamiltonian import (
    backward_characteristics,
    coefficient_fields,
    scenario_hamiltonian,
)
from kvhsim.liouville import evolve_pushforward, evolve_spectral


@pytest.fixture
def grid():
    return PhaseGrid(-8, 8, -8, 8, 128, 128)


@pytest.fixture
def rho0(grid):
    env = np.exp(
        -((grid.Q - 0.5) ** 2) / (2 * 0.7**2) - ((grid.P - 0.3) ** 2) / (2 * 0.7**2)
    )
    return ScalarField(grid, env / np.real(grid.integrate_values(env)))


def test_rhs_annihilates_functions_of_h(grid):
    # {H, f(H)} = 0; spectral errors only
    H = scenario_hamiltonian("harmonic")
    f = np.exp(-(grid.Q**2 + grid.P**2) / 2)
    a, b, _ = coefficient_fields(H, grid)
    assert np.max(np.abs(grid.bracket(a, b, f))) < 1e-10


def test_pushforward_vs_spectral(grid, rho0):
    H = scenario_hamiltonian("harmonic")
    a = evolve_pushforward(rho0, backward_characteristics(H, grid, 0.5, 1e-3))
    b = evolve_spectral(rho0, H, 0.5, 1e-3)
    # bicubic interpolation floor of the semi-Lagrangian path
    assert l1_norm(ScalarField(grid, a.values - b.values)) < 1e-4


def test_mass_conserved(grid, rho0):
    H = scenario_hamiltonian("harmonic")
    out = evolve_spectral(rho0, H, 1.0, 1e-3)
    assert np.real(integrate(out)) == pytest.approx(1.0, abs=1e-10)


def test_pushforward_zero_time(grid, rho0):
    ch = backward_characteristics(scenario_hamiltonian("free"), grid, 0.0, 1e-3)
    out = evolve_pushforward(rho0, ch)
    np.testing.assert_array_equal(out.values, rho0.values)


def test_pushforward_grid_mismatch(rho0):
    other = PhaseGrid(-8, 8, -8, 8, 64, 64)
    ch = backward_characteristics(scenario_hamiltonian("free"), other, 0.1, 1e-2)
    with pytest.raises(GridMismatchError):
        evolve_pushforward(rho0, ch)


def test_pushforward_domain_exit():
    g = PhaseGrid(-2, 2, -2, 2, 32, 32)
    rho = ScalarField(g, np.exp(-(g.Q**2 + g.P**2) / 0.1))
    ch = backward_characteristics(scenario_hamiltonian("free"), g, 2.0, 1e-3)
    out = evolve_pushforward(rho, ch)
    assert ch.exited.any() and np.all(out.values[ch.exited] == 0)
    assert np.all(np.isfinite(out.values))


def test_full_period_returns_initial(grid, rho0):
    H = scenario_hamiltonian("harmonic")
    out = evolve_pushforward(rho0, backward_characteristics(H, grid, 2 * np.pi, 1e-3))
    assert l1_norm(ScalarField(grid, out.values - rho0.values)) < 1e-7


def test_spectral_unstable_step_raises():
    # dt 0.5 on 32 nodes is far beyond the RK4 limit; the density overflows to NaN
    g = PhaseGrid(-8, 8, -8, 8, 32, 32, FD4)
    rho = ScalarField(g, np.exp(-((g.Q - 0.5) ** 2 + (g.P - 0.3) ** 2) / (2 * 0.8**2)))
    with pytest.raises(EvolutionAborted, match="non-finite state"):
        evolve_spectral(rho, scenario_hamiltonian("harmonic"), 200.0, 0.5)
