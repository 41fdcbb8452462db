"""The in-place RK4 solvers against an out-of-place RK4 loop of their formulas.

`grid.rk4_step` steps every field solver and the Hamiltonian flow in
preallocated buffers, and each right-hand side writes into them. Both must
round exactly as the plain out-of-place loop below does on the right-hand
sides written as formulas, so every array must come out equal, not merely
close.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from kvhsim.grid import FD4, PERIODIC, PhaseGrid, ScalarField, time_steps
from kvhsim.hamiltonian import coefficient_fields, flow_with_action, scenario_hamiltonian
from kvhsim.kvh import evolve, gaussian_wavepacket
from kvhsim.madelung import PolarPair, evolve_polar
from reference import evolve_spectral

T_FINAL, DT = 0.02, 2e-3


def reference_rk4(rhs, state, t_final, dt):
    """Classical RK4 to t_final, every stage and step a new array; a negative
    t_final steps backwards."""
    n_steps, dt = time_steps(abs(t_final), dt)
    dt = math.copysign(dt, t_final)
    for _ in range(n_steps):
        k1 = rhs(*state)
        k2 = rhs(*(s + 0.5 * dt * k for s, k in zip(state, k1)))
        k3 = rhs(*(s + 0.5 * dt * k for s, k in zip(state, k2)))
        k4 = rhs(*(s + dt * k for s, k in zip(state, k3)))
        state = tuple(
            s + (dt / 6) * (a + 2 * b + 2 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)
        )
    return state


@pytest.fixture(params=[PERIODIC, FD4])
def grid(request):
    return PhaseGrid(-3, 3, -3, 3, 24, 20, request.param)


@pytest.fixture(params=["harmonic", "quartic", "pendulum"])
def H(request):
    return scenario_hamiltonian(request.param)


@pytest.fixture
def psi(grid):
    return gaussian_wavepacket(
        grid, center=(0.5, 0.2), sigma=(0.5, 0.5), phase=lambda q, p: 0.3 * q - 0.2 * p
    )


def test_kvh_evolve(grid, H, psi):
    a, b, lh = coefficient_fields(H, grid)
    phase_rate = (1j / psi.hbar) * lh

    def rhs(v):
        return (a * grid.ddp(v) - b * grid.ddq(v) + phase_rate * v,)

    (ref,) = reference_rk4(rhs, (psi.field.values,), T_FINAL, DT)
    out = evolve(H, psi, T_FINAL, DT, record_energy=False).final().field.values
    assert np.array_equal(out, ref)


def test_evolve_spectral(grid, H, psi):
    a, b, _ = coefficient_fields(H, grid)
    rho = np.abs(psi.field.values) ** 2

    def rhs(v):
        return (a * grid.ddp(v) - b * grid.ddq(v),)

    (ref,) = reference_rk4(rhs, (rho,), T_FINAL, DT)
    out = evolve_spectral(ScalarField(grid, rho), H, T_FINAL, DT).values
    assert np.array_equal(out, ref)


@pytest.mark.parametrize("mixed", [False, True], ids=["one-grid", "D-other-bc"])
def test_evolve_polar(grid, H, psi, mixed):
    # S and D do not couple, so each is differentiated on its own grid. The
    # mixed case puts D on the same nodes with the other bc; S on FD4 with D
    # periodic is the madelung check's split
    g_D = replace(grid, bc=PERIODIC if grid.bc == FD4 else FD4) if mixed else grid
    a, b, lh = coefficient_fields(H, grid)
    S = 0.3 * grid.Q - 0.2 * grid.P + 0.05 * grid.Q**2
    D = np.abs(psi.field.values) ** 2

    def rhs(S, D):
        bracket_S = grid.ddq(S) * b - grid.ddp(S) * a
        bracket_D = g_D.ddq(D) * b - g_D.ddp(D) * a
        return lh - bracket_S, -bracket_D

    ref = reference_rk4(rhs, (S, D), T_FINAL, DT)
    pair = PolarPair(ScalarField(grid, S), ScalarField(g_D, D))
    snaps = [snap for _, snap in evolve_polar(pair, H, T_FINAL, DT, stride=3)]
    assert snaps[-1].S.grid is grid and snaps[-1].D.grid is g_D
    assert np.array_equal(snaps[-1].S.values, ref[0])
    assert np.array_equal(snaps[-1].D.values, ref[1])


@pytest.mark.parametrize("t", [T_FINAL, -T_FINAL, 0.0205, -0.0205])
def test_flow_with_action(H, t):
    # at 0.0205 the step ratio is 10.25: the field solvers' rounded count
    # takes 10 steps where a ceil rule would take 11
    rng = np.random.default_rng(5)
    q0, p0 = rng.uniform(-2.0, 2.0, (2, 12, 10))

    def rhs(q, p, a):
        return H.h_p(q, p), -H.h_q(q, p), p * H.h_p(q, p) - H.h(q, p)

    ref = reference_rk4(rhs, (q0, p0, np.zeros_like(q0)), t, DT)
    out = flow_with_action(H, t, q0, p0, DT)
    for got, want in zip(out, ref):
        assert np.array_equal(got, want)
