"""Strict contact transformations and the unitary van Hove action."""

import numpy as np
import pytest

from kvhsim import cli, contact, hamiltonian
from kvhsim.contact import apply_van_hove, connection_residual, equivariance_residual
from kvhsim.grid import PhaseGrid, ScalarField, l2_norm
from kvhsim.hamiltonian import (
    PolynomialHamiltonian,
    backward_characteristics,
    central_gradient,
    flow_map,
    flow_with_action,
    scenario_hamiltonian,
)
from kvhsim.kvh import characteristics_oracle, gaussian_wavepacket


@pytest.fixture
def grid():
    return PhaseGrid(-8, 8, -8, 8, 64, 64)


@pytest.fixture
def psi(grid):
    return gaussian_wavepacket(
        grid, center=(0.5, 0.3), sigma=(0.7, 0.7), phase=lambda q, p: 0.3 * q - 0.2 * p
    )


@pytest.fixture
def quarter_turn(grid):
    """The lift of the harmonic quarter turn: its backward characteristics."""
    return backward_characteristics(scenario_hamiltonian("harmonic"), grid, np.pi / 2, 1e-3)


class TestLift:
    def test_connection_membership(self, grid):
        assert connection_residual(scenario_hamiltonian("harmonic"), np.pi / 2, grid, 1e-3) < 1e-4

    @pytest.mark.parametrize("name", ["quartic", "pendulum"])
    def test_connection_membership_of_anharmonic_flows(self, name):
        g = PhaseGrid(-2, 2, -2, 2, 16, 16)
        assert connection_residual(scenario_hamiltonian(name), 0.7, g, 1e-3) < 1e-4

    @pytest.mark.parametrize("name", ["harmonic", "quartic", "pendulum"])
    def test_flow_is_unimodular(self, name):
        # Liouville: eta preserves area, so its Jacobian determinant is 1
        g = PhaseGrid(-2, 2, -2, 2, 16, 16)
        H = scenario_hamiltonian(name)
        (dq_dq, dp_dq), (dq_dp, dp_dp) = central_gradient(
            lambda q, p: flow_map(H, 0.7, (q, p)), g.Q, g.P
        )
        det = dq_dq * dp_dp - dq_dp * dp_dq
        assert np.max(np.abs(det - 1.0)) < 1e-5

    def test_inverse_composes_to_identity(self, grid):
        H = scenario_hamiltonian("harmonic")
        q, p = flow_map(H, np.pi / 2, (grid.Q, grid.P))
        q0, p0 = flow_map(H, -np.pi / 2, (q, p))
        assert np.max(np.abs(q0 - grid.Q)) < 1e-8
        assert np.max(np.abs(p0 - grid.P)) < 1e-8

    def test_domain_exit_policy(self):
        g = PhaseGrid(-1, 1, -1, 1, 16, 16)
        H = scenario_hamiltonian("free")
        forward = backward_characteristics(H, g, 3.0, 1e-3)
        inverse = backward_characteristics(H, g, -3.0, 1e-3)
        assert forward.exited.any() and inverse.exited.any()

    def test_lift_and_equivariance_share_their_flows(self, monkeypatch):
        # one residual flows the lift's backward characteristics once, and
        # applies the lift to both of its terms
        flows = []

        def counted(G, t, q0, p0, dt=1e-3):
            flows.append(t)
            return flow_with_action(G, t, q0, p0, dt)

        g = PhaseGrid(-8, 8, -8, 8, 16, 16)
        psi = gaussian_wavepacket(g, center=(0.5, 0.3), sigma=(1.5, 1.5))
        H = PolynomialHamiltonian("half_q2", {(2, 0): 0.5})
        H_rot = PolynomialHamiltonian("half_p2", {(0, 2): 0.5})
        monkeypatch.setattr(hamiltonian, "flow_with_action", counted)
        ch = backward_characteristics(scenario_hamiltonian("harmonic"), g, np.pi / 2, 1e-3)
        equivariance_residual(ch, H, psi, composed=H_rot)
        assert flows == [-np.pi / 2]


class TestVanHoveAction:
    def test_unitary_on_interior_support(self, quarter_turn, psi):
        upsi = apply_van_hove(quarter_turn, psi)
        assert upsi.norm() == pytest.approx(1.0, abs=1e-5)

    def test_inverse_action_roundtrip(self, quarter_turn, psi, grid):
        upsi = apply_van_hove(quarter_turn, psi)
        inverse = backward_characteristics(scenario_hamiltonian("harmonic"), grid, -np.pi / 2, 1e-3)
        back = apply_van_hove(inverse, upsi)
        err = l2_norm(ScalarField(grid, back.field.values - psi.field.values))
        assert err < 1e-4

    @pytest.mark.parametrize("name, t", [("harmonic", np.pi / 2), ("quartic", 2.0)])
    def test_action_is_the_oracle(self, name, t):
        # the quartic box loses characteristics through its edges by t = 2
        g = PhaseGrid(-3, 3, -3, 3, 32, 32)
        H = scenario_hamiltonian(name)
        psi = gaussian_wavepacket(g, center=(0.8, 0.0), sigma=(0.35, 0.35))
        upsi = apply_van_hove(backward_characteristics(H, g, t, 1e-3), psi).field.values
        ch = backward_characteristics(H, g, t, 1e-3)
        oracle = characteristics_oracle(psi, ch).field.values
        assert np.array_equal(upsi, oracle)
        if name == "quartic":
            assert ch.exited.any() and np.all(upsi[ch.exited] == 0)


class TestEquivariance:
    def test_closed_form_composition(self, quarter_turn, psi):
        # quarter rotation maps q^2/2 to p^2/2
        H = PolynomialHamiltonian("half_q2", {(2, 0): 0.5})
        H_rot = PolynomialHamiltonian("half_p2", {(0, 2): 0.5})
        r, upsi = equivariance_residual(quarter_turn, H, psi, composed=H_rot)
        assert r < 1e-5
        assert np.array_equal(upsi.field.values, apply_van_hove(quarter_turn, psi).field.values)

    def test_unrotated_composition_is_rejected(self, quarter_turn, psi):
        # negative control: q^2/2 itself is not q^2/2 composed with the turn
        H = PolynomialHamiltonian("half_q2", {(2, 0): 0.5})
        r, _ = equivariance_residual(quarter_turn, H, psi, composed=H)
        assert r > 1e-2

    @pytest.mark.parametrize("t", [0.4, np.pi / 4, 3 * np.pi / 4], ids=["0.4", "pi/4", "3pi/4"])
    def test_composition_at_other_angles(self, grid, psi, t):
        # the time-t harmonic flow rotates q to q cos t + p sin t; off the
        # quarter turns the nodes land between nodes, so the bicubic
        # interpolation floor (~3e-4 at 64 nodes) bounds the residual
        c, s = np.cos(t), np.sin(t)
        ch = backward_characteristics(scenario_hamiltonian("harmonic"), grid, t, 1e-3)
        H = PolynomialHamiltonian("half_q2", {(2, 0): 0.5})
        composed = PolynomialHamiltonian(
            "half_q2_rotated", {(2, 0): c * c / 2, (1, 1): c * s, (0, 2): s * s / 2}
        )
        r, _ = equivariance_residual(ch, H, psi, composed=composed)
        assert r < 1e-3

    def test_check_lifts_psi_once(self, monkeypatch):
        # Uψ serves both the residual and the momentum-map comparison, so the
        # check applies U twice: to ψ and to L̂_{H∘η}ψ
        calls = []

        def counted(ch, psi):
            calls.append(ch.t)
            return apply_van_hove(ch, psi)

        monkeypatch.setattr(contact, "apply_van_hove", counted)
        cfg = cli.RunConfig(scenario="harmonic-kvh", n_q=16, n_p=16, dt=1e-2)
        cli.check_equivariance(cli.RunContext(cli.apply_scenario_defaults(cfg)))
        assert calls == [np.pi / 2, np.pi / 2]
