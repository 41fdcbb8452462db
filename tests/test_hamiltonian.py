"""Hamiltonian library, polynomial algebra, and flow integration."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kvhsim
from kvhsim.grid import PhaseGrid, ScalarField, interpolate_field
from kvhsim.hamiltonian import (
    SCENARIO_NAMES,
    HamiltonianError,
    HamiltonianSpec,
    OneForm,
    PolynomialHamiltonian,
    backward_characteristics,
    central_gradient,
    coefficient_fields,
    flow_map,
    flow_with_action,
    out_of_domain_mask,
    poly_poisson,
    scenario_hamiltonian,
)


class TestLibrary:
    def test_scenario_names(self):
        assert SCENARIO_NAMES == ("free", "harmonic", "pendulum", "quartic")

    def test_unknown_scenario(self):
        with pytest.raises(HamiltonianError):
            scenario_hamiltonian("kepler")

    def test_harmonic_lagrangian(self):
        H = scenario_hamiltonian("harmonic")
        q = np.array([1.0, -0.5])
        p = np.array([2.0, 0.3])
        np.testing.assert_allclose(H.lagrangian(q, p), (p**2 - q**2) / 2)

    def test_pendulum_partials_consistent(self):
        # construction runs the finite-difference self-check
        H = scenario_hamiltonian("pendulum")
        assert H.h_p(0.0, 1.5) == pytest.approx(1.5)

    def test_bad_partials_rejected(self):
        with pytest.raises(HamiltonianError):
            HamiltonianSpec(
                name="broken",
                h=lambda q, p: q**2,
                h_q=lambda q, p: 3 * q,  # wrong
                h_p=lambda q, p: 0.0 * q,
            )

    def test_building_hamiltonians_imports_no_random_generator(self):
        # the partials are checked on a fixed point set: numpy.random would
        # pull in secrets and _hashlib (libcrypto), megabytes of every run
        script = textwrap.dedent("""
            import sys
            from kvhsim import cli
            from kvhsim.hamiltonian import SCENARIO_NAMES, PolynomialHamiltonian, scenario_hamiltonian
            for name in SCENARIO_NAMES:
                scenario_hamiltonian(name)
            PolynomialHamiltonian("mixed", {(2, 0): 0.5, (0, 2): 0.5, (1, 1): 0.3})
            print(sorted(m for m in ("numpy.random", "_hashlib", "secrets") if m in sys.modules))
        """)
        src = str(Path(kvhsim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]", proc.stdout

    def test_partials_are_checked_across_the_box(self):
        # a wrong partial that is right near the origin is still caught
        with pytest.raises(HamiltonianError, match="dH/dp"):
            HamiltonianSpec(
                name="broken-far",
                h=lambda q, p: p**4,
                h_q=lambda q, p: 0.0 * q,
                h_p=lambda q, p: 4 * p**3 * (np.abs(p) < 2),  # wrong for |p| >= 2
            )


class TestPolynomialAlgebra:
    def test_eval_and_partials(self):
        H = PolynomialHamiltonian("mix", {(2, 1): 1.5, (0, 0): -1.0})
        assert H.h(2.0, 3.0) == pytest.approx(1.5 * 4 * 3 - 1.0)
        assert H.h_q(2.0, 3.0) == pytest.approx(1.5 * 2 * 2 * 3)
        assert H.h_p(2.0, 3.0) == pytest.approx(1.5 * 4)

    def test_canonical_bracket(self):
        q = PolynomialHamiltonian("q", {(1, 0): 1.0})
        p = PolynomialHamiltonian("p", {(0, 1): 1.0})
        assert q.poisson_with(p).coeffs == {(0, 0): 1.0}

    def test_harmonic_generates_rotation_of_qp(self):
        H = PolynomialHamiltonian("harmonic", {(2, 0): 0.5, (0, 2): 0.5})
        qp = PolynomialHamiltonian("qp", {(1, 1): 1.0})
        # {H, qp} = q^2 - p^2
        assert H.poisson_with(qp).coeffs == {(2, 0): 1.0, (0, 2): -1.0}

    def test_poly_poisson_antisymmetry(self):
        a = {(2, 1): 1.0, (0, 3): -0.5}
        b = {(1, 2): 2.0, (3, 0): 1.0}
        ab = poly_poisson(a, b)
        ba = poly_poisson(b, a)
        assert ab == {k: -v for k, v in ba.items()}

    def test_constant_hamiltonian(self):
        H = PolynomialHamiltonian("c", {(0, 0): 4.0})
        assert H.h(1.0, 2.0) == pytest.approx(4.0)
        assert H.lagrangian(1.0, 2.0) == pytest.approx(-4.0)


class TestGeometricObjects:
    def test_coefficient_fields(self):
        # X_H = (b, -a) = (p, -q) and L_H = p dH/dp - H for the oscillator
        g = PhaseGrid(-2, 2, -2, 2, 8, 8)
        a, b, lh = coefficient_fields(scenario_hamiltonian("harmonic"), g)
        np.testing.assert_allclose(a, g.Q)
        np.testing.assert_allclose(b, g.P)
        np.testing.assert_allclose(lh, (g.P**2 - g.Q**2) / 2)

    def test_constant_coefficients_fill_the_grid(self):
        g = PhaseGrid(-2, 2, -2, 2, 8, 6)
        a, b, lh = coefficient_fields(PolynomialHamiltonian("c", {(0, 0): 4.0}), g)
        for f, value in ((a, 0.0), (b, 0.0), (lh, -4.0)):
            assert f.shape == (8, 6)
            np.testing.assert_array_equal(f, value)
        lh[0, 0] = 1.0
        assert lh[1, 1] == -4.0

    def test_one_form_grid_mismatch(self):
        g1 = PhaseGrid(-2, 2, -2, 2, 8, 8)
        g2 = PhaseGrid(-1, 1, -1, 1, 8, 8)
        with pytest.raises(HamiltonianError):
            OneForm(ScalarField(g1, g1.P), ScalarField(g2, g2.P))


class TestFlows:
    def test_harmonic_rotation(self):
        H = scenario_hamiltonian("harmonic")
        q, p = flow_map(H, np.pi / 3, (1.0, 0.5), dt=1e-3)
        c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
        assert q == pytest.approx(c * 1.0 + s * 0.5, abs=1e-10)
        assert p == pytest.approx(c * 0.5 - s * 1.0, abs=1e-10)

    def test_energy_conserved_along_flow(self):
        H = scenario_hamiltonian("quartic")
        q0, p0 = 0.7, -0.4
        q, p = flow_map(H, 3.0, (q0, p0), dt=1e-3)
        assert H.h(q, p) == pytest.approx(H.h(q0, p0), abs=1e-10)

    def test_harmonic_action_closed_form(self):
        # along harmonic trajectories the accumulated phase-space
        # Lagrangian is (p^2-q^2) sin(2t)/4 + qp (1-cos(2t))/2 at arrival
        H = scenario_hamiltonian("harmonic")
        t = 0.7
        q, p, a = flow_with_action(H, t, 1.3, -0.6, dt=1e-4)
        expected = (p**2 - q**2) * np.sin(2 * t) / 4 + q * p * (1 - np.cos(2 * t)) / 2
        assert a == pytest.approx(expected, abs=1e-10)

    def test_backward_forward_roundtrip(self):
        H = scenario_hamiltonian("pendulum")
        q1, p1 = flow_map(H, 0.8, (0.9, 0.1), dt=1e-3)
        q0, p0 = flow_map(H, -0.8, (q1, p1), dt=1e-3)
        assert q0 == pytest.approx(0.9, abs=1e-9)
        assert p0 == pytest.approx(0.1, abs=1e-9)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
    @pytest.mark.parametrize("t", [0.0, 0.5, -0.5])
    def test_step_must_be_positive_and_finite(self, t, dt):
        with pytest.raises(ValueError, match="dt"):
            flow_with_action(scenario_hamiltonian("harmonic"), t, 0.3, 0.1, dt)

    def test_flow_is_unimodular(self):
        H = scenario_hamiltonian("quartic")
        (dq_dq, dp_dq), (dq_dp, dp_dp) = central_gradient(
            lambda q, p: flow_map(H, 1.5, (q, p), dt=1e-3), np.array([0.4]), np.array([0.8])
        )
        assert dq_dq[0] * dp_dp[0] - dq_dp[0] * dp_dq[0] == pytest.approx(1.0, abs=1e-5)

    @settings(max_examples=20, deadline=None)
    @given(
        t=st.floats(-1.5, 1.5),
        q0=st.floats(-1.0, 1.0),
        p0=st.floats(-1.0, 1.0),
    )
    def test_free_flow_property(self, t, q0, p0):
        H = scenario_hamiltonian("free")
        q, p, a = flow_with_action(H, t, q0, p0, dt=1e-2)
        assert np.isclose(q, q0 + t * p0, atol=1e-9)
        assert np.isclose(p, p0, atol=1e-12)
        # L_H = p^2/2 along the trajectory
        assert np.isclose(a, t * p0**2 / 2, atol=1e-9)


class TestPullback:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_exited_nodes_are_zeroed(self, dtype):
        # 72² nodes are more than one block of interpolation taps
        g = PhaseGrid(-2, 2, -2, 2, 72, 72)
        values = 2.0 + np.cos(g.Q) * np.sin(g.P)
        if dtype is complex:
            values = values * np.exp(1j * g.Q * g.P)
        f = ScalarField(g, values)
        kept = values.copy()
        ch = backward_characteristics(scenario_hamiltonian("free"), g, 1.5, 1e-2)
        out = ch.pullback(f).values
        assert out.dtype == values.dtype and np.array_equal(f.values, kept)
        assert ch.exited.any() and not ch.exited.all()
        assert np.all(out[ch.exited] == 0)
        inside = interpolate_field(f, ch.q0, ch.p0)[~ch.exited]
        assert np.all(inside != 0) and np.array_equal(out[~ch.exited], inside)


class TestDomainMask:
    def test_inside_outside_and_nan(self):
        g = PhaseGrid(-1, 1, -1, 1, 8, 8)
        q = np.array([0.0, 2.0, np.nan, -1.0])
        p = np.array([0.0, 0.0, 0.0, 0.5])
        np.testing.assert_array_equal(
            out_of_domain_mask(g, q, p), [False, True, True, False]
        )

    def test_boundary_grazing_roundoff_kept(self):
        g = PhaseGrid(-1, 1, -1, 1, 8, 8)
        assert not out_of_domain_mask(g, np.array([-1.0 - 1e-13]), np.array([0.0]))[0]
