"""Wavefunction layer: prequantum operator, evolution, oracle, algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kvhsim import kvh
from kvhsim.grid import GridMismatchError, PhaseGrid, ScalarField, l2_norm
from kvhsim.hamiltonian import (
    PolynomialHamiltonian,
    backward_characteristics,
    scenario_hamiltonian,
)
from kvhsim.kvh import (
    EvolutionAborted,
    WaveFunction,
    apply_prequantum,
    characteristics_oracle,
    commutator_residual,
    evolve,
    gaussian_wavepacket,
    hermitian_inner,
    interpolate_field,
    kvh_energy,
)


@pytest.fixture
def grid():
    return PhaseGrid(-8, 8, -8, 8, 64, 64)


@pytest.fixture
def psi(grid):
    return gaussian_wavepacket(
        grid, center=(0.5, 0.3), sigma=(0.7, 0.7), phase=lambda q, p: 0.3 * q - 0.2 * p
    )


class TestWavefunctions:
    def test_gaussian_normalized(self, psi):
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)

    def test_hbar_positive(self, grid):
        with pytest.raises(ValueError):
            WaveFunction(ScalarField(grid, np.zeros((64, 64))), hbar=0.0)

    def test_inner_product_conjugate_symmetry(self, grid, psi):
        phi = gaussian_wavepacket(grid, center=(-1.0, 0.5), sigma=(1.0, 0.8))
        assert hermitian_inner(psi, phi) == pytest.approx(
            np.conj(hermitian_inner(phi, psi))
        )

    def test_inner_product_with_itself_is_the_squared_norm(self, psi):
        # the symplectic form 2 Im<psi, psi> vanishes on the diagonal
        inner = hermitian_inner(psi, psi)
        assert inner.imag == pytest.approx(0.0, abs=1e-12)
        assert inner.real == pytest.approx(psi.norm() ** 2, rel=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(
        q0=st.floats(-2, 2),
        p0=st.floats(-2, 2),
        s=st.floats(0.4, 1.5),
    )
    def test_normalization_property(self, q0, p0, s):
        g = PhaseGrid(-8, 8, -8, 8, 64, 64)
        psi = gaussian_wavepacket(g, center=(q0, p0), sigma=(s, s))
        assert np.isclose(psi.norm(), 1.0, atol=1e-10)


class TestPrequantumOperator:
    def test_hermitian_on_periodic_grid(self, grid, psi):
        H = scenario_hamiltonian("harmonic")
        phi = gaussian_wavepacket(
            grid, center=(-0.4, 0.6), sigma=(0.9, 0.6), phase=lambda q, p: 0.1 * q * p
        )
        lhs = hermitian_inner(phi, apply_prequantum(H, psi))
        rhs = hermitian_inner(apply_prequantum(H, phi), psi)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_constant_hamiltonian_is_multiplication(self, psi):
        out = apply_prequantum(PolynomialHamiltonian("c", {(0, 0): 2.5}), psi)
        np.testing.assert_allclose(out.field.values, 2.5 * psi.field.values, atol=1e-13)

    def test_energy_is_real_and_stable(self, psi):
        H = scenario_hamiltonian("harmonic")
        e = kvh_energy(H, psi)
        assert isinstance(e, float)
        # energy functional of a boundary-clear packet is O(1) here
        assert abs(e) < 10.0


class TestCommutators:
    def test_canonical_pair_residual_small(self, psi):
        q = PolynomialHamiltonian("q", {(1, 0): 1.0})
        p = PolynomialHamiltonian("p", {(0, 1): 1.0})
        assert commutator_residual(q, p, psi) < 1e-8

    def test_nonpolynomial_needs_bracket(self, psi):
        H = scenario_hamiltonian("pendulum")
        F = scenario_hamiltonian("free")
        with pytest.raises(ValueError):
            commutator_residual(H, F, psi)


class TestEvolution:
    def test_norm_and_energy_conserved(self, psi):
        H = scenario_hamiltonian("harmonic")
        traj = evolve(H, psi, 0.5, 1e-3)
        assert abs(traj.norms[-1] - traj.norms[0]) < 1e-10
        assert abs(traj.energies[-1] - traj.energies[0]) < 1e-10

    def test_snapshot_stride(self, psi):
        H = scenario_hamiltonian("free")
        traj = evolve(H, psi, 0.1, 1e-2, stride=5, record_energy=False)
        assert traj.times == pytest.approx([0.0, 0.05, 0.1])

    def test_kept_snapshots_hold_two_fields(self, psi, traced_peak):
        # every kept snapshot adds its time and norm (two floats and their
        # list slots, under 128 bytes), but only the first and the latest
        # field are held: stride 1 peaks within one field of stride 0, and
        # ends on the same bits
        H = scenario_hamiltonian("harmonic")

        def run(stride):
            return evolve(H, psi, 0.1, 1e-3, stride=stride, record_energy=False)

        run(0)  # the derivative scratch the solve caches is not under test
        peaks = {stride: traced_peak(lambda: run(stride)) for stride in (0, 1)}
        assert peaks[1] <= peaks[0] + psi.field.values.nbytes + 101 * 128
        every, ends = run(1), run(0)
        assert len(every.times) == len(every.norms) == 101 and len(ends.times) == 2
        assert np.array_equal(every.initial.field.values, psi.field.values)
        assert np.array_equal(every.final().field.values, ends.final().field.values)

    def test_recorded_energies_are_kvh_energy_bit_for_bit(self, monkeypatch):
        # evolve records each snapshot's energy with the coefficients it
        # samples once, by kvh_energy's formula and evaluation order; at
        # dt = 2**-6 the run to k dt steps through the same states
        g = PhaseGrid(-4, 4, -4, 4, 16, 16)
        psi = gaussian_wavepacket(g, center=(0.5, 0.3), sigma=(0.7, 0.7), phase=lambda q, p: 0.3 * q)
        H = scenario_hamiltonian("harmonic")
        dt = 2.0**-6
        sample, sampled = kvh.coefficient_fields, []

        def counted(*args):
            sampled.append(args)
            return sample(*args)

        with monkeypatch.context() as patch:
            patch.setattr(kvh, "coefficient_fields", counted)
            traj = evolve(H, psi, 4 * dt, dt, stride=1)
        assert len(sampled) == 1
        snapshots = [psi] + [evolve(H, psi, k * dt, dt, record_energy=False).final() for k in (1, 2, 3, 4)]
        assert traj.times == [k * dt for k in range(5)]
        assert traj.energies == [kvh_energy(H, s) for s in snapshots]

    def test_cfl_warning(self, grid, psi):
        H = scenario_hamiltonian("harmonic")
        with pytest.warns(RuntimeWarning):
            evolve(H, psi, 0.02, 1e-2, record_energy=False)

    def test_endpoint_exact(self, psi):
        H = scenario_hamiltonian("free")
        traj = evolve(H, psi, 0.3, 7e-4, record_energy=False)
        assert traj.times[-1] == pytest.approx(0.3, rel=1e-14)

    def test_negative_horizon_raises(self, psi):
        with pytest.raises(ValueError, match="negative"):
            evolve(scenario_hamiltonian("free"), psi, -0.5, 1e-2, record_energy=False)

    @pytest.mark.parametrize("stride", [0, 7])
    def test_instability_aborts(self, grid, stride):
        # a grossly unstable step produces overflow then NaN, not garbage
        H = scenario_hamiltonian("harmonic")
        psi = gaussian_wavepacket(grid, sigma=(0.5, 0.5))
        with pytest.raises(EvolutionAborted) as info, np.errstate(all="ignore"), pytest.warns(RuntimeWarning):
            evolve(H, psi, 50.0, 0.5, stride=stride, record_energy=False)
        # t is the time of last_good, the last snapshot the solve kept
        exc = info.value
        if stride == 0:
            assert exc.t == 0.0
        else:
            assert exc.t > 0 and exc.t % (0.5 * stride) == 0
        with pytest.warns(RuntimeWarning):
            again = evolve(H, psi, exc.t, 0.5, record_energy=False).final()
        assert np.array_equal(exc.last_good.field.values, again.field.values)


class TestCharacteristics:
    def test_oracle_matches_solver_short_time(self, grid, psi):
        H = scenario_hamiltonian("free")
        fin = evolve(H, psi, 0.3, 1e-3, record_energy=False).final()
        oracle = characteristics_oracle(psi, backward_characteristics(H, grid, 0.3, 1e-3))
        err = l2_norm(ScalarField(grid, fin.field.values - oracle.field.values))
        # the oracle's bicubic interpolation floor dominates at 64 nodes
        assert err < 1e-4

    def test_zero_time_is_identity(self, psi):
        ch = backward_characteristics(scenario_hamiltonian("free"), psi.grid, 0.0, 1e-3)
        out = characteristics_oracle(psi, ch)
        np.testing.assert_array_equal(out.field.values, psi.field.values)

    def test_domain_exit_zero_policy(self):
        g = PhaseGrid(-2, 2, -2, 2, 32, 32)
        psi = gaussian_wavepacket(g, center=(0.0, 0.0), sigma=(0.3, 0.3))
        ch = backward_characteristics(scenario_hamiltonian("free"), g, 1.5, 1e-3)
        out = characteristics_oracle(psi, ch)
        assert ch.exited.any() and np.all(out.field.values[ch.exited] == 0)
        assert np.all(np.isfinite(out.field.values))

    def test_grid_mismatch_raises(self, psi):
        other = PhaseGrid(-4, 4, -4, 4, 64, 64)
        ch = backward_characteristics(scenario_hamiltonian("free"), other, 0.3, 1e-2)
        with pytest.raises(GridMismatchError):
            characteristics_oracle(psi, ch)

    def test_interpolation_exact_at_nodes(self, grid, psi):
        vals = interpolate_field(psi.field, grid.Q, grid.P)
        np.testing.assert_allclose(vals, psi.field.values, atol=1e-12)


def test_cfl_number_scales_linearly():
    # evolve's advisory CFL number is dt times the fastest transport speed
    g = PhaseGrid(-8, 8, -8, 8, 64, 64)
    psi = gaussian_wavepacket(g, center=(0.5, 0.3), sigma=(0.7, 0.7))
    H = scenario_hamiltonian("harmonic")
    cfl = []
    for dt in (1e-2, 2e-2):
        with pytest.warns(RuntimeWarning, match="advisory CFL number") as record:
            evolve(H, psi, dt, dt, record_energy=False)
        cfl.append(float(str(record[0].message).split()[3]))
    assert cfl[0] == pytest.approx(0.64)
    assert cfl[1] == pytest.approx(2 * cfl[0])
