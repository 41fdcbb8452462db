"""Dense kernel layer: rank-1 consistency, conservation, point particles."""

import numpy as np
import pytest

from kvhsim import cli
from kvhsim.cli import RunConfig, apply_scenario_defaults
from kvhsim.grid import FD4, PhaseGrid, ScalarField, time_steps
from kvhsim.hamiltonian import (
    PolynomialHamiltonian,
    backward_characteristics,
    coefficient_fields,
    scenario_hamiltonian,
)
from kvhsim.kvh import apply_prequantum, characteristics_oracle, gaussian_wavepacket, kvh_energy
from kvhsim.madelung import HydroState, hydro_from_wavefunction
from kvhsim.vonneumann import (
    KernelError,
    VNKernel,
    density_centroid,
    derivative_matrices,
    evolve_kernel,
    hydro_from_kernel,
    kernel_from_wavefunction,
    kernel_propagator,
    point_particle_kernel,
    prequantum_matrix,
    sigma_defect,
    _rk4_stability,
    _spectral_diff_matrix,
)

SCENARIOS = ("harmonic", "free", "quartic", "pendulum")


def nonseparable():
    # h_q depends on p and h_p on q: the discrete L is not Hermitian
    return PolynomialHamiltonian("mixed", {(2, 0): 0.5, (0, 2): 0.5, (1, 1): 0.3})


def refuse(*args, **kwargs):
    raise AssertionError("this decomposition must not run")


def coarse_grid(bc="periodic"):
    return PhaseGrid(-4, 4, -4, 4, 24, 24, bc)


def centered_grid():
    # nodes symmetric under (q, p) -> (-p, q); see the quarter-turn tests
    h = 8.0 / 24
    return PhaseGrid(-4 + h / 2, 4 + h / 2, -4 + h / 2, 4 + h / 2, 24, 24, FD4)


def small_grid(bc="periodic"):
    return PhaseGrid(-4, 4, -4, 4, 10, 10, bc)


def rk4_step_loop(theta0, H, t_final, dt):
    """Reference: explicit RK4 time stepping of dK/dt = -(i/ħ)[L, K]."""
    L = prequantum_matrix(H, theta0.grid, theta0.hbar)

    def rhs(K):
        return (-1j / theta0.hbar) * (L @ K - K @ L)

    K = theta0.K.astype(complex)
    n_steps, dt = time_steps(t_final, dt)
    for _ in range(n_steps):
        k1 = rhs(K)
        k2 = rhs(K + 0.5 * dt * k1)
        k3 = rhs(K + 0.5 * dt * k2)
        k4 = rhs(K + dt * k3)
        K = K + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return K


def dense_closed_form(theta0, H, t_final, dt):
    """Reference: the closed form as one expression, V (gain * (V^-1 K0 V)) V^-1."""
    hbar = theta0.hbar
    L = prequantum_matrix(H, theta0.grid, hbar)
    if np.array_equal(L, L.conj().T):
        mu, V = np.linalg.eigh(L)
        lam = (-1j / hbar) * mu
        V_inv = V.conj().T
    else:
        lam, V = np.linalg.eig((-1j / hbar) * L)
        V_inv = np.linalg.inv(V)
    n_steps, dt = time_steps(t_final, dt)
    gain = _rk4_stability(dt * (lam[:, None] - lam[None, :])) ** n_steps
    return V @ (gain * (V_inv @ theta0.K @ V)) @ V_inv


def packet(g):
    return gaussian_wavepacket(g, center=(1.0, 0.0), sigma=(0.7, 0.7))


def hermiticity_residual(theta):
    return float(np.max(np.abs(theta.K - theta.K.conj().T)))


def point_particle_setup():
    """The sigma-defect check's grid (centered_grid()) and density D(q, p)."""
    return cli._point_particle_setup(apply_scenario_defaults(RunConfig(scenario="point-particle")))


def delta_like():
    g, density = point_particle_setup()
    return g, ScalarField(g, density(g.Q, g.P)), point_particle_kernel(g, density, 16.0)


class TestKernelBasics:
    def test_rank1_kernel_properties(self):
        g = coarse_grid()
        theta = kernel_from_wavefunction(packet(g))
        assert theta.trace() == pytest.approx(1.0, abs=1e-12)
        assert hermiticity_residual(theta) < 1e-14
        ev = theta.eigenvalues()
        assert ev[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(ev[:-1])) < 1e-10

    def test_unnormalized_rejected(self):
        g = coarse_grid()
        psi = packet(g)
        psi.field.values *= 2.0
        with pytest.raises(KernelError):
            kernel_from_wavefunction(psi)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(KernelError):
            VNKernel(coarse_grid(), np.zeros((10, 10), complex))

    def test_casimir_of_rank1(self):
        g = coarse_grid()
        theta = kernel_from_wavefunction(packet(g))
        assert theta.casimir() == pytest.approx(1.0, abs=1e-10)

    def test_casimir_matches_matrix_power(self):
        g = PhaseGrid(-4, 4, -4, 4, 3, 3)
        rng = np.random.default_rng(11)
        K = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        theta = VNKernel(g, K)
        ref = np.real(np.trace(np.linalg.matrix_power(K * theta.weight, 2)))
        assert theta.casimir() == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestOperatorDiscretization:
    def test_matrix_matches_operator_on_periodic_grid(self):
        g = coarse_grid()
        H = scenario_hamiltonian("harmonic")
        psi = packet(g)
        L = prequantum_matrix(H, g)
        via_matrix = (L @ psi.field.values.reshape(-1)).reshape(24, 24)
        via_op = apply_prequantum(H, psi).field.values
        np.testing.assert_allclose(via_matrix, via_op, atol=1e-10)

    def test_kernel_energy_matches_wavefunction_energy(self):
        # h(Theta) = Tr(L_H Theta) = weight * sum(L * K.T) for Theta = |psi><psi|
        g = coarse_grid()
        H = scenario_hamiltonian("harmonic")
        psi = packet(g)
        theta = kernel_from_wavefunction(psi)
        L = prequantum_matrix(H, g, theta.hbar)
        energy = float(np.real(np.sum(L * theta.K.T))) * theta.weight
        assert energy == pytest.approx(kvh_energy(H, psi), abs=1e-10)

    def test_derivative_matrices_match_grid(self):
        rng = np.random.default_rng(7)
        for bc in ("periodic", "fd4"):
            g = coarse_grid(bc)
            f = rng.standard_normal((24, 24))
            Dq, Dp = derivative_matrices(g)
            np.testing.assert_allclose(
                (Dq @ f.reshape(-1)).reshape(24, 24), g.ddq(f), atol=1e-10
            )
            np.testing.assert_allclose(
                (Dp @ f.reshape(-1)).reshape(24, 24), g.ddp(f), atol=1e-10
            )

    @pytest.mark.parametrize("n", [10, 25, 32])
    def test_spectral_diff_matrix_exactly_antisymmetric(self, n):
        D = _spectral_diff_matrix(n, 8.0 / n)
        assert np.array_equal(D, -D.T)

    @pytest.mark.parametrize("shape", [(10, 10), (25, 25), (9, 12)])
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_prequantum_matrix_exactly_hermitian_when_separable(self, name, shape):
        g = PhaseGrid(-4, 4, -3, 3, *shape)
        L = prequantum_matrix(scenario_hamiltonian(name), g, hbar=0.7)
        assert np.array_equal(L, L.conj().T)

    @pytest.mark.parametrize("bc", ["periodic", FD4])
    @pytest.mark.parametrize(
        "H",
        [scenario_hamiltonian(h) for h in SCENARIOS] + [nonseparable()],
        ids=list(SCENARIOS) + ["nonseparable"],
    )
    def test_prequantum_matrix_is_the_dense_formula_byte_for_byte(self, H, bc):
        # signed zeros included: the in-place assembly does the same float
        # operations as the expression
        g = PhaseGrid(-4, 4, -3, 3, 9, 12, bc)
        Dq, Dp = derivative_matrices(g)
        a, b, lh = (c.reshape(-1) for c in coefficient_fields(H, g))
        expected = 1j * 0.7 * (a[:, None] * Dp - b[:, None] * Dq) - np.diag(lh)
        assert prequantum_matrix(H, g, hbar=0.7).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "H, bc",
        [(scenario_hamiltonian("harmonic"), FD4), (nonseparable(), "periodic")],
        ids=["fd4", "nonseparable"],
    )
    def test_prequantum_matrix_not_hermitian_otherwise(self, H, bc):
        L = prequantum_matrix(H, small_grid(bc), hbar=0.7)
        assert not np.array_equal(L, L.conj().T)

    def test_nine_point_stencils_exact_on_degree_8(self):
        # the wide stencils of hydro_from_kernel, one-sided rows included
        g = PhaseGrid(-1, 1, -1, 1, 12, 12, FD4)
        Dq, Dp = derivative_matrices(g, npts=9)
        f = g.Q**8 - 3 * g.Q**5 * g.P**3 + g.P**8 + g.Q * g.P**7
        f_q = 8 * g.Q**7 - 15 * g.Q**4 * g.P**3 + g.P**7
        f_p = -9 * g.Q**5 * g.P**2 + 8 * g.P**7 + 7 * g.Q * g.P**6
        np.testing.assert_allclose((Dq @ f.reshape(-1)).reshape(12, 12), f_q, atol=1e-9)
        np.testing.assert_allclose((Dp @ f.reshape(-1)).reshape(12, 12), f_p, atol=1e-9)


class TestEvolution:
    def test_rank1_tracks_wavefunction(self):
        g = coarse_grid()
        H = scenario_hamiltonian("harmonic")
        psi0 = packet(g)
        theta_t = evolve_kernel(kernel_from_wavefunction(psi0), H, 0.1, 5e-3)
        from kvhsim.kvh import evolve

        psi_t = evolve(H, psi0, 0.1, 5e-3, record_energy=False).final()
        v = psi_t.field.values.reshape(-1)
        ref = np.outer(v, v.conj())
        assert np.max(np.abs(theta_t.K - ref)) < 1e-7

    def test_conserved_quantities(self):
        g = coarse_grid()
        H = scenario_hamiltonian("harmonic")
        theta0 = kernel_from_wavefunction(packet(g))
        theta_t = evolve_kernel(theta0, H, 0.2, 5e-3)
        assert abs(theta_t.trace() - 1.0) < 1e-12
        assert abs(theta_t.casimir() - theta0.casimir()) < 1e-10
        assert hermiticity_residual(theta_t) < 1e-12

    @pytest.mark.parametrize(
        "H, bc",
        [(scenario_hamiltonian(h), "periodic") for h in SCENARIOS]
        + [(scenario_hamiltonian("harmonic"), FD4), (nonseparable(), "periodic")],
        ids=[f"{h}-periodic" for h in SCENARIOS] + ["harmonic-fd4", "nonseparable-periodic"],
    )
    def test_closed_form_matches_step_loop(self, H, bc):
        g = small_grid(bc)
        theta0 = kernel_from_wavefunction(
            gaussian_wavepacket(g, center=(0.5, 0.3), sigma=(0.9, 0.9))
        )
        theta_t = evolve_kernel(theta0, H, 0.1, 2e-3)
        ref = rk4_step_loop(theta0, H, 0.1, 2e-3)
        assert np.max(np.abs(theta_t.K - ref)) <= 1e-12

    @pytest.mark.parametrize(
        "H, g",
        [(scenario_hamiltonian("harmonic"), coarse_grid()),
         (scenario_hamiltonian("harmonic"), small_grid(FD4)),
         (nonseparable(), small_grid())],
        ids=["eigh", "eig-fd4", "eig-nonseparable"],
    )
    def test_closed_form_matches_the_dense_expression(self, H, g):
        # not bit for bit: elementwise loops round by alignment, and a general
        # basis amplifies that by kappa_1(V), 1.3e3 on the 10 x 10 FD4 grid
        theta0 = kernel_from_wavefunction(packet(g))
        theta_t = evolve_kernel(theta0, H, 0.15, 5e-3)
        ref = dense_closed_form(theta0, H, 0.15, 5e-3)
        assert np.max(np.abs(theta_t.K - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("bc, solver", [("periodic", "eigh"), (FD4, "eig")], ids=["eigh", "eig"])
    def test_working_set_is_five_kernels(self, traced_peak, monkeypatch, bc, solver):
        # numpy-allocated bytes beyond K0: L, then V, V^-1 and two product
        # arrays; the gain is applied a band of rows at a time
        g = coarse_grid(bc)
        theta0 = kernel_from_wavefunction(packet(g))
        monkeypatch.setattr(np.linalg, {"eigh": "eig", "eig": "eigh"}[solver], refuse)
        H = scenario_hamiltonian("harmonic")
        peak = traced_peak(lambda: evolve_kernel(theta0, H, 0.15, 5e-3))
        n = g.n_q * g.n_p
        assert peak <= 5 * n * n * np.dtype(complex).itemsize

    def test_periodic_separable_never_takes_the_general_eigenbasis(self, monkeypatch):
        g = small_grid()
        H = scenario_hamiltonian("harmonic")
        theta0 = kernel_from_wavefunction(packet(g))
        ref = rk4_step_loop(theta0, H, 0.1, 2e-3)
        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        theta_t = evolve_kernel(theta0, H, 0.1, 2e-3)
        assert np.max(np.abs(theta_t.K - ref)) <= 1e-12

    def test_zero_horizon_is_an_exact_copy(self, monkeypatch):
        g = small_grid(FD4)
        theta0 = kernel_from_wavefunction(packet(g))
        for name in ("eig", "eigh", "inv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        theta_t = evolve_kernel(theta0, scenario_hamiltonian("free"), 0.0, 2e-3)
        assert theta_t.K is not theta0.K
        assert np.array_equal(theta_t.K, theta0.K)

    def test_negative_horizon_raises(self):
        theta0 = kernel_from_wavefunction(packet(small_grid()))
        with pytest.raises(ValueError, match="negative"):
            evolve_kernel(theta0, scenario_hamiltonian("harmonic"), -0.5, 5e-3)

    def test_ill_conditioned_eigenbasis_rejected(self):
        # one-sided FD4 stencils make the free Liouvillian strongly nonnormal
        g = small_grid(FD4)
        theta0 = kernel_from_wavefunction(packet(g))
        with pytest.raises(KernelError, match="characteristics"):
            evolve_kernel(theta0, scenario_hamiltonian("free"), 0.1, 2e-3)

    def test_unstable_dt_raises(self):
        g = small_grid()
        theta0 = kernel_from_wavefunction(packet(g))
        with pytest.raises(RuntimeError):
            evolve_kernel(theta0, scenario_hamiltonian("harmonic"), 50.0, 0.5)

    def test_unknown_method(self):
        g = coarse_grid()
        theta = kernel_from_wavefunction(packet(g))
        with pytest.raises(ValueError):
            evolve_kernel(theta, scenario_hamiltonian("free"), 0.1, 1e-2, method="euler")

    def test_characteristics_propagator_unitary_on_rotation(self):
        g = centered_grid()
        H = scenario_hamiltonian("harmonic")
        U = kernel_propagator(backward_characteristics(H, g, np.pi / 2, 5e-3), hbar=16.0)
        # quarter turn maps the centered node set onto itself: U is a
        # phase times a permutation, hence exactly unitary, and U I U^H = I
        identity = np.eye(g.n_q * g.n_p)
        assert np.max(np.abs(U.conjugate(identity) - identity)) < 1e-9

    def test_propagator_applies_the_characteristics_oracle(self):
        # both are the one pullback along the characteristics times the action
        # phase, so they agree to round-off, exited nodes included
        g = PhaseGrid(-2, 2, -2, 2, 16, 16)
        ch = backward_characteristics(scenario_hamiltonian("free"), g, 1.5, 1e-2)
        assert ch.exited.sum() == 92
        psi = gaussian_wavepacket(
            g, center=(0.3, -0.2), sigma=(0.5, 0.5), phase=lambda q, p: 0.4 * q * p, hbar=0.7
        )
        values = psi.field.values.reshape(-1)
        moved = kernel_propagator(ch, psi.hbar).conjugate(np.outer(values, values.conj()))
        oracle = characteristics_oracle(psi, ch).field.values.reshape(-1)
        assert np.max(np.abs(moved - np.outer(oracle, oracle.conj()))) < 1e-12

    def test_zero_horizon_propagator_is_the_identity(self):
        g = coarse_grid()
        ch = backward_characteristics(scenario_hamiltonian("harmonic"), g, 0.0, 1e-2)
        identity = np.eye(g.n_q * g.n_p)
        np.testing.assert_array_equal(kernel_propagator(ch, hbar=1.0).conjugate(identity), identity)

    @pytest.mark.parametrize("n", [24, 32])
    def test_factored_conjugation_is_the_dense_one(self, n):
        # dense U from its definition: column j is the pullback of the unit
        # field at node j, the rows scaled by the action phase
        g = PhaseGrid(-4, 4, -4, 4, n, n)
        ch = backward_characteristics(scenario_hamiltonian("free"), g, 1.5, 1e-2)
        assert ch.exited.any()
        N = n * n
        U = np.empty((N, N), dtype=complex)
        unit = np.zeros(N)
        for j in range(N):
            unit[j] = 1.0
            U[:, j] = ch.pullback(ScalarField(g, unit.reshape(n, n))).values.reshape(-1)
            unit[j] = 0.0
        U *= ch.phase(0.7).reshape(-1, 1)
        assert not U[ch.exited.reshape(-1)].any()
        rng = np.random.default_rng(11)
        A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        K = A + A.conj().T
        dense = U @ K @ U.conj().T
        factored = kernel_propagator(ch, 0.7).conjugate(K)
        assert np.max(np.abs(factored - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_zero_horizon_conjugation_is_exact(self):
        g = coarse_grid()
        ch = backward_characteristics(scenario_hamiltonian("harmonic"), g, 0.0, 1e-2)
        K = kernel_from_wavefunction(packet(g)).K
        np.testing.assert_array_equal(kernel_propagator(ch, hbar=1.0).conjugate(K), K)


class TestPointParticle:
    def test_density_validation(self):
        g = centered_grid()
        with pytest.raises(KernelError, match="nonnegative"):
            point_particle_kernel(g, lambda q, p: -np.ones(np.broadcast(q, p).shape), 16.0)
        with pytest.raises(KernelError, match="integrates to"):
            point_particle_kernel(g, lambda q, p: np.ones(np.broadcast(q, p).shape), 16.0)

    def test_negative_midpoint_rejected(self):
        # nonnegative on every node, negative halfway between nodes
        g, density = point_particle_setup()
        wiggle = lambda q, p: density(q, p) - np.sin(np.pi * (q - g.q_min) / g.dq) ** 2
        assert np.min(wiggle(g.Q, g.P)) >= -1e-12
        with pytest.raises(KernelError, match="midpoints"):
            point_particle_kernel(g, wiggle, 16.0)

    def test_kernel_structure(self):
        _, D, theta = delta_like()
        assert hermiticity_residual(theta) < 1e-13
        state = hydro_from_kernel(theta)
        # kernel diagonal reproduces the target density exactly
        np.testing.assert_allclose(state.D.values, D.values, atol=1e-13)
        assert sigma_defect(state) < 1e-5

    @pytest.mark.parametrize(
        "setup, hbar",
        [("sigma-defect", 16.0), ("rectangular", 0.37), ("rectangular", 1.0),
         ("rectangular", 3.0), ("rectangular", 16.0)],
    )
    def test_kernel_is_exactly_hermitian(self, setup, hbar):
        # K is Hermitian as built, with no symmetrization to round it
        if setup == "sigma-defect":
            g, density = point_particle_setup()
        else:
            g = PhaseGrid(-3, 4, -2, 2.5, 9, 12, FD4)
            env = lambda q, p: np.exp(-((q - 0.7) ** 2) - 2 * (p - 0.1) ** 2)
            total = np.real(g.integrate_values(env(g.Q, g.P)))
            density = lambda q, p: env(q, p) / total
        K = point_particle_kernel(g, density, hbar).K
        assert np.array_equal(K, K.conj().T)

    def test_midpoint_gather_on_a_rectangular_grid(self):
        # entry (i, j) is the density at the midpoint of nodes i and j times
        # the closed-form phase; n_q != n_p catches a swapped axis
        g = PhaseGrid(-3, 4, -2, 2.5, 9, 12, FD4)
        env = lambda q, p: np.exp(-((q - 0.7) ** 2) - 2 * (p - 0.1) ** 2)
        total = np.real(g.integrate_values(env(g.Q, g.P)))
        nodes = [(g.q[iq], g.p[ip]) for iq in range(9) for ip in range(12)]
        K = np.array([
            [env((qi + qj) / 2, (pi + pj) / 2) / total * np.exp(1j / 6.0 * (pi + pj) * (qi - qj))
             for qj, pj in nodes]
            for qi, pi in nodes
        ])
        theta = point_particle_kernel(g, lambda q, p: env(q, p) / total, 3.0)
        np.testing.assert_allclose(theta.K, K, rtol=1e-13, atol=1e-15)

    def test_centroid(self):
        g, _, theta = delta_like()
        qc, pc = density_centroid(hydro_from_kernel(theta).D)
        # the truncated discrete Gaussian sits a small fraction of a cell
        # off its nominal center
        assert qc == pytest.approx(1.0, abs=0.25 * g.dq)
        assert pc == pytest.approx(0.0, abs=0.25 * g.dp)

    def test_sigma_defect_zero_for_exact_structure(self):
        g, D, _ = delta_like()
        from kvhsim.hamiltonian import OneForm

        sigma = OneForm(ScalarField(g, g.P * D.values), ScalarField(g, 0 * g.P))
        assert sigma_defect(HydroState(sigma, D)) == 0.0

    def test_quarter_turn_preserves_structure(self):
        _, _, theta0 = delta_like()
        H = scenario_hamiltonian("harmonic")
        theta_t = evolve_kernel(theta0, H, np.pi / 2, 5e-3, method="characteristics")
        d0 = sigma_defect(hydro_from_kernel(theta0))
        d1 = sigma_defect(hydro_from_kernel(theta_t))
        assert (d1 - d0) / (np.pi / 2) < 1e-4
        assert abs(theta_t.trace() - theta0.trace()) < 1e-12

    def test_extracted_sigma_matches_wavefunction_hydro(self):
        # rank-1 cross-check of the slot-derivative extraction
        g = coarse_grid()
        psi = gaussian_wavepacket(
            g, center=(0.5, 0.0), sigma=(0.8, 0.8), phase=lambda q, p: 0.2 * q
        )
        theta = kernel_from_wavefunction(psi)
        st_k = hydro_from_kernel(theta)
        st_w = hydro_from_wavefunction(psi)
        scale = np.max(np.abs(st_w.sigma.a_q.values))
        assert np.max(np.abs(st_k.sigma.a_q.values - st_w.sigma.a_q.values)) / scale < 1e-4
        np.testing.assert_allclose(st_k.D.values, st_w.D.values, atol=1e-12)
