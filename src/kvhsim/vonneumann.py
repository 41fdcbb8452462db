"""Von Neumann kernel operators on a coarse phase-space grid.

Operators are dense Hermitian matrices indexed by flattened grid nodes
(row-major, q index major). The integral-kernel normalization is such
that matrix entries are kernel values; traces and inner products carry
the quadrature weight dq*dp.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grid import (
    PERIODIC,
    EvolutionAborted,
    PhaseGrid,
    ScalarField,
    apply_taps,
    derivative_matrix,
    spline_prefilter,
    spline_taps,
    time_steps,
)
from .hamiltonian import (
    Characteristics,
    HamiltonianSpec,
    OneForm,
    backward_characteristics,
    coefficient_fields,
)
from .kvh import WaveFunction
from .madelung import HydroState


class KernelError(ValueError):
    pass


@dataclass
class VNKernel:
    """Dense Hermitian integral kernel K(z, z') on a coarse grid."""

    grid: PhaseGrid
    K: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        n = self.grid.n_q * self.grid.n_p
        if self.K.shape != (n, n):
            raise KernelError(f"kernel shape {self.K.shape} does not match grid ({n}x{n})")

    @property
    def weight(self) -> float:
        return self.grid.dq * self.grid.dp

    def trace(self) -> float:
        return float(np.real(np.trace(self.K))) * self.weight

    def casimir(self) -> float:
        """Tr(Theta^2) with quadrature weights."""
        M = self.K * self.weight
        # Tr(M M) = sum(M * M.T), without the matmul
        return float(np.real(np.sum(M * M.T)))

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the operator (weighted kernel matrix), sorted."""
        return np.sort(np.linalg.eigvalsh(self.K * self.weight))

    def copy(self) -> "VNKernel":
        return VNKernel(self.grid, self.K.copy(), self.hbar)


@lru_cache(maxsize=16)
def _local_stencil_matrix(n: int) -> np.ndarray:
    """Row i: 9-point polynomial weights for the first derivative at node i,
    on unit spacing (cached, read-only).

    Each window is centred on i where it fits and one-sided at the edges.
    These wide stencils are the FD4-grid factors of `hydro_from_kernel`;
    everything else differentiates by `grid.derivative_matrix`.
    """
    if n < 9:
        raise KernelError(f"9-point stencils do not fit on {n} nodes per axis")
    M = np.zeros((n, n))
    for i in range(n):
        lo = min(max(i - 4, 0), n - 9)
        A = np.vander(np.arange(lo - i, lo - i + 9), 9, increasing=True).T.astype(float)
        M[i, lo : lo + 9] = np.linalg.solve(A, np.eye(9)[1])
    M.flags.writeable = False
    return M


def kernel_from_wavefunction(psi: WaveFunction) -> VNKernel:
    """Rank-1 kernel Psi(z) conj(Psi(z')); requires a norm within 1e-8 of 1."""
    norm = psi.norm()
    if abs(norm - 1.0) > 1e-8:
        raise KernelError(f"wavefunction norm {norm:.6g} is not 1")
    v = psi.field.values.reshape(-1)
    return VNKernel(psi.grid, np.outer(v, v.conj()), psi.hbar)


def prequantum_matrix(H: HamiltonianSpec, grid: PhaseGrid, hbar: float = 1.0) -> np.ndarray:
    """Dense discretization of iħ{H, ·} - L_H on flattened fields.

    The bracket a ∂_p - b ∂_q couples node (i, j) to the nodes (i, :)
    through row j of the 1-D ∂_p of `grid.derivative_matrix`, and to the
    nodes (:, j) through row i of ∂_q; both are written into L viewed as an
    (n_q, n_p, n_q, n_p) array, with no N x N derivative matrix.

    On a periodic grid the 1-D matrices are exactly antisymmetric, so the
    matrix is exactly Hermitian whenever dH/dq depends on q alone and dH/dp
    on p alone (diag(h_q) then commutes with ∂_p, and diag(h_p) with ∂_q);
    evolve_kernel takes its unitary eigenbasis from eigh there. FD4
    stencils and non-separable H give a non-Hermitian matrix.
    """
    n_q, n_p = grid.n_q, grid.n_p
    a, b, lh = coefficient_fields(H, grid)
    i, j = np.indices((n_q, n_p))
    L = np.zeros((n_q, n_p, n_q, n_p), complex)
    L[i, j, i, :] = a[..., None] * derivative_matrix(n_p, grid.dp, grid.bc)[j]
    L[i, j, :, j] -= b[..., None] * derivative_matrix(n_q, grid.dq, grid.bc)[i]
    L = L.reshape(n_q * n_p, -1)
    L *= 1j * hbar
    L.reshape(-1)[:: len(L) + 1] -= lh.reshape(-1)
    return L


class KernelPropagator(NamedTuple):
    """The propagator U = Φ W P on flattened fields, kept factored.

    P is the spline prefilter of `grid.spline_prefilter` on the (n_q, n_p)
    field, W the 16 spline taps per node at the foot points (`taps`, as
    from `grid.spline_taps`), and Φ the diagonal of action phases (`phase`).
    `taps` is None at t = 0, where U is exactly the identity.
    """

    grid: PhaseGrid
    phase: np.ndarray
    taps: tuple | None

    def conjugate(self, K: np.ndarray) -> np.ndarray:
        """U K U^H, as Φ W (P K P^T) W^T Φ*: P acts on the four axes of K
        as an (n_q, n_p, n_q, n_p) array, then W one tap at a time on the
        left and on the right. P and W are real, so P^H = P^T and W^H = W^T."""
        if self.taps is None:
            return K.copy()
        g = self.grid
        K = K.astype(complex, copy=False)
        C = spline_prefilter(K.reshape(g.n_q, g.n_p, g.n_q, g.n_p), (0, 1, 2, 3))
        C = apply_taps(self.taps, C.reshape(K.shape), axis=0)
        C = apply_taps(self.taps, C, axis=1)
        C *= self.phase[:, None]
        C *= self.phase.conj()[None, :]
        return C


def kernel_propagator(ch: Characteristics, hbar: float) -> KernelPropagator:
    """Unitary propagator on flattened fields, built from characteristics.

    Row i of U = Φ W P is the pullback of a field to node i: the cubic
    spline (prefilter P, taps W) at the backward-flowed node, times the
    accumulated-action phase Φ_i. It is returned factored, never formed
    as an N x N matrix. Nodes whose backward characteristic leaves the
    box get zero taps, hence zero rows, which is only valid for kernels
    supported away from the outflow region at the chosen horizon. At
    t = 0 the propagator is exactly the identity.
    """
    grid = ch.grid
    phase = ch.phase(hbar).reshape(-1)
    if ch.t == 0:
        return KernelPropagator(grid, phase, None)
    taps = spline_taps(grid.node_coords(ch.q0, ch.p0), (grid.n_q, grid.n_p))
    # zero q weights zero every product of q and p weights
    taps[0][1][:, ch.exited.reshape(-1)] = 0.0
    return KernelPropagator(grid, phase, taps)


# closed-form kernel evolution in a general (non-unitary) eigenbasis is
# refused when kappa_1(V) * eps exceeds this
_EIGENBASIS_ROUNDOFF_LIMIT = 1e-10


def _rk4_stability(z: np.ndarray) -> np.ndarray:
    """RK4 stability polynomial: one step of y' = lam y multiplies y by p(lam dt)."""
    return 1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))


# elements per band of rows in _apply_rk4_gain: its temporaries stay far
# below one N x N array
_GAIN_BAND = 1 << 14


def _apply_rk4_gain(M: np.ndarray, lam: np.ndarray, dt: float, n_steps: int) -> None:
    """M[i, j] *= p(dt (lam_i - lam_j))^n_steps in place, a band of rows at a time."""
    rows = max(1, _GAIN_BAND // len(lam))
    for i in range(0, len(lam), rows):
        band = slice(i, i + rows)
        M[band] *= _rk4_stability(dt * (lam[band, None] - lam[None, :])) ** n_steps


def evolve_kernel(
    theta0: VNKernel,
    H: HamiltonianSpec,
    t_final: float,
    dt: float,
    method: str = "rk4",
) -> VNKernel:
    """Evolve the kernel under iħ dTheta/dt = [L̂_H, Theta].

    method "rk4" returns the result of n classical RK4 steps of the dense
    commutator flow dK/dt = A K - K A, A = -(i/ħ) L, with (n, dt) from
    time_steps (a negative t_final raises ValueError; t_final = 0 returns
    a copy of theta0). It evaluates that discrete scheme in closed form
    rather than stepping: with A V = V diag(lam), one step multiplies
    entry (i, j) of V^-1 K V by p(dt (lam_i - lam_j)), where p is the RK4
    stability polynomial, so K(t) = V [p^n * (V^-1 K0 V)] V^-1. The cost
    is one eigendecomposition and four matmuls for any step count. Besides
    K0, the peak working set is at most 5 N x N complex arrays, inside the
    eigensolver: L, V and LAPACK's copy of L and workspace. L goes when the
    solver returns; then V, V^-1 and two product arrays remain, and p^n is
    applied a band of rows at a time.

    The eigensolver is chosen by an exact property of L. When L is exactly
    Hermitian (periodic grids with h_q a function of q and h_p of p, as
    for every scenario Hamiltonian), eigh gives L = V diag(mu) V^H with V
    unitary, so lam = -i mu/ħ and V^-1 = V^H. Otherwise (FD4 grids,
    non-separable H) the general eig is used, and V^-1 amplifies roundoff
    by up to kappa_1(V) = |V|_1 |V^-1|_1: a KernelError is raised when
    kappa_1(V) * eps exceeds 1e-10 (nonnormal one-sided stencils, e.g.
    the free Hamiltonian on FD4). A dt beyond the RK4 stability limit
    raises EvolutionAborted (a RuntimeError) at t = 0.

    method "characteristics" conjugates by the factored backward-flow
    propagator in one shot (dt then controls the flow integration only).
    It is the accurate choice when the kernel carries mass at the box
    boundary, where one-sided transport stencils break down.
    """
    if method == "characteristics":
        ch = backward_characteristics(H, theta0.grid, t_final, dt)
        U = kernel_propagator(ch, theta0.hbar)
        return VNKernel(theta0.grid, U.conjugate(theta0.K), theta0.hbar)
    if method != "rk4":
        raise ValueError(f"unknown kernel evolution method {method!r}")
    n_steps, dt = time_steps(t_final, dt)
    if n_steps == 0:
        return theta0.copy()
    # the eigensolver's buffers set the peak memory: nothing but L and K0
    # is alive while it runs, and L is dropped as soon as it returns
    L = prequantum_matrix(H, theta0.grid, theta0.hbar)
    if np.array_equal(L, L.conj().T):
        mu, V = np.linalg.eigh(L)
        del L
        lam = (-1j / theta0.hbar) * mu
        V_inv = V.conj().T
    else:
        L *= -1j / theta0.hbar
        lam, V = np.linalg.eig(L)
        del L
        V_inv = np.linalg.inv(V)
        kappa = np.linalg.norm(V, 1) * np.linalg.norm(V_inv, 1)
        if kappa * np.finfo(float).eps > _EIGENBASIS_ROUNDOFF_LIMIT:
            raise KernelError(
                f"Liouvillian eigenvectors are ill-conditioned (kappa_1 = {kappa:.2e}) "
                f"on this grid; use method=\"characteristics\""
            )
    # K = V [p^n * (V^-1 K0 V)] V^-1, the products through two arrays
    T = V_inv @ theta0.K
    M = T @ V
    with np.errstate(over="ignore", invalid="ignore"):
        _apply_rk4_gain(M, lam, dt, n_steps)
        np.matmul(V, M, out=T)
        K = np.matmul(T, V_inv, out=M)
    if not np.all(np.isfinite(K)):
        raise EvolutionAborted(
            f"non-finite kernel after {n_steps} RK4 steps: "
            f"dt = {dt:.3g} exceeds the stability limit",
            0.0,
        )
    return VNKernel(theta0.grid, K, theta0.hbar)


def hydro_from_kernel(theta: VNKernel) -> HydroState:
    """Extract (sigma, D) from the kernel.

    D is the kernel diagonal; sigma comes from antisymmetrized slot
    derivatives evaluated at coincidence.
    """
    g = theta.grid
    if g.bc == PERIODIC:
        Mq, Mp = derivative_matrix(g.n_q, g.dq, g.bc), derivative_matrix(g.n_p, g.dp, g.bc)
    else:
        # wide stencils: the kernel's phase factor is a chirp and the defect
        # tolerances sit well below plain 4th-order truncation at coarse n
        Mq, Mp = _local_stencil_matrix(g.n_q) / g.dq, _local_stencil_matrix(g.n_p) / g.dp
    K4 = theta.K.reshape(g.n_q, g.n_p, g.n_q, g.n_p)
    # second-slot minus first-slot derivative at coincidence, each the 1-D
    # matrix applied along one axis of the kernel
    sigma_q = (1j * theta.hbar / 2) * (np.einsum("abcb,ac->ab", K4, Mq) - np.einsum("ac,cbab->ab", Mq, K4))
    sigma_p = (1j * theta.hbar / 2) * (np.einsum("abad,bd->ab", K4, Mp) - np.einsum("bd,adab->ab", Mp, K4))
    D = np.real(np.diag(theta.K))
    return HydroState(
        OneForm(ScalarField(g, np.real(sigma_q)), ScalarField(g, np.real(sigma_p))),
        ScalarField(g, D.reshape(g.n_q, g.n_p)),
    )


def point_particle_kernel(grid: PhaseGrid, density, hbar: float) -> VNKernel:
    """Kernel D((z+z')/2) exp(i (p+p')(q-q') / 2ħ) realizing rho = D.

    The density D is a callable D(q, p), evaluated at the midpoint of every
    pair of nodes, so K is the formula up to rounding. D must be
    nonnegative at every midpoint (the nodes included) and integrate to 1
    on the nodes within 1e-8.
    """
    g = grid
    n = g.n_q * g.n_p
    # the midpoint of nodes (iq, ip) and (jq, jp), broadcast over (iq, ip, jq, jp)
    q_mid = 0.5 * np.add.outer(g.q, g.q)[:, None, :, None]
    p_mid = 0.5 * np.add.outer(g.p, g.p)[None, :, None, :]
    Dmid = np.broadcast_to(density(q_mid, p_mid), (g.n_q, g.n_p, g.n_q, g.n_p)).reshape(n, n)
    if np.min(Dmid) < -1e-12:
        raise KernelError("target density must be nonnegative at the nodes and pair midpoints")
    total = float(g.integrate_values(np.diagonal(Dmid)))
    if abs(total - 1.0) > 1e-8:
        raise KernelError(f"target density integrates to {total:.6g}, expected 1")
    q = g.Q.reshape(-1)
    p = g.P.reshape(-1)
    phase = np.exp((1j / (2 * hbar)) * (p[:, None] + p[None, :]) * (q[:, None] - q[None, :]))
    # exactly Hermitian: Dmid is symmetric, the phase argument of (j, i) is
    # the exact negative of that of (i, j), and exp(-ix) rounds to conj(exp(ix))
    return VNKernel(g, Dmid * phase, hbar)


def density_centroid(D: ScalarField):
    """Center of mass of a (nonnegative) density field."""
    g = D.grid
    total = float(np.real(g.integrate_values(D.values)))
    qc = float(np.real(g.integrate_values(D.values * g.Q))) / total
    pc = float(np.real(g.integrate_values(D.values * g.P))) / total
    return qc, pc


def sigma_defect(state: HydroState):
    """max |sigma - D A| / max D, the point-particle preservation defect."""
    g = state.grid
    defect_q = np.abs(state.sigma.a_q.values - state.D.values * g.P)
    defect_p = np.abs(state.sigma.a_p.values)
    return float(np.max(np.maximum(defect_q, defect_p)) / np.max(state.D.values))
