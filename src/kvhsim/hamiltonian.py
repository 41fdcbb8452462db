"""Classical Hamiltonians and derived geometric objects.

Hamiltonians carry closed-form first partials, so that characteristics-based
oracles can be evaluated off-grid without any dependence on the field
discretization. Nothing differentiates H twice: the one-form transport
residual takes its Lie derivative by Cartan's formula from the first
partials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import GridMismatchError, PhaseGrid, ScalarField, interpolate_field, rk4_step, time_steps

Func2 = Callable[[np.ndarray, np.ndarray], np.ndarray]
CENTRAL_STEP = 1e-5


# where HamiltonianSpec checks its first partials against central
# differences: the first 32 points of the R2 low-discrepancy sequence
# (Roberts 2018) in [-3, 3)^2, frac(1/2 + k (1/g, 1/g^2)) for g the plastic
# number, the real root of g^3 = g + 1. No random generator is imported.
_G = 1.324717957244746
_CHECK_POINTS = tuple(-3.0 + 6.0 * ((0.5 + np.arange(1, 33) * a) % 1.0) for a in (1 / _G, 1 / _G**2))


class HamiltonianError(ValueError):
    pass


def central_gradient(f, q, p):
    """(df/dq, df/dp) at (q, p) by central differences of step CENTRAL_STEP.

    When f returns a tuple, each partial is the tuple of partials.
    """
    def diff(plus, minus):
        if isinstance(plus, tuple):
            return tuple(diff(a, b) for a, b in zip(plus, minus))
        return (plus - minus) / (2 * CENTRAL_STEP)

    h = CENTRAL_STEP
    return diff(f(q + h, p), f(q - h, p)), diff(f(q, p + h), f(q, p - h))


@dataclass(frozen=True)
class HamiltonianSpec:
    """Classical Hamiltonian h with its closed-form first partials h_q and
    h_p, checked against central differences of h when built."""

    name: str
    h: Func2
    h_q: Func2
    h_p: Func2

    def __post_init__(self):
        # the supplied first partials must match central differences of h
        q, p = _CHECK_POINTS
        fd_q, fd_p = central_gradient(self.h, q, p)
        for fd, exact, label in ((fd_q, self.h_q(q, p), "dH/dq"), (fd_p, self.h_p(q, p), "dH/dp")):
            scale = np.abs(fd) + np.abs(exact) + 1.0
            rel = np.max(np.abs(fd - exact) / scale)
            if rel > 1e-6:
                raise HamiltonianError(
                    f"{self.name}: supplied {label} disagrees with finite "
                    f"differences (relative error {rel:.2e})"
                )

    def lagrangian(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Phase-space Lagrangian p * dH/dp - H."""
        return p * self.h_p(q, p) - self.h(q, p)


# -- polynomial Hamiltonians ----------------------------------------------

def _poly_eval(coeffs: dict, q, p):
    # a zero power is left out rather than multiplied in as an array of ones;
    # the sum still starts from zeros, so a -0.0 term rounds to +0.0
    out = np.zeros(np.broadcast(q, p).shape)
    for (i, j), c in coeffs.items():
        term = c * q**i if i else c
        out = out + (term * p**j if j else term)
    return out


def _poly_diff(coeffs: dict, var: str) -> dict:
    out = {}
    for (i, j), c in coeffs.items():
        if var == "q" and i > 0:
            out[(i - 1, j)] = out.get((i - 1, j), 0.0) + c * i
        elif var == "p" and j > 0:
            out[(i, j - 1)] = out.get((i, j - 1), 0.0) + c * j
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def _poly_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0.0) - c
    return {k: v for k, v in out.items() if v != 0.0}


def poly_poisson(a: dict, b: dict) -> dict:
    """Coefficient table of the canonical bracket of two polynomials."""
    return _poly_sub(
        _poly_mul(_poly_diff(a, "q"), _poly_diff(b, "p")),
        _poly_mul(_poly_diff(a, "p"), _poly_diff(b, "q")),
    )


class PolynomialHamiltonian(HamiltonianSpec):
    """Hamiltonian given by a coefficient table {(i, j): c} for c q^i p^j."""

    def __init__(self, name: str, coeffs: dict):
        coeffs = {tuple(k): float(v) for k, v in coeffs.items() if v != 0.0}
        for (i, j), c in coeffs.items():
            if not np.isfinite(c):
                raise HamiltonianError(f"coefficient of q^{i} p^{j} must be finite, got {c}")
        object.__setattr__(self, "coeffs", coeffs)  # base dataclass is frozen
        dq = _poly_diff(coeffs, "q")
        dp = _poly_diff(coeffs, "p")
        super().__init__(
            name=name,
            h=lambda q, p: _poly_eval(coeffs, q, p),
            h_q=lambda q, p: _poly_eval(dq, q, p),
            h_p=lambda q, p: _poly_eval(dp, q, p),
        )

    def poisson_with(self, other: "PolynomialHamiltonian") -> "PolynomialHamiltonian":
        return PolynomialHamiltonian(
            f"{{{self.name},{other.name}}}", poly_poisson(self.coeffs, other.coeffs)
        )


# -- scenario library -----------------------------------------------------

def _pendulum() -> HamiltonianSpec:
    return HamiltonianSpec(
        name="pendulum",
        h=lambda q, p: 0.5 * p**2 - np.cos(q),
        h_q=lambda q, p: np.sin(q) + 0.0 * p,
        h_p=lambda q, p: p + 0.0 * q,
    )


def scenario_hamiltonian(name: str) -> HamiltonianSpec:
    try:
        return _SCENARIOS[name]()
    except KeyError:
        raise HamiltonianError(
            f"unknown Hamiltonian {name!r}; available: {sorted(_SCENARIOS)}"
        ) from None


_SCENARIOS = {
    "harmonic": lambda: PolynomialHamiltonian("harmonic", {(2, 0): 0.5, (0, 2): 0.5}),
    "free": lambda: PolynomialHamiltonian("free", {(0, 2): 0.5}),
    "quartic": lambda: PolynomialHamiltonian("quartic", {(0, 2): 0.5, (4, 0): 0.25}),
    "pendulum": _pendulum,
}

SCENARIO_NAMES = tuple(sorted(_SCENARIOS))


# -- derived geometric objects --------------------------------------------

@dataclass
class OneForm:
    """Covector field with components (a_q, a_p) on a common grid."""

    a_q: ScalarField
    a_p: ScalarField

    def __post_init__(self):
        if not self.a_q.grid.same_geometry(self.a_p.grid):
            raise HamiltonianError("one-form components live on different grids")


def self_broadcast(values, grid: PhaseGrid) -> np.ndarray:
    return np.broadcast_to(np.asarray(values, dtype=float), (grid.n_q, grid.n_p)).copy()


def coefficient_fields(H: HamiltonianSpec, grid: PhaseGrid):
    """(dH/dq, dH/dp, L_H) on the grid: the one sampler of transport coefficients."""
    a = self_broadcast(H.h_q(grid.Q, grid.P), grid)
    b = self_broadcast(H.h_p(grid.Q, grid.P), grid)
    lh = self_broadcast(H.lagrangian(grid.Q, grid.P), grid)
    return a, b, lh


# -- flows -----------------------------------------------------------------

# one flow step of every node in q, named so that a tracer can count the steps
def _rk4_step(rhs, q, p, a, h: float, buffers):
    rk4_step(rhs, (q, p, a), h, buffers)


def flow_with_action(H: HamiltonianSpec, t: float, q0, p0, dt: float = 1e-3):
    """Integrate the Hamiltonian flow together with the action integral.

    Returns (q(t), p(t), integral of L_H along the trajectory). Negative t
    integrates backwards. Vectorized over arrays of initial points, stepped
    in place by the time_steps(|t|, dt) grid.rk4_step calls of every field
    solver, in buffers allocated once; dt must be positive and finite.
    """
    q, p = (np.array(v, dtype=float) for v in np.broadcast_arrays(q0, p0))
    a = np.zeros_like(q)
    n_steps, h = time_steps(abs(t), dt)
    h = -h if t < 0 else h

    def rhs(q, p, out):
        dq, dp, da = out
        dq[...] = H.h_p(q, p)
        np.negative(H.h_q(q, p), out=dp)
        np.multiply(p, dq, out=da)
        np.subtract(da, H.h(q, p), out=da)

    # the sum, the stage input and k: stage inputs of (q, p) alone, as the
    # right-hand side never reads the action
    buffers = [tuple(np.empty_like(q) for _ in range(n)) for n in (3, 2, 3)]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            _rk4_step(rhs, q, p, a, h, buffers)
    return q, p, a


def flow_map(H: HamiltonianSpec, t: float, z0, dt: float = 1e-3):
    """Time-t flow of X_H from z0 = (q0, p0) with classical RK4."""
    q, p, _ = flow_with_action(H, t, z0[0], z0[1], dt)
    return q, p


def out_of_domain_mask(grid: PhaseGrid, q, p) -> np.ndarray:
    """True where a point lies outside the grid's box (or diverged).

    A sub-cell slack absorbs round-off from flows that graze the
    boundary, so nodes mapped exactly onto an edge are kept.
    """
    slack = 1e-9 * min(grid.dq, grid.dp)
    with np.errstate(invalid="ignore"):
        return (
            ~np.isfinite(q)
            | ~np.isfinite(p)
            | (q < grid.q_min - slack)
            | (q > grid.q_max + slack)
            | (p < grid.p_min - slack)
            | (p > grid.p_max + slack)
        )


@dataclass(frozen=True, eq=False)
class Characteristics:
    """Every node of `grid` flowed back by t: foot points (q0, p0), the action
    of L_H along each backward trajectory, and the mask of exited nodes."""

    grid: PhaseGrid
    t: float
    q0: np.ndarray
    p0: np.ndarray
    action: np.ndarray
    exited: np.ndarray

    def pullback(self, f: ScalarField) -> ScalarField:
        """f composed with the backward flow: f interpolated (bicubic) at the
        foot points, zero at exited nodes; an exact copy at t = 0.

        f must live on the grid the characteristics were flowed on.
        """
        if f.grid is not self.grid and not f.grid.same_geometry(self.grid):
            raise GridMismatchError("characteristics were flowed on a different grid")
        if self.t == 0:
            return f.copy()
        values = interpolate_field(f, self.q0, self.p0)
        np.copyto(values, 0.0, where=self.exited)
        return ScalarField(f.grid, values)

    def phase(self, hbar: float) -> np.ndarray:
        """exp(-i action / ħ) at every node: one at t = 0 and at exited nodes."""
        return np.exp(-1j * self.action / hbar)


def backward_characteristics(
    H: HamiltonianSpec, grid: PhaseGrid, t: float, dt: float
) -> Characteristics:
    """Flow every node of `grid` back by t along X_H with step dt.

    Exited nodes are recorded in `exited`; their foot points move to the box
    corner with zero action, and `pullback` zeroes those nodes.
    """
    q0, p0, action = flow_with_action(H, -t, grid.Q, grid.P, dt)
    bad = out_of_domain_mask(grid, q0, p0)
    if bad.any():
        q0 = np.where(bad, grid.q_min, q0)
        p0 = np.where(bad, grid.p_min, p0)
        action = np.where(bad, 0.0, action)
    return Characteristics(grid, t, q0, p0, action, bad)

