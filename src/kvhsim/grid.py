"""Rectangular phase-space grids with derivative and integration machinery.

The grid covers the box [q_min, q_max) x [p_min, p_max) with uniformly
spaced nodes (the right edge is excluded, matching the periodic
convention; the finite-difference mode reuses the same node set so fields
from either mode are directly comparable).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

PERIODIC = "periodic"
FD4 = "fd4"


class GridError(ValueError):
    pass


class GridMismatchError(GridError):
    """Two fields that must share a grid do not."""


class NonFiniteFieldError(GridError):
    """Field contains NaN or Inf values."""


class EvolutionAborted(RuntimeError):
    """A time-stepped state went non-finite.

    t is the time of the last finite state the solve yielded. A solver that
    kept a snapshot of that state sets last_good to it; else it is None.
    """

    def __init__(self, message, t):
        super().__init__(message)
        self.t = t
        self.last_good = None


def spectral_ik(n: int, spacing: float) -> np.ndarray:
    """i k of the n-point DFT at the given spacing, for spectral derivatives.

    The Nyquist mode of an even n is zeroed: its derivative is not resolved.
    """
    k = 2 * np.pi * np.fft.fftfreq(n, d=spacing)
    if n % 2 == 0:
        k[n // 2] = 0.0
    return 1j * k


@lru_cache(maxsize=8)
def _fd4_scratch(shape: tuple, dtype: np.dtype, axis: int):
    """Two contiguous arrays shaped like the interior of a field of this shape
    along `axis`, viewed with `axis` first: the working space of `_fd4_1d`.

    Every call on that shape shares them, so FD4 derivatives must not run
    concurrently in several threads.
    """
    interior = tuple(n - 4 if i == axis else n for i, n in enumerate(shape))
    return tuple(np.empty(interior, dtype).swapaxes(0, axis) for _ in range(2))


def _fd4_1d(values: np.ndarray, h: float, axis: int, out=None) -> np.ndarray:
    """4th-order finite difference of a 2-D field along `axis`, one-sided at
    the edges.

    The result is written into `out` when given; it must not share memory
    with `values`, whose neighbours the stencil still reads. The interior,
    ((v0 - 8 v1) + 8 v3 - v4) / (12 h), is formed in two cached arrays, so
    that a call allocates no field-sized temporary.
    """
    # views with `axis` first; swapaxes costs a small fraction of np.moveaxis
    v = values.swapaxes(0, axis)
    if out is None:
        out = np.empty_like(values)
    o = out.swapaxes(0, axis)
    a, b = _fd4_scratch(values.shape, values.dtype, axis)
    np.multiply(8, v[1:-3], out=a)
    np.subtract(v[:-4], a, out=a)
    np.multiply(8, v[3:-1], out=b)
    np.add(a, b, out=a)
    np.subtract(a, v[4:], out=a)
    np.divide(a, 12 * h, out=a)
    o[2:-2] = a
    # one-sided 5-point closures, 4th order
    o[0] = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h)
    o[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / (12 * h)
    o[-2] = (3 * v[-1] + 10 * v[-2] - 18 * v[-3] + 6 * v[-4] - v[-5]) / (12 * h)
    o[-1] = (25 * v[-1] - 48 * v[-2] + 36 * v[-3] - 16 * v[-4] + 3 * v[-5]) / (12 * h)
    return out


@lru_cache(maxsize=8)
def _spectral_scratch(shape: tuple) -> np.ndarray:
    """A complex array of this shape: where `_spectral_1d` transforms a real
    field. Every call on that shape shares it, so spectral derivatives must
    not run concurrently in several threads."""
    return np.empty(shape, complex)


def _spectral_1d(values: np.ndarray, ik: np.ndarray, axis: int, out=None) -> np.ndarray:
    """Spectral derivative along `axis`, ik broadcast along it.

    A complex field is transformed, multiplied and transformed back inside
    `out`. A real field is cast into a cached complex array, differentiated
    there in place, and its real part is copied out: the FFT of a real array
    is that of its complex cast, bit for bit, and numpy's own cast would
    allocate a field.
    """
    if np.isrealobj(values):
        work = _spectral_scratch(values.shape)
        np.copyto(work, values)
        d = _spectral_1d(work, ik, axis, out=work).real
        if out is None:
            return d.copy()
        np.copyto(out, d)
        return out
    out = np.fft.fft(values, axis=axis, out=out)
    np.multiply(ik, out, out=out)
    return np.fft.ifft(out, axis=axis, out=out)


@dataclass(eq=False)
class PhaseGrid:
    """Discretization of a truncated phase-space box.

    bc selects the derivative discretization: "periodic" for spectral
    (Fourier) differentiation, "fd4" for centered 4th-order stencils with
    one-sided boundary closures.
    """

    q_min: float
    q_max: float
    p_min: float
    p_max: float
    n_q: int
    n_p: int
    bc: str = PERIODIC

    def __post_init__(self):
        if self.n_q <= 0 or self.n_p <= 0:
            raise GridError("sample counts must be positive")
        bounds = (self.q_min, self.q_max, self.p_min, self.p_max)
        if not np.all(np.isfinite(bounds)):
            raise GridError(f"domain bounds must be finite, got (q_min, q_max, p_min, p_max) = {bounds}")
        if self.q_max <= self.q_min or self.p_max <= self.p_min:
            raise GridError("degenerate domain bounds")
        if self.bc not in (PERIODIC, FD4):
            raise GridError(f"unknown boundary mode {self.bc!r}")
        if self.bc == FD4 and min(self.n_q, self.n_p) < 5:
            raise GridError(
                f"fd4 stencils span 5 nodes; the grid has {self.n_q}x{self.n_p}"
            )

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / self.n_q

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.n_p

    @cached_property
    def q(self) -> np.ndarray:
        return self.q_min + self.dq * np.arange(self.n_q)

    @cached_property
    def p(self) -> np.ndarray:
        return self.p_min + self.dp * np.arange(self.n_p)

    @cached_property
    def Q(self) -> np.ndarray:
        """q coordinate at every node, shape (n_q, n_p)."""
        return np.broadcast_to(self.q[:, None], (self.n_q, self.n_p)).copy()

    @cached_property
    def P(self) -> np.ndarray:
        """p coordinate at every node, shape (n_q, n_p)."""
        return np.broadcast_to(self.p[None, :], (self.n_q, self.n_p)).copy()

    def node_coords(self, q, p) -> np.ndarray:
        """Fractional node indices of the points (q, p), one row per axis."""
        return np.array([(q - self.q_min) / self.dq, (p - self.p_min) / self.dp])

    @cached_property
    def _ikq(self) -> np.ndarray:
        return spectral_ik(self.n_q, self.dq)[:, None]

    @cached_property
    def _ikp(self) -> np.ndarray:
        return spectral_ik(self.n_p, self.dp)[None, :]

    # -- array-level operations ------------------------------------------

    def ddq(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """d/dq of values; written into `out` (not `values` itself) when given."""
        if self.bc == PERIODIC:
            return _spectral_1d(values, self._ikq, 0, out)
        return _fd4_1d(values, self.dq, 0, out)

    def ddp(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """d/dp of values; written into `out` (not `values` itself) when given."""
        if self.bc == PERIODIC:
            return _spectral_1d(values, self._ikp, 1, out)
        return _fd4_1d(values, self.dp, 1, out)

    def bracket(self, a, b, values, out=None, work=None) -> np.ndarray:
        """{F, f} = a ∂_p f - b ∂_q f, for a = ∂F/∂q and b = ∂F/∂p sampled on the grid.

        Written into `out`, with `work` as a temporary, when given; neither may
        be `values`. The difference is rounded as written.
        """
        out = self.ddp(values, out=out)
        np.multiply(a, out, out=out)
        work = self.ddq(values, out=work)
        np.multiply(b, work, out=work)
        return np.subtract(out, work, out=out)

    def integrate_values(self, values: np.ndarray) -> complex | float:
        return values.sum() * (self.dq * self.dp)

    def same_geometry(self, other: "PhaseGrid") -> bool:
        return (
            self.n_q == other.n_q
            and self.n_p == other.n_p
            and np.isclose(self.q_min, other.q_min)
            and np.isclose(self.q_max, other.q_max)
            and np.isclose(self.p_min, other.p_min)
            and np.isclose(self.p_max, other.p_max)
        )


@dataclass
class ScalarField:
    """Complex (or real) scalar field sampled on a PhaseGrid."""

    grid: PhaseGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.n_q, self.grid.n_p):
            raise GridError(
                f"field shape {self.values.shape} does not match grid "
                f"({self.grid.n_q}, {self.grid.n_p})"
            )

    def conj(self) -> "ScalarField":
        return ScalarField(self.grid, np.conj(self.values))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            _check_same_grid(self, other)
            return ScalarField(self.grid, self.values * other.values)
        return ScalarField(self.grid, self.values * other)

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarField(self.grid, -self.values)


def _check_same_grid(f: ScalarField, g: ScalarField) -> None:
    if f.grid is not g.grid and not f.grid.same_geometry(g.grid):
        raise GridMismatchError("fields live on different grids")


def _check_finite(f: ScalarField) -> None:
    if not np.all(np.isfinite(f.values)):
        raise NonFiniteFieldError("field contains non-finite values")


def integrate(f: ScalarField) -> complex | float:
    """Quadrature against the Liouville measure dq dp."""
    return f.grid.integrate_values(f.values)


def divergence(v_q: ScalarField, v_p: ScalarField) -> ScalarField:
    """div(v) = dq(v_q) + dp(v_p) in canonical coordinates."""
    _check_same_grid(v_q, v_p)
    _check_finite(v_q)
    _check_finite(v_p)
    grid = v_q.grid
    return ScalarField(grid, grid.ddq(v_q.values) + grid.ddp(v_p.values))


def spline_prefilter(values: np.ndarray, axes) -> np.ndarray:
    """P: periodic cubic B-spline coefficients of `values` along `axes`.

    The spline through the samples c has values (c[i-1] + 4 c[i] + c[i+1])/6
    at the nodes, a circulant whose DFT symbol is (4 + 2 cos 2πk/n)/6; P
    divides by that symbol along each axis (Unser, Aldroubi & Eden 1993).
    """
    symbol = np.ones(())
    for axis in axes:
        n = values.shape[axis]
        s = (4 + 2 * np.cos(2 * np.pi * np.arange(n) / n)) / 6
        symbol = symbol * s.reshape([n if i == axis else 1 for i in range(values.ndim)])
    coeffs = np.fft.fftn(values, axes=axes)
    coeffs /= symbol
    coeffs = np.fft.ifftn(coeffs, axes=axes, out=coeffs)
    return coeffs if np.iscomplexobj(values) else coeffs.real


def spline_taps(coords, shape) -> tuple:
    """W: the cubic B-spline taps at fractional node indices `coords` (one row
    per axis of `shape`, wrapped periodically into it).

    Returns one (index, weight) pair per axis, each of shape (4, points): the
    4 wrapped nodes of every point along that axis, times the axis's stride
    in the flattened `shape`, and their weights. A point's 4**d taps are the
    sums of those indices and the products of those weights over the axes,
    which `apply_taps` forms one tap at a time.
    """
    taps = []
    stride = 1
    for x, n in reversed(list(zip(coords, shape))):
        x = np.reshape(x, (1, -1))
        i = np.floor(x)
        f = x - i
        g = 1 - f
        w = np.concatenate([g**3, 4 - 3 * f * f * (1 + g), 4 - 3 * g * g * (1 + f), f**3]) / 6
        i = i.astype(np.intp)
        nodes = np.concatenate([(i + k) % n for k in (-1, 0, 1, 2)])
        nodes *= stride
        taps.append((nodes, w))
        stride *= n
    return tuple(reversed(taps))


def apply_taps(taps: tuple, values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Σ_t weight_t · values[index_t] along `axis`: W applied to that axis of
    `values`, one tap at a time, with no gather of all taps at once. Each
    tap's flat index and weight are formed from the per-axis taps of
    `spline_taps`, the first axis major."""
    shape = [-1 if i == axis else 1 for i in range(values.ndim)]
    index = np.empty_like(taps[0][0][0])
    weight = np.empty_like(taps[0][1][0])
    out = term = None
    for tap in itertools.product(*(zip(*axis_taps) for axis_taps in taps)):
        (first_index, first_weight), *rest = tap
        np.copyto(index, first_index)
        np.copyto(weight, first_weight)
        for axis_index, axis_weight in rest:
            index += axis_index
            weight *= axis_weight
        if out is None:
            out = np.take(values, index, axis=axis)
            out *= weight.reshape(shape)
            term = np.empty_like(out)
        else:
            # indices are in range; mode "clip" lets `take` write `term` unbuffered
            np.take(values, index, axis=axis, out=term, mode="clip")
            term *= weight.reshape(shape)
            out += term
    return out


def interpolate(values: np.ndarray, coords) -> np.ndarray:
    """Periodic cubic spline of `values` at fractional node indices `coords`
    (one row per axis): W applied to the coefficients P values, so 4 taps per
    point in 1-D and 16 in 2-D. Real and complex fields alike."""
    coords = np.asarray(coords, dtype=float)
    coeffs = spline_prefilter(values, tuple(range(values.ndim))).reshape(-1)
    return apply_taps(spline_taps(coords, values.shape), coeffs).reshape(coords.shape[1:])


def interpolate_field(f: ScalarField, q, p) -> np.ndarray:
    """f at the phase-space points (q, p), by periodic bicubic interpolation."""
    return interpolate(f.values, f.grid.node_coords(q, p))


def time_steps(t_final: float, dt: float):
    """Step count and adjusted step landing exactly on t_final.

    t_final = 0 gives no steps. A negative or non-finite t_final, or a dt
    that is not a positive finite number, raises ValueError: the solvers
    built on this step forward only, over a finite horizon.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt = {dt!r} must be positive and finite")
    if not np.isfinite(t_final):
        raise ValueError(f"t_final = {t_final!r} must be finite")
    if t_final < 0:
        raise ValueError(f"t_final = {t_final!r} is negative; evolution runs forward only")
    if t_final == 0:
        return 0, dt
    n = max(1, int(round(t_final / dt)))
    return n, t_final / n


def _advance(state, k, h, stage):
    """stage = state + h k, component by component."""
    for s, dk, x in zip(state, k, stage):
        np.multiply(h, dk, out=x)
        np.add(s, x, out=x)


def rk4_step(rhs, state: tuple, dt: float, buffers) -> None:
    """One classical RK4 step of d(state)/dt = rhs(state), in place.

    state is a tuple of arrays, overwritten with the stepped state. rhs is
    called as rhs(*stage, out=k) and writes the derivative of each component
    into the matching array of the tuple k. buffers holds k1, k2, k3, k4 and
    the stage input, five tuples of arrays shaped like state. The stage
    expressions keep one evaluation order, s + (0.5 dt) k and
    s + (dt/6) (((k1 + 2 k2) + 2 k3) + k4), so every solver rounds alike.
    """
    k1, k2, k3, k4, stage = buffers
    rhs(*state, out=k1)
    _advance(state, k1, 0.5 * dt, stage)
    rhs(*stage, out=k2)
    _advance(state, k2, 0.5 * dt, stage)
    rhs(*stage, out=k3)
    _advance(state, k3, dt, stage)
    rhs(*stage, out=k4)
    # the stage input and k2 are free now: they hold the weighted sum
    for s, a, b, c, d, x in zip(state, k1, k2, k3, k4, stage):
        np.multiply(2, b, out=x)
        np.add(a, x, out=x)
        np.multiply(2, c, out=b)
        np.add(x, b, out=x)
        np.add(x, d, out=x)
        np.multiply(dt / 6, x, out=x)
        np.add(s, x, out=s)


def rk4_steps(rhs, state: tuple, t_final: float, dt: float, stride: int = 0):
    """Step d(state)/dt = rhs(state) from t = 0 to t_final by rk4_step.

    The step count and the step landing on t_final come from time_steps.
    Yields (t, state) after every `stride`-th step (stride 0: none) and after
    the last one; t_final = 0 yields nothing. A state that turns non-finite
    raises EvolutionAborted, whose t is that of the last yield (0 before any).

    state is stepped in place: every yield carries that same tuple,
    overwritten by the next step, so copy the arrays to keep them. The
    stage buffers are allocated once, and released before the last yield.
    """
    n_steps, dt = time_steps(t_final, dt)
    buffers = [tuple(np.empty_like(s) for s in state) for _ in range(5)]
    t_yielded = 0.0
    for step in range(1, n_steps + 1):
        # a blow-up is reported once, by EvolutionAborted, not by overflow warnings
        with np.errstate(over="ignore", invalid="ignore"):
            rk4_step(rhs, state, dt, buffers)
        if not all(np.isfinite(s).all() for s in state):
            raise EvolutionAborted(
                f"non-finite state at RK4 step {step} of {n_steps}: "
                f"dt = {dt:.3g} is likely beyond the stability limit",
                t_yielded,
            )
        if step == n_steps:
            # what the caller does with the final state needs no stage buffers
            buffers.clear()
        if step == n_steps or (stride and step % stride == 0):
            t_yielded = step * dt
            yield t_yielded, state


def l2_norm(f: ScalarField) -> float:
    return float(np.sqrt(np.real(integrate(ScalarField(f.grid, np.abs(f.values) ** 2)))))


def l1_norm(f: ScalarField) -> float:
    return float(np.real(integrate(ScalarField(f.grid, np.abs(f.values)))))
