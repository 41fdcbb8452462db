"""Grid construction, derivatives, quadrature, and step adjustment."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kvhsim import grid as grid_module
from kvhsim.grid import (
    FD4,
    PERIODIC,
    EvolutionAborted,
    GridError,
    GridMismatchError,
    NonFiniteFieldError,
    PhaseGrid,
    ScalarField,
    _fd4_1d,
    _spectral_1d,
    apply_taps,
    derivative_matrix,
    divergence,
    integrate,
    interpolate,
    l1_norm,
    l2_norm,
    rk4_steps,
    spectral_ik,
    spline_prefilter,
    spline_taps,
    time_steps,
)


def make_grid(n=64, bc=PERIODIC, lo=-np.pi, hi=np.pi):
    return PhaseGrid(lo, hi, lo, hi, n, n, bc)


def ik_q(g):
    """i k of the grid's q axis, broadcast along axis 0."""
    return spectral_ik(g.n_q, g.dq)[:, None]


def ik_p(g):
    """i k of the grid's p axis, broadcast along axis 1."""
    return spectral_ik(g.n_p, g.dp)[None, :]


class TestConstruction:
    def test_node_layout_excludes_right_edge(self):
        g = PhaseGrid(0.0, 1.0, -1.0, 1.0, 4, 8)
        assert g.dq == pytest.approx(0.25)
        assert g.dp == pytest.approx(0.25)
        np.testing.assert_allclose(g.q, [0.0, 0.25, 0.5, 0.75])
        assert g.p[-1] == pytest.approx(1.0 - g.dp)

    def test_coordinate_arrays_shape(self):
        g = PhaseGrid(0.0, 1.0, 0.0, 2.0, 3, 5)
        assert g.Q.shape == (3, 5)
        assert np.all(g.Q[:, 0] == g.q)
        assert np.all(g.P[0, :] == g.p)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_q=0),
            dict(n_p=-1),
            dict(q_max=-9.0),
            dict(bc="dirichlet"),
            dict(q_min=np.nan),
            dict(p_max=np.inf),
        ],
    )
    def test_invalid_construction(self, kwargs):
        base = dict(q_min=-8.0, q_max=8.0, p_min=-8.0, p_max=8.0, n_q=8, n_p=8)
        base.update(kwargs)
        with pytest.raises(GridError):
            PhaseGrid(**base)

    def test_field_shape_mismatch(self):
        g = make_grid(8)
        with pytest.raises(GridError):
            ScalarField(g, np.zeros((8, 9)))


class TestDerivatives:
    def test_spectral_exact_on_trig(self):
        g = make_grid(32)
        f = np.sin(3 * g.Q) * np.cos(2 * g.P)
        np.testing.assert_allclose(
            g.ddq(f), 3 * np.cos(3 * g.Q) * np.cos(2 * g.P), atol=1e-12
        )
        np.testing.assert_allclose(
            g.ddp(f), -2 * np.sin(3 * g.Q) * np.sin(2 * g.P), atol=1e-12
        )

    def test_fd4_exact_on_cubic(self):
        # 5-point stencils (interior and one-sided) are exact on cubics
        g = make_grid(24, bc=FD4, lo=-2.0, hi=2.0)
        f = g.Q**3 - 2 * g.Q * g.P + g.P**2
        np.testing.assert_allclose(g.ddq(f), 3 * g.Q**2 - 2 * g.P, atol=1e-10)
        np.testing.assert_allclose(g.ddp(f), -2 * g.Q + 2 * g.P, atol=1e-10)

    def test_fd4_fourth_order_convergence(self):
        errs = []
        for n in (32, 64):
            g = make_grid(n, bc=FD4, lo=-1.0, hi=1.0)
            f = np.exp(g.Q) * np.sin(g.P)
            err = np.max(np.abs(g.ddq(f) - f))
            errs.append(err)
        assert errs[0] / errs[1] > 12.0

    @pytest.mark.parametrize("bc", [PERIODIC, FD4])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_out_argument_receives_the_same_derivative(self, bc, dtype):
        g = PhaseGrid(-2, 2, -3, 3, 12, 10, bc)
        values = np.cos(g.Q + 2 * g.P) + (1j if dtype is complex else 0) * np.sin(g.Q * g.P)
        for deriv in (g.ddq, g.ddp):
            out = np.empty_like(values)
            assert deriv(values, out=out) is out
            assert np.array_equal(out, deriv(values))
            # without `out`, ddp of a complex field transposes its product back
            assert deriv(values).flags.c_contiguous

    # an axis above grid._MATRIX_AXIS_MAX = 64 nodes is differentiated by the
    # stencil or the transform, a shorter one by its dense matrix
    @pytest.mark.parametrize("shape", [(192, 192)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_fd4_is_the_literal_formula_bit_for_bit(self, shape, dtype):
        g = PhaseGrid(-2, 2, -3, 3, *shape, FD4)
        rng = np.random.default_rng(5)
        values = rng.standard_normal(shape) + (1j if dtype is complex else 0) * rng.standard_normal(shape)
        for deriv, h, axis in ((g.ddq, g.dq, 0), (g.ddp, g.dp, 1)):
            v = np.moveaxis(values, axis, 0)
            expected = np.empty_like(values)
            e = np.moveaxis(expected, axis, 0)
            e[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
            e[0] = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h)
            e[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / (12 * h)
            e[-2] = (3 * v[-1] + 10 * v[-2] - 18 * v[-3] + 6 * v[-4] - v[-5]) / (12 * h)
            e[-1] = (25 * v[-1] - 48 * v[-2] + 36 * v[-3] - 16 * v[-4] + 3 * v[-5]) / (12 * h)
            assert deriv(values).tobytes() == expected.tobytes()
            out = np.empty_like(values)
            assert deriv(values, out=out).tobytes() == expected.tobytes()

    def test_fd4_with_out_allocates_no_field(self, traced_peak):
        g = make_grid(192, bc=FD4)
        values = np.sin(g.Q) * np.cos(g.P)
        out = np.empty_like(values)
        for deriv in (g.ddq, g.ddp):
            deriv(values, out=out)  # the first call allocates the scratch arrays it keeps
            assert traced_peak(lambda: deriv(values, out=out)) < values.nbytes

    @pytest.mark.parametrize("shape", [(65, 96), (192, 192)], ids=["65x96", "192x192"])
    def test_real_spectral_is_the_complex_formula_bit_for_bit(self, shape):
        # the real field is transformed as its complex cast, so the
        # derivative is the real part of the plain complex formula
        g = PhaseGrid(-2, 2, -3, 3, *shape)
        rng = np.random.default_rng(6)
        fields = [rng.standard_normal(shape), np.exp(np.sin(g.Q) + np.cos(2 * g.P))]
        for values in fields:
            for deriv, ik, axis in ((g.ddq, ik_q(g), 0), (g.ddp, ik_p(g), 1)):
                expected = np.fft.ifft(ik * np.fft.fft(values, axis=axis), axis=axis).real
                assert np.array_equal(deriv(values), expected)
                out = np.empty_like(values)
                assert deriv(values, out=out) is out
                assert np.array_equal(out, expected)

    def test_real_spectral_with_out_allocates_like_a_complex_one(self, traced_peak):
        # no field-sized temporary: what is left is numpy's ufunc buffer for
        # the broadcast ik, which the complex path allocates as well
        g = make_grid(192)
        values = np.sin(g.Q) * np.cos(g.P)
        complex_values = values.astype(complex)
        out, complex_out = np.empty_like(values), np.empty_like(complex_values)
        for deriv in (g.ddq, g.ddp):
            deriv(values, out=out)  # the first call allocates the scratch array it keeps
            real_peak = traced_peak(lambda: deriv(values, out=out))
            assert real_peak <= traced_peak(lambda: deriv(complex_values, out=complex_out))
            assert real_peak < complex_values.nbytes

    def test_nonfinite_rejected(self):
        g = make_grid(8)
        bad = np.zeros((8, 8))
        bad[3, 3] = np.nan
        with pytest.raises(NonFiniteFieldError):
            divergence(ScalarField(g, bad), ScalarField(g, np.zeros((8, 8))))

    def test_nonfinite_second_argument_rejected(self):
        g = make_grid(8)
        bad = np.zeros((8, 8))
        bad[2, 5] = np.inf
        with pytest.raises(NonFiniteFieldError):
            divergence(ScalarField(g, np.zeros((8, 8))), ScalarField(g, bad))


def literal_fd4_weights(n):
    """The FD4 stencil of n nodes times 12 h, written entry by entry."""
    S = np.zeros((n, n))
    for i in range(2, n - 2):
        S[i, i - 2], S[i, i - 1], S[i, i + 1], S[i, i + 2] = 1, -8, 8, -1
    S[0, 0], S[0, 1], S[0, 2], S[0, 3], S[0, 4] = -25, 48, -36, 16, -3
    S[1, 0], S[1, 1], S[1, 2], S[1, 3], S[1, 4] = -3, -10, 18, -6, 1
    S[n - 2, n - 1], S[n - 2, n - 2], S[n - 2, n - 3], S[n - 2, n - 4], S[n - 2, n - 5] = 3, 10, -18, 6, -1
    S[n - 1, n - 1], S[n - 1, n - 2], S[n - 1, n - 3], S[n - 1, n - 4], S[n - 1, n - 5] = 25, -48, 36, -16, 3
    return S


def random_field(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape)
    return values + 1j * rng.standard_normal(shape) if dtype is complex else values


class TestMatrixAxes:
    """An axis of at most grid._MATRIX_AXIS_MAX = 64 nodes is differentiated
    by one product with its 1-D matrix; a longer one by the transform or
    the stencil."""

    @pytest.mark.parametrize("n", [5, 6, 9, 24, 64, 65, 192])
    @pytest.mark.parametrize(
        "h", [0.37, 0.25, 1 / 3, 2 * np.pi / 64, 12 / 64],
        ids=["0.37", "0.25", "1over3", "2pi_over_64", "12_over_64"],
    )
    def test_fd4_derivative_matrix_is_the_weights_over_12h(self, n, h):
        # the stencil applied to the identity, byte for byte, signed zeros too
        assert derivative_matrix(n, h, FD4).tobytes() == (literal_fd4_weights(n) / (12 * h)).tobytes()

    @pytest.mark.parametrize("bc", [PERIODIC, FD4])
    def test_derivative_matrix_is_cached_and_read_only(self, bc):
        m = derivative_matrix(9, 0.25, bc)
        assert derivative_matrix(9, 0.25, bc) is m
        assert derivative_matrix(9, 0.5, bc) is not m
        assert not m.flags.writeable

    def test_cached_arrays_are_read_only(self):
        # every derivative on the grid shares them
        g = PhaseGrid(-2, 2, -3, 3, 9, 12)
        for cached in (
            ik_q(g), ik_p(g), derivative_matrix(g.n_q, g.dq, g.bc), derivative_matrix(g.n_p, g.dp, g.bc).T
        ):
            assert not cached.flags.writeable

    def test_spectral_ik_is_cached_and_read_only(self):
        ik = spectral_ik(12, 0.25)
        assert spectral_ik(12, 0.25) is ik
        assert spectral_ik(12, 0.5) is not ik
        assert not ik.flags.writeable

    def test_building_an_fd4_matrix_keeps_the_field_scratch(self):
        # the scratch cache holds 8 shapes: nine matrix builds must leave the
        # working space of a 128² stencil derivative in place
        derivative_matrix.cache_clear()
        values = random_field((128, 128), float, 4)
        make_grid(128, FD4).ddq(values, out=np.empty_like(values))
        scratch = grid_module._fd4_scratch(values.shape, values.dtype, 0)
        for n in range(5, 14):
            derivative_matrix(n, 0.1, FD4)
        kept = grid_module._fd4_scratch(values.shape, values.dtype, 0)
        assert all(a is b for a, b in zip(kept, scratch))

    def test_derivative_matrix_rejects_an_unknown_bc(self):
        with pytest.raises(GridError, match="dirichlet"):
            derivative_matrix(8, 0.1, "dirichlet")

    # on the last four shapes a complex product with the matrix cast to
    # complex rounds complex ∂p differently
    @pytest.mark.parametrize("shape", [(64, 64), (24, 20), (7, 9), (17, 17), (34, 34), (61, 50), (33, 64)])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("bc", [PERIODIC, FD4])
    def test_derivative_is_the_matrix_product_byte_for_byte(self, bc, dtype, shape):
        # a complex field is multiplied as its real view: along q as it is,
        # along p as the transposed field
        g = PhaseGrid(-2, 2, -3, 3, *shape, bc)
        values = random_field(shape, dtype, 5)
        mq, mp = derivative_matrix(g.n_q, g.dq, bc), derivative_matrix(g.n_p, g.dp, bc)
        if dtype is complex:
            eq = (mq @ values.view(float)).view(complex)
            ep = (mp @ np.ascontiguousarray(values.T).view(float)).view(complex).T
        else:
            eq, ep = mq @ values, values @ mp.T
        for deriv, expected in ((g.ddq, eq), (g.ddp, ep)):
            assert deriv(values).tobytes() == expected.tobytes()
            out = np.empty_like(values)
            assert deriv(values, out=out) is out
            assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "shape", [(64, 64), (65, 65), (64, 65), (65, 64), (63, 66)],
        ids=["64x64", "65x65", "64x65", "65x64", "63x66"],
    )
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("bc", [PERIODIC, FD4])
    def test_both_paths_agree_across_the_seam(self, bc, dtype, shape):
        # on either side of the constant, ddq/ddp agree with the transform or
        # stencil and with the dense product alike, to 1e-13 of the result
        g = PhaseGrid(-2, 2, -3, 3, *shape, bc)
        fields = [random_field(shape, dtype, 8), np.exp(np.sin(g.Q) + np.cos(2 * g.P)).astype(dtype)]
        for values in fields:
            for deriv, axis, n, h, ik in ((g.ddq, 0, g.n_q, g.dq, ik_q(g)), (g.ddp, 1, g.n_p, g.dp, ik_p(g))):
                d = deriv(values)
                transform = _spectral_1d(values, ik, axis) if bc == PERIODIC else _fd4_1d(values, h, axis)
                product = np.moveaxis(np.tensordot(derivative_matrix(n, h, bc), values, axes=(1, axis)), 0, axis)
                for reference in (transform, product):
                    assert np.max(np.abs(d - reference)) <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize("bc", [PERIODIC, FD4])
    def test_the_axis_length_selects_the_path(self, bc, monkeypatch):
        # lowering the constant below 64 sends a 64-node axis to the transform
        # or stencil, bit for bit
        g = PhaseGrid(-2, 2, -3, 3, 64, 64, bc)
        values = random_field((64, 64), float, 3)
        monkeypatch.setattr(grid_module, "_MATRIX_AXIS_MAX", 63)
        for deriv, axis, h, ik in ((g.ddq, 0, g.dq, ik_q(g)), (g.ddp, 1, g.dp, ik_p(g))):
            expected = _spectral_1d(values, ik, axis) if bc == PERIODIC else _fd4_1d(values, h, axis)
            assert np.array_equal(deriv(values), expected)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matrix_path_takes_noncontiguous_fields(self, dtype):
        g = PhaseGrid(-2, 2, -3, 3, 12, 10)
        wide = random_field((12, 20), dtype, 9)
        values = wide[:, ::2]
        for deriv in (g.ddq, g.ddp):
            expected = deriv(np.ascontiguousarray(values))
            assert np.array_equal(deriv(values), expected)
            out = np.zeros((12, 20), dtype)[:, ::2]
            assert deriv(values, out=out) is out
            assert np.array_equal(out, expected)


class TestSpectralDerivative:
    """Periodic derivatives of real and complex fields, even and odd axes."""

    SHAPES = [(16, 12), (15, 9), (16, 9)]
    AXES = [0, 1]

    @staticmethod
    def trig_polynomial(g, dtype, axis):
        """Random modes below the Nyquist frequency of the grid's shape, and
        their exact derivative along `axis`."""
        rng = np.random.default_rng(4)
        shape = (g.n_q, g.n_p)
        top = np.array([(n - 1) // 2 for n in shape])
        x = 2 * np.pi * (g.Q - g.q_min) / (g.q_max - g.q_min)
        y = 2 * np.pi * (g.P - g.p_min) / (g.p_max - g.p_min)
        scale = 2 * np.pi / ((g.q_max - g.q_min), (g.p_max - g.p_min))[axis]
        values, exact = np.zeros(shape, complex), np.zeros(shape, complex)
        for _ in range(6):
            k, l = rng.integers(-top, top + 1)
            mode = (rng.standard_normal() + 1j * rng.standard_normal()) * np.exp(1j * (k * x + l * y))
            values += mode
            exact += 1j * (k, l)[axis] * scale * mode
        if dtype is float:
            return values.real, exact.real
        return values, exact

    @staticmethod
    def deriv(g, axis):
        return (g.ddq, g.ddp)[axis]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("axis", AXES)
    def test_reproduces_a_trigonometric_polynomial(self, shape, dtype, axis):
        g = PhaseGrid(-2, 2, -3, 3, *shape)
        values, exact = self.trig_polynomial(g, dtype, axis)
        got = self.deriv(g, axis)(values)
        assert got.dtype == values.dtype
        assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_complex_field_is_its_real_and_imaginary_parts(self, shape):
        # the complex path and the real path agree on each part
        g = PhaseGrid(-2, 2, -3, 3, *shape)
        rng = np.random.default_rng(7)
        re, im = rng.standard_normal(shape), rng.standard_normal(shape)
        for deriv in (g.ddq, g.ddp):
            whole = deriv(re + 1j * im)
            assert np.max(np.abs(whole - (deriv(re) + 1j * deriv(im)))) <= 1e-13 * np.max(np.abs(whole))

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("axis", AXES)
    def test_nyquist_mode_of_an_even_axis_has_no_derivative(self, dtype, axis):
        g = PhaseGrid(-2, 2, -3, 3, 16, 12)
        j = np.indices((g.n_q, g.n_p))[axis]
        values = (-1.0) ** j * (1 + 1j if dtype is complex else 1)
        assert np.max(np.abs(self.deriv(g, axis)(values))) <= 1e-13

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_constant_field_has_no_derivative(self, dtype):
        g = PhaseGrid(-2, 2, -3, 3, 15, 12)
        values = np.full((g.n_q, g.n_p), 2.5, dtype)
        for deriv in (g.ddq, g.ddp):
            assert np.max(np.abs(deriv(values))) <= 1e-13

    @pytest.mark.parametrize("axis", AXES)
    def test_real_results_do_not_share_the_cached_scratch(self, axis):
        # a real field is differentiated in a cached complex array; neither
        # the field nor an earlier result may be overwritten by a later call
        g = PhaseGrid(-2, 2, -3, 3, 16, 12)
        first_field, second_field = np.sin(g.Q) * np.cos(g.P), np.cos(2 * g.Q + g.P)
        kept = first_field.copy()
        deriv = self.deriv(g, axis)
        first = deriv(first_field)
        expected = first.copy()
        deriv(second_field)
        assert np.array_equal(first, expected)
        assert np.array_equal(first_field, kept)


class TestInterpolation:
    """The periodic cubic spline agrees with scipy's, the reference it replaced."""

    @staticmethod
    def reference(values, coords):
        from scipy.ndimage import map_coordinates

        def spline(v):
            return map_coordinates(v, coords, order=3, mode="grid-wrap")

        if np.iscomplexobj(values):
            return spline(values.real) + 1j * spline(values.imag)
        return spline(values)

    @pytest.mark.parametrize("shape", [(11,), (40,), (24, 20), (7, 9), (32, 32)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_map_coordinates_grid_wrap(self, shape, dtype):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(shape)
        if dtype is complex:
            values = values + 1j * rng.standard_normal(shape)
        n = np.array(shape)[:, None]
        coords = np.concatenate(
            [
                rng.uniform(-3 * n, 4 * n, (len(shape), 50)),  # well outside the box
                rng.integers(0, n, (len(shape), 10)).astype(float),  # exactly on nodes
                np.array([n[:, 0], -n[:, 0], 2 * n[:, 0] - 1]).T.astype(float),  # wrapped nodes
            ],
            axis=1,
        )
        got = interpolate(values, coords)
        expected = self.reference(values, coords)
        assert got.dtype == values.dtype and got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_keeps_the_shape_of_the_points(self):
        g = make_grid(16)
        values = np.exp(1j * g.Q) * np.cos(g.P)
        coords = np.array([g.Q + 0.3, g.P - 0.2])
        assert interpolate(values, coords).shape == (16, 16)
        np.testing.assert_allclose(interpolate(values, coords), self.reference(values, coords),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_blocks_sum_what_all_points_at_once_do(self, dtype):
        # 10,000 points are two full blocks of taps and a ragged third
        rng = np.random.default_rng(3)
        values = rng.standard_normal((128, 128))
        if dtype is complex:
            values = values + 1j * rng.standard_normal((128, 128))
        coords = rng.uniform(-40, 170, (2, 100, 100))
        at_once = apply_taps(spline_taps(coords, values.shape), spline_prefilter(values, (0, 1)).reshape(-1))
        got = interpolate(values, coords)
        assert got.dtype == values.dtype and got.shape == (100, 100)
        assert np.array_equal(got, at_once.reshape(100, 100))

    def test_working_set_does_not_grow_with_the_points(self, traced_peak):
        # beyond the output and the coefficients, interpolate holds one
        # block's taps whatever the point count; all points' taps at once
        # would add 128 B for each of the 49,152 more points of 256², and
        # two blocks' taps at once another 128 B for each point of a block
        rng = np.random.default_rng(5)
        values = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        interpolate(values, np.zeros((2, 1)))  # numpy's and Python's first-call allocations

        def beyond_output(m):
            coords = rng.uniform(0, 64, (2, m, m))
            out = []
            peak = traced_peak(lambda: out.append(interpolate(values, coords)))
            return peak - out[0].nbytes - values.nbytes

        small, large = beyond_output(128), beyond_output(256)
        # Python's and numpy's caches of small objects keep a few hundred
        # bytes per block
        assert abs(large - small) <= 16 * 1024
        assert large < 2 * 128 * grid_module._TAP_BLOCK


class TestBracketAndMeasure:
    # PhaseGrid.bracket(a, b, values) is {F, f} for a = ∂F/∂q, b = ∂F/∂p

    def test_bracket_canonical_pair(self):
        # {sin q, sin p} = cos q cos p
        g = make_grid(48)
        np.testing.assert_allclose(
            g.bracket(np.cos(g.Q), 0 * g.P, np.sin(g.P)), np.cos(g.Q) * np.cos(g.P), atol=1e-11
        )

    def test_brackets_with_coordinates_are_the_partials(self):
        # {q, f} = df/dp and {p, f} = -df/dq, exactly: the partials of q and p are 0 and 1
        g = PhaseGrid(-2, 2, -3, 3, 16, 12, FD4)
        f = np.cos(g.Q + 2 * g.P)
        one, zero = np.ones_like(f), np.zeros_like(f)
        np.testing.assert_array_equal(g.bracket(one, zero, f), g.ddp(f))
        np.testing.assert_array_equal(g.bracket(zero, one, f), -g.ddq(f))

    def test_bracket_antisymmetry(self):
        # {f, h} = -{h, f}, each bracket from the closed-form partials of its first entry
        g = make_grid(32)
        f = np.sin(g.Q) * np.cos(g.P)
        h = np.cos(2 * g.Q + g.P)
        fh = g.bracket(np.cos(g.Q) * np.cos(g.P), -np.sin(g.Q) * np.sin(g.P), h)
        hf = g.bracket(-2 * np.sin(2 * g.Q + g.P), -np.sin(2 * g.Q + g.P), f)
        np.testing.assert_allclose(fh, -hf, atol=1e-12)

    def test_bracket_with_constant_vanishes(self):
        g = make_grid(16)
        c = np.full((16, 16), 2.5)
        assert np.max(np.abs(g.bracket(np.cos(g.Q), 0 * g.P, c))) < 1e-12

    @pytest.mark.parametrize("bc", [PERIODIC, FD4])
    def test_in_place_bracket_matches_the_formula(self, bc):
        g = PhaseGrid(-2, 2, -3, 3, 12, 10, bc)
        a, b = np.sin(g.Q) * g.P, np.cos(g.P) + g.Q
        for values in (np.cos(g.Q + 2 * g.P), np.exp(1j * g.Q * g.P)):
            expected = a * g.ddp(values) - b * g.ddq(values)
            out, work = np.empty_like(values), np.empty_like(values)
            assert g.bracket(a, b, values, out=out, work=work) is out
            assert np.array_equal(out, expected)
            assert np.array_equal(g.bracket(a, b, values), expected)

    def test_grid_mismatch_rejected(self):
        f = ScalarField(make_grid(16), np.zeros((16, 16)))
        h = ScalarField(make_grid(16, lo=0.0, hi=1.0), np.zeros((16, 16)))
        with pytest.raises(GridMismatchError):
            divergence(f, h)

    def test_quadrature_and_norms(self):
        g = PhaseGrid(-8, 8, -8, 8, 128, 128)
        env = np.exp(-(g.Q**2 + g.P**2) / 2) / (2 * np.pi)
        f = ScalarField(g, env)
        assert integrate(f) == pytest.approx(1.0, abs=1e-12)
        assert l1_norm(f) == pytest.approx(1.0, abs=1e-12)
        assert l2_norm(f) == pytest.approx(1.0 / (2 * np.sqrt(np.pi)), abs=1e-12)

    def test_divergence_of_rotation_field(self):
        g = make_grid(32)
        v_q = ScalarField(g, np.sin(g.P))
        v_p = ScalarField(g, np.cos(g.Q))
        assert np.max(np.abs(divergence(v_q, v_p).values)) < 1e-12


class TestTimeSteps:
    def test_endpoint_exact(self):
        n, dt = time_steps(2 * np.pi, 1e-3)
        assert n * dt == pytest.approx(2 * np.pi, rel=1e-15)
        assert abs(dt - 1e-3) < 1e-6

    def test_zero_and_negative(self):
        assert time_steps(0.0, 1e-3) == (0, 1e-3)
        with pytest.raises(ValueError, match="negative"):
            time_steps(-1.0, 1e-3)

    @pytest.mark.parametrize("t_final", [math.nan, math.inf, -math.inf])
    def test_horizon_must_be_finite(self, t_final):
        with pytest.raises(ValueError, match="must be finite"):
            time_steps(t_final, 1e-3)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, -0.0, math.inf, -math.inf, math.nan])
    def test_step_must_be_positive_and_finite(self, dt):
        for t_final in (0.0, 1.0):
            with pytest.raises(ValueError, match="positive and finite"):
                time_steps(t_final, dt)

    def test_step_count_is_bounded(self):
        # 10**9 steps take most of a day; a count above that is refused, not run
        assert time_steps(1.0, 1e-9) == (10**9, 1e-9)
        with pytest.raises(GridError, match=r"t_final = 1.0 at dt = 1e-300 takes 1e\+300 steps"):
            time_steps(1.0, 1e-300)
        with pytest.raises(GridError, match="more than 10\\*\\*9"):
            time_steps(2.0, 1e-9)

    def test_step_count_overflow_is_a_grid_error(self):
        # t_final / dt overflows to inf, which has no step count; a GridError
        # is a ValueError, and the CLI reports it as a configuration error
        with pytest.raises(GridError, match="dt = 1e-320 is too small"):
            time_steps(1.0, 1e-320)

    @given(
        t=st.floats(1e-3, 1e3, allow_nan=False),
        dt=st.floats(1e-5, 1.0, allow_nan=False),
    )
    def test_property_lands_on_t_final(self, t, dt):
        n, adj = time_steps(t, dt)
        assert n >= 1
        assert math.isclose(n * adj, t, rel_tol=1e-12)


class TestRK4Steps:
    def test_linear_growth_factor_is_the_stability_polynomial(self):
        lam = np.array([-1.0, 2j, -0.5 + 3j, 1.5 - 0.7j])
        dt, n = 0.05, 40
        z = lam * dt
        p = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24

        def rhs(y, out):
            np.multiply(lam, y, out=out[0])

        y = np.ones(4, dtype=complex)
        finals = [(t, s[0].copy()) for t, s in rk4_steps(rhs, (y,), n * dt, dt, stride=10)]
        assert [t for t, _ in finals] == pytest.approx([0.5, 1.0, 1.5, 2.0], rel=1e-15)
        for k, (_, state) in enumerate(finals, start=1):
            np.testing.assert_allclose(state, p ** (10 * k), rtol=1e-13, atol=0)

    def test_two_component_state_is_fourth_order(self):
        # oscillator x' = v, v' = -x from (1, 0): exact (cos t, -sin t) at t = 1
        def rhs(x, v, out):
            np.copyto(out[0], v)
            np.negative(x, out=out[1])

        def error(dt):
            start = (np.array([1.0]), np.array([0.0]))
            ((t, (x, v)),) = rk4_steps(rhs, start, 1.0, dt)
            assert t == pytest.approx(1.0, rel=1e-15)
            return max(abs(x[0] - math.cos(1.0)), abs(v[0] + math.sin(1.0)))

        assert error(0.1) / error(0.05) >= 12

    def test_state_is_stepped_in_place_without_growing_memory(self, traced_peak):
        g = make_grid(32)

        def rhs(values, out):
            g.ddq(values, out=out[0])

        def peak(n_steps):
            state = (np.exp(1j * g.Q) * np.exp(-(g.P**2)),)

            def run():
                steps = 0
                for _, stepped in rk4_steps(rhs, state, n_steps * 1e-3, 1e-3, stride=1):
                    assert stepped is state and stepped[0] is state[0]
                    steps += 1
                assert steps == n_steps

            return traced_peak(run)

        size = g.n_q * g.n_p * np.dtype(complex).itemsize
        assert peak(200) <= peak(20) + size

    def test_zero_horizon_yields_nothing(self):
        def rhs(y, out):
            np.copyto(out[0], y)

        assert list(rk4_steps(rhs, (np.ones(3),), 0.0, 0.1, stride=1)) == []

    def test_non_finite_state_raises_with_the_last_yielded_time(self):
        # y' = 10 y at dt 2 grows by p(20) ≈ 8.2e3 a step and overflows near step 79
        def rhs(y, out):
            np.multiply(10.0, y, out=out[0])

        times = []
        with pytest.raises(EvolutionAborted, match="non-finite state at RK4 step") as info:
            for t, _ in rk4_steps(rhs, (np.ones(2),), 400.0, 2.0, stride=25):
                times.append(t)
        assert times == [50.0, 100.0, 150.0]
        assert info.value.t == 150.0 and info.value.last_good is None
