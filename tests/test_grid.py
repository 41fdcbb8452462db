"""Grid construction, derivatives, quadrature, and step adjustment."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kvhsim.grid import (
    FD4,
    PERIODIC,
    EvolutionAborted,
    GridError,
    GridMismatchError,
    NonFiniteFieldError,
    PhaseGrid,
    ScalarField,
    divergence,
    integrate,
    interpolate,
    l1_norm,
    l2_norm,
    rk4_steps,
    time_steps,
)


def make_grid(n=64, bc=PERIODIC, lo=-np.pi, hi=np.pi):
    return PhaseGrid(lo, hi, lo, hi, n, n, bc)


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

    @pytest.mark.parametrize("shape", [(192, 192), (64, 64), (24, 20), (7, 9)])
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

    @pytest.mark.parametrize("shape", [(64, 64), (24, 20), (7, 9)])
    def test_real_spectral_is_the_complex_formula_bit_for_bit(self, shape):
        # the real field is transformed as its complex cast, so the
        # derivative is the real part of the plain complex formula
        g = PhaseGrid(-2, 2, -3, 3, *shape)
        rng = np.random.default_rng(6)
        fields = [rng.standard_normal(shape), np.exp(np.sin(g.Q) + np.cos(2 * g.P))]
        for values in fields:
            for deriv, ik, axis in ((g.ddq, g._ikq, 0), (g.ddp, g._ikp, 1)):
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
