import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracheat import (
    QuadratureConvergenceError,
    assemble,
    exterior_tail,
    make_grid,
    normalization_constant,
    quadrature_oracle,
)
from fracheat.riesz import _fft_length, _gauss_legendre, _median
from conftest import smooth_bump


def sin_pi(x):
    return np.sin(np.pi * np.asarray(x, dtype=float))


def sin_pi_xx(x):
    return -(np.pi**2) * np.sin(np.pi * np.asarray(x, dtype=float))


def _sine(k):
    return lambda x: np.sin(k * np.pi * np.asarray(x, dtype=float))


def _sine_xx(k):
    return lambda x: -((k * np.pi) ** 2) * np.sin(k * np.pi * np.asarray(x, dtype=float))


def _near_per_node(u, x, grid, u_xx=None):
    """The singularity-subtracted near-field integral at one node, in plain loops."""
    s, h = grid.s, grid.h
    nodes, weights = np.polynomial.legendre.leggauss(12)
    ux = float(u(np.array([x]))[0])

    def phi(t):
        return 2.0 * ux - u(x + t) - u(x - t)

    eps = h / 8.0
    if u_xx is not None:
        m2 = float(u_xx(np.array([x]))[0])
    else:
        r1 = float(phi(np.array([eps]))[0]) / eps**2
        r2 = float(phi(np.array([eps / 2.0]))[0]) / (eps / 2.0) ** 2
        m2 = -(4.0 * r2 - r1) / 3.0
    m4 = -12.0 * (float(phi(np.array([eps]))[0]) + m2 * eps**2) / eps**4

    def psi(t):
        return (phi(t) + m2 * t**2 + (m4 / 12.0) * t**4) / t ** (1.0 + 2.0 * s)

    total, hi = 0.0, h
    for _ in range(max(2, math.ceil(math.log2(max(h / 1e-4, 2.0))))):
        lo = hi / 2.0
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * float(np.sum(psi(mid + half * nodes) * weights))
        hi = lo
    total += float(psi(np.array([hi]))[0]) * hi / (6.0 - 2.0 * s)
    closed = -m2 * h ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    closed -= (m4 / 12.0) * h ** (4.0 - 2.0 * s) / (4.0 - 2.0 * s)
    return total + closed


def _oracle_from(u, grid, far, u_xx=None):
    """c_s (near + far + exterior tail) at every interior node, one node at a time."""
    s, l = grid.s, grid.l
    out = np.empty(grid.interior_dim)
    for k, x in enumerate(grid.interior_x()):
        xa = np.array([x])  # powers and shapes of a one-point array, as the oracle takes them
        wall = (xa ** (-2.0 * s) + (l - xa) ** (-2.0 * s)) / (2.0 * s)
        ux = float(u(xa)[0])
        out[k] = normalization_constant(s) * (
            _near_per_node(u, float(x), grid, u_xx) + far(float(x), ux) + ux * float(wall[0])
        )
    return out


def _oracle_per_node(u, grid, u_xx=None, refinement=8, rtol=1e-8, doublings=4):
    """The Gauss-Legendre oracle computed one node and one side at a time, as its reference."""
    s, h, l = grid.s, grid.h, grid.l
    nodes, weights = np.polynomial.legendre.leggauss(12)

    def far(panels):
        frac = ((np.arange(panels)[:, None] + 0.5 * (1.0 + nodes)) / panels).ravel()

        def at(x, ux):
            total = 0.0
            for sign, reach in ((-1.0, x), (1.0, l - x)):
                if reach <= h * (1.0 + 1e-12):
                    continue
                span = float(np.log(np.array([reach]))[0]) - math.log(h)
                xi = math.log(h) + span * frac
                vals = (ux - u(x + sign * np.exp(xi))) * np.exp(-2.0 * s * xi)
                total += 0.5 * span / panels * float(np.sum(vals * np.tile(weights, panels)))
            return total

        return at

    panels = refinement
    result = _oracle_from(u, grid, far(panels), u_xx)
    for _ in range(doublings):
        panels *= 2
        finer = _oracle_from(u, grid, far(panels), u_xx)
        if np.max(np.abs(finer - result)) <= rtol * (1.0 + np.max(np.abs(finer))):
            return finer
        result = finer
    return None


def _oracle_simpson(u, grid, refinement=128, u_xx=None):
    """The oracle with the composite Simpson far field it used before Gauss-Legendre.

    Simpson in the log distance on max(64, refinement N) panels (rounded up
    to even) per side, without a convergence check: an independent reference
    for the far field.
    """
    s, h, l = grid.s, grid.h, grid.l
    m = max(64, refinement * grid.N)
    m += m % 2
    simpson = np.ones(m + 1)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0

    def far(x, ux):
        total = 0.0
        for sign, reach in ((-1.0, x), (1.0, l - x)):
            if reach <= h * (1.0 + 1e-12):
                continue
            xi = np.linspace(math.log(h), math.log(reach), m + 1)
            dist = np.exp(xi)
            vals = (ux - u(x + sign * dist)) * dist ** (-2.0 * s)
            total += (xi[-1] - xi[0]) / m / 3.0 * float(np.dot(simpson, vals))
        return total

    return _oracle_from(u, grid, far, u_xx)


class TestNormalizationConstant:
    def test_half(self):
        assert normalization_constant(0.5) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_quarter(self):
        # Gamma(3/4) cancels, leaving sqrt(2) / (4 sqrt(pi))
        expected = math.sqrt(2.0) / (4.0 * math.sqrt(math.pi))
        assert normalization_constant(0.25) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("s", np.linspace(0.02, 0.98, 25).tolist())
    def test_positive_on_range(self, s):
        assert normalization_constant(s) > 0.0

    @pytest.mark.parametrize("s", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_out_of_range(self, s):
        with pytest.raises(ValueError):
            normalization_constant(s)


class TestExteriorTail:
    def test_midpoint_value(self):
        g = make_grid(1, 1, 10, 1, 0.5)
        assert exterior_tail(5, g) == pytest.approx(4.0, rel=1e-14)

    def test_quarter_point_value(self):
        g = make_grid(1, 1, 4, 1, 0.5)
        assert exterior_tail(1, g) == pytest.approx(4.0 + 4.0 / 3.0, rel=1e-14)

    def test_reflection_symmetry(self):
        g = make_grid(1, 1, 20, 1, 0.3)
        for i in range(1, 20):
            assert exterior_tail(i, g) == pytest.approx(exterior_tail(20 - i, g), rel=1e-13)

    @pytest.mark.parametrize("i", [0, 10, -1])
    def test_rejects_boundary_indices(self, i):
        g = make_grid(1, 1, 10, 1, 0.5)
        with pytest.raises(ValueError):
            exterior_tail(i, g)


class TestAssembly:
    def test_first_offdiagonal_entry(self):
        op = assemble(make_grid(1, 1, 10, 1, 0.5))
        expected = (1.0 / math.pi) / 0.1  # c_s / h^{2s} at lag 1
        assert -op.offdiag[0] == pytest.approx(-expected, rel=1e-12)

    def test_offdiag_positive_strictly_decreasing(self):
        op = assemble(make_grid(1, 1, 40, 1, 0.7))
        assert np.all(op.offdiag > 0.0)
        assert np.all(np.diff(op.offdiag) < 0.0)

    def test_diag_positive(self):
        op = assemble(make_grid(1, 1, 40, 1, 0.2))
        assert np.all(op.diag > 0.0)

    def test_dense_symmetric(self):
        a = assemble(make_grid(1, 1, 24, 1, 0.4)).dense()
        assert np.max(np.abs(a - a.T)) == 0.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(s=st.floats(0.01, 0.99), n=st.integers(1, 600),
           scheme=st.sampled_from(("midpoint", "interpolated")))
    @example(s=0.5, n=1, scheme="midpoint")
    @example(s=0.5, n=1, scheme="interpolated")
    @example(s=0.99, n=600, scheme="midpoint")
    @example(s=0.01, n=600, scheme="interpolated")
    def test_dense_bitwise_equal_to_scipy_toeplitz(self, s, n, scheme):
        from scipy.linalg import toeplitz

        op = assemble(make_grid(1, 1, n + 1, 1, s), scheme)
        want = -toeplitz(np.concatenate(([0.0], op.offdiag)))
        np.fill_diagonal(want, op.diag)
        got = op.dense()
        # same layout as well as the same bits: products with the matrix
        # round by its layout
        assert got.shape == (n, n) and got.flags.c_contiguous and got.flags.writeable
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("n", [16, 64])
    def test_positive_definite(self, n, s):
        a = assemble(make_grid(1, 1, n, 1, s)).dense()
        assert np.linalg.eigvalsh(a).min() > 0.0

    def test_row_sums_positive(self):
        # A @ 1 > 0: the exterior tail dominates in aggregate
        a = assemble(make_grid(1, 1, 64, 1, 0.5)).dense()
        assert np.all(a.sum(axis=1) > 0.0)

    def test_smallest_grid(self):
        op = assemble(make_grid(1, 1, 2, 1, 0.5))
        assert op.size == 1
        assert op.offdiag.size == 0
        v = op.apply(np.array([2.0]))
        assert v[0] == pytest.approx(op.diag[0] * 2.0)


class TestApply:
    def test_zero_vector(self):
        op = assemble(make_grid(1, 1, 16, 1, 0.5))
        assert np.all(op.apply(np.zeros(15)) == 0.0)

    def test_unit_vectors_give_columns(self):
        op = assemble(make_grid(1, 1, 16, 1, 0.3))
        dense = op.dense()
        for i in range(15):
            e = np.zeros(15)
            e[i] = 1.0
            np.testing.assert_allclose(op.apply(e), dense[:, i], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_matches_dense_matvec(self, s):
        op = assemble(make_grid(1, 1, 16, 1, s))
        dense = op.dense()
        rng = np.random.default_rng(7)
        for _ in range(5):
            v = rng.standard_normal(15)
            got = op.apply(v)
            want = dense @ v
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    def test_length_mismatch(self):
        op = assemble(make_grid(1, 1, 16, 1, 0.5))
        for shape in (14, (14, 3), (15, 2, 2), ()):
            with pytest.raises(ValueError):
                op.apply(np.zeros(shape))


def test_fft_length_is_the_next_5_smooth_number():
    # brute force: strip the factors 2, 3 and 5 from every k, mark the k left
    # at 1, and take for each m the first marked k >= m
    top = 20000
    k = np.arange(1, 2 * top + 1)
    rest = k.copy()
    for p in (2, 3, 5):
        while np.any(rest % p == 0):
            rest = np.where(rest % p == 0, rest // p, rest)
    marked = np.where(rest == 1, k, 2 * top + 1)
    want = np.minimum.accumulate(marked[::-1])[::-1][:top]
    got = np.array([_fft_length(m) for m in range(1, top + 1)])
    assert np.array_equal(got, want)


def test_gauss_legendre_literals_are_leggauss_bit_for_bit():
    for got, want in zip(_gauss_legendre(), np.polynomial.legendre.leggauss(12)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 16, 1499, 3071, 3072])
@pytest.mark.parametrize("scheme", ["midpoint", "interpolated"])
def test_preconditioner_shift_is_np_median_bit_for_bit(n, scheme):
    # the order statistics of the diagonal, a random draw and its ties with itself
    diag = assemble(make_grid(1, 1, n + 1, 1, 0.3), scheme).diag
    drawn = np.random.default_rng(n).standard_normal(n)
    for values in (diag, drawn, np.repeat(drawn[: (n + 1) // 2], 2)[:n]):
        assert np.float64(_median(values)).tobytes() == np.median(values).tobytes()


def _l2h_defect(u, grid, u_xx=None):
    op = assemble(grid)
    # the oracle doubles its panel count until the image converges: at the
    # starting 8 panels the bump's image is up to 9e-5 off
    (image,) = quadrature_oracle((u,), grid, u_xx=(u_xx,))
    d = op.apply(u(grid.interior_x())) - image
    return float(np.sqrt(grid.h * np.sum(d * d))), d


class TestQuadratureOracle:
    def test_zero_function(self):
        g = make_grid(1, 1, 16, 1, 0.5)
        (out,) = quadrature_oracle((lambda x: np.zeros_like(np.asarray(x, dtype=float)),), g)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_richardson_matches_analytic_second_derivative(self):
        g = make_grid(1, 1, 32, 1, 0.5)
        (a,) = quadrature_oracle((sin_pi,), g, u_xx=(sin_pi_xx,))
        (b,) = quadrature_oracle((sin_pi,), g, u_xx=(None,))
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_internal_refinement_convergence(self, monkeypatch):
        import fracheat.riesz

        g = make_grid(1, 1, 32, 1, 0.5)
        monkeypatch.setattr(fracheat.riesz, "_QUADRATURE_PANELS", 8)
        (a,) = quadrature_oracle((sin_pi,), g, u_xx=(sin_pi_xx,))
        monkeypatch.setattr(fracheat.riesz, "_QUADRATURE_PANELS", 32)
        (b,) = quadrature_oracle((sin_pi,), g, u_xx=(sin_pi_xx,))
        assert np.max(np.abs(a - b)) <= 1e-7

    def test_unconverged_refinement_raises(self, monkeypatch):
        import fracheat.riesz

        # wildly oscillatory integrand with a starved far-field budget
        def wiggle(x):
            x = np.asarray(x, dtype=float)
            return np.sin(40 * np.pi * x)

        g = make_grid(1, 1, 8, 1, 0.5)
        monkeypatch.setattr(fracheat.riesz, "_QUADRATURE_PANELS", 1)
        monkeypatch.setattr(fracheat.riesz, "_QUADRATURE_RTOL", 1e-12)
        with pytest.raises(QuadratureConvergenceError):
            quadrature_oracle((wiggle,), g)

    def test_coarse_grid_doubles_panels_until_converged(self, monkeypatch):
        # the bump is smooth but not analytic where its support ends, so at
        # N = 16, s = 0.1 it misses rtol at the first check (8 against 16
        # panels) and at the next, and converges at 64 panels
        import fracheat.riesz

        g = make_grid(1, 1, 16, 1, 0.1)
        (out,) = quadrature_oracle((smooth_bump,), g)
        with monkeypatch.context() as m:
            m.setattr(fracheat.riesz, "_QUADRATURE_PANELS", 128)
            (ref,) = quadrature_oracle((smooth_bump,), g)
        assert np.max(np.abs(out - ref)) <= 1e-8 * (1.0 + np.max(np.abs(ref)))
        monkeypatch.setattr(fracheat.riesz, "_QUADRATURE_DOUBLINGS", 1)
        with pytest.raises(QuadratureConvergenceError, match="at 16 panels"):
            quadrature_oracle((smooth_bump,), g)

    @pytest.mark.parametrize("n_cells, s, analytic", [(16, 0.1, True), (16, 0.1, False),
                                                       (40, 0.7, True), (7, 0.95, False)])
    def test_bitwise_equal_to_per_node_reference(self, n_cells, s, analytic):
        g = make_grid(1, 1, n_cells, 1, s)
        # the bump doubles its panel count on three of these grids
        for u, second in ((_sine(1), _sine_xx(1)), (_sine(3), _sine_xx(3)), (smooth_bump, None)):
            u_xx = second if analytic else None
            (image,) = quadrature_oracle((u,), g, u_xx=(u_xx,))
            assert np.array_equal(image, _oracle_per_node(u, g, u_xx=u_xx))

    def test_tuple_form_matches_single_calls_at_n600(self):
        g = make_grid(1, 1, 600, 1, 0.3)
        shapes = (_sine(1), _sine(3))
        derivs = (_sine_xx(1), _sine_xx(3))
        images = quadrature_oracle(shapes, g, u_xx=derivs)
        assert isinstance(images, tuple) and len(images) == 2
        for image, u, u_xx in zip(images, shapes, derivs):
            assert np.array_equal(image, quadrature_oracle((u,), g, u_xx=(u_xx,))[0])

    def test_node_blocks_leave_the_images_unchanged(self, monkeypatch):
        # blocks of 5, 2 and 1 nodes at 16, 32 and 64 panels (the bump doubles to 64)
        import fracheat.riesz

        g = make_grid(1, 1, 16, 1, 0.1)
        whole = quadrature_oracle((_sine(3), smooth_bump), g)
        monkeypatch.setattr(fracheat.riesz, "_FAR_BLOCK_POINTS", 12 * 16 * 5)
        for image, blocked in zip(whole, quadrature_oracle((_sine(3), smooth_bump), g)):
            assert np.array_equal(image, blocked)

    @pytest.mark.parametrize("n_cells, s", [(16, 0.1), (32, 0.5), (9, 0.9)])
    def test_tuple_form_without_second_derivatives(self, n_cells, s):
        g = make_grid(1, 1, n_cells, 1, s)
        shapes = (_sine(1), _sine(3), smooth_bump)
        images = quadrature_oracle(shapes, g)
        for image, u in zip(images, shapes):
            assert np.array_equal(image, quadrature_oracle((u,), g, u_xx=(None,))[0])

    def test_tuple_form_shapes_stop_at_their_own_panel_count(self, monkeypatch):
        # at N = 16, s = 0.1, the bump needs more doublings than sin(pi x)
        import fracheat.riesz

        g = make_grid(1, 1, 16, 1, 0.1)
        far = fracheat.riesz._far_field
        calls = []

        def record(us, uxs, xs, h, s, l, panels):
            calls.append((len(us), panels))  # shapes, and the count evaluated
            return far(us, uxs, xs, h, s, l, panels)

        monkeypatch.setattr(fracheat.riesz, "_far_field", record)
        shapes, derivs = (_sine(1), smooth_bump), (_sine_xx(1), None)
        singles, last = [], []
        for u, u_xx in zip(shapes, derivs):
            calls.clear()
            singles.append(quadrature_oracle((u,), g, u_xx=(u_xx,))[0])
            last.append(max(panels for _, panels in calls))
        assert last[0] < last[1]
        calls.clear()
        images = quadrature_oracle(shapes, g, u_xx=derivs)
        assert max(panels for _, panels in calls) == last[1]
        # past the first shape's last count only the second is evaluated
        assert {k for k, panels in calls if panels > last[0]} == {1}
        for image, single in zip(images, singles):
            assert np.array_equal(image, single)

    def test_tuple_form_raises_when_one_shape_fails(self, monkeypatch):
        import fracheat.riesz

        def wiggle(x):
            return np.sin(40 * np.pi * np.asarray(x, dtype=float))

        # on this budget sin(pi x) converges and the wiggle does not
        g = make_grid(1, 1, 8, 1, 0.5)
        monkeypatch.setattr(fracheat.riesz, "_QUADRATURE_PANELS", 1)
        assert np.all(np.isfinite(quadrature_oracle((sin_pi,), g)[0]))
        for shapes in ((sin_pi, wiggle), (wiggle, sin_pi)):
            with pytest.raises(QuadratureConvergenceError, match="at 16 panels"):
                quadrature_oracle(shapes, g)

    def test_tuple_form_rejects_mismatched_derivatives(self):
        g = make_grid(1, 1, 8, 1, 0.5)
        with pytest.raises(ValueError, match="second derivatives"):
            quadrature_oracle((sin_pi, sin_pi), g, u_xx=(sin_pi_xx,))

    def test_matches_mpmath_singular_integral(self):
        # (-Delta)^s sin(pi x) at nodes 1, 2 and N/2 from a 30-digit evaluation
        # of the defining integral: the symmetrised part over (0, d) with
        # d = min(x, 1 - x), the one-sided rest over (2x, 1) and the exterior tail
        mpmath = pytest.importorskip("mpmath")
        n_cells = 100
        g = make_grid(1, 1, n_cells, 1, 0.1)
        (image,) = quadrature_oracle((sin_pi,), g, u_xx=(sin_pi_xx,))
        with mpmath.workdps(30):
            s = mpmath.mpf(1) / 10
            c = 4**s * s * mpmath.gamma(0.5 + s) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(1 - s))
            for i in (1, 2, n_cells // 2):
                x = mpmath.mpf(i) / n_cells
                ux = mpmath.sinpi(x)
                # 2u(x) - u(x+t) - u(x-t) = 4 sin(pi x) sin^2(pi t / 2), free of cancellation
                sym = mpmath.quad(lambda t: 4 * ux * mpmath.sinpi(t / 2) ** 2 / t ** (1 + 2 * s),
                                  [0, min(x, 1 - x)])
                rest = 0
                if 2 * x < 1:
                    rest = mpmath.quad(lambda y: (ux - mpmath.sinpi(y)) / (y - x) ** (1 + 2 * s),
                                       [2 * x, 1])
                tail = ux * (x ** (-2 * s) + (1 - x) ** (-2 * s)) / (2 * s)
                want = float(c * (sym + rest + tail))
                assert abs(image[i - 1] - want) <= 1e-10 * abs(want)

    def test_sine_defect_halves_away_from_boundary(self):
        # Consistency defect of A against the reference integral at the centre
        # node shrinks by ~2 per halving at s = 1/2.  (Near the walls the
        # zero extension of sin has a kink and the defect plateaus, so the
        # clean rate is a bulk property.)
        center = {}
        for n in (64, 128):
            g = make_grid(1, 1, n, 1, 0.5)
            _, d = _l2h_defect(sin_pi, g, u_xx=sin_pi_xx)
            center[n] = abs(d[n // 2 - 1])
        ratio = center[64] / center[128]
        assert 1.8 <= ratio <= 2.2

    def test_sine_defect_constant_stable_at_half(self):
        # defect <= C h^{2-2s}: fitted exponent ~1 at s=0.5 with C stable
        # across refinements (bulk node)
        hs, vals = [], []
        for n in (32, 64, 128):
            g = make_grid(1, 1, n, 1, 0.5)
            _, d = _l2h_defect(sin_pi, g, u_xx=sin_pi_xx)
            hs.append(g.h)
            vals.append(abs(d[n // 2 - 1]))
        slope = np.polyfit(np.log(hs), np.log(vals), 1)[0]
        assert 0.9 <= slope <= 1.1
        constants = [vals[k] / hs[k] for k in range(3)]
        assert max(constants) / min(constants) <= 1.05

    @pytest.mark.parametrize("s", [0.5, 0.7, 0.9])
    def test_consistency_slope_compact_support(self, s):
        # log-log slope of the defect vs h stays within 0.25 of 2-2s
        vals, hs = [], []
        for n in (32, 64, 128):
            g = make_grid(1, 1, n, 1, s)
            norm, _ = _l2h_defect(smooth_bump, g)
            vals.append(norm)
            hs.append(g.h)
        slope = np.polyfit(np.log(hs), np.log(vals), 1)[0]
        assert slope >= (2.0 - 2.0 * s) - 0.25

    def test_consistency_slope_small_s_limited_by_boundary_cells(self):
        # The midpoint operator leaves out the half cells [0, h/2] and
        # [l - h/2, l].  The bump vanishes there but the integrand
        # u(x) |x - y|^{-1-2s} does not, so every node of the support carries
        # an O(h) defect, which dominates h^{2-2s} for s < 1/2; the measured
        # slope sits near one rather than near 1.8.  (The bump has no kink at
        # the walls, so the midpoint rule's second, wall-kink defect plays no
        # part here; adding the exact half-cell mass to the diagonal lifts
        # this slope to about 1.6.)
        vals, hs = [], []
        for n in (32, 64, 128):
            g = make_grid(1, 1, n, 1, 0.1)
            norm, _ = _l2h_defect(smooth_bump, g)
            vals.append(norm)
            hs.append(g.h)
        slope = np.polyfit(np.log(hs), np.log(vals), 1)[0]
        assert 0.85 <= slope <= 1.3


_SHAPES = {"sin(pi x)": _sine(1), "sin(3 pi x)": _sine(3), "bump": smooth_bump}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(s=st.floats(0.01, 0.99), n_cells=st.integers(2, 64), shape=st.sampled_from(sorted(_SHAPES)))
@example(s=0.5, n_cells=2, shape="sin(pi x)")  # one node, next to both walls: no far field
@example(s=0.99, n_cells=64, shape="bump")
@example(s=0.01, n_cells=64, shape="sin(3 pi x)")
def test_oracle_agrees_with_simpson_far_field(s, n_cells, shape):
    # the checked Gauss-Legendre oracle against the Simpson far field on
    # 128 N panels per side
    u = _SHAPES[shape]
    g = make_grid(1, 1, n_cells, 1, s)
    (image,) = quadrature_oracle((u,), g)
    ref = _oracle_simpson(u, g, refinement=128)
    assert np.max(np.abs(image - ref)) <= 1e-9 * (1.0 + np.max(np.abs(image)))


def _g(t, s):
    """G(t) = -(t^{1-2s} - 1) / (2s (1-2s)), plain evaluation for s != 1/2."""
    return -(t ** (1.0 - 2.0 * s) - 1.0) / (2.0 * s * (1.0 - 2.0 * s))


class TestInterpolatedScheme:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            assemble(make_grid(1, 1, 8, 1, 0.5), "trapezoid")

    @pytest.mark.parametrize("s", [0.1, 0.3, 0.7, 0.9])
    def test_entries_match_closed_forms(self, s):
        g = make_grid(1, 1, 10, 1, s)
        op = assemble(g, "interpolated")
        scale = normalization_constant(s) / g.h ** (2.0 * s)
        b1 = 1.0 / (2.0 - 2.0 * s) + 1.0 / (2.0 * s) + _g(2.0, s)
        assert op.offdiag[0] == pytest.approx(scale * b1, rel=1e-12)
        for k in range(2, 6):
            bk = _g(k + 1.0, s) - 2.0 * _g(float(k), s) + _g(k - 1.0, s)
            assert op.offdiag[k - 1] == pytest.approx(scale * bk, rel=1e-10)
        diag = 2.0 * scale * (1.0 / (2.0 * s) + 1.0 / (2.0 - 2.0 * s))
        np.testing.assert_allclose(op.diag, diag, rtol=1e-14)

    def test_entries_at_half(self):
        # s = 1/2: G(t) = -ln t, so b_1 = 2 - ln 2 and b_k = -ln(1 - 1/k^2)
        g = make_grid(1, 1, 10, 1, 0.5)
        op = assemble(g, "interpolated")
        scale = (1.0 / math.pi) / g.h
        assert op.offdiag[0] == pytest.approx(scale * (2.0 - math.log(2.0)), rel=1e-14)
        k = np.arange(2, 9, dtype=float)
        np.testing.assert_allclose(op.offdiag[1:], -scale * np.log1p(-1.0 / k**2), rtol=1e-13)
        np.testing.assert_allclose(op.diag, 4.0 * scale, rtol=1e-14)

    @pytest.mark.parametrize("s", [0.01, 0.1, 0.5 - 1e-7, 0.5, 0.5 + 1e-7, 0.9, 0.99])
    @pytest.mark.parametrize("n", [2, 3, 5, 64, 1500])
    def test_weights_positive_strictly_decreasing(self, n, s):
        op = assemble(make_grid(1, 1, n, 1, s), "interpolated")
        assert np.all(op.offdiag > 0.0)
        assert np.all(np.diff(op.offdiag) < 0.0)

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_far_weights_accurate(self, s):
        # b_k = k^{-1-2s} (1 + (1+2s)(2+2s) / (12 k^2) + O(k^{-4})).  A plain
        # second difference of G loses about k^2 eps to cancellation (6e-4
        # relative at s = 0.9, k ~ 2e4, where it stops decreasing).
        g = make_grid(1, 1, 20000, 1, s)
        op = assemble(g, "interpolated")
        scale = normalization_constant(s) / g.h ** (2.0 * s)
        k = np.arange(1000, g.N - 1, dtype=float)
        correction = (1.0 + 2.0 * s) * (2.0 + 2.0 * s) / (12.0 * k**2)
        expansion = k ** (-1.0 - 2.0 * s) * (1.0 + correction)
        np.testing.assert_allclose(op.offdiag[999:] / scale, expansion, rtol=1e-9)
        assert np.all(np.diff(op.offdiag) < 0.0)

    def test_continuous_across_half(self):
        at_half = assemble(make_grid(1, 1, 64, 1, 0.5), "interpolated")
        for s in (0.5 - 1e-7, 0.5 + 1e-7):
            near = assemble(make_grid(1, 1, 64, 1, s), "interpolated")
            np.testing.assert_allclose(near.offdiag, at_half.offdiag, rtol=1e-5)
            np.testing.assert_allclose(near.diag, at_half.diag, rtol=1e-5)

    @pytest.mark.parametrize("s", [0.01, 0.1, 0.3, 0.5 - 1e-7, 0.5, 0.5 + 1e-7, 0.7, 0.99])
    @pytest.mark.parametrize("n", [2, 3, 5, 64])
    def test_positive_definite(self, n, s):
        a = assemble(make_grid(1, 1, n, 1, s), "interpolated").dense()
        assert np.max(np.abs(a - a.T)) == 0.0
        assert np.linalg.eigvalsh(a).min() > 0.0

    def test_row_sums_positive(self):
        a = assemble(make_grid(1, 1, 64, 1, 0.3), "interpolated").dense()
        assert np.all(a.sum(axis=1) > 0.0)

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_sine_defect_rate_up_to_the_walls(self, s):
        # the wall kink of zero-extended sin sits on the boundary nodes, so
        # the max-norm defect over all nodes, the wall-adjacent ones
        # included, falls like h^{2-2s}
        vals, hs = [], []
        for n in (50, 100, 200, 400):
            g = make_grid(1, 1, n, 1, s)
            op = assemble(g, "interpolated")
            (image,) = quadrature_oracle((sin_pi,), g, u_xx=(sin_pi_xx,))
            d = op.apply(sin_pi(g.interior_x())) - image
            vals.append(float(np.max(np.abs(d))))
            hs.append(g.h)
        slope = np.polyfit(np.log(hs), np.log(vals), 1)[0]
        assert slope >= (2.0 - 2.0 * s) - 0.25
