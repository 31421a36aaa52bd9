import math

import numpy as np
import pytest

from fracheat import (
    QuadratureConvergenceError,
    assemble,
    exterior_tail,
    make_grid,
    normalization_constant,
    quadrature_oracle,
)
from conftest import smooth_bump


def sin_pi(x):
    return np.sin(np.pi * np.asarray(x, dtype=float))


def sin_pi_xx(x):
    return -(np.pi**2) * np.sin(np.pi * np.asarray(x, dtype=float))


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

    @pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("n", [16, 64])
    def test_positive_definite(self, n, s):
        a = assemble(make_grid(1, 1, n, 1, s)).dense()
        assert np.linalg.eigvalsh(a).min() > 0.0

    def test_row_sums_positive(self):
        op = assemble(make_grid(1, 1, 64, 1, 0.5))
        assert np.all(op.row_sums() > 0.0)

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
        with pytest.raises(ValueError):
            op.apply(np.zeros(14))


def _l2h_defect(u, grid, **kw):
    op = assemble(grid)
    d = op.apply(u(grid.interior_x())) - quadrature_oracle(u, grid, check=False, **kw)
    return float(np.sqrt(grid.h * np.sum(d * d))), d


class TestQuadratureOracle:
    def test_zero_function(self):
        g = make_grid(1, 1, 16, 1, 0.5)
        out = quadrature_oracle(lambda x: np.zeros_like(np.asarray(x, dtype=float)), g)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_richardson_matches_analytic_second_derivative(self):
        g = make_grid(1, 1, 32, 1, 0.5)
        a = quadrature_oracle(sin_pi, g, u_xx=sin_pi_xx, check=False)
        b = quadrature_oracle(sin_pi, g, u_xx=None, check=False)
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_internal_refinement_convergence(self):
        g = make_grid(1, 1, 32, 1, 0.5)
        a = quadrature_oracle(sin_pi, g, refinement=8, u_xx=sin_pi_xx, check=False)
        b = quadrature_oracle(sin_pi, g, refinement=32, u_xx=sin_pi_xx, check=False)
        assert np.max(np.abs(a - b)) <= 1e-7

    def test_unconverged_refinement_raises(self):
        # wildly oscillatory integrand with a starved far-field budget
        def wiggle(x):
            x = np.asarray(x, dtype=float)
            return np.sin(40 * np.pi * x)

        g = make_grid(1, 1, 8, 1, 0.5)
        with pytest.raises(QuadratureConvergenceError):
            quadrature_oracle(wiggle, g, refinement=1, check=True, rtol=1e-12)

    def test_coarse_grid_doubles_panels_until_converged(self, monkeypatch):
        # sin(3 pi x) at N = 16, s = 0.1 misses rtol at the first panel count
        import fracheat.riesz

        def u(x):
            return np.sin(3 * np.pi * np.asarray(x, dtype=float))

        def u_xx(x):
            return -9 * np.pi**2 * u(x)

        g = make_grid(1, 1, 16, 1, 0.1)
        out = quadrature_oracle(u, g, u_xx=u_xx)
        ref = quadrature_oracle(u, g, refinement=128, u_xx=u_xx, check=False)
        assert np.max(np.abs(out - ref)) <= 1e-8 * (1.0 + np.max(np.abs(ref)))
        monkeypatch.setattr(fracheat.riesz, "_QUADRATURE_DOUBLINGS", 1)
        with pytest.raises(QuadratureConvergenceError, match="at 256 panels"):
            quadrature_oracle(u, g, u_xx=u_xx)

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
        op = assemble(make_grid(1, 1, 64, 1, 0.3), "interpolated")
        assert np.all(op.row_sums() > 0.0)

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_sine_defect_rate_up_to_the_walls(self, s):
        # the wall kink of zero-extended sin sits on the boundary nodes, so
        # the max-norm defect over all nodes, the wall-adjacent ones
        # included, falls like h^{2-2s}
        vals, hs = [], []
        for n in (50, 100, 200, 400):
            g = make_grid(1, 1, n, 1, s)
            op = assemble(g, "interpolated")
            d = op.apply(sin_pi(g.interior_x())) - quadrature_oracle(
                sin_pi, g, u_xx=sin_pi_xx, check=False
            )
            vals.append(float(np.max(np.abs(d))))
            hs.append(g.h)
        slope = np.polyfit(np.log(hs), np.log(vals), 1)[0]
        assert slope >= (2.0 - 2.0 * s) - 0.25
