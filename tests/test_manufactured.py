import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracheat import (
    assemble,
    build_manufactured,
    discrete_measurement,
    make_grid,
    manufactured_problem,
)

WINDOW_INTEGRAL = (math.sqrt(5.0) - 1.0) / (2.0 * math.pi)


class TestExample1:
    def test_initial_profile_and_coefficient(self):
        grid = make_grid(1, 1, 50, 10, 0.5)
        spec, data = build_manufactured("example1", grid)
        x = grid.interior_x()
        np.testing.assert_allclose(data.phi, np.sin(np.pi * x), atol=1e-15)
        assert spec.r_exact(0.0) == pytest.approx(1.5)  # 1 + s at s = 0.5

    def test_initial_compatibility(self):
        # w(0) = 1/2 matches the discrete pairing of phi exactly here:
        # the trapezoid rule is exact on products of these sine modes
        grid = make_grid(1, 1, 100, 10, 0.5)
        spec, data = build_manufactured("example1", grid)
        assert spec.w_exact(0.0) == pytest.approx(0.5)
        paired = discrete_measurement(data.phi, data.weight, grid.h)
        assert abs(paired - 0.5) <= 1e-12

    def test_coefficient_shape(self):
        spec, _ = build_manufactured("example1", make_grid(1, 1, 10, 10, 0.3))
        # r(t) = 1 + (s/2)(1 + cos t): decreasing from 1+s toward 1+s(1+cos 1)/2
        assert spec.r_exact(0.0) == pytest.approx(1.3)
        assert spec.r_exact(1.0) == pytest.approx(1.0 + 0.15 * (1 + math.cos(1.0)))


class TestExample2:
    def test_initial_profile_and_measurement(self):
        grid = make_grid(1, 1, 50, 10, 0.5)
        spec, data = build_manufactured("example2", grid)
        x = grid.interior_x()
        np.testing.assert_allclose(data.phi, np.sin(np.pi * x), atol=1e-15)
        assert spec.w_exact(0.0) == pytest.approx(WINDOW_INTEGRAL, rel=1e-14)
        assert spec.r_exact(0.5) == pytest.approx(1.0 + math.sin(0.5))

    def test_weight_is_window_indicator(self):
        grid = make_grid(1, 1, 100, 10, 0.5)
        _, data = build_manufactured("example2", grid)
        x = grid.interior_x()
        inside = (x >= 0.4 - 1e-12) & (x <= 0.6 + 1e-12)
        np.testing.assert_array_equal(data.weight, inside.astype(float))
        assert int(data.weight.sum()) == 21


class TestSelfConsistency:
    @pytest.mark.parametrize("ident", ["example1", "example2"])
    def test_measurement_matches_weighted_integral(self, ident):
        # independent check: adaptive quadrature of u_exact * omega
        # reproduces w_exact at random times
        grid = make_grid(1, 1, 20, 10, 0.35)
        spec, _ = build_manufactured(ident, grid)
        rng = np.random.default_rng(17)
        if ident == "example1":
            def weighted(t):
                val, err = quad(lambda y: spec.u_exact(t, np.array([y]))[0] * math.sin(math.pi * y),
                                0.0, 1.0, limit=200)
                return val
        else:
            def weighted(t):
                val, err = quad(lambda y: spec.u_exact(t, np.array([y]))[0],
                                0.4, 0.6, limit=200)
                return val
        for t in rng.uniform(0.0, 1.0, size=10):
            assert abs(weighted(float(t)) - spec.w_exact(float(t))) <= 1e-8


class TestForcingConstruction:
    def test_discrete_source_identity(self):
        # f r = u_t + A u holds exactly at the nodes for the discrete source
        grid = make_grid(1, 1, 40, 10, 0.6)
        op = assemble(grid)
        spec, data = build_manufactured("example1", grid, source="discrete", op=op)
        x = grid.interior_x()
        for t in (0.0, 0.37, 1.0):
            lhs = data.forcing(t) * spec.r_exact(t)
            du_dt = sum(mode.dcoef(t) * mode.shape(x) for mode in spec.modes)
            rhs = du_dt + op.apply(spec.u_exact(t, x))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_source_modes_differ(self):
        # quadrature-sourced forcing feels the consistency defect of A
        grid = make_grid(1, 1, 32, 10, 0.5)
        _, data_d = build_manufactured("example1", grid, source="discrete")
        _, data_q = build_manufactured("example1", grid, source="quadrature")
        gap = np.max(np.abs(data_d.forcing(0.5) - data_q.forcing(0.5)))
        assert gap > 1e-3

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            build_manufactured("example3", make_grid(1, 1, 10, 10, 0.5))

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            build_manufactured("example1", make_grid(1, 1, 10, 10, 0.5), source="spectral")

    @pytest.mark.parametrize("ident", ["example1", "example2"])
    def test_lookup_gives_the_closed_forms_build_manufactured_binds(self, ident):
        grid = make_grid(1, 1, 16, 4, 0.3)
        spec = manufactured_problem(ident, grid)
        bound, _ = build_manufactured(ident, grid)
        x = grid.interior_x()
        for t in (0.0, 0.4, 1.0):
            assert spec.r_exact(t) == bound.r_exact(t) and spec.w_exact(t) == bound.w_exact(t)
            np.testing.assert_array_equal(spec.u_exact(t, x), bound.u_exact(t, x))

    @pytest.mark.parametrize("ident, l, message", [
        ("example3", 1.0, "unknown benchmark id 'example3'"),
        ("example1", 2.0, "benchmarks are defined on unit domain length, got l=2.0"),
    ])
    def test_lookup_refuses_an_unknown_id_and_a_domain_of_other_length(self, ident, l, message):
        with pytest.raises(ValueError, match=message):
            manufactured_problem(ident, make_grid(l, 1, 10, 10, 0.5))

    def test_analytic_measurements_on_grid_times(self):
        grid = make_grid(1, 1, 10, 8, 0.25)
        spec, data = build_manufactured("example1", grid)
        w = data.measurements
        assert w.provenance == "exact-analytic"
        assert w.values.size == grid.M + 1
        np.testing.assert_allclose(
            w.values, [spec.w_exact(float(t)) for t in grid.times()], rtol=1e-15
        )
