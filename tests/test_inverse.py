import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fracheat import (
    DenominatorNearZero,
    NoiseSpec,
    ProblemData,
    assemble,
    build_manufactured,
    cn_step,
    discrete_measurement,
    make_grid,
    make_step_operators,
    measurements_from_trajectory,
    perturb_measurements,
    recover_r_step,
    run_forward,
    run_inverse,
    run_inverse_batch,
    run_inverse_case,
    smooth_measurements,
    stability_bounds,
)
from fracheat.forward import SOLVERS
from fracheat.grid import MeasurementSeries, Trajectory

WINDOW_INTEGRAL = (math.sqrt(5.0) - 1.0) / (2.0 * math.pi)


class TestDiscreteMeasurement:
    def test_zero_state(self):
        assert discrete_measurement(np.zeros(9), np.ones(9), 0.1) == 0.0

    def test_sine_pairing_near_half(self):
        # trapezoid exactness on trigonometric polynomials makes this sharp
        g = make_grid(1, 1, 100, 1, 0.5)
        x = g.interior_x()
        v = discrete_measurement(np.sin(np.pi * x), np.sin(np.pi * x), g.h)
        assert abs(v - 0.5) <= 1e-3
        assert abs(v - 0.5) <= 1e-14

    def test_window_weight_approaches_integral(self):
        gaps = []
        for n in (100, 400):
            g = make_grid(1, 1, n, 1, 0.5)
            x = g.interior_x()
            spec, data = build_manufactured("example2", g)
            v = discrete_measurement(np.sin(np.pi * x), data.weight, g.h)
            gaps.append(abs(v - WINDOW_INTEGRAL))
        assert gaps[0] <= 1e-2
        assert gaps[1] < gaps[0]  # half-cell error shrinks with h

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            discrete_measurement(np.zeros(4), np.zeros(5), 0.1)


class TestRecoverRStep:
    def test_single_step_roundtrip(self, grid16, op16):
        ops = make_step_operators(grid16, op=op16)
        rng = np.random.default_rng(8)
        u0 = rng.standard_normal(15)
        f = rng.standard_normal(15)
        weight = np.sin(np.pi * grid16.interior_x())
        r_true = 1.7
        u1 = cn_step(ops, u0, r_true, f)
        w0 = discrete_measurement(u0, weight, grid16.h)
        w1 = discrete_measurement(u1, weight, grid16.h)
        r_rec, u1_rec = recover_r_step(ops, u0, w0, w1, f, weight)
        assert r_rec == pytest.approx(r_true, abs=1e-11)
        assert np.max(np.abs(u1_rec - u1)) <= 1e-11

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_update_paths_consistent(self, grid16, op16, solver):
        # the recovery's update is the CN step with the recovered r, bit for bit
        ops = make_step_operators(grid16, op=op16, solver=solver)
        rng = np.random.default_rng(21)
        u0 = rng.standard_normal(15)
        f = rng.standard_normal(15)
        weight = np.abs(rng.standard_normal(15)) + 0.1
        w0 = discrete_measurement(u0, weight, grid16.h)
        u1 = cn_step(ops, u0, 0.9, f)
        w1 = discrete_measurement(u1, weight, grid16.h)
        r_rec, u1_rec = recover_r_step(ops, u0, w0, w1, f, weight)
        direct = cn_step(ops, u0, r_rec, f)
        assert np.array_equal(u1_rec, direct)

    @pytest.mark.parametrize("solver", ["cholesky", "cg", "modal"])
    def test_non_finite_forcing_raises(self, grid16, op16, solver):
        ops = make_step_operators(grid16, op=op16, solver=solver)
        f = np.full(15, np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            recover_r_step(ops, np.zeros(15), 0.0, 0.0, f, np.ones(15))

    def test_orthogonal_forcing_trips_guard(self, grid16, op16):
        # odd forcing against an even weight: both pairings vanish exactly by
        # the reflection symmetry of the operator
        ops = make_step_operators(grid16, op=op16)
        x = grid16.interior_x()
        weight = np.sin(np.pi * x)
        f = np.sin(2 * np.pi * x)
        u0 = np.zeros(15)
        with pytest.raises(DenominatorNearZero):
            recover_r_step(ops, u0, 0.0, 0.0, f, weight)


class TestRunInverse:
    @pytest.mark.parametrize("s", [0.1, 0.9])
    def test_roundtrip_recovery(self, s):
        grid = make_grid(1, 1, 32, 32, s)
        op = assemble(grid)
        spec, data = build_manufactured("example2", grid, source="discrete", op=op)
        ops = make_step_operators(grid, op=op)
        fwd = run_forward(data, grid, ops=ops)
        w = measurements_from_trajectory(fwd, data.weight, grid)
        traj, rec = run_inverse(data, grid, measurements=w, ops=ops)
        r_exact = spec.r_at_midpoints(grid)
        assert np.max(np.abs(rec.values - r_exact)) <= 1e-9
        assert np.max(np.abs(traj.states - fwd.states)) <= 1e-9

    def test_single_step_run(self):
        grid = make_grid(1, 1, 16, 1, 0.5)
        op = assemble(grid)
        spec, data = build_manufactured("example1", grid, source="discrete", op=op)
        traj, rec = run_inverse(data, grid, ops=make_step_operators(grid, op=op))
        assert rec.values.size == 1
        assert np.isfinite(rec.values[0])

    def test_measurement_length_check(self, grid16, op16):
        spec, data = build_manufactured("example1", grid16, op=op16)
        bad = MeasurementSeries(values=np.ones(grid16.M))  # one short
        with pytest.raises(ValueError):
            run_inverse(data, grid16, measurements=bad)

    def test_incompatible_initial_measurement_warns(self):
        grid = make_grid(1, 1, 100, 10, 0.5)
        spec, data = build_manufactured("example2", grid)
        with pytest.warns(UserWarning, match="incompatible"):
            run_inverse(data, grid)

    def test_compatible_initial_measurement_silent(self):
        grid = make_grid(1, 1, 64, 8, 0.5)
        spec, data = build_manufactured("example1", grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_inverse(data, grid)

    def test_denominator_failure_carries_step_index(self, grid16, op16):
        x = grid16.interior_x()
        data = ProblemData(
            phi=np.zeros(15),
            forcing=lambda t: np.sin(2 * np.pi * x),
            weight=np.sin(np.pi * x),
            measurements=MeasurementSeries(values=np.zeros(grid16.M + 1)),
        )
        with pytest.raises(DenominatorNearZero) as info:
            run_inverse(data, grid16, ops=make_step_operators(grid16, op=op16))
        assert info.value.step == 0

    def test_cg_series_takes_one_solve_per_step_and_one_more(self, monkeypatch):
        # y = L^-1 omega once, then the step's own solve: M + 1 solves, not 2M
        import fracheat.forward

        grid = make_grid(1, 0.1, 64, 6, 0.5)
        spec, data = build_manufactured("example2", grid)
        ops = make_step_operators(grid, solver="cg")
        calls = []
        cg_solve = fracheat.forward.cg_solve

        def counting(*args, **kwargs):
            calls.append(args[1].shape)
            return cg_solve(*args, **kwargs)

        monkeypatch.setattr(fracheat.forward, "cg_solve", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_inverse(data, grid, ops=ops)
        assert len(calls) == grid.M + 1
        assert set(calls) == {(grid.interior_dim,)}

    def test_cholesky_solves_no_block_of_forcings(self, monkeypatch):
        from fracheat.solvers import SpdFactorization

        grid = make_grid(1, 1, 32, 8, 0.5)
        spec, data = build_manufactured("example1", grid)
        shapes = []
        solve = SpdFactorization.solve

        def recording(self, b):
            shapes.append(np.shape(b))
            return solve(self, b)

        monkeypatch.setattr(SpdFactorization, "solve", recording)
        run_inverse(data, grid, ops=make_step_operators(grid, solver="cholesky"))
        assert (grid.interior_dim, grid.M) not in shapes
        assert len(shapes) == grid.M + 1

    def test_measurement_increments_tracked_exactly(self):
        # the recovered trajectory reproduces the given measurement increments
        # exactly, whatever the data: h<U^n, w> - w^n is constant in n
        grid = make_grid(1, 1, 100, 50, 0.5)
        spec, data = build_manufactured("example2", grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traj, _ = run_inverse(data, grid)
        w = data.measurements.values
        paired = grid.h * traj.states @ data.weight
        offsets = paired - w
        assert np.max(np.abs(offsets - offsets[0])) <= 1e-10

    def test_example2_analytic_window_error_profile(self):
        # With the analytic measurement series the node-sampled window weight
        # carries an O(h) half-cell mismatch, which the shrinking forcing
        # pairing amplifies toward t = 1: percent-level error early, tens of
        # percent at the final midpoints (N = M = 100, s = 0.5).
        grid = make_grid(1, 1, 100, 100, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_inverse_case("example2", grid, source="discrete")
        errors = np.abs(res.recovered.values - res.r_table[:, 2])
        third = grid.M // 3
        assert np.max(errors[:third]) <= 2e-2
        assert res.linf_r <= 0.5
        # the roundtrip against discrete data on the same grid is exact
        op = assemble(grid)
        spec, data = build_manufactured("example2", grid, source="discrete", op=op)
        ops = make_step_operators(grid, op=op)
        fwd = run_forward(data, grid, ops=ops)
        w = measurements_from_trajectory(fwd, data.weight, grid)
        _, rec = run_inverse(data, grid, measurements=w, ops=ops)
        assert np.max(np.abs(rec.values - spec.r_at_midpoints(grid))) <= 1e-9

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n_cells, steps", [(16, 10), (20, 600)])
    def test_recovered_series_drives_forward_run(self, solver, s, n_cells, steps):
        # feeding the recovered coefficients back into the stepper (a round
        # trip over CoefficientSeries) reproduces the inverse trajectory bit
        # for bit: forward and recovery march the same map on every route,
        # also with M >= n and more forcings than one block of the change of basis
        grid = make_grid(1, 1, n_cells, steps, s)
        op = assemble(grid)
        _, data = build_manufactured("example1", grid, source="discrete", op=op)
        ops = make_step_operators(grid, op=op, solver=solver)
        traj, rec = run_inverse(data, grid, ops=ops)
        assert np.array_equal(run_forward(data, grid, r=rec, ops=ops).states, traj.states)

    def test_modal_run_keeps_its_route(self):
        # the recovery ends its march as run_forward does: the trajectory keeps the
        # modal route, and stability_bounds' eigenbasis view of it agrees with the
        # nodal view of the same states, with the recovered r as the coefficient
        grid = make_grid(1, 1, 48, 60, 0.5)
        op = assemble(grid)
        _, data = build_manufactured("example1", grid, op=op)
        ops = make_step_operators(grid, op=op, solver="modal")
        traj, rec = run_inverse(data, grid, ops=ops)
        assert traj.route is ops
        kept = stability_bounds(traj, rec, data.forcing, op, grid)
        want = stability_bounds(Trajectory(states=traj.states), rec, data.forcing, op, grid)
        for name in ("l2_slack", "energy_slack"):
            gap = np.max(np.abs(getattr(kept, name) - getattr(want, name)))
            assert gap <= 1e-12 * np.max(np.abs(getattr(want, name)))
        identity_scale = float(np.max(np.sum(traj.states**2, axis=1))) / grid.tau
        gap = np.max(np.abs(kept.identity_residuals - want.identity_residuals))
        assert gap <= 1e-12 * identity_scale

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_memory_is_bounded_by_the_states(self, solver):
        # the trajectory adopts the (M+1, n) states the recovery wrote, with no copy:
        # one copy took the peak to 2.04 times the states on every route
        grid = make_grid(1, 1, 64, 4000, 0.5)
        op = assemble(grid)
        _, data = build_manufactured("example1", grid, op=op)
        short = make_grid(1, 1, 64, 2, 0.5)  # imports SciPy and decomposes A on the modal route
        run_inverse(build_manufactured("example1", short, op=op)[1], short,
                    ops=make_step_operators(short, op=op, solver=solver))
        ops = make_step_operators(grid, op=op, solver=solver)
        tracemalloc.start()
        try:
            trajectory, _ = run_inverse(data, grid, ops=ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * trajectory.states.nbytes

    def test_scale_equivariance(self):
        # scaling f, w, phi jointly leaves the recovered coefficients unchanged
        grid = make_grid(1, 1, 32, 16, 0.5)
        op = assemble(grid)
        spec, data = build_manufactured("example1", grid, source="discrete", op=op)
        ops = make_step_operators(grid, op=op)
        traj1, rec1 = run_inverse(data, grid, ops=ops)
        c = 37.5
        scaled = ProblemData(
            phi=c * data.phi,
            forcing=lambda t: c * data.forcing(t),
            weight=data.weight,
            measurements=MeasurementSeries(values=c * data.measurements.values),
            coefficient=spec.r_exact,
        )
        traj2, rec2 = run_inverse(scaled, grid, ops=ops)
        assert np.max(np.abs(rec2.values - rec1.values)) <= 1e-12 * np.max(np.abs(rec1.values))
        assert np.max(np.abs(traj2.states - c * traj1.states)) <= 1e-9


class TestNoise:
    def test_zero_delta_identity(self):
        w = MeasurementSeries(values=np.linspace(0, 1, 11))
        out = perturb_measurements(w, NoiseSpec(delta=0.0, seed=3))
        np.testing.assert_array_equal(out.values, w.values)

    def test_seed_determinism(self):
        w = MeasurementSeries(values=np.linspace(0, 1, 11))
        a = perturb_measurements(w, NoiseSpec(delta=0.05, seed=42))
        b = perturb_measurements(w, NoiseSpec(delta=0.05, seed=42))
        np.testing.assert_array_equal(a.values, b.values)
        c = perturb_measurements(w, NoiseSpec(delta=0.05, seed=43))
        assert np.any(a.values != c.values)

    def test_amplitude_bound(self):
        rng = np.random.default_rng(0)
        w = MeasurementSeries(values=rng.standard_normal(101))
        delta = 0.05
        out = perturb_measurements(w, NoiseSpec(delta=delta, seed=1))
        bound = delta * np.max(np.abs(w.values))
        assert np.max(np.abs(out.values - w.values)) <= bound

    def test_provenance_tag(self):
        w = MeasurementSeries(values=np.ones(5))
        out = perturb_measurements(w, NoiseSpec(delta=0.03, seed=7))
        assert out.provenance == "noisy(delta=0.03, seed=7)"

    @pytest.mark.parametrize("bad", [dict(delta=-0.1), dict(delta=1.0)])
    def test_spec_validation(self, bad):
        with pytest.raises(ValueError):
            NoiseSpec(**bad)


def _per_point_mean(w, window):
    """The reference moving average: one np.mean per point."""
    half = window // 2
    out = np.empty_like(w)
    for i in range(w.size):
        k = min(half, i, w.size - 1 - i)
        out[i] = np.mean(w[i - k : i + k + 1])
    return out


def _random_series(rng, n):
    return rng.uniform(-3.0, 3.0) + 10.0 ** rng.uniform(-5.0, 5.0) * rng.standard_normal(n)


class TestSmoothing:
    @pytest.mark.parametrize("window", [3, 5, 7])
    def test_small_windows_bit_equal_to_per_point_mean(self, window):
        # below 9 points np.mean sums left to right, as smooth_measurements does
        rng = np.random.default_rng(window)
        for n in [window, window + 1, 201] + [int(k) for k in rng.integers(window, 300, 20)]:
            w = _random_series(rng, n)
            out = smooth_measurements(MeasurementSeries(values=w), window)
            np.testing.assert_array_equal(out.values, _per_point_mean(w, window))

    @pytest.mark.parametrize("window", [9, 21])
    def test_wide_windows_agree_to_rounding(self, window):
        # from 9 points np.mean sums pairwise, so the two round differently;
        # the gap is measured against the mean of |w| over each window
        rng = np.random.default_rng(window)
        for n in [window, window + 1, 201] + [int(k) for k in rng.integers(window, 300, 20)]:
            w = _random_series(rng, n)
            out = smooth_measurements(MeasurementSeries(values=w), window)
            gap = np.abs(out.values - _per_point_mean(w, window))
            assert np.all(gap <= 1e-12 * _per_point_mean(np.abs(w), window))

    def test_window_one_identity(self):
        w = MeasurementSeries(values=np.arange(5.0))
        out = smooth_measurements(w, 1)
        np.testing.assert_array_equal(out.values, w.values)

    def test_constant_series_unchanged(self):
        w = MeasurementSeries(values=np.full(9, 2.5))
        out = smooth_measurements(w, 5)
        np.testing.assert_allclose(out.values, 2.5)

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            smooth_measurements(MeasurementSeries(values=np.ones(9)), 4)

    def test_oversized_window_rejected(self):
        with pytest.raises(ValueError):
            smooth_measurements(MeasurementSeries(values=np.ones(3)), 5)

    def test_boundary_windows_shrink(self):
        w = MeasurementSeries(values=np.array([1.0, 0.0, 0.0, 0.0, 1.0]))
        out = smooth_measurements(w, 3)
        # endpoints are untouched (window shrinks to width one there)
        assert out.values[0] == 1.0
        assert out.values[-1] == 1.0
        assert out.values[1] == pytest.approx(1.0 / 3.0)

    def test_smoothing_reduces_noisy_recovery_error(self):
        # delta = 3% on the first benchmark: the smoothed recovery must beat
        # the raw one on the same seed; both values recorded in the assert
        grid = make_grid(1, 1, 100, 100, 0.5)
        spec = NoiseSpec(delta=0.03, seed=0)
        raw = run_inverse_case("example1", grid, noise=spec)
        smoothed = run_inverse_case("example1", grid, noise=spec, smooth_window=5)
        assert smoothed.linf_r < raw.linf_r, (
            f"smoothed {smoothed.linf_r:.4f} not below raw {raw.linf_r:.4f}"
        )


def _infinite_measurement(grid, data):
    series = np.column_stack([data.measurements.values] * 2)
    series[2, 1] = np.inf
    with np.errstate(invalid="ignore"):  # inf - inf on the way to the refusal
        run_inverse_batch(data, grid, series)


@pytest.mark.parametrize("refused, message", [
    (_infinite_measurement, "^recovery produced non-finite values$"),
    (lambda grid, data: run_inverse(replace(data, measurements=None), grid),
     "^no measurements: pass them or set problem.measurements$"),
    (lambda grid, data: measurements_from_trajectory(Trajectory(states=np.zeros((3, 15))),
                                                     data.weight, grid),
     "^trajectory shape does not match the grid$"),
], ids=["infinite-measurement", "no-measurements", "trajectory"])
def test_refusals_name_what_they_refuse(refused, message):
    grid = make_grid(1, 1, 16, 10, 0.5)
    _, data = build_manufactured("example1", grid)
    with pytest.raises(ValueError, match=message):
        refused(grid, data)
