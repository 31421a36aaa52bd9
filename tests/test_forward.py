import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracheat.forward
from fracheat import (
    ProblemData,
    RieszOperator,
    assemble,
    build_manufactured,
    cn_step,
    eigendecompose,
    make_grid,
    make_step_operators,
    run_forward,
    run_inverse_case,
    spectral_duhamel_oracle,
    stability_bounds,
)
from fracheat.forward import SOLVERS, StabilityReport, StepOperators
from fracheat.grid import Trajectory
from conftest import within_cg_floor


def _zero_forcing(n):
    z = np.zeros(n)
    return lambda t: z


def _refuse_dense(op):
    raise AssertionError("the dense A was formed")


class TestCnStep:
    def test_zero_state_zero_forcing(self, grid16, op16):
        ops = make_step_operators(grid16, op=op16)
        z = np.zeros(15)
        np.testing.assert_allclose(cn_step(ops, z, 0.0, z), 0.0)

    def test_modal_amplification(self, grid16, op16):
        dec = eigendecompose(op16.dense())
        ops = make_step_operators(grid16, op=op16)
        tau = ops.tau
        z = np.zeros(15)
        for k in range(dec.size):
            lam, q = dec.eigenvalues[k], dec.eigenvectors[:, k]
            g = (1.0 - tau * lam / 2.0) / (1.0 + tau * lam / 2.0)
            u1 = cn_step(ops, q, 0.0, z)
            assert np.max(np.abs(u1 - g * q)) <= 1e-10

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_refuses_non_finite_state_and_forcing(self, grid16, solver):
        # the marches' ValueError on every route, not a NaN state or CG's divergence
        ops = make_step_operators(grid16, solver=solver)
        good = np.ones(15)
        for bad in (np.nan, np.inf, -np.inf):
            broken = good.copy()
            broken[4] = bad
            with pytest.raises(ValueError, match="^forcing has non-finite entries at step 0$"):
                cn_step(ops, good, 1.0, broken)
            with pytest.raises(ValueError, match="^state has non-finite entries$"):
                cn_step(ops, broken, 1.0, good)

    def test_homogeneous_energy_identity(self, grid16, op16):
        # one step on a one-step grid of grid16's tau, its identity read with r = 0
        grid = make_grid(1, grid16.tau, 16, 1, 0.5)
        ops = make_step_operators(grid, op=op16)
        rng = np.random.default_rng(2)
        u = rng.standard_normal(15)
        u1 = cn_step(ops, u, 0.0, np.zeros(15))
        report = stability_bounds(Trajectory(states=[u, u1]), [0.0], _zero_forcing(15), op16, grid)
        assert abs(grid.tau * report.identity_residuals[0]) <= 1e-10 * float(u @ u)

    def test_rejects_non_finite_coefficient(self, grid16, op16):
        ops = make_step_operators(grid16, op=op16)
        with pytest.raises(ValueError):
            cn_step(ops, np.zeros(15), np.nan, np.zeros(15))

    def test_solver_auto_switch_on_size(self, grid16, op16):
        small = make_step_operators(grid16, op=op16)
        assert small.solver == "cholesky"
        big_grid = make_grid(1, 1, 2050, 100, 0.5)
        big = make_step_operators(big_grid)  # above the factor-once cutoff
        assert big.solver == "cg"
        u = np.sin(np.pi * big_grid.interior_x())
        u1 = cn_step(big, u, 0.0, np.zeros(big_grid.interior_dim))
        # one homogeneous step contracts the norm and stays finite
        assert np.all(np.isfinite(u1))
        assert np.linalg.norm(u1) < np.linalg.norm(u)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(s=st.floats(0.01, 0.99), n_cells=st.integers(2, 300), log_tau=st.floats(-3.0, 3.0),
           seed=st.integers(0, 2**32 - 1), solver=st.sampled_from(("modal", "cg")))
    @example(s=0.99, n_cells=300, log_tau=3.0, seed=0, solver="modal")
    @example(s=0.99, n_cells=300, log_tau=3.0, seed=0, solver="cg")
    @example(s=0.01, n_cells=2, log_tau=-3.0, seed=0, solver="modal")
    @example(s=0.01, n_cells=2, log_tau=-3.0, seed=0, solver="cg")
    def test_routes_match_cholesky(self, s, n_cells, log_tau, seed, solver):
        # one step on a grid with T = tau, M = 1, each route in its own coordinates
        tau = 10.0**log_tau
        grid = make_grid(1, tau, n_cells, 1, s)
        direct = make_step_operators(grid, solver="cholesky")
        rng = np.random.default_rng(seed)
        u, f = rng.standard_normal((2, grid.interior_dim))
        r = rng.uniform(-2.0, 2.0)
        ref = cn_step(direct, u, r, f)
        with within_cg_floor():
            got = cn_step(make_step_operators(grid, op=direct.op, solver=solver), u, r, f)
        if solver == "modal":
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))
        else:
            # CG stops at ||b - L x|| <= tol ||b||; with 1 <= lambda(L) <= cond (Gershgorin)
            # that leaves ||x - ref|| <= cond tol ||ref||, at the default tol 1e-12
            cond = 1.0 + tau * float(np.max(direct.op.diag))
            assert np.linalg.norm(got - ref) <= cond * 1e-12 * np.linalg.norm(ref)

    def test_modal_route_refuses_sizes_eigendecompose_refuses(self):
        with pytest.raises(ValueError, match="n <= 1024"):
            make_step_operators(make_grid(1, 1, 1026, 10, 0.5), solver="modal")

    @pytest.mark.parametrize("solver", [None, *SOLVERS])
    @pytest.mark.parametrize("tol", [0.0, -1.0, float("inf"), float("nan")])
    def test_refuses_a_tol_that_is_not_finite_and_positive(self, grid16, op16, solver, tol):
        # on every route: a study refining past the Cholesky limit lands on CG
        with pytest.raises(ValueError, match=f"tol must be finite and positive, got {tol}"):
            make_step_operators(grid16, op=op16, solver=solver, tol=tol)

    def test_an_infinite_tol_cannot_stop_a_recovery_early(self):
        # CG stopped after one iteration per solve: r off by 1.8e-2, not 6.8e-4
        with pytest.raises(ValueError, match="tol must be finite and positive, got inf"):
            run_inverse_case("example2", make_grid(1, 0.1, 64, 10, 0.5), solver="cg",
                             tol=float("inf"))

    def test_step_operators_commute_with_a(self, grid16, op16):
        # L and R are polynomials in A, so the homogeneous step L^-1 R commutes
        # with A (structural invariant); cn_step takes nodal vectors on every route
        rng = np.random.default_rng(6)
        v = rng.standard_normal(15)
        for solver in SOLVERS:
            ops = make_step_operators(grid16, op=op16, solver=solver)

            def step(u):
                return cn_step(ops, u, 0.0, np.zeros(15))

            left = step(op16.apply(v))
            right = op16.apply(step(v))
            assert np.max(np.abs(left - right)) <= 1e-12 * max(1.0, np.max(np.abs(left))), solver

    def test_cg_and_cholesky_steps_agree(self, grid16, op16):
        direct = make_step_operators(grid16, op=op16, solver="cholesky")
        iterative = make_step_operators(grid16, op=op16, solver="cg", tol=1e-13)
        rng = np.random.default_rng(4)
        u = rng.standard_normal(15)
        f = rng.standard_normal(15)
        a = cn_step(direct, u, 1.3, f)
        b = cn_step(iterative, u, 1.3, f)
        assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(a)


class TestEnergyIdentityResidual:
    # stability_bounds' identity_residuals with r = 0 and no forcing; on a
    # two-level run [u, u] it is 2 ||u||_A^2, which no homogeneous step leaves
    @staticmethod
    def _unchanged_pair(op, u, tau):
        grid = make_grid(1, tau, 16, 1, 0.5)
        report = stability_bounds(Trajectory(states=[u, u]), [0.0], _zero_forcing(15), op, grid)
        return report.identity_residuals[0]

    def test_zero_pair(self, op16):
        assert self._unchanged_pair(op16, np.zeros(15), 0.1) == 0.0

    def test_flags_non_cn_pair(self, op16):
        u = np.linspace(0.1, 1.0, 15)
        res = self._unchanged_pair(op16, u, 0.05)
        expected = 2.0 * float(op16.apply(u) @ u)
        assert res == pytest.approx(expected, rel=1e-12)
        assert res > 0.0

    def test_stacked_homogeneous_steps(self, op16):
        # five homogeneous steps taken outside the march, L^-1 (U - tau/2 A U)
        # with the dense A, in one block of stability_bounds; the Cholesky route's
        # solve takes nodal vectors
        grid = make_grid(1, 0.5, 16, 5, 0.5)
        ops = make_step_operators(grid, op=op16, solver="cholesky")
        states = [np.random.default_rng(9).standard_normal(15)]
        for _ in range(grid.M):
            states.append(ops.solve(states[-1] - (ops.tau / 2.0) * (op16.dense() @ states[-1])))
        u_n = np.array(states[:-1])
        report = stability_bounds(Trajectory(states=states), np.zeros(grid.M), _zero_forcing(15),
                                  op16, grid)
        res = ops.tau * report.identity_residuals
        assert np.all(np.abs(res) <= 1e-10 * np.einsum("kn,kn->k", u_n, u_n))


class TestRunForward:
    def test_zero_data_zero_trajectory(self, grid16, op16):
        data = ProblemData(
            phi=np.zeros(15), forcing=_zero_forcing(15), weight=np.ones(15)
        )
        traj = run_forward(data, grid16, r=lambda t: 0.0,
                           ops=make_step_operators(grid16, op=op16))
        assert np.all(traj.states == 0.0)

    def test_repeated_modal_decay(self, grid16, op16):
        dec = eigendecompose(op16.dense())
        lam, q = dec.eigenvalues[3], dec.eigenvectors[:, 3]
        data = ProblemData(phi=q, forcing=_zero_forcing(15), weight=np.ones(15))
        traj = run_forward(data, grid16, r=lambda t: 0.0,
                           ops=make_step_operators(grid16, op=op16))
        g = (1.0 - grid16.tau * lam / 2.0) / (1.0 + grid16.tau * lam / 2.0)
        for n in range(grid16.M + 1):
            assert np.max(np.abs(traj.states[n] - g**n * q)) <= 1e-9

    def test_manufactured_accuracy(self):
        grid = make_grid(1, 1, 100, 100, 0.5)
        spec, data = build_manufactured("example1", grid, source="discrete")
        traj = run_forward(data, grid)
        err = np.max(np.abs(traj.final - spec.u_exact(1.0, grid.interior_x())))
        assert err <= 1e-4

    def test_requires_some_coefficient(self, grid16):
        data = ProblemData(phi=np.zeros(15), forcing=_zero_forcing(15), weight=np.ones(15))
        with pytest.raises(ValueError):
            run_forward(data, grid16)

    @pytest.mark.parametrize("solver", ["cholesky", "cg", "modal"])
    def test_march_repeats_cn_step(self, example1_64, solver):
        # the one march is cn_step's arithmetic on the factor and CG routes, to
        # the bit; the modal route takes the same step in the eigenbasis
        grid, op, _, data = example1_64
        ops = make_step_operators(grid, op=op, solver=solver)
        got = run_forward(data, grid, ops=ops).states
        ref = [data.phi]
        for t in grid.midpoint_times():
            ref.append(cn_step(ops, ref[-1], data.coefficient(float(t)), data.forcing(float(t))))
        ref = np.array(ref)
        if solver == "modal":
            assert np.max(np.abs(got - ref)) <= 1e-12 * float(np.max(np.abs(ref)))
        else:
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("solver", ["cholesky", "cg", "modal"])
    def test_nan_forcing_raises(self, grid16, op16, solver):
        # the stacked forcings are checked before the first solve, on every route
        data = ProblemData(phi=np.zeros(15), forcing=lambda t: np.full(15, np.nan),
                           weight=np.ones(15), coefficient=lambda t: 1.0)
        ops = make_step_operators(grid16, op=op16, solver=solver)
        with pytest.raises(ValueError, match="non-finite"):
            run_forward(data, grid16, ops=ops)

    @pytest.mark.parametrize("tau", [1e-3, 1e-1, 10.0])
    def test_unconditional_decay_of_homogeneous_runs(self, grid16, op16, tau):
        ops = make_step_operators(replace(grid16, T=tau * grid16.M), op=op16)
        u = np.sin(np.pi * grid16.interior_x())
        prev = np.linalg.norm(u)
        for _ in range(10):
            u = cn_step(ops, u, 0.0, np.zeros(15))
            cur = np.linalg.norm(u)
            assert cur <= prev * (1.0 + 1e-14)
            prev = cur


class TestRouteRule:
    """Without a solver: modal once M * series >= n (n <= 1024), else by size."""

    def test_noise_ensemble_grid_goes_modal(self, monkeypatch):
        import fracheat.studies

        grid = make_grid(1, 1, 200, 200, 0.5)
        assert make_step_operators(grid, series=60).solver == "modal"
        routes = []
        original = fracheat.studies.run_inverse_batch

        def spy(problem, grid, measurements, ops, **kwargs):
            routes.append((ops.solver, measurements.shape[1]))
            return original(problem, grid, measurements, ops, **kwargs)

        monkeypatch.setattr(fracheat.studies, "run_inverse_batch", spy)
        # M < n: only the 12 series marched together make it modal
        fracheat.studies.noise_study(fracheat.StudyConfig(
            n_values=(64,), m_values=(16,), seeds=(0, 1), smooth_window=5,
        ))
        assert routes == [("modal", 12)]

    def test_large_grid_goes_cg(self):
        assert make_step_operators(make_grid(1, 0.1, 3072, 10, 0.5)).solver == "cg"

    def test_single_short_series_keeps_cholesky(self):
        assert make_step_operators(make_grid(1, 1, 800, 50, 0.5)).solver == "cholesky"

    def test_setup_builds_no_decomposition(self):
        # the set-up probe's call: the eigendecomposition waits for the first march
        grid = make_grid(1, 1, 200, 200, 0.5)
        ops = make_step_operators(grid, op=assemble(grid))
        assert ops.solver == "modal"
        assert "eigendecomposition" not in vars(ops.op)
        ops.solve(np.ones(grid.interior_dim))
        assert "eigendecomposition" in vars(ops.op)


class TestRouteInterface:
    """What the marches ask a route instead of its name: ``decay``, and ``trajectory``
    at the end of a forward march."""

    @pytest.mark.parametrize("solver", ["cholesky", "cg"])
    def test_nodal_routes_adopt_the_march(self, grid16, solver):
        ops = make_step_operators(grid16, solver=solver)
        assert ops.decay is None
        marched = np.ones((grid16.M + 1, 15))
        traj = ops.trajectory(np.zeros(15), marched)
        assert traj.states is marched and traj.route is None
        assert not marched.flags.writeable

    def test_modal_route_keeps_its_coordinates(self, grid16):
        ops = make_step_operators(grid16, solver="modal")
        dec = ops.op.eigendecomposition
        half = grid16.tau * dec.eigenvalues / 2.0
        assert np.array_equal(ops.decay, (1.0 - half) / (1.0 + half))
        rng = np.random.default_rng(3)
        phi, marched = rng.standard_normal(15), rng.standard_normal((grid16.M + 1, 15))
        want = marched[1:] @ dec.eigenvectors.T
        traj = ops.trajectory(phi, marched)
        assert traj.route[0] is ops and traj.route[1] is marched
        assert np.array_equal(traj.states[0], phi)
        assert np.array_equal(traj.states[1:], want)


class TestStabilityBounds:
    def test_homogeneous_monotone_norms(self, grid16, op16):
        data = ProblemData(phi=np.sin(np.pi * grid16.interior_x()),
                           forcing=_zero_forcing(15), weight=np.ones(15))
        ops = make_step_operators(grid16, op=op16)
        traj = run_forward(data, grid16, r=lambda t: 0.0, ops=ops)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.all(np.diff(norms) <= 1e-14)
        rep = stability_bounds(traj, lambda t: 0.0, data.forcing, op16, grid16)
        assert rep.holds(tol=1e-10)
        assert np.max(np.abs(rep.identity_residuals)) <= 1e-10

    def test_forced_run_bounds_hold(self):
        grid = make_grid(1, 1, 50, 50, 0.5)
        op = assemble(grid)
        spec, data = build_manufactured("example1", grid, source="discrete", op=op)
        traj = run_forward(data, grid, ops=make_step_operators(grid, op=op))
        rep = stability_bounds(traj, spec.r_exact, data.forcing, op, grid)
        assert rep.holds(tol=1e-10)
        assert np.all(rep.l2_slack >= 0.0)
        assert np.all(rep.energy_slack >= 0.0)
        assert np.max(np.abs(rep.identity_residuals)) <= 1e-9

    def test_kept_coordinates_need_the_operator_s_own_decomposition(self, monkeypatch):
        # a modal run keeps its route and eigenbasis coordinates, which stability_bounds
        # reads in place of the states, taking only the P = 4 shapes to the eigenbasis
        grid = make_grid(1, 1, 40, 40, 0.5)
        op = assemble(grid)
        spec, data = build_manufactured("example1", grid, op=op)
        ops = make_step_operators(grid, op=op, solver="modal")
        traj = run_forward(data, grid, ops=ops)
        route, coordinates = traj.route
        assert route is ops and "eigendecomposition" in vars(op)
        # the nodal states are the in-place block products of the coordinates, bit for bit
        assert np.array_equal(traj.states[1:], fracheat.forward._rows_times(
            coordinates[1:].copy(), op.eigendecomposition.eigenvectors.T))
        transformed, rows_times = [], fracheat.forward._rows_times
        monkeypatch.setattr(fracheat.forward, "_rows_times",
                            lambda rows, *a, **k: transformed.append(len(rows)) or
                            rows_times(rows, *a, **k))
        kept = stability_bounds(traj, spec.r_exact, data.forcing, op, grid)
        assert transformed == [4]
        # on another operator, decomposed or not, the report is that of the nodal
        # states alone, bit for bit
        nodal = Trajectory(states=traj.states)
        others = [assemble(grid), assemble(make_grid(1, 1, 40, 40, 0.7)),
                  assemble(grid, "interpolated")]
        for other in others[1:]:
            other.eigendecomposition
        for other in others:
            got = stability_bounds(traj, spec.r_exact, data.forcing, other, grid)
            want = stability_bounds(nodal, spec.r_exact, data.forcing, other, grid)
            for name in ("identity_residuals", "l2_slack", "energy_slack"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        # on this operator after its decomposition was rebuilt, the route's own
        # lambda and Q still give the route's report, bit for bit
        del vars(op)["eigendecomposition"]
        op.eigendecomposition
        got = stability_bounds(traj, spec.r_exact, data.forcing, op, grid)
        for name in ("identity_residuals", "l2_slack", "energy_slack"):
            assert np.array_equal(getattr(got, name), getattr(kept, name))

    def test_report_ignores_what_the_operator_caches(self):
        # a Cholesky run's report takes the nodal view whether or not anything has
        # decomposed its operator since, bit for bit
        grid = make_grid(1, 1, 64, 64, 0.5)
        op = assemble(grid)
        spec, data = build_manufactured("example1", grid, op=op)
        traj = run_forward(data, grid, ops=make_step_operators(grid, op=op, solver="cholesky"))
        assert traj.route is None and "eigendecomposition" not in vars(op)
        before = stability_bounds(traj, spec.r_exact, data.forcing, op, grid)
        op.eigendecomposition
        after = stability_bounds(traj, spec.r_exact, data.forcing, op, grid)
        for name in ("identity_residuals", "l2_slack", "energy_slack"):
            assert np.array_equal(getattr(after, name), getattr(before, name))

    @pytest.mark.parametrize("s, n_cells, m_steps, t_final", [
        (0.3, 64, 64, 1.0), (0.99, 200, 20, 100.0), (0.01, 2, 3, 1e-3), (0.5, 17, 40, 1.0)])
    def test_modal_identity_residuals_from_kept_coordinates(self, s, n_cells, m_steps, t_final):
        # with r = 0 each mode's step g = (1 - tau lambda/2)/(1 + tau lambda/2) keeps the
        # energy identity exactly, so what the coordinates leave of it is rounding
        grid = make_grid(1, t_final, n_cells, m_steps, s)
        op = assemble(grid)
        _, data = build_manufactured("example1", grid, op=op)
        r = np.zeros(grid.M)
        traj = run_forward(data, grid, r=r, ops=make_step_operators(grid, op=op, solver="modal"))
        assert traj.route is not None
        report = stability_bounds(traj, r, data.forcing, op, grid)
        energy = np.einsum("kn,kn->k", traj.states, traj.states)[:-1]
        assert np.all(np.abs(report.identity_residuals) <= 1e-12 * energy / grid.tau)

    def test_growth_bound_scales_linearly_with_forcing(self):
        grid = make_grid(1, 1, 24, 12, 0.5)
        op = assemble(grid)
        spec, data = build_manufactured("example1", grid, source="discrete", op=op)
        ops = make_step_operators(grid, op=op)
        traj1 = run_forward(data, grid, ops=ops)
        rep1 = stability_bounds(traj1, spec.r_exact, data.forcing, op, grid)

        scaled = lambda t: 10.0 * data.forcing(t)
        data10 = ProblemData(phi=data.phi, forcing=scaled, weight=data.weight,
                             coefficient=spec.r_exact)
        traj10 = run_forward(data10, grid, ops=ops)
        rep10 = stability_bounds(traj10, spec.r_exact, scaled, op, grid)

        norms1 = np.linalg.norm(traj1.states, axis=1)
        norms10 = np.linalg.norm(traj10.states, axis=1)
        u0 = norms1[0]
        for n in range(grid.M):
            rhs1 = rep1.l2_slack[n] + norms1[n + 1] - u0
            rhs10 = rep10.l2_slack[n] + norms10[n + 1] - u0
            assert rhs10 == pytest.approx(10.0 * rhs1, rel=1e-9)
        assert rep10.holds(tol=1e-9)

    def test_memory_is_bounded(self):
        # blocks of steps, never the (M, n) forcings, midpoints or A-products of
        # the whole run: stacked, they took 11.6 MB of temporaries on this grid
        grid = make_grid(1, 1, 600, 600, 0.3)
        op = assemble(grid)
        spec, data = build_manufactured("example1", grid, source="discrete", op=op)
        ops = make_step_operators(grid, op=op)
        assert ops.solver == "modal"
        traj = run_forward(data, grid, ops=ops)
        tracemalloc.start()
        try:
            report = stability_bounds(traj, spec.r_exact, data.forcing, op, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.holds(tol=1e-10)
        assert peak < 3e6

    @pytest.mark.parametrize("s, n_cells, m_steps", [(0.3, 64, 64), (0.99, 300, 20),
                                                      (0.01, 200, 5), (0.5, 2, 1)])
    def test_route_views_match_the_dense_a(self, s, n_cells, m_steps, monkeypatch):
        # stability_bounds takes its basis and its norms in A and A^-1 from a route
        # view: the nodal StepOperators, or the modal route a trajectory kept
        grid = make_grid(1, 1, n_cells, m_steps, s)
        op = assemble(grid)
        spec, data = build_manufactured("example1", grid, source="discrete", op=op)
        traj = run_forward(data, grid, ops=make_step_operators(grid, op=op, solver="cholesky"))
        forcings = (data.forcing, lambda t: data.forcing(t))  # separated, then plain
        rows = np.array([data.forcing(float(t)) for t in grid.midpoint_times()])
        a = op.dense()
        wants = (rows @ a, np.linalg.solve(a, rows.T).T)

        def check(view, coordinates):
            for want, apply in zip(wants, (view.times_a, view.solve_a)):
                stacked = view.from_basis(apply(coordinates(rows.copy())))
                single = view.from_basis(apply(coordinates(rows[:1].copy())[0])[None])
                for got in (stacked, single):
                    assert np.max(np.abs(got - want[: len(got)])) <= 1e-12 * np.max(np.abs(want))

        dense, formed = RieszOperator.dense, []
        with monkeypatch.context() as m:
            m.setattr(RieszOperator, "dense", lambda self: formed.append(self) or dense(self))
            by_factor = []
            for forcing in forcings:
                formed.clear()
                by_factor.append(stability_bounds(traj, spec.r_exact, forcing, op, grid))
                # once, for the Cholesky factor of A; ||.||_A takes the matvec
                assert formed == [op]
            check(StepOperators(grid, op), lambda x: x)
        assert "eigendecomposition" not in vars(op)  # the nodal view decomposes nothing
        # a modal run of the same states keeps its route: against the nodal view of
        # those states, the eigenbasis view factors nothing and forms no dense A
        modal = make_step_operators(grid, op=op, solver="modal")
        kept = run_forward(data, grid, ops=modal)
        by_factor = [stability_bounds(Trajectory(states=kept.states), spec.r_exact, forcing,
                                      op, grid) for forcing in forcings]
        monkeypatch.setattr(fracheat.forward, "cholesky", None)
        monkeypatch.setattr(RieszOperator, "dense", _refuse_dense)
        check(modal, modal.to_basis)
        for forcing, want in zip(forcings, by_factor):
            got = stability_bounds(kept, spec.r_exact, forcing, op, grid)
            for name in ("l2_slack", "energy_slack"):
                gap = np.max(np.abs(getattr(got, name) - getattr(want, name)))
                assert gap <= 1e-12 * np.max(np.abs(getattr(want, name)))
            # the matvec and eigenbasis A-norms of the midpoint states
            identity_scale = float(np.max(np.sum(kept.states**2, axis=1))) / grid.tau
            gap = np.max(np.abs(got.identity_residuals - want.identity_residuals))
            assert gap <= 1e-12 * identity_scale


def _stability_loop(trajectory, r_mid, forcing, op, grid):
    """The per-step evaluation that stability_bounds replaced, as its reference."""
    tau = grid.tau
    t_mid = grid.midpoint_times()
    a = op.dense()
    states = trajectory.states
    norms = np.linalg.norm(states, axis=1)
    identity = np.empty(grid.M)
    l2_slack = np.empty(grid.M)
    energy_slack = np.empty(grid.M)
    l2_bound = norms[0]
    energy_bound = norms[0] ** 2
    dissipated = 0.0
    for n in range(grid.M):
        f_mid = np.asarray(forcing(float(t_mid[n])), dtype=float)
        mid = 0.5 * (states[n] + states[n + 1])
        mid_energy = float((a @ mid) @ mid)
        identity[n] = (
            (norms[n + 1] ** 2 - norms[n] ** 2) / tau
            + 2.0 * mid_energy
            - 2.0 * r_mid[n] * float(f_mid @ mid)
        )
        l2_bound += tau * abs(r_mid[n]) * float(np.linalg.norm(f_mid))
        l2_slack[n] = l2_bound - norms[n + 1]
        dissipated += tau * mid_energy
        energy_bound += tau * r_mid[n] ** 2 * float(np.linalg.solve(a, f_mid) @ f_mid)
        energy_slack[n] = energy_bound - (norms[n + 1] ** 2 + dissipated)
    return identity, l2_slack, energy_slack


@settings(max_examples=60, deadline=None, derandomize=True)
@given(s=st.floats(0.01, 0.99), n_cells=st.integers(2, 300), m_steps=st.integers(1, 9),
       log_tau=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1),
       noise=st.sampled_from((0.0, 1e-3, 1.0)), solver=st.sampled_from(SOLVERS),
       block_steps=st.integers(1, 10))
@example(s=0.99, n_cells=300, m_steps=6, log_tau=3.0, seed=0, noise=0.0, solver="cholesky",
         block_steps=4)
@example(s=0.99, n_cells=200, m_steps=9, log_tau=3.0, seed=0, noise=0.0, solver="modal",
         block_steps=2)
@example(s=0.01, n_cells=200, m_steps=7, log_tau=-3.0, seed=2, noise=1e-3, solver="modal",
         block_steps=3)
@example(s=0.01, n_cells=200, m_steps=5, log_tau=-3.0, seed=3, noise=0.0, solver="cg",
         block_steps=2)
@example(s=0.01, n_cells=2, m_steps=1, log_tau=-3.0, seed=1, noise=1.0, solver="cholesky",
         block_steps=1)
def test_stability_bounds_match_per_step_loop(s, n_cells, m_steps, log_tau, seed, noise, solver,
                                              block_steps):
    # a CN run with random data on one route; ``noise`` perturbs the states
    # afterwards, so that some trajectories break the bounds and holds() is
    # tested both ways.  Unperturbed, a modal run's own trajectory keeps its route,
    # so stability_bounds takes the eigenbasis view there and the nodal view
    # elsewhere, and blocks of ``block_steps`` steps split the run unevenly where M
    # is no multiple
    tau = 10.0**log_tau
    grid = make_grid(1, tau * m_steps, n_cells, m_steps, s)
    op = assemble(grid)
    rng = np.random.default_rng(seed)
    n = grid.interior_dim
    g = rng.standard_normal(n)
    r_mid = rng.uniform(-2.0, 2.0, m_steps)
    data = ProblemData(phi=rng.standard_normal(n), forcing=lambda t: np.cos(t) * g,
                       weight=np.ones(n))
    with within_cg_floor():
        ops = make_step_operators(grid, op=op, solver=solver)
        run = run_forward(data, grid, r=r_mid, ops=ops)
    states = run.states.copy()
    states[1:] += noise * rng.standard_normal((m_steps, n))
    traj = run if solver == "modal" and noise == 0.0 else Trajectory(states=states)

    with mock.patch.object(fracheat.forward, "_STEP_BLOCK_VALUES", block_steps * n):
        report = stability_bounds(traj, r_mid, data.forcing, op, grid)
    assert ("eigendecomposition" in vars(op)) == (solver == "modal")
    assert (traj.route is not None) == (solver == "modal" and noise == 0.0)
    identity, l2_slack, energy_slack = _stability_loop(traj, r_mid, data.forcing, op, grid)
    norms = np.linalg.norm(traj.states, axis=1)
    l2_scale = max(1.0, float(np.max(np.abs(l2_slack) + norms[1:])))
    energy_scale = max(1.0, float(np.max(np.abs(energy_slack) + norms[1:] ** 2)))
    assert np.max(np.abs(report.l2_slack - l2_slack)) <= 1e-12 * l2_scale
    assert np.max(np.abs(report.energy_slack - energy_slack)) <= 1e-12 * energy_scale
    identity_scale = max(1.0, float(np.max(norms**2) / tau + np.max(np.abs(identity))))
    assert np.max(np.abs(report.identity_residuals - identity)) <= 1e-12 * identity_scale
    reference = StabilityReport(identity_residuals=identity, l2_slack=l2_slack,
                                energy_slack=energy_slack)
    assert report.holds() == reference.holds()


class TestSpectralDuhamelOracle:
    def test_pure_decay(self, grid16):
        op = assemble(grid16)
        phi = np.sin(np.pi * grid16.interior_x())
        out = spectral_duhamel_oracle(op, phi, lambda t: 0.0, _zero_forcing(15),
                                      grid16, substeps=4 * grid16.M)
        lam, q = op.eigendecomposition.eigenvalues, op.eigendecomposition.eigenvectors
        expected = q @ ((q.T @ phi) * np.exp(-lam * grid16.T))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_single_mode_unit_decay(self, grid16):
        op = assemble(grid16)
        dec = op.eigendecomposition
        lam1, q1 = dec.eigenvalues[0], dec.eigenvectors[:, 0]
        grid = make_grid(1.0, 1.0 / lam1, 16, 4, 0.5)  # T such that lam1 T = 1
        out = spectral_duhamel_oracle(op, q1, lambda t: 0.0, _zero_forcing(15),
                                      grid, substeps=16)
        np.testing.assert_allclose(out, np.exp(-1.0) * q1, atol=1e-12)

    def test_rejects_too_few_substeps(self, grid16, op16):
        with pytest.raises(ValueError):
            spectral_duhamel_oracle(op16, np.zeros(15), lambda t: 1.0,
                                    _zero_forcing(15), grid16, substeps=grid16.M)

    def test_shares_the_decomposition_of_a_modal_run(self, grid16, monkeypatch):
        built, original = [], fracheat.solvers.eigendecompose
        for module in (fracheat.solvers, fracheat.riesz):
            monkeypatch.setattr(module, "eigendecompose",
                                lambda mat: built.append(mat.shape) or original(mat))
        op = assemble(grid16)
        spec, data = build_manufactured("example1", grid16, op=op)
        run_forward(data, grid16, ops=make_step_operators(grid16, op=op, solver="modal"))
        assert built == [(15, 15)]  # the modal run's own, so the counter sees it
        spectral_duhamel_oracle(op, data.phi, spec.r_exact, data.forcing, grid16,
                                substeps=4 * grid16.M)
        assert built == [(15, 15)]

    def test_cn_gap_shrinks_fourfold_per_halving(self):
        grid_ref = make_grid(1, 1, 16, 40, 0.5)
        op = assemble(grid_ref)
        spec, data = build_manufactured("example1", grid_ref, source="discrete", op=op)
        oracle = spectral_duhamel_oracle(op, data.phi, spec.r_exact, data.forcing,
                                         grid_ref, substeps=4 * 40 * 4)
        gaps = []
        for m in (10, 20, 40):
            grid = make_grid(1, 1, 16, m, 0.5)
            _, d = build_manufactured("example1", grid, source="discrete", op=op)
            traj = run_forward(d, grid, ops=make_step_operators(grid, op=op))
            gaps.append(np.max(np.abs(traj.final - oracle)))
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.15)
        assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.15)
