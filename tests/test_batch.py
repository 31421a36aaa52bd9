"""Properties of the batched recovery: K measurement series at once, in one march or,
on the modal route, in one lower-triangular Volterra solve taken a block of steps at
a time."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracheat.inverse
from fracheat import (
    DenominatorNearZero,
    ProblemData,
    StudyConfig,
    assemble,
    build_manufactured,
    emit_outputs,
    make_grid,
    make_step_operators,
    measurements_from_trajectory,
    noise_study,
    run_forward,
    run_inverse,
    run_inverse_batch,
    stability_bounds,
)
from fracheat.grid import MeasurementSeries
from conftest import orthogonal_from_start, orthogonal_problem, within_cg_floor

orders = st.floats(0.01, 0.99)
sizes = st.integers(2, 300)
widths = st.integers(1, 6)
steps = st.integers(1, 4)
# up to 100 steps cross three blocks of the modal batch's Volterra solve
long_steps = st.integers(1, 100)
log_taus = st.floats(-3.0, 3.0)
seeds = st.integers(0, 2**32 - 1)
schemes = st.sampled_from(("midpoint", "interpolated"))
solvers = st.sampled_from(("cholesky", "cg", "modal"))


def _setup(s, n_cells, m_steps, log_tau, scheme, solver):
    tau = 10.0**log_tau
    grid = make_grid(1, tau * m_steps, n_cells, m_steps, s)
    op = assemble(grid, scheme)
    spec, data = build_manufactured("example1", grid, op=op)
    ops = make_step_operators(grid, op=op, solver=solver)
    return grid, spec, data, ops


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=orders, n_cells=sizes, k=widths, m_steps=steps, log_tau=log_taus, seed=seeds,
       scheme=schemes, solver=solvers)
@example(s=0.01, n_cells=2, k=6, m_steps=4, log_tau=-3.0, seed=0, scheme="midpoint",
         solver="cholesky")
@example(s=0.8, n_cells=300, k=6, m_steps=4, log_tau=3.0, seed=0, scheme="interpolated",
         solver="cg")
def test_batch_columns_match_single_runs(s, n_cells, k, m_steps, log_tau, seed, scheme,
                                         solver):
    grid, _, data, ops = _setup(s, n_cells, m_steps, log_tau, scheme, solver)
    w = data.measurements.values
    rng = np.random.default_rng(seed)
    # distinct series: the analytic one scaled and shifted per column
    series = w[:, None] * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, (grid.M + 1, k)))
    with warnings.catch_warnings(), within_cg_floor():
        warnings.simplefilter("ignore", UserWarning)
        r_batch, final_batch = run_inverse_batch(data, grid, series, ops)
        assert r_batch.shape == (grid.M, k)
        assert final_batch.shape == (grid.interior_dim, k)
        for j in range(k):
            traj, rec = run_inverse(data, grid, MeasurementSeries(series[:, j]), ops)
            r_scale = max(1.0, float(np.max(np.abs(rec.values))))
            u_scale = max(1.0, float(np.max(np.abs(traj.final))))
            assert np.max(np.abs(r_batch[:, j] - rec.values)) <= 1e-12 * r_scale
            assert np.max(np.abs(final_batch[:, j] - traj.final)) <= 1e-12 * u_scale


def _relative_gap(got, ref):
    return float(np.max(np.abs(got - ref))) / float(np.max(np.abs(ref)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=orders, n_cells=sizes, k=widths, m_steps=long_steps, log_tau=log_taus, seed=seeds,
       scheme=schemes)
@example(s=0.99, n_cells=300, k=6, m_steps=64, log_tau=3.0, seed=0, scheme="midpoint")
@example(s=0.99, n_cells=300, k=6, m_steps=64, log_tau=3.0, seed=0, scheme="interpolated")
@example(s=0.01, n_cells=2, k=1, m_steps=64, log_tau=-3.0, seed=0, scheme="midpoint")
@example(s=0.5, n_cells=40, k=3, m_steps=fracheat.inverse._VOLTERRA_BLOCK - 1, log_tau=-1.0,
         seed=0, scheme="midpoint")
@example(s=0.5, n_cells=40, k=3, m_steps=fracheat.inverse._VOLTERRA_BLOCK, log_tau=-1.0,
         seed=0, scheme="midpoint")
@example(s=0.5, n_cells=40, k=3, m_steps=fracheat.inverse._VOLTERRA_BLOCK + 1, log_tau=-1.0,
         seed=0, scheme="midpoint")
@example(s=0.99, n_cells=2, k=2, m_steps=2049, log_tau=3.0, seed=0, scheme="interpolated")
@example(s=0.99, n_cells=17, k=2, m_steps=256, log_tau=3.0, seed=0, scheme="interpolated")
def test_modal_batch_solve_matches_the_march(s, n_cells, k, m_steps, log_tau, seed, scheme):
    # The modal batch solves the lower-triangular system (D - tau K) r = dw/tau + a in
    # blocks of steps, where one series and the other routes march.  Long
    # runs reach the kernel's long lags and the state carried across blocks, which
    # test_batch_columns_match_single_runs never does.  Where tau lambda >> 1, g ~ -1
    # and the kernel sums terms of alternating sign: against a long-double march the
    # blocked solve measured 3.3e-13 at N = 2, M = 2049 and 9.3e-14 at N = 17,
    # M = 256 (s = 0.99, tau = 1e3, interpolated), the march 1.4e-14 and 9.6e-15.
    grid, _, data, modal = _setup(s, n_cells, m_steps, log_tau, scheme, "modal")
    direct = make_step_operators(grid, op=modal.op, solver="cholesky")
    w = data.measurements.values
    rng = np.random.default_rng(seed)
    series = w[:, None] * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, (grid.M + 1, k)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        r_batch, final_batch = run_inverse_batch(data, grid, series, modal)
        r_direct, final_direct = run_inverse_batch(data, grid, series, direct)
        marched = [run_inverse(data, grid, MeasurementSeries(series[:, j]), modal)
                   for j in range(k)]
    r_march = np.column_stack([rec.values for _, rec in marched])
    final_march = np.column_stack([traj.final for traj, _ in marched])
    assert _relative_gap(r_batch, r_march) <= 1e-12
    assert _relative_gap(final_batch, final_march) <= 1e-12
    # Each Cholesky step errs by up to cond(L) eps, and where tau lambda >> 1, so
    # |g| ~ 1, nothing damps it: against a long-double march, Cholesky measured
    # 1.3e-11 (midpoint) and 1.6e-11 (interpolated) at s = 0.99, N = 300, tau = 1e3,
    # M = 64, and the modal route 3.9e-14 and 1.2e-13.  Over 300 random grids in
    # these ranges, M up to 100, the gap below reached 0.36 of its bound and the gap
    # to the march 0.037 of 1e-12.
    lam = modal.op.eigendecomposition.eigenvalues
    cond = (1.0 + grid.tau * lam.max() / 2.0) / (1.0 + grid.tau * lam.min() / 2.0)
    bound = 1e-12 + grid.M * cond * np.finfo(float).eps
    assert _relative_gap(r_batch, r_direct) <= bound
    assert _relative_gap(final_batch, final_direct) <= bound


@settings(max_examples=30, deadline=None, derandomize=True)
@given(s=orders, n_cells=sizes, k=widths, m_steps=steps, log_tau=log_taus, seed=seeds,
       scheme=schemes, solver=solvers)
@example(s=0.99, n_cells=300, k=6, m_steps=4, log_tau=3.0, seed=0, scheme="midpoint",
         solver="cholesky")
@example(s=0.01, n_cells=2, k=1, m_steps=1, log_tau=-3.0, seed=0, scheme="interpolated",
         solver="cg")
def test_batch_roundtrips_discrete_data(s, n_cells, k, m_steps, log_tau, seed, scheme, solver):
    # criterion 6 for K series at once: data generated by the same discrete
    # stepper from K different coefficients come back to 1e-9
    grid, _, data, ops = _setup(s, n_cells, m_steps, log_tau, scheme, solver)
    rng = np.random.default_rng(seed)
    r_true = rng.uniform(0.5, 2.0, (grid.M, k))
    with within_cg_floor():
        series = np.column_stack([
            measurements_from_trajectory(
                run_forward(data, grid, r=r_true[:, j], ops=ops), data.weight, grid
            ).values
            for j in range(k)
        ])
        r_rec, _ = run_inverse_batch(data, grid, series, ops)
    assert np.max(np.abs(r_rec - r_true)) <= 1e-9


def test_roundtrip_keeps_its_digits_on_a_stiff_grid():
    # At s = 0.99, N = 300, tau = 1e3, tau lambda_1 / 2 ~ 5e3: the denominator
    # written as h<F, w> - tau/2 h<AS, w> loses three digits to cancellation
    # (r then comes back to ~1e-9); evaluated as h<S, w> it keeps them.
    grid, _, data, ops = _setup(0.99, 300, 4, 3.0, "midpoint", "cholesky")
    r_true = np.random.default_rng(0).uniform(0.5, 2.0, (grid.M, 6))
    series = np.column_stack([
        measurements_from_trajectory(
            run_forward(data, grid, r=r_true[:, j], ops=ops), data.weight, grid
        ).values
        for j in range(6)
    ])
    r_rec, _ = run_inverse_batch(data, grid, series, ops)
    assert np.max(np.abs(r_rec - r_true)) <= 1e-11


@pytest.mark.parametrize(
    "s, n_cells, t_final, bound",
    [(0.5, 1500, 0.1, 5e-13), (0.9, 1000, 0.1, 3e-12), (0.9, 1000, 1.0, 1e-10)],
)
def test_cg_recovery_keeps_its_digits(s, n_cells, t_final, bound):
    # Example 2, M = 10, data from a Cholesky forward run.  At T = 0.1, z = A y
    # with y = L^-1 w measures 9.4e-14 and 5.5e-13, two solves per step
    # 1.6e-13 and 1.8e-12; z from a solve L z = A w loses a digit: 2.2e-12 and
    # 8.3e-12.  At T = 1 the step L^-1 (R U + tau r F) measures 3.8e-11, while
    # its twin L^-1 (2U + tau r F) - U stalls CG's relative-residual stop.
    grid = make_grid(1, t_final, n_cells, 10, s)
    op = assemble(grid)
    spec, data = build_manufactured("example2", grid, op=op)
    r_true = spec.r_at_midpoints(grid)
    direct = make_step_operators(grid, op=op, solver="cholesky")
    w = measurements_from_trajectory(run_forward(data, grid, r=r_true, ops=direct),
                                     data.weight, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _, rec = run_inverse(data, grid, w, make_step_operators(grid, op=op, solver="cg"))
    assert np.max(np.abs(rec.values - r_true)) <= bound


@pytest.mark.parametrize("solver", ["cholesky", "cg", "modal"])
@pytest.mark.parametrize("from_step", [0, 3])
def test_orthogonal_forcing_fails_batch_at_its_step(solver, from_step, monkeypatch):
    grid = make_grid(1, 1, 16, 6, 0.5)
    problem = orthogonal_problem(grid, from_step)
    w0 = grid.h * float(problem.phi @ problem.weight)
    series = np.full((grid.M + 1, 4), w0)
    ops = make_step_operators(grid, solver=solver)
    # every denominator is checked before the march, or before the modal batch solves
    # its first block: no state is ever advanced and no block's kernel built
    steps, blocks = [], []
    monkeypatch.setattr(type(ops), "advance", lambda self, *args: steps.append(args))
    monkeypatch.setattr(fracheat.inverse, "_volterra_block",
                        lambda *args: blocks.append(args))
    with pytest.raises(DenominatorNearZero) as info:
        run_inverse_batch(problem, grid, series, ops)
    assert info.value.step == from_step
    assert not steps and not blocks


@pytest.mark.parametrize("m_steps", [6, 18, 19, 65])
def test_modal_batch_solves_in_blocks_and_never_marches(m_steps, monkeypatch):
    # the control of the test above: a modal batch of K = 3 series on n = 15 takes
    # the blocked Volterra solve, one block per B steps, and never advances a state,
    # however long it is; a single series, whose every state is output, marches
    grid = make_grid(1, 1, 16, m_steps, 0.5)
    _, data = build_manufactured("example1", grid)
    ops = make_step_operators(grid, solver="modal")
    blocks, steps = [], []
    solve_block, advance = fracheat.inverse._volterra_block, type(ops).advance
    monkeypatch.setattr(fracheat.inverse, "_volterra_block",
                        lambda *args: blocks.append(args) or solve_block(*args))
    monkeypatch.setattr(type(ops), "advance",
                        lambda self, *args: steps.append(args) or advance(self, *args))
    run_inverse(data, grid, ops=ops)
    assert not blocks and len(steps) == m_steps
    steps.clear()
    run_inverse_batch(data, grid, np.column_stack([data.measurements.values] * 3), ops)
    assert len(blocks) == -(-m_steps // fracheat.inverse._VOLTERRA_BLOCK)
    assert not steps


@pytest.mark.parametrize("solver", ["cholesky", "cg"])
def test_nodal_batch_marches(solver, monkeypatch):
    # off the modal route L^-1 R is not diagonal (``decay`` is None), so a batch
    # marches, one block step per time step, and builds no Volterra block
    grid = make_grid(1, 1, 16, 6, 0.5)
    _, data = build_manufactured("example1", grid)
    ops = make_step_operators(grid, solver=solver)
    blocks, steps = [], []
    advance = type(ops).advance
    monkeypatch.setattr(fracheat.inverse, "_volterra_block", lambda *args: blocks.append(args))
    monkeypatch.setattr(type(ops), "advance",
                        lambda self, *args: steps.append(args) or advance(self, *args))
    run_inverse_batch(data, grid, np.column_stack([data.measurements.values] * 3), ops)
    assert not blocks and len(steps) == grid.M


def test_modal_batch_memory_is_linear_in_the_steps():
    # N = 16, M = 3000, K = 2: a whole-run M x M kernel would take 72 MB, 200 times
    # the M x n forcing table, which the recovery must hold anyway
    grid = make_grid(1, 1, 16, 3000, 0.5)
    _, data = build_manufactured("example1", grid)
    ops = make_step_operators(grid, solver="modal")
    series = np.column_stack([data.measurements.values] * 2)
    run_inverse_batch(data, grid, series, ops)  # the eigendecomposition is cached
    tracemalloc.start()
    try:
        run_inverse_batch(data, grid, series, ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * grid.M * grid.interior_dim * 8


def test_batch_rejects_a_single_series():
    grid = make_grid(1, 1, 16, 4, 0.5)
    _, data = build_manufactured("example1", grid)
    with pytest.raises(ValueError, match=r"\(M\+1, K\)"):
        run_inverse_batch(data, grid, data.measurements.values)
    with pytest.raises(ValueError, match="expected 5 measurements"):
        run_inverse_batch(data, grid, np.ones((4, 2)))


@pytest.mark.parametrize("solver", ["cholesky", "cg", "modal"])
def test_non_finite_forcing_raises(solver):
    grid = make_grid(1, 1, 16, 4, 0.5)
    _, data = build_manufactured("example1", grid)
    x = grid.interior_x()
    broken = ProblemData(phi=data.phi, forcing=lambda t: np.full(x.size, np.nan),
                         weight=data.weight)
    series = np.column_stack([data.measurements.values] * 3)
    # the stacked forcings are checked before the first solve, on every route
    with pytest.raises(ValueError, match="non-finite"):
        run_inverse_batch(broken, grid, series, make_step_operators(grid, solver=solver))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=orders, n_cells=sizes, m_steps=steps, log_tau=log_taus, seed=seeds)
@example(s=0.99, n_cells=300, m_steps=4, log_tau=3.0, seed=0)
@example(s=0.99, n_cells=300, m_steps=4, log_tau=0.0, seed=0)
@example(s=0.01, n_cells=2, m_steps=1, log_tau=-3.0, seed=0)
def test_modal_forward_matches_cholesky(s, n_cells, m_steps, log_tau, seed):
    # Midpoint scheme.  On the interpolated one, cond(A) reaches 3e4 at
    # s = 0.99, N = 300, and there the Cholesky route is itself 2e-12 off the
    # discrete solution (test_modal_forward_keeps_its_digits_on_a_stiff_grid).
    grid, _, data, direct = _setup(s, n_cells, m_steps, log_tau, "midpoint", "cholesky")
    modal = make_step_operators(grid, op=direct.op, solver="modal")
    r = np.random.default_rng(seed).uniform(0.5, 2.0, grid.M)
    ref = run_forward(data, grid, r=r, ops=direct).states
    got = run_forward(data, grid, r=r, ops=modal).states
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(s=orders, n_cells=sizes, m_steps=steps, log_tau=log_taus, seed=seeds, scheme=schemes,
       solver=solvers)
@example(s=0.99, n_cells=300, m_steps=4, log_tau=3.0, seed=0, scheme="interpolated",
         solver="cg")
@example(s=0.99, n_cells=300, m_steps=4, log_tau=0.0, seed=0, scheme="interpolated",
         solver="cholesky")
@example(s=0.01, n_cells=2, m_steps=1, log_tau=-3.0, seed=0, scheme="midpoint",
         solver="modal")
def test_homogeneous_runs_keep_the_energy_identity(s, n_cells, m_steps, log_tau, seed, scheme,
                                                   solver):
    # ||U^{n+1}||^2 + 2 tau ||U^{n+1/2}||_A^2 = ||U^n||^2 when r = 0, on every route.
    # A solve error e moves the residual by 2 <U^n, e>.  CG stops at a relative
    # residual of 1e-12, which leaves ||e|| near 1e-12 ||U^n|| plus the rounding
    # of b - Lx.  Over random grids in these ranges the ratio below reached
    # 1.1e-11 on CG (2,500 grids) and 6e-14 on Cholesky (500 grids).
    grid, _, _, ops = _setup(s, n_cells, m_steps, log_tau, scheme, solver)
    n = grid.interior_dim
    zero = np.zeros(n)
    data = ProblemData(phi=np.random.default_rng(seed).standard_normal(n),
                       forcing=lambda t: zero, weight=np.ones(n))
    with within_cg_floor():
        traj = run_forward(data, grid, r=np.zeros(grid.M), ops=ops)
    report = stability_bounds(traj, np.zeros(grid.M), data.forcing, ops.op, grid)
    residuals = ops.tau * report.identity_residuals
    states = traj.states
    scale = np.einsum("kn,kn->k", states[:-1], states[:-1]) / ops.tau
    bound = 1e-10 if solver == "cg" else 1e-12
    assert np.all(np.abs(residuals) / ops.tau <= bound * scale)


def _refined_forward(data, grid, op, r):
    """U^M of the Crank-Nicolson march solved to long-double accuracy."""
    a = op.dense()
    n, half = op.size, grid.tau / 2.0
    l_wide = np.eye(n, dtype=np.longdouble) + np.longdouble(half) * a.astype(np.longdouble)
    r_wide = 2.0 * np.eye(n, dtype=np.longdouble) - l_wide
    factor = np.linalg.inv(np.eye(n) + half * a)
    u = data.phi.astype(np.longdouble)
    for n_step, t in enumerate(grid.midpoint_times()):
        b = r_wide @ u + np.longdouble(grid.tau * r[n_step]) * data.forcing(float(t))
        u = (factor @ b.astype(float)).astype(np.longdouble)
        for _ in range(6):  # iterative refinement with long-double residuals
            u += factor @ (b - l_wide @ u).astype(float)
    return u.astype(float)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended precision")
@pytest.mark.parametrize("scheme", ["midpoint", "interpolated"])
def test_modal_forward_keeps_its_digits_on_a_stiff_grid(scheme):
    # s = 0.99, N = 300, tau = 1: cond(A) is 7e3 (midpoint) and 3e4
    # (interpolated).  eigh's own lowest eigenvalues are off by 2e-12 relative
    # here; the Rayleigh quotients eigendecompose returns are not.  Cholesky
    # measures 2.1e-12 on the interpolated grid, the modal route 3.4e-13.
    grid, spec, data, modal = _setup(0.99, 300, 4, 0.0, scheme, "modal")
    r = spec.r_at_midpoints(grid)
    ref = _refined_forward(data, grid, modal.op, r)
    got = run_forward(data, grid, r=r, ops=modal).final
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


def test_noise_study_denominator_failure_fails_every_case(tmp_path, monkeypatch):
    import fracheat.studies

    monkeypatch.setattr(fracheat.studies, "build_manufactured",
                        orthogonal_from_start(fracheat.studies.build_manufactured))
    cfg = StudyConfig(example="example1", s=0.5, n_values=(16,), m_values=(16,),
                      deltas=(0.01, 0.03, 0.05), seeds=tuple(range(10)), smooth_window=5)
    study = noise_study(cfg)
    assert len(study.cases) == 30
    assert not any(c.completed for c in study.cases)
    assert all("at step 0" in c.failure for c in study.cases)
    paths = emit_outputs(study, tmp_path)
    assert len(paths) == 2 * 30 + 1
    summary = (tmp_path / "noise_summary.csv").read_text().splitlines()
    assert all(line.split(",")[2] == "0" for line in summary[1:])
