"""The separated forcing F(t) = sum_p phi_p(t) v_p that build_manufactured returns: the
marches and stability_bounds sum one coefficient table against its P shapes in route
coordinates, and agree with the same forcing behind a plain callable."""

import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import fracheat.forward
import fracheat.inverse
import fracheat.solvers
from fracheat import (
    DenominatorNearZero,
    SeparatedForcing,
    Trajectory,
    assemble,
    build_manufactured,
    make_grid,
    make_step_operators,
    run_forward,
    run_inverse,
    run_inverse_batch,
    stability_bounds,
)
from fracheat.forward import SOLVERS, StepOperators, _forcing_rows
from fracheat.manufactured import EXAMPLE_IDS
from conftest import within_cg_floor


def _relative_gap(got, ref, scale=None):
    scale = float(np.max(np.abs(ref))) if scale is None else scale
    return float(np.max(np.abs(got - ref))) / max(scale, np.finfo(float).tiny)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=st.floats(0.01, 0.99), n_cells=st.integers(2, 130), m_steps=st.integers(1, 70),
       log_tau=st.floats(-3.0, 3.0), scheme=st.sampled_from(("midpoint", "interpolated")),
       ident=st.sampled_from(EXAMPLE_IDS), solver=st.sampled_from(SOLVERS),
       block_steps=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
@example(s=0.99, n_cells=130, m_steps=70, log_tau=3.0, scheme="interpolated",
         ident="example1", solver="modal", block_steps=3, seed=0)
@example(s=0.99, n_cells=130, m_steps=33, log_tau=0.0, scheme="midpoint", ident="example2",
         solver="cholesky", block_steps=1, seed=0)
@example(s=0.01, n_cells=2, m_steps=1, log_tau=-3.0, scheme="midpoint", ident="example2",
         solver="cg", block_steps=1, seed=0)
def test_separated_forcing_matches_the_plain_callable(s, n_cells, m_steps, log_tau, scheme,
                                                      ident, solver, block_steps, seed):
    # The plain callable is each row computed alone, transformed after; the separated
    # form transforms its P shapes, so on the modal route F^ rounds differently.  Blocks
    # of ``block_steps`` steps split the table's rows and stability_bounds' folds.
    tau = 10.0**log_tau
    grid = make_grid(1, tau * m_steps, n_cells, m_steps, s)
    op = assemble(grid, scheme)
    _, data = build_manufactured(ident, grid, op=op)
    plain = replace(data, forcing=lambda t: data.forcing(t))
    ops = make_step_operators(grid, op=op, solver=solver)
    n = grid.interior_dim
    times = grid.midpoint_times()
    rng = np.random.default_rng(seed)
    series = data.measurements.values[:, None] * (1.0 + 0.05 * rng.uniform(-1, 1, (m_steps + 1, 3)))
    with mock.patch.object(fracheat.solvers, "BLOCK_VALUES", block_steps * n):
        rows = _forcing_rows(data.forcing, times, lambda rows: rows, np.empty((m_steps, n)))
        assert np.array_equal(rows, np.array([data.forcing(float(t)) for t in times]))
        with within_cg_floor(), warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # example 2's w(0) is not h<phi, omega>
            kept = run_forward(data, grid, ops=ops)
            got = kept.states
            ref = run_forward(plain, grid, ops=ops).states
            try:
                r_got, final_got = run_inverse_batch(data, grid, series, ops)
                r_ref, final_ref = run_inverse_batch(plain, grid, series, ops)
            except DenominatorNearZero:
                reject()
        # the plain callable's rows on the nodal states, against the P x P forms on
        # the same states and on the trajectory as run_forward returns it, which keeps
        # its route on the modal route
        traj = Trajectory(states=got)
        reports = [stability_bounds(t, data.coefficient, data.forcing, op, grid)
                   for t in (traj, kept)]
        reference = stability_bounds(traj, data.coefficient, plain.forcing, op, grid)
    assert (kept.route is not None) == (solver == "modal")
    if solver == "modal":
        assert _relative_gap(got, ref) <= 1e-12
    else:
        assert np.array_equal(got, ref)
    # each slack relative to its bound: ||U^n|| + slack, ||U^n||^2 + dissipation + slack
    norms = np.linalg.norm(got, axis=1)
    mid = 0.5 * (got[:-1] + got[1:])
    dissipated = np.cumsum(grid.tau * np.einsum("kn,kn->k", mid @ op.dense(), mid))
    l2_scale = float(np.max(np.abs(reference.l2_slack) + norms[1:]))
    energy_scale = float(np.max(np.abs(reference.energy_slack) + norms[1:] ** 2 + dissipated))
    for report in reports:
        assert _relative_gap(report.l2_slack, reference.l2_slack, l2_scale) <= 1e-12
        assert _relative_gap(report.energy_slack, reference.energy_slack, energy_scale) <= 1e-12
    # Each side rounds the sum of P terms its own way, and the recovery divides by the
    # sum's pairing h <F, y>, y = L^-1 omega.  Where the terms cancel in it, as near
    # example 2's vanishing weighted integral, r inherits their relative rounding
    # times the cancellation ratio; both sides stay equally near the exact sum there.
    y = np.linalg.solve(np.eye(n) + grid.tau / 2.0 * op.dense(), data.weight)
    terms = np.abs(data.forcing.coefficients(times) * (data.forcing.shapes @ y))
    cancellation = float(np.max(terms.sum(axis=1) / np.abs(rows @ y)))
    assert _relative_gap(r_got, r_ref) <= 1e-12 * max(1.0, cancellation)
    assert _relative_gap(final_got, final_ref) <= 1e-12 * max(1.0, cancellation)


def _refuse(*args, **kwargs):
    raise AssertionError("called after all")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("solver", SOLVERS)
def test_non_finite_separated_coefficients_raise_before_any_step(solver, bad, monkeypatch):
    # step k = 37 lies in the second block of the Volterra solve and of the folds
    grid = make_grid(1, 1, 16, 40, 0.5)
    op = assemble(grid)
    _, data = build_manufactured("example1", grid, op=op)
    k = 37
    t_bad = grid.midpoint_times()[k]

    def coefficients(times):
        table = data.forcing.coefficients(times)
        table[times == t_bad, 1] = bad
        return table

    broken = replace(data, forcing=SeparatedForcing(data.forcing.shapes, coefficients))
    ops = make_step_operators(grid, op=op, solver=solver)
    series = np.column_stack([data.measurements.values] * 3)
    for owner in (StepOperators, fracheat.forward._ModalStepOperators):
        monkeypatch.setattr(owner, "advance", _refuse)
    monkeypatch.setattr(fracheat.inverse, "_volterra_block", _refuse)
    monkeypatch.setattr(fracheat.solvers, "BLOCK_VALUES", 8 * grid.interior_dim)
    zero = Trajectory(states=np.zeros((grid.M + 1, grid.interior_dim)))
    runs = (lambda: run_forward(broken, grid, ops=ops),
            lambda: run_inverse(broken, grid, ops=ops),
            lambda: run_inverse_batch(broken, grid, series, ops),
            lambda: stability_bounds(zero, data.coefficient, broken.forcing, op, grid))
    for run in runs:
        with pytest.raises(ValueError, match=f"forcing has non-finite entries at step {k}$"):
            run()


@pytest.mark.parametrize("solver", SOLVERS)
def test_manufactured_runs_never_call_the_forcing(solver, monkeypatch):
    grid = make_grid(1, 1, 16, 40, 0.5)
    op = assemble(grid)
    spec, data = build_manufactured("example1", grid, op=op)
    ops = make_step_operators(grid, op=op, solver=solver)
    series = np.column_stack([data.measurements.values] * 3)
    monkeypatch.setattr(SeparatedForcing, "__call__", _refuse)
    traj = run_forward(data, grid, ops=ops)
    assert stability_bounds(traj, spec.r_exact, data.forcing, op, grid).holds()
    run_inverse_batch(data, grid, series, ops)
