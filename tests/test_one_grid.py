"""A run takes its grid from its ``StepOperators``: forward runs, the recovery and the
stability diagnostics refuse operators, or a kept route, built on another grid, and
``make_step_operators`` refuses an operator of another size, before
``run_inverse_case`` takes any image with it.  A grid rebuilt equal by value is the same
grid."""

import numpy as np
import pytest

import fracheat.studies
from fracheat import (
    assemble,
    build_manufactured,
    make_grid,
    make_step_operators,
    run_forward,
    run_inverse,
    run_inverse_batch,
    run_inverse_case,
    stability_bounds,
)
from fracheat.forward import SOLVERS
from fracheat.manufactured import SOURCES


def _grids(n, m):
    """A run's grid at T = 1 and one with the same N, M and s at T = 2."""
    return make_grid(1, 1, n, m, 0.5), make_grid(1, 2, n, m, 0.5)


@pytest.mark.parametrize("solver", SOLVERS)
def test_forward_and_inverse_refuse_operators_of_another_tau(solver):
    # at the parent these ran: U^M off by 0.42 and r by 0.24 against 3.3e-3 and 4.7e-3
    grid, other = _grids(16, 8)
    _, data = build_manufactured("example1", grid)
    ops = make_step_operators(other, solver=solver)
    with pytest.raises(ValueError, match=r"built on Grid\(l=1.0, T=2.0.*run's Grid\(l=1.0, T=1.0"):
        run_forward(data, grid, ops=ops)
    with pytest.raises(ValueError, match="not on the run's"):
        run_inverse(data, grid, ops=ops)


@pytest.mark.parametrize("solver", SOLVERS)
def test_batch_refuses_operators_of_another_tau(solver):
    grid, other = _grids(16, 16)
    _, data = build_manufactured("example1", grid)
    series = np.repeat(data.measurements.values[:, None], 3, axis=1)
    with pytest.raises(ValueError, match="not on the run's"):
        run_inverse_batch(data, grid, series, make_step_operators(other, solver=solver))


def test_stability_bounds_refuse_a_route_marched_on_another_tau():
    # at the parent the report on T = 2 read identity residuals of 326 and held
    grid, other = _grids(16, 16)
    op = assemble(grid)
    _, data = build_manufactured("example1", grid, op=op)
    kept = run_forward(data, grid, ops=make_step_operators(grid, op=op, solver="modal"))
    assert kept.route is not None
    report = stability_bounds(kept, data.coefficient, data.forcing, op, grid)
    assert np.max(np.abs(report.identity_residuals)) < 1e-10
    for on in (op, assemble(other)):  # refused whichever operator the call names
        with pytest.raises(ValueError, match=r"T=1.0.*not on the run's Grid\(l=1.0, T=2.0"):
            stability_bounds(kept, data.coefficient, data.forcing, on, other)


@pytest.mark.parametrize("solver", SOLVERS)
def test_make_step_operators_refuses_an_operator_of_another_size(solver):
    grid = make_grid(1, 1, 32, 8, 0.5)
    with pytest.raises(ValueError, match="operator of size 15, not the grid's 31"):
        make_step_operators(grid, op=assemble(make_grid(1, 1, 16, 8, 0.5)), solver=solver)


@pytest.mark.parametrize("source", SOURCES)
def test_run_inverse_case_refuses_an_operator_of_another_size(source, monkeypatch):
    # at the parent the discrete source failed inside op.apply, on the vector's shape,
    # and the quadrature source ran the oracle before the refusal
    grid = make_grid(1, 1, 32, 8, 0.5)
    op = assemble(make_grid(1, 1, 16, 8, 0.5))
    with pytest.raises(ValueError, match="operator of size 15, not the grid's 31"):
        run_inverse_case("example1", grid, source=source, op=op)
    monkeypatch.setattr(fracheat.studies, "build_manufactured", _refuse_build)
    with pytest.raises(ValueError, match="operator of size 15"):
        run_inverse_case("example1", grid, source=source, op=op)


def _refuse_build(*args, **kwargs):
    raise AssertionError("the benchmark was built before the operator was checked")


@pytest.mark.parametrize("solver", SOLVERS)
def test_a_grid_rebuilt_by_value_is_the_same_grid(solver):
    grid = make_grid(1, 1, 16, 16, 0.5)
    rebuilt = make_grid(1.0, 1.0, 16, 16, 0.5)
    assert rebuilt is not grid and rebuilt == grid
    op = assemble(grid)
    _, data = build_manufactured("example1", grid, op=op)
    series = np.repeat(data.measurements.values[:, None], 3, axis=1)
    own = make_step_operators(grid, op=op, solver=solver)
    ops = make_step_operators(rebuilt, op=op, solver=solver)
    forward = run_forward(data, grid, ops=ops)
    assert np.array_equal(forward.states, run_forward(data, grid, ops=own).states)
    trajectory, recovered = run_inverse(data, grid, ops=ops)
    ref_trajectory, ref_recovered = run_inverse(data, grid, ops=own)
    assert np.array_equal(trajectory.states, ref_trajectory.states)
    assert np.array_equal(recovered.values, ref_recovered.values)
    batch = run_inverse_batch(data, grid, series, ops)
    for got, ref in zip(batch, run_inverse_batch(data, grid, series, own)):
        assert np.array_equal(got, ref)
    report = stability_bounds(forward, data.coefficient, data.forcing, op, rebuilt)
    ref = stability_bounds(run_forward(data, grid, ops=own), data.coefficient, data.forcing,
                           op, grid)
    assert np.array_equal(report.identity_residuals, ref.identity_residuals)
    assert np.array_equal(report.energy_slack, ref.energy_slack)
