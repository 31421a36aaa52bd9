"""Crank-Nicolson time stepping for the direct problem, with diagnostics.

Each step solves L U^{n+1} = R U^n + tau r F at the midpoint forcing, with
L = I + tau/2 A and R = I - tau/2 A.  One march serves every solver route:
only ``StepOperators``, one subclass per route, knows the route, and it
lends the marches its operations in the route's own coordinates.  The
change of basis is the eigenbasis Q of A on the modal route and the
identity otherwise; the L-solve is a Cholesky factor, CG, or b/d with
d = 1 + tau lambda/2; A is the operator's matvec, or lambda v.  The step
itself, ``advance``, is written once per route: L^-1 (U - tau/2 A U + tau r F),
or g U + tau r F/d with g = (1 - tau lambda/2)/d on the modal route, where
L^-1 R is diagonal.  So a modal step costs O(n) after one
eigendecomposition.  No caller tests the route's name: ``decay`` is g where
L^-1 R is diagonal and None elsewhere, which is what the recovery's blocked
solve asks, and ``trajectory`` ends every march, forward and inverse: it
takes the march's own buffer back to nodal states in place, U = Q c on the
modal route, and adopts that one array, which keeps the modal route itself.
Every march takes its stacked forcings from one helper, ``_forcing_rows``: a
separated forcing sum_p phi_p(t) v_p is one coefficient table against its P
shapes, taken to the route's coordinates once, so the modal route transforms
P rows, not M.  The scheme satisfies an exact energy identity in the
homogeneous case and two unconditional stability bounds with forcing; those
are evaluated here as runtime diagnostics rather than assumed.  The
diagnostics take their coordinates and their norms in A and A^-1 from a
route view, a ``StepOperators`` with ``times_a`` and ``solve_a``: the route a
modal trajectory kept, lambda v and v/lambda in its eigenbasis, to which they
take the states a block at a time, or for any other trajectory the nodal
view, the matvec and one Cholesky factor of the dense A per call, whatever
the operator has cached.  A run marches the tau
of its ``StepOperators`` alone: forward runs, the recovery and the
diagnostics refuse operators, or a kept route, built on a grid other than the
one they are given.  A spectral reference solution (eigenbasis + Duhamel
integral in time) provides an independent high-order oracle for temporal
convergence measurements; it reads the operator's cached eigendecomposition,
the one a modal march uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar, Optional, Sequence, Tuple, Union

import numpy as np

from .grid import CoefficientSeries, ForcingFn, Grid, ProblemData, Trajectory, separated_rows
from .riesz import RieszOperator, assemble
from .solvers import (
    CG_TOL,
    EIGEN_SIZE_LIMIT,
    SpdFactorization,
    SpectralDecomposition,
    cg_solve,
    cholesky,
    row_blocks,
)

__all__ = [
    "SOLVERS",
    "StepOperators",
    "make_step_operators",
    "cn_step",
    "run_forward",
    "StabilityReport",
    "stability_bounds",
    "spectral_duhamel_oracle",
]

SOLVERS = ("cholesky", "cg", "modal")

# Above this system size the dense factor-once path gives way to conjugate
# gradients with the FFT matvec and the Strang-circulant preconditioner.
# One inverse series of example 2, set-up included, in seconds (one BLAS
# thread, default tol, median of 3, ranges over T = 0.1, 1 and s = 0.1, 0.5, 0.9):
#
#   N      M = 10: Cholesky   CG            M = 100: Cholesky   CG
#   800    0.031-0.038        0.008-0.017   0.090-0.102         0.044-0.110
#   1025   0.069-0.086        0.006-0.018   0.161-0.179         0.049-0.143
#   1500   0.135-0.158        0.009-0.023   0.317-0.348         0.094-0.207
#   2048   0.318-0.343        0.012-0.036   0.625-0.684         0.093-0.253
#
# CG is ahead on every grid but N = 800, M = 100, T = 1, s = 0.9.  The limit
# stays all the same: at M = 10, T = 1, s = 0.9 CG fails for N = 1500 and
# 2048, its relative-residual stop stalling above the default tol.  Moving
# these runs off Cholesky waits for a backward-error stop in cg_solve.
_CHOLESKY_SIZE_LIMIT = 2048
# The modal route pays one eigendecomposition, two O((n/2)^3) halves, then
# O(n) per step and series; Cholesky pays O(n^2) per step and series.
# Without a solver the route is modal once M * series >= _MODAL_ALPHA * n, up
# to the size cap of eigendecompose.  Measured crossovers of M * series / n
# (one BLAS thread, example 1, s = 0.5, T = 1, N = 200 / 400 / 800, the
# decomposition or the factor included and the assembly not, medians of 5 at
# M = 2, 3, 4, 6, 8, 12, 16, 24, ..., the first sign change interpolated,
# three runs): one forward series 0.19-0.20 / 0.14-0.15 / 0.09-0.10, one
# inverse series 0.16-0.17 / 0.11-0.12 / 0.09, and 60 inverse series, whose
# modal batch takes the blocked Volterra solve, 0.90-0.96 / 0.43-0.59 /
# 0.66-0.69: at that crossover, M = 3 to 9, the decomposition and the factor
# outweigh the recovery.  alpha = 1 lies above every crossover.  It keeps a
# single series with M < n, such as N = 16, M = 10, on the factor-once route,
# where modal would be faster from M ~ 0.1-0.2 n.
_MODAL_ALPHA = 1.0

RCoefficient = Union[Callable[[float], float], CoefficientSeries, Sequence[float], np.ndarray]


@dataclass(frozen=True)
class StepOperators:
    """Fixed-grid machinery shared by every step: A, L = I + tau/2 A, R = I - tau/2 A.

    tau is the grid's step.  Every operation acts in the route's own
    coordinates: the identity, or the eigenbasis of A on the modal route.
    Each route is a subclass that names itself in ``solver`` and defines
    ``solve(b)``, L^-1 b for b (n,) or (n, K), which it may overwrite.  The
    base class itself, without an L-solve, is the nodal view ``stability_bounds``
    takes its norms from.  ``decay`` is the diagonal of L^-1 R in route
    coordinates where that matrix is diagonal, the modal route's
    g = (1 - tau lambda/2)/(1 + tau lambda/2), and None on the other routes.
    """

    grid: Grid
    op: RieszOperator
    solver: ClassVar[str]
    decay: ClassVar[Optional[np.ndarray]] = None

    @property
    def tau(self) -> float:
        return self.grid.tau

    def to_basis(self, rows: np.ndarray) -> np.ndarray:
        """Take stacked nodal vectors (K, n) to route coordinates, in place."""
        return rows

    def from_basis(self, rows: np.ndarray) -> np.ndarray:
        """Take stacked route coordinates (K, n) back to nodal vectors, in place."""
        return rows

    def times_a(self, v: np.ndarray) -> np.ndarray:
        """A v for one vector (n,), or for every row of stacked rows (K, n)."""
        return self.op.apply(v.T).T

    def solve_a(self, rows: np.ndarray) -> np.ndarray:
        """A^-1 v for one vector (n,), or for every row of stacked rows (K, n)."""
        return self._a_factor.solve(rows.T).T

    @cached_property
    def _a_factor(self) -> SpdFactorization:
        """The Cholesky factor of the dense A, made on first use."""
        return cholesky(self.op.dense())

    def advance(self, u: np.ndarray, f: np.ndarray, rt: np.ndarray) -> np.ndarray:
        """The Crank-Nicolson step L^-1 (R U + f rt^T) of K series, for a block U (n, K),
        one forcing f (n,) and rt (K,), the coefficients times tau; it may overwrite U.
        R U is U - tau/2 A U with one block matvec, then one block solve."""
        return self.solve(u - (self.tau / 2.0) * self.op.apply(u) + np.multiply.outer(f, rt))

    def trajectory(self, phi: np.ndarray, marched: np.ndarray) -> Trajectory:
        """End a march from U^0 = phi whose states ``marched`` (M+1, n), rows 1.. in route
        coordinates, the caller hands over: phi goes into row 0, rows 1.. go back to
        nodal values in place, and that one array is adopted.  A nodal route keeps no
        route."""
        marched[0] = phi
        self.from_basis(marched[1:])
        return Trajectory.adopt(marched)


@dataclass(frozen=True)
class _CholeskyStepOperators(StepOperators):
    """L^-1 by the Cholesky factor of the dense L, reused for every right-hand side."""

    solver = "cholesky"
    factor: SpdFactorization

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.factor.solve(b)


@dataclass(frozen=True)
class _CgStepOperators(StepOperators):
    """L^-1 by conjugate gradients to relative residual ``tol``, with the operator's
    matvec and ``precond``, the inverse of the Strang circulant of L at the 5-smooth
    size m >= n, restricted to the first n entries (SPD); one solve per column."""

    solver = "cg"
    tol: float
    precond: Callable[[np.ndarray], np.ndarray]

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.ndim == 2:  # one right-hand side per column
            return np.apply_along_axis(self.solve, 0, b)
        return cg_solve(lambda v: v + (self.tau / 2.0) * self.op.apply(v), b, tol=self.tol,
                        precond=self.precond)


class _ModalStepOperators(StepOperators):
    """The eigenbasis of A = Q diag(lambda) Q^T, built on first use and cached on the
    operator, where L and R are diagonal: ``_diagonals`` is (the decomposition, lambda,
    d, g) with d = 1 + tau lambda/2, the diagonal of L, and g = (1 - tau lambda/2)/d,
    that of L^-1 R.  Every operation reads the decomposition, which owns the change of
    basis, and lambda from there, so a trajectory that keeps this route stays
    consistent with it even if the operator's decomposition is rebuilt."""

    solver = "modal"

    @cached_property
    def _diagonals(self) -> Tuple[SpectralDecomposition, np.ndarray, np.ndarray, np.ndarray]:
        dec = self.op.eigendecomposition
        half = (self.tau / 2.0) * dec.eigenvalues
        d = 1.0 + half
        return dec, dec.eigenvalues, d, (1.0 - half) / d

    def to_basis(self, rows: np.ndarray) -> np.ndarray:
        return self._diagonals[0].to_basis(rows)

    def from_basis(self, rows: np.ndarray) -> np.ndarray:
        return self._diagonals[0].from_basis(rows)

    def solve(self, b: np.ndarray) -> np.ndarray:
        d = self._diagonals[2]
        return np.divide(b, d if b.ndim == 1 else d[:, None], out=b)

    def times_a(self, v: np.ndarray) -> np.ndarray:
        return self._diagonals[1] * v

    def solve_a(self, rows: np.ndarray) -> np.ndarray:
        return rows / self._diagonals[1]

    @property
    def decay(self) -> np.ndarray:
        return self._diagonals[3]

    def advance(self, u: np.ndarray, f: np.ndarray, rt: np.ndarray) -> np.ndarray:
        # diagonal, so L^-1 (R U + f rt^T) = g U + (f/d) rt^T: two passes over U
        _, _, d, g = self._diagonals
        u *= g[:, None]
        u += np.multiply.outer(f / d, rt)
        return u

    def trajectory(self, phi: np.ndarray, marched: np.ndarray) -> Trajectory:
        """The nodal states U^n = Q c^n, written over the coordinates c^n in ``marched``
        itself, with this route, whose eigenbasis they were marched in; U^0 is ``phi``
        itself, not its round trip through Q."""
        marched[0] = phi
        self.from_basis(marched[1:])
        return Trajectory.adopt(marched, self)


def make_step_operators(
    grid: Grid,
    op: Optional[RieszOperator] = None,
    solver: Optional[str] = None,
    tol: float = CG_TOL,
    series: int = 1,
) -> StepOperators:
    """Assemble (or reuse) A and prepare the L-solver for the grid's step.

    Solver ``cholesky`` factors L once; ``cg`` runs conjugate gradients with
    the operator's FFT matvec, preconditioned by the Strang circulant of L, so
    each iteration costs O(n log n) and the iteration count does not grow with
    n; ``modal`` marches in the eigenbasis of A, which it decomposes on the
    first solve or march, not here.  By default the route is modal when the
    grid's M steps times the ``series`` marched together pay for the
    decomposition, and otherwise switches on system size.

    A given ``op`` must have the grid's ``interior_dim`` as its size, or this
    raises ``ValueError``.  An operator assembled for another s or l at the same
    N passes all the same: ``RieszOperator`` keeps neither.  ``tol`` must be
    finite and positive on every route, since the size alone may pick CG.
    """
    if not 0.0 < tol < np.inf:  # NaN fails this test
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if op is None:
        op = assemble(grid)
    if op.size != grid.interior_dim:
        raise ValueError(f"operator of size {op.size}, not the grid's {grid.interior_dim}")
    if solver is None:
        if op.size <= EIGEN_SIZE_LIMIT and grid.M * series >= _MODAL_ALPHA * op.size:
            solver = "modal"
        else:
            solver = "cholesky" if op.size <= _CHOLESKY_SIZE_LIMIT else "cg"
    half = grid.tau / 2.0
    if solver == "cholesky":
        return _CholeskyStepOperators(grid, op, cholesky(np.eye(op.size) + half * op.dense()))
    if solver == "cg":
        return _CgStepOperators(grid, op, tol, op.circulant_preconditioner(half))
    if solver == "modal":
        if op.size > EIGEN_SIZE_LIMIT:
            raise ValueError(f"the modal route needs n <= {EIGEN_SIZE_LIMIT}, got {op.size}")
        return _ModalStepOperators(grid, op)
    raise ValueError(f"unknown solver {solver!r} (expected one of {SOLVERS})")


def cn_step(ops: StepOperators, u_n: np.ndarray, r_mid: float, f_mid: np.ndarray) -> np.ndarray:
    """One Crank-Nicolson update L U^{n+1} = R U^n + tau r^{n+1/2} F^{n+1/2}: the step
    of ``run_forward`` and of the recovery, ``ops.advance`` in the route's coordinates.
    A non-finite coefficient, state or forcing raises ``ValueError`` on every route."""
    if not np.isfinite(r_mid):
        raise ValueError("midpoint coefficient is not finite")
    u = np.array(u_n, float, ndmin=2)
    if not np.all(np.isfinite(u)):
        raise ValueError("state has non-finite entries")
    # one row at a time, as the marches take U^0 and each forcing to the basis
    u = ops.to_basis(u)
    f = _forcing_rows(lambda t: f_mid, [0.0], ops.to_basis, np.empty(u.shape))[0]
    return ops.from_basis(ops.advance(u.T, f, np.array([ops.tau * r_mid])).T)[0]


def _r_at_midpoints(r: RCoefficient, grid: Grid) -> np.ndarray:
    if callable(r):
        return np.array([r(t) for t in grid.midpoint_times()], dtype=float)
    values = r.values if isinstance(r, CoefficientSeries) else np.asarray(r, dtype=float)
    if values.size != grid.M:
        raise ValueError(f"expected {grid.M} midpoint coefficients, got {values.size}")
    return values


def _check_forcings(rows: np.ndarray, first: int = 0) -> None:
    """Refuse stacked forcings with a non-finite entry, naming the step; row 0 is step
    ``first``."""
    # NaN propagates through min and max, and an infinite entry is one of them
    bad = np.flatnonzero(~(np.isfinite(rows.min(axis=1)) & np.isfinite(rows.max(axis=1))))
    if bad.size:
        raise ValueError(f"forcing has non-finite entries at step {first + bad[0]}")


def _forcing_rows(
    forcing: ForcingFn, times: np.ndarray, to_basis: Callable[[np.ndarray], np.ndarray],
    out: np.ndarray, first: int = 0,
) -> np.ndarray:
    """Write the forcings at ``times`` into ``out`` (len(times), n) in the coordinates
    ``to_basis`` takes nodal rows to, check them finite, row 0 being step ``first``,
    and return ``out``.  Every march takes its forcings from here, so a forward run
    and the recovery on the same route march the same bits; ``stability_bounds``
    takes a plain callable's rows from here.

    A separated forcing, one that carries ``shapes`` and ``coefficients``, has its P
    shapes taken to the basis, once per call, and one coefficient table summed
    against them with ``separated_rows``, one ``row_blocks`` block at a time: the
    forcing is not called and no row is transformed.  Any other forcing is called
    once per time, and its rows are checked, then transformed."""
    shapes = getattr(forcing, "shapes", None)
    if shapes is None:
        for j, t in enumerate(times):
            out[j] = forcing(float(t))
        _check_forcings(out, first)
        return to_basis(out)
    shapes = to_basis(np.array(shapes, dtype=float))
    table = forcing.coefficients(times)
    for block in row_blocks(*out.shape):
        separated_rows(table[block], shapes, out[block])
    _check_forcings(out, first)
    return out


def _on_grid(ops: StepOperators, grid: Grid) -> StepOperators:
    """``ops`` itself, if it was built on ``grid``; otherwise ``ValueError``, naming both
    grids, since its tau and the run's times would describe two different marches."""
    if ops.grid != grid:
        raise ValueError(f"step operators built on {ops.grid}, not on the run's {grid}")
    return ops


def _run_operators(
    problem: ProblemData, grid: Grid, ops: Optional[StepOperators], series: int = 1
) -> StepOperators:
    """What a forward run and the recovery check before they march: phi fits ``grid``,
    and ``ops`` was built on it; without ``ops``, those for ``series`` series on it."""
    if problem.phi.size != grid.interior_dim:
        raise ValueError("phi length does not match the grid")
    return _on_grid(make_step_operators(grid, series=series) if ops is None else ops, grid)


def run_forward(
    problem: ProblemData,
    grid: Grid,
    r: Optional[RCoefficient] = None,
    ops: Optional[StepOperators] = None,
) -> Trajectory:
    """March the direct problem from U^0 = phi with a known coefficient r.

    ``r`` defaults to the problem's exact coefficient; it is evaluated at the
    half-step times, where the scheme defines it.  ``ops.trajectory`` ends
    the march, in the march's own buffer: on the modal route the trajectory
    keeps the route that marched it (``Trajectory.route``), not its
    coordinates.  ``ops`` defaults to those
    ``make_step_operators`` builds on ``grid``; ones built on any other grid, a
    grid equal to it by value aside, raise ``ValueError``, as the recovery's do.
    """
    if r is None:
        r = problem.coefficient
        if r is None:
            raise ValueError("no coefficient: pass r or set problem.coefficient")
    ops = _run_operators(problem, grid, ops)
    r_mid = _r_at_midpoints(r, grid)
    if not np.all(np.isfinite(r_mid)):
        raise ValueError("midpoint coefficient is not finite")

    # U^0 goes to the basis first, so an eigendecomposition peaks before the forcings
    # fill memory; row n+1 holds F^{n+1/2} until U^{n+1} replaces it.
    u = ops.to_basis(problem.phi[None].copy()).T
    marched = np.empty((grid.M + 1, grid.interior_dim))
    _forcing_rows(problem.forcing, grid.midpoint_times(), ops.to_basis, marched[1:])
    rt = ops.tau * r_mid[:, None]
    for n in range(grid.M):  # the recovery's march, with r given
        u = ops.advance(u, marched[n + 1], rt[n])
        marched[n + 1] = u[:, 0]
    return ops.trajectory(problem.phi, marched)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product along the last axis: one per row of stacked vectors."""
    return np.einsum("...n,...n->...", a, b)


@dataclass(frozen=True)
class StabilityReport:
    """Measured slack of the unconditional stability bounds along one run.

    ``identity_residuals[n]`` is the forced energy-identity defect of step n;
    with r = 0 it is the homogeneous identity over tau,
    (||U^{n+1}||^2 + 2 tau ||U^{n+1/2}||_A^2 - ||U^n||^2)/tau, which a
    Crank-Nicolson step keeps to solver tolerance.
    ``l2_slack[n-1]`` and ``energy_slack[n-1]`` are bound minus actual for the
    growth estimate and the dissipation estimate at level n.  Nonnegative
    slack (up to tolerance) means the bound holds.
    """

    identity_residuals: np.ndarray
    l2_slack: np.ndarray
    energy_slack: np.ndarray

    def holds(self, tol: float = 1e-8) -> bool:
        return bool(np.all(self.l2_slack >= -tol) and np.all(self.energy_slack >= -tol))


def _separated_forms(
    forcing: ForcingFn, times: np.ndarray, ops: StepOperators
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """For a forcing with ``shapes`` V (P, n) and ``coefficients``, the table phi (M, P)
    at ``times``, V in the route coordinates of ``ops``, and ||F|| and ||F||_{A^-1}^2
    at every time; None for any other forcing.  A non-finite table row, or a
    non-finite shape, raises as ``_check_forcings`` does.

    Both norms are P x P forms, built once: ||F||^2 = phi^T G phi with G = V V^T, and
    ||F||_{A^-1}^2 = phi^T H phi with H = V A^-1 V^T, whose P rows A^-1 v_p are one
    ``ops.solve_a``.  No row is formed.  A form rounds at eps times the square of the
    sum of the P terms, so where they nearly cancel, ||F|| carries an absolute error
    up to sqrt(eps) times that sum, where the row would carry eps times it."""
    shapes = getattr(forcing, "shapes", None)
    if shapes is None:
        return None
    shapes = np.array(shapes, dtype=float)
    table = forcing.coefficients(times)
    # 0 * inf is NaN, so a non-finite shape spoils every row
    _check_forcings(table if np.all(np.isfinite(shapes)) else np.full_like(table, np.nan))
    in_basis = ops.to_basis(shapes.copy())
    gram = shapes @ shapes.T
    dual = ops.solve_a(in_basis) @ in_basis.T
    f_norm = np.sqrt(np.maximum(_rowdot(table @ gram, table), 0.0))
    return table, in_basis, f_norm, np.maximum(_rowdot(table @ dual, table), 0.0)


def stability_bounds(
    trajectory: Trajectory,
    r: RCoefficient,
    forcing: ForcingFn,
    op: RieszOperator,
    grid: Grid,
) -> StabilityReport:
    """Evaluate both stability inequalities along a completed forward run.

    The L2 bound ||U^n|| <= ||U^0|| + sum tau |r| ||F|| and the energy bound
    ||U^n||^2 + tau sum ||U^{j+1/2}||_A^2 <= ||U^0||^2 + sum tau r^2 ||F||_{A^-1}^2
    are evaluated at every step; violations are reported through the slack
    arrays, never raised; a non-finite forcing, or a kept route marched on a
    grid other than ``grid``, raises ``ValueError``.  The
    run is folded over the blocks of steps ``row_blocks`` gives: each
    block reduces its midpoint states, and forcings, to per-step scalars at
    once, so memory does not grow with M.

    Coordinates and cost.  Every change of basis, ||.||_A and ||.||_{A^-1}
    comes from one route view, a ``StepOperators``.  A trajectory that keeps
    the modal route its march ran on over ``op`` itself (``Trajectory.route``)
    takes that route: each block of states is taken to its eigenbasis, two
    half-size products by Q, and the norms are sums over that eigenbasis, so
    no dense matrix is formed.  Any other trajectory takes the nodal view of
    ``op``, whatever the operator has cached, where the change of basis is the
    identity: ||.||_A takes its matvec and ||.||_{A^-1} one Cholesky factor of
    the dense A, made once per call on first use.  A separated forcing's norms
    are P x P forms in its coefficient table (see ``_separated_forms``), and
    <F, U^{n+1/2}> the midpoints' products with its P shapes, so no forcing
    row is formed; any other forcing is called once per step.
    """
    if not trajectory.matches_grid(grid):
        raise ValueError("trajectory shape does not match the grid")
    tau = grid.tau
    r_mid = _r_at_midpoints(r, grid)
    times = grid.midpoint_times()
    ops = trajectory.route
    # a kept route marched on another grid is refused, whatever its operator
    if ops is None or _on_grid(ops, grid).op is not op:
        ops = StepOperators(grid, op)
    # per step n: ||U^n||, ||F||, <F, U^{n+1/2}>, ||U^{n+1/2}||_A^2 and ||F||_{A^-1}^2
    norms = np.empty(grid.M + 1)
    f_norm, f_dot_mid, mid_energy, dual = np.empty((4, grid.M))
    forms = _separated_forms(forcing, times, ops)
    if forms is not None:
        table, shapes, f_norm[:], dual[:] = forms
    for step in row_blocks(grid.M, grid.interior_dim):
        u = ops.to_basis(trajectory.states[step.start : step.stop + 1].copy())
        mid = 0.5 * (u[:-1] + u[1:])
        norms[step.start : step.stop + 1] = np.linalg.norm(u, axis=1)
        mid_energy[step] = _rowdot(ops.times_a(mid), mid)
        if forms is None:
            f = _forcing_rows(forcing, times[step], ops.to_basis, np.empty(mid.shape), step.start)
            f_norm[step] = np.linalg.norm(f, axis=1)
            f_dot_mid[step] = _rowdot(f, mid)
            dual[step] = np.maximum(_rowdot(ops.solve_a(f), f), 0.0)
        else:
            f_dot_mid[step] = _rowdot(table[step], mid @ shapes.T)

    identity = (norms[1:] ** 2 - norms[:-1] ** 2) / tau + 2.0 * mid_energy - 2.0 * r_mid * f_dot_mid
    l2_bound = norms[0] + np.cumsum(tau * np.abs(r_mid) * f_norm)
    energy_bound = norms[0] ** 2 + np.cumsum(tau * r_mid**2 * dual)
    energy_slack = energy_bound - (norms[1:] ** 2 + np.cumsum(tau * mid_energy))
    return StabilityReport(
        identity_residuals=identity, l2_slack=l2_bound - norms[1:], energy_slack=energy_slack
    )


def spectral_duhamel_oracle(
    op: RieszOperator,
    phi: np.ndarray,
    r_fn: Callable[[float], float],
    f_fn: Callable[[float], np.ndarray],
    grid: Grid,
    substeps: int,
) -> np.ndarray:
    """Reference state at T: exact in space for A = ``op``, high-order in time.

    Expands in the eigenbasis of A and evaluates each modal Duhamel integral
    int_0^T exp(-lambda (T - sigma)) r(sigma) <F(sigma), q> d sigma by
    composite Simpson with the exponential factor evaluated exactly.  Needs
    ``substeps >= 4 M`` so the oracle stays well ahead of the second-order
    stepper it judges.  The eigenbasis is the operator's cached
    ``eigendecomposition``, built here on first use, so a modal march over the
    same operator and the oracle share one decomposition.  What the oracle
    checks is the time integration, not the basis: ``f_fn`` is called once per
    Simpson node, also when it is a separated forcing, so it shares none of
    the marches' coefficient tables or basis shapes.
    """
    if substeps < 4 * grid.M:
        raise ValueError(f"substeps must be at least 4*M = {4 * grid.M}, got {substeps}")
    m = substeps if substeps % 2 == 0 else substeps + 1
    decomp = op.eigendecomposition
    lam = decomp.eigenvalues
    t_final = grid.T

    sigma = np.linspace(0.0, t_final, m + 1)
    r_vals = np.array([r_fn(float(t)) for t in sigma])
    f_modes = decomp.to_basis(np.array([f_fn(float(t)) for t in sigma], dtype=float))

    # exp(-lam (T - sigma)) r(sigma) f_k(sigma), Simpson-weighted along sigma
    decay = np.exp(-np.outer(t_final - sigma, lam))
    weights = np.ones(m + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    step = t_final / m
    integral = step / 3.0 * np.einsum("j,jk,jk->k", weights * r_vals, decay, f_modes)

    coeff = decomp.to_basis(np.array(phi, dtype=float, ndmin=2))[0]
    coeff = coeff * np.exp(-lam * t_final) + integral
    return decomp.from_basis(coeff[None])[0]
