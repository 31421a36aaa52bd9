"""Properties of the FFT matvec and of the circulant-preconditioned CG route."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracheat import assemble, build_manufactured, make_grid, make_step_operators
from fracheat.forward import SOLVERS
from fracheat.riesz import SCHEMES, RieszOperator, _fft_length
from fracheat.solvers import cg_solve

orders = st.floats(0.01, 0.99)
sizes = st.integers(2, 1200)
seeds = st.integers(0, 2**32 - 1)
schemes = st.sampled_from(SCHEMES)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(s=orders, n_cells=sizes, seed=seeds, scheme=schemes)
@example(s=0.5, n_cells=2, seed=0, scheme="midpoint")  # n = 1: no Toeplitz part
@example(s=0.5, n_cells=3, seed=0, scheme="interpolated")
@example(s=0.5, n_cells=256, seed=0, scheme="midpoint")  # n = 255 pads to 256
@example(s=0.5, n_cells=257, seed=0, scheme="interpolated")  # n = 256 is 5-smooth
def test_apply_matches_dense(s, n_cells, seed, scheme):
    op = assemble(make_grid(1, 1, n_cells, 1, s), scheme)
    dense = op.dense()
    v = np.random.default_rng(seed).standard_normal(op.size)
    err = np.max(np.abs(op.apply(v) - dense @ v))
    # relative to the size of the terms summed, which rounding scales with
    assert err <= 1e-12 * np.max(np.abs(dense) @ np.abs(v))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=orders, n_cells=sizes, seed=seeds, scheme=schemes)
@example(s=0.5, n_cells=2, seed=0, scheme="midpoint")  # n = 1: K = 1 and K = n coincide
@example(s=0.5, n_cells=40, seed=0, scheme="interpolated")
@example(s=0.5, n_cells=257, seed=0, scheme="midpoint")
def test_block_apply_is_its_columns(s, n_cells, seed, scheme):
    op = assemble(make_grid(1, 1, n_cells, 1, s), scheme)
    rng = np.random.default_rng(seed)
    for k in (1, 3, op.size):
        block = rng.standard_normal((op.size, k))
        columns = [op.apply(block[:, j]) for j in range(k)]
        assert np.array_equal(op.apply(block), np.column_stack(columns)), k


def _extended(a: np.ndarray) -> np.ndarray:
    """``a`` in np.longdouble, which must be wider than float64 for a reference to mean anything."""
    eps = float(np.finfo(np.longdouble).eps)
    assert eps < 1e-18, f"np.longdouble has eps {eps:.3g}: no extended-precision reference here"
    return a.astype(np.longdouble)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(s=orders, n_cells=st.integers(2, 256), seed=seeds, scheme=schemes,
       smooth=st.booleans())
@example(s=0.99, n_cells=200, seed=0, scheme="midpoint", smooth=True)
@example(s=0.99, n_cells=200, seed=0, scheme="interpolated", smooth=True)
@example(s=0.01, n_cells=256, seed=0, scheme="midpoint", smooth=False)
@example(s=0.5, n_cells=2, seed=0, scheme="interpolated", smooth=False)
def test_apply_and_energy_near_extended_products(s, n_cells, seed, scheme, smooth):
    # the FFT matvec and u^T A u against long-double products of the same
    # stored A, each relative to the size of the terms it sums
    op = assemble(make_grid(1, 1, n_cells, 1, s), scheme)
    dense = op.dense()
    if smooth:
        u = np.sin(np.pi * np.arange(1, n_cells) / n_cells)
    else:
        u = np.random.default_rng(seed).standard_normal(op.size)
    au_wide = _extended(dense) @ _extended(u)
    terms = np.abs(dense) @ np.abs(u)
    au = op.apply(u)
    assert np.max(np.abs(au - au_wide)) <= 1e-14 * np.max(terms)
    assert abs(au @ u - au_wide @ _extended(u)) <= 1e-14 * (terms @ np.abs(u))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(s=orders, n_cells=sizes, log_tau=st.floats(-3.0, 3.0), seed=seeds, scheme=schemes)
@example(s=0.99, n_cells=1200, log_tau=3.0, seed=0, scheme="midpoint")
@example(s=0.99, n_cells=1200, log_tau=3.0, seed=0, scheme="interpolated")
@example(s=0.9, n_cells=5, log_tau=3.0, seed=0, scheme="midpoint")  # floored preconditioner eigenvalues
def test_cg_route_matches_cholesky(s, n_cells, log_tau, seed, scheme):
    tol = 1e-10
    tau = 10.0**log_tau
    grid = make_grid(1, tau, n_cells, 1, s)
    op = assemble(grid, scheme)
    direct = make_step_operators(grid, op=op, solver="cholesky")
    iterative = make_step_operators(grid, op=op, solver="cg", tol=tol)
    b = np.random.default_rng(seed).standard_normal(op.size)
    x = iterative.solve(b)
    ref = direct.solve(b)
    dense_l = np.eye(op.size) + (tau / 2.0) * op.dense()
    assert np.linalg.norm(b - dense_l @ x) <= tol * np.linalg.norm(b)
    # Gershgorin: lambda_max(L) <= 1 + tau max(diag A), and lambda_min(L) >= 1
    cond = 1.0 + tau * float(np.max(op.diag))
    assert np.linalg.norm(x - ref) <= cond * tol * np.linalg.norm(ref)


def _strang_inverse(op, c):
    """r -> C^{-1} r for the size-n Strang circulant C of I + c A, transformed at
    length n whatever n is: the preconditioner's formula before it padded to a
    5-smooth length."""
    n = op.size
    k = n // 2
    col = np.zeros(n)
    col[1 : k + 1] = op.offdiag[:k]
    col[k + 1 :] = op.offdiag[: n - k - 1][::-1]
    eig = np.maximum(1.0 + c * (float(np.median(op.diag)) - np.fft.rfft(col).real), 1.0)
    return lambda r: np.fft.irfft(np.fft.rfft(r) / eig, n)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=orders, n_cells=st.integers(2, 301), log_tau=st.floats(-3.0, 3.0), scheme=schemes)
@example(s=0.9, n_cells=5, log_tau=3.0, scheme="midpoint")  # floored eigenvalues, m = n = 4
@example(s=0.99, n_cells=8, log_tau=3.0, scheme="midpoint")  # floored eigenvalues, n = 7 pads to 8
@example(s=0.9, n_cells=300, log_tau=3.0, scheme="interpolated")  # n = 299 pads to 300
def test_preconditioner_is_spd(s, n_cells, log_tau, scheme):
    op = assemble(make_grid(1, 1, n_cells, 1, s), scheme)
    precond = op.circulant_preconditioner(10.0**log_tau / 2.0)
    dense = np.column_stack([precond(e) for e in np.eye(op.size)])
    assert np.max(np.abs(dense - dense.T)) <= 1e-14 * np.max(np.abs(dense))
    assert np.linalg.eigvalsh(dense).min() > 0.0


def _cg_matvecs(op, c, b, precond):
    calls = []

    def apply_l(v):
        calls.append(1)
        return v + c * op.apply(v)

    cg_solve(apply_l, b, tol=1e-10, precond=precond)
    return len(calls)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(s=orders, n_cells=sizes, log_tau=st.floats(-3.0, 3.0), seed=seeds, scheme=schemes)
@example(s=0.5, n_cells=3072, log_tau=-2.0, seed=0, scheme="midpoint")  # cg_large: n = 3071
@example(s=0.5, n_cells=1026, log_tau=0.0, seed=0, scheme="midpoint")  # n = 1025 pads to 1080
@example(s=0.5, n_cells=1025, log_tau=0.0, seed=0, scheme="midpoint")  # n = 1024 is 5-smooth
def test_padded_preconditioner_against_size_n_strang(s, n_cells, log_tau, seed, scheme):
    # P^{-1} transforms at the 5-smooth length m >= n; at m = n it is the
    # size-n Strang inverse bit for bit, and otherwise no worse for CG than it
    c = 10.0**log_tau / 2.0
    op = assemble(make_grid(1, 1, n_cells, 1, s), scheme)
    precond, strang = op.circulant_preconditioner(c), _strang_inverse(op, c)
    b = np.random.default_rng(seed).standard_normal(op.size)
    if _fft_length(op.size) == op.size:
        assert np.array_equal(precond(b), strang(b))
    else:
        assert _cg_matvecs(op, c, b, precond) <= _cg_matvecs(op, c, b, strang) + 1


@pytest.mark.parametrize("n_cells", [40, 257])
def test_blocks_go_column_by_column(n_cells):
    # on every route a block step (its matvecs by one block FFT, or a
    # diagonal) and a block solve are bitwise the steps and solves of their
    # columns; K = n is the square block a diagonal could scale along the
    # wrong axis without a shape error
    grid = make_grid(1, 1, n_cells, 1, 0.7)
    op = assemble(grid)
    f = np.random.default_rng(3).standard_normal(op.size)
    for solver in SOLVERS:
        ops = make_step_operators(grid, op=op, solver=solver)
        for k in (3, op.size):
            b = np.random.default_rng(2).standard_normal((op.size, k))
            rt = np.linspace(-1.0, 2.0, k)
            # advance may overwrite its block
            columns = [ops.advance(b[:, [j]].copy(), f, rt[j : j + 1])[:, 0] for j in range(k)]
            assert np.array_equal(ops.advance(b.copy(), f, rt), np.column_stack(columns)), (
                solver, k)
            # solve may overwrite its right-hand side
            columns = [ops.solve(col.copy()) for col in b.T]
            assert np.array_equal(ops.solve(b.copy()), np.column_stack(columns)), (solver, k)


def test_first_step_solve_takes_few_matvecs(monkeypatch):
    # a diagonal (Jacobi) preconditioner takes about 500 matvecs on this solve
    grid = make_grid(1, 1, 1024, 10, 0.9)
    op = assemble(grid)
    spec, data = build_manufactured("example2", grid, op=op)
    ops = make_step_operators(grid, op=op, solver="cg")
    t_mid = grid.tau / 2.0
    rhs = (data.phi - (grid.tau / 2.0) * op.apply(data.phi)
           + grid.tau * spec.r_exact(t_mid) * data.forcing(t_mid))
    calls = []
    original = RieszOperator.apply

    def counted(self, v):
        calls.append(1)
        return original(self, v)

    monkeypatch.setattr(RieszOperator, "apply", counted)
    ops.solve(rhs)
    assert len(calls) <= 20
