from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracheat.solvers
from fracheat import (
    NotSpdError,
    ProblemData,
    SolverError,
    assemble,
    cg_solve,
    cholesky,
    eigendecompose,
    make_grid,
    make_step_operators,
    run_forward,
)


def _l_system(n_cells, s, tau):
    op = assemble(make_grid(1, 1, n_cells, 1, s))
    dense = np.eye(op.size) + (tau / 2.0) * op.dense()
    return op, dense


class TestCholesky:
    def test_identity(self):
        f = cholesky(np.eye(4))
        np.testing.assert_allclose(f.lower, np.eye(4))
        b = np.array([1.0, -2.0, 3.0, 0.5])
        np.testing.assert_allclose(f.solve(b), b)

    def test_one_by_one(self):
        f = cholesky(np.array([[4.0]]))
        assert f.lower[0, 0] == pytest.approx(2.0)
        assert f.solve(np.array([8.0]))[0] == pytest.approx(2.0)

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((12, 12))
        mat = b @ b.T + 12 * np.eye(12)
        f = cholesky(mat)
        err = np.max(np.abs(f.lower @ f.lower.T - mat))
        assert err <= 1e-12 * np.max(np.abs(mat))

    def test_rejects_unsymmetric(self):
        with pytest.raises(NotSpdError):
            cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotSpdError):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # a NaN compares false, so it would slip through the symmetry test
        mat = np.eye(3)
        mat[1, 2] = mat[2, 1] = bad
        with pytest.raises(NotSpdError, match="non-finite"):
            cholesky(mat)

    def test_factor_is_fortran_ordered_and_solves_bitwise(self):
        # the factor is stored in the layout LAPACK reads, so solves do not
        # copy it; the result is the same as from the C-ordered factor
        from scipy.linalg import cho_solve

        _, dense = _l_system(64, 0.7, 0.05)
        f = cholesky(dense)
        assert f.lower.flags.f_contiguous
        c_lower = np.linalg.cholesky(dense)
        assert c_lower.flags.c_contiguous and np.array_equal(f.lower, c_lower)
        rng = np.random.default_rng(12)
        for b in (rng.standard_normal(63), rng.standard_normal((63, 5))):
            assert np.array_equal(f.solve(b), cho_solve((c_lower, True), b))

    def test_solve_accuracy_on_l_system(self):
        _, dense = _l_system(32, 0.5, 0.01)
        f = cholesky(dense)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(31)
        x = f.solve(b)
        assert np.linalg.norm(dense @ x - b) <= 1e-11 * np.linalg.norm(b)


class TestConjugateGradient:
    def test_zero_rhs_immediate(self):
        calls = []

        def op(v):
            calls.append(1)
            return v

        x = cg_solve(op, np.zeros(5))
        np.testing.assert_allclose(x, 0.0)
        assert not calls  # 0 iterations

    def test_identity_one_iteration(self):
        b = np.array([1.0, 2.0, -3.0])
        applications = []

        def op(v):
            applications.append(1)
            return v

        x = cg_solve(op, b, tol=1e-14)
        np.testing.assert_allclose(x, b, atol=1e-14)
        # one iteration, then the evaluated b - Ax that every returned x passes
        assert len(applications) == 2

    @pytest.mark.parametrize("n_cells", [32, 256])
    def test_matches_cholesky_with_jacobi(self, n_cells):
        op, dense = _l_system(n_cells, 0.5, 0.01)
        rng = np.random.default_rng(5)
        b = rng.standard_normal(n_cells - 1)
        direct = cholesky(dense).solve(b)
        jacobi = np.diag(dense)
        iterative = cg_solve(lambda v: dense @ v, b, tol=1e-12, precond=lambda r: r / jacobi)
        rel = np.linalg.norm(iterative - direct) / np.linalg.norm(direct)
        assert rel <= 1e-10

    def test_maxit_exceeded_reports_residual(self, monkeypatch):
        op, dense = _l_system(64, 0.9, 1.0)
        b = np.ones(63)
        monkeypatch.setattr(fracheat.solvers, "_CG_ITERS_PER_UNKNOWN", 1)
        with pytest.raises(SolverError, match="not reached in 63 iterations") as info:
            cg_solve(lambda v: dense @ v, b, tol=1e-15)
        assert np.isfinite(info.value.residual)
        assert info.value.residual > 1e-15

    def test_unattainable_tol_raises(self):
        # the recursively updated residual falls below 1e-30; the true one
        # cannot, so restarts stop lowering it well before maxit
        grid = make_grid(1, 1, 50, 10, 0.5)
        ops = make_step_operators(grid, solver="cg", tol=1e-30)
        with pytest.raises(SolverError, match="stalls") as info:
            ops.solve(np.ones(49))
        assert 0.0 < info.value.residual < 1e-12

    @pytest.mark.parametrize("stalled_restarts, succeeds", [(0, False), (3, True)])
    def test_noisy_true_residual_gets_more_restarts(self, monkeypatch, stalled_restarts,
                                                    succeeds):
        # products 3 and 6 are the first two true-residual checks; they err by
        # 5e-12 and -6e-12 relative, as evaluations at the rounding floor
        # scatter.  The second and third checks then find the residual no
        # lower than the first, and the fourth finds it at rounding level
        mat = np.diag([1.0, 2.0])
        noise = {3: 5e-12, 6: -6e-12}
        calls = []

        def op(v):
            calls.append(1)
            return mat @ v + noise.get(len(calls), 0.0) * np.linalg.norm(v)

        b = np.array([1.0, 1.0])
        monkeypatch.setattr(fracheat.solvers, "_CG_STALLED_RESTARTS", stalled_restarts)
        if not succeeds:
            with pytest.raises(SolverError, match="stalls"):
                cg_solve(op, b, tol=1e-12)
            return
        x = cg_solve(op, b, tol=1e-12)
        assert np.linalg.norm(b - mat @ x) <= 1e-12 * np.linalg.norm(b)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            cg_solve(lambda v: v, np.ones(3), tol=0.0)

    def test_rejects_nan_tol(self):
        # a NaN tol never stops the iteration; CG then divides by p.Ap = 0
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            cg_solve(lambda v: v, np.ones(3), tol=float("nan"))

    def test_rejects_infinite_tol(self):
        # any residual meets an infinite tol, so CG would stop after one iteration
        with pytest.raises(ValueError, match="tol must be finite and positive, got inf"):
            cg_solve(lambda v: v, np.ones(3), tol=float("inf"))

    def test_nan_operator_reports_divergence(self):
        def broken(v):
            return np.full_like(v, np.nan)

        with pytest.raises(SolverError, match="diverged"):
            cg_solve(broken, np.ones(4), tol=1e-10)


class TestEigendecompose:
    def test_one_by_one(self):
        dec = eigendecompose(np.array([[3.5]]))
        assert dec.eigenvalues[0] == pytest.approx(3.5)
        assert abs(dec.eigenvectors[0, 0]) == pytest.approx(1.0)

    def test_sorted_ascending_and_invariants(self):
        a = assemble(make_grid(1, 1, 16, 1, 0.5)).dense()
        dec = eigendecompose(a)
        lam, q = dec.eigenvalues, dec.eigenvectors
        assert np.all(np.diff(lam) >= 0.0)
        assert np.all(lam > 0.0)
        for k in range(dec.size):
            assert np.linalg.norm(a @ q[:, k] - lam[k] * q[:, k]) <= 1e-10 * lam[k]
        assert np.max(np.abs(q.T @ q - np.eye(dec.size))) <= 1e-12

    def test_amplification_factor_bounded(self):
        # CN modal growth factor magnitude never exceeds one, any step size
        lam = eigendecompose(assemble(make_grid(1, 1, 16, 1, 0.5)).dense()).eigenvalues
        for tau in (1e-3, 1.0, 1e3):
            g = (1.0 - tau * lam / 2.0) / (1.0 + tau * lam / 2.0)
            assert np.all(np.abs(g) <= 1.0)

    def test_rejects_large_systems(self):
        with pytest.raises(ValueError):
            eigendecompose(np.eye(1025))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(s=st.floats(0.01, 0.99), n_cells=st.integers(2, 400),
           scheme=st.sampled_from(("midpoint", "interpolated")))
    @example(s=0.5, n_cells=2, scheme="midpoint")  # n = 1: the middle node alone
    @example(s=0.5, n_cells=3, scheme="midpoint")  # n = 2: no middle node
    @example(s=0.5, n_cells=4, scheme="interpolated")  # n = 3
    @example(s=0.99, n_cells=399, scheme="interpolated")  # n = 398
    @example(s=0.99, n_cells=400, scheme="interpolated")  # n = 399
    def test_split_matches_full_eigh(self, s, n_cells, scheme):
        # the even and odd halves give the spectrum of the whole matrix
        a = assemble(make_grid(1, 1, n_cells, 1, s), scheme=scheme).dense()
        dec = eigendecompose(a)
        lam, q = dec.eigenvalues, dec.eigenvectors
        _, q_full = np.linalg.eigh(a)
        lam_full = np.sort(np.einsum("ij,ij->j", q_full, a @ q_full))
        assert np.all(np.diff(lam) >= 0.0)
        assert np.max(np.abs(lam - lam_full) / lam_full) <= 1e-12
        # each column is even or odd under the reversal, bit for bit
        flipped = q[::-1]
        assert np.all(np.all(flipped == q, axis=0) | np.all(flipped == -q, axis=0))
        assert np.all(np.linalg.norm(a @ q - q * lam, axis=0) <= 1e-10 * lam)
        assert np.max(np.abs(q.T @ q - np.eye(dec.size))) <= 1e-12

    @pytest.mark.parametrize("n_cells", [2, 3, 4, 5, 8, 17, 600, 601])
    @pytest.mark.parametrize("scheme", ["midpoint", "interpolated"])
    def test_q_has_the_bits_of_the_stacked_assembly(self, n_cells, scheme):
        """Q filled in place equals, bit for bit, Q stacked from sorted copies of the halves."""
        a = assemble(make_grid(1, 1, n_cells, 1, 0.3), scheme=scheme).dense()
        n, h = a.shape[0], a.shape[0] // 2
        folded = a[:h, ::-1][:, :h]
        even = a[: n - h, : n - h].copy()
        even[:h, :h] += folded
        even[:h, h:] *= np.sqrt(2.0)
        even[h:, :h] *= np.sqrt(2.0)
        lam_e, v_e = fracheat.solvers._validated_eigh(even)
        lam_o, v_o = fracheat.solvers._validated_eigh(a[:h, :h] - folded)
        lam = np.concatenate((lam_e, lam_o))
        order = np.argsort(lam, kind="stable")
        top = np.hstack((v_e[:h], v_o))[:, order] / np.sqrt(2.0)
        q = np.empty((n, n))
        q[:h] = top
        q[h : n - h] = np.hstack((v_e[h:], np.zeros((n - 2 * h, h))))[:, order]
        q[n - h :] = top[::-1] * np.repeat((1.0, -1.0), (n - h, h))[order]
        dec = eigendecompose(a)
        assert dec.eigenvalues.tobytes() == lam[order].tobytes()
        assert dec.eigenvectors.tobytes() == q.tobytes()

    def test_rejects_a_matrix_that_is_not_centrosymmetric(self):
        a = assemble(make_grid(1, 1, 16, 1, 0.5)).dense()
        a[0, 0] *= 1.0 + 1e-15  # symmetric still, but diag is no palindrome
        with pytest.raises(ValueError, match="centrosymmetric"):
            eigendecompose(a)

    def test_modal_march_refuses_an_operator_that_is_not_centrosymmetric(self, grid16, op16):
        # a hand-built operator; assemble never gives one whose diag is not a palindrome
        op = replace(op16, diag=op16.diag + np.linspace(0.0, 1.0, op16.size))
        calls = []
        problem = ProblemData(phi=np.ones(op.size), forcing=lambda t: calls.append(t),
                              weight=np.ones(op.size))
        ops = make_step_operators(grid16, op=op, solver="modal")
        with pytest.raises(ValueError, match="centrosymmetric"):
            run_forward(problem, grid16, r=np.zeros(grid16.M), ops=ops)
        assert calls == []  # the first to_basis raised, before any forcing or step


class TestNorms:
    """The A-norm sqrt(<A v, v>) and dual norm sqrt(<A^{-1} f, f>) of the stiffness matrix."""

    def test_dual_norm_on_eigenvector(self):
        a = assemble(make_grid(1, 1, 16, 1, 0.5)).dense()
        dec = eigendecompose(a)
        for k in (0, 7, 14):
            lam, q = dec.eigenvalues[k], dec.eigenvectors[:, k]
            dual = np.sqrt(np.linalg.solve(a, q) @ q)
            assert dual == pytest.approx(1.0 / np.sqrt(lam), rel=1e-10)

    def test_energy_norm_positive_definite(self):
        op = assemble(make_grid(1, 1, 24, 1, 0.5))
        rng = np.random.default_rng(9)
        for _ in range(10):
            v = rng.standard_normal(23)
            assert op.apply(v) @ v > 0.0
        assert op.apply(np.zeros(23)) @ np.zeros(23) == 0.0

    def test_cauchy_schwarz_duality(self):
        # |<f, v>| <= ||v||_A ||f||_{A^{-1}} on random pairs
        op = assemble(make_grid(1, 1, 24, 1, 0.5))
        a = op.dense()
        rng = np.random.default_rng(13)
        for _ in range(20):
            f = rng.standard_normal(23)
            v = rng.standard_normal(23)
            lhs = abs(float(f @ v))
            rhs = np.sqrt(op.apply(v) @ v) * np.sqrt(np.linalg.solve(a, f) @ f)
            assert lhs <= rhs * (1.0 + 1e-12)
