"""Direct, iterative and spectral solvers for the SPD systems of the time stepper.

Cholesky factors a matrix once and reuses the factor for every right-hand
side.  The time stepper takes it for a system of up to 2048 unknowns when too
few steps are marched to pay for an eigendecomposition; the tests use it as
the dense reference.  Hand-written preconditioned conjugate gradients is the
independent second route, used for cross-checks and for large systems, where
the time stepper pairs it with the FFT matvec and the Strang-circulant
preconditioner of :mod:`fracheat.riesz`.  The validated dense
eigendecomposition of a centrosymmetric matrix, split into an even and an odd
half of about n/2 each, backs the modal route, which marches in the
eigenbasis of A; the stability diagnostics take their A^{-1} dual norms from
the route a modal trajectory kept, and on any other trajectory from a
Cholesky factor of the dense A, whatever the operator caches.  SciPy is imported
by the first Cholesky solve, so every other route runs on NumPy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "NotSpdError",
    "SolverError",
    "SpdFactorization",
    "SpectralDecomposition",
    "cholesky",
    "cg_solve",
    "eigendecompose",
]

# The largest size at which the eigendecomposition and its validation, two
# O((n/2)^3) halves, have been measured; the modal route shares this cap.
EIGEN_SIZE_LIMIT = 1024
# largest residual ||A q - lambda q|| / |lambda| an eigenpair may keep
_EIGEN_TOL = 1e-10
# CG iterations allowed per unknown before a solve fails
_CG_ITERS_PER_UNKNOWN = 10
# Restarts from the true residual that may end no lower than the lowest true
# residual before a solve fails.  Near the rounding floor of b - Ax each
# evaluation scatters by about 10 %, so one such restart is weak evidence that
# tol is out of reach: example 2 at s = 0.9, N = 1000, M = 10, T = 1 failed 9 of
# 40 recoveries from data perturbed by 2 ulp when one was allowed, 0 with three.
_CG_STALLED_RESTARTS = 3


class NotSpdError(ValueError):
    """The matrix handed to a solver is not symmetric positive definite."""


class SolverError(RuntimeError):
    """Iterative solve failed; ``residual`` holds the relative residual reached."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SpdFactorization:
    """Lower-triangular Cholesky factor G with M = G G^T.

    ``lower`` is stored in Fortran order, the layout LAPACK's solver reads, so
    a solve does not first copy the whole factor.
    """

    lower: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        # SciPy is imported by the first Cholesky solve, not with the package
        from scipy.linalg import cho_solve

        # the factor was checked finite once, in cholesky()
        return cho_solve((self.lower, True), np.asarray(b, dtype=float), check_finite=False)


def cholesky(mat: np.ndarray) -> SpdFactorization:
    """Factor a dense SPD matrix; a non-positive pivot signals an assembly bug.

    A non-finite entry is rejected here, once, so every later solve with the
    factor can skip that scan.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise NotSpdError("matrix has non-finite entries")
    scale = np.max(np.abs(mat))
    if scale > 0 and np.max(np.abs(mat - mat.T)) > 1e-12 * scale:
        raise NotSpdError("matrix is not symmetric")
    try:
        lower = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError(f"matrix is not positive definite: {exc}") from exc
    return SpdFactorization(lower=np.asfortranarray(lower))


def cg_solve(
    apply_op: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float = 1e-12,
    precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Conjugate gradients on an SPD operator given as a matvec closure.

    ``precond`` applies an SPD approximate inverse r -> M^{-1} r.  Success
    means the true relative residual ||b - Ax|| / ||b|| is at most ``tol``:
    once the recursively updated residual gets there, the true one is
    evaluated, and if it misses ``tol`` the iteration restarts from it.
    :class:`SolverError` carries the true residual when
    ``_CG_ITERS_PER_UNKNOWN`` iterations per unknown pass, or when more than
    ``_CG_STALLED_RESTARTS`` restarts fail to lower it below its lowest value:
    ``tol`` is then below the rounding error of evaluating b - Ax.
    """
    if not tol > 0.0:  # NaN fails this test
        raise ValueError(f"tol must be positive, got {tol}")
    b = np.asarray(b, dtype=float)
    maxit = _CG_ITERS_PER_UNKNOWN * b.size
    if precond is None:
        precond = np.copy
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros_like(b)

    x = np.zeros_like(b)
    r = b.copy()
    p = None  # None: (re)start along the preconditioned residual
    lowest_res = float("inf")  # lowest true residual at a failed check
    stalled = 0  # restarts that ended no lower than lowest_res
    for _ in range(maxit):
        z = precond(r)
        rz_new = float(r @ z)
        p = z.copy() if p is None else z + (rz_new / rz) * p
        rz = rz_new
        ap = apply_op(p)
        alpha = rz / float(p @ ap)
        if not np.isfinite(alpha):
            raise SolverError("cg diverged: non-finite step", residual=float("nan"))
        x += alpha * p
        r -= alpha * ap
        res = float(np.linalg.norm(r)) / norm_b
        if not np.isfinite(res):
            raise SolverError("cg diverged: non-finite residual", residual=res)
        if res <= tol:
            r = b - apply_op(x)
            res = float(np.linalg.norm(r)) / norm_b
            if res <= tol:
                return x
            if res >= lowest_res:
                stalled += 1
                if stalled > _CG_STALLED_RESTARTS:
                    raise SolverError(f"cg: true residual {res:.3e} stalls above tolerance "
                                      f"{tol:.1e}", residual=res)
            lowest_res = min(lowest_res, res)
            p = None
    res = float(np.linalg.norm(b - apply_op(x))) / norm_b
    raise SolverError(f"cg: tolerance {tol:.1e} not reached in {maxit} iterations "
                      f"(residual {res:.3e})", residual=res)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues ascending and orthonormal eigenvectors (columns of q)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def size(self) -> int:
        return self.eigenvalues.size


def eigendecompose(mat: np.ndarray) -> SpectralDecomposition:
    """Dense centrosymmetric eigendecomposition, validated against its residuals.

    Only a matrix with J A J = A, J the reversal, is taken; both stiffness
    schemes give one.  With h = floor(n/2), A = Q diag(lambda) Q^T splits
    into an even and an odd symmetric eigenproblem (Cantoni & Butler,
    Linear Algebra Appl. 13, 1976): E = A11 + A12 J and O = A11 - A12 J,
    where E gains the middle node for odd n, its coupling scaled by
    sqrt(2).  Each half is solved and validated on its own, and the columns
    of Q = [[V_e, V_o], [J V_e, -J V_o]] / sqrt(2), with the middle row of
    V_e unscaled between them for odd n, satisfy q[::-1] = +-q bit for bit.
    ||A q - lambda q|| is the norm of its half's residual B v - lambda v, and
    Q^T Q is block diagonal with the halves' Gram matrices, so every check
    below holds for Q as a whole.

    The eigenvalues, sorted ascending, are the Rayleigh quotients v^T B v of
    the computed half eigenvectors, read off the product B V the validation
    forms anyway.  ``eigh``'s own eigenvalues carry an absolute error of
    order eps ||A||, a relative error of eps cond(A) at the bottom of the
    spectrum; a Rayleigh quotient's error is quadratic in the eigenvector's.
    At s = 0.99, N = 300 this takes L^{-1} b through the eigenbasis from
    1.6e-12 to 4e-13 of a long-double reference (Cholesky: 3e-13).  Re-run
    on the split (interpolated scheme, tau = 1 and 1000, five random b):
    4.0-4.2e-13, against 5.8-6.1e-13 with one full ``eigh`` and 3.0-4.3e-13
    for Cholesky.

    Refuses, with ``ValueError``, matrices larger than ``EIGEN_SIZE_LIMIT``
    and matrices that are not exactly centrosymmetric.
    """
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    if n > EIGEN_SIZE_LIMIT:
        raise ValueError(f"eigendecompose takes n <= {EIGEN_SIZE_LIMIT}, got size {n}")
    if not np.array_equal(mat, mat[::-1, ::-1]):
        raise ValueError("eigendecompose takes a centrosymmetric matrix (J A J = A, "
                         "J the reversal)")
    h = n // 2
    folded = mat[:h, ::-1][:, :h]  # A12 J
    # for odd n, row and column h of E are the middle node's
    even = mat[: n - h, : n - h].copy()
    even[:h, :h] += folded
    even[:h, h:] *= np.sqrt(2.0)
    even[h:, :h] *= np.sqrt(2.0)
    lam_e, v_e = _validated_eigh(even)
    lam_o, v_o = _validated_eigh(mat[:h, :h] - folded)

    lam = np.concatenate((lam_e, lam_o))
    order = np.argsort(lam, kind="stable")
    # each half's columns go, scaled in place, straight to their sorted places in Q
    place = np.empty(n, dtype=np.intp)
    place[order] = np.arange(n)
    even, odd = place[: n - h], place[n - h :]
    v_e[:h] /= np.sqrt(2.0)
    v_o /= np.sqrt(2.0)
    q = np.empty((n, n))
    q[:h, even], q[:h, odd] = v_e[:h], v_o
    q[h : n - h, even], q[h : n - h, odd] = v_e[h:], 0.0  # odd n only
    np.negative(v_o, out=v_o)
    q[n - h :, even], q[n - h :, odd] = v_e[:h][::-1], v_o[::-1]
    return SpectralDecomposition(eigenvalues=lam[order], eigenvectors=q)


def _validated_eigh(mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rayleigh-quotient eigenvalues and eigenvectors of one symmetric half.

    Every eigenpair's residual ||B v - lambda v|| must be at most
    ``_EIGEN_TOL`` |lambda|, and V^T V within 1e-12 of the identity.
    """
    _, q = np.linalg.eigh(mat)
    resid = mat @ q
    lam = np.einsum("ij,ij->j", q, resid)
    resid -= q * lam
    resid = np.linalg.norm(resid, axis=0)
    if np.any(resid > _EIGEN_TOL * np.maximum(np.abs(lam), 1e-300)):
        worst = float(np.max(resid / np.maximum(np.abs(lam), 1e-300)))
        raise SolverError(f"eigendecomposition residual {worst:.3e} exceeds {_EIGEN_TOL:.1e}")
    gram = q.T @ q
    gram.flat[:: mat.shape[0] + 1] -= 1.0
    ortho = float(np.abs(gram).max(initial=0.0))
    if ortho > 1e-12:
        raise SolverError(f"eigenvectors not orthonormal to 1e-12 (got {ortho:.3e})")
    return lam, q
