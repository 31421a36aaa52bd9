"""Dense stiffness matrix of the one-dimensional Dirichlet fractional Laplacian.

The operator acts on functions extended by zero outside (0, l).  On the
uniform interior grid both schemes below yield a symmetric positive definite
matrix whose off-diagonal part is Toeplitz.

``midpoint``: a midpoint-quadrature sum over interior nodes plus an exactly
integrated exterior tail,

    A_ij  = -(c_s / h^{2s}) |i-j|^{-(1+2s)}            (i != j)
    A_ii  =  (c_s / h^{2s}) [ sum_{j != i} |i-j|^{-(1+2s)}
                              + (1/2s)(i^{-2s} + (N-i)^{-2s}) ]

Its consistency defect has two parts that do not shrink like h^{2-2s}: the
half cells [0, h/2] and [l-h/2, l] are left out, an O(h) defect at every
node, and the rectangle rule misses the kink of the zero-extended function
at the walls, an O(h^{1-2s}) defect at the wall-adjacent nodes.

``interpolated`` (Huang & Oberman 2014): the second difference for |t| < h
and the linear interpolant of the zero-extended nodal values beyond h.  The
nodes x_0 = 0 and x_N = l carry u = 0, so the wall kink sits on a node and
is represented exactly, and the defect for smooth u is O(h^{2-2s}) up to the
walls.  The matrix is pure Toeplitz with a constant diagonal.  With
G(t) = -(t^{1-2s} - 1) / (2s (1-2s)),

    A_ij  = -(c_s / h^{2s}) b_{|i-j|}                  (i != j)
    A_ii  =  2 (c_s / h^{2s}) (1/(2s) + 1/(2-2s))
    b_1   =  1/(2-2s) + 1/(2s) + G(2)
    b_k   =  G(k+1) - 2 G(k) + G(k-1)                  (k >= 2)

G and b_k are evaluated through expm1 and log1p, so that s = 1/2 is a
continuous case and the second difference does not cancel catastrophically
at large lags.

Only the Toeplitz coefficient vector and the diagonal are stored; symmetry is
structural.  The Toeplitz part is applied, at every size, through the FFT of
a circulant embedding in O(n log n), and ``I + c A`` is preconditioned by a
Strang circulant (Chan & Strang 1989) of the 5-smooth size m >= n, applied to
the zero-padded vector and truncated, so that its real FFT is a fast one.  A
singularity-subtracted quadrature of the defining integral is provided as an
independent reference for consistency tests: Taylor-subtracted Gauss panels
on geometric layers for |x-y| < h, the exact exterior tail beyond the walls,
and between them composite Gauss-Legendre panels in the log distance
log|x-y|, where the integrand of a smooth u is analytic.  The far-field panel
count starts at 8 per side on every grid and doubles until the images settle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import Grid
from .solvers import SpectralDecomposition, eigendecompose

__all__ = [
    "normalization_constant",
    "exterior_tail",
    "RieszOperator",
    "SCHEMES",
    "assemble",
    "quadrature_oracle",
    "QuadratureConvergenceError",
]


def normalization_constant(s: float) -> float:
    """Kernel constant c_s = 4^s s Gamma(1/2+s) / (sqrt(pi) |Gamma(1-s)|)."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order s must lie in (0, 1), got {s}")
    return 4.0**s * s * math.gamma(0.5 + s) / (math.sqrt(math.pi) * abs(math.gamma(1.0 - s)))


def exterior_tail(i: Union[int, np.ndarray], grid: Grid) -> Union[float, np.ndarray]:
    """Exact kernel integral over R \\ (0, l) at node x_i, without the c_s factor.

    Equals (1/2s) (x_i^{-2s} + (l-x_i)^{-2s}); undefined on the boundary.  An
    array of node indices gives the array of their tails.
    """
    i = np.asarray(i)
    if np.any((i < 1) | (i > grid.N - 1)):
        raise ValueError(f"node index must satisfy 1 <= i <= N-1, got {i}")
    s = grid.s
    x = i * grid.h
    tail = (x ** (-2.0 * s) + (grid.l - x) ** (-2.0 * s)) / (2.0 * s)
    return float(tail) if tail.ndim == 0 else tail


def _fft_length(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m: a length numpy.fft transforms quickly."""
    best = 1 << (m - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-m // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


@dataclass(frozen=True)
class RieszOperator:
    """Toeplitz-plus-diagonal storage of the dense stiffness matrix.

    ``offdiag[k-1]`` holds the magnitude of the entries at lag k, so that
    A_ij = -offdiag[|i-j|-1] off the diagonal and A_ii = diag[i-1].
    """

    size: int
    offdiag: np.ndarray  # lag 1 .. size-1, strictly positive, decreasing
    diag: np.ndarray

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A v for a vector (n,), or A V for a block (n, K), each column bit for bit
        its own product: the diagonal times v, less T v by the FFT of T's circulant
        embedding along axis 0."""
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[0] != self.size:
            raise ValueError(f"expected shape ({self.size},) or ({self.size}, K), got {v.shape}")
        shape = (-1,) + (1,) * (v.ndim - 1)  # a per-row vector, broadcast over columns
        spectrum = self._embedding_spectrum.reshape(shape)
        m = 2 * (spectrum.shape[0] - 1)
        tv = np.fft.irfft(np.fft.rfft(v, m, axis=0) * spectrum, m, axis=0)
        return self.diag.reshape(shape) * v - tv[: self.size]

    @cached_property
    def _embedding_spectrum(self) -> np.ndarray:
        """Eigenvalues of a symmetric circulant of even length m >= 2n whose
        leading n x n block is T (half spectrum, as rfft returns it)."""
        n = self.size
        m = 2 * _fft_length(n)
        col = np.zeros(m)
        col[1:n] = self.offdiag
        col[m - n + 1 :] = self.offdiag[::-1]
        return np.fft.rfft(col).real

    @cached_property
    def eigendecomposition(self) -> SpectralDecomposition:
        """A = Q diag(lambda) Q^T, validated; built on first use and kept, so every
        step size and every march over this operator shares one decomposition:
        two ``eigh`` of size about n/2, on A's even and odd halves."""
        return eigendecompose(self.dense())

    def circulant_preconditioner(self, c: float) -> Callable[[np.ndarray], np.ndarray]:
        """r -> P^{-1} r = E^T C_m^{-1} E r, from the Strang circulant C_m of I + c A.

        C_m has the 5-smooth size m = ``_fft_length(n)`` >= n and E pads a
        vector of length n with zeros to length m.  C_m keeps the central lags
        1..m/2 of T, wrapped around, and replaces the diagonal by
        1 + c median(diag).  Its eigenvalues are floored at one, the lower end
        of the spectrum of I + c A; the floor keeps C_m positive definite where
        median(diag) falls short of the circulant part's largest eigenvalue,
        which happens on small grids (N = 4, 5 at s >= 0.75).  P^{-1} is then
        the leading n x n block of the SPD matrix C_m^{-1}, so it is SPD too,
        and conjugate gradients keeps its guarantees.  Where n is 5-smooth,
        m = n and P = C_m is the size-n Strang circulant.

        One rfft/irfft pair of length m applies P^{-1}.  Single-threaded on a
        2-vCPU Xeon such a pair costs 47 us at m = 3072 against 95 us at
        length n = 3071, and 0.33 ms at m = 20000 against 6.1 ms at n = 19999.
        """
        n = self.size
        m = _fft_length(n)
        k = m // 2
        col = np.zeros(m)
        col[1 : k + 1] = self.offdiag[:k]
        col[k + 1 :] = self.offdiag[: m - k - 1][::-1]
        shift = _median(self.diag)
        eig = np.maximum(1.0 + c * (shift - np.fft.rfft(col).real), 1.0)

        def solve(r: np.ndarray) -> np.ndarray:
            return np.fft.irfft(np.fft.rfft(r, m) / eig, m)[:n]

        return solve

    def dense(self) -> np.ndarray:
        """Full (N-1) x (N-1) matrix, reconstructed for solvers and diagnostics."""
        col = np.concatenate(([0.0], self.offdiag))
        # row i of the symmetric Toeplitz matrix is a window of col reversed,
        # then col: the strided gather scipy.linalg.toeplitz does
        full = -sliding_window_view(np.concatenate((col[:0:-1], col)), self.size)[::-1]
        np.fill_diagonal(full, self.diag)
        return full


def _median(values: np.ndarray) -> float:
    """The median as ``np.median`` gives it, bit for bit, from the middle order
    statistics: ``np.median`` imports ``numpy.ma`` for its NaN check."""
    k = values.size // 2
    if values.size % 2:
        return float(np.partition(values, k)[k])
    a, b = np.partition(values, (k - 1, k))[k - 1 : k + 1]
    return float((a + b) / 2)


def _midpoint_weights(grid: Grid) -> tuple:
    n, s = grid.interior_dim, grid.s
    lag = np.arange(1, n, dtype=float)
    powers = lag ** (-(1.0 + 2.0 * s))
    # Interior part of the diagonal: prefix sums over ascending lag, so that
    # row i picks up lags 1..i-1 to the left and 1..N-1-i to the right.
    prefix = np.concatenate(([0.0], np.cumsum(powers)))
    idx = np.arange(1, n + 1)
    interior = prefix[idx - 1] + prefix[n - idx]
    tail = (idx ** (-2.0 * s) + (grid.N - idx) ** (-2.0 * s)) / (2.0 * s)
    return powers, interior + tail


def _expm1_ratio(z: np.ndarray) -> np.ndarray:
    """expm1(z) / z, continued by 1 at z = 0."""
    z = np.asarray(z, dtype=float)
    safe = np.where(z == 0.0, 1.0, z)
    return np.where(z == 0.0, 1.0, np.expm1(safe) / safe)


def _interpolated_weights(grid: Grid) -> tuple:
    n, s = grid.interior_dim, grid.s
    a = 1.0 - 2.0 * s
    # G(2) = -ln 2 expm1(a ln 2) / (a ln 2 * 2s)
    g2 = -math.log(2.0) * float(_expm1_ratio(a * math.log(2.0))) / (2.0 * s)
    first = 1.0 / (2.0 - 2.0 * s) + 1.0 / (2.0 * s) + g2
    # G(k+1) - 2G(k) + G(k-1) = -k^a [expm1(a ln(1+1/k)) + expm1(a ln(1-1/k))] / (2s a)
    lag = np.arange(2, n, dtype=float)
    up, down = np.log1p(1.0 / lag), np.log1p(-1.0 / lag)
    far = -(lag**a) * (up * _expm1_ratio(a * up) + down * _expm1_ratio(a * down)) / (2.0 * s)
    weights = np.concatenate(([first], far))[: n - 1]
    diag = np.full(n, 2.0 * (1.0 / (2.0 * s) + 1.0 / (2.0 - 2.0 * s)))
    return weights, diag


# scheme -> its off-diagonal and diagonal weights; the first is every run's default
_WEIGHTS = {"midpoint": _midpoint_weights, "interpolated": _interpolated_weights}
SCHEMES = tuple(_WEIGHTS)


def assemble(grid: Grid, scheme: str = SCHEMES[0]) -> RieszOperator:
    """Build the stiffness matrix for the grid in Toeplitz-plus-diagonal form.

    ``scheme`` is one of :data:`SCHEMES`, by default the first; the module
    docstring gives the entries of each.
    """
    if scheme not in _WEIGHTS:
        raise ValueError(f"unknown scheme {scheme!r} (expected one of {SCHEMES})")
    scale = normalization_constant(grid.s) / grid.h ** (2.0 * grid.s)
    weights, diag_weights = _WEIGHTS[scheme](grid)
    offdiag = scale * weights
    diag = scale * diag_weights

    offdiag.setflags(write=False)
    diag.setflags(write=False)
    return RieszOperator(size=grid.interior_dim, offdiag=offdiag, diag=diag)


class QuadratureConvergenceError(RuntimeError):
    """Raised when refining the reference quadrature does not stabilise it."""


ArrayFn = Callable[[np.ndarray], np.ndarray]

# quadrature_oracle's starting count of far-field panels per side, the relative
# agreement of two successive counts that ends its doubling, and how often it
# may double the count to reach that agreement
_QUADRATURE_PANELS = 8
_QUADRATURE_RTOL = 1e-8
_QUADRATURE_DOUBLINGS = 4
# far-field points per block of nodes: about 1 MB per temporary array
_FAR_BLOCK_POINTS = 1 << 17


# the positive half of the 12-point Gauss-Legendre rule on [-1, 1], ascending: the
# bits of numpy.polynomial.legendre.leggauss(12), which is not imported for them
_GAUSS_HALF_NODES = (0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
                     0.7699026741943047, 0.9041172563704748, 0.9815606342467192)
_GAUSS_HALF_WEIGHTS = (0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
                       0.16007832854334642, 0.10693932599531907, 0.04717533638651141)


@cache
def _gauss_legendre() -> Tuple[np.ndarray, np.ndarray]:
    """The 12-point Gauss-Legendre nodes (ascending) and weights on [-1, 1]."""
    nodes = np.array(_GAUSS_HALF_NODES)
    weights = np.array(_GAUSS_HALF_WEIGHTS)
    return np.concatenate((-nodes[::-1], nodes)), np.concatenate((weights[::-1], weights))


def _gauss_sum(values: np.ndarray) -> np.ndarray:
    """Gauss-Legendre weighted sum over the last axis, whose length is a multiple of 12.

    Each row is an elementwise product summed along the row, so a node's
    value does not depend on the other rows of its block.
    """
    nodes, weights = _gauss_legendre()
    weights = np.tile(weights, values.shape[-1] // nodes.size)
    return (values * weights).sum(axis=-1)


def _gauss_panel(fn, a: float, b: float) -> np.ndarray:
    """12-point Gauss rule on [a, b] for each row of the (n, 12) values of ``fn``."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * _gauss_sum(fn(mid + half * _gauss_legendre()[0]))


def _near_field(u, xs: np.ndarray, h: float, s: float, u_xx: Optional[Callable]) -> np.ndarray:
    """integral_0^h (2u(x) - u(x+t) - u(x-t)) / t^{1+2s} dt at every node x of ``xs``.

    The symmetrised integrand removes the principal value; subtracting the
    t^2 and t^4 Taylor terms (integrated in closed form) leaves a remainder
    ~ t^{5-2s} that geometric Gauss panels capture without hitting the
    cancellation noise floor of the second central difference.
    """
    ux = u(xs)[:, None]
    x = xs[:, None]

    def phi(t):
        return 2.0 * ux - u(x + t) - u(x - t)

    # Second derivative: analytic when available, else Richardson on phi/t^2.
    eps = h / 8.0
    if u_xx is not None:
        m2 = u_xx(xs)
    else:
        r1 = phi(np.array([eps]))[:, 0] / eps**2
        r2 = phi(np.array([eps / 2.0]))[:, 0] / (eps / 2.0) ** 2
        m2 = -(4.0 * r2 - r1) / 3.0
    # Fourth derivative estimate from the t^4 coefficient of phi.
    resid = phi(np.array([eps]))[:, 0] + m2 * eps**2
    m4 = -12.0 * resid / eps**4

    def psi(t):
        return (phi(t) + m2[:, None] * t**2 + (m4[:, None] / 12.0) * t**4) / t ** (1.0 + 2.0 * s)

    # Geometric layers down to ~1e-4, below which the remainder is dominated
    # by floating cancellation in phi; the cut tail is extrapolated as t^{5-2s}.
    layers = max(2, math.ceil(math.log2(max(h / 1e-4, 2.0))))
    total = np.zeros(xs.size)
    hi = h
    for _ in range(layers):
        lo = hi / 2.0
        total += _gauss_panel(psi, lo, hi)
        hi = lo
    tail_density = psi(np.array([hi]))[:, 0]
    total += tail_density * hi / (6.0 - 2.0 * s)

    closed = -m2 * h ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    closed -= (m4 / 12.0) * h ** (4.0 - 2.0 * s) / (4.0 - 2.0 * s)
    return total + closed


def _far_field(us, uxs, xs: np.ndarray, h: float, s: float, l: float, panels: int) -> np.ndarray:
    """integral over (0, x-h) u (x+h, l) of (u(x)-u(y)) |x-y|^{-1-2s} dy at every node x of ``xs``.

    In the log distance xi = log|x-y| the integrand (u(x) - u(x -+ e^xi))
    e^{-2s xi} is analytic for smooth u, so ``panels`` 12-point Gauss-Legendre
    panels on each side's [log h, log reach] converge geometrically in the
    panel count, whatever the grid.  Returns one row per shape of ``us``,
    whose values at ``xs`` are ``uxs``, and one column per node.  The nodes go
    in blocks of about ``_FAR_BLOCK_POINTS`` points, and the shapes share each
    block's log grid and kernel.
    """
    # each point's place in its side's [log h, log reach], as a fraction
    frac = ((np.arange(panels)[:, None] + 0.5 * (1.0 + _gauss_legendre()[0])) / panels).ravel()
    lo = math.log(h)
    total = np.zeros((len(us), xs.size))
    block = max(1, _FAR_BLOCK_POINTS // frac.size)
    for start in range(0, xs.size, block):
        rows = slice(start, start + block)
        x, out = xs[rows], total[:, rows]
        for sign, reach in ((-1.0, x), (1.0, l - x)):
            far = reach > h * (1.0 + 1e-12)  # a node next to this wall has no far field here
            span = np.log(reach[far]) - lo
            xi = lo + span[:, None] * frac
            kernel = np.exp(-2.0 * s * xi)
            y = x[far, None] + sign * np.exp(xi)
            for k, (u, ux) in enumerate(zip(us, uxs)):
                values = (ux[rows][far, None] - u(y)) * kernel
                out[k, far] += 0.5 * span / panels * _gauss_sum(values)
    return total


def quadrature_oracle(
    us: Sequence[ArrayFn],
    grid: Grid,
    u_xx: Optional[Sequence[Optional[ArrayFn]]] = None,
) -> Tuple[np.ndarray, ...]:
    """Fractional Laplacian of smooth zero-extended shapes at the interior nodes.

    Reference values computed straight from the defining singular integral,
    independent of the stiffness matrix, for measuring its consistency defect.
    ``us`` is a tuple of vectorised shapes, evaluable anywhere on [0, l], and
    ``u_xx`` None or a matching tuple of analytic second derivatives, each
    possibly None (a finite-difference estimate is used then); the result is
    a tuple of images.  The far field starts at ``_QUADRATURE_PANELS`` 12-point
    Gauss-Legendre panels on each side of a node, whatever the grid, and the
    count is always doubled until two successive counts agree to
    ``_QUADRATURE_RTOL``, the first check comparing the starting count with
    twice it; disagreement that persists through ``_QUADRATURE_DOUBLINGS``
    doublings raises :class:`QuadratureConvergenceError`.  The shapes share
    the far-field grids, and each stops doubling at its own converged count,
    so its image does not depend on the other shapes.  Analytic shapes such
    as sin(k pi x) pass the first check; the images sit within 2e-14 relative
    of a 512-panel evaluation for N = 7 .. 600, s = 0.1 .. 0.95.  A bump that
    is smooth but not analytic where its support ends converges more slowly:
    it takes up to four doublings, to 128 panels, for N = 600 .. 2400.
    """
    us = tuple(us)
    derivs = (None,) * len(us) if u_xx is None else tuple(u_xx)
    if len(derivs) != len(us):
        raise ValueError(f"got {len(us)} shapes but {len(derivs)} second derivatives")
    s, h, l = grid.s, grid.h, grid.l
    c = normalization_constant(s)
    xs = grid.interior_x()
    panels = _QUADRATURE_PANELS

    uxs = [fn(xs) for fn in us]
    near = [_near_field(fn, xs, h, s, fxx) for fn, fxx in zip(us, derivs)]
    wall = exterior_tail(np.arange(1, grid.N), grid)

    def evaluate(which) -> list:
        """Images of the shapes numbered ``which`` at the current panel count."""
        far = _far_field([us[k] for k in which], [uxs[k] for k in which], xs, h, s, l, panels)
        return [c * (near[k] + far[j] + uxs[k] * wall) for j, k in enumerate(which)]

    pending = list(range(len(us)))
    images = evaluate(pending)
    for _ in range(_QUADRATURE_DOUBLINGS):
        panels *= 2
        gaps = {}
        for k, image in zip(pending, evaluate(pending)):
            scale = 1.0 + float(np.max(np.abs(image)))
            gap = float(np.max(np.abs(image - images[k])))
            images[k] = image
            if gap > _QUADRATURE_RTOL * scale:
                gaps[k] = gap
        pending = list(gaps)
        if not pending:
            return tuple(images)
    raise QuadratureConvergenceError(
        f"far-field quadrature not converged: gap {max(gaps.values()):.3e} at {panels} panels"
    )
