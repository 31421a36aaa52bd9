"""Simultaneous recovery of the time coefficient and the state.

The overdetermination pairing h <U, omega> turns each Crank-Nicolson step
L U^{n+1} = R U^n + tau r F^{n+1/2} into a scalar equation for the midpoint
coefficient.  L is symmetric, and R = L - tau A, so with the adjoint weights

    y = L^{-1} omega,   z = A y

the pairing h <L^{-1} R U^n, omega> is h <U^n, omega> - tau h <z, U^n>,
because L^{-1} and A commute.  With the measurement w^n in place of
h <U^n, omega>, the step gives the closed expression

    r^{n+1/2} = [ (w^{n+1} - w^n)/tau + h <z, U^n> ] / h <F^{n+1/2}, y>.

Then U^{n+1} = L^{-1} (R U^n + tau r F^{n+1/2}), the forward step.  A run of
M steps costs one L-solve for y, one matvec for z and one L-solve per step.

z is the product A y, not the solution of L z = A omega: both are
L^{-1} A omega, but the solve adds the solver's error to every numerator,
and on the CG route that cost a digit of r (2.2e-12 against 9e-14 at
example 2, s = 0.5, N = 1500, M = 10, T = 0.1), while the matvec is exact
to rounding.  Nor is z taken as (2/tau)(omega - y), equal by L y = omega:
for the low modes y is close to omega and the difference cancels.  The
denominator h <F, y> is h <S, omega> with S = L^{-1} F, formed without the
difference h <F, omega> - tau/2 h <A S, omega>, whose terms share their
leading digits when tau lambda_1 >> 1 (three digits of r at s = 0.99,
N = 300, tau = 1e3).  No nonlinear iteration.

One march serves every solver route and K measurement series at once, as
an n x K block of states; only a batch on a route whose L^-1 R is diagonal
in its coordinates, ``StepOperators.decay`` (the modal route), takes the
blocked form below.  The denominators do not depend on the data, so
every one of them, the discrete identifiability margin, is checked before
the first step or solve; a vanishing one is reported with its step, not
papered over.  Each step is ``StepOperators.advance``: one block solve on
the Cholesky and CG routes, and g U + (F^/d) tau r on the modal route, with
g = (1 - tau lambda/2)/d and d = 1 + tau lambda/2, where z = lambda omega^/d.

The recovery is a discrete Volterra equation of the second kind.  With
G = L^-1 R and S_j = L^-1 F_j, U^n = G^n U^0 + tau sum_{j<n} G^{n-1-j} S_j r_j,
so the numerator's h <z, U^n> is affine in the past r.  With
a_n = h <z, G^n U^0> and K[n, j] = h <G^{n-1-j} z, S_j> for j < n,

    (D - tau K) r = (w^{n+1} - w^n)/tau + a,   D = diag(h <F^{n+1/2}, y>),

one lower-triangular system with one right-hand side per series.  In the
eigenbasis G^m is the diagonal power g^m.  ``run_inverse_batch`` on the
modal route, and so the noise study, solves it in blocks of B steps that
carry the state U^s from one block to the next (Hairer, Lubich & Schlichte,
SIAM J. Sci. Stat. Comput. 6, 1985): within a block, a and the B x B
kernel are matrix products with the powers g^m, m < B, r follows by
forward substitution, and U^(s+B) = g^B U^s + tau sum_j g^(B-1-j) S_j r_j
is one product with the block of r.  A block costs about B n (B + 2K)
multiply-adds, so the solve is linear in M; B = M would be the whole
triangular system, B = 1 the march.  At N = M = 800 and K = 180 it took
40 ms against the march's 234 ms (one BLAS thread).  Where tau lambda >> 1,
g ~ -1 and the kernel sums terms of alternating sign, so r keeps fewer
digits than the march's: 3.3e-13 against 1.4e-14 relative to a long-double
march at s = 0.99, tau = 1e3, N = 2, M = 2049 (interpolated).  The march
stays for one series, whose output is every state, for ``recover_r_step``,
and for batches on the Cholesky and CG routes, where U^M of K series would
still cost a K-column solve per step.  One series writes its states, in
route coordinates, into the one (M+1, n) array that held its forcings, and
``StepOperators.trajectory`` ends it as it ends a forward run: in place, with
the modal route kept.

Measurement utilities cover the three data provenances: exact analytic
values, discrete pairings of a computed trajectory, and seeded noisy copies
with optional moving-average smoothing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .forward import StepOperators, _forcing_rows, _run_operators
from .grid import CoefficientSeries, Grid, MeasurementSeries, ProblemData, Trajectory

__all__ = [
    "DenominatorNearZero",
    "NoiseSpec",
    "discrete_measurement",
    "recover_r_step",
    "run_inverse",
    "run_inverse_batch",
    "measurements_from_trajectory",
    "perturb_measurements",
    "smooth_measurements",
]


# omega, y = L^-1 omega and z = A y in route coordinates
Adjoint = Tuple[np.ndarray, np.ndarray, np.ndarray]

# steps per block of the modal batch's Volterra solve: its kernel is B x B and its
# powers g^m B x n, so the solve is linear in M.  At N = M = 800 and K = 180 blocks
# of 16 steps took 1.16 times as long as blocks of 32, and blocks of 64 0.93 times;
# at N = M = 200 and K = 60 the three were within 3 % (one BLAS thread)
_VOLTERRA_BLOCK = 32

# the relative gap between w(0) and h <phi, omega> above which a recovery warns,
# unless given another tolerance
COMPATIBILITY_TOL = 1e-2


class DenominatorNearZero(ArithmeticError):
    """Identifiability failure: the recovery denominator h<F, L^-1 omega> is numerically zero.

    It is h<S, omega> with S = L^-1 F, the weighted pairing of the forcing's
    step response; ``threshold`` is 1e-12 max(1, |h<F, omega>|)."""

    def __init__(self, value: float, threshold: float, step: int):
        self.value = value
        self.threshold = threshold
        self.step = step
        super().__init__(
            f"recovery denominator {value:.3e} within guard {threshold:.3e} at step {step}; "
            "the weighted forcing integral vanishes on this grid"
        )


@dataclass(frozen=True)
class NoiseSpec:
    """Relative measurement-noise model: uniform [-1, 1] draws scaled by delta."""

    delta: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"noise level delta must lie in [0, 1), got {self.delta}")
        if self.seed < 0:
            raise ValueError(f"noise seed must be a non-negative integer, got {self.seed}")


def discrete_measurement(u: np.ndarray, weight: np.ndarray, h: float) -> float:
    """Discrete pairing h sum_i U_i omega_i approximating the weighted integral."""
    u = np.asarray(u, dtype=float)
    weight = np.asarray(weight, dtype=float)
    if u.shape != weight.shape:
        raise ValueError(f"length mismatch: state {u.shape} vs weight {weight.shape}")
    return h * float(u @ weight)


def recover_r_step(
    ops: StepOperators,
    u_n: np.ndarray,
    w_n: float,
    w_np1: float,
    f_mid: np.ndarray,
    weight: np.ndarray,
) -> Tuple[float, np.ndarray]:
    """One step of the recovery, the M = 1 march: closed-form r^{n+1/2}, then U^{n+1}.

    ``u_n`` is one state (n,) and ``w_n``, ``w_np1`` are its two scalar
    measurements; returns r^{n+1/2} as a float and U^{n+1} as (n,).  No fracheat
    module calls it; it stays because ``perfbench/tracing.py`` wraps it by name
    and refuses to install without it."""
    weight = np.asarray(weight, dtype=float)
    adjoint = _adjoint_weights(ops, weight)
    forcings = _forcing_rows(lambda t: f_mid, [0.0], ops.to_basis, np.empty((1, weight.size)))
    r, u = _march(ops, adjoint, np.array(u_n, float)[:, None],
                  np.array([[w_n], [w_np1]], dtype=float), forcings)
    return float(r[0, 0]), u[:, 0]


def _adjoint_weights(ops: StepOperators, weight: np.ndarray) -> Adjoint:
    """omega, y = L^-1 omega and z = A y in route coordinates: one L-solve and one matvec."""
    omega = ops.to_basis(weight[None].copy())[0]
    y = ops.solve(omega.copy())
    return omega, y, ops.times_a(y)


def _prologue(
    ops: StepOperators, adjoint: Adjoint, u: np.ndarray, forcings: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """What both solutions of the recovery do before any work, given the forcings (M, n)
    in route coordinates: take U^0 (n, K) to them in place and check every denominator
    h <F, y>.  Returns U^0 and the denominators."""
    omega, y, _ = adjoint
    h = ops.grid.h
    f_pair = h * (forcings @ omega)
    denominators = h * (forcings @ y)
    thresholds = 1e-12 * np.maximum(1.0, np.abs(f_pair))  # scale-free "does not vanish"
    failed = np.flatnonzero(np.abs(denominators) <= thresholds)
    if failed.size:
        n = int(failed[0])
        raise DenominatorNearZero(float(denominators[n]), float(thresholds[n]), step=n)
    return ops.to_basis(u.T).T, denominators


def _nodal_and_finite(
    ops: StepOperators, recovered: np.ndarray, u: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Take U^M (n, K) back to nodal values in place and refuse a non-finite result."""
    ops.from_basis(u.T)
    if not (np.all(np.isfinite(recovered)) and np.all(np.isfinite(u))):
        raise ValueError("recovery produced non-finite values")
    return recovered, u


def _march(
    ops: StepOperators,
    adjoint: Adjoint,
    u: np.ndarray,
    w: np.ndarray,
    forcings: np.ndarray,
    states: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The march: r (M, K) and U^M (n, K) of K series from U^0 = u, w (M+1, K), the
    M forcings as rows in route coordinates and ``_adjoint_weights``.  ``u`` is (n, K),
    or (n, 1) for a U^0 that every series shares; it is overwritten.  U^n of the
    first series goes to ``states[n]``, n >= 1, in route coordinates, when ``states``
    is given, for ``ops.trajectory`` to end."""
    u, denominators = _prologue(ops, adjoint, u, forcings)
    tau = ops.tau
    hz = ops.grid.h * adjoint[2]  # the numerator's h <z, U^n> is hz @ U^n
    if u.shape[1] != w.shape[1]:
        u = np.repeat(u, w.shape[1], axis=1)
    recovered = np.empty((forcings.shape[0], w.shape[1]))
    for n in range(forcings.shape[0]):
        recovered[n] = ((w[n + 1] - w[n]) / tau + hz @ u) / denominators[n]
        u = ops.advance(u, forcings[n], tau * recovered[n])
        if states is not None:  # states[n + 1] may share memory with the spent forcings[n]
            states[n + 1] = u[:, 0]
    return _nodal_and_finite(ops, recovered, u)


def _solve_volterra(
    ops: StepOperators,
    adjoint: Adjoint,
    u: np.ndarray,
    w: np.ndarray,
    forcings: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """What ``_march`` returns for a U^0 (n, 1) that K series share, where L^-1 R is
    the diagonal ``ops.decay``: (D - tau K) r = dw/tau + a solved ``_VOLTERRA_BLOCK``
    steps at a time by ``_volterra_block``, which carries the state from one block
    to the next.  ``forcings`` is overwritten."""
    u, denominators = _prologue(ops, adjoint, u, forcings)
    m_steps, n = forcings.shape
    powers = np.empty((min(_VOLTERRA_BLOCK, m_steps), n))  # g^m, m < B
    powers[0] = 1.0
    powers[1:] = ops.decay
    np.cumprod(powers, axis=0, out=powers)
    hz_powers = (ops.grid.h * adjoint[2]) * powers
    recovered = (w[1:] - w[:-1]) / ops.tau
    for start in range(0, m_steps, _VOLTERRA_BLOCK):
        b = min(_VOLTERRA_BLOCK, m_steps - start)
        steps = slice(start, start + b)
        u = _volterra_block(ops, powers[:b], hz_powers[:b], u, forcings[steps],
                            recovered[steps], denominators[steps])
    return _nodal_and_finite(ops, recovered, u)


def _volterra_block(
    ops: StepOperators,
    powers: np.ndarray,
    hz_powers: np.ndarray,
    u: np.ndarray,
    forcings: np.ndarray,
    recovered: np.ndarray,
    denominators: np.ndarray,
) -> np.ndarray:
    """b steps of the modal Volterra solve from the eigenbasis state U^s (n, K), or
    (n, 1) shared, to U^(s+b), which it returns.

    ``powers`` and ``hz_powers`` hold g^m and h z g^m for m < b, ``forcings`` the
    block's F^_j (b, n) and ``recovered`` its dw/tau (b, K), overwritten with r.
    a_m = hz g^m U^s, and with S^_j = L^-1 F^_j, E[j, m] = hz g^m S^_j, so row m
    of the block's K is E[j, m-1-j], j < m, read by forward substitution."""
    tau = ops.tau
    recovered += hz_powers @ u
    s = ops.solve(forcings.T).T
    e = s @ hz_powers.T
    for m in range(recovered.shape[0]):  # row m of K is a view of E's antidiagonal
        recovered[m] += tau * (e[:m, m - 1 :: -1].diagonal() @ recovered[:m])
        recovered[m] /= denominators[m]
    s *= powers[::-1]  # row j becomes g^(b-1-j) S^_j, the weight of r_j in U^(s+b)
    final = s.T @ recovered
    final *= tau
    final += (powers[-1] * ops.decay)[:, None] * u
    return final


def _recover_series(
    problem: ProblemData,
    grid: Grid,
    w: np.ndarray,
    ops: Optional[StepOperators],
    compatibility_tol: float,
    states: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Recover K series of ``problem`` at once: w is (M+1, K); returns r (M, K) and U^M (n, K)."""
    if w.shape[0] != grid.M + 1:
        raise ValueError(f"expected {grid.M + 1} measurements, got {w.shape[0]}")
    ops = _run_operators(problem, grid, ops, series=w.shape[1])

    w0_discrete = discrete_measurement(problem.phi, problem.weight, grid.h)
    gap = np.max(np.abs(w0_discrete - w[0]) / np.maximum(np.abs(w[0]), 1e-300))
    if gap > compatibility_tol:
        warnings.warn(
            f"initial measurement incompatible with phi: relative gap {gap:.3e}",
            stacklevel=3,
        )

    # the adjoint weights first, so an eigendecomposition they build peaks before the
    # forcings fill memory; rows 1..M of a trajectory hold them until the states replace them
    adjoint = _adjoint_weights(ops, problem.weight)
    forcings = np.empty((grid.M, grid.interior_dim)) if states is None else states[1:]
    _forcing_rows(problem.forcing, grid.midpoint_times(), ops.to_basis, forcings)
    u = problem.phi[:, None].copy()
    if states is None and ops.decay is not None:
        return _solve_volterra(ops, adjoint, u, w, forcings)
    return _march(ops, adjoint, u, w, forcings, states)


def run_inverse(
    problem: ProblemData,
    grid: Grid,
    measurements: Optional[MeasurementSeries] = None,
    ops: Optional[StepOperators] = None,
    compatibility_tol: float = COMPATIBILITY_TOL,
) -> Tuple[Trajectory, CoefficientSeries]:
    """Recover the full coefficient series and trajectory from measured integrals.

    Warns when the initial measurement is incompatible with the sampled
    initial profile beyond ``compatibility_tol`` relative (the continuum
    requirement is w(0) = integral of omega * phi).  Step failures propagate
    with the step index attached.  ``ops`` is built on ``grid`` when not given,
    and refused with ``ValueError`` when built on another grid, as in
    :func:`fracheat.forward.run_forward`.  The march writes its states into one
    array, which ``ops.trajectory`` ends as it ends a forward run: on the modal
    route the trajectory keeps its route.
    """
    if measurements is None:
        measurements = problem.measurements
        if measurements is None:
            raise ValueError("no measurements: pass them or set problem.measurements")
    ops = _run_operators(problem, grid, ops)
    states = np.empty((grid.M + 1, grid.interior_dim))
    recovered, _ = _recover_series(
        problem, grid, measurements.values[:, None], ops, compatibility_tol, states
    )
    return ops.trajectory(problem.phi, states), CoefficientSeries(values=recovered[:, 0])


def run_inverse_batch(
    problem: ProblemData,
    grid: Grid,
    measurements: np.ndarray,
    ops: Optional[StepOperators] = None,
    compatibility_tol: float = COMPATIBILITY_TOL,
) -> Tuple[np.ndarray, np.ndarray]:
    """Recover K measurement series at once: the blocked Volterra solve on the modal
    route, one march over the time steps on the others.

    ``measurements`` is an (M+1, K) array, one series per column.  Returns the
    recovered coefficients (M, K) and the final states U^M (n, K); column k
    is what :func:`run_inverse` returns for series k, to rounding on the modal
    route.  The denominator is shared, so a :class:`DenominatorNearZero` fails
    every series at once.
    """
    w = np.asarray(measurements, dtype=float)
    if w.ndim != 2:
        raise ValueError(f"expected an (M+1, K) array of series, got shape {w.shape}")
    return _recover_series(problem, grid, w, ops, compatibility_tol)


def measurements_from_trajectory(
    trajectory: Trajectory, weight: np.ndarray, grid: Grid
) -> MeasurementSeries:
    """Pair a computed trajectory with the weight: the discrete-generated data."""
    if not trajectory.matches_grid(grid):
        raise ValueError("trajectory shape does not match the grid")
    values = grid.h * trajectory.states @ np.asarray(weight, dtype=float)
    return MeasurementSeries(values=values, provenance="discrete-generated")


def perturb_measurements(measurements: MeasurementSeries, spec: NoiseSpec) -> MeasurementSeries:
    """Additive seeded noise, relative to the sup of the series:

    w_delta^n = w^n + delta * ||w||_inf * eta_n with eta_n iid uniform[-1, 1].
    """
    w = measurements.values
    rng = np.random.default_rng(spec.seed)
    eta = rng.uniform(-1.0, 1.0, size=w.size)
    scale = spec.delta * float(np.max(np.abs(w)))
    return MeasurementSeries(
        values=w + scale * eta,
        provenance=f"noisy(delta={spec.delta:g}, seed={spec.seed})",
    )


def smooth_measurements(measurements: MeasurementSeries, window: int) -> MeasurementSeries:
    """Centred moving average; near the ends the window shrinks to stay centred.

    window = 1 is the identity.  Intended for noisy data only: the recovery
    formula differences w, so raw noise is amplified by 1/tau.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be an odd integer >= 1, got {window}")
    w = measurements.values
    if window > w.size:
        raise ValueError(f"window {window} exceeds series length {w.size}")
    if window == 1:
        return measurements
    half = window // 2
    n = w.size
    out = np.empty_like(w)
    # Each window is summed left to right, the order np.mean uses below 9 points.
    for k in range(half + 1):  # windows of 2k + 1 points: the two ends, then the interior
        width = 2 * k + 1
        starts = np.arange(n - width + 1) if k == half else np.array([0, n - width])
        total = w[starts]
        for j in range(1, width):
            total += w[starts + j]
        out[starts + k] = total / width
    return MeasurementSeries(
        values=out, provenance=f"{measurements.provenance}+smoothed(window={window})"
    )
