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
an n x K block of states; only a batch on the modal route takes the
triangular form below.  The denominators do not depend on the data, so
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

one lower-triangular system with one right-hand side per series, solved by
forward substitution.  In the eigenbasis G^m is the diagonal power g^m, so
K takes one matrix product per block of powers, and
U^M = g^M U^0 + tau sum_j g^{M-1-j} S_j r_j one product with the M x K block
of r.  ``run_inverse_batch`` on the modal route, and so the noise study,
solves it: at N = M = 200 and K = 60 that took 3 ms against 6.5 ms for the
march (one BLAS thread).  Its cost grows as M^2 (n + 2K) against the
march's M n K, so a size rule (``_volterra_pays``) keeps long runs of few
series, and any run whose M x M kernel would outgrow the forcing and
coefficient tables, on the march.  The march also stays for one series,
whose output is every state, for ``recover_r_step``, and for batches on the
Cholesky and CG routes, where U^M of K series would still cost a K-column
solve per step.

Measurement utilities cover the three data provenances: exact analytic
values, discrete pairings of a computed trajectory, and seeded noisy copies
with optional moving-average smoothing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .forward import StepOperators, _check_forcings, make_step_operators
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


# A modal batch solves the triangular system (_volterra_pays) when E, M x M, holds
# no more values than the forcing and coefficient tables, M <= n + K, and when it
# costs less than the march.  Per step, E's GEMM and the forward substitution take
# about M (n + 2K) multiply-adds at BLAS speed, the march about n K at NumPy's
# elementwise speed plus a fixed cost.  Fitted over N = 64 to 800, M = n/4 to 2n
# and K = 2 to 180 (one BLAS thread): BLAS is _VOLTERRA_RATE times faster, and the
# fixed cost is _VOLTERRA_STEP_COST of the march's multiply-adds.  Where the rule
# takes the triangular form it ran in 0.20-0.87 of the march's time; outside, it
# lost by up to 2.95x (n = 799, M = 2n, K = 2).
_VOLTERRA_RATE = 25.0
_VOLTERRA_STEP_COST = 2000.0
# values per block of powers g^m in _volterra_kernel, and at least 16 rows: at
# n = 199 two blocks of 32 KB, where stability_bounds' 1 << 15 values raised the
# peak of the N = M = 200 noise study of 60 series by 0.77 MB; at n = 799, M = 800,
# K = 60 the batch took 74 ms with 16 rows against 119 ms with 4,096 values' 5
_KERNEL_BLOCK_VALUES = 1 << 12


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
    measurements; returns r^{n+1/2} as a float and U^{n+1} as (n,)."""
    weight = np.asarray(weight, dtype=float)
    r, u = _march(ops, _adjoint_weights(ops, weight), np.array(u_n, float)[:, None],
                  np.array([[w_n], [w_np1]], dtype=float), np.array(f_mid, float, ndmin=2), weight)
    return float(r[0, 0]), u[:, 0]


def _adjoint_weights(ops: StepOperators, weight: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """y = L^-1 omega and z = A y in route coordinates: one L-solve and one matvec."""
    y = ops.solve(ops.to_basis(weight[None].copy())[0])
    return y, ops.times_a(y)


def _prologue(
    ops: StepOperators, y: np.ndarray, u: np.ndarray, forcings: np.ndarray, weight: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What both solutions of the recovery do before any work: check the forcings,
    take U^0 (n, K) and the forcings (M, n) to route coordinates in place, and check
    every denominator h <F, y>.  Returns the three."""
    _check_forcings(forcings)
    h = ops.grid.h
    f_pair = h * (forcings @ weight)
    forcings = ops.to_basis(forcings)
    denominators = h * (forcings @ y)
    thresholds = 1e-12 * np.maximum(1.0, np.abs(f_pair))  # scale-free "does not vanish"
    failed = np.flatnonzero(np.abs(denominators) <= thresholds)
    if failed.size:
        n = int(failed[0])
        raise DenominatorNearZero(float(denominators[n]), float(thresholds[n]), step=n)
    return ops.to_basis(u.T).T, forcings, denominators


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
    adjoint: Tuple[np.ndarray, np.ndarray],
    u: np.ndarray,
    w: np.ndarray,
    forcings: np.ndarray,
    weight: np.ndarray,
    states: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The march: r (M, K) and U^M (n, K) of K series from U^0 = u, w (M+1, K), the
    M forcings as rows and ``_adjoint_weights(ops, weight)``.  ``u`` is (n, K), or
    (n, 1) for a U^0 that every series shares; it and ``forcings`` are overwritten.
    U^n of the first series goes to ``states[n]`` when ``states`` is given."""
    y, z = adjoint
    u, forcings, denominators = _prologue(ops, y, u, forcings, weight)
    tau = ops.tau
    hz = ops.grid.h * z  # the numerator's h <z, U^n> is hz @ U^n
    if u.shape[1] != w.shape[1]:
        u = np.repeat(u, w.shape[1], axis=1)
    recovered = np.empty((forcings.shape[0], w.shape[1]))
    for n in range(forcings.shape[0]):
        recovered[n] = ((w[n + 1] - w[n]) / tau + hz @ u) / denominators[n]
        u = ops.advance(u, forcings[n], tau * recovered[n])
        if states is not None:  # states[n + 1] may share memory with the spent forcings[n]
            states[n + 1] = u[:, 0]
    if states is not None:
        ops.from_basis(states[1:])
    return _nodal_and_finite(ops, recovered, u)


def _volterra_kernel(
    ops: StepOperators, hz: np.ndarray, u0: np.ndarray, forcings: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The modal batch's Volterra kernel, from the powers g^m, m < M, formed by
    repeated products a block of ``_KERNEL_BLOCK_VALUES`` at a time.

    ``forcings`` are the F^_j (M, n) in the eigenbasis; with S^_j = L^-1 F^_j, returns
    E (M, M) with E[j, m] = hz g^m S^_j wherever j + m <= M - 2, the entries K reads,
    a (M,) with a_m = hz g^m U^0, and g^M.  Row j of ``forcings`` becomes
    g^(M-1-j) S^_j, the weight of r_j in U^M: a block scales the rows that only
    earlier blocks read."""
    g = ops._diagonals[2]
    s = ops.solve(forcings.T).T
    m_steps, n = s.shape
    e = np.empty((m_steps, m_steps))
    a = np.empty(m_steps)
    rows = max(16, _KERNEL_BLOCK_VALUES // n)
    powers, hz_powers = np.empty((2, min(rows, m_steps), n))
    power = np.ones(n)
    for start in range(0, m_steps, rows):
        stop = min(start + rows, m_steps)
        pw, hz_pw = powers[: stop - start], hz_powers[: stop - start]
        pw[0] = power
        pw[1:] = g
        np.cumprod(pw, axis=0, out=pw)
        power = pw[-1] * g
        np.multiply(pw, hz, out=hz_pw)
        sources = m_steps - 1 - start
        e[:sources, start:stop] = s[:sources] @ hz_pw.T
        a[start:stop] = hz_pw @ u0
        s[m_steps - stop : m_steps - start] *= pw[::-1]
    return e, a, power


def _solve_volterra(
    ops: StepOperators,
    adjoint: Tuple[np.ndarray, np.ndarray],
    u: np.ndarray,
    w: np.ndarray,
    forcings: np.ndarray,
    weight: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """What ``_march`` returns for a U^0 (n, 1) that K series share, on the modal
    route, from (D - tau K) r = dw/tau + a with K[n, j] = E[j, n-1-j] of
    ``_volterra_kernel``; ``forcings`` is overwritten."""
    y, z = adjoint
    u, forcings, denominators = _prologue(ops, y, u, forcings, weight)
    e, a, power = _volterra_kernel(ops, ops.grid.h * z, u[:, 0], forcings)
    tau = ops.tau
    recovered = (w[1:] - w[:-1]) / tau + a[:, None]
    for n in range(recovered.shape[0]):  # forward substitution; row n of K is a view
        recovered[n] += tau * (e[:n, n - 1 :: -1].diagonal() @ recovered[:n])
        recovered[n] /= denominators[n]
    final = forcings.T @ recovered
    final *= tau
    final += (power * u[:, 0])[:, None]
    return _nodal_and_finite(ops, recovered, final)


def _volterra_pays(m_steps: int, n: int, series: int) -> bool:
    """Whether a modal batch takes the triangular form: ``_VOLTERRA_RATE``'s rule."""
    return m_steps <= n + series and (
        m_steps * (n + 2 * series) <= _VOLTERRA_RATE * (n * series + _VOLTERRA_STEP_COST))


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
    if problem.phi.size != grid.interior_dim:
        raise ValueError("phi length does not match the grid")
    if ops is None:
        ops = make_step_operators(grid, series=w.shape[1])

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
    for n, t in enumerate(grid.midpoint_times()):
        forcings[n] = problem.forcing(float(t))
    u = problem.phi[:, None].copy()
    if states is None and ops.solver == "modal" and _volterra_pays(grid.M, ops.op.size, w.shape[1]):
        return _solve_volterra(ops, adjoint, u, w, forcings, problem.weight)
    if states is not None:
        states[0] = problem.phi
    return _march(ops, adjoint, u, w, forcings, problem.weight, states)


def run_inverse(
    problem: ProblemData,
    grid: Grid,
    measurements: Optional[MeasurementSeries] = None,
    ops: Optional[StepOperators] = None,
    compatibility_tol: float = 1e-2,
) -> Tuple[Trajectory, CoefficientSeries]:
    """Recover the full coefficient series and trajectory from measured integrals.

    Warns when the initial measurement is incompatible with the sampled
    initial profile beyond ``compatibility_tol`` relative (the continuum
    requirement is w(0) = integral of omega * phi).  Step failures propagate
    with the step index attached.
    """
    if measurements is None:
        measurements = problem.measurements
        if measurements is None:
            raise ValueError("no measurements: pass them or set problem.measurements")
    states = np.empty((grid.M + 1, grid.interior_dim))
    recovered, _ = _recover_series(
        problem, grid, measurements.values[:, None], ops, compatibility_tol, states
    )
    return Trajectory(states=states), CoefficientSeries(values=recovered[:, 0])


def run_inverse_batch(
    problem: ProblemData,
    grid: Grid,
    measurements: np.ndarray,
    ops: Optional[StepOperators] = None,
    compatibility_tol: float = 1e-2,
) -> Tuple[np.ndarray, np.ndarray]:
    """Recover K measurement series at once: one lower-triangular solve on the modal
    route where ``_volterra_pays``, one march over the time steps otherwise.

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
