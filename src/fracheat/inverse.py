"""Simultaneous recovery of the time coefficient and the state.

The overdetermination pairing h <U, omega> turns each Crank-Nicolson step
into a scalar equation for the midpoint coefficient.  Since
L^{-1} R = 2 L^{-1} - I, the split

    V = L^{-1} U^n,   Y = L^{-1} R U^n = 2 V - U^n,   S = L^{-1} F^{n+1/2}

makes the step U^{n+1} = Y + tau r S linear in r, and pairing the discrete
flux identity with the weight gives the closed expression

    r^{n+1/2} = [ (w^{n+1} - w^n)/tau + h <A V, omega> ]
                / [ h <F^{n+1/2}, omega> - tau/2 h <A S, omega> ].

Since F - tau/2 A S = L S - tau/2 A S = S, the denominator is h <S, omega>,
and it is evaluated in that form: when tau lambda_1 >> 1 the two terms of
the difference share their leading digits, which the subtraction loses
(three digits of r at s = 0.99, N = 300, tau = 1e3).  A is symmetric, so
the numerator's pairing is a dot product with the vector A omega.  Two
L-solves per step, no nonlinear iteration.  The denominator does not
depend on the measurements, so K measurement series over one grid march
together: the states form an n x K block, V is one block solve, and S,
A omega and the denominator are shared by every column.  The denominator is
the discrete identifiability margin; its vanishing means the forcing has
lost visibility in the measurement and is reported, not papered over.

On the modal route (A = Q diag(lambda) Q^T, d = 1 + tau lambda/2, hats for
coefficients in Q) the same step is diagonal and needs no solve:

    r^{n+1/2} = [ (w^{n+1} - w^n)/tau + c . U^n ] / ( h S^ . omega^ ),
    U^{n+1} = g U^n + tau r S^,   S^ = F^/d,   c = h lambda omega^/d,

with g = (1 - tau lambda/2)/d.  Every S^ comes from one product of the
M x n midpoint forcings with Q, so a step costs O(n K), and Q is applied
back once, at the end.

Measurement utilities cover the three data provenances: exact analytic
values, discrete pairings of a computed trajectory, and seeded noisy copies
with optional moving-average smoothing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .forward import StepOperators, _rows_times, make_step_operators
from .grid import CoefficientSeries, Grid, MeasurementSeries, ProblemData, Trajectory

__all__ = [
    "DenominatorNearZero",
    "NoiseSpec",
    "RecoveryStepInternals",
    "discrete_measurement",
    "recover_r_step",
    "run_inverse",
    "run_inverse_batch",
    "measurements_from_trajectory",
    "perturb_measurements",
    "smooth_measurements",
]


class DenominatorNearZero(ArithmeticError):
    """Identifiability failure: h<S,omega> = h<F,omega> - tau/2 h<AS,omega> is numerically zero."""

    def __init__(self, value: float, threshold: float, step: Optional[int] = None):
        self.value = value
        self.threshold = threshold
        self.step = step
        at = f" at step {step}" if step is not None else ""
        super().__init__(
            f"recovery denominator {value:.3e} within guard {threshold:.3e}{at}; "
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


@dataclass(frozen=True)
class RecoveryStepInternals:
    """Intermediates of one recovery step, exposed for the algebraic cross-checks.

    ``y`` and ``v`` have the shape of the state, (n,) or (n, K); ``numerator``
    has one entry per series and ``denominator`` is shared by all of them.
    """

    y: np.ndarray
    s_vec: np.ndarray
    v: np.ndarray
    numerator: Union[float, np.ndarray]
    denominator: float


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
    w_n: Union[float, np.ndarray],
    w_np1: Union[float, np.ndarray],
    f_mid: np.ndarray,
    weight: np.ndarray,
) -> Tuple[Union[float, np.ndarray], np.ndarray, RecoveryStepInternals]:
    """One step of the recovery: closed-form r^{n+1/2}, then U^{n+1} = Y + tau r S.

    ``u_n`` is one state (n,) with scalar measurements, or K states (n, K)
    with measurements of shape (K,); r^{n+1/2} comes back in the same form.
    """
    h = ops.grid.h
    tau = ops.tau
    f_mid = np.asarray(f_mid, dtype=float)
    weight = np.asarray(weight, dtype=float)

    v = ops.solve_l(u_n)
    y = 2.0 * v - u_n
    s_vec = ops.solve_l(f_mid)
    a_weight = ops.op.apply(weight)

    f_pair = discrete_measurement(f_mid, weight, h)
    numerator = (w_np1 - w_n) / tau + h * (a_weight @ v)
    denominator = discrete_measurement(s_vec, weight, h)

    # Relative guard: scale-free version of "the denominator does not vanish".
    threshold = 1e-12 * max(1.0, abs(f_pair))
    if abs(denominator) <= threshold:
        raise DenominatorNearZero(denominator, threshold)

    r_mid = numerator / denominator
    u_np1 = y + np.multiply.outer(s_vec, tau * r_mid)
    internals = RecoveryStepInternals(
        y=y, s_vec=s_vec, v=v, numerator=numerator, denominator=denominator
    )
    return r_mid, u_np1, internals


def _march(
    problem: ProblemData,
    grid: Grid,
    w: np.ndarray,
    ops: Optional[StepOperators],
    compatibility_tol: float,
    states: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Recover K series at once: w is (M+1, K); returns r (M, K) and U^M (n, K).

    When ``states`` is given, U^n of the first series is written to
    ``states[n]`` along the way.
    """
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

    if states is not None:
        states[0] = problem.phi
    if ops.solver == "modal":
        recovered, u = _march_modal(problem, grid, w, ops, states)
    else:
        u = np.repeat(problem.phi[:, None], w.shape[1], axis=1)
        t_mid = grid.midpoint_times()
        recovered = np.empty((grid.M, w.shape[1]))
        for n in range(grid.M):
            f_mid = problem.forcing(float(t_mid[n]))
            try:
                recovered[n], u, _ = recover_r_step(
                    ops, u, w[n], w[n + 1], f_mid, problem.weight
                )
            except DenominatorNearZero as exc:
                raise DenominatorNearZero(exc.value, exc.threshold, step=n) from exc
            if states is not None:
                states[n + 1] = u[:, 0]
    if not (np.all(np.isfinite(recovered)) and np.all(np.isfinite(u))):
        raise ValueError("recovery produced non-finite values")
    return recovered, u


def _march_modal(
    problem: ProblemData,
    grid: Grid,
    w: np.ndarray,
    ops: StepOperators,
    states: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """The march of :func:`_march` in the eigenbasis of A."""
    h, tau = grid.h, ops.tau
    weight = np.asarray(problem.weight, dtype=float)
    q, lam, d = ops.eigenbasis()
    t_mid = grid.midpoint_times()
    s_hat = np.empty((grid.M, grid.interior_dim))
    for n in range(grid.M):
        s_hat[n] = problem.forcing(float(t_mid[n]))
    f_pair = h * (s_hat @ weight)
    _rows_times(s_hat, q)
    s_hat /= d
    w_hat = q.T @ weight
    # the denominator does not depend on the data: check every step up front
    denominators = h * (s_hat @ w_hat)
    thresholds = 1e-12 * np.maximum(1.0, np.abs(f_pair))
    failed = np.flatnonzero(np.abs(denominators) <= thresholds)
    if failed.size:
        n = int(failed[0])
        raise DenominatorNearZero(float(denominators[n]), float(thresholds[n]), step=n)

    g = ((1.0 - (tau / 2.0) * lam) / d)[:, None]
    c = h * lam * w_hat / d
    rates = np.diff(w, axis=0) / tau
    u_hat = np.repeat((q.T @ problem.phi)[:, None], w.shape[1], axis=1)
    recovered = np.empty((grid.M, w.shape[1]))
    for n in range(grid.M):
        r_mid = (rates[n] + c @ u_hat) / denominators[n]
        u_hat *= g
        u_hat += np.multiply.outer(s_hat[n], tau * r_mid)
        recovered[n] = r_mid
        if states is not None:
            states[n + 1] = u_hat[:, 0]
    if states is not None:
        _rows_times(states[1:], q.T)
    return recovered, q @ u_hat


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
    recovered, _ = _march(
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
    """Recover K measurement series in one march over the time steps.

    ``measurements`` is an (M+1, K) array, one series per column.  Returns the
    recovered coefficients (M, K) and the final states U^M (n, K); column k
    is what :func:`run_inverse` returns for series k.  The denominator is
    shared, so a :class:`DenominatorNearZero` fails every series at once.
    """
    w = np.asarray(measurements, dtype=float)
    if w.ndim != 2:
        raise ValueError(f"expected an (M+1, K) array of series, got shape {w.shape}")
    return _march(problem, grid, w, ops, compatibility_tol)


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
