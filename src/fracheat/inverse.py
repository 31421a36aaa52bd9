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
the numerator's pairing is a dot product with the vector A omega.  No
nonlinear iteration.

One march serves every solver route and K measurement series at once, as
an n x K block of states.  The denominators do not depend on the data, so
it solves for every S and checks every denominator, the discrete
identifiability margin, before the first step; a vanishing one is reported
with its step, not papered over.  Each step takes (h <A omega, V>, Y) from
``StepOperators.recovery_step``: one block solve on the Cholesky and CG
routes, and the products c . U and g U on the modal route, with
c = h lambda omega^/d, g = (1 - tau lambda/2)/d and d = 1 + tau lambda/2.

Measurement utilities cover the three data provenances: exact analytic
values, discrete pairings of a computed trajectory, and seeded noisy copies
with optional moving-average smoothing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .forward import RecoveryStep, StepOperators, _check_forcings, make_step_operators
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


class DenominatorNearZero(ArithmeticError):
    """Identifiability failure: h<S,omega> = h<F,omega> - tau/2 h<AS,omega> is numerically zero."""

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
) -> Tuple[Union[float, np.ndarray], np.ndarray]:
    """One step of the recovery, the M = 1 march: closed-form r^{n+1/2}, then U^{n+1}.

    ``u_n`` is one state (n,) with scalar measurements, or K states (n, K) with
    measurements of shape (K,); r^{n+1/2} and U^{n+1} come back in that form."""
    u_n = np.asarray(u_n, dtype=float)
    w = np.array([w_n, w_np1], dtype=float).reshape(2, -1)
    weight = np.asarray(weight, dtype=float)
    r, u = _march(ops, ops.recovery_step(weight), u_n.reshape(len(u_n), -1).copy(), w,
                  np.array(f_mid, float, ndmin=2), weight)
    return (float(r[0, 0]), u[:, 0]) if u_n.ndim == 1 else (r[0], u)


def _march(
    ops: StepOperators,
    step: RecoveryStep,
    u: np.ndarray,
    w: np.ndarray,
    forcings: np.ndarray,
    weight: np.ndarray,
    states: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The march: r (M, K) and U^M (n, K) of K series from U^0 = u, w (M+1, K), the
    M forcings as rows and ``ops.recovery_step(weight)``.  ``u`` is (n, K), or (n, 1)
    for a U^0 that every series shares; it and ``forcings`` are overwritten.  U^n of
    the first series goes to ``states[n]`` when ``states`` is given."""
    _check_forcings(forcings)
    h, tau = ops.grid.h, ops.tau
    f_pair = h * (forcings @ weight)
    s_rows = ops.solve(ops.to_basis(forcings).T).T
    denominators = h * (s_rows @ ops.to_basis(weight[None].copy())[0])
    thresholds = 1e-12 * np.maximum(1.0, np.abs(f_pair))  # scale-free "does not vanish"
    failed = np.flatnonzero(np.abs(denominators) <= thresholds)
    if failed.size:
        n = int(failed[0])
        raise DenominatorNearZero(float(denominators[n]), float(thresholds[n]), step=n)

    u = ops.to_basis(u.T).T
    if u.shape[1] != w.shape[1]:
        u = np.repeat(u, w.shape[1], axis=1)
    recovered = np.empty((forcings.shape[0], w.shape[1]))
    for n in range(forcings.shape[0]):
        pairing, u = step(u)
        recovered[n] = ((w[n + 1] - w[n]) / tau + pairing) / denominators[n]
        u += np.multiply.outer(s_rows[n], tau * recovered[n])
        if states is not None:  # states[n + 1] may share memory with the spent s_rows[n]
            states[n + 1] = u[:, 0]
    if states is not None:
        ops.from_basis(states[1:])
    ops.from_basis(u.T)
    if not (np.all(np.isfinite(recovered)) and np.all(np.isfinite(u))):
        raise ValueError("recovery produced non-finite values")
    return recovered, u


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

    # the step first, so an eigendecomposition it builds peaks before the forcings
    # fill memory; rows 1..M of a trajectory hold them until the states replace them
    step = ops.recovery_step(problem.weight)
    forcings = np.empty((grid.M, grid.interior_dim)) if states is None else states[1:]
    for n, t in enumerate(grid.midpoint_times()):
        forcings[n] = problem.forcing(float(t))
    if states is not None:
        states[0] = problem.phi
    return _march(ops, step, problem.phi[:, None].copy(), w, forcings, problem.weight, states)


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
    """Recover K measurement series in one march over the time steps.

    ``measurements`` is an (M+1, K) array, one series per column.  Returns the
    recovered coefficients (M, K) and the final states U^M (n, K); column k
    is what :func:`run_inverse` returns for series k.  The denominator is
    shared, so a :class:`DenominatorNearZero` fails every series at once.
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
