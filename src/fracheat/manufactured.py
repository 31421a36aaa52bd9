"""Manufactured benchmark problems with known state, coefficient, and data.

Both benchmarks build the state from separable terms coef(t) * shape(x) with
sine shapes, so the forcing f = (u_t + (-Delta)^s u) / r needs the operator
image of each spatial shape exactly once per grid.  Two source modes:

* ``discrete``: the shape images come from the assembled matrix A, making the
  exact nodal state an exact solution of the semi-discrete system.  Time
  errors are then measured in isolation (and convergence tables look one
  order cleaner than the operator's spatial consistency warrants).
* ``quadrature``: the images come from the singular-integral reference
  quadrature, so runs feel the true spatial consistency defect of A.

This module owns both sets: ``EXAMPLE_IDS``, the keys of its one id -> builder
mapping, and ``SOURCES``.  The study configuration and the CLI read their
choices from them, as they read ``SOLVERS`` and ``SCHEMES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .grid import Grid, MeasurementSeries, ProblemData, SeparatedForcing
from .riesz import RieszOperator, assemble, quadrature_oracle

__all__ = ["Mode", "ManufacturedProblem", "manufactured_problem", "build_manufactured",
           "EXAMPLE_IDS", "SOURCES"]

# the first source mode is every run's default
SOURCES = ("discrete", "quadrature")

ArrayFn = Callable[[np.ndarray], np.ndarray]
ScalarFn = Callable[[float], float]

# integral of sin(pi x) over [0.4, 0.6]: (sqrt(5) - 1) / (2 pi)
_WINDOW_SINE_INTEGRAL = (math.sqrt(5.0) - 1.0) / (2.0 * math.pi)


@dataclass(frozen=True)
class Mode:
    """One separable term coef(t) * shape(x) of a manufactured state."""

    coef: ScalarFn
    dcoef: ScalarFn
    shape: ArrayFn
    shape_xx: ArrayFn  # analytic second derivative, used by the quadrature source


@dataclass(frozen=True)
class ManufacturedProblem:
    """Closed-form state, coefficient, weight, and measurement of a benchmark."""

    modes: Tuple[Mode, ...]
    r_exact: ScalarFn
    omega_fn: ArrayFn
    w_exact: ScalarFn

    def u_exact(self, t: float, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for mode in self.modes:
            out += mode.coef(t) * mode.shape(x)
        return out

    def r_at_midpoints(self, grid: Grid) -> np.ndarray:
        return np.array([self.r_exact(float(t)) for t in grid.midpoint_times()])

    def analytic_measurements(self, grid: Grid) -> MeasurementSeries:
        values = np.array([self.w_exact(float(t)) for t in grid.times()])
        return MeasurementSeries(values=values, provenance="exact-analytic")


def _sine_mode(k: int, coef: ScalarFn, dcoef: ScalarFn) -> Mode:
    freq = k * math.pi

    def shape(x: np.ndarray) -> np.ndarray:
        return np.sin(freq * np.asarray(x, dtype=float))

    def shape_xx(x: np.ndarray) -> np.ndarray:
        return -(freq**2) * np.sin(freq * np.asarray(x, dtype=float))

    return Mode(coef=coef, dcoef=dcoef, shape=shape, shape_xx=shape_xx)


def _window_indicator(x: np.ndarray) -> np.ndarray:
    # Inclusive endpoints, with a float-safe margin so x = 0.4 on any grid
    # representation lands inside the window.
    x = np.asarray(x, dtype=float)
    return np.where((x >= 0.4 - 1e-12) & (x <= 0.6 + 1e-12), 1.0, 0.0)


def _example1(s: float) -> ManufacturedProblem:
    modes = (
        _sine_mode(1, lambda t: 1.0 + t * t + s * math.sin(t), lambda t: 2.0 * t + s * math.cos(t)),
        _sine_mode(3, lambda t: s * t * math.exp(-t), lambda t: s * math.exp(-t) * (1.0 - t)),
    )
    return ManufacturedProblem(
        modes=modes,
        r_exact=lambda t: 1.0 + (s / 2.0) * (1.0 + math.cos(t)),
        omega_fn=lambda x: np.sin(math.pi * np.asarray(x, dtype=float)),
        w_exact=lambda t: 0.5 * (1.0 + t * t + s * math.sin(t)),
    )


def _example2(s: float) -> ManufacturedProblem:
    modes = (
        _sine_mode(1, lambda t: math.cos(t), lambda t: -math.sin(t)),
        _sine_mode(2, lambda t: s * t * math.exp(-t), lambda t: s * math.exp(-t) * (1.0 - t)),
    )
    return ManufacturedProblem(
        modes=modes,
        r_exact=lambda t: 1.0 + math.sin(t),
        omega_fn=_window_indicator,
        w_exact=lambda t: _WINDOW_SINE_INTEGRAL * math.cos(t),
    )


# benchmark id -> the builder of its closed forms at order s: a new example is one
# entry, and the first is the studies' default
_BUILDERS = {"example1": _example1, "example2": _example2}
EXAMPLE_IDS = tuple(_BUILDERS)


def manufactured_problem(ident: str, grid: Grid) -> ManufacturedProblem:
    """The closed forms of benchmark ``ident``, one of ``EXAMPLE_IDS``, at the
    grid's order s, without binding them to the grid: no forcing image and no
    measurement is computed.  A grid of other than unit length is refused."""
    if abs(grid.l - 1.0) > 1e-12:
        # the closed-form measurements integrate the state over (0, 1)
        raise ValueError(f"benchmarks are defined on unit domain length, got l={grid.l}")
    if ident not in _BUILDERS:
        raise ValueError(f"unknown benchmark id {ident!r} (expected one of {EXAMPLE_IDS})")
    return _BUILDERS[ident](grid.s)


def build_manufactured(
    ident: str,
    grid: Grid,
    source: str = SOURCES[0],
    op: Optional[RieszOperator] = None,
) -> Tuple[ManufacturedProblem, ProblemData]:
    """Bind a benchmark to a grid and construct its forcing and data.

    ``ident`` names the benchmark, as in :func:`manufactured_problem`, and
    ``source``, one of ``SOURCES`` and by default the first, selects how the
    operator image of each spatial shape is computed ('discrete' via A,
    'quadrature' via the reference integral); measurements are the analytic
    w(t) at the grid times.  The forcing is a :class:`SeparatedForcing` of
    P = 2 x modes shapes, g_k and its image, with coefficients c_k'/r and c_k/r.
    """
    if source not in SOURCES:
        raise ValueError(f"unknown source mode {source!r} (expected one of {SOURCES})")
    spec = manufactured_problem(ident, grid)

    x = grid.interior_x()
    if op is None:
        op = assemble(grid)
    shapes = [mode.shape(x) for mode in spec.modes]
    if source == "discrete":
        images = [op.apply(g) for g in shapes]
    else:
        images = quadrature_oracle(
            tuple(mode.shape for mode in spec.modes), grid,
            u_xx=tuple(mode.shape_xx for mode in spec.modes),
        )

    def coefficients(times: np.ndarray) -> np.ndarray:
        # one row per time: c_k'/r and c_k/r of every mode, the weights of g_k and A g_k
        table = np.empty((len(times), 2 * len(spec.modes)))
        for row, t in zip(table, np.asarray(times, dtype=float).tolist()):
            r = spec.r_exact(t)
            row[:] = [c(t) / r for mode in spec.modes for c in (mode.dcoef, mode.coef)]
        return table

    data = ProblemData(
        phi=spec.u_exact(0.0, x),
        forcing=SeparatedForcing(np.array([v for pair in zip(shapes, images) for v in pair]),
                                 coefficients),
        weight=spec.omega_fn(x),
        measurements=spec.analytic_measurements(grid),
        coefficient=spec.r_exact,
    )
    return spec, data
