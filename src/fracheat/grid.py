"""Mesh and container types shared by the assembly, stepping, and recovery code;
data only, so it imports none of the solver routes that ``forward.py`` defines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Grid",
    "make_grid",
    "MeasurementSeries",
    "CoefficientSeries",
    "Trajectory",
    "SeparatedForcing",
    "ProblemData",
]

ForcingFn = Callable[[float], np.ndarray]
ScalarFn = Callable[[float], float]
TableFn = Callable[[np.ndarray], np.ndarray]


def readonly_vector(values, length: int | None = None, name: str = "array") -> np.ndarray:
    """Copy to a float64 1-D array, check finiteness, and freeze it."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name}: expected a 1-D array, got shape {arr.shape}")
    if length is not None and arr.size != length:
        raise ValueError(f"{name}: expected length {length}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid:
    """Uniform mesh on (0, l) x [0, T] with N space cells, M time steps, order s.

    Interior nodes are x_i = i*h for i = 1..N-1; the Dirichlet boundary values
    are implicit zeros and never stored, so state vectors have length N-1.
    """

    l: float
    T: float
    N: int
    M: int
    s: float

    def __post_init__(self) -> None:
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"fractional order s must lie in (0, 1), got {self.s}")
        if self.N < 2:
            raise ValueError(f"need at least 2 spatial subintervals, got N={self.N}")
        if self.M < 1:
            raise ValueError(f"need at least 1 time step, got M={self.M}")
        for name in ("l", "T", "tau"):  # NaN fails "0 <" too; tau = T/M may underflow
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if abs(self.h * self.N - self.l) > 1e-12 * self.l:
            raise ValueError("h*N does not reproduce l to floating tolerance")

    @property
    def h(self) -> float:
        return self.l / self.N

    @property
    def tau(self) -> float:
        return self.T / self.M

    @property
    def interior_dim(self) -> int:
        return self.N - 1

    def interior_x(self) -> np.ndarray:
        """Interior node coordinates x_1 .. x_{N-1}."""
        return np.arange(1, self.N) * self.h

    def times(self) -> np.ndarray:
        """Time levels t^0 .. t^M."""
        return np.arange(self.M + 1) * self.tau

    def midpoint_times(self) -> np.ndarray:
        """Half-step times t^{n+1/2}, n = 0 .. M-1, where the coefficient lives."""
        return (np.arange(self.M) + 0.5) * self.tau


def make_grid(l: float, T: float, N: int, M: int, s: float) -> Grid:
    """Build a validated mesh; h = l/N and tau = T/M are derived, never stored."""
    return Grid(l=float(l), T=float(T), N=int(N), M=int(M), s=float(s))


@dataclass(frozen=True)
class MeasurementSeries:
    """Overdetermination values w^0 .. w^M with a provenance tag.

    Provenance is one of ``exact-analytic``, ``discrete-generated`` or
    ``noisy(delta=..., seed=...)``; it travels with the data so experiment
    output can state what was actually inverted.
    """

    values: np.ndarray
    provenance: str = "exact-analytic"

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", readonly_vector(self.values, name="measurements"))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class CoefficientSeries:
    """Recovered midpoint coefficient values r^{n+1/2}, n = 0 .. M-1."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", readonly_vector(self.values, name="coefficients"))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Trajectory:
    """Interior nodal states U^0 .. U^M stacked as a (M+1, N-1) array.

    ``route`` is None, or the modal ``StepOperators`` whose eigenbasis of
    A = Q diag(lambda) Q^T the run was marched in, which holds its own lambda and
    Q.  Only :meth:`adopt` sets it, for the march that computed the states; the
    constructor copies ``states`` alone.  The stability diagnostics take that
    route as their view and take the states to its eigenbasis themselves.
    """

    states: np.ndarray
    route: Optional[object] = field(default=None, init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", np.array(self.states, dtype=float))
        self._freeze()

    @classmethod
    def adopt(cls, states: np.ndarray, route: Optional[object] = None) -> Trajectory:
        """A trajectory of a float64 array its caller hands over and no longer writes:
        checked and frozen in place, without the copy the constructor makes, and with
        the march's route when it kept one."""
        trajectory = object.__new__(cls)
        object.__setattr__(trajectory, "states", states)
        object.__setattr__(trajectory, "route", route)
        trajectory._freeze()
        return trajectory

    def _freeze(self) -> None:
        states = self.states
        if states.ndim != 2:
            raise ValueError(f"states: expected a 2-D array, got shape {states.shape}")
        # NaN propagates through min and max, and an infinite entry is one of them:
        # no boolean array the size of the run
        if states.size and not (np.isfinite(states.min()) and np.isfinite(states.max())):
            raise ValueError("states: non-finite entries")
        states.setflags(write=False)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def matches_grid(self, grid: Grid) -> bool:
        return self.states.shape == (grid.M + 1, grid.interior_dim)


def separated_rows(table: np.ndarray, shapes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out <- table @ shapes for a coefficient table (M, P) and shapes (P, n).

    P broadcast multiply-adds in a fixed order, not one matrix product, so a
    row has the same bits whichever block of rows computes it."""
    np.multiply(table[:, :1], shapes[0], out=out)
    for p in range(1, shapes.shape[0]):
        out += table[:, p, None] * shapes[p]
    return out


@dataclass(frozen=True, eq=False)
class SeparatedForcing:
    """A forcing F(t) = sum_p phi_p(t) v_p of P fixed shapes, callable as t -> (n,).

    ``shapes`` is (P, n) and ``coefficients`` maps times (M,) to the table
    phi_p(t_j) (M, P).  Both are instance data, which ``functools.wraps``
    copies to a wrapper, so the marches recognise the form by these two
    attributes and take only the P shapes to their coordinates.  F(t) is row
    0 of ``separated_rows`` on a one-row table: the same bits as that time's
    row of any block.
    """

    shapes: np.ndarray
    coefficients: TableFn

    def __call__(self, t: float) -> np.ndarray:
        table = self.coefficients(np.array([t], dtype=float))
        return separated_rows(table, self.shapes, np.empty((1, self.shapes.shape[1])))[0]


@dataclass(frozen=True)
class ProblemData:
    """Data of one forward/inverse problem instance on a fixed grid.

    ``phi`` and ``weight`` are interior nodal samples; boundary values of the
    state are identically zero and never stored.  ``forcing`` maps a time to
    the interior nodal vector of f(t, x_i), in one of two forms: any callable,
    which the marches call once per half step, or a :class:`SeparatedForcing`
    (or a wrapper that carries its ``shapes`` and ``coefficients``), which
    they evaluate as one coefficient table against its P shapes and never
    call.  ``coefficient`` is the exact r(t) when known (forward runs and
    error reporting); ``measurements`` may be None for pure forward problems.
    """

    phi: np.ndarray
    forcing: ForcingFn
    weight: np.ndarray
    measurements: Optional[MeasurementSeries] = None
    coefficient: Optional[ScalarFn] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", readonly_vector(self.phi, name="phi"))
        object.__setattr__(
            self, "weight", readonly_vector(self.weight, length=self.phi.size, name="weight")
        )
