"""Numerical toolkit for the 1-D fractional heat equation on an interval.

Dense Dirichlet discretization of the fractional Laplacian in Riesz form,
Crank-Nicolson time stepping with stability diagnostics, and closed-form
recovery of a time-dependent source coefficient from weighted-integral
measurements, plus the convergence and noise-robustness studies around them.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all.
"""

from . import forward, grid, inverse, manufactured, riesz, solvers, studies
from .forward import *
from .grid import *
from .inverse import *
from .manufactured import *
from .riesz import *
from .solvers import *
from .studies import *

__version__ = "0.1.0"

__all__ = [name for module in (forward, grid, inverse, manufactured, riesz, solvers, studies)
           for name in module.__all__]
