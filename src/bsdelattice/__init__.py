"""Backward stochastic difference equations on random-walk lattices.

The usual session is: build a lattice, pick a driver and a terminal
functional from the catalogs, run the backward solve, then interrogate the
result (dual tilts, fixed-point cross-check, approximation ladders).  The
heavy lifting lives in the submodules; this namespace just re-exports the
entry points that every script ends up importing.

The core modules (lattice, drivers, solver) load with the package.  The
names of the others resolve on first access (PEP 562), so a process that
only solves never compiles the dual, Picard, ladder or verification code.
"""

import importlib

from .drivers import make_driver, make_terminal, scale_terminal, shift_terminal
from .lattice import TimeGrid, build_lattice
from .solver import (
    solution_residuals,
    solve_backward,
    z_bound,
    z_bound_certificate,
)

__version__ = "0.1.0"

# each name resolved on first access: the module that defines it
_LAZY = {
    "inf_convolution": "approximation",
    "monotone_limit_experiment": "approximation",
    "refinement_experiment": "approximation",
    "uniform_limit_experiment": "approximation",
    "dual_value": "duality",
    "duality_gap": "duality",
    "optimal_control": "duality",
    "random_admissible_control": "duality",
    "picard_solve": "picard",
    "verify_walk_conditions": "verify",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "TimeGrid",
    "build_lattice",
    "make_driver",
    "make_terminal",
    "scale_terminal",
    "shift_terminal",
    "solve_backward",
    "solution_residuals",
    "z_bound",
    "z_bound_certificate",
    *_LAZY,
    "__version__",
]
