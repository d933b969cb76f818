"""Exception types shared across the lattice solver and its harnesses.

Everything derives from LatticeModelError so callers can catch the whole
family.  The CLI exits 1 on a property failure (ConvergenceError,
AdmissibilityError, ValidationError) and 2 on any other LatticeModelError
(StepSizeError and BudgetError included), ValueError or OSError.
"""


class LatticeModelError(Exception):
    """Base class for all errors raised by this package."""


class GridError(LatticeModelError, ValueError):
    """Invalid time grid or lattice parameters (steps, horizon, dimension)."""


class BudgetError(LatticeModelError):
    """A resource budget would be exceeded; the message names the budget needed."""


class TimeDomainError(LatticeModelError, ValueError):
    """A time argument lies outside [0, T]."""


class StructuralError(LatticeModelError):
    """Node/lattice mismatch, unresolvable path, or an operation used in the wrong mode."""


class StepSizeError(LatticeModelError):
    """K * dt >= 1: the implicit step is not a contraction; message prescribes a minimal N."""


class ConvergenceError(LatticeModelError):
    """An iteration (implicit step or Picard sweep) failed to meet its tolerance."""

    def __init__(self, msg, residual=None, iterations=None):
        super().__init__(msg)
        self.residual = residual
        self.iterations = iterations


class AdmissibilityError(LatticeModelError):
    """A control violates the strict one-step bound mu . dW > -1; names the offending path."""


class OptimizerAdmissibilityError(AdmissibilityError):
    """The candidate optimal control is inadmissible at this step size.

    Carries the step size (equivalently the minimal N) at which the margin
    condition would hold, when one can be computed.
    """

    def __init__(self, msg, required_steps=None):
        super().__init__(msg)
        self.required_steps = required_steps


class ValidationError(LatticeModelError):
    """A computed quantity failed its independent identity check (e.g. conjugacy)."""
