"""Exception types shared across the package.

The CLI maps these onto exit codes: :class:`DataError` is an input problem
(exit 2), :class:`EstimationError` and :class:`InferenceError` are numerical
failures (exit 3).
"""


class StratfitError(Exception):
    """Base class for all package errors."""


class DataError(StratfitError):
    """Invalid or degenerate input data (bad schema, empty cells, negative
    outcomes under a censored family, zero-weight arms). ``row`` is the
    0-based index of the first case that breaks a per-case rule, else None."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        super().__init__(message)


class WarmStartError(DataError):
    """A (t, z) cell is too small or too degenerate to seed starting values."""


class EstimationError(StratfitError):
    """Likelihood evaluation or maximization failed."""


class DegenerateMixtureError(EstimationError):
    """A case's compatible strata carry zero total mixture probability."""

    def __init__(self, case_index: int):
        self.case_index = case_index
        super().__init__(f"degenerate mixture at case {case_index}")


class ConvergenceError(EstimationError):
    """No starting mapping reached the convergence tolerance.

    Carries the per-start trace so the failure can be inspected.
    """

    def __init__(self, message: str, trace=None):
        self.trace = trace or []
        super().__init__(message)


class InferenceError(StratfitError):
    """Standard-error computation rejected the fitted point (boundary
    solution, active scale floor, or an indefinite Hessian)."""
