"""Exception types shared across the package."""


class PluriflowError(Exception):
    """Base class for all package errors."""


class ValidationError(PluriflowError):
    """Input data violates a structural invariant (shape, symmetry, positivity)."""


class IntegrabilityError(PluriflowError):
    """Operation requires an integrable complex structure but N_mu is too large."""


class SingularTransformError(PluriflowError):
    """Basis change matrix is singular or too badly conditioned."""


class RejectionBudgetError(PluriflowError):
    """Random generation failed to produce an admissible sample in time."""
