"""Exception types shared across the package.

The CLI maps these onto exit codes: validation problems exit 2,
failed numerical constructions exit 4.
"""


class ValidationError(ValueError):
    """Input rejected before any computation (bad shape, NaN/Inf, out-of-range argument)."""


class NotATrajectoryError(ValidationError):
    """Supplied (input, output) data is not a trajectory of the given system."""


class PersistentlyExcitingError(ValidationError):
    """Counterexample construction was asked for an input that is persistently exciting."""


class ConstructionError(RuntimeError):
    """A certificate construction failed its own verification."""


class EigenvalueConflictError(ConstructionError):
    """An eigenvalue of A is a common root of the kernel polynomial the construction must avoid."""


class NearSingularError(ConstructionError):
    """A matrix the construction must invert is too ill-conditioned to trust."""
