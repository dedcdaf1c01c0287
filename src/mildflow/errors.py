"""Exception types shared across the package."""


class MildflowError(Exception):
    """Base class for all package-specific failures."""


class MaskError(MildflowError, ValueError):
    """Base class for mask file problems."""


class MaskHeaderError(MaskError):
    """Header lines are malformed (magic line or dimension line)."""


class MaskDimensionError(MaskError):
    """Grid body does not match the declared dimensions."""


class MaskCharacterError(MaskError):
    """Grid body contains a character other than '0' or '1'."""


class MaskEmptyError(MaskError):
    """Mask declares no occupied cell."""


class FieldMismatchError(MildflowError, ValueError):
    """Fields defined on different masks were combined."""


class SpectrumError(MildflowError, RuntimeError):
    """Operator assembly produced an inconsistent decomposition."""


class GateUnreachableError(MildflowError, RuntimeError):
    """Smallness condition could not be met along the shrink schedule.

    Carries the full attempt list and the best attempt seen.
    """

    def __init__(self, message, attempts=(), best=None):
        super().__init__(message)
        self.attempts = list(attempts)
        self.best = best


class PicardDivergenceError(MildflowError, RuntimeError):
    """Fixed-point iteration expanded for several consecutive steps, or
    did not converge within its iteration limit; carries the iteration log."""

    def __init__(self, message, log):
        super().__init__(message)
        self.log = log


class OracleInstabilityError(MildflowError, RuntimeError):
    """Time-stepping oracle blew up (norm growth beyond the guard)."""


class ConfigError(MildflowError, ValueError):
    """Experiment configuration is missing or inconsistent."""
