"""Exception hierarchy for the analysis pipeline.

Exceptions map onto CLI exit codes: configuration problems exit 1,
numerical failures exit 2, I/O failures exit 3.
"""


class HopfDdeError(Exception):
    """Base class for all package errors."""


class ConfigError(HopfDdeError):
    """Malformed or inconsistent configuration input."""


class NumericalError(HopfDdeError):
    """Base class for failures of the numerical machinery."""


class DomainError(NumericalError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularSystemError(NumericalError):
    """A linear system or normalization is singular or degenerate."""


class DivergenceError(NumericalError):
    """A trajectory left the trust region (blow-up or non-finite values)."""
