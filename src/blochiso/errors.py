"""Exception types shared across the library."""

from __future__ import annotations


class DimensionError(ValueError):
    """Operands have incompatible or unsupported shapes."""


class DomainError(ValueError):
    """Input lies outside an operation's mathematical domain."""


class NonStateError(DomainError):
    """Matrix or vector does not describe a valid qubit state."""


class InvalidChannelError(DomainError):
    """Kraus set or Choi matrix violates a channel requirement."""


class NotUnitaryConjugationError(InvalidChannelError):
    """Channel is not a unitary conjugation, so no single operator exists.

    Raised when the set is not trace preserving within tol or its Choi
    purity deficit exceeds delta(tol). Carries, as a
    diagnostic, the worst operator pair and its residual from the
    proportionality test A_a'* A_a = beta * I.
    """

    def __init__(self, message: str, pair: tuple[int, int], residual: float):
        super().__init__(message)
        self.pair = pair
        self.residual = residual


class NotInvertibleError(InvalidChannelError):
    """Channel has no CPTP inverse."""
