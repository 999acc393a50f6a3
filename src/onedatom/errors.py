"""Exception hierarchy shared by all modules.

Everything that represents a violated physical precondition derives from
:class:`DomainError`: CLI exit code 3, or 2 where it refuses an option.
"""


class OneDimAtomError(Exception):
    """Base class for all package errors."""


class DomainError(OneDimAtomError, ValueError):
    """A physical precondition was violated."""


class NonPositiveRate(DomainError):
    """A rate that must be positive (or nonnegative) is not."""


class NonFiniteInput(DomainError):
    """An input value is NaN or infinite where a finite number is required."""


class LeakyNotSupported(DomainError):
    """Operation is defined for the ideal (lossless, dephasing-free) system only."""


class UnsupportedRegime(DomainError):
    """Requested parameter combination lies outside the closed-form domain."""


class DephasingUnsupported(DomainError):
    """The leaky closed forms are derived for zero pure dephasing."""


class ScanFailed(DomainError):
    """A numeric root bracket could not be established."""


class StepCollapse(DomainError):
    """The time-domain propagation produced a non-finite state."""


class InvalidInitial(DomainError):
    """Initial Bloch state violates its invariants."""


class NoConvergence(DomainError):
    """Relaxation to steady state did not converge within the time budget."""
