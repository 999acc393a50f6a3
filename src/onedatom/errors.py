"""Exception hierarchy shared by all modules, and the one interval rule.

Everything that represents a violated physical precondition derives from
:class:`DomainError`: CLI exit code 3, or 2 where it refuses an option.
The range of a scalar argument, in the library as in the CLI's option
table, is an interval like "(0, 1]": an infinite bound is reached only
through a closed bracket, and NaN lies in no interval.  `_require` refuses
a value outside it as "<name> must be <range in words>, got <value>", a
`NonFiniteInput` for NaN or an infinity, else a `NonPositiveRate`.
"""

from functools import cache as _cache


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


@_cache
def _bounds(rng):
    """The interval ``rng`` as (lo, hi, lo is open, hi is open)."""
    lo, hi = (float(bound) for bound in rng[1:-1].split(","))
    return lo, hi, rng[0] == "(", rng[-1] == ")"


def _in_range(value, rng, kind=float):
    """Whether the number ``value`` lies in the interval ``rng`` and, for
    ``kind`` int, is a whole number."""
    lo, hi, lo_open, hi_open = _bounds(rng)
    return ((lo < value if lo_open else lo <= value)
            and (value < hi if hi_open else value <= hi)
            and (kind is not int or value % 1 == 0))


def _range_text(rng, kind=float):
    """The range ``rng`` of a value of type ``kind`` in words, as in
    "<name> must be <words>"; the CLI also passes a tuple of strings, or an
    interval of each number of a ``kind`` str list."""
    if isinstance(rng, tuple):
        return f"one of {rng}"
    if kind is str:
        return f"comma-separated numbers {_range_text(rng)}"
    lo, hi = (bound.strip() for bound in rng[1:-1].split(","))
    above = f"{'>' if rng[0] == '(' else '>='} {lo}"
    if kind is int:
        return f"an integer {above}" if hi == "inf" else f"an integer in {rng}"
    if lo == "-inf":
        return "finite"
    if hi != "inf":
        return f"in {rng}"
    return f"finite and {above}" if rng[-1] == ")" else f"{above} (inf allowed)"


def _require(name, value, rng, kind=float):
    """``value``, the argument ``name``, if it lies in the interval ``rng``
    (and, for ``kind`` int, is a whole number); else `NonFiniteInput` for
    NaN or an infinity, `NonPositiveRate` for any other value."""
    if _in_range(value, rng, kind):
        return value
    error = NonPositiveRate if abs(value) < float("inf") else NonFiniteInput
    raise error(f"{name} must be {_range_text(rng, kind)}, got {value!r}")
