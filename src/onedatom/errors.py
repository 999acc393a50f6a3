"""Exception hierarchy shared by all modules, and the one range rule.

Everything that represents a violated physical precondition derives from
:class:`DomainError`: CLI exit code 3, or 2 where it refuses an option.
The range of an argument, in the library as in the CLI's option table, is
a tuple of the allowed strings or an interval like "(0, 1]" that bounds a
number or each entry of an array: an infinite bound is reached only
through a closed bracket, and NaN lies in no interval.  `_require` refuses
a value outside it as "<name> must be <range in words>, got <value>", an
array at its first entry outside it ("got nan at index 3"), and raises
`NonFiniteInput` if that entry is NaN or an infinity, else
`NonPositiveRate`.  This module loads no numpy.
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
    """Whether ``value`` is one of the tuple ``rng`` or lies in the interval
    ``rng`` (a bool array for an array) and, for ``kind`` int (then a
    scalar), is a whole number.  A 0-d array is compared as its Python
    number, several times faster than through numpy."""
    if isinstance(rng, tuple):
        return value in rng
    if getattr(value, "ndim", None) == 0:
        value = value.item()
    lo, hi, lo_open, hi_open = _bounds(rng)
    ok = ((lo < value if lo_open else lo <= value)
          & (value < hi if hi_open else value <= hi))
    return ok and value % 1 == 0 if kind is int else ok


def _range_text(rng, kind=float):
    """The range ``rng`` of a value of type ``kind`` in words, as in
    "<name> must be <words>"; the CLI also passes an interval of each
    number of a ``kind`` str list."""
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


def _show(value, bad, start=0):
    """The first entry of ``value`` flagged in ``bad`` as a Python number,
    and its repr with " at index <i + start>", i its flat index; a scalar
    or a 0-d array is its own entry, shown without an index."""
    if getattr(value, "ndim", 0) == 0:
        value = value.item() if hasattr(value, "item") else value
        return value, repr(value)
    i = int(bad.ravel().argmax())
    entry = value.ravel()[i].item()
    return entry, f"{entry!r} at index {start + i}"


def _require(name, value, rng, kind=float):
    """``value``, the argument ``name``, if it lies in the range ``rng``
    (see `_in_range`); else `NonFiniteInput` if its first entry outside
    ``rng`` is NaN or an infinity, `NonPositiveRate` otherwise."""
    ok = _in_range(value, rng, kind)
    if ok is True or ok is not False and ok.all():
        return value
    entry, shown = _show(value, ~ok)
    error = (NonPositiveRate if isinstance(rng, tuple)
             or abs(entry) < float("inf") else NonFiniteInput)
    raise error(f"{name} must be {_range_text(rng, kind)}, got {shown}")
