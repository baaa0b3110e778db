"""Semantic exception hierarchy for the signaling-market library.

Public solvers never raise bare ValueError: callers (and the CLI exit-code
mapping) need to distinguish malformed inputs, oversized requests included,
from numerical failures.
"""

import math


class SigMarketError(Exception):
    """Base error for this package."""


class InputError(SigMarketError, ValueError):
    """Inputs violate a documented contract (domain, shape, range, schema)."""


class RangeError(InputError):
    """A value falls outside the representable range of a tabulated family."""


class NumericError(SigMarketError, ArithmeticError):
    """A numerical result is unusable, e.g. not finite."""


class InvariantViolation(SigMarketError):
    """An internal consistency guarantee failed; indicates a caller bug."""


_REQUIRED = object()


def require_object(data, where: str) -> None:
    """Reject a JSON value that should have been an object."""
    if not isinstance(data, dict):
        raise InputError(f"{where} must be a JSON object, got {type(data).__name__}")


def require_tolerance(tol) -> None:
    """Reject a tolerance that is negative, NaN or infinite: every test of
    the form x <= y + tol assumes a finite tol >= 0."""
    if not 0.0 <= tol < math.inf:
        raise InputError(f"tol must be a finite number >= 0, got {tol!r}")


def integer(value) -> int:
    """The read_field converter for integer fields: an int, or a float with an
    integral value.  Booleans, fractional or non-finite numbers and anything
    else raise ValueError, which read_field reports under the field's name."""
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def require_count(value, name: str, least: int) -> None:
    """Reject a count passed in code that is not an int >= least; booleans
    are refused, as `integer` refuses them."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise InputError(f"{name} must be >= {least} (an int, not a bool), got {value!r}")


def real(value) -> float:
    """The read_field converter for real fields: float(value), booleans refused (ValueError)."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def finite(value) -> float:
    """The read_field converter for float fields: real(value), refused
    (ValueError) when NaN or infinite."""
    if not math.isfinite(number := real(value)):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def read_field(data, key: str, convert, where: str, default=_REQUIRED):
    """convert(data[key]) for the from_dict parsers.

    A missing key (unless a default is given) and a TypeError, ValueError or
    OverflowError raised by the conversion all become an InputError naming
    the field and `where` it was read; nested parsers' InputErrors pass as-is.
    """
    require_object(data, where)
    if key not in data:
        if default is _REQUIRED:
            raise InputError(f"{where} missing field {key!r}")
        return default
    try:
        return convert(data[key])
    except InputError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{where} field {key!r} is malformed: {exc}") from None
