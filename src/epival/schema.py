"""Typed readers for the fields of the JSON inputs: every from_dict on the
command line path reads through these, and a value that breaks its rule
raises InputError with the field named.  Keys no reader asks for are
ignored."""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from fractions import Fraction

# Fraction("1e-99999999") builds the integer 10**99999999; a decimal
# exponent of at most three digits covers float range and keeps the
# integers within the 4300 digits that Python converts to strings
_LONG_EXPONENT = re.compile(r"[eE][-+]?0*[1-9]\d{3}")


class InputError(ValueError):
    """A missing key, or a value of the wrong type, shape or range."""


def _show(value) -> str:
    text = json.dumps(value, default=repr)
    return text if len(text) <= 40 else text[:37] + "..."


@contextmanager
def prefixed(prefix: str):
    """Put prefix before the message of an InputError raised inside."""
    try:
        yield
    except InputError as exc:
        raise InputError(f"{prefix}{exc}") from None


def field(obj, key: str, where: str, read=None, *args):
    """obj[key] read by read(value, name, *args), the name being the key
    after where, the name of obj."""
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"{where or 'the input'} must be a JSON object with the key "
                         f"{key!r}, got {_show(obj)}")
    return obj[key] if read is None else read(obj[key], f"{where} {key}".strip(), *args)


def integer(value, where: str, expect: int | None = None) -> int:
    """A JSON integer (not a bool), equal to expect when that is given."""
    if type(value) is not int:
        raise InputError(f"{where} must be a JSON integer, got {_show(value)}")
    if expect is not None and value != expect:
        raise InputError(f"{where} must equal {expect}, got {value}")
    return value


def rational(value, where: str) -> Fraction:
    """A JSON number or a string such as "p/q" or "1.5e3" (an exponent of
    at most three digits), as an exact rational with a nonzero
    denominator, finite and within float range."""
    if type(value) is str and _LONG_EXPONENT.search(value.replace("_", "")):
        raise InputError(f"{where} has a decimal exponent of four digits or more: {_show(value)}")
    try:
        if type(value) not in (int, float, str):
            raise ValueError
        q = Fraction(value)
        float(q)
    except ZeroDivisionError:
        raise InputError(f"a rational with a zero denominator in {where}: {_show(value)}") from None
    except OverflowError:  # an infinite float, or a rational that no float holds
        raise InputError(f"{where} = {_show(value)} is beyond float range; "
                         "numbers must be finite and within float range") from None
    except ValueError:
        raise InputError(f'{where} must be finite: a JSON number or a "p/q" string, '
                         f"got {_show(value)}") from None
    return q


def real(value, where: str, positive: bool = False) -> float:
    """A rational read as the nearest float, positive if asked."""
    x = float(rational(value, where))
    if positive and not x > 0:
        raise InputError(f"{where} must be positive, got {_show(value)}")
    return x


def array(value, where: str, item=None, n: int | None = None, count: str = "n") -> list:
    """A JSON array, of n coordinates when n is given (count names what n
    is), each item read by item(value, where[i])."""
    if type(value) is not list or (n is not None and len(value) != n):
        shape = "a JSON array" if n is None else f"a JSON array of {count} = {n} coordinates"
        raise InputError(f"{where} must be {shape}, got {_show(value)}")
    return value if item is None else [item(v, f"{where}[{i}]") for i, v in enumerate(value)]
