"""Small numeric helpers used across modules, and _Value, the one base of
every value class.

Discrete decisions (optimal parameters, ceilings, fractional parts) must not
flip on float log noise, so everything that feeds a ceil or floor goes through
an integer snap with a fixed absolute tolerance first.
"""
from __future__ import annotations

import math
import sys
from reprlib import repr as shown   # repr, long integers cut short

SNAP_TOL = 1e-12

LN2 = math.log(2.0)
_FLOAT_MAX = sys.float_info.max


class _Value:
    """An immutable value. Its fields are its class's __init__ parameters,
    in order, defaults included; __init__ checks them and stores them, with
    whatever it derives from them, in the instance dict. Values are equal
    when their classes are the same and their fields equal (codes compare
    across their classes, by LengthSeq's own rule), hash as the tuple of
    their fields and print as Name(field=value, ...), fields named with an
    underscore left out. Assigning or deleting an attribute raises
    AttributeError; object.__setattr__ and cached_property write what a
    value keeps. Nothing is built per class."""

    def __init__(self) -> None:     # a value with no fields
        pass

    @classmethod
    def _fields(cls) -> tuple[str, ...]:
        code = cls.__init__.__code__
        return code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields())

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return type(self).__qualname__ + "(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields()
            if not name.startswith("_")) + ")"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def isfinite(x) -> bool:
    """math.isfinite, False (not OverflowError) past the float range."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def check_finite(name: str, value: float) -> None:
    """Refuse NaN, the infinities and integers past the float range."""
    if not isfinite(value):
        raise ValueError(f"{name} must be finite, got {shown(value)}")


def check_positive(name: str, value: float) -> None:
    """Refuse what check_finite refuses, then values <= 0."""
    check_finite(name, value)
    if value <= 0.0:
        raise ValueError(f"{name} must be positive, got {shown(value)}")


def check_nonnegative(name: str, value: float) -> None:
    """Refuse NaN, values past the float range and values below zero; one
    chained comparison, since the arrival laws' transforms run it in every
    solve."""
    if not 0.0 <= value <= _FLOAT_MAX:
        raise ValueError(f"{name} must be finite and nonnegative, got "
                         f"{shown(value)}")


def check_ratio(name: str, value: float) -> None:
    """Refuse values outside the open interval (0, 1), NaN among them."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {shown(value)}")


def check_weights(values, noun: str = "weights",
                  one: str = "weight") -> list[float]:
    """values as floats, refused unless there is at least one and all are
    finite and strictly positive; noun names them in the messages, one a
    single value."""
    try:
        values = list(map(float, values))
    except OverflowError:   # an integer past the float range
        raise ValueError(f"{noun} must be finite") from None
    if not values:
        raise ValueError(f"need at least one {one}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{noun} must be finite")
    if min(values) <= 0.0:
        raise ValueError(f"{noun} must be strictly positive")
    return values


def snap(x: float) -> float:
    """Return the nearest integer when x is within SNAP_TOL of one, else x."""
    n = round(x)
    if abs(x - n) <= SNAP_TOL:
        return float(n)
    return x


def ceil_snapped(x: float) -> int:
    return math.ceil(snap(x))


def frac_snapped(x: float) -> float:
    """Fractional part of x; values within SNAP_TOL of an integer give 0.0."""
    s = snap(x)
    return s - math.floor(s)
