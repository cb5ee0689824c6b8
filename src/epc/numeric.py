"""Small numeric helpers used across modules.

Discrete decisions (optimal parameters, ceilings, fractional parts) must not
flip on float log noise, so everything that feeds a ceil or floor goes through
an integer snap with a fixed absolute tolerance first.
"""
from __future__ import annotations

import math

SNAP_TOL = 1e-12

LN2 = math.log(2.0)


def check_positive(name: str, value: float) -> None:
    """Refuse NaN and +-inf, then values <= 0 (a test NaN would pass)."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_weights(values, noun: str = "weights",
                  one: str = "weight") -> list[float]:
    """values as floats, refused unless there is at least one and all are
    finite and strictly positive; noun names them in the messages, one a
    single value."""
    values = list(map(float, values))
    if not values:
        raise ValueError(f"need at least one {one}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{noun} must be finite")
    if min(values) <= 0.0:
        raise ValueError(f"{noun} must be strictly positive")
    return values


def snap(x: float, tol: float = SNAP_TOL) -> float:
    """Return the nearest integer when x is within tol of one, else x."""
    n = round(x)
    if abs(x - n) <= tol:
        return float(n)
    return x


def ceil_snapped(x: float) -> int:
    return math.ceil(snap(x))


def frac_snapped(x: float) -> float:
    """Fractional part of x; values within SNAP_TOL of an integer give 0.0."""
    s = snap(x)
    return s - math.floor(s)
