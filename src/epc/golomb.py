"""Golomb codes and their closed-form behavior on geometric sources.

A Golomb code with parameter k writes symbol j as a unary quotient (j // k
ones, then a zero) followed by a complete binary code for the remainder
j mod k. The remainder suffix uses g - 1 bits for the first z = 2**g - k
values and g bits for the rest, g being the bit length of k, which makes the
code complete (Kraft sum exactly 1) and alphabetic. It is the LengthSeq
UnaryTail(0, k=k) ends: no head, no spine, the k-run from symbol 0. Its
lengths, words and sums are every LengthSeq's; a k-run sums in closed form
on a source geometric from its start: evaluate_penalty(Geometric(r),
GolombCode(k), penalty) is its value. optimal_k picks k for a penalty
object; the exponential and mmr choices are also named, as the paper gives
both in closed form.
"""
from __future__ import annotations

import math

from .bits import _golomb_k
from .models import (Exponential, LengthSeq, MaxRedundancy, Penalty,
                     UnaryTail)
from .numeric import ceil_snapped, check_ratio

__all__ = [
    "GolombCode", "optimal_k_exponential", "optimal_k_mmr", "optimal_k",
]


class GolombCode(LengthSeq):
    """The k-Golomb code: an empty head and the k-run from symbol 0. A
    value: codes of equal k compare and hash equal."""

    def __init__(self, k: int) -> None:
        super().__init__((), UnaryTail(0, k=_golomb_k(k)))

    k = property(lambda self: self.tail.k)

    def __repr__(self) -> str:
        return f"GolombCode(k={self.k})"

    def __str__(self) -> str:
        return f"Golomb k={self.k}"


# ------------------------------------------------- optimal parameter choice

def _optimal_k(ln_ratio: float, ln_base: float) -> int:
    """Smallest k >= 1 with base * (ratio**k + ratio**(k+1)) <= 1, in logs.

    ln_ratio < 0. At exact boundary equality two parameters tie; the snap
    inside ceil_snapped picks the smaller one.
    """
    q = math.exp(ln_ratio)
    x = (-ln_base - math.log1p(q)) / ln_ratio
    return max(1, ceil_snapped(x))


def optimal_k_exponential(ratio: float, base: float) -> int:
    """Best Golomb parameter for Geometric(ratio) under the base-exponential
    penalty. base at or below 1/2 always degenerates to unary."""
    return optimal_k(ratio, Exponential(base))


def optimal_k_mmr(ratio: float) -> int:
    """Best Golomb parameter for the maximal pointwise redundancy."""
    return optimal_k(ratio, MaxRedundancy())


def optimal_k(ratio: float, penalty: Penalty) -> int:
    """Best Golomb parameter for Geometric(ratio) under a penalty object:
    the exponential choice at its tilt, ratio**(1+d) and base b, or the mmr
    choice at the minimax limit."""
    check_ratio("ratio", ratio)
    tilt = penalty._tilt
    if tilt is None:
        return max(1, ceil_snapped(-1.0 / math.log2(ratio)))
    d, _, ln_b = tilt
    return _optimal_k((1.0 + d) * math.log(ratio), ln_b)

