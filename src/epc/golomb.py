"""Golomb codes and their closed-form behavior on geometric sources.

A Golomb code with parameter k writes symbol j as a unary quotient (j // k
ones, then a zero) followed by a complete binary code for the remainder
j mod k. The remainder suffix uses g - 1 bits for the first z = 2**g - k
values and g bits for the rest, g being the bit length of k, which makes the
code complete (Kraft sum exactly 1) and alphabetic. It is the LengthSeq
UnaryTail(0, 1, k) ends: no head, no spine, the k-run from symbol 0. Its
lengths and words are every LengthSeq's, and on a geometric source
LengthSeq._profile sums it in closed form.
"""
from __future__ import annotations

import math

from .bits import complete_binary
from .models import (DthRedundancy, Exponential, Geometric, LengthSeq,
                     MaxRedundancy, Penalty, UnaryTail, evaluate_penalty)
from .numeric import ceil_snapped

__all__ = [
    "GolombCode", "complete_binary",
    "optimal_k_exponential", "optimal_k_mmr", "optimal_k_dth", "optimal_k",
    "golomb_exp_penalty", "golomb_dth_penalty", "golomb_mmr",
]


class GolombCode(LengthSeq):
    """The k-Golomb code: an empty head and the k-run from symbol 0. A
    value: codes of equal k compare and hash equal."""

    def __init__(self, k: int) -> None:
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"k must be a positive integer, got {k!r}")
        object.__setattr__(self, "head", ())
        object.__setattr__(self, "tail", UnaryTail(0, 1, k))
        # held like _hold's; caching it in __dict__ slows the code's reads
        object.__setattr__(self, "counts", ())

    k = property(lambda self: self.tail.k)
    # g, the longer remainder-suffix length, and z, how many remainders get
    # the (g-1)-bit suffix
    suffix_bits = property(lambda self: self.k.bit_length())
    short_count = property(lambda self: (1 << self.suffix_bits) - self.k)

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
    _check_ratio(ratio)
    return max(1, ceil_snapped(-1.0 / math.log2(ratio)))


def optimal_k_dth(ratio: float, order: float) -> int:
    """Best Golomb parameter for the order-d redundancy; equals the
    exponential choice at ratio**(1+d), base 2**d, and tends to the
    mmr choice as the order grows."""
    return optimal_k(ratio, DthRedundancy(order))


def optimal_k(ratio: float, penalty: Penalty) -> int:
    """Best Golomb parameter for Geometric(ratio) under a penalty object:
    the exponential choice at its tilt, ratio**(1+d) and base b, or the mmr
    choice at the minimax limit."""
    tilt = penalty._tilt
    if tilt is None:
        return optimal_k_mmr(ratio)
    _check_ratio(ratio)
    d, _, ln_b = tilt
    return _optimal_k((1.0 + d) * math.log(ratio), ln_b)


def _check_ratio(ratio: float) -> None:
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")


# ------------------------------------------------------ closed-form values

def golomb_exp_penalty(ratio: float, base: float, k: int) -> float:
    """Exponential penalty of the k-Golomb code on Geometric(ratio).

    Closed form: g + log_base(1 + (base-1) ratio**z / (1 - base ratio**k)).
    The base -> 1 limit is the expected length g + ratio**z / (1 - ratio**k).
    """
    return evaluate_penalty(Geometric(ratio), GolombCode(k), Exponential(base))


def golomb_dth_penalty(ratio: float, order: float, k: int) -> float:
    """Order-d redundancy of the k-Golomb code on Geometric(ratio): the
    closed form at ratio**(1+d) and base 2**d, in logs, so that extreme
    orders stay finite and small ones keep their precision."""
    return evaluate_penalty(Geometric(ratio), GolombCode(k),
                            DthRedundancy(order))


def golomb_mmr(ratio: float, k: int) -> float:
    """Maximal pointwise redundancy of the k-Golomb code on Geometric(ratio),
    inf where it is unbounded."""
    return evaluate_penalty(Geometric(ratio), GolombCode(k), MaxRedundancy())
