"""Golomb codes and their closed-form behavior on geometric sources.

A Golomb code with parameter k writes symbol j as a unary quotient (j // k
ones, then a zero) followed by a complete binary code for the remainder
j mod k. The remainder suffix uses g - 1 bits for the first z = 2**g - k
values and g bits for the rest, g being the bit length of k, which makes the
code complete (Kraft sum exactly 1) and alphabetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivergenceError
from .models import DthRedundancy, MaxRedundancy, Penalty
from .numeric import LN2, ceil_snapped, check_positive

__all__ = [
    "GolombCode", "complete_binary", "golomb_codeword", "golomb_length",
    "optimal_k_exponential", "optimal_k_mmr", "optimal_k_dth", "optimal_k",
    "golomb_exp_penalty", "golomb_dth_penalty", "golomb_mmr", "golomb_penalty",
]


def _check_k(k: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")


def complete_binary(x: int, k: int) -> str:
    """(x+1)th codeword of the alphabetic complete binary code on k values."""
    _check_k(k)
    if not 0 <= x < k:
        raise ValueError(f"value {x} outside range(0, {k})")
    g = k.bit_length()
    if g == 1:
        return ""  # one value needs no bits
    z = (1 << g) - k
    if x < z:
        return format(x, "b").zfill(g - 1)
    return format(x + z, "b").zfill(g)


def golomb_codeword(j: int, k: int) -> str:
    _check_k(k)
    if j < 0:
        raise ValueError("symbols are nonnegative")
    return "1" * (j // k) + "0" + complete_binary(j % k, k)


def golomb_length(j: int, k: int) -> int:
    _check_k(k)
    if j < 0:
        raise ValueError("symbols are nonnegative")
    g = k.bit_length()
    z = (1 << g) - k
    return j // k + 1 + (g - 1 if j % k < z else g)


@dataclass(frozen=True)
class GolombCode:
    k: int

    def __post_init__(self) -> None:
        _check_k(self.k)

    @property
    def suffix_bits(self) -> int:
        """g: the longer remainder-suffix length (bit length of k)."""
        return self.k.bit_length()

    @property
    def short_count(self) -> int:
        """z: how many remainders get the (g-1)-bit suffix."""
        return (1 << self.suffix_bits) - self.k

    def codeword(self, j: int) -> str:
        return golomb_codeword(j, self.k)

    def length(self, j: int) -> int:
        return golomb_length(j, self.k)

    def kraft_sum(self) -> float:
        return 1.0

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
    _check_ratio(ratio)
    check_positive("base", base)
    if base <= 0.5:
        return 1
    return _optimal_k(math.log(ratio), math.log(base))


def optimal_k_mmr(ratio: float) -> int:
    """Best Golomb parameter for the maximal pointwise redundancy."""
    _check_ratio(ratio)
    return max(1, ceil_snapped(-1.0 / math.log2(ratio)))


def optimal_k_dth(ratio: float, order: float) -> int:
    """Best Golomb parameter for the order-d redundancy; equals the
    exponential choice at ratio**(1+d), base 2**d, and tends to the
    mmr choice as the order grows."""
    _check_ratio(ratio)
    check_positive("order", order)
    return _optimal_k((1.0 + order) * math.log(ratio), order * LN2)


def optimal_k(ratio: float, penalty: Penalty) -> int:
    """Best Golomb parameter for Geometric(ratio) under a penalty object
    (Linear and Exponential choose at their base)."""
    if isinstance(penalty, MaxRedundancy):
        return optimal_k_mmr(ratio)
    if isinstance(penalty, DthRedundancy):
        return optimal_k_dth(ratio, penalty.order)
    return optimal_k_exponential(ratio, penalty.base)


def _check_ratio(ratio: float) -> None:
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")


# ------------------------------------------------------ closed-form values

def golomb_exp_penalty(ratio: float, base: float, k: int) -> float:
    """Exponential penalty of the k-Golomb code on Geometric(ratio).

    Closed form: g + log_base(1 + (base-1) ratio**z / (1 - base ratio**k)).
    The base -> 1 limit is the expected length g + ratio**z / (1 - ratio**k).
    """
    _check_ratio(ratio)
    _check_k(k)
    check_positive("base", base)
    g = k.bit_length()
    z = (1 << g) - k
    if base * ratio ** k >= 1.0:
        raise DivergenceError(
            f"penalty sum diverges: base*ratio**k = {base * ratio ** k} >= 1")
    if base == 1.0:
        return g + ratio ** z / (1.0 - ratio ** k)
    u = (base - 1.0) * ratio ** z / (1.0 - base * ratio ** k)
    return g + math.log1p(u) / math.log(base)


def golomb_dth_penalty(ratio: float, order: float, k: int) -> float:
    """Order-d redundancy of the k-Golomb code on Geometric(ratio).

    Evaluated wholly in log space so that extreme orders (2**d overflows
    float for d over ~1024) stay finite: the sum collapses to the same
    geometric closed form with ratio**(1+d) at base 2**d.
    """
    _check_ratio(ratio)
    _check_k(k)
    check_positive("order", order)
    d = order
    g = k.bit_length()
    z = (1 << g) - k
    lt = (1.0 + d) * math.log(ratio)   # ln of the reduced ratio
    ln_a = d * LN2                     # ln of the reduced base
    if ln_a + k * lt >= 0.0:
        raise DivergenceError("order-d sum diverges for this k")
    ln_u = (ln_a + math.log1p(-math.exp(-ln_a)) + z * lt
            - math.log1p(-math.exp(ln_a + k * lt)))
    if ln_u <= 0.0:
        ln1pu = math.log1p(math.exp(ln_u))
    else:
        ln1pu = ln_u + math.log1p(math.exp(-ln_u))
    penalty = g + ln1pu / ln_a
    return penalty + ((1.0 + d) * math.log2(1.0 - ratio)
                      - math.log1p(-math.exp(lt)) / LN2) / d


def golomb_mmr(ratio: float, k: int) -> float:
    """Maximal pointwise redundancy of the k-Golomb code on Geometric(ratio).

    Unbounded (returned as inf) when ratio exceeds 2**(-1/k): per-cycle
    length growth then outpaces probability decay. Otherwise the supremum is
    attained at symbol 0 or at the first symbol wearing the long suffix.
    """
    _check_ratio(ratio)
    _check_k(k)
    # bounded iff 1 + k log2(ratio) <= 0, with the exact boundary kept finite
    if 1.0 + k * math.log2(ratio) > 1e-12:
        return math.inf
    g = k.bit_length()
    cg = (k - 1).bit_length()          # ceil(log2 k)
    i_star = (1 << cg) - k             # first long-suffix symbol (0 if k = 2**m)
    at_zero = g + math.log2(1.0 - ratio)
    at_star = cg + 1 + math.log2(1.0 - ratio) + i_star * math.log2(ratio)
    return max(at_zero, at_star)


def golomb_penalty(ratio: float, k: int, penalty: Penalty) -> float:
    """Closed-form value of a penalty object for the k-Golomb code on
    Geometric(ratio)."""
    if isinstance(penalty, MaxRedundancy):
        return golomb_mmr(ratio, k)
    if isinstance(penalty, DthRedundancy):
        return golomb_dth_penalty(ratio, penalty.order, k)
    return golomb_exp_penalty(ratio, penalty.base, k)
