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
from .models import (DthRedundancy, Exponential, Geometric, MaxRedundancy,
                     Penalty, evaluate_penalty)
from .numeric import ceil_snapped

__all__ = [
    "GolombCode", "complete_binary", "golomb_codeword", "golomb_length",
    "optimal_k_exponential", "optimal_k_mmr", "optimal_k_dth", "optimal_k",
    "golomb_exp_penalty", "golomb_dth_penalty", "golomb_mmr",
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

    def _profile(self, model) -> "_GolombProfile":
        """The code's sums over a source, in closed form: a geometric one."""
        if not isinstance(model, Geometric):
            raise ValueError("Golomb sums need a geometric source")
        return _GolombProfile(model.ratio, self.k)

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

class _GolombProfile:
    """The k-Golomb code's sums over Geometric(ratio), answered as a
    models._Profile answers them, from one geometric series per suffix
    length: with phi = ratio**(1+d), g = k.bit_length() and z = 2**g - k,
    ln sum p(i)**(1+d) b**n(i) = (1+d) ln(1-ratio) - ln(1-phi) + g ln b
    + ln(1 + (b-1) phi**z / (1 - b phi**k)), read in expm1 and log1p of d
    itself, since 1 + d rounds to one at small orders."""

    def __init__(self, ratio: float, k: int) -> None:
        self.ratio, self.k, self.ln_r = ratio, k, math.log(ratio)
        self.g = k.bit_length()
        self.z = (1 << self.g) - k
        self.pole = -self.ln_r / (1.0 / k)      # where b ratio**k = 1

    def expected_length(self) -> float:
        r = self.ratio
        return self.g + r ** self.z / (1.0 - r ** self.k)

    def ln_power_sum(self, ln_b: float, d: float = 0.0) -> float:
        """ln sum p(i)**(1+d) * base**n(i), ln_b = ln base."""
        k, z, ln_r = self.k, self.z, self.ln_r
        ln_phi = ln_r + d * ln_r
        x = ln_b + k * ln_phi       # ln b phi**k
        if x >= 0.0:
            raise DivergenceError("penalty sum diverges: base * "
                                  "ratio**(k (1 + order)) >= 1")
        # ln(1 + u), u = (b-1) phi**z / (1 - b phi**k): in logs above base
        # one; below it, where u nears -1, from 1 + u's positive parts
        ln_den = math.log(-math.expm1(x))
        if ln_b > 0.0:
            ln_u = ln_b + math.log(-math.expm1(-ln_b)) + z * ln_phi - ln_den
            ln1pu = (ln_u + math.log1p(math.exp(-ln_u)) if ln_u > 0.0
                     else math.log1p(math.exp(ln_u)))
        else:
            u = math.expm1(ln_b) * math.exp(z * ln_phi - ln_den)
            ln1pu = math.log1p(u) if u > -0.5 else math.log(
                -math.expm1(z * ln_phi)
                - math.exp(ln_b + z * ln_phi) * math.expm1((k - z) * ln_phi)
            ) - ln_den
        # (1+d) ln(1-r) - ln(1-phi), with 1 - phi = (1-r) - r (r**d - 1)
        r = self.ratio
        return (d * math.log1p(-r) + self.g * ln_b + ln1pu
                - math.log1p(-r * math.expm1(d * ln_r) / (1.0 - r)))

    def max_redundancy(self) -> float:
        """Unbounded (inf) when ratio exceeds 2**(-1/k): per-cycle length
        growth then outpaces probability decay. Otherwise the supremum is
        attained at symbol 0 or at the first symbol wearing the long
        suffix."""
        r, k = self.ratio, self.k
        # bounded iff 1 + k log2(ratio) <= 0, the exact boundary kept finite
        if 1.0 + k * math.log2(r) > 1e-12:
            return math.inf
        cg = (k - 1).bit_length()       # ceil(log2 k)
        i_star = (1 << cg) - k          # first long-suffix symbol (0: k = 2**m)
        at_zero = self.g + math.log2(1.0 - r)
        at_star = cg + 1 + math.log2(1.0 - r) + i_star * math.log2(r)
        return max(at_zero, at_star)


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
