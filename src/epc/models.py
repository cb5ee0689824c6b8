"""Probability sources, penalty variants, and penalty evaluation.

Sources are measures on the nonnegative integers (they usually sum to one but
are not required to). A LengthSeq assigns a codeword length to every symbol,
either over a finite head or with an arithmetic (unary style) continuation.
Everything here is an immutable value and every function is pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .errors import DivergenceError, NotLightTailedError
from .numeric import LN2, SUM_TOL, check_positive, logaddexp

__all__ = [
    "Geometric", "Poisson", "ExplicitFinite", "ExplicitTailed",
    "with_geometric_tail", "SourceModel",
    "Exponential", "DthRedundancy", "MaxRedundancy", "Linear", "Penalty",
    "UnaryTail", "LengthSeq",
    "point_mass", "tail_weight", "total_mass", "power_sum", "evaluate_penalty",
    "expected_length", "shannon_entropy", "renyi_entropy",
]


# ---------------------------------------------------------------- sources

@dataclass(frozen=True)
class Geometric:
    """p(i) = (1 - ratio) * ratio**i."""

    ratio: float

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"ratio must lie in (0, 1), got {self.ratio}")


@dataclass(frozen=True)
class Poisson:
    """p(i) = mean**i * exp(-mean) / i!."""

    mean: float

    def __post_init__(self) -> None:
        check_positive("mean", self.mean)


@dataclass(frozen=True)
class ExplicitFinite:
    """A finite distribution given outright. Probabilities must sum to one;
    raw weight sets that do not are handled by the huffman engines directly."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if not self.probs:
            raise ValueError("need at least one probability")
        if any(p <= 0.0 for p in self.probs):
            raise ValueError("probabilities must be strictly positive")
        if abs(math.fsum(self.probs) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1 within 1e-9")


@dataclass(frozen=True)
class ExplicitTailed:
    """Finite head plus an infinite tail described by an exact oracle.

    tail_sum(j, base) must return sum_{k>j} p(k) * base**(k-j) exactly (raise
    DivergenceError when the series diverges). tail_pmf, when given, returns
    p(i) for i past the head. tail_ratio marks an exactly geometric
    continuation p(i+1) = tail_ratio * p(i) from the last head entry on; the
    structural checks in light_tail and the MaxRedundancy evaluator need it.
    """

    head: tuple[float, ...]
    tail_sum: Callable[[int, float], float]
    tail_pmf: Optional[Callable[[int], float]] = None
    tail_ratio: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "head", tuple(float(p) for p in self.head))
        if not self.head:
            raise ValueError("need at least one head probability")
        if any(p <= 0.0 for p in self.head):
            raise ValueError("probabilities must be strictly positive")
        if self.tail_ratio is not None and not 0.0 < self.tail_ratio < 1.0:
            raise ValueError("tail_ratio must lie in (0, 1)")


SourceModel = Union[Geometric, Poisson, ExplicitFinite, ExplicitTailed]


def with_geometric_tail(head, ratio: float) -> ExplicitTailed:
    """ExplicitTailed whose tail continues the last head entry geometrically:
    p(i) = head[-1] * ratio**(i - len(head) + 1) for i >= len(head)."""
    head = tuple(float(p) for p in head)
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    last = len(head) - 1

    def pmf(i: int) -> float:
        if i < len(head):
            return head[i]
        return head[last] * ratio ** (i - last)

    def tail_sum(j: int, base: float) -> float:
        # exact: finite head part plus the closed geometric remainder
        if j >= last:
            q = base * ratio
            if q >= 1.0:
                raise DivergenceError(f"tail series diverges at base {base}")
            return pmf(j + 1) * base / (1.0 - q)
        acc = 0.0
        for k in range(j + 1, last + 1):
            acc += head[k] * base ** (k - j)
        return acc + tail_sum(last, base) * base ** (last - j)

    return ExplicitTailed(head, tail_sum, tail_pmf=pmf, tail_ratio=ratio)


# ---------------------------------------------------------------- penalties

@dataclass(frozen=True)
class Exponential:
    """log_base of sum p(i) * base**n(i)."""

    base: float

    def __post_init__(self) -> None:
        check_positive("base", self.base)


@dataclass(frozen=True)
class DthRedundancy:
    """(1/order) * log2 of sum p(i)**(1+order) * 2**(order*n(i))."""

    order: float

    def __post_init__(self) -> None:
        check_positive("order", self.order)


@dataclass(frozen=True)
class MaxRedundancy:
    """sup over i of n(i) + log2 p(i)."""


@dataclass(frozen=True)
class Linear:
    """Expected codeword length (the base -> 1 limit of Exponential)."""

    base = 1.0   # a class constant, not a field: Linear merges like base 1


Penalty = Union[Exponential, DthRedundancy, MaxRedundancy, Linear]


# ---------------------------------------------------------------- lengths

@dataclass(frozen=True)
class UnaryTail:
    """n(i) = start_length + (i - start_index) for all i >= start_index."""

    start_index: int
    start_length: int

    def __post_init__(self) -> None:
        if self.start_index < 0 or self.start_length < 1:
            raise ValueError("bad tail record")


@dataclass(frozen=True)
class LengthSeq:
    head: tuple[int, ...]
    tail: Optional[UnaryTail] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "head", tuple(int(n) for n in self.head))
        # the one symbol of a one-symbol alphabet needs no bits
        if any(n < 1 for n in self.head) and self.head != (0,):
            raise ValueError("lengths must be positive")
        if self.tail is not None and self.tail.start_index != len(self.head):
            raise ValueError("tail must start right after the head")
        if self.kraft_sum() > 1.0 + 1e-12:
            raise ValueError("lengths violate the Kraft inequality")

    def length_at(self, i: int) -> int:
        if i < len(self.head):
            return self.head[i]
        if self.tail is None:
            raise IndexError(f"no length assigned to symbol {i}")
        return self.tail.start_length + (i - self.tail.start_index)

    def kraft_sum(self) -> float:
        # the unary tail contributes 2**(1 - start_length) in closed form
        acc = math.fsum(2.0 ** -n for n in self.head)
        if self.tail is not None:
            acc += 2.0 ** (1 - self.tail.start_length)
        return acc

    def __str__(self) -> str:
        if self.tail is None:
            return "lengths " + ",".join(map(str, self.head))
        shown = self.head + (self.tail.start_length,)
        return ("lengths " + ",".join(map(str, shown))
                + f" +unary@{self.tail.start_index}")


# ---------------------------------------------------------------- queries

def point_mass(model: SourceModel, i: int) -> float:
    """p(i)."""
    if i < 0:
        raise ValueError("symbols are nonnegative")
    if isinstance(model, Geometric):
        return (1.0 - model.ratio) * model.ratio ** i
    if isinstance(model, Poisson):
        return math.exp(-model.mean + i * math.log(model.mean) - math.lgamma(i + 1))
    if isinstance(model, ExplicitFinite):
        if i >= len(model.probs):
            raise IndexError(f"symbol {i} outside the {len(model.probs)}-ary alphabet")
        return model.probs[i]
    if isinstance(model, ExplicitTailed):
        if i < len(model.head):
            return model.head[i]
        if model.tail_pmf is None:
            raise ValueError("point mass past the head needs tail_pmf")
        return model.tail_pmf(i)
    raise TypeError(f"not a source model: {model!r}")


def tail_weight(model: SourceModel, j: int, base: float) -> float:
    """sum_{k>j} p(k) * base**(k-j). j = -1 is allowed and weighs the whole
    support by base**(k+1)."""
    check_positive("base", base)
    if isinstance(model, Geometric):
        q = base * model.ratio
        if q >= 1.0:
            raise DivergenceError(
                f"geometric tail diverges: base*ratio = {q} >= 1")
        return base * point_mass(model, j + 1) / (1.0 - q)
    if isinstance(model, Poisson):
        # closed form: base**(-j) e^{mean (base-1)} minus the weighed head
        acc = math.exp(model.mean * (base - 1.0) - j * math.log(base))
        for k in range(0, j + 1):
            acc -= point_mass(model, k) * base ** (k - j)
        return acc
    if isinstance(model, ExplicitFinite):
        return math.fsum(model.probs[k] * base ** (k - j)
                         for k in range(max(j + 1, 0), len(model.probs)))
    if isinstance(model, ExplicitTailed):
        return model.tail_sum(j, base)
    raise TypeError(f"not a source model: {model!r}")


def total_mass(model: SourceModel) -> float:
    if isinstance(model, (Geometric, Poisson)):
        return 1.0
    if isinstance(model, ExplicitFinite):
        return math.fsum(model.probs)
    return math.fsum(model.head) + tail_weight(model, len(model.head) - 1, 1.0)


def _is_infinite(model: SourceModel) -> bool:
    return isinstance(model, (Geometric, Poisson, ExplicitTailed))


def _require_cover(model: SourceModel, lengths: LengthSeq) -> None:
    if _is_infinite(model):
        if lengths.tail is None:
            raise ValueError("infinite source needs a length tail")
    elif len(lengths.head) < len(model.probs) and lengths.tail is None:
        raise ValueError("lengths do not cover the alphabet")


# ------------------------------------------------------- penalty evaluation

def power_sum(model: SourceModel, lengths: LengthSeq, base: float) -> float:
    """sum p(i) * base**n(i), exact tail via the model's tail oracle."""
    _require_cover(model, lengths)
    if isinstance(model, ExplicitFinite):
        return math.fsum(model.probs[i] * base ** lengths.length_at(i)
                         for i in range(len(model.probs)))
    acc = math.fsum(point_mass(model, i) * base ** lengths.head[i]
                    for i in range(len(lengths.head)))
    t = lengths.tail
    # sum_{i>=t0} p(i) base**(L0+i-t0) = base**(L0-1) * tail_weight(t0-1)
    acc += base ** (t.start_length - 1) * tail_weight(model, t.start_index - 1, base)
    return acc


def expected_length(model: SourceModel, lengths: LengthSeq) -> float:
    """sum p(i) * n(i)."""
    _require_cover(model, lengths)
    if isinstance(model, ExplicitFinite):
        return math.fsum(model.probs[i] * lengths.length_at(i)
                         for i in range(len(model.probs)))
    acc = math.fsum(point_mass(model, i) * lengths.head[i]
                    for i in range(len(lengths.head)))
    t = lengths.tail
    t0, len0 = t.start_index, t.start_length
    if isinstance(model, Geometric):
        th = model.ratio
        return acc + th ** t0 * (len0 + th / (1.0 - th))
    if isinstance(model, Poisson):
        return acc + _certified_sum(
            lambda i: point_mass(model, i) * (len0 + i - t0),
            start=t0,
            ratio_bound=lambda i: model.mean / (i + 1) * (len0 + i + 1 - t0) / max(len0 + i - t0, 1),
        )
    if isinstance(model, ExplicitTailed):
        if model.tail_ratio is None:
            raise ValueError("cannot certify the tail sum without tail_ratio")
        last = len(model.head) - 1
        start = max(t0, last)
        acc += math.fsum(point_mass(model, i) * (len0 + i - t0)
                         for i in range(t0, start))
        # geometric continuation from `start` on
        rho = model.tail_ratio
        p0 = point_mass(model, start)
        return acc + p0 * ((len0 + start - t0) / (1.0 - rho)
                           + rho / (1.0 - rho) ** 2)
    raise TypeError(f"not a source model: {model!r}")


def _certified_sum(term, start: int, ratio_bound, tol: float = SUM_TOL,
                   max_terms: int = 10 ** 7) -> float:
    """Sum term(i) from start while a geometric bound on the remainder,
    driven by ratio_bound(i) (a bound on term(i+1)/term(i) that is eventually
    nonincreasing and < 1), exceeds tol."""
    acc = 0.0
    i = start
    while i < start + max_terms:
        v = term(i)
        acc += v
        q = ratio_bound(i)
        if 0.0 <= q < 1.0 and v * q / (1.0 - q) < tol:
            return acc
        i += 1
    raise DivergenceError("series did not settle after the term cap")


def _dth_sum_log(model: SourceModel, lengths: LengthSeq, order: float) -> float:
    """ln of sum p**(1+order) * 2**(order*n), computed in log space."""
    _require_cover(model, lengths)
    d = order
    acc = -math.inf
    if isinstance(model, ExplicitFinite):
        for i in range(len(model.probs)):
            acc = logaddexp(acc, (1.0 + d) * math.log(model.probs[i])
                            + d * lengths.length_at(i) * LN2)
        return acc
    for i in range(len(lengths.head)):
        acc = logaddexp(acc, (1.0 + d) * math.log(point_mass(model, i))
                        + d * lengths.head[i] * LN2)
    t = lengths.tail
    t0, len0 = t.start_index, t.start_length

    def ln_term(i: int) -> float:
        return (1.0 + d) * math.log(point_mass(model, i)) + d * (len0 + i - t0) * LN2

    if isinstance(model, Geometric) or (
            isinstance(model, ExplicitTailed) and model.tail_ratio is not None):
        rho = model.ratio if isinstance(model, Geometric) else model.tail_ratio
        last = 0 if isinstance(model, Geometric) else len(model.head) - 1
        start = max(t0, last)
        for i in range(t0, start):
            acc = logaddexp(acc, ln_term(i))
        ln_step = (1.0 + d) * math.log(rho) + d * LN2
        if ln_step >= 0.0:
            raise DivergenceError("order-d tail diverges")
        # geometric remainder: term(start) / (1 - step)
        return logaddexp(acc, ln_term(start) - math.log1p(-math.exp(ln_step)))
    if isinstance(model, Poisson):
        i = t0
        while True:
            acc = logaddexp(acc, ln_term(i))
            ln_q = (1.0 + d) * (math.log(model.mean) - math.log(i + 1)) + d * LN2
            if ln_q < -1.0 and ln_term(i) + ln_q - math.log1p(-math.exp(ln_q)) < acc + math.log(SUM_TOL):
                return acc
            i += 1
    raise ValueError("cannot certify the tail sum for this model")


def _max_redundancy(model: SourceModel, lengths: LengthSeq) -> float:
    """sup n(i) + log2 p(i); math.inf when the supremum is unbounded."""
    _require_cover(model, lengths)
    if isinstance(model, ExplicitFinite):
        return max(lengths.length_at(i) + math.log2(model.probs[i])
                   for i in range(len(model.probs)))
    best = max((lengths.head[i] + math.log2(point_mass(model, i))
                for i in range(len(lengths.head))), default=-math.inf)
    t = lengths.tail

    def at(i: int) -> float:
        return lengths.length_at(i) + math.log2(point_mass(model, i))

    t0 = t.start_index
    if isinstance(model, Geometric):
        # per-step change along the tail is 1 + log2(ratio), constant
        if model.ratio > 0.5:
            return math.inf
        return max(best, at(t0))
    if isinstance(model, Poisson):
        # steps turn negative once i + 1 > 2 * mean; bounded always
        stop = max(t0, math.ceil(2.0 * model.mean)) + 2
        return max(best, max(at(i) for i in range(t0, stop + 1)))
    if isinstance(model, ExplicitTailed):
        if model.tail_ratio is None:
            raise NotLightTailedError(
                "tail supremum needs tail_ratio to be certified")
        if model.tail_ratio > 0.5:
            return math.inf
        stop = max(t0, len(model.head))
        return max(best, max(at(i) for i in range(t0, stop + 1)))
    raise TypeError(f"not a source model: {model!r}")


def evaluate_penalty(model: SourceModel, lengths: LengthSeq,
                     penalty: Penalty) -> float:
    if isinstance(penalty, (Linear, Exponential)):
        if penalty.base == 1.0:
            return expected_length(model, lengths)
        s = power_sum(model, lengths, penalty.base)
        return math.log(s) / math.log(penalty.base)
    if isinstance(penalty, DthRedundancy):
        return _dth_sum_log(model, lengths, penalty.order) / (penalty.order * LN2)
    if isinstance(penalty, MaxRedundancy):
        return _max_redundancy(model, lengths)
    raise TypeError(f"not a penalty: {penalty!r}")


# ---------------------------------------------------------------- entropy

def shannon_entropy(model: SourceModel) -> float:
    """H(P) in bits."""
    if isinstance(model, Geometric):
        th = model.ratio
        return (-th * math.log2(th) - (1.0 - th) * math.log2(1.0 - th)) / (1.0 - th)
    if isinstance(model, ExplicitFinite):
        return -math.fsum(p * math.log2(p) for p in model.probs)
    if isinstance(model, Poisson):
        def term(i: int) -> float:
            p = point_mass(model, i)
            # a mass that underflows to 0.0 contributes less than 1e-320
            return -p * math.log2(p) if p > 0.0 else 0.0
        # the log factor grows slower than the pmf decays; past 2*mean + 8
        # consecutive term ratios stay below 0.6
        return _certified_sum(term, 0, lambda i: 0.6 if i > 2 * model.mean + 8 else 1.0)
    if isinstance(model, ExplicitTailed):
        if model.tail_ratio is None:
            raise ValueError("entropy needs tail_ratio for tailed models")
        rho = model.tail_ratio
        last = len(model.head) - 1
        acc = -math.fsum(p * math.log2(p) for p in model.head)
        # continuation: -sum_{m>=1} p0 rho^m (log2 p0 + m log2 rho)
        p0 = model.head[last]
        acc += -p0 * (rho / (1.0 - rho) * math.log2(p0)
                      + rho / (1.0 - rho) ** 2 * math.log2(rho))
        return acc
    raise TypeError(f"not a source model: {model!r}")


def _ln_renyi_sum(model: SourceModel, alpha: float) -> float:
    """ln sum_i p(i)**alpha, the Renyi partition sum of order alpha > 0.

    Poisson terms are taken from the log masses, shifted by the largest
    (at the mode), so that no term underflows at small or large alpha; the
    series stops once past the mode the ratio (mean/(i+1))**alpha certifies
    the remainder below SUM_TOL of the shifted sum, which is at least one.
    """
    if isinstance(model, Geometric):
        th = model.ratio
        return alpha * math.log(1.0 - th) - math.log(1.0 - th ** alpha)
    if isinstance(model, ExplicitFinite):
        return math.log(math.fsum(p ** alpha for p in model.probs))
    if isinstance(model, Poisson):
        m = model.mean
        ln_m = math.log(m)

        def ln_term(i: int) -> float:
            return alpha * (-m + i * ln_m - math.lgamma(i + 1))

        peak = ln_term(int(m))
        return peak + math.log(_certified_sum(
            lambda i: math.exp(ln_term(i) - peak),
            0, lambda i: (m / (i + 1)) ** alpha))
    if isinstance(model, ExplicitTailed):
        if model.tail_ratio is None:
            raise ValueError("entropy needs tail_ratio for tailed models")
        rho_a = model.tail_ratio ** alpha
        last = len(model.head) - 1
        z = math.fsum(p ** alpha for p in model.head)
        z += model.head[last] ** alpha * rho_a / (1.0 - rho_a)
        return math.log(z)
    raise TypeError(f"not a source model: {model!r}")


def renyi_entropy(model: SourceModel, base: float) -> float:
    """Order-alpha Renyi entropy in bits, at alpha = 1/(1 + log2 base).

    This is the entropy floor for the exponential penalty with this base.
    """
    if base <= 0.5:
        raise ValueError("entropy order degenerates at base <= 0.5")
    if base == 1.0:
        return shannon_entropy(model)
    alpha = 1.0 / (1.0 + math.log2(base))
    return _ln_renyi_sum(model, alpha) / ((1.0 - alpha) * LN2)
