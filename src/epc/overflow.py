"""Code choice maximizing the buffer-overflow decay rate.

A buffer drains one bit per unit time while codewords of random symbols
arrive separated by random intermissions T. The chance that the backlog ever
exceeds b bits falls like e^(-s*b), where s* is the largest s at which

    f(s) = E[e^(-sT)] * sum_i p(i) e^(s n(i))

stays at or below one. Larger s* means faster decay, so the optimizer looks
for the code maximizing s*: pick a bound s0, build the best code for the
exponential penalty at base e^(s0), measure its s*, rebuild at that base,
and repeat until the code reproduces itself.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

from .errors import DivergenceError, EpcError, StabilityError
from .golomb import GolombCode, golomb_exp_penalty
from .light_tail import optimal_code
from .models import (Exponential, Geometric, LengthSeq, SourceModel,
                     _Profile, _renyi_sum_of, shannon_entropy, tail_weight,
                     total_mass)
from .numeric import LN2

__all__ = [
    "Deterministic", "ExponentialArrivals", "GammaArrivals", "TableTransform",
    "ArrivalModel", "DecayRate", "OverflowResult",
    "overflow_functional", "max_decay_rate", "decay_rate_bound",
    "optimize_overflow",
]

_S_TOL = 1e-10
_PROBE = _S_TOL * (1.0 - 2.0 ** -10)   # the closing probe's offset
_SUM_REL = 1e-12


# ------------------------------------------------------------- intermissions

@dataclass(frozen=True)
class Deterministic:
    """Every intermission lasts exactly `gap` time units."""

    gap: float

    def __post_init__(self) -> None:
        if self.gap < 1.0:
            raise StabilityError(
                "deterministic intermission must be at least one bit time")

    def transform(self, s: float) -> float:
        return math.exp(-s * self.gap)

    def mean_gap(self) -> float:
        return self.gap


@dataclass(frozen=True)
class ExponentialArrivals:
    """Memoryless intermissions with the given rate."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0.0:
            raise ValueError("rate must be positive")

    def transform(self, s: float) -> float:
        return self.rate / (self.rate + s)

    def mean_gap(self) -> float:
        return 1.0 / self.rate


@dataclass(frozen=True)
class GammaArrivals:
    shape: float
    rate: float

    def __post_init__(self) -> None:
        if self.shape <= 0.0 or self.rate <= 0.0:
            raise ValueError("shape and rate must be positive")

    def transform(self, s: float) -> float:
        return (self.rate / (self.rate + s)) ** self.shape

    def mean_gap(self) -> float:
        return self.shape / self.rate


@dataclass(frozen=True)
class TableTransform:
    """User-measured transform samples (s, value), log-linearly interpolated.

    The first sample must be (0, 1). Beyond the last sample the final
    segment's log-slope extrapolates.
    """

    samples: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        samples = tuple((float(s), float(v)) for s, v in self.samples)
        object.__setattr__(self, "samples", samples)
        bad = [pair for pair in samples if not all(map(math.isfinite, pair))]
        if bad:     # a NaN would pass every comparison below
            raise ValueError(f"transform samples must be finite, got {bad[0]}")
        if len(samples) < 2:
            raise ValueError("need at least two samples")
        if samples[0] != (0.0, 1.0):
            raise ValueError("first sample must be (0, 1)")
        ss = [s for s, _ in samples]
        vs = [v for _, v in samples]
        if any(a >= b for a, b in zip(ss, ss[1:])):
            raise ValueError("sample points must be strictly increasing")
        if any(v <= 0.0 or v > 1.0 for v in vs):
            raise ValueError("transform values must lie in (0, 1]")
        if any(a < b for a, b in zip(vs, vs[1:])):
            raise ValueError("transform values must be nonincreasing")
        # the log of each sample, and the log-slope from each to the next
        logs = [math.log(v) for v in vs]
        object.__setattr__(self, "_points", ss)
        object.__setattr__(self, "_logs", logs)
        object.__setattr__(self, "_slopes", [
            (logs[k + 1] - logs[k]) / (ss[k + 1] - ss[k])
            for k in range(len(ss) - 1)])

    def transform(self, s: float) -> float:
        if s < 0.0:
            raise ValueError("s must be nonnegative")
        # the first segment whose right end reaches s, else the last one
        k = bisect_left(self._points, s, 1, len(self._points) - 1) - 1
        return math.exp(self._logs[k]
                        + self._slopes[k] * (s - self._points[k]))

    def mean_gap(self) -> float:
        return -self._slopes[0]


ArrivalModel = Union[Deterministic, ExponentialArrivals, GammaArrivals,
                     TableTransform]

CodeLike = Union[GolombCode, LengthSeq]   # every other code is a LengthSeq


class DecayRate(NamedTuple):
    value: float
    at_boundary: bool   # True when no positive s keeps f at or below one


@dataclass(frozen=True)
class OverflowResult:
    code: CodeLike
    decay_rate: float
    at_boundary: bool
    trace: tuple          # (decay rate, code) per iterate
    iterations: int

    def overflow_estimate(self, buffer_bits: float) -> float:
        return math.exp(-self.decay_rate * buffer_bits)


# ------------------------------------------------------------ the functional

def _golomb_power_sum(model: SourceModel, code: GolombCode, base: float) -> float:
    """sum p(i) base**n(i) for a Golomb code: in closed form on a geometric
    source, else truncated once the remainder is certifiably negligible."""
    if isinstance(model, Geometric):
        if base == 1.0:
            return total_mass(model)
        return base ** golomb_exp_penalty(model.ratio, base, code.k)
    k, g = code.k, code.suffix_bits
    acc = 0.0
    for i in range(64, 10 ** 6 + 1, 64):    # i symbols summed so far
        for j in range(i - 64, i):
            acc += model.mass(j) * base ** code.length(j)
        if base <= 1.0:
            remainder = base * tail_weight(model, i - 1, 1.0)
        else:
            b = base ** (1.0 / k)
            remainder = base ** (1 + g) * b ** (i - 1) * tail_weight(model, i - 1, b)
        if remainder < _SUM_REL * max(acc, 1.0):
            return acc
    raise DivergenceError("power sum did not settle")


class _GolombProfile:
    """A Golomb code's sums over a source, read as a _Profile's are."""

    sums = ()   # no per-length sums of a head

    def __init__(self, model: SourceModel, code: GolombCode) -> None:
        self.model, self.code = model, code

    def expected_length(self) -> float:
        if isinstance(self.model, Geometric):
            return golomb_exp_penalty(self.model.ratio, 1.0, self.code.k)
        raise ValueError("Golomb mean length needs a geometric source")

    def power_sum_at(self, base: float) -> float:
        return _golomb_power_sum(self.model, self.code, base)


def _profile(model: SourceModel, code: CodeLike):
    """The per-code work of the sums over a source, done once: its mean
    length expected_length() and base -> sum p(i) base**n(i) power_sum_at."""
    if isinstance(code, GolombCode):
        return _GolombProfile(model, code)
    return _Profile(model, code)


def overflow_functional(model: SourceModel, code: CodeLike,
                        arrivals: ArrivalModel, s: float) -> float:
    """f(s) above; exactly the source mass at s = 0."""
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    if s == 0.0:
        return total_mass(model)
    return arrivals.transform(s) * _profile(model, code).power_sum_at(
        math.exp(s))


# ------------------------------------------------------------- s* search

def _divergence_point(model: SourceModel, code: CodeLike) -> float:
    rho = model.tail_ratio   # None: no tail, or one lighter than geometric
    if rho is None or (isinstance(code, LengthSeq) and code.tail is None):
        return math.inf
    per_symbol = 1.0 / code.k if isinstance(code, GolombCode) else 1.0
    # sum terms behave like (rho * base**per_symbol)**i
    return -math.log(rho) / per_symbol


def max_decay_rate(model: SourceModel, code: CodeLike,
                   arrivals: ArrivalModel) -> DecayRate:
    """Largest s with f(s) <= 1.

    f is log-convex with f(0) = 1, so the feasible set is an interval
    starting at zero; it is the single point {0} exactly when the mean
    codeword length reaches the mean intermission. The bisection evaluates
    f as overflow_functional does; the mean length and every power sum
    read one profile of the code, built once per call.
    """
    profile = _profile(model, code)
    if profile.expected_length() >= arrivals.mean_gap():
        return DecayRate(0.0, True)
    power_sum_at = profile.power_sum_at

    def f_or_inf(s: float) -> float:
        base = math.exp(s)      # an OverflowError here is e^s's own
        t = arrivals.transform(s)
        try:
            return t * power_sum_at(base)
        except DivergenceError:
            return math.inf
        except OverflowError:
            # the power sum left the float range: f > 1 when the terms of
            # one codeword length alone, times the transform, pass one
            if t > 0.0 and any(m > 0.0 and math.log(m) + n * s > -math.log(t)
                               for m, n in profile.sums):
                return math.inf
            raise

    s_div = _divergence_point(model, code)
    lo = 0.0
    if math.isfinite(s_div):
        hi = s_div / 2.0
        while f_or_inf(hi) <= 1.0:
            lo = hi
            nxt = (hi + s_div) / 2.0
            if nxt <= hi:   # float resolution exhausted against the pole
                return DecayRate(hi, False)
            hi = nxt
    else:
        hi = 0.5
        while True:
            try:
                crossed = f_or_inf(hi) > 1.0
            except OverflowError:
                # e^s itself overflowed with f still at or below one: the
                # backlog shrinks at every tilt, there is no finite optimum
                raise DivergenceError("f never exceeds one; no finite optimum")
            if crossed:
                break
            lo = hi
            hi *= 2.0
            if hi > 2.0 ** 40:
                raise DivergenceError("f never exceeds one; no finite optimum")
    while hi - lo > _S_TOL:
        mid = (lo + hi) / 2.0
        if f_or_inf(mid) <= 1.0:
            lo = mid
        else:
            hi = mid
    return DecayRate(lo, False)


# ------------------------------------------------------------ initial bound

def _last_nonpositive(f: Callable[[float], float], slope0: float,
                      lo: float, hi: float, f_hi: float) -> float:
    """Shrink a bracket f(lo) <= 0 < f(hi) to width _S_TOL and return lo.

    f is convex on s >= 0 with f(0) = 0 and f'(0) = slope0 < 0, so it
    crosses zero once, rising, at a root r > 0. A secant through two points
    right of r lands at or right of r and converges to it superlinearly from
    that side; the first step, with one such point, takes the quadratic
    through the tangent at zero and (hi, f(hi)) instead. Once a step would
    move hi by at most half the tolerance, one probe just under _S_TOL left
    of hi closes the bracket from below. A step that lands left of r, or
    would leave the bracket, is followed by a bisection, and so is every
    step once as many have been taken as plain bisection needs: an f that
    is not convex, such as that of a user TableTransform, still ends. Only
    the sign test f(s) <= 0 decides.
    """
    budget = math.ceil(math.log2((hi - lo) / _S_TOL))
    right = None        # the right point before hi, (s, f(s))
    bisect = False
    while hi - lo > _S_TOL:
        mid = (lo + hi) / 2.0
        if bisect or budget <= 0:
            x = mid
        else:
            if right is None:
                x = -slope0 * hi * hi / (f_hi - slope0 * hi)
            elif right[1] > f_hi:
                x = hi - f_hi * (right[0] - hi) / (right[1] - f_hi)
            else:       # f does not rise between the two: not convex
                x = mid
            if hi - x <= _S_TOL / 2.0:
                x = hi - _PROBE
            if not lo < x < hi:
                x = mid
        budget -= 1
        fx = f(x)
        if fx <= 0.0:
            lo, bisect = x, x != mid
        else:
            right, hi, f_hi, bisect = (hi, f_hi), x, fx, False
    return lo


def decay_rate_bound(model: SourceModel, arrivals: ArrivalModel) -> float:
    """An s0 at or above every achievable decay rate: the largest s where
    the transform times the alpha-norm lower bound on the power sum stays
    at or below one, to within _S_TOL. Zero when the source entropy already
    meets the mean intermission."""
    if model.size == 1:
        raise DivergenceError("a one-symbol source needs zero bits per "
                              "symbol, so its decay rate is unbounded")
    entropy, mean_gap = shannon_entropy(model), arrivals.mean_gap()
    if entropy >= mean_gap:
        return 0.0
    renyi_sum = _renyi_sum_of(model)

    def ln_left(s: float) -> float:
        alpha = 1.0 / (1.0 + s / LN2)
        return math.log(arrivals.transform(s)) + renyi_sum(alpha) / alpha

    # at s = 0 both the transform and the sum of the masses are one, and
    # the slope of ln_left is the entropy less the mean intermission
    lo, hi = 0.0, 1.0
    f_hi = ln_left(hi)
    while f_hi <= 0.0:
        lo = hi
        hi *= 2.0
        if hi > 2.0 ** 40:
            raise EpcError("initial bound did not close; arrivals too slow")
        f_hi = ln_left(hi)
    return _last_nonpositive(ln_left, entropy - mean_gap, lo, hi, f_hi)


# --------------------------------------------------------------- optimizer

def _length_key(code: CodeLike):
    """A key two codes of one family share exactly when they give every
    symbol the same length: a Golomb code is keyed by itself, a LengthSeq
    by its head with the run its unary tail continues folded into the tail,
    since a light-tail split moves with the base."""
    if isinstance(code, GolombCode):
        return code
    head, tail = code.head, code.tail
    if tail is None:
        return head, None
    n, start = len(head), tail.start_length
    while n and head[n - 1] == start - 1:
        n, start = n - 1, start - 1
    return head[:n], start


def optimize_overflow(model: SourceModel,
                      arrivals: ArrivalModel) -> OverflowResult:
    """Fixed-point iteration: build the exponential-penalty-optimal code at
    base e**s, re-measure s, repeat until the code reproduces its
    predecessor's length for every symbol."""
    s_prev = decay_rate_bound(model, arrivals)
    prev_code = prev_key = None
    boundary = False
    trace = []
    for _ in range(64):
        code = optimal_code(model, Exponential(math.exp(s_prev)))
        key = _length_key(code)
        if key == prev_key:
            return OverflowResult(prev_code, s_prev, boundary, tuple(trace),
                                  len(trace))
        rate = max_decay_rate(model, code, arrivals)
        trace.append((rate.value, code))
        s_prev, boundary, prev_code, prev_key = (
            rate.value, rate.at_boundary, code, key)
    raise EpcError("fixed-point iteration did not settle in 64 rounds")
