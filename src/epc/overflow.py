"""Code choice maximizing the buffer-overflow decay rate.

A buffer drains one bit per unit time while codewords of random symbols
arrive separated by random intermissions T. The chance that the backlog ever
exceeds b bits falls like e^(-s*b), where s* is the largest s at which

    f(s) = E[e^(-sT)] * sum_i p(i) e^(s n(i))

stays at or below one. Larger s* means faster decay, so the optimizer looks
for the code maximizing s*: pick a bound s0, build the best code for the
exponential penalty at base e^(s0), measure its s*, rebuild at that base,
and repeat until the code reproduces itself. Every solve works on
ln f = ln T(s) + ln P(e^s), the log of the transform plus the log of the
power sum, so that neither factor leaves the float range at a large tilt.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

from .errors import DivergenceError, EpcError, StabilityError
from .golomb import GolombCode
from .light_tail import optimal_code
from .models import (Exponential, LengthSeq, SourceModel, _exp, _ln_series,
                     shannon_entropy, total_mass)
from .numeric import LN2, check_positive

__all__ = [
    "Deterministic", "ExponentialArrivals", "GammaArrivals", "TableTransform",
    "ArrivalModel", "DecayRate", "OverflowResult",
    "overflow_functional", "max_decay_rate", "decay_rate_bound",
    "optimize_overflow",
]

_S_TOL = 1e-10
_PROBE = _S_TOL * (1.0 - 2.0 ** -10)   # the closing probe's offset


# ------------------------------------------------------------- intermissions

class _Arrivals:
    """An intermission law answers ln_transform(s) = ln E[e^(-sT)] and
    mean_gap() = E[T]; transform(s) is the exp of the first."""

    def transform(self, s: float) -> float:
        return math.exp(self.ln_transform(s))


@dataclass(frozen=True)
class Deterministic(_Arrivals):
    """Every intermission lasts exactly `gap` time units."""

    gap: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.gap):     # a NaN would pass the test below
            raise ValueError(f"gap must be finite, got {self.gap!r}")
        if self.gap < 1.0:
            raise StabilityError(
                "deterministic intermission must be at least one bit time")

    def ln_transform(self, s: float) -> float:
        return -s * self.gap

    def mean_gap(self) -> float:
        return self.gap


@dataclass(frozen=True)
class ExponentialArrivals(_Arrivals):
    """Memoryless intermissions with the given rate."""

    rate: float

    def __post_init__(self) -> None:
        check_positive("rate", self.rate)

    def ln_transform(self, s: float) -> float:
        return -math.log1p(s / self.rate)

    def mean_gap(self) -> float:
        return 1.0 / self.rate


@dataclass(frozen=True)
class GammaArrivals(_Arrivals):
    shape: float
    rate: float

    def __post_init__(self) -> None:
        check_positive("shape", self.shape)
        check_positive("rate", self.rate)

    def ln_transform(self, s: float) -> float:
        return -self.shape * math.log1p(s / self.rate)

    def mean_gap(self) -> float:
        return self.shape / self.rate


@dataclass(frozen=True)
class TableTransform(_Arrivals):
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

    def ln_transform(self, s: float) -> float:
        if s < 0.0:
            raise ValueError("s must be nonnegative")
        # the first segment whose right end reaches s, else the last one
        k = bisect_left(self._points, s, 1, len(self._points) - 1) - 1
        return self._logs[k] + self._slopes[k] * (s - self._points[k])

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
        """e**(-decay_rate * buffer_bits), the exponential decay of the
        chance that the backlog exceeds a buffer of that many bits."""
        if not 0.0 <= buffer_bits < math.inf:
            raise ValueError("buffer size must be finite and nonnegative, "
                             f"got {buffer_bits!r}")
        return math.exp(-self.decay_rate * buffer_bits)


# ------------------------------------------------------------ the functional

def overflow_functional(model: SourceModel, code: CodeLike,
                        arrivals: ArrivalModel, s: float) -> float:
    """f(s) above, from ln f; exactly the source mass at s = 0."""
    if not 0.0 <= s < math.inf:     # NaN too
        raise ValueError(f"s must be finite and nonnegative, got {s!r}")
    profile = code._profile(model)      # refuses a code the source cannot take
    if s == 0.0:
        return total_mass(model)
    return _exp(arrivals.ln_transform(s) + profile.ln_power_sum(s), "f(s)")


# ------------------------------------------------------------- s* search

def max_decay_rate(model: SourceModel, code: CodeLike,
                   arrivals: ArrivalModel) -> DecayRate:
    """Largest s with f(s) <= 1.

    f is log-convex with f(0) = 1, so the feasible set is an interval
    starting at zero; it is the single point {0} exactly when the mean
    codeword length reaches the mean intermission. The bisection tests
    ln f <= 0, down to width _S_TOL or until no float lies strictly between
    its ends; the mean length and every power sum read one profile of the
    code, built once per call. A source with no pole whose series stops at
    its term cap at the bracket's upper end leaves f undecided there, and
    the DivergenceError of that cap is raised.
    """
    profile = code._profile(model)
    if profile.expected_length() >= arrivals.mean_gap():
        return DecayRate(0.0, True)
    ln_power_sum, ln_transform = profile.ln_power_sum, arrivals.ln_transform
    s_div = profile.pole
    capped = None   # with no pole, (s, error) of the last series cut short

    def ln_f(s: float) -> float:
        nonlocal capped
        try:
            return ln_transform(s) + ln_power_sum(s)
        except DivergenceError as exc:
            if s_div == math.inf:
                capped = s, exc
            return math.inf

    lo = 0.0
    if math.isfinite(s_div):
        hi = s_div / 2.0
        while ln_f(hi) <= 0.0:
            lo = hi
            nxt = (hi + s_div) / 2.0
            if nxt <= hi:   # float resolution exhausted against the pole
                return DecayRate(hi, False)
            hi = nxt
    else:
        hi = 0.5
        while ln_f(hi) <= 0.0:
            lo = hi
            hi *= 2.0
            if hi > 2.0 ** 40:
                raise DivergenceError("f never exceeds one; no finite optimum")
    while hi - lo > _S_TOL:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:       # no float lies between them
            break
        if ln_f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    if capped and capped[0] == hi:  # f(hi) > 1 was never computed
        raise capped[1]
    return DecayRate(lo, False)


# ------------------------------------------------------------ initial bound

def _last_nonpositive(f: Callable[[float], float], slope0: float,
                      lo: float, hi: float, f_hi: float) -> float:
    """Shrink a bracket f(lo) <= 0 < f(hi) to width _S_TOL, or until no
    float lies strictly inside it, and return lo.

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
        if not lo < mid < hi:       # no float lies between them
            break
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
    meets the mean intermission.

    Under a deterministic gap of at least log2 n bits over n symbols that
    bound never passes one, since sum p**alpha <= n**(1 - alpha) keeps its
    log at or below s * (log2 n - gap). If n words fit within floor(gap)
    bits, some code's f stays at or below one at every s, and the source
    is refused. Otherwise every code has a word of floor(gap) + 1 bits or
    more, so f(s) >= p_min e**(s (floor(gap) + 1 - gap)), and s0 is where
    that passes one."""
    n = model.size
    if n == 1:
        raise DivergenceError("a one-symbol source needs zero bits per "
                              "symbol, so its decay rate is unbounded")
    entropy, mean_gap = shannon_entropy(model), arrivals.mean_gap()
    if entropy >= mean_gap:
        return 0.0
    if (isinstance(arrivals, Deterministic) and n is not None
            and arrivals.gap >= math.log2(n)):
        bits = math.floor(arrivals.gap)
        if bits >= (n - 1).bit_length():   # 2**bits >= n
            raise DivergenceError(
                f"a deterministic gap of {arrivals.gap} bit times is at "
                f"least log2 of the {n} symbols, so the bound never closes")
        return -math.log(min(model.masses(n))) / (bits + 1 - arrivals.gap)

    def ln_left(s: float) -> float:
        alpha = 1.0 / (1.0 + s / LN2)
        return (arrivals.ln_transform(s)
                + _ln_series(model, 0, alpha, 0.0) / alpha)

    # at s = 0 both the transform and the sum of the masses are one, and
    # the slope of ln_left is the entropy less the mean intermission
    lo, hi = 0.0, 1.0
    f_hi = ln_left(hi)
    while f_hi <= 0.0:
        lo = hi
        hi *= 4.0
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
        base = _exp(s_prev, "the code's base")
        code = optimal_code(model, Exponential(base))
        key = _length_key(code)
        if key == prev_key:
            return OverflowResult(prev_code, s_prev, boundary, tuple(trace),
                                  len(trace))
        rate = max_decay_rate(model, code, arrivals)
        trace.append((rate.value, code))
        s_prev, boundary, prev_code, prev_key = (
            rate.value, rate.at_boundary, code, key)
    raise EpcError("fixed-point iteration did not settle in 64 rounds")
