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
s* is the answer of a plain bisection on the sign of ln f, but since ln f
is convex, max_decay_rate first locates its root with the same convex
secant that finds the bound, and then computes ln f only at the
bisection's midpoints near that root.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

from .errors import DivergenceError, EpcError, StabilityError
from .light_tail import _base_check, optimal_code
from .models import (Exponential, LengthSeq, SourceModel, _Profile, _exp,
                     _ln_series, shannon_entropy, total_mass)
from .numeric import LN2, check_finite, check_nonnegative, check_positive

__all__ = [
    "Deterministic", "ExponentialArrivals", "GammaArrivals", "TableTransform",
    "ArrivalModel", "DecayRate", "OverflowResult",
    "overflow_functional", "max_decay_rate", "decay_rate_bound",
    "optimize_overflow",
]

_S_TOL = 1e-10
_ROUNDING = 2.0 ** -48     # 16 float epsilons, a table's rounding slack
_PROBE = _S_TOL * (1.0 - 2.0 ** -10)   # the closing probe's offset
_ENVELOPE_STEPS = 4     # the bound's start: each step costs a transform call
# max_decay_rate's bisection evaluates ln f at a midpoint this close to the
# located root's bracket, where rounding may give ln f a sign convexity would
# not, and decides every farther one by its side
_NEAR = _S_TOL / 8.0


# ------------------------------------------------------------- intermissions

class _Arrivals:
    """An intermission law answers ln_transform(s) = ln E[e^(-sT)] and
    mean_gap() = E[T]; transform(s) is the exp of the first. ln_transform
    is convex in s, as that of every law is (Hoelder's inequality), and
    refuses an s that is not finite and nonnegative."""

    def transform(self, s: float) -> float:
        return math.exp(self.ln_transform(s))


@dataclass(frozen=True)
class Deterministic(_Arrivals):
    """Every intermission lasts exactly `gap` time units."""

    gap: float

    def __post_init__(self) -> None:
        check_finite("gap", self.gap)     # a NaN would pass the test below
        if self.gap < 1.0:
            raise StabilityError(
                "deterministic intermission must be at least one bit time")

    def ln_transform(self, s: float) -> float:
        check_nonnegative("s", s)
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
        check_nonnegative("s", s)
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
        check_nonnegative("s", s)
        return -self.shape * math.log1p(s / self.rate)

    def mean_gap(self) -> float:
        return self.shape / self.rate


@dataclass(frozen=True)
class TableTransform(_Arrivals):
    """User-measured transform samples (s, value), log-linearly interpolated.

    The first sample must be (0, 1). Beyond the last sample the final
    segment's log-slope extrapolates. A transform is log-convex, so the
    log-slopes from sample to sample must never fall by more than rounding.
    """

    samples: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        pairs = tuple(self.samples)     # tested before float() can overflow
        for pair in pairs:      # a NaN would pass every comparison below
            for value in pair:
                check_finite("transform samples", value)
        samples = tuple((float(s), float(v)) for s, v in pairs)
        object.__setattr__(self, "samples", samples)
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
        slopes = [(logs[k + 1] - logs[k]) / (ss[k + 1] - ss[k])
                  for k in range(len(ss) - 1)]
        for k in range(1, len(slopes)):
            # the log at ss[k] lies `rise` above its neighbours' chord; on a
            # sampled e**(-g s) rounding gives up to 0.7 eps of the scale below
            left, right = ss[k] - ss[k - 1], ss[k + 1] - ss[k]
            rise = (slopes[k - 1] - slopes[k]) * left * right / (left + right)
            if rise > _ROUNDING * (1.0 - logs[k + 1] - slopes[k] * ss[k + 1]):
                raise ValueError("transform samples must be log-convex: the "
                                 f"log-slope falls at s = {ss[k]!r}")
        object.__setattr__(self, "_points", ss)
        object.__setattr__(self, "_logs", logs)
        object.__setattr__(self, "_slopes", slopes)

    def ln_transform(self, s: float) -> float:
        check_nonnegative("s", s)
        # the first segment whose right end reaches s, else the last one
        k = bisect_left(self._points, s, 1, len(self._points) - 1) - 1
        return self._logs[k] + self._slopes[k] * (s - self._points[k])

    def mean_gap(self) -> float:
        return -self._slopes[0]


ArrivalModel = Union[Deterministic, ExponentialArrivals, GammaArrivals,
                     TableTransform]


class DecayRate(NamedTuple):
    value: float
    at_boundary: bool   # True when no positive s keeps f at or below one


@dataclass(frozen=True)
class OverflowResult:
    code: LengthSeq
    decay_rate: float
    at_boundary: bool
    trace: tuple          # (decay rate, code) per iterate

    @property
    def iterations(self) -> int:
        return len(self.trace)

    def overflow_estimate(self, buffer_bits: float) -> float:
        """e**(-decay_rate * buffer_bits), the exponential decay of the
        chance that the backlog exceeds a buffer of that many bits."""
        check_nonnegative("buffer size", buffer_bits)
        return math.exp(-self.decay_rate * buffer_bits)


# ------------------------------------------------------------ the functional

def overflow_functional(model: SourceModel, code: LengthSeq,
                        arrivals: ArrivalModel, s: float) -> float:
    """f(s) above, from ln f; exactly the source mass at s = 0."""
    check_nonnegative("s", s)
    profile = _Profile(model, code)     # refuses a code the source cannot take
    if s == 0.0:
        return total_mass(model)
    return _exp(arrivals.ln_transform(s) + profile.ln_power_sum(s), "f(s)")


# ------------------------------------------------------------- s* search

def max_decay_rate(model: SourceModel, code: LengthSeq,
                   arrivals: ArrivalModel) -> DecayRate:
    """Largest s with f(s) <= 1.

    f is log-convex with f(0) = 1, so the feasible set is an interval
    starting at zero; it is the single point {0} exactly when the mean
    codeword length reaches the mean intermission, unless every word of a
    finite source is as long as a deterministic gap: f is then one at every
    s, and the answer is decay_rate_bound's, zero where the entropy meets
    the gap and else refused as unbounded.

    Otherwise a walk brackets the root while ln f <= 0: from half the power
    sum's pole it halves the distance left, and ends a float step below the
    pole, never evaluating f there (at once if ln f <= 0 at that end); with
    no pole it doubles from 1/2 up to 2**40. Else the answer is the lo of a
    plain bisection that tests ln f <= 0 from the walk's bracket, down to
    width _S_TOL or until no float lies strictly between its ends. Only its
    midpoints near the root need ln f: the bound's convex secant, started
    from that bracket and the tangent at zero (slope: mean length less mean
    gap), first locates the root to _S_TOL, and the bisection then
    evaluates ln f, at most once per point, within _NEAR of that located
    bracket and decides every other midpoint by its side. The mean length
    and every power sum read one profile of the code, built once per call.
    A source with no pole whose series stops at its term cap leaves f
    undecided at that point, which decides no other midpoint; if the
    bracket's upper end is such a point, the DivergenceError of that cap is
    raised.
    """
    profile = _Profile(model, code)
    if isinstance(arrivals, Deterministic) and model.size and all(
            code.length_at(i) == arrivals.gap for i in range(model.size)):
        return DecayRate(decay_rate_bound(model, arrivals), True)
    mean_length, mean_gap = profile.expected_length(), arrivals.mean_gap()
    if mean_length >= mean_gap:
        return DecayRate(0.0, True)
    ln_power_sum, ln_transform = profile.ln_power_sum, arrivals.ln_transform
    s_div = profile.pole
    values = {}     # ln f by s
    capped = {}     # with no pole, the DivergenceError of each s cut short

    def ln_f(s: float) -> float:
        value = values.get(s)
        if value is None:
            try:
                value = ln_transform(s) + ln_power_sum(s)
            except DivergenceError as exc:
                if s_div == math.inf:
                    capped[s] = exc
                value = math.inf
            values[s] = value
        return value

    lo, hi = 0.0, s_div / 2.0 if s_div < math.inf else 0.5
    if s_div < math.inf:
        # a convex ln f <= 0 at the walk's last point is so all along it;
        # else the walk below stops there at the latest
        last = hi
        while last < (last + s_div) / 2.0 < s_div:
            last = (last + s_div) / 2.0
        if ln_f(last) <= 0.0:
            return DecayRate(last, False)
    while ln_f(hi) <= 0.0:
        lo, hi = hi, min(2.0 * hi, (hi + s_div) / 2.0)
        if hi > 2.0 ** 40 and s_div == math.inf:
            raise DivergenceError("f never exceeds one; no finite optimum")
    # ln f is at or below zero left of `left` and above it right of `right`;
    # a point the term cap left undecided shows nothing
    left, right = _last_nonpositive(ln_f, mean_length - mean_gap, lo, hi,
                                    ln_f(hi))
    if right in capped:
        right = math.inf
    while hi - lo > _S_TOL:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:       # no float lies between them
            break
        if mid < left - _NEAR or (mid <= right + _NEAR and ln_f(mid) <= 0.0):
            lo = mid
        else:
            hi = mid
    if hi in capped:    # f(hi) > 1 was never computed
        raise capped[hi]
    return DecayRate(lo, False)


# ------------------------------------------------------------ initial bound

def _last_nonpositive(f: Callable[[float], float], slope0: float,
                      lo: float, hi: float,
                      f_hi: float) -> tuple[float, float]:
    """Shrink a bracket f(lo) <= 0 < f(hi) to width _S_TOL, or until no
    float lies strictly inside it, and return it.

    f is convex on s >= 0 with f(0) = 0 and f'(0) = slope0 < 0, so it
    crosses zero once, rising, at a root r > 0. A secant through two points
    right of r lands at or right of r and converges to it superlinearly from
    that side. The first step, with one such point, takes the quadratic
    through the tangent at zero and (hi, f(hi)) instead, and so does every
    step whose older right point lies more than 2 hi out, since a chord to
    a point that far is steep and moves hi little. Once a step would move
    hi by at most half the tolerance, one probe just under _S_TOL left of
    hi closes the bracket from below. A step that lands left of r, or
    would leave the bracket, is followed by a bisection, and so is every
    step once as many have been taken as plain bisection needs: an f that
    rounding leaves not quite convex still ends. Only the sign test
    f(s) <= 0 decides.
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
            if right is None or right[0] > 2.0 * hi:
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
    return lo, hi


def _envelope_start(ln_transform: Callable[[float], float], entropy: float,
                    slope0: float) -> float:
    """The bound's first point: 1, or a point below it where the Shannon
    envelope g(s) = ln T(s) + s * entropy is positive.

    Renyi entropy falls with its order, so the bound's left side is at or
    above g, and g > 0 puts that point right of s0. g is convex with g(0) =
    0 and g'(0) = slope0 < 0; from s = 1 up to _ENVELOPE_STEPS quadratic
    steps through its tangent at zero close in on its root, each kept while
    g stays positive. Under a deterministic gap g never passes zero."""
    s = 1.0
    g = ln_transform(s) + s * entropy
    for _ in range(_ENVELOPE_STEPS):
        if g <= 0.0:    # at s = 1, or at a step not kept
            break
        x = -slope0 * s * s / (g - slope0 * s)     # in (0, s)
        g = ln_transform(x) + x * entropy
        if g > 0.0:
            s = x
    return s


def decay_rate_bound(model: SourceModel, arrivals: ArrivalModel, *,
                     _at_raise: Callable[[float], object] | None = None
                     ) -> float:
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
    that passes one.

    Elsewhere a walk brackets s0 and _last_nonpositive closes the bracket.
    The walk starts at 1, or, under random gaps, below it at a point right
    of s0 that _envelope_start finds from the transform and the entropy, and
    quadruples its point while the left side there is at or below zero.

    optimize_overflow passes _at_raise, called with lo each time the walk
    raises its lower end lo: every later bracket, s0 among it, lies at or
    above lo."""
    n = model.size
    if n == 1:
        raise DivergenceError("a one-symbol source needs zero bits per "
                              "symbol, so its decay rate is unbounded")
    entropy, mean_gap = shannon_entropy(model), arrivals.mean_gap()
    if entropy >= mean_gap:
        return 0.0
    steady = isinstance(arrivals, Deterministic)
    if steady and n is not None and arrivals.gap >= math.log2(n):
        bits = math.floor(arrivals.gap)
        if bits >= (n - 1).bit_length():   # 2**bits >= n
            raise DivergenceError(
                f"a deterministic gap of {arrivals.gap} bit times meets "
                f"2**floor(gap) >= {n}, the symbol count, so the bound "
                "never closes")
        return -math.log(min(model.masses(n))) / (bits + 1 - arrivals.gap)

    def ln_left(s: float) -> float:
        alpha = 1.0 / (1.0 + s / LN2)
        return (arrivals.ln_transform(s)
                + _ln_series(model, 0, alpha, 0.0) / alpha)

    # at s = 0 both the transform and the sum of the masses are one, and
    # the slope of ln_left is the entropy less the mean intermission
    slope0 = entropy - mean_gap
    # under a steady gap the envelope, s * (entropy - gap), is never positive
    lo, hi = 0.0, (1.0 if steady else
                   _envelope_start(arrivals.ln_transform, entropy, slope0))
    f_hi = ln_left(hi)
    while f_hi <= 0.0:
        lo = hi
        if _at_raise is not None:
            _at_raise(lo)
        hi *= 4.0
        if hi > 2.0 ** 40:
            raise EpcError("initial bound did not close; arrivals too slow")
        f_hi = ln_left(hi)
    return _last_nonpositive(ln_left, slope0, lo, hi, f_hi)[0]


# --------------------------------------------------------------- optimizer

def _length_key(code: LengthSeq):
    """A key two codes of one family share exactly when they give every
    symbol the same length: the head, the run's spine and k, with the head
    lengths a unary run (k = 1) continues folded into its spine, since a
    light-tail split moves with the base."""
    head, tail = code.head, code.tail
    if tail is None:
        return head, None
    n, spine = len(head), tail.spine
    while tail.k == 1 and n and head[n - 1] == spine:
        n, spine = n - 1, spine - 1
    return head[:n], spine, tail.k


def optimize_overflow(model: SourceModel,
                      arrivals: ArrivalModel) -> OverflowResult:
    """Fixed-point iteration: build the exponential-penalty-optimal code at
    base e**s, re-measure s, repeat until the code reproduces its
    predecessor's length for every symbol. Where the source's code family
    can refuse a base, the base e**lo is checked each time the bound's walk
    raises its lower end lo, and a refusal there ends the solve: the first
    code's base, e**s0, is at least e**lo, and the check refuses every
    base above one it refuses."""
    s_prev = decay_rate_bound(model, arrivals, _at_raise=_base_check(model))
    prev_code = prev_key = None
    boundary = False
    trace = []
    for _ in range(64):
        base = _exp(s_prev, "the code's base")
        code = optimal_code(model, Exponential(base))
        key = _length_key(code)
        if key == prev_key:
            return OverflowResult(prev_code, s_prev, boundary, tuple(trace))
        rate = max_decay_rate(model, code, arrivals)
        trace.append((rate.value, code))
        s_prev, boundary, prev_code, prev_key = (
            rate.value, rate.at_boundary, code, key)
    raise EpcError("fixed-point iteration did not settle in 64 rounds")
