"""Probability sources, penalty variants, and penalty evaluation.

Sources are measures on the nonnegative integers, usually summing to one. A
LengthSeq gives each symbol a codeword length: a head, then optionally unary.
Penalties read the head once per distinct length, through one profile of
the masses grouped by length. Values are immutable and functions pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Optional, Union

from .bits import integer_lengths, kraft_sign, length_counts
from .errors import DivergenceError
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

def _probabilities(probs, what: str) -> tuple[float, ...]:
    """The validated masses of a finite head or alphabet."""
    probs = tuple(map(float, probs))
    if not probs:
        raise ValueError(f"need at least one {what}")
    inf = math.inf
    if not all(0.0 < p < inf for p in probs):   # one pass; NaN fails too
        if not all(map(math.isfinite, probs)):
            raise ValueError("probabilities must be finite")
        raise ValueError("probabilities must be strictly positive")
    return probs


class _Source:
    """The one protocol every source answers; each query below is written
    once over it.

    mass(i), ln_mass(i)  p(i) and ln p(i) for i within the alphabet;
                         masses(n) lists p(0), ..., p(n-1)
    size                 the alphabet size, None for an infinite source
    tail_ratio           a geometric continuation, p(i+1) = tail_ratio * p(i)
                         from tail_start on; None for a finite source and for
                         Poisson, whose mass ratio p(i+1)/p(i) is mean/(i+1)
    """

    size = None

    def masses(self, n: int) -> list[float]:
        return [self.mass(i) for i in range(n)]


class _GeometricTail(_Source):
    """A head whose last entry continues geometrically: p(i) = head[i] up to
    tail_start = len(head) - 1, then head[-1] * tail_ratio**(i - tail_start)."""

    @property
    def tail_start(self) -> int:
        return len(self.head) - 1

    def mass(self, i: int) -> float:
        head = self.head
        if i < len(head):
            return head[i]
        last = len(head) - 1
        return head[last] * self.tail_ratio ** (i - last)

    def masses(self, n: int) -> list[float]:
        # mass(i) for each i in one pass; p(last + j) is mass's own
        # head[last] * ratio**j, so the floats are the same
        head, ratio = self.head, self.tail_ratio
        last = len(head) - 1
        p = head[last]
        return list(head[:n]) + [p * ratio ** j for j in range(1, n - last)]

    def ln_mass(self, i: int) -> float:
        head = self.head
        if i < len(head):
            return math.log(head[i])
        last = len(head) - 1
        return math.log(head[last]) + (i - last) * math.log(self.tail_ratio)


@dataclass(frozen=True)
class Geometric(_GeometricTail):
    """p(i) = (1 - ratio) * ratio**i: the one-entry head (1 - ratio,) with
    tail ratio `ratio`."""

    ratio: float

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"ratio must lie in (0, 1), got {self.ratio}")
        object.__setattr__(self, "head", (1.0 - self.ratio,))
        object.__setattr__(self, "tail_ratio", self.ratio)


@dataclass(frozen=True)
class Poisson(_Source):
    """p(i) = mean**i * exp(-mean) / i!."""

    mean: float
    tail_ratio = None

    def __post_init__(self) -> None:
        check_positive("mean", self.mean)
        object.__setattr__(self, "_ln_mean", math.log(self.mean))

    def ln_mass(self, i: int) -> float:
        return -self.mean + i * self._ln_mean - math.lgamma(i + 1)

    def mass(self, i: int) -> float:
        return math.exp(self.ln_mass(i))


@dataclass(frozen=True)
class ExplicitFinite(_Source):
    """A finite distribution given outright. Probabilities must sum to one;
    raw weight sets that do not are handled by the huffman engines directly."""

    probs: tuple[float, ...]
    tail_ratio = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs",
                           _probabilities(self.probs, "probability"))
        if abs(math.fsum(self.probs) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1 within 1e-9")

    @property
    def size(self) -> int:
        return len(self.probs)

    def mass(self, i: int) -> float:
        return self.probs[i]

    def ln_mass(self, i: int) -> float:
        return math.log(self.probs[i])

    def masses(self, n: int) -> list[float]:
        return list(self.probs[:n])


@dataclass(frozen=True)
class ExplicitTailed(_GeometricTail):
    """Finite head whose last entry continues geometrically with
    tail_ratio: p(i) = head[-1] * tail_ratio**(i - len(head) + 1) past the
    head. A value: equal heads and ratios compare and hash equal."""

    head: tuple[float, ...]
    tail_ratio: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "head",
                           _probabilities(self.head, "head probability"))
        if not 0.0 < self.tail_ratio < 1.0:
            raise ValueError("tail_ratio must lie in (0, 1)")


SourceModel = Union[Geometric, Poisson, ExplicitFinite, ExplicitTailed]


def with_geometric_tail(head, ratio: float) -> ExplicitTailed:
    """ExplicitTailed whose tail continues the last head entry geometrically:
    p(i) = head[-1] * ratio**(i - len(head) + 1) for i >= len(head)."""
    return ExplicitTailed(tuple(head), ratio)


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

@dataclass(frozen=True, init=False)
class UnaryTail:
    """n(i) = start_length + (i - start_index) for all i >= start_index."""

    start_index: int
    start_length: int

    def __init__(self, start_index: int, start_length: int) -> None:
        index, length = start_index, start_length
        if type(index) is not int or type(length) is not int:
            index, length = integer_lengths((index, length))
        if index < 0 or length < 1:
            raise ValueError("bad tail record")
        object.__setattr__(self, "start_index", index)
        object.__setattr__(self, "start_length", length)


@dataclass(frozen=True)
class LengthSeq:
    """Codeword lengths, head[i] for symbol i and then the unary tail: the
    one lengths value every code is. Positive integers (a lone 0 codes a
    one-symbol alphabet) whose Kraft sum, the tail counted as one word of
    start_length - 1 bits, is at most one, tested exactly."""

    head: tuple[int, ...]
    tail: Optional[UnaryTail] = None

    def __post_init__(self) -> None:
        head = words = integer_lengths(self.head)
        object.__setattr__(self, "head", head)
        # the one symbol of a one-symbol alphabet needs no bits
        if head and min(head) < 1 and head != (0,):
            raise ValueError("lengths must be positive")
        if self.tail is not None:
            if self.tail.start_index != len(head):
                raise ValueError("tail must start right after the head")
            # the tail fills the code space of one word a bit shorter
            words += (self.tail.start_length - 1,)
        if kraft_sign(sorted(words)) > 0:
            raise ValueError("lengths violate the Kraft inequality")

    def _hold(self, lengths, unary: bool) -> "LengthSeq":
        """Hold lengths a container can carry, their words per length as the
        tuple `counts`, from one bits.length_counts check, and as
        `head_sorted` whether the head is nondecreasing, so that canonical
        order is symbol order. With `unary` the last length is an all-1s
        spine, and the tail starts one bit past it."""
        lengths = integer_lengths(lengths)
        head, spine = (lengths[:-1], lengths[-1]) if unary else (lengths, None)
        ordered = sorted(head)
        counts = length_counts(ordered, spine)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", None if spine is None
                           else UnaryTail(len(head), spine + 1))
        object.__setattr__(self, "counts", tuple(counts))
        object.__setattr__(self, "head_sorted", tuple(ordered) == head)
        return self

    def length_at(self, i: int) -> int:
        if i < len(self.head):
            if i < 0:
                raise ValueError("symbols are nonnegative")
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

# relative bound on what a tail weight summed term by term leaves out: the
# weight is merged against masses far below one, so it is certified against
# itself, to a rounding unit, rather than against SUM_TOL
_TAIL_REL = 2.0 ** -53
_MAX_TERMS = 10 ** 7


def point_mass(model: SourceModel, i: int) -> float:
    """p(i)."""
    if i < 0:
        raise ValueError("symbols are nonnegative")
    if model.size is not None and i >= model.size:
        raise IndexError(f"symbol {i} outside the {model.size}-ary alphabet")
    return model.mass(i)


def tail_weight(model: SourceModel, j: int, base: float) -> float:
    """sum_{k>j} p(k) * base**(k-j). j = -1 is allowed and weighs the whole
    support by base**(k+1)."""
    check_positive("base", base)
    if model.size is not None:
        return math.fsum(p * base ** (k - j) for k, p in
                         enumerate(model.masses(model.size)) if k > j)
    rho = model.tail_ratio
    if rho is not None:
        q = base * rho
        if q >= 1.0:
            raise DivergenceError(
                f"geometric tail diverges: base*ratio = {q} >= 1")
        s = model.tail_start
        if j >= s:
            return model.mass(j + 1) * base / (1.0 - q)
        acc = 0.0
        for k in range(j + 1, s + 1):
            acc += model.mass(k) * base ** (k - j)
        return acc + model.mass(s + 1) * base / (1.0 - q) * base ** (s - j)
    # summed outward from the largest term, k0, in multiples of it, each
    # term from the last by the ratio base * mean / (k + 1) above k0 and its
    # inverse below, so that none underflows before the sum does; on each
    # side the rest after a term v is at most v * q / (1 - q)
    scale = base * model.mean
    k0 = max(j + 1, int(scale))
    acc = v = 1.0
    for k in range(k0, k0 + _MAX_TERMS):
        q = scale / (k + 1)
        v *= q
        acc += v
        if v * q <= _TAIL_REL * (1.0 - q) * acc:
            break
    else:
        raise DivergenceError("series did not settle after the term cap")
    v = 1.0
    for k in range(k0, j + 1, -1):
        q = k / scale
        v *= q
        acc += v
        if v * q <= _TAIL_REL * (1.0 - q) * acc:
            break
    return acc * math.exp(model.ln_mass(k0) + (k0 - j) * math.log(base))


def total_mass(model: SourceModel) -> float:
    return tail_weight(model, -1, 1.0)


# ------------------------------------------------------- penalty evaluation

class _Profile:
    """The symbols a head sum runs over (a finite source's alphabet, else
    the head of the lengths) by codeword length, ascending: `groups` holds
    (length, their masses), `sums` (those masses' fsum, length)."""

    def __init__(self, model: SourceModel, lengths: LengthSeq) -> None:
        head, tail, size = lengths.head, lengths.tail, model.size
        if tail is None and (size is None or size > len(head)):
            raise ValueError("lengths with no tail do not cover the alphabet")
        if size is not None and size > len(head):   # running into the tail
            head += tuple(range(tail.start_length,
                                tail.start_length + size - len(head)))
        self.model, self.head, self.tail = model, head[:size], tail
        groups = {n: [] for n in sorted(set(self.head))}
        for n, p in zip(self.head, model.masses(len(self.head))):
            groups[n].append(p)
        self.groups = list(groups.items())
        self.sums = [(math.fsum(ps), n) for n, ps in self.groups]

    def power_sum_at(self, base: float) -> float:
        acc = math.fsum(m * base ** n for m, n in self.sums)
        if self.model.size is not None:
            return acc
        # sum_{i>=t0} p(i) base**(L0+i-t0) = base**(L0-1) * tail_weight(t0-1)
        return acc + base ** (self.tail.start_length - 1) * tail_weight(
            self.model, self.tail.start_index - 1, base)

    def expected_length(self) -> float:
        """sum p(i) * n(i)."""
        acc = math.fsum(m * n for m, n in self.sums)
        model = self.model
        if model.size is not None:
            return acc
        t0, len0 = self.tail.start_index, self.tail.start_length
        rho = model.tail_ratio
        if rho is None:
            m = model.mean
            return acc + _certified_sum(
                lambda i: model.mass(i) * (len0 + i - t0), t0,
                lambda i: m / (i + 1) * (len0 + i + 1 - t0)
                / max(len0 + i - t0, 1))
        start = max(t0, model.tail_start)
        acc += math.fsum(model.mass(i) * (len0 + i - t0)
                         for i in range(t0, start))
        # geometric continuation from `start` on
        p0 = model.mass(start)
        return acc + p0 * ((len0 + start - t0) / (1.0 - rho)
                           + rho / (1.0 - rho) ** 2)

    def tops(self):
        """(length, log2 m, the masses over m, lazily) per length, m the
        largest; from ln_mass where all lie below the normal floats."""
        low = {n: [] for n, ps in self.groups if max(ps) < 2.0 ** -1022}
        for i, n in enumerate(self.head if low else ()):
            if n in low:
                low[n].append(self.model.ln_mass(i))
        for n, ps in self.groups:
            top = max(low.get(n) or ps)     # ln m for a low length, else m
            if n in low:
                yield n, top / LN2, [math.exp(x - top) for x in low[n]]
            else:
                yield n, math.log2(top), map(top.__rtruediv__, ps)


def power_sum(model: SourceModel, lengths: LengthSeq, base: float) -> float:
    """sum p(i) * base**n(i), the tail through tail_weight."""
    return _Profile(model, lengths).power_sum_at(base)


def expected_length(model: SourceModel, lengths: LengthSeq) -> float:
    """sum p(i) * n(i)."""
    return _Profile(model, lengths).expected_length()


def _certified_sum(term, start: int, ratio_bound) -> float:
    """Sum term(i) from start while a geometric bound on the remainder,
    driven by ratio_bound(i) (a bound on term(k+1)/term(k) for every k >= i,
    eventually below one), exceeds SUM_TOL. With a bound of at most one the
    sum also ends once every later term is below half an ulp of it: adding
    those would leave it as it is."""
    acc = 0.0
    for i in range(start, start + _MAX_TERMS):
        v = term(i)
        acc += v
        q = ratio_bound(i)
        if (q < 1.0 and v * q / (1.0 - q) < SUM_TOL
                or q <= 1.0 and v * q < math.ulp(acc) / 2.0):
            return acc
    raise DivergenceError("series did not settle after the term cap")


def _lower_cut(term, top: int, down_ratio) -> int:
    """Where to start summing a series whose terms below it add up to less
    than SUM_TOL. down_ratio(i) bounds term(k-1)/term(k) for every k <= i, so
    once it is below one, term(i) / (1 - down_ratio(i)) bounds the sum of
    term(i) and every term below it. Up to the mode `top` both the term and
    its ratio rise, so that bound holds on a first run of indices, whose
    end is found by bisection."""
    def negligible(i: int) -> bool:
        q = down_ratio(i)
        return q < 1.0 and term(i) < SUM_TOL * (1.0 - q)

    if top < 1 or not negligible(1):
        return 0
    lo, hi = 1, top + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if negligible(mid):
            lo = mid
        else:
            hi = mid
    return lo + 1


def _dth_sum_log(model: SourceModel, lengths: LengthSeq, order: float) -> float:
    """ln of sum p**(1+order) * 2**(order*n), computed in log space."""
    d = order
    acc = -math.inf
    for n, lg, quotients in _Profile(model, lengths).tops():
        acc = logaddexp(acc, ((1.0 + d) * lg + d * n) * LN2 + math.log(
            math.fsum(q ** (1.0 + d) for q in quotients)))
    if model.size is not None:
        return acc
    t0, len0 = lengths.tail.start_index, lengths.tail.start_length

    def ln_term(i: int) -> float:
        return (1.0 + d) * model.ln_mass(i) + d * (len0 + i - t0) * LN2

    rho = model.tail_ratio
    if rho is None:
        ln_m = math.log(model.mean)
        i = t0
        while True:
            acc = logaddexp(acc, ln_term(i))
            ln_q = (1.0 + d) * (ln_m - math.log(i + 1)) + d * LN2
            if ln_q < -1.0 and ln_term(i) + ln_q - math.log1p(-math.exp(ln_q)) < acc + math.log(SUM_TOL):
                return acc
            i += 1
    start = max(t0, model.tail_start)
    for i in range(t0, start):
        acc = logaddexp(acc, ln_term(i))
    ln_step = (1.0 + d) * math.log(rho) + d * LN2
    if ln_step >= 0.0:
        raise DivergenceError("order-d tail diverges")
    # geometric remainder: term(start) / (1 - step)
    return logaddexp(acc, ln_term(start) - math.log1p(-math.exp(ln_step)))


def _max_redundancy(model: SourceModel, lengths: LengthSeq) -> float:
    """sup n(i) + log2 p(i); math.inf when the supremum is unbounded."""
    best = max((n + lg for n, lg, _ in _Profile(model, lengths).tops()),
               default=-math.inf)
    if model.size is not None:
        return best
    t0, len0 = lengths.tail.start_index, lengths.tail.start_length
    rho = model.tail_ratio
    if rho is None:
        # steps turn negative once i + 1 > 2 * mean; bounded always
        stop = max(t0, math.ceil(2.0 * model.mean)) + 2
    elif rho > 0.5:
        # per-step change along the tail is 1 + log2(ratio), constant
        return math.inf
    else:
        stop = max(t0, model.tail_start + 1)
    return max(best, max(len0 + i - t0 + model.ln_mass(i) / LN2
                         for i in range(t0, stop + 1)))


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
    if model.size is not None:
        return -math.fsum(p * math.log2(p) for p in model.masses(model.size))
    rho = model.tail_ratio
    if rho is not None:
        head = model.masses(model.tail_start + 1)
        # continuation: -sum_{m>=1} p0 rho^m (log2 p0 + m log2 rho)
        p0 = head[-1]
        return -math.fsum(p * math.log2(p) for p in head) - p0 * (
            rho / (1.0 - rho) * math.log2(p0)
            + rho / (1.0 - rho) ** 2 * math.log2(rho))
    m = model.mean

    def term(i: int) -> float:
        p = model.mass(i)
        # a mass that underflows to 0.0 contributes less than 1e-320
        return -p * math.log2(p) if p > 0.0 else 0.0

    def down(i: int) -> float:
        # with x = i/m and L = -ln p(i) >= 1 the ratio to the term below is
        # at most x * (1 + ln(1/x) / L), which only falls further down
        ln_p = model.ln_mass(i)
        return i / m * (1.0 + math.log(m / i) / -ln_p) if ln_p <= -1.0 else math.inf

    # the log factor grows slower than the pmf decays; past 2*mean + 8
    # consecutive term ratios stay below 0.6, and past the mode the terms
    # never rise again (every mass past symbol 0 is at most 1/e)
    return _certified_sum(term, _lower_cut(term, int(m), down),
                          lambda i: 0.6 if i > 2 * m + 8
                          else 1.0 if i > m else math.inf)


def _listed_renyi_sum(masses: list, alpha: float) -> float:
    return math.log(math.fsum(map(pow, masses, repeat(alpha))))


def _tailed_renyi_sum(head: list, rho: float, alpha: float) -> float:
    rho_a = rho ** alpha
    z = math.fsum(map(pow, head, repeat(alpha)))
    z += head[-1] ** alpha * rho_a / (1.0 - rho_a)
    return math.log(z)


def _poisson_renyi_sum(model: Poisson, ln_p: dict, alpha: float) -> float:
    """Terms from the log masses, which ln_p keeps by symbol across calls,
    shifted by the largest (at the mode), so that no term underflows at
    small or large alpha. The window summed runs from a cut below the mode,
    where the ratio (i/mean)**alpha certifies the terms left out below
    SUM_TOL of the shifted sum (which is at least one), to where
    (mean/(i+1))**alpha, below one past the mode, certifies the rest."""
    m, top = model.mean, int(model.mean)
    known, source, exp = ln_p.get, model.ln_mass, math.exp

    def ln_mass(i: int) -> float:
        x = known(i)
        if x is None:
            x = ln_p[i] = source(i)
        return x

    peak = alpha * ln_mass(top)
    start = _lower_cut(lambda i: exp(alpha * ln_mass(i) - peak), top,
                       lambda i: (i / m) ** alpha)
    terms = []
    append = terms.append
    for i in range(start, start + _MAX_TERMS):
        x = known(i)    # ln_mass(i), inline
        if x is None:
            x = ln_p[i] = source(i)
        v = exp(alpha * x - peak)
        append(v)
        if i >= top:
            q = (m / (i + 1)) ** alpha
            if v * q < SUM_TOL * (1.0 - q):
                return peak + math.log(math.fsum(terms))
    raise DivergenceError("series did not settle after the term cap")


def _renyi_sum_of(model: SourceModel):
    """alpha -> ln sum_i p(i)**alpha, the Renyi partition sum of order
    alpha > 0, with the work that does not depend on alpha done once: a
    listed source's masses, or a geometric-tailed head, are listed once,
    and a Poisson source keeps each log mass it reads."""
    if model.size is not None:
        return partial(_listed_renyi_sum, model.masses(model.size))
    if model.tail_ratio is not None:
        return partial(_tailed_renyi_sum, model.masses(model.tail_start + 1),
                       model.tail_ratio)
    return partial(_poisson_renyi_sum, model, {})


def _ln_renyi_sum(model: SourceModel, alpha: float) -> float:
    """ln sum_i p(i)**alpha, the Renyi partition sum of order alpha > 0."""
    return _renyi_sum_of(model)(alpha)


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
