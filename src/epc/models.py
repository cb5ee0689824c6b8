"""Probability sources, penalty variants, and penalty evaluation.

Sources are measures on the nonnegative integers, usually summing to one.
Every code is a LengthSeq: a head of lengths, then optionally a run record
(spine, k) past it, spine ones and then Golomb-k words; k = 1 is unary.
Penalties read a code's one profile over a source (_Profile), and every
tail, power and Renyi sum is one series (_terms). Values are immutable,
functions pure.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left
from functools import cached_property
from itertools import repeat
from operator import itemgetter, mul
from typing import Optional, Union

from .bits import (_canonical_head, _long_word, _symbol, complete_binary,
                   integer_lengths, kraft_sign)
from .errors import DivergenceError, EpcError
from .numeric import (_FLOAT_MAX, LN2, _Value, check_positive, check_ratio,
                      check_weights, shown)

__all__ = [
    "Geometric", "Poisson", "ExplicitFinite", "ExplicitTailed",
    "with_geometric_tail", "SourceModel",
    "Exponential", "DthRedundancy", "MaxRedundancy", "Linear", "Penalty",
    "UnaryTail", "LengthSeq",
    "point_mass", "tail_weight", "total_mass", "power_sum", "evaluate_penalty",
    "expected_length", "shannon_entropy", "renyi_entropy",
]


# ---------------------------------------------------------------- sources

_KEPT = 1 << 14


class _Source(_Value):
    """The one protocol every source answers; each query below is written
    once over it.

    mass(i), ln_mass(i)  p(i) and ln p(i) for i within the alphabet, each
                         with one writer; masses(n) lists p(0), ..., p(n-1),
                         and ln_masses(j, n) ln p(j), ..., ln p(n-1), the
                         same floats
    size                 the alphabet size, None for an infinite source
    tail_ratio           a geometric continuation, p(i+1) = tail_ratio * p(i)
                         from tail_start on; None for a finite source and for
                         Poisson, whose mass ratio p(i+1)/p(i) is mean/(i+1)

    Every source keeps its first `size or _KEPT` log masses once they are
    read, by the one rule of ln_masses; _ln_run lists those it reads, a
    listed head's as one log over a slice of it, ln_mass's floats."""

    size = None
    _ln_kept = []   # shared until a source's first read: never grown in place

    def masses(self, n: int) -> list[float]:
        return list(map(self.mass, range(n)))

    def ln_masses(self, j: int, n: int) -> list[float]:
        # kept, since a solve sums the same terms at many tilts and orders; a
        # longer list replaces the kept one whole, so a reader in another
        # thread never sees it grow
        kept = self._ln_kept
        if len(kept) < n <= (most := self.size or _KEPT):
            kept = kept + self._ln_run(len(kept),
                                       min(max(n, 2 * len(kept)), most))
            object.__setattr__(self, "_ln_kept", kept)
        if n <= len(kept):
            return kept[j:n]
        return self._ln_run(j, n)

    def _ln_run(self, j: int, n: int) -> list[float]:
        return list(map(self.ln_mass, range(j, n)))


class _Listed(_Source):
    """A listed head: p(i) = head[i] inside it. Past it a source with a tail
    ratio continues geometrically, p(i) = head[-1] * tail_ratio**(i -
    tail_start) with tail_start = len(head) - 1; a finite source is a head
    with no tail, and raises IndexError there."""

    def mass(self, i: int) -> float:
        head = self.head
        if i < len(head) or self.tail_ratio is None:
            return head[i]
        last = len(head) - 1
        return head[last] * self.tail_ratio ** (i - last)

    def ln_mass(self, i: int) -> float:
        head = self.head
        if i < len(head) or self.tail_ratio is None:
            return math.log(head[i])
        last = len(head) - 1
        return math.log(head[last]) + (i - last) * math.log(self.tail_ratio)

    def masses(self, n: int) -> list[float]:
        # inside the head one slice of it, not a list built mass by mass
        head = self.head
        return list(head[:n]) if n <= len(head) else super().masses(n)

    def _ln_run(self, j: int, n: int) -> list[float]:
        head = self.head
        return (list(map(math.log, head[j:n]))
                + super()._ln_run(max(j, len(head)), n))


class Geometric(_Listed):
    """p(i) = (1 - ratio) * ratio**i: the one-entry head (1 - ratio,) with
    tail ratio `ratio`."""

    def __init__(self, ratio: float) -> None:
        check_ratio("ratio", ratio)
        self.__dict__.update(ratio=ratio, head=(1.0 - ratio,),
                             tail_ratio=ratio, tail_start=0)


_MOST_ONES = 1 << 32    # bits in a word; its string alone takes 4 GB


class Poisson(_Source):
    """p(i) = mean**i * exp(-mean) / i!."""

    tail_ratio = None

    def __init__(self, mean: float) -> None:
        check_positive("mean", mean)
        self.__dict__.update(mean=mean, _ln_mean=math.log(mean))

    def ln_mass(self, i: int) -> float:
        try:
            ln_p = -self.mean + i * self._ln_mean - math.lgamma(i + 1)
            if ln_p < math.inf:     # else i ln(mean) past the float range
                return ln_p
        except OverflowError:   # ln i! past the float range
            # ln i! >= i ln i - i puts ln p(i) at or below -mean - i there
            if i >= math.e ** 2 * self.mean:
                return -math.inf
        raise EpcError(f"the log mass of symbol {i:.6g} leaves the "
                       "float range")

    def mass(self, i: int) -> float:
        return math.exp(self.ln_mass(i))

    def masses(self, n: int) -> list[float]:
        # mass(i) for each i from the kept log masses, which ln_mass fills,
        # so the floats are the same
        return list(map(math.exp, _Source.ln_masses(self, 0, n)))


class ExplicitFinite(_Listed):
    """A finite distribution given outright: a head with no tail.
    Probabilities must sum to one; raw weight sets that do not are handled
    by the huffman engines directly."""

    tail_ratio = None

    def __init__(self, probs: tuple[float, ...]) -> None:
        probs = tuple(check_weights(probs, "probabilities", "probability"))
        # a probability above 2 already breaks the sum, which fsum may overflow
        if max(probs) > 2.0 or abs(math.fsum(probs) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1 within 1e-9")
        self.__dict__.update(probs=probs, head=probs, size=len(probs))

    @cached_property
    def _order(self) -> list[int]:  # kept: every build merges in this order
        return sorted(range(len(self.probs)), key=self.probs.__getitem__)


class ExplicitTailed(_Listed):
    """Finite head whose last entry continues geometrically with
    tail_ratio: p(i) = head[-1] * tail_ratio**(i - len(head) + 1) past the
    head. A value: equal heads and ratios compare and hash equal."""

    def __init__(self, head: tuple[float, ...], tail_ratio: float) -> None:
        head = tuple(check_weights(head, "probabilities", "head probability"))
        check_ratio("tail_ratio", tail_ratio)
        self.__dict__.update(head=head, tail_ratio=tail_ratio,
                             tail_start=len(head) - 1)


SourceModel = Union[Geometric, Poisson, ExplicitFinite, ExplicitTailed]


def with_geometric_tail(head, ratio: float) -> ExplicitTailed:
    """ExplicitTailed whose tail continues the last head entry geometrically:
    p(i) = head[-1] * ratio**(i - len(head) + 1) for i >= len(head)."""
    return ExplicitTailed(tuple(head), ratio)


# ---------------------------------------------------------------- penalties
# A penalty's private `_tilt` (d, b, ln b) makes it log_b sum p**(1+d) b**n,
# b the plain merge scale (None where p**(1+d) leaves the floats); None is
# maximal redundancy, the d -> inf limit. Only here do penalties differ.

class Exponential(_Value):
    """log_base of sum p(i) * base**n(i)."""

    def __init__(self, base: float) -> None:
        check_positive("base", base)
        self.__dict__.update(base=base, _tilt=(0.0, base, math.log(base)))


class DthRedundancy(_Value):
    """(1/order) * log2 of sum p(i)**(1+order) * 2**(order*n(i))."""

    def __init__(self, order: float) -> None:
        check_positive("order", order)
        self.__dict__.update(order=order, _tilt=(
            order, 2.0 ** order if order < 64.0 else None, order * LN2))


class MaxRedundancy(_Value):
    """sup over i of n(i) + log2 p(i)."""

    _tilt = None


class Linear(_Value):
    """Expected codeword length (the base -> 1 limit of Exponential)."""

    _tilt = (0.0, 1.0, 0.0)   # a class constant: it merges like base 1


Penalty = Union[Exponential, DthRedundancy, MaxRedundancy, Linear]


# ---------------------------------------------------------------- lengths

class UnaryTail(_Value):
    """The run a code ends in, from t0, the symbol past its head: symbol
    i >= t0 is written as `spine` ones, then the Golomb-k word of i - t0.
    At k = 1, unary: n(i) = spine + 1 + (i - t0)."""

    def __init__(self, spine: int, *, k: int = 1) -> None:
        try:
            spine, k = integer_lengths((spine, k))
        except ValueError as exc:
            raise ValueError(f"bad tail record: {exc}") from None
        if spine < 0 or k < 1:
            raise ValueError("bad tail record")
        if max(spine + 1, k) > _FLOAT_MAX:
            raise ValueError("bad tail record: its first length and k must "
                             "lie inside the float range")
        self.__dict__.update(spine=spine, k=k)


class LengthSeq(_Value):
    """Codeword lengths, head[i] for symbol i and then the tail's run from
    symbol len(head): the one value every code is. Positive integers (a lone
    0 codes a one-symbol alphabet) whose Kraft sum, the run counted as one
    word of its spine's bits, is at most one, tested exactly. Codes of any
    class compare and hash by head and tail.

    Every code made through a constructor is checked against these rules,
    the one rule set. Only _of_tree skips the check, for lengths that keep
    the rules by construction: a merge tree's leaf depths, those depths
    reassigned to other symbols, and copies of a checked code."""

    def __init__(self, head: tuple[int, ...],
                 tail: Optional[UnaryTail] = None) -> None:
        head = words = integer_lengths(head)
        # the one symbol of a one-symbol alphabet needs no bits
        if head and min(head) < 1 and head != (0,):
            raise ValueError("lengths must be positive")
        if tail is not None:
            # the run fills the code space of its spine's word
            words += (tail.spine,)
        words = sorted(words)
        # so every sum over a code reads its lengths, and its run's first
        # length and k, as floats
        if words and words[-1] > _FLOAT_MAX:
            raise ValueError("lengths must lie inside the float range")
        if kraft_sign(words) > 0:
            raise ValueError("lengths violate the Kraft inequality")
        self.__dict__.update(head=head, tail=tail)

    @classmethod
    def _of_tree(cls, head: tuple[int, ...],
                 tail: Optional[UnaryTail] = None) -> "LengthSeq":
        """The code with this head, a tuple of ints, and tail, unchecked:
        for a merge tree's depths (positive, a lone 0 for one symbol, Kraft
        sum one), a light-tail code's, whose tail continues the tree's
        pseudo-symbol, and a checked code's head and tail."""
        code = object.__new__(cls)
        code.__dict__.update(head=head, tail=tail)
        return code

    def __eq__(self, other) -> bool:
        if not isinstance(other, LengthSeq):
            return NotImplemented
        return self.head == other.head and self.tail == other.tail

    def __hash__(self) -> int:
        return hash((self.head, self.tail))

    @cached_property
    def _canonical(self):
        """The head's canonical record (bits._canonical_head)."""
        return _canonical_head(self.head)

    def length_at(self, i: int) -> int:
        i = _symbol(i)
        if i < len(self.head):
            return self.head[i]
        tail = self.tail
        if tail is None:
            raise IndexError(f"no length assigned to symbol {shown(i)}")
        k = tail.k
        q, r = divmod(i - len(self.head), k)
        g = k.bit_length()      # the suffix takes g - 1 bits below 2**g - k
        return tail.spine + 1 + q + (g - 1 if r < (1 << g) - k else g)

    def codeword(self, i: int) -> str:
        """Symbol i's word, refused past _MOST_ONES bits: in the head from
        the head record (bits._canonical_head, bits._long_word past 64
        bits), past the head the run's, the spine and quotient in ones, a
        zero, then the complete binary suffix of the remainder."""
        i, head, tail = _symbol(i), self.head, self.tail
        if i < len(head):
            length = head[i]
            if length > _MOST_ONES:
                raise ValueError(f"symbol {shown(i)} has a codeword too long "
                                 "to build")
            rows, _, place = self._canonical
            r = bisect_left(rows, (length,))
            _, _, before, offset = rows[r]
            if offset is None:      # a row past 64 bits
                return _long_word(rows, r, place[i] - before)
            # the leading 1 keeps the word's leading zeros
            return bin(offset + place[i] | 1 << length)[3:]
        if tail is None:
            raise ValueError(f"no codeword for symbol {shown(i)}")
        q, r = divmod(i - len(head), tail.k)
        ones = tail.spine + q
        if ones > _MOST_ONES:
            raise ValueError(f"symbol {shown(i)} has a codeword too long to "
                             "build")
        return "1" * ones + "0" + complete_binary(r, tail.k)

    def __str__(self) -> str:
        if self.tail is None:
            return "lengths " + ",".join(map(str, self.head))
        tail, t0 = self.tail, len(self.head)
        listed = self.head + (self.length_at(t0),)
        run = "unary" if tail.k == 1 else f"golomb{tail.k}"
        return "lengths " + ",".join(map(str, listed)) + f" +{run}@{t0}"


# ---------------------------------------------------------------- series

# a series summed term by term stops once what it leaves out is below this
# share of the sum, half an ulp: adding the rest would leave the sum as it is
_TAIL_REL = 2.0 ** -53
_MAX_TERMS = 10 ** 7
_LN_MAX = math.log(_FLOAT_MAX)
_TINY = sys.float_info.min   # the least normal float


def _exp(x: float, what: str) -> float:
    """e**x, refused where it lies past the float range or x is NaN."""
    if not x <= _LN_MAX:
        raise EpcError(f"{what} is e**{x:.6g}, past the float range")
    return math.exp(x)


def _ln_sum_exp(xs: list[float]) -> float:
    """ln sum e**x; shifted by the largest x unless the sum lies well inside
    the normal floats, where what underflows is below 1e-300 of it."""
    try:
        total = math.fsum(map(math.exp, xs))
    except OverflowError:
        total = math.inf
    if 1e-300 < total < 1e300:
        return math.log(total)
    top = max(xs)
    return top + math.log(math.fsum(map(math.exp, [x - top for x in xs])))


class _Series(tuple):
    """One series' terms t(i), i >= lo, as e**top times a float each: the
    tuple (top, lo, terms, total), its fields also read by name. Built
    from that tuple directly: a NamedTuple's keyword constructor costs
    twice as much, and a short overflow solve sums a few dozen series."""

    __slots__ = ()
    top = property(itemgetter(0))
    lo = property(itemgetter(1))
    terms = property(itemgetter(2))     # from lo on; None: the sum alone
    total = property(itemgetter(3))     # of every term, any rest included


def _terms(model: SourceModel, j: int, alpha: float, beta: float,
           logs: Optional[list] = None) -> _Series:
    """The terms t(i) = p(i)**alpha * e**(beta*(i-j)), i >= j >= 0, of one
    series, as a _Series: t(i) = e**top * terms[i - lo] for the terms
    listed, top the log of the largest (or zero where beta is zero and that
    term is a normal float), and total the sum of every term over e**top.
    On a geometric-tailed source the terms past the last one listed go on
    geometrically, with ratio rho**alpha * e**beta, and total takes their
    rest in closed form, added once, where every listed series returns.
    Poisson terms with beta nonzero keep their sum alone: terms is None.
    Any other term left out is certified, with those past it, below
    _TAIL_REL of the sum.
    Where Poisson terms are listed from the source's log masses, those
    fill the list logs, where given, in step with terms; else it stays
    empty.

    A listed head, a whole finite alphabet or the head before a geometric
    tail, is listed as its masses to the alpha where beta is zero and the
    largest is a normal float, else from its log masses. Poisson terms
    have the ratio t(i+1)/t(i) = (c/(i+1))**alpha, c = mean *
    e**(beta/alpha), so they peak at floor(c); they are summed outward from
    the peak until that ratio, which only falls further out, certifies the
    rest of each side.
    With beta zero they are listed from the log masses, in blocks whose
    length that ratio predicts (_reach); with beta nonzero each comes from
    its neighbour by the ratio, read from ln c where c is no normal float,
    which keeps the many power sums of an overflow solve cheaper than
    blocks would. A peak more than _MAX_TERMS past j is refused before any
    term is made, by _peak; listed from log masses, a series whose first
    block leaves it unsettled is refused there if no block end within
    _MAX_TERMS past the peak can settle it (_unsettled).

    Tail weights take (1, ln base), Renyi sums (alpha, 0), a code's unary
    run (1 + d, ln base) (_Profile), and the mean length and the entropy
    the first moments of the plain mass terms (_mass_moment)."""
    rho, size = model.tail_ratio, model.size
    g = beta / alpha     # ln t(i) = alpha * (ln p(i) + g * (i - j))
    exp, lo = math.exp, j
    ln_q = None if rho is None else alpha * math.log(rho) + beta
    if rho is not None and j >= model.tail_start:     # geometric from j on
        top, ws = alpha * model.ln_mass(j), [1.0]
    elif size is not None or rho is not None:
        # the listed head: at j = 0 the source's own tuple, not a copy
        ps = model.head[j:]
        # a whole finite alphabet sums to one, so its largest mass lies in
        # [1/(2 size), 1]
        if not g and ps and -700.0 < alpha * (
                -math.log(2 * size) if rho is None and not j
                else math.log(max(ps))) < 700.0:
            top, ws = 0.0, (ps if alpha == 1.0
                            else list(map(pow, ps, repeat(alpha))))
        else:
            ys = model.ln_masses(j, j + len(ps))
            xs = [y + g * k for k, y in enumerate(ys)] if g else ys
            top = alpha * max(xs) if xs else -math.inf
            ws = [exp(alpha * x - top) for x in xs]
    else:
        c, k0, ln_peak = _peak(model, j, g, _MAX_TERMS)
        lo, top = k0, alpha * ln_peak
        if ln_peak == -math.inf:    # every term rounds to 0
            return _Series((top, lo, [], 0.0))
        if g:   # each term from its neighbour by the ratio, faster here than
            # blocks of log masses; no caller reads them one by one
            acc = v = 1.0
            powered = alpha != 1.0
            # c / i loses digits once c is no normal float: then from ln c
            tiny, ln_c = c < _TINY, model._ln_mean + g
            for i in range(k0 + 1, k0 + 1 + _MAX_TERMS):
                q = (exp(alpha * (ln_c - math.log(i))) if tiny
                     else (c / i) ** alpha if powered else c / i)
                v *= q
                acc += v
                if v * q <= _TAIL_REL * (1.0 - q) * acc:
                    break
            else:
                raise DivergenceError(
                    "series did not settle after the term cap")
            v = 1.0
            for lo in range(k0 - 1, j - 1, -1):
                q = ((lo + 1) / c) ** alpha if powered else (lo + 1) / c
                v *= q
                acc += v
                if v * q <= _TAIL_REL * (1.0 - q) * acc:
                    break
            return _Series((top, lo, None, acc))
        if top > -700.0:    # the peak term is a normal float: no shift
            top = 0.0

        def block(start: int, stop: int) -> list[float]:
            """t(start), ..., t(stop - 1) over e**top, from the log masses; a
            block below the peak puts its logs before those logs holds."""
            ys = model.ln_masses(start, stop)
            if logs is not None and start < k0:
                logs[:0] = ys
            elif logs is not None:
                logs.extend(ys)
            if top:
                return [exp(alpha * y - top) for y in ys]
            return list(map(exp, map(mul, ys, repeat(alpha))))

        # the first blocks span several spreads of the peak, sqrt(c / alpha);
        # each later one reaches where the ratio q, which only falls further
        # out, would certify the rest (at most four times the block before)
        ws = block(k0, k0 + 1)
        hi, acc = k0 + 1, ws[0]
        size = width = 16 + int(12.0 * math.sqrt(c / alpha))
        last = k0 + _MAX_TERMS    # the last term the cap lets in
        first = True
        while True:     # past the peak; q is the ratio of t(hi) to t(hi - 1)
            bw = block(hi, min(hi + size, last + 1))
            ws += bw
            hi += len(bw)
            acc += math.fsum(bw)
            q = (c / hi) ** alpha
            if bw[-1] * q <= _TAIL_REL * (1.0 - q) * acc:
                break
            if hi > last or first and _unsettled(model, k0, ln_peak, alpha):
                raise DivergenceError(
                    "series did not settle after the term cap")
            first = False
            size = _reach(bw[-1], q, acc, size)
        size = width
        while lo > j:   # below the peak; q is the ratio of t(lo - 1) to t(lo)
            bw = block(max(j, lo - size), lo)
            lo -= len(bw)
            ws[:0] = bw
            acc += math.fsum(bw)
            q = (lo / c) ** alpha
            if bw[0] * q <= _TAIL_REL * (1.0 - q) * acc:
                break
            size = _reach(bw[0], q, acc, size)
    total = math.fsum(ws)
    if ln_q is not None:
        total += ws[-1] * _rest(ln_q)
    return _Series((top, lo, ws, total))


def _peak(model: Poisson, j: int, g: float, cap: float = math.inf):
    """(c, k0, ln t(k0)) for the terms t(i) = p(i) * e**(g*(i-j)), i >= j,
    of a Poisson source: their ratio c/(i+1), c = mean * e**g, puts the
    peak at k0 = max(j, int(c)). Refused more than cap terms past j."""
    c = math.exp(min(model._ln_mean + g, _LN_MAX))
    if c > j + cap:
        raise DivergenceError(
            f"the series peaks more than {cap} terms past symbol {shown(j)}")
    k0 = max(j, int(c))
    return c, k0, model.ln_mass(k0) + g * (k0 - j)


def _unsettled(model: Poisson, k0: int, ln_peak: float, alpha: float) -> bool:
    """Whether the terms p(i)**alpha of a Poisson source past its peak k0,
    ln p(k0) = ln_peak, fail _terms' stopping test at every block end within
    the term cap. Past the peak the terms and their ratio q only fall, and
    their sum is at most the term count times the peak: so where the last
    term the cap lets in, times q past it, exceeds that bound's share twice
    over (a margin for rounding), every earlier block end fails too."""
    last = k0 + _MAX_TERMS
    ln_q = alpha * (model._ln_mean - math.log(last + 1))
    return (math.exp(alpha * (model.ln_mass(last) - ln_peak) + ln_q)
            > 2.0 * _TAIL_REL * (_MAX_TERMS + 1) * -math.expm1(ln_q))


def _reach(w: float, q: float, acc: float, size: int) -> int:
    """How many terms k to list past w, each at most q times the one before,
    for the rest, w q**(k+1) / (1-q), to fall below _TAIL_REL of acc; held
    between 16 and 4 * size."""
    k = math.log(_TAIL_REL * (1.0 - q) * acc / w) / math.log(q)
    return max(16, min(int(k), 4 * size))


def _rest(ln_q: float) -> float:
    """sum_{k>=1} q**k, q = e**ln_q: a geometric run past its first term."""
    if ln_q >= 0.0:
        raise DivergenceError(
            f"geometric tail diverges: its term ratio {math.exp(ln_q)} >= 1")
    try:
        return 1.0 / math.expm1(-ln_q)
    except OverflowError:   # q/(1 - q) is q itself to the float's precision
        return math.exp(ln_q)


def _ln_series(model: SourceModel, j: int, alpha: float, beta: float) -> float:
    """ln sum_{i>=j} p(i)**alpha * e**(beta*(i-j)) for alpha > 0: the one
    series behind every tail, power and Renyi sum, read off _terms' top and
    total; -inf for no terms."""
    top, _, _, total = _terms(model, j, alpha, beta)
    return top + math.log(total) if total else -math.inf


def _mass_moment(model: SourceModel, j: int, logs: bool):
    """(sum p(i), sum p(i) * f(i)) over i >= j, f(i) = ln p(i) with logs,
    else i - j: the plain mass series of _ln_series, p(i) = e**top * w(i),
    whose total is the first sum, and a first moment of it, which adds its
    own geometric rest at the source's tail ratio. j is 0 or an infinite
    source's tail start, so _terms lists at least one term. Log masses
    _terms read are not read again."""
    ys = [] if logs else None
    top, lo, ws, s = _terms(model, j, 1.0, 0.0, ys)
    rho = model.tail_ratio
    ln_q = None if rho is None else math.log(rho)
    fs, step = ((ys or model.ln_masses(lo, lo + len(ws)), ln_q) if logs
                else (range(lo - j, lo - j + len(ws)), 1.0))
    sf = math.fsum(map(mul, ws, fs))
    if ln_q is not None:
        # w q**k for k >= 1 past the last listed term w, f(last) + k * step
        w, r = ws[-1], _rest(ln_q)
        sf += w * (fs[-1] * r + step * r * (1.0 + r))   # sum k q**k
    scale = math.exp(top)
    return scale * s, scale * sf


# ---------------------------------------------------------------- queries

def point_mass(model: SourceModel, i: int) -> float:
    """p(i)."""
    i = _symbol(i)
    if model.size is not None and i >= model.size:
        raise IndexError(f"symbol {shown(i)} outside the {model.size}-ary "
                         "alphabet")
    if i > _FLOAT_MAX:  # an infinite source's mass there rounds to 0
        return 0.0
    return model.mass(i)


def tail_weight(model: SourceModel, j: int, base: float) -> float:
    """sum_{k>j} p(k) * base**(k-j), j an integer at least -1: j = -1
    weighs the whole support by base**(k+1). base is finite and positive."""
    j = _symbol(j, -1)
    check_positive("base", base)
    ln_b = math.log(base)
    if j > _FLOAT_MAX:  # every mass past j rounds to 0, as point_mass's does
        if model.tail_ratio is not None:    # unless a geometric tail diverges
            _rest(math.log(model.tail_ratio) + ln_b)
        return 0.0
    return _exp(ln_b + _ln_series(model, j + 1, 1.0, ln_b), "the tail weight")


def total_mass(model: SourceModel) -> float:
    return tail_weight(model, -1, 1.0)


# ------------------------------------------------------- penalty evaluation

class _Profile:
    """A code's sums over a source. The symbols a head sum runs over (a
    finite source's alphabet, each length past the head read through
    length_at, else the head of the lengths) go by codeword length,
    ascending: `groups` holds (length, the length's mass, its log, ln m,
    masses, d) per length, m its largest mass and masses / d the masses over
    m; where m lies below the normal floats they come from the log masses,
    read once for the whole head, over m already, and d is one.

    So each sum takes one term per distinct length. A power sum, the d-th
    redundancy's (p**(1+d) at base 2**d) among them, is one log-sum-exp of
    those terms and the run's (ln_power_sum), so it never leaves the log
    domain; the maximal redundancy reads each length's largest mass.

    A run from t0 = len(head) behind a spine of s ones, with k >= 2 or no
    head, on an infinite source geometric from t0 sums in closed form: its
    sums are e**share, share = ln p(t0) - ln(1 - ratio), times the k-Golomb
    code's over Geometric(ratio), lengths shifted by s. A unary run behind a
    head sums as a series (_terms) on any source; no other run has sums.
    Its maximal redundancy reads the largest p(i) 2**(i - t0) with no sum:
    on a Poisson source at the one peak, max(t0, floor(2 mean)) (_peak), on
    a geometric-tailed one over the head, unbounded where 2 rho > 1."""

    def __init__(self, model: SourceModel, lengths: LengthSeq) -> None:
        head, tail, size = lengths.head, lengths.tail, model.size
        self.t0 = t0 = len(head)
        if tail is None and (size is None or size > t0):
            raise ValueError("lengths with no tail do not cover the alphabet")
        if size is not None and size > t0:   # running into the tail
            head += tuple(map(lengths.length_at, range(t0, size)))
        head, rho = head[:size], model.tail_ratio
        self.model, self.tail, self.groups, self.ln_r = model, tail, [], None
        ln_r = None if rho is None or tail is None else math.log(rho)
        # where the power sum diverges: e**ln_b rho**k = 1
        self.pole = math.inf if ln_r is None else -ln_r / (1.0 / tail.k)
        if size is None and (tail.k > 1 or not head):
            if rho is not None and t0 >= model.tail_start:
                # closed-form terms, marked by ln_r; n0 = n(t0) = spine + g
                g = tail.k.bit_length()
                self.ratio, self.ln_r, self.k = rho, ln_r, tail.k
                self.z, self.n0 = (1 << g) - tail.k, tail.spine + g
                self.share = model.ln_mass(t0) - math.log(1 - rho)
                self.lq = self.share + math.log1p(-rho)
            elif tail.k > 1:
                raise ValueError("Golomb sums need a geometric source from "
                                 "the run's start")
        if not head:
            return
        groups = {n: [] for n in sorted(set(head))}
        for n, p in zip(head, model.masses(len(head))):
            groups[n].append(p)
        ln_groups = None
        for n, ps in groups.items():
            m = max(ps)
            if m < _TINY:   # read again as logs, over the largest
                if ln_groups is None:   # every length's, in one read
                    ln_groups = {k: [] for k in groups}
                    for k, y in zip(head, model.ln_masses(0, len(head))):
                        ln_groups[k].append(y)
                lps = ln_groups[n]
                top = max(lps)
                m, ps = 1.0, [math.exp(x - top) for x in lps]
                ln_sum = top + math.log(math.fsum(ps))
                mass = math.exp(ln_sum)
            else:
                mass = math.fsum(ps)
                top, ln_sum = math.log(m), math.log(mass)
            self.groups.append((n, mass, ln_sum, top, ps, m))

    def ln_power_sum(self, ln_b: float, d: float = 0.0) -> float:
        """ln sum p(i)**(1+d) * base**n(i), ln_b = ln base: one log-sum-exp
        over the lengths and the run, or with no head the run's sum itself.

        In closed form, with phi = ratio**(1+d), g = k.bit_length() and z =
        2**g - k, the k-Golomb code's sum over Geometric(ratio) has the log
        (1+d) ln(1-ratio) - ln(1-phi) + g ln b + ln(1 + (b-1) phi**z / (1 -
        b phi**k)), read in expm1 and log1p of d itself, since 1 + d rounds
        to one at small orders."""
        ln_r = self.ln_r
        if ln_r is not None:
            k, z = self.k, self.z
            ln_phi = ln_r + d * ln_r
            x = ln_b + k * ln_phi       # ln b phi**k
            if x >= 0.0:
                raise DivergenceError("penalty sum diverges: base * "
                                      "ratio**(k (1 + order)) >= 1")
            # ln(1 + u), u = (b-1) phi**z / (1 - b phi**k): in logs above
            # base one; below it, where u nears -1, from 1 + u's positive parts
            ln_den = math.log(-math.expm1(x))
            if ln_b > 0.0:
                ln_u = (ln_b + math.log(-math.expm1(-ln_b)) + z * ln_phi
                        - ln_den)
                ln1pu = (ln_u + math.log1p(math.exp(-ln_u)) if ln_u > 0.0
                         else math.log1p(math.exp(ln_u)))
            else:
                u = math.expm1(ln_b) * math.exp(z * ln_phi - ln_den)
                ln1pu = math.log1p(u) if u > -0.5 else math.log(
                    -math.expm1(z * ln_phi) - math.exp(ln_b + z * ln_phi)
                    * math.expm1((k - z) * ln_phi)) - ln_den
            # (1+d) (share + ln(1-r)) - ln(1-phi), with lq = share + ln(1-r)
            # and 1 - phi = (1-r) - r (r**d - 1)
            r = self.ratio
            run = (self.share + d * self.lq + self.n0 * ln_b + ln1pu
                   - math.log1p(-r * math.expm1(d * ln_r) / (1.0 - r)))
            if not self.groups:
                return run
        alpha = 1.0 + d
        if ln_r is None and self.model.size is None:
            run = (self.tail.spine + 1) * ln_b + _ln_series(
                self.model, self.t0, alpha, ln_b)
        if alpha == 1.0:
            xs = [x + n * ln_b for n, _, x, _, _, _ in self.groups]
        else:
            xs = [alpha * top + n * ln_b
                  + math.log(math.fsum([(p / m) ** alpha for p in ps]))
                  for n, _, _, top, ps, m in self.groups]
        if self.model.size is None:
            xs.append(run)
        return _ln_sum_exp(xs)

    def expected_length(self) -> float:
        """sum p(i) * n(i)."""
        run = 0.0
        if self.ln_r is not None:  # Geometric(ratio)'s mean Golomb length
            r = self.ratio
            run = math.exp(self.share) * (self.n0 + r ** self.z
                                          / (1.0 - r ** self.k))
            if not self.groups:
                return run
        elif self.model.size is None:
            s, si = _mass_moment(self.model, self.t0, False)
            run = s * (self.tail.spine + 1) + si
        return math.fsum([m * n for n, m, _, _, _, _ in self.groups]) + run

    def max_redundancy(self) -> float:
        """sup n(i) + log2 p(i); math.inf when the supremum is unbounded."""
        run = -math.inf
        if self.ln_r is not None:
            # unbounded past ratio 2**(-1/k), where lengths outgrow the mass
            # decay; else the sup is at the run's first word, n0 bits, or at
            # symbol z's, the first with a long suffix, n0 + 1 bits
            r, k, z = self.ratio, self.k, self.z
            if 1.0 + k * math.log2(r) > 1e-12:  # the boundary kept finite
                return math.inf
            run = self.n0 + math.log2(1.0 - r)
            if z < k:       # at a power-of-two k, z == k: no long suffix
                run = max(run, self.n0 + 1 + math.log2(1.0 - r)
                          + z * math.log2(r))
            run += self.share / LN2
        elif self.model.size is None:
            # along the tail n(i) + log2 p(i) is spine + 1 + log2 of the
            # largest term p(i) * 2**(i - t0), or unbounded where they grow
            if self.model.tail_ratio is None:   # Poisson: read at its peak
                top = _peak(self.model, self.t0, LN2)[2]
            else:   # a listed head, then a geometric rest at ratio 2 rho
                model, t0 = self.model, self.t0
                if math.log(model.tail_ratio) + LN2 > 0.0:
                    return math.inf
                top = max(y + LN2 * k for k, y in enumerate(
                    model.ln_masses(t0, max(t0, model.tail_start) + 1)))
            run = self.tail.spine + 1 + top / LN2
        if not self.groups:
            return run
        return max(max(n + top / LN2 for n, _, _, top, _, _ in self.groups),
                   run)


def power_sum(model: SourceModel, code: LengthSeq, base: float) -> float:
    """sum p(i) * base**n(i) for a code."""
    check_positive("base", base)
    return _exp(_Profile(model, code).ln_power_sum(math.log(base)),
                "the power sum")


def expected_length(model: SourceModel, code: LengthSeq) -> float:
    """sum p(i) * n(i): the Linear penalty."""
    return evaluate_penalty(model, code, Linear())


def evaluate_penalty(model: SourceModel, code: LengthSeq,
                     penalty: Penalty) -> float:
    """A penalty's value for a code on a source, read from the code's
    profile at the penalty's tilt."""
    profile = _Profile(model, code)
    if not hasattr(penalty, "_tilt"):
        raise TypeError(f"not a penalty: {penalty!r}")
    tilt = penalty._tilt
    if tilt is None:
        return profile.max_redundancy()
    d, _, ln_b = tilt
    value = (profile.ln_power_sum(ln_b, d) / ln_b if ln_b
             else profile.expected_length())
    # log_b of a sum that rounds to 0 at b below one or of terms whose logs
    # meet inf - inf, or a mean length that overflows
    if not math.isfinite(value):
        raise EpcError("the penalty is past the float range")
    return value


# ---------------------------------------------------------------- entropy

def shannon_entropy(model: SourceModel) -> float:
    """H(P) in bits."""
    return -_mass_moment(model, 0, True)[1] / LN2


def renyi_entropy(model: SourceModel, base: float) -> float:
    """Order-alpha Renyi entropy in bits, at alpha = 1/(1 + log2 base).

    This is the entropy floor for the exponential penalty with this base.
    """
    check_positive("base", base)
    if base <= 0.5:
        raise ValueError("entropy order degenerates at base <= 0.5")
    if base == 1.0:
        return shannon_entropy(model)
    alpha = 1.0 / (1.0 + math.log2(base))
    return _ln_series(model, 0, alpha, 0.0) / ((1.0 - alpha) * LN2)
