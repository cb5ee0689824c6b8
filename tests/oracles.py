"""Independent oracles the tests compare the library against.

Everything here is deliberately brute force: exhaustive tree enumeration,
direct summation with explicit remainder bounds, and grid scans. Nothing
imports from the package.
"""
import decimal
import heapq
import math
from fractions import Fraction
from functools import lru_cache

ORACLE_TOL = 1e-15

# absolute bound on the certified remainder of any truncated series
SUM_TOL = 1e-12


def logaddexp(a: float, b: float) -> float:
    """log(e**a + e**b) without overflow."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


# ---------------------------------------------- exhaustive tree enumeration

@lru_cache(maxsize=None)
def all_length_multisets(n: int) -> frozenset:
    """Every codeword-length multiset a full binary tree with n leaves can
    realize, as sorted tuples."""
    if n == 1:
        return frozenset({(0,)})
    out = set()
    for left in range(1, n // 2 + 1):
        for ls in all_length_multisets(left):
            for rs in all_length_multisets(n - left):
                out.add(tuple(sorted(d + 1 for d in ls + rs)))
    return frozenset(out)


def _pair(weights, lengths):
    """Extremal assignment: heaviest weight gets the shortest length."""
    return list(zip(sorted(weights, reverse=True), sorted(lengths)))


def exp_objective(weights, lengths, base: float) -> float:
    pairs = _pair(weights, lengths)
    if base == 1.0:
        return math.fsum(w * n for w, n in pairs)
    return math.log(math.fsum(w * base ** n for w, n in pairs)) / math.log(base)


def maxred_objective(weights, lengths) -> float:
    return max(n + math.log2(w) for w, n in _pair(weights, lengths))


def dth_objective(probs, lengths, order: float) -> float:
    # evaluated with a shifted log-sum so huge orders stay finite
    pairs = _pair(probs, lengths)
    logs = [(1 + order) * math.log2(p) + order * n for p, n in pairs]
    top = max(logs)
    return (top + math.log2(math.fsum(2.0 ** (x - top) for x in logs))) / order


def best_tree_objective(weights, evaluate) -> float:
    """min over all length multisets of the extremal-assignment objective."""
    return min(evaluate(weights, ls) for ls in all_length_multisets(len(weights)))


# ------------------------------------------------------ heap merge engine

# The library's heap engine before the two-queue loop replaced it, kept as
# the reference the engine tests compare codewords and root weights against.

# merge-preference order at equal weight: merged nodes win
_COMPOUND, _LEAF = 0, 1


def _run(weights: list[float], combine):
    """Merge the two smallest nodes until one is left; return that root.

    A node is a (weight, kind, seq, children) tuple: a leaf's seq is its
    item index, a merged node's its creation number. (kind, seq) is unique,
    so tuple comparison is the tie-break and never reaches the children.
    """
    heap = [(w, _LEAF, i, None) for i, w in enumerate(weights)]
    heapq.heapify(heap)
    for seq in range(len(heap) - 1):
        first = heapq.heappop(heap)   # takes the 0 branch
        second = heap[0]
        heapq.heapreplace(heap, (combine(first[0], second[0]), _COMPOUND, seq,
                                 (first, second)))
    return heap[0]


def _collect(root, n: int) -> tuple[tuple[int, ...], tuple[str, ...]]:
    codewords = [""] * n
    stack = [(root, "")]
    while stack:
        (_, kind, seq, children), prefix = stack.pop()
        if kind == _LEAF:
            codewords[seq] = prefix
        else:
            stack.append((children[0], prefix + "0"))
            stack.append((children[1], prefix + "1"))
    return tuple(map(len, codewords)), tuple(codewords)


def heap_merge(weights, combine):
    """(root weight, codewords) of the heap engine under one merge rule."""
    root = _run(list(weights), combine)
    return root[0], _collect(root, len(weights))[1]


# --------------------------------------------------- direct certified sums

def golomb_len(i: int, k: int) -> int:
    g = k.bit_length()
    q, r = divmod(i, k)
    return q + 1 + (g - 1 if r < (1 << g) - k else g)


def geometric_pmf(ratio: float, i: int) -> float:
    return (1.0 - ratio) * ratio ** i


def poisson_pmf(mean: float, i: int) -> float:
    return math.exp(-mean + i * math.log(mean) - math.lgamma(i + 1))


def poisson_renyi_sum_direct(mean: float, alpha: float,
                             tol: float = ORACLE_TOL) -> float:
    """sum_i p(i)**alpha for a Poisson mean, each term exp(alpha * ln p(i))
    from lgamma, so that no term underflows where p(i) itself does. Past the
    mode the term ratio (mean/(i+1))**alpha falls, and the remainder after
    term t is at most t*q/(1-q); the sum is at least its largest term."""
    ln_mean = math.log(mean)
    terms, top, i = [], 0.0, 0
    while True:
        t = math.exp(alpha * (-mean + i * ln_mean - math.lgamma(i + 1)))
        terms.append(t)
        top = max(top, t)
        q = (mean / (i + 1)) ** alpha
        if q < 1.0 and t * q / (1.0 - q) < tol * top:
            return math.fsum(terms)
        i += 1


def poisson_ln_pmf(mean: float, i: int) -> float:
    return -mean + i * math.log(mean) - math.lgamma(i + 1)


def poisson_entropy_decimal(mean: int, digits: int = 40) -> float:
    """H(Poisson(mean)) in bits for an integer mean, summed in `digits`
    significant decimal digits: p(0) = e**-mean, p(i) = p(i-1) * mean / i,
    until the masses left fall below 10**-digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        m = decimal.Decimal(mean)
        p, h, i = (-m).exp(), decimal.Decimal(0), 0
        tiny = decimal.Decimal(10) ** -digits
        while i <= mean or p > tiny:
            h -= p * p.ln()
            i += 1
            p = p * m / i
        return float(h / decimal.Decimal(2).ln())


def tailed_pmf(head, ratio: float, i: int) -> float:
    """head[i], and past the head the last entry continued geometrically."""
    if i < len(head):
        return head[i]
    return head[-1] * ratio ** (i - len(head) + 1)


def series_direct(term, start: int, ratio_bound,
                  tol: float = ORACLE_TOL) -> float:
    """sum_{i >= start} term(i) by brute force. ratio_bound(i) bounds
    term(k+1)/term(k) for every k >= i; once it is below one the remainder
    after term i is at most term(i)*q/(1-q), and the sum stops when that is
    below tol times the sum so far."""
    terms, total, i = [], 0.0, start
    while True:
        t = term(i)
        terms.append(t)
        total += t
        q = ratio_bound(i)
        if q < 1.0 and t * q / (1.0 - q) <= tol * total:
            return math.fsum(terms)
        i += 1


def poisson_tail_weight_direct(mean: float, j: int, base: float,
                               tol: float = ORACLE_TOL) -> float:
    """sum_{k>j} p(k) base**(k-j) for a Poisson mean, each term taken from
    lgamma in the log domain; the term ratio is mean*base/(k+1)."""
    ln_base = math.log(base)
    return series_direct(
        lambda k: math.exp(poisson_ln_pmf(mean, k) + (k - j) * ln_base),
        j + 1, lambda k: mean * base / (k + 1), tol)


def golomb_power_sum_direct(ratio: float, base: float, k: int,
                            tol: float = ORACLE_TOL) -> float:
    """sum_i (1-ratio) ratio^i base^(n_k(i)) by brute force; the per-period
    factor is ratio^k * base, so the remainder after a whole period is the
    last period's sum times factor/(1-factor).

    Each term is assembled in the log domain: when the factor is close to 1
    the sum needs thousands of periods and base^n overflows on its own even
    though every pmf-weighted term stays bounded."""
    factor = ratio ** k * base
    if factor >= 1.0:
        raise ArithmeticError("diverges")
    ln_p0, ln_r, ln_b = math.log(1.0 - ratio), math.log(ratio), math.log(base)

    def term(idx: int) -> float:
        return math.exp(ln_p0 + idx * ln_r + golomb_len(idx, k) * ln_b)

    total, i = 0.0, 0
    while True:
        period = math.fsum(term(i + j) for j in range(k))
        total += period
        i += k
        if period * factor / (1.0 - factor) < tol * max(total, 1.0):
            return total


def golomb_power_sum_periods(ratio: float, base: float, k: int) -> float:
    """sum_i (1-ratio) ratio^i base^(n_k(i)): the first period summed per
    symbol, over 1 - ratio^k * base. Each later period is the one before
    times that factor (masses fall by ratio^k, lengths rise by one), so
    this stays quick where the factor is close to 1."""
    factor = ratio ** k * base
    if factor >= 1.0:
        raise ArithmeticError("diverges")
    return math.fsum(geometric_pmf(ratio, j) * base ** golomb_len(j, k)
                     for j in range(k)) / (1.0 - factor)


def unary_tail_power_sum_direct(pmf, head_lengths, tail_start: int,
                                tail_len0: int, base: float, ratio_bound: float,
                                tol: float = ORACLE_TOL) -> float:
    """sum p(i) base^(n(i)) for a head plus +1-per-symbol tail; pmf tail must
    be dominated by a geometric with the given ratio."""
    factor = ratio_bound * base
    if factor >= 1.0:
        raise ArithmeticError("diverges")
    total = math.fsum(pmf(i) * base ** n for i, n in enumerate(head_lengths))
    i, n = tail_start, tail_len0
    while True:
        term = pmf(i) * base ** n
        total += term
        if term * factor / (1.0 - factor) < tol * max(total, 1.0) and i > tail_start + 8:
            return total
        i, n = i + 1, n + 1


def mmr_sup_scan(ratio: float, k: int, limit: int = 10 ** 4):
    """Numeric supremum of n_k(i) + log2 p(i) over i < limit; returns
    (value, still_rising) where still_rising flags an unbounded climb."""
    best, best_at = -math.inf, 0
    l2p0, l2r = math.log2(1.0 - ratio), math.log2(ratio)
    for i in range(limit):
        v = golomb_len(i, k) + l2p0 + i * l2r
        if v > best:
            best, best_at = v, i
    return best, best_at > limit - 2 * k


# ------------------------------------------------- per-symbol penalty sums

# The head formulas the penalty evaluation used before it summed per
# codeword length: one term per symbol, over a symbol's mass (or ln mass)
# and its codeword length. A caller that lists the symbols of a unary tail
# as well gets the whole sum.

def power_sum_terms(masses, lengths, base: float) -> float:
    """sum p * base**n."""
    return math.fsum(p * base ** n for p, n in zip(masses, lengths))


def expected_length_terms(masses, lengths) -> float:
    """sum p * n."""
    return math.fsum(p * n for p, n in zip(masses, lengths))


def dth_sum_log_terms(ln_masses, lengths, order: float) -> float:
    """ln sum p**(1+order) * 2**(order*n), shifted by its largest term."""
    logs = [(1.0 + order) * lp + order * n * math.log(2.0)
            for lp, n in zip(ln_masses, lengths)]
    top = max(logs)
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


def max_redundancy_terms(ln_masses, lengths) -> float:
    """max n + log2 p, from ln p so that no mass underflows."""
    return max(n + lp / math.log(2.0) for lp, n in zip(ln_masses, lengths))


def unary_ended_power_sum(pmf, ln_pmf, head_lengths, tail_len0: int,
                          base: float, decay, geometric_from=None,
                          tol: float = ORACLE_TOL) -> float:
    """sum p(i) * base**n(i) for head lengths followed by a unary tail that
    starts at tail_len0 bits and grows by one per symbol: the head by
    power_sum_terms, the tail term by term in the log domain until
    decay(i) * base, decay(i) bounding p(k+1)/p(k) for every k >= i,
    certifies the rest below tol of the sum. From geometric_from on the
    masses fall by decay(i) exactly and the rest is a geometric series,
    taken in closed form. ArithmeticError where that series diverges."""
    head = power_sum_terms(map(pmf, range(len(head_lengths))), head_lengths,
                           base)
    ln_base = math.log(base)
    terms, total = [head], head
    i, n = len(head_lengths), tail_len0
    while True:
        q = decay(i) * base
        if geometric_from is not None and i >= geometric_from:
            if q >= 1.0:
                raise ArithmeticError("diverges")
            terms.append(math.exp(ln_pmf(i) + n * ln_base) / (1.0 - q))
            return math.fsum(terms)
        t = math.exp(ln_pmf(i) + n * ln_base)
        terms.append(t)
        total += t
        if q < 1.0 and t * q / (1.0 - q) <= tol * total:
            return math.fsum(terms)
        i, n = i + 1, n + 1


# --------------------------------------------------- reduced geometric source

def reduced_weight_set(ratio: float, base: float, k: int, m: int = 60):
    """Finite stand-in for a geometric source under an exponential penalty:
    plain weights up to m, then one period of tail-class aggregates."""
    q = base * ratio ** k
    assert q < 1.0
    w = [geometric_pmf(ratio, i) for i in range(m + 1)]
    w += [base * geometric_pmf(ratio, i) / (1.0 - q)
          for i in range(m + 1, m + k + 1)]
    return w


def tailed_reduction_lengths(head, ratio: float, base: float, r: int):
    """Length function of the light-tail reduction of a geometric-tailed
    source forced at split r, whether or not r is minimal: the masses up to
    r and the weighted tail sum_{k>r} p(k) base**(k-r), merged by the heap
    engine under base*(a+b), the lengths dealt to the weights sorted
    heaviest first (stable), the pseudo-symbol's word continued in unary."""
    last = len(head) - 1
    weights = [tailed_pmf(head, ratio, i) for i in range(r + 1)]
    # the listed part of the tail, then its geometric rest in closed form
    stop = max(r, last) + 1
    tail = math.fsum(tailed_pmf(head, ratio, k) * base ** (k - r)
                     for k in range(r + 1, stop + 1))
    tail += (tailed_pmf(head, ratio, stop) * base ** (stop - r)
             * base * ratio / (1.0 - base * ratio))
    weights.append(tail)
    _, words = heap_merge(weights, lambda a, b: base * (a + b))
    lengths = sorted(map(len, words))
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    dealt = [0] * len(weights)
    for pos, i in enumerate(order):
        dealt[i] = lengths[pos]
    spine = dealt.pop()
    return lambda i: dealt[i] if i <= r else spine + (i - r)


def infer_period(lengths, head_stop: int):
    """Smallest shift t with n(i+t) == n(i) + 1 across the head window,
    or None."""
    for t in range(1, head_stop):
        if all(lengths[i + t] == lengths[i] + 1
               for i in range(head_stop - t - 1)):
            return t
    return None


# ----------------------------------------------------------- kraft, scans

def kraft_fraction(lengths) -> Fraction:
    return sum((Fraction(1, 2 ** n) for n in lengths), Fraction(0))


def largest_feasible_on_grid(f, hi: float, steps: int) -> float:
    """Largest grid point s in [0, hi] with f(s) <= 1; f may raise
    ArithmeticError past a divergence point."""
    best = 0.0
    for i in range(steps + 1):
        s = hi * i / steps
        try:
            if f(s) <= 1.0:
                best = s
        except ArithmeticError:
            break
    return best


# ------------------------------------------------- exhaustive decay rates

def decay_rate_direct(probs, lengths, ln_transform, mean_gap: float,
                      tol: float = 1e-12) -> float:
    """Largest s with ln E[e^(-sT)] + ln sum p(i) e^(s n(i)) <= 0, the
    power sum taken symbol by symbol in a shifted log-sum: zero when the
    mean length reaches the mean gap, else by doubling and bisection to
    tol. ArithmeticError where the doubling finds no s past the rate."""
    if math.fsum(p * n for p, n in zip(probs, lengths)) >= mean_gap:
        return 0.0

    def ln_f(s):
        logs = [math.log(p) + s * n for p, n in zip(probs, lengths)]
        top = max(logs)
        return ln_transform(s) + top + math.log(
            math.fsum(math.exp(x - top) for x in logs))
    lo, hi = 0.0, 1.0
    while ln_f(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 2.0 ** 40:
            raise ArithmeticError("f stays at or below one")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if ln_f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def best_decay_rate(probs, ln_transform, mean_gap: float) -> float:
    """The largest decay rate over every prefix code of a finite source:
    each length multiset with the heaviest mass on the shortest word, the
    assignment that makes f smallest at every s."""
    heavy_first = sorted(probs, reverse=True)
    return max(decay_rate_direct(heavy_first, lengths, ln_transform, mean_gap)
               for lengths in all_length_multisets(len(probs)))


def plain_bisection_rate(ln_transform, ln_power_sum, pole: float,
                         mean_length: float, mean_gap: float, divergence,
                         tol: float = 1e-10):
    """(rate, at_boundary): the largest s with ln_transform(s) +
    ln_power_sum(s) <= 0 by plain bisection, every midpoint evaluated.

    Zero at the boundary where the mean length reaches the mean gap. Else
    the bracket expands from 0.5 by doubling, or with a finite pole from
    half of it by halving the distance left, returning the last point
    where no float lies between it and the pole; then it bisects to width
    tol or until no float lies strictly inside. A `divergence` raised by
    the power sum counts as ln f = inf; with no pole it leaves f undecided
    at that s, and is raised if the bracket ends there."""
    if mean_length >= mean_gap:
        return 0.0, True
    capped = None   # (s, error) of the last series cut short

    def ln_f(s):
        nonlocal capped
        try:
            return ln_transform(s) + ln_power_sum(s)
        except divergence as exc:
            if pole == math.inf:
                capped = s, exc
            return math.inf

    lo = 0.0
    if math.isfinite(pole):
        hi = pole / 2.0
        while ln_f(hi) <= 0.0:
            lo, nxt = hi, (hi + pole) / 2.0
            if nxt <= hi:
                return hi, False
            hi = nxt
    else:
        hi = 0.5
        while ln_f(hi) <= 0.0:
            lo, hi = hi, 2.0 * hi
            if hi > 2.0 ** 40:
                raise divergence("f never exceeds one; no finite optimum")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            break
        if ln_f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    if capped and capped[0] == hi:
        raise capped[1]
    return lo, False
