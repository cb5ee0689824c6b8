"""Seeded property-based tests of the overflow solver: max_decay_rate, which
evaluates f from a power sum built once per call, lands where a plain
bisection over f from the oracles' per-symbol power sums lands;
decay_rate_bound, which root-finds by a convex secant closed by one probe,
lands where a plain bisection over its own left side lands, within 20
evaluations, or where that side never closes starts from the word the gap
cannot hold, or refuses a source whose words all fit, with none; the Renyi
sums under that bound match per-symbol and direct lgamma sums, and a source
whose log masses the series kept gives what a fresh one does; the
optimize_overflow iterates rise to a feasible rate; and a light-tail solve
is refused, with the same text, exactly where the split search at the
bound's base refuses. Needs hypothesis (the `test` extra)."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epc import (Deterministic, DivergenceError, EpcError, ExplicitFinite,
                 Exponential, ExponentialArrivals, GammaArrivals, Geometric,
                 GolombCode, NotLightTailedError, Poisson, TableTransform,
                 decay_rate_bound, find_split_exponential, max_decay_rate,
                 optimal_code, optimize_overflow, overflow_functional,
                 shannon_entropy, with_geometric_tail)
from epc.models import _Profile, _ln_series
from epc.numeric import LN2
from epc.overflow import _S_TOL, DecayRate
from oracles import (golomb_power_sum_periods, poisson_ln_pmf, poisson_pmf,
                     poisson_renyi_sum_direct, power_sum_terms, series_direct,
                     tailed_pmf, unary_ended_power_sum)
from test_overflow import _counting, _within_cpu_seconds

# derandomized: every run draws the same examples and writes no database
SEEDED = settings(derandomize=True, database=None, deadline=None,
                  max_examples=100)


def _lognormal(rng, n, sigma):
    return [math.exp(sigma * rng.gauss(0.0, 1.0)) for _ in range(n)]


@st.composite
def _sources(draw, kinds=("finite", "poisson", "tailed", "geometric")):
    """(source, largest light-tail base): lognormal finite sources of 1 to
    1024 symbols, Poisson means 0.5 to 20, geometric-tailed heads, and
    plain geometric sources (Golomb codes), of the kinds named."""
    kind = draw(st.sampled_from(kinds))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if kind == "finite":
        n = draw(st.one_of(st.just(1), st.integers(2, 64),
                           st.integers(65, 1024)))
        weights = _lognormal(rng, n, draw(st.floats(0.25, 2.5)))
        total = math.fsum(weights)
        return ExplicitFinite([w / total for w in weights]), 8.0
    if kind == "poisson":
        return Poisson(draw(st.floats(0.5, 20.0))), 8.0
    if kind == "tailed":
        ratio = draw(st.floats(0.1, 0.7))
        head = _lognormal(rng, draw(st.integers(1, 16)), 0.5)
        total = math.fsum(head) + head[-1] * ratio / (1.0 - ratio)
        # find_split_exponential needs base * (ratio + ratio**2) <= 1
        return (with_geometric_tail([w / total for w in head], ratio),
                min(8.0, 1.0 / (ratio + ratio * ratio)))
    return Geometric(draw(st.floats(0.1, 0.95))), 8.0


@st.composite
def _arrivals(draw, entropy, loads=(0.3, 1.3)):
    """One of the four arrival models, its mean gap set by a load in the
    given range on the source entropy (loads above one give boundary
    cases)."""
    gap = max(1.0, entropy / draw(st.floats(*loads)))
    kind = draw(st.sampled_from(["deterministic", "exponential", "gamma",
                                 "table"]))
    if kind == "deterministic":
        return Deterministic(gap)
    if kind == "exponential":
        return ExponentialArrivals(1.0 / gap)
    shape = draw(st.floats(0.5, 8.0))
    law = GammaArrivals(shape, shape / gap)
    if kind == "gamma":
        return law
    points = [law.rate * 1e-4 * 2.0 ** (j / 2.0) for j in range(40)]
    return TableTransform(((0.0, 1.0),) + tuple(
        (s, law.transform(s)) for s in points))


@st.composite
def _problems(draw):
    """(source, code base, arrivals)."""
    model, base_max = draw(_sources())
    base = draw(st.floats(0.6, base_max))
    return model, base, draw(_arrivals(shannon_entropy(model)))


def _oracle_power_sum(model, code, base):
    """sum p(i) base**n(i) summed symbol by symbol by the oracles, from the
    source's own parameters: ArithmeticError where it diverges."""
    if isinstance(code, GolombCode):
        return golomb_power_sum_periods(model.ratio, base, code.k)
    if model.size is not None:
        return power_sum_terms(model.probs, code.head, base)
    if model.tail_ratio is None:
        m = model.mean
        return unary_ended_power_sum(
            lambda i: poisson_pmf(m, i), lambda i: poisson_ln_pmf(m, i),
            code.head, code.tail.spine + 1, base, lambda i: m / (i + 1))
    head, r = model.head, model.tail_ratio
    last = len(head) - 1
    return unary_ended_power_sum(
        lambda i: tailed_pmf(head, r, i),
        lambda i: math.log(tailed_pmf(head, r, min(i, last)))
        + max(i - last, 0) * math.log(r),
        code.head, code.tail.spine + 1, base,
        lambda i: r if i >= last else math.inf, geometric_from=last)


def _one_length_passes_one(model, code, ln_t, s) -> bool:
    """Whether the head symbols of one codeword length, their masses summed
    symbol by symbol, times the transform e**ln_t, pass one at the tilt s:
    then f > 1 although the power sum overflowed."""
    if isinstance(code, GolombCode):
        return False
    by_length = {}
    for i, n in enumerate(code.head):
        by_length.setdefault(n, []).append(model.mass(i))
    return any(m > 0.0 and math.log(m) + n * s + ln_t > 0.0
               for m, n in ((math.fsum(ms), n)
                            for n, ms in by_length.items()))


def _reference_rate(model, code, arrivals) -> DecayRate:
    """The bisection of max_decay_rate, on the same points, with every ln f
    the log transform plus the log of the oracle power sum."""
    profile = _Profile(model, code)
    if profile.expected_length() >= arrivals.mean_gap():
        return DecayRate(0.0, True)

    def f(s):
        ln_t = arrivals.ln_transform(s)
        try:
            return ln_t + math.log(_oracle_power_sum(model, code,
                                                     math.exp(s)))
        except OverflowError:
            if _one_length_passes_one(model, code, ln_t, s):
                return math.inf
            raise
        except ArithmeticError:     # the direct sum diverges
            return math.inf

    s_div = profile.pole
    lo = 0.0
    if math.isfinite(s_div):
        hi = s_div / 2.0
        while f(hi) <= 0.0:
            lo, nxt = hi, (hi + s_div) / 2.0
            if nxt <= hi:
                return DecayRate(hi, False)
            hi = nxt
    else:
        hi = 0.5
        while True:
            try:
                if f(hi) > 0.0:
                    break
            except OverflowError:
                raise DivergenceError("f never exceeds one")
            lo, hi = hi, 2.0 * hi
            if hi > 2.0 ** 40:
                raise DivergenceError("f never exceeds one")
    while hi - lo > _S_TOL:
        mid = (lo + hi) / 2.0
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return DecayRate(lo, False)


def _outcome(solve, *args):
    try:
        return solve(*args)
    except EpcError as exc:
        return type(exc)


@SEEDED
@given(problem=_problems())
def test_max_decay_rate_matches_reference_bisection(problem):
    model, base, arrivals = problem
    try:
        code = optimal_code(model, Exponential(base))
    except EpcError:
        return
    got = _outcome(max_decay_rate, model, code, arrivals)
    want = _outcome(_reference_rate, model, code, arrivals)
    if isinstance(want, DecayRate):
        assert isinstance(got, DecayRate), got
        assert abs(got.value - want.value) <= _S_TOL
        assert got.at_boundary == want.at_boundary
    else:
        assert got is want


def _bound_left(model, arrivals):
    """The bound's left side: ln of the transform times the alpha-norm."""
    def ln_left(s):
        alpha = 1.0 / (1.0 + s / LN2)
        return (arrivals.ln_transform(s)
                + _ln_series(model, 0, alpha, 0.0) / alpha)
    return ln_left


def _never_closes(model, arrivals) -> bool:
    """Whether the bound's left side is left unevaluated: a finite source
    whose entropy is below a deterministic gap of at least log2 of its size,
    where sum p**alpha <= n**(1 - alpha) keeps it at or below zero at every
    s."""
    return (isinstance(arrivals, Deterministic) and model.size is not None
            and arrivals.gap >= math.log2(model.size)
            and shannon_entropy(model) < arrivals.gap)


def _words_fit(model, arrivals) -> bool:
    """Whether all of a finite source's words fit within the deterministic
    gap's whole bits, 2**floor(gap) >= n: then some code keeps f at or
    below one at every s."""
    return 2 ** math.floor(arrivals.gap) >= model.size


def _reference_bound(model, arrivals):
    """decay_rate_bound by doubling, then plain bisection to _S_TOL."""
    if shannon_entropy(model) >= arrivals.mean_gap():
        return 0.0
    ln_left = _bound_left(model, arrivals)
    lo, hi = 0.0, 1.0
    while ln_left(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 2.0 ** 40:
            raise EpcError("initial bound did not close; arrivals too slow")
    while hi - lo > _S_TOL:
        mid = (lo + hi) / 2.0
        if ln_left(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _bound_outcome(model, arrivals):
    try:
        return decay_rate_bound(model, arrivals)
    except (EpcError, ValueError) as exc:
        return type(exc), str(exc)


@SEEDED
@given(problem=_problems())
def test_decay_rate_bound_matches_reference_bisection(problem):
    model, _, arrivals = problem
    if isinstance(model, ExplicitFinite) and len(model.probs) == 1:
        assert _bound_outcome(model, arrivals)[0] is DivergenceError
        return
    got = _bound_outcome(model, arrivals)
    if _never_closes(model, arrivals):
        ln_left = _bound_left(model, arrivals)
        assert all(ln_left(2.0 ** k) <= 1e-9 for k in range(-4, 41))
        if _words_fit(model, arrivals):
            assert got[0] is DivergenceError, got
        else:   # some word has floor(gap) + 1 bits or more
            gap = arrivals.gap
            assert got == -math.log(min(model.probs)) / (
                math.floor(gap) + 1 - gap)
        return
    try:
        want = _reference_bound(model, arrivals)
    except (EpcError, ValueError) as exc:
        assert got == (type(exc), str(exc))
        return
    assert isinstance(got, float), got
    assert abs(got - want) <= _S_TOL
    if got > 0.0:
        # the bracket the search closed: feasible at s0, not a step past it
        ln_left = _bound_left(model, arrivals)
        assert ln_left(got) <= 0.0 < ln_left(got + _S_TOL)


@SEEDED
@given(problem=_problems())
def test_decay_rate_bound_takes_at_most_20_evaluations(problem):
    # the doubling bracket and the convex secant together; plain bisection
    # from [0, 1] alone takes 35
    model, _, arrivals = problem
    counting = _counting(arrivals)
    try:
        decay_rate_bound(model, counting)
    except EpcError:
        pass
    assert counting.evaluations <= 20


def _per_symbol_renyi_sum(model, alpha):
    """sum p(i)**alpha symbol by symbol from the source's parameters: a
    listed source's masses, else the head and its geometric continuation
    until the ratio rho**alpha certifies the rest."""
    if model.size is not None:
        return math.fsum(p ** alpha for p in model.probs)
    head, r = model.head, model.tail_ratio
    last = len(head) - 1
    return series_direct(lambda i: tailed_pmf(head, r, i) ** alpha, 0,
                         lambda i: r ** alpha if i >= last else math.inf)


@SEEDED
@given(source=_sources(), alpha=st.floats(0.05, 4.0))
def test_renyi_evaluator_matches_per_symbol_sums(source, alpha):
    model, _ = source
    got = math.exp(_ln_series(model, 0, alpha, 0.0))
    if model.size is None and model.tail_ratio is None:
        want, rel = poisson_renyi_sum_direct(model.mean, alpha), 1e-12
    else:
        want, rel = _per_symbol_renyi_sum(model, alpha), 1e-13
    assert got == pytest.approx(want, rel=rel)


@SEEDED
@given(source=_sources(), mean=st.floats(0.5, 2000.0))
def test_renyi_evaluator_keeps_nothing_of_alpha(source, mean):
    # a Poisson source keeps the log masses the series read; a narrow window
    # at 0.9, a wide one at 0.1, and 0.9 again, each on a source the series
    # has read before, give what a fresh source does
    for model in (source[0], Poisson(mean)):
        for alpha in (0.9, 0.1, 0.9):
            assert (_ln_series(model, 0, alpha, 0.0)
                    == _ln_series(type(model)(*model._values()), 0, alpha,
                                  0.0))


@SEEDED
@given(mean=st.floats(0.01, 200.0), alpha=st.floats(0.01, 4.0))
def test_renyi_sum_matches_direct_lgamma_sum(mean, alpha):
    # at alpha = 0.01 the far tail's p(i) underflows to 0.0 while
    # p(i)**alpha is still near e**-7.45: the sum must use log masses
    got = math.exp(_ln_series(Poisson(mean), 0, alpha, 0.0))
    assert got == pytest.approx(poisson_renyi_sum_direct(mean, alpha),
                                rel=1e-12)


@SEEDED
@given(problem=_problems())
def test_optimize_overflow_iterates_rise_to_a_feasible_rate(problem):
    model, _, arrivals = problem
    try:
        res = optimize_overflow(model, arrivals)
    except EpcError:
        return   # a refusal with a domain error is an allowed answer
    rates = [rate for rate, _ in res.trace]
    assert all(a <= b for a, b in zip(rates, rates[1:])), rates
    assert overflow_functional(model, res.code, arrivals,
                               res.decay_rate) <= 1.0 + 1e-9


@st.composite
def _light_tail_problems(draw):
    """(source, arrivals): Poisson means 0.5 to 50 and geometric-tailed
    heads, whose codes refuse a base past the split cap or the tail ratio's
    limit, at loads from 0.3, where the bound's base passes both."""
    if draw(st.booleans()):
        model = Poisson(draw(st.floats(0.5, 50.0)))
    else:
        model = draw(_sources(kinds=("tailed",)))[0]
    return model, draw(_arrivals(shannon_entropy(model), (0.3, 1.0)))


def _first_split_refusal(model, arrivals):
    """The text with which the split search of a solve's first round, at
    base e**s0 of the public bound, refuses; None where it splits."""
    base = math.exp(decay_rate_bound(model, arrivals))
    try:
        find_split_exponential(model, base)
    except NotLightTailedError as exc:
        return str(exc)
    return None


@settings(SEEDED, max_examples=200)
@given(problem=_light_tail_problems())
def test_light_tail_solve_is_refused_where_its_first_split_is(problem):
    model, arrivals = problem
    try:
        want = _within_cpu_seconds(0.25, _first_split_refusal, model, arrivals)
    except AssertionError:      # the bound alone outlasts the limit
        return
    except (EpcError, OverflowError):
        # the bound refused, or its base has no float: the solve is refused
        # too, if not by the split search at a lower base then as before
        with pytest.raises(EpcError):
            optimize_overflow(model, arrivals)
        return
    try:
        _within_cpu_seconds(5.0, optimize_overflow, model, arrivals)
        got = None
    except NotLightTailedError as exc:
        got = str(exc)
    except EpcError:     # refused after the first round, for another cause
        got = None
    assert got == want
