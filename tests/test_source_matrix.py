"""Seeded differential tests of every source kind against every query.

Each drawn source (Geometric, Poisson with means 0.5 to 300, ExplicitFinite,
with_geometric_tail) is paired with an oracle pmf from tests/oracles.py and
a bound on its mass ratio; every query (point_mass, tail_weight,
total_mass, power_sum, expected_length, the dth and mmr penalties, both
entropies) is compared against a direct truncated sum over that pmf.
Geometric(r) must also answer every query as the one-entry head
with_geometric_tail((1 - r,), r) does. Needs hypothesis (the `test`
extra)."""
import math
import random
from typing import Callable, NamedTuple, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epc import (DivergenceError, DthRedundancy, ExplicitFinite,
                 ExponentialArrivals, Exponential, Geometric, LengthSeq,
                 Linear, MaxRedundancy, Poisson, UnaryEndedCode, UnaryTail,
                 build_unary_ended, build_unary_ended_mmr, evaluate_penalty,
                 exp_huffman, expected_length, find_split_exponential,
                 overflow_functional, point_mass, power_sum, renyi_entropy,
                 shannon_entropy, tail_weight, total_mass,
                 with_geometric_tail)
from epc.huffman import merge
from epc.light_tail import _assemble
from oracles import (SUM_TOL, dth_sum_log_terms, expected_length_terms,
                     geometric_pmf, max_redundancy_terms, poisson_ln_pmf,
                     poisson_pmf, poisson_tail_weight_direct, power_sum_terms,
                     series_direct, tailed_pmf)

SEEDED = settings(derandomize=True, database=None, deadline=None,
                  max_examples=60)
LN2 = math.log(2.0)
REL = 1e-11      # the library's certified series stop at 1e-12 absolute
SLOW = 0.97      # geometric decay past which a direct sum is too long


class Source(NamedTuple):
    model: object
    pmf: Callable[[int], float]
    ln_pmf: Callable[[int], float]
    size: Optional[int]             # None for an infinite alphabet
    decay: Callable[[int], float]   # >= p(k+1)/p(k) for every k >= i
    ratio: Optional[float]          # the geometric tail ratio, if any


def _geometric(r):
    return Source(Geometric(r), lambda i: geometric_pmf(r, i),
                  lambda i: math.log1p(-r) + i * math.log(r), None,
                  lambda i: r, r)


def _tailed(head, r):
    last = len(head) - 1

    def ln_pmf(i):
        if i <= last:
            return math.log(head[i])
        return math.log(head[last]) + (i - last) * math.log(r)

    return Source(with_geometric_tail(head, r),
                  lambda i: tailed_pmf(head, r, i), ln_pmf, None,
                  lambda i: r if i >= last else math.inf, r)


def _poisson(m):
    return Source(Poisson(m), lambda i: poisson_pmf(m, i),
                  lambda i: poisson_ln_pmf(m, i), None,
                  lambda i: m / (i + 1), None)


def _finite(probs):
    return Source(ExplicitFinite(probs), lambda i: probs[i],
                  lambda i: math.log(probs[i]), len(probs),
                  lambda i: 0.0, None)


@st.composite
def sources(draw):
    kind = draw(st.sampled_from(["geometric", "poisson", "finite",
                                 "tailed"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if kind == "geometric":
        return _geometric(draw(st.floats(0.05, 0.95)))
    if kind == "poisson":
        return _poisson(draw(st.one_of(st.floats(0.5, 30.0),
                                       st.floats(30.0, 300.0))))
    sigma = draw(st.floats(0.2, 2.0))
    weights = [math.exp(sigma * rng.gauss(0.0, 1.0))
               for _ in range(draw(st.integers(1, 40 if kind == "finite"
                                               else 12)))]
    if kind == "finite":
        total = math.fsum(weights)
        return _finite(tuple(w / total for w in weights))
    r = draw(st.floats(0.05, 0.9))
    total = math.fsum(weights) + weights[-1] * r / (1.0 - r)
    return _tailed(tuple(w / total for w in weights), r)


@st.composite
def problems(draw):
    """(source, lengths covering it)."""
    src = draw(sources())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if src.size is not None:
        low = src.size.bit_length()          # Kraft sum at most one
        return src, LengthSeq(tuple(rng.randint(low, low + 3)
                                    for _ in range(src.size)))
    h = draw(st.integers(0, 12))
    low = h.bit_length() + 1                 # head Kraft sum at most 1/2
    head = tuple(rng.randint(low, low + 3) for _ in range(h))
    return src, LengthSeq(head, UnaryTail(h, draw(st.integers(2, 6))))


def _outcome(query, *args):
    try:
        return query(*args)
    except DivergenceError:
        return DivergenceError


def _head_and_tail(src, lengths, term, factor):
    """sum_i term(i) over the head of the lengths (the whole alphabet of a
    finite source), plus the tail summed until its remainder is certified
    by decay(i) * factor(i)."""
    n = src.size if src.size is not None else len(lengths.head)
    head = math.fsum(term(i) for i in range(n))
    if src.size is not None:
        return head
    return head + series_direct(term, lengths.tail.start_index,
                                lambda i: src.decay(i) * factor(i))


# ---------------------------------------------------------------- queries

@SEEDED
@given(src=sources(), i=st.integers(0, 400))
def test_point_mass_matrix(src, i):
    if src.size is not None and i >= src.size:
        with pytest.raises(IndexError):
            point_mass(src.model, i)
        return
    assert point_mass(src.model, i) == pytest.approx(src.pmf(i), rel=1e-12,
                                                     abs=1e-300)


@SEEDED
@given(src=sources(), j=st.integers(-1, 30), base=st.floats(0.5, 2.0))
def test_tail_weight_matrix(src, j, base):
    got = _outcome(tail_weight, src.model, j, base)
    if src.ratio is not None and src.ratio * base >= 1.0:
        assert got is DivergenceError
        return
    if src.ratio is not None and src.ratio * base > SLOW:
        return
    if src.size is not None:
        want = math.fsum(src.pmf(k) * base ** (k - j)
                         for k in range(j + 1, src.size))
    else:
        ln_base = math.log(base)
        want = series_direct(
            lambda k: math.exp(src.ln_pmf(k) + (k - j) * ln_base), j + 1,
            lambda k: src.decay(k) * base)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


@SEEDED
@given(src=sources())
def test_total_mass_matrix(src):
    if src.size is not None:
        want = math.fsum(src.pmf(i) for i in range(src.size))
    else:
        want = series_direct(src.pmf, 0, src.decay)
    assert total_mass(src.model) == pytest.approx(want, rel=1e-12)


@SEEDED
@given(problem=problems(), base=st.floats(0.5, 2.0))
def test_power_sum_matrix(problem, base):
    src, lengths = problem
    got = _outcome(power_sum, src.model, lengths, base)
    if src.ratio is not None and src.ratio * base >= 1.0:
        assert got is DivergenceError
        return
    if src.ratio is not None and src.ratio * base > SLOW:
        return
    ln_base = math.log(base)
    want = _head_and_tail(
        src, lengths,
        lambda i: math.exp(src.ln_pmf(i) + lengths.length_at(i) * ln_base),
        lambda i: base)
    assert got == pytest.approx(want, rel=1e-12)


@SEEDED
@given(problem=problems())
def test_expected_length_matrix(problem):
    src, lengths = problem
    want = _head_and_tail(src, lengths,
                          lambda i: src.pmf(i) * lengths.length_at(i),
                          lambda i: 1.0 + 1.0 / lengths.length_at(i))
    assert expected_length(src.model, lengths) == pytest.approx(want, rel=REL)


@SEEDED
@given(problem=problems(), order=st.floats(0.25, 6.0))
def test_dth_penalty_matrix(problem, order):
    src, lengths = problem
    got = _outcome(evaluate_penalty, src.model, lengths, DthRedundancy(order))
    if src.ratio is not None:
        ln_step = (1.0 + order) * math.log(src.ratio) + order * LN2
        if ln_step >= 0.0:
            assert got is DivergenceError
            return
        if ln_step > math.log(SLOW):
            return
    total = _head_and_tail(
        src, lengths,
        lambda i: math.exp((1.0 + order) * src.ln_pmf(i)
                           + order * lengths.length_at(i) * LN2),
        lambda i: src.decay(i) ** order * 2.0 ** order)
    assert got == pytest.approx(math.log2(total) / order, rel=REL, abs=1e-12)


@SEEDED
@given(problem=problems())
# a head whose masses underflow to 0.0: log2 of them is a domain error
@example(problem=(_poisson(5.0), LengthSeq(tuple(range(1, 1001)),
                                           UnaryTail(1000, 1001))))
def test_mmr_penalty_matrix(problem):
    src, lengths = problem
    got = evaluate_penalty(src.model, lengths, MaxRedundancy())
    if src.ratio is not None and src.ratio > 0.5:
        assert got == math.inf   # the tail climbs without bound
        return
    n = src.size if src.size is not None else len(lengths.head)
    want = max((lengths.length_at(i) + src.ln_pmf(i) / LN2
                for i in range(n)), default=-math.inf)
    if src.size is None:
        # past a mass ratio of 1/2 the value never rises again
        i = lengths.tail.start_index
        while True:
            want = max(want, lengths.length_at(i) + src.ln_pmf(i) / LN2)
            if src.decay(i) <= 0.5:
                break
            i += 1
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def _entropy_ratio(src, i):
    """A bound on the ratio of consecutive -p ln p terms from i on: with
    x = decay(i) and L = -ln p(i) >= 1 it is x * (1 + ln(1/x) / L)."""
    x, ln_p = src.decay(i), src.ln_pmf(i)
    if x >= 1.0 or -ln_p < 1.0:
        return math.inf
    return x * (1.0 - math.log(x) / -ln_p)


@SEEDED
@given(src=sources(), base=st.floats(0.55, math.exp(2.0)))
def test_entropies_matrix(src, base):
    def h_term(i):
        ln_p = src.ln_pmf(i)
        return -math.exp(ln_p) * ln_p / LN2

    alpha = 1.0 / (1.0 + math.log2(base))

    def r_term(i):
        return math.exp(alpha * src.ln_pmf(i))

    if src.size is not None:
        shannon = math.fsum(h_term(i) for i in range(src.size))
        z = math.fsum(r_term(i) for i in range(src.size))
    else:
        shannon = series_direct(h_term, 0, lambda i: _entropy_ratio(src, i))
        z = series_direct(r_term, 0, lambda i: src.decay(i) ** alpha)
    assert shannon_entropy(src.model) == pytest.approx(shannon, rel=REL,
                                                       abs=1e-12)
    assert renyi_entropy(src.model, base) == pytest.approx(
        math.log2(z) / (1.0 - alpha), rel=REL, abs=1e-12)


# ---------------------------------------------- Geometric as a one-entry head

def _queries(model, lengths, j, base, order):
    """Every query at one point, DivergenceError standing for a refusal."""
    return [_outcome(f, *args) for f, args in (
        (point_mass, (model, j + 1)),
        (tail_weight, (model, j, base)),
        (total_mass, (model,)),
        (power_sum, (model, lengths, base)),
        (expected_length, (model, lengths)),
        (evaluate_penalty, (model, lengths, DthRedundancy(order))),
        (evaluate_penalty, (model, lengths, MaxRedundancy())),
        (shannon_entropy, (model,)),
        (renyi_entropy, (model, base)),
    )]


@SEEDED
@given(problem=problems(), r=st.floats(0.02, 0.98), j=st.integers(-1, 20),
       base=st.floats(0.55, 2.5), order=st.floats(0.25, 6.0))
def test_geometric_is_a_one_entry_head(problem, r, j, base, order):
    _, lengths = problem
    if lengths.tail is None:
        lengths = LengthSeq((), UnaryTail(0, 1))
    got = _queries(Geometric(r), lengths, j, base, order)
    want = _queries(with_geometric_tail((1.0 - r,), r), lengths, j, base,
                    order)
    for g, w in zip(got, want):
        if w is DivergenceError or w == math.inf:
            assert g == w
        else:
            assert g == pytest.approx(w, rel=1e-12, abs=1e-300)


# ---------------------------------------------------- Poisson tail weights

@pytest.mark.parametrize("mean", [0.5, 1.0, 4.0, 15.0, 20.0, 60.0, 150.0,
                                  300.0])
def test_poisson_tail_weight_at_split(mean):
    for base in (0.5, 0.8, 1.0, 1.5, 2.0, math.e, math.exp(2.0)):
        j = find_split_exponential(Poisson(mean), base)
        want = poisson_tail_weight_direct(mean, j, base)
        assert tail_weight(Poisson(mean), j, base) == pytest.approx(
            want, rel=1e-12, abs=1e-300), (mean, base, j)


def test_poisson_code_uses_the_direct_tail_weight():
    # at mean 20 and base 1/2 the tail past the split weighs 3.6e-11; a
    # weight cancelled from e^{m(a-1)} would start the tail far too early
    model, base = Poisson(20.0), 0.5
    r = find_split_exponential(model, base)
    weights = [poisson_pmf(20.0, i) for i in range(r + 1)]
    weights.append(poisson_tail_weight_direct(20.0, r, base))
    lengths = _assemble(weights, exp_huffman(weights, base).lengths)
    want = UnaryEndedCode.from_lengths(lengths[:-1], lengths[-1])
    assert build_unary_ended(model, base) == want
    assert len(want.tail_prefix) == 55


# ----------------------------------- per-length profile against per symbol

@st.composite
def coded_sources(draw):
    """(source, code): finite sources of up to 4 096 symbols whose weights
    take a few distinct values, merged under a drawn penalty, so that many
    symbols share a length; finite sources of up to 200 symbols under
    lengths whose unary tail starts inside the alphabet; and the
    unary-ended codes of Poisson and geometric-tailed sources."""
    kind = draw(st.sampled_from(["finite", "finite-unary", "poisson",
                                 "tailed"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if kind == "finite-unary":
        # the head merged with the rest of the mass as one more weight,
        # whose word becomes the spine of the tail
        n = draw(st.integers(2, 200))
        weights = [math.exp(rng.gauss(0.0, 1.0)) for _ in range(n)]
        total = math.fsum(weights)
        src = _finite(tuple(w / total for w in weights))
        h = draw(st.integers(1, n - 1))
        probs = src.model.probs
        lengths = merge(probs[:h] + (math.fsum(probs[h:]),), Linear()).lengths
        return src, LengthSeq(lengths[:-1], UnaryTail(h, lengths[-1] + 1))
    if kind == "finite":
        levels = [math.exp(2.0 * rng.gauss(0.0, 1.0))
                  for _ in range(draw(st.integers(1, 8)))]
        weights = [rng.choice(levels)
                   for _ in range(draw(st.integers(2, 4096)))]
        total = math.fsum(weights)
        src = _finite(tuple(w / total for w in weights))
        penalty = draw(st.sampled_from([Linear(), Exponential(0.7),
                                        Exponential(1.5), MaxRedundancy(),
                                        DthRedundancy(2.0)]))
        return src, LengthSeq(merge(src.model.probs, penalty).lengths)
    if kind == "poisson":
        src = _poisson(draw(st.floats(0.5, 60.0)))
    else:
        # a tail ratio light enough for every base drawn below
        r = draw(st.floats(0.05, 0.36))
        head = [math.exp(rng.gauss(0.0, 1.0))
                for _ in range(draw(st.integers(1, 16)))]
        total = math.fsum(head) + head[-1] * r / (1.0 - r)
        src = _tailed(tuple(w / total for w in head), r)
    rule = draw(st.sampled_from([1.0, 1.5, 2.0, "mmr"]))
    if rule == "mmr":
        return src, build_unary_ended_mmr(src.model)
    return src, build_unary_ended(src.model, rule)


@SEEDED
@given(problem=coded_sources(), base=st.sampled_from([0.5, 0.7, 1.5, 2.0]),
       order=st.floats(0.25, 8.0), s=st.floats(0.01, 0.5))
def test_penalties_match_per_symbol_oracle(problem, base, order, s):
    src, code = problem
    model = src.model
    if src.size is not None:
        count = src.size
    else:
        # far enough into the tail that every sum leaves out less than
        # 2**-400 of itself: past the tail start and past 4 * (mean + 1)
        # each term is at most half the one before
        count = (max(code.tail.start_index, len(getattr(model, "head", ())))
                 + int(4.0 * (getattr(model, "mean", 0.0) + 1.0)) + 400)
    lengths = [code.length_at(i) for i in range(count)]
    masses = [src.pmf(i) for i in range(count)]
    ln_masses = [src.ln_pmf(i) for i in range(count)]

    def close(want, slack=0.0):
        return pytest.approx(want, rel=1e-13, abs=slack)

    # the penalties are logarithms, which may sit at zero, so they also
    # pass within 1e-14; a Poisson tail stops once its certified remainder
    # is below SUM_TOL, absolute in the expected length and relative in
    # the order-d sum
    poisson = isinstance(model, Poisson)

    want = power_sum_terms(masses, lengths, base)
    assert power_sum(model, code, base) == close(want)
    assert evaluate_penalty(model, code, Exponential(base)) == close(
        math.log(want) / math.log(base), 1e-14)
    arrivals = ExponentialArrivals(0.25)
    assert overflow_functional(model, code, arrivals, s) == close(
        arrivals.transform(s) * power_sum_terms(masses, lengths, math.exp(s)))
    want = expected_length_terms(masses, lengths)
    assert expected_length(model, code) == close(want, SUM_TOL * poisson)
    assert evaluate_penalty(model, code, Linear()) == close(
        want, SUM_TOL * poisson)
    assert evaluate_penalty(model, code, MaxRedundancy()) == close(
        max_redundancy_terms(ln_masses, lengths), 1e-14)
    assert evaluate_penalty(model, code, DthRedundancy(order)) == close(
        dth_sum_log_terms(ln_masses, lengths, order) / (order * LN2),
        SUM_TOL / (order * LN2) if poisson else 1e-14)
