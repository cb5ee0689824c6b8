"""The one series behind every tail, power and Renyi sum, and the peak a
unary run's maximal redundancy reads on a geometric-tailed source, held to
direct summation and to a per-symbol scan."""
import math
import random

import pytest

from epc import (DivergenceError, ExplicitFinite, Geometric, LengthSeq,
                 Poisson, UnaryTail, with_geometric_tail)
from epc.models import _Profile, _ln_series, _terms
from oracles import ln_series_direct, max_redundancy_terms, poisson_ln_pmf


def _tailed_ln_pmf(head, ratio):
    """ln p(i) of a head continued geometrically from its last entry."""
    last = len(head) - 1
    return lambda i: (math.log(head[i]) if i < last else
                      math.log(head[last]) + (i - last) * math.log(ratio))


def _probs(rng, n):
    ws = [math.exp(rng.gauss(0.0, 1.5)) for _ in range(n)]
    total = math.fsum(ws)
    return [w / total for w in ws]


def _series_cases(rng):
    """(model, j, alpha, beta, ln p, bound on the term ratio from i on)."""
    for _ in range(40):     # finite: no term past the last symbol
        n = rng.randint(1, 40)
        model = ExplicitFinite(_probs(rng, n))
        alpha, beta = 10 ** rng.uniform(-3, math.log10(2)), rng.uniform(-1, 1)
        yield (model, rng.randrange(n), alpha, beta, model.ln_mass,
               lambda i, n=n: 0.0 if i >= n - 1 else math.inf)
    for _ in range(60):     # tailed: j below, at and past the tail start
        n = rng.randint(1, 8)
        ratio = rng.uniform(0.01, 0.95)
        probs = _probs(rng, n)
        head = probs[:-1] + [probs[-1] * (1.0 - ratio)]
        model = (Geometric(ratio) if n == 1 else
                 with_geometric_tail(head, ratio))
        alpha, beta = 10 ** rng.uniform(-3, math.log10(2)), rng.uniform(-1, 1)
        j = rng.choice([rng.randrange(n), n - 1, n - 1 + rng.randint(1, 30)])
        ln_q = alpha * math.log(ratio) + beta
        if ln_q >= 0.0:     # the rest diverges
            with pytest.raises(DivergenceError):
                _ln_series(model, j, alpha, beta)
        elif ln_q < -0.05:  # else too many terms for the direct sum
            yield (model, j, alpha, beta, _tailed_ln_pmf(head, ratio),
                   lambda i, n=n, q=math.exp(ln_q):
                   q if i >= n - 1 else math.inf)
    # Poisson, the ratio path where beta is nonzero; ln p(i) comes from
    # lgamma in both, and the direct sum scales by its first term, so the
    # draws keep the peak within e**600 of it and near enough the start
    # that lgamma's rounding stays below the tolerance
    draws = [(13.76, 6, 1.45e-4, -0.238)]   # c = mean e**(beta/alpha) = 0
    while len(draws) < 80:
        mean, j = math.exp(rng.uniform(math.log(0.1), math.log(50.0))), \
            rng.randint(0, 30)
        if len(draws) < 20:     # c no normal float, or 0
            alpha = 10 ** rng.uniform(-4, -3)
            beta = alpha * (rng.uniform(-1000.0, -708.5) - math.log(mean))
        else:
            alpha, beta = (10 ** rng.uniform(-3, math.log10(2)),
                           rng.uniform(-1, 1))
        c = mean * math.exp(min(beta / alpha, 700.0))
        k0 = max(j, int(c))
        if c < 200.0 and alpha * (poisson_ln_pmf(mean, k0) + beta / alpha
                                  * (k0 - j) - poisson_ln_pmf(mean, j)) < 600:
            draws.append((mean, j, alpha, beta))
    for mean, j, alpha, beta in draws:
        yield (Poisson(mean), j, alpha, beta,
               lambda i, mean=mean: poisson_ln_pmf(mean, i),
               lambda i, mean=mean, alpha=alpha, beta=beta:
               (mean / (i + 1)) ** alpha * math.exp(beta))


def test_series_is_the_direct_sum():
    for model, j, alpha, beta, ln_pmf, bound in _series_cases(
            random.Random(49)):
        want = ln_series_direct(
            lambda i: alpha * ln_pmf(i) + beta * (i - j), j, bound)
        got = _ln_series(model, j, alpha, beta)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (
            model, j, alpha, beta)


def test_the_series_record_lists_its_terms_and_sums_them_once():
    # a geometric-tailed head's record lists the head and takes the rest
    # past it into total; the Poisson ratio path keeps its sum alone
    head, ratio = (0.5, 0.25, 0.125), 0.5
    model = with_geometric_tail(head, ratio)
    series = _terms(model, 0, 0.5, 0.0)
    assert series.terms == [p ** 0.5 for p in head]
    rest = 1.0 / math.expm1(-0.5 * math.log(ratio))
    assert series.total == math.fsum(series.terms) + head[-1] ** 0.5 * rest
    assert _terms(Poisson(3.0), 0, 0.5, 0.1).terms is None
    assert _terms(ExplicitFinite((0.5, 0.5)), 2, 1.0, 0.0).total == 0.0
    assert _ln_series(ExplicitFinite((0.5, 0.5)), 2, 1.0, 0.0) == -math.inf


def _code(rng, t0):
    """A head of t0 random lengths, then a unary run behind a spine that
    keeps the Kraft sum at most one."""
    while True:
        head = tuple(rng.randint(1, 8) for _ in range(t0))
        kraft = math.fsum(2.0 ** -n for n in head)
        if kraft < 1.0:
            spine = math.ceil(-math.log2(1.0 - kraft)) + rng.randint(0, 2)
            return LengthSeq(head, UnaryTail(spine))


@pytest.mark.parametrize("ratio", [0.05, 0.3, 0.45, 0.5, 0.55, 0.8])
def test_max_redundancy_of_a_unary_run_on_a_tailed_source(ratio):
    # past the tail start n(i) + log2 p(i) changes by 1 + log2 ratio a
    # symbol: the sup lies by the start at ratio 1/2 or below, else it is
    # unbounded
    rng = random.Random(round(ratio * 100))
    for n in (1, 2, 5, 9):
        probs = _probs(rng, n)
        head = probs[:-1] + [probs[-1] * (1.0 - ratio)]
        model = (Geometric(ratio) if n == 1 else
                 with_geometric_tail(head, ratio))
        ln_pmf = _tailed_ln_pmf(head, ratio)
        for t0 in sorted({0, n // 2, n - 1, n, n + 3}):   # below and past
            code = _code(rng, t0)
            got = _Profile(model, code).max_redundancy()
            count = max(t0, n) + 8
            lengths = list(map(code.length_at, range(count)))
            ln_masses = list(map(ln_pmf, range(count)))
            want = max_redundancy_terms(ln_masses, lengths)
            if ratio > 0.5:
                assert got == math.inf
                # the scan grows without bound along the tail
                more = range(count + 1000)
                assert max_redundancy_terms(
                    list(map(ln_pmf, more)),
                    list(map(code.length_at, more))) > want + 100.0
            else:
                assert got == pytest.approx(want, rel=1e-13, abs=1e-14), (
                    n, t0)
