import dataclasses
import itertools
import math
import random
import re
import signal
import time

import pytest

from epc import (Deterministic, DivergenceError, DthRedundancy, EpcError,
                 ExplicitCode, ExplicitFinite, ExponentialArrivals, Exponential,
                 GammaArrivals, Geometric, GolombCode, LengthSeq, Linear,
                 MaxRedundancy, NotLightTailedError, Poisson, StabilityError,
                 TableTransform, UnaryEndedCode, UnaryTail, build_unary_ended,
                 decay_rate_bound, evaluate_penalty, exp_huffman,
                 expected_length, max_decay_rate, optimal_code,
                 optimize_overflow, overflow_functional, power_sum,
                 shannon_entropy, tail_weight, total_mass,
                 with_geometric_tail)
from epc import overflow
from epc.models import _Profile, _ln_series
from epc.numeric import LN2
from epc.overflow import _S_TOL, _length_key
from oracles import (best_decay_rate, golomb_power_sum_direct,
                     largest_feasible_on_grid, plain_bisection_rate)

PHI = (1 + math.sqrt(5)) / 2


def test_arrival_validation():
    with pytest.raises(StabilityError):
        Deterministic(0.5)      # slower than one bit per unit time
    with pytest.raises(ValueError):
        ExponentialArrivals(0.0)
    with pytest.raises(ValueError):
        GammaArrivals(0.0, 1.0)
    with pytest.raises(ValueError):
        TableTransform(((0.0, 1.0),))
    with pytest.raises(ValueError):
        TableTransform(((0.0, 0.9), (1.0, 0.5)))      # must start at (0, 1)
    with pytest.raises(ValueError):
        TableTransform(((0.0, 1.0), (1.0, 0.5), (0.5, 0.7)))
    with pytest.raises(ValueError):
        TableTransform(((0.0, 1.0), (1.0, 1.0), (2.0, 1.1)))
    with pytest.raises(ValueError, match="^transform values must be nonincr"):
        TableTransform(((0, 1), (1, 0.5), (2, 0.6)))
    with pytest.raises(ValueError,
                       match=r"^s must be finite and nonnegative, got -1\.0$"):
        TableTransform(((0, 1), (1, 0.5))).ln_transform(-1.0)
    # a NaN fails every `<` test, and math.isfinite raises OverflowError on
    # an integer past the float range, so each law refuses both by name
    for bad in (math.nan, math.inf, 10 ** 400):
        for build, name in ((Deterministic, "gap"),
                            (ExponentialArrivals, "rate"),
                            (lambda x: GammaArrivals(x, 1.0), "shape"),
                            (lambda x: GammaArrivals(2.0, x), "rate")):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                build(bad)
    # a NaN passes every comparison, so it is refused by name
    for samples in (((0, 1), (math.nan, 0.5)), ((0, 1), (1.0, math.nan)),
                    ((0, 1), (math.inf, 0.5))):
        with pytest.raises(ValueError, match="samples must be finite"):
            TableTransform(samples)


def test_table_transform_interpolation():
    # log-linear through exact exponential samples reproduces e^(-3s)
    t = TableTransform(((0.0, 1.0), (0.5, math.exp(-1.5)), (2.0, math.exp(-6.0))))
    for s in (0.0, 0.25, 0.5, 1.3, 2.0, 3.7):
        assert t.transform(s) == pytest.approx(math.exp(-3.0 * s), rel=1e-12)
    assert t.mean_gap() == pytest.approx(3.0, rel=1e-12)


def test_table_transform_matches_segment_formula_bit_for_bit():
    # the per-call formula: find the segment by a scan, take both logs
    pts = ((0.0, 1.0), (0.3, 0.8), (0.7, 0.61), (1.0, 0.5), (2.5, 0.2))
    t = TableTransform(pts)

    def direct(s):
        hi = 1
        while hi < len(pts) - 1 and pts[hi][0] < s:
            hi += 1
        (s0, v0), (s1, v1) = pts[hi - 1], pts[hi]
        slope = (math.log(v1) - math.log(v0)) / (s1 - s0)
        return math.exp(math.log(v0) + slope * (s - s0))

    for s in (0.0, 0.1, 0.3, 0.31, 0.7, 0.99, 1.0, 2.5, 2.6, 40.0):
        assert t.transform(s) == direct(s)
    assert t.mean_gap() == -(math.log(0.8) - math.log(1.0)) / 0.3


def test_gamma_shape_one_is_exponential():
    g, e = GammaArrivals(1.0, 0.7), ExponentialArrivals(0.7)
    for s in (0.0, 0.3, 2.0):
        assert g.transform(s) == pytest.approx(e.transform(s), rel=1e-14)
    assert g.mean_gap() == e.mean_gap()


def test_functional_at_zero_is_total_mass():
    m = Geometric(0.5)
    arr = Deterministic(3.0)
    assert overflow_functional(m, GolombCode(3), arr, 0.0) == total_mass(m)


def test_functional_against_direct_sum():
    m = Geometric(0.5)
    arr = Deterministic(3.0)
    for s in (0.2, 0.8, 1.3):
        direct = math.exp(-3.0 * s) * golomb_power_sum_direct(0.5, math.exp(s), 3)
        got = overflow_functional(m, GolombCode(3), arr, s)
        assert got == pytest.approx(direct, rel=1e-11)


def test_functional_poisson_unary_code():
    m = Poisson(1.0)
    code = build_unary_ended(m, 2.0)
    arr = ExponentialArrivals(0.4)
    s = 0.5
    a = math.exp(s)
    direct = math.fsum(math.exp(-1.0 + i * 0.0 - math.lgamma(i + 1))
                       * a ** code.length_at(i) for i in range(200))
    got = overflow_functional(m, code, arr, s)
    assert got == pytest.approx(arr.transform(s) * direct, rel=1e-10)


def test_decay_rate_closed_forms():
    # Geometric(1/2), gaps of 3: the feasibility equations collapse to
    # polynomials in a = e^s with rational roots
    m = Geometric(0.5)
    arr = Deterministic(3.0)
    anchors = {1: math.log(PHI), 2: math.log(3.0), 3: math.log(4.0)}
    for k, want in anchors.items():
        got = max_decay_rate(m, GolombCode(k), arr)
        assert not got.at_boundary
        assert got.value == pytest.approx(want, abs=1e-9)
    # longer grouping loses: mean length reaches the gap
    for k in (4, 5):
        got = max_decay_rate(m, GolombCode(k), arr)
        assert got.at_boundary and got.value == 0.0


def test_decay_rate_against_grid_scan():
    m = Geometric(0.5)
    arr = Deterministic(3.0)

    def f(s):
        try:
            return overflow_functional(m, GolombCode(2), arr, s)
        except DivergenceError:
            raise ArithmeticError

    scan = largest_feasible_on_grid(f, 2.0, 4000)
    got = max_decay_rate(m, GolombCode(2), arr).value
    assert abs(got - scan) <= 2.0 / 4000 + 1e-9


def test_decay_rate_unary_lengthseq():
    # plain unary on Geometric(1/2): with gaps of 3 the feasibility equation
    # factors to (a - 1)(a^2 - a - 1) = 0, so s* = ln((1+sqrt(5))/2); with
    # gaps of 2 the mean length exactly meets the gap and s* sits at zero
    m = Geometric(0.5)
    seq = LengthSeq((), UnaryTail(0))
    got = max_decay_rate(m, seq, Deterministic(3.0))
    assert got.value == pytest.approx(math.log(PHI), abs=1e-9)
    at_edge = max_decay_rate(m, seq, Deterministic(2.0))
    assert at_edge.at_boundary and at_edge.value == 0.0


_FINITE = ExplicitFinite((0.4, 0.3, 0.2, 0.1))
_MERGED = exp_huffman(_FINITE.probs, 1.0).lengths


@pytest.mark.parametrize("model, code", [
    (_FINITE, ExplicitCode.from_lengths(_MERGED)),
    (Poisson(2.0), optimal_code(Poisson(2.0), Linear())),
    (Poisson(2.0), optimal_code(Poisson(2.0), Exponential(1.5))),
], ids=["explicit", "unary-linear", "unary-exp1.5"])
def test_codes_are_scored_as_their_lengths(model, code):
    # each code is a LengthSeq, and every query reads it as its lengths
    plain = LengthSeq(code.head, code.tail)
    assert isinstance(code, LengthSeq) and type(plain) is LengthSeq
    for penalty in (Linear(), Exponential(1.5), DthRedundancy(1.0),
                    MaxRedundancy()):
        assert evaluate_penalty(model, code, penalty) == \
            evaluate_penalty(model, plain, penalty)
    assert power_sum(model, code, 1.5) == power_sum(model, plain, 1.5)
    assert expected_length(model, code) == expected_length(model, plain)
    arrivals = ExponentialArrivals(0.25)
    assert max_decay_rate(model, code, arrivals) == \
        max_decay_rate(model, plain, arrivals)
    assert overflow_functional(model, code, arrivals, 0.3) == \
        overflow_functional(model, plain, arrivals, 0.3)


def test_bound_dominates_every_code():
    m = Geometric(0.5)
    arr = Deterministic(3.0)
    s0 = decay_rate_bound(m, arr)
    for k in range(1, 9):
        assert s0 >= max_decay_rate(m, GolombCode(k), arr).value - 1e-9


def test_bound_zero_when_unstable():
    assert decay_rate_bound(Geometric(0.9), Deterministic(2.0)) == 0.0
    assert decay_rate_bound(Geometric(0.9), ExponentialArrivals(1.5)) == 0.0


def test_optimize_geometric_deterministic():
    res = optimize_overflow(Geometric(0.5), Deterministic(3.0))
    assert res.code == GolombCode(3)
    assert res.decay_rate == pytest.approx(math.log(4.0), abs=1e-9)
    assert not res.at_boundary
    assert res.iterations == len(res.trace) >= 1
    assert res.overflow_estimate(10.0) == pytest.approx(math.exp(-10 * res.decay_rate))
    assert res.overflow_estimate(0.0) == 1.0
    for bad in (-1.0, -1e300, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="buffer size"):
            res.overflow_estimate(bad)


def test_golomb_code_needs_a_geometric_source():
    # a Golomb code is scored in closed form, on a geometric source only;
    # the functional and the decay rate refuse any other alike
    m, code, arr = Poisson(5.0), GolombCode(3), ExponentialArrivals(0.2)
    with pytest.raises(ValueError) as functional:
        overflow_functional(m, code, arr, 0.5)
    with pytest.raises(ValueError) as rate:
        max_decay_rate(m, code, arr)
    # s = 0 skips the sum, not the check
    with pytest.raises(ValueError) as at_zero:
        overflow_functional(m, code, arr, 0.0)
    # the penalties and the power sum read the same profile
    with pytest.raises(ValueError) as penalty:
        evaluate_penalty(m, code, Linear())
    with pytest.raises(ValueError) as sums:
        power_sum(m, code, 1.5)
    assert len({str(e.value) for e in (functional, rate, at_zero, penalty,
                                       sums)}) == 1
    assert "geometric source" in str(rate.value)


def test_golomb_code_at_k_1_is_unary_on_every_source():
    # GolombCode(1) is the plain unary code, LengthSeq((), UnaryTail(0)):
    # off a geometric source it is scored as those lengths, not refused; at
    # k >= 2 the run has no sums there (the test above)
    unary, arr = LengthSeq((), UnaryTail(0)), ExponentialArrivals(0.2)
    for m in (Poisson(5.0), with_geometric_tail((0.5, 0.25), 0.5),
              ExplicitFinite((0.4, 0.3, 0.2, 0.1))):
        for penalty in (Linear(), Exponential(1.5), MaxRedundancy()):
            assert evaluate_penalty(m, GolombCode(1), penalty) == \
                evaluate_penalty(m, unary, penalty)
        assert max_decay_rate(m, GolombCode(1), arr) == \
            max_decay_rate(m, unary, arr)
    # unary gives symbol i a word of i + 1 bits: the mean length is mean + 1
    assert expected_length(Poisson(5.0), GolombCode(1)) == \
        pytest.approx(6.0, rel=1e-12)


def test_functional_refuses_a_non_finite_tilt():
    # at s = inf a finite source's ln f would be -inf + inf
    for s in (math.nan, math.inf):
        with pytest.raises(ValueError, match="s must be finite"):
            overflow_functional(ExplicitFinite((0.5, 0.25, 0.25)),
                                LengthSeq((1, 2, 2)), Deterministic(3.0), s)


def test_optimize_tight_arrivals_unary():
    # gap 2.2 keeps the iterate base under 4/3, so unary wins immediately
    res = optimize_overflow(Geometric(0.5), Deterministic(2.2))
    assert res.code == GolombCode(1)
    scan_codes = [GolombCode(k) for k in range(1, 6)]
    rates = [max_decay_rate(Geometric(0.5), c, Deterministic(2.2)).value
             for c in scan_codes]
    assert res.decay_rate == pytest.approx(max(rates), abs=1e-9)


def test_optimize_degenerate_boundary():
    # entropy above the mean gap: every code is at the boundary, and the
    # mean-length-optimal one is an immediate fixed point
    for arr in (Deterministic(2.0), ExponentialArrivals(1.5)):
        res = optimize_overflow(Geometric(0.9), arr)
        assert res.code == GolombCode(7)
        assert res.at_boundary and res.decay_rate == 0.0
        assert res.iterations == 1


def test_optimize_poisson():
    res = optimize_overflow(Poisson(1.0), ExponentialArrivals(0.4))
    assert res.decay_rate > 0.0
    assert len(res.code.head) == 3
    rates = [r for r, _ in res.trace]
    assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))
    # beats unary and the base-2 construction is not worse than neighbors
    for base in (1.0, 1.2, 2.0, 3.0):
        alt = build_unary_ended(Poisson(1.0), base)
        alt_rate = max_decay_rate(Poisson(1.0), alt, ExponentialArrivals(0.4))
        assert res.decay_rate >= alt_rate.value - 1e-9


def test_optimize_stops_at_the_first_repeat_of_the_lengths():
    # the code rebuilt at the first iterate's rate splits one symbol
    # earlier, its last head length folded into the unary run: the same
    # lengths, so the first iterate is already the fixed point
    m = with_geometric_tail((
        0.16507503630273504, 0.11813490993152763, 0.09046743701621894,
        0.11790699871286738, 0.07159330330460356, 0.11652883301071636,
        0.16832751276453659, 0.12157277516543556), 0.2)
    arrivals = GammaArrivals(4.0, 0.6478917504090114)
    res = optimize_overflow(m, arrivals)
    assert res.iterations == len(res.trace) == 1
    assert res.decay_rate == max_decay_rate(m, res.code, arrivals).value
    rebuilt = optimal_code(m, Exponential(math.exp(res.decay_rate)))
    assert rebuilt.split == res.code.split - 1
    assert str(rebuilt) == "lengths 3,3,4,3,4,3,3,3,4 +unary@8"
    assert str(res.code) == "lengths 3,3,4,3,4,3,3,3,4,5 +unary@9"
    assert _length_key(rebuilt) == _length_key(res.code)


def test_length_key_compares_length_functions():
    head = (3, 3, 4, 3, 4, 3, 3, 3)
    tailed = LengthSeq(head, UnaryTail(3))
    # a head run that the unary tail continues folds into the tail
    for longer in (LengthSeq(head + (4,), UnaryTail(4)),
                   LengthSeq(head + (4, 5, 6), UnaryTail(6)),
                   UnaryEndedCode(head + (4,), 4)):
        assert _length_key(longer) == _length_key(tailed)
    # plain unary from symbol 0, listed or not
    assert (_length_key(LengthSeq((1, 2, 3), UnaryTail(3)))
            == _length_key(LengthSeq((1,), UnaryTail(1))))
    # one length differs, or the tail steps off the run
    for other in (LengthSeq(head + (5,), UnaryTail(4)),
                  LengthSeq(head + (4,), UnaryTail(5)),
                  LengthSeq((3, 3, 4, 3, 4, 3, 3, 4), UnaryTail(3))):
        assert _length_key(other) != _length_key(tailed)
    # codes with no tail: equal exactly when the lengths are
    assert _length_key(LengthSeq((1, 2, 2))) == _length_key(
        ExplicitCode((1, 2, 2)))
    assert _length_key(LengthSeq((1, 2, 2))) != _length_key(LengthSeq((1, 2)))
    assert _length_key(LengthSeq((1, 2, 3, 3))) != _length_key(
        LengthSeq((1, 2), UnaryTail(2)))
    # Golomb codes: equal exactly when k is
    assert _length_key(GolombCode(3)) == _length_key(GolombCode(3))
    assert _length_key(GolombCode(3)) != _length_key(GolombCode(4))


def test_optimize_finite_source():
    m = ExplicitFinite((0.7, 0.15, 0.1, 0.05))
    res = optimize_overflow(m, Deterministic(1.5))
    assert isinstance(res.code, LengthSeq)
    assert res.decay_rate > 0.0


def test_finite_solves_reach_the_exhaustive_optimum():
    # n <= 8 lognormal masses under deterministic, exponential and gamma(4)
    # intermissions, each rate against every length multiset scored from
    # a direct f(s). A deterministic gap of at least log2 n starts from the
    # bound p_min e**(s (floor(gap) + 1 - gap)) = 1 where n words do not fit
    # within floor(gap) bits, and is refused as unbounded where they do
    rng = random.Random(25)
    started = refused = 0
    for n in range(2, 9):
        fit = (n - 1).bit_length()      # the fewest bits that hold n words
        for _ in range(24):
            weights = [math.exp(rng.gauss(0.0, 1.0)) for _ in range(n)]
            total = math.fsum(weights)
            probs = [w / total for w in weights]
            model = ExplicitFinite(probs)
            gap = max(1.25, shannon_entropy(model) / rng.uniform(0.5, 0.98))
            gaps = [gap]
            if n < 2 ** fit:    # a gap between log2 n and the bits n need
                gaps.append(rng.uniform(math.log2(n), fit - 0.05))
            laws = [(Deterministic(g), lambda s, g=g: -s * g) for g in gaps]
            laws += [(ExponentialArrivals(1.0 / gap),
                      lambda s: -math.log1p(s * gap)),
                     (GammaArrivals(4.0, 4.0 / gap),
                      lambda s: -4.0 * math.log1p(s * gap / 4.0))]
            for arrivals, ln_transform in laws:
                if isinstance(arrivals, Deterministic):
                    if math.floor(arrivals.gap) >= fit:
                        with pytest.raises(DivergenceError):
                            optimize_overflow(model, arrivals)
                        refused += 1
                        continue
                    started += arrivals.gap >= math.log2(n)
                got = optimize_overflow(model, arrivals).decay_rate
                want = best_decay_rate(probs, ln_transform,
                                       arrivals.mean_gap())
                assert abs(got - want) <= 1e-9, (probs, arrivals, got, want)
    assert started >= 10 and refused >= 6


def test_a_second_solve_on_one_source_repeats_a_fresh_one():
    # the source keeps its merge order and logs after the first solve; a
    # second solve on it is bit-identical to one on a fresh equal source
    rng = random.Random(29)
    weights = [rng.choice((1.0, 2.0, rng.lognormvariate(0.0, 1.25)))
               for _ in range(200)]
    probs = [w / math.fsum(weights) for w in weights]
    model = ExplicitFinite(probs)
    gap = shannon_entropy(model) / 0.95
    for arrivals in (Deterministic(gap), ExponentialArrivals(1.0 / gap),
                     GammaArrivals(4.0, 4.0 / gap)):
        first = optimize_overflow(model, arrivals)
        again = optimize_overflow(model, arrivals)
        fresh = optimize_overflow(ExplicitFinite(probs), arrivals)
        assert again == first == fresh
        assert repr(again) == repr(fresh)


def test_finite_source_past_log2_n_is_solved():
    # 2**1 < 3 words: some word has 2 bits, so the rate under a 1.6-bit gap
    # is finite; the bound starts at ln 4 / 0.4
    m, arr = ExplicitFinite((0.5, 0.25, 0.25)), Deterministic(1.6)
    assert decay_rate_bound(m, arr) == math.log(4.0) / (2.0 - 1.6)
    res = optimize_overflow(m, arr)
    assert res.code == LengthSeq((1, 2, 2))
    assert res.decay_rate == 0.8221632342902012
    assert res.decay_rate == max_decay_rate(m, res.code, arr).value


def test_bound_refusal_names_the_condition_it_tests():
    # the finite refusal tests 2**floor(gap) >= n, and says so
    m = ExplicitFinite((0.4, 0.3, 0.2, 0.1))
    with pytest.raises(DivergenceError) as refused:
        decay_rate_bound(m, Deterministic(2.5))
    assert str(refused.value) == (
        "a deterministic gap of 2.5 bit times meets 2**floor(gap) >= 4, the "
        "symbol count, so the bound never closes")
    # gap 50 >= log2 3: a solve is refused before any evaluation
    arrivals = _counting(Deterministic(50.0))
    with pytest.raises(DivergenceError, match="^a deterministic gap of 50.0 "):
        optimize_overflow(ExplicitFinite((0.5, 0.25, 0.25)), arrivals)
    assert arrivals.evaluations == 0


def test_bound_that_never_closes_is_refused():
    # two equal masses under a table of log-slope -ln 4: the bound's
    # transform times alpha-norm is e**(-(ln 4 - 1) s), below one at every s
    m, table = ExplicitFinite((0.5, 0.5)), TableTransform(((0, 1), (1, 0.25)))
    for solve in (decay_rate_bound, optimize_overflow):
        with pytest.raises(EpcError) as refused:
            solve(m, table)
        assert type(refused.value) is EpcError
        assert str(refused.value) == \
            "initial bound did not close; arrivals too slow"


def test_zero_variance_finite_solve_takes_the_bound_answer():
    # every length equals the gap: f is one at every s, and max_decay_rate
    # answers as decay_rate_bound does, unbounded (the mean length meeting
    # the gap would otherwise read as a rate of zero at the boundary)
    m, arr = ExplicitFinite((0.4, 0.3, 0.2, 0.1)), Deterministic(2.0)
    for code in (LengthSeq((2, 2, 2, 2)), ExplicitCode.from_lengths((2,) * 4)):
        for s in (0.5, 3.0):
            assert overflow_functional(m, code, arr, s) == \
                pytest.approx(1.0, rel=1e-15)
        with pytest.raises(DivergenceError) as bound:
            decay_rate_bound(m, arr)
        with pytest.raises(DivergenceError) as rate:
            max_decay_rate(m, code, arr)
        assert str(rate.value) == str(bound.value)


def test_optimize_via_table_transform():
    t = TableTransform(((0.0, 1.0), (0.5, math.exp(-1.5)), (2.0, math.exp(-6.0))))
    res = optimize_overflow(Geometric(0.5), t)
    assert res.code == GolombCode(3)
    assert res.decay_rate == pytest.approx(math.log(4.0), abs=1e-8)


def test_never_crossing_raises():
    # two one-bit words, gaps of 2: the queue drains faster than it fills
    # at every tilt, so no finite optimum exists
    m = ExplicitFinite((0.5, 0.5))
    code = LengthSeq((1, 1))
    with pytest.raises(DivergenceError):
        max_decay_rate(m, code, Deterministic(2.0))


@pytest.mark.parametrize("k", [1, 3])
def test_uniform_source_at_a_gap_of_its_entropy_sits_at_the_boundary(k):
    # entropy == gap == log2 n: the bound is zero, not refused as one that
    # never closes, and the rate is zero at the boundary
    m, arr = ExplicitFinite((2.0 ** -k,) * 2 ** k), Deterministic(float(k))
    assert decay_rate_bound(m, arr) == 0.0
    res = optimize_overflow(m, arr)
    assert res.decay_rate == 0.0 and res.at_boundary


def test_long_word_rate_is_finite():
    # at the doubling's first tilt base**2000 overflows the power sum while
    # e**s does not: f is past the float range there, not below one
    m, code = ExplicitFinite((0.5, 0.5)), LengthSeq((1, 2000))
    arr = ExponentialArrivals(1e-4)
    rate = max_decay_rate(m, code, arr)
    assert not rate.at_boundary and 0.0018 <= rate.value <= 0.0019
    assert overflow_functional(m, code, arr, rate.value) <= 1.0


def test_one_symbol_source_is_refused():
    # the one symbol needs zero bits, so the backlog never grows
    m = ExplicitFinite((1.0,))
    for arr in (Deterministic(2.0), ExponentialArrivals(0.5),
                GammaArrivals(2.0, 1.0)):
        with pytest.raises(DivergenceError, match="zero bits"):
            optimize_overflow(m, arr)


@pytest.mark.parametrize("mean, gap", [
    (1.0, None),      # the gap of load 0.5 on the source entropy
    (1.0, 3.82),
    (5.0, 5.77),
])
def test_huge_bound_is_refused_by_the_split_cap(mean, gap):
    # s0 = 15.2, 16.2 and 60.0 ask for splits of 7.7e6, 2.2e7 and 1.2e27
    m = Poisson(mean)
    arr = Deterministic(2.0 * shannon_entropy(m) if gap is None else gap)
    start = time.process_time()
    with pytest.raises(NotLightTailedError):
        optimize_overflow(m, arr)
    assert time.process_time() - start < 0.5


_SPLIT_CAP_REFUSAL = "no split found at or below 10000"


@pytest.mark.parametrize("mean, gap", [
    (20.0, None),     # the gaps of load 0.5 on the source entropy
    (5.0, None),
    (1.0, 3.82),
    (5.0, 5.77),
])
def test_split_cap_refusal_stands_where_the_walk_passes_it(
        monkeypatch, mean, gap):
    # the bound's walk raises its lower end to 1, 4 and 16, and at base
    # e**16 the Poisson split, about 2 e**16 m, passes the cap: the solve is
    # refused there, after the Renyi sums at those three points
    m = Poisson(mean)
    arr = Deterministic(shannon_entropy(m) / 0.5 if gap is None else gap)
    sums, real = [], overflow._ln_series

    def counting(*args):
        sums.append(args)
        return real(*args)
    monkeypatch.setattr(overflow, "_ln_series", counting)
    with pytest.raises(NotLightTailedError) as refused:
        optimize_overflow(m, arr)
    assert str(refused.value) == _SPLIT_CAP_REFUSAL
    assert len(sums) == 3


def test_bound_walks_on_where_the_solve_is_refused():
    # the public bound closes past the split cap, at s0 ~ 489.9
    m = Poisson(20.0)
    s0 = decay_rate_bound(m, Deterministic(shannon_entropy(m) / 0.5))
    assert s0.hex() == "0x1.e9e7db436c5dcp+8"


@pytest.mark.parametrize("model, gap, refusal", [
    # the bound alone sums Renyi series at orders near 0.001 for seconds,
    # and at the first two ends at the term cap
    (Poisson(20.0), 43.0, _SPLIT_CAP_REFUSAL),
    (Poisson(1.0), 30.0, _SPLIT_CAP_REFUSAL),
    # s0 ~ 38262 has no float base
    (Poisson(5.0), 13.0, _SPLIT_CAP_REFUSAL),
    # base * (0.6 + 0.36) passes one at the walk's first raise, s = 1; under
    # the longer gap the bound's walk never closes
    (with_geometric_tail((0.3, 0.2, 0.15, 0.1), 0.6), 20.0,
     "tail ratio too large for this base"),
    (with_geometric_tail((0.3, 0.2, 0.15, 0.1), 0.6), 400.0,
     "tail ratio too large for this base"),
], ids=["poisson20-gap43", "poisson1-gap30", "poisson5-gap13",
        "tailed-gap20", "tailed-gap400"])
def test_long_gap_light_tail_solve_is_refused_in_the_walk(model, gap, refusal):
    with pytest.raises(NotLightTailedError) as refused:
        _within_cpu_seconds(0.5, optimize_overflow, model, Deterministic(gap))
    assert str(refused.value) == refusal


def test_bound_on_a_long_mean_gap_is_fast():
    # the certified Renyi sum stops after a few dozen Poisson terms; a term
    # count sized by the mean gap took 2**20 terms here, seconds per call
    m, arr = Poisson(1.0), ExponentialArrivals(1.0 / 17.0)
    start = time.process_time()
    s0 = decay_rate_bound(m, arr)
    assert time.process_time() - start < 0.5
    assert abs(s0 - 1.3637245993013494) <= _S_TOL
    res = optimize_overflow(m, arr)
    assert res.decay_rate.hex() == "0x1.4f041ee700000p+0"
    assert str(res.code) == "lengths 2,2,2,3,4,5,6,7 +unary@7"


def _lognormal_source(seed, n, sigma):
    rng = random.Random(seed)
    weights = [math.exp(sigma * rng.gauss(0.0, 1.0)) for _ in range(n)]
    total = math.fsum(weights)
    return ExplicitFinite([w / total for w in weights])


def _gamma_table(shape, gap):
    law = GammaArrivals(shape, shape / gap)
    points = [law.rate * 1e-4 * 2.0 ** (j / 2.0) for j in range(40)]
    return TableTransform(((0.0, 1.0),) + tuple(
        (s, law.transform(s)) for s in points))


def _pinned_problem(kind):
    """A source and arrivals at load 0.8 (0.6 for the tailed source) on the
    source entropy."""
    if kind == "finite":
        m = _lognormal_source(7, 1024, 1.25)
        return m, ExponentialArrivals(0.8 / shannon_entropy(m))
    if kind == "poisson":
        m = Poisson(5.0)
        return m, GammaArrivals(4.0, 4.0 * 0.8 / shannon_entropy(m))
    if kind == "tailed":
        m = with_geometric_tail((0.4, 0.2, 0.15, 0.1, 0.105), 0.3)
        return m, ExponentialArrivals(0.6 / shannon_entropy(m))
    if kind == "geometric":
        m = Geometric(0.9)
        return m, ExponentialArrivals(0.8 / shannon_entropy(m))
    m = Poisson(1.0)
    return m, _gamma_table(2.0, shannon_entropy(m) / 0.8)


@pytest.mark.parametrize("kind, rate, iterates", [
    ("finite", "0x1.745e93e000000p-5",
     ["0x1.745e8ba800000p-5", "0x1.745e93e000000p-5"]),
    ("poisson", "0x1.80efdce800000p-2", ["0x1.80efdce800000p-2"]),
    ("tailed", "0x1.4149acee261c3p-2", ["0x1.4149acee261c3p-2"]),
    ("geometric", "0x1.47a8c7e801a4ap-4", ["0x1.47a8c7e801a4ap-4"]),
    ("table", "0x1.9aa4746800000p-3",
     ["0x1.84dba03c00000p-3", "0x1.9aa4746800000p-3"]),
])
def test_pinned_solves(kind, rate, iterates):
    # recorded under an earlier search for the bound: a search that lands
    # within _S_TOL of the same s0 leaves each fixed point bit for bit
    res = optimize_overflow(*_pinned_problem(kind))
    assert res.decay_rate.hex() == rate and not res.at_boundary
    assert res.iterations == len(iterates)
    assert [r.hex() for r, _ in res.trace] == iterates


_CODE3 = build_unary_ended(Poisson(3.0), 1.0)   # lengths 5,3,2,2,3,... +unary


@pytest.mark.parametrize("call, want", [
    # the unary tail at base 1e10 peaks past the term cap; refused at once
    (lambda: power_sum(Poisson(3.0), _CODE3, 1e10), DivergenceError),
    # log_b of ~(p(2) + p(3)) b**2 at a base that underflows every b**n
    (lambda: evaluate_penalty(Poisson(3.0), _CODE3, Exponential(1e-300)),
     2.0 + math.log(9.0 * math.exp(-3.0)) / math.log(1e-300)),
    (lambda: evaluate_penalty(ExplicitFinite((0.5, 0.25, 0.25)),
                              LengthSeq((1, 2, 2)), Exponential(1e300)),
     2.0 + math.log(0.5 + 0.5 / 1e300) / math.log(1e300)),
    # gap 50 >= log2 3: the bound is refused before any evaluation
    (lambda: optimize_overflow(ExplicitFinite((0.5, 0.25, 0.25)),
                               Deterministic(50.0)), DivergenceError),
    (lambda: optimize_overflow(Geometric(0.5),
                               ExponentialArrivals(1e-300)).decay_rate,
     86.94046354341842),
    # ln f = (2000 - 1999.9) s - ln 2 + ln(1 + e**(-1999 s)): the crossing
    # lies where e**(2000 s) and e**(-1999.9 s) both leave the floats
    (lambda: max_decay_rate(ExplicitFinite((0.5, 0.5)), LengthSeq((1, 2000)),
                            Deterministic(1999.9)).value,
     math.log(2.0) / (2000.0 - 1999.9)),
    (lambda: tail_weight(with_geometric_tail([1 / 3000] * 2000, 0.3), 0, 1.5),
     EpcError),
    (lambda: tail_weight(Poisson(3.0), 0, 1000.0), EpcError),
    (lambda: tail_weight(Poisson(3.0), 0, 1e300), DivergenceError),
    # the Deterministic bound at load 0.5 on Geometric(0.99), s0 ~ 504
    (lambda: decay_rate_bound(
        Geometric(0.99), Deterministic(2.0 * shannon_entropy(Geometric(0.99)))),
     504.32067327094836),
    (lambda: shannon_entropy(Poisson(1000.0)), 7.029867442734905),
])
def test_roadmap_float_range_hits(call, want):
    # each input that raised a bare OverflowError or math domain error in
    # plain floats returns a value or raises a domain error
    if isinstance(want, type):
        with pytest.raises(want):
            call()
    else:
        assert call() == pytest.approx(want, rel=1e-9)


def test_poisson_deterministic_solve_reads_underflowing_masses_as_logs():
    # s0 asks for a split of 520, past which the reduced weights underflow;
    # the build merges the source's logs there, and the solve settles
    m = Poisson(5.0)
    arr = Deterministic(shannon_entropy(m) / 0.8)
    res = optimize_overflow(m, arr)
    assert res.trace[0][1].split == 520 and res.iterations == 8
    assert res.decay_rate == max_decay_rate(m, res.code, arr).value
    assert overflow_functional(m, res.code, arr, res.decay_rate) <= 1.0


def _within_cpu_seconds(seconds, call, *args):
    """call(*args), failing once it has used `seconds` of CPU time, so that
    a loop that never ends fails its test instead of holding the run."""
    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s of CPU")
    previous = signal.signal(signal.SIGPROF, expire)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        return call(*args)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, previous)


@pytest.mark.parametrize("ratio, gap, power", [
    (0.995, 18.2, "1040.46"),
    (0.999, 23.0, "5810.49"),
    # the bound's bracket closes where floats lie wider apart than _S_TOL
    (0.995, 30.0, "3.73063e+06"),
])
def test_a_code_base_past_the_float_range_is_refused(ratio, gap, power):
    # a rate past ln(float max) has no exponential penalty to build at
    with pytest.raises(EpcError, match=rf"^the code's base is e\*\*"
                       rf"{re.escape(power)}, past the float range$"):
        _within_cpu_seconds(5.0, optimize_overflow, Geometric(ratio),
                            Deterministic(gap))


@pytest.mark.parametrize("call, args, want", [
    # the bound's bracket closes on [2**20, 2**22], where floats lie 2**-32
    # and more apart: wider than _S_TOL
    (decay_rate_bound, (Geometric(0.995), Deterministic(30)),
     3730628.54541019),
    # f(s) = e**(-0.9999 s) + 1e-300 e**(1e-4 s) crosses one at about
    # ln(1e300) / 1e-4
    (lambda *a: max_decay_rate(*a).value,
     (ExplicitFinite((1.0, 1e-300)), LengthSeq((1, 2)), Deterministic(1.9999)),
     6907755.278992295),
], ids=["decay_rate_bound", "max_decay_rate"])
def test_brackets_past_the_tolerance_spacing_stop(call, args, want):
    # each bracket stops once no float lies strictly between its ends
    start = time.process_time()
    assert _within_cpu_seconds(5.0, call, *args) == want
    assert time.process_time() - start < 1.0


def test_tail_weight_past_the_term_cap_is_refused_at_once():
    # the peak of p(k) * 1e300**k lies at 3e300: refused before any term
    start = time.process_time()
    with pytest.raises(DivergenceError, match="term cap|terms past"):
        tail_weight(Poisson(3.0), 0, 1e300)
    assert time.process_time() - start < 0.05


_CAP = "the series peaks more than 10000000 terms past symbol 3"


@pytest.mark.parametrize("mean, gap, want", [
    (1.0, 1e5, 14.163601575477514),
    # both brackets double past the term cap at s = 16, then bisect below it
    (4.0, 5.4e4, 11.995036681881174),
    (4.0, 3e5, 13.85382218612358),
    # ln f's roots lie at 16.6265089654 and 19.0660024276, past where the
    # series of the unary tail reaches its term cap, near s = 16.118
    (1.0, 1e6, _CAP),
    (1.0, 1e7, _CAP),
], ids=["1-1e5", "4-5.4e4", "4-3e5", "1-1e6", "1-1e7"])
def test_max_decay_rate_refuses_a_rate_the_term_cap_left_undecided(
        mean, gap, want):
    model = Poisson(mean)
    code = build_unary_ended(model, 2.0)
    arrivals = Deterministic(gap)
    if isinstance(want, str):
        with pytest.raises(DivergenceError, match=f"^{want}$"):
            max_decay_rate(model, code, arrivals)
        return
    assert max_decay_rate(model, code, arrivals) == (want, False)


def test_max_decay_rate_stops_a_float_step_below_the_pole():
    # the unary code on Geometric(0.5) has its pole at ln 2, where f stays
    # below one: the bracket halves towards it until no float lies between
    rate = max_decay_rate(Geometric(0.5), LengthSeq((), UnaryTail(0)),
                          Deterministic(100.0))
    assert rate == (0.6931471805599452, False)
    assert math.nextafter(rate.value, math.inf) == math.log(2.0)


@pytest.mark.parametrize("k", [18791, 18998, 20102, 20309, 22448])
def test_max_decay_rate_at_a_pole_takes_one_evaluation(k):
    # Geometric(0.99) at a gap of twice its entropy: these Golomb codes keep
    # f below one up to the pole, where the sum rounds to a finite value.
    # The walk stops a float step below the pole, as the reference walk
    # does, and under convex arrivals computes that point and evaluates
    # ln f there once; it used to take 54 and return the pole itself
    model, code = Geometric(0.99), GolombCode(k)
    arrivals = _counting(Deterministic(2.0 * shannon_entropy(model)))
    rate = max_decay_rate(model, code, arrivals)
    assert arrivals.evaluations == 1
    pole = _Profile(model, code).pole
    assert rate.value < pole == math.nextafter(rate.value, math.inf)
    assert _search_outcome(_plain_search, model, code, arrivals) == (
        rate.value.hex(), False)


def _search_outcome(search, *args):
    """A rate as its bits and boundary flag, a refusal as its type and text."""
    try:
        value, at_boundary = search(*args)
    except EpcError as exc:
        return type(exc), str(exc)
    return value.hex(), at_boundary


def _plain_search(model, code, arrivals):
    """max_decay_rate's answer by the plain bisection of the oracle."""
    profile = _Profile(model, code)
    return plain_bisection_rate(
        arrivals.ln_transform, profile.ln_power_sum, profile.pole,
        profile.expected_length(), arrivals.mean_gap(), DivergenceError,
        _S_TOL)


def _off_optimum(code):
    """The code with its head reversed, or else lengths 2, 2, 2, 3, 4, ..."""
    if len(set(code.head)) > 1:
        return LengthSeq(code.head[::-1], code.tail)
    return LengthSeq((2, 2), UnaryTail(1))


@pytest.mark.parametrize("model", [
    _lognormal_source(3, 16, 1.25), _lognormal_source(4, 256, 0.5),
    _lognormal_source(5, 1024, 2.0), Poisson(1.0), Poisson(5.0),
    Poisson(20.0), Geometric(0.5), Geometric(0.9), Geometric(0.99),
    with_geometric_tail((0.4, 0.2, 0.15, 0.1, 0.105), 0.3),
], ids=["finite16", "finite256", "finite1024", "poisson1", "poisson5",
        "poisson20", "geometric0.5", "geometric0.9", "geometric0.99",
        "tailed"])
def test_max_decay_rate_is_the_plain_bisection_bit_for_bit(model):
    # the located root only spares evaluations: the rate, its boundary flag
    # and every refusal are those of the bisection that evaluates each
    # midpoint, on every arrival law and on tables of two of them
    rng = random.Random(28)
    entropy = shannon_entropy(model)
    codes = [optimal_code(model, Exponential(base))
             for base in (1.05, 1.4, 2.0, 2.5)]
    codes.append(_off_optimum(codes[1]))
    checked = 0
    for load in (rng.uniform(0.3, 0.6), rng.uniform(0.6, 0.9),
                 rng.uniform(0.9, 0.99)):
        gap = entropy / load
        for arrivals in (Deterministic(gap), ExponentialArrivals(1.0 / gap),
                         GammaArrivals(4.0, 4.0 / gap),
                         _gamma_table(2.0, gap), _gamma_table(8.0, gap)):
            for code in codes:
                want = _search_outcome(_plain_search, model, code, arrivals)
                assert _search_outcome(max_decay_rate, model, code,
                                       arrivals) == want, (load, arrivals,
                                                           code)
                checked += want[1] is False
    assert checked >= 40    # most solves end in a bisection


def test_a_table_whose_log_slope_falls_is_refused():
    # every transform is log-convex. Under log-slopes -3, -0.5, -50 and
    # lengths 2 on 4 equal masses, f <= 1 on [0, 5/3] and again from 2.011
    # on, so no s is the largest with f(s) <= 1
    for step, slopes, falls in ((1.0, (-3.0, -0.5, -50.0), "2.0"),
                                (0.1, (-0.45, 0.0, -0.6, -0.8), "0.2")):
        logs = itertools.accumulate(slopes, initial=0.0)
        samples = tuple((step * j, math.exp(step * y))
                        for j, y in enumerate(logs))
        with pytest.raises(ValueError) as refused:
            TableTransform(samples)
        assert str(refused.value) == ("transform samples must be log-convex: "
                                      f"the log-slope falls at s = {falls}")
    # a log-slope that stays level is convex, also where rounding the logs
    # and points of a sampled e**(-g s) makes it fall by an ulp or so
    assert TableTransform(((0, 1), (1, 0.5), (2, 0.25))).mean_gap() == \
        math.log(2.0)
    for g, step in ((0.7, 0.1), (1.0, 0.05), (2.5, 0.37), (12.9, 1e-3),
                    (3.0, 1e-6)):
        table = TableTransform(tuple((step * j, math.exp(-g * step * j))
                                     for j in range(40)))
        slopes = table._slopes
        assert any(b < a for a, b in zip(slopes, slopes[1:])), (g, step)
        assert table.mean_gap() == pytest.approx(g, rel=1e-9)


def _counting(arrivals):
    """A copy of the arrivals, of a subclass of their class, that counts the
    ln_transform evaluations made through it in its class's `evaluations`
    and lists their points, in order, in its `points`."""
    class Counting(type(arrivals)):
        evaluations = 0
        points = []

        def ln_transform(self, s):
            Counting.evaluations += 1
            Counting.points.append(s)
            return super().ln_transform(s)

    return Counting(*(getattr(arrivals, field.name)
                      for field in dataclasses.fields(arrivals)))


_BUDGET_MODELS = pytest.mark.parametrize("model", [
    _lognormal_source(9, 1024, 1.25), Poisson(5.0),
    with_geometric_tail((0.4, 0.2, 0.15, 0.1, 0.105), 0.3),
], ids=["finite1024", "poisson5", "tailed"])


@_BUDGET_MODELS
def test_max_decay_rate_takes_at_most_24_evaluations(model):
    # the expansion, the located root and the few bisection midpoints near
    # it; evaluating every midpoint took about 37 here
    gap = shannon_entropy(model) / 0.8
    for base in (1.1, 1.5, 2.0):
        code = optimal_code(model, Exponential(base))
        for arrivals in (Deterministic(gap), ExponentialArrivals(1.0 / gap),
                         GammaArrivals(4.0, 4.0 / gap),
                         _gamma_table(2.0, gap)):
            counting = _counting(arrivals)
            rate = max_decay_rate(model, code, counting)
            assert not rate.at_boundary
            assert counting.evaluations <= 24, (base, arrivals)


@_BUDGET_MODELS
def test_bound_and_the_rate_at_its_base_keep_their_budgets(model):
    # the bound's doubling bracket and convex secant take at most 20
    # evaluations, and max_decay_rate of the code built at base e**s0 at
    # most 24
    gap = shannon_entropy(model) / 0.8
    for arrivals in (ExponentialArrivals(1.0 / gap),
                     GammaArrivals(4.0, 4.0 / gap)):
        counting = _counting(arrivals)
        s0 = decay_rate_bound(model, counting)
        assert s0 > 0.0 and counting.evaluations <= 20, arrivals
        code = optimal_code(model, Exponential(math.exp(s0)))
        counting = _counting(arrivals)
        rate = max_decay_rate(model, code, counting)
        assert rate.value > 0.0 and counting.evaluations <= 24, arrivals


def _bisected_bound(model, arrivals):
    """decay_rate_bound's s0 by a plain bisection of its left side over the
    bracket its walk finds, every midpoint evaluated."""
    def ln_left(s):
        alpha = 1.0 / (1.0 + s / LN2)
        return (arrivals.ln_transform(s)
                + _ln_series(model, 0, alpha, 0.0) / alpha)

    lo, hi = 0.0, 1.0
    while ln_left(hi) <= 0.0:
        lo, hi = hi, 4.0 * hi
    while hi - lo > _S_TOL and lo < (lo + hi) / 2.0 < hi:
        mid = (lo + hi) / 2.0
        if ln_left(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("model", [
    _lognormal_source(3, 16, 2.0), _lognormal_source(5, 1024, 1.25),
    Poisson(1.0), Poisson(20.0),
    with_geometric_tail((0.4, 0.2, 0.15, 0.1, 0.105), 0.3),
    Geometric(0.5), Geometric(0.9),
], ids=["finite16", "finite1024", "poisson1", "poisson20", "tailed",
        "geometric0.5", "geometric0.9"])
def test_bound_is_the_plain_bisection_of_its_left_side(model):
    # the bound's convex secant, with its quadratic step past a far right
    # point, ends within _S_TOL of where bisection ends on every arrival law
    rng = random.Random(37)
    entropy = shannon_entropy(model)
    checked = 0
    for load in (rng.uniform(0.3, 0.6), rng.uniform(0.6, 0.9),
                 rng.uniform(0.9, 0.99)):
        gap = entropy / load
        for arrivals in (Deterministic(gap), ExponentialArrivals(1.0 / gap),
                         GammaArrivals(4.0, 4.0 / gap),
                         _gamma_table(2.0, gap)):
            if (isinstance(arrivals, Deterministic) and model.size
                    and gap >= math.log2(model.size)):
                continue    # the bound's closed form, with no search
            s0 = decay_rate_bound(model, arrivals)
            assert abs(s0 - _bisected_bound(model, arrivals)) <= _S_TOL, (
                load, arrivals)
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize("model", [
    _lognormal_source(3, 16, 2.0), _lognormal_source(5, 1024, 1.25),
    Poisson(1.0), Poisson(20.0),
    with_geometric_tail((0.4, 0.2, 0.15, 0.1, 0.105), 0.3),
    Geometric(0.5), Geometric(0.9),
], ids=["finite16", "finite1024", "poisson1", "poisson20", "tailed",
        "geometric0.5", "geometric0.9"])
def test_bound_starts_right_of_its_root(model, monkeypatch):
    # the grid of the bisection test above: the walk's first Renyi sum is
    # taken at the last transform point before it, and wherever that point
    # lies below 1 (the Shannon envelope is positive there) the bound's
    # left side is positive there too
    rng = random.Random(37)
    entropy = shannon_entropy(model)
    points = []     # the transform point of each Renyi sum
    real_series = overflow._ln_series

    def series(*args):
        points.append(counting.points[-1])
        return real_series(*args)

    monkeypatch.setattr(overflow, "_ln_series", series)
    below = 0
    for load in (rng.uniform(0.3, 0.6), rng.uniform(0.6, 0.9),
                 rng.uniform(0.9, 0.99)):
        gap = entropy / load
        for arrivals in (Deterministic(gap), ExponentialArrivals(1.0 / gap),
                         GammaArrivals(4.0, 4.0 / gap),
                         _gamma_table(2.0, gap)):
            if (isinstance(arrivals, Deterministic) and model.size
                    and gap >= math.log2(model.size)):
                continue    # the bound's closed form, with no search
            counting, started = _counting(arrivals), len(points)
            s0 = decay_rate_bound(model, counting)
            first = points[started]
            if first < 1.0:
                below += 1
                alpha = 1.0 / (1.0 + first / LN2)
                assert (arrivals.ln_transform(first)
                        + real_series(model, 0, alpha, 0.0) / alpha > 0.0)
                assert s0 < first, (load, arrivals)
            else:
                assert first == 1.0, (load, arrivals)
    assert below >= 3


def test_bound_sums_few_renyi_series(monkeypatch):
    # six bounds on a 1024-symbol source: from the Shannon envelope's start
    # they take 43 Renyi sums, where a walk started at s = 1 took 56
    model = _lognormal_source(5, 1024, 1.25)
    entropy = shannon_entropy(model)
    sums = []
    real_series = overflow._ln_series
    monkeypatch.setattr(overflow, "_ln_series",
                        lambda *args: sums.append(args) or real_series(*args))
    for load in (0.5, 0.8, 0.95):
        gap = entropy / load
        for arrivals in (ExponentialArrivals(1.0 / gap),
                         GammaArrivals(4.0, 4.0 / gap)):
            decay_rate_bound(model, arrivals)
    assert len(sums) == 43


@pytest.mark.parametrize("mean, gap", [(20.0, 43.0), (1.0, 30.0)])
def test_a_renyi_sum_past_the_term_cap_is_refused_at_once(
        mean, gap, monkeypatch):
    # the walk quadruples s up to 4**13, where the order is about 1.7e-7:
    # that series' terms fall so slowly that the summing loop ran its
    # 10**7 terms (about 4 s of CPU) before it gave up; the sums before it
    # settle and are not timed here
    times = []
    real_series = overflow._ln_series

    def timed(*args):
        start = time.process_time()
        try:
            return real_series(*args)
        finally:
            times.append(time.process_time() - start)
    monkeypatch.setattr(overflow, "_ln_series", timed)
    with pytest.raises(DivergenceError) as exc:
        decay_rate_bound(Poisson(mean), Deterministic(gap))
    assert type(exc.value) is DivergenceError
    assert str(exc.value) == "series did not settle after the term cap"
    assert times[-1] < 1.0


@pytest.mark.parametrize("model", [
    Poisson(5.0), with_geometric_tail((0.4, 0.2, 0.15, 0.1, 0.105), 0.3),
    Geometric(0.9)], ids=["poisson5", "tailed", "geometric"])
def test_a_deterministic_bound_takes_one_transform_per_renyi_sum(
        model, monkeypatch):
    # under a steady gap the Shannon envelope is never positive, so the walk
    # starts at s = 1 with no transform call of its own; each bound took one
    # more transform call than Renyi sums (Poisson(5) at load 0.5: 15, 14)
    sums = []
    real_series = overflow._ln_series
    monkeypatch.setattr(overflow, "_ln_series",
                        lambda *args: sums.append(args) or real_series(*args))
    entropy = shannon_entropy(model)
    for load in (0.5, 0.8, 0.95):
        arrivals = _counting(Deterministic(entropy / load))
        sums.clear()
        decay_rate_bound(model, arrivals)
        assert arrivals.evaluations == len(sums) > 0, load


@pytest.mark.parametrize("mean, gap", [
    (1.0, 1e5), (4.0, 5.4e4), (4.0, 3e5), (1.0, 1e6), (1.0, 1e7)])
def test_term_capped_searches_match_the_plain_bisection(mean, gap):
    model = Poisson(mean)
    code = build_unary_ended(model, 2.0)
    args = model, code, Deterministic(gap)
    assert (_search_outcome(max_decay_rate, *args)
            == _search_outcome(_plain_search, *args))


def test_fixed_point_that_does_not_settle_is_refused():
    # ROADMAP item 4: at load 0.5 under a deterministic gap the iterates on
    # Geometric(0.99) do not reproduce a code within 64 rounds
    model = Geometric(0.99)
    arrivals = Deterministic(2 * shannon_entropy(model))
    start = time.process_time()
    with pytest.raises(EpcError, match="did not settle in 64 rounds"):
        optimize_overflow(model, arrivals)
    assert time.process_time() - start < 1.0
