import gc
import math
import random
import sys
import time

import pytest

import epc
from epc import (DivergenceError, DthRedundancy, EpcError, ExplicitFinite,
                 ExplicitTailed, ExponentialArrivals, Exponential, Geometric,
                 GolombCode, LengthSeq, Linear, MaxRedundancy, Poisson,
                 UnaryTail, encode, evaluate_penalty, expected_length,
                 max_decay_rate, point_mass, power_sum, renyi_entropy,
                 shannon_entropy, tail_weight, total_mass, with_geometric_tail)
from epc.bits import kraft_total
from epc.light_tail import build_unary_ended
from epc.models import _Profile, _ln_series, _peak, _terms
from epc.numeric import LN2
from oracles import (geometric_pmf, head_run_length, ln_series_direct,
                     poisson_entropy_decimal, poisson_ln_pmf, poisson_pmf,
                     unary_tail_power_sum_direct)

UNARY = LengthSeq((), UnaryTail(0))


def test_model_validation():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            Geometric(bad)
    with pytest.raises(ValueError):
        Poisson(0.0)
    with pytest.raises(ValueError):
        ExplicitFinite((0.5, 0.4))      # does not sum to one
    with pytest.raises(ValueError):
        ExplicitFinite((1.2, -0.2))
    for bad in (math.inf, -math.inf, math.nan):
        for build in (Poisson, Exponential, DthRedundancy):
            with pytest.raises(ValueError, match="must be finite"):
                build(bad)


def test_point_mass():
    g = Geometric(0.7)
    for i in range(10):
        assert point_mass(g, i) == pytest.approx(geometric_pmf(0.7, i), rel=1e-14)
    p = Poisson(2.5)
    for i in range(12):
        exact = math.exp(-2.5) * 2.5 ** i / math.factorial(i)
        assert point_mass(p, i) == pytest.approx(exact, rel=1e-12)
    with pytest.raises(ValueError, match="^symbols are nonnegative$"):
        point_mass(Poisson(1.0), -1)
    f = ExplicitFinite((0.25, 0.75))
    assert point_mass(f, 1) == 0.75 and f.ln_mass(1) == math.log(0.75)
    with pytest.raises(IndexError):
        point_mass(f, 2)
    # past the float range an infinite source's mass rounds to zero
    for m in (g, p, with_geometric_tail((0.5, 0.25), 0.5)):
        assert point_mass(m, 10 ** 400) == 0.0
    with pytest.raises(IndexError):
        point_mass(f, 10 ** 400)


_HALVES = ExplicitFinite((0.5, 0.5))
_FAR = 10 ** 400    # no float holds it: math.isfinite raises OverflowError


@pytest.mark.parametrize("call, message", [
    (lambda: Exponential(_FAR), "base must be finite"),
    (lambda: DthRedundancy(_FAR), "order must be finite"),
    (lambda: Poisson(_FAR), "mean must be finite"),
    (lambda: tail_weight(Geometric(0.5), 0, _FAR), "base must be finite"),
    (lambda: power_sum(Geometric(0.5), UNARY, _FAR), "base must be finite"),
    (lambda: renyi_entropy(Geometric(0.5), _FAR), "base must be finite"),
    (lambda: epc.avg_redundancy(Geometric(0.5), UNARY, _FAR),
     "base must be finite"),
    (lambda: epc.find_split_exponential(Poisson(2.0), _FAR),
     "base must be finite"),
    (lambda: epc.optimal_k_exponential(0.5, _FAR), "base must be finite"),
    (lambda: ExplicitFinite((_FAR,)), "probabilities must be finite"),
    (lambda: ExplicitFinite((1e308, 1e308)),
     "probabilities must sum to 1 within 1e-9"),
    (lambda: with_geometric_tail((_FAR,), 0.5),
     "probabilities must be finite"),
    (lambda: epc.exp_huffman((_FAR, 1), 2.0), "weights must be finite"),
    (lambda: epc.maxred_huffman((_FAR, 1)), "weights must be finite"),
    (lambda: epc.dth_huffman((0.5, 0.5), _FAR), "order must be finite"),
    (lambda: epc.TableTransform(((0, 1), (_FAR, 0.5))),
     "transform samples must be finite"),
    (lambda: epc.SweepSpec(2, ratio_stop=_FAR), "the ratio grid must be fin"),
    (lambda: epc.SweepSpec(4, base_step=_FAR), "the base grid must be finite"),
    (lambda: epc.sweep(epc.SweepSpec(2, 0.5, 0.5, bases=(_FAR,))),
     "base must be finite"),
    (lambda: epc.sweep(epc.SweepSpec(5, 0.5, 0.5, orders=(_FAR,))),
     "order must be finite"),
    (lambda: epc.mmr_asymptotic(_FAR), "x must be finite"),
    (lambda: epc.overflow_functional(Geometric(0.5), UNARY,
                                     ExponentialArrivals(1.0), _FAR),
     "s must be finite and nonnegative"),
    (lambda: epc.OverflowResult(UNARY, 0.5, False, ()).overflow_estimate(
        _FAR), "buffer size must be finite and nonnegative"),
], ids=["Exponential", "DthRedundancy", "Poisson", "tail_weight", "power_sum",
        "renyi_entropy", "avg_redundancy", "find_split_exponential",
        "optimal_k_exponential", "ExplicitFinite", "ExplicitFinite-sum",
        "with_geometric_tail", "exp_huffman", "maxred_huffman", "dth_huffman",
        "TableTransform", "SweepSpec-ratio", "SweepSpec-base", "sweep-bases",
        "sweep-orders", "mmr_asymptotic", "overflow_functional",
        "overflow_estimate"])
def test_inputs_past_the_float_range_are_refused_by_name(call, message):
    # an integer or a sum past the float range is refused as a ValueError
    # that names the parameter, not a bare OverflowError, and its message
    # does not echo all 401 digits
    with pytest.raises(ValueError, match="^" + message) as refused:
        call()
    assert "0" * 100 not in str(refused.value)


@pytest.mark.parametrize("far", [2 ** 1024, 10 ** 400], ids=["2**1024",
                                                               "10**400"])
def test_lengths_past_the_float_range_are_refused_where_a_code_is_built(far):
    # every sum reads a code's lengths as floats, so a head length, a run's
    # first length or its k past the float range is refused up front
    for build in (lambda: LengthSeq((1, far)),
                  lambda: LengthSeq((1, far), UnaryTail(2)),
                  lambda: UnaryTail(far - 1),
                  lambda: UnaryTail(0, k=far),
                  lambda: GolombCode(far)):
        with pytest.raises(ValueError, match="float range"):
            build()


def test_lengths_at_the_edge_of_the_float_range_score_or_are_refused():
    # the longest length a code takes: each query gives a finite value or a
    # domain error, never a bare error or NaN
    n = int(sys.float_info.max) - 1
    cases = [(_HALVES, LengthSeq((1, n))),
             (_HALVES, LengthSeq((1,), UnaryTail(n - 1)))]
    for model in (Geometric(0.5), Poisson(3.0)):
        cases += [(model, LengthSeq((1,), UnaryTail(n - 1))),
                  (model, LengthSeq((1, n), UnaryTail(n - 1))),
                  (model, LengthSeq((), UnaryTail(n - 1)))]
    penalties = (Exponential(0.5), Linear(), Exponential(2.0),
                 MaxRedundancy(), DthRedundancy(1.0))
    for model, code in cases:
        queries = [lambda p=p: evaluate_penalty(model, code, p)
                   for p in penalties]
        queries.append(lambda: max_decay_rate(
            model, code, ExponentialArrivals(1.0)).value)
        for query in queries:
            try:
                value = query()
            except (EpcError, ValueError):
                continue
            assert math.isfinite(value), (model, code)
    code = LengthSeq((1, n))
    assert evaluate_penalty(_HALVES, code, Exponential(0.5)) == 2.0
    assert evaluate_penalty(_HALVES, code, Linear()) == 0.5 + 0.5 * n
    # the mean length n + 3 rounds past the float range; expected_length is
    # the Linear penalty, and refuses it too
    for query in (lambda m, c: evaluate_penalty(m, c, Linear()),
                  expected_length):
        with pytest.raises(EpcError, match="past the float range"):
            query(Poisson(3.0), LengthSeq((), UnaryTail(n - 1)))


@pytest.mark.parametrize("call", [
    lambda: evaluate_penalty(ExplicitFinite((0.4, 0.3, 0.2, 0.1)),
                             LengthSeq((1, 2, 3, 3)), DthRedundancy(1e308)),
    lambda: evaluate_penalty(_HALVES, LengthSeq((10 ** 306, 10 ** 306)),
                             Exponential(1e-304)),
    lambda: evaluate_penalty(_HALVES, LengthSeq((1, 10 ** 306)),
                             Exponential(1e300)),
    lambda: power_sum(_HALVES, LengthSeq((1, 10 ** 306)), 1e300),
], ids=["dth1e308", "exp1e-304", "exp1e300", "power_sum"])
def test_sums_whose_logs_meet_inf_minus_inf_are_refused(call):
    # the logs of the terms overflow to inf or -inf, so the log-sum-exp
    # meets inf - inf: refused by name, never a NaN
    with pytest.raises(EpcError, match="past the float range"):
        call()


def test_evaluate_penalty_refuses_a_non_penalty():
    with pytest.raises(TypeError, match="not a penalty"):
        evaluate_penalty(Geometric(0.5), LengthSeq((), UnaryTail(0)), 2.0)


def test_profile_reads_the_head_log_masses_once():
    # Poisson(700)'s base-2 code has about 890 lengths whose masses
    # underflow; their logs come from one read of the head, not one scan
    # of the head per length
    class Counting(Poisson):
        calls = reads = 0

        def mass(self, i):      # not counted
            return math.exp(Poisson.ln_mass(self, i))

        def ln_mass(self, i):
            Counting.reads += 1
            return super().ln_mass(i)

        def ln_masses(self, j, n):
            Counting.calls += 1
            Counting.reads += max(n - j, 0)
            return super().ln_masses(j, n)

    code = build_unary_ended(Poisson(700.0), 2.0).lengths()
    # the fastest of three builds, each on a fresh source with the
    # collector paused, so that no pause of the process decides the bound
    times = []
    gc.disable()
    try:
        for _ in range(3):
            Counting.calls = Counting.reads = 0
            model = Counting(700.0)
            start = time.process_time()
            profile = _Profile(model, code)
            times.append(time.process_time() - start)
            assert Counting.reads <= len(code.head) and Counting.calls == 1
    finally:
        gc.enable()
    assert profile.ln_power_sum(LN2) == \
        _Profile(Poisson(700.0), code).ln_power_sum(LN2)
    assert min(times) < 0.03


def test_tail_weight_past_the_float_range():
    # every mass past the index rounds to 0, as point_mass's does, unless a
    # geometric tail diverges at the base
    for m in (Geometric(0.5), Poisson(3.0),
              with_geometric_tail((0.5, 0.25, 0.25), 0.5)):
        assert tail_weight(m, 10 ** 400, 0.5) == 0.0
    with pytest.raises(DivergenceError):    # base * ratio = 1
        tail_weight(Geometric(0.5), 10 ** 400, 2.0)


def test_geometric_runs_of_ratio_below_the_float_range():
    # a run's rest q/(1 - q) past q = e**-709.78, where 1/expm1(-ln q)
    # overflowed, is q itself to the float's precision
    def renyi_direct(head, ratio, base):
        alpha, last = 1.0 / (1.0 + math.log2(base)), len(head) - 1
        q = ratio ** alpha      # the term ratio along the run, 0.0 here
        ln_sum = ln_series_direct(
            lambda i: alpha * (math.log(head[min(i, last)])
                               + max(i - last, 0) * math.log(ratio)), 0,
            lambda i: q if i >= last else math.inf)
        return ln_sum / ((1.0 - alpha) * LN2)

    for head, ratio, base in (((0.99,), 0.01, 0.5000001),
                              ((1.0 - 1e-300,), 1e-300, 0.6),
                              ((0.5, 0.5), 1e-300, 0.6)):
        model = (Geometric(ratio) if len(head) == 1
                 else with_geometric_tail(head, ratio))
        assert renyi_entropy(model, base) == pytest.approx(
            renyi_direct(head, ratio, base), rel=1e-12, abs=1e-12)
    ratio, base = 1e-300, 1e-10
    want = math.exp(ln_series_direct(
        lambda k: math.log(geometric_pmf(ratio, k)) + k * math.log(base), 1,
        lambda k: ratio * base))
    assert tail_weight(Geometric(ratio), 0, base) == pytest.approx(
        want, rel=1e-12)


@pytest.mark.parametrize("n", [16, 256, 1024])
def test_finite_renyi_sums_are_the_plain_sum_bit_for_bit(n):
    rng = random.Random(38 + n)
    for _ in range(5):
        ws = [math.exp(1.25 * rng.gauss(0.0, 1.0)) for _ in range(n)]
        total = math.fsum(ws)
        model = ExplicitFinite([w / total for w in ws])
        head = model.probs[:-1] + (model.probs[-1] * 0.5,)
        tailed = with_geometric_tail(head, 0.5)
        for _ in range(4):
            alpha = rng.uniform(0.01, 0.99)
            assert _ln_series(model, 0, alpha, 0.0) == math.log(
                math.fsum(p ** alpha for p in model.probs))
            # a geometric-tailed head: its rest is added after the sum
            rest = 1.0 / math.expm1(-alpha * math.log(0.5))
            assert _ln_series(tailed, 0, alpha, 0.0) == math.log(
                math.fsum(p ** alpha for p in head) + head[-1] ** alpha * rest)


def test_explicit_tailed_is_a_value():
    m = ExplicitTailed(head=(0.5, 0.25), tail_ratio=0.5)
    assert point_mass(m, 1) == 0.25
    assert point_mass(m, 3) == pytest.approx(0.0625)
    # equal heads and ratios compare and hash equal
    g = with_geometric_tail((0.5, 0.25), 0.5)
    assert g == m == with_geometric_tail([0.5, 0.25], 0.5)
    assert hash(g) == hash(m)
    assert len({g, m, with_geometric_tail((0.5, 0.25), 0.5)}) == 1
    assert g != with_geometric_tail((0.5, 0.25), 0.25)
    assert g != with_geometric_tail((0.5, 0.125), 0.5)


def test_explicit_finite_keeps_its_stable_merge_order():
    # the kept order lists the symbols by mass, ties by index, once; it is
    # not part of the value
    rng = random.Random(26)
    for n in (1, 2, 7, 300):
        weights = [rng.choice((1.0, 2.0, rng.random() + 0.01))
                   for _ in range(n)]
        probs = [w / math.fsum(weights) for w in weights]
        model = ExplicitFinite(probs)
        assert model._order == sorted(range(n), key=lambda i: (probs[i], i))
        assert model._order is model._order
        assert model == ExplicitFinite(probs)


def test_source_probabilities_must_be_finite():
    for build in (lambda: ExplicitFinite((math.nan,)),
                  lambda: ExplicitFinite((0.5, math.nan, 0.5)),
                  lambda: ExplicitFinite((math.inf, 0.5)),
                  lambda: with_geometric_tail((math.inf, 0.2), 0.5),
                  lambda: with_geometric_tail((0.5, math.nan), 0.5)):
        with pytest.raises(ValueError, match="must be finite"):
            build()
    for build in (lambda: ExplicitFinite((1.5, -0.5)),
                  lambda: with_geometric_tail((0.5, 0.0), 0.5)):
        with pytest.raises(ValueError,
                           match="^probabilities must be strictly positive$"):
            build()
    for bad in (math.nan, math.inf, 0.0, 1.0):
        with pytest.raises(ValueError):
            with_geometric_tail((0.5, 0.25), bad)


def test_profile_regroups_masses_below_the_normal_floats():
    # the two 1e-310 masses are subnormal, so their length is read again as
    # logs from a source whose masses are not exp of its logs
    model = ExplicitFinite((0.5, 0.5, 1e-310, 1e-310))
    code = LengthSeq((1, 2, 3, 3))
    assert evaluate_penalty(model, code, Exponential(2.0)) == pytest.approx(
        math.log2(3.0), rel=0.0, abs=math.ulp(math.log2(3.0)))
    assert evaluate_penalty(model, code, MaxRedundancy()) == 1.0
    assert expected_length(model, code) == 1.5


def test_with_geometric_tail_mass_and_sums():
    m = with_geometric_tail((0.6, 0.15, 0.15, 0.0375, 0.0375), 0.5)
    # geometric continuation from the last head value
    direct = math.fsum(0.0375 * 0.5 ** (i - 4) for i in range(5, 60))
    assert tail_weight(m, 4, 1.0) == pytest.approx(direct, abs=1e-15)
    assert total_mass(m) == pytest.approx(1.0125)
    # weighted tail sums against brute force, both regimes of a
    for a in (0.5, 1.0, 1.5):
        direct = math.fsum(point_mass(m, i) * a ** (i - 4) for i in range(5, 200))
        assert tail_weight(m, 4, a) == pytest.approx(direct, rel=1e-12)
    with pytest.raises(DivergenceError):
        tail_weight(m, 4, 2.0)      # a * ratio = 1


@pytest.mark.parametrize("source", [
    Geometric(0.3), Geometric(0.999),
    with_geometric_tail((0.6, 0.15, 0.15, 0.0375, 0.0375), 0.5),
    with_geometric_tail([0.5 ** (i + 1) for i in range(129)], 0.97),
], ids=["geometric", "geometric-slow", "tailed", "tailed-129"])
def test_geometric_tail_masses_are_the_point_masses(source):
    for n in (0, 1, 5, 129, 400):
        assert source.masses(n) == [source.mass(i) for i in range(n)]


@pytest.mark.parametrize("mean", [1.0, 4.0, 37.5, 700.0, 1e4])
def test_poisson_masses_are_the_point_masses(mean):
    # masses reads the kept log masses, filled by ln_mass's own formula, so
    # the floats are those of mass, and exp of ln_masses; 20 000 symbols
    # run past the kept ones
    want = [Poisson(mean).mass(i) for i in range(20000)]
    source = Poisson(mean)
    for n in (0, 1, 5, 700, 20000, 3000):
        assert source.masses(n) == want[:n]
        assert list(map(math.exp, source.ln_masses(0, n))) == want[:n]
    assert Poisson(mean).masses(20000) == want


def test_tail_weight_geometric():
    g = Geometric(0.6)
    for j in (-1, 0, 3):
        for a in (0.5, 1.0, 1.4):
            direct = math.fsum(geometric_pmf(0.6, i) * a ** (i - j)
                               for i in range(j + 1, j + 2000))
            assert tail_weight(g, j, a) == pytest.approx(direct, rel=1e-12)
    assert tail_weight(g, -1, 1.0) == pytest.approx(1.0)
    with pytest.raises(DivergenceError):
        tail_weight(g, 2, 1.0 / 0.6)


def test_tail_weight_poisson():
    p = Poisson(1.0)
    assert tail_weight(p, 2, 1.0) == pytest.approx(1 - 2.5 * math.exp(-1), rel=1e-12)
    for j, a in [(2, 2.0), (2, 0.5), (5, 3.0), (-1, 1.0)]:
        direct = math.fsum(poisson_pmf(1.0, i) * a ** (i - j)
                           for i in range(j + 1, j + 120))
        assert tail_weight(p, j, a) == pytest.approx(direct, rel=1e-11)


def test_length_seq_validation():
    with pytest.raises(ValueError):
        LengthSeq((0, 2))                        # lengths are positive
    with pytest.raises(ValueError):
        LengthSeq((1, 1, 1))                     # Kraft > 1
    with pytest.raises(ValueError):
        UnaryTail(-1)
    # lengths and tail fields are integers, not truncated floats
    with pytest.raises(ValueError, match=r"got float 1\.5"):
        LengthSeq((1.5, 2))
    with pytest.raises(ValueError):
        UnaryTail(1.5)
    with pytest.raises(ValueError):
        UnaryTail(1, k=2.5)
    # a one-symbol alphabet is the one code with a zero length
    assert kraft_total(LengthSeq((0,)).head) == (1, 1)
    with pytest.raises(ValueError):
        LengthSeq((0,), UnaryTail(0))
    assert str(LengthSeq((3, 3, 2, 1))) == "lengths 3,3,2,1"
    assert str(LengthSeq((2, 2, 2), UnaryTail(2))) == \
        "lengths 2,2,2,3 +unary@3"
    seq = LengthSeq((1, 2), UnaryTail(2))
    assert [seq.length_at(i) for i in range(5)] == [1, 2, 3, 4, 5]
    # lengths with no tail end with their head, and cover no larger alphabet
    with pytest.raises(IndexError, match="^no length assigned to symbol 2$"):
        LengthSeq((1, 1)).length_at(2)
    with pytest.raises(ValueError, match="^lengths with no tail do not cover"):
        evaluate_penalty(ExplicitFinite((0.5, 0.25, 0.25)), LengthSeq((1, 1)),
                         Linear())
    num, den = kraft_total(seq.head, seq.tail.spine)
    assert num == den
    # tail fields are kept as the ints they check as
    assert str(LengthSeq((1,), UnaryTail(True))) == "lengths 1,2 +unary@1"
    # a shown length is that symbol's, past the head too
    assert str(LengthSeq((), UnaryTail(0, k=3))) == "lengths 2 +golomb3@0"
    assert str(LengthSeq((1,), UnaryTail(1, k=3))) == "lengths 1,3 +golomb3@1"
    assert str(LengthSeq((2, 2, 3, 3), UnaryTail(3, k=3))) == \
        "lengths 2,2,3,3,5 +golomb3@4"
    for seq in (LengthSeq((3, 3, 2, 1)), LengthSeq((2, 2, 2), UnaryTail(2)),
                LengthSeq((), UnaryTail(0)), LengthSeq((), UnaryTail(2)),
                *(LengthSeq(head, UnaryTail(spine, k=k))
                  for k in (1, 2, 3, 4, 5, 7, 64)
                  for head, spine in (((), 0), ((1,), 1), ((2, 1), 2)))):
        shown = str(seq).split()[1].split(",")
        assert [int(n) for n in shown] == \
            [seq.length_at(i) for i in range(len(shown))]
    # Kraft is tested exactly: a float sum within 1e-12 of one took both
    for head in ((1, 1, 40), (1, 1, 60)):
        with pytest.raises(ValueError, match="violate the Kraft inequality"):
            LengthSeq(head)
    # and in time that does not grow with the lengths
    start = time.perf_counter()
    LengthSeq((10 ** 12,))
    LengthSeq((1,), UnaryTail(10 ** 12 - 1))
    LengthSeq((), UnaryTail(0))
    LengthSeq((0,))
    assert time.perf_counter() - start < 0.01
    # a plain code's words take no container cap: (1, 3) is a prefix code
    # with more bits than symbols, which only a container refuses
    assert LengthSeq((1, 3)).head_codewords == ("0", "100")
    assert LengthSeq((1, 3)).codeword(0) == "0"
    assert LengthSeq((0,)).codeword(0) == ""    # a lone 0 is the empty word
    with pytest.raises(ValueError, match="^no container holds this code: "
                       "bad code descriptor: codeword length 3 exceeds the "
                       "alphabet size 2$"):
        encode([0, 1], LengthSeq((1, 3)))
    # a head word too long to build is refused by name, as a run word is
    with pytest.raises(ValueError, match="^symbol 1 has a codeword too long"):
        LengthSeq((1, 2 ** 40)).codeword(0)


def test_power_sum_against_direct():
    g = Geometric(0.6)
    seq = LengthSeq((1, 2), UnaryTail(2))
    for a in (0.5, 1.0, 1.3):
        direct = unary_tail_power_sum_direct(lambda i: geometric_pmf(0.6, i),
                                             (1, 2), 2, 3, a, 0.6)
        assert power_sum(g, seq, a) == pytest.approx(direct, rel=1e-12)
    with pytest.raises(DivergenceError):
        power_sum(g, seq, 1.7)      # 0.6 * 1.7 > 1
    f = ExplicitFinite((0.25, 0.25, 0.5))
    fin = LengthSeq((2, 2, 1))
    assert power_sum(f, fin, 2.0) == pytest.approx(0.25 * 4 + 0.25 * 4 + 0.5 * 2)


def test_expected_length_closed_forms():
    g = Geometric(0.5)
    assert expected_length(g, UNARY) == pytest.approx(2.0, rel=1e-12)
    p = Poisson(1.0)
    direct = math.fsum(poisson_pmf(1.0, i) * (i + 1) for i in range(80))
    assert expected_length(p, UNARY) == pytest.approx(direct, rel=1e-12)
    t = with_geometric_tail((0.5, 0.25), 0.5)
    seq = LengthSeq((1, 2), UnaryTail(2))
    direct = math.fsum(point_mass(t, i) * seq.length_at(i) for i in range(90))
    assert expected_length(t, seq) == pytest.approx(direct, rel=1e-12)


def test_evaluate_penalty_routes():
    g = Geometric(0.5)
    assert evaluate_penalty(g, UNARY, Linear()) == \
        evaluate_penalty(g, UNARY, Exponential(1.0))
    # exponential penalty by direct sum
    val = evaluate_penalty(g, UNARY, Exponential(1.5))
    direct = unary_tail_power_sum_direct(lambda i: geometric_pmf(0.5, i),
                                         (), 0, 1, 1.5, 0.5)
    assert val == pytest.approx(math.log(direct) / math.log(1.5), rel=1e-12)


def test_dth_penalty_small_order_direct():
    g = Geometric(0.45)
    seq = LengthSeq((1, 2), UnaryTail(2))
    for d in (1.0, 2.0, 4.0):
        direct = math.fsum(
            2.0 ** ((1 + d) * math.log2(point_mass(g, i)) + d * seq.length_at(i))
            for i in range(400))
        want = math.log2(direct) / d
        assert evaluate_penalty(g, seq, DthRedundancy(d)) == \
            pytest.approx(want, rel=1e-11)
    # ratio past 2^(-d/(1+d)) makes the defining sum diverge
    with pytest.raises(DivergenceError):
        evaluate_penalty(Geometric(0.6), seq, DthRedundancy(4.0))


def test_max_redundancy_unary():
    # ratio 1/2: every unary symbol achieves exactly n + log2 p = 0
    assert evaluate_penalty(Geometric(0.5), UNARY, MaxRedundancy()) == \
        pytest.approx(0.0, abs=1e-12)
    # above 1/2 the tail climbs without bound
    assert evaluate_penalty(Geometric(0.6), UNARY, MaxRedundancy()) == math.inf
    # below 1/2 the supremum sits at the tail start
    v = evaluate_penalty(Geometric(0.4), UNARY, MaxRedundancy())
    scan = max(seqlen + math.log2(geometric_pmf(0.4, i))
               for i, seqlen in ((i, i + 1) for i in range(200)))
    assert v == pytest.approx(scan, rel=1e-12)


def test_max_redundancy_worked_example():
    m = with_geometric_tail((0.6, 0.15, 0.15, 0.0375, 0.0375), 0.5)
    assert evaluate_penalty(m, UNARY, MaxRedundancy()) == \
        pytest.approx(math.log2(1.2), rel=1e-12)


def test_entropies():
    g = Geometric(0.5)
    assert shannon_entropy(g) == pytest.approx(2.0, rel=1e-12)
    th = 0.7
    hb = -(th * math.log2(th) + (1 - th) * math.log2(1 - th))
    assert shannon_entropy(Geometric(th)) == pytest.approx(hb / (1 - th), rel=1e-12)
    assert renyi_entropy(g, 2.0) == pytest.approx(2.5431066063272243, rel=1e-12)
    assert renyi_entropy(g, 1.0) == pytest.approx(shannon_entropy(g), rel=1e-12)
    # direct alpha-sum cross-check
    a = 1.3
    alpha = 1.0 / (1.0 + math.log2(a))
    z = math.fsum(geometric_pmf(0.5, i) ** alpha for i in range(300))
    assert renyi_entropy(g, a) == pytest.approx(math.log2(z) / (1 - alpha), rel=1e-11)
    with pytest.raises(ValueError):
        renyi_entropy(g, 0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^base must be finite"):
            renyi_entropy(g, bad)
    fin = ExplicitFinite((0.25, 0.25, 0.25, 0.25))
    assert shannon_entropy(fin) == pytest.approx(2.0)
    assert renyi_entropy(fin, 2.0) == pytest.approx(2.0)


def test_poisson_entropy_past_mass_underflow():
    # p(0) = e**-1000 underflows to 0.0; such a term contributes nothing
    # instead of taking log2(0)
    m = 1000.0
    direct = -math.fsum(p * math.log2(p) for p in
                        (poisson_pmf(m, i) for i in range(3000)) if p > 0.0)
    assert shannon_entropy(Poisson(m)) == pytest.approx(direct, rel=1e-12)
    # a mean whose masses do not underflow, held to a 40-digit sum, and
    # pinned to the float of the present summation order
    assert shannon_entropy(Poisson(20.0)) == pytest.approx(
        poisson_entropy_decimal(20), rel=1e-14)
    assert shannon_entropy(Poisson(20.0)) == 4.201887394001207


def test_poisson_entropies_cost_follows_the_spread():
    # both sums start at a cut below the mode and stop a few standard
    # deviations above it, so a huge mean costs about its spread in terms;
    # the pinned values are those of the sums from symbol 0
    m = Poisson(1e6)
    start = time.process_time()
    h = shannon_entropy(m)
    mid = time.process_time()
    r = renyi_entropy(m, 2.0)
    end = time.process_time()
    assert mid - start < 0.1 and end - mid < 0.1
    assert h == pytest.approx(12.012879741426245, rel=1e-12)
    assert r == pytest.approx(12.291532168067986, rel=1e-12)
    for mean, want in ((30.0, (4.49646356127472, 4.772960612008886)),
                       (1000.0, (7.029867442734905, 7.308459689370512)),
                       (12345.6, (8.842940513099947, 9.121588122750227))):
        assert shannon_entropy(Poisson(mean)) == pytest.approx(want[0],
                                                               rel=1e-12)
        assert renyi_entropy(Poisson(mean), 2.0) == pytest.approx(want[1],
                                                                  rel=1e-12)


def test_shannon_entropy_reads_each_log_mass_once():
    # the entropy's moment takes the log masses its series listed from the
    # source, rather than reading them a second time: Poisson(1e6) lists
    # 24 031 terms, each read once
    class Counting(Poisson):
        spans = []

        def ln_masses(self, j, n):
            Counting.spans.append((j, n))
            return super().ln_masses(j, n)

    for mean in (1e-3, 1.0, 20.0, 700.0, 2e4, 1e6):
        Counting.spans = []
        h = shannon_entropy(Counting(mean))
        read = [i for j, n in Counting.spans for i in range(j, n)]
        assert read and len(read) == len(set(read)), mean
        assert h == shannon_entropy(Poisson(mean))
    assert len(read) == 24031


@pytest.mark.parametrize("query, shown", [
    (lambda: point_mass(Poisson(3.0), 2.5), "float 2.5"),
    (lambda: point_mass(Geometric(0.5), 2.5), "float 2.5"),
    (lambda: point_mass(ExplicitFinite((0.5, 0.25, 0.25)), 1.5), "float 1.5"),
    (lambda: tail_weight(Poisson(3.0), 1.5, 2.0), "float 1.5"),
    (lambda: build_unary_ended(Poisson(1.0), 2.0).length_at(3.5),
     "float 3.5"),
    (lambda: GolombCode(3).codeword(2.0), "float 2.0"),
    (lambda: LengthSeq((1, 2, 2)).codeword(1.0), "float 1.0"),
    (lambda: encode([2.5], GolombCode(3)), "float 2.5"),
    (lambda: encode([[1]], GolombCode(3)), "list [1]"),
    (lambda: encode([2, 2.0], GolombCode(3)), "float 2.0"),
], ids=["poisson-mass", "geometric-mass", "finite-mass", "tail-weight",
        "unary-ended-length", "golomb-word", "head-word", "encode-float",
        "encode-unhashable", "encode-float-after-its-int"])
def test_symbol_indices_are_integers(query, shown):
    # a symbol is read once through operator.index; nothing else names one
    with pytest.raises(ValueError) as exc:
        query()
    assert str(exc.value) == f"symbols are integers, got {shown}"


def test_a_finite_tail_past_the_alphabet_weighs_nothing():
    assert tail_weight(ExplicitFinite((0.5, 0.25, 0.25)), 2, 2.0) == 0.0


@pytest.mark.parametrize("query, cap", [
    # the ratio recurrence past the peak, c = 5 * 2 = 10 terms in
    (lambda: tail_weight(Poisson(5.0), -1, 2.0), 20),
    # the log-mass blocks at order alpha = 0.01, whose terms barely fall
    (lambda: renyi_entropy(Poisson(1.0), 2.0 ** 99), 100),
], ids=["ratio-recurrence", "log-mass-blocks"])
def test_a_series_past_the_term_cap_is_refused(monkeypatch, query, cap):
    assert math.isfinite(query())
    # the peak lies within the cap, so the series starts and then runs out
    monkeypatch.setattr(epc.models, "_MAX_TERMS", cap)
    with pytest.raises(DivergenceError,
                       match="series did not settle after the term cap"):
        query()


def test_max_redundancy_of_a_growing_tail_is_unbounded():
    # p(i) 2**i grows along a tail of ratio above 1/2, so n(i) + log2 p(i)
    # does, however little the ratio passes 1/2
    code = epc.UnaryEndedCode((1, 2), 2)
    for head, ratio in (((0.5, 0.3, 0.2), 0.7), ((0.5, 0.3), 0.5005)):
        assert evaluate_penalty(with_geometric_tail(head, ratio), code,
                                MaxRedundancy()) == math.inf, ratio


# means from 0.5 to 6e6, log-uniform, with the means the series path
# refused (5e6, 6e6) and the edges of the build's range
_MR_RNG = random.Random(39)
MR_MEANS = sorted({0.5, 4.0, 20.0, 1000.0, 1e5, 3e6, 5e6, 6e6,
                   *(round(math.exp(_MR_RNG.uniform(math.log(0.5),
                                                    math.log(6e6))), 3)
                     for _ in range(10))})


def _mr_scan(mean: float, code: LengthSeq) -> float:
    """sup n(i) + log2 p(i) of a head and unary run on Poisson(mean): every
    head symbol, then the run within 64 symbols of its peak, where p(i) *
    2**i stops rising, near 2 * mean."""
    head, start = code.head, code.tail.spine + 1
    peak = max(len(head), int(2.0 * mean))
    symbols = [*range(len(head)),
               *range(max(len(head), peak - 64), peak + 65)]
    return max(head_run_length(head, start, 1, i)
               + poisson_ln_pmf(mean, i) / LN2 for i in symbols)


@pytest.mark.parametrize("mean", MR_MEANS)
def test_max_redundancy_of_a_unary_run_on_poisson_is_read_at_its_peak(mean):
    model = Poisson(mean)
    codes = [GolombCode(1), epc.UnaryEndedCode((1,), 1)]
    if mean <= 1000.0:
        codes.append(epc.build_unary_ended_mmr(model))
    for code in codes:
        value = evaluate_penalty(model, code, MaxRedundancy())
        assert value == pytest.approx(_mr_scan(mean, code), rel=1e-12)
        # the peak's log is the float the summed series reads as its top,
        # where the series' peak lies inside its term cap
        t0 = len(code.head)
        try:
            top = _terms(model, t0, 1.0, LN2)[0]
        except DivergenceError:
            assert mean >= 5e6
            continue
        assert _peak(model, t0, LN2)[2] == top


@pytest.mark.parametrize("query, peak", [
    (lambda: evaluate_penalty(Poisson(1e306), GolombCode(1), MaxRedundancy()),
     "2e+306"),
    # near its mean: the peak's log mass has no float
    (lambda: tail_weight(Poisson(1e305), 3 * 10 ** 305, 2.0), "3e+305"),
], ids=["max-redundancy", "tail-weight"])
def test_a_peak_whose_log_mass_leaves_the_float_range_is_refused(query, peak):
    with pytest.raises(EpcError) as refused:
        query()
    assert str(refused.value) == (f"the series peaks at symbol {peak}, where "
                                  "its log masses leave the float range")


@pytest.mark.parametrize("mean, i", [
    (1.0, 10 ** 306), (1.0, 10 ** 308), (1e300, 10 ** 306), (1.0, 2 * 10 ** 305),
    (1.0, 5 * 10 ** 307)])
def test_a_poisson_mass_past_lgammas_range_is_zero(mean, i):
    # lgamma(i + 1) overflows (but at 2e305); i >= e**2 * mean puts ln p(i)
    # at or below -mean - i, so the mass rounds to 0 (a bare OverflowError
    # before), and so does the tail weight past i, whose first term is the
    # largest
    assert point_mass(Poisson(mean), i) == 0.0
    for base in (0.5, 1.0, 2.0):
        assert tail_weight(Poisson(mean), i, base) == 0.0


def test_a_poisson_mass_near_its_mean_past_lgammas_range_is_refused():
    with pytest.raises(EpcError) as refused:
        point_mass(Poisson(1e305), 3 * 10 ** 305)
    assert str(refused.value) == ("the log mass of symbol 3e+305 leaves the "
                                  "float range")
