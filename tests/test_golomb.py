import math
import random
from fractions import Fraction

import pytest

from epc import (DecayRate, DivergenceError, DthRedundancy, ExplicitFinite,
                 ExponentialArrivals, Exponential, Geometric, GolombCode,
                 LengthSeq, Linear, MaxRedundancy, Poisson, UnaryEndedCode,
                 UnaryTail, complete_binary, evaluate_penalty, max_decay_rate,
                 optimal_k, optimal_k_exponential, optimal_k_mmr, power_sum,
                 with_geometric_tail)
from epc.bits import kraft_total
from epc.models import _Profile
from oracles import (dth_sum_log_terms, expected_length_terms, golomb_len,
                     golomb_power_sum_direct, head_run_sums,
                     max_redundancy_terms, mmr_sup_scan, power_sum_terms)


def test_codeword_examples():
    g3 = GolombCode(3)
    assert g3.codeword(1) == "010"
    assert g3.codeword(3) == "100"
    assert g3.codeword(9) == "11100"
    # k = 1 degenerates to plain unary
    assert [GolombCode(1).codeword(i) for i in range(4)] == [
        "0", "10", "110", "1110"]
    assert complete_binary(0, 1) == ""
    with pytest.raises(ValueError, match="^k must be a positive integer"):
        complete_binary(0, 0)
    with pytest.raises(ValueError, match=r"^value 3 outside range\(0, 3\)$"):
        complete_binary(3, 3)


def test_suffix_set_k5():
    suffixes = {complete_binary(r, 5) for r in range(5)}
    assert suffixes == {"00", "01", "10", "110", "111"}


def test_lengths_and_order():
    for k in (1, 2, 3, 5, 7, 64):
        code = GolombCode(k)
        words = [code.codeword(i) for i in range(60)]
        assert [len(w) for w in words] == [code.length_at(i) for i in range(60)]
        assert [len(w) for w in words] == [golomb_len(i, k) for i in range(60)]
        # alphabetic: codewords sort in symbol order
        assert words == sorted(words)
        for i, a in enumerate(words):
            for b in words[i + 1:]:
                assert not b.startswith(a)


def test_kraft_complete():
    # partial sums close the unit exactly: after N periods the gap is 2^-N
    for k in (1, 2, 3, 7, 12):
        for periods in (1, 3, 9):
            partial = sum(Fraction(1, 2 ** GolombCode(k).length_at(i))
                          for i in range(periods * k))
            assert partial == 1 - Fraction(1, 2 ** periods)
    # exactly 1: the first period's words plus the one bit the rest take
    code = GolombCode(3)
    assert kraft_total([code.length_at(i) for i in range(3)], 1) == (8, 8)


def test_code_object():
    c = GolombCode(7)
    # g = 3 suffix bits at most, and z = 1 remainder with g - 1 of them
    assert c.k.bit_length() == 3
    assert [len(complete_binary(r, 7)) for r in range(7)] == [2] + [3] * 6
    assert str(c) == "Golomb k=7" and repr(GolombCode(3)) == "GolombCode(k=3)"
    assert c.codeword(9) == "10" + "011"     # quotient 1, remainder 2 of 7
    with pytest.raises(ValueError):
        GolombCode(0)
    with pytest.raises(ValueError):
        c.codeword(-1)


_PENALTIES = (Linear(), Exponential(1.5), Exponential(0.7), DthRedundancy(0.5),
              MaxRedundancy())


@pytest.mark.parametrize("code", [
    *(GolombCode(k) for k in (1, 2, 3, 5, 64)),
    UnaryEndedCode((1, 2), 2),
    UnaryEndedCode((2, 1, 3, 4), 4),
    UnaryEndedCode((3, 3, 2, 2), 2),
    LengthSeq((1,), UnaryTail(1, k=3)),     # a k-run behind a head and spine
], ids=str)
def test_one_code_value(code):
    # every code is a LengthSeq: its words come from one run routine, their
    # lengths from length_at, for every k
    n = len(code.head) + 6 * code.tail.k + 40
    words = [code.codeword(i) for i in range(n)]
    assert [len(w) for w in words] == [code.length_at(i) for i in range(n)]
    # prefix free: in sorted order a prefix of any word precedes it directly
    ordered = sorted(words)
    assert not any(b.startswith(a) for a, b in zip(ordered, ordered[1:]))
    plain = LengthSeq(code.head, code.tail)
    if not code.head:   # a Golomb code is its run from symbol 0
        assert code == GolombCode(code.tail.k)
        if code.tail.k > 1:     # summed on a geometric source only
            with pytest.raises(ValueError) as refused:
                evaluate_penalty(Poisson(2.0), code, Linear())
            assert str(refused.value) == _NOT_GEOMETRIC
        assert plain == LengthSeq((), UnaryTail(0, k=code.tail.k))
        for ratio in (0.3, 0.8):
            for penalty in _PENALTIES:
                try:
                    want = evaluate_penalty(Geometric(ratio), code, penalty)
                except DivergenceError:
                    continue
                assert evaluate_penalty(Geometric(ratio), plain, penalty) \
                    == want
    elif code.tail.k == 1:  # a unary-ended code is scored as its lengths
        for penalty in _PENALTIES[:3]:
            assert evaluate_penalty(Poisson(2.0), code, penalty) == \
                evaluate_penalty(Poisson(2.0), plain, penalty)
    else:   # a k-run behind a head sums where the source is geometric
        # from the run's start, and nowhere else
        assert _values(Geometric(0.5), code) == pytest.approx(
            _direct_values(lambda i: math.log1p(-0.5) + i * math.log(0.5),
                           code, 0.5), rel=1e-12)
        with pytest.raises(ValueError) as refused:
            evaluate_penalty(Poisson(2.0), code, Linear())
        assert str(refused.value) == _NOT_GEOMETRIC


_NOT_GEOMETRIC = "Golomb sums need a geometric source from the run's start"


def test_tail_record_refuses_a_bad_k():
    for bad in (0, -3, 1.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="bad tail record"):
            UnaryTail(0, k=bad)
    assert UnaryTail(0) == UnaryTail(0, k=1)
    assert UnaryTail(0, k=True).k == 1     # kept as the int it checks as


def test_a_k_past_the_float_range_is_refused_where_the_code_is_built():
    # refused by name where the code is built, not by a bare OverflowError
    # at 1.0 / k where it is scored
    with pytest.raises(ValueError, match="float range"):
        GolombCode(2 ** 1100)
    # every remainder of k = 2**62 takes 62 bits, so each word is 63 long
    g, code = Geometric(0.5), GolombCode(2 ** 62)
    assert evaluate_penalty(g, code, Linear()) == 63.0
    assert evaluate_penalty(g, code, Exponential(2.0)) == 63.0
    assert max_decay_rate(g, code, ExponentialArrivals(1.0)) == \
        DecayRate(0.0, True)
    # under a mean gap of 100 bits, e**(63 s) = 1 + 100 s at the rate
    rate = max_decay_rate(g, code, ExponentialArrivals(0.01)).value
    assert math.exp(63.0 * rate) == pytest.approx(1.0 + 100.0 * rate,
                                                  rel=1e-6)


def test_optimal_k_exponential_defining_inequality():
    for th in [0.05 * i for i in range(1, 20)]:
        for a in [0.6 + 0.1 * i for i in range(11)]:
            k = optimal_k_exponential(th, a)
            assert a * (th ** k + th ** (k + 1)) <= 1 + 1e-9
            if k > 1:
                assert a * (th ** (k - 1) + th ** k) > 1 - 1e-9


def test_optimal_k_boundary_ties_go_small():
    # a(th^2 + th^3) = 1 exactly at th = 1/2, a = 8/3: both 2 and 3 satisfy
    # the defining inequality; the snap picks 2
    assert optimal_k_exponential(0.5, 8.0 / 3.0) == 2
    assert optimal_k_mmr(2.0 ** (-1.0 / 3.0)) == 3
    # heavy compression regime: unary regardless of ratio
    assert optimal_k_exponential(0.99, 0.5) == 1
    assert optimal_k_exponential(0.99, 0.3) == 1
    with pytest.raises(ValueError, match="^ratio must lie in"):
        optimal_k_exponential(1.5, 2.0)


def test_optimal_k_at_base_one_half_or_below_is_unary():
    # the closed form itself gives k = 1 there, up to the last ratio below 1
    for ratio in (1e-300, 1e-9, 0.5, 0.99, 1.0 - 1e-12, 1.0 - 2.0 ** -53):
        for base in (0.5, math.nextafter(0.5, 0.0), 0.3, 1e-300):
            assert optimal_k_exponential(ratio, base) == 1
            assert optimal_k(ratio, Exponential(base)) == 1


def test_optimal_k_mmr_defining_inequality():
    for th in [0.51, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99]:
        k = optimal_k_mmr(th)
        target = -1.0 / math.log2(th)
        assert k - 1 < target + 1e-9
        assert k >= target - 1e-9


def test_optimal_k_order_d_tracks_mmr():
    ks = [optimal_k(0.8, DthRedundancy(d)) for d in (1, 2, 4, 16, 256)]
    assert ks == [3, 3, 3, 3, 4]
    k_lim = optimal_k_mmr(0.8)
    assert k_lim == 4
    gaps = [abs(k - k_lim) for k in ks]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    # defining inequality at base 2^d, weight ratio th^(1+d)
    for d in (1, 2, 4, 16):
        k = optimal_k(0.8, DthRedundancy(d))
        q = 0.8 ** (1 + d)
        lhs = d * math.log(2) + k * math.log(q) + math.log1p(q)
        assert lhs <= 1e-9
        if k > 1:
            assert d * math.log(2) + (k - 1) * math.log(q) + math.log1p(q) > -1e-9


def test_exp_penalty_against_direct_sum():
    for th in (0.3, 0.6, 0.9):
        for a in (0.8, 1.2, 1.5):
            for k in (1, 2, 3, 7):
                if a * th ** k >= 1:
                    continue
                direct = golomb_power_sum_direct(th, a, k)
                want = math.log(direct) / math.log(a)
                got = evaluate_penalty(Geometric(th), GolombCode(k),
                                       Exponential(a))
                assert got == pytest.approx(want, rel=1e-12)


def test_exp_penalty_mean_length():
    # base 1 is the expected length: g + th^z / (1 - th^k)
    mean = evaluate_penalty(Geometric(0.9), GolombCode(7), Exponential(1.0))
    assert mean == pytest.approx(3 + 0.9 / (1 - 0.9 ** 7), rel=1e-12)
    direct = math.fsum((1 - 0.9) * 0.9 ** i * golomb_len(i, 7)
                       for i in range(3000))
    assert mean == pytest.approx(direct, rel=1e-10)


def test_exp_penalty_divergence():
    with pytest.raises(DivergenceError):
        # 2 * 0.9^3 > 1
        evaluate_penalty(Geometric(0.9), GolombCode(3), Exponential(2.0))
    with pytest.raises(DivergenceError):
        # boundary 8 * 0.5^3 = 1
        evaluate_penalty(Geometric(0.5), GolombCode(3), Exponential(8.0))


def test_mmr_value_and_unbounded():
    th = 0.9
    # k below -1/log2(th) = 3.1
    assert evaluate_penalty(Geometric(th), GolombCode(3),
                            MaxRedundancy()) == math.inf
    v = evaluate_penalty(Geometric(th), GolombCode(7), MaxRedundancy())
    assert v == pytest.approx(4 + math.log2(0.1) + math.log2(0.9), abs=1e-12)
    scan, rising = mmr_sup_scan(th, 7)
    assert not rising
    assert v == pytest.approx(scan, abs=1e-9)


def test_mmr_scan_agreement_grid():
    for th in (0.2, 0.35, 0.55, 0.7, 0.82, 0.93):
        for k in (1, 2, 3, 5, 8, 13):
            v = evaluate_penalty(Geometric(th), GolombCode(k),
                                 MaxRedundancy())
            scan, rising = mmr_sup_scan(th, k)
            if v == math.inf:
                assert rising or scan > 1e2
            else:
                assert not rising
                assert v == pytest.approx(scan, abs=1e-9)


def test_mmr_small_ratio_zero_cost_corner():
    # at tiny ratio with large k the worst case sits at symbol zero
    v = evaluate_penalty(Geometric(0.1), GolombCode(7), MaxRedundancy())
    assert v == pytest.approx(3 + math.log2(0.9), rel=1e-12)


def test_evaluate_penalty_reads_the_golomb_profile():
    # every penalty of a Golomb code on a geometric source is its closed
    # form, which the per-symbol oracle sums to 1e-12
    for th, k in ((0.3, 1), (0.6, 2), (0.6, 3), (0.9, 7), (0.95, 13)):
        g, code = Geometric(th), GolombCode(k)
        for a in (0.5, 0.8, 1.2):
            if a * th ** k >= 1.0:
                continue
            got = evaluate_penalty(g, code, Exponential(a))
            direct = golomb_power_sum_direct(th, a, k)
            assert got == pytest.approx(math.log(direct) / math.log(a),
                                        rel=1e-12)
            assert power_sum(g, code, a) == pytest.approx(direct, rel=1e-12)
        # at base 1 the power sum is the total mass: u = 0 has no log
        assert power_sum(g, code, 1.0) == 1.0
        mean = evaluate_penalty(g, code, Linear())
        assert mean == evaluate_penalty(g, code, Exponential(1.0))
        n = math.ceil(50.0 / -math.log(th))     # p(n) below 1e-21
        assert mean == pytest.approx(math.fsum(
            (1.0 - th) * th ** i * golomb_len(i, k) for i in range(n)),
            rel=1e-12)
        for d in (0.5, 2.0):
            phi = th ** (1.0 + d)
            if 2.0 ** d * phi ** k >= 1.0:
                continue
            got = evaluate_penalty(g, code, DthRedundancy(d))
            # sum p**(1+d) 2**(d n): the power sum of Geometric(phi) at 2**d
            direct = ((1.0 - th) ** (1.0 + d) / (1.0 - phi)
                      * golomb_power_sum_direct(phi, 2.0 ** d, k))
            assert got == pytest.approx(math.log2(direct) / d, rel=1e-12)
        got = evaluate_penalty(g, code, MaxRedundancy())
        scan, rising = mmr_sup_scan(th, k)
        assert rising if got == math.inf else got == pytest.approx(
            scan, rel=1e-12)


_SUMMED = (Exponential(0.7), Exponential(1.3), Exponential(2.0), Linear(),
           DthRedundancy(0.5), DthRedundancy(2.0), MaxRedundancy())


def _values(model, code):
    """Each _SUMMED penalty's value, None where its sum diverges."""
    values = []
    for penalty in _SUMMED:
        try:
            values.append(evaluate_penalty(model, code, penalty))
        except DivergenceError:
            values.append(None)
    return values


def _direct_values(ln_pmf, code, ratio):
    """_values by the oracle's direct sums over a source whose masses fall
    by ratio from the code's run on."""
    values = []
    for penalty in _SUMMED:
        d = getattr(penalty, "order", 0.0)
        ln_b = math.log(getattr(penalty, "base", 2.0 ** d))
        try:
            power, mean, sup = head_run_sums(
                ln_pmf, code.head, code.tail.spine + 1, code.tail.k, ratio,
                1.0 + d, ln_b)
        except ArithmeticError:
            values.append(None)
            continue
        values.append(sup if penalty == MaxRedundancy() else
                      mean if penalty == Linear() else math.log(power) / ln_b)
    return values


def _random_code(rng, heads: bool) -> LengthSeq:
    """A head then a k-run, k from 1 to 5: with heads, the lengths of a
    random complete tree, one of whose leaves is the run's spine; else no
    head, and a spine of 0 to 2 ones."""
    k = rng.randint(1, 5)
    if not heads:
        return LengthSeq((), UnaryTail(rng.randint(0, 2), k=k))
    depths = [0]
    for _ in range(rng.randint(1, 7)):
        leaf = depths.pop(rng.randrange(len(depths)))
        depths += [leaf + 1, leaf + 1]
    rng.shuffle(depths)
    spine = depths.pop()
    return LengthSeq(tuple(depths), UnaryTail(spine, k=k))


def test_a_run_behind_a_head_sums_as_the_direct_sum():
    # every penalty of a head then a k-run, on a source geometric from the
    # run's start, is the oracle's direct sum to 1e-12; so is every penalty
    # of a Golomb code on a finite source
    rng = random.Random(36)
    for _ in range(60):
        heads = rng.random() < 0.7
        code, ratio = _random_code(rng, heads), rng.uniform(0.05, 0.9)
        # masses up to the run's start, the last one continued by ratio
        ws = [rng.uniform(0.1, 1.0) for _ in
              range(rng.randint(1, len(code.head) + 1))]
        ws[-1] /= 1.0 - ratio
        probs = [w / math.fsum(ws) for w in ws]
        probs[-1] *= 1.0 - ratio
        last = len(probs) - 1
        for model, ln_pmf in (
                (Geometric(ratio),
                 lambda i: math.log1p(-ratio) + i * math.log(ratio)),
                (with_geometric_tail(probs, ratio),
                 lambda i: math.log(probs[min(i, last)])
                 + max(i - last, 0) * math.log(ratio))):
            assert _values(model, code) == pytest.approx(
                _direct_values(ln_pmf, code, ratio), rel=1e-12)
        assert _Profile(model, code).pole == pytest.approx(
            -code.tail.k * math.log(ratio), rel=1e-15)
        n = rng.randint(1, 30)
        ws = [rng.uniform(0.01, 1.0) for _ in range(n)]
        model = ExplicitFinite([w / math.fsum(ws) for w in ws])
        code = GolombCode(code.tail.k)
        lengths = [golomb_len(i, code.k) for i in range(n)]
        ln_ps = [math.log(p) for p in model.probs]
        want = [math.log(power_sum_terms(model.probs, lengths, b))
                / math.log(b) for b in (0.7, 1.3, 2.0)]
        want += [expected_length_terms(model.probs, lengths)]
        want += [dth_sum_log_terms(ln_ps, lengths, d) / (d * math.log(2.0))
                 for d in (0.5, 2.0)]
        want += [max_redundancy_terms(ln_ps, lengths)]
        assert _values(model, code) == pytest.approx(want, rel=1e-12)
    # such a code's rate lies below its pole, -k ln ratio
    model = with_geometric_tail((0.3, 0.2, 0.15, 0.14), 0.6)
    code = LengthSeq((2, 2, 3, 3), UnaryTail(3, k=3))
    rate = max_decay_rate(model, code, ExponentialArrivals(0.1))
    assert 0.0 < rate.value < _Profile(model, code).pole
    assert not rate.at_boundary


def test_dth_penalty_small_orders_reach_the_limit():
    # as d -> 0 the order-d redundancy tends to the mean length less the
    # Shannon entropy, here to 50 digits; 1 + d would round to one below
    # about 1e-16, so the closed form reads d itself
    for th, k, limit in ((0.9, 7, 0.035163197959373),
                         (0.999999, 693147, 0.027482037943334)):
        for d in (1e-9, 1e-12, 1e-15, 1e-300):
            value = evaluate_penalty(Geometric(th), GolombCode(k),
                                     DthRedundancy(d))
            assert abs(value - limit) <= 1e-9


def test_dth_penalty_log_domain():
    # small order: direct summation in linear space
    for th, d, k in [(0.6, 1.0, 2), (0.6, 2.0, 2), (0.45, 4.0, 1)]:
        direct = math.fsum(
            2.0 ** ((1 + d) * (math.log2(1 - th) + i * math.log2(th))
                    + d * golomb_len(i, k))
            for i in range(3000))
        assert evaluate_penalty(Geometric(th), GolombCode(k),
                                DthRedundancy(d)) == \
            pytest.approx(math.log2(direct) / d, rel=1e-10)
    # huge order approaches the minimax value without under/overflow
    g, code = Geometric(0.9), GolombCode(7)
    v = evaluate_penalty(g, code, DthRedundancy(65536))
    assert abs(v - evaluate_penalty(g, code, MaxRedundancy())) < 1e-3
    assert evaluate_penalty(Geometric(0.5), GolombCode(1),
                            DthRedundancy(1)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DivergenceError):
        # 2^d th^{k(1+d)} ... diverges
        evaluate_penalty(g, GolombCode(1), DthRedundancy(2))
    # non-finite orders and bases are refused, not turned into NaN
    code = GolombCode(3)
    for bad in (math.inf, -math.inf, math.nan):
        for call in (lambda: optimal_k(0.8, DthRedundancy(bad)),
                     lambda: evaluate_penalty(Geometric(0.8), code,
                                              DthRedundancy(bad)),
                     lambda: optimal_k_exponential(0.8, bad),
                     lambda: evaluate_penalty(Geometric(0.8), code,
                                              Exponential(bad))):
            with pytest.raises(ValueError, match="must be finite"):
                call()
