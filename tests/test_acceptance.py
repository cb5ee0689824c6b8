"""End-to-end acceptance gate: one test per criterion, one line each.

Criterion 7 checks how the closed-form worst-case redundancy R(ratio)
oscillates as ratio -> 1. With x = log2(-1/log2 ratio), R tends to the
1-periodic curve A(x) = mmr_asymptotic(x), whose extremes are
1 - log2(log2 e) and 2 - log2 e. The closed form gives the rate:
|R - A| <= (1 - ratio) / (2 ln 2) * (1 + O(1 - ratio)). The test asserts
that rate at every point of a log grid of 1 - ratio over [1e-6, 1e-2].
Over the part of the grid where the rate term is below 1e-3, it asserts
that the sweep's extremes lie within 1e-3 of the two limits. At the
coarse end of the grid the rate term reaches 7e-3, so the extremes of
the whole sweep are not held to 1e-3; the rate assertion covers them.
"""
import math
import random
import time

import pytest

from epc import (Deterministic, DivergenceError, DthRedundancy, Exponential,
                 ExponentialArrivals, Geometric, GolombCode, MaxRedundancy,
                 Poisson, SweepSpec, build_unary_ended, decode, encode,
                 evaluate_penalty, exp_huffman, exp_huffman_two_queue,
                 max_decay_rate, maxred_huffman, mmr_asymptotic,
                 mmr_optimal_redundancy, optimal_k, optimal_k_exponential,
                 optimal_k_mmr, optimize_overflow, sweep, tail_weight)
from oracles import (best_tree_objective, exp_objective,
                     golomb_power_sum_direct, heap_merge, infer_period,
                     maxred_objective, reduced_weight_set)


def _report(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS — {detail}")


def test_criterion_01_optimal_k_three_routes():
    start = time.monotonic()
    checked = 0
    for i in range(1, 20):            # ratio 0.05 .. 0.95
        th = 5 * i / 100.0
        for j in range(11):           # base 0.6 .. 1.6
            a = (6 + j) / 10.0
            k_formula = optimal_k_exponential(th, a)

            best_k, best_v = None, math.inf
            for k in range(1, 33):
                try:
                    v = evaluate_penalty(Geometric(th), GolombCode(k),
                                         Exponential(a))
                except DivergenceError:
                    continue
                if v < best_v - 1e-12:
                    best_k, best_v = k, v
            assert k_formula == best_k, (th, a, k_formula, best_k)

            weights = reduced_weight_set(th, a, k_formula, m=60)
            tree = exp_huffman(weights, a)
            k_hat = infer_period(tree.lengths, 61)
            assert k_hat == k_formula, (th, a, k_formula, k_hat)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(1, f"{checked} grid points, 3 routes agree, {elapsed:.1f}s")


def test_criterion_02_poisson_constructions():
    p = Poisson(1.0)
    c1 = build_unary_ended(p, 1.0)
    assert len(c1.head) == 3
    w1 = tail_weight(p, 2, 1.0)
    assert abs(w1 - 0.0803) < 1e-4
    assert [c1.length_at(i) for i in range(20)] == [i + 1 for i in range(20)]

    c2 = build_unary_ended(p, 2.0)
    assert len(c2.head) == 3
    w2 = tail_weight(p, 2, 2.0)
    assert abs(w2 - 0.2197) < 1e-4
    assert [c2.length_at(i) for i in range(20)] == [2, 2, 2] + list(range(3, 20))
    _report(2, f"splits at 3, spine weights {w1:.6f} / {w2:.6f}, lengths exact")


def test_criterion_03_penalty_closed_form_vs_direct():
    worst = 0.0
    points = 0
    for i in range(1, 20):
        th = 5 * i / 100.0
        for j in range(11):
            a = (6 + j) / 10.0
            for k in (1, 2, 3, 5, 8, 12):
                if a * th ** k >= 1.0 - 1e-9:
                    continue
                value = evaluate_penalty(Geometric(th), GolombCode(k),
                                         Exponential(a))
                if a == 1.0:
                    # base one is the mean length; direct series instead
                    gap = abs(value - _direct_mean(th, k))
                else:
                    direct = golomb_power_sum_direct(th, a, k)
                    gap = abs(value - math.log(direct) / math.log(a))
                worst = max(worst, gap)
                points += 1
    assert worst < 1e-9
    _report(3, f"{points} (ratio, base, k) points, worst gap {worst:.2e}")


def _direct_mean(th: float, k: int, tol: float = 1e-15) -> float:
    from oracles import golomb_len
    total, i = 0.0, 0
    while True:
        block = math.fsum((1 - th) * th ** (i + j) * golomb_len(i + j, k)
                          for j in range(k))
        total += block
        i += k
        if th ** i * (golomb_len(i, k) + k / (1 - th)) < tol:
            return total


def test_criterion_04_engine_exhaustive():
    rng = random.Random(101)
    draws = 0
    for _ in range(200):
        n = rng.randint(2, 8)
        weights = [rng.uniform(0.01, 1.0) for _ in range(n)]
        for a in (0.3, 0.5, 0.9, 1.0, 1.1, 2.0):
            got = exp_huffman(weights, a).objective
            best = best_tree_objective(
                weights, lambda w, ls: exp_objective(w, ls, a))
            assert got == pytest.approx(best, rel=1e-12, abs=1e-12), (weights, a)
        mm = maxred_huffman(weights).objective
        assert mm == pytest.approx(
            best_tree_objective(weights, maxred_objective), rel=1e-12)
        draws += 1
    _report(4, f"{draws} weight draws x 6 bases + minimax, all exhaustive-optimal")


def test_criterion_05_two_queue_equivalence(bisections):
    rng = random.Random(202)
    bases = (0.4, 0.7, 1.0, 1.3, 2.0)
    for trial in range(500):
        n = rng.randint(2, 50)
        digits = rng.choice((1, 2, 3, 8))
        weights = sorted(round(rng.uniform(0.06, 1.0), digits)
                         for _ in range(n))
        base = bases[trial % len(bases)]
        tq = exp_huffman_two_queue(weights, base)
        _, words = heap_merge(weights, lambda a, b: base * (a + b))
        heap = exp_objective(weights, tuple(map(len, words)), base)
        assert tq.objective == pytest.approx(heap, rel=1e-12, abs=1e-12)
        assert tq.codewords == words
        # every merge queued at the tail: the merge queue stays ordered
        assert not bisections
    _report(5, "500 sorted inputs: penalties match heap, queues stay ordered")


def test_criterion_06_dth_limit_is_minimax():
    th = 0.55
    while th < 0.951:
        assert optimal_k(th, DthRedundancy(65536)) == optimal_k_mmr(th), th
        th = round(th + 0.05, 2)
    anchor = 4 + math.log2(0.1) + math.log2(0.9)
    via_code = evaluate_penalty(Geometric(0.9), GolombCode(optimal_k_mmr(0.9)),
                                MaxRedundancy())
    via_closed_form = mmr_optimal_redundancy(0.9)
    assert via_code == pytest.approx(anchor, abs=1e-9)
    assert via_closed_form == pytest.approx(anchor, abs=1e-9)
    _report(6, f"k agrees on the ratio grid; value {via_code:.9f} both routes")


def test_criterion_07_oscillation_extremes():
    lo, hi, n = 1e-6, 1e-2, 10000
    tol = 1e-3
    lim_min = 1.0 - math.log2(math.log2(math.e))
    lim_max = 2.0 - math.log2(math.e)
    # |R - A| <= eps/(2 ln 2) * (1 + O(eps)); (1 + hi) covers the O(eps)
    rate = (1.0 + hi) / (2.0 * math.log(2.0))
    near_vals = []
    worst_ratio = 0.0
    for i in range(n):
        eps = lo * (hi / lo) ** (i / (n - 1))
        th = 1.0 - eps
        r = mmr_optimal_redundancy(th)
        gap = abs(r - mmr_asymptotic(math.log2(-1.0 / math.log2(th))))
        assert gap <= eps * rate, (
            f"at 1-ratio={eps:.3e} the closed form is {gap:.3e} from the "
            f"limiting curve, beyond the rate bound {eps * rate:.3e}")
        worst_ratio = max(worst_ratio, gap / eps)
        if eps * rate < tol:
            near_vals.append(r)
    observed_min, observed_max = min(near_vals), max(near_vals)
    print(f"criterion 7: observed extremes {observed_min:.8f} / "
          f"{observed_max:.8f} over {len(near_vals)} points, limits "
          f"{lim_min:.8f} / {lim_max:.8f}, deviations "
          f"{observed_min - lim_min:+.2e} / {observed_max - lim_max:+.2e}, "
          f"allowed {tol:.0e}; worst |R-A|/(1-ratio) {worst_ratio:.4f}, "
          f"allowed {rate:.4f}")
    assert abs(observed_min - lim_min) < tol and \
        abs(observed_max - lim_max) < tol, (
        f"sweep extremes {observed_min:.8f}/{observed_max:.8f} deviate from "
        f"the limits {lim_min:.8f}/{lim_max:.8f} by more than {tol:.0e}")
    _report(7, f"{n} points within rate {worst_ratio:.4f}*(1-ratio) of the "
            f"limiting curve; extremes within {tol:.0e} of the limits")


def test_criterion_08_overflow_iteration_contract():
    m = Geometric(0.9)
    k1 = optimal_k_exponential(0.9, 1.0)
    for arr in (Deterministic(2.0), ExponentialArrivals(1.5)):
        res = optimize_overflow(m, arr)
        rates = [r for r, _ in res.trace]
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))
        assert all(isinstance(c, GolombCode) and c.k <= k1
                   for _, c in res.trace)
        for k in range(1, k1 + 3):
            rival = max_decay_rate(m, GolombCode(k), arr)
            assert res.decay_rate >= rival.value - 1e-8
    _report(8, f"terminates, rates nondecreasing, no Golomb k <= {k1 + 2} better")


def test_criterion_09_container_roundtrip_bulk():
    start = time.monotonic()
    rng = random.Random(303)
    symbols = [min(int(rng.expovariate(0.05)), 2000) for _ in range(100_000)]
    for k in (1, 2, 3, 7, 64):
        assert decode(encode(symbols, GolombCode(k))) == symbols
    for base in (1.0, 2.0):
        code = build_unary_ended(Poisson(1.0), base)
        small = [s % 50 for s in symbols]
        assert decode(encode(small, code)) == small
    blob = encode([1, 3, 9], GolombCode(3))
    assert blob == b"EPC1\x01\x01\x03" + (3).to_bytes(8, "little") + b"\x53\x80"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(9, f"7 codes x 100k symbols round-trip, frozen bytes, {elapsed:.1f}s")


def test_criterion_10_sweep_limit_value():
    text = sweep(SweepSpec(figure=4))
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    at_one = [float(g) for a, g in rows if float(a) == 1.0]
    assert len(at_one) == 1
    assert at_one[0] == pytest.approx(0.6180339887498949, abs=1e-9)
    _report(10, f"figure-4 value at base 1 is {at_one[0]:.10f}")
