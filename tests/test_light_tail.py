import math
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epc import (DthRedundancy, ExplicitFinite, ExplicitTailed, Exponential,
                 Geometric, LengthSeq, Linear, MaxRedundancy,
                 NotLightTailedError, Poisson, UnaryEndedCode, UnaryTail,
                 build_unary_ended, build_unary_ended_mmr, evaluate_penalty,
                 find_split_exponential, find_split_mmr, optimal_code,
                 point_mass, renyi_entropy, tail_weight, with_geometric_tail)
from epc.bits import kraft_total
from epc.huffman import merge
from epc.light_tail import _REL_TOL, _assemble
from oracles import (kraft_fraction, poisson_ln_pmf, poisson_pmf,
                     tailed_reduction_lengths)

SEEDED = settings(derandomize=True, database=None, deadline=None,
                  max_examples=200)


def test_code_object_basics():
    c = UnaryEndedCode(("00", "01", "10"), "11")
    assert c.split == 2 and c.tail_start == 3
    assert c.codeword(2) == "10"
    assert c.codeword(3) == "110"
    assert c.codeword(6) == "111110"
    assert c.length(6) == 6
    assert c.lengths() == LengthSeq((2, 2, 2), UnaryTail(3, 3))
    assert c.describe() == "lengths 2,2,2,3 +unary@3"
    with pytest.raises(ValueError):
        c.codeword(-1)
    # a code and a plain LengthSeq refuse a negative symbol alike
    for lengths in (c, LengthSeq((1, 2, 2))):
        with pytest.raises(ValueError, match="symbols are nonnegative"):
            lengths.length_at(-1)


def test_code_validation():
    with pytest.raises(ValueError):
        UnaryEndedCode(("00", "01", "10"), "10")      # spine must be all ones
    with pytest.raises(ValueError):
        UnaryEndedCode(("1", "01"), "11")             # head enters the spine
    with pytest.raises(ValueError):
        UnaryEndedCode(("00", "0"), "1")              # prefix collision
    with pytest.raises(ValueError):
        UnaryEndedCode(("000", "01"), "1")            # Kraft short of one
    # complete two-word head ahead of the spine is fine
    ok = UnaryEndedCode(("00", "01"), "1")
    assert ok.codeword(2) == "10"
    # an empty head can never close the unit: the spine covers only 2^-s
    with pytest.raises(ValueError):
        UnaryEndedCode((), "1")
    # plain unary is spelled with a canonical head
    c = UnaryEndedCode(("0", "10"), "11")
    assert [c.codeword(i) for i in range(4)] == ["0", "10", "110", "1110"]


def test_split_exponential_poisson():
    p1 = Poisson(1.0)
    assert find_split_exponential(p1, 1.0) == 2
    assert find_split_exponential(p1, 2.0) == 2
    assert find_split_exponential(p1, 1.5) == 2
    assert find_split_exponential(Poisson(4.0), 1.5) == 10


def test_split_exponential_geometric():
    # geometric light-tail boundary: a * (th + th^2) <= 1
    assert find_split_exponential(Geometric(0.5), 4.0 / 3.0) == 0
    assert find_split_exponential(Geometric(0.5), 1.0) == 0
    with pytest.raises(NotLightTailedError):
        find_split_exponential(Geometric(0.5), 4.0 / 3.0 + 1e-6)
    with pytest.raises(NotLightTailedError):
        find_split_exponential(Geometric(0.9), 1.0)


def test_split_exponential_tailed_head_bump():
    # non-monotone head forces the split past the bump
    m = with_geometric_tail((0.4, 0.05, 0.3, 0.125, 0.0625), 0.5)
    r = find_split_exponential(m, 1.0)
    assert r == 4
    # past the split, every mass and every reduced tail weight is dominated
    # by every earlier mass, so p(j) and T(j) are the two smallest weights
    # at each unary step
    for j in range(r + 1, r + 60):
        floor = min(point_mass(m, i) for i in range(j))
        assert point_mass(m, j) <= floor * (1 + 1e-9)
        assert tail_weight(m, j, 1.0) <= floor * (1 + 1e-9)
    # a nonincreasing head whose tail adds nothing splits at 0, at any base
    # the tail allows
    assert find_split_exponential(
        with_geometric_tail((0.5, 0.2, 0.1, 0.08), 0.5), 1.0) == 0
    # heavy compression shortcut: nonincreasing head, base <= 1/2
    flat = with_geometric_tail((0.5, 0.25), 0.5)
    assert find_split_exponential(flat, 0.5) == 0


def _split_per_j(model, base):
    """The exponential split probed symbol by symbol to one past the head,
    each tail weight from tail_weight, then closed in the geometric tail."""
    rho, probe_end = model.tail_ratio, model.tail_start + 1
    floor, worst = point_mass(model, 0), 0
    for j in range(1, probe_end + 1):
        pj = point_mass(model, j)
        if not (pj <= floor * (1 + _REL_TOL)
                and tail_weight(model, j, base) <= floor * (1 + _REL_TOL)):
            worst = j
        floor = min(floor, pj)
    c = base * rho / (1.0 - base * rho)
    j = probe_end + 1
    while point_mass(model, j) * max(1.0, c) > floor * (1 + _REL_TOL):
        j += 1
    return worst if j == probe_end + 1 else j - 1


def _random_tailed(rng, max_head):
    """A lognormal head of 1..max_head entries (one entry a tenth of the
    time), a tail ratio and a base the tail allows, at or below 1/2 a
    quarter of the time."""
    rho = rng.uniform(0.05, 0.6)
    size = 1 if rng.random() < 0.1 else rng.randint(2, max_head)
    head = [math.exp(rng.gauss(0.0, 1.0)) for _ in range(size)]
    if rng.random() < 0.2:
        head.sort(reverse=True)
    total = math.fsum(head) + head[-1] * rho / (1.0 - rho)
    top = min(2.0, 1.0 / (rho + rho * rho))
    base = (rng.uniform(0.05, 0.5) if rng.random() < 0.25
            else rng.uniform(0.5, top))
    return with_geometric_tail([w / total for w in head], rho), base


def test_split_exponential_matches_per_symbol_probe():
    # the backward tail-weight pass finds the split the per-symbol sums find
    rng = random.Random(15)
    for _ in range(300):
        m, base = _random_tailed(rng, 300)
        assert find_split_exponential(m, base) == _split_per_j(m, base)


def test_long_head_split_is_linear():
    # a 10^4-entry head, the split cap, splits and builds in well under a
    # second; a probe that summed every tail weight anew took 15 s at base
    # 1, and at base 1.5 its base**(k - j) overflowed a float
    rng = random.Random(4)
    head = [math.exp(rng.gauss(0.0, 1.0)) for _ in range(10 ** 4)]
    head[-1] = min(head) / 4
    total = math.fsum(head) + head[-1] * 0.3 / 0.7
    m = with_geometric_tail([w / total for w in head], 0.3)
    for base in (1.0, 1.5):
        start = time.process_time()
        c = build_unary_ended(m, base)
        assert time.process_time() - start < 2.0
        assert c.split == 9998


@SEEDED
@given(st.integers(0, 2 ** 32 - 1))
def test_minimal_split_keeps_the_forced_reduction_lengths(seed):
    # the code built at the minimal split gives every symbol the length the
    # reduction forced at split 128 (or later, where the minimal split is
    # later) gives it; both are unary past their splits, so 64 symbols past
    # the later split agree on the whole length function
    m, base = _random_tailed(random.Random(seed), 20)
    code = build_unary_ended(m, base)
    forced_at = max(code.split, 128)
    forced = tailed_reduction_lengths(m.head, m.tail_ratio, base, forced_at)
    assert all(code.length(i) == forced(i) for i in range(forced_at + 65))


def test_split_exponential_needs_structure():
    head = (0.4, 0.05, 0.3, 0.125, 0.0625)
    # a tailed source states its tail ratio when it is built
    with pytest.raises(TypeError):
        ExplicitTailed(head)
    # a tail too heavy for the base cannot be certified light
    with pytest.raises(NotLightTailedError):
        find_split_exponential(with_geometric_tail(head, 0.9), 1.2)


def test_split_mmr():
    assert find_split_mmr(Poisson(1.0)) == 2
    assert find_split_mmr(Poisson(3.0)) == 8
    assert find_split_mmr(Geometric(0.5)) == 0
    assert find_split_mmr(Geometric(0.3)) == 0
    with pytest.raises(NotLightTailedError):
        find_split_mmr(Geometric(0.6))
    # worked tailed example: the halving rule fails at j = 1 and j = 3
    m = with_geometric_tail((0.6, 0.15, 0.15, 0.0375, 0.0375), 0.5)
    assert find_split_mmr(m) == 4
    for j in range(4, 40):
        assert point_mass(m, j) >= 2 * point_mass(m, j + 1) - 1e-12


def test_split_mmr_is_the_smallest_valid_split():
    # checked against its definition, symbol by symbol well past the head,
    # on random tailed sources up to the halving limit rho = 1/2
    rng = random.Random(16)
    for trial in range(200):
        rho = 0.5 if trial % 4 == 0 else rng.uniform(0.05, 0.5)
        head = [math.exp(rng.gauss(0.0, 1.0))
                for _ in range(rng.randint(1, 30))]
        m = with_geometric_tail(head, rho)
        p = [point_mass(m, i) for i in range(len(head) + 80)]

        def valid(r):
            return (all(p[j] >= 2.0 * p[j + 1] - _REL_TOL * p[j]
                        for j in range(r, len(p) - 1))
                    and all(p[i] >= p[r] * (1.0 - _REL_TOL) for i in range(r)))

        assert find_split_mmr(m) == next(r for r in range(len(p)) if valid(r))


def test_split_mmr_halving_certificate():
    p = Poisson(1.0)
    r = find_split_mmr(p)
    for j in range(r, 60):
        assert point_mass(p, j) >= 2 * point_mass(p, j + 1) * (1 - 1e-12)
    # and r is minimal for the halving property alone or bounded by head
    assert point_mass(p, r - 1) < 2 * point_mass(p, r) * (1 + 1e-9) or \
        any(point_mass(p, i) < point_mass(p, r) for i in range(r))


def test_build_poisson_mean_length():
    p = Poisson(1.0)
    c = build_unary_ended(p, 1.0)
    assert c.tail_start == 3
    assert [c.length(i) for i in range(6)] == [1, 2, 3, 4, 5, 6]
    # spine weight folded in during construction
    assert tail_weight(p, 2, 1.0) == pytest.approx(1 - 2.5 * math.exp(-1))
    assert kraft_fraction([c.length(i) for i in range(40)]) < 1


def test_build_poisson_base_two():
    c = build_unary_ended(Poisson(1.0), 2.0)
    assert [c.length(i) for i in range(8)] == [2, 2, 2, 3, 4, 5, 6, 7]
    assert c.head_codewords == ("00", "01", "10")
    assert c.tail_prefix == "11"


def test_build_head_lengths_follow_weights():
    # likelier head symbols never get longer words
    for base in (1.0, 1.3, 2.0):
        m = Poisson(4.0)
        c = build_unary_ended(m, base)
        heads = c.head_lengths
        for i in range(len(heads)):
            for j in range(len(heads)):
                if point_mass(m, i) > point_mass(m, j):
                    assert heads[i] <= heads[j]


def test_build_is_no_worse_than_nearby_splits():
    # against hand-built alternatives: move the split, rebuild, compare
    from epc.huffman import exp_huffman
    from epc.light_tail import _assemble
    p = Poisson(1.0)
    for base in (1.0, 1.5, 2.0):
        built = build_unary_ended(p, base)
        pen = Exponential(base) if base != 1.0 else Exponential(1.0)
        best = evaluate_penalty(p, built.lengths(), pen)
        for r in range(0, 8):
            weights = [point_mass(p, i) for i in range(r + 1)]
            weights.append(tail_weight(p, r, base))
            tree = exp_huffman(weights, base)
            lens = _assemble(weights, tree.lengths)
            alt = LengthSeq(tuple(lens[:-1]), UnaryTail(r + 1, lens[-1] + 1))
            assert best <= evaluate_penalty(p, alt, pen) + 1e-11


def test_build_mmr_worked_example():
    m = with_geometric_tail((0.6, 0.15, 0.15, 0.0375, 0.0375), 0.5)
    c = build_unary_ended_mmr(m)
    assert c.tail_start == 5
    assert [c.length(i) for i in range(7)] == [1, 2, 3, 4, 5, 6, 7]
    assert evaluate_penalty(m, c.lengths(), MaxRedundancy()) == \
        pytest.approx(math.log2(1.2), rel=1e-12)


def test_build_mmr_poisson():
    c = build_unary_ended_mmr(Poisson(1.0))
    got = evaluate_penalty(Poisson(1.0), c.lengths(), MaxRedundancy())
    # worst case attained on the head at p(0) = e^-1 with a 2-bit word
    assert got == pytest.approx(2 - math.log2(math.e), rel=1e-12)
    # no nearby unary-ended alternative beats it
    from epc.huffman import maxred_huffman
    from epc.light_tail import _assemble
    for r in range(1, 7):
        weights = [poisson_pmf(1.0, i) for i in range(r + 1)]
        weights.append(2.0 * poisson_pmf(1.0, r + 1))
        lens = _assemble(weights, maxred_huffman(weights).lengths)
        alt = LengthSeq(tuple(lens[:-1]), UnaryTail(r + 1, lens[-1] + 1))
        assert got <= evaluate_penalty(Poisson(1.0), alt, MaxRedundancy()) + 1e-11


@pytest.mark.parametrize("mean, rule", [
    (358.7, 2.0), (763.5, 1.5), (947.5, "mmr"),
    (1000.0, 1.0), (1000.0, 1.5), (1000.0, 2.0), (1000.0, "mmr"),
])
def test_poisson_weights_past_the_normal_floats_merge_in_logs(mean, rule):
    # some reduced weights (e**-mean at symbol 0, or the masses near the
    # split) are not normal floats; the build merges the source's log
    # masses and ranks by them
    m = Poisson(mean)
    if rule == "mmr":
        code, penalty, floor = build_unary_ended_mmr(m), MaxRedundancy(), 0.0
    else:
        code, penalty = build_unary_ended(m, rule), Exponential(rule)
        floor = renyi_entropy(m, rule)
    head = code.head_lengths
    assert min(m.masses(len(head))) < sys.float_info.min
    num, den = kraft_total(head, code.spine_length)
    assert num == den   # a full tree
    # Campbell's bound: an optimal code lies within one bit of the floor
    value = evaluate_penalty(m, code.lengths(), penalty)
    assert floor - 1e-9 <= value < floor + 1.0
    # likelier symbols never get longer words
    ln_p = [poisson_ln_pmf(mean, i) for i in range(len(head))]
    order = sorted(range(len(head)), key=lambda i: -ln_p[i])
    assert all(head[i] <= head[j] for i, j in zip(order, order[1:]))


def test_poisson_split_is_capped():
    # refused before any point mass is listed, also where e * mean or
    # 2 * base * mean is not a finite float
    assert find_split_mmr(Poisson(3678.0)) == 9997
    for split in (lambda m: find_split_mmr(m),
                  lambda m: find_split_exponential(m, 2.0),
                  lambda m: find_split_exponential(m, 1e300)):
        for mean in (3680.0, 1e300):
            with pytest.raises(NotLightTailedError, match="at or below 10000"):
                split(Poisson(mean))
    assert find_split_exponential(Poisson(2499.0), 2.0) == 9994
    with pytest.raises(NotLightTailedError):
        find_split_exponential(Poisson(2501.0), 2.0)


@pytest.mark.parametrize("penalty", [
    Linear(), Exponential(0.3), Exponential(0.7), Exponential(1.5),
    Exponential(1e6), MaxRedundancy(), DthRedundancy(8.0),
    DthRedundancy(128.0),
], ids=["linear", "exp-0.3", "exp-0.7", "exp-1.5", "exp-1e6", "maxred",
        "dth-8", "dth-128"])
def test_finite_code_merges_in_the_kept_order(penalty):
    # a finite source merges its checked masses in the order it keeps; the
    # lengths are those of the checked merge of the same masses, ties and
    # a second build on the same source object included
    rng = random.Random(27)
    for n in (1, 2, 5, 40, 700):
        weights = [rng.choice((1.0, 3.0, rng.lognormvariate(0.0, 1.5)))
                   for _ in range(n)]
        probs = [w / math.fsum(weights) for w in weights]
        model = ExplicitFinite(probs)
        want = LengthSeq(merge(probs, penalty).lengths)
        assert optimal_code(model, penalty) == want
        assert optimal_code(model, penalty) == want


def test_assemble_ranks_heaviest_first_ties_by_index():
    # the reversed sort on the weights alone gives the order of the key
    # (-weight, index): a reversed sort is stable, and -0.0 ties 0.0
    rng = random.Random(28)
    for _ in range(500):
        n = rng.randint(1, 30)
        weights = [rng.choice((0.0, -0.0, 0.25, 0.5, rng.random()))
                   for _ in range(n)]
        lengths = [rng.randint(1, 9) for _ in range(n)]
        order = sorted(range(n), key=lambda i: (-weights[i], i))
        want = [0] * n
        for length, i in zip(sorted(lengths), order):
            want[i] = length
        assert _assemble(weights, lengths) == want
