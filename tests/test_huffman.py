import math
import random

import pytest

from epc import (ExplicitFinite, dth_huffman, exp_huffman,
                 exp_huffman_two_queue, maxred_huffman, with_geometric_tail)
from epc.huffman import _codewords, _run
from epc.numeric import logaddexp
from oracles import (best_tree_objective, dth_objective, exp_objective,
                     heap_merge, kraft_fraction, maxred_objective)


def test_classic_expected_length():
    tree = exp_huffman([0.1, 0.2, 0.3, 0.4], 1.0)
    assert tree.lengths == (3, 3, 2, 1)
    assert tree.objective == pytest.approx(1.9)


def test_base_two_flattens():
    # combining doubles the pair weight, so merge order never pays off:
    # every weight ends at the same depth
    tree = exp_huffman([0.1, 0.2, 0.3, 0.4], 2.0)
    assert tree.lengths == (2, 2, 2, 2)
    assert tree.root_weight == pytest.approx(4.0)
    assert tree.objective == pytest.approx(2.0)


def test_base_below_one_chains():
    # all complete trees tie at base 1/2; the compound-first tie rule
    # must produce the chain
    tree = exp_huffman([0.25] * 4, 0.5)
    assert sorted(tree.lengths) == [1, 2, 3, 3]
    assert tree.objective == pytest.approx(2.0)


def test_codewords_prefix_free():
    tree = exp_huffman([0.05, 0.1, 0.15, 0.3, 0.4], 1.0)
    assert "codewords" not in vars(tree)    # built on first read only
    words = tree.codewords
    assert all(len(w) == n for w, n in zip(words, tree.lengths))
    for i, a in enumerate(words):
        for b in words[i + 1:]:
            assert not a.startswith(b) and not b.startswith(a)
    assert kraft_fraction(tree.lengths) == 1


def test_engine_validation():
    with pytest.raises(ValueError):
        exp_huffman([], 1.0)
    with pytest.raises(ValueError):
        exp_huffman([0.5, 0.0], 1.0)
    with pytest.raises(ValueError):
        exp_huffman([0.5, 0.5], 0.0)
    # the expected length itself leaves the float range
    with pytest.raises(ValueError, match="overflows"):
        exp_huffman([1e308, 1e308], 1.0)
    with pytest.raises(ValueError, match="overflows"):
        exp_huffman([1e308] * 3, 1.0)


def test_single_weight_code():
    tree = exp_huffman([1.0], 2.0)
    assert tree.lengths == (0,)


def test_exp_huffman_matches_enumeration():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 8)
        weights = [rng.uniform(0.01, 1.0) for _ in range(n)]
        for base in (0.3, 0.5, 0.9, 1.0, 1.1, 2.0):
            got = exp_huffman(weights, base).objective
            best = best_tree_objective(
                weights, lambda w, ls: exp_objective(w, ls, base))
            assert got == pytest.approx(best, rel=1e-12, abs=1e-12)


def test_maxred_matches_enumeration():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(2, 8)
        weights = [rng.uniform(0.01, 1.0) for _ in range(n)]
        got = maxred_huffman(weights).objective
        best = best_tree_objective(weights, maxred_objective)
        assert got == pytest.approx(best, rel=1e-12)


def test_maxred_worked_example():
    # reduced form of the two-per-step tailed source; root weight 1.2
    weights = [0.6, 0.15, 0.15, 0.0375, 0.0375, 0.0375]
    tree = maxred_huffman(weights)
    assert tree.root_weight == pytest.approx(1.2)
    assert tree.objective == pytest.approx(math.log2(1.2))
    assert sorted(tree.lengths) == [1, 2, 3, 4, 5, 5]


def test_dth_matches_enumeration():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(2, 7)
        raw = [rng.uniform(0.01, 1.0) for _ in range(n)]
        total = sum(raw)
        probs = [x / total for x in raw]
        for d in (1.0, 2.0, 16.0):
            got = dth_huffman(probs, d).objective
            best = best_tree_objective(
                probs, lambda p, ls: dth_objective(p, ls, d))
            assert got == pytest.approx(best, rel=1e-10, abs=1e-10)


def test_dth_log_domain_consistent():
    # the d >= 64 log-space twin must agree with the plain engine where
    # both are usable
    probs = (0.4, 0.3, 0.2, 0.1)
    lin = dth_huffman(probs, 63.0)
    logd = dth_huffman(probs, 64.0)
    assert lin.lengths == logd.lengths
    big = dth_huffman(probs, 65536.0)
    best = best_tree_objective(probs, lambda p, ls: dth_objective(p, ls, 65536.0))
    assert big.objective == pytest.approx(best, rel=1e-9)
    # at huge order the objective approaches the minimax one
    mm = maxred_huffman(probs)
    assert big.objective == pytest.approx(mm.objective, abs=1e-3)
    assert sorted(big.lengths) == sorted(mm.lengths)


def _exp_merge(weights, base):
    """The heap engine's (root, codewords) under the exponential merge."""
    return heap_merge(weights, lambda a, b: base * (a + b))


def _queue_replay(merges):
    """The merge queue of a run that placed no merge by bisection, replayed
    from its merge lists: (the most merges queued at once, the merges still
    queued when the items run out, by creation number, and each merge's
    final depth by creation number)."""
    first, second = merges
    n = len(first) + 1
    popped = widest = 0
    drained = ()
    for j, pair in enumerate(zip(first, second)):
        popped += sum(x >= n for x in pair)
        widest = max(widest, j + 1 - popped)
        if not drained and 2 * (j + 1) - popped == n:
            drained = tuple(range(popped, j + 1))
    depth = [0] * (2 * n - 1)
    for j in range(n - 2, -1, -1):
        depth[first[j]] = depth[second[j]] = depth[n + j] + 1
    return widest, drained, {j: depth[n + j] for j in range(n - 1)}


def test_two_queue_matches_heap():
    rng = random.Random(10)
    for _ in range(60):
        n = rng.randint(2, 40)
        weights = sorted(round(rng.uniform(0.06, 1.0), rng.choice((1, 2, 6)))
                         for _ in range(n))
        for base in (0.5, 1.0, 1.7):
            _, words = _exp_merge(weights, base)
            tq = exp_huffman_two_queue(weights, base)
            assert tq.objective == pytest.approx(
                exp_objective(weights, tuple(map(len, words)), base),
                rel=1e-12, abs=1e-12)
            assert kraft_fraction(tq.lengths) == 1


def test_two_queue_rejects_unsorted():
    with pytest.raises(ValueError):
        exp_huffman_two_queue([0.4, 0.1], 1.0)


def test_two_queue_invariants(bisections):
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(3, 30)
        weights = sorted(round(rng.uniform(0.01, 1.0), 2) for _ in range(n))
        for base in (0.5, 1.0, 1.3):
            tree = exp_huffman_two_queue(weights, base)
            # the merge queue is itself always emitted in sorted order
            assert not bisections
            widest, drained, depths = _queue_replay(tree._merges)
            if base == 0.5:
                # halving weights: a new merge is always the smallest node
                assert widest <= 1
            # once the items run out, the merges still queued sit within
            # one level of each other, deeper ones nearer the queue head
            depths = [depths[s] for s in drained]
            if depths:
                assert max(depths) - min(depths) <= 1
                assert all(a >= b for a, b in zip(depths, depths[1:]))


@pytest.mark.parametrize("build", [
    lambda: exp_huffman([0.5, 0.3, 0.2], math.nan),
    lambda: exp_huffman([0.5, 0.3, 0.2], math.inf),
    lambda: exp_huffman([0.5, math.nan, 0.2], 1.0),
    lambda: exp_huffman([0.5, -math.inf], 2.0),
    lambda: exp_huffman_two_queue([0.2, 0.3, 0.5], math.nan),
    lambda: exp_huffman_two_queue([0.2, 0.3, math.inf], 1.0),
    lambda: exp_huffman_two_queue([1e-200] * 4, 1e-200),
    lambda: exp_huffman_two_queue([0.1, 0.1, 0.3, 0.5], 1e300),
    lambda: maxred_huffman([0.5, math.nan]),
    lambda: dth_huffman([0.5, 0.3, 0.2], math.inf),
    lambda: dth_huffman([0.5, 0.3, 0.2], math.nan),
    lambda: dth_huffman([0.5, math.inf], 2.0),
], ids=["exp-nan-base", "exp-inf-base", "exp-nan-weight", "exp-neg-inf-weight",
        "two-queue-nan-base", "two-queue-inf-weight",
        "two-queue-root-underflow", "two-queue-root-overflow",
        "maxred-nan-weight",
        "dth-inf-order", "dth-nan-order", "dth-inf-prob"])
def test_non_finite_parameters_refused(build):
    with pytest.raises(ValueError, match="must be finite"):
        build()


def test_logaddexp_takes_minus_infinity():
    # e**-inf is zero: the other argument comes back as it is
    for x in (-math.inf, 0.0, -745.0, 3.5):
        assert logaddexp(-math.inf, x) == logaddexp(x, -math.inf) == x
    assert logaddexp(0.0, 0.0) == math.log(2.0)


def test_nonpositive_weight_message_is_verbatim():
    # callers match this message exactly, so it must not change
    for build in (lambda w: exp_huffman(w, 1.5), maxred_huffman,
                  lambda w: exp_huffman_two_queue(w, 1.0)):
        for weights in ([-0.1, 0.5], [0.0, 0.5]):
            with pytest.raises(ValueError) as exc:
                build(weights)
            assert str(exc.value) == "weights must be strictly positive"


@pytest.mark.parametrize("build, noun, one", [
    (lambda w: exp_huffman(w, 1.5), "weights", "weight"),
    (maxred_huffman, "weights", "weight"),
    (lambda w: dth_huffman(w, 2.0), "probabilities", "weight"),
    (lambda w: ExplicitFinite(w), "probabilities", "probability"),
    (lambda w: with_geometric_tail(w, 0.5), "probabilities",
     "head probability"),
], ids=["exp", "maxred", "dth", "finite", "tailed"])
def test_mass_list_messages_are_verbatim(build, noun, one):
    # the engines and the finite sources share one check and its messages
    for weights, message in (([], f"need at least one {one}"),
                             ([0.5, math.nan], f"{noun} must be finite"),
                             ([-1.0, math.inf], f"{noun} must be finite"),
                             ([1.5, -0.5], f"{noun} must be strictly positive"),
                             ([0.0, 1.0], f"{noun} must be strictly positive")):
        with pytest.raises(ValueError) as exc:
            build(weights)
        assert str(exc.value) == message


@pytest.mark.parametrize("probs, order", [
    ([1e-10, 0.5, 0.5 - 1e-10], 40.0),     # 1e-10**41 underflows to 0
    ([1e-7, 0.3, 0.7 - 1e-7], 44.0),       # 1e-7**45 is subnormal
])
def test_dth_tiny_power_takes_log_space(probs, order):
    tree = dth_huffman(probs, order)
    best = best_tree_objective(probs,
                               lambda p, ls: dth_objective(p, ls, order))
    assert tree.objective == pytest.approx(best, rel=1e-12)


@pytest.mark.parametrize("weights", [
    [1e10, 1.0, 2.0, 2.0],     # 1e10**41 overflows
    [3e7, 1.0, 2.0, 2.0],      # 3e7**41 is finite, the merged root is not
])
def test_dth_huge_power_takes_log_space(weights):
    tree = dth_huffman(weights, 40.0)
    best = best_tree_objective(weights,
                               lambda p, ls: dth_objective(p, ls, 40.0))
    assert tree.objective == pytest.approx(best, rel=1e-12)


@pytest.mark.parametrize("weights, base", [
    ([0.5, 0.3, 0.1, 0.1], 1e300),     # the plain root overflows
    ([1e-200] * 4, 1e-200),            # the plain root underflows to 0
])
def test_exp_out_of_range_root_takes_logs(weights, base):
    tree = exp_huffman(weights, base)
    assert tree.objective == 2.0
    ln_base = math.log(base)
    assert (tree.root_weight, tree.codewords) == heap_merge(
        [math.log(w) for w in weights],
        lambda a, b: ln_base + logaddexp(a, b))


@pytest.mark.parametrize("weights, base", [
    ([1e-320, 2e-320, 3e-320, 4e-320, 5e-320], 1e60),   # every weight
    ([5e-324, 0.2, 0.3, 0.5], 1.5),                      # one weight
])
def test_exp_subnormal_weight_takes_logs(weights, base):
    # the plain roots are normal, but a subnormal weight keeps few digits
    # through a plain merge: every rule merges such inputs in logs
    tree = exp_huffman(weights, base)
    ln_base = math.log(base)
    assert (tree.root_weight, tree.codewords) == heap_merge(
        [math.log(w) for w in weights],
        lambda a, b: ln_base + logaddexp(a, b))
    best = best_tree_objective(weights,
                               lambda p, ls: exp_objective(p, ls, base))
    assert tree.objective == pytest.approx(best, rel=1e-12)


def test_maxred_overflowing_root_takes_logs():
    tree = maxred_huffman([1e308, 1e308, 1e308, 1e308])
    assert tree.lengths == (2, 2, 2, 2)
    assert tree.objective == pytest.approx(math.log2(1e308) + 2.0,
                                           rel=1e-15)


@pytest.mark.parametrize("base", [0.3, 0.45])
def test_exp_below_half_appends_every_merge(bisections, base):
    # below base 1/2 a merge is lighter than its heavier child, so it often
    # falls below merges already popped; only a live merge above it may
    # send it to the bisection, and these rules never queue one
    rng = random.Random(45)
    for weights in ([1.0] * 400,
                    [1.0] * 4096,           # a caterpillar 4096 deep
                    [rng.choice((0.1, 0.2, 0.5)) for _ in range(400)],
                    [rng.lognormvariate(0.0, 2.0) for _ in range(400)]):
        tree = exp_huffman(weights, base)
        assert (tree.root_weight, tree.codewords) == _exp_merge(weights, base)
        assert not bisections


def test_run_keeps_the_heap_order_for_any_combine(bisections):
    # 1/(a + b) makes small merges large and large ones small, so merges
    # fall below the queue's tail and are placed by bisection
    rng = random.Random(12)
    for _ in range(300):
        weights = [rng.choice((0.1, 0.2, 0.5, rng.random() + 1e-3))
                   for _ in range(rng.randint(1, 40))]
        combine = lambda a, b: 1.0 / (a + b)   # noqa: E731
        root, merges = _run(weights, combine)
        assert (root, tuple(_codewords(*merges))) == heap_merge(weights,
                                                                combine)
    assert bisections      # the count the no-bisection tests read is live


# each trace: (bisections, the most merges queued at once, the merges
# queued when the items run out, each merge's final depth)
@pytest.mark.parametrize("weights, base, trace, codewords", [
    ([0.05, 0.1, 0.15, 0.3, 0.4], 1.0,
     (0, 1, (3,), {3: 0, 2: 1, 1: 2, 0: 3}),
     ("1110", "1111", "110", "10", "0")),
    ([0.25] * 4, 0.5,
     (0, 1, (2,), {2: 0, 1: 1, 0: 2}),
     ("000", "001", "01", "1")),
    ([0.1, 0.1, 0.2, 0.2, 0.2, 0.3, 0.5, 0.5], 1.7,
     (0, 3, (2, 3, 4), {6: 0, 5: 1, 3: 2, 0: 3, 2: 2, 4: 1, 1: 2}),
     ("1100", "1101", "010", "011", "100", "101", "111", "00")),
    ([0.125] * 3 + [0.25] * 3 + [0.5] * 2, 1.0,
     (0, 2, (4, 5), {6: 0, 5: 1, 3: 2, 1: 3, 0: 4, 4: 1, 2: 2}),
     ("11110", "11111", "1110", "000", "001", "110", "01", "10")),
    ([1.0] * 6, 0.9,
     (0, 3, (0, 1, 2), {4: 0, 3: 1, 1: 2, 0: 2, 2: 1}),
     ("100", "101", "110", "111", "00", "01")),
    ([0.3], 2.0, (0, 0, (), {}), ("",)),
])
def test_two_queue_trace_pinned(bisections, weights, base, trace, codewords):
    tree = exp_huffman_two_queue(weights, base)
    assert (len(bisections), *_queue_replay(tree._merges)) == trace
    assert tree.codewords == codewords
    assert (tree.root_weight, tree.codewords) == _exp_merge(weights, base)
