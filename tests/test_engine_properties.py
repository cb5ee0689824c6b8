"""Seeded property-based tests of the merge engine and the code-choice
dispatch: every builder, the sorted-input entry too, builds the heap
engine's code, and optimal_code returns what each family's own builder
returns. Needs hypothesis (the `test` extra)."""
import math
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from epc import (DthRedundancy, EpcError, ExplicitFinite, Exponential,
                 Geometric, GolombCode, LengthSeq, Linear, MaxRedundancy,
                 Poisson, build_unary_ended, build_unary_ended_mmr, dth_huffman,
                 exp_huffman, exp_huffman_two_queue, maxred_huffman,
                 optimal_code, optimal_k, optimal_k_exponential,
                 optimal_k_mmr, with_geometric_tail)
from epc.numeric import LN2
from oracles import heap_merge, logaddexp

# derandomized: every run draws the same examples and writes no database
SEEDED = settings(derandomize=True, database=None, deadline=None)

_WEIGHTS = st.one_of(
    st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=60),
    # tie-heavy: dyadic and one-decimal weights
    st.lists(st.sampled_from([0.0625, 0.125, 0.25, 0.5, 1.0]),
             min_size=1, max_size=60),
    st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5]),
             min_size=1, max_size=60))
_BASES = st.one_of(st.sampled_from([0.4, 0.5, 1.0, 2.0]), st.floats(0.4, 2.0))


@SEEDED
@given(weights=_WEIGHTS, base=_BASES)
def test_heap_and_two_queue_build_the_same_code(weights, base):
    weights = sorted(weights)
    queues = exp_huffman_two_queue(weights, base)
    assert (queues.root_weight, queues.codewords) == heap_merge(
        weights, lambda a, b: base * (a + b))


# unsorted lists of 1 to 300 weights (the size is drawn first, so long
# lists are as likely as short ones): uniform, tie-heavy, or spread over
# 300 decades
_ENGINE_WEIGHTS = st.integers(1, 300).flatmap(lambda n: st.one_of(
    st.lists(element, min_size=n, max_size=n) for element in (
        st.floats(1e-3, 1.0),
        st.sampled_from([0.0625, 0.125, 0.25, 0.5, 0.1, 0.3]),
        st.builds(lambda e: 10.0 ** e, st.floats(-300.0, 0.0)))))


def _plain_or_logs(weights, plain, in_logs):
    """The heap engine's merge on the weights, or on their logs when the
    plain root is not a positive normal float."""
    root, codewords = heap_merge(weights, plain)
    if sys.float_info.min <= root < math.inf:
        return root, codewords
    return heap_merge([math.log(w) for w in weights], in_logs)


@SEEDED
@given(weights=_ENGINE_WEIGHTS,
       base=st.sampled_from([0.3, 0.45, 0.5, 0.7, 1.0, 2.0, 1e200]))
def test_exp_huffman_builds_the_heap_code(weights, base):
    tree = exp_huffman(weights, base)
    ln_base = math.log(base)
    assert (tree.root_weight, tree.codewords) == _plain_or_logs(
        weights, lambda a, b: base * (a + b),
        lambda a, b: ln_base + logaddexp(a, b))


@SEEDED
@given(weights=_ENGINE_WEIGHTS)
def test_maxred_huffman_builds_the_heap_code(weights):
    tree = maxred_huffman(weights)
    assert (tree.root_weight, tree.codewords) == _plain_or_logs(
        weights, lambda a, b: 2.0 * max(a, b), lambda a, b: LN2 + max(a, b))


@SEEDED
@given(probs=_ENGINE_WEIGHTS, order=st.sampled_from([0.5, 8.0, 40.0, 128.0]))
def test_dth_huffman_builds_the_heap_code(probs, order):
    tree = dth_huffman(probs, order)
    scale, ln_scale = 2.0 ** order, order * LN2
    powers = [p ** (1.0 + order) for p in probs]   # p <= 1: none overflows
    want = None
    if order < 64.0 and min(powers) >= sys.float_info.min:
        want = heap_merge(powers, lambda a, b: scale * (a + b))
    if want is None or want[0] == math.inf:
        want = heap_merge([(1.0 + order) * math.log(p) for p in probs],
                          lambda a, b: ln_scale + logaddexp(a, b))
    assert (tree.root_weight, tree.codewords) == want


def _family_builder(model, penalty):
    """The per-family builders optimal_code replaced, called directly."""
    base = 1.0 if isinstance(penalty, Linear) else getattr(penalty, "base", 0)
    if isinstance(model, Geometric):
        if isinstance(penalty, MaxRedundancy):
            return GolombCode(optimal_k_mmr(model.ratio))
        if isinstance(penalty, DthRedundancy):
            return GolombCode(optimal_k(model.ratio, penalty))
        return GolombCode(optimal_k_exponential(model.ratio, base))
    if isinstance(model, ExplicitFinite):
        if isinstance(penalty, MaxRedundancy):
            return LengthSeq(maxred_huffman(model.probs).lengths)
        if isinstance(penalty, DthRedundancy):
            return LengthSeq(dth_huffman(model.probs, penalty.order).lengths)
        return LengthSeq(exp_huffman(model.probs, base).lengths)
    if isinstance(penalty, MaxRedundancy):
        return build_unary_ended_mmr(model)
    if isinstance(penalty, DthRedundancy):
        raise ValueError("dth-power redundancy codes need a geometric source")
    return build_unary_ended(model, base)


def _outcome(build, model, penalty):
    try:
        return build(model, penalty)
    except (EpcError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def _models(draw):
    kind = draw(st.sampled_from(["geometric", "finite", "poisson", "tailed"]))
    if kind == "geometric":
        return Geometric(draw(st.floats(0.05, 0.99)))
    if kind == "poisson":
        return Poisson(draw(st.floats(0.3, 8.0)))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12))
    if kind == "finite":
        total = sum(weights)
        return ExplicitFinite(tuple(w / total for w in weights))
    return with_geometric_tail(weights, draw(st.floats(0.05, 0.9)))


_PENALTIES = st.one_of(
    st.just(Linear()), st.just(MaxRedundancy()),
    st.builds(Exponential, st.floats(0.4, 2.0)),
    st.builds(DthRedundancy, st.one_of(st.sampled_from([63.0, 64.0]),
                                       st.floats(0.25, 200.0))))


@SEEDED
@given(model=_models(), penalty=_PENALTIES)
def test_optimal_code_matches_family_builder(model, penalty):
    assert (_outcome(optimal_code, model, penalty)
            == _outcome(_family_builder, model, penalty))
