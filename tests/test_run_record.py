"""The run record: a code's tail is its spine and k, the run starting at
t0 = len(head). Seeded draws of complete heads (or none), spines 0-3 and k
1-6, checked against the oracles' lengths and words, the container's three
shapes and the code classes each shape names, and the words a plan's
automaton lists for each shape a container holds."""
import random
from itertools import chain, count, takewhile

import pytest

from epc import (GolombCode, LengthSeq, UnaryEndedCode, UnaryTail, codec,
                 encode, read_container)
from oracles import canonical_words, golomb_word, head_run_length

_DRAWS = 120


def _complete_tree(rng, depth: int) -> list[int]:
    """Leaf depths of a random complete tree under a node at this depth."""
    leaves = [depth]
    for _ in range(rng.randint(0, 3)):
        leaf = leaves.pop(rng.randrange(len(leaves)))
        leaves += [leaf + 1, leaf + 1]
    return leaves


def _draw(rng):
    """(head, spine, k): with a head, spine 1-3 ones and a head filling the
    rest of code space, the subtrees at 0, 10, 110, ... in random order;
    without, spine 0-3 alone."""
    k = rng.randint(1, 6)
    if rng.random() < 0.3:
        return (), rng.randint(0, 3), k
    spine = rng.randint(1, 3)
    head = [n for d in range(1, spine + 1) for n in _complete_tree(rng, d)]
    rng.shuffle(head)
    return tuple(head), spine, k


# every shape once, whatever the draws reach: no head with no spine or
# with one, and a head, each at k = 1 and above
CASES = [((), 0, 1), ((), 0, 3), ((), 2, 1), ((), 2, 4), ((1,), 1, 1),
         ((1,), 1, 3), *(_draw(random.Random(seed)) for seed in range(_DRAWS))]


def _listed_as_written(code, words):
    """Every length up to 14 bits: the plan's listing is exactly the words,
    in symbol order, of that length, as (value, symbol)."""
    words = list(words)
    plan = codec._Plan(code)
    for length in range(1, 15):
        listed = codec._canonical_words(plan, length)
        assert sorted(listed) == sorted(
            (int(word, 2), i) for i, word in enumerate(words)
            if len(word) == length), length


@pytest.mark.parametrize("head, spine, k", CASES,
                         ids=[f"{h}-{s}-{k}" for h, s, k in CASES])
def test_a_run_record_is_its_spine_and_k_from_the_head_end(head, spine, k):
    code = LengthSeq(head, UnaryTail(spine, k=k))
    assert (code.tail.spine, code.tail.k) == (spine, k)
    words = canonical_words(head)
    for i in range(len(head) + 3 * k + 2):
        n = head_run_length(head, spine + 1, k, i)
        word = (words[i] if i < len(head)
                else "1" * spine + golomb_word(i - len(head), k))
        assert code.length_at(i) == n == len(word)
        assert code.codeword(i) == word
    # the code is the class its shape names
    if k == 1:
        assert code == UnaryEndedCode(head, spine)
    if not head and not spine:
        assert code == GolombCode(k)
    # three shapes have a container; encode refuses every other one
    symbols = list(range(len(head) + 2 * k + 1))
    if not spine or (k == 1 and head):
        assert read_container(encode(symbols, code)) == (code, symbols)
        # run lengths never fall, so the run's words of at most 14 bits
        # are the ones before the first longer word
        run = ("1" * spine + golomb_word(j, k) for j in count())
        _listed_as_written(code, chain(
            words, takewhile(lambda word: len(word) <= 14, run)))
    else:
        with pytest.raises(ValueError) as refused:
            encode(symbols, code)
        assert str(refused.value) == "no container holds a " + (
            "unary run behind a spine with no head" if k == 1
            else f"Golomb-{k} run behind a head or spine")
    if head:    # the explicit shape: the spine as one more word
        plain, each = LengthSeq(head + (spine,)), list(range(len(head) + 1))
        assert read_container(encode(each, plain)) == (plain, each)
        _listed_as_written(plain, canonical_words(plain.head))


@pytest.mark.parametrize("args", [(3, 4), (4, 4, 3)])
def test_an_old_positional_run_record_is_refused(args):
    # (start index, start length[, k]) must not read as (spine, k)
    with pytest.raises(TypeError):
        UnaryTail(*args)
