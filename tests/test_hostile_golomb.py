"""Golomb descriptors with a k far past what a plan's automaton can reach.

A Golomb code decodes as a run of k-word quotients behind an empty head.
A plan's automaton takes the internal nodes of the run's trie as states,
shallowest first and at most 2**12 of them, and lists the words of each
length up to one bit past the deepest. At k = 2**62 every word is 62 bits
or more, far past them, so the plan takes no automaton; at k = 2**10 - 1
the states fill the budget at depth 13. Each container decodes or raises
ContainerError.
"""
import random

import pytest

from epc import ContainerError, GolombCode, codec, encode, read_container


@pytest.fixture
def listed(monkeypatch):
    """(length, words listed) for each listing of one length a plan asked
    for, failing past 2**length words, which a prefix code cannot have;
    plans built here are dropped afterwards."""
    asked = []
    real = codec._canonical_words

    def counting(plan, length):
        words = real(plan, length)
        assert len(words) <= 1 << length, f"over 2**{length} words"
        asked.append((length, len(words)))
        return words

    codec._plan.cache_clear()
    monkeypatch.setattr(codec, "_canonical_words", counting)
    yield asked
    codec._plan.cache_clear()


def _states(automaton):
    """Every state of an automaton: those its resume map holds and those
    their entries lead to."""
    seen = {id(state): state for state in automaton[1].values()}
    todo = list(seen.values())
    while todo:
        for entry in todo.pop()[:16]:
            if entry is not None and id(entry[1]) not in seen:
                seen[id(entry[1])] = entry[1]
                todo.append(entry[1])
    return list(seen.values())


@pytest.mark.parametrize("count", [600, 5000], ids=["600", "5000"])
@pytest.mark.parametrize("k", [2 ** 62, 2 ** 10 - 1], ids=["2**62", "2**10-1"])
def test_hostile_golomb_descriptor(k, count, listed):
    rng = random.Random(count)
    code = GolombCode(k)
    symbols = [rng.randrange(3 * k) for _ in range(count)]
    blob = encode(symbols, code)
    assert read_container(blob) == (code, symbols)
    # the first container counts its trie's states once: 2**12 of them by
    # depth 12 or 13, listing the words of up to 13 or 14 bits, none of
    # 2**62's. Fewer than 8 * 2**12 symbols build no automaton, and 2**62,
    # whose words reach nothing, never builds one
    descriptor = codec._descriptor(code)
    deepest = 12 if k == 2 ** 62 else 13
    assert [length for length, _ in listed] == list(range(1, deepest + 2))
    assert sum(words for _, words in listed) == (0 if k == 2 ** 62 else 4093)
    assert codec._plan(descriptor).automaton is None
    # a payload of noise under the same header decodes to symbols that
    # encode back to it, or is refused
    header = blob[:5 + len(descriptor) + 8]
    hostile = header + bytes(rng.randrange(256)
                             for _ in range(len(blob) - len(header)))
    try:
        got, decoded = read_container(hostile)
    except ContainerError:
        pass
    else:
        assert got == code and encode(decoded, code) == hostile
    assert len(listed) == deepest + 1       # counted once


def test_a_code_that_reaches_too_little_lists_its_words_once(listed):
    # however many symbols a plan decodes, a code whose words in reach fill
    # less than 7/8 of code space builds nothing, and lists no word again
    plan = codec._Plan(GolombCode(2 ** 62))
    for _ in range(3):
        assert codec._plan_automaton(plan, 1 << 40) is None
    assert listed == [(length, 0) for length in range(1, 14)]


def test_golomb_1023_lists_no_word_past_the_budget(listed):
    # 2**12 states, and the words listed are those of their children
    plan = codec._Plan(GolombCode(2 ** 10 - 1))
    automaton = codec._plan_automaton(plan, 1 << 20)
    states = _states(automaton)
    assert len(states) == 1 << 12
    deepest = max(state[16] for state in states)
    assert max(length for length, _ in listed) == deepest + 1
    assert sum(words for _, words in listed) <= 2 * len(states)
