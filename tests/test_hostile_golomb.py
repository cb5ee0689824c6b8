"""Golomb descriptors with a k far past what a multi-symbol table can hold.

A Golomb code decodes as a run of k-word quotients behind an empty head, and
its table lists the run's words of at most t bits. The words of these codes
fill too little code space at every table width below 14 bits, so no
container here lists a word; each decodes or raises ContainerError.
"""
import random

import pytest

from epc import ContainerError, GolombCode, codec, encode, read_container


@pytest.fixture
def listed(monkeypatch):
    """The table widths t whose words a plan listed, each recorded when its
    listing starts, since a listing may stop at the second level's budget,
    and failing past 2**t words of at most t bits, which a prefix code
    cannot have; plans built here are dropped afterwards."""
    widths = []
    real = codec._canonical_words

    def counting(*args):
        t = args[1]
        widths.append(t)
        short = 0
        for word in real(*args):
            short += word[1] <= t
            assert short <= 1 << t, f"over 2**{t} words of at most {t} bits"
            yield word

    codec._plan.cache_clear()
    monkeypatch.setattr(codec, "_canonical_words", counting)
    yield widths
    codec._plan.cache_clear()


@pytest.mark.parametrize("count", [600, 5000], ids=["t8", "t10"])
@pytest.mark.parametrize("k", [2 ** 62, 2 ** 10 - 1], ids=["2**62", "2**10-1"])
def test_hostile_golomb_descriptor(k, count, listed):
    rng = random.Random(count)
    code = GolombCode(k)
    symbols = [rng.randrange(3 * k) for _ in range(count)]
    blob = encode(symbols, code)
    assert read_container(blob) == (code, symbols)
    # the words of at most 12 bits fill far less than 7/8 of code space: the
    # plan's width is 14 bits (k = 2**10 - 1) or none, so a container of
    # fewer than 2**14 symbols lists no words and builds no table
    descriptor = codec._descriptor(code)
    assert codec._plan(descriptor).narrowest in (0, 14)
    assert listed == []
    assert codec._plan(descriptor).table == (0, None)
    # a payload of noise under the same header decodes to symbols that
    # encode back to it, or is refused
    header = blob[:5 + len(descriptor) + 8]
    hostile = header + bytes(rng.randrange(256)
                             for _ in range(len(blob) - len(header)))
    try:
        got, decoded = read_container(hostile)
    except ContainerError:
        return
    assert got == code and encode(decoded, code) == hostile


def test_refused_widths_stop_at_the_widest(listed):
    # however many symbols a container holds, a plan with no width lists
    # no words and builds no table
    plan = codec._Plan(GolombCode(2 ** 62))
    assert codec._plan_table(plan, 1 << 40) == (0, None)
    assert listed == [] and plan.narrowest == 0
