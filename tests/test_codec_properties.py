"""Seeded property-based tests of the container codec: a differential test
against the oracles' words and a fuzz test on mutated containers against
the oracles' reference decoder, both also against the single-symbol
decoders on containers long enough for a plan's automaton. Needs
hypothesis (the `test` extra)."""
import random
import struct
import time
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from epc import (ContainerError, ExplicitCode, GolombCode, Poisson,
                 UnaryEndedCode, build_unary_ended, build_unary_ended_mmr,
                 codec, decode, encode, read_container)
from oracles import container_words, kraft_fraction, reference_decode

# derandomized: every run draws the same examples and writes no database
SEEDED = settings(derandomize=True, database=None, deadline=None)


def _packed(bits: str) -> bytes:
    """Reference packing: MSB first, zero-padded, one byte per 8 bits."""
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))


def _golomb_params():
    edges = sorted({2 ** m + d for m in range(21) for d in (-1, 0, 1)
                    if 1 <= 2 ** m + d <= 2 ** 20})
    # a Golomb-k automaton of k < 32 has under 2**9 states, so long
    # containers build one
    return st.one_of(st.sampled_from(edges), st.integers(1, 2 ** 20),
                     st.integers(1, 31))


@st.composite
def _explicit_lengths(draw):
    """Leaf depths of a random full binary tree or of a deep chain,
    optionally with leaves dropped (a Kraft-incomplete code), kept within
    the length cap."""
    if draw(st.booleans()):
        lengths = [0]
        for _ in range(draw(st.integers(0, 24))):
            i = draw(st.integers(0, len(lengths) - 1))
            lengths[i:i + 1] = [lengths[i] + 1] * 2
        lengths = [max(l, 1) for l in lengths]
    else:   # a chain 1, 2, ..., d-1, d-1, often past the 64-bit window
        depth = draw(st.integers(2, 160))
        lengths = list(range(1, depth)) + [depth - 1]
    if len(lengths) > 1 and draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=len(lengths),
                             max_size=len(lengths)))
        lengths = [l for l, k in zip(lengths, keep) if k] or lengths[:1]
    n = len(lengths)
    lengths = [min(l, n) for l in lengths]
    if kraft_fraction(lengths) > 1:     # the clamp can overfill code space
        lengths = [n] * n
    return lengths


@st.composite
def _code_and_symbols(draw):
    family = draw(st.sampled_from(["golomb", "explicit", "unary",
                                   "unary-deep"]))
    if family == "golomb":
        code = GolombCode(draw(_golomb_params()))
        top = 4 * code.k + 40
    elif family == "explicit":
        code = ExplicitCode.from_lengths(draw(_explicit_lengths()))
        top = len(code.head) - 1
    elif family == "unary-deep":
        # head lengths 1..d-1 and a spine of d-1, or a head of 1, 3..d, d
        # under a 2-bit spine: long words with a long or a short spine
        depth = draw(st.integers(3, 130))
        if draw(st.booleans()):
            code = UnaryEndedCode(range(1, depth), depth - 1)
        else:
            code = UnaryEndedCode(
                [1, *range(3, depth + 1), depth], 2)
        top = len(code.head) + 60
    else:
        source = Poisson(draw(st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0])))
        build = draw(st.sampled_from([
            lambda m: build_unary_ended(m, 1.0),
            lambda m: build_unary_ended(m, 2.0),
            build_unary_ended_mmr]))
        code = build(source)
        top = len(code.head) + 60
    if not draw(st.booleans()):
        symbols = draw(st.lists(st.integers(0, top), max_size=80))
    else:   # past an automaton's threshold: mostly short words, as a source
        # the code suits would send them, and a few uniform draws
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        count = draw(st.integers(512, 6144))
        length = code.length_at
        alphabet = range(min(top, 4095) + 1)
        symbols = rng.choices(alphabet, [2.0 ** -length(i) for i in alphabet],
                              k=count)
        for _ in range(count // 20):
            symbols[rng.randrange(count)] = rng.randrange(top + 1)
    return code, symbols


def _outcome(blob: bytes):
    try:
        return read_container(blob)
    except ContainerError as exc:
        return str(exc)


def _no_walk(*args):
    raise AssertionError("the single-symbol oracle walked an automaton")


def _single_symbol_outcome(blob: bytes):
    """The oracle: the same container read by single steps alone, its
    plan's automaton neither built nor walked, whatever the plan holds."""
    with mock.patch.object(codec, "_plan_automaton", return_value=None), \
            mock.patch.object(codec, "_walk", _no_walk):
        return _outcome(blob)


def _tail(code):
    return (code.tail.spine, code.tail.k) if code.tail else None


@settings(SEEDED, max_examples=300)
@given(_code_and_symbols(), st.integers(1, 511))
def test_codec_matches_reference_codewords(case, short):
    code, symbols = case
    blob = encode(symbols, code)
    header = encode([], code)[:-8]
    assert blob[:len(header)] == header
    assert blob[len(header):len(header) + 8] == struct.pack("<Q", len(symbols))
    reference = "".join(map(container_words(code.head, _tail(code)), symbols))
    assert blob[len(header) + 8:] == _packed(reference)
    back, decoded = read_container(blob)
    assert decoded == symbols and back == code
    assert _single_symbol_outcome(blob) == (code, symbols)
    # a short container after it reads any automaton its plan now holds
    blob = encode(symbols[:short], code)
    assert _outcome(blob) == _single_symbol_outcome(blob) == (
        code, symbols[:short])


@st.composite
def _hostile_container(draw):
    code, symbols = draw(_code_and_symbols())
    blob = bytearray(encode(symbols, code))
    count_at = len(encode([], code)) - 8
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["flip", "truncate", "append",
                                     "descriptor", "count", "random"]))
        if kind == "flip" and blob:
            bit = draw(st.integers(0, 8 * len(blob) - 1))
            blob[bit // 8] ^= 0x80 >> (bit % 8)
        elif kind == "truncate":
            del blob[draw(st.integers(0, len(blob))):]
        elif kind == "append":
            blob += draw(st.binary(min_size=1, max_size=8))
        elif kind == "descriptor" and len(blob) > 5:
            at = draw(st.integers(5, min(len(blob), 16) - 1))
            blob[at:at + 1] = draw(st.binary(min_size=0, max_size=6))
        elif kind == "count" and len(blob) >= count_at + 8:
            count = draw(st.one_of(st.integers(0, 8 * len(blob)),
                                   st.integers(0, 2 ** 64 - 1)))
            blob[count_at:count_at + 8] = struct.pack("<Q", count)
        elif kind == "random":
            blob = bytearray(b"EPC1\x01" + draw(st.binary(max_size=40)))
    return bytes(blob)


@settings(SEEDED, max_examples=500)
@given(_hostile_container())
def test_mutated_containers_decode_or_raise_container_error(blob):
    start = time.perf_counter()
    outcome = _outcome(blob)
    assert time.perf_counter() - start < 0.5
    # the same symbols, or a ContainerError with the same message
    assert outcome == _single_symbol_outcome(blob)
    # wherever the header reads, the reference decoder's symbols, or a
    # refusal
    header = _header(blob)
    if header is not None:
        code, count, payload = header
        want = reference_decode(code.head, _tail(code), payload, count)
        assert (outcome[1] if type(outcome) is tuple else "refused") == want


def _header(blob: bytes):
    """(code, count, payload) of a container whose magic, version,
    descriptor and count read, else None."""
    if blob[:5] != codec.MAGIC + bytes([codec.VERSION]):
        return None
    try:
        end = codec._descriptor_end(blob, 5)
        code = codec._parse_descriptor(blob[5:end])
    except ContainerError:
        return None
    if end + 8 > len(blob):
        return None
    return code, struct.unpack_from("<Q", blob, end)[0], blob[end + 8:]
