import itertools
import math
import random
import struct
import sys
import threading
import time
from unittest import mock

import pytest

from epc import (ContainerError, ExplicitCode, ExplicitFinite,
                 ExponentialArrivals, GolombCode, LengthSeq, Poisson,
                 UnaryEndedCode, UnaryTail, bits, build_unary_ended, codec,
                 decode, encode, exp_huffman, models, optimize_overflow,
                 read_container, shannon_entropy, with_geometric_tail)
from oracles import canonical_words, golomb_word, kraft_fraction


def test_frozen_byte_vector():
    blob = encode([1, 3, 9], GolombCode(3))
    want = b"EPC1\x01\x01\x03" + (3).to_bytes(8, "little") + b"\x53\x80"
    assert blob == want
    code, symbols = read_container(blob)
    assert code == GolombCode(3)
    assert symbols == [1, 3, 9]
    # one vector per descriptor tag and for the run at k = 1
    count = (5).to_bytes(8, "little")
    for code, symbols, want in (
            (ExplicitCode.from_lengths((3, 1, 3, 2)), [1, 3, 0, 2, 1],
             b"EPC1\x01\x02\x04\x03\x01\x03\x02" + count + b"\x5b\x80"),
            (UnaryEndedCode((2, 1, 3), 3), [1, 0, 3, 2, 5],
             b"EPC1\x01\x03\x02\x02\x01\x03\x03" + count + b"\x5d\xbe"),
            (GolombCode(1), [0, 2, 5],
             b"EPC1\x01\x01\x01" + (3).to_bytes(8, "little") + b"\x6f\x80")):
        blob = encode(symbols, code)
        assert blob == want
        assert read_container(blob) == (code, symbols)


def test_empty_stream():
    blob = encode([], GolombCode(2))
    code, symbols = read_container(blob)
    assert code == GolombCode(2) and symbols == []


def test_golomb_roundtrip():
    rng = random.Random(13)
    for k in (1, 2, 3, 7, 64):
        symbols = [rng.randrange(0, 500) for _ in range(2000)]
        assert decode(encode(symbols, GolombCode(k))) == symbols


def test_unary_ended_roundtrip():
    rng = random.Random(14)
    for base in (1.0, 2.0):
        code = build_unary_ended(Poisson(1.0), base)
        symbols = [rng.randrange(0, 40) for _ in range(1500)]
        blob = encode(symbols, code)
        back, decoded = read_container(blob)
        assert decoded == symbols
        assert back == code            # descriptor rebuilds identical words


def test_geometric_tailed_unary_ended_roundtrip():
    # a 12-entry head splits within one symbol of its end, so the
    # container carries a short head descriptor
    rng = random.Random(9)
    head = [math.exp(rng.gauss(0, 1)) for _ in range(12)]
    total = math.fsum(head) + head[-1] * 0.3 / 0.7
    model = with_geometric_tail([w / total for w in head], 0.3)
    code = build_unary_ended(model, 1.5)
    assert code.split <= 12, code
    symbols = rng.choices(range(200), model.masses(200), k=50000)
    assert read_container(encode(symbols, code)) == (code, symbols)


def test_unary_ended_payload_example():
    # two symbols under the base-2 length sequence 2,2,2,3,4,5,...:
    # 2 bits for 0 plus 5 bits for 5 is 7 payload bits, one padded byte
    code = build_unary_ended(Poisson(1.0), 2.0)
    assert code.length_at(0) == 2 and code.length_at(5) == 5
    blob = encode([0, 5], code)
    header_len = len(encode([], code)) - 0  # same header, empty payload
    assert len(blob) - header_len == 1
    assert decode(blob) == [0, 5]


def test_explicit_code_roundtrip():
    code = ExplicitCode.from_lengths((2, 2, 2, 3, 3))
    assert kraft_fraction(code.head) == 1
    symbols = [0, 4, 2, 1, 3, 3, 0]
    assert decode(encode(symbols, code)) == symbols
    got, _ = read_container(encode(symbols, code))
    assert got == code


def test_explicit_code_is_canonical_only():
    canonical = ExplicitCode((1, 2, 2))
    assert canonical.codeword(2) == "11"
    with pytest.raises(ValueError):
        canonical.codeword(3)


def test_explicit_code_is_its_lengths():
    words = ("110", "0", "111", "10")
    code = ExplicitCode.from_lengths((3, 1, 3, 2))
    assert "head_codewords" not in vars(code)   # built on first use only
    assert code == ExplicitCode((3, 1, 3, 2))
    assert hash(code) == hash(ExplicitCode((3, 1, 3, 2)))
    assert code != ExplicitCode.from_lengths((3, 1, 2, 3))
    assert code.codeword(2) == "111" and code.head_codewords == words
    assert repr(code) == "ExplicitCode(lengths=(3, 1, 3, 2))"


def test_a_code_repr_is_its_constructor_call():
    assert repr(UnaryEndedCode((1, 2), 2)) == \
        "UnaryEndedCode(head_lengths=(1, 2), spine_length=2)"
    for code in (ExplicitCode((3, 1, 3, 2)), UnaryEndedCode((1, 2), 2),
                 GolombCode(3)):
        again = eval(repr(code))
        assert type(again) is type(code) and again == code


def test_codes_compare_by_value_whatever_their_class():
    plain = LengthSeq((), UnaryTail(0))
    assert GolombCode(1) == plain and hash(GolombCode(1)) == hash(plain)
    assert ExplicitCode((1, 1)) == LengthSeq((1, 1)) != LengthSeq((1, 2))
    assert UnaryEndedCode((1,), 1) == LengthSeq((1,), UnaryTail(1))
    assert LengthSeq((1, 1)) != (1, 1) and GolombCode(1) != UnaryTail(0)


@pytest.mark.parametrize("count, code", [
    (19, ExplicitCode.from_lengths([1, 3, 3, 3, 4, 4])),
    (3000, ExplicitCode.from_lengths([1, 3, 3, 3, 4, 4])),
    (19, UnaryEndedCode([1, 3, 3, 3], 3)),
    (3000, UnaryEndedCode([1, 3, 3, 3], 3)),
], ids=["19", "3000", "unary-19", "unary-3000"])
def test_explicit_decode_builds_no_codewords(count, code, monkeypatch):
    # 3000 symbols of these codes take the multi-symbol table path
    rng = random.Random(count)
    symbols = rng.choices(range(6), weights=[8, 2, 2, 2, 1, 1], k=count)
    blob = encode(symbols, code)
    codec._plan.cache_clear()   # a cached code may have built its words

    def refuse(*args):
        raise AssertionError("decode built codeword strings")
    for module in (bits, models):   # the codes build from counts
        monkeypatch.setattr(module, "_codewords_of", refuse)
    got, decoded = read_container(blob)
    assert decoded == symbols and got == code
    assert "head_codewords" not in vars(got)


def test_unary_ended_code_is_canonical_only():
    # the container stores lengths only, so a code is its lengths, and its
    # words are the canonical ones under an all-1s spine
    code = UnaryEndedCode((2, 2), 1)
    assert code == UnaryEndedCode((2, 2), 1)
    assert (code.head_codewords, code.tail_prefix) == (("00", "01"), "1")
    assert decode(encode([0, 1, 2, 5], code)) == [0, 1, 2, 5]


def test_incomplete_code_bad_payload():
    # Kraft 1/2 leaves bit patterns no codeword matches
    code = ExplicitCode.from_lengths((2, 2))
    blob = encode([0, 1], code)
    bad = bytearray(blob)
    bad[-1] = 0b11000000                  # "11" prefixes nothing
    with pytest.raises(ContainerError):
        decode(bytes(bad))


def test_symbol_out_of_range():
    code = ExplicitCode.from_lengths((1, 1))
    with pytest.raises(ValueError):
        encode([2], code)
    with pytest.raises(ValueError):
        encode([-1], GolombCode(3))


def test_encode_refuses_non_integral_symbols():
    # each used to be truncated by int(): 2.7 -> 2, "3" -> 3
    for bad in (2.7, 2.0, "3", None):
        with pytest.raises(ValueError, match="symbols are integers"):
            encode([1, bad], GolombCode(1))
    # anything operator.index accepts is an integer symbol
    assert decode(encode([True, 2, 2], GolombCode(1))) == [1, 2, 2]


def test_encode_takes_a_generator():
    symbols = (i % 7 for i in range(50))
    assert decode(encode(symbols, GolombCode(2))) == [i % 7 for i in range(50)]


def test_container_error_taxonomy():
    good = encode([1, 3, 9], GolombCode(3))
    with pytest.raises(ContainerError):
        decode(b"XXXX" + good[4:])                    # magic
    with pytest.raises(ContainerError):
        decode(good[:4] + b"\x02" + good[5:])         # version
    with pytest.raises(ContainerError):
        decode(good[:3])                              # truncated header
    with pytest.raises(ContainerError):
        decode(good[:6])                              # truncated descriptor
    with pytest.raises(ContainerError):
        decode(good[:-1])                             # truncated payload
    with pytest.raises(ContainerError):
        decode(good[:5] + b"\x7f" + good[6:])         # unknown code tag
    with pytest.raises(ContainerError):
        decode(good[:6] + b"\x00" + good[7:])         # k = 0 descriptor
    with pytest.raises(ContainerError):
        decode(good + b"\x00")                        # trailing bytes
    padded = good[:-1] + bytes([good[-1] | 0x01])
    with pytest.raises(ContainerError):
        decode(padded)                                # nonzero padding


def test_truncated_varint():
    head = b"EPC1\x01\x02" + b"\xff"    # explicit count varint cut short
    with pytest.raises(ContainerError):
        decode(head)


def test_declared_count_is_authoritative():
    good = encode([1, 3, 9], GolombCode(3))
    # a count the payload cannot cover is an error
    broken = good[:7] + (20).to_bytes(8, "little") + good[15:]
    with pytest.raises(ContainerError):
        decode(broken)
    # one extra declared symbol can legally swallow the zero padding,
    # because an all-zeros word is a valid codeword; the count decides
    plus_one = good[:7] + (4).to_bytes(8, "little") + good[15:]
    assert decode(plus_one) == [1, 3, 9, 0]


def test_unary_descriptor_roundtrip():
    code = UnaryEndedCode((1, 2), 2)
    blob = encode([0, 1, 2, 5], code)
    got, symbols = read_container(blob)
    assert got == code and symbols == [0, 1, 2, 5]


def _refused_by_container(code, message):
    """encode and decode refuse the code's container for the same reason:
    encode parses its own descriptor."""
    with pytest.raises(ValueError) as refused:
        encode([0], code)
    assert str(refused.value) == f"no container holds this code: {message}"
    codec._plan.cache_clear()
    blob = (b"EPC1\x01" + codec._descriptor(code) + struct.pack("<Q", 1)
            + b"\x00")
    with pytest.raises(ContainerError) as bad:
        decode(blob)
    assert str(bad.value) == message


def test_explicit_lengths_capped_at_alphabet_size():
    assert ExplicitCode.from_lengths((1, 2)).head_codewords == ("0", "10")
    # Kraft-valid codes over the cap, which only a container refuses
    for code, longest in ((ExplicitCode.from_lengths((1, 3)), 3),
                          (ExplicitCode((1, 3)), 3),
                          (UnaryEndedCode((1,), 5), 5)):
        _refused_by_container(code, f"bad code descriptor: codeword length "
                              f"{longest} exceeds the alphabet size 2")


# varints: 2**23 is 80 80 80 04, 2**40 is 80 80 80 80 80 20
@pytest.mark.parametrize("descriptor", [
    b"\x02\x02\x01\x80\x80\x80\x04",            # explicit (1, 2**23)
    b"\x02\x02\x01\x80\x80\x80\x80\x80\x20",    # explicit (1, 2**40)
    b"\x03\x00\x01\x80\x80\x80\x80\x80\x20",    # unary-ended, spine 2**40
], ids=["explicit-2^23", "explicit-2^40", "unary-ended-2^40"])
def test_overlong_declared_length_fails_fast(descriptor):
    blob = b"EPC1\x01" + descriptor + struct.pack("<Q", 1) + b"\x00"
    start = time.perf_counter()
    with pytest.raises(ContainerError, match="alphabet size"):
        decode(blob)
    assert time.perf_counter() - start < 0.05


def test_truncated_inside_last_codeword():
    # Golomb k=3: 00 00 00, then "10" whose suffix bit is missing
    blob = b"EPC1\x01\x01\x03" + struct.pack("<Q", 4) + b"\x02"
    with pytest.raises(ContainerError, match="truncated"):
        decode(blob)
    # lengths (2, 2): four words fill the byte, the fifth and sixth do not
    blob = encode([0, 0, 0, 0], ExplicitCode.from_lengths((2, 2)))
    blob = blob[:-9] + struct.pack("<Q", 6) + blob[-1:]
    with pytest.raises(ContainerError, match="truncated"):
        decode(blob)


def test_count_beyond_payload_bits_fails_fast():
    blob = b"EPC1\x01\x01\x03" + struct.pack("<Q", 2 ** 64 - 1) + b"\x00"
    start = time.perf_counter()
    with pytest.raises(ContainerError, match="exceeds"):
        decode(blob)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("code", [
    ExplicitCode.from_lengths(list(range(1, 1000)) + [999]),
    UnaryEndedCode(range(1, 100), 99),
    UnaryEndedCode([1, *range(3, 101), 100], 2),
], ids=["explicit-1..999", "unary-ended-long-spine", "unary-ended-short-spine"])
def test_deep_code_roundtrip(code):
    # mostly short words, plus words on both sides of the 64-bit window
    rng = random.Random(15)
    symbols = [min(int(rng.expovariate(0.5)), 98) for _ in range(2000)]
    symbols += [62, 63, 64, 65, 98, 0]
    if isinstance(code, UnaryEndedCode):
        symbols += [len(code.head), len(code.head) + 70]
    blob = encode(symbols, code)
    bits = "".join(code.codeword(s) for s in symbols)
    bits += "0" * (-len(bits) % 8)
    assert blob.endswith(int(bits, 2).to_bytes(len(bits) // 8, "big"))
    assert read_container(blob) == (code, symbols)


# --------------------------------------------------- multi-symbol table path

def _table(code, t):
    return codec._decode_table(
        codec._canonical_words(codec._Plan(code), t), t)


def _no_table_run(*args):
    raise AssertionError("the single-symbol oracle read a table")


def _single_symbol(blob):
    """The oracle: the same container, its plan's table neither built nor
    read, whatever the plan holds."""
    with mock.patch.object(codec, "_plan_table", return_value=(0, None)), \
            mock.patch.object(codec, "_table_run", _no_table_run):
        return read_container(blob)


def _filled(code, t):
    """The reference fill: code space, in parts of 2**t, that the words of
    at most t bits fill, summed word by word over their listing."""
    words = codec._canonical_words(codec._Plan(code), t)
    return sum(1 << t - length for _, length, _ in words)


def _narrowest_by_words(code):
    return next((t for t in (8, 10, 12, 14)
                 if 8 * _filled(code, t) >= 7 << t), 0)


def _built_widths(code, counts, rng):
    """Decode one container per count under code from a cold plan, each
    against the single-symbol oracle; -> the table width each decoded with,
    checking that a table is built only by a container of at least 2**t
    symbols, fewer than 2 entries per symbol."""
    codec._plan.cache_clear()
    widths = []
    for count in counts:
        symbols = [min(int(rng.expovariate(0.5)), 40) for _ in range(count)]
        blob = encode(symbols, code)
        before = codec._plan(codec._descriptor(code)).table[0]
        assert read_container(blob) == _single_symbol(blob) == (code, symbols)
        t = codec._plan(codec._descriptor(code)).table[0]
        if t != before:
            assert count >> t and (2 << t) - 1 < 2 * count
        widths.append(t)
    return widths


def test_table_width_rule():
    # the code's narrowest width, built by the first container of at least
    # 2**t symbols; a code that fills 8 bits takes 10 from 1024 symbols
    rng = random.Random(24)
    assert codec._Plan(GolombCode(1)).narrowest == 8
    assert _built_widths(GolombCode(1), (255, 256, 1023, 1024, 10 ** 5, 16),
                         rng) == [0, 8, 8, 10, 10, 10]
    # no gate on the shortest word: Golomb k = 64 words are 7 bits or more,
    # one per lookup, and fill 15/16 of code space at t = 10
    assert codec._Plan(GolombCode(64)).narrowest == 10
    assert _built_widths(GolombCode(64), (255, 1023, 1024, 40), rng) == [
        0, 0, 10, 10]
    # 2**t entries at width t, 2**(t + 1) - 1 over the widths built
    assert len(_table(GolombCode(3), 10)) == 1 << 10


def test_golomb_table_fill_rule():
    # Golomb words of at most t bits fill 1 - k / 2**t of code space, so
    # the width is past t when that is below 7/8; word by word, for every k
    # the rule separates at t = 8 and 10
    for t in (8, 10):
        for k in range(1, (1 << t - 3) + 40):
            # quotients up to t hold every word of at most t bits
            lengths = [GolombCode(k).length_at(j) for j in range(k * (t + 1))]
            filled = sum(1 << t - n for n in lengths if n <= t)
            assert filled == (1 << t) - k == _filled(GolombCode(k), t)
            narrowest = codec._Plan(GolombCode(k)).narrowest
            assert narrowest == _narrowest_by_words(GolombCode(k))
            assert (0 < narrowest <= t) == (8 * filled >= 7 << t)


def _random_codes(rng):
    """Complete explicit codes of 2 to 4096 symbols, unary-ended codes cut
    from them, and Golomb codes up to and far past the widest table."""
    for _ in range(60):
        n = rng.choice((2, 3, rng.randrange(2, 300), rng.randrange(2, 4097)))
        spread = rng.choice((0.3, 1.0, 2.5))
        weights = [rng.lognormvariate(0, spread) for _ in range(n)]
        if rng.random() < 0.3:
            weights = [1 / (i + 1) ** spread for i in range(n)]
        lengths = list(exp_huffman(weights, 1.0).lengths)
        yield ExplicitCode.from_lengths(lengths)
        spine = lengths.pop(rng.randrange(n))
        yield UnaryEndedCode(lengths, spine)
    for mean in (0.5, 1.0, 4.0):
        yield build_unary_ended(Poisson(mean), 2.0)
    for k in (*range(1, 40), 2 ** 10 - 1, 2 ** 62,
              *(rng.randrange(1, 2 << rng.randrange(20)) for _ in range(60))):
        yield GolombCode(k)


def test_narrowest_matches_the_word_by_word_fill():
    # the width read off the rows in closed form is the one the words of
    # at most t bits, listed one by one, give
    for code in _random_codes(random.Random(25)):
        assert codec._Plan(code).narrowest == _narrowest_by_words(code), code


def _zipf_code(size):
    """The base-1 Huffman code of Zipf(size), as the stream benchmark's."""
    probs = [1.0 / (i + 1) for i in range(size)]
    total = sum(probs)
    return ExplicitCode(exp_huffman([p / total for p in probs], 1.0).lengths)


@pytest.mark.parametrize("code", [
    _zipf_code(256), _zipf_code(4096), GolombCode(64), GolombCode(1023),
    GolombCode(2 ** 62)],
    ids=["zipf256", "zipf4096", "golomb64", "golomb1023", "golomb2**62"])
def test_the_table_lists_the_words_the_code_writes(code):
    # the oracles' words of at most t bits, in symbol order; a Golomb run's
    # lengths never fall, so its listing ends before the first longer word
    if code.tail is None:
        words = list(canonical_words(code.head))
    else:
        words = list(itertools.takewhile(
            lambda word: len(word) <= 14,
            (golomb_word(j, code.tail.k) for j in itertools.count())))
    assert bool(words) == (code != GolombCode(2 ** 62))
    for t in (8, 10, 12, 14):
        listed = codec._canonical_words(codec._Plan(code), t)
        assert sorted(listed) == sorted(
            (int(word, 2), len(word), i) for i, word in enumerate(words)
            if len(word) <= t), t


def test_short_container_reads_the_plans_table(monkeypatch):
    codec._plan.cache_clear()
    runs = []
    real_run = codec._table_run

    def counted(*args):
        runs.append(args[3])        # stop
        return real_run(*args)
    monkeypatch.setattr(codec, "_table_run", counted)
    rng = random.Random(19)
    code = GolombCode(64)
    short = [rng.randrange(500) for _ in range(40)]
    assert decode(encode(short, code)) == short
    assert runs == []               # a short container builds no table
    for count, width in ((1000, 0), (5000, 10), (1000, 10), (40, 10)):
        symbols = [rng.randrange(500) for _ in range(count)]
        blob = encode(symbols, code)
        runs.clear()
        assert read_container(blob) == _single_symbol(blob) == (code, symbols)
        # t = 8 is refused at 3/4 of code space; t = 10, once built, is read
        # by every later container
        assert codec._plan(blob[5:7]).table[0] == width
        assert bool(runs) == bool(width) and all(
            stop == count - 10 for stop in runs)


def test_table_needs_short_words_to_fill_code_space():
    # words of at most 8 bits fill 3/4 of code space: the table is 10 bits
    code = ExplicitCode.from_lengths([2, 2, 2] + [10] * 256)
    assert 4 * _filled(code, 8) == 3 << 8
    assert codec._Plan(code).narrowest == 10
    assert codec._Plan(ExplicitCode.from_lengths(
        [2, 2, 2] + [5] * 8)).narrowest == 8
    # "0", then 15-bit words: half of code space at every width, so none
    assert codec._Plan(ExplicitCode.from_lengths(
        [1] + [15] * 2 ** 14)).narrowest == 0


def test_table_entries_golomb():
    table = _table(GolombCode(3), 8)
    # 00 | 010 | 011: symbols 0, 1, 2 in 8 bits
    assert table["00010011"] == ((0, 1, 2), 8)
    # 10 00 ... : one unary step then remainder 0 is symbol 3, then 0 ...
    assert table["10000000"] == ((3, 0, 0), 7)
    # eight ones: the first word is longer than 8 bits
    assert table["11111111"] == ((), 0)


def test_table_tail_word_inside_window():
    # head "0", "10", spine "11": symbol 2 + j is "11", j ones, then "0"
    code = UnaryEndedCode((1, 2), 2)
    table = _table(code, 8)
    assert table["11011010"] == ((2, 2, 1), 8)
    assert table["11111100"] == ((6, 0), 8)           # 1111110, then 0
    assert table["11111110"] == ((7,), 8)             # the longest that fits
    assert table["11111111"] == ((), 0)               # the spine runs on
    rng = random.Random(16)
    symbols = [min(int(rng.expovariate(0.6)), 40) for _ in range(3000)]
    blob = encode(symbols, code)
    assert read_container(blob) == _single_symbol(blob) == (code, symbols)


def test_table_head_word_longer_than_window():
    # a chain 1, 2, ..., 15, 15: symbols 8 and up are longer than t = 8
    code = ExplicitCode.from_lengths(list(range(1, 16)) + [15])
    table = _table(code, 8)
    assert table["11111111"] == ((), 0)
    assert table["11111110"] == ((7,), 8)
    assert table["01011010"] == ((0, 1, 2, 1), 8)     # 0 | 10 | 110 | 10
    assert table["01011011"] == ((0, 1, 2), 6)        # then part of 11...
    rng = random.Random(17)
    symbols = [min(int(rng.expovariate(0.4)), 15) for _ in range(3000)]
    blob = encode(symbols, code)
    assert read_container(blob) == _single_symbol(blob) == (code, symbols)


def test_table_unary_spine_longer_than_window():
    # a 9-bit spine: every tail word is past the table, the head is in it
    code = UnaryEndedCode(range(1, 10), 9)
    table = _table(code, 8)
    assert table["11111111"] == ((), 0)
    assert table["11101100"] == ((3, 2, 0), 8)        # 1110 | 110 | 0
    rng = random.Random(18)
    symbols = [int(rng.expovariate(0.5)) for _ in range(3000)]
    blob = encode(symbols, code)
    assert read_container(blob) == _single_symbol(blob) == (code, symbols)


# "0", "10", then 2048 words of 13 bits: the words of at most 12 bits fill
# 3/4 of code space, so only a 14-bit table is built
WIDE_CODE = ExplicitCode.from_lengths([1, 2] + [13] * 2048)


@pytest.mark.parametrize("code, count, width", [
    pytest.param(code, count, width, id=str(count)) for code, count, width in (
        (GolombCode(1), 513, 8),
        (GolombCode(1), 4099, 10),
        (WIDE_CODE, (1 << 14) + 3, 14))])
def test_table_stops_before_the_count(code, count, width):
    # both codes write 0 as "0", so every padding bit would read as one
    # more symbol 0 if the table ran up to the count
    codec._plan.cache_clear()
    blob = encode([0] * count, code)
    count_at = len(encode([], code)) - 8
    nbits = 8 * (len(blob) - count_at - 8)
    assert nbits - count == 8 - count % 8
    assert decode(blob) == [0] * count
    assert codec._plan(blob[5:count_at]).table[0] == width
    # the count decides: the padding holds up to nbits - count more words
    widened = (blob[:count_at] + struct.pack("<Q", nbits)
               + blob[count_at + 8:])
    assert decode(widened) == _single_symbol(widened)[1] == [0] * nbits
    # a one in the padding is still refused, inside or past a table window
    for bit in (1, 8 - count % 8):
        bad = blob[:-1] + bytes([blob[-1] | 1 << (bit - 1)])
        with pytest.raises(ContainerError, match="nonzero padding"):
            decode(bad)


def test_refused_table_widens_with_the_container(monkeypatch):
    # the base-1 Huffman code of Zipf(4096) fills less than 7/8 of code
    # space at t = 8 to 12 and 95% at t = 14, its width
    probs = [1.0 / (i + 1) for i in range(4096)]
    total = sum(probs)
    code = ExplicitCode.from_lengths(
        exp_huffman([p / total for p in probs], 1.0).lengths)
    for t in (8, 10, 12):
        assert 8 * _filled(code, t) < 7 << t
    assert 100 * _filled(code, 14) >= 95 << 14
    assert codec._Plan(code).narrowest == 14
    codec._plan.cache_clear()
    listed = []
    real_words = codec._canonical_words

    def recording(*args):
        listed.append(args[-1])
        return real_words(*args)
    runs = []
    real_run = codec._table_run

    def counted(*args):
        runs.append(args[4])        # t
        return real_run(*args)
    monkeypatch.setattr(codec, "_canonical_words", recording)
    monkeypatch.setattr(codec, "_table_run", counted)
    rng = random.Random(23)
    # no words are listed until a container of 2**14 symbols builds the
    # table; 600 symbols then decode through it
    for count, widths, width in ((600, [], 0), (4096, [], 0),
                                 (16383, [], 0), (16384, [14], 14),
                                 (600, [], 14)):
        symbols = rng.choices(range(4096), probs, k=count)
        blob = encode(symbols, code)
        listed.clear()
        runs.clear()
        assert read_container(blob) == _single_symbol(blob) == (code, symbols)
        assert listed == widths
        assert codec._plan(codec._descriptor(code)).table[0] == width
        assert bool(runs) == bool(width) and set(runs) <= {width}
        # fewer table entries than 2 per symbol of the container that
        # built them, over every width
        if widths:
            assert (2 << width) - 1 < 2 * count


def test_table_window_past_the_payload_reads_padding():
    # "0", "10", "110": "111" matches nothing. 502 words "10", then "111"
    # and padding; 600 declared symbols keep the table running at the end,
    # where its window reads past the payload into the padding zeros
    code = ExplicitCode.from_lengths((1, 2, 3))
    assert codec._Plan(code).narrowest == 8          # 7/8: "111" is unmatched
    bits = "10" * 502 + "1110"
    blob = (encode([], code)[:-8] + struct.pack("<Q", 600)
            + int(bits, 2).to_bytes(len(bits) // 8, "big"))
    with pytest.raises(ContainerError, match="does not match") as got:
        decode(blob)
    with pytest.raises(ContainerError) as want:
        _single_symbol(blob)
    assert str(got.value) == str(want.value)


# ------------------------------------------------------------- decode plans

ZIPF_CODE = ExplicitCode.from_lengths(
    [2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 10, 10])


@pytest.mark.parametrize("code", [GolombCode(3), ZIPF_CODE,
                                  UnaryEndedCode((1, 2), 2)],
                         ids=["golomb", "explicit", "unary-ended"])
def test_decode_accepts_bytes_bytearray_memoryview(code):
    rng = random.Random(20)
    symbols = [rng.randrange(20) for _ in range(600)]
    blob = encode(symbols, code)
    for warm in (False, True):
        for kind in (bytes, bytearray, memoryview):
            if not warm:
                codec._plan.cache_clear()
            assert read_container(kind(blob)) == (code, symbols)


def test_plan_cache_is_bounded():
    codec._plan.cache_clear()
    for k in range(1, 2 * codec._PLANS + 2):
        assert decode(encode([k, 0, 2 * k], GolombCode(k))) == [k, 0, 2 * k]
    info = codec._plan.cache_info()
    assert info.currsize == info.maxsize == codec._PLANS
    assert info.misses == 2 * codec._PLANS + 1


@pytest.mark.parametrize("descriptor, message", [
    (b"\x01\x00", "bad code descriptor: k must be a positive integer"),
    (b"\x02\x03\x01\x01\x01", "bad code descriptor: lengths violate"),
    (b"\x03\x00\x01\x02", "bad code descriptor: head lengths plus spine"),
    (b"\x03\x00\x01\x00", "bad code descriptor: spine length must be "),
], ids=["golomb-k0", "explicit-kraft", "unary-incomplete", "unary-spine-0"])
def test_refused_descriptor_is_not_cached(descriptor, message):
    codec._plan.cache_clear()
    blob = b"EPC1\x01" + descriptor + struct.pack("<Q", 1) + b"\x00"
    messages = []
    for _ in range(2):
        with pytest.raises(ContainerError, match=message) as got:
            decode(blob)
        messages.append(str(got.value))
    assert messages[0] == messages[1]
    assert codec._plan.cache_info().currsize == 0


@pytest.mark.parametrize("code", [GolombCode(3), ZIPF_CODE],
                         ids=["golomb", "explicit"])
def test_warm_plan_keeps_every_container_error(code):
    rng = random.Random(21)
    symbols = [rng.randrange(20) for _ in range(700)]
    good = encode(symbols, code)
    count_at = len(encode([], code)) - 8
    nbits = 8 * (len(good) - count_at - 8)
    bad = {
        "truncated payload": good[:-1],
        "nonzero padding bits": good[:-1] + bytes([good[-1] | 1]),
        "extra bytes after the payload": good + b"\x00",
        f"declared count {nbits + 1} exceeds the {nbits} payload bits":
            good[:count_at] + struct.pack("<Q", nbits + 1)
            + good[count_at + 8:],
    }
    for message, blob in bad.items():
        codec._plan.cache_clear()
        with pytest.raises(ContainerError) as cold:
            decode(blob)
        assert str(cold.value) == message
        assert decode(good) == symbols
        assert codec._plan(good[5:count_at]).table[1]   # warm, with a table
        with pytest.raises(ContainerError) as warm:
            decode(blob)
        assert str(warm.value) == message


def test_decoded_codes_are_equal_and_frozen():
    blob = encode([0, 5, 19], ZIPF_CODE)
    first, _ = read_container(blob)
    second, _ = read_container(bytearray(blob))
    assert first == second == ZIPF_CODE
    assert isinstance(first.head, tuple)
    with pytest.raises(TypeError):
        first.head[2] = 0
    # the plan's canonical order is symbol order for a nondecreasing head
    order = codec._plan(codec._descriptor(first)).order
    assert order == list(range(len(first.head)))
    unsorted = UnaryEndedCode((2, 1), 2)
    assert codec._plan(codec._descriptor(unsorted)).order == [1, 0]


def test_threads_share_plans():
    # more codes than the cache holds, so plans are evicted and rebuilt
    # while other threads read them
    codes = [GolombCode(k) for k in range(1, codec._PLANS + 5)]
    codes += [ZIPF_CODE, UnaryEndedCode((1, 2), 2)]
    rng = random.Random(22)
    blobs = []
    for i, code in enumerate(codes):
        symbols = [rng.randrange(20) for _ in range((16, 600, 5000)[i % 3])]
        blobs.append((encode(symbols, code), code, symbols))
    codec._plan.cache_clear()
    failures = []

    def work(seed):
        order = random.Random(seed)
        for _ in range(3):
            for blob, code, symbols in order.sample(blobs, len(blobs)):
                if read_container(blob) != (code, symbols):
                    failures.append(code)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_encode_names_a_symbol_whose_codeword_cannot_be_built():
    with pytest.raises(ValueError, match=f"symbol {10 ** 30} "):
        encode([10 ** 30], GolombCode(1))
    # refused before the word is built: a word of more than 2**32 ones
    # would take more than 4 GB as a string
    cap = models._MOST_ONES
    for code, symbol in ((GolombCode(1), 10 ** 12), (GolombCode(1), 10 ** 19),
                         (GolombCode(1), cap + 1),
                         (UnaryEndedCode((1,), 1), cap + 1),
                         (GolombCode(3), 3 * cap + 3)):
        assert code.length_at(symbol) > cap + 1
        with pytest.raises(ValueError) as refused:
            encode([symbol], code)
        assert str(refused.value) == \
            f"symbol {symbol} has a codeword too long to build"


@pytest.mark.parametrize("plain, container, symbols", [
    (LengthSeq((3, 1, 3, 2)), ExplicitCode.from_lengths((3, 1, 3, 2)),
     [1, 3, 0, 2, 1]),
    (LengthSeq((2, 1, 3), UnaryTail(3)),
     UnaryEndedCode((2, 1, 3), 3), [1, 0, 3, 2, 5]),
    (LengthSeq((), UnaryTail(0)), GolombCode(1), [0, 2, 5]),
    (LengthSeq((), UnaryTail(0, k=3)), GolombCode(3), [1, 3, 9, 40]),
], ids=["explicit", "unary-ended", "unary", "golomb3"])
def test_a_plain_code_encodes_as_its_container_class(plain, container,
                                                     symbols):
    # the descriptor's tag is read off the shape, not the class
    assert type(plain) is LengthSeq
    blob = encode(symbols, plain)
    assert blob == encode(symbols, container)
    got, decoded = read_container(blob)
    assert type(got) is type(container) and decoded == symbols
    assert got == plain == container
    assert hash(got) == hash(plain) == hash(container)


def _lognormal(size):
    rng = random.Random(9)
    return [math.exp(1.25 * rng.gauss(0, 1)) for _ in range(size)]


@pytest.mark.parametrize("weights", [
    [1 / (i + 1) for i in range(64)], _lognormal(1024)],
    ids=["zipf64", "lognormal1024"])
def test_an_overflow_optimal_code_encodes_as_its_explicit_code(weights):
    # a finite source's overflow-optimal code is a plain LengthSeq; its
    # descriptor is read off its shape, so it encodes to the bytes of its
    # ExplicitCode
    model = ExplicitFinite([w / math.fsum(weights) for w in weights])
    gap = shannon_entropy(model) / 0.8
    code = optimize_overflow(model, ExponentialArrivals(1 / gap)).code
    assert type(code) is LengthSeq and code.tail is None, repr(code)
    symbols = random.Random(9).choices(range(len(weights)), model.probs,
                                       k=20000)
    blob = encode(symbols, code)
    assert blob == encode(symbols, ExplicitCode(code.head))
    got, decoded = read_container(blob)
    assert decoded == symbols and got == code
    assert hash(got) == hash(code)


@pytest.mark.parametrize("code, message", [
    (LengthSeq((1, 3), UnaryTail(2)),
     "bad code descriptor: head lengths plus spine must be Kraft-complete"),
    (LengthSeq((0,)), "bad code descriptor: lengths must be positive"),
    (GolombCode(2 ** 70), "header varint too long"),
    (ExplicitCode(()), "bad code descriptor: need at least one codeword"),
], ids=["incomplete-spine", "zero-length", "golomb-2**70", "no-words"])
def test_encode_refuses_what_decode_refuses(code, message):
    # a container encode would write, decode refuses with the same reason
    _refused_by_container(code, message)


@pytest.mark.parametrize("code, message", [
    (LengthSeq((1,), UnaryTail(1, k=3)),
     "no container holds a Golomb-3 run behind a head or spine"),
    (LengthSeq((), UnaryTail(2)),
     "no container holds a unary run behind a spine with no head"),
], ids=["golomb-behind-a-head", "unary-behind-no-head"])
def test_encode_refuses_a_shape_no_container_holds(code, message):
    with pytest.raises(ValueError) as refused:
        encode([0], code)
    assert str(refused.value) == message


@pytest.mark.parametrize("code", ["golomb", 3, None, (1, 2)])
def test_encode_refuses_an_argument_that_is_not_a_code(code):
    with pytest.raises(TypeError) as refused:
        encode([0], code)
    assert str(refused.value) == f"not a code: {type(code).__name__} {code!r}"


def test_widest_golomb_parameter_round_trips():
    # 2**69 takes the ten varint bytes decode reads at most
    code = GolombCode(2 ** 69)
    symbols = [0, 5, 2 ** 69 + 3, 2 ** 70]
    assert read_container(encode(symbols, code)) == (code, symbols)
