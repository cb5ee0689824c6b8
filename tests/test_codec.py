import heapq
import itertools
import math
import os
import pathlib
import random
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest

from epc import (ContainerError, ExplicitCode, ExplicitFinite,
                 ExponentialArrivals, GolombCode, LengthSeq, Poisson,
                 UnaryEndedCode, UnaryTail, bits, build_unary_ended,
                 build_unary_ended_mmr, codec, decode, encode, exp_huffman,
                 models, optimize_overflow, read_container, shannon_entropy,
                 with_geometric_tail)
from oracles import (canonical_words, container_words, kraft_fraction,
                     reference_decode)


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
    assert code == ExplicitCode((3, 1, 3, 2))
    assert hash(code) == hash(ExplicitCode((3, 1, 3, 2)))
    assert code != ExplicitCode.from_lengths((3, 1, 2, 3))
    assert code.codeword(2) == "111"
    assert tuple(map(code.codeword, range(len(code.head)))) == words
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
    # 3000 symbols of these codes build and walk the plan's automaton
    rng = random.Random(count)
    symbols = rng.choices(range(6), weights=[8, 2, 2, 2, 1, 1], k=count)
    blob = encode(symbols, code)
    codec._plan.cache_clear()   # a cached code may have built its words

    write = models.LengthSeq.codeword

    def refuse(self, i):    # the run's words the automaton may list
        if i < len(self.head):
            raise AssertionError("decode built codeword strings")
        return write(self, i)
    # the head's words build from its rows' counts
    monkeypatch.setattr(models.LengthSeq, "codeword", refuse)
    try:
        got, decoded = read_container(blob)
    finally:    # no plan keeps the patched writer
        codec._plan.cache_clear()
    assert decoded == symbols and got == code


def test_unary_ended_code_is_canonical_only():
    # the container stores lengths only, so a code is its lengths, and its
    # words are the canonical ones under an all-1s spine
    code = UnaryEndedCode((2, 2), 1)
    assert code == UnaryEndedCode((2, 2), 1)
    assert tuple(map(code.codeword, range(len(code.head)))) == ("00", "01")
    assert code.tail_prefix == "1"
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
    code = ExplicitCode.from_lengths((1, 2))
    assert tuple(map(code.codeword, range(len(code.head)))) == ("0", "10")
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


def _deep_container(lengths, payload: bytes, count: int = 3) -> bytes:
    """An explicit-code container written by hand, header field by field:
    encode would list every head word of the code."""
    return (codec.MAGIC + bytes([codec.VERSION, 0x02])
            + bits.uleb128_encode(len(lengths))
            + bits.uleb128_encode_all(lengths)
            + struct.pack("<Q", count) + payload)


def _caterpillar(n):
    """Lengths 1, 2, ..., n - 1, n - 1: Kraft-complete, its longest word
    n - 1 bits, a merge tree's shape on weights falling fast enough."""
    return [*range(1, n), n - 1]


# "0", "10", "110" and the padding
_FIRST_THREE = bytes([0b01011000])


def _in_a_capped_child(script: str, stdin: bytes = b"") -> bytes:
    """What script writes to stdout, run by a child process that caps its
    own address space at 1 GiB first and imports this epc."""
    capped = ("import resource, sys\ncap = 1 << 30\n"
              "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n" + script)
    root = str(pathlib.Path(codec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [root, *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", capped], input=stdin, env=env,
                         capture_output=True, timeout=120)
    assert out.returncode == 0, out.stderr.decode()[-2000:]
    return out.stdout


def test_a_deep_container_decodes_under_a_one_gib_address_space_cap():
    # 180 116 bytes; a plan holding each row's end at the longest word's
    # 65 535 bits would hold about n**2 / 2 bits, past the cap
    blob = _deep_container(_caterpillar(65536), _FIRST_THREE)
    assert len(blob) == 180116
    child = "from epc import decode\nprint(decode(sys.stdin.buffer.read()))"
    assert _in_a_capped_child(child, blob) == b"[0, 1, 2]\n"


def test_a_deep_code_encodes_under_a_one_gib_address_space_cap():
    # each head word is written from its row, so no listing of every head
    # word, about n**2 / 2 characters, is built
    child = ("from epc import ExplicitCode, encode\nn = 65536\n"
             "sys.stdout.buffer.write(encode([0, 1, 2], "
             "ExplicitCode([*range(1, n), n - 1])))")
    assert _in_a_capped_child(child) == \
        _deep_container(_caterpillar(65536), _FIRST_THREE)


def _retained(f, *args):
    """(f(*args), the bytes it left allocated), from a cold plan cache."""
    codec._plan.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = f(*args)
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        codec._plan.cache_clear()


def test_a_deep_plan_retains_small_counts():
    # the plan of a descriptor of 32 768 lengths, longest 32 767 bits, keeps
    # a few small integers per row, not rows as wide as the longest word
    blob = _deep_container(_caterpillar(32768), _FIRST_THREE)
    decoded, retained = _retained(decode, blob)
    assert decoded == [0, 1, 2]
    assert retained <= 16 << 20


def test_a_deep_code_encodes_in_small_counts():
    # encode keeps the plan and the words it writes, not every head word
    code = ExplicitCode(_caterpillar(32768))
    blob, retained = _retained(encode, [0, 1, 2], code)
    assert blob == _deep_container(_caterpillar(32768), _FIRST_THREE)
    assert retained <= 16 << 20


def test_a_word_past_64_bits_is_written_in_work_linear_in_its_length():
    # the offset recurrence run backward from the word's row keeps d below
    # the head's size; a walk of the shorter rows' first words shifts an
    # integer as long as the word once per row
    n = 262144
    code = ExplicitCode(_caterpillar(n))
    code._canonical     # the record, built once per code
    start = time.process_time()
    word = code.codeword(n - 1)
    assert time.process_time() - start < 1.0
    assert word == "1" * (n - 1)


@pytest.mark.parametrize("code", [
    ExplicitCode(list(range(1, 300)) + [299]),
    UnaryEndedCode(tuple(range(2, 200)) + (199,), 1),
    UnaryEndedCode([1, *range(3, 101), 100], 2),
    ExplicitCode([*range(1, 64), 65, *[70] * 96]),
], ids=["explicit-1..299", "unary-ended-1-bit-spine", "unary-ended-2-bit-spine",
        "explicit-96-words-of-70"])
def test_words_past_the_window_match_a_prefix_oracle(code):
    # words of up to 299 bits read by offsets from the longer rows' counts;
    # the 1-bit spine is shorter than every row, so only its leading one
    # tells a spine word from a head word past the window. Past the one
    # 65-bit word, the 70-bit words' offsets run to 2 above its count
    rng = random.Random(47)
    top = len(code.head) + (20 if code.tail else 0)
    head = len(encode([], code))
    tail = (code.tail.spine, code.tail.k) if code.tail else None
    blobs = []
    for _ in range(6):
        symbols = [rng.randrange(top) if rng.random() < 0.4
                   else min(int(rng.expovariate(0.3)), top - 1)
                   for _ in range(rng.randrange(1, 300))]
        good = encode(symbols, code)
        blobs.append(good)
        for _ in range(10):
            at = rng.randrange(8 * head, 8 * len(good))
            flipped = bytearray(good)
            flipped[at // 8] ^= 0x80 >> at % 8
            blobs += [bytes(flipped), good[:rng.randrange(head, len(good))]]
    decoded = 0
    for blob in blobs:
        codec._plan.cache_clear()
        count = struct.unpack_from("<Q", blob, head - 8)[0]
        want = reference_decode(code.head, tail, blob[head:], count)
        try:
            got = _single_symbol(blob)[1]
        except ContainerError as exc:
            assert want == "refused"
            with pytest.raises(ContainerError) as again:
                decode(blob)
            assert str(again.value) == str(exc)
            continue
        assert decode(blob) == got == want
        decoded += 1
    assert decoded >= 6


def test_an_incomplete_deep_code_refuses_a_word_past_its_rows():
    # lengths 1, 3, 4, ..., n - 1, n - 1 fill 3/4 of code space: no word
    # starts "11", and the offset past the rows reaches the word count
    n = 16384
    blob = _deep_container([1, *range(3, n), n - 1], b"\xff", count=1)
    with pytest.raises(ContainerError,
                       match="^payload does not match the declared code$"):
        decode(blob)


def _random_codes(rng):
    """Complete explicit codes of 2 to 4096 symbols, unary-ended codes cut
    from them, and Golomb codes up to and far past what an automaton
    reaches."""
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


def test_each_head_word_is_the_canonical_word():
    # every head, in canonical order or not, writes symbol by symbol the
    # words the textbook rule lists for the whole head; codeword is the one
    # writer, with no listing of the whole head beside it. Rows past 64
    # bits take their first words from the counts on demand
    assert not hasattr(LengthSeq, "head_codewords")
    deep = [ExplicitCode([*range(1, 64), 65, *[70] * 96]),
            ExplicitCode(_caterpillar(300)),
            ExplicitCode(random.Random(48).sample(_caterpillar(200), 200)),
            UnaryEndedCode([1, *range(3, 101), 100], 2),
            ExplicitCode(random.Random(50).sample(
                [*range(1, 64), 66, 70, 70, 140], 67)),
            ExplicitCode((65, 65, 66, 66))]
    unsorted = 0
    for code in [*deep, *_random_codes(random.Random(25))]:
        head = code.head
        unsorted += head != tuple(sorted(head))
        want = canonical_words(head)
        assert tuple(map(code.codeword, range(len(head)))) == want, code
    assert unsorted >= 40


def _zipf_code(size):
    """The base-1 Huffman code of Zipf(size), as the stream benchmark's."""
    probs = [1.0 / (i + 1) for i in range(size)]
    total = sum(probs)
    return ExplicitCode(exp_huffman([p / total for p in probs], 1.0).lengths)



# ------------------------------------------------- the 4-bit automaton path

def _no_walk(*args):
    raise AssertionError("the single-symbol oracle walked an automaton")


def _single_symbol(blob):
    """The oracle: the same container read by single steps alone, its
    plan's automaton neither built nor walked, whatever the plan holds."""
    with mock.patch.object(codec, "_plan_automaton", return_value=None), \
            mock.patch.object(codec, "_walk", _no_walk):
        return read_container(blob)


def _built(code):
    """The cached plan of the code's descriptor, its automaton built as a
    plan that has decoded 2**20 symbols builds it."""
    plan = codec._plan(codec._descriptor(code))
    codec._plan_automaton(plan, 1 << 20)
    return plan


def _words_by_length(code):
    """(length, word, symbol) of the oracles' words in (length, word) order:
    the head's canonical words, merged with the run's, whose lengths never
    fall, written on demand."""
    head = sorted((len(word), word, i)
                  for i, word in enumerate(canonical_words(code.head)))
    if code.tail is None:
        return iter(head)
    word = container_words(code.head, (code.tail.spine, code.tail.k))
    run = ((len(word(i)), word(i), i) for i in itertools.count(len(head)))
    return heapq.merge(head, run)


def _reference_trie(code):
    """(states, words, reach) by a plain breadth-first walk of the code's
    trie over the oracles' words as strings. A state is a node, in code
    order within a depth, that is a proper prefix of a word (for a code
    with a run, any node that is not a word or under one); a depth's
    states take their children as states while the states number at most
    2**12 and that depth's hold more than 2**-12 of code space. words maps
    the words listed, up to one bit past the deepest state, to their
    symbols; reach is the code space the words whose parent is a state
    fill."""
    listing = _words_by_length(code)
    prefixes = None if code.tail else {
        word[:j] for word in canonical_words(code.head)
        for j in range(len(word))}
    states, words, reach = [""], {}, Fraction(0)
    frontier, depth = [""], 0
    pending = next(listing, None)
    while frontier:
        while pending and pending[0] <= depth + 1:
            words[pending[1]] = pending[2]
            pending = next(listing, None)
        grow = Fraction(len(frontier), 2 ** depth) > Fraction(1, 2 ** 12)
        deeper = []
        for node in frontier:
            for child in (node + "0", node + "1"):
                if child in words:
                    reach += Fraction(1, 2 ** len(child))
                elif grow and len(states) < 1 << 12 and (
                        prefixes is None or child in prefixes):
                    states.append(child)
                    deeper.append(child)
        frontier, depth = deeper, depth + 1
    return states, words, reach


def _reference_entry(node, nibble, states, words):
    """(symbols, node) the trie reaches from node through the 4 bits of
    nibble, each word ending at the root, or None where a bit leaves the
    states."""
    symbols = []
    for bit in format(nibble, "04b"):
        node += bit
        if node in words:
            symbols.append(words[node])
            node = ""
        elif node not in states:
            return None
    return tuple(symbols), node


def _assert_the_automaton_is_the_trie(code, entries=True):
    """The automaton _automaton builds for the code, against
    _reference_trie: built exactly where the reach is 7/8 of code space or
    more, then one state per reference state, each found from the resume
    state of its first bits by its nibbles, at its depth, and (with
    entries) each of its 16 entries the reference walk's."""
    states, words, reach = _reference_trie(code)
    count, automaton = codec._automaton(codec._Plan(code), 1 << 30)
    assert (automaton is not None) == (reach >= Fraction(7, 8)), code
    if automaton is None:
        assert count == 0
        return
    assert count == len(states) <= 1 << 12
    root, resume = automaton
    assert set(resume) == {node for node in states if len(node) <= 3}
    assert resume[""] is root
    found = {}
    for node in states:
        state = resume[node[:len(node) % 4]]
        for at in range(len(node) % 4, len(node), 4):
            symbols, state = state[int(node[at:at + 4], 2)]
            assert symbols == ()
        assert state[16] == len(node) and len(state) == 17
        found[node] = state
    assert len({id(state) for state in found.values()}) == len(states)
    if not entries:
        return
    held = set(states)
    for node, state in found.items():
        for nibble in range(16):
            want = _reference_entry(node, nibble, held, words)
            got = state[nibble]
            if want is None:
                assert got is None, (code, node, nibble)
            else:
                assert got[0] == want[0] and got[1] is found[want[1]], (
                    code, node, nibble)


# "0", "10", "1100", "1101", then 60 of the 64 words of 11 bits behind
# "1110000": "11101" and "1111" start no word
SPARSE_CODE = ExplicitCode.from_lengths([1, 2, 4, 4] + [11] * 60)


@pytest.mark.parametrize("code", [
    GolombCode(1), GolombCode(3), GolombCode(64), UnaryEndedCode((1, 2), 2),
    UnaryEndedCode(range(1, 10), 9), ExplicitCode(list(range(1, 16)) + [15]),
    ExplicitCode((1, 2, 3)), SPARSE_CODE,
    ExplicitCode([2, 2, 2] + [10] * 256)],
    ids=["golomb1", "golomb3", "golomb64", "unary-ended", "spine-9",
         "chain-15", "incomplete", "sparse", "short-words"])
def test_the_automaton_is_the_codes_trie(code):
    _assert_the_automaton_is_the_trie(code)


def test_the_automaton_of_every_code_shape_is_its_trie():
    # every entry of every eighth code, and the states of every code
    for i, code in enumerate(_random_codes(random.Random(25))):
        if max(code.head, default=0) <= 64:
            _assert_the_automaton_is_the_trie(code, entries=i % 8 == 0)


@pytest.mark.parametrize("code, states", [
    (_zipf_code(4096), 4095), (GolombCode(1023), 1 << 12),
    (GolombCode(1), 13), (GolombCode(2000), 0),
    (ExplicitCode([14] * (1 << 14)), 0),
    (ExplicitCode([1] + [15] * 2 ** 14), 0),
    (GolombCode(2 ** 62), 0)],
    ids=["zipf4096", "golomb1023", "golomb1", "golomb2000", "uniform2**14",
         "half-full", "golomb2**62"])
def test_a_plan_has_at_most_2_12_states(code, states):
    # Zipf(4096)'s Huffman code has 4095 internal nodes, all of them states;
    # Golomb 1023 fills the budget, with its quotients 0 to 2 in reach and
    # 1/8 of symbols past it. Unary stops once a depth's one state holds
    # 2**-12 of code space. Golomb 2000 and the uniform 2**14-word code
    # reach less than 7/8 of code space in 2**12 states, and "0" then
    # 15-bit words half of it: none takes an automaton
    assert codec._automaton(codec._Plan(code), 1 << 30)[0] == states


def test_canonical_words_lists_the_words_the_code_writes():
    # each length's listing is the oracles' words of that length, up to 14
    # bits, where a Golomb-k run of k up to 2**13 has words
    codes = [_zipf_code(256), _zipf_code(4096), GolombCode(64),
             GolombCode(1023), GolombCode(2 ** 62),
             *_random_codes(random.Random(25))]
    for code in codes:
        plan = codec._Plan(code)
        want = {}
        for length, word, symbol in _words_by_length(code):
            if length > 14:
                break
            want.setdefault(length, set()).add((int(word, 2), symbol))
        for length in range(1, 15):
            listed = codec._canonical_words(plan, length)
            assert len(listed) == len(set(listed))
            assert set(listed) == want.get(length, set()), (code, length)


def test_an_automaton_asks_for_no_word_past_25_bits(monkeypatch):
    # a frontier of at most 2**12 states grows only while above
    # 2**(depth - 12), so no row past 64 bits, the rows with no offset, is
    # ever listed: not even under heads that hold such rows
    asked = []
    real = codec._canonical_words

    def recording(plan, length):
        asked.append(length)
        return real(plan, length)
    monkeypatch.setattr(codec, "_canonical_words", recording)
    poisson = Poisson(4.0)
    codes = [GolombCode(1), GolombCode(3), GolombCode(64), _zipf_code(256),
             _zipf_code(4096), build_unary_ended(poisson, 1.0),
             build_unary_ended(poisson, 2.0), build_unary_ended_mmr(poisson),
             GolombCode(1023), GolombCode(2 ** 62),
             ExplicitCode([*range(1, 200), 199]),
             ExplicitCode([*range(1, 64), 65, *[70] * 96])]
    for code in codes:
        codec._automaton(codec._Plan(code), 1 << 30)
    assert max(asked) <= 25


def test_an_automaton_is_built_once_decoded_symbols_reach_half_its_entries(
        monkeypatch):
    built = []
    real = codec._automaton

    def recording(plan, decoded):
        states, automaton = real(plan, decoded)
        built.append((decoded, states, automaton is not None))
        return states, automaton
    monkeypatch.setattr(codec, "_automaton", recording)
    rng = random.Random(24)
    for code, counts in ((GolombCode(64), (7, 1000, 5000, 1200, 40)),
                         (_zipf_code(4096), (600, 16383, 16400, 40)),
                         (GolombCode(1), (7, 1, 200, 40))):
        codec._plan.cache_clear()
        states = real(codec._Plan(code), 1 << 30)[0]
        decoded = 0
        for count in counts:
            symbols = [min(int(rng.expovariate(0.02)), 4095)
                       for _ in range(count)]
            blob = encode(symbols, code)
            assert read_container(blob) == _single_symbol(blob) == (
                code, symbols)
            decoded += count
            plan = codec._plan(codec._descriptor(code))
            assert (plan.automaton is not None) == (decoded >= 8 * states)
        # asked first once 8 symbols are decoded, which counts the states,
        # then once more where that count says: the build, under 2 entries
        # per symbol
        asked = [call[0] for call in built]
        assert asked[0] >= 8 and len(asked) <= 2
        assert built[-1] == (asked[-1], states, True)
        assert 16 * states <= 2 * asked[-1]
        built.clear()


def test_a_short_container_walks_the_plans_automaton(monkeypatch):
    code = GolombCode(64)
    rng = random.Random(19)
    codec._plan.cache_clear()
    walks = []
    real = codec._walk

    def counted(payload, count, plan):
        walks.append(count)
        return real(payload, count, plan)
    monkeypatch.setattr(codec, "_walk", counted)
    for count, walked in ((40, False), (5000, False), (5000, True),
                          (40, True), (0, True)):
        symbols = [rng.randrange(500) for _ in range(count)]
        blob = encode(symbols, code)
        walks.clear()
        assert read_container(blob) == _single_symbol(blob) == (code, symbols)
        assert walks == ([count] if walked else [])


def test_automaton_entries_golomb():
    # "00" | "010" | "011": from the root, "0001" completes symbol 0 and
    # leaves "01", which "0011" completes as symbols 1 and 2
    root = _built(GolombCode(3)).automaton[0]
    symbols, state = root[0b0001]
    assert symbols == (0,) and state[16] == 2
    symbols, then = state[0b0011]
    assert symbols == (1, 2) and then is root
    # "100" is symbol 3, then "0" is left; "0000" ends it as "00", and
    # leaves "0" once more
    symbols, state = root[0b1000]
    assert symbols == (3,) and state[16] == 1
    symbols, then = state[0b0000]
    assert symbols == (0, 0) and then is state


def test_automaton_entries_tail_word_inside_a_nibble():
    # head "0", "10", spine "11": symbol 2 + j is "11", j ones, then "0"
    code = UnaryEndedCode((1, 2), 2)
    root = _built(code).automaton[0]
    ones, zeros = root[0b1101], root[0b0001]    # 110 | 1, 0 | 0 | 0 | 1
    assert ones[0] == (2,) and zeros[0] == (0, 0, 0) and ones[1] is zeros[1]
    symbols, then = root[0b1110]
    assert symbols == (3,) and then is root
    symbols, state = root[0b1111]       # the spine and two ones so far
    assert symbols == () and state[16] == 4
    symbols, then = state[0b1100]       # 1111110 | 0
    assert symbols == (6, 0) and then is root
    rng = random.Random(16)
    symbols = [min(int(rng.expovariate(0.6)), 40) for _ in range(3000)]
    blob = encode(symbols, code)
    assert read_container(blob) == _single_symbol(blob) == (code, symbols)


def _single_steps(blob, monkeypatch):
    """-> (symbols, the symbols at which the walk took single steps)."""
    steps = []
    real = codec._decode_canonical

    def counted(bits, pos, out, count, plan):
        steps.append(len(out))
        return real(bits, pos, out, count, plan)
    with monkeypatch.context() as patched:
        patched.setattr(codec, "_decode_canonical", counted)
        symbols = decode(blob)
    return symbols, steps


@pytest.mark.parametrize("symbols, steps", [
    # the 41-bit last word leaves the 13 states of depth 0 to 12
    ([0, 3, 40], [2]),
    # a miss right after a resume: the walk resumes at bit 24 in the second
    # word's "111", and its next nibble misses; then "11" resumes at bit 44
    ([20, 20, 3, 0], [0, 1]),
    # the bits from the 21-bit word's end to bit 24 hold words: single steps
    # up to the "1" of bit 23, where the walk resumes
    ([20, 0, 0, 1, 0, 0, 1], [0, 1, 2]),
], ids=["last-word", "after-a-resume", "words-to-the-boundary"])
def test_a_word_past_the_states_takes_single_steps_and_the_walk_resumes(
        symbols, steps, monkeypatch):
    code = GolombCode(1)
    codec._plan.cache_clear()
    assert _built(code).automaton
    blob = encode(symbols, code)
    assert _single_symbol(blob)[1] == symbols
    assert _single_steps(blob, monkeypatch) == (symbols, steps)


# "0", "10", then 2048 words of 13 bits: 2049 states, every node of its trie
WIDE_CODE = ExplicitCode.from_lengths([1, 2] + [13] * 2048)


@pytest.mark.parametrize("code, count", [
    pytest.param(code, count, id=f"{name}-{count}")
    for name, code, count in (
        ("golomb1", GolombCode(1), 513), ("golomb1", GolombCode(1), 4099),
        ("wide", WIDE_CODE, (1 << 14) + 3))])
def test_the_walk_drops_symbols_past_the_count(code, count):
    # both codes write 0 as "0", so every padding bit walks as one more
    # symbol 0, which the count drops
    codec._plan.cache_clear()
    assert _built(code).automaton
    blob = encode([0] * count, code)
    count_at = len(encode([], code)) - 8
    nbits = 8 * (len(blob) - count_at - 8)
    assert nbits - count == 8 - count % 8
    assert decode(blob) == [0] * count
    # the count decides: the padding holds up to nbits - count more words
    widened = (blob[:count_at] + struct.pack("<Q", nbits)
               + blob[count_at + 8:])
    assert decode(widened) == _single_symbol(widened)[1] == [0] * nbits
    # a one in the padding is still refused, in the last nibble or before
    for bit in (1, 8 - count % 8):
        bad = blob[:-1] + bytes([blob[-1] | 1 << (bit - 1)])
        with pytest.raises(ContainerError, match="nonzero padding"):
            decode(bad)


def test_a_miss_inside_the_padding_nibble(monkeypatch):
    # "0", "10", "110"; "111" starts no word. Symbols 1 and 0 take bits 0 to
    # 2, and a padding of "11100" walks from the "1" at bit 3 into "111" in
    # the second nibble: a miss past the count, or at it, with a third
    # symbol declared
    code = ExplicitCode.from_lengths((1, 2, 3))
    codec._plan.cache_clear()
    assert _built(code).automaton
    blob = encode([1, 0], code)
    assert blob[-1] == 0b10000000 and decode(blob) == [1, 0]
    count_at = len(blob) - 1 - 8
    for count, message in ((2, "nonzero padding bits"),
                           (3, "payload does not match the declared code")):
        bad = (blob[:count_at] + struct.pack("<Q", count)
               + bytes([0b10011100]))
        with pytest.raises(ContainerError) as got:
            decode(bad)
        with pytest.raises(ContainerError) as want:
            _single_symbol(bad)
        assert str(got.value) == str(want.value) == message
    steps = []
    real = codec._decode_canonical
    monkeypatch.setattr(
        codec, "_decode_canonical",
        lambda *args: steps.append(len(args[2])) or real(*args))
    with pytest.raises(ContainerError):
        decode(bad)
    assert steps == [2]


@pytest.mark.parametrize("code, top", [
    (GolombCode(64), 30 * 64), (GolombCode(1023), 12000), (SPARSE_CODE, 64),
    (UnaryEndedCode((1, 2), 2), 40)],
    ids=["golomb64", "golomb1023", "sparse", "unary-ended"])
def test_the_miss_path_keeps_every_container_error(code, top):
    # cut and flipped payloads read as the single steps read them, through
    # nibbles that miss into patterns that start no word or past the
    # states; the symbols below top take words in reach and past it
    rng = random.Random(27)
    symbols = [rng.randrange(top) if rng.random() < 0.3 else 0
               for _ in range(3000)]
    good = encode(symbols, code)
    codec._plan.cache_clear()
    assert _built(code).automaton
    assert decode(good) == symbols
    head = len(encode([], code))
    for _ in range(40):
        at = rng.randrange(8 * head, 8 * len(good))
        flipped = bytearray(good)
        flipped[at // 8] ^= 0x80 >> at % 8
        for blob in (bytes(flipped), good[:rng.randrange(head, len(good))]):
            try:
                want = _single_symbol(blob)[1]
            except ContainerError as exc:
                with pytest.raises(ContainerError) as got:
                    decode(blob)
                assert str(got.value) == str(exc)
            else:
                assert decode(blob) == want


def test_a_walk_short_of_the_count_reads_on_by_single_steps():
    # "0", "10", "110": "111" matches nothing. 502 words "10", then "111"
    # and padding; 600 declared symbols leave the walk short of the count,
    # and single steps read "111" into the padding zeros
    code = ExplicitCode.from_lengths((1, 2, 3))
    codec._plan.cache_clear()
    assert _built(code).automaton
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
        assert codec._plan(good[5:count_at]).automaton  # warm, with one
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
                if (read_container(blob) != (code, symbols)
                        or encode(symbols, code) != blob):
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


# ------------------------------------------------------ encode's word table

def _words(code):
    """The word table of the code's plan, the plan built if need be."""
    return codec._plan(codec._descriptor(code)).words


def _written_word_by_word(symbols, code):
    """The container with each word as LengthSeq.codeword writes it."""
    bits = "".join(map(code.codeword, symbols))
    bits += "0" * (-len(bits) % 8)
    payload = int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""
    return (codec.MAGIC + bytes([codec.VERSION]) + codec._descriptor(code)
            + struct.pack("<Q", len(symbols)) + payload)


# GolombCode(2**16)'s 17-bit words of the symbols below 20000 hold more bits
# than the table keeps
@pytest.mark.parametrize("code, alphabet", [
    (GolombCode(1), 200), (GolombCode(3), 400), (GolombCode(64), 6000),
    (GolombCode(2 ** 16), 20000), (ZIPF_CODE, 20), (_zipf_code(4096), 4096),
    (UnaryEndedCode((1, 2), 2), 150),
    (build_unary_ended(Poisson(1.0), 2.0), 150)],
    ids=["golomb1", "golomb3", "golomb64", "golomb2**16", "explicit",
         "zipf4096", "unary-ended", "unary-ended-poisson"])
def test_the_word_table_writes_the_codes_own_words(code, alphabet):
    rng = random.Random(alphabet)
    codec._plan.cache_clear()
    kept, kept_bits = set(), 0
    for _ in range(3):      # a cold table, then warm ones
        symbols = [rng.randrange(alphabet) for _ in range(1000)]
        if alphabet > 2 ** 14:
            symbols += range(alphabet)
        assert encode(symbols, code) == _written_word_by_word(symbols, code)
        # the budget replayed: each new word kept while the kept fit in it
        for i in symbols:
            bits = len(code.codeword(i))
            if i not in kept and kept_bits + bits <= codec._WORD_BITS:
                kept.add(i)
                kept_bits += bits
        words = _words(code)
        assert set(words) == kept
        assert all(words[i] == code.codeword(i) for i in words)
        assert sum(map(len, words.values())) <= codec._WORD_BITS


def test_a_golomb_run_behind_a_head_is_refused_with_its_k_cut_short():
    with pytest.raises(ValueError) as refused:
        encode([0], LengthSeq((1,), UnaryTail(1, k=10 ** 300)))
    message = str(refused.value)
    assert message.startswith("no container holds a Golomb-1000")
    assert len(message) < 100, message


def test_threads_keep_the_word_table_within_its_budget():
    # 17-bit words of more symbols than the budget holds, asked for by more
    # threads than cores at a short switch interval: a lost update of the
    # count would let the kept words pass the budget unseen
    code = GolombCode(2 ** 16)
    codec._plan.cache_clear()
    failures = []

    def work(seed):
        symbols = random.Random(seed).sample(range(20000), 8000)
        if decode(encode(symbols, code)) != symbols:
            failures.append(seed)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    words = _words(code)
    assert words.bits == sum(map(len, words.values())) <= codec._WORD_BITS


def test_the_word_table_writes_each_short_word_once():
    code = GolombCode(1)
    codec._plan.cache_clear()
    words = _words(code)
    calls = []
    write = words.codeword
    words.codeword = lambda i: calls.append(i) or write(i)
    symbols = [3, 3, 100, 5, 100, 3]
    for _ in range(2):
        assert decode(encode(symbols, code)) == symbols
    # symbol 100's 101-bit word is kept as well, so each is written once
    assert sorted(calls) == [3, 5, 100]
    assert sorted(words) == [3, 5, 100]


def test_a_word_past_the_budget_is_written_once_per_plan(monkeypatch):
    # a 64-bit budget stands for 2**18 bits: symbol 199's 199-bit word is
    # longer, so the table keeps it beside the budget, and its repeats copy
    # it; the word after it that does not fit takes its place
    monkeypatch.setattr(codec, "_WORD_BITS", 64)
    code = ExplicitCode(_caterpillar(200))
    codec._plan.cache_clear()
    words = _words(code)
    calls = []
    write = words.codeword
    words.codeword = lambda i: calls.append(i) or write(i)
    for _ in range(2):
        blob = encode([199] * 16, code)
        assert blob == _written_word_by_word([199] * 16, code)
        assert decode(blob) == [199] * 16
    assert calls == [199]
    assert 199 not in words and words.last == (199, code.codeword(199))
    assert encode([198, 198, 0], code) == _written_word_by_word(
        [198, 198, 0], code)
    assert calls == [199, 198, 0] and words.last[0] == 198
    codec._plan.cache_clear()


@pytest.mark.parametrize("code, symbols, message", [
    (GolombCode(1), [2, 2.0], "symbols are integers, got float 2.0"),
    (GolombCode(1), [-1], "symbols are nonnegative"),
    (ZIPF_CODE, [3, 20], "no codeword for symbol 20"),
    (GolombCode(1), [10 ** 30],
     f"symbol {10 ** 30} has a codeword too long to build"),
], ids=["float", "negative", "past-the-alphabet", "too-long"])
def test_a_warm_word_table_refuses_as_a_cold_one(code, symbols, message):
    codec._plan.cache_clear()
    warm = list(range(20))
    for stored in ({3} & set(symbols), set(warm)):
        with pytest.raises(ValueError) as refused:
            encode(symbols, code)
        assert str(refused.value) == message
        assert set(_words(code)) == stored
        assert decode(encode(warm, code)) == warm


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
