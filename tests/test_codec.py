import random
import struct
import time

import pytest

from epc import (ContainerError, ExplicitCode, GolombCode, Poisson,
                 UnaryEndedCode, build_unary_ended, decode, encode,
                 read_container)
from epc.bits import canonical_with_spine
from oracles import kraft_fraction


def test_frozen_byte_vector():
    blob = encode([1, 3, 9], GolombCode(3))
    want = b"EPC1\x01\x01\x03" + (3).to_bytes(8, "little") + b"\x53\x80"
    assert blob == want
    code, symbols = read_container(blob)
    assert code == GolombCode(3)
    assert symbols == [1, 3, 9]


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


def test_unary_ended_payload_example():
    # two symbols under the base-2 length sequence 2,2,2,3,4,5,...:
    # 2 bits for 0 plus 5 bits for 5 is 7 payload bits, one padded byte
    code = build_unary_ended(Poisson(1.0), 2.0)
    assert code.length(0) == 2 and code.length(5) == 5
    blob = encode([0, 5], code)
    header_len = len(encode([], code)) - 0  # same header, empty payload
    assert len(blob) - header_len == 1
    assert decode(blob) == [0, 5]


def test_explicit_code_roundtrip():
    code = ExplicitCode.from_lengths((2, 2, 2, 3, 3))
    assert kraft_fraction(code.lengths) == 1
    symbols = [0, 4, 2, 1, 3, 3, 0]
    assert decode(encode(symbols, code)) == symbols
    got, _ = read_container(encode(symbols, code))
    assert got == code


def test_explicit_code_is_canonical_only():
    with pytest.raises(ValueError):
        ExplicitCode(("10", "01"))       # right lengths, wrong packing
    canonical = ExplicitCode(("0", "10", "11"))
    assert canonical.codeword(2) == "11"
    with pytest.raises(ValueError):
        canonical.codeword(3)


def test_unary_ended_code_is_canonical_only():
    # the container stores lengths only, so a hand-built head in another
    # order would decode to other symbols; it is refused instead
    with pytest.raises(ValueError, match="canonically"):
        UnaryEndedCode(("01", "00"), "1")
    code = UnaryEndedCode.from_lengths((2, 2), 1)
    assert code == UnaryEndedCode(("00", "01"), "1")
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
    code = UnaryEndedCode(("0", "10"), "11")
    blob = encode([0, 1, 2, 5], code)
    got, symbols = read_container(blob)
    assert got == code and symbols == [0, 1, 2, 5]


def test_explicit_lengths_capped_at_alphabet_size():
    assert ExplicitCode.from_lengths((1, 2)).codewords == ("0", "10")
    with pytest.raises(ValueError, match="alphabet size"):
        ExplicitCode.from_lengths((1, 3))      # Kraft-valid, over the cap
    with pytest.raises(ValueError, match="alphabet size"):
        ExplicitCode(("0", "100"))
    with pytest.raises(ValueError, match="alphabet size"):
        UnaryEndedCode(("0",), "11111")


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
    UnaryEndedCode(*canonical_with_spine(range(1, 100), 99)),
    UnaryEndedCode(*canonical_with_spine([1, *range(3, 101), 100], 2)),
], ids=["explicit-1..999", "unary-ended-long-spine", "unary-ended-short-spine"])
def test_deep_code_roundtrip(code):
    # mostly short words, plus words on both sides of the 64-bit window
    rng = random.Random(15)
    symbols = [min(int(rng.expovariate(0.5)), 98) for _ in range(2000)]
    symbols += [62, 63, 64, 65, 98, 0]
    if isinstance(code, UnaryEndedCode):
        symbols += [code.tail_start, code.tail_start + 70]
    blob = encode(symbols, code)
    bits = "".join(code.codeword(s) for s in symbols)
    bits += "0" * (-len(bits) % 8)
    assert blob.endswith(int(bits, 2).to_bytes(len(bits) // 8, "big"))
    assert read_container(blob) == (code, symbols)
