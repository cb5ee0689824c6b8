"""Bit-level plumbing: LEB128 varints, the one exact Kraft test, the one
canonical codeword rule, which head words and decoder rows both read, and
the complete binary code a Golomb-k run's suffixes are."""
from __future__ import annotations

import operator
from bisect import bisect_right
from collections import Counter
from itertools import count

from .errors import ContainerError
from .numeric import shown

__all__ = [
    "uleb128_encode", "uleb128_encode_all", "uleb128_decode",
    "uleb128_decode_all", "integer_lengths", "kraft_sign", "kraft_total",
    "complete_binary",
]


def uleb128_encode(value: int) -> bytes:
    if value < 0:
        raise ValueError("uleb128 encodes nonnegative integers")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        out.append(byte | (0x80 if value else 0))
        if not value:
            return bytes(out)


def uleb128_encode_all(values) -> bytes:
    """Consecutive varints of a sequence; values all below 0x80 are one
    byte each, so they are their own bytes."""
    try:
        run = bytes(values)
        if run.isascii():
            return run
    except (TypeError, ValueError):     # not all in range(256)
        pass
    return b"".join(map(uleb128_encode, values))


def uleb128_decode(data: bytes, offset: int) -> tuple[int, int]:
    """-> (value, next offset)."""
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise ContainerError("truncated header varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 63:
            raise ContainerError("header varint too long")


def uleb128_decode_all(data: bytes, offset: int, n: int) -> tuple[list[int], int]:
    """n consecutive varints -> (values, next offset)."""
    run = bytes(data[offset:offset + n])
    if len(run) == n and run.isascii():     # n one-byte varints
        return list(run), offset + n
    values = []
    for _ in range(n):
        value, offset = uleb128_decode(data, offset)
        values.append(value)
    return values, offset


def integer_lengths(lengths) -> tuple[int, ...]:
    """The lengths as ints; ValueError for any value operator.index refuses,
    which int() would truncate (1.5) or parse ("1")."""
    if not isinstance(lengths, (list, tuple)):     # iterated twice on error
        lengths = tuple(lengths)
    try:
        return tuple(map(operator.index, lengths))
    except TypeError:
        bad = next(x for x in lengths if not hasattr(type(x), "__index__"))
        raise ValueError(f"lengths are integers, got {type(bad).__name__} "
                         f"{bad!r}") from None


def _symbol(i, floor: int = 0) -> int:
    """i through operator.index, at least floor: 0, or -1 for tail_weight."""
    try:
        i = operator.index(i)
    except TypeError:
        raise ValueError(f"symbols are integers, got {type(i).__name__} "
                         f"{shown(i)}") from None
    if i < floor:
        raise ValueError("symbols are nonnegative")
    return i


def _golomb_k(k) -> int:
    """A Golomb k through operator.index, at least one."""
    if hasattr(type(k), "__index__") and operator.index(k) >= 1:
        return operator.index(k)
    raise ValueError(f"k must be a positive integer, got {shown(k)}")


def kraft_total(lengths, extra_length: int = 0) -> tuple[int, int]:
    """Exact Kraft sum as a pair (numerator, 2**scale): sum of 2**-l plus an
    optional extra 2**-extra_length, in integer arithmetic."""
    ls = list(lengths) + ([extra_length] if extra_length else [])
    if not ls:
        return 0, 1
    scale = max(ls)
    return sum(1 << (scale - l) for l in ls), 1 << scale


def kraft_sign(ordered) -> int:
    """-1, 0 or 1 as the Kraft sum of a sorted list of integer lengths lies
    below, at or above one; exact.

    Walks the distinct lengths upward, holding `free`, the words of the
    current length the shorter ones leave unused. Once more are free than
    words are left, the sum is below one; a step of as many lengths as n has
    bits gets there, so no step is taken longer. `free` stays below 2 n**2,
    whatever the lengths. A negative length alone overfills code space.
    """
    if ordered and ordered[0] < 0:
        return 1
    n = len(ordered)
    cap = n.bit_length()
    free = 1
    at = start = 0
    while start < n:
        length = ordered[start]
        end = bisect_right(ordered, length, start)
        step = length - at
        free = (free << (step if step < cap else cap)) - (end - start)
        if not 0 <= free <= n - end:
            return 1 if free < 0 else -1
        at, start = length, end
    return -1 if free else 0


def _first_codes(counts) -> dict[int, int]:
    """The one canonical rule: each length's first word as an integer, from
    {length: count}. Words go in (length, index) order, each one more than
    the previous, shifted out to its own length."""
    first, code, at = {}, 0, 0
    for length in sorted(counts):
        code <<= length - at
        first[length], code, at = code, code + counts[length], length
    return first


def _codewords_of(lengths) -> tuple[str, ...]:
    """Canonical codewords of lengths within the Kraft inequality, each
    length's words counting up from its first."""
    up = {length: count(first | 1 << length)  # the leading 1 keeps zeros
          for length, first in _first_codes(Counter(lengths)).items()}
    return tuple(bin(next(up[length]))[3:] for length in lengths)


def complete_binary(x: int, k: int) -> str:
    """(x+1)th codeword of the alphabetic complete binary code on k values:
    g - 1 bits for the first z = 2**g - k values and g bits for the rest,
    g the bit length of k. k >= 1 and 0 <= x < k, read as integers."""
    if not (type(x) is type(k) is int and 0 <= x < k):  # else by the rules
        k, x = _golomb_k(k), _symbol(x)
        if x >= k:
            raise ValueError(f"value {shown(x)} outside range(0, {shown(k)})")
    g = k.bit_length()
    z = (1 << g) - k
    if x < z:   # none at k = 1; the leading 1 keeps the zeros, as above
        return bin(x + (1 << g - 1))[3:]
    return bin(x + z + (1 << g))[3:]
