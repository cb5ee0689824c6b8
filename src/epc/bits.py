"""Bit-level plumbing: LEB128 varints, the one exact Kraft test, the one
canonical codeword rule and the head record it lays out, which head words
and decoder rows both read, and the complete binary code a Golomb-k run's
suffixes are."""
from __future__ import annotations

import operator
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

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
    optional extra 2**-extra_length, in integer arithmetic, one term per
    distinct length."""
    counts = Counter(lengths)
    if extra_length:
        counts[extra_length] += 1
    if not counts:
        return 0, 1
    scale = max(counts)
    return sum(n << scale - l for l, n in counts.items()), 1 << scale


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


# Head words of at most this many bits have their row's offset kept and
# decode from a window this wide; a longer row keeps none, and its words are
# written and read by the offset recurrence from the rows' counts.
_WINDOW = 64


def _first_codes(rows):
    """The one canonical rule: the first word of each row, as an integer,
    from rows (length, count, ...) in length order. Words go in (length,
    index) order, each one more than the previous, shifted out to its own
    length; a row's first word depends only on the shorter rows."""
    code = at = 0
    for length, n, *_ in rows:
        code <<= length - at
        yield code
        code, at = code + n, length


def _long_word(rows, r, d):
    """Word d of row r, a row past _WINDOW bits, as a string: the canonical
    offset recurrence codec._past_window reads it by, run backward from its
    row to the window. Each row past the window, from row r down, writes
    the low bits of d, as many as its length exceeds the previous row's (or
    _WINDOW, for the first such row); d then drops them and takes the
    previous row's count when that row is past the window too, else where
    the window's rows end, which starts the word's first _WINDOW bits.
    Every d stays below the head's size, so the work is linear in the
    word."""
    parts = []
    length = rows[r][0]
    while length > _WINDOW:
        # the previous row, or an empty one of no bits before the first
        at, count, before, offset = rows[r - 1] if r else (0, 0, 0, 0)
        step = length - max(at, _WINDOW)
        parts.append(format(d & (1 << step) - 1, f"0{step}b"))
        d = (d >> step) + (count if offset is None
                           else offset + before + count << _WINDOW - at)
        length, r = at, r - 1
    parts.append(format(d, f"0{_WINDOW}b"))
    return "".join(reversed(parts))


def _canonical_head(lengths):
    """A head's canonical layout, the one record every head word is written
    from: its rows (length, count, words before, offset) in length order,
    its symbols in (length, index) order and each symbol's place in that
    order. A row of at most _WINDOW bits has as offset its first word less
    the words before it, so the word at canonical place k is offset + k; a
    longer row's offset is None."""
    counts = sorted(Counter(lengths).items())
    before = accumulate((n for _, n in counts), initial=0)
    # the rows of at most _WINDOW bits come first, each taking the next word
    first = _first_codes(row for row in counts if row[0] <= _WINDOW)
    rows = [(l, n, words, next(first) - words if l <= _WINDOW else None)
            for (l, n), words in zip(counts, before)]
    # a list, several times faster to index than a range; a sorted head is
    # in canonical order already, and its places are its order
    order = place = list(range(len(lengths)))
    if any(map(operator.gt, lengths, lengths[1:])):
        order = sorted(place, key=lengths.__getitem__)
        place = sorted(place, key=order.__getitem__)
    return rows, order, place


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
