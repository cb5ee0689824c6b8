"""Bit-level plumbing: LEB128 varints, the length cap, exact Kraft sums and
canonical codeword assignment from length lists."""
from __future__ import annotations

from .errors import ContainerError

__all__ = [
    "uleb128_encode", "uleb128_decode", "uleb128_decode_all",
    "check_length_cap", "kraft_total", "canonical_codewords",
    "canonical_with_spine",
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
    values = []
    for _ in range(n):
        value, offset = uleb128_decode(data, offset)
        values.append(value)
    return values, offset


def check_length_cap(lengths, alphabet_size: int) -> None:
    """Refuse a codeword length above the alphabet size.

    A Kraft-complete code on n >= 2 symbols has no word longer than n - 1
    bits, so the cap refuses no complete code. It bounds the O(L) work of
    kraft_total and the decoder's L-bit window by the descriptor's size.
    """
    longest = max(lengths, default=0)
    if longest > alphabet_size:
        raise ValueError(f"codeword length {longest} exceeds the alphabet "
                         f"size {alphabet_size}")


def kraft_total(lengths, extra_length: int = 0) -> tuple[int, int]:
    """Exact Kraft sum as a pair (numerator, 2**scale): sum of 2**-l plus an
    optional extra 2**-extra_length, in integer arithmetic."""
    ls = list(lengths) + ([extra_length] if extra_length else [])
    if not ls:
        return 0, 1
    scale = max(ls)
    return sum(1 << (scale - l) for l in ls), 1 << scale


def canonical_codewords(lengths) -> tuple[str, ...]:
    """Assign codewords in (length, index) order, each starting where the
    previous ended; needs Kraft sum <= 1."""
    lengths = list(map(int, lengths))
    order = sorted(range(len(lengths)), key=lengths.__getitem__)
    if order and lengths[order[0]] < 1:
        raise ValueError("lengths must be positive")
    out = [""] * len(lengths)
    code = prev = 0
    for i in order:
        length = lengths[i]
        code <<= length - prev
        out[i] = bin(code + (1 << length))[3:]  # the leading 1 keeps zeros
        code += 1
        prev = length
    # code is now the Kraft numerator over 2**prev
    if code > 1 << prev:
        raise ValueError("lengths violate the Kraft inequality")
    return tuple(out)


def canonical_with_spine(lengths, spine_length: int) -> tuple[tuple[str, ...], str]:
    """Canonical head codewords leaving the all-1s word of spine_length free.

    Requires the head lengths plus the spine to be Kraft-complete; the
    canonical run then fills code space from the bottom and stops exactly at
    the all-1s subtree, so no head codeword can collide with it.
    """
    if spine_length < 1:
        raise ValueError("spine length must be positive")
    lengths = list(map(int, lengths))
    check_length_cap(lengths + [spine_length], len(lengths) + 1)
    num, den = kraft_total(lengths, extra_length=spine_length)
    if num != den:
        raise ValueError("head lengths plus spine must be Kraft-complete")
    head = canonical_codewords(lengths)
    spine = "1" * spine_length
    for word in head:
        shorter = min(len(word), spine_length)
        if word[:shorter] == spine[:shorter]:
            raise AssertionError("canonical head entered the spine subtree")
    return head, spine
