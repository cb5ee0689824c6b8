"""Bit-exact stream codec with a self-describing container.

Container layout: magic "EPC1", one version byte, a tagged code descriptor,
a 64-bit little-endian symbol count, then the payload bits MSB-first and
zero-padded to a byte boundary.

Every code is a `LengthSeq`: a canonical head, an all-1s spine at the top
of its code space, then an optional Golomb-k run. The descriptor's tag is
read off that shape: a head alone (0x02, its lengths; read back as an
`ExplicitCode`), a unary run behind a head and its spine (0x03, the head
and spine lengths; a `UnaryEndedCode`) or a k-run with no head or spine
(0x01, k; a `GolombCode`); no other shape has one. A descriptor is parsed
under the container's own rules, which a code need not keep; encode parses
its own into the decode plan below and writes the words of the plan's
code, so it refuses, as a ValueError, every code decode would refuse.

Both directions work on the payload as one string of "0"/"1" characters:
encode joins one codeword string per symbol, built when first asked for,
and converts the whole string once; decode formats the payload once and
walks it by index, building no codeword strings. One canonical decoder
(Moffat & Turpin, "On the implementation of minimum-redundancy prefix
codes", IEEE Trans. Commun. 1997) reads every code's head through
first-code/limit rows and its run's words arithmetically from spine and k,
never its class. A descriptor's lengths are read in one pass.

Everything decoding derives from the code alone is built once per
descriptor into a decode plan and kept, for the last 16 descriptors read, in
a cache keyed by the descriptor's bytes. A plan holds each fact by name: the
parsed `code`, its canonical `rows` with their `ends` and symbol `order`,
the `spine` and the run's `k`, the rows' single-step lookups, the table
width `narrowest` and the multi-symbol `table` (Choueka, Klein & Perl 1985).
The rows take each length's first word from the one canonical rule in
`bits` and the table lists the run's words as `LengthSeq` writes them. A
stream of containers under one code parses, checks and tabulates it once.
The table maps the next t payload bits to every whole codeword in them and
the bits they use, so one lookup emits several symbols. Its width is the
code's: the narrowest t of 8, 10, 12 and 14 bits whose words fill 7/8 of
code space, read off the rows once per plan, and none if no such t exists;
a code that fills 7/8 at 8 bits takes 10 bits from 1024 symbols. The first
container of at least 2**t symbols builds the table, so its 2**(t + 1) - 1
entries are fewer than 2 per symbol; a 14-bit plan holds about 2 MB, and
the 16 plans the cache keeps about 32 MB at worst. A container of any
length decodes through the table its plan holds. Words longer than t bits
and the symbols left once fewer than t remain before the count take the
single-symbol steps above, so padding bits never decode as symbols and
every container check reads as without the table.
"""
from __future__ import annotations

import itertools
import operator
import struct
import threading
from bisect import bisect_right
from collections import Counter
from functools import cache, lru_cache

from .bits import (_first_codes, _symbol, kraft_sign, uleb128_decode,
                   uleb128_decode_all, uleb128_encode, uleb128_encode_all)
from .errors import ContainerError
from .golomb import GolombCode
from .light_tail import UnaryEndedCode
from .models import LengthSeq

__all__ = ["ExplicitCode", "encode", "decode", "read_container", "MAGIC",
           "VERSION"]

MAGIC = b"EPC1"
VERSION = 1

_TAG_GOLOMB = 0x01
_TAG_EXPLICIT = 0x02
_TAG_UNARY_ENDED = 0x03


class ExplicitCode(LengthSeq):
    """Finite prefix code in canonical order, so its lengths identify it.

    A LengthSeq with no tail, which a container holds within its symbol
    count; the codeword strings, which encoding needs and decoding does not,
    are built on first use.
    """

    def __init__(self, lengths) -> None:
        super().__init__(lengths)

    @classmethod
    def from_lengths(cls, lengths) -> "ExplicitCode":
        return cls(lengths)

    def __repr__(self) -> str:
        return f"ExplicitCode(lengths={self.head!r})"

    def __str__(self) -> str:
        return f"explicit code on {len(self.head)} symbols"


def _descriptor(code: LengthSeq) -> bytes:
    """The descriptor of the code's shape; _parse_descriptor checks it."""
    try:
        head, tail = code.head, code.tail
    except AttributeError:
        raise TypeError(
            f"not a code: {type(code).__name__} {code!r}") from None
    if tail is None:
        return (bytes([_TAG_EXPLICIT]) + uleb128_encode(len(head))
                + uleb128_encode_all(head))
    if not tail.spine:
        return bytes([_TAG_GOLOMB]) + uleb128_encode(tail.k)
    if tail.k == 1 and head:
        return (bytes([_TAG_UNARY_ENDED]) + uleb128_encode(len(head) - 1)
                + uleb128_encode_all(head + (tail.spine,)))
    raise ValueError("no container holds a " + (
        "unary run behind a spine with no head" if tail.k == 1
        else f"Golomb-{tail.k} run behind a head or spine"))


# ------------------------------------------------------------------- encode

def encode(symbols, code: LengthSeq) -> bytes:
    header = MAGIC + bytes([VERSION]) + _descriptor(code)
    try:
        code = _plan(header[5:]).code
    except ContainerError as exc:
        raise ValueError(f"no container holds this code: {exc}") from None
    if not isinstance(symbols, (list, tuple)):
        symbols = list(symbols)
    # one codeword per distinct symbol, in first-seen order; each is read as
    # an index here unless the symbols sum to an int (2.0 would key as 2)
    try:
        plain = type(sum(symbols)) is int
    except TypeError:
        plain = False
    symbols = symbols if plain else list(map(_symbol, symbols))
    words = dict.fromkeys(symbols)
    for sym in words:
        words[sym] = code.codeword(sym)
    bits = "".join(map(words.__getitem__, symbols))
    bits += "0" * (-len(bits) % 8)
    payload = int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""
    return header + struct.pack("<Q", len(symbols)) + payload


# ------------------------------------------------------------------- decode

def _descriptor_end(data, offset: int) -> int:
    """Where the code descriptor starting at offset ends, found by reading
    its tag and varints; only _parse_descriptor checks their values."""
    if offset >= len(data):
        raise ContainerError("truncated header")
    tag = data[offset]
    if tag not in (_TAG_GOLOMB, _TAG_EXPLICIT, _TAG_UNARY_ENDED):
        raise ContainerError(f"unknown code descriptor tag {tag:#x}")
    n, offset = uleb128_decode(data, offset + 1)
    if tag == _TAG_GOLOMB:
        return offset
    if tag == _TAG_UNARY_ENDED:
        n += 2      # the split + 1 head lengths, then the spine
    if offset + n <= len(data) and bytes(data[offset:offset + n]).isascii():
        return offset + n       # n one-byte varints
    return uleb128_decode_all(data, offset, n)[1]


def _check_lengths(head: list[int], spine=None) -> None:
    """ValueError unless a container holds these descriptor lengths: at
    least one head word, none above the word count, the spine counted (a
    cap every complete code on two or more words meets, which bounds the
    decoder's rows and window by the descriptor's size), then a spine
    Kraft-completing the head or, with none, every length positive."""
    words = head if spine is None else [*head, spine]
    if spine is not None and spine < 1:
        raise ValueError("spine length must be positive")
    if not head:
        raise ValueError("need at least one codeword")
    longest = max(words)
    if longest > len(words):
        raise ValueError(f"codeword length {longest} exceeds the alphabet "
                         f"size {len(words)}")
    if spine is not None and kraft_sign(sorted(words)):
        raise ValueError("head lengths plus spine must be Kraft-complete")
    if spine is None and min(head) < 1:
        raise ValueError("lengths must be positive")


def _parse_descriptor(descriptor: bytes) -> LengthSeq:
    """The code of a whole descriptor whose end _descriptor_end found."""
    tag = descriptor[0]
    n, offset = uleb128_decode(descriptor, 1)
    try:
        if tag == _TAG_GOLOMB:
            return GolombCode(n)
        if tag == _TAG_EXPLICIT:
            lengths, _ = uleb128_decode_all(descriptor, offset, n)
            _check_lengths(lengths)
            return ExplicitCode(lengths)
        *head, spine = uleb128_decode_all(descriptor, offset, n + 2)[0]
        _check_lengths(head, spine)
        return UnaryEndedCode(head, spine)
    except ValueError as exc:
        raise ContainerError(f"bad code descriptor: {exc}") from exc


# Multi-symbol table decoding (Choueka, Klein & Perl, "Efficient variants of
# Huffman codes in high level languages", SIGIR 1985). One rule sets the
# width: the code's narrowest t of 8, 10, 12 and 14 bits whose words fill at
# least 7/8 of code space, since below that too many symbols take a failed
# lookup and a single step (the 4096-symbol Zipf code, at 64% for t = 10,
# decoded about 5% slower with a table; it fills 95% at t = 14). A code that
# fills 7/8 at 8 bits takes _WIDE bits from 2**_WIDE symbols: on the Golomb
# and unary codes that do, a 10-bit table decodes 15-37% faster per symbol
# than an 8-bit one. The first container of at least 2**t symbols builds
# the table, so its 2**(t + 1) - 1 entries are fewer than 2 per symbol, and
# it stays in the code's plan for containers of any length.
_WIDE = 10


# A table is keyed by the window's own characters: a dict lookup on the
# slice takes about half the time of parsing it with int(window, 2). The
# keys are the same for every code, so they are made once per width (the
# leading 1 of 2**t + u keeps u's leading zeros).
@cache
def _window_keys(t: int) -> list[str]:
    return [bin(u)[3:] for u in range(1 << t, 2 << t)]


def _decode_table(words, t: int):
    """{t-bit window: (symbols, bits used)} for the whole words that start
    the window, ((), 0) when its first word is longer than t bits or
    matches no word.

    `words` yields (value, length, symbol) for every word of at most t bits.
    The table for width w is filled one word at a time: the 2**(w - l)
    windows behind a word of l bits are that word plus the width w - l
    entries, so the widths 0..t together hold 2**(t + 1) - 1 entries.
    """
    by_length = [[] for _ in range(t + 1)]
    for value, length, symbol in words:
        by_length[length].append((value, symbol))
    tables = [[((), 0)]]
    for width in range(1, t + 1):
        table = [((), 0)] * (1 << width)
        for length in range(1, width + 1):
            rest = tables[width - length]
            span = len(rest)
            for value, symbol in by_length[length]:
                head = (symbol,)
                table[value * span:(value + 1) * span] = [
                    (head + syms, length + used) for syms, used in rest]
        tables.append(table)
    return dict(zip(_window_keys(t), tables[t]))


def _table_run(bits: str, pos: int, out: list, stop: int, t: int,
               table) -> int:
    """Table lookups while len(out) <= stop, up to a word longer than t bits;
    -> pos. A lookup emits 1 to t words, so a batch of (stop - len(out)) // t
    + 1 lookups each start at len(out) <= stop, and stop = count - t never
    lets the table decode past the count into the padding.

    bits carries at least t padding zeros, so a window reads what the single
    steps would read. One shorter than t bits, a KeyError, starts past the
    payload: the caller reports a truncated payload, as the single steps
    would."""
    while len(out) <= stop:
        for _ in range((stop - len(out)) // t + 1):
            syms, used = table[bits[pos:pos + t]]
            if not used:
                return pos
            out += syms
            pos += used
    return pos


# Words of at most this many bits decode from a window this wide; the
# decoder reads the whole L-bit window only past them.
_WINDOW = 64


def _canonical_words(plan: _Plan, t: int):
    """(value, length, symbol) of every word of at most t bits: the plan's
    rows no longer than t, then the run's words as the code writes them, up
    to the first longer than t bits, since a run's lengths never fall. Those
    are prefix free, so at most 2**t of them are listed."""
    width, order, code = plan.width, plan.order, plan.code
    start = 0
    for (length, offset), end in zip(plan.rows, plan.ends):
        if length > t:
            break
        shift = width - length
        for value in range(start >> shift, end >> shift):
            yield value, length, order[value - offset]
        start = end
    if plan.k:
        for i in itertools.count(len(order)):
            length = code.length_at(i)
            if length > t:
                return
            yield int(code.codeword(i), 2), length, i


def _decode_canonical(bits: str, count: int, plan: _Plan):
    """-> (symbols, bits consumed); may overrun len(bits) on a truncated
    payload, which the caller reports.

    A row word of at most `window` = min(L, _WINDOW) bits costs O(window): a
    row of length l <= window ends on a multiple of 2**(L - window), so the
    first window bits against its end shifted right by L - window decide it
    exactly. Past them, if some row is longer, the whole L-bit window
    decides the row, the spine or no word. A run word past the spine is read
    arithmetically: its ones up to the next zero are the quotient, then g - 1
    suffix bits, and one more when they read z = 2**g - k or more.
    """
    width, window, short, ends = plan.width, plan.window, plan.short, plan.ends
    limits, steps, order = plan.limits, plan.steps, plan.order
    spine, k = plan.spine, plan.k
    past_rows = len(steps)
    run_start = len(order)
    g = k.bit_length()
    z = (1 << g) - k
    t, table = _plan_table(plan, count)
    stop = count - t if table else -1
    # full windows at the end; an overrun shows in pos
    bits += "0" * max(width, t)
    find = bits.find
    out = []
    append = out.append
    pos = 0
    while len(out) < count:
        if len(out) <= stop:
            pos = _table_run(bits, pos, out, stop, t, table)
        # one word too long for the table, or the words past stop
        for _ in range(1 if len(out) <= stop else count - len(out)):
            if past_rows:
                w = int(bits[pos:pos + window], 2)
                i = bisect_right(limits, w)
                if i == short < past_rows:  # past the window, or no word
                    w = int(bits[pos:pos + width], 2)
                    i = bisect_right(ends, w, short)
                if i < past_rows:
                    length, shift, offset = steps[i]
                    append(order[(w >> shift) - offset])
                    pos += length
                    continue
            if not k:
                raise ContainerError(
                    "payload does not match the declared code")
            start = pos + spine
            end = find("0", start)
            if end < 0:
                raise ContainerError("truncated payload")
            value = run_start + (end - start) * k
            pos = end + g            # past the zero and the short suffix
            if g > 1:
                r = int(bits[end + 1:pos], 2)
                if r >= z:
                    r += r - z + (bits[pos] == "1")
                    pos += 1
                value += r
            append(value)
    return out, pos


# Descriptors whose plans the cache keeps; each holds its code, rows and at
# most one table of 2**14 entries, about 2 MB. At worst the cache thus holds
# about 32 MB of tables, plus 1.2 MB of 14-bit window keys shared by all:
# 16 containers of 2**14 symbols under distinct codes whose narrowest width
# is 14 bits, each as short as 2 KB, fill it. Encoding adds its code's head
# words, about 75 bytes a symbol, to the plan's code.
_PLANS = 16


class _Plan:
    """What decoding derives from one code alone, each fact computed once
    and shared by every container that carries its descriptor.

    `width` is L, the longest row length, spine included. Row i of `rows`
    holds the words of length l as (l, offset), shortest first, from the
    canonical rule's first words: a word of row i whose l bits read as v is
    symbol order[v - offset], and `ends[i]` is where it ends, at L bits. The
    spine, `spine` 1s at the top of code space, ends at one more end, 2**L;
    behind it symbols len(order) on take the Golomb-k run's words, `k` the
    tail's: a code with no tail has no run, k = 0. A Golomb code is a run
    behind no rows and an empty spine. `window`, `short`, `limits` and
    `steps` are the rows' single-step lookups; `narrowest` is the code's
    table width, 0 for none; `table` is the (t, table) of the widest
    multi-symbol table built, (0, None) while none is, built under `lock`.
    """

    def __init__(self, code: LengthSeq) -> None:
        self.code = code
        lengths, tail = code.head, code.tail
        self.spine = spine = tail.spine if tail else 0
        self.k = k = tail.k if tail else 0
        self.width = width = max(lengths + (spine,))
        self.rows, self.ends = rows, ends = [], []
        counts = Counter(lengths)
        before = 0
        for length, first in _first_codes(counts).items():
            rows.append((length, first - before))
            ends.append(first + counts[length] << width - length)
            before += counts[length]
        if spine:
            ends.append(1 << width)
        # a list, several times faster to index than a range; a sorted head is
        # in canonical order already
        self.order = list(range(len(lengths)))
        if any(map(operator.gt, lengths, lengths[1:])):
            self.order.sort(key=lengths.__getitem__)
        # rows no longer than t fill code space to the last one's end, and
        # the run behind the spine fills max(0, 2**(t - spine) - k) in 2**t
        self.narrowest = 0
        for t in (8, 10, 12, 14):
            i = sum(length <= t for length, _ in rows)
            filled = ends[i - 1] << t >> width if i else 0
            if k and spine <= t:
                filled += max(0, (1 << t - spine) - k)
            if 8 * filled >= 7 << t:
                self.narrowest = t
                break
        self.window = window = min(width, _WINDOW)
        self.short = short = sum(length <= window for length, _ in rows)
        self.limits = [end >> width - window for end in ends[:short]]
        self.steps = [(length, (window if i < short else width) - length,
                       offset) for i, (length, offset) in enumerate(rows)]
        self.table = (0, None)
        self.lock = threading.Lock()


@lru_cache(maxsize=_PLANS)
def _plan(descriptor: bytes) -> _Plan:
    return _Plan(_parse_descriptor(descriptor))


def _plan_table(plan: _Plan, count: int):
    """(t, table) a container of count symbols decodes with: the plan's,
    once a container of at least 2**t symbols has built it. t is the plan's
    narrowest width, raised to _WIDE from 2**_WIDE symbols on."""
    t = plan.narrowest
    if t and count >> _WIDE:
        t = max(t, _WIDE)
    if t > plan.table[0] and count >> t:
        with plan.lock:
            if t > plan.table[0]:
                plan.table = t, _decode_table(_canonical_words(plan, t), t)
    return plan.table


def read_container(data: bytes) -> tuple[LengthSeq, list[int]]:
    if len(data) < 5:
        raise ContainerError("container shorter than its fixed header")
    if data[:4] != MAGIC:
        raise ContainerError("bad magic")
    if data[4] != VERSION:
        raise ContainerError(f"unsupported version {data[4]}")
    offset = _descriptor_end(data, 5)
    plan = _plan(bytes(data[5:offset]))
    if offset + 8 > len(data):
        raise ContainerError("truncated header")
    (count,) = struct.unpack_from("<Q", data, offset)
    payload = data[offset + 8:]
    nbits = 8 * len(payload)
    if count > nbits:   # every codeword has at least one bit
        raise ContainerError(
            f"declared count {count} exceeds the {nbits} payload bits")
    bits = format(int.from_bytes(payload, "big"), f"0{nbits}b") if nbits else ""
    try:
        symbols, pos = _decode_canonical(bits, count, plan)
    except (ValueError, IndexError, KeyError):  # reads past the end
        raise ContainerError("truncated payload") from None
    if pos > nbits:
        raise ContainerError("truncated payload")
    if nbits - pos >= 8:
        raise ContainerError("extra bytes after the payload")
    if "1" in bits[pos:nbits]:
        raise ContainerError("nonzero padding bits")
    return plan.code, symbols


def decode(data: bytes) -> list[int]:
    return read_container(data)[1]
