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
encode joins one codeword string per symbol from its plan's word table,
which writes each word when first asked for and keeps it across
containers, and converts the whole string once; decode formats the
payload once and walks it by index, building no codeword strings. One
canonical decoder (Moffat & Turpin, "On the implementation of
minimum-redundancy prefix codes", IEEE Trans. Commun. 1997) reads every
code's head through its rows' starts within a 64-bit window and by
offsets past it, and its run's words arithmetically from spine and k,
never its class. A descriptor's lengths are read in one pass.

Everything decoding derives from the code alone is built once per
descriptor into a decode plan and kept, for the last 16 descriptors read, in
a cache keyed by the descriptor's bytes. A plan holds each fact by name: the
parsed `code`, the canonical `rows`, (length, count, words before,
offset) each, and symbol `order` of the code's head record, the `bounds`,
0 and then where each of its rows of at most 64 bits ends, at 64 bits, the
`spine` and the run's `k`, the table width `narrowest`, the multi-symbol
`table` (Choueka, Klein & Perl 1985) and encode's `words`, kept up to a
budget of bits. Its rows hold small counts, so a plan grows with the
descriptor, not with its longest word. Every word has one writer: `bits`
lays a head out once, in the record the code keeps, whose rows of at most
64 bits each keep one offset from the one canonical rule, their first word
less the words before them, so the word at canonical place k is offset +
k. `LengthSeq.codeword` writes a head word from its row's offset, or past
64 bits by the offset recurrence the decoder reads it with, run backward;
the decoder's steps carry the offsets as they are, the bounds are the
rows' ends, and the table lists the head's words from the same offsets and
the run's as `LengthSeq.codeword` writes them. A stream of containers
under one code parses, checks and tabulates it once.
The table maps the next t payload bits to every whole codeword in them and
the bits they use, so one lookup emits several symbols. Its width is the
code's: the narrowest t of 8, 10, 12 and 14 bits whose words fill 7/8 of
code space, read off the rows once per plan, and none if no such t exists;
a code that fills 7/8 at 8 bits takes 10 bits from 1024 symbols. A window
whose first word is longer than t bits leads to a second table, keyed by
the next u bits, u the longest word behind the window less t and at most
t, that gives the word in one more lookup; a single step costs about six.
The windows take second tables in code order, most probable first, while
the second level holds at most 2**t words behind at most 2**(t + 1) keys.
The first container of at least 2**t symbols builds both levels from the
words of at most t + u bits, the largest u, so the first level's
2**(t + 1) - 1 entries are fewer than 2 per symbol; a 14-bit plan holds
about 2 MB in its first level and at most about 4 MB in its second. A
container of any length decodes through the table its plan holds. Words
the second level does not hold, windows that match no word and the
symbols left once fewer than t remain before the count take the
single-symbol steps above, so padding bits never decode as symbols and
every container check reads as without the table.
"""
from __future__ import annotations

import itertools
import struct
import threading
from bisect import bisect_right
from functools import cache, lru_cache

from .bits import (_WINDOW, _symbol, kraft_sign, uleb128_decode,
                   uleb128_decode_all, uleb128_encode, uleb128_encode_all)
from .errors import ContainerError
from .golomb import GolombCode
from .light_tail import UnaryEndedCode
from .models import LengthSeq
from .numeric import shown

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
        else f"Golomb-{shown(tail.k)} run behind a head or spine"))


# ------------------------------------------------------------------- encode

def encode(symbols, code: LengthSeq) -> bytes:
    header = MAGIC + bytes([VERSION]) + _descriptor(code)
    try:
        words = _plan(header[5:]).words
    except ContainerError as exc:
        raise ValueError(f"no container holds this code: {exc}") from None
    if not isinstance(symbols, (list, tuple)):
        symbols = list(symbols)
    # only ints key the plan's words: each symbol is read as an index here
    # unless the symbols sum to an int (2.0 would key as 2)
    try:
        plain = type(sum(symbols)) is int
    except TypeError:
        plain = False
    symbols = symbols if plain else list(map(_symbol, symbols))
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
    the window; ((u, second), 0) when its first word is longer than t bits
    and `second` maps the next u bits to that word's ((symbol,), bits used);
    ((), 0) when the window matches no word or the second level's budget
    ran out before it.

    `words` yields (value, length, symbol) for every word of at most t
    bits, then in code order for those of t + 1 to t + U bits, U <= t. The
    table for width w is filled one word at a time: the 2**(w - l) windows
    behind a word of l bits are that word plus the width w - l entries, so
    the widths 0..t together hold 2**(t + 1) - 1 entries. Each window whose
    words are longer takes u as its longest listed word less t, and a key
    for each u bits that start one of those words. The windows take their
    second tables in code order, most probable words first, while the
    second level holds at most 2**t words behind at most 2**(t + 1) keys;
    the listing stops at the word after the window that breaks either.
    """
    by_length = [[] for _ in range(t + 1)]
    words = iter(words)
    for value, length, symbol in words:
        if length > t:      # the rest, in code order
            words = itertools.chain([(value, length, symbol)], words)
            break
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
    keys = _window_keys(t)
    table = dict(zip(keys, tables[t]))
    held = spent = 0
    # a window's words are whole once the next word opens the next window
    for window, longer in itertools.groupby(
            words, lambda word: word[0] >> word[1] - t):
        longer = list(longer)
        u = max(length for _, length, _ in longer) - t
        held += len(longer)
        spent += sum(1 << t + u - length for _, length, _ in longer)
        if held > 1 << t or spent > 2 << t:
            break
        second, next_keys = {}, _window_keys(u)
        for value, length, symbol in longer:
            span = 1 << t + u - length
            low = (value & (1 << length - t) - 1) * span
            second.update(dict.fromkeys(next_keys[low:low + span],
                                        ((symbol,), length)))
        table[keys[window]] = ((u, second), 0)
    return table


def _table_run(bits: str, pos: int, out: list, stop: int, t: int,
               table) -> int:
    """Table lookups while len(out) <= stop, up to a word the second level
    does not hold; -> pos. A lookup emits 1 to t words, so a batch of
    (stop - len(out)) // t + 1 lookups each start at len(out) <= stop, and
    stop = count - t never lets the table decode past the count into the
    padding.

    bits carries at least t padding zeros, so a window reads what the single
    steps would read. One shorter than t bits, a KeyError, starts past the
    payload: the caller reports a truncated payload, as the single steps
    would. A second-level key cut short by the end of bits matches no word,
    so the single steps read that word too."""
    while len(out) <= stop:
        for _ in range((stop - len(out)) // t + 1):
            syms, used = table[bits[pos:pos + t]]
            if not used:
                if not syms:
                    return pos
                u, second = syms    # one word longer than t bits
                syms, used = second.get(bits[pos + t:pos + t + u], ((), 0))
                if not used:
                    return pos
            out += syms
            pos += used
    return pos


def _canonical_words(plan: _Plan, t: int, longest: int = 0):
    """(value, length, symbol) of every word of at most t bits, then of
    those of t + 1 to `longest` bits in code order. The head's words are
    each row's offset plus its canonical places, from the rows of at most
    max(t, longest) bits, in (length, symbol) order; the run's, above them
    in code space, as the code writes them, up to the first too long, since
    a run's lengths never fall. The words of at most t bits are prefix
    free, so at most 2**t of them are listed."""
    words = [(offset + k, length, plan.order[k])
             for length, count, before, offset in plan.rows
             if length <= max(t, longest)
             for k in range(before, before + count)]
    i = len(plan.code.head)       # the run's next symbol
    for shortest, last in ((1, t), (t + 1, longest)):
        yield from (word for word in words if shortest <= word[1] <= last)
        while plan.k and (length := plan.code.length_at(i)) <= last:
            yield int(plan.code.codeword(i), 2), length, i
            i += 1


def _past_window(bits: str, pos: int, d: int, plan: _Plan, append) -> int:
    """Appends the symbol of the head word at pos longer than `window`
    bits, d its first window bits less where the window's rows end; -> the
    position past it. ContainerError if no longer row's word starts there.

    The canonical offset recurrence (Hirschberg & Lelewer, "Efficient
    decoding of prefix codes", CACM 1990) reads it from the longer rows'
    counts alone: d, the word's offset past the rows read so far, takes the
    next row's added bits, and the word ends in that row if d is below its
    count, else d passes it. A valid d stays below the number of longer
    words, so at the code's word count no row matches."""
    at = plan.window
    for length, count, before, _ in itertools.islice(
            plan.rows, len(plan.bounds) - 1, None):
        d = (d << length - at) + int(bits[pos + at:pos + length], 2)
        if d < count:
            append(plan.order[before + d])
            return pos + length
        d -= count
        if d >= len(plan.order):
            break
        at = length
    raise ContainerError("payload does not match the declared code")


def _decode_canonical(bits: str, count: int, plan: _Plan):
    """-> (symbols, bits consumed); may overrun len(bits) on a truncated
    payload, which the caller reports.

    The first `window` = min(L, _WINDOW) bits w decide a row word of at
    most window bits in one bisection of the rows' starts at window bits: a
    word of row i, length l, is symbol order[(w >> window - l) - offset],
    offset the row's in the record, read through steps built per container,
    so that such a word costs one shift and one subtraction after the
    bisection. A word past those rows that does not start with the spine's
    ones is a longer row's, read by offsets (_past_window), or no word. A
    run word past the spine is read arithmetically: its ones up to the next
    zero are the quotient, then g - 1 suffix bits, and one more when they
    read z = 2**g - k or more.
    """
    window, rows, bounds = plan.window, plan.rows, plan.bounds
    order, spine, k = plan.order, plan.spine, plan.k
    # per window row (l, shift, offset): its word w at window bits is symbol
    # order[(w >> shift) - offset], a row's start being a multiple of 2**shift
    steps = [(length, window - length, offset)
             for length, _, _, offset in rows[:len(bounds) - 1]]
    short = len(steps)
    run_start = len(order)
    g = k.bit_length()
    z = (1 << g) - k
    t, table = _plan_table(plan, count)
    stop = count - t if table else -1
    # full windows at the end; an overrun shows in pos
    bits += "0" * max(plan.width, t)
    find = bits.find
    out = []
    append = out.append
    pos = 0
    while len(out) < count:
        if len(out) <= stop:
            pos = _table_run(bits, pos, out, stop, t, table)
        # one word too long for the table, or the words past stop
        for _ in range(1 if len(out) <= stop else count - len(out)):
            if rows:
                w = int(bits[pos:pos + window], 2)
                i = bisect_right(bounds, w) - 1
                if i < short:
                    length, shift, offset = steps[i]
                    append(order[(w >> shift) - offset])
                    pos += length
                    continue
                # a longer row's word or none, unless the spine's ones
                if not spine or find("0", pos, pos + spine) >= 0:
                    pos = _past_window(bits, pos, w - bounds[i], plan, append)
                    continue
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


# Descriptors whose plans the cache keeps; each holds its code with the code's
# head record (rows of four small integers per distinct head length, the last
# an offset of at most 64 bits or None, the symbol order and each symbol's
# place in it), at most 65 bounds of at most 65 bits, and at most one
# table. The code's head and the order take about 40 and 36 bytes a symbol,
# the places 8 more where the head is not in canonical order (else they are
# the order), the rows about 100 bytes a distinct length: the plan of
# lengths 1, 2, ..., n - 1, n - 1 at n = 32 768 keeps about 6 MB. A
# table holds 2**14 first-level entries, about 2 MB, and a second level of at
# most 2**14 words behind 2**15 keys, at most about 4 MB (the Golomb-2000 plan
# holds 1.9 MB and 2.9 MB). At worst the cache thus holds about 96 MB of
# tables, plus 2.3 MB of window keys of 1 to 14 bits shared by all: 16
# containers of 2**14 symbols under distinct codes whose narrowest width is 14
# bits, each as short as 2 KB, fill it. Encoding adds its word table of words
# holding at most _WORD_BITS bits in all to the plan: by Kraft at most 18 432
# words (14 336 of 14 bits and 4 096 of 15), about 1.8 MB, so about 29 MB more
# at worst.
_PLANS = 16
_WORD_BITS = 1 << 18


class _Words(dict):
    """{symbol: codeword} under one plan's code, each word written by
    LengthSeq.codeword when first asked for and kept while the kept words
    hold at most _WORD_BITS bits in all; a word not kept is written again
    for each occurrence, and a refused symbol is never stored.

    Threads share it: a read takes no lock, and a store takes `lock`, so
    `bits` counts the kept words' bits exactly; a race only writes the same
    word twice."""

    def __init__(self, code: LengthSeq) -> None:
        super().__init__()
        self.codeword = code.codeword
        self.bits = 0
        self.lock = threading.Lock()

    def __missing__(self, symbol: int) -> str:
        word = self.codeword(symbol)
        with self.lock:
            if symbol not in self and self.bits + len(word) <= _WORD_BITS:
                self.bits += len(word)
                self[symbol] = word
        return word


class _Plan:
    """What decoding derives from one code alone, each fact computed once
    and shared by every container that carries its descriptor.

    `width` is L, the longest head length, spine included. The head's
    words of one length l form a row, shortest first, and `rows` holds
    (l, count, before, offset) per row, before the words of the shorter
    rows: the row's j-th word is symbol order[before + j], and for l at
    most _WINDOW its value is offset + before + j; both come from the
    code's head record. `window` is W = min(L, _WINDOW), and `bounds` holds
    0, then where each row of at most W bits ends, at W bits (offset +
    before + count, shifted out to W bits), so row i starts at bounds[i];
    longer rows, whose offset is None, are read by offsets from their
    counts, so no integer the plan stores is wider than W + 1 bits. The
    spine, `spine` 1s at the top of code space, follows the rows; behind it
    symbols len(order) on take the Golomb-k run's words, `k` the tail's: a
    code with no tail has no run, k = 0. A Golomb code is a run behind no
    rows and an empty spine. `narrowest` is the code's table width, 0 for
    none; `table` is the (t, table) of the widest multi-symbol table built,
    (0, None) while none is, built under `lock`; `words` is encode's word
    table.
    """

    def __init__(self, code: LengthSeq) -> None:
        self.code = code
        lengths, tail = code.head, code.tail
        self.spine = spine = tail.spine if tail else 0
        self.k = k = tail.k if tail else 0
        self.width = width = max(lengths + (spine,))
        self.window = window = min(width, _WINDOW)
        self.rows, self.order, _ = code._canonical
        # rows no longer than t fill code space up to where the last one
        # ends, and the run behind the spine fills max(0, 2**(t - spine) - k),
        # in parts of 2**t
        self.narrowest = 0
        for t in (8, 10, 12, 14):
            filled = sum(c << t - length
                         for length, c, *_ in self.rows if length <= t)
            if k and spine <= t:
                filled += max(0, (1 << t - spine) - k)
            if 8 * filled >= 7 << t:
                self.narrowest = t
                break
        # 0, then where each row of at most W bits, one the record keeps an
        # offset for, ends at W bits: each row starts where the last ends
        self.bounds = [0, *(offset + before + c << window - length
                            for length, c, before, offset in self.rows
                            if offset is not None)]
        self.table = (0, None)
        self.lock = threading.Lock()
        self.words = _Words(code)


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
        # the second level holds words of up to t more bits; a run has no end
        longest = 2 * t if plan.k else min(plan.width, 2 * t)
        with plan.lock:
            if t > plan.table[0]:
                plan.table = t, _decode_table(
                    _canonical_words(plan, t, longest), t)
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
