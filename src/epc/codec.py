"""Bit-exact stream codec with a self-describing container.

Container layout: magic "EPC1", one version byte, a tagged code descriptor,
a 64-bit little-endian symbol count, then the payload bits MSB-first and
zero-padded to a byte boundary.

Every code is a `LengthSeq`, and the descriptor's tag is read off its
shape (`_descriptor`). A descriptor is parsed under the container's own
rules (`_check_lengths`); encode parses its own, so it refuses, as a
ValueError, every code decode would refuse.

A descriptor's plan (`_Plan`) holds what coding derives from the code
alone, and the plans of recent descriptors are cached (`_PLANS`). Encode
joins the words of the plan's word table (`_Words`). Decode reads words by
single steps (`_decode_canonical`, a head word by the offset recurrence over
the head record's rows) and, once a plan has decoded enough symbols, a
payload nibble at a time through its automaton (`_automaton`, walked by
`_walk`).
"""
from __future__ import annotations

import itertools
import struct
import threading
from bisect import bisect_left
from functools import lru_cache

from .bits import (_symbol, kraft_sign, uleb128_decode, uleb128_decode_all,
                   uleb128_encode, uleb128_encode_all)
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
    count. Its words are LengthSeq.codeword's, each written from the head
    record when asked for; encoding keeps them in its plan's word table
    (_Words), and decoding reads the record itself.
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
    """The descriptor of the code's shape, kept on the code once written,
    as its head record is; _parse_descriptor checks it."""
    kept = getattr(code, "_descriptor", None)
    if kept is not None:
        return kept
    try:
        head, tail = code.head, code.tail
    except AttributeError:
        raise TypeError(
            f"not a code: {type(code).__name__} {code!r}") from None
    if tail is None:
        kept = (bytes([_TAG_EXPLICIT]) + uleb128_encode(len(head))
                + uleb128_encode_all(head))
    elif not tail.spine:
        kept = bytes([_TAG_GOLOMB]) + uleb128_encode(tail.k)
    elif tail.k == 1 and head:
        kept = (bytes([_TAG_UNARY_ENDED]) + uleb128_encode(len(head) - 1)
                + uleb128_encode_all(head + (tail.spine,)))
    else:
        raise ValueError("no container holds a " + (
            "unary run behind a spine with no head" if tail.k == 1
            else f"Golomb-{shown(tail.k)} run behind a head or spine"))
    object.__setattr__(code, "_descriptor", kept)
    return kept


# ------------------------------------------------------------------- encode

def encode(symbols, code: LengthSeq) -> bytes:
    descriptor = _descriptor(code)
    try:
        words = _plan(descriptor).words
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
    return (MAGIC + bytes([VERSION]) + descriptor
            + struct.pack("<Q", len(symbols)) + payload)


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
    decoder's rows and padding by the descriptor's size), then a spine
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


# The automaton's states, at most; each holds 16 entries and its depth.
_STATES = 1 << 12
# payload.hex() characters -> nibble values
_NIBBLES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))
# nibbles walked between looks at the count, so that a walk stops soon past
# it on a payload far longer than its count says
_CHUNK = 1 << 10


def _canonical_words(plan: _Plan, length: int) -> list[tuple[int, int]]:
    """[(value, symbol)] of the code's words of `length` bits: the head's
    row of that length, from the head record's offset, then the run's words
    as LengthSeq.codeword writes them. _automaton asks for at most 25 bits,
    since a frontier of at most _STATES states grows only while above
    2**(depth - 12), so the row asked for keeps an offset. A Golomb-k word
    of quotient q is spine + 1 + q bits, then g - 1 suffix bits for the
    z = 2**g - k remainders below z and g for the rest, so a length holds
    remainders below z at one quotient and the others at the quotient
    before."""
    rows, order, code = plan.rows, plan.order, plan.code
    words = []
    r = bisect_left(rows, (length,))
    if r < len(rows) and rows[r][0] == length:
        _, count, before, offset = rows[r]
        words = [(offset + k, order[k]) for k in range(before, before + count)]
    if plan.k:
        k, g = plan.k, plan.k.bit_length()
        z = (1 << g) - k
        for q, low, high in ((length - plan.spine - g, 0, z),
                             (length - plan.spine - g - 1, z, k)):
            if q >= 0:
                start = len(order) + q * k
                words += [(int(code.codeword(i), 2), i)
                          for i in range(start + low, start + high)]
    return words


def _automaton(plan: _Plan, decoded: int):
    """-> (states, automaton): the code's 4-bit decoding automaton
    (Choueka, Klein & Perl, "Efficient variants of Huffman codes in high
    level languages", SIGIR 1985) and its number of states, the automaton
    None until `decoded` symbols reach half its 16 * states entries;
    (0, None) when the code takes none.

    Its states are internal nodes of the code's trie, shallowest first: the
    root, then the children of each depth's states that are neither words
    (_canonical_words of their length) nor a bit pattern that starts no
    word, while the states number at most _STATES and that depth's hold
    more than 2**-12 of code space, so that a word past them is rarer than
    that on a code that fits its source. The patterns that start no word
    are found past the last word of a head with no run whose rows are all
    within 64 bits; elsewhere such a pattern is taken as a node, and the
    walk misses below it. The words whose parent is a state are within the
    automaton's reach; unless they fill at least 7/8 of code space, too
    many words would take a single step, and the code takes none.

    A state is a list: entry x, for the next four payload bits x, is
    (symbols, next state), the symbols of the words those bits complete
    from the state, each ending at the root, and the state the bits end in;
    entry 16 is the state's depth, the bits of the unfinished word behind
    it. An entry is None where the bits leave the states, into a node past
    them or a pattern that starts no word: the walk then reads the
    unfinished word by single steps. The entries are composed from each
    state's two children, through its four 2-bit entries. The automaton
    is (root, resume), resume mapping the bits of each state of depth 3
    or less to the state, where the walk picks up after single steps."""
    rows = plan.rows
    # a head with no run, all its rows within 64 bits: a child past its
    # last word's prefix starts no word; any other child that is not a word
    # is taken as a node, which at worst makes a miss of a hole
    last = None
    if not plan.k and rows[-1][3] is not None:
        longest, last = rows[-1][0], rows[-1][3] + len(plan.order) - 1
    root = [None] * 16 + [0]
    states, resume, frontier = [root], {"": root}, [(0, root)]
    depth = filled = 0      # filled in parts of 2**(depth + 1)
    while frontier:
        words = dict(_canonical_words(plan, depth + 1))
        top = None if last is None else (
            last >> longest - depth - 1 if depth + 1 < longest else -1)
        # the frontier's children become states while it holds more than
        # 2**-12 of code space
        grow = len(frontier) << 12 > 1 << depth
        filled <<= 1
        deeper = []
        for value, state in frontier:
            # each child's entry, (symbols, state) or None, at 17 and 18
            for child in (2 * value, 2 * value + 1):
                if child in words:
                    state.append(((words[child],), root))
                    filled += 1
                elif grow and len(states) < _STATES and (top is None
                                                         or child <= top):
                    node = [None] * 16 + [depth + 1]
                    state.append(((), node))
                    states.append(node)
                    deeper.append((child, node))
                    if depth < 3:
                        resume[bin(child | 2 << depth)[3:]] = node
                else:
                    state.append(None)
        frontier = deeper
        depth += 1
    if 8 * filled < 7 << depth:
        return 0, None
    if decoded < 8 * len(states):
        return len(states), None
    # the 2-bit entries at 19 to 22, then the 4-bit ones, each a's bits
    # then b's; an entry that emits nothing first is the next one's
    for state in states:
        state += [b and (a[0] + b[0], b[1]) if a and a[0] else b
                  for a in state[17:19]
                  for b in (a[1][17:19] if a else (None,) * 2)]
    fours = [[b and (a[0] + b[0], b[1]) if a and a[0] else b
              for a in state[19:23]
              for b in (a[1][19:23] if a else (None,) * 4)]
             for state in states]
    for state, entries in zip(states, fours):
        state[:16] = entries
        del state[17:]
    return len(states), (root, resume)


def _walk(payload, count: int, plan: _Plan):
    """-> (symbols, bits consumed) of the payload through the plan's
    automaton; may overrun the payload on a truncated one, which the
    caller reports.

    Each nibble is one list index, emitting what its entry holds. A None
    entry raises TypeError: the unfinished word starts state[16] bits
    before that nibble, and _decode_canonical reads it and the words after
    it from the payload formatted as bits once, one word at a time, until
    one ends where the bits up to the next nibble boundary are a state's,
    and the walk resumes there. It looks at the count once per _CHUNK
    nibbles; the symbols it decodes past the count are dropped, their
    lengths taken back from where it stopped, and fewer than the count
    take single steps from there, so every container check reads as the
    single steps alone read it."""
    state, resume = plan.automaton
    nibbles = payload.hex().encode().translate(_NIBBLES)
    n = len(nibbles)
    walk = iter(nibbles)
    left = walk.__length_hint__     # the nibbles not yet walked, exactly
    out, bits = [], None
    while True:
        if len(out) > count or not left():
            pos = 4 * (n - left()) - state[16]
            break
        try:
            for x in itertools.islice(walk, _CHUNK):
                syms, state = state[x]
                out += syms
            continue
        except TypeError:
            pos = 4 * (n - left() - 1) - state[16]
        if len(out) >= count:
            break
        if bits is None:
            bits = _bits(payload, plan)
        state = None
        while state is None:
            pos = _decode_canonical(bits, pos, out, len(out) + 1, plan)
            if len(out) == count:
                return out, pos
            edge = pos + 3 & -4
            if edge <= 4 * n:
                state = resume.get(bits[pos:edge])
        for _ in range(edge // 4 - (n - left())):
            next(walk)
    if len(out) < count:
        pos = _decode_canonical(bits or _bits(payload, plan), pos, out, count,
                                plan)
    pos -= sum(map(plan.code.length_at, out[count:]))
    del out[count:]
    return out, pos


def _bits(payload, plan: _Plan) -> str:
    """The payload as "0"/"1" characters, then as many zeros as the code's
    longest head word or spine (`width`), so that a row read near the end
    stays in range; an overrun shows in the position reached."""
    nbits = 8 * len(payload)
    return (format(int.from_bytes(payload, "big"), f"0{nbits}b")
            if nbits else "") + "0" * plan.width


def _decode_canonical(bits: str, pos: int, out: list, count: int,
                      plan: _Plan) -> int:
    """Appends the symbols of the words of bits (_bits) from pos until out
    holds count -> the position past them; may overrun the payload on a
    truncated one, which the caller reports.

    A word that does not start with the spine's ones is a head word or
    none, read by the canonical offset recurrence (Hirschberg & Lelewer,
    "Efficient decoding of prefix codes", CACM 1990) from the plan's
    `rows`, (l, count, before, offset), alone: from the first row on, d,
    the word's offset past the rows read so far, takes the next row's added
    bits, and the word ends in that row, as symbol order[before + d], if d
    is below its count; else d passes it. A valid d stays below the number
    of words in that row and the longer ones; a d at or past it, as is any d
    that passes the last row, matches no word. The rows have distinct
    lengths, so a word of L bits passes at most L rows, each read once, and
    single steps are linear in the payload's bits. A run word past the
    spine is read arithmetically: its ones up to the next zero are the
    quotient, then g - 1 suffix bits, and one more when they read
    z = 2**g - k or more; at k = 1 that is a unary word.
    """
    rows, order, spine, k = plan.rows, plan.order, plan.spine, plan.k
    run_start = len(order)
    g = k.bit_length()
    z = (1 << g) - k
    find = bits.find
    append = out.append
    for _ in range(count - len(out)):
        if rows and (not spine or find("0", pos, pos + spine) >= 0):
            d = at = 0
            for length, n, before, _ in rows:
                d = (d << length - at) + int(bits[pos + at:pos + length], 2)
                # in this row, or past every word from it on
                if d < n or d >= run_start - before:
                    break
                d -= n
                at = length
            if d >= n:
                raise ContainerError(
                    "payload does not match the declared code")
            append(order[before + d])
            pos += length
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
    return pos


# Descriptors whose plans the cache keeps; each holds its code with the
# code's head record (bits._canonical_head), whose rows single steps read,
# and at most one automaton. The code's head and the order take about
# 40 and 36 bytes a symbol, the places 8 more where the head is not in
# canonical order (else they are the order), the rows about 100 bytes a
# distinct length: the plan of lengths 1, 2, ..., n - 1, n - 1 at n = 32 768
# keeps about 6 MB. An automaton holds at most 2**12 state lists and 2**16
# entries, each a pair and at most one new tuple of symbols: about 10 MB by
# that count, and about 5 MB for the Huffman code of Zipf(4096), whose 4095
# states are every node of its trie. Encoding adds its word table of words
# holding at most _WORD_BITS bits in all to the plan: by Kraft at most 18 432
# words (14 336 of 14 bits and 4 096 of 15), about 1.8 MB, and the last word
# it did not keep. At worst the cache thus holds about 190 MB beside the
# codes and their last long words: 16 plans of 2**12-state automata, each
# built once its containers declared 2**15 symbols.
_PLANS = 16
_WORD_BITS = 1 << 18


class _Words(dict):
    """{symbol: codeword} under one plan's code, each word written by
    LengthSeq.codeword when first asked for and kept while the kept words
    hold at most _WORD_BITS bits in all. `last` holds the last word not
    kept, with its symbol, so that a repeat of it is a copy; a refused
    symbol is never stored.

    Threads share it: a read takes no lock, and a store takes `lock`, so
    `bits` counts the kept words' bits exactly; a race only writes the same
    word twice."""

    def __init__(self, code: LengthSeq) -> None:
        super().__init__()
        self.codeword = code.codeword
        self.bits = 0
        self.last = (None, "")
        self.lock = threading.Lock()

    def __missing__(self, symbol: int) -> str:
        held, word = self.last
        if held == symbol:
            return word
        word = self.codeword(symbol)
        with self.lock:
            if symbol not in self and self.bits + len(word) <= _WORD_BITS:
                self.bits += len(word)
                self[symbol] = word
            else:
                self.last = symbol, word
        return word


class _Plan:
    """What coding derives from one code alone, each fact computed once
    and shared by every container that carries its descriptor.

    `rows` and `order` are the code's head record (bits._canonical_head),
    which _decode_canonical reads head words from. `width` is the longest
    head length, spine included, the zeros _bits pads. `spine` is the
    spine's length and `k` the run's, 0 for a code with no run; symbols
    len(order) on take the run's words. `automaton` is the code's
    (_automaton), None until _plan_automaton builds it under `lock` once
    `decoded`, the symbols its containers declared, reaches `due` (a race
    may lose a count, which only delays the build). `words` is encode's
    word table (_Words).
    """

    def __init__(self, code: LengthSeq) -> None:
        self.code = code
        lengths, tail = code.head, code.tail
        self.spine = tail.spine if tail else 0
        self.k = tail.k if tail else 0
        self.width = max(lengths + (self.spine,))
        self.rows, self.order, _ = code._canonical
        self.automaton = None
        self.decoded = 0
        self.due = 8       # half the root's 16 entries
        self.lock = threading.Lock()
        self.words = _Words(code)


@lru_cache(maxsize=_PLANS)
def _plan(descriptor: bytes) -> _Plan:
    return _Plan(_parse_descriptor(descriptor))


def _plan_automaton(plan: _Plan, count: int):
    """The plan's automaton, counting count more decoded symbols: built by
    the first container after which they reach half its entries, so that
    the build costs under 2 entries per symbol; None before, and for good
    where the code takes none."""
    plan.decoded += count
    if plan.automaton is None and plan.decoded >= plan.due:
        with plan.lock:
            if plan.automaton is None and plan.decoded >= plan.due:
                states, plan.automaton = _automaton(plan, plan.decoded)
                plan.due = 8 * states if states else float("inf")
    return plan.automaton


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
    try:
        if _plan_automaton(plan, count):
            symbols, pos = _walk(payload, count, plan)
        else:
            symbols = []
            pos = _decode_canonical(_bits(payload, plan), 0, symbols, count,
                                    plan)
    except (ValueError, IndexError, KeyError):  # reads past the end
        raise ContainerError("truncated payload") from None
    if pos > nbits:
        raise ContainerError("truncated payload")
    if nbits - pos >= 8:
        raise ContainerError("extra bytes after the payload")
    if pos < nbits and payload[-1] & (1 << nbits - pos) - 1:
        raise ContainerError("nonzero padding bits")
    return plan.code, symbols


def decode(data: bytes) -> list[int]:
    return read_container(data)[1]
