"""Varint runs and length lists in `epc.bits`: the one-byte varint path
against the per-varint loop, and the integer and prefix-code checks on
length lists. Needs hypothesis (the `test` extra)."""
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epc import (ContainerError, ExplicitCode, LengthSeq, UnaryEndedCode,
                 UnaryTail, decode, encode)
from epc.bits import (integer_lengths, kraft_sign, kraft_total,
                      uleb128_decode, uleb128_decode_all, uleb128_encode,
                      uleb128_encode_all)
from oracles import canonical_words, kraft_fraction

# derandomized: every run draws the same examples and writes no database
SEEDED = settings(derandomize=True, database=None, deadline=None)

# one-byte values, two-byte ones that still fit in a byte, longer ones,
# and ones past the 64-bit decode limit
_VALUES = st.one_of(st.integers(0, 0x7F), st.integers(0x80, 0xFF),
                    st.integers(0x100, 2 ** 20), st.integers(0, 2 ** 70))


def _loop_decode(data, offset, n):
    values = []
    for _ in range(n):
        value, offset = uleb128_decode(data, offset)
        values.append(value)
    return values, offset


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ContainerError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def _varint_runs(draw):
    """(data, offset, n): encoded values behind a random prefix, perhaps
    cut short, perhaps followed by more bytes, asked for a nearby count."""
    values = draw(st.lists(_VALUES, max_size=40))
    prefix = draw(st.binary(max_size=8))
    run = b"".join(map(uleb128_encode, values))
    if draw(st.booleans()):
        run = run[:draw(st.integers(0, len(run)))]
    data = prefix + run + draw(st.binary(max_size=8))
    n = max(0, len(values) + draw(st.integers(-3, 3)))
    return data, len(prefix), n


@SEEDED
@given(_varint_runs())
def test_decode_all_matches_the_loop(case):
    data, offset, n = case
    assert _outcome(uleb128_decode_all, data, offset, n) == \
        _outcome(_loop_decode, data, offset, n)


@SEEDED
@given(st.binary(max_size=48), st.integers(0, 50), st.integers(0, 50))
def test_decode_all_matches_the_loop_on_raw_bytes(data, offset, n):
    assert _outcome(uleb128_decode_all, data, offset, n) == \
        _outcome(_loop_decode, data, offset, n)


@SEEDED
@given(st.lists(st.one_of(_VALUES, st.integers(-3, -1)), max_size=40))
def test_encode_all_matches_the_loop(values):
    assert _outcome(uleb128_encode_all, values) == \
        _outcome(lambda vs: b"".join(map(uleb128_encode, vs)), values)


def test_one_byte_run_is_its_bytes():
    assert uleb128_encode_all([0, 1, 127]) == b"\x00\x01\x7f"
    assert uleb128_encode_all([]) == b""
    assert uleb128_encode_all([1, 200]) == b"\x01\xc8\x01"
    assert uleb128_decode_all(b"\xff\x05\x7f\x00", 1, 3) == ([5, 127, 0], 4)
    with pytest.raises(ContainerError, match="truncated header varint"):
        uleb128_decode_all(b"\x05\x06", 0, 3)


def test_lengths_must_be_integers():
    # int() used to truncate these: (1.5, 1.9) became the code for (1, 1)
    with pytest.raises(ValueError,
                       match=r"^lengths are integers, got float 1\.5$"):
        ExplicitCode.from_lengths([1.5, 1.9])
    with pytest.raises(ValueError,
                       match="^lengths are integers, got str '1'$"):
        ExplicitCode.from_lengths(["1", "1"])
    with pytest.raises(ValueError, match="got float 2.0"):
        ExplicitCode.from_lengths([1, 2.0, 2])
    # a bare TypeError from the Kraft sum before; the spine, a tail record,
    # is read before the head
    with pytest.raises(ValueError, match=r"got float 1\.7"):
        UnaryEndedCode([1.7], 1)
    with pytest.raises(ValueError, match=r"^bad tail record: lengths are "
                       r"integers, got float 1\.2$"):
        UnaryEndedCode([1.7], 1.2)
    with pytest.raises(ValueError, match=r"got float 1\.0"):
        UnaryEndedCode([1], 1.0)
    with pytest.raises(ValueError, match="got NoneType None"):
        UnaryEndedCode([1], None)
    # anything operator.index accepts is an integer length
    assert ExplicitCode.from_lengths([True, 1]) == \
        ExplicitCode.from_lengths([1, 1])
    # an iterator is read into a tuple first, since the error path reads
    # the lengths again to name the bad one
    assert integer_lengths(iter([2, 1, 2])) == (2, 1, 2)
    with pytest.raises(ValueError, match=r"^lengths are integers, got float "
                                         r"2\.5$"):
        integer_lengths(length for length in (1, 2.5, 3))


def _refusal(fn, lengths):
    try:
        fn(lengths)
    except ValueError as exc:
        return str(exc)
    return None


def _container_refusal(lengths):
    """Why decode refuses an explicit descriptor of these nonnegative
    lengths, or None; encode refuses a code built from them for the same
    reason."""
    blob = (b"EPC1\x01\x02" + uleb128_encode(len(lengths))
            + uleb128_encode_all(lengths) + bytes(8))
    try:
        decode(blob)
        refusal = None
    except ContainerError as exc:
        refusal = str(exc).removeprefix("bad code descriptor: ")
    if _refusal(ExplicitCode.from_lengths, lengths) is None:
        encoded = _refusal(lambda ls: encode([], ExplicitCode(ls)), lengths)
        assert encoded == (refusal and "no container holds this code: "
                           f"bad code descriptor: {refusal}")
    return refusal


@pytest.mark.parametrize("lengths, message", [
    ((), "need at least one codeword"),
    ((1, 3), "codeword length 3 exceeds the alphabet size 2"),
    ((0, 5), "codeword length 5 exceeds the alphabet size 2"),
    ((2, 0, 2), "lengths must be positive"),
    ((-1, 1), "lengths must be positive"),
    ((1, 1, 2), "lengths violate the Kraft inequality"),
    ((2, 1, 2, 3), "lengths violate the Kraft inequality"),
    ((1, 2), None),
    ((3, 1, 3), None),
])
def test_from_lengths_refuses_what_canonical_codewords_refuses(lengths,
                                                                message):
    # a word count and the cap are the container's rules: encode and decode
    # refuse those lengths, which still make a code
    if min(lengths, default=0) < 0:     # no descriptor holds one
        assert _refusal(ExplicitCode.from_lengths, lengths) == message
    else:
        assert _container_refusal(lengths) == message


@st.composite
def _tree_lengths(draw):
    """Leaf depths of a random full binary tree, in a random order."""
    lengths = [1, 1]
    for _ in range(draw(st.integers(0, 30))):
        i = draw(st.integers(0, len(lengths) - 1))
        lengths[i:i + 1] = [lengths[i] + 1] * 2
    return draw(st.permutations(lengths))


@st.composite
def _long_row_lengths(draw):
    """A _tree_lengths tree one of whose leaves grows a stretch of one leaf
    per level past depth 64, some of those leaves perhaps split again: a
    head with rows past 64 bits, which codeword writes by bits._long_word."""
    lengths = list(draw(_tree_lengths()))
    i = draw(st.integers(0, len(lengths) - 1))
    end = draw(st.integers(65, 90))
    lengths[i:i + 1] = [*range(lengths[i] + 1, end + 1), end]
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(lengths) - 1))
        lengths[i:i + 1] = [lengths[i] + 1] * 2
    return draw(st.permutations(lengths))


@SEEDED
@given(st.one_of(st.lists(st.integers(-1, 9), max_size=9), _tree_lengths(),
                 _long_row_lengths()))
@example([0])   # a lone 0: one symbol, the empty word
def test_from_lengths_agrees_with_canonical_codewords(lengths):
    # a code is built exactly where the lengths make a prefix code, a
    # container holds it exactly where they are also within their count,
    # and its words, codeword's, are the textbook canonical ones
    refusal = _refusal(ExplicitCode.from_lengths, lengths)
    positive = min(lengths, default=1) > 0
    builds = ((positive or list(lengths) == [0])
              and kraft_fraction(lengths) <= 1)
    assert (refusal is None) == builds
    fits = builds and positive and 0 < max(lengths, default=0) <= len(lengths)
    if min(lengths, default=0) >= 0:
        assert (_container_refusal(lengths) is None) == fits
    if refusal is None:
        code = ExplicitCode.from_lengths(lengths)
        words = tuple(map(code.codeword, range(len(code.head))))
        assert words == canonical_words(lengths)
        assert code.head == tuple(lengths)
        assert code == ExplicitCode(lengths)
        assert hash(code) == hash(ExplicitCode(lengths))


def test_canonical_codewords_in_length_then_index_order():
    def words(lengths):
        code = ExplicitCode.from_lengths(lengths)
        return tuple(map(code.codeword, range(len(code.head))))

    assert words([3, 1, 3, 2]) == ("110", "0", "111", "10")
    assert words([2, 2, 2]) == ("00", "01", "10")


@st.composite
def _lengths_and_tail(draw):
    """Positive lengths and perhaps a unary run's first length, its spine
    plus one, often with a Kraft sum at or next to one: a full tree's leaf
    depths, one leaf perhaps made the tail's word and perhaps moved a
    level."""
    if draw(st.booleans()):
        lengths = draw(st.lists(st.one_of(st.integers(1, 4),
                                          st.integers(1, 70)), max_size=12))
        tail = draw(st.one_of(st.none(), st.integers(1, 70)))
        return lengths, tail
    lengths = list(draw(_tree_lengths()))
    tail = None
    if draw(st.booleans()):
        tail = lengths.pop() + 1        # the tail fills that leaf's space
    if draw(st.booleans()) and lengths:
        lengths[0] = max(1, lengths[0] + draw(st.sampled_from([-1, 1])))
    return lengths, tail


@SEEDED
@given(_lengths_and_tail())
def test_length_seq_kraft_test_is_exact(case):
    # the tail counts as one more word, of its spine's bits
    lengths, tail_length = case
    words = lengths + ([] if tail_length is None else [tail_length - 1])
    tail = None if tail_length is None else UnaryTail(tail_length - 1)
    try:
        LengthSeq(lengths, tail)
    except ValueError as exc:
        assert str(exc) == "lengths violate the Kraft inequality"
        assert kraft_fraction(words) > 1
    else:
        assert kraft_fraction(words) <= 1
    # the edges: no words sum to 0, and a negative length alone overfills
    # code space
    assert kraft_total(()) == (0, 1)
    assert kraft_sign([-1, 2]) == 1


def _kraft_total_per_word(lengths, extra_length=0):
    """kraft_total as one term per word: the reference it must equal."""
    ls = list(lengths) + ([extra_length] if extra_length else [])
    if not ls:
        return 0, 1
    scale = max(ls)
    return sum(1 << (scale - l) for l in ls), 1 << scale


def test_kraft_total_equals_the_per_word_sum():
    rng = random.Random(44)
    cases = [((), 0), ((), 3), ((0,), 0), ((1, 1), 0)]
    for _ in range(200):
        n = rng.choice((1, 2, 6, 40, 1024))
        lengths = [rng.randint(0, rng.choice((4, 20, 90))) for _ in range(n)]
        cases += [(lengths, 0), (tuple(lengths), rng.randint(1, 100))]
    for lengths, extra in cases:
        assert (kraft_total(lengths, extra)
                == _kraft_total_per_word(lengths, extra)), (lengths, extra)
