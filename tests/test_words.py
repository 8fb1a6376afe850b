"""Eventually periodic words: canonical forms, bit access, structure maps, the
finite-support coding.

Expected values here are computed by hand from the defining bit streams, not
by calling the code under test.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitlearn.errors import ConfigError
from limitlearn.words import (
    Word,
    finite_support_word,
    parse_word,
    split_even_odd,
    with_bits,
)


def interleave(a: Word, b: Word) -> Word:
    """The word whose even bits spell a and whose odd bits spell b."""
    pre_len = max(len(a.pre), len(b.pre))
    n = pre_len + math.lcm(len(a.per), len(b.per))
    text = "".join(x + y for x, y in zip(a.prefix(n), b.prefix(n)))
    return Word(text[:2 * pre_len], text[2 * pre_len:])


bits = st.text(alphabet="01", min_size=0, max_size=8)
periods = st.text(alphabet="01", min_size=1, max_size=6)


def brute_bit(pre: str, per: str, i: int) -> int:
    if i < len(pre):
        return int(pre[i])
    return int(per[(i - len(pre)) % len(per)])


# ---------------------------------------------------------- canonical form

def test_canonical_frozen_examples():
    # absorption folds the shared tail bit into a rotated period
    assert Word("1", "01") == Word("", "10")
    assert Word("11", "1") == Word("", "1")
    assert Word("0", "00") == Word("", "0")
    # no absorption when the last bits differ, period already primitive
    w = Word("01", "10")
    assert (w.pre, w.per) == ("01", "10")
    # period primitivized
    assert Word("", "1010").per == "10"
    assert Word("", "111").per == "1"
    # long tails absorb in one pass, not one bit per step
    assert Word("10" * 50_000 + "1", "01") == parse_word("|10")
    assert Word("0" + "01" * 50_000, "01") == parse_word("0|01")
    assert Word("1" * 100_000, "1" * 6) == parse_word("|1")


def test_bits_frozen():
    w = Word("01", "10")
    assert [w.bit(i) for i in range(7)] == [0, 1, 1, 0, 1, 0, 1]
    assert w.prefix(5) == "01101"
    assert Word("", "0").bit(100) == 0


def test_literal_and_parse():
    assert Word("01", "10").literal == "01|10"
    assert Word("", "1").literal == "|1"
    assert parse_word("01|10") == Word("01", "10")
    assert parse_word("|1") == Word("", "1")
    for bad in ("0110", "0|1|0", "0|", "a|b", "|"):
        with pytest.raises(ConfigError):
            parse_word(bad)


def test_bit_rejects_negative_positions():
    for w in (parse_word("01|0"), parse_word("|1"), Word("110", "01")):
        with pytest.raises(ConfigError):
            w.bit(-1)
    with pytest.raises(ConfigError):
        Word("01", "0").bit(-3)


def test_invalid_construction():
    with pytest.raises(ConfigError):
        Word("01", "")
    with pytest.raises(ConfigError):
        Word("2", "0")


@given(bits, periods)
def test_canonicalization_preserves_bits(pre, per):
    w = Word(pre, per)
    for i in range(len(pre) + 2 * len(per) + 2):
        assert w.bit(i) == brute_bit(pre, per, i)
        assert type(w.bit(i)) is int  # Word.prefix prints str(bit): a bool would print True


@given(bits, periods, st.data())
def test_prefix_and_bit_table_spell_the_bits(pre, per, data):
    w = Word(pre, per)
    n = data.draw(st.integers(-3, 3 * w.size))
    assert w.prefix(n) == "".join(str(w.bit(i)) for i in range(n))
    table = w.bit_table(n)
    assert type(table) is bytes
    assert list(table) == [w.bit(i) for i in range(n)]


@given(bits, periods)
def test_canonical_form_minimal(pre, per):
    w = Word(pre, per)
    # primitive period: no proper divisor length repeats
    for d in range(1, len(w.per)):
        if len(w.per) % d == 0:
            assert w.per != w.per[:d] * (len(w.per) // d)
    # absorption exhausted
    assert not w.pre or w.pre[-1] != w.per[-1]
    assert w.size <= len(pre) + len(per)


@given(bits, periods, bits, periods)
def test_equality_is_sequence_equality(p1, q1, p2, q2):
    a, b = Word(p1, q1), Word(p2, q2)
    horizon = max(a.size, b.size) + 2 * math.lcm(len(a.per), len(b.per))
    same = all(a.bit(i) == b.bit(i) for i in range(horizon))
    assert (a == b) == same


@given(bits, periods)
def test_is_inf_matches_brute_force(pre, per):
    w = Word(pre, per)
    horizon = len(pre) + 2 * len(per)
    brute = any(brute_bit(pre, per, i) for i in range(len(pre), horizon))
    assert w.is_inf == brute


# ------------------------------------------------------------- structure

def test_split_even_odd_frozen():
    even, odd = split_even_odd(Word("", "110"))
    assert even == Word("", "101")
    assert odd == Word("", "110")


@given(bits, periods)
def test_split_parts_sample_the_right_positions(pre, per):
    w = Word(pre, per)
    even, odd = split_even_odd(w)
    for i in range(w.size + 4):
        assert even.bit(i) == w.bit(2 * i)
        assert odd.bit(i) == w.bit(2 * i + 1)


@given(bits, periods, bits, periods)
def test_interleave_inverts_split(p1, q1, p2, q2):
    a, b = Word(p1, q1), Word(p2, q2)
    w = interleave(a, b)
    for i in range(w.size + 4):
        assert w.bit(2 * i) == a.bit(i)
        assert w.bit(2 * i + 1) == b.bit(i)
    e, o = split_even_odd(w)
    assert (e, o) == (a, b)


@given(bits, periods, st.dictionaries(st.integers(0, 39), st.integers(0, 1), max_size=6))
def test_with_bits_sets_exactly_the_given_bits(pre, per, patch):
    w = Word(pre, per)
    v = with_bits(w, patch)
    for i in range(60):
        assert v.bit(i) == patch.get(i, w.bit(i))


def test_with_bits_rejects_bad_bits():
    with pytest.raises(ConfigError):
        with_bits(Word("", "0"), {-1: 1})
    for w, patch in ((Word("", "0"), {3: 2}), (Word("", "01"), {0: -1}), (Word("", "01"), {0: 10}),
                     (Word("", "0"), {2: 11}), (Word("", "0"), {1: 1000})):
        with pytest.raises(ConfigError):
            with_bits(w, patch)


# -------------------------------------------------- finite support coding

def test_finite_support_frozen():
    assert finite_support_word(0) == Word("", "0")
    assert finite_support_word(1) == Word("1", "0")
    assert finite_support_word(2) == Word("01", "0")
    assert finite_support_word(5) == Word("101", "0")
    with pytest.raises(ConfigError):
        finite_support_word(-1)


@given(st.integers(min_value=0, max_value=10_000))
def test_finite_support_round_trip(i):
    w = finite_support_word(i)
    assert not w.is_inf
    assert int(w.pre[::-1] or "0", 2) == i


@settings(max_examples=30)
@given(bits, periods)
def test_word_is_hashable_value_object(pre, per):
    w = Word(pre, per)
    assert hash(w) == hash(Word(w.pre, w.per))
    assert w == Word(w.pre, w.per)
