"""Multiset container, text grammar, and JSON form."""

import pytest
from hypothesis import given, strategies as st

from zsseq import (
    BoundedSequence,
    SequenceBoundError,
    SequenceOverflowError,
    SequenceSyntaxError,
    SubsequenceError,
    concat,
    format_sequence,
    is_subsequence,
    negate,
    parse_sequence,
    remove,
    repeat,
)
from zsseq.sequences import parse_integers

term_dicts = st.dictionaries(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=40), max_size=8
)


def seq_of(mapping, bound=None):
    return BoundedSequence.from_terms(mapping, bound)


@pytest.mark.parametrize(
    "text,terms",
    [
        ("2^1,1^2,-1^4", ((-1, 4), (1, 2), (2, 1))),
        ("1,1,1^2", ((1, 4),)),
        ("  1 , -1 ", ((-1, 1), (1, 1))),
        ("+3^2", ((3, 2),)),
        ("0^5", ((0, 5),)),
        ("", ()),
        ("   ", ()),
    ],
)
def test_parse_examples(text, terms):
    assert parse_sequence(text).terms == terms


@pytest.mark.parametrize(
    "text", ["1^0", "^2", "1^", "a", "1;2", "1,,2", "2^-1", "1^+2", "1^" + "1" * 5000, "9" * 5000]
)
def test_parse_rejects_bad_terms(text):
    with pytest.raises(SequenceSyntaxError):
        parse_sequence(text)


def test_parse_integers_keeps_order():
    assert parse_integers(" 3, -1 ,+5,,7,") == [3, -1, 5, 7]
    assert parse_integers("") == []


@pytest.mark.parametrize("text", ["1,x", "1^2", "1_0", "2.5", "9" * 5000])
def test_parse_integers_rejects_bad_terms(text):
    with pytest.raises(SequenceSyntaxError):
        parse_integers(text)


def test_parse_enforces_given_bound():
    assert parse_sequence("2^1,-2^1", bound=2).bound == 2
    with pytest.raises(SequenceBoundError):
        parse_sequence("3^1", bound=2)


def test_bound_is_inferred_from_content():
    assert parse_sequence("1^2,-4^1").bound == 4
    assert parse_sequence("").bound == 1
    assert parse_sequence("0^3").bound == 1


@given(term_dicts)
def test_text_round_trip(terms):
    s = seq_of(terms)
    assert parse_sequence(format_sequence(s), bound=s.bound) == s


def test_json_dict_shape():
    doc = parse_sequence("2^1,-1^4").to_json_dict()
    assert doc == {"k": 2, "terms": [{"value": -1, "mult": 4}, {"value": 2, "mult": 1}]}


def test_basic_queries():
    s = parse_sequence("3^2,-1^5,0^1")
    assert s.length == 8
    assert s.sigma == 1
    assert s.support == (-1, 0, 3)
    assert s.multiplicity(3) == 2
    assert s.multiplicity(7) == 0
    assert s.as_dict() == {-1: 5, 0: 1, 3: 2}
    assert str(s) == "-1^5,0^1,3^2"


def test_from_terms_accumulates_and_drops_zeros():
    s = BoundedSequence.from_terms([(1, 2), (1, 3), (2, 0)])
    assert s.terms == ((1, 5),)


def test_from_terms_rejects_negative_multiplicity():
    with pytest.raises(SequenceBoundError):
        BoundedSequence.from_terms({1: -1})


def test_from_elements():
    s = BoundedSequence.from_elements([1, -2, 1, 0])
    assert s.terms == ((-2, 1), (0, 1), (1, 2))
    assert s.bound == 2
    assert BoundedSequence.from_elements([]) == BoundedSequence(1)


def test_direct_construction_validates():
    with pytest.raises(SequenceBoundError):
        BoundedSequence(2, ((3, 1),))
    with pytest.raises(SequenceBoundError):
        BoundedSequence(0, ())
    with pytest.raises(SequenceBoundError):
        BoundedSequence(2, ((1, 1), (1, 2)))  # not strictly ascending
    with pytest.raises(SequenceBoundError):
        BoundedSequence(2, ((1, 0),))  # zero multiplicity


def test_overflow_guards():
    with pytest.raises(SequenceOverflowError):
        BoundedSequence.from_terms({1: 2**62, -1: 2**62}, bound=4)
    with pytest.raises(SequenceOverflowError):
        BoundedSequence.from_terms({1: 2**60}, bound=16)  # bound * length too large


@given(term_dicts, term_dicts)
def test_concat_then_remove_is_identity(a, b):
    s, t = seq_of(a), seq_of(b)
    merged = concat(s, t)
    assert merged.length == s.length + t.length
    assert merged.sigma == s.sigma + t.sigma
    back = remove(merged, t)
    assert back.terms == s.terms


@given(term_dicts)
def test_subsequence_reflexive_and_remove_self(terms):
    s = seq_of(terms)
    assert is_subsequence(s, s)
    assert remove(s, s).length == 0


def test_remove_requires_subsequence():
    with pytest.raises(SubsequenceError):
        remove(parse_sequence("1^2"), parse_sequence("1^3"))
    with pytest.raises(SubsequenceError):
        remove(parse_sequence("1^2"), parse_sequence("2^1"))


@given(term_dicts)
def test_negate_involution(terms):
    s = seq_of(terms)
    assert negate(negate(s)) == s
    assert negate(s).sigma == -s.sigma


@pytest.mark.parametrize("count,length", [(0, 0), (1, 3), (4, 12)])
def test_repeat(count, length):
    s = parse_sequence("2^1,-1^2")
    r = repeat(s, count)
    assert r.length == length
    assert r.sigma == 0


def test_repeat_rejects_negative_count():
    with pytest.raises(SequenceBoundError):
        repeat(parse_sequence("1^1"), -1)


def test_sequences_are_hashable_and_frozen():
    s = parse_sequence("1^2,-1^2")
    assert s == parse_sequence("1^2,-1^2")
    assert hash(s) == hash(parse_sequence("1^2,-1^2"))
    with pytest.raises(AttributeError):
        s.bound = 3
    assert vars(s).keys() == {"bound", "terms", "_length"}
