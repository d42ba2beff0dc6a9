"""Block machinery: rewriting, stripping, padding."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from zsseq import (
    PreconditionError,
    build_block,
    build_table,
    complete_block,
    foreign_count,
    is_subsequence,
    is_t_avoiding,
    parse_sequence,
    reduce_fixpoint,
    reduce_step,
    strip_blocks,
)
from zsseq import reduction
from zsseq.sequences import BoundedSequence, concat, remove, repeat


@pytest.mark.parametrize(
    "alpha,beta,terms,length",
    [
        (1, 1, ((-1, 1), (1, 1)), 2),
        (3, 2, ((-2, 3), (3, 2)), 5),
        (2, 4, ((-4, 1), (2, 2)), 3),
        (4, 2, ((-2, 2), (4, 1)), 3),
        (6, 4, ((-4, 3), (6, 2)), 5),
    ],
)
def test_build_block(alpha, beta, terms, length):
    x = build_block(alpha, beta)
    assert x.block.terms == terms
    assert x.length == length
    assert x.block.sigma == 0


def test_build_block_requires_positive_parameters():
    with pytest.raises(PreconditionError):
        build_block(0, 2)
    with pytest.raises(PreconditionError):
        build_block(2, -1)


def test_foreign_count():
    x = build_block(2, 1)
    s = parse_sequence("2^3,1^2,0^1,-1^4,-2^2")
    assert foreign_count(s, x) == 5  # 1^2, 0^1, -2^2


def test_append_blocks_grows_by_whole_blocks():
    x = build_block(3, 2)
    s = parse_sequence("1^1,-1^1")
    grown = concat(s, repeat(x.block, 4))
    assert grown.length == s.length + 4 * x.length
    assert grown.sigma == 0


def test_append_preserves_avoidance_when_block_values_are_abundant():
    # 7-avoiding at k=2 (zero-sum lengths are multiples of 3), with at
    # least ceil(2*7/3) = 5 copies of each block value.
    s = parse_sequence("2^5,-1^10")
    x = build_block(2, 1)
    assert is_t_avoiding(s, 7)
    assert is_t_avoiding(concat(s, repeat(x.block, 10)), 7)


def test_append_can_break_avoidance_without_abundance():
    # 3-avoiding, but with no copies of the block values at all: two
    # appended blocks supply 1^2 . (-1)^2 and create {2,-1,-1}.
    s = parse_sequence("2^1,-2^1")
    x = build_block(1, 1)
    assert is_t_avoiding(s, 3)
    assert is_t_avoiding(concat(s, repeat(x.block, 1)), 3)
    assert not is_t_avoiding(concat(s, repeat(x.block, 2)), 3)


def test_reduce_step_worked_example():
    s = parse_sequence("3^1,1^4,-1^7")
    x = build_block(1, 1)
    step = reduce_step(s, x)
    assert step is not None
    assert step.removed == parse_sequence("3^1,-1^3")
    assert step.inserted_copies == 2
    assert step.result == parse_sequence("1^6,-1^6", bound=3)


def test_reduce_step_none_without_foreign_elements():
    x = build_block(2, 3)
    assert reduce_step(parse_sequence("2^3,-3^2"), x) is None


def test_reduce_step_none_when_no_qualifying_subsequence():
    # The single foreign element 5 cannot be completed to a zero-sum
    # piece of block length from 1^1 alone.
    s = BoundedSequence.from_terms({5: 1, 1: 1}, bound=5)
    assert reduce_step(s, build_block(1, 1)) is None


def test_reduce_step_removed_piece_properties():
    s = parse_sequence("3^2,2^1,1^3,-1^6,-2^2,0^1")
    x = build_block(1, 1)
    step = reduce_step(s, x)
    assert step is not None
    assert step.removed.sigma == 0
    assert step.removed.length == step.inserted_copies * x.length
    assert is_subsequence(step.removed, s)
    # the removed piece must carry at least one foreign element
    assert any(v not in (1, -1) for v, _ in step.removed.terms)


def full_cap_reduce_step(s, x):
    """reduce_step with every table of s - {f} built up to max_j * |X| - 1."""
    keep = {x.alpha, -x.beta}
    foreign_values = [value for value, _ in s.terms if value not in keep]
    max_j = s.length // x.length
    if not foreign_values or max_j < 1:
        return None
    tables = {
        f: build_table(remove(s, BoundedSequence.from_terms({f: 1}, s.bound)), max_j * x.length - 1)
        for f in foreign_values
    }
    for j in range(1, max_j + 1):
        for f in foreign_values:
            rest = tables[f].witness(j * x.length - 1, -f)
            if rest is not None:
                removed = concat(rest, BoundedSequence.from_terms({f: 1}, s.bound))
                return concat(remove(s, removed), repeat(x.block, j)), removed, j
    return None


def test_reduce_step_matches_the_full_cap_reference():
    # The short-side tables must pick the same j, f and witness as tables
    # tall enough to answer every j|X| - 1 directly.  Half the sequences are
    # shorter than 2|X| - 1, so j = 1 is answered through the complement.
    def steps_like_the_reference(s, x):
        step = reduce_step(s, x)
        expected = full_cap_reduce_step(s, x)
        got = None if step is None else (step.result, step.removed, step.inserted_copies)
        assert got == expected, (s, x.alpha, x.beta)
        return None if step is None else step.inserted_copies

    rng = random.Random(11)
    stepped = 0
    for trial in range(200):
        k = rng.randint(2, 5)
        x = build_block(rng.randint(1, k), rng.randint(1, k))
        n = rng.randint(0, 40) if trial % 2 else rng.randint(x.length, 2 * x.length - 2)
        s = BoundedSequence.from_elements([rng.randint(-k, k) for _ in range(n)], bound=k)
        stepped += steps_like_the_reference(s, x) is not None
    assert stepped > 80

    # Block values plus one foreign f = b*beta - a*alpha with a + b = j0|X| - 1
    # for j0 in {2, 3}: f may be too far from zero for |X| - 1 block values
    # to cancel, so the j = 1 tables miss and the rebuilt ones must answer.
    later = 0
    for _ in range(100):
        x = build_block(rng.randint(1, 3), rng.randint(1, 3))
        piece = rng.randint(2, 3) * x.length - 1
        a = rng.randint(0, piece)
        b = piece - a
        f = b * x.beta - a * x.alpha
        counts = {x.alpha: a + rng.randint(0, 2), -x.beta: b + rng.randint(0, 2)}
        counts[f] = counts.get(f, 0) + 1
        j = steps_like_the_reference(BoundedSequence.from_terms(counts), x)
        later += j is not None and j >= 2
    assert later > 30


def test_reduce_step_tables_start_at_the_height_of_one_block(monkeypatch):
    heights = []
    real = reduction.build_table

    def recording(seq, max_length, *args, **kwargs):
        heights.append(max_length)
        return real(seq, max_length, *args, **kwargs)

    monkeypatch.setattr(reduction, "build_table", recording)
    # j = 1: -2 cancels 2 alone, so the table needs height
    # min(|X| - 1, n - |X|) = 1, not the 200 that j = 101 needs.
    step = reduce_step(parse_sequence("2^1,-2^1,1^200,-1^200"), build_block(1, 1))
    assert step is not None and step.inserted_copies == 1
    assert heights == [1]

    # j = 1 fails for the one foreign value 3, so its table is rebuilt once,
    # at max over j = 2..6 of min(2j - 1, 12 - 2j) = 5.
    heights.clear()
    step = reduce_step(parse_sequence("3^1,1^4,-1^7"), build_block(1, 1))
    assert step is not None and step.inserted_copies == 2
    assert heights == [1, 5]

    # |X| = 5 for X = 3^2 . (-2)^3; f = -1 is cancelled by 3, 1, -1, -2.
    heights.clear()
    step = reduce_step(parse_sequence("3^1,1^4,-1^6,-2^1"), build_block(3, 2))
    assert step is not None and step.inserted_copies == 1
    assert heights == [min(5 - 1, 12 - 5)]


def test_reduce_fixpoint_trace_replays():
    s = parse_sequence("3^1,2^2,1^2,-1^7,-2^1,0^1")
    x = build_block(1, 1)
    trace = reduce_fixpoint(s, x)
    assert trace.initial == s
    current = s
    for st_ in trace.steps:
        current = concat(remove(current, st_.removed), repeat(x.block, st_.inserted_copies))
    assert current == trace.fixpoint
    assert trace.fixpoint.length == s.length
    assert trace.fixpoint.sigma == 0
    assert reduce_step(trace.fixpoint, x) is None
    assert len(trace.steps) <= foreign_count(s, x)


def test_reduce_fixpoint_is_deterministic():
    s = parse_sequence("3^2,1^5,-1^9,-2^1")
    x = build_block(1, 1)
    assert reduce_fixpoint(s, x) == reduce_fixpoint(s, x)


def test_strip_blocks():
    x = build_block(3, 2)
    s = parse_sequence("3^5,-2^7,1^1")
    stripped, count = strip_blocks(s, x)
    assert count == 2  # limited by 5 // 2 copies of 3 vs 7 // 3 copies of -2
    assert stripped == parse_sequence("3^1,-2^1,1^1")
    again, zero = strip_blocks(stripped, x)
    assert zero == 0
    assert again == stripped


def test_strip_blocks_trace_fields():
    s = parse_sequence("1^4,-1^5,0^1")
    x = build_block(1, 1)
    trace = reduce_fixpoint(s, x)
    assert trace.stripped == strip_blocks(trace.fixpoint, x)[0]
    assert trace.strip_count == strip_blocks(trace.fixpoint, x)[1]
    assert trace.strip_count * x.length + trace.stripped.length == s.length


@pytest.mark.parametrize(
    "text,alpha,beta,expected",
    [
        ("1^1", 3, 2, "-2^2,1^1,3^1"),
        ("", 1, 1, ""),
        ("-5^1", 3, 2, "-5^1,-2^2,3^3"),
        ("1^1,2^1", 3, 3, "-3^1,1^1,2^1"),
    ],
)
def test_complete_block_examples(text, alpha, beta, expected):
    completed = complete_block(parse_sequence(text), build_block(alpha, beta))
    assert completed == parse_sequence(expected)
    assert completed.sigma == 0


def test_complete_block_divisibility_precondition():
    with pytest.raises(PreconditionError):
        complete_block(parse_sequence("1^1"), build_block(2, 4))


@given(
    st.dictionaries(
        st.integers(min_value=-5, max_value=5), st.integers(min_value=1, max_value=4), max_size=4
    ),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=200)
def test_complete_block_always_zero_sum(terms, alpha, beta):
    t = BoundedSequence.from_terms(terms)
    x = build_block(alpha, beta)
    if t.sigma % x.g:
        with pytest.raises(PreconditionError):
            complete_block(t, x)
        return
    completed = complete_block(t, x)
    assert completed.sigma == 0
    assert is_subsequence(t, completed)
    # only block values were added
    added = remove(completed, t)
    assert set(added.support) <= {alpha, -beta}
