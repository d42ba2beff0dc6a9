"""Block machinery: rewriting, stripping, padding."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from zsseq import (
    PreconditionError,
    ResourceLimitError,
    SequenceBoundError,
    build_block,
    build_table,
    complete_block,
    estimate_table_bytes,
    foreign_count,
    is_subsequence,
    is_t_avoiding,
    parse_sequence,
    reduce_fixpoint,
    reduce_step,
    strip_blocks,
)
from zsseq import reduction
from zsseq.detect import DEFAULT_MEMORY_LIMIT
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


def stepwise_steps(s, x, memory_limit=DEFAULT_MEMORY_LIMIT):
    """The steps of a loop that calls reduce_step at every step."""
    steps = []
    step = reduce_step(s, x, memory_limit=memory_limit)
    while step is not None:
        steps.append(step)
        step = reduce_step(step.result, x, memory_limit=memory_limit)
    return steps


def counting_reduce_step(monkeypatch):
    """Record what each reduce_step call that reduce_fixpoint makes returns."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(reduce_step(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(reduction, "reduce_step", counting)
    return calls


def seeded_rewrites(seed, count):
    """(s, x, kind) for fixpoints of every kind the repeat lemma must survive.

    Kinds: random s; zero-sum s; s with 1-10 whole blocks appended; block
    values plus one foreign value only j >= 2 can place; and
    |X| <= n <= 2|X| - 2, where n - |X| < |X| - 1, so the j = 1 tables
    answer through the complement.  k runs over 1..6.
    """
    rng = random.Random(seed)
    kinds = ("random", "zero-sum", "blocks", "later-j", "mirrored")
    for i in range(count):
        kind = kinds[i % len(kinds)]
        k = rng.randint(1, 6)
        x = build_block(rng.randint(1, k), rng.randint(1, k))
        if kind == "later-j":
            piece = rng.randint(2, 3) * x.length - 1
            a = rng.randint(0, piece)
            f = (piece - a) * x.beta - a * x.alpha
            spare = rng.randint(0, 3 * piece)
            counts = {x.alpha: a + spare, -x.beta: piece - a + spare}
            counts[f] = counts.get(f, 0) + rng.randint(1, 3)
            yield BoundedSequence.from_terms(counts), x, kind
            continue
        n = rng.randint(x.length, 2 * x.length - 2) if kind == "mirrored" else rng.randint(0, 36)
        elements = [rng.randint(-k, k) for _ in range(n)]
        if kind == "zero-sum":
            total = sum(elements)
            while total:
                elements.append(max(-k, min(k, -total)))
                total += elements[-1]
        s = BoundedSequence.from_elements(elements, bound=k)
        if kind == "blocks":
            s = concat(s, repeat(x.block, rng.randint(1, 10)))
        yield s, x, kind


def test_reduce_fixpoint_repeats_exactly_the_steps_reduce_step_takes(monkeypatch):
    # Every step reduce_fixpoint makes, repeated or searched, is the one a
    # loop calling reduce_step at every step makes: result, removed piece
    # and copies.  The repeat must also fire, or the test proves nothing.
    calls = counting_reduce_step(monkeypatch)
    steps, repeated = Counter(), Counter()
    for s, x, kind in seeded_rewrites(28, 5000):
        expected = stepwise_steps(s, x)
        calls.clear()
        trace = reduce_fixpoint(s, x)
        assert trace.steps == tuple(expected), (str(s), x.alpha, x.beta)
        searched = {id(step) for step in calls}
        for step in trace.steps:
            keys = (kind, "j >= 2" if step.inserted_copies > 1 else "j = 1")
            steps.update(keys)
            if id(step) not in searched:
                repeated.update(keys)
    assert min(steps.values()) > 200, steps
    # A mirrored input leaves fewer than |X| - 1 elements beside its piece,
    # so a rising block value seldom had c copies: none of these repeat.
    assert repeated.total() > steps.total() * 0.3
    assert min(repeated[key] for key in steps if key != "mirrored") > 100, repeated


def test_reduce_fixpoint_repeats_while_the_piece_fits(monkeypatch):
    # -2, 2 is removed four times: the first by a search, the next three
    # by the lemma (1 and -1 only rise, and c = |X| - 1 = 1 copy of each
    # was already there).  Then no 2 is left for a fifth, so the lemma
    # does not hold, though 1 and -1 have 4 copies, and the fixpoint is
    # found by a search.
    calls = counting_reduce_step(monkeypatch)
    x = build_block(1, 1)
    trace = reduce_fixpoint(parse_sequence("2^4,-2^4,1^1,-1^1"), x)
    assert [str(step.removed) for step in trace.steps] == ["-2^1,2^1"] * 4
    assert str(trace.fixpoint) == "-1^5,1^5"
    assert calls == [trace.steps[0], None]  # the first step, then the fixpoint


@pytest.mark.parametrize(
    "text,alpha,beta,copies,repeats",
    [
        # j = 1: -2, 2 is removed, 1 and -1 rise from c = 1 copy each, and
        # the piece fits eleven more times.
        ("2^12,-2^12,1^1,-1^1", 1, 1, 1, 11),
        # j = 2: 3, -1^3 is removed (no j = 1 piece holds 3), 1 rises by 2
        # from 50 copies, at least the 49 rows of the later-j tables
        # (n = 100, |X| = 2), and 3 runs out after nine more.
        ("3^10,-1^40,1^50", 1, 1, 2, 9),
    ],
)
def test_reduce_fixpoint_makes_a_whole_run_after_one_search(monkeypatch, text, alpha, beta, copies, repeats):
    calls = counting_reduce_step(monkeypatch)
    s, x = parse_sequence(text), build_block(alpha, beta)
    trace = reduce_fixpoint(s, x)
    assert len(trace.steps) == 1 + repeats
    assert {(step.removed, step.inserted_copies) for step in trace.steps} == {
        (trace.steps[0].removed, copies)
    }
    assert calls == [trace.steps[0], None]  # one search, the run, the final search
    monkeypatch.undo()
    assert trace.steps == tuple(stepwise_steps(s, x))


def test_repeat_falls_back_when_a_block_value_rises_from_below_the_cap():
    # X = 2 . (-1)^2.  The first step removes 0^3 and brings in the first
    # 2, which lets the foreign -2 take part: reduce_step's next piece is
    # -2, 0, 2, not 0^3 again, though 0^3 still fits.
    x = build_block(2, 1)
    s = parse_sequence("-2^1,0^7")
    first = reduce_step(s, x)
    assert str(first.removed) == "0^3" and is_subsequence(first.removed, first.result)
    assert reduction._run(first, x) == []
    second = reduce_step(first.result, x)
    assert str(second.removed) == "-2^1,0^1,2^1"
    assert reduce_fixpoint(s, x).steps == tuple(stepwise_steps(s, x))


def test_later_height_is_the_closed_form_of_the_largest_later_j_height():
    # reduce_step's later-j tables and the run's cap read this height.
    for size in range(1, 41):
        for n in range(1001):
            heights = [min(j * size - 1, n - j * size) for j in range(2, n // size + 1)]
            assert reduction._later_height(n, size) == (max(heights) if heights else None), (n, size)


def test_step_results_drop_zero_counts_and_refuse_negative_ones():
    assert reduction._from_counts(3, {2: 1, -3: 2, 0: 0}) == parse_sequence("-3^2,2^1", bound=3)
    with pytest.raises(SequenceBoundError):
        reduction._from_counts(3, {1: -1})


def outcome(run):
    try:
        return "steps", tuple(run())
    except ResourceLimitError as exc:
        return "refused", str(exc)


def test_reduce_fixpoint_refuses_exactly_where_the_stepwise_loop_does(monkeypatch):
    # Sweep memory_limit across every table estimate the stepwise loop
    # meets, one byte below each: reduce_fixpoint must raise the same
    # ResourceLimitError, or return the same steps.  The first input ends
    # with two j = 2 steps that remove the same piece.  Between them -3
    # rises from 5 copies to 7, and the later-j tables have height 7
    # (n = 15, |X| = 2), so their window widens: the lemma must count
    # copies up to that height, and a cap between the two estimates must
    # refuse the second search.
    estimates = []
    real = reduction.build_table

    def recording(seq, max_length, *args, **kwargs):
        estimates.append(estimate_table_bytes(seq, max_length))
        return real(seq, max_length, *args, **kwargs)

    inputs = [(parse_sequence("-3^4,-2^5,0^2,1^2,3^2"), build_block(3, 3))]
    inputs += [(s, x) for s, x, kind in seeded_rewrites(5, 100) if kind in ("later-j", "blocks")]
    refused = 0
    for s, x in inputs:
        estimates.clear()
        monkeypatch.setattr(reduction, "build_table", recording)
        stepwise_steps(s, x)
        monkeypatch.setattr(reduction, "build_table", real)
        for limit in sorted({e - 1 for e in estimates}):
            expected = outcome(lambda: stepwise_steps(s, x, memory_limit=limit))
            got = outcome(lambda: reduce_fixpoint(s, x, memory_limit=limit).steps)
            assert got == expected, (str(s), x.alpha, x.beta, limit)
            refused += expected[0] == "refused"
    assert refused > 100
