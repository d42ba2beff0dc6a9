"""Detection kernel against the plain-enumeration oracle.

The kernel (bitset rows) and the oracle (explicit recursion over
multiplicities) are deliberately independent computations of the same
facts; these tests compare them rather than trusting either alone.
"""

import dataclasses
import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from zsseq import detect
from zsseq import (
    CrossCheckError,
    LengthSumTable,
    PreconditionError,
    ResourceLimitError,
    brute_force_pairs,
    brute_force_spectrum,
    build_table,
    check_complement_duality,
    enumerate_extremal,
    estimate_table_bytes,
    find_zero_sum_of_length,
    is_subsequence,
    is_t_avoiding,
    iter_zero_sum_sequences,
    parse_sequence,
    spectrum,
)
from zsseq.sequences import BoundedSequence

small_term_dicts = st.dictionaries(
    st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3), max_size=5
)


def seq_of(mapping):
    return BoundedSequence.from_terms(mapping)


def test_worked_example_spectrum():
    s = parse_sequence("10^9,-9^10")
    assert spectrum(s).as_sorted_list() == [0, 19]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "0^4",
        "1^3,-1^3",
        "2^1,1^2,-1^4",
        "3^2,-2^3",
        "4^2,-3^2,-1^2,0^1",
        "2^5,-1^10",
    ],
)
def test_kernel_matches_oracle_on_fixed_cases(text):
    s = parse_sequence(text)
    table = build_table(s, s.length)
    assert frozenset(table.achievable_pairs()) == brute_force_pairs(s)
    assert table.zero_sum_lengths() == brute_force_spectrum(s)


@given(small_term_dicts)
@settings(max_examples=200)
def test_kernel_matches_oracle_on_random_cases(terms):
    s = seq_of(terms)
    table = build_table(s, s.length)
    assert frozenset(table.achievable_pairs()) == brute_force_pairs(s)


@given(small_term_dicts)
@settings(max_examples=100)
def test_witnesses_are_valid_subsequences(terms):
    s = seq_of(terms)
    table = build_table(s, s.length)
    for length, total in table.achievable_pairs():
        w = table.witness(length, total)
        assert w is not None
        assert is_subsequence(w, s)
        assert w.length == length
        assert w.sigma == total


def test_witness_is_deterministic():
    s = parse_sequence("2^3,1^4,-1^6,-2^2")
    a = find_zero_sum_of_length(s, 6)
    b = find_zero_sum_of_length(s, 6)
    assert a is not None
    assert a.subsequence == b.subsequence


def test_witness_none_when_unreachable():
    table = build_table(parse_sequence("1^3"), 3)
    assert table.witness(2, 0) is None


def test_out_of_range_targets_are_absent():
    s = parse_sequence("1^2,-1^2")
    assert find_zero_sum_of_length(s, -1) is None
    assert find_zero_sum_of_length(s, 5) is None
    empty = find_zero_sum_of_length(s, 0)
    assert empty is not None
    assert empty.subsequence.length == 0


def test_layerless_table_rejects_witness_queries():
    s = parse_sequence("1^2,-1^2")
    table = build_table(s, s.length, keep_layers=False)
    assert table.reachable(2, 0)
    with pytest.raises(PreconditionError):
        table.witness(2, 0)


def test_large_multiplicities_use_binary_decomposition():
    # 1^100 . (-1)^100: zero-sum subsequences are exactly the even lengths.
    s = parse_sequence("1^100,-1^100")
    assert spectrum(s).as_sorted_list() == list(range(0, 201, 2))


@given(small_term_dicts, st.integers(min_value=0, max_value=12))
@settings(max_examples=150)
def test_avoidance_matches_oracle(terms, t):
    s = seq_of(terms)
    assert is_t_avoiding(s, t) == (t not in brute_force_spectrum(s))


@given(st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=100)
def test_complement_duality_on_zero_sum_sequences(k, data):
    elements = data.draw(st.lists(st.integers(min_value=-k, max_value=k), max_size=8))
    total = sum(elements)
    while total != 0:  # pad back to a zero sum
        step = -total if abs(total) <= k else (-k if total > 0 else k)
        elements.append(step)
        total += step
    s = BoundedSequence.from_elements(elements, bound=k)
    assert s.sigma == 0
    for t in range(s.length + 1):
        assert check_complement_duality(s, t)


def test_complement_duality_catches_a_corrupted_row(monkeypatch):
    # Flipping the zero bit of row t in the height-t table must be noticed,
    # so the check reads two independently built rows.
    s = parse_sequence("2^2,1^3,-1^5,-2^1")
    t = 4
    assert check_complement_duality(s, t)
    real = detect.build_table

    def corrupted(seq, max_length, *args, **kwargs):
        table = real(seq, max_length, *args, **kwargs)
        if max_length != t:
            return table
        return dataclasses.replace(table, packed=table.packed ^ 1 << t * table.stride + table.offset)

    monkeypatch.setattr(detect, "build_table", corrupted)
    assert not check_complement_duality(s, t)
    assert not check_complement_duality(s, s.length - t)


@pytest.mark.parametrize(
    "text, height",
    [
        ("-2^1,-1^1", 1),
        ("-3^2,-1^2,3^1,1^1", 2),
        ("-4^3,-3^2,-1^1,2^1", 2),
        ("-2^4,-1^3,0^2,1^1", 1),
        ("-3^2,-2^2,-1^1,2^1", 3),
    ],
)
def test_short_tables_heavy_in_negatives_keep_rows_apart(text, height):
    # Copies pushed past the top row with a negative sum borrow into that
    # row's pad bits; no row may gain a state the oracle does not have.
    s = parse_sequence(text)
    table = build_table(s, height)
    pairs = {(length, total) for length, total in brute_force_pairs(s) if length <= height}
    expected = [0] * (height + 1)
    for length, total in pairs:
        expected[length] |= 1 << total + table.offset
    assert table.rows == tuple(expected)
    for length in range(height + 1):
        for total in range(-table.offset, table.offset + 1):
            assert table.reachable(length, total) == ((length, total) in pairs)


@pytest.mark.parametrize("k", range(1, 9))
def test_packed_payload_fits_the_estimate(k):
    # build_table refuses by estimate_table_bytes, so the estimate must not
    # undercount the ints a table holds: a cap one byte below them refuses.
    for height in (0, 1, 2, 7, 40, 300):
        for values in ([k], [-k, 0], range(-k, k + 1)):
            s = BoundedSequence.from_terms({v: height + 1 for v in values}, k)
            for keep_layers in (True, False):
                table = build_table(s, height, keep_layers=keep_layers)
                # With layers, ``packed`` is the last snapshot, not a copy.
                held = table.snapshots or (table.packed,)
                payload = sum(sys.getsizeof(x) for x in held)
                with pytest.raises(ResourceLimitError):
                    build_table(s, height, memory_limit=payload - 1, keep_layers=keep_layers)


def test_a_tall_table_has_a_printable_repr():
    # Its packed int runs past Python's 4,300-digit str conversion limit.
    table = build_table(parse_sequence("3^60,-3^60"), 60)
    assert table.packed.bit_length() > 4300 * 4
    assert "max_length=60" in repr(table)


def test_complement_duality_preconditions():
    with pytest.raises(PreconditionError):
        check_complement_duality(parse_sequence("1^1"), 0)
    with pytest.raises(PreconditionError):
        check_complement_duality(parse_sequence("1^1,-1^1"), 3)


def test_bad_kernel_witness_raises_cross_check_error(monkeypatch):
    # A witness of the wrong length must be refused, also under ``python -O``.
    bogus = parse_sequence("1^1,-1^1")
    monkeypatch.setattr(LengthSumTable, "witness", lambda self, length, total=0: bogus)
    with pytest.raises(CrossCheckError):
        find_zero_sum_of_length(parse_sequence("1^3,-1^3"), 4)


def test_memory_cap_refusal():
    s = parse_sequence("1^100000,-1^100000")
    with pytest.raises(ResourceLimitError):
        spectrum(s, memory_limit=10_000)


def test_estimate_grows_with_length():
    small = estimate_table_bytes(parse_sequence("1^5,-1^5"), 10)
    big = estimate_table_bytes(parse_sequence("1^500,-1^500"), 1000)
    assert 0 < small < big


def test_iter_zero_sum_sequences_matches_filtered_enumeration():
    # Independent route: all multisets of each length, filtered by sum.
    def all_multisets(values, i, room, acc):
        if i == len(values):
            if room == 0:
                yield dict(acc)
            return
        v = values[i]
        for c in range(room + 1):
            acc[v] = c
            yield from all_multisets(values, i + 1, room - c, acc)
        acc.pop(v, None)

    for k, length in itertools.product(range(1, 4), range(7)):
        found = list(iter_zero_sum_sequences(k, length))
        expected = {
            BoundedSequence.from_terms(m, k)
            for m in all_multisets(list(range(-k, k + 1)), 0, length, {})
            if sum(v * c for v, c in m.items()) == 0
        }
        assert len(found) == len(set(found))
        assert set(found) == expected
        assert all(s.length == length and s.sigma == 0 for s in found)
        # documented order: ascending terms
        assert found == sorted(expected, key=lambda s: s.terms)


def random_sequence(rng, k, n, zero_sum):
    elements = [rng.randint(-k, k) for _ in range(n)]
    if zero_sum:
        total = sum(elements)
        while total:  # nudge random elements until the sum cancels; the length stays
            i = rng.randrange(n)
            step = max(-k, min(k, elements[i] - total)) - elements[i]
            elements[i] += step
            total += step
    return BoundedSequence.from_elements(elements, bound=k)


def test_short_side_witness_equals_the_full_height_witness():
    # find_zero_sum_of_length builds a table of height min(t, n - t); its
    # witness must be the one a height-t table gives, for every t.
    rng = random.Random(20261018)
    for trial in range(90):
        k = 1 + trial % 6
        s = random_sequence(rng, k, rng.randint(0, 60), zero_sum=trial % 2 == 0)
        for t in range(s.length + 1):
            found = find_zero_sum_of_length(s, t)
            expected = build_table(s, t).witness(t, 0)
            assert (found and found.subsequence) == expected, (s, t)


def test_reachable_on_both_sides_matches_the_oracle():
    # A table of height h answers [0, h] and [n - h, n] exactly, with valid
    # witnesses, and nothing else.
    rng = random.Random(5)
    for trial in range(60):
        k = 1 + trial % 4
        s = random_sequence(rng, k, rng.randint(0, 9), zero_sum=trial % 3 == 0)
        n = s.length
        pairs = brute_force_pairs(s)
        for h in range(n + 1):
            table = build_table(s, h)
            answered = set(range(h + 1)) | set(range(n - h, n + 1))
            for length in range(-2, n + 3):
                for total in range(-k * n - 1, k * n + 2):
                    expected = length in answered and (length, total) in pairs
                    assert table.reachable(length, total) == expected, (s, h, length, total)
                    w = table.witness(length, total)
                    assert (w is not None) == expected
                    if w is not None:
                        assert is_subsequence(w, s) and (w.length, w.sigma) == (length, total)
        assert {t for t in range(n + 1) if not is_t_avoiding(s, t)} == brute_force_spectrum(s)


def test_one_shot_tables_stay_on_the_short_side(monkeypatch):
    # Guards the complement queries: a long target must not build a tall table.
    heights = []
    real = detect.build_table

    def recording(seq, max_length, *args, **kwargs):
        heights.append(max_length)
        return real(seq, max_length, *args, **kwargs)

    monkeypatch.setattr(detect, "build_table", recording)
    s = parse_sequence("2^150,1^100,0^1,-1^200,-2^100")
    found = find_zero_sum_of_length(s, s.length - 1)
    assert heights == [1]
    assert found is not None
    assert found.subsequence == parse_sequence("2^150,1^100,-1^200,-2^100")

    # extremal re-checks each sequence of length t + k^2 - k - 1 against t
    heights.clear()
    report = enumerate_extremal(3, 60)
    assert len(heights) == len(report.sequences) == 10
    assert max(heights) <= 3 * 3 - 3 - 1
