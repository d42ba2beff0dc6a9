"""Detection kernel against the plain-enumeration oracle.

The kernel (bitset rows) and the oracle (explicit recursion over
multiplicities) are deliberately independent computations of the same
facts; these tests compare them rather than trusting either alone.
"""

import pytest
from hypothesis import given, settings, strategies as st

from zsseq import (
    CrossCheckError,
    LengthSumTable,
    PreconditionError,
    ResourceLimitError,
    brute_force_pairs,
    brute_force_spectrum,
    build_table,
    check_complement_duality,
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
    k, length = 2, 4
    found = set(iter_zero_sum_sequences(k, length))
    # Independent route: all multisets of the length, filtered by sum.
    values = range(-k, k + 1)

    def all_multisets(i, room, acc):
        if i == len(list(values)):
            if room == 0:
                yield dict(acc)
            return
        v = list(values)[i]
        for c in range(room + 1):
            acc[v] = c
            yield from all_multisets(i + 1, room - c, acc)
        acc.pop(v, None)

    expected = {
        BoundedSequence.from_terms(m, k)
        for m in all_multisets(0, length, {})
        if sum(v * c for v, c in m.items()) == 0
    }
    assert found == expected
    assert all(s.length == length and s.sigma == 0 for s in found)


def test_iter_zero_sum_sequences_zero_free_mode():
    for s in iter_zero_sum_sequences(2, 5, include_zero=False):
        assert s.multiplicity(0) == 0
        assert s.length == 5
    with_zero = set(iter_zero_sum_sequences(2, 5))
    without = set(iter_zero_sum_sequences(2, 5, include_zero=False))
    assert without < with_zero
