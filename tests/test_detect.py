"""Detection kernel against the plain-enumeration oracle.

The kernel (bitset rows) and the oracle (plain sets of (length, sum)
tuples, built one value at a time) are deliberately independent
computations of the same facts; these tests compare them rather than
trusting either alone.  The oracle is itself checked against
``recursive_pairs``, an explicit recursion over every copy count.
"""

import itertools
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from zsseq import detect
from zsseq import (
    CrossCheckError,
    LengthSumTable,
    PreconditionError,
    ResourceLimitError,
    brute_force_pairs,
    build_table,
    enumerate_extremal,
    estimate_table_bytes,
    find_zero_sum_of_length,
    is_subsequence,
    is_t_avoiding,
    iter_zero_sum_sequences,
    parse_sequence,
    spectrum,
)
from zsseq.selftest import random_zero_sum_of_length
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
    assert table.zero_sum_lengths() == {
        length for length, total in brute_force_pairs(s) if total == 0
    }


@given(small_term_dicts)
@settings(max_examples=200)
def test_kernel_matches_oracle_on_random_cases(terms):
    s = seq_of(terms)
    table = build_table(s, s.length)
    assert frozenset(table.achievable_pairs()) == brute_force_pairs(s)


def recursive_pairs(s):
    """(length, sum) pairs of s by explicit recursion over every copy count of every value."""
    values = s.terms
    pairs = set()

    def go(i, length, total):
        if i == len(values):
            pairs.add((length, total))
            return
        value, mult = values[i]
        for copies in range(mult + 1):
            go(i + 1, length + copies, total + copies * value)

    go(0, 0, 0)
    return frozenset(pairs)


def test_oracle_matches_recursion_on_every_small_multiset():
    # All 6,435 multisets over [-3, 3] of size <= 8.
    count = 0
    for size in range(9):
        for elements in itertools.combinations_with_replacement(range(-3, 4), size):
            s = BoundedSequence.from_elements(elements, 3)
            assert brute_force_pairs(s) == recursive_pairs(s), s
            count += 1
    assert count == 6435


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=150)
def test_oracle_matches_recursion_on_random_cases(bound, data):
    terms = data.draw(
        st.dictionaries(
            st.integers(min_value=-bound, max_value=bound),
            st.integers(min_value=1, max_value=8),
            max_size=5,
        )
    )
    s = BoundedSequence.from_terms(terms, bound)
    assert brute_force_pairs(s) == recursive_pairs(s)


def test_oracle_never_touches_the_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached the bitset kernel")

    monkeypatch.setattr(detect, "build_table", refuse)
    monkeypatch.setattr(detect, "_add_up_to", refuse)
    s = parse_sequence("3^2,2^4,1^3,0^2,-1^5,-3^3")
    assert brute_force_pairs(s) == recursive_pairs(s)


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
    # Refused whether or not the pair is reachable.
    s = parse_sequence("1^2,-1^2")
    table = build_table(s, 4, keep_layers=False)
    assert table.reachable(2, 0) and not table.reachable(2, 1)
    for total in (0, 1):
        with pytest.raises(PreconditionError):
            table.witness(2, total)


def test_large_multiplicities_use_binary_decomposition():
    # 1^100 . (-1)^100: zero-sum subsequences are exactly the even lengths.
    s = parse_sequence("1^100,-1^100")
    assert spectrum(s).as_sorted_list() == list(range(0, 201, 2))


@given(small_term_dicts, st.integers(min_value=0, max_value=12))
@settings(max_examples=150)
def test_avoidance_matches_oracle(terms, t):
    s = seq_of(terms)
    assert is_t_avoiding(s, t) == ((t, 0) not in brute_force_pairs(s))


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
    # The rest of a zero-sum sequence after a zero-sum piece is zero-sum,
    # so its spectrum is symmetric about n / 2.
    lengths = spectrum(s).lengths
    assert {s.length - t for t in lengths} == lengths


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


def test_a_build_peaks_within_its_estimate():
    # The cap bounds every byte a build allocates, the temporaries of each
    # shift-or-mask included, not only the ints the finished table keeps:
    # a cap one byte below the traced peak refuses the build.
    cases = [
        (BoundedSequence.from_terms({v: height + 1 for v in values}, k), height)
        for k in range(1, 9)
        for height in (0, 1, 2, 7, 40, 300)
        for values in ([k], [-k, 0], range(-k, k + 1))
    ]
    rng = random.Random(26)
    for k in range(1, 9):
        for n in (60, 400, 2000):
            s = random_zero_sum_of_length(rng, k, n)
            cases += [(s, height) for height in (1, n // 4, n // 2, n)]
    tracemalloc.start()
    try:
        for s, height in cases:
            for keep_layers in (True, False):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                build_table(s, height, keep_layers=keep_layers)
                peak = tracemalloc.get_traced_memory()[1] - before
                with pytest.raises(ResourceLimitError):
                    build_table(s, height, memory_limit=peak - 1, keep_layers=keep_layers)
    finally:
        tracemalloc.stop()


def test_zero_sum_lengths_needs_a_table_of_full_height():
    # A short table answers the long lengths through the complement only,
    # and zero_sum_lengths reads rows directly, so it refuses.
    s = parse_sequence("1^3,-1^3")
    table = build_table(s, 3)
    assert table.reachable(4) and table.reachable(6)
    with pytest.raises(PreconditionError):
        table.zero_sum_lengths()
    assert build_table(s, 6).zero_sum_lengths() == {0, 2, 4, 6}


@pytest.mark.parametrize("values", [[1], [-1], [-2, 0, 3]])
def test_a_bound_far_above_the_values_does_not_widen_the_rows(values):
    # The pad follows the smallest value of s, not the bound, and the
    # estimate counts whole rows: a cap one byte below the ints refuses.
    s = BoundedSequence.from_terms({v: 50 for v in values}, 10**6)
    for keep_layers in (True, False):
        table = build_table(s, 40, keep_layers=keep_layers)
        assert table.stride - table.width == max(0, -min(values))
        held = table.snapshots or (table.packed,)
        payload = sum(sys.getsizeof(x) for x in held)
        with pytest.raises(ResourceLimitError):
            build_table(s, 40, memory_limit=payload - 1, keep_layers=keep_layers)


def test_a_tall_table_has_a_printable_repr():
    # Its packed int runs past Python's 4,300-digit str conversion limit.
    table = build_table(parse_sequence("3^60,-3^60"), 60)
    assert table.packed.bit_length() > 4300 * 4
    assert "max_length=60" in repr(table)


def test_bad_kernel_witness_raises_cross_check_error(monkeypatch):
    # A witness of the wrong length must be refused, also under ``python -O``.
    bogus = parse_sequence("1^1,-1^1")
    monkeypatch.setattr(LengthSumTable, "witness", lambda self, length, total=0: bogus)
    with pytest.raises(CrossCheckError):
        find_zero_sum_of_length(parse_sequence("1^3,-1^3"), 4)


def test_memory_cap_refusal():
    # The refusal must come before the row mask, here an int of about 5 GB,
    # is made.  The build runs in a child capped at 1 GiB of address space,
    # so a kernel that makes the mask first fails this test, not the run.
    child = textwrap.dedent(
        """
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from zsseq import ResourceLimitError, parse_sequence, spectrum
        try:
            spectrum(parse_sequence("1^100000,-1^100000"), memory_limit=10_000)
        except ResourceLimitError:
            print("refused")
        """
    )
    src = Path(detect.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "refused\n"), done.stderr
    with pytest.raises(PreconditionError):
        build_table(parse_sequence("1^100000,-1^100000"), -1)


def test_estimate_grows_with_length():
    small = estimate_table_bytes(parse_sequence("1^5,-1^5"), 10)
    big = estimate_table_bytes(parse_sequence("1^500,-1^500"), 1000)
    assert 0 < small < big


def test_estimate_follows_the_window():
    # 40 elements of 3^40,-1^40 sum to between -40 and 120: 161 window bits,
    # not the 2 * 3 * 40 + 1 = 241 of the symmetric layout.
    s = parse_sequence("3^40,-1^40")
    table = build_table(s, 40)
    # The pad is |-1| = 1 bit, so the stride is 162.
    assert (table.offset, table.width, table.stride) == (40, 161, 162)
    estimate = estimate_table_bytes(s, 40)
    # Two values with layers: 2 + 4 ints of 41 rows, each the size CPython
    # gives an int that wide, with 3 pointers of snapshot slots, plus the
    # fixed allowance for the table object.
    slots = 3 * (sys.getsizeof((None,)) - sys.getsizeof(()))

    def six_ints(stride):
        return 6 * (sys.getsizeof((1 << 41 * stride) - 1) + slots) + detect._TABLE_ALLOWANCE

    assert estimate == six_ints(162)
    assert estimate < six_ints(241 + 3)
    # build_table refuses by this same estimate.
    assert build_table(s, 40, memory_limit=estimate) == table
    with pytest.raises(ResourceLimitError):
        build_table(s, 40, memory_limit=estimate - 1)


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
    for k, length in ((0, 3), (2, -1)):
        with pytest.raises(PreconditionError):
            iter_zero_sum_sequences(k, length)


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


def test_each_layer_is_the_table_of_its_value_prefix():
    rng = random.Random(20261019)
    for trial in range(120):
        k = 1 + trial % 5
        s = random_sequence(rng, k, rng.randint(0, 30), zero_sum=trial % 2 == 0)
        table = build_table(s, rng.randint(0, s.length))
        assert build_table(s, table.max_length, keep_layers=False).layers == ()
        assert len(table.layers) == len(s.terms)
        for i, layer in enumerate(table.layers):
            prefix = BoundedSequence(s.bound, s.terms[: i + 1])
            # A layer keeps the whole table's sum window, so it is compared
            # with the prefix's own table by what the two answer.
            own = build_table(prefix, table.max_length)
            assert (layer.source, layer.max_length) == (prefix, own.max_length)
            assert list(layer.achievable_pairs()) == list(own.achievable_pairs()), (s, i)
            # Witnesses on both sides of the layer, the mirrored ones included;
            # a length between the sides is refused by both tables.
            c, n = table.max_length, prefix.length
            for length in range(n + 1):
                for total in (0, prefix.sigma - 1, 1):
                    if c < length < n - c:
                        for answer in (layer, own):
                            with pytest.raises(PreconditionError):
                                answer.witness(length, total)
                        continue
                    found = layer.witness(length, total)
                    assert found == own.witness(length, total), (s, i, length, total)
                    if found is not None:
                        assert is_subsequence(found, prefix), (s, i, length, total)
                        assert (found.length, found.sigma) == (length, total)


def symmetric_table(s, c):
    """The table of height c with every row over [-k * c, k * c] and a pad of k bits."""
    offset = s.bound * c
    stride = 2 * offset + 1 + s.bound
    mask = (1 << (c + 1) * stride) - 1
    packed, snapshots = 1 << offset, []
    for value, mult in s.terms:
        packed = detect._add_up_to(packed, value, mult, c, stride, mask)
        snapshots.append(packed)
    return LengthSumTable(s, c, offset, 2 * offset + 1, stride, packed, tuple(snapshots))


def per_copy_witness(table, length, total=0):
    """``table.witness`` by testing each copy count of each value with its own shift."""
    if not table.reachable(length, total):
        return None
    mirrored = length > table.max_length
    if mirrored:
        length, total = table.source.length - length, table.source.sigma - total
    taken, j, sigma = [], length, total
    terms = table.source.terms
    for i in range(len(terms) - 1, -1, -1):
        value, mult = terms[i]
        prev = table.snapshots[i - 1] if i else 1 << table.offset
        tries = range(min(mult, j) + 1)
        for copies in reversed(tries) if mirrored else tries:
            pos = sigma - copies * value + table.offset
            if 0 <= pos < table.width and prev >> (j - copies) * table.stride + pos & 1:
                break
        else:
            raise AssertionError("the table lost a reachable state")
        kept = mult - copies if mirrored else copies
        if kept:
            taken.append((value, kept))
        j -= copies
        sigma -= copies * value
    assert (j, sigma) == (0, 0)
    return BoundedSequence(table.source.bound, tuple(reversed(taken)))


def test_witness_reads_the_counts_the_per_copy_tests_read():
    # Both paths of witness, a few counts tested one by one and many read
    # through one comb, must pick the count the per-copy loop picks, on
    # both sides of the complement and at nonzero totals.
    rng = random.Random(20261020)
    for trial in range(240):
        k = 1 + trial % 7
        support = [range(-k, k + 1), range(-k, 0), range(1, k + 1)][trial // 7 % 3]
        values = rng.sample(support, rng.randint(1, len(support)))
        s = BoundedSequence.from_terms({v: rng.randint(1, 30) for v in values}, k)
        n = s.length
        for c in sorted({0, 1, n // 3, n // 2, n}):
            table = build_table(s, c)
            queries = []
            for j in rng.sample(range(c + 1), min(c + 1, 6)):
                sums = [b - table.offset for b in range(table.width) if table.rows[j] >> b & 1]
                queries += [(j, total) for total in rng.sample(sums, min(len(sums), 2))]
                queries.append((j, rng.randint(-k * j - 1, k * j + 1)))
            queries += [(n - j, s.sigma - total) for j, total in queries]
            long_side = range(max(c + 1, n - c), n + 1)
            queries += [(rng.choice(long_side), rng.randint(-k * n, k * n)) for _ in long_side[:4]]
            for length, total in queries:
                expected = per_copy_witness(table, length, total)
                assert table.witness(length, total) == expected, (s, c, length, total)


@pytest.mark.parametrize("text, length", [("1^2,-1^2", 2), ("1^5,-1^5", 4), ("1^5,-1^5", 6)])
def test_a_snapshot_missing_a_state_raises_cross_check_error(text, length):
    # Clear the one state the walk can step to below the last value: 2
    # copies of 1 are tested one by one, 4 are read through the comb.
    s = parse_sequence(text)
    table = build_table(s, min(length, s.length - length))
    assert table.witness(length, 0) is not None
    half = min(length, s.length - length) // 2
    state = half * table.stride - half + table.offset
    assert table.snapshots[0] >> state & 1
    broken = replace(table, snapshots=(table.snapshots[0] ^ 1 << state, *table.snapshots[1:]))
    with pytest.raises(CrossCheckError, match="at value 1$"):
        broken.witness(length, 0)


def test_a_walk_that_ends_off_the_zero_sum_raises_cross_check_error():
    # A false state (0, -2) in place of (1, -1) lets 2 copies of 1 reach
    # length 0 at sum -2, where the walk stops.
    table = build_table(parse_sequence("1^2,-1^2"), 2)
    before = table.snapshots[0] ^ 1 << table.stride - 1 + table.offset | 1 << table.offset - 2
    broken = replace(table, snapshots=(before, table.snapshots[1]))
    with pytest.raises(CrossCheckError, match=r"ended at \(0, -2\)"):
        broken.witness(2, 0)


@pytest.mark.parametrize("k", range(1, 9))
def test_the_walker_lays_out_its_rows_as_for_k_and_minus_k(k, monkeypatch):
    # The walker's window is _layout's for copies of -k and k: offset k * h,
    # width 2kh + 1 and a pad of k bits, so the stride is k + 1 at h = 0.
    seen = []
    real = detect._layout

    def recording(s, height):
        seen.append(real(s, height))
        return seen[-1]

    monkeypatch.setattr(detect, "_layout", recording)
    # (length, t) at h = min(t, length - t), then the enumeration's t = length + 1 at h = 0.
    for length, t, h in [*((2 * h + 1, h, h) for h in range(41)), (5, 6, 0)]:
        with pytest.raises(detect._WalkCapped):
            detect._walk_zero_sum(k, length, lambda s: None, t, max_nodes=0)
        assert seen == [(k * h, 2 * k * h + 1, 2 * k * h + 1 + k)], (k, length, t)
        seen.clear()


def test_the_reachable_window_answers_as_the_symmetric_one():
    # Each table's window holds exactly the sums its rows can reach, so it
    # must answer every query as the [-k * c, k * c] layout does.
    rng = random.Random(20261020)
    for trial in range(2000):
        k = 1 + trial % 6
        shape = trial // 6 % 4  # zero-sum, mixed, non-negative, then non-positive
        s = random_sequence(rng, k, rng.randint(0, 6), zero_sum=shape == 0)
        if shape >= 2:  # fold every value onto one side of 0
            sign = 1 if shape == 2 else -1
            s = BoundedSequence.from_terms([(sign * abs(v), m) for v, m in s.terms], k)
        for c in range(s.length + 1):
            table, old = build_table(s, c), symmetric_table(s, c)
            assert list(table.achievable_pairs()) == list(old.achievable_pairs()), (s, c)
            for length in range(s.length + 1):
                for total in range(-k * c - 1, k * c + 2):
                    if c < length < s.length - c:  # held by neither table
                        for answer in (table, old):
                            with pytest.raises(PreconditionError):
                                answer.reachable(length, total)
                        continue
                    expected = old.reachable(length, total)
                    assert table.reachable(length, total) == expected, (s, c, length, total)
                    if expected:
                        assert table.witness(length, total) == old.witness(length, total)


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
    # witnesses, refuses the lengths between, and reaches no other length.
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
                    if h < length < n - h:
                        with pytest.raises(PreconditionError):
                            table.reachable(length, total)
                        with pytest.raises(PreconditionError):
                            table.witness(length, total)
                        continue
                    expected = length in answered and (length, total) in pairs
                    assert table.reachable(length, total) == expected, (s, h, length, total)
                    w = table.witness(length, total)
                    assert (w is not None) == expected
                    if w is not None:
                        assert is_subsequence(w, s) and (w.length, w.sigma) == (length, total)
        assert {t for t in range(n + 1) if not is_t_avoiding(s, t)} == {
            length for length, total in pairs if total == 0
        }


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
