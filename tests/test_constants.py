"""Constants, divisibility, and the small number-theory utilities."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zsseq import (
    CrossCheckError,
    PreconditionError,
    davenport_subset,
    divisibility_condition,
    enumerate_extremal,
    frobenius_number,
    lcm_growth_check,
    lcm_range,
    lemma41_margin_check,
    minimal_zero_sum_max_length,
    s_prime_t,
    theorem11_bounds,
)
from zsseq import constants


@pytest.mark.parametrize(
    "lo,hi,expected",
    [
        (2, 7, 420),
        (2, 2, 2),
        (2, 3, 6),
        (2, 5, 60),
        (2, 9, 2520),
        (3, 2, 1),
        (1, 1, 1),
        (5, 6, 30),
        (7, 7, 7),
        (4, 9, 2520),
        (6, 10, 2520),
        (11, 13, 1716),
    ],
)
def test_lcm_range(lo, hi, expected):
    assert lcm_range(lo, hi) == expected


def test_lcm_range_matches_a_left_fold():
    rng = random.Random(20)
    spans = [(lo, hi) for lo in range(1, 25) for hi in range(lo - 1, 40)]
    spans += [(lo, lo + rng.randint(0, 300)) for lo in (rng.randint(1, 2000) for _ in range(50))]
    for lo, hi in spans:
        assert lcm_range(lo, hi) == math.lcm(*range(lo, hi + 1)), (lo, hi)


@pytest.mark.parametrize(
    "k,t,holds,failing",
    [
        (1, 2, True, None),
        (1, 3, False, 2),
        (2, 6, True, None),
        (2, 7, False, 2),
        (3, 60, True, None),
        (3, 8, False, 3),
        (3, 24, False, 5),
        (4, 420, True, None),
        (4, 419, False, 2),
        (4, 210, False, 4),
    ],
)
def test_divisibility_condition(k, t, holds, failing):
    report = divisibility_condition(k, t)
    assert report.holds is holds
    assert report.failing_prime_power == failing
    if holds:
        assert t % report.modulus == 0


def test_divisibility_modulus_values():
    assert divisibility_condition(1, 2).modulus == 2
    assert divisibility_condition(2, 6).modulus == 6
    assert divisibility_condition(3, 60).modulus == 60
    assert divisibility_condition(4, 420).modulus == 420


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=10**6))
def test_failing_prime_power_is_smallest(k, t):
    report = divisibility_condition(k, t)
    if report.holds:
        assert report.failing_prime_power is None
    else:
        q = report.failing_prime_power
        assert t % q != 0
        assert all(t % p == 0 for p in range(2, q))
        p = next(d for d in range(2, q + 1) if q % d == 0)  # least prime factor
        while q % p == 0:
            q //= p
        assert q == 1


@pytest.mark.parametrize(
    "k,t,value",
    [(2, 6, 8), (2, 12, 14), (4, 420, 432), (1, 2, 2), (3, 60, 66)],
)
def test_constant_finite_values(k, t, value):
    result = s_prime_t(k, t)
    assert result.value is not None
    assert result.value == value
    assert result.to_json_value() == value


def test_constant_infinite():
    result = s_prime_t(2, 7)
    assert result.value is None
    assert str(result) == "infinite"
    assert result.to_json_value() == "infinite"


def test_bounds_bracket():
    assert theorem11_bounds(4, 420) == (432, 450)
    assert theorem11_bounds(2, 6) == (8, 8)  # the bracket is tight at k=2
    with pytest.raises(PreconditionError):
        theorem11_bounds(2, 7)


@given(st.integers(min_value=4, max_value=8), st.integers(min_value=1, max_value=20))
def test_bounds_order_for_large_k(k, mult):
    t = lcm_range(2, 2 * k - 1) * mult
    lower, upper = theorem11_bounds(k, t)
    assert lower == s_prime_t(k, t).value
    assert lower <= upper


def test_davenport_examples():
    assert davenport_subset([3, 1, 5, 7, 2], 5) == [5]
    assert davenport_subset([1, 1, 1], 3) == [1, 1, 1]
    assert davenport_subset([4], 1) == [4]
    assert davenport_subset([7, 3], 2) == [7, 3]


def test_davenport_requires_enough_values():
    with pytest.raises(PreconditionError):
        davenport_subset([1, 2], 3)
    with pytest.raises(PreconditionError):
        davenport_subset([1], 0)


@given(st.integers(min_value=1, max_value=9), st.data())
def test_davenport_block_is_valid(modulus, data):
    values = data.draw(
        st.lists(
            st.integers(min_value=-100, max_value=100),
            min_size=modulus,
            max_size=modulus + 4,
        )
    )
    block = davenport_subset(values, modulus)
    assert 1 <= len(block) <= modulus
    assert sum(block) % modulus == 0


@pytest.mark.parametrize("a,b,expected", [(3, 4, 5), (2, 3, 1), (3, 5, 7), (5, 7, 23)])
def test_frobenius_values(a, b, expected):
    assert frobenius_number(a, b) == expected
    assert frobenius_number(b, a) == expected


def test_frobenius_preconditions():
    with pytest.raises(PreconditionError):
        frobenius_number(4, 6)
    with pytest.raises(PreconditionError):
        frobenius_number(1, 5)


@given(st.integers(min_value=2, max_value=8))
def test_frobenius_boundary_is_sharp(a):
    b = a + 1  # consecutive integers are coprime
    f = frobenius_number(a, b)
    representable = {
        x * a + y * b for x in range(f + 2) for y in range(f + 2) if x * a + y * b <= f + 1
    }
    assert f not in representable
    assert f + 1 in representable


@pytest.mark.parametrize("k,expected", [(2, False), (3, False), (4, False), (5, True), (6, True), (7, True), (8, True), (9, True)])
def test_lcm_growth(k, expected):
    assert lcm_growth_check(k) is expected


@pytest.mark.parametrize("k", range(2, 13))
def test_lcm_growth_stops_early_with_the_full_products_answer(k):
    assert lcm_growth_check(k) is (math.lcm(*range(2, 2 * k)) >= 4 * k**4)


def test_divisibility_matches_the_lcm_definition():
    for k in range(1, 7):
        top = max(2, 2 * k - 1)
        modulus = lcm_range(2, top)
        for t in range(1, 2 * modulus + 2):
            report = divisibility_condition(k, t)
            assert report.holds is (t % modulus == 0)
            if not report.holds:
                assert report.failing_prime_power == min(q for q in range(2, top + 1) if t % q)


def test_finiteness_callers_never_build_the_modulus(monkeypatch):
    def refuse(lo, hi):
        raise AssertionError(f"lcm_range({lo}, {hi}) was called")

    monkeypatch.setattr(constants, "lcm_range", refuse)
    assert s_prime_t(50_000, 6).value is None
    assert s_prime_t(2, 6).value == 8
    assert theorem11_bounds(3, 60) == (66, 72)
    assert len(enumerate_extremal(2, 6).sequences) == 6
    with pytest.raises(AssertionError):
        divisibility_condition(2, 6).modulus


def test_lcm_growth_needs_k_at_least_two():
    with pytest.raises(PreconditionError):
        lcm_growth_check(1)


def test_margin_check_default_is_tight():
    assert lemma41_margin_check() is True
    # the binding comparison: 420/18 against 4*29/5
    assert Fraction(420, 18) >= Fraction(116, 5)
    assert lemma41_margin_check(t=418) is True
    assert lemma41_margin_check(t=417) is False  # first integer t where 18ths dip below
    assert lemma41_margin_check(n=30) is False


@pytest.mark.parametrize(
    "k,expected", [(1, 2), (2, 3), (3, 5), (4, 7), (5, 9), (6, 11), (7, 13), (8, 15)]
)
def test_minimal_zero_sum_max_length(k, expected):
    assert minimal_zero_sum_max_length(k) == expected
    assert expected == max(2, 2 * k - 1)


def test_minimal_zero_sum_max_length_raises_when_the_walks_disagree(monkeypatch):
    # A walk whose leaves stop one short of 2k - 1 contradicts the theorem.
    real = constants._walk_zero_sum

    def short(k, n, on_leaf, **kwargs):
        return real(k, n, on_leaf, **kwargs) if n < 2 * k - 1 else 0

    monkeypatch.setattr(constants, "_walk_zero_sum", short)
    with pytest.raises(CrossCheckError, match="not max"):
        minimal_zero_sum_max_length(3)


def recording_walks(monkeypatch, walk):
    """Replace the walker with ``walk`` and return the list of lengths it is called at."""
    walked = []

    def record(k, n, on_leaf, **kwargs):
        walked.append(n)
        return walk(k, n, on_leaf, **kwargs)

    monkeypatch.setattr(constants, "_walk_zero_sum", record)
    return walked


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_minimal_zero_sum_max_length_walks_down_to_the_first_leaf(monkeypatch, k):
    walked = recording_walks(monkeypatch, constants._walk_zero_sum)
    assert minimal_zero_sum_max_length(k) == max(2, 2 * k - 1)
    assert walked == ([3, 2] if k == 1 else [2 * k + 1, 2 * k, 2 * k - 1])


def test_minimal_zero_sum_max_length_raises_on_a_leaf_at_2k(monkeypatch):
    # A minimal zero-sum multiset of length 2k contradicts the theorem.
    real = constants._walk_zero_sum

    def long(k, n, on_leaf, **kwargs):
        if n == 2 * k:
            on_leaf(None)
            return 1
        return real(k, n, on_leaf, **kwargs)

    walked = recording_walks(monkeypatch, long)
    with pytest.raises(CrossCheckError, match="L\\(3\\) = 6, not max"):
        minimal_zero_sum_max_length(3)
    assert walked == [7, 6]


@pytest.mark.parametrize("k", [1, 3])
def test_minimal_zero_sum_max_length_raises_when_no_walk_emits(monkeypatch, k):
    walked = recording_walks(monkeypatch, lambda k, n, on_leaf, **kwargs: 0)
    with pytest.raises(CrossCheckError, match="none, not max"):
        minimal_zero_sum_max_length(k)
    assert walked == list(range(2 * k + 1, 1, -1))


def test_minimal_zero_sum_max_length_refuses_k_below_1():
    with pytest.raises(PreconditionError):
        minimal_zero_sum_max_length(0)
