"""Avoidance constants and the number theory around them.

For bound k and target length t, the central quantity is the least length N
such that every zero-sum sequence over [-k, k] of length >= N contains a
zero-sum subsequence of length exactly t.  It is finite precisely when
lcm(2, ..., max(2, 2k-1)) divides t, and then equals t + k^2 - k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .detect import _walk_zero_sum
from .errors import CrossCheckError, PreconditionError
from .sequences import to_json

@dataclass(frozen=True)
class ConstantValue:
    """A constant that is either a non-negative integer or infinite (None)."""

    value: int | None

    def __str__(self) -> str:
        return "infinite" if self.value is None else str(self.value)

    def to_json_value(self) -> int | str:
        return "infinite" if self.value is None else self.value


@dataclass(frozen=True)
class DivisibilityReport:
    """Outcome of the finiteness test for given (k, t)."""

    k: int
    t: int
    holds: bool
    failing_prime_power: int | None

    @cached_property
    def modulus(self) -> int:
        # lcm(2..2k-1) has about 0.87k digits; only a rendered report needs it.
        return lcm_range(2, max(2, 2 * self.k - 1))

    def to_json_dict(self) -> dict:
        return {**to_json(self), "modulus": self.modulus}


def _check_positive(name: str, value: int) -> None:
    if value < 1:
        raise PreconditionError(f"{name} must be a positive integer, got {value}")


def lcm_range(lo: int, hi: int) -> int:
    """lcm of the integers lo..hi inclusive; empty ranges have lcm 1."""
    _check_positive("lo", lo)
    if hi < lo:
        return 1
    # Pairwise, as a balanced tree: folding left multiplies a huge running
    # lcm by one small int per step, which is quadratic in its digits.
    level = list(range(lo, hi + 1))
    while len(level) > 1:
        level = [lcm(*level[i : i + 2]) for i in range(0, len(level), 2)]
    return level[0]


def divisibility_condition(k: int, t: int) -> DivisibilityReport:
    """Does lcm(2, ..., max(2, 2k-1)) divide t?

    When it does not, the report carries the smallest prime power
    <= max(2, 2k-1) that fails to divide t.
    """
    _check_positive("k", k)
    _check_positive("t", t)
    # The lcm divides t exactly when every q <= top does, that is when the
    # least non-divisor q of t exceeds top.  That q is a prime power: if
    # q = ab with coprime a, b > 1, then a | t and b | t give q | t.
    q = 2
    while t % q == 0:
        q += 1
    holds = q > max(2, 2 * k - 1)
    return DivisibilityReport(k, t, holds, None if holds else q)


def s_prime_t(k: int, t: int) -> ConstantValue:
    """The avoidance constant for (k, t): t + k^2 - k when finite, else infinite."""
    report = divisibility_condition(k, t)
    if not report.holds:
        return ConstantValue(None)
    return ConstantValue(t + k * k - k)


def theorem11_bounds(k: int, t: int) -> tuple[int, int]:
    """(lower, upper) bracket for the finite case: t + k^2 - k and t + 4k^2 - 10k + 6."""
    report = divisibility_condition(k, t)
    if not report.holds:
        raise PreconditionError(
            f"no finite constant for k={k}, t={t}: prime power "
            f"{report.failing_prime_power} does not divide t"
        )
    return (t + k * k - k, t + 4 * k * k - 10 * k + 6)


def davenport_subset(values: list[int], modulus: int) -> list[int]:
    """A nonempty consecutive block of the first ``modulus`` values summing to 0 mod modulus.

    Pigeonhole on prefix sums guarantees one exists; the first repeat found
    is returned, so the result is deterministic.
    """
    _check_positive("modulus", modulus)
    if len(values) < modulus:
        raise PreconditionError(f"need at least {modulus} values, got {len(values)}")
    seen = {0: 0}
    prefix = 0
    for idx in range(1, modulus + 1):
        prefix = (prefix + values[idx - 1]) % modulus
        if prefix in seen:
            return list(values[seen[prefix]:idx])
        seen[prefix] = idx
    raise CrossCheckError("pigeonhole violated")  # pragma: no cover


def frobenius_number(a: int, b: int) -> int:
    """Largest integer not representable as xa + yb with x, y >= 0 (coprime a, b >= 2)."""
    if a < 2 or b < 2:
        raise PreconditionError(f"need a, b >= 2, got a={a}, b={b}")
    if gcd(a, b) != 1:
        raise PreconditionError(f"a={a} and b={b} must be coprime")
    return a * b - a - b


def lcm_growth_check(k: int) -> bool:
    """Exact check that lcm(2, ..., 2k-1) >= 4k^4 (defined for k >= 2)."""
    if k < 2:
        raise PreconditionError(f"k must be >= 2, got {k}")
    # The running lcm never decreases, so the first prefix to reach 4k^4 decides.
    target = 4 * k**4
    running = 1
    for i in range(2, 2 * k):
        running = lcm(running, i)
        if running >= target:
            return True
    return False


def lemma41_margin_check(t: int = 420, n: int = 29) -> bool:
    """Exact-rational check of the two margin inequalities t/18 >= 4n/5 and t/10 >= 4n/5.

    The defaults are the tightest instance used by the finiteness argument
    at k = 4: the smallest admissible t (lcm(2..7) = 420) against the
    largest window length n = 4k^2 - 10k + 5 = 29.
    """
    _check_positive("t", t)
    _check_positive("n", n)
    need = Fraction(4 * n, 5)
    return Fraction(t, 18) >= need and Fraction(t, 10) >= need


def minimal_zero_sum_max_length(k: int) -> int:
    """Maximum length L of a minimal zero-sum sequence over [-k, k], by exhaustive walks.

    Minimal means nonempty and zero-sum with no proper nonempty zero-sum
    subsequence.  {0} is the only one of length 1; for n = 2 .. 2k + 1 the
    walker at t = n // 2, avoiding every shorter length, emits exactly those
    of length n.  That range holds them all with one length of margin: one
    other than {0} is zero-free, and ordered so that each element opposes
    the partial sum before it, its proper prefix sums are nonzero in
    [-k, k], so by pigeonhole it has length <= 2k.  L = max(2, 2k - 1) by
    the bound for primitive partition identities (Lambert 1987; Diaconis,
    Graham and Sturmfels 1993), the window of
    :func:`~zsseq.search.longest_avoiding`; a walk that disagrees raises
    :class:`CrossCheckError`.  The walks grow about threefold per k.
    """
    _check_positive("k", k)
    lengths = {1}  # the singleton {0}
    for n in range(2, 2 * k + 2):
        _walk_zero_sum(k, n, lambda s: lengths.add(s.length), t=n // 2, avoid_shorter=True)
    if max(lengths) != max(2, 2 * k - 1):
        raise CrossCheckError(
            f"minimal zero-sum sequences over [-{k}, {k}] reach length {max(lengths)}, "
            "not max(2, 2k - 1)"
        )
    return max(lengths)
