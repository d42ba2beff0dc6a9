"""Randomized and exhaustive cross-checks of the core invariants.

Each suite hammers one property that must hold unconditionally:

* ``sign_ratio_bounds`` -- in a zero-sum sequence over [-k, k], neither
  sign class can hold more than k/(k+1) of the elements.
* ``spectrum_symmetry`` -- the zero-sum length spectrum of a zero-sum
  sequence contains 0 and the full length and is symmetric about half
  the length (complements of zero-sum subsequences are zero-sum).
* ``dp_vs_bruteforce`` -- the bitset kernel's (length, sum) pairs equal
  the oracle's, which builds them as plain sets of tuples, one value at a
  time, over every multiset up to a size cap.
* ``davenport_blocks`` -- the pigeonhole block extractor always returns a
  nonempty consecutive run with sum divisible by the modulus.
* ``reduce_fixpoint_audit`` -- every recorded rewrite step removes a
  zero-sum piece of matching length, replaying the trace reproduces the
  fixpoint, the fixpoint admits no further rewrite, and the
  length/sum/foreign-count bookkeeping holds throughout (strictly more
  alpha/-beta per step, at most |s| steps).
* ``foreign_bound_at_fixpoint`` -- on instances with plenty of alpha and
  -beta (a small zero-sum core plus many whole blocks), the fixpoint
  keeps fewer than alpha + beta foreign elements.

Suites are deterministic for a given seed; ``scale`` shrinks trial counts
(and the exhaustive suite's size cap) for quick smoke runs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .constants import davenport_subset
from .detect import brute_force_pairs, build_table, spectrum
from .errors import CrossCheckError
from .reduction import build_block, foreign_count, reduce_fixpoint, reduce_step, strip_blocks
from .sequences import BoundedSequence, concat, remove, repeat, to_json


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    failures: int
    seconds: float
    detail: str | None = None

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_json_dict(self) -> dict:
        return {**to_json(self), "seconds": round(self.seconds, 3), "ok": self.ok}


def random_zero_sum_of_length(rng: random.Random, k: int, n: int) -> BoundedSequence:
    """Random zero-sum sequence of length exactly n over [-k, k].

    A walk kept inside the cancellable window: each element is drawn from
    the sub-range of [-k, k] that leaves the running sum within
    k * (elements still to come), so the walk can always return to zero
    and the final element is forced.
    """
    elements = []
    total = 0
    for i in range(n):
        rest = n - i - 1
        lo = max(-k, -k * rest - total)
        hi = min(k, k * rest - total)
        e = rng.randint(lo, hi)
        elements.append(e)
        total += e
    if total:  # pragma: no cover - the window forces the last element
        raise CrossCheckError(f"random walk ended at sum {total}, not 0")
    return BoundedSequence.from_elements(elements, k)


def random_zero_sum_sequence(rng: random.Random, k: int, max_length: int) -> BoundedSequence:
    """Random zero-sum sequence of length drawn uniformly from 0..max_length."""
    return random_zero_sum_of_length(rng, k, rng.randint(0, max_length))


def _scaled(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def _suite(name: str, trials: int, check) -> SuiteResult:
    """Run ``check(i)`` for each trial; it returns None (pass) or a detail string."""
    failures = 0
    detail = None
    started = time.perf_counter()
    for i in range(trials):
        problem = check(i)
        if problem is not None:
            failures += 1
            if detail is None:
                detail = f"trial {i}: {problem}"
    return SuiteResult(name, trials, failures, time.perf_counter() - started, detail)


def _sign_ratio_bounds(seed: int, scale: float) -> SuiteResult:
    rng = random.Random(f"{seed}:sign_ratio_bounds")

    def check(i: int) -> str | None:
        k = rng.randint(1, 5)
        s = random_zero_sum_sequence(rng, k, 40)
        for side in (sum(m for v, m in s.terms if v > 0), sum(m for v, m in s.terms if v < 0)):
            if (k + 1) * side > k * s.length:
                return f"a sign class of {s} holds {side} elements, over k/(k+1) of the length"
        return None

    return _suite("sign_ratio_bounds", _scaled(10_000, scale), check)


def _spectrum_symmetry(seed: int, scale: float) -> SuiteResult:
    rng = random.Random(f"{seed}:spectrum_symmetry")

    def check(i: int) -> str | None:
        k = rng.randint(1, 4)
        s = random_zero_sum_sequence(rng, k, 24)
        lengths = spectrum(s).lengths
        if 0 not in lengths or s.length not in lengths:
            return f"spectrum of {s} is missing an endpoint: {sorted(lengths)}"
        if lengths != frozenset(s.length - t for t in lengths):
            return f"spectrum of {s} is not symmetric: {sorted(lengths)}"
        return None

    return _suite("spectrum_symmetry", _scaled(10_000, scale), check)


def _dp_vs_bruteforce(seed: int, scale: float) -> SuiteResult:
    size_cap = 12 if scale >= 1 else max(4, int(12 * scale))
    multisets = [
        elements
        for size in range(size_cap + 1)
        for elements in combinations_with_replacement(range(-3, 4), size)
    ]

    def check(i: int) -> str | None:
        s = BoundedSequence.from_elements(multisets[i], 3)
        table = build_table(s, s.length, keep_layers=False)
        if frozenset(table.achievable_pairs()) != brute_force_pairs(s):
            return f"kernel and enumeration disagree on {s}"
        return None

    return _suite("dp_vs_bruteforce", len(multisets), check)


def _davenport_blocks(seed: int, scale: float) -> SuiteResult:
    rng = random.Random(f"{seed}:davenport_blocks")

    def check(i: int) -> str | None:
        modulus = rng.randint(1, 12)
        values = [rng.randint(-50, 50) for _ in range(modulus + rng.randint(0, 5))]
        block = davenport_subset(values, modulus)
        if not 1 <= len(block) <= modulus:
            return f"block length {len(block)} out of range for modulus {modulus}"
        if sum(block) % modulus:
            return f"block {block} does not sum to 0 mod {modulus}"
        window = values[:modulus]
        if not any(
            window[j : j + len(block)] == block for j in range(modulus - len(block) + 1)
        ):
            return f"block {block} is not a consecutive run of {window}"
        return None

    return _suite("davenport_blocks", _scaled(100_000, scale), check)


def _random_block(rng: random.Random, k: int):
    return build_block(rng.randint(1, k), rng.randint(1, k))


def _reduce_fixpoint_audit(seed: int, scale: float) -> SuiteResult:
    rng = random.Random(f"{seed}:reduce_fixpoint_audit")

    def check(i: int) -> str | None:
        k = rng.randint(1, 3)
        s = random_zero_sum_sequence(rng, k, 10)
        x = _random_block(rng, k)
        trace = reduce_fixpoint(s, x)
        if len(trace.steps) > min(foreign_count(s, x), s.length):
            return f"{len(trace.steps)} rewrites exceed the foreign count of {s}"
        current = s
        kept = s.multiplicity(x.alpha) + s.multiplicity(-x.beta)
        for st in trace.steps:
            if st.removed.sigma != 0:
                return f"removed piece {st.removed} of {current} is not zero-sum"
            if st.removed.length != st.inserted_copies * x.length:
                return f"removed piece {st.removed} does not match {st.inserted_copies} blocks"
            current = concat(remove(current, st.removed), repeat(x.block, st.inserted_copies))
            new_kept = current.multiplicity(x.alpha) + current.multiplicity(-x.beta)
            if new_kept <= kept:
                return f"v_alpha + v_-beta did not grow ({kept} -> {new_kept}) at {current}"
            kept = new_kept
        if current != trace.fixpoint:
            return f"replayed trace gives {current}, recorded fixpoint is {trace.fixpoint}"
        if trace.fixpoint.length != s.length or trace.fixpoint.sigma != 0:
            return f"fixpoint {trace.fixpoint} does not preserve length and sum of {s}"
        if reduce_step(trace.fixpoint, x) is not None:
            return f"recorded fixpoint {trace.fixpoint} still admits a rewrite"
        stripped, count = strip_blocks(trace.fixpoint, x)
        if (stripped, count) != (trace.stripped, trace.strip_count):
            return f"strip of {trace.fixpoint} disagrees with the recorded trace"
        return None

    return _suite("reduce_fixpoint_audit", _scaled(10_000, scale), check)


def _foreign_bound_at_fixpoint(seed: int, scale: float) -> SuiteResult:
    rng = random.Random(f"{seed}:foreign_bound_at_fixpoint")

    def check(i: int) -> str | None:
        k = rng.randint(1, 3)
        core = random_zero_sum_sequence(rng, k, 6)
        x = _random_block(rng, k)
        # Enough whole blocks that both block values stay abundant at the
        # fixpoint: the padding construction behind the bound needs at most
        # a few dozen copies of each at this scale.
        copies = -(-50 * x.g // min(x.alpha, x.beta))
        s = concat(core, repeat(x.block, copies))
        trace = reduce_fixpoint(s, x)
        fix = trace.fixpoint
        if min(fix.multiplicity(x.alpha), fix.multiplicity(-x.beta)) < 30:
            return f"fixpoint of {s} lost its abundance of {x.alpha}/{-x.beta}: {fix}"
        if foreign_count(fix, x) >= x.alpha + x.beta:
            return (
                f"fixpoint {fix} keeps {foreign_count(fix, x)} foreign elements, "
                f"expected < {x.alpha + x.beta}"
            )
        if strip_blocks(trace.stripped, x)[1] != 0:
            return f"stripped result {trace.stripped} still contains whole blocks"
        return None

    return _suite("foreign_bound_at_fixpoint", _scaled(1_000, scale), check)


_SUITES = (
    _sign_ratio_bounds,
    _spectrum_symmetry,
    _dp_vs_bruteforce,
    _davenport_blocks,
    _reduce_fixpoint_audit,
    _foreign_bound_at_fixpoint,
)


def run_all(seed: int = 0, scale: float = 1.0, on_suite=None) -> list[SuiteResult]:
    """Run every suite; ``on_suite(result)`` fires as each one finishes."""
    results = []
    for suite in _SUITES:
        result = suite(seed, scale)
        results.append(result)
        if on_suite is not None:
            on_suite(result)
    return results
