"""Acceptance gate: ten behavioral criteria, one summary line each.

Every test measures its own wall-clock budget and records a single
[PASS]/[FAIL] line through the ``criterion`` fixture; the lines are
echoed in the terminal summary.

Criterion 3 checks the critical length at (k, t) = (2, 6), where
t + k^2 - k - 1 = 7: the extremal enumeration must return exactly the
t-avoiding zero-sum sequences that a plain ``itertools`` enumeration
finds (all 330 multisets of size 7 over [-2, 2], each tested against
every 6-element sub-multiset), and its ``support_ok`` flag must agree
with the support-pattern predicate computed on that brute-force set.
The criterion does not assert that the extremal sequences stay within
{-1, k-1, k} / {1, -(k-1), -k}: the paper's abstract is silent on the
support, and the brute force finds 6 sequences of which 4 use values
outside both patterns, so ``support_ok`` is False at (2, 6).
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from zsseq import (
    enumerate_extremal,
    family_generator,
    is_t_avoiding,
    iter_zero_sum_sequences,
    lcm_growth_check,
    lcm_range,
    lemma41_margin_check,
    lemma42_search,
    longest_avoiding,
    minimal_zero_sum_max_length,
    parse_sequence,
    verify_frobenius_avoidance,
)
from zsseq.cli import main
from zsseq.selftest import random_zero_sum_of_length, run_all


def test_criterion_01_longest_search_via_cli(criterion, capsys):
    started = time.perf_counter()
    code = main(["search-longest", "--k", "2", "--t", "6", "--ceiling", "12", "--json"])
    elapsed = time.perf_counter() - started
    doc = json.loads(capsys.readouterr().out)
    payload = doc["payload"]
    ok = (
        code == 0
        and doc["status"] == "ok"
        and payload["best_length"] == 7
        and payload["exhaustive"] is True
        and elapsed < 10
    )
    criterion(
        1,
        ok,
        f"search-longest k=2 t=6 ceiling=12 -> best_length=7 exhaustive=true "
        f"({elapsed:.2f}s < 10s)",
    )


def test_criterion_02_no_avoiders_at_or_above_the_constant(criterion):
    started = time.perf_counter()
    checked = 0
    avoiders = 0
    for n in range(8, 21):
        for s in iter_zero_sum_sequences(2, n):
            checked += 1
            if is_t_avoiding(s, 6):
                avoiders += 1
    elapsed = time.perf_counter() - started
    ok = avoiders == 0 and checked > 0 and elapsed < 60
    criterion(
        2,
        ok,
        f"every zero-sum sequence over [-2,2] of length 8..20 contains a "
        f"length-6 zero-sum ({checked} sequences, {avoiders} avoiders, "
        f"{elapsed:.2f}s < 60s)",
    )


def _brute_force_extremal(k, t):
    """t-avoiding zero-sum multisets of length t + k^2 - k - 1 over [-k, k].

    Plain enumeration, independent of the bitset kernel: each multiset is a
    sorted tuple, and every size-t sub-multiset of it is summed.
    """
    n = t + k * k - k - 1
    return {
        ms
        for ms in combinations_with_replacement(range(-k, k + 1), n)
        if sum(ms) == 0 and not any(sum(sub) == 0 for sub in combinations(ms, t))
    }


def _in_support_pattern(k, ms):
    support = set(ms)
    return support <= {-1, k - 1, k} or support <= {1, -(k - 1), -k}


def test_criterion_03_extremal_support_patterns(criterion):
    k, t = 2, 6
    started = time.perf_counter()
    report = enumerate_extremal(k, t)
    found = [
        tuple(v for v, m in s.terms for _ in range(m)) for s in report.sequences
    ]
    expected = _brute_force_extremal(k, t)
    elapsed = time.perf_counter() - started
    inside = sorted(ms for ms in expected if _in_support_pattern(k, ms))
    same = len(found) == len(set(found)) and set(found) == expected
    shape_ok = all(len(ms) == t + k * k - k - 1 and sum(ms) == 0 for ms in found)
    ok = (
        report.exhaustive
        and same
        and len(expected) == 6
        and shape_ok
        and report.support_ok == all(_in_support_pattern(k, ms) for ms in expected)
        and inside == [(-2, -1, -1, 1, 1, 1, 1), (-1, -1, -1, -1, 1, 1, 2)]
        and elapsed < 30
    )
    criterion(
        3,
        ok,
        f"extremal enumeration at (2,6) returns {len(found)} sequences "
        f"({'all' if shape_ok else 'not all'} of length 7 and sum 0), "
        f"{'equal' if same else 'NOT equal'} to the brute-force set of "
        f"{len(expected)}; {len(inside)} inside a support pattern, "
        f"{len(expected) - len(inside)} outside, support_ok={report.support_ok} "
        f"({elapsed:.2f}s < 30s)",
    )


def test_criterion_04_long_witness_and_random_containment(criterion):
    started = time.perf_counter()
    witness = parse_sequence("3^14,2^3,-1^48")
    part_a = (
        witness.length == 65
        and witness.sigma == 0
        and verify_frobenius_avoidance(3, 60, witness)
    )
    rng = random.Random("acceptance:criterion-4")
    containing = 0
    trials = 10_000
    for _ in range(trials):
        s = random_zero_sum_of_length(rng, 3, 66)
        if not is_t_avoiding(s, 60):
            containing += 1
    elapsed = time.perf_counter() - started
    ok = part_a and containing == trials and elapsed < 300
    criterion(
        4,
        ok,
        f"3^14.2^3.(-1)^48 avoids length 60 (kernel + closed form) and "
        f"{containing}/{trials} random length-66 zero-sum sequences over "
        f"[-3,3] contain one ({elapsed:.2f}s < 300s)",
    )


def test_criterion_05_unbounded_families(criterion):
    started = time.perf_counter()
    ok = True
    for k, t in [(2, 7), (3, 8), (4, 100)]:
        _, seq = family_generator(k, t, min_length=500)
        ok = ok and seq.length >= 500 and seq.sigma == 0 and is_t_avoiding(seq, t)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30
    criterion(
        5,
        ok,
        f"verified avoiding sequences of length >= 500 for (2,7), (3,8), "
        f"(4,100) ({elapsed:.2f}s < 30s)",
    )


def test_criterion_06_capped_configuration_audit(criterion):
    started = time.perf_counter()
    flagged = lemma42_search()
    elapsed = time.perf_counter() - started
    ok = flagged == [] and elapsed < 1
    criterion(
        6,
        ok,
        f"capped-configuration audit flags nothing for k in 4..6 "
        f"({elapsed:.3f}s < 1s)",
    )


def test_criterion_07_exact_rational_margin(criterion):
    holds = lemma41_margin_check(420, 29)
    exact = Fraction(420, 29 - 11) >= Fraction(116, 5)
    ok = holds is True and holds == exact
    criterion(7, ok, "420/18 >= 116/5 holds as an exact rational comparison")


def test_criterion_08_lcm_growth(criterion):
    growth = {k: lcm_growth_check(k) for k in (5, 6, 7, 8)}
    base = lcm_range(2, 7)
    ok = all(growth.values()) and base == 420
    criterion(
        8,
        ok,
        f"lcm(2..2k-1) >= 4k^4 for k in 5..8 ({growth}) and lcm(2..7) = {base}",
    )


def test_criterion_09_randomized_property_suites(criterion):
    minimums = {
        "sign_ratio_bounds": 10_000,
        "spectrum_symmetry": 10_000,
        "dp_vs_bruteforce": 10_000,
        "davenport_blocks": 100_000,
        "reduce_fixpoint_audit": 10_000,
        "foreign_bound_at_fixpoint": 1_000,
    }
    started = time.perf_counter()
    results = {r.name: r for r in run_all(seed=0, scale=1.0)}
    elapsed = time.perf_counter() - started
    ok = (
        set(results) == set(minimums)
        and all(r.failures == 0 for r in results.values())
        and all(results[name].trials >= need for name, need in minimums.items())
        and elapsed < 600
    )
    total = sum(r.trials for r in results.values())
    failures = sum(r.failures for r in results.values())
    criterion(
        9,
        ok,
        f"six property suites, {total} trials, {failures} failures "
        f"({elapsed:.1f}s < 600s)",
    )


def test_criterion_10_minimal_zero_sum_lengths(criterion):
    started = time.perf_counter()
    values = {k: minimal_zero_sum_max_length(k) for k in range(1, 7)}
    elapsed = time.perf_counter() - started
    ok = values == {k: max(2, 2 * k - 1) for k in range(1, 7)} and elapsed < 60
    criterion(
        10,
        ok,
        f"longest minimal zero-sum sequence over [-k,k] is max(2, 2k-1) for "
        f"k in 1..6 ({values}, {elapsed:.2f}s < 60s)",
    )
