"""Inputs, operations and correctness checks of the zsseq benchmark workloads.

A workload factory turns a seed into a list of :class:`Op`.  The inputs are
made here, by the benchmark's own generators, so the program under test
sees only the generated requests.  Each op calls the library's public
functions the way one command-line invocation would and returns the
payload that invocation prints; each check verifies such a payload with
cross-checks that do not trust the answer being checked.

Sizes are spread over strata (one uniform draw per equal-width slice of
the range) rather than drawn independently, so every seed gets the same
mix of small and large requests and a pass costs about the same whatever
the seed, while the requests themselves still change with it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd
from typing import Callable

#: Fixed search instances: (operation, k, t, ceiling).  For k = 2 the
#: constant is finite when 6 divides t; for k = 3 and these t it is not, so
#: those searches run into their ceiling over the 7-value tree.  Each takes
#: 5-150 ms, so that a run repeats every one of them many times (see
#: README.md for why larger instances are left out).
SEARCH_INSTANCES = (
    ("longest", 2, 12, 22),
    ("longest", 2, 18, 28),
    ("longest", 2, 24, 34),
    ("extremal", 2, 12, None),
    ("extremal", 2, 18, None),
    ("extremal", 2, 24, None),
    ("extremal", 2, 30, None),
    ("longest", 3, 6, 16),
    ("longest", 3, 8, 18),
    ("longest", 3, 10, 20),
    ("longest", 3, 14, 24),
)

#: Number of extremal sequences known for (k, t).  For k = 2 and t = 6m
#: it is 3m(m + 1).
EXTREMAL_COUNTS = {(2, 6): 6, (2, 12): 18, (2, 18): 36, (2, 24): 60, (2, 30): 90, (2, 60): 330}

#: Payload fields that count work or time rather than state an answer;
#: they are left out of answer comparisons and the golden digest.
NON_ANSWER_FIELDS = frozenset({"nodes_explored", "seconds"})


@dataclass
class Op:
    """One request: ``run`` returns its payload, ``check`` returns a problem or None."""

    request: tuple
    run: Callable[[], dict]
    check: Callable[[dict], str | None]
    #: SuiteResult objects of the latest run (selftest only).
    suites: list = field(default_factory=list)


def answer_fields(payload):
    """The payload without work and time counters, for answer comparisons."""
    if isinstance(payload, dict):
        return {
            key: answer_fields(value)
            for key, value in payload.items()
            if key not in NON_ANSWER_FIELDS
        }
    if isinstance(payload, list):
        return [answer_fields(value) for value in payload]
    return payload


# -- input generators ----------------------------------------------------


def spread(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` integers covering [lo, hi], one uniform draw per stratum, shuffled."""
    width = (hi - lo + 1) / count
    values = [lo + int(width * (i + rng.random())) for i in range(count)]
    rng.shuffle(values)
    return values


def grid(
    rng: random.Random, count: int, ks: range, lo: int, hi: int, ordered: bool = False
) -> list[tuple[int, int, int]]:
    """``count`` triples (k, size, i): each k equally often, sizes spread over
    [lo, hi] within each k, and i counting the triples of one k.

    With ``ordered``, i follows the sizes up, so that anything cycled by i
    (the rewrite blocks) comes up equally often in every band of sizes.
    """
    per_k = count // len(ks)
    triples = []
    for k in ks:
        sizes = spread(rng, per_k, lo, hi)
        if ordered:
            sizes.sort()
        triples += [(k, size, i) for i, size in enumerate(sizes)]
    return triples


def block_of(i: int, k: int) -> tuple[int, int]:
    """The i-th (alpha, beta) in [1, k]^2, so that each block comes up equally often."""
    return 1 + i % k, 1 + i // k % k


def zero_sum_counts(rng: random.Random, k: int, n: int) -> dict[int, int]:
    """Multiplicities of a random zero-sum sequence of length n over [-k, k].

    Each element is drawn from the part of [-k, k] that the elements still
    to come can cancel, so the last one closes the sum to zero.
    """
    counts: dict[int, int] = {}
    total = 0
    for rest in range(n - 1, -1, -1):
        e = rng.randint(max(-k, -k * rest - total), min(k, k * rest - total))
        counts[e] = counts.get(e, 0) + 1
        total += e
    return counts


def frobenius_counts(rng: random.Random, k: int, n: int) -> dict[int, int]:
    """A zero-sum sequence over {-1, k-1, k} of length at most n (k >= 2).

    i copies of k and j of k-1 need k*i + (k-1)*j copies of -1, for a
    length of (k+1)*i + k*j.
    """
    i = rng.randint(0, n // (k + 1))
    j = (n - (k + 1) * i) // k
    counts = {k: i, k - 1: j, -1: k * i + (k - 1) * j}
    return {v: m for v, m in counts.items() if m}


def seq_text(counts: dict[int, int]) -> str:
    return ",".join(f"{v}^{m}" for v, m in sorted(counts.items()) if m)


def _pairs(terms: list[dict]) -> list[tuple[int, int]]:
    return [(term["value"], term["mult"]) for term in terms]


def _witness_problem(counts: dict[int, int], k: int, witness: dict | None, t: int) -> str | None:
    """Problem with a claimed zero-sum subsequence of length t, or None."""
    if witness is None:
        return f"no witness for a containing answer at t={t}"
    pairs = _pairs(witness["terms"])
    if witness["k"] != k or any(abs(v) > k for v, _ in pairs):
        return f"witness {witness} leaves [-{k}, {k}]"
    if sum(m for _, m in pairs) != t:
        return f"witness {witness} does not have length {t}"
    if sum(v * m for v, m in pairs) != 0:
        return f"witness {witness} does not sum to zero"
    if not all(m >= 1 and counts.get(v, 0) >= m for v, m in pairs):
        return f"witness {witness} is not a subsequence of the input"
    return None


# -- search ----------------------------------------------------------------


def make_search(z, seed: int) -> list[Op]:
    """The fixed exhaustive searches, in an order the seed shuffles."""
    instances = list(SEARCH_INSTANCES)
    random.Random(f"{seed}:search").shuffle(instances)
    ops = []
    for kind, k, t, ceiling in instances:
        if kind == "longest":
            run = lambda k=k, t=t, c=ceiling: z.longest_avoiding(k, t, c).to_json_dict()
            check = lambda p, k=k, t=t, c=ceiling: _check_longest(z, k, t, c, p)
        else:
            run = lambda k=k, t=t: z.enumerate_extremal(k, t).to_json_dict()
            check = lambda p, k=k, t=t: _check_extremal(z, k, t, p)
        ops.append(Op((kind, k, t, ceiling), run, check))
    return ops


def _avoider_problem(z, k: int, t: int, length: int, doc: dict) -> str | None:
    """Problem with a claimed zero-sum t-avoider of the given length, or None.

    A zero-sum sequence of length n avoids t exactly when it avoids n - t,
    so the kernel is asked both, with tables of different sizes.
    """
    pairs = _pairs(doc["terms"])
    if sum(m for _, m in pairs) != length or sum(v * m for v, m in pairs) != 0:
        return f"{doc} is not zero-sum of length {length}"
    if any(abs(v) > k for v, _ in pairs):
        return f"{doc} leaves [-{k}, {k}]"
    s = z.BoundedSequence.from_terms(pairs, k)
    if not (z.is_t_avoiding(s, t) and z.is_t_avoiding(s, length - t)):
        return f"{doc} contains a zero-sum subsequence of length {t} or {length - t}"
    return None


def _check_longest(z, k: int, t: int, ceiling: int, p: dict) -> str | None:
    if p["stop_reason"] is not None:
        return f"search stopped on a cap: {p['stop_reason']}"
    constant = z.s_prime_t(k, t).value
    expected = ceiling if constant is None else constant - 1
    if p["best_length"] != expected:
        return f"best_length {p['best_length']} != {expected}"
    if p["exhaustive"] != (constant is not None):
        return f"exhaustive flag {p['exhaustive']} is wrong for k={k}, t={t}"
    if not p["witnesses"]:
        return "no witnesses"
    for w in p["witnesses"]:
        problem = _avoider_problem(z, k, t, expected, w)
        if problem:
            return problem
    return None


def _check_extremal(z, k: int, t: int, p: dict) -> str | None:
    if not p["exhaustive"]:
        return "extremal enumeration stopped on a cap"
    found = p["sequences"]
    if len(found) != EXTREMAL_COUNTS[(k, t)]:
        return f"{len(found)} extremal sequences, expected {EXTREMAL_COUNTS[(k, t)]}"
    keys = [tuple(_pairs(s["terms"])) for s in found]
    if keys != sorted(set(keys)):
        return "extremal sequences are not distinct and sorted"
    length = t + k * k - k - 1
    upper, lower = {-1, k - 1, k}, {1, -(k - 1), -k}
    support_ok = all({v for v, _ in key} <= upper or {v for v, _ in key} <= lower for key in keys)
    if p["support_ok"] != support_ok:
        return f"support_ok {p['support_ok']} disagrees with the sequences"
    for s in found:
        problem = _avoider_problem(z, k, t, length, s)
        if problem:
            return problem
    return None


# -- query -----------------------------------------------------------------

QUERY_RANDOM = 1000  # uniform zero-sum sequences, k 2-6, n 20-300
QUERY_FROBENIUS = 200  # zero-sum sequences over {-1, k-1, k}, k 2-6, n 20-300
QUERY_FAMILY = 300  # family_generator avoiders of length 50-600
QUERY_SPECTRUM = 460  # spectrum of zero-sum sequences, k 2-6, n 20-120
QUERY_LARGE = 40  # k = 8, n 600-1000, t >= n - 50


def make_query(z, seed: int) -> list[Op]:
    """About 2,000 mixed single queries, each given as text, in seeded order."""
    rng = random.Random(f"{seed}:query")
    requests = []
    ks = range(2, 7)
    for kind, count in (("random", QUERY_RANDOM), ("frobenius", QUERY_FROBENIUS)):
        gen = zero_sum_counts if kind == "random" else frobenius_counts
        for k, n, _ in grid(rng, count, ks, 20, 300):
            counts = gen(rng, k, n)
            requests.append(("check", kind, k, counts, rng.randint(1, sum(counts.values()))))
    for k, n, _ in grid(rng, QUERY_FAMILY, ks, 50, 600):
        t = rng.randint(1, n)
        while z.divisibility_condition(k, t).holds:
            t = rng.randint(1, n)
        _, seq = z.family_generator(k, t, n)
        requests.append(("check", "family", k, seq.as_dict(), t))
    for k, n, _ in grid(rng, QUERY_SPECTRUM, ks, 20, 120):
        requests.append(("spectrum", "random", k, zero_sum_counts(rng, k, n), None))
    for n in spread(rng, QUERY_LARGE, 600, 1000):
        requests.append(("check", "large", 8, zero_sum_counts(rng, 8, n), n - rng.randint(0, 50)))
    rng.shuffle(requests)
    return [_query_op(z, *request) for request in requests]


def _query_op(z, op: str, kind: str, k: int, counts: dict[int, int], t: int | None) -> Op:
    text = seq_text(counts)
    if op == "spectrum":
        run = lambda: _spectrum_payload(z, text, k)
        check = lambda p: _check_spectrum(z, counts, k, p)
    else:
        run = lambda: _check_payload(z, text, k, t)
        check = lambda p: _check_check(z, counts, k, t, kind, p)
    return Op((op, kind, k, text, t), run, check)


def _check_payload(z, text: str, k: int, t: int) -> dict:
    """What ``zsseq check --seq TEXT --k K --t T --json`` prints as payload."""
    s = z.parse_sequence(text, bound=k)
    witness = z.find_zero_sum_of_length(s, t)
    return {
        "t": t,
        "avoiding": witness is None,
        "witness": None if witness is None else witness.subsequence.to_json_dict(),
    }


def _spectrum_payload(z, text: str, k: int) -> dict:
    """What ``zsseq spectrum --seq TEXT --k K --json`` prints as payload."""
    s = z.parse_sequence(text, bound=k)
    return {"length": s.length, "lengths": z.spectrum(s).as_sorted_list()}


def _check_check(z, counts: dict, k: int, t: int, kind: str, p: dict) -> str | None:
    if p["t"] != t:
        return f"answer is for t={p['t']}, asked t={t}"
    n = sum(counts.values())
    s = z.BoundedSequence.from_terms(counts, k)
    if set(counts) <= {-1, k - 1, k}:
        # Closed form for this support; raises CrossCheckError if the
        # kernel disagrees with it.
        if p["avoiding"] != z.verify_frobenius_avoidance(k, t, s):
            return f"avoiding={p['avoiding']} disagrees with the closed form at t={t}"
    if not p["avoiding"]:
        if kind == "family":
            return f"family avoider reported containing t={t}"
        return _witness_problem(counts, k, p["witness"], t)
    if p["witness"] is not None:
        return "avoiding answer carries a witness"
    # Zero-sum input: avoiding t means avoiding n - t as well.
    if z.find_zero_sum_of_length(s, n - t) is not None:
        return f"reported avoiding t={t} but contains n-t={n - t}"
    return None


def _check_spectrum(z, counts: dict, k: int, p: dict) -> str | None:
    n = sum(counts.values())
    lengths = p["lengths"]
    if p["length"] != n:
        return f"length {p['length']} != {n}"
    if lengths != sorted(set(lengths)) or not set(lengths) <= set(range(n + 1)):
        return f"lengths {lengths} are not distinct sorted lengths in [0, {n}]"
    present = set(lengths)
    if 0 not in present or n not in present:
        return "spectrum of a zero-sum sequence misses 0 or its length"
    if present != {n - t for t in present}:
        return "spectrum of a zero-sum sequence is not symmetric"
    s = z.BoundedSequence.from_terms(counts, k)
    probe = lengths[len(lengths) // 2]
    found = z.find_zero_sum_of_length(s, probe)
    problem = _witness_problem(counts, k, None if found is None else found.subsequence.to_json_dict(), probe)
    if problem:
        return f"spectrum lists {probe}: {problem}"
    missing = [t for t in range(n + 1) if t not in present]
    if missing and z.find_zero_sum_of_length(s, missing[len(missing) // 2]) is not None:
        return f"spectrum omits {missing[len(missing) // 2]} but a witness exists"
    return None


# -- rewrite ---------------------------------------------------------------

REWRITE_RANDOM = 1600  # random zero-sum sequences, k 1-4, n 5-60
REWRITE_BLOCKS = 400  # a zero-sum core of length <= 6 plus 5-30 whole blocks


def make_rewrite(z, seed: int) -> list[Op]:
    """About 2,000 block rewrites to a fixpoint, with random blocks."""
    rng = random.Random(f"{seed}:rewrite")
    requests = []
    ks = range(1, 5)
    for k, n, i in grid(rng, REWRITE_RANDOM, ks, 5, 60, ordered=True):
        requests.append((k, zero_sum_counts(rng, k, n), *block_of(i, k)))
    for k, copies, i in grid(rng, REWRITE_BLOCKS, ks, 5, 30, ordered=True):
        counts = zero_sum_counts(rng, k, rng.randint(0, 6))
        alpha, beta = block_of(i, k)
        g = gcd(alpha, beta)
        counts[alpha] = counts.get(alpha, 0) + copies * beta // g
        counts[-beta] = counts.get(-beta, 0) + copies * alpha // g
        requests.append((k, counts, alpha, beta))
    rng.shuffle(requests)
    return [_rewrite_op(z, *request) for request in requests]


def _rewrite_op(z, k: int, counts: dict[int, int], alpha: int, beta: int) -> Op:
    text = seq_text(counts)
    return Op(
        (k, text, alpha, beta),
        lambda: _reduce_payload(z, text, k, alpha, beta),
        lambda p: _check_reduce(z, counts, k, alpha, beta, p),
    )


def _reduce_payload(z, text: str, k: int, alpha: int, beta: int) -> dict:
    """What ``zsseq reduce --seq TEXT --k K --alpha A --beta B --json`` prints as payload."""
    s = z.parse_sequence(text, bound=k)
    x = z.build_block(alpha, beta)
    return z.reduce_fixpoint(s, x).to_json_dict()


def _check_reduce(z, counts: dict, k: int, alpha: int, beta: int, p: dict) -> str | None:
    """Replay the recorded rewrite steps, as the reduce_fixpoint_audit suite does."""
    g = gcd(alpha, beta)
    block = {alpha: beta // g, -beta: alpha // g}
    block_len = (alpha + beta) // g
    current = dict(counts)
    if dict(_pairs(p["initial"]["terms"])) != current:
        return "initial sequence differs from the input"

    def kept(c):
        return c.get(alpha, 0) + c.get(-beta, 0)

    foreign = sum(m for v, m in counts.items() if v not in (alpha, -beta))
    if len(p["steps"]) > foreign:
        return f"{len(p['steps'])} rewrites exceed the foreign count {foreign}"
    for step in p["steps"]:
        removed = dict(_pairs(step["removed"]["terms"]))
        copies = step["inserted_copies"]
        if sum(v * m for v, m in removed.items()) != 0:
            return f"removed piece {removed} is not zero-sum"
        if sum(removed.values()) != copies * block_len or copies < 1:
            return f"removed piece {removed} does not match {copies} blocks"
        if not all(current.get(v, 0) >= m for v, m in removed.items()):
            return f"removed piece {removed} is not a subsequence"
        if all(v in (alpha, -beta) for v in removed):
            return f"removed piece {removed} has no foreign element"
        before = kept(current)
        for v, m in removed.items():
            current[v] -= m
        for v, m in block.items():
            current[v] = current.get(v, 0) + m * copies
        current = {v: m for v, m in current.items() if m}
        if kept(current) <= before:
            return "alpha/-beta count did not grow"
    if dict(_pairs(p["fixpoint"]["terms"])) != current:
        return "replayed steps do not give the recorded fixpoint"
    fix = z.BoundedSequence.from_terms(current, k)
    if z.reduce_step(fix, z.build_block(alpha, beta)) is not None:
        return "recorded fixpoint still admits a rewrite"
    count = min(current.get(alpha, 0) // block[alpha], current.get(-beta, 0) // block[-beta])
    for v, m in block.items():
        current[v] = current.get(v, 0) - m * count
    current = {v: m for v, m in current.items() if m}
    if p["strip_count"] != count or dict(_pairs(p["stripped"]["terms"])) != current:
        return "block stripping disagrees with the fixpoint"
    return None


# -- selftest --------------------------------------------------------------

#: The dp_vs_bruteforce suite compares the kernel with brute-force
#: enumeration on every multiset over [-3, 3] of size <= 12: 50,388 of
#: them, about 10 s in one call.  Here a pass checks a seeded sample of
#: those multisets in short batches, and runs every suite once through
#: ``run_all`` at a small scale.
ORACLE_VALUES = tuple(range(-3, 4))
ORACLE_SIZE_CAP = 12
ORACLE_SAMPLE = 6000
ORACLE_BATCH = 150
SELFTEST_SCALE = 0.02


def oracle_multisets(size_cap: int = ORACLE_SIZE_CAP) -> list[tuple[int, ...]]:
    """Every multiset over ORACLE_VALUES of size <= size_cap, as a tuple of
    multiplicities, one per value."""
    found: list[tuple[int, ...]] = []
    mults: list[int] = []

    def visit(room: int) -> None:
        if len(mults) == len(ORACLE_VALUES):
            found.append(tuple(mults))
            return
        for copies in range(room + 1):
            mults.append(copies)
            visit(room - copies)
            mults.pop()

    visit(size_cap)
    return found


def length_sum_pairs(counts: dict[int, int]) -> frozenset[tuple[int, int]]:
    """Every (length, sum) of a subsequence, by the benchmark's own dynamic programme."""
    pairs = {(0, 0)}
    for value, mult in counts.items():
        pairs = {(n + c, total + c * value) for n, total in pairs for c in range(mult + 1)}
    return frozenset(pairs)


def make_selftest(z, seed: int) -> list[Op]:
    """``run_all(seed, scale=SELFTEST_SCALE)`` plus the kernel-vs-oracle
    check on a seeded sample of the dp_vs_bruteforce multisets."""
    suites: list = []

    def run() -> dict:
        suites[:] = z.selftest.run_all(seed=seed, scale=SELFTEST_SCALE)
        return {"ok": all(r.ok for r in suites), "suites": [r.to_json_dict() for r in suites]}

    ops = [Op(("selftest", seed, SELFTEST_SCALE), run, _check_selftest, suites)]
    sample = [
        {v: m for v, m in zip(ORACLE_VALUES, mults) if m}
        for mults in random.Random(f"{seed}:selftest").sample(oracle_multisets(), ORACLE_SAMPLE)
    ]
    for i in range(0, ORACLE_SAMPLE, ORACLE_BATCH):
        ops.append(_oracle_op(z, sample[i : i + ORACLE_BATCH]))
    return ops


def _oracle_op(z, batch: list[dict[int, int]]) -> Op:
    def run() -> dict:
        disagree, pair_counts = [], []
        for i, counts in enumerate(batch):
            s = z.BoundedSequence.from_terms(counts, 3)
            pairs = frozenset(z.build_table(s, s.length, keep_layers=False).achievable_pairs())
            if pairs != z.brute_force_pairs(s):
                disagree.append(i)
            pair_counts.append(len(pairs))
        return {"multisets": len(batch), "disagree": disagree, "pair_counts": pair_counts}

    request = ("oracle", tuple(tuple(sorted(counts.items())) for counts in batch))
    return Op(request, run, lambda p: _check_oracle(z, batch, p))


def _check_oracle(z, batch: list[dict[int, int]], p: dict) -> str | None:
    """The answer, and the kernel itself, against the benchmark's own enumeration."""
    if p["disagree"]:
        return f"kernel and brute force disagree on {[batch[i] for i in p['disagree'][:3]]}"
    expected = [length_sum_pairs(counts) for counts in batch]
    if p["multisets"] != len(batch) or p["pair_counts"] != [len(e) for e in expected]:
        return "pair counts differ from the benchmark's own enumeration"
    for counts, pairs in zip(batch, expected):
        s = z.BoundedSequence.from_terms(counts, 3)
        if frozenset(z.build_table(s, s.length, keep_layers=False).achievable_pairs()) != pairs:
            return f"kernel pairs of {counts} differ from the benchmark's own enumeration"
    return None


def _check_selftest(p: dict) -> str | None:
    bad = [s["name"] for s in p["suites"] if not s["ok"] or s["failures"]]
    if bad or not p["ok"] or len(p["suites"]) != 6:
        return f"suites not ok: {bad}"
    return None


WORKLOADS = {
    "search": make_search,
    "query": make_query,
    "rewrite": make_rewrite,
    "selftest": make_selftest,
}
