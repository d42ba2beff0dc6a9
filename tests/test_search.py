"""Search layer: longest-avoiding, extremal enumeration, families, audits."""

import hashlib
import time
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

import zsseq.constants
import zsseq.detect
import zsseq.search
from zsseq import (
    CrossCheckError,
    PreconditionError,
    BoundedSequence,
    brute_force_pairs,
    enumerate_extremal,
    family_generator,
    is_t_avoiding,
    iter_zero_sum_sequences,
    lemma42_search,
    longest_avoiding,
    negate,
    parse_sequence,
    verify_frobenius_avoidance,
)
from zsseq.constants import ConstantValue
from zsseq.search import _lemma42_margin

# The six longest 6-avoiding zero-sum sequences over [-2, 2], all of
# length 7 (one below the constant 8), as multiplicity dicts.
CRITICAL_2_6 = [
    {-2: 1, -1: 2, 1: 4},
    {-2: 1, -1: 3, 1: 1, 2: 2},
    {-2: 2, -1: 1, 1: 3, 2: 1},
    {-2: 2, -1: 2, 2: 3},
    {-2: 3, 1: 2, 2: 2},
    {-1: 4, 1: 2, 2: 1},
]


def critical_set():
    return {BoundedSequence.from_terms(c, 2) for c in CRITICAL_2_6}


def brute_force_avoiders(k, t, n):
    """Zero-sum t-avoiding multisets of length n over [-k, k], by plain enumeration."""
    found = set()
    for elements in combinations_with_replacement(range(-k, k + 1), n):
        if sum(elements) == 0:
            s = BoundedSequence.from_elements(elements, k)
            if (t, 0) not in brute_force_pairs(s):
                found.add(s)
    return found


def test_longest_avoiding_k2_t6():
    result = longest_avoiding(2, 6, 12)
    assert result.best_length == 7
    assert result.exhaustive
    assert result.stop_reason is None
    assert set(result.witnesses) == critical_set()
    assert list(result.witnesses) == sorted(result.witnesses, key=lambda s: s.terms)


def test_longest_avoiding_degenerate_k1():
    result = longest_avoiding(1, 2, 8)
    assert result.best_length == 1
    assert result.witnesses == (BoundedSequence.from_terms({0: 1}, 1),)
    assert result.exhaustive


def test_longest_avoiding_hits_ceiling_when_no_constant_exists():
    # 6 does not divide 7, so avoiding sequences exist at every length.
    result = longest_avoiding(2, 7, 8)
    assert result.best_length == 8
    assert not result.exhaustive
    assert result.stop_reason is None
    for w in result.witnesses:
        assert w.length == 8 and w.sigma == 0 and is_t_avoiding(w, 7)


@pytest.mark.parametrize("k,t,ceiling", [(0, 5, 5), (2, 0, 5), (2, 6, 5)])
def test_longest_avoiding_preconditions(k, t, ceiling):
    with pytest.raises(PreconditionError):
        longest_avoiding(k, t, ceiling)


OUT_OF_DOMAIN_CAPS = [
    {"max_nodes": -3},
    {"time_limit": -3.0},
    {"time_limit": float("nan")},
    {"time_limit": float("inf")},
]


def cap_id(caps):
    return ",".join(f"{name}={value}" for name, value in caps.items())


@pytest.mark.parametrize("caps", [*OUT_OF_DOMAIN_CAPS, {"max_witnesses": -1}], ids=cap_id)
def test_longest_avoiding_rejects_out_of_domain_caps(caps):
    (name,) = caps
    with pytest.raises(PreconditionError, match=name):
        longest_avoiding(2, 24, 34, **caps)


@pytest.mark.parametrize("caps", OUT_OF_DOMAIN_CAPS, ids=cap_id)
def test_extremal_rejects_out_of_domain_caps(caps):
    (name,) = caps
    with pytest.raises(PreconditionError, match=name):
        enumerate_extremal(2, 24, **caps)


def test_zero_caps_are_in_the_domain():
    assert longest_avoiding(2, 6, 12, max_nodes=0).stop_reason == "node-limit"
    result = longest_avoiding(2, 6, 12, max_witnesses=0)
    assert result.best_length == 7 and result.witnesses == () and result.exhaustive


def test_longest_avoiding_node_cap():
    result = longest_avoiding(2, 6, 12, max_nodes=5)
    assert result.stop_reason == "node-limit"
    assert not result.exhaustive
    assert result.nodes_explored == 5


def test_longest_avoiding_node_cap_spans_walks():
    full = longest_avoiding(2, 24, 34)
    assert full.exhaustive and full.nodes_explored == 82
    # the walks at 28, 27, 26 and 25 take 32, 20, 11 and 19 nodes, so
    # this cap stops the last of them
    capped = longest_avoiding(2, 24, 34, max_nodes=70)
    assert capped.stop_reason == "node-limit"
    assert not capped.exhaustive
    assert capped.nodes_explored == 70
    assert longest_avoiding(2, 24, 34, max_nodes=full.nodes_explored) == full


def test_longest_avoiding_time_cap():
    result = longest_avoiding(3, 60, 68, time_limit=0.0)
    assert result.stop_reason == "time-limit"
    assert not result.exhaustive
    assert result.nodes_explored > 0


def test_longest_avoiding_time_cap_spans_walks():
    # The whole search is 82 nodes, fewer than the 1024 between two clock
    # reads of the node count; the walk at 25 reads it at each leaf it builds.
    result = longest_avoiding(2, 24, 34, time_limit=0.0)
    assert result.stop_reason == "time-limit"
    assert not result.exhaustive


def test_walk_reads_the_clock_on_the_count_carried_across_walks():
    # The walk at 28 is 32 nodes and has no leaf: counted on from 1,000 it
    # reaches node 1,024, where the clock is read; counted on from 900 it
    # does not, and the past deadline goes unread.
    walk = zsseq.detect._walk_zero_sum
    assert walk(2, 28, lambda s: None, 24, deadline=0.0, nodes=900) == 932
    with pytest.raises(zsseq.detect._WalkCapped) as capped:
        walk(2, 28, lambda s: None, 24, deadline=0.0, nodes=1000)
    assert (capped.value.reason, capped.value.nodes) == ("time-limit", 1023)


def test_the_node_cap_wins_over_the_clock_on_a_shared_node():
    # Node 1,024 is both max_nodes + 1 and a clock read; the cap is read first.
    walk = zsseq.detect._walk_zero_sum
    with pytest.raises(zsseq.detect._WalkCapped) as capped:
        walk(2, 28, lambda s: None, 24, max_nodes=1023, deadline=0.0, nodes=1000)
    assert (capped.value.reason, capped.value.nodes) == ("node-limit", 1023)


def test_the_node_cap_stops_at_max_nodes_plus_one():
    # The walk at 28 is 32 nodes; a count handed in past the cap stops at its first node.
    walk = zsseq.detect._walk_zero_sum
    assert walk(2, 28, lambda s: None, 24, max_nodes=32) == 32
    for max_nodes, nodes, stopped in [(31, 0, 31), (10, 50, 50)]:
        with pytest.raises(zsseq.detect._WalkCapped) as capped:
            walk(2, 28, lambda s: None, 24, max_nodes=max_nodes, nodes=nodes)
        assert (capped.value.reason, capped.value.nodes) == ("node-limit", stopped)


def test_the_clock_is_read_every_1024_nodes_and_progress_every_65536():
    # Counted on from 1,024, the 32-node walk at 28 reaches no multiple of 1,024.
    walk = zsseq.detect._walk_zero_sum
    assert walk(2, 28, lambda s: None, 24, deadline=0.0, nodes=1024) == 1056
    calls = []
    assert walk(2, 28, lambda s: None, 24, progress=calls.append, nodes=1000) == 1032
    assert walk(2, 28, lambda s: None, 24, progress=calls.append, nodes=65526) == 65558
    assert walk(2, 28, lambda s: None, 24, progress=calls.append, nodes=65536) == 65568
    assert calls == [65536]
    # A past deadline stops the walk at node 65,536 before progress is reported.
    with pytest.raises(zsseq.detect._WalkCapped) as capped:
        walk(2, 28, lambda s: None, 24, deadline=0.0, progress=calls.append, nodes=65526)
    assert (capped.value.reason, capped.value.nodes) == ("time-limit", 65535)
    assert calls == [65536]


def test_an_empty_leaf_solve_reads_the_clock():
    # This solve of four free values finds nothing; the deadline is read
    # before anything else, so a past one stops it, with the walk's count.
    solve = zsseq.detect._extra_copies
    start = time.monotonic()
    with pytest.raises(zsseq.detect._WalkCapped) as capped:
        list(solve([5, -4, 2, -1], 2490, -20, deadline=start - 1, nodes=7))
    assert time.monotonic() - start < 0.05
    assert (capped.value.reason, capped.value.nodes) == ("time-limit", 7)
    assert list(solve([5, -4, 2, -1], 2490, -20)) == []


def test_extremal_time_cap_stops_the_leaf_solve():
    # 19 nodes and 120,600 sequences: only the clock read at each leaf
    # built can stop this walk.
    start = time.monotonic()
    report = enumerate_extremal(2, 1200, time_limit=0.05)
    assert time.monotonic() - start < 0.5
    assert not report.exhaustive
    for s in report.sequences:
        assert s.length == 1201 and s.sigma == 0


def test_time_limit_covers_the_recheck():
    # The walk stops on the clock with about 60,000 sequences found; the
    # kernel re-check of them reads the same deadline, so the call returns
    # soon after it, with the re-checked ones only.
    start = time.monotonic()
    report = enumerate_extremal(2, 1200, time_limit=1.0)
    assert time.monotonic() - start < 1.5
    assert not report.exhaustive
    assert report.sequences
    for s in report.sequences:
        assert s.length == 1201 and s.sigma == 0 and is_t_avoiding(s, 1200)


def test_a_recheck_past_the_deadline_keeps_the_rechecked_prefix(monkeypatch):
    # The walk takes milliseconds; each re-check is slowed to 0.1 s, so the
    # 0.25 s limit passes during the re-check, after the third.
    checked = []

    def slow_check(s, t):
        time.sleep(0.1)
        checked.append(s)
        return is_t_avoiding(s, t)

    full = longest_avoiding(2, 6, 12).witnesses
    monkeypatch.setattr(zsseq.search, "is_t_avoiding", slow_check)
    result = longest_avoiding(2, 6, 12, time_limit=0.25)
    assert result.stop_reason == "time-limit" and not result.exhaustive
    assert result.best_length == 7
    assert 1 <= len(result.witnesses) < len(full)
    assert list(result.witnesses) == checked == list(full[: len(checked)])


def test_k5_walks_stop_on_the_clock():
    # Their first walks, n = 2530 and n = 2539 at t = 2520, have leaf solves
    # over up to 2k - 2 free values; the clock stops each about 0.05 s in.
    start = time.monotonic()
    result = longest_avoiding(5, 2520, 2530, time_limit=0.05)
    assert time.monotonic() - start < 0.5 and result.stop_reason == "time-limit"
    start = time.monotonic()
    report = enumerate_extremal(5, 2520, time_limit=0.05)
    assert time.monotonic() - start < 0.5 and not report.exhaustive


def test_walks_refuse_k_past_the_recursion_bound():
    assert zsseq.detect.WALK_MAX_K == 400
    with pytest.raises(PreconditionError, match="k must be <= 400"):
        longest_avoiding(401, 6, 7)
    with pytest.raises(PreconditionError, match="k must be <= 400"):
        longest_avoiding(500, 6, 7)
    with pytest.raises(PreconditionError, match="k must be <= 400"):
        list(iter_zero_sum_sequences(500, 2))
    # The largest k accepted walks 801 deep and stops on its node cap.
    result = longest_avoiding(400, 6, 7, max_nodes=1000)
    assert result.stop_reason == "node-limit" and result.nodes_explored == 1000


def test_longest_avoiding_witness_cap():
    result = longest_avoiding(2, 6, 12, max_witnesses=2)
    assert result.best_length == 7
    assert len(result.witnesses) == 2
    assert set(result.witnesses) <= critical_set()


def descent_from_the_ceiling(k, t, ceiling):
    """The payload, less ``nodes_explored``, of a walk of every length from the ceiling down."""
    for n in [*range(ceiling, t, -1), t - 1]:
        leaves = []
        zsseq.detect._walk_zero_sum(k, n, leaves.append, t)
        if leaves:
            break
    first = sorted(leaves, key=lambda s: s.terms)[:64]
    best = n if leaves else 0
    return {
        "k": k,
        "t": t,
        "best_length": best,
        "witnesses": [w.to_json_dict() for w in first],
        "exhaustive": best < ceiling,
        "stop_reason": None,
    }


# (k, t, constant c, longest minimal zero-sum length L)
WINDOW_CASES = [(1, 2, 2, 2), (1, 4, 4, 2), (1, 6, 6, 2), (2, 6, 8, 3), (2, 12, 14, 3)]


@pytest.mark.parametrize(
    "k,t,ceiling",
    [(k, t, ceiling) for k, t, c, L in WINDOW_CASES for ceiling in range(t, c + 2 * L + 3)],
)
def test_longest_avoiding_matches_a_descent_from_the_ceiling(k, t, ceiling):
    payload = longest_avoiding(k, t, ceiling).to_json_dict()
    del payload["nodes_explored"]
    assert payload == descent_from_the_ceiling(k, t, ceiling)


def test_longest_avoiding_starts_at_the_top_of_the_window():
    # c = 14 and L = 3: the empty walks at 16, 15 and 14 rule out every
    # longer length, and the walk at 13 finds the 18 witnesses.
    walks = [zsseq.detect._walk_zero_sum(2, n, lambda s: None, 12) for n in (16, 15, 14, 13)]
    assert sum(walks) == 82
    assert longest_avoiding(2, 12, 22).nodes_explored == 82


def test_longest_avoiding_rejects_an_avoider_at_the_constant(monkeypatch):
    # One too low, the constant 7 puts the critical length 7 inside the window.
    low = lambda k, t: ConstantValue(zsseq.constants.s_prime_t(k, t).value - 1)  # noqa: E731
    monkeypatch.setattr(zsseq.search, "s_prime_t", low)
    with pytest.raises(CrossCheckError, match="length 7 .* constant 7"):
        longest_avoiding(2, 6, 12)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_longest_avoiding_matches_brute_force(k, t):
    ceiling = t + 4
    best = next(n for n in range(ceiling, -1, -1) if brute_force_avoiders(k, t, n))
    result = longest_avoiding(k, t, ceiling, max_witnesses=None)
    assert result.best_length == best
    assert set(result.witnesses) == brute_force_avoiders(k, t, best)
    assert len(result.witnesses) == len(set(result.witnesses))


def test_longest_avoiding_capped_witnesses_are_a_prefix_of_the_full_list():
    # 18 witnesses at length 13; caps below 9 also trim the buffer mid-walk.
    full = tuple(sorted(brute_force_avoiders(2, 12, 13), key=lambda s: s.terms))
    assert len(full) == 18
    for cap in range(20):
        result = longest_avoiding(2, 12, 13, max_witnesses=cap)
        assert result.witnesses == full[:cap], cap
    assert longest_avoiding(2, 12, 13, max_witnesses=None).witnesses == full


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_walker_leaves_are_the_avoiders_closed_under_negation(k):
    # At k = 4 the walk's caps differ across four values of |v|.
    for n in range(9 if k < 4 else 8):
        for t in range(1, n + 2):
            leaves = []
            zsseq.detect._walk_zero_sum(k, n, leaves.append, t)
            assert len(leaves) == len(set(leaves)), (k, n, t)
            assert {negate(s) for s in leaves} == set(leaves), (k, n, t)
            assert set(leaves) == brute_force_avoiders(k, t, n), (k, n, t)


def test_walks_shorter_than_t_carry_the_empty_table():
    # Nothing fills the empty table, so no containment cut fires, every
    # zero-sum multiset is a leaf and the walk does not depend on t.  The
    # second count, over every t, also pins the walks that carry rows.
    walk = zsseq.detect._walk_zero_sum
    grid = [(k, n) for k in (1, 2, 3) for n in range(9)]
    assert sum(walk(k, n, lambda s: None, n + 1) for k, n in grid) == 1078
    assert sum(walk(k, n, lambda s: None, t) for k, n in grid for t in range(1, n + 2)) == 3144
    near, far = [], []
    assert walk(3, 8, near.append, 9) == walk(3, 8, far.append, 40)
    zero_sum = {
        BoundedSequence.from_elements(e, 3)
        for e in combinations_with_replacement(range(-3, 4), 8)
        if sum(e) == 0
    }
    assert near == far and len(near) == len(zero_sum) and set(near) == zero_sum


# (k, length, t, nodes, leaves) of profile walks where h = min(t, length - t)
# is far below the multiplicities: the node count follows h, not t.
PROFILE_WALKS = [
    (2, 61, 60, 19, 330),
    (3, 65, 60, 356, 10),
    (3, 125, 120, 356, 20),
    (3, 127, 120, 1_039, 0),
    (3, 70, 60, 4_114, 0),
]


@pytest.mark.parametrize("k,length,t,nodes,count", PROFILE_WALKS)
def test_profile_walk_nodes_and_leaves(k, length, t, nodes, count):
    leaves = []
    assert zsseq.detect._walk_zero_sum(k, length, leaves.append, t) == nodes
    assert len(leaves) == len(set(leaves)) == count
    assert {negate(s) for s in leaves} == set(leaves)
    for s in leaves:
        assert s.bound == k and s.length == length and s.sigma == 0
        assert is_t_avoiding(s, t)


# (k, t, n): every k <= 3 walk with t <= 9 and every k = 4 walk with t <= 6,
# each at n = t - 2 ... 2t + 2, plus the long walks of the extremal cases.
WALK_GRID = [
    *(
        (k, t, n)
        for k in (1, 2, 3, 4)
        for t in range(1, 10 if k < 4 else 7)
        for n in range(max(0, t - 2), 2 * t + 3)
    ),
    (3, 60, 65), (3, 60, 70), (3, 120, 125), (3, 120, 127), (4, 420, 431),
]


def test_every_walk_in_the_grid_keeps_its_nodes_and_leaves():
    # One sha256 over (k, t, n, nodes, sorted leaf terms) of 322 walks, so a
    # change to the walker that moves any node count or leaf shows here.
    digest = hashlib.sha256()
    for k, t, n in WALK_GRID:
        leaves = []
        nodes = zsseq.detect._walk_zero_sum(k, n, leaves.append, t)
        digest.update(repr((k, t, n, nodes, sorted(s.terms for s in leaves))).encode())
    assert len(WALK_GRID) == 322
    assert digest.hexdigest() == (
        "41d4f4e6a9002b15c2e7c9b0e9df594ef4975be096a6d16249c0b11b87cdb724"
    )


def test_an_empty_table_walk_solves_each_leaf_in_one_step(monkeypatch):
    # With t past the length, 0 is free from the start: each of the 200
    # profiles of (1, -1) reaching 0 gets its zeros from one solve, not
    # one count at a time.
    solves = []
    solve = zsseq.detect._extra_copies

    def counting(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(zsseq.detect, "_extra_copies", counting)
    leaves = []
    assert zsseq.detect._walk_zero_sum(1, 399, leaves.append, 400) == 401
    assert len(solves) == len(leaves) == 200


@pytest.mark.parametrize("k,longest", [(1, 10), (2, 10), (3, 10), (4, 8)])
def test_a_zero_sum_of_length_h_holds_at_most_the_walk_cap_of_each_value(k, longest):
    # The walk caps v at k * h // (k + |v|): no zero-sum multiset of length
    # h holds more copies of v, and some multiset holds that many.
    for h in range(1, longest + 1):
        most = dict.fromkeys(range(-k, k + 1), 0)
        for s in iter_zero_sum_sequences(k, h):
            for v, mult in s.terms:
                most[v] = max(most[v], mult)
        assert most == {v: k * h // (k + abs(v)) for v in most}, (k, h)


def test_extra_copies_match_plain_enumeration():
    # Every solution, each once, for zero to five free values; the last
    # two sets have differences sharing a factor, which the residue test
    # reads.
    for values in (
        [], [2], [-3], [2, -1], [3, -3], [2, -2, 1], [3, -3, 2, -1], [3, -3, 2, -2, 1],
        [4, -2, 2], [3, -3, 1, -1],
    ):
        for length in range(7):
            for total in range(-3 * length, 3 * length + 1):
                got = list(zsseq.detect._extra_copies(values, length, total))
                want = [
                    e for e in product(range(length + 1), repeat=len(values))
                    if sum(e) == length and sum(v * x for v, x in zip(values, e)) == total
                ]
                assert sorted(got) == want, (values, length, total)


def test_an_empty_leaf_solve_with_no_solution_by_parity_returns_at_once():
    # Every difference of these values is even and the total is odd; the
    # residue test ends the solve before it enumerates.
    start = time.monotonic()
    assert list(zsseq.detect._extra_copies([5, -5, 3, -3], 2400, 1)) == []
    assert time.monotonic() - start < 0.05


def test_extremal_k3_t60_walks_one_sign_of_each_pair():
    # 511 nodes when both signs of every pair of profiles are walked
    assert enumerate_extremal(3, 60).nodes_explored == 356


def test_longest_avoiding_is_deterministic():
    assert longest_avoiding(2, 6, 12) == longest_avoiding(2, 6, 12)


def test_longest_avoiding_progress_callback():
    seen = []
    longest_avoiding(2, 6, 12, progress=lambda nodes, best: seen.append((nodes, best)))
    # the tree is tiny, so the periodic callback never fires
    assert seen == []


def test_extremal_k2_t6_violates_the_two_support_patterns():
    report = enumerate_extremal(2, 6)
    assert report.k == 2 and report.t == 6
    assert len(report.sequences) == 6
    assert set(report.sequences) == critical_set()
    assert all(s.length == 7 and s.sigma == 0 for s in report.sequences)
    assert report.exhaustive
    assert not report.degenerate
    # four of the six use values outside {-1, 1, 2} and {1, -1, -2}
    assert not report.support_ok


def test_extremal_k2_t12_matches_brute_force():
    report = enumerate_extremal(2, 12)
    assert report.exhaustive
    assert len(report.sequences) == 18
    assert set(report.sequences) == brute_force_avoiders(2, 12, 13)


def test_extremal_k3_t60_is_complete_and_keeps_the_support_pattern():
    report = enumerate_extremal(3, 60)
    assert report.exhaustive
    assert len(report.sequences) == 10
    assert report.support_ok
    assert {negate(s) for s in report.sequences} == set(report.sequences)
    for s in report.sequences:
        assert s.length == 65 and s.sigma == 0
        assert verify_frobenius_avoidance(3, 60, s)


def test_extremal_k4_t420_is_complete_and_keeps_the_support_pattern():
    # The first k=4 case of the theorem: about 0.09 M nodes, under a second.
    report = enumerate_extremal(4, 420)
    assert report.exhaustive
    assert len(report.sequences) == 42
    assert report.support_ok
    assert {negate(s) for s in report.sequences} == set(report.sequences)
    for s in report.sequences:
        assert s.length == 431 and s.sigma == 0
        assert verify_frobenius_avoidance(4, 420, s)


def test_extremal_rechecks_every_sequence(monkeypatch):
    monkeypatch.setattr("zsseq.search.is_t_avoiding", lambda s, t: False)
    with pytest.raises(CrossCheckError):
        enumerate_extremal(2, 6)


def test_extremal_k1_is_degenerate():
    report = enumerate_extremal(1, 2)
    assert report.sequences == (BoundedSequence.from_terms({0: 1}, 1),)
    assert report.support_ok
    assert report.degenerate


def test_extremal_requires_finite_constant():
    with pytest.raises(PreconditionError):
        enumerate_extremal(2, 7)


def test_extremal_k3_cap_reports_not_exhaustive():
    # the complete walk takes 356 nodes and has found all 10 sequences here
    report = enumerate_extremal(3, 60, max_nodes=300)
    assert not report.exhaustive
    for s in report.sequences:
        assert s.length == 60 + 9 - 3 - 1 and s.sigma == 0 and is_t_avoiding(s, 60)


def test_extremal_k4_cap_reports_not_exhaustive():
    report = enumerate_extremal(4, 420, max_nodes=1000)
    assert not report.exhaustive
    assert report.sequences == ()


@pytest.mark.parametrize(
    "call,walks",
    [
        (lambda: enumerate_extremal(2, 12), [(2, 13, 12)]),
        (lambda: enumerate_extremal(1, 4), [(1, 3, 4)]),
        (lambda: enumerate_extremal(3, 60), [(3, 65, 60)]),
        (lambda: list(iter_zero_sum_sequences(2, 4)), [(2, 4, 5)]),
    ],
    ids=["extremal-2-12", "extremal-1-4", "extremal-3-60", "iter-2-4"],
)
def test_each_call_walks_once(monkeypatch, call, walks):
    # A ceiling one above the critical length gives the same answer after
    # an extra, empty walk; only the recorded walks show it.
    seen = []

    def recording(original):
        def walk(k, length, on_leaf, t, **caps):
            seen.append((k, length, t))
            return original(k, length, on_leaf, t, **caps)

        return walk

    for module in (zsseq.search, zsseq.detect):
        monkeypatch.setattr(module, "_walk_zero_sum", recording(module._walk_zero_sum))
    call()
    assert seen == walks


def test_frobenius_avoidance_on_the_long_witness():
    s = parse_sequence("3^14,2^3,-1^48")
    assert verify_frobenius_avoidance(3, 60, s)
    assert not verify_frobenius_avoidance(3, 59, s)
    # the mirrored support {1, -(k-1), -k} is negated onto the closed form
    mirrored = parse_sequence("-3^14,-2^3,1^48")
    assert verify_frobenius_avoidance(3, 60, mirrored)
    assert not verify_frobenius_avoidance(3, 59, mirrored)


def test_frobenius_avoidance_t0_always_contained():
    assert not verify_frobenius_avoidance(3, 0, parse_sequence("3^1,-1^3"))


def test_frobenius_avoidance_preconditions():
    with pytest.raises(PreconditionError):
        verify_frobenius_avoidance(3, 10, parse_sequence("1^1,-1^1", bound=3))
    with pytest.raises(PreconditionError):
        verify_frobenius_avoidance(3, 10, parse_sequence("3^1,-1^2"))
    with pytest.raises(PreconditionError):  # mirrored support, not zero-sum
        verify_frobenius_avoidance(3, 10, parse_sequence("-3^1,1^2"))
    with pytest.raises(PreconditionError):  # zero-sum, but mixes both patterns
        verify_frobenius_avoidance(3, 10, parse_sequence("3^1,-2^1,-1^1"))
    with pytest.raises(PreconditionError):
        verify_frobenius_avoidance(0, 10, parse_sequence("0^1"))
    with pytest.raises(PreconditionError):
        verify_frobenius_avoidance(3, -1, parse_sequence("3^1,-1^3"))


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=300)
def test_frobenius_closed_form_never_disagrees_with_kernel(k, i, j, t):
    s = BoundedSequence.from_terms({k: i, k - 1: j, -1: k * i + (k - 1) * j}, k)
    assert verify_frobenius_avoidance(k, t, s) == is_t_avoiding(s, t)
    assert verify_frobenius_avoidance(k, t, negate(s)) == is_t_avoiding(s, t)


@pytest.mark.parametrize(
    "k,t,q,a,b",
    [
        (2, 7, 2, 1, 1),
        (3, 8, 3, 2, 1),
        (4, 100, 3, 2, 1),
        (4, 210, 4, 3, 1),
        (3, 24, 5, 3, 2),
    ],
)
def test_family_generator_block_choice(k, t, q, a, b):
    fam, seq = family_generator(k, t, min_length=500)
    assert (fam.q, fam.a, fam.b) == (q, a, b)
    assert fam.generator.block.terms == ((-b, a), (a, b))
    assert seq.length >= 500
    assert seq.sigma == 0
    assert is_t_avoiding(seq, t)


def test_family_generator_refuses_finite_cases():
    with pytest.raises(PreconditionError):
        family_generator(2, 6, 100)
    with pytest.raises(PreconditionError):
        family_generator(2, 7, 0)


def test_frobenius_avoidance_raises_when_kernel_and_closed_form_disagree(monkeypatch):
    s = parse_sequence("3^14,2^3,-1^48")
    monkeypatch.setattr(zsseq.search, "is_t_avoiding", lambda s, t: not is_t_avoiding(s, t))
    with pytest.raises(CrossCheckError, match="kernel and closed form disagree on t=60"):
        verify_frobenius_avoidance(3, 60, s)


def test_lemma42_search_reports_every_triple_with_a_nonnegative_margin(monkeypatch):
    monkeypatch.setattr(zsseq.search, "_lemma42_margin", lambda k, alpha, beta: 0)
    flagged = lemma42_search()
    # (k - 1) * k triples for each k in 4..6, in k, beta, alpha order.
    assert len(flagged) == 12 + 20 + 30
    assert flagged[:3] == [(4, 1, 2), (4, 2, 2), (4, 3, 2)] and flagged[-1] == (6, 6, 6)


def test_lemma42_margin_sample():
    assert _lemma42_margin(4, 1, 2) == -15


def test_lemma42_search_flags_nothing():
    assert lemma42_search() == []
