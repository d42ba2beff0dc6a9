"""Tests of the benchmark itself.

Run from the repository root (about a minute):

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def z():
    return run.import_program()


def bench(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def corrupted(op: workloads.Op, mutate) -> workloads.Op:
    def run_and_mutate():
        payload = op.run()
        mutate(payload)
        return payload

    return workloads.Op(op.request, run_and_mutate, op.check)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_seed_always_generates_the_same_inputs(z, name):
    make = workloads.WORKLOADS[name]
    first = [op.request for op in make(z, 7)]
    assert first == [op.request for op in make(z, 7)]
    assert first != [op.request for op in make(z, 8)]


def test_query_mix(z):
    kinds = [(op.request[0], op.request[1]) for op in workloads.make_query(z, 1)]
    assert len(kinds) == 2000
    assert kinds.count(("check", "large")) == workloads.QUERY_LARGE
    assert kinds.count(("spectrum", "random")) == workloads.QUERY_SPECTRUM


def test_corrupted_query_answers_count_as_failed(z):
    ops = workloads.make_query(z, 3)
    containing = next(op for op in ops if op.request[0] == "check" and not op.run()["avoiding"])
    family = next(op for op in ops if op.request[1] == "family")
    spectrum = next(op for op in ops if op.request[0] == "spectrum")

    def longer_witness(p):
        p["witness"]["terms"][0]["mult"] += 1

    def no_witness(p):
        p["avoiding"] = True
        p["witness"] = None

    def claims_containing(p):
        p["avoiding"] = False

    def drops_a_length(p):
        del p["lengths"][1]

    ops = [
        containing,
        corrupted(containing, longer_witness),
        corrupted(containing, no_witness),
        corrupted(family, claims_containing),
        corrupted(spectrum, drops_a_length),
    ]
    problems = run.run_pass(ops, None).problems
    assert [p.split()[1] for p in problems] == ["1", "2", "3", "4"]


def test_corrupted_rewrite_answers_count_as_failed(z):
    ops = workloads.make_rewrite(z, 3)
    stepping = next(op for op in ops if op.run()["steps"])

    def wrong_strip(p):
        p["strip_count"] += 1

    def skipped_step(p):
        p["steps"].pop()

    ops = [stepping, corrupted(stepping, wrong_strip), corrupted(stepping, skipped_step)]
    assert len(run.run_pass(ops, None).problems) == 2


def test_corrupted_oracle_answers_count_as_failed(z):
    oracle = next(op for op in workloads.make_selftest(z, 3) if op.request[0] == "oracle")

    def one_pair_more(p):
        p["pair_counts"][-1] += 1

    def claims_disagreement(p):
        p["disagree"].append(0)

    ops = [oracle, corrupted(oracle, one_pair_more), corrupted(oracle, claims_disagreement)]
    problems = run.run_pass(ops, None).problems
    assert [p.split()[1] for p in problems] == ["1", "2"]


def test_length_sum_pairs_match_brute_force(z):
    counts = {-3: 2, 0: 1, 2: 3}
    s = z.BoundedSequence.from_terms(counts, 3)
    assert workloads.length_sum_pairs(counts) == z.brute_force_pairs(s)
    assert len(workloads.oracle_multisets(2)) == 36  # C(2 + 7, 7)


def test_times_are_scaled_by_the_host_factor():
    def passes(slowdown):
        return [
            run.Pass(False, [slowdown * t for t in (0.01, 0.02, 0.03)], [], [], [],
                     calibration=[slowdown * run.CALIBRATION_REFERENCE_S] * 4)
            for _ in range(3)
        ]

    fast = run.end_to_end(passes(1.0), 0.5, 0, 9)
    slow = run.end_to_end(passes(1.6), 0.8, 0, 9)
    assert fast["wall_s"] == pytest.approx(0.06)
    assert fast["op_p50_ms"] == pytest.approx(20)
    assert fast["setup_s"] == pytest.approx(0.5)
    assert slow == pytest.approx(fast)


def test_search_checks_reject_wrong_answers_and_caps(z):
    good = z.longest_avoiding(2, 6, 12).to_json_dict()
    assert workloads._check_longest(z, 2, 6, 12, good) is None
    for field, value in (("best_length", 6), ("stop_reason", "time-limit"), ("exhaustive", False)):
        assert workloads._check_longest(z, 2, 6, 12, {**good, field: value}) is not None
    witness = good["witnesses"][0]
    zero = {"k": 2, "terms": [{"value": 0, "mult": 1}] + witness["terms"][1:]}
    assert workloads._check_longest(z, 2, 6, 12, {**good, "witnesses": [zero]}) is not None

    extremal = z.enumerate_extremal(2, 6).to_json_dict()
    assert workloads._check_extremal(z, 2, 6, extremal) is None
    assert workloads._check_extremal(z, 2, 6, {**extremal, "sequences": extremal["sequences"][1:]})
    assert workloads._check_extremal(z, 2, 6, {**extremal, "exhaustive": False})


def test_raising_ops_failed_suites_and_changed_answers_count_as_failed():
    def boom():
        raise ValueError("boom")

    raising = workloads.Op(("x",), boom, lambda p: None)
    suites = {"ok": False, "suites": [{"name": "s", "ok": False, "failures": 1}] * 6}
    failing = workloads.Op(("y",), lambda: suites, workloads._check_selftest)
    assert len(run.run_pass([raising, failing], None).problems) == 2
    steady = workloads.Op(("z",), lambda: {"a": 1}, lambda p: None)
    assert len(run.run_pass([steady], ['{"a": 2}']).problems) == 1


def test_answer_fields_leave_out_counters():
    payload = {"best_length": 7, "nodes_explored": 134, "suites": [{"ok": True, "seconds": 0.5}]}
    assert workloads.answer_fields(payload) == {"best_length": 7, "suites": [{"ok": True}]}


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared_with_their_units(trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    doc = bench("rewrite", 2, trace)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    assert all(isinstance(m["value"], (int, float)) for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", ["rewrite", "search"])
def test_counts_repeat_exactly_for_one_seed(workload):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    exact = [m["name"] for m in declared["per_layer"] if m["unit"] in ("count", "B")]
    first, second = bench(workload, 5, 1)["metrics"], bench(workload, 5, 1)["metrics"]
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}
    key = "search.nodes" if workload == "search" else "reduction.steps"
    assert first[key]["value"] > 0 and first["detect.build_table.calls"]["value"] > 0
