"""zsseq benchmark: run one workload in this process and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload query --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` and driven in-process through its
public functions, one closed-loop client, one request at a time.  Each
request returns the payload the command-line front end would print and is
rendered the same way (``json.dumps(..., sort_keys=True)``).  Set-up
(import plus input generation) is repeated and timed; then whole passes
over the workload's requests run until ``--seconds`` is spent, at least
two.  The first pass checks every answer; later passes must reproduce the
first pass's answers exactly.

Between requests, a fixed pure-Python calibration task is timed too, and
every end-to-end time is scaled by how much faster or slower that task ran
in the same pass than on the reference host (see ``calibration_work``), so
that the speed of a shared host, which drifts by tens of per cent over
minutes, cancels out.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics, taken from the traced passes.  Metric names and units
are those declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

PACKAGE = "zsseq"
SETUP_REPEATS = 9
#: Fewest untraced passes a run makes, however long one pass takes.
MIN_PASSES = 2
GOLDEN = HERE / "golden.json"
#: A calibration sample is taken after a request once this long has passed
#: since the previous one.
CALIBRATE_EVERY_S = 0.025
#: About the mean time of ``calibration_work`` on the reference host (2-vCPU
#: Xeon virtual machine, Python 3.11.7).  End-to-end times are reported in
#: seconds of that host: measured time * CALIBRATION_REFERENCE_S / the mean
#: calibration time of the same pass.
CALIBRATION_REFERENCE_S = 0.00130

#: Modules of the package whose public functions are traced, plus methods.
LAYERS = ("sequences", "detect", "search", "reduction", "selftest", "constants")
METHODS = {"detect.LengthSumTable": ("witness", "achievable_pairs")}
SUITES = (
    "sign_ratio_bounds",
    "spectrum_symmetry",
    "dp_vs_bruteforce",
    "davenport_blocks",
    "reduce_fixpoint_audit",
    "foreign_bound_at_fixpoint",
)


def import_program():
    """Import the package from ``src/`` afresh; returns the package module."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    z = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".selftest")
    if Path(z.__file__).resolve().parent != src / PACKAGE:
        raise ImportError(f"{PACKAGE} came from {z.__file__}, not from {src}")
    return z


def render(payload: dict) -> str:
    return json.dumps({"payload": payload, "status": "ok"}, sort_keys=True)


@dataclass
class Pass:
    traced: bool
    latencies: list[float]
    answers: list[str | None]
    problems: list[str]
    suites: list
    layers: dict[str, float] | None = None
    rss_mb: float = 0.0
    #: Times of the calibration samples taken during the pass, in order.
    calibration: list[float] = field(default_factory=list)


_MASK = (1 << 240) - 1


def calibration_work() -> int:
    """A fixed task of about a millisecond, independent of zsseq.

    It mixes what the program spends its time on: small-int arithmetic,
    dict stores, wide-int shifts and ors (the kernel's bitset rows) and
    function calls.
    """
    d = {}
    x = 1
    for i in range(4000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        d[x & 1023] = x
    rows = [1]

    def step(row, shift):
        return (row | row << shift) & _MASK

    for i in range(800):
        row = step(rows[-1], 1 + i % 7) ^ i << 100
        rows.append(row)
        d[(i % 97, row & 255)] = i
    return len(d)


def run_pass(ops, reference: list | None, render_fn=render) -> Pass:
    """Run every op once; check each answer (first pass) or compare it with ``reference``.

    ``calibration_work`` is timed before the first op and then between
    ops, at most every CALIBRATE_EVERY_S.
    """
    clock = time.perf_counter
    latencies, answers, problems, calibration = [], [], [], []
    last_sample = -CALIBRATE_EVERY_S
    for i, op in enumerate(ops):
        if clock() - last_sample >= CALIBRATE_EVERY_S:
            began = clock()
            calibration_work()
            last_sample = clock()
            calibration.append(last_sample - began)
        start = clock()
        try:
            payload = op.run()
            render_fn(payload)
        except Exception as exc:  # a raising op counts as failed; the run goes on
            latencies.append(clock() - start)
            answers.append(None)
            problems.append(f"op {i} {op.request!r:.100}: raised {exc!r}")
            continue
        latencies.append(clock() - start)
        answer = json.dumps(workloads.answer_fields(payload), sort_keys=True)
        answers.append(answer)
        if reference is None:
            try:
                problem = op.check(payload)
            except Exception as exc:  # a check that raises is a failed check
                problem = f"check raised {exc!r}"
        else:
            problem = None if answer == reference[i] else "answer differs from the first pass"
        if problem:
            problems.append(f"op {i} {op.request!r:.100}: {problem}")
    suites = [result for op in ops for result in op.suites]
    return Pass(False, latencies, answers, problems, suites, calibration=calibration)


def make_tracer(z) -> Tracer:
    estimate = z.detect.estimate_table_bytes

    def build_table(tr, parent, args, kwargs, table):
        tr.counters["cells"] += (table.max_length + 1) * table.width
        if parent == "reduction.reduce_step":
            tr.counters["step_tables"] += 1
        # The same estimate build_table checks against its memory cap.
        est = estimate(table.source, table.max_length)
        if not kwargs.get("keep_layers", args[3] if len(args) > 3 else True):
            est = 2 * est // (len(table.source.terms) + 1)
        if est >= tr.counters["est_bytes_max"]:
            tr.counters["est_bytes_max"] = est
            tr.counters["actual_bytes_max"] = table_bytes(table)

    def find_zero_sum(tr, parent, args, kwargs, witness):
        if witness is None:
            tr.counters["avoiding"] += 1

    def longest(tr, parent, args, kwargs, result):
        tr.counters["nodes"] += result.nodes_explored

    def fixpoint(tr, parent, args, kwargs, trace):
        tr.counters["steps"] += len(trace.steps)

    return Tracer(
        {
            "detect.build_table": build_table,
            "detect.find_zero_sum_of_length": find_zero_sum,
            "search.longest_avoiding": longest,
            "reduction.reduce_fixpoint": fixpoint,
        }
    )


def table_bytes(table) -> int:
    """Bytes held by a table's row tuples and the distinct ints in them."""
    total = 0
    seen = set()
    for rows in (table.rows, *(layer.rows for layer in table.layers)):
        total += sys.getsizeof(rows)
        for row in rows:
            if id(row) not in seen:
                seen.add(id(row))
                total += sys.getsizeof(row)
    return total


def layer_metrics(tr: Tracer) -> dict[str, float]:
    def ratio(a, b):
        return a / b if b else 0.0

    def self_of(prefix):
        return sum((v for name, v in tr.self_time.items() if name.startswith(prefix + ".")), 0.0)

    c, calls, total, own = tr.counters, tr.calls, tr.total, tr.self_time
    longest = total["search.longest_avoiding"]
    return {
        "search.self_s": self_of("search"),
        "search.nodes": c["nodes"],
        "search.nodes_per_s": ratio(c["nodes"], longest),
        "search.longest_avoiding.s": longest,
        "search.enumerate_extremal.s": total["search.enumerate_extremal"],
        "detect.build_table.calls": calls["detect.build_table"],
        "detect.build_table.self_s": own["detect.build_table"],
        "detect.build_table.cells": c["cells"],
        "detect.table.est_bytes_max": c["est_bytes_max"],
        "detect.table.actual_bytes_max": c["actual_bytes_max"],
        "detect.witness.calls": calls["detect.witness"],
        "detect.witness.self_s": own["detect.witness"],
        "detect.avoiding_frac": ratio(c["avoiding"], calls["detect.find_zero_sum_of_length"]),
        "detect.brute_force_pairs.calls": calls["detect.brute_force_pairs"],
        "detect.brute_force_pairs.self_s": own["detect.brute_force_pairs"],
        "detect.achievable_pairs.s": total["detect.achievable_pairs"],
        "reduction.reduce_fixpoint.s": total["reduction.reduce_fixpoint"],
        "reduction.reduce_step.calls": calls["reduction.reduce_step"],
        "reduction.steps": c["steps"],
        "reduction.self_s": self_of("reduction"),
        "reduction.tables_per_step": ratio(c["step_tables"], calls["reduction.reduce_step"]),
        "sequences.parse_sequence.s": total["sequences.parse_sequence"],
        "sequences.ops.s": sum(own[f"sequences.{n}"] for n in ("concat", "remove", "repeat")),
        "constants.calls": sum(n for name, n in calls.items() if name.startswith("constants.")),
        "cli.render.s": total["cli.render"],
    }


def setup(workload: str, seed: int):
    """Import the program and generate the workload's requests."""
    z = import_program()
    return z, workloads.WORKLOADS[workload](z, seed)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[Pass], list[float]]:
    """Passes until ``seconds`` are spent, and the set-up times.

    Set-up runs again before each of the first SETUP_REPEATS passes (and
    after the last pass, if fewer), so its repeats sample the whole run
    instead of its first instant.  With
    ``trace``, untraced and traced passes alternate.  An untraced run makes
    at least MIN_PASSES passes, a traced run at least one of each kind.
    """
    modes = (False, True) if trace else (False,)
    min_passes = len(modes) if trace else MIN_PASSES
    passes: list[Pass] = []
    setups: list[float] = []
    reference = None
    start = time.perf_counter()
    while True:
        if len(setups) < SETUP_REPEATS:
            began = time.perf_counter()
            z, ops = setup(workload, seed)
            setups.append(time.perf_counter() - began)
        began = time.perf_counter()
        if modes[len(passes) % len(modes)]:
            tracer = make_tracer(z)
            tracer.install(PACKAGE, LAYERS, METHODS)
            try:
                result = run_pass(ops, reference, tracer.wrap("cli.render", render))
            finally:
                tracer.uninstall()
            result.traced = True
            result.layers = layer_metrics(tracer)
        else:
            result = run_pass(ops, reference)
        passes.append(result)
        if reference is None:
            reference = result.answers
            # Later passes repeat the same work, so the first one sets the peak.
            result.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        now = time.perf_counter()
        if len(passes) >= min_passes and now - start + (now - began) > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        began = time.perf_counter()
        setup(workload, seed)
        setups.append(time.perf_counter() - began)
    return passes, setups


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def fastest(passes: list[Pass]) -> Pass:
    return min(passes, key=lambda p: sum(p.latencies))


# Other tenants of a shared host slow it by tens of per cent, in episodes
# from seconds to minutes.  So every untraced pass is scaled by its host
# factor: CALIBRATION_REFERENCE_S over the mean calibration time sampled
# in that pass, between its own requests.  Scaled passes then agree within
# a few per cent however fast the host ran them; the metrics take the
# median over passes (see README.md).


def host_factors(passes: list[Pass]) -> list[float]:
    """Each untraced pass's host factor: above 1 where the host ran faster than the reference."""
    return [
        CALIBRATION_REFERENCE_S / statistics.fmean(p.calibration) for p in passes if not p.traced
    ]


def end_to_end(passes: list[Pass], setup_s: float, failed: int, attempted: int) -> dict[str, float]:
    """End-to-end metrics, times in seconds of the reference host.

    A request's latency is the median over passes of its scaled latency.
    """
    untraced = [p for p in passes if not p.traced]
    factors = host_factors(passes)
    scaled = [[f * t for t in p.latencies] for f, p in zip(factors, untraced)]
    latencies = [statistics.median(repeats) for repeats in zip(*scaled)]
    return {
        "setup_s": statistics.median(factors) * setup_s,
        "wall_s": statistics.median(sum(pass_) for pass_ in scaled),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p99_ms": 1000 * percentile(latencies, 99),
        "ok_frac": 1 - failed / attempted,
        "peak_rss_mb": passes[0].rss_mb,
    }


def per_layer(passes: list[Pass]) -> dict[str, float]:
    """Layer metrics of the fastest traced pass; suite metrics of the fastest untraced one."""
    untraced = fastest([p for p in passes if not p.traced])
    traced = fastest([p for p in passes if p.traced])
    metrics = dict(traced.layers)
    for suite in SUITES:
        results = [r for r in untraced.suites if r.name == suite]
        metrics[f"selftest.{suite}.s"] = sum((r.seconds for r in results), 0.0)
        metrics[f"selftest.{suite}.trials"] = sum(r.trials for r in results)
    metrics["trace.overhead_frac"] = sum(traced.latencies) / sum(untraced.latencies) - 1
    return metrics


def golden_problem(workload: str, seed: int, digest: str) -> str | None:
    """A mismatch with the recorded answers digest, for the seed it was recorded with."""
    golden = json.loads(GOLDEN.read_text())
    expected = golden["sha256"].get(workload)
    if seed == golden["seed"] and expected != digest:
        return f"answers sha256 {digest} != golden {expected} for seed {seed}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        passes, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    problems = [problem for p in passes for problem in p.problems]
    attempted = sum(len(p.latencies) for p in passes)
    failed = len(problems)
    digest = hashlib.sha256("\n".join(map(str, passes[0].answers)).encode()).hexdigest()
    problem = golden_problem(args.workload, args.seed, digest)
    if problem:
        problems.append(problem)
    for problem in problems[:5]:
        print(f"FAILED {problem}", file=sys.stderr)

    if args.trace:
        values = per_layer(passes)
        section = "per_layer"
    else:
        values = end_to_end(passes, statistics.median(setups), failed, attempted)
        section = "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    untraced = sum(not p.traced for p in passes)
    ops = len(passes[0].latencies)
    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={untraced}+{len(passes) - untraced}traced requests={ops} "
        f"answers_sha256={digest} host_factor={statistics.median(host_factors(passes)):.4f} "
        f"python={platform.python_version()} host={platform.node()} nproc={os.cpu_count()}"
    )
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
