"""The benchmark still runs against this source tree and gets its answers right.

``perfbench/tests`` is not part of this suite, and the benchmark's tracer
reads table internals (``rows``, ``layers``, ``source``, ``max_length``,
``width``, ``estimate_table_bytes``, ``keep_layers``), so one short traced
run here catches a renamed or removed name before the benchmark does.  A
seed-0 run also checks its answers against the golden digest, so one
untraced ``rewrite`` run (about 2 s) pins every rewrite step of its 2,000
fixpoints.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_result(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_traced_search_run_is_correct():
    assert bench_result("search", 1)["correct"] is True


def test_untraced_rewrite_run_is_correct():
    result = bench_result("rewrite", 0)
    assert result["correct"] is True, result
