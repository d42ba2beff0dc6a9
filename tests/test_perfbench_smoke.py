"""The benchmark's traced run still works against this source tree.

``perfbench/tests`` is not part of this suite, and the benchmark's tracer
reads table internals (``rows``, ``layers``, ``source``, ``max_length``,
``width``, ``estimate_table_bytes``, ``keep_layers``), so one short traced
run here catches a renamed or removed name before the benchmark does.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_search_run_is_correct():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "0",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # The seed-0 run also checks its answers against the golden digest.
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
