"""Command-line behavior: payloads, human lines, exit codes, JSON envelope."""

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import zsseq
from zsseq import Spectrum, spectrum
from zsseq.cli import main
from zsseq.selftest import SuiteResult, run_all


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def run_json(run, *argv):
    code, out, err = run(*argv, "--json")
    return code, json.loads(out), err


def test_spectrum_json(run):
    code, doc, _ = run_json(run, "spectrum", "--seq", "2^5,-1^10")
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"] == {"length": 15, "lengths": [0, 3, 6, 9, 12, 15]}


def test_json_document_is_canonical(run):
    _, out, _ = run("constant", "--k", "2", "--t", "6", "--json")
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_constant_finite_and_infinite(run):
    code, doc, _ = run_json(run, "constant", "--k", "2", "--t", "6")
    assert code == 0 and doc["payload"]["value"] == 8
    code, doc, _ = run_json(run, "constant", "--k", "2", "--t", "7")
    assert code == 0 and doc["payload"]["value"] == "infinite"


def test_check_human_output(run):
    code, out, _ = run("check", "--seq", "1^3,-1^3", "--t", "2")
    assert code == 0
    assert out.splitlines()[0] == "avoiding: false"
    assert "witness: -1^1,1^1" in out
    code, out, _ = run("check", "--seq", "1^3,-1^3", "--t", "3")
    assert code == 0
    assert out.splitlines() == ["avoiding: true"]


def test_check_json_witness(run):
    _, doc, _ = run_json(run, "check", "--seq", "1^3,-1^3", "--t", "2")
    payload = doc["payload"]
    assert payload["avoiding"] is False
    assert payload["witness"]["terms"] == [
        {"value": -1, "mult": 1},
        {"value": 1, "mult": 1},
    ]


def test_seq_file_matches_inline(run, tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("1^2,-1^2\n")
    _, from_file, _ = run("spectrum", "--seq-file", str(path), "--json")
    _, inline, _ = run("spectrum", "--seq", "1^2,-1^2", "--json")
    assert from_file == inline


def test_missing_seq_file_is_a_domain_error(run, tmp_path):
    code, _, err = run("spectrum", "--seq-file", str(tmp_path / "absent.txt"))
    assert code == 1
    assert "error:" in err


def test_seq_file_that_is_not_utf8_is_a_domain_error(run, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff\xfe1^2,-1^2")
    code, out, err = run("check", "--seq-file", str(path), "--t", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read sequence file: 'utf-8' codec can't decode")
    code, out, err = run("check", "--seq-file", str(path), "--t", "2", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["payload"]["error"].startswith("cannot read sequence file: 'utf-8' codec")
    assert err.startswith("error: cannot read sequence file:")


def test_bound_enforcement_fails_cleanly(run):
    code, _, err = run("check", "--seq", "5^1,-5^1", "--k", "2", "--t", "2")
    assert code == 1
    assert "error:" in err


def test_oversized_number_is_a_syntax_error(run):
    code, out, err = run("check", "--seq", "1^" + "1" * 5000, "--t", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: too many digits")


def test_domain_error_exit_code_and_envelope(run):
    code, out, err = run("bounds", "--k", "2", "--t", "7", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert "error" in doc["payload"]
    assert err.startswith("error:")


# What stderr says where the exit code alone would not show which check refused the input.
USAGE_MESSAGES = {
    ("constant", "--k", "abc", "--t", "6"): "expected an integer, got 'abc'",
    ("search-longest", "--k", "2", "--t", "6", "--ceiling", "12", "--time-limit", "abc"):
        "expected a number, got 'abc'",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--t", "2"],  # no sequence given
        ["spectrum", "--seq", "1^1", "--seq-file", "x"],  # mutually exclusive
        ["search-longest", "--k", "2", "--t", "6", "--ceiling", "12", "--threads", "0"],  # no such flag
        ["constant", "--k", "0", "--t", "6"],
        ["frobenius", "--a", "3"],  # missing --b
        ["no-such-subcommand"],
        ["check", "--seq", "1^3,-1^3", "--t", "-1"],  # negative length
        ["extremal", "--k", "3", "--t", "60", "--allow-slow"],  # no such flag
        ["search-longest", "--k", "2", "--t", "6", "--ceiling", "12", "--time-limit", "-5"],
        ["search-longest", "--k", "2", "--t", "6", "--ceiling", "12", "--time-limit", "nan"],
        ["selftest", "--scale", "nan"],
        ["selftest", "--scale", "inf"],
        ["selftest", "--quick"],  # no such flag; --scale sets the trial counts
        # neither command builds a kernel table, so neither takes a memory cap
        ["strip", "--seq", "1^2,-1^2", "--alpha", "1", "--beta", "1", "--memory-limit", "5"],
        ["complete-block", "--seq", "1^2", "--alpha", "1", "--beta", "1", "--memory-limit", "5"],
        ["constant", "--k", "abc", "--t", "6"],
        ["search-longest", "--k", "2", "--t", "6", "--ceiling", "12", "--time-limit", "abc"],
        ["check", "--seq", "--t", "3"],  # a flag is not the sequence text
        # a prefix that names two options stays refused when a value is joined to it
        ["check", "--se", "-2^1", "--t", "3"],  # --seq or --seq-file
        ["selftest", "--s", "-5"],  # --seed or --scale
    ],
)
def test_usage_errors_exit_2(run, argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert USAGE_MESSAGES.get(tuple(argv), "error:") in capsys.readouterr().err



def test_node_cap_exit_3_incomplete(run):
    code, doc, _ = run_json(
        run, "search-longest", "--k", "2", "--t", "6", "--ceiling", "12", "--max-nodes", "5"
    )
    assert code == 3
    assert doc["status"] == "incomplete"
    assert doc["payload"]["stop_reason"] == "node-limit"


def test_memory_cap_exit_3(run):
    code, _, err = run(
        "check", "--seq", "3^14,2^3,-1^48", "--t", "60", "--memory-limit", "100"
    )
    assert code == 3
    assert "error:" in err


def test_memory_cap_follows_the_short_side(run):
    # t = n - 1 needs a table of height 1 (estimated at 2,516 bytes); one of
    # height t would be estimated at 533,444 bytes, far above the cap.
    code, doc, _ = run_json(
        run, "check", "--seq", "2^150,1^100,0^1,-1^200,-2^100", "--t", "550",
        "--memory-limit", "10000",
    )
    assert code == 0
    assert doc["payload"]["avoiding"] is False
    assert doc["payload"]["witness"] == {
        "k": 2,
        "terms": [
            {"value": -2, "mult": 100},
            {"value": -1, "mult": 200},
            {"value": 1, "mult": 100},
            {"value": 2, "mult": 150},
        ],
    }


def test_search_longest_human_lines(run):
    code, out, _ = run("search-longest", "--k", "2", "--t", "6", "--ceiling", "12")
    assert code == 0
    lines = out.splitlines()
    assert "best_length: 7" in lines
    assert "exhaustive: true" in lines
    assert sum(1 for line in lines if line.startswith("witness: ")) == 6


def test_search_longest_is_deterministic(run):
    first = run("search-longest", "--k", "2", "--t", "6", "--ceiling", "12", "--json")
    second = run("search-longest", "--k", "2", "--t", "6", "--ceiling", "12", "--json")
    assert first == second


def test_extremal_json(run):
    code, doc, _ = run_json(run, "extremal", "--k", "2", "--t", "6")
    assert code == 0
    payload = doc["payload"]
    assert payload["support_ok"] is False
    assert payload["exhaustive"] is True
    assert len(payload["sequences"]) == 6


def test_extremal_cap_exit_3(run):
    code, doc, _ = run_json(
        run, "extremal", "--k", "3", "--t", "60", "--max-nodes", "100"
    )
    assert code == 3
    assert doc["status"] == "incomplete"


def test_family_json(run):
    code, doc, _ = run_json(run, "family", "--k", "2", "--t", "7", "--min-length", "10")
    assert code == 0
    payload = doc["payload"]
    assert payload["family"]["q"] == 2
    assert payload["length"] >= 10
    assert payload["verified_avoiding"] is True


def test_reduce_human_lines(run):
    code, out, _ = run("reduce", "--seq", "3^1,1^4,-1^7", "--alpha", "1", "--beta", "1")
    assert code == 0
    assert out.splitlines() == [
        "steps: 1",
        "fixpoint: -1^6,1^6",
        "stripped: (empty) (blocks removed: 6)",
    ]


def test_reduce_tables_fit_the_block_multiple(run):
    # The j = 1 rewrite needs tables of height 1 (estimated at 2,412 bytes);
    # a table tall enough for every j would be estimated at 78,012 bytes
    # without the -2 and 78,180 without the 2, over the cap.
    code, out, _ = run(
        "reduce", "--seq", "2^1,-2^1,1^200,-1^200", "--alpha", "1", "--beta", "1",
        "--memory-limit", "10000",
    )
    assert code == 0
    assert out.splitlines()[:2] == ["steps: 1", "fixpoint: -1^201,1^201"]


def test_strip_human_lines(run):
    code, out, _ = run(
        "strip", "--seq", "3^2,-2^3,1^1,-1^1", "--alpha", "3", "--beta", "2"
    )
    assert code == 0
    assert out.splitlines() == ["stripped: -1^1,1^1", "count: 1"]


def test_complete_block_human_lines(run):
    code, out, _ = run("complete-block", "--seq", "1^1", "--alpha", "3", "--beta", "2")
    assert code == 0
    assert out.splitlines() == ["completed: -2^2,1^1,3^1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--seq", "-2^1,1^2", "--t", "3"],
        ["spectrum", "--seq", "-2^3,1^4,3"],
        ["davenport", "--values", "-5,3,2", "--modulus", "3"],
        ["davenport", "--val", "-5,3,2", "--modulus", "3"],
        ["davenport", "--v", "-5,3,2", "--modulus", "3"],
        ["selftest", "--se", "-5", "--scale", "0.001"],  # --seed
    ],
)
def test_a_leading_minus_sign_reads_as_the_value(run, argv):
    def answer(*args):
        # selftest reports each suite's wall time, which two runs need not share.
        code, *text = run(*args)
        return code, *(re.sub(r"time=\d+\.\d+s", "time=?", t) for t in text)

    joined = argv[:1] + [f"{argv[1]}={argv[2]}"] + argv[3:]
    expected = answer(*joined)
    assert expected[0] == 0
    assert answer(*argv) == expected


def test_davenport_json(run):
    code, doc, _ = run_json(run, "davenport", "--values", "3,1,5,7,2", "--modulus", "5")
    assert code == 0
    assert doc["payload"] == {"block": [5], "modulus": 5, "sum": 5}


def test_davenport_too_few_values(run):
    code, _, err = run("davenport", "--values", "1,2", "--modulus", "5")
    assert code == 1 and "error:" in err


def test_davenport_oversized_value_names_it_truncated(run):
    code, out, err = run("davenport", "--values", "9" * 5000 + ",1", "--modulus", "2")
    assert code == 1 and out == ""
    assert err == "error: too many digits in term 99999999999999999999...\n"


def test_davenport_rejects_a_non_integer(run):
    code, _, err = run("davenport", "--values", "1, x,2", "--modulus", "2")
    assert code == 1 and err == "error: bad term 'x'\n"


def test_frobenius_value(run):
    code, out, _ = run("frobenius", "--a", "3", "--b", "5")
    assert code == 0 and out == "value: 7\n"


def test_lemma41_margin_flag(run):
    code, out, _ = run("lemma41")
    assert code == 0 and out == "holds: true\n"
    code, out, _ = run("lemma41", "--t", "417")
    assert code == 0 and out == "holds: false\n"


def test_lemma42_empty(run):
    code, doc, _ = run_json(run, "lemma42")
    assert code == 0
    assert doc["payload"] == {"count": 0, "flagged": []}


def test_lemma42_flagged_lines(run, monkeypatch):
    monkeypatch.setattr(zsseq.search, "_lemma42_margin", lambda k, alpha, beta: 0)
    code, out, _ = run("lemma42")
    assert code == 0 and out.startswith("flagged: [[4, 1, 2], [4, 2, 2], ")
    assert out.endswith(", [6, 6, 6]]\n")
    code, doc, _ = run_json(run, "lemma42")
    assert code == 0 and doc["payload"]["count"] == 62


def test_walk_past_the_k_bound_is_a_domain_error(run):
    code, out, err = run("search-longest", "--k", "500", "--t", "6", "--ceiling", "7")
    assert code == 1 and out == ""
    assert err == "error: k must be <= 400 for an exhaustive walk, got 500\n"
    code, doc, err = run_json(run, "search-longest", "--k", "500", "--t", "6", "--ceiling", "7")
    assert code == 1 and doc["status"] == "error" and err.startswith("error: k must be <= 400")


def test_lcm_check(run):
    assert run("lcm-check", "--k", "5")[1] == "holds: true\n"
    assert run("lcm-check", "--k", "4")[1] == "holds: false\n"


def test_lambert_value(run):
    code, doc, _ = run_json(run, "lambert", "--k", "3")
    assert code == 0 and doc["payload"] == {"k": 3, "value": 5}
    assert run("lambert", "--k", "5") == (0, "value: 9\n", "")
    code, out, err = run("lambert", "--k", "401")
    assert code == 1 and out == ""
    assert err == "error: k must be <= 400 for an exhaustive walk, got 401\n"


def test_divides_json(run):
    _, doc, _ = run_json(run, "divides", "--k", "2", "--t", "6")
    assert doc["payload"]["holds"] is True and doc["payload"]["modulus"] == 6
    _, doc, _ = run_json(run, "divides", "--k", "3", "--t", "24")
    assert doc["payload"]["holds"] is False
    assert doc["payload"]["failing_prime_power"] == 5


def test_divides_renders_a_modulus_past_the_digit_limit(run):
    # lcm(2..9859) has more digits than Python renders as text by default.
    code, human, _ = run("divides", "--k", "4930", "--t", "6")
    assert code == 0
    code, out, _ = run("divides", "--k", "4930", "--t", "6", "--json")
    assert code == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        modulus = math.lcm(*range(2, 9860))
        assert json.loads(out)["payload"]["modulus"] == modulus
        assert human.splitlines()[0] == f"modulus: {modulus}"
    finally:
        sys.set_int_max_str_digits(limit)


def test_selftest_quick(run):
    code, doc, err = run_json(run, "selftest", "--scale", "0.05", "--seed", "7")
    assert code == 0
    payload = doc["payload"]
    assert payload["ok"] is True
    assert len(payload["suites"]) == 6
    assert err.count("[ok]") == 6


def test_suite_result_json_rounds_seconds_and_reports_ok():
    assert SuiteResult("x", 3, 1, 1.23456, "d").to_json_dict() == {
        "name": "x",
        "trials": 3,
        "failures": 1,
        "seconds": 1.235,
        "ok": False,
        "detail": "d",
    }


def test_selftest_reports_a_failing_suite(run, monkeypatch):
    # A kernel that drops the full length from every spectrum breaks the
    # endpoint check of spectrum_symmetry on every trial.
    def broken(s):
        return Spectrum(spectrum(s).lengths - {s.length})

    monkeypatch.setattr("zsseq.selftest.spectrum", broken)
    results = {r.name: r for r in run_all(scale=0.01)}
    failed = results["spectrum_symmetry"]
    assert failed.failures > 0 and not failed.ok
    assert failed.detail.startswith("trial ")
    code, doc, err = run_json(run, "selftest", "--scale", "0.01")
    assert code == 1
    assert doc["status"] == "error" and doc["payload"]["ok"] is False
    assert "[FAIL] spectrum_symmetry" in err


def test_bounds_bracket_the_finite_constant(run):
    code, doc, _ = run_json(run, "bounds", "--k", "4", "--t", "420")
    assert code == 0
    assert doc["payload"] == {"k": 4, "t": 420, "lower": 432, "upper": 450}
    code, _, err = run("bounds", "--k", "3", "--t", "24")
    assert code == 1 and err.startswith("error:")


def test_search_progress_lines(run):
    # The walk at 438 alone runs past the cap, so one line is printed.
    argv = ["--k", "4", "--t", "420", "--ceiling", "438", "--max-nodes", "70000", "--progress"]
    code, _, err = run("search-longest", *argv)
    assert code == 3
    assert err == "nodes=65536 best=-1\n"


def test_time_limit_not_reached_changes_nothing(run):
    argv = ["search-longest", "--k", "2", "--t", "6", "--ceiling", "12", "--json"]
    assert run(*argv, "--time-limit", "60") == run(*argv)


# Exit code and sha256 of the --json stdout for a fixed set of inputs;
# any change to an answer, its field order or its exit code shows up here,
# and so does a change to ``nodes_explored`` in cases 0-4.  Case 4's cap
# stops the 232-node k=3, t=60 walk after the leaf solve that builds its
# 10 sequences, so it pins an incomplete payload.
GOLDEN_JSON = [
    (["search-longest", "--k", "2", "--t", "6", "--ceiling", "12"], 0,
     "2e5ad71ddae76b284fa5f07f76fb0665f424738293ee48d23b09f1bfa0118f27"),
    (["search-longest", "--k", "3", "--t", "8", "--ceiling", "16"], 0,
     "8ba89ca37ede37c5f21a35a6448773a34c0d0ce270d46ff8cacc5b4feb156e3d"),
    (["search-longest", "--k", "2", "--t", "6", "--ceiling", "12", "--max-nodes", "5"], 3,
     "2025383fe8f90a5bfa8479b873706eb3484d737cad8c87fd53e0bba531dd55bc"),
    (["extremal", "--k", "2", "--t", "12"], 0,
     "be1b40b1bd4cd7103531d8ba65aee0be47edaa254311cf822b64607464477ed1"),
    (["extremal", "--k", "3", "--t", "60", "--max-nodes", "200"], 3,
     "891d1772a4573402b21e3a88e198b4d98631992f21cb1be48e2458f8c5c70b23"),
    (["check", "--seq", "2^2,1^3,-1^5,-2^1", "--t", "4"], 0,
     "7c2823b84732c37d582765fd65adce09179d87ff6eab89c89e203b2e2f065370"),
    (["check", "--seq", "1^3,-1^3", "--t", "3"], 0,
     "ea5188627c5b68c86fefbb710ad7768b17a9acacf525c6f63e7fc00cdcda6ce9"),
    (["spectrum", "--seq", "3^2,2^1,-1^4,-2^2"], 0,
     "c766098e151acc800d2ca5aea1946a1b2f193641c506f67345d13f8ccf344acb"),
    (["reduce", "--seq", "3^2,2^3,1^1,-1^6,-2^4", "--alpha", "2", "--beta", "1"], 0,
     "81e7939fff4886fd2bbfb4f4c2e8fd4dedb8ba0d2324155b96765bf4f178a467"),
    (["family", "--k", "3", "--t", "10", "--min-length", "20"], 0,
     "0c2e9704f3e1dc87418556f861eafb5bde8fdd314a82a61e4b477da1846c166d"),
    (["divides", "--k", "3", "--t", "10"], 0,
     "96b71b91a59adda964ae4cd518713b2f1c8fb155a7221f76deae0eb33cc15804"),
    (["divides", "--k", "2", "--t", "6"], 0,
     "0bba0a245fdc91171ed0514628660190cff5e81a6cce8c96abc6505843521491"),
]


@pytest.mark.parametrize(
    "argv,code,digest", GOLDEN_JSON, ids=[f"{i}-{case[0][0]}" for i, case in enumerate(GOLDEN_JSON)]
)
def test_golden_json_output(run, argv, code, digest):
    got_code, out, _ = run(*argv, "--json")
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("zsseq ")


@pytest.mark.skipif(
    shutil.which("zsseq") is None,
    reason="no `zsseq` console script on PATH; install the package with "
    "`pip install -e . --no-build-isolation`",
)
def test_console_script_installed():
    exe = shutil.which("zsseq")
    assert exe is not None
    proc = subprocess.run(
        [exe, "constant", "--k", "2", "--t", "6", "--json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["value"] == 8


def test_cli_module_entry_exit_codes(tmp_path):
    # ``python -m zsseq.cli`` runs ``entry``, the console-script target,
    # so this covers it without an installed package.
    src = Path(zsseq.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "zsseq.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )

    proc = run_module("constant", "--k", "2", "--t", "6", "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["value"] == 8
    proc = run_module("spectrum", "--seq-file", str(tmp_path / "absent.txt"))
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_closed_stdout_exits_quietly():
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("no way to shrink a pipe here")
    # The answer is about 6.6 kB; a one-page pipe makes the writer wait
    # for the reader, which takes one line and closes its end.
    src = Path(zsseq.__file__).resolve().parent.parent
    argv = ["search-longest", "--k", "3", "--t", "7", "--ceiling", "40", "--max-witnesses", "100000"]
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "zsseq.cli", *argv],
        stdout=write_end,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    os.close(write_end)
    with open(read_end, "rb", buffering=0) as reader:
        assert reader.readline() == b"best_length: 40\n"
    _, err = proc.communicate(timeout=60)
    assert b"Traceback" not in err
    assert proc.returncode == 141
