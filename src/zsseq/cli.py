"""Command-line front end.

One subcommand per library operation, each a thin wrapper: parse flags,
call the library, render the result.  ``--json`` switches stdout to a
single machine-readable document ``{"status": ..., "payload": ...}`` with
sorted keys; progress and error diagnostics always go to stderr.

Exit status: 0 success, 1 domain error (bad values, impossible request),
2 usage error (bad flags; argparse's own exit), 3 resource cap hit with
an incomplete result, 141 (128 + SIGPIPE) stdout closed before all
output was written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .constants import (
    davenport_subset,
    divisibility_condition,
    frobenius_number,
    lcm_growth_check,
    lemma41_margin_check,
    minimal_zero_sum_max_length,
    s_prime_t,
    theorem11_bounds,
)
from .detect import DEFAULT_MEMORY_LIMIT, find_zero_sum_of_length, spectrum
from .errors import PreconditionError, ResourceLimitError, ZsseqError
from .reduction import build_block, complete_block, reduce_fixpoint, strip_blocks
from .search import enumerate_extremal, family_generator, lemma42_search, longest_avoiding
from .selftest import run_all
from .sequences import BoundedSequence, format_sequence, parse_integers, parse_sequence


#: The JSON envelope's status for each exit code a command returns.
_STATUS = {0: "ok", 1: "error", 3: "incomplete"}


@dataclass
class _Envelope:
    payload: dict
    human: list[str] = field(default_factory=list)
    code: int = 0


@contextmanager
def _exact_ints():
    """Lift Python's cap on the digits of an int rendered as text; input parsing keeps it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _show(s: BoundedSequence) -> str:
    return format_sequence(s) or "(empty)"


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _positive_int(text: str, minimum: int = 1) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < minimum:
        raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    return _positive_int(text, minimum=0)


def _finite_float(text: str, positive: bool = False) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(value) or value < 0 or (positive and value == 0):
        bound = "> 0" if positive else ">= 0"
        raise argparse.ArgumentTypeError(f"expected a finite number {bound}, got {text}")
    return value


def _positive_float(text: str) -> float:
    return _finite_float(text, positive=True)


def _load_sequence(args: argparse.Namespace) -> BoundedSequence:
    if args.seq_file is not None:
        try:
            text = Path(args.seq_file).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise PreconditionError(f"cannot read sequence file: {exc}")
    else:
        text = args.seq
    return parse_sequence(text, bound=args.k)


# -- handlers ------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> _Envelope:
    s = _load_sequence(args)
    witness = find_zero_sum_of_length(s, args.t, memory_limit=args.memory_limit)
    avoiding = witness is None
    payload = {
        "t": args.t,
        "avoiding": avoiding,
        "witness": None if avoiding else witness.subsequence.to_json_dict(),
    }
    human = [f"avoiding: {_flag(avoiding)}"]
    if not avoiding:
        human.append(f"witness: {_show(witness.subsequence)}")
    return _Envelope(payload, human)


def _cmd_spectrum(args: argparse.Namespace) -> _Envelope:
    s = _load_sequence(args)
    lengths = spectrum(s, memory_limit=args.memory_limit).as_sorted_list()
    payload = {"length": s.length, "lengths": lengths}
    return _Envelope(payload, [f"length: {s.length}", "lengths: " + ",".join(map(str, lengths))])


def _cmd_constant(args: argparse.Namespace) -> _Envelope:
    value = s_prime_t(args.k, args.t)
    payload = {"k": args.k, "t": args.t, "value": value.to_json_value()}
    return _Envelope(payload, [f"value: {value}"])


def _cmd_bounds(args: argparse.Namespace) -> _Envelope:
    lower, upper = theorem11_bounds(args.k, args.t)
    payload = {"k": args.k, "t": args.t, "lower": lower, "upper": upper}
    return _Envelope(payload, [f"lower: {lower}", f"upper: {upper}"])


def _cmd_divides(args: argparse.Namespace) -> _Envelope:
    report = divisibility_condition(args.k, args.t)
    with _exact_ints():  # lcm(2..2k-1) has more than 4,300 digits from k = 4930
        human = [f"modulus: {report.modulus}", f"holds: {_flag(report.holds)}"]
    if not report.holds:
        human.append(f"failing prime power: {report.failing_prime_power}")
    return _Envelope(report.to_json_dict(), human)


def _cmd_search_longest(args: argparse.Namespace) -> _Envelope:
    progress = None
    if args.progress:
        def progress(nodes: int, best: int) -> None:
            print(f"nodes={nodes} best={best}", file=sys.stderr, flush=True)

    result = longest_avoiding(
        args.k,
        args.t,
        args.ceiling,
        max_nodes=args.max_nodes,
        time_limit=args.time_limit,
        max_witnesses=args.max_witnesses,
        progress=progress,
    )
    human = [
        f"best_length: {result.best_length}",
        f"exhaustive: {_flag(result.exhaustive)}",
        f"nodes_explored: {result.nodes_explored}",
    ]
    human += [f"witness: {_show(w)}" for w in result.witnesses]
    return _Envelope(result.to_json_dict(), human, code=0 if result.stop_reason is None else 3)


def _cmd_extremal(args: argparse.Namespace) -> _Envelope:
    report = enumerate_extremal(
        args.k, args.t, max_nodes=args.max_nodes, time_limit=args.time_limit
    )
    human = [
        f"count: {len(report.sequences)}",
        f"support_ok: {_flag(report.support_ok)}",
        f"exhaustive: {_flag(report.exhaustive)}",
        f"nodes_explored: {report.nodes_explored}",
    ]
    human += [f"sequence: {_show(s)}" for s in report.sequences]
    return _Envelope(report.to_json_dict(), human, code=0 if report.exhaustive else 3)


def _cmd_family(args: argparse.Namespace) -> _Envelope:
    fam, seq = family_generator(args.k, args.t, args.min_length)
    payload = {
        "family": fam.to_json_dict(),
        "sequence": seq.to_json_dict(),
        "length": seq.length,
        "verified_avoiding": True,
    }
    human = [
        f"q: {fam.q} (block {_show(fam.generator.block)})",
        f"length: {seq.length}",
        f"sequence: {_show(seq)}",
        "verified avoiding: true",
    ]
    return _Envelope(payload, human)


def _cmd_reduce(args: argparse.Namespace) -> _Envelope:
    s = _load_sequence(args)
    x = build_block(args.alpha, args.beta)
    trace = reduce_fixpoint(s, x, memory_limit=args.memory_limit)
    human = [
        f"steps: {len(trace.steps)}",
        f"fixpoint: {_show(trace.fixpoint)}",
        f"stripped: {_show(trace.stripped)} (blocks removed: {trace.strip_count})",
    ]
    return _Envelope(trace.to_json_dict(), human)


def _cmd_strip(args: argparse.Namespace) -> _Envelope:
    s = _load_sequence(args)
    x = build_block(args.alpha, args.beta)
    stripped, count = strip_blocks(s, x)
    payload = {"stripped": stripped.to_json_dict(), "count": count}
    return _Envelope(payload, [f"stripped: {_show(stripped)}", f"count: {count}"])


def _cmd_complete_block(args: argparse.Namespace) -> _Envelope:
    s = _load_sequence(args)
    x = build_block(args.alpha, args.beta)
    completed = complete_block(s, x)
    payload = {"completed": completed.to_json_dict(), "length": completed.length}
    return _Envelope(payload, [f"completed: {_show(completed)}"])


def _cmd_davenport(args: argparse.Namespace) -> _Envelope:
    block = davenport_subset(parse_integers(args.values), args.modulus)
    payload = {"modulus": args.modulus, "block": block, "sum": sum(block)}
    return _Envelope(payload, ["block: " + ",".join(map(str, block))])


def _cmd_frobenius(args: argparse.Namespace) -> _Envelope:
    value = frobenius_number(args.a, args.b)
    return _Envelope({"a": args.a, "b": args.b, "value": value}, [f"value: {value}"])


def _cmd_lemma41(args: argparse.Namespace) -> _Envelope:
    holds = lemma41_margin_check(args.t, args.n)
    return _Envelope({"t": args.t, "n": args.n, "holds": holds}, [f"holds: {_flag(holds)}"])


def _cmd_lemma42(args: argparse.Namespace) -> _Envelope:
    flagged = [list(triple) for triple in lemma42_search()]
    human = ["flagged: none"] if not flagged else [f"flagged: {flagged}"]
    return _Envelope({"flagged": flagged, "count": len(flagged)}, human)


def _cmd_lcm_check(args: argparse.Namespace) -> _Envelope:
    holds = lcm_growth_check(args.k)
    return _Envelope({"k": args.k, "holds": holds}, [f"holds: {_flag(holds)}"])


def _cmd_lambert(args: argparse.Namespace) -> _Envelope:
    value = minimal_zero_sum_max_length(args.k)
    return _Envelope({"k": args.k, "value": value}, [f"value: {value}"])


def _cmd_selftest(args: argparse.Namespace) -> _Envelope:
    def on_suite(result) -> None:
        mark = "ok" if result.ok else "FAIL"
        print(
            f"[{mark}] {result.name}: trials={result.trials} "
            f"failures={result.failures} time={result.seconds:.2f}s",
            file=sys.stderr,
            flush=True,
        )

    results = run_all(seed=args.seed, scale=args.scale, on_suite=on_suite)
    ok = all(r.ok for r in results)
    payload = {"ok": ok, "suites": [r.to_json_dict() for r in results]}
    human = [
        f"{r.name}: {'ok' if r.ok else 'FAIL'} ({r.trials} trials)" for r in results
    ]
    human.append("all suites passed" if ok else "some suites FAILED")
    return _Envelope(payload, human, code=0 if ok else 1)


# -- parser --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON document on stdout")

    seq_common = argparse.ArgumentParser(add_help=False)
    group = seq_common.add_mutually_exclusive_group(required=True)
    group.add_argument("--seq", help="sequence text, e.g. '2^1,1^2,-1^4'")
    group.add_argument("--seq-file", help="file containing the sequence text")
    seq_common.add_argument("--k", type=_positive_int, help="enforce this element bound")

    memory_common = argparse.ArgumentParser(add_help=False)
    memory_common.add_argument(
        "--memory-limit",
        type=_positive_int,
        default=DEFAULT_MEMORY_LIMIT,
        help="refuse a kernel table whose build is estimated to hold more than this many bytes",
    )

    block_common = argparse.ArgumentParser(add_help=False)
    block_common.add_argument("--alpha", type=_positive_int, required=True)
    block_common.add_argument("--beta", type=_positive_int, required=True)

    kt_common = argparse.ArgumentParser(add_help=False)
    kt_common.add_argument("--k", type=_positive_int, required=True)
    kt_common.add_argument("--t", type=_positive_int, required=True)

    caps_common = argparse.ArgumentParser(add_help=False)
    caps_common.add_argument(
        "--max-nodes",
        type=_positive_int,
        default=None,
        help="stop after this many walk nodes; the sequences a leaf builds are not counted",
    )
    caps_common.add_argument(
        "--time-limit",
        type=_finite_float,
        default=None,
        help="stop after this many seconds: the walk, its leaves, and the re-check of each found",
    )

    parser = argparse.ArgumentParser(
        prog="zsseq",
        description="Analyze zero-sum integer sequences with bounded elements.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    def add(name: str, handler, help_text: str, parents: list) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common] + parents, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("check", _cmd_check, "test a sequence for zero-sum subsequences of one length", [seq_common, memory_common])
    p.add_argument("--t", type=_non_negative_int, required=True, help="target subsequence length")

    add("spectrum", _cmd_spectrum, "all zero-sum subsequence lengths of a sequence", [seq_common, memory_common])

    add("constant", _cmd_constant, "the avoidance constant for (k, t)", [kt_common])
    add("bounds", _cmd_bounds, "lower/upper bracket for the finite constant", [kt_common])
    add("divides", _cmd_divides, "finiteness test: does lcm(2..max(2,2k-1)) divide t", [kt_common])

    p = add("search-longest", _cmd_search_longest, "longest avoiding sequence up to a ceiling", [kt_common, caps_common])
    p.add_argument("--ceiling", type=_positive_int, required=True)
    p.add_argument("--max-witnesses", type=_positive_int, default=64)
    p.add_argument("--progress", action="store_true", help="progress lines on stderr")

    add("extremal", _cmd_extremal, "all avoiding sequences of the critical length", [kt_common, caps_common])

    p = add("family", _cmd_family, "arbitrarily long avoiding sequences (infinite case)", [kt_common])
    p.add_argument("--min-length", type=_positive_int, required=True)

    add("reduce", _cmd_reduce, "rewrite toward block form and strip whole blocks", [seq_common, memory_common, block_common])
    add("strip", _cmd_strip, "remove whole blocks only", [seq_common, block_common])
    add("complete-block", _cmd_complete_block, "pad a sequence to zero-sum with block values", [seq_common, block_common])

    p = add("davenport", _cmd_davenport, "consecutive block summing to 0 mod N", [])
    p.add_argument("--values", required=True, help="comma-separated integers")
    p.add_argument("--modulus", type=_positive_int, required=True)

    p = add("frobenius", _cmd_frobenius, "largest integer not a non-negative combination", [])
    p.add_argument("--a", type=_positive_int, required=True)
    p.add_argument("--b", type=_positive_int, required=True)

    p = add("lemma41", _cmd_lemma41, "exact rational margin check (defaults t=420, n=29)", [])
    p.add_argument("--t", type=_positive_int, default=420)
    p.add_argument("--n", type=_positive_int, default=29)

    add("lemma42", _cmd_lemma42, "exhaustive capped-configuration audit for k in 4..6", [])

    p = add("lcm-check", _cmd_lcm_check, "exact check that lcm(2..2k-1) >= 4k^4", [])
    p.add_argument("--k", type=_positive_int, required=True)

    p = add("lambert", _cmd_lambert, "max length of a minimal zero-sum sequence", [])
    p.add_argument("--k", type=_positive_int, required=True)

    p = add("selftest", _cmd_selftest, "run the randomized property suites", [])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=_positive_float, default=1.0, help="trial-count multiplier")

    return parser


def main(argv: list[str] | None = None) -> int:
    # argparse takes "-2^1,1^2" for a flag, as it is no plain negative
    # number; bind such a value to the option before it, named in full or
    # by a prefix, and let argparse resolve or refuse the prefix.
    tokens: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        option = tokens[-1] if tokens else ""
        if (
            len(option) > 2
            and ("--seq".startswith(option) or "--values".startswith(option))
            and re.match(r"-\d", token)
        ):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    args = _build_parser().parse_args(tokens)
    try:
        envelope = args.handler(args)
    except ResourceLimitError as exc:
        return _emit_failure(args, str(exc), 3)
    except ZsseqError as exc:
        return _emit_failure(args, str(exc), 1)
    with _exact_ints():
        if args.json:
            doc = {"status": _STATUS[envelope.code], "payload": envelope.payload}
            print(json.dumps(doc, sort_keys=True))
        else:
            for line in envelope.human:
                print(line)
    return envelope.code


def _emit_failure(args: argparse.Namespace, message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    if args.json:
        print(json.dumps({"status": _STATUS[code], "payload": {"error": message}}, sort_keys=True))
    return code


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early; skip the flush at exit, which would fail again
        os._exit(141)
    sys.exit(code)


if __name__ == "__main__":
    entry()
