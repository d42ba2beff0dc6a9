"""A broken invariant turns its selftest suite red, with the suite's own detail.

Each case replaces one name that a suite reads in ``zsseq.selftest`` with a
version that breaks the property the suite checks, runs the suite at a small
scale, and reads the failure it reports.
"""

from dataclasses import replace

import pytest

from zsseq import BoundedSequence, Spectrum, selftest
from zsseq.cli import main

real_concat = selftest.concat
real_pairs = selftest.brute_force_pairs
real_fixpoint = selftest.reduce_fixpoint
real_spectrum = selftest.spectrum


def fixpoint_with(change):
    """``reduce_fixpoint`` whose trace passes through ``change(trace, x)``."""
    return lambda s, x: change(real_fixpoint(s, x), x)


def steps_with(**fields):
    """``reduce_fixpoint`` whose every step has ``fields`` computed from the step."""
    return fixpoint_with(
        lambda trace, x: replace(
            trace,
            steps=tuple(
                replace(st, **{name: make(st) for name, make in fields.items()})
                for st in trace.steps
            ),
        )
    )


BROKEN = [
    (
        "sign_ratio_bounds", "random_zero_sum_sequence",
        lambda rng, k, n: BoundedSequence.from_elements([1, 1], k),
        "holds 2 elements, over k/(k+1) of the length",
    ),
    (
        "spectrum_symmetry", "spectrum",
        lambda s: Spectrum(real_spectrum(s).lengths - {s.length}),
        "is missing an endpoint",
    ),
    (
        "spectrum_symmetry", "spectrum",
        lambda s: Spectrum(real_spectrum(s).lengths | {s.length + 1}),
        "is not symmetric",
    ),
    (
        "dp_vs_bruteforce", "brute_force_pairs",
        lambda s: real_pairs(s) | {(-1, 0)},
        "kernel and enumeration disagree",
    ),
    ("davenport_blocks", "davenport_subset", lambda values, m: [], "block length 0 out of range"),
    ("davenport_blocks", "davenport_subset", lambda values, m: values[:1], "does not sum to 0 mod"),
    (
        "davenport_blocks", "davenport_subset",
        lambda values, m: [100 * m],  # the values lie in [-50, 50]
        "is not a consecutive run",
    ),
    (
        "reduce_fixpoint_audit", "foreign_count",
        lambda s, x: -1,
        "rewrites exceed the foreign count",
    ),
    (
        "reduce_fixpoint_audit", "reduce_fixpoint",
        steps_with(removed=lambda st: real_concat(st.removed, BoundedSequence(1, ((1, 1),)))),
        "is not zero-sum",
    ),
    (
        "reduce_fixpoint_audit", "reduce_fixpoint",
        steps_with(inserted_copies=lambda st: st.inserted_copies + 1),
        "does not match",
    ),
    ("reduce_fixpoint_audit", "concat", lambda s, t: s, "did not grow"),
    (
        "reduce_fixpoint_audit", "reduce_fixpoint",
        fixpoint_with(
            lambda trace, x: replace(trace, fixpoint=real_concat(trace.fixpoint, x.block))
        ),
        "replayed trace gives",
    ),
    (
        "reduce_fixpoint_audit", "random_zero_sum_sequence",
        lambda rng, k, n: BoundedSequence.from_elements([1], k),
        "does not preserve length and sum",
    ),
    ("reduce_fixpoint_audit", "reduce_step", lambda s, x: s, "still admits a rewrite"),
    (
        "reduce_fixpoint_audit", "strip_blocks",
        lambda s, x: (s, -1),
        "disagrees with the recorded trace",
    ),
    ("foreign_bound_at_fixpoint", "repeat", lambda s, count: s, "lost its abundance"),
    (
        "foreign_bound_at_fixpoint", "foreign_count",
        lambda s, x: x.alpha + x.beta,
        "foreign elements, expected <",
    ),
    (
        "foreign_bound_at_fixpoint", "strip_blocks",
        lambda s, x: (s, 1),
        "still contains whole blocks",
    ),
]


@pytest.mark.parametrize(
    "suite, name, broken, detail", BROKEN, ids=[f"{c[0]}-{c[3]}" for c in BROKEN]
)
def test_a_broken_invariant_fails_its_suite(monkeypatch, suite, name, broken, detail):
    monkeypatch.setattr(selftest, name, broken)
    result = getattr(selftest, f"_{suite}")(0, 0.01)
    assert result.name == suite
    assert not result.ok and result.failures > 0
    assert detail in result.detail


def test_a_failed_suite_fails_the_selftest_command(monkeypatch, capsys):
    # A red check stays red: the command exits 1 and says so.
    monkeypatch.setattr(selftest, "spectrum", lambda s: Spectrum(frozenset({0})))
    assert main(["selftest", "--scale", "0.01"]) == 1
    out = capsys.readouterr().out
    assert "spectrum_symmetry: FAIL" in out
    assert "some suites FAILED" in out
