"""Searches over zero-sum avoiding sequences: maxima, extremal sets, families.

One search driver, :func:`longest_avoiding`, makes exact-length walks of
the zero-sum walker of :mod:`zsseq.detect`, which carries the kernel rows
along each branch, so containment prunes a subtree the moment it appears
and every surviving leaf is already avoiding; each result is re-checked by
the kernel.  When the constant is finite the search starts just above it,
at the top of a window of lengths whose emptiness proves every longer
length empty.  :func:`enumerate_extremal` is that search with its ceiling at
the critical length, keeping only that length.

Exhaustiveness is only claimed when every walk was covered and the best
length found lies strictly below the ceiling; hitting a node or time cap,
or finding sequences at the ceiling itself, reports ``exhaustive=False``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import gcd, inf

from .constants import (
    MINIMAL_SEARCH_MAX_K,
    divisibility_condition,
    minimal_zero_sum_max_length,
    s_prime_t,
)
from .detect import _walk_zero_sum, _WalkCapped, is_t_avoiding
from .errors import CrossCheckError, PreconditionError
from .reduction import BlockX, build_block
from .sequences import BoundedSequence, concat, negate, repeat, to_json

@dataclass(frozen=True)
class SearchResult:
    """Outcome of a longest-avoiding search up to a length ceiling."""

    k: int
    t: int
    best_length: int
    witnesses: tuple[BoundedSequence, ...]
    exhaustive: bool
    nodes_explored: int
    stop_reason: str | None = None

    def to_json_dict(self) -> dict:
        return to_json(self)


@dataclass(frozen=True)
class ExtremalReport:
    """All avoiding zero-sum sequences of the critical length t + k^2 - k - 1."""

    k: int
    t: int
    sequences: tuple[BoundedSequence, ...]
    support_ok: bool
    exhaustive: bool
    nodes_explored: int
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        return to_json(self)


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for arbitrarily long avoiding sequences when no finite constant exists."""

    k: int
    t: int
    q: int
    a: int
    b: int
    generator: BlockX

    def to_json_dict(self) -> dict:
        return to_json(self)


def longest_avoiding(
    k: int,
    t: int,
    ceiling: int,
    max_nodes: int | None = None,
    time_limit: float | None = None,
    max_witnesses: int | None = 64,
    progress=None,
) -> SearchResult:
    """Longest zero-sum t-avoiding sequence over [-k, k] with length <= ceiling.

    Walks the lengths top, top - 1, ..., t + 1, then t - 1 (length t
    contains itself) and stops at the first with an avoiding sequence;
    ``witnesses`` holds those ascending by ``terms``, or the first
    ``max_witnesses`` of them, so a capped list is a prefix of the full one.
    ``max_nodes`` and ``time_limit`` bound the whole search, the time limit
    the kernel re-check too: past it, only the witnesses re-checked so far
    are kept.  A negative cap or a time limit that is not finite is
    refused.  ``exhaustive`` is True only if no cap was hit and the maximum
    is below the ceiling.

    top is the ceiling, or c + L - 1 if lower, with c the constant
    (:func:`~zsseq.constants.s_prime_t`) when it is finite and L the
    longest minimal zero-sum length over [-k, k]
    (:func:`~zsseq.constants.minimal_zero_sum_max_length`, or its proven
    bound 2k past the exhaustive range).  Longer lengths need no walk, by
    the window lemma: if no zero-sum t-avoider has a length in
    [m, m + L - 1], none has a length >= m.  A zero-sum S of length
    n >= m + L contains a minimal zero-sum M with |M| <= L, and S - M is
    zero-sum of length in [m, n - 1], so by induction it contains a
    zero-sum of length t, and so does S.  The walks c + L - 1, ..., c come
    first, so the answer rests on them, not on the theorem: an avoider of
    length >= c raises :class:`CrossCheckError`.
    """
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    if t < 1:
        raise PreconditionError(f"t must be >= 1, got {t}")
    if ceiling < t:
        raise PreconditionError(f"ceiling must be >= t, got ceiling={ceiling} < t={t}")
    caps = {"max_nodes": max_nodes, "max_witnesses": max_witnesses, "time_limit": time_limit}
    for name, cap in caps.items():
        if cap is not None and not 0 <= cap < inf:  # false for NaN too
            raise PreconditionError(f"{name} must be a finite number >= 0, got {cap}")

    best = -1
    witnesses: list[BoundedSequence] = []

    def keep_first() -> None:
        witnesses[:] = sorted(witnesses, key=lambda s: s.terms)[:max_witnesses]

    def on_leaf(s: BoundedSequence) -> None:
        nonlocal best
        best = s.length
        witnesses.append(s)
        # Leaves arrive in no promised order, so keep the smallest by terms:
        # trimming at twice the cap bounds the buffer with one sort per
        # ``max_witnesses`` leaves.
        if max_witnesses is not None and len(witnesses) >= 2 * max_witnesses:
            keep_first()

    wrapped = None
    if progress is not None:
        wrapped = lambda nodes: progress(nodes, best)  # noqa: E731

    top = ceiling
    constant = s_prime_t(k, t).value
    if constant is not None and ceiling > constant:
        window = minimal_zero_sum_max_length(k) if k <= MINIMAL_SEARCH_MAX_K else 2 * k
        top = min(ceiling, constant + window - 1)

    deadline = None if time_limit is None else time.monotonic() + time_limit
    stop_reason = None
    nodes = 0
    for n in [*range(top, t, -1), t - 1]:
        try:
            nodes = _walk_zero_sum(
                k, n, on_leaf, t=t, max_nodes=max_nodes, deadline=deadline,
                progress=wrapped, nodes=nodes,
            )
        except _WalkCapped as cap:
            stop_reason = cap.reason
            nodes = cap.nodes
            break
        if best >= 0:
            break

    keep_first()
    for i, w in enumerate(witnesses, 1):
        if w.sigma != 0 or not is_t_avoiding(w, t):
            raise CrossCheckError(f"search produced an invalid witness: {w}")
        if deadline is not None and time.monotonic() > deadline:
            del witnesses[i:]  # keep the re-checked prefix only
            stop_reason = "time-limit"
            break
    if constant is not None and best >= constant:
        raise CrossCheckError(
            f"found a zero-sum {t}-avoider of length {best} over [-{k}, {k}], "
            f"at or above the constant {constant}"
        )
    return SearchResult(
        k=k,
        t=t,
        best_length=max(best, 0),
        witnesses=tuple(witnesses),
        exhaustive=stop_reason is None and best < ceiling,
        nodes_explored=nodes,
        stop_reason=stop_reason,
    )


def enumerate_extremal(
    k: int,
    t: int,
    max_nodes: int | None = None,
    time_limit: float | None = None,
) -> ExtremalReport:
    """Every t-avoiding zero-sum sequence of length t + k^2 - k - 1 over [-k, k].

    That length is one below the constant, so :func:`longest_avoiding` with
    its ceiling there stops after walking it, and its witnesses (all of
    them, re-checked by the kernel) are the answer; if none has that length
    the answer is empty.  For k = 1 the length is t - 1, which the search
    walks when its ceiling is t.  A node or time cap is reported as
    ``exhaustive=False``.  ``support_ok`` states whether every sequence
    found has support within {-1, k-1, k} or within {1, -(k-1), -k}; k = 1
    collapses those sets and is flagged ``degenerate``.
    """
    constant = s_prime_t(k, t).value
    if constant is None:
        raise PreconditionError(
            f"no finite constant for k={k}, t={t}; extremal length is undefined"
        )
    target = constant - 1
    result = longest_avoiding(
        k, t, max(target, t), max_nodes=max_nodes, time_limit=time_limit, max_witnesses=None
    )
    found = result.witnesses if result.best_length == target else ()
    support_ok = all(_upper_side(k, s) is not None for s in found)
    return ExtremalReport(
        k=k,
        t=t,
        sequences=found,
        support_ok=support_ok,
        exhaustive=result.stop_reason is None,
        nodes_explored=result.nodes_explored,
        degenerate=k == 1,
    )


def _upper_side(k: int, s: BoundedSequence) -> BoundedSequence | None:
    """s or -s, whichever has support within {-1, k-1, k}; None if neither has."""
    upper = {-1, k - 1, k}
    if set(s.support) <= upper:
        return s
    return negate(s) if {-v for v in s.support} <= upper else None


def verify_frobenius_avoidance(k: int, t: int, s: BoundedSequence) -> bool:
    """t-avoidance of a zero-sum sequence on {-1, k-1, k} or {1, -(k-1), -k}, cross-checked.

    For support within {-1, k-1, k} a zero-sum subsequence with i copies of
    k and j of k-1 needs k*i + (k-1)*j copies of -1 and has length
    (k+1)*i + k*j, so t-containment has a closed form.  The mirrored
    support is negated onto it first: s avoids t exactly when -s does.  The
    kernel answer on s and the closed form must agree or
    :class:`CrossCheckError` is raised.
    """
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    if t < 0:
        raise PreconditionError(f"t must be >= 0, got {t}")
    top = _upper_side(k, s)
    if top is None:
        raise PreconditionError(
            f"support of {s} is not within {{-1, {k - 1}, {k}}} or {{1, {1 - k}, {-k}}}"
        )
    if s.sigma != 0:
        raise PreconditionError("sequence must be zero-sum")
    v_top = top.multiplicity(k)
    v_mid = top.multiplicity(k - 1)
    v_neg = top.multiplicity(-1)
    closed_form_containing = False
    for i in range(min(v_top, t // (k + 1)) + 1):
        rem = t - (k + 1) * i
        if rem % k:
            continue
        j = rem // k
        if j <= v_mid and k * i + (k - 1) * j <= v_neg:
            closed_form_containing = True
            break
    kernel_avoiding = is_t_avoiding(s, t)
    if kernel_avoiding != (not closed_form_containing):
        raise CrossCheckError(
            f"kernel and closed form disagree on t={t} for {s}: "
            f"kernel avoiding={kernel_avoiding}"
        )
    return kernel_avoiding


def family_generator(
    k: int,
    t: int,
    min_length: int,
) -> tuple[FamilySpec, BoundedSequence]:
    """A verified t-avoiding zero-sum sequence of length >= min_length.

    Only exists when no finite constant does: pick the smallest prime power
    q <= max(2, 2k-1) not dividing t, split it as q = a + b with a, b
    coprime positive integers <= k, and repeat the block a^[b] . (-b)^[a].
    Every zero-sum subsequence of the result has length a multiple of q,
    and q does not divide t, so the output avoids t at any length; the
    kernel re-checks this before returning.
    """
    if min_length < 1:
        raise PreconditionError(f"min_length must be >= 1, got {min_length}")
    report = divisibility_condition(k, t)
    if report.holds:
        raise PreconditionError(
            f"k={k}, t={t} admits a finite constant; no unbounded avoiding family exists"
        )
    q = report.failing_prime_power
    if q is None:  # pragma: no cover - divisibility_condition names one when it fails
        raise CrossCheckError(f"k={k}, t={t} fails the divisibility test with no prime power")
    a = 1 if q == 2 else q // 2 + 1
    b = q - a
    if not (a + b == q and 1 <= b <= a <= k and gcd(a, b) == 1):  # pragma: no cover
        raise CrossCheckError(f"split {a} + {b} of q={q} is not a coprime pair within [1, {k}]")
    x = build_block(a, b)
    copies = -(-min_length // x.length)
    seq = concat(BoundedSequence(k), repeat(x.block, copies))
    if not is_t_avoiding(seq, t):  # pragma: no cover - impossible by construction
        raise CrossCheckError(f"family output failed its avoidance re-check for t={t}")
    return FamilySpec(k, t, q, a, b, x), seq


def _lemma42_margin(k: int, alpha: int, beta: int) -> int:
    """Best achievable sum of a capped configuration, per the audit's greedy fill.

    With at most beta/g - 1 copies of alpha, at most alpha + beta - 1
    elements of the largest admissible positive value, and all remaining
    slots of a length-(k^2 - k + (alpha+beta)/g) sequence filled with
    -beta, this is the largest sum attainable; the audit requires it to be
    negative, i.e. such a configuration can never reach a zero sum.
    """
    g = gcd(alpha, beta)
    maxpos = k - 1 if alpha == k else k
    a_copies = beta // g - 1
    maxpos_copies = alpha + beta - 1
    b_copies = (k * k - k + (alpha + beta) // g) - a_copies - maxpos_copies
    return alpha * a_copies + maxpos * maxpos_copies - beta * b_copies


def lemma42_search() -> list[tuple[int, int, int]]:
    """Audit the greedy margin for every k in 4..6, beta in 2..k, alpha in 1..k.

    Returns the (k, alpha, beta) triples whose margin is non-negative; an
    empty list means the capped configurations can never be zero-sum.
    """
    flagged = []
    for k in range(4, 7):
        for beta in range(2, k + 1):
            for alpha in range(1, k + 1):
                if _lemma42_margin(k, alpha, beta) >= 0:
                    flagged.append((k, alpha, beta))
    return flagged
