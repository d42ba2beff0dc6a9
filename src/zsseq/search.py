"""Searches over zero-sum avoiding sequences: maxima, extremal sets, families.

The exhaustive searches use the zero-sum walker of :mod:`zsseq.detect`
with the kernel rows for lengths <= t carried along each branch, so
t-containment prunes a subtree the moment it appears and every surviving
leaf is already verified avoiding.

Exhaustiveness is only claimed when the whole tree within the length
ceiling was covered and the best length found lies strictly below the
ceiling; hitting a node or time cap, or finding sequences at the ceiling
itself, reports ``exhaustive=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .constants import divisibility_condition
from .detect import _walk_zero_sum, _WalkCapped, is_t_avoiding
from .errors import CrossCheckError, PreconditionError
from .reduction import BlockX, append_blocks, build_block
from .sequences import BoundedSequence

#: Exhaustive extremal enumeration is promised only up to this bound.
EXTREMAL_MAX_K = 3


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
        return {
            "k": self.k,
            "t": self.t,
            "best_length": self.best_length,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
            "exhaustive": self.exhaustive,
            "nodes_explored": self.nodes_explored,
            "stop_reason": self.stop_reason,
        }


@dataclass(frozen=True)
class ExtremalReport:
    """All avoiding zero-sum sequences of the critical length t + k^2 - k - 1."""

    k: int
    t: int
    sequences: tuple[BoundedSequence, ...]
    support_ok: bool
    exhaustive: bool = True
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "t": self.t,
            "sequences": [s.to_json_dict() for s in self.sequences],
            "support_ok": self.support_ok,
            "exhaustive": self.exhaustive,
            "degenerate": self.degenerate,
        }


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
        return {
            "k": self.k,
            "t": self.t,
            "q": self.q,
            "a": self.a,
            "b": self.b,
            "generator": self.generator.to_json_dict(),
        }


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

    ``witnesses`` holds every sequence achieving the best length (up to
    ``max_witnesses``), in canonical order.  ``exhaustive`` is True only if
    the search covered everything up to the ceiling without hitting a cap
    and the maximum is strictly below the ceiling.
    """
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    if t < 1:
        raise PreconditionError(f"t must be >= 1, got {t}")
    if ceiling < t:
        raise PreconditionError(f"ceiling must be >= t, got ceiling={ceiling} < t={t}")

    best = -1
    witnesses: list[BoundedSequence] = []

    def on_leaf(counts: dict[int, int], length: int) -> None:
        nonlocal best
        if length > best:
            best = length
            witnesses.clear()
        if length == best and (max_witnesses is None or len(witnesses) < max_witnesses):
            witnesses.append(BoundedSequence.from_terms(counts, k))

    wrapped = None
    if progress is not None:
        wrapped = lambda nodes: progress(nodes, best)  # noqa: E731

    stop_reason = None
    try:
        nodes = _walk_zero_sum(
            k, ceiling, on_leaf, t=t, max_nodes=max_nodes, time_limit=time_limit, progress=wrapped
        )
    except _WalkCapped as cap:
        stop_reason = cap.reason
        nodes = cap.nodes

    for w in witnesses:
        if w.sigma != 0 or not is_t_avoiding(w, t):
            raise CrossCheckError(f"search produced an invalid witness: {w}")
    return SearchResult(
        k=k,
        t=t,
        best_length=max(best, 0),
        witnesses=tuple(sorted(witnesses, key=lambda s: s.terms)),
        exhaustive=stop_reason is None and best < ceiling,
        nodes_explored=nodes,
        stop_reason=stop_reason,
    )


def enumerate_extremal(
    k: int,
    t: int,
    allow_slow: bool = False,
    max_nodes: int | None = None,
    time_limit: float | None = None,
) -> ExtremalReport:
    """Every t-avoiding zero-sum sequence of length t + k^2 - k - 1 over [-k, k].

    Exhaustive for k <= 2; k = 3 must be opted into with ``allow_slow`` (and
    may honestly report ``exhaustive=False`` when a cap interrupts it).
    ``support_ok`` states whether every sequence found has support within
    {-1, k-1, k} or within {1, -(k-1), -k}; k = 1 collapses those sets and
    is flagged ``degenerate``.
    """
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    if k > EXTREMAL_MAX_K:
        raise PreconditionError(f"extremal enumeration is capped at k <= {EXTREMAL_MAX_K}")
    if k == EXTREMAL_MAX_K and not allow_slow:
        raise PreconditionError("k = 3 enumeration is slow; pass allow_slow=True to run it")
    report = divisibility_condition(k, t)
    if not report.holds:
        raise PreconditionError(
            f"no finite constant for k={k}, t={t}; extremal length is undefined"
        )
    target = t + k * k - k - 1

    found: list[BoundedSequence] = []

    def on_leaf(counts: dict[int, int], length: int) -> None:
        found.append(BoundedSequence.from_terms(counts, k))

    stop_reason = None
    try:
        _walk_zero_sum(
            k, target, on_leaf, t=t, exact=True, max_nodes=max_nodes, time_limit=time_limit
        )
    except _WalkCapped as cap:
        stop_reason = cap.reason

    upper = {-1, k - 1, k}
    lower = {1, -(k - 1), -k}
    support_ok = all(
        set(s.support) <= upper or set(s.support) <= lower for s in found
    )
    return ExtremalReport(
        k=k,
        t=t,
        sequences=tuple(sorted(found, key=lambda s: s.terms)),
        support_ok=support_ok,
        exhaustive=stop_reason is None,
        degenerate=k == 1,
    )


def verify_frobenius_avoidance(k: int, t: int, s: BoundedSequence) -> bool:
    """t-avoidance of a {-1, k-1, k}-supported zero-sum sequence, cross-checked.

    For such sequences a zero-sum subsequence with i copies of k and j of
    k-1 needs k*i + (k-1)*j copies of -1 and has length (k+1)*i + k*j, so
    t-containment has a closed form.  The kernel answer and the closed form
    must agree or :class:`CrossCheckError` is raised.
    """
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    if t < 0:
        raise PreconditionError(f"t must be >= 0, got {t}")
    if not set(s.support) <= {-1, k - 1, k}:
        raise PreconditionError(f"support of {s} is not within {{-1, {k - 1}, {k}}}")
    if s.sigma != 0:
        raise PreconditionError("sequence must be zero-sum")
    v_top = s.multiplicity(k)
    v_mid = s.multiplicity(k - 1)
    v_neg = s.multiplicity(-1)
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
    if q == 2:
        a, b = 1, 1
    elif q % 2:
        a, b = (q + 1) // 2, (q - 1) // 2
    else:
        a, b = q // 2 + 1, q // 2 - 1
    if not (a + b == q and 1 <= b <= a <= k and gcd(a, b) == 1):  # pragma: no cover
        raise CrossCheckError(f"split {a} + {b} of q={q} is not a coprime pair within [1, {k}]")
    x = build_block(a, b)
    copies = -(-min_length // x.length)
    seq = append_blocks(BoundedSequence.empty(k), x, copies)
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
