"""Structural reduction of zero-sum sequences toward two-valued blocks.

For positive alpha, beta with g = gcd(alpha, beta), the basic block is

    X = alpha^[beta/g] . (-beta)^[alpha/g]

the shortest zero-sum sequence using only alpha and -beta, of length
(alpha + beta)/g.  The rewrite step looks for a zero-sum subsequence T
whose length is a positive multiple j of |X| and which contains at least
one element outside {alpha, -beta}; it replaces T by j copies of X.  The
foreign-element requirement is what makes the step productive: exchanging
whole blocks for themselves would be a no-op, whereas every qualifying
rewrite strictly increases the combined multiplicity of alpha and -beta
(and strictly decreases the number of foreign elements), so iteration
reaches a fixpoint quickly.

The search for T is complete: a qualifying T containing a foreign value f
exists iff T - {f} is a subsequence of s - {f} of length j|X| - 1 summing
to -f, which is a single kernel query per (j, f) pair, answered from the
shorter of the lengths j|X| - 1 and |s| - j|X|.  Smallest j wins,
then smallest f, then the kernel's deterministic witness, so rewrites are
reproducible.  Most rewrites succeed at j = 1, so each s - {f} is first
tabled at height min(|X| - 1, |s| - |X|) only; when no f qualifies there,
each is tabled once more at the largest height any j >= 2 needs.  Witnesses
do not depend on the table height, so neither does the rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .detect import DEFAULT_MEMORY_LIMIT, build_table
from .errors import CrossCheckError, PreconditionError
from .sequences import BoundedSequence, concat, remove, repeat


@dataclass(frozen=True)
class BlockX:
    """The block alpha^[beta/g] . (-beta)^[alpha/g] with g = gcd(alpha, beta)."""

    alpha: int
    beta: int
    g: int
    block: BoundedSequence

    @property
    def length(self) -> int:
        return (self.alpha + self.beta) // self.g


@dataclass(frozen=True)
class ReduceStep:
    """One successful rewrite: ``result`` = s - removed + inserted_copies blocks."""

    result: BoundedSequence
    removed: BoundedSequence
    inserted_copies: int


@dataclass(frozen=True)
class ReductionTrace:
    """Full audit of a fixpoint run followed by block stripping."""

    initial: BoundedSequence
    steps: tuple[ReduceStep, ...]
    fixpoint: BoundedSequence
    stripped: BoundedSequence
    strip_count: int

    def to_json_dict(self) -> dict:
        # By hand, not by ``to_json``: the steps leave out ``result``, and by the
        # rule 300 traces took 18.7 ms, not 3.8 ms (best of 40, 2-core x86-64 VM,
        # Python 3.11), about 50 us added to a ~300 us ``reduce_fixpoint``.
        return {
            "initial": self.initial.to_json_dict(),
            "steps": [
                {"removed": st.removed.to_json_dict(), "inserted_copies": st.inserted_copies}
                for st in self.steps
            ],
            "fixpoint": self.fixpoint.to_json_dict(),
            "stripped": self.stripped.to_json_dict(),
            "strip_count": self.strip_count,
        }


def build_block(alpha: int, beta: int) -> BlockX:
    if alpha < 1 or beta < 1:
        raise PreconditionError(f"alpha and beta must be positive, got ({alpha}, {beta})")
    g = gcd(alpha, beta)
    block = BoundedSequence.from_terms(
        {alpha: beta // g, -beta: alpha // g}, bound=max(alpha, beta)
    )
    return BlockX(alpha, beta, g, block)


def foreign_count(s: BoundedSequence, x: BlockX) -> int:
    """Number of elements of s (with multiplicity) outside {alpha, -beta}."""
    keep = {x.alpha, -x.beta}
    return sum(mult for value, mult in s.terms if value not in keep)


def reduce_step(
    s: BoundedSequence,
    x: BlockX,
    memory_limit: int = DEFAULT_MEMORY_LIMIT,
) -> ReduceStep | None:
    """One rewrite of s by x, or None when s is already a fixpoint.

    Finds a zero-sum subsequence T with |T| = j * |X| (smallest j first)
    containing at least one value outside {alpha, -beta}, removes it and
    inserts j copies of the block.  The search is exhaustive, so None
    really means no qualifying T exists.
    """
    keep = {x.alpha, -x.beta}
    foreign_values = [value for value, _ in s.terms if value not in keep]
    if not foreign_values:
        return None
    block_len = x.length
    n = s.length
    max_j = n // block_len
    if max_j < 1:
        return None
    # T - {f} is a subsequence of s - {f} (length n - 1) of length j|X| - 1,
    # which a table answers from its short side, min(j|X| - 1, n - j|X|).
    # Most steps succeed at j = 1, so tables start at that height; the
    # later j share one rebuild at the largest height any of them needs.
    for js in (range(1, 2), range(2, max_j + 1)):
        if not js:
            break
        height = max(min(j * block_len - 1, n - j * block_len) for j in js)
        tables = {}
        for j in js:
            for f in foreign_values:
                if f not in tables:
                    tables[f] = build_table(_without_one(s, f), height, memory_limit=memory_limit)
                rest = tables[f].witness(j * block_len - 1, -f)
                if rest is not None:
                    return _rewrite(s, x, j, f, rest)
    return None


def _without_one(s: BoundedSequence, f: int) -> BoundedSequence:
    """s - {f}, for a value f that s contains."""
    return BoundedSequence(
        s.bound, tuple((v, m - (v == f)) for v, m in s.terms if v != f or m > 1)
    )


def _rewrite(s: BoundedSequence, x: BlockX, j: int, f: int, rest: BoundedSequence) -> ReduceStep:
    """The step that removes T = rest + {f} from s and inserts j blocks."""
    removed = BoundedSequence.from_terms([*rest.terms, (f, 1)], s.bound)
    counts = dict(s.terms)
    for value, mult in removed.terms:
        counts[value] -= mult
    added = [(value, j * mult) for value, mult in x.block.terms]
    result = BoundedSequence.from_terms([*counts.items(), *added], max(s.bound, x.block.bound))
    return ReduceStep(result, removed, j)


def reduce_fixpoint(
    s: BoundedSequence,
    x: BlockX,
    memory_limit: int = DEFAULT_MEMORY_LIMIT,
) -> ReductionTrace:
    """Iterate :func:`reduce_step` to a fixpoint, then strip whole blocks.

    Each step removes at least one foreign element and inserts none, so the
    loop terminates after at most foreign_count(s, x) rewrites.
    """
    steps: list[ReduceStep] = []
    current = s
    limit = foreign_count(s, x)
    while True:
        step = reduce_step(current, x, memory_limit=memory_limit)
        if step is None:
            break
        steps.append(step)
        current = step.result
        if len(steps) > limit:  # pragma: no cover - progress measure violated
            raise CrossCheckError("rewrite loop exceeded its termination bound")
    stripped, count = strip_blocks(current, x)
    return ReductionTrace(s, tuple(steps), current, stripped, count)


def strip_blocks(s: BoundedSequence, x: BlockX) -> tuple[BoundedSequence, int]:
    """Remove as many whole copies of the block as multiplicities allow."""
    per_alpha = x.beta // x.g
    per_beta = x.alpha // x.g
    count = min(s.multiplicity(x.alpha) // per_alpha, s.multiplicity(-x.beta) // per_beta)
    return remove(s, repeat(x.block, count)), count


def complete_block(t: BoundedSequence, x: BlockX) -> BoundedSequence:
    """Pad t with copies of alpha and -beta so the result is zero-sum.

    Requires gcd(alpha, beta) | sigma(t).  Takes the least a >= 0 with
    sigma(t) + a*alpha divisible by beta and non-negative, then adds
    b = (sigma(t) + a*alpha)/beta copies of -beta.
    """
    total = t.sigma
    if total % x.g:
        raise PreconditionError(
            f"sigma(t) = {total} is not divisible by gcd(alpha, beta) = {x.g}"
        )
    step = x.beta // x.g
    a = (-(total // x.g) * pow(x.alpha // x.g, -1, step)) % step
    if total + a * x.alpha < 0:
        deficit = -(total + a * x.alpha)
        a += step * -(-deficit // (step * x.alpha))
    b = (total + a * x.alpha) // x.beta
    pad = BoundedSequence.from_terms({x.alpha: a, -x.beta: b}, max(t.bound, x.alpha, x.beta))
    return concat(t, pad)
