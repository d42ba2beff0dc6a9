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
do not depend on the table height, so neither does the rewrite.  Growing
each table to the height the next j needs, or doubling it, costs more: at
the benchmark's ``rewrite`` seed 1 that builds 17,218 and 13,667 tables
(12.35 M and 5.47 M cells) against 10,647 (4.90 M) for the one later
height, since each final search, which finds no step, pays for every
rebuild, and both ran 5-17% slower.

Rewrites come in runs of one step: 7,525 of the 12,683 rewrites of the
benchmark's ``rewrite`` workload at seed 1 repeat the step before them.
:func:`reduce_fixpoint` makes a step again, with no tables and no witness,
when a supply lemma (stated in its docstring) proves that
:func:`reduce_step` would choose it, and searches otherwise; the steps are
those of calling :func:`reduce_step` every time.  The lemma is checked
once per searched step and gives the length of the whole run in closed
form: at seed 1, 5,414 checks give 7,269 repeats in 2,373 runs of up to
15 steps.  Each step's result is built by adding the step's change to
its counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .detect import DEFAULT_MEMORY_LIMIT, build_table
from .errors import CrossCheckError, PreconditionError
from .sequences import BoundedSequence, concat


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
        # rule the first 300 traces of the benchmark's seed-0 ``rewrite`` workload
        # took 10.0 ms, not 3.1 ms (best of 40, 2-core x86-64 VM, Python 3.11.7),
        # about 22 us added to the 155-165 us their ``reduce_fixpoint`` takes.
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
    stages = (
        (range(1, 2), min(block_len - 1, n - block_len)),
        (range(2, max_j + 1), _later_height(n, block_len)),
    )
    for js, height in stages:
        if not js:
            break
        tables = {}
        for j in js:
            for f in foreign_values:
                if f not in tables:
                    tables[f] = build_table(_without_one(s, f), height, memory_limit=memory_limit)
                rest = tables[f].witness(j * block_len - 1, -f)
                if rest is not None:
                    return _rewrite(s, x, j, f, rest)
    return None


def _later_height(n: int, size: int) -> int | None:
    """The largest min(j size - 1, n - j size) over 2 <= j <= n // size; None if no such j.

    The first term rises with j and the second falls, so the largest is
    where they cross, at j = floor((n + 1) / (2 size)) or the j above,
    each clamped into range.
    """
    top = n // size
    if top < 2:
        return None
    mid = (n + 1) // (2 * size)
    js = (min(max(j, 2), top) for j in (mid, mid + 1))
    return max(min(j * size - 1, n - j * size) for j in js)


def _without_one(s: BoundedSequence, f: int) -> BoundedSequence:
    """s - {f}, for a value f that s contains."""
    return BoundedSequence(
        s.bound, tuple((v, m - (v == f)) for v, m in s.terms if v != f or m > 1)
    )


def _rewrite(s: BoundedSequence, x: BlockX, j: int, f: int, rest: BoundedSequence) -> ReduceStep:
    """The step that removes T = rest + {f} from s and inserts j blocks."""
    piece = dict(rest.terms)
    piece[f] = piece.get(f, 0) + 1
    removed = _from_counts(s.bound, piece)
    counts = dict(s.terms)
    for value, change in _delta(x, j, removed).items():
        counts[value] = counts.get(value, 0) + change
    return ReduceStep(_from_counts(max(s.bound, x.block.bound), counts), removed, j)


def _delta(x: BlockX, j: int, removed: BoundedSequence) -> dict[int, int]:
    """What a step adds to each value's count: j X - T, T the removed piece."""
    delta = {value: -mult for value, mult in removed.terms}
    for value, mult in x.block.terms:
        delta[value] = delta.get(value, 0) + j * mult
    return delta


def _from_counts(bound: int, counts: dict[int, int]) -> BoundedSequence:
    """The sequence with these counts, zeros dropped; a negative count raises."""
    return BoundedSequence(bound, tuple(sorted([(v, m) for v, m in counts.items() if m])))


def reduce_fixpoint(
    s: BoundedSequence,
    x: BlockX,
    memory_limit: int = DEFAULT_MEMORY_LIMIT,
) -> ReductionTrace:
    """Iterate :func:`reduce_step` to a fixpoint, then strip whole blocks.

    Each step removes at least one foreign element and inserts none, so the
    loop terminates after at most foreign_count(s, x) rewrites.

    A step that removed T = rest + {f} from s with j blocks is made again on
    s' = s - T + j X without a search when (a) T is a subsequence of s', and
    (b) alpha and -beta each either did not rise or already had c copies
    in s, where c = j|X| - 1, or for j >= 2 the larger height at which
    :func:`reduce_step` tabled the later j.  Then reduce_step(s') returns
    that same step, and its search would raise
    :class:`~zsseq.errors.ResourceLimitError` only if the search on s had:

    * |T| = j|X|, so |s'| = |s|, and max_j and both table heights are
      unchanged.  By (b) s' holds no value s lacks, so its bound is s's.
    * Capped at c copies per value, s' is pointwise at most s: foreign
      values only fall, and (b) covers alpha and -beta.
    * Every (j', f') that reduce_step tries up to (j, f) asks for j'|X| - 1
      <= c elements of s' - {f'} summing to -f', so its answer depends on
      the counts capped at c only; reachability is monotone in the
      supply, so each pair that failed on s fails on s'.
    * At (j, f), rest still fits in s' - {f}.  The witness takes, from the
      largest value down, the smallest count whose remainder is reachable
      (the mirrored read gives the same multiset).  A count too small on s
      is too small on s', and rest's count stays feasible, so the witness
      is rest again.
    * A table of height h <= c has its window and pad set by the h
      smallest and h largest elements of s' - {f'}, which are no further
      from 0 than those of s - {f'}, and it holds no more values.  So no
      table's estimate grows, and none is refused on s' that was built
      on s.  For j >= 2 the later-j tables can be taller than j|X| - 1,
      which is why c then rises to their height.

    The lemma covers a whole run of the step at once.  Along the run n, j
    and |X|, so c, stay fixed, and a rising alpha or -beta only rises, so
    (b) holds at every repeat once it holds at the first and is checked
    once.  Each repeat adds D = j X - T to the counts, and (a) holds at
    the i-th repeat exactly when s'_v + (i - 1) D_v >= T_v for each value
    v with D_v < 0, so the run has r = min over those v of
    floor((s'_v - T_v) / -D_v) + 1 repeats, or none when T does not fit
    in s'.  At the benchmark's ``rewrite`` seed 1, 5,414 such checks, one
    per searched step, make 7,269 of the 12,683 steps.  A step the lemma
    does not cover is searched by :func:`reduce_step`, the one place a new
    step is chosen.
    """
    steps: list[ReduceStep] = []
    limit = foreign_count(s, x)
    step = reduce_step(s, x, memory_limit=memory_limit)
    while step is not None:
        steps.append(step)
        steps += _run(step, x)
        if len(steps) > limit:  # pragma: no cover - progress measure violated
            raise CrossCheckError("rewrite loop exceeded its termination bound")
        step = reduce_step(steps[-1].result, x, memory_limit=memory_limit)
    current = steps[-1].result if steps else s
    stripped, count = strip_blocks(current, x)
    return ReductionTrace(s, tuple(steps), current, stripped, count)


def _run(step: ReduceStep, x: BlockX) -> list[ReduceStep]:
    """``step`` made again on its result as often as :func:`reduce_fixpoint`'s lemma allows."""
    s, j, removed = step.result, step.inserted_copies, step.removed
    cap = j * x.length - 1
    if j > 1:  # reduce_step also tabled each s - {f} at the height the later j share
        cap = max(cap, _later_height(s.length, x.length))
    counts = dict(s.terms)
    delta = _delta(x, j, removed)
    # Only alpha and -beta can rise, and each must have had cap copies before.
    if any(change > 0 and counts[value] - change < cap for value, change in delta.items()):
        return []
    need = dict(removed.terms)
    repeats = 1 + min(
        (counts.get(value, 0) - need[value]) // -change
        for value, change in delta.items()
        if change < 0
    )
    run = []
    for _ in range(repeats):
        for value, change in delta.items():
            counts[value] += change
        run.append(ReduceStep(_from_counts(s.bound, counts), removed, j))
    return run


def strip_blocks(s: BoundedSequence, x: BlockX) -> tuple[BoundedSequence, int]:
    """Remove as many whole copies of the block as multiplicities allow."""
    counts = dict(s.terms)
    count = min(counts.get(value, 0) // mult for value, mult in x.block.terms)
    for value, mult in x.block.terms:
        counts[value] = counts.get(value, 0) - count * mult
    return _from_counts(s.bound, counts), count


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
