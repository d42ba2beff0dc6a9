"""Exact-length zero-sum subsequence detection.

The kernel answers "does s contain a subsequence of length t summing to
zero?" (and more generally, which (length, sum) pairs are achievable) by a
layered dynamic program over the distinct values of s:

* State space: pairs (j, sigma) with 0 <= j <= c (the table height) and
  |sigma| <= bound * c.  All rows are packed into one Python int: row j
  starts at bit j * stride, and (j, sigma) is bit j * stride + sigma +
  offset, where offset = bound * c, width = 2 * offset + 1 and stride =
  width + bound.  Any subsequence of length j has |sum| <= bound * j <=
  offset, so the window never loses genuine states.

* The bound pad bits on top of each row keep rows apart.  A state pushed
  past row c with a negative sum borrows into row c's pad, never into its
  window, and the next shift carries it past the mask; without the pad it
  would land in row c's window as a false state.  Rows below c never get
  a pad bit, and no query reads one.

* Complement queries: for any multiset s of length n, removing a
  subsequence of length j and sum sigma leaves one of length n - j and sum
  sigma(s) - sigma, so (j, sigma) is reachable exactly when
  (n - j, sigma(s) - sigma) is.  A table of height c therefore answers
  every length in [0, c] and in [n - c, n], and a query for length t needs
  height min(t, n - t) only.  The identity holds for every value prefix
  of s too, which is what lets witnesses be recovered from the short side.

* Values are processed in ascending order.  Adding up to m copies of a
  value v uses the binary (power-of-two) decomposition of min(m, c): each
  chunk of w copies is a take-or-leave item, one shift of the whole int
  by w * (stride + v) (w rows up, sum up by w * v), or-ed in and masked to
  rows 0..c.  The chunks reach exactly the copy counts 0..min(m, c).

* After each distinct value the packed int is retained as a snapshot, so
  a witness can be recovered by walking snapshots backwards.  At each
  value the smallest feasible copy count is chosen, which makes witnesses
  deterministic across runs and platforms.  A length above c is recovered
  by walking its complement target with the largest feasible count first
  and keeping the copies left over: the same multiset a table of full
  height would give.

The memory footprint is estimated up-front from (snapshots x rows x window
bits); if it would exceed the configured cap the build is refused with
:class:`~zsseq.errors.ResourceLimitError` rather than degrading.

For cross-checking, :func:`brute_force_pairs` / :func:`brute_force_spectrum`
enumerate every subsequence explicitly and never touch the bitset code
path; tests and ``selftest`` compare the two routes.

Every exhaustive walk over zero-sum multisets in [-k, k] goes through one
walker, :func:`_walk_zero_sum`, whose leaves are the multisets that avoid
a length t.  Every walk carries a packed kernel table along a branch to
test that.  The rows stop at height h = min(t, length - t), so the walk
fixes capped multiplicities: a count of h stands for every count from h
up, and the multisets of one capped profile are the solutions of two
linear equations in the extra copies.  The enumeration here asks for
t = length + 1, which no multiset of that length contains, so its walk
carries the empty table, caps nothing, and every zero-sum multiset is a
leaf.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from .errors import CrossCheckError, PreconditionError, ResourceLimitError
from .sequences import BoundedSequence, negate

#: Default cap on the estimated table payload, in bytes (1 GiB).
DEFAULT_MEMORY_LIMIT = 1 << 30

# Rough per-row allowance used in the estimate; Python ints are not flat
# words, and each packed row also carries its pad bits.
_ROW_OVERHEAD = 48


@dataclass(frozen=True)
class ValueLayer:
    """Decoded view of the rows after one distinct value has been processed."""

    value: int
    mult: int
    rows: tuple[int, ...]


@dataclass(frozen=True)
class Witness:
    """A subsequence found by the kernel."""

    subsequence: BoundedSequence


@dataclass(frozen=True)
class Spectrum:
    """Set of lengths of zero-sum subsequences of some source sequence."""

    lengths: frozenset[int]

    def as_sorted_list(self) -> list[int]:
        return sorted(self.lengths)


@dataclass(frozen=True)
class LengthSumTable:
    """Reachability table for (length, sum) pairs over subsequences of ``source``.

    ``packed`` holds rows 0..``max_length`` in one int: bit
    j * ``stride`` + sigma + ``offset`` is set iff some subsequence of the
    whole source has length j and sum sigma.  Each row is ``width`` window
    bits plus ``stride - width`` = bound pad bits, which only row
    ``max_length`` can have set and no query reads.  Longer lengths down to
    n - ``max_length`` are answered through the complement, using
    sigma(source).  ``snapshots`` holds the packed int
    after each distinct value (needed for witness recovery); it is empty
    when the table was built with ``keep_layers=False``.  ``rows`` and
    ``layers`` decode the same data one row per int, on first use.
    """

    source: BoundedSequence
    max_length: int
    offset: int
    width: int
    stride: int
    # Left out of repr: a packed int past 4,300 digits cannot be printed.
    packed: int = field(repr=False)
    snapshots: tuple[int, ...] = field(repr=False)

    def _unpack(self, packed: int) -> tuple[int, ...]:
        window = (1 << self.width) - 1
        return tuple(packed >> j * self.stride & window for j in range(self.max_length + 1))

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """``rows[j]`` has bit sigma + offset set iff (j, sigma) is reachable, j <= max_length."""
        return self._unpack(self.packed)

    @cached_property
    def layers(self) -> tuple[ValueLayer, ...]:
        """The rows after each distinct value, decoded from ``snapshots``."""
        return tuple(
            ValueLayer(value, mult, self._unpack(packed))
            for (value, mult), packed in zip(self.source.terms, self.snapshots)
        )

    def reachable(self, length: int, total: int = 0) -> bool:
        if length > self.max_length:
            length, total = self.source.length - length, self.source.sigma - total
        if not 0 <= length <= self.max_length:
            return False
        pos = total + self.offset
        if not 0 <= pos < self.width:
            return False
        return bool(self.packed >> length * self.stride + pos & 1)

    def achievable_pairs(self) -> Iterator[tuple[int, int]]:
        """All reachable (length, sum) pairs with length <= max_length, in (length, sum) order."""
        offset = self.offset
        for j, row in enumerate(self.rows):
            while row:
                low = row & -row
                yield (j, low.bit_length() - 1 - offset)
                row ^= low

    def zero_sum_lengths(self) -> frozenset[int]:
        # One linear conversion, then a byte lookup per row: shifting the
        # whole int once per row would cost rows x size.
        data = self.packed.to_bytes(((self.max_length + 1) * self.stride + 7) // 8, "little")
        zero_bits = range(self.offset, (self.max_length + 1) * self.stride, self.stride)
        return frozenset(j for j, pos in enumerate(zero_bits) if data[pos >> 3] >> (pos & 7) & 1)

    def witness(self, length: int, total: int = 0) -> BoundedSequence | None:
        """Recover one subsequence achieving (length, total), or None.

        Walks the snapshots backwards, taking the smallest feasible copy
        count of each value, which makes the result deterministic.  A
        length above ``max_length`` walks the complement target with the
        largest feasible count first and keeps the copies left over, which
        is the multiset the smallest-first walk of a taller table returns.
        """
        if not self.reachable(length, total):
            return None
        if len(self.snapshots) != len(self.source.terms):
            raise PreconditionError("table was built without layers; witnesses unavailable")
        mirrored = length > self.max_length
        if mirrored:
            length, total = self.source.length - length, self.source.sigma - total
        counts: dict[int, int] = {}
        j, sigma = length, total
        terms = self.source.terms
        for i in range(len(terms) - 1, -1, -1):
            value, mult = terms[i]
            prev = self.snapshots[i - 1] if i else 1 << self.offset
            tries = range(min(mult, j) + 1)
            for copies in reversed(tries) if mirrored else tries:
                pos = sigma - copies * value + self.offset
                if 0 <= pos < self.width and prev >> (j - copies) * self.stride + pos & 1:
                    kept = mult - copies if mirrored else copies
                    if kept:
                        counts[value] = kept
                    j -= copies
                    sigma -= copies * value
                    break
            else:  # pragma: no cover - impossible if the table is consistent
                raise CrossCheckError("witness backtracking lost a reachable state")
        if j or sigma:  # pragma: no cover - impossible if the table is consistent
            raise CrossCheckError(f"witness backtracking ended at ({j}, {sigma}), not (0, 0)")
        return BoundedSequence.from_terms(counts, self.source.bound)


def _add_up_to(packed: int, value: int, mult: int, height: int, stride: int, mask: int) -> int:
    """``packed`` with 0 .. min(mult, height) copies of ``value`` added.

    Each binary chunk of w copies is one take-or-leave item: the whole
    table shifted w rows up and w * value along the sums, or-ed in and
    masked to rows 0..height.
    """
    remaining = min(mult, height)
    chunk = 1
    while remaining:
        w = min(chunk, remaining)
        remaining -= w
        chunk <<= 1
        packed |= packed << w * (stride + value) & mask
    return packed


def _geometry(bound: int, height: int) -> tuple[int, int, int]:
    """(offset, stride, mask) of rows 0..height over [-bound, bound]: the module docstring's layout."""
    offset = bound * height
    stride = 2 * offset + 1 + bound
    return offset, stride, (1 << (height + 1) * stride) - 1


def estimate_table_bytes(s: BoundedSequence, max_length: int) -> int:
    width = 2 * s.bound * max_length + 1
    rows = max_length + 1
    layers = len(s.terms) + 1
    return layers * rows * ((width + 7) // 8 + _ROW_OVERHEAD)


def build_table(
    s: BoundedSequence,
    max_length: int,
    memory_limit: int = DEFAULT_MEMORY_LIMIT,
    keep_layers: bool = True,
) -> LengthSumTable:
    """Reachability table of height max_length: lengths <= max_length and >= |s| - max_length."""
    if max_length < 0:
        raise PreconditionError(f"max_length must be >= 0, got {max_length}")
    estimate = estimate_table_bytes(s, max_length)
    if not keep_layers:
        estimate = 2 * estimate // (len(s.terms) + 1)
    if estimate > memory_limit:
        raise ResourceLimitError(
            f"table estimate {estimate} bytes exceeds the {memory_limit}-byte cap"
        )
    offset, stride, mask = _geometry(s.bound, max_length)
    packed = 1 << offset
    snapshots: list[int] = []
    for value, mult in s.terms:
        packed = _add_up_to(packed, value, mult, max_length, stride, mask)
        if keep_layers:
            snapshots.append(packed)
    return LengthSumTable(s, max_length, offset, 2 * offset + 1, stride, packed, tuple(snapshots))


def find_zero_sum_of_length(
    s: BoundedSequence,
    t: int,
    memory_limit: int = DEFAULT_MEMORY_LIMIT,
) -> Witness | None:
    """Deterministic witness of a zero-sum subsequence of length exactly t, or None.

    Out-of-range targets (t < 0 or t > length of s) are simply absent.  The
    table is only min(t, |s| - t) tall; a longer t is answered through the
    complement, with the witness a table of height t would give.
    """
    if t < 0 or t > s.length:
        return None
    table = build_table(s, min(t, s.length - t), memory_limit=memory_limit)
    found = table.witness(t, 0)
    if found is None:
        return None
    if found.sigma != 0 or found.length != t:
        raise CrossCheckError(f"kernel witness {found} is not a zero-sum of length {t}")
    return Witness(found)


def is_t_avoiding(s: BoundedSequence, t: int, memory_limit: int = DEFAULT_MEMORY_LIMIT) -> bool:
    """True iff s has no zero-sum subsequence of length exactly t."""
    return find_zero_sum_of_length(s, t, memory_limit=memory_limit) is None


def spectrum(s: BoundedSequence, memory_limit: int = DEFAULT_MEMORY_LIMIT) -> Spectrum:
    """All lengths of zero-sum subsequences of s (always contains 0)."""
    table = build_table(s, s.length, memory_limit=memory_limit, keep_layers=False)
    return Spectrum(table.zero_sum_lengths())


def check_complement_duality(
    s: BoundedSequence,
    t: int,
    memory_limit: int = DEFAULT_MEMORY_LIMIT,
) -> bool:
    """For zero-sum s and 0 <= t <= |s|: is t-avoidance == (|s|-t)-avoidance?

    Removing a zero-sum subsequence from a zero-sum sequence leaves a
    zero-sum complement, so the two flags must always agree; a False return
    would indicate a kernel defect.  Both are read directly, without the
    complement queries: row t of a table of height t against row |s| - t
    of a table of height |s| - t.
    """
    if s.sigma != 0:
        raise PreconditionError("complement duality only applies to zero-sum sequences")
    if not 0 <= t <= s.length:
        raise PreconditionError(f"t must lie in [0, {s.length}], got {t}")
    a = build_table(s, t, memory_limit=memory_limit, keep_layers=False).reachable(t)
    rest = s.length - t
    b = build_table(s, rest, memory_limit=memory_limit, keep_layers=False).reachable(rest)
    return a == b


# -- independent oracle (no bitsets, plain enumeration) -----------------


def brute_force_pairs(s: BoundedSequence) -> frozenset[tuple[int, int]]:
    """All (length, sum) pairs over subsequences of s, by explicit enumeration."""
    values = s.terms
    pairs: set[tuple[int, int]] = set()

    def go(i: int, length: int, total: int) -> None:
        if i == len(values):
            pairs.add((length, total))
            return
        value, mult = values[i]
        for copies in range(mult + 1):
            go(i + 1, length + copies, total + copies * value)

    go(0, 0, 0)
    return frozenset(pairs)


def brute_force_spectrum(s: BoundedSequence) -> frozenset[int]:
    return frozenset(length for length, total in brute_force_pairs(s) if total == 0)


def iter_zero_sum_sequences(k: int, length: int) -> Iterator[BoundedSequence]:
    """All zero-sum multisets over [-k, k] of the given total length.

    In ascending ``terms`` order.  The walk avoids t = length + 1, which no
    multiset of this length can contain, so it carries the empty table and
    every zero-sum multiset is a leaf.
    """
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    if length < 0:
        raise PreconditionError(f"length must be >= 0, got {length}")
    found: list[BoundedSequence] = []
    _walk_zero_sum(k, length, found.append, length + 1)
    found.sort(key=lambda s: s.terms)
    return iter(found)


class _WalkCapped(Exception):
    """A node or time cap stopped :func:`_walk_zero_sum` after ``nodes`` nodes."""

    def __init__(self, reason: str, nodes: int):
        super().__init__(reason)
        self.reason = reason
        self.nodes = nodes


def _extra_copies(values: list[int], length: int, total: int) -> Iterator[tuple[int, ...]]:
    """Every e >= 0 over ``values`` with sum(e) == ``length`` and sum(v * e_v) == ``total``.

    All but the last two values are enumerated, each over the range that
    leaves the rest a real solution; the last two then have at most one
    solution, in closed form.  ``values`` are distinct; with none, the one
    solution is () when ``length`` and ``total`` are both 0.
    """
    if not values:
        if length == total == 0:
            yield ()
        return
    if len(values) == 1:
        if values[0] * length == total:
            yield (length,)
        return
    if len(values) == 2:
        a, b = values
        e, r = divmod(total - b * length, a - b)
        if not r and 0 <= e <= length:
            yield (e, length - e)
        return
    v, rest = values[0], values[1:]
    lo, hi = min(rest), max(rest)
    # The rest needs (length - e) * lo <= total - e * v <= (length - e) * hi:
    # two bounds e * a <= b on e, with a != 0 since v is not in the rest.
    first, stop = 0, length
    for a, b in ((v - lo, total - length * lo), (hi - v, length * hi - total)):
        if a > 0:
            stop = min(stop, b // a)
        else:
            first = max(first, -(b // -a))
    for e in range(first, stop + 1):
        for tail in _extra_copies(rest, length - e, total - e * v):
            yield (e, *tail)


def _walk_zero_sum(
    k: int,
    length: int,
    on_leaf,
    t: int,
    max_nodes: int | None = None,
    deadline: float | None = None,
    progress=None,
    nodes: int = 0,
) -> int:
    """Depth-first walk over the zero-sum multisets over [-k, k] of exactly ``length`` elements.

    ``on_leaf(s)`` is called with every such multiset that avoids t, as a
    sequence, exactly once, in no promised order: callers that need one
    sort the leaves.

    The rest of a zero-sum multiset after a zero-sum piece is zero-sum, so
    it avoids t exactly when it avoids length - t, and so exactly when it
    avoids h = min(t, length - t).  A zero-sum piece of length h takes at
    most h copies of any value, so that depends only on the capped profile
    c_v = min(mult_v, h).  The walk fixes a capped profile value by value:
    |value| descending, positive before negative, 0 last.  A non-zero
    value takes an exact count 0 .. h - 1, or h, which means "h or more"
    and makes the value free.  0 is never free, since h zeros contain a
    zero-sum of length h; it takes 0 .. h - 1 copies, or what is left
    when no value is free.  With length <= t, h = 0 caps nothing: no value
    is free, and every count is exact.

    The kernel rows of lengths <= h are carried along the branch as one
    packed int, extended one copy at a time (a node rebinds it, so nothing
    is copied); the rows saturate at h copies, so a free value is rows of
    h copies.  A branch is cut the moment it contains a zero-sum of length
    h, and once the free values and the values still to come cannot fill
    the remaining length and cancel the partial sum (a free value widens
    both bounds, and bounds every later value, whose |value| is smaller).
    At a leaf, with F and T the profile's length and sum counting each
    free value at h, every solution e >= 0 of sum(e_v) = length - F and
    sum(v * e_v) = -T over the free values is a leaf multiset.

    Negation maps [-k, k] onto itself and keeps every subsequence's length
    and sum, so s avoids t exactly when -s does, and the walk visits one
    sign of each pair of profiles: at the first a (from k down) whose
    capped count differs from that of -a, the count of a is the larger.
    While every pair fixed so far is tied, -a takes at most as many copies
    as a.  Negation maps the solutions of a profile onto those of its
    negation, so each leaf s is passed to ``on_leaf`` and then its mirror
    -s, or s alone when the profile is tied throughout.

    Nodes are counted on from ``nodes``, so a search made of several
    walks keeps one count for ``max_nodes``, the ``time.monotonic()``
    ``deadline`` (checked every 1024 nodes, and at every leaf solution)
    and ``progress(nodes)`` (every 65536).  Returns the count.  Raises
    :class:`_WalkCapped`, carrying the count so far, when ``max_nodes`` is
    exceeded or the deadline passed.
    """
    order = [v for a in range(k, 0, -1) for v in (a, -a)] + [0]
    last = len(order) - 1
    # Range of the values after index i; every remaining slot takes one.
    later_lo = [min(order[i + 1 :]) for i in range(last)]
    later_hi = [max(order[i + 1 :]) for i in range(last)]

    height = min(t, length - t) if length >= t else 0
    offset, stride, mask = _geometry(k, height)
    if length < t:
        mask = 0  # the empty table: it starts at 0, and no shift fills it
    zero_at_height = height * stride + offset
    # A count of ``cap`` makes a value free; with no rows, no count reaches it.
    cap = height or length + 1

    counts: dict[int, int] = {}
    free: list[int] = []

    checkpoint = 0  # the first node takes the slow path, which sets the next checkpoint

    def at_checkpoint() -> None:
        # The caps are read here only: at multiples of 1024 and at max_nodes + 1.
        nonlocal checkpoint
        if max_nodes is not None and nodes > max_nodes:
            raise _WalkCapped("node-limit", nodes - 1)
        if nodes % 1024 == 0:
            if deadline is not None and time.monotonic() > deadline:
                raise _WalkCapped("time-limit", nodes - 1)
            if progress is not None and nodes % 65536 == 0:
                progress(nodes)
        checkpoint = nodes - nodes % 1024 + 1024
        if max_nodes is not None and max_nodes < checkpoint:
            checkpoint = max_nodes + 1

    def descend(
        i: int, filled: int, total: int, packed: int, tied: bool, free_lo: int, free_hi: int
    ) -> None:
        nonlocal nodes
        nodes += 1
        if nodes >= checkpoint:
            at_checkpoint()
        value = order[i]
        left = length - filled
        if i == last:
            # With no value free the window one level up leaves one way to
            # finish, all that is left; otherwise 0 takes any count below cap.
            zeros = 0 if free else left
            packed = _add_up_to(packed, value, zeros, height, stride, mask)
            while not packed >> zero_at_height & 1:
                for extra in _extra_copies(free, left - zeros, -total):
                    if deadline is not None and time.monotonic() > deadline:
                        raise _WalkCapped("time-limit", nodes)
                    terms = {**counts, value: zeros}
                    for v, e in zip(free, extra):
                        terms[v] = cap + e
                    leaf = BoundedSequence.from_terms(terms, k)
                    on_leaf(leaf)
                    if not tied:
                        on_leaf(negate(leaf))
                if zeros == left:
                    break
                zeros += 1  # at most cap - 1 times: cap zeros contain
                packed |= packed << stride & mask
            return
        # A free value bounds every later one, whose |value| is smaller.
        lo = free_lo or later_lo[i]
        hi = free_hi or later_hi[i]
        # Sign cut: while every pair so far is tied, -a takes at most as many copies as a.
        partner = counts.get(-value, 0) if tied and value < 0 else None
        most = left if partner is None or partner > left else partner
        step = stride + value
        for copies in range(most + 1 if most < cap else cap):
            if copies:
                packed |= packed << step & mask  # one copy: the shift-or-mask of _add_up_to
                if packed >> zero_at_height & 1:
                    break  # now containing; more copies stay containing
                counts[value] = copies
            new_total = total + copies * value
            rest = left - copies
            # 0 is still to come, so lo <= 0 <= hi: each copy of a positive
            # value raises the low end, each of a negative one lowers the high end.
            if (new_total + rest * lo > 0) if value > 0 else (new_total + rest * hi < 0):
                break  # past the window; more copies stay past it
            if new_total + rest * lo <= 0 <= new_total + rest * hi:
                descend(
                    i + 1, filled + copies, new_total, packed,
                    tied and (value > 0 or copies == partner), free_lo, free_hi,
                )
        else:
            # Then the free copy, "cap or more": it widens the window on its own side.
            if most >= cap:
                packed |= packed << step & mask
                if not packed >> zero_at_height & 1:
                    counts[value] = cap
                    new_total = total + cap * value
                    rest = left - cap
                    if value > 0:
                        free_hi = hi = free_hi or value
                    else:
                        free_lo = lo = free_lo or value
                    if new_total + rest * lo <= 0 <= new_total + rest * hi:
                        free.append(value)
                        descend(
                            i + 1, filled + cap, new_total, packed,
                            tied and (value > 0 or cap == partner), free_lo, free_hi,
                        )
                        free.pop()
        counts.pop(value, None)

    descend(0, 0, 0, 1 << offset & mask, True, 0, 0)
    return nodes
