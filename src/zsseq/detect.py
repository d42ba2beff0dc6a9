"""Exact-length zero-sum subsequence detection.

The kernel answers "does s contain a subsequence of length t summing to
zero?" (and more generally, which (length, sum) pairs are achievable) by a
layered dynamic program over the distinct values of s:

* State space: pairs (j, sigma) with 0 <= j <= c (the table height) and
  -L <= sigma <= H, where L totals |value| over the negative elements
  among the c smallest of s and H the positive elements among the c
  largest: every subsequence of at most c elements sums into [-L, H], and
  both ends are reached.  All rows are packed into one Python int: row j
  starts at bit j * stride, and (j, sigma) is bit j * stride + sigma +
  offset, where offset = L, width = L + H + 1 and stride = width + pad.
  The window never loses genuine states, and a value prefix of s, whose
  sums lie inside it, is tabled in the same window.

* The pad bits on top of each row keep rows apart: pad = |u| when the
  smallest value u of s is negative, and pad = 0 otherwise, so each
  shift by stride + v moves up, even at c = 0.  A state pushed e >= 1
  rows past row c has c + e elements, so a sum of at least -L - e * pad:
  it borrows into row c's pad, never into its window, and the next shift
  carries it past the mask; without the pad it would land in row c's
  window as a false state.  The pad follows the values, not the bound,
  so for c >= 1 it is never wider than the window.  Rows below c never
  get a pad bit, and no query reads one.

* Complement queries: for any multiset s of length n, removing a
  subsequence of length j and sum sigma leaves one of length n - j and sum
  sigma(s) - sigma, so (j, sigma) is reachable exactly when
  (n - j, sigma(s) - sigma) is.  A table of height c therefore answers
  every length in [0, c] and in [n - c, n], and refuses one in between; a
  query for length t needs height min(t, n - t) only.  The identity holds
  for every value prefix of s too, which is what lets witnesses be
  recovered from the short side.

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
  height would give.  Taking c copies of v back from (j, sigma) lands on
  bit j * stride + sigma + offset - c * (stride + v): every count of one
  value lies on one diagonal, spaced by the step the build shifted by.
  So a value with many candidate counts is read with one shift and a
  comb, and a witness costs at most 4 shifts of a snapshot per value
  walked; the walk stops at the value where no copies are left to take.

The memory a build holds is estimated up front, as the table-sized ints
live at its peak (the snapshots, the running int, the mask and one
shift-or-mask's temporaries), each sized by CPython's int layout; if it
would exceed the configured cap the build is refused with
:class:`~zsseq.errors.ResourceLimitError` rather than degrading.  The cap
bounds the build only: the ``rows`` and ``layers`` views, decoded later on
first use (``rows`` by :meth:`LengthSumTable.achievable_pairs`), are
outside it.

For cross-checking, :func:`brute_force_pairs` builds the (length, sum)
pairs as plain sets of tuples, one value at a time and every copy count at
once, and never touches the bitset code path; tests and ``selftest``
compare the two routes.

Every exhaustive walk over zero-sum multisets in [-k, k] goes through one
walker, :func:`_walk_zero_sum`, whose leaves are the multisets that avoid
a length t: it carries a packed kernel table along each branch to test
that.  :func:`iter_zero_sum_sequences` is its walk with the empty table.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import gcd
from typing import Iterator

from .errors import CrossCheckError, PreconditionError, ResourceLimitError
from .sequences import BoundedSequence, negate

#: Default cap on the estimated bytes a table build holds (1 GiB).
DEFAULT_MEMORY_LIMIT = 1 << 30

#: Largest k a walk accepts: it recurses 2k + 1 deep, within Python's default limit of 1000.
WALK_MAX_K = 400

# An int of b bits takes a fixed part, then ceil(b / _DIGIT_BITS) digits of _DIGIT_BYTES each.
_DIGIT_BITS, _DIGIT_BYTES = sys.int_info[:2]
# The fixed part: the int's header, and 3 pointers for a snapshot's 2 slots, one in the list
# that collects them (which over-allocates by an eighth) and one in the table's tuple.
_INT_FIXED = sys.getsizeof(1) - _DIGIT_BYTES + 3 * (sys.getsizeof((None,)) - sys.getsizeof(()))
# The table object, the headers of its snapshot list and tuple, and the small ints of a build.
_TABLE_ALLOWANCE = 2048


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
    bits, the sums from -``offset`` up that subsequences of at most
    ``max_length`` elements of the source can reach, plus
    ``stride - width`` pad bits, which only row ``max_length`` can
    have set and no query reads; the ``layers`` keep this window.  Longer
    lengths down to n - ``max_length`` are answered through the
    complement, using sigma(source).  ``snapshots`` holds the packed int
    after each distinct value (needed for witness recovery); it is empty
    when the table was built with ``keep_layers=False``.  ``rows`` decodes
    ``packed`` one row per int, on first use.
    """

    source: BoundedSequence
    max_length: int
    offset: int
    width: int
    stride: int
    # Left out of repr: a packed int past 4,300 digits cannot be printed.
    packed: int = field(repr=False)
    snapshots: tuple[int, ...] = field(repr=False)

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """``rows[j]`` has bit sigma + offset set iff (j, sigma) is reachable, j <= max_length."""
        window = (1 << self.width) - 1
        return tuple(self.packed >> j * self.stride & window for j in range(self.max_length + 1))

    @cached_property
    def layers(self) -> tuple[LengthSumTable, ...]:
        """``layers[i]`` is the table of the value prefix ``terms[:i + 1]``, at this height."""
        terms, bound = self.source.terms, self.source.bound
        return tuple(
            replace(
                self,
                source=BoundedSequence(bound, terms[: i + 1]),
                packed=packed,
                snapshots=self.snapshots[: i + 1],
            )
            for i, packed in enumerate(self.snapshots)
        )

    def reachable(self, length: int, total: int = 0) -> bool:
        """(length, total) reached?  A length between the table's two sides is refused."""
        n, c = self.source.length, self.max_length
        if not 0 <= length <= n:
            return False
        if length > c:
            if length < n - c:
                raise PreconditionError(f"length {length} is not held by a table of height {c}")
            length, total = n - length, self.source.sigma - total
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
        """Every length of a zero-sum subsequence; the table must hold every length directly."""
        if self.max_length < self.source.length:
            raise PreconditionError("zero_sum_lengths needs a table as tall as its source")
        # One linear conversion, then a byte lookup per row: shifting the
        # whole int once per row would cost rows x size.
        data = self.packed.to_bytes(((self.max_length + 1) * self.stride + 7) // 8, "little")
        zero_bits = range(self.offset, (self.max_length + 1) * self.stride, self.stride)
        return frozenset(j for j, pos in enumerate(zero_bits) if data[pos >> 3] >> (pos & 7) & 1)

    def witness(self, length: int, total: int = 0) -> BoundedSequence | None:
        """Recover one subsequence achieving (length, total), or None.

        A table built without layers, and a length the table does not
        hold, are refused (the latter as by :meth:`reachable`).  Walks the
        snapshots backwards, taking the smallest feasible copy count of
        each value, which makes the result deterministic.  A length above
        ``max_length`` walks the complement target with the largest
        feasible count first and keeps the copies left over, which is the
        multiset the smallest-first walk of a taller table returns.

        The counts of one value lie on one diagonal of its snapshot, bit
        (j - c) * ``stride`` + sigma - c * value + ``offset`` for c copies,
        and the counts whose sum stays in the window are 0 .. hi.  When at
        most 3 copies can be taken, each count is tested with one shift;
        otherwise one shift and a comb of hi + 1 bits ``stride`` + value
        apart, built by doubling, read them all: the top hit is the
        smallest count and the lowest hit the largest.  So each value costs
        at most 4 shifts of a snapshot, plus O(log hi) of the smaller comb,
        instead of one shift of the snapshot per count tried.  Once no
        copies are left to take, the values not walked take none (keep
        all, on the mirrored side), and the sum must be 0.
        """
        if len(self.snapshots) != len(self.source.terms):
            raise PreconditionError("table was built without layers; witnesses unavailable")
        if not self.reachable(length, total):
            return None
        mirrored = length > self.max_length
        if mirrored:
            length, total = self.source.length - length, self.source.sigma - total
        taken: list[tuple[int, int]] = []  # (value, copies) from the largest value down
        j, sigma = length, total
        offset, width, stride, terms = self.offset, self.width, self.stride, self.source.terms
        i = len(terms)
        while i and j:  # at j = 0 every value left takes no copies
            i -= 1
            value, mult = terms[i]
            prev = self.snapshots[i - 1] if i else 1 << offset
            most = mult if mult < j else j
            if most <= 3:  # a few counts: test each, one shift apiece
                tries = range(most + 1)
                for copies in reversed(tries) if mirrored else tries:
                    pos = sigma - copies * value + offset
                    if 0 <= pos < width and prev >> (j - copies) * stride + pos & 1:
                        break
                else:
                    copies = -1
            else:  # one shift reads every count off the diagonal, through a comb
                # Count c is bit top - c * step, read by tooth hi - c of the comb.
                top, step, hi = j * stride + sigma + offset, stride + value, most
                if value > 0:
                    hi = min(hi, (sigma + offset) // value)
                elif value < 0:
                    hi = min(hi, (width - 1 - sigma - offset) // -value)
                comb, teeth = 1, 1
                while teeth <= hi:
                    comb |= comb << teeth * step
                    teeth <<= 1
                hits = prev >> top - hi * step & comb >> (teeth - 1 - hi) * step
                hit = hits & -hits if mirrored else hits  # read at its top bit
                copies = hi - (hit.bit_length() - 1) // step if hits else -1
            if copies < 0:
                raise CrossCheckError(f"witness backtracking lost a reachable state at value {value}")
            kept = mult - copies if mirrored else copies
            if kept:
                taken.append((value, kept))
            j -= copies
            sigma -= copies * value
        if j or sigma:
            raise CrossCheckError(f"witness backtracking ended at ({j}, {sigma}), not (0, 0)")
        if mirrored:  # the values not walked keep every copy
            taken.extend(reversed(terms[:i]))
        return BoundedSequence(self.source.bound, tuple(reversed(taken)))


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


def _layout(s: BoundedSequence, height: int) -> tuple[int, int, int]:
    """(offset, width, stride) of rows 0..height over s: the module docstring's layout.

    The window is [-low, high]: ``low`` totals |value| over the negative
    elements among the ``height`` smallest of s, ``high`` the positive
    elements among the ``height`` largest, found in one pass from each end
    of the sorted terms that stops after ``height`` elements.  The pad is
    |u| when the smallest value u of s is negative, and empty otherwise.
    The walker lays out its rows here too.  The mask, (height + 1) * stride
    bits, is left to the callers, so ``build_table`` makes it after its memory check.
    """
    low, left = 0, height
    for value, mult in s.terms:
        if value >= 0 or not left:
            break
        take = mult if mult < left else left
        low -= take * value
        left -= take
    high, left = 0, height
    for value, mult in reversed(s.terms):
        if value <= 0 or not left:
            break
        take = mult if mult < left else left
        high += take * value
        left -= take
    width = low + high + 1
    return low, width, width - min(s.terms[0][0], 0) if s.terms else width


def _table_bytes(stride: int, height: int, values: int, keep_layers: bool) -> int:
    """Bytes live at the peak of a build over ``values`` distinct values, rows 0..height.

    The peak comes while :func:`_add_up_to` adds the last value, and no int
    live then is wider than two tables of (height + 1) * ``stride`` bits.
    They are: with layers, the snapshots of the values before it, the last
    of them the caller's int from before the value (without layers, that
    int alone); the running int; ``mask``; the shift ``packed << w *
    (stride + value)``, counted as 2 tables, since a binary chunk w is at
    most (height + 1) / 2 rows and w * value at most a row's width; and
    the masked copy of that shift.  So d + 4 ints with layers, 2 + 4
    without.
    """
    int_bytes = _INT_FIXED + -(-(height + 1) * stride // _DIGIT_BITS) * _DIGIT_BYTES
    return ((values if keep_layers else 2) + 4) * int_bytes + _TABLE_ALLOWANCE


def estimate_table_bytes(s: BoundedSequence, max_length: int) -> int:
    """Estimated peak bytes of ``build_table(s, max_length)``, the bound its memory cap checks.

    It counts the ints the build holds, its snapshots and the temporaries
    of one shift-or-mask, not the ``rows`` view that
    :meth:`LengthSumTable.achievable_pairs` decodes later, outside the cap.
    """
    return _table_bytes(_layout(s, max_length)[2], max_length, len(s.terms), True)


def build_table(
    s: BoundedSequence,
    max_length: int,
    memory_limit: int = DEFAULT_MEMORY_LIMIT,
    keep_layers: bool = True,
) -> LengthSumTable:
    """Reachability table of height max_length: lengths <= max_length and >= |s| - max_length."""
    if max_length < 0:
        raise PreconditionError(f"max_length must be >= 0, got {max_length}")
    offset, width, stride = _layout(s, max_length)
    estimate = _table_bytes(stride, max_length, len(s.terms), keep_layers)
    if estimate > memory_limit:
        raise ResourceLimitError(
            f"table estimate {estimate} bytes exceeds the {memory_limit}-byte cap"
        )
    mask = (1 << (max_length + 1) * stride) - 1
    packed = 1 << offset
    snapshots: list[int] = []
    for value, mult in s.terms:
        packed = _add_up_to(packed, value, mult, max_length, stride, mask)
        if keep_layers:
            snapshots.append(packed)
    return LengthSumTable(s, max_length, offset, width, stride, packed, tuple(snapshots))


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


def is_t_avoiding(s: BoundedSequence, t: int) -> bool:
    """True iff s has no zero-sum subsequence of length exactly t."""
    return find_zero_sum_of_length(s, t) is None


def spectrum(s: BoundedSequence, memory_limit: int = DEFAULT_MEMORY_LIMIT) -> Spectrum:
    """All lengths of zero-sum subsequences of s (always contains 0)."""
    table = build_table(s, s.length, memory_limit=memory_limit, keep_layers=False)
    return Spectrum(table.zero_sum_lengths())


# -- independent oracle (no bitsets, plain sets) -----------------------


def brute_force_pairs(s: BoundedSequence) -> frozenset[tuple[int, int]]:
    """All (length, sum) pairs over subsequences of s, as plain tuples, one value at a time.

    Starts from {(0, 0)} and, for each value v with multiplicity m, takes
    pairs(P + v^m) = {(l + c, sigma + c * v) : (l, sigma) in pairs(P),
    0 <= c <= m}.  Every count c is taken directly: no height cap, no
    binary chunks and no complement reading, and nothing here touches the
    bitset kernel, so the two routes check each other.
    """
    pairs = {(0, 0)}
    for value, mult in s.terms:
        pairs = {
            (length + c, total + c * value) for c in range(mult + 1) for length, total in pairs
        }
    return frozenset(pairs)


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


def _extra_copies(
    values: list[int], length: int, total: int, deadline: float | None = None, nodes: int = 0
) -> Iterator[tuple[int, ...]]:
    """Every e >= 0 over ``values`` with sum(e) == ``length`` and sum(v * e_v) == ``total``.

    All but the last two values are enumerated, each over the range that
    leaves the rest a real solution; the last two then have at most one
    solution, in closed form.  ``values`` are distinct; with none, the one
    solution is () when ``length`` and ``total`` are both 0.  A call that
    enumerates reads the ``time.monotonic()`` ``deadline`` first, at every
    depth, so a solve that finds nothing still stops once it has passed:
    it raises :class:`_WalkCapped` with the walk's count ``nodes``.

    Then it returns at once when no solution can exist by residues: with
    v the first value, any solution has sum((u - v) * e_u) == total -
    v * length over the rest, so gcd(u - v) must divide the right side.
    In the walk at (k, length, t) = (5, 2530, 2520), 142 of the 144 calls
    that enumerate end here.  A total outside [min(values) * length,
    max(values) * length] needs no test of its own: the range of e below
    is then empty, and it is what keeps every deeper call's total in range.
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
    if deadline is not None and time.monotonic() > deadline:
        raise _WalkCapped("time-limit", nodes)
    v, rest = values[0], values[1:]
    if (total - v * length) % gcd(*(u - v for u in rest)):
        return
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
        for tail in _extra_copies(rest, length - e, total - e * v, deadline, nodes):
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
    avoids h = min(t, length - t).  m copies of v in a zero-sum piece of
    length h need the other h - m elements, each of |value| <= k, to
    cancel m * v, so m <= m_v = k * h // (k + |v|), and some zero-sum
    multiset of length h reaches m_v.  So avoidance depends only on the
    capped profile c_v = min(mult_v, m_v).  m_0 = h, and v and -v share
    a cap.  The walk's one state, ``profile``, is the count fixed at each
    position of k, -k, k - 1, ..., 1, -1, 0, and ``vcap`` holds the cap of
    each position, floored at 1: at h = 1 every m_v with v != 0 is 0, and
    such a value takes 0 or "1 or more".  A non-zero value takes an exact
    count 0 .. cap - 1, or last its cap, "cap or more", which makes it
    free: the free values are the positions holding their cap.  0, last,
    takes its counts in the same loop, but never its cap m_0 = h, since h
    zeros contain a zero-sum of length h.  With length <= t, h = 0 caps no
    non-zero value, and every such count is exact.  At length == t, 0's
    count is exact too; below t the table is empty, 0's cap is 0, and 0 is
    free from the start.

    The kernel rows of lengths <= h are carried along the branch as one
    packed int, extended one copy at a time (a node rebinds it, so nothing
    is copied); a free value enters them with its cap's copies, which row
    h's zero-sum bit cannot tell from more.  They take :func:`_layout`'s
    window for length + 1 copies each of -k and k, which bounds every
    walk: offset k * h, stride 2kh + 1 + k.  A branch is cut the moment it
    contains a zero-sum of length h, and once the free values and the
    values still to come cannot fill the remaining length and cancel the
    partial sum.  The values after a span [-a, a - 1], and those after -a
    span [1 - a, a - 1]; a free value widens that window on its own side,
    and bounds every later value, whose |value| is smaller.  Each count
    of 0 is solved at once:
    with F and T the profile's length and sum counting each free value at
    its cap, every solution e >= 0 of sum(e_v) = length - F and
    sum(v * e_v) = -T over the free values is a leaf multiset.  With no
    value free, only the count of 0 that fills the length has one.

    Negation maps [-k, k] onto itself and keeps every subsequence's length
    and sum, so s avoids t exactly when -s does, and the walk visits one
    sign of each pair of profiles: at the first a (from k down) whose
    capped count differs from that of -a, the count of a is the larger.
    While every pair fixed so far is tied, -a takes at most the count of
    a, one position back.  Negation maps the solutions of a profile onto its
    negation's, so each leaf s is passed to ``on_leaf`` and then its mirror
    -s, or s alone when the profile is tied throughout.

    Nodes are counted on from ``nodes``, so a search made of several
    walks keeps one count for ``max_nodes``, the ``time.monotonic()``
    ``deadline`` and ``progress(nodes)``.  One block reads them, at each
    count that is a multiple of 1024 and at ``max_nodes`` + 1 (at the
    first node if ``nodes`` starts past ``max_nodes``): the node cap
    first, so a node that both reach stops on the cap, then the clock,
    then progress, at multiples of 65536.  The clock is read again at
    every leaf solution and at each depth a leaf solve enumerates.
    Returns the count.  Raises :class:`_WalkCapped`, carrying the count
    so far, when ``max_nodes`` is exceeded or the deadline passed, and
    :class:`PreconditionError` for k above :data:`WALK_MAX_K`.
    """
    if k > WALK_MAX_K:
        raise PreconditionError(f"k must be <= {WALK_MAX_K} for an exhaustive walk, got {k}")
    order = [v for a in range(k, 0, -1) for v in (a, -a)] + [0]
    last = len(order) - 1

    height = min(t, length - t) if length >= t else 0
    offset, _, stride = _layout(BoundedSequence(k, ((-k, length + 1), (k, length + 1))), height)
    mask = (1 << (height + 1) * stride) - 1
    zero_at_height = height * stride + offset
    # A count of ``vcap[i]`` makes the value at i free; with no rows, no non-zero count reaches it.
    vcap = [max(k * height // (k + abs(v)), 1) if height else length + 1 for v in order]
    if length < t:
        mask = 0  # the empty table: it starts at 0, and no shift fills it
        vcap[last] = 0  # so 0 is free from the start, and one solve gives it the rest
    # The count fixed at each position of ``order``; 0 past the current node.
    profile = [0] * len(order)

    stop = max_nodes + 1 if max_nodes is not None else sys.maxsize

    def descend(
        i: int, left: int, total: int, packed: int, tied: bool, free_lo: int, free_hi: int
    ) -> None:
        nonlocal nodes
        nodes += 1
        if not nodes & 1023 or nodes >= stop:
            if nodes >= stop:
                raise _WalkCapped("node-limit", nodes - 1)
            if deadline is not None and time.monotonic() > deadline:
                raise _WalkCapped("time-limit", nodes - 1)
            if progress is not None and not nodes & 65535:
                progress(nodes)
        value = order[i]
        leaf = i == last
        if leaf:  # 0's position: each of its counts is solved for the free values
            free = [v for v, c, m in zip(order, profile, vcap) if c == m]
        # The window of the later values, unless a free value bounds it.
        lo = free_lo or (-value if value > 0 else value + 1)
        hi = free_hi or abs(value) - 1
        # Sign cut: while every pair so far is tied, -a (right after a) takes at most a's count.
        partner = profile[i - 1] if tied and value < 0 else None
        most = left if partner is None or partner > left else partner
        cap = vcap[i]
        if most > cap:
            most = cap
        step = stride + value
        # Counts 0 .. cap - 1 are exact; the last, cap, is the free copy "cap or more".
        for copies in range(most + 1):
            if copies:
                packed |= packed << step & mask  # one copy: the shift-or-mask of _add_up_to
                if packed >> zero_at_height & 1:
                    break  # now containing; more copies stay containing
                profile[i] = copies
                if copies == cap:  # now free
                    if value > 0:
                        free_hi = hi = free_hi or value
                    else:
                        free_lo = lo = free_lo or value
            new_total = total + copies * value
            rest = left - copies
            if leaf:
                for extra in _extra_copies(free, rest, -new_total, deadline, nodes):
                    if deadline is not None and time.monotonic() > deadline:
                        raise _WalkCapped("time-limit", nodes)
                    # from_terms drops zero counts and adds each extra to its value's cap.
                    s = BoundedSequence.from_terms([*zip(order, profile), *zip(free, extra)], k)
                    on_leaf(s)
                    if not tied:
                        on_leaf(negate(s))
                continue
            # 0 is still to come, so lo <= 0 <= hi: each copy of a positive
            # value raises the low end, each of a negative one lowers the high end.
            if (new_total + rest * lo > 0) if value > 0 else (new_total + rest * hi < 0):
                break  # past the window; more copies stay past it
            if new_total + rest * lo <= 0 <= new_total + rest * hi:
                descend(
                    i + 1, rest, new_total, packed,
                    tied and (value > 0 or copies == partner), free_lo, free_hi,
                )
        profile[i] = 0

    descend(0, length, 0, 1 << offset & mask, True, 0, 0)
    return nodes
