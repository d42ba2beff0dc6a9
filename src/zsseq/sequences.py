"""Core data model: finite integer multisets with a symmetric bound.

A sequence here is an unordered multiset of integers drawn from
[-bound, bound], stored as its bound and its (value, multiplicity) pairs
sorted by ascending value; ``multiplicity`` scans those pairs.  Order never
matters to any operation in this package, so two sequences are equal
exactly when their bounds and term maps agree.

Text grammar (whitespace ignored): ``term ("," term)*`` where
``term := integer ["^" positive-integer]``.  Repeated terms accumulate, so
``"1,1^2"`` parses to one entry ``1^3``.  An explicit ``^0`` is an error;
zero-multiplicity entries are never stored.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, fields, is_dataclass

from .errors import (
    SequenceBoundError,
    SequenceOverflowError,
    SequenceSyntaxError,
    SubsequenceError,
)

# Lengths are kept within a signed 64-bit machine word, including after
# scaling by the bound.
LENGTH_LIMIT = 2**63 - 1

_TERM_RE = re.compile(r"^([+-]?\d+)(?:\^(\d+))?$")
_INT_RE = re.compile(r"^[+-]?\d+$")


@dataclass(frozen=True)
class BoundedSequence:
    """Multiset of integers from [-bound, bound].

    It holds ``bound``, ``terms`` and the cached length, nothing else.
    ``terms`` must be a tuple of (value, multiplicity) pairs sorted by
    strictly ascending value with every multiplicity >= 1; use
    :meth:`from_terms`, the one place that adds up pairs sharing a value,
    to build one from unsorted or mapping-shaped input.
    """

    bound: int
    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise SequenceBoundError(f"bound must be a positive integer, got {self.bound}")
        total = 0
        prev = None
        for value, mult in self.terms:
            if abs(value) > self.bound:
                raise SequenceBoundError(f"value {value} outside [-{self.bound}, {self.bound}]")
            if mult < 1:
                raise SequenceBoundError(f"multiplicity for value {value} must be >= 1, got {mult}")
            if prev is not None and value <= prev:
                raise SequenceBoundError("terms must be sorted by strictly ascending value")
            prev = value
            total += mult
        if total > LENGTH_LIMIT or self.bound * total > LENGTH_LIMIT:
            raise SequenceOverflowError(
                f"length {total} with bound {self.bound} exceeds the 63-bit guard"
            )
        object.__setattr__(self, "_length", total)

    # -- construction -------------------------------------------------

    @classmethod
    def from_terms(
        cls,
        terms: Mapping[int, int] | Iterable[tuple[int, int]],
        bound: int | None = None,
    ) -> "BoundedSequence":
        """Build from a value->multiplicity mapping or (value, mult) pairs.

        Pairs with the same value accumulate; zero multiplicities are
        dropped; negative multiplicities are an error.  When ``bound`` is
        omitted it is inferred as max(1, max |value|).
        """
        acc: dict[int, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for value, mult in items:
            if mult < 0:
                raise SequenceBoundError(f"multiplicity for value {value} must be >= 0, got {mult}")
            if mult:
                acc[value] = acc.get(value, 0) + mult
        if bound is None:
            bound = max((abs(v) for v in acc), default=1)
            bound = max(bound, 1)
        return cls(bound, tuple(sorted(acc.items())))

    @classmethod
    def from_elements(cls, elements: Iterable[int], bound: int | None = None) -> "BoundedSequence":
        return cls.from_terms(Counter(elements), bound)

    # -- basic queries -------------------------------------------------

    @property
    def length(self) -> int:
        return self._length  # type: ignore[attr-defined]

    @property
    def sigma(self) -> int:
        return sum(value * mult for value, mult in self.terms)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(value for value, _ in self.terms)

    def multiplicity(self, value: int) -> int:
        return next((m for v, m in self.terms if v == value), 0)

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    def __str__(self) -> str:
        return format_sequence(self)

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "k": self.bound,
            "terms": [{"value": v, "mult": m} for v, m in self.terms],
        }


def to_json(value):
    """JSON-ready form of a result, the rule the results' ``to_json_dict`` share.

    A :class:`BoundedSequence` is written as ``{k, terms}``, any other
    dataclass as its fields by name, a tuple as a list, each part by this
    same rule; anything else is returned as it is.
    """
    if isinstance(value, BoundedSequence):
        return value.to_json_dict()
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    return value


def parse_sequence(text: str, bound: int | None = None) -> BoundedSequence:
    """Parse the text grammar; with ``bound`` given, values are checked against it."""
    stripped = re.sub(r"\s+", "", text)
    pairs: list[tuple[int, int]] = []
    if stripped:
        for part in stripped.split(","):
            m = _TERM_RE.match(part)
            if m is None:
                raise SequenceSyntaxError(f"bad term {part!r}")
            value = _int(m.group(1), part)
            mult = 1 if m.group(2) is None else _int(m.group(2), part)
            if mult == 0:
                raise SequenceSyntaxError(f"zero multiplicity in term {part!r}")
            pairs.append((value, mult))
    return BoundedSequence.from_terms(pairs, bound)


def parse_integers(text: str) -> list[int]:
    """Comma-separated integers in their given order; whitespace and empty parts are ignored."""
    values = []
    for part in re.sub(r"\s+", "", text).split(","):
        if part:
            if _INT_RE.match(part) is None:
                raise SequenceSyntaxError(f"bad term {part!r}")
            values.append(_int(part, part))
    return values


def _int(digits: str, part: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past Python's cap on the digits of one int conversion
        raise SequenceSyntaxError(f"too many digits in term {part[:20]}...") from None


def format_sequence(s: BoundedSequence) -> str:
    """Canonical text: ascending values, explicit multiplicities; empty -> ''."""
    return ",".join(f"{v}^{m}" for v, m in s.terms)


def concat(s: BoundedSequence, t: BoundedSequence) -> BoundedSequence:
    """Multiset union; the result carries the larger of the two bounds."""
    return BoundedSequence.from_terms([*s.terms, *t.terms], max(s.bound, t.bound))


def is_subsequence(t: BoundedSequence, s: BoundedSequence) -> bool:
    """True when every multiplicity of t is <= the matching one in s."""
    counts = dict(s.terms)
    return all(counts.get(value, 0) >= mult for value, mult in t.terms)


def remove(s: BoundedSequence, t: BoundedSequence) -> BoundedSequence:
    """Multiset difference s - t; t must be a subsequence of s."""
    if not is_subsequence(t, s):
        raise SubsequenceError("operand is not a subsequence; cannot remove")
    acc = dict(s.terms)
    for value, mult in t.terms:
        acc[value] -= mult
    return BoundedSequence.from_terms(acc, s.bound)


def negate(s: BoundedSequence) -> BoundedSequence:
    """Flip the sign of every value."""
    return BoundedSequence(s.bound, tuple((-v, m) for v, m in reversed(s.terms)))


def repeat(s: BoundedSequence, count: int) -> BoundedSequence:
    """Concatenation of ``count`` copies of s."""
    if count < 0:
        raise SequenceBoundError(f"repeat count must be >= 0, got {count}")
    return BoundedSequence.from_terms({v: m * count for v, m in s.terms}, s.bound)
