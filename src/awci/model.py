"""Shared domain types: interned alphabet, indeterminate strings, intervals, parameters.

All positions are 1-based in public interfaces. Every object here is immutable
after construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, repeat
from typing import Iterable, Iterator, Sequence


class AwciError(Exception):
    """Base class for all library errors."""


class FormatError(AwciError):
    """Malformed textual input (labels, files)."""


class ValidationError(AwciError):
    """Structurally invalid value (empty position set, bad break, bad params)."""


class UnsupportedError(ValidationError):
    """Operation outside the supported comparison model (e.g. same-string pair)."""


class RangeError(AwciError):
    """Position or interval outside the valid range of a string."""


class ResourceLimitError(AwciError):
    """A configured enumeration guard was exceeded."""


class Alphabet:
    """Bijection between external character labels and dense integer ids."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._labels: list[str] = []

    def intern_sets(self, label_sets: Sequence[Sequence[str]]) -> list[frozenset[int]]:
        """The id set of each label sequence; new labels get the next dense ids
        in first-seen order. Each distinct label is looked up once to find the
        new ones, then each occurrence once to read its id."""
        ids = self._ids
        fresh = [l for l in dict.fromkeys(chain.from_iterable(label_sets)) if l not in ids]
        if "" in fresh:
            raise FormatError("empty character label")
        ids.update(zip(fresh, count(len(self._labels))))
        self._labels.extend(fresh)
        return [frozenset(map(ids.__getitem__, labels)) for labels in label_sets]

    def label(self, cid: int) -> str:
        return self._labels[cid]


class IndeterminateString:
    """A sequence of non-empty character-id sets with explicit contig boundaries.

    `contig_breaks` holds positions p meaning a boundary lies between p and p+1.
    Intervals never straddle a boundary.
    """

    __slots__ = ("id", "positions", "contig_breaks", "_contigs", "_contig_of")

    def __init__(self, id: str, positions: Sequence[frozenset[int]],
                 contig_breaks: Iterable[int] = ()) -> None:
        if not id:
            raise ValidationError("string id must be non-empty")
        # frozenset() hands back a frozenset argument itself, so only other
        # iterables are copied
        positions = tuple(map(frozenset, positions))
        if not positions:
            raise ValidationError(f"string {id!r} has no positions")
        if not all(positions):
            idx = positions.index(frozenset())
            raise ValidationError(f"string {id!r}: empty set at position {idx + 1}")
        breaks = frozenset(int(b) for b in contig_breaks)
        n = len(positions)
        for b in breaks:
            if not 1 <= b <= n - 1:
                raise ValidationError(f"string {id!r}: contig break {b} out of range [1, {n - 1}]")
        self.id = id
        self.positions = positions
        self.contig_breaks = breaks
        # one shared (first, last) tuple per contig, and per position (index
        # p - 1) a reference to its contig's tuple
        starts = [1] + [b + 1 for b in sorted(breaks)]
        ends = [s - 1 for s in starts[1:]] + [n]
        self._contigs = tuple(zip(starts, ends))
        self._contig_of = tuple(chain.from_iterable(
            repeat(c, c[1] - c[0] + 1) for c in self._contigs))

    def __len__(self) -> int:
        return len(self.positions)

    def at(self, i: int) -> frozenset[int]:
        """Character set at 1-based position i."""
        if not 1 <= i <= len(self.positions):
            raise RangeError(f"string {self.id!r}: position {i} out of range")
        return self.positions[i - 1]

    def char_set(self, i: int, j: int) -> frozenset[int]:
        """Union of the sets at positions i..j."""
        if i > j or i < 1 or j > len(self.positions):
            raise RangeError(f"string {self.id!r}: invalid interval [{i}, {j}]")
        return frozenset().union(*self.positions[i - 1:j])

    def contig_bounds(self, p: int) -> tuple[int, int]:
        """(first, last) position of the contig containing position p."""
        if not 1 <= p <= len(self.positions):
            raise RangeError(f"string {self.id!r}: position {p} out of range")
        return self._contig_of[p - 1]

    def intervals(self) -> Iterator[tuple[int, int]]:
        """All valid (i, j) intervals, contig by contig."""
        for lo, hi in self._contigs:
            for i in range(lo, hi + 1):
                for j in range(i, hi + 1):
                    yield i, j

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndeterminateString):
            return NotImplemented
        return (self.id == other.id and self.positions == other.positions
                and self.contig_breaks == other.contig_breaks)

    def __hash__(self) -> int:
        return hash((self.id, self.positions, self.contig_breaks))

    def __repr__(self) -> str:
        return f"IndeterminateString({self.id!r}, n={len(self)})"


def build_string(alphabet: Alphabet, id: str, label_sets: Sequence[Iterable[str]],
                 contig_breaks: Iterable[int] = ()) -> IndeterminateString:
    """Intern labels and construct a validated IndeterminateString."""
    label_sets = list(map(list, label_sets))
    if not all(label_sets):
        idx = label_sets.index([])
        raise ValidationError(f"string {id!r}: empty set at position {idx + 1}")
    return IndeterminateString(id, alphabet.intern_sets(label_sets), contig_breaks)


@dataclass(frozen=True, order=True)
class AnchoredInterval:
    """An interval [i, j] (inclusive, 1-based) anchored to one string."""
    string_id: str
    i: int
    j: int

    def __post_init__(self) -> None:
        if not 1 <= self.i <= self.j:
            raise ValidationError(f"invalid interval [{self.i}, {self.j}]")

    @property
    def length(self) -> int:
        return self.j - self.i + 1

    def __str__(self) -> str:
        return f"{self.string_id}:{self.i}-{self.j}"


@dataclass(frozen=True)
class AwciPair:
    """A reported interval pair; `left` is always on the lower-indexed string."""
    left: AnchoredInterval
    right: AnchoredInterval
    common_size: int  # characters shared by `left` and `right`
    indel_total: int
    size_left: int   # non-indel positions in `left`
    size_right: int  # non-indel positions in `right`


@dataclass(frozen=True)
class AwciSet:
    """A closed set of pairwise-AWCI intervals, one per string."""
    members: tuple[AnchoredInterval, ...]


class Dataset:
    """An ordered collection of indeterminate strings over one shared alphabet."""

    def __init__(self, strings: Sequence[IndeterminateString], alphabet: Alphabet) -> None:
        ids = [s.id for s in strings]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate string ids in dataset")
        self.strings = tuple(strings)
        self.alphabet = alphabet
        self._index = {s.id: k for k, s in enumerate(self.strings)}

    def __len__(self) -> int:
        return len(self.strings)

    def __iter__(self) -> Iterator[IndeterminateString]:
        return iter(self.strings)

    def __getitem__(self, key: int | str) -> IndeterminateString:
        if isinstance(key, str):
            return self.strings[self._index[key]]
        return self.strings[key]

    def index_of(self, string_id: str) -> int:
        return self._index[string_id]

    def check_interval(self, interval: AnchoredInterval) -> None:
        s = self[interval.string_id]
        if interval.j > len(s):
            raise RangeError(f"{interval} exceeds |{s.id}| = {len(s)}")
        if s.contig_bounds(interval.i) != s.contig_bounds(interval.j):
            raise ValidationError(f"{interval} straddles a contig break")

    def sort_key(self, interval: AnchoredInterval) -> tuple[int, int, int]:
        return (self._index[interval.string_id], interval.i, interval.j)


@dataclass(frozen=True)
class SearchParams:
    """Search parameters: indel budget, quorum, minimum interval size.

    `min_size` is the minimum length of each interval of a reported pair.
    """
    delta: int = 0
    quorum: int = 2
    min_size: int = 0

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValidationError("delta must be >= 0")
        if self.quorum < 2:
            raise ValidationError("quorum must be >= 2")
        if self.min_size < 0:
            raise ValidationError("min_size must be >= 0")
