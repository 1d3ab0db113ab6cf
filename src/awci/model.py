"""Shared domain types: interned alphabet, indeterminate strings, intervals, parameters.

All positions are 1-based in public interfaces. Every object here is immutable
after construction.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import not_
from typing import Iterable, Iterator, NamedTuple, Sequence


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

    def intern_sets(self, label_sets: Iterable[Iterable[str]]) -> list[frozenset[int]]:
        """The id set of each group of labels, read once; new labels get the
        next dense ids in first-seen order, at one dict lookup per occurrence.
        An empty label raises FormatError; the labels before it stay interned."""
        ids, names = self._ids, self._labels
        out = []
        for labels in label_sets:
            cs = []
            for l in labels:
                if (c := ids.get(l)) is None:
                    if not l:
                        raise FormatError("empty character label")
                    c = ids[l] = len(names)
                    names.append(l)
                cs.append(c)
            out.append(frozenset(cs))
        return out

    def label(self, cid: int) -> str:
        return self._labels[cid]


class IndeterminateString:
    """A sequence of non-empty character-id sets with explicit contig boundaries.

    The id is non-empty and holds no whitespace, which the pairs and sets
    output formats use as a delimiter.

    `contig_breaks` holds positions p meaning a boundary lies between p and p+1.
    Intervals never straddle a boundary. `contig_of[p]` is the (first, last)
    position of p's contig, one tuple per contig (1-based p; index 0 holds an
    unused None); `contig_bounds` reads it after a range check.
    """

    __slots__ = ("id", "positions", "contig_breaks", "contig_of")

    def __init__(self, id: str, positions: Sequence[frozenset[int]],
                 contig_breaks: Iterable[int] = ()) -> None:
        if not id:
            raise ValidationError("string id must be non-empty")
        if id.split() != [id]:
            # the pairs and sets output formats delimit ids with whitespace
            raise ValidationError(f"string id {id!r} holds whitespace")
        # frozenset() hands back a frozenset argument itself, so only other
        # iterables are copied
        positions = tuple(map(frozenset, positions))
        if not positions:
            raise ValidationError(f"string {id!r} has no positions")
        if not all(positions):
            idx = positions.index(frozenset())
            raise ValidationError(f"string {id!r}: empty set at position {idx + 1}")
        breaks = tuple(contig_breaks)
        n = len(positions)
        for b in breaks:
            if type(b) is not int:  # bool too; int() would read 1.7 or "2" silently
                raise ValidationError(f"string {id!r}: contig break {b!r} is not an int")
            if not 1 <= b <= n - 1:
                raise ValidationError(f"string {id!r}: contig break {b} out of range [1, {n - 1}]")
        self.id = id
        self.positions = positions
        self.contig_breaks = frozenset(breaks)
        starts = [1] + [b + 1 for b in sorted(self.contig_breaks)]
        ends = [s - 1 for s in starts[1:]] + [n]
        self.contig_of = (None, *chain.from_iterable(
            repeat(c, c[1] - c[0] + 1) for c in zip(starts, ends)))

    def __len__(self) -> int:
        return len(self.positions)

    def contig_bounds(self, p: int) -> tuple[int, int]:
        """(first, last) position of the contig containing position p."""
        if not 1 <= p <= len(self.positions):
            raise RangeError(f"string {self.id!r}: position {p} out of range")
        return self.contig_of[p]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndeterminateString):
            return NotImplemented
        return (self.id == other.id and self.positions == other.positions
                and self.contig_breaks == other.contig_breaks)

    def __hash__(self) -> int:
        return hash((self.id, self.positions, self.contig_breaks))

    def __repr__(self) -> str:
        return f"IndeterminateString({self.id!r}, n={len(self)})"


def build_string(alphabet: Alphabet, id: str, label_sets: Iterable[Iterable[str]],
                 contig_breaks: Iterable[int] = ()) -> IndeterminateString:
    """Intern labels and construct a validated IndeterminateString; the label
    groups go to `Alphabet.intern_sets` as they are, without a copy."""
    return IndeterminateString(id, alphabet.intern_sets(label_sets), contig_breaks)


class AnchoredInterval(namedtuple("AnchoredInterval", "string_id i j")):
    """An interval [i, j] (inclusive, 1-based) anchored to one string, as the
    tuple (string_id, i, j), whose hash, equality and order it keeps."""
    __slots__ = ()

    def __new__(cls, string_id: str, i: int, j: int) -> AnchoredInterval:
        if not 1 <= i <= j:
            raise ValidationError(f"invalid interval [{i}, {j}]")
        return tuple.__new__(cls, (string_id, i, j))

    @property
    def length(self) -> int:
        return self.j - self.i + 1

    def __str__(self) -> str:
        return f"{self.string_id}:{self.i}-{self.j}"


class AwciPair(NamedTuple):
    """A reported interval pair (a tuple); `left` is always on the lower-indexed string."""
    left: AnchoredInterval
    right: AnchoredInterval
    common_size: int  # characters shared by `left` and `right`
    indel_total: int
    size_left: int   # non-indel positions in `left`
    size_right: int  # non-indel positions in `right`


class AwciSet(NamedTuple):
    """A closed set of pairwise-AWCI intervals, one per string (a tuple)."""
    members: tuple[AnchoredInterval, ...]


class Dataset:
    """An ordered collection of indeterminate strings over one shared alphabet.

    `shared_masks[x][p]` is S_x[p] (1-based p; index 0 holds an unused 0)
    restricted to the *shared* characters, those held by at least two
    strings, as one int with a bit per shared character; a position holding
    none of them reads 0. The restriction is exact for every question the
    search asks of two intervals on different strings, or of an interval and
    a position of another string: a character both hold is held by two
    strings, so it is shared. Hence the common set of [a, b]_x and [c, d]_y
    (x != y) has the size of the AND of the two intervals' ORed masks, and
    S_x[p] meets an interval of another string iff their masks meet. Private
    characters never match, so dropping them loses nothing.
    """

    def __init__(self, strings: Sequence[IndeterminateString], alphabet: Alphabet) -> None:
        ids = [s.id for s in strings]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate string ids in dataset")
        self.strings = tuple(strings)
        self.alphabet = alphabet
        self._index = {s.id: k for k, s in enumerate(self.strings)}
        self.shared_masks = _shared_masks(self.strings)

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

    def sort_key(self, interval: AnchoredInterval) -> tuple[int, int, int]:
        return (self._index[interval.string_id], interval.i, interval.j)


def _shared_masks(strings: Sequence[IndeterminateString]) -> tuple[tuple[int, ...], ...]:
    """`Dataset.shared_masks`: per string, index 0 an unused 0, then per
    position p the int with bit c set for each shared character of S[p],
    c being that character's rank among the shared ids. Only the positions
    holding a shared character are visited one by one."""
    seen: set[int] = set()
    shared: set[int] = set()
    for s in strings:
        chars = set().union(*s.positions)
        shared |= seen & chars
        seen |= chars
    bit_of = {c: 1 << k for k, c in enumerate(sorted(shared))}.get
    out = []
    for s in strings:
        positions = s.positions
        masks = [0] * (len(s) + 1)
        # the positions meeting `shared`, found without a Python-level loop
        for p in compress(count(1), map(not_, map(shared.isdisjoint, positions))):
            mask = 0
            for c in positions[p - 1]:
                mask |= bit_of(c, 0)
            masks[p] = mask
        out.append(tuple(masks))
    return tuple(out)


@dataclass(frozen=True)
class SearchParams:
    """Search parameters: indel budget, quorum, minimum interval size.

    `min_size` is the minimum length of each interval of a reported pair.
    """
    delta: int = 0
    quorum: int = 2
    min_size: int = 0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if type(value) is not int:  # bool too: True is not a count
                raise ValidationError(f"{name} must be an int, got {value!r}")
        if self.delta < 0:
            raise ValidationError("delta must be >= 0")
        if self.quorum < 2:
            raise ValidationError("quorum must be >= 2")
        if self.min_size < 0:
            raise ValidationError("min_size must be >= 0")
