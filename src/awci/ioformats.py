"""File formats: indeterminate-string text files, homology input, result writers.

IST format (UTF-8 text):
  * ``>ID`` starts a new string; the ID holds no whitespace
  * ``#`` alone on a line inserts a contig break
  * ``%`` begins a comment line
  * any other non-empty line is one position: whitespace-separated labels

Pairs output: tab-separated with header ``#awci-pairs v1``.
Sets output: one record per line after the ``#awci-sets v1`` header: the
members as ``ID:i-j`` separated by spaces, then tab-separated ``closed=1``,
``delta=D`` and ``quorum=Q``. ``closed`` is always 1, since only closed sets
are reported; `parse_sets` refuses any other value.
Homology input: tab-separated ``genomeA geneA genomeB geneB score`` records
plus per-genome gene-order files (one gene id per line, ``#`` for contig
breaks, ``%`` followed by whitespace or the end of the line for comments; any
other line starting with ``%`` is refused, so no gene id is read as a comment,
and so is a ``#`` without a gene on each side, so no gene named ``#``
vanishes), which `homology_to_strings` joins into one dataset.
"""
from __future__ import annotations

import math
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

from .model import (
    Alphabet,
    AnchoredInterval,
    AwciPair,
    AwciSet,
    Dataset,
    FormatError,
    IndeterminateString,
    SearchParams,
    ValidationError,
    build_string,
)

PAIRS_HEADER = "#awci-pairs v1"
SETS_HEADER = "#awci-sets v1"


def parse_ist(fh: IO[str], filename: str = "<ist>") -> Dataset:
    """Parse an IST file into a dataset, with line-accurate errors; an error
    in a string as a whole names the line of its '>' header.

    A '#' line is a contig break and needs a position on each side: a '#'
    before the first position, directly after another '#' or after the last
    position raises `FormatError` naming the line of that '#'.
    """
    alphabet = Alphabet()
    strings: list[IndeterminateString] = []
    seen: set[str] = set()
    cur_id: str | None = None
    cur_positions: list[list[str]] = []
    cur_breaks: list[int] = []
    break_line = header_line = 0

    def flush() -> None:
        nonlocal cur_id, cur_positions, cur_breaks
        if cur_id is None:
            return
        if not cur_positions:
            raise FormatError(f"{filename}:{header_line}: string {cur_id!r} has no positions")
        if cur_breaks and cur_breaks[-1] == len(cur_positions):
            raise FormatError(f"{filename}:{break_line}: contig break after the last "
                              f"position of string {cur_id!r}")
        try:
            strings.append(build_string(alphabet, cur_id, cur_positions, cur_breaks))
        except ValidationError as exc:
            raise FormatError(f"{filename}:{header_line}: {exc}") from exc
        cur_id, cur_positions, cur_breaks = None, [], []

    for lineno, raw in enumerate(fh, start=1):
        labels = raw.split()
        if not labels:
            continue
        lead = labels[0][0]
        if lead == "%":
            continue
        if lead == ">":
            flush()
            sid = raw.strip()[1:].strip()
            if not sid:
                raise FormatError(f"{filename}:{lineno}: missing string id after '>'")
            if sid.split() != [sid]:
                raise FormatError(f"{filename}:{lineno}: string id {sid!r} holds whitespace")
            if sid in seen:
                raise FormatError(f"{filename}:{lineno}: duplicate string id {sid!r}")
            seen.add(sid)
            cur_id, header_line = sid, lineno
            continue
        if cur_id is None:
            raise FormatError(f"{filename}:{lineno}: position line before any '>' header")
        if lead == "#" and labels == ["#"]:
            if not cur_positions:
                raise FormatError(f"{filename}:{lineno}: contig break before first position")
            if cur_breaks and cur_breaks[-1] == len(cur_positions):
                raise FormatError(f"{filename}:{lineno}: contig break directly after "
                                  f"the break on line {break_line}")
            cur_breaks.append(len(cur_positions))
            break_line = lineno
            continue
        cur_positions.append(labels)
    flush()
    if not strings:
        raise FormatError(f"{filename}: no strings found")
    try:
        return Dataset(strings, alphabet)
    except ValidationError as exc:
        raise FormatError(f"{filename}: {exc}") from exc


def write_ist(dataset: Dataset, fh: IO[str]) -> None:
    """Write a dataset in IST format."""
    for s in dataset:
        fh.write(f">{s.id}\n")
        for p, chars in enumerate(s.positions, start=1):
            labels = sorted(dataset.alphabet.label(c) for c in chars)
            if any(not l or l.split() != [l] for l in labels):
                raise FormatError(f"string {s.id!r}: label not IST-encodable at "
                                  f"position {p}")
            line = " ".join(labels)
            if line.startswith(("%", ">")) or line == "#":
                raise FormatError(f"string {s.id!r}: position {p} would be read back "
                                  f"as a comment, header or contig break: {line!r}")
            fh.write(line + "\n")
            if p in s.contig_breaks:
                fh.write("#\n")


class HomologyRecord(NamedTuple):
    """One homology hit; records sort by their fields in this order."""
    genome_a: str
    gene_a: str
    genome_b: str
    gene_b: str
    score: float


def parse_gene_order(fh: IO[str], filename: str = "<genes>") -> tuple[list[str], list[int]]:
    """One gene id per line; '#' marks a contig break, '% ...' a comment.

    A break needs a gene on each side: a '#' before the first gene, directly
    after another '#' or after the last gene raises `FormatError`.
    """
    genes: list[str] = []
    breaks: list[int] = []
    break_line = 0
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("%"):
            if line.split()[0] != "%":
                raise FormatError(f"{filename}:{lineno}: gene id {line!r} begins "
                                  "with '%', which marks a comment")
            continue
        if line == "#":
            if not genes:
                raise FormatError(f"{filename}:{lineno}: break before first gene")
            if breaks and breaks[-1] == len(genes):
                raise FormatError(f"{filename}:{lineno}: break directly after "
                                  f"the break on line {break_line}")
            breaks.append(len(genes))
            break_line = lineno
            continue
        genes.append(line)
    if breaks and breaks[-1] == len(genes):
        raise FormatError(f"{filename}:{break_line}: break after the last gene")
    return genes, breaks


def parse_homology(fh: IO[str], filename: str = "<homology>") -> list[HomologyRecord]:
    records: list[HomologyRecord] = []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise FormatError(f"{filename}:{lineno}: expected 5 tab-separated fields")
        try:
            score = float(fields[4])
        except ValueError as exc:
            raise FormatError(f"{filename}:{lineno}: bad score {fields[4]!r}") from exc
        records.append(HomologyRecord(fields[0], fields[1], fields[2], fields[3], score))
    return records


def homology_to_strings(records: Sequence[HomologyRecord],
                        genomes: Mapping[str, tuple[Sequence[str], Sequence[int]]],
                        threshold: float) -> Dataset:
    """Transform homology records over gene orders into indeterminate strings.

    `genomes` maps each genome to the (genes, contig breaks) pair that
    `parse_gene_order` returns. A non-finite threshold, a gene listed twice in
    one genome, and any record (whatever its score) with a score that is not
    finite and >= 0 or with an unknown genome or gene raise `ValidationError`
    before any character is minted.

    Every record at or above the threshold mints one fresh character shared by
    exactly the two gene positions it relates (homology stays non-transitive);
    every gene also carries a private character so no position set is empty.
    Character minting is order-independent because records are sorted first.
    The private character of gene k (from 1) of genome r (from 0, in sorted
    order) is ``p{r}.{k}``: names built from the genome and gene ids could collide
    (genome ``E``, gene ``coli.x`` against genome ``E.coli``, gene ``x``) or
    hold whitespace, and these cannot, nor meet the ``h{n}`` record labels.
    """
    if not math.isfinite(threshold):
        raise ValidationError(f"threshold must be finite, got {threshold}")
    names = sorted(genomes)
    position_of: dict[str, dict[str, int]] = {}  # genome -> gene -> position
    for genome in names:
        first = position_of[genome] = {}
        for k, gene in enumerate(genomes[genome][0], start=1):
            if gene in first:
                raise ValidationError(f"genome {genome!r}: gene {gene!r} listed "
                                      f"twice, at positions {first[gene]} and {k}")
            first[gene] = k
    for rec in records:
        if not math.isfinite(rec.score) or rec.score < 0:
            raise ValidationError(f"bad score {rec.score} for {rec.gene_a}/{rec.gene_b}")
        for genome, gene in ((rec.genome_a, rec.gene_a), (rec.genome_b, rec.gene_b)):
            if genome not in position_of:
                raise ValidationError(f"unknown genome {genome!r}")
            if gene not in position_of[genome]:
                raise ValidationError(f"gene {gene!r} not in genome {genome!r}")
    sets = {genome: [{f"p{rank}.{k}"} for k in range(1, len(position_of[genome]) + 1)]
            for rank, genome in enumerate(names)}
    for n, rec in enumerate(sorted(r for r in records if r.score >= threshold)):
        for genome, gene in ((rec.genome_a, rec.gene_a), (rec.genome_b, rec.gene_b)):
            sets[genome][position_of[genome][gene] - 1].add(f"h{n}")
    alphabet = Alphabet()
    return Dataset([build_string(alphabet, genome, map(sorted, sets[genome]),
                                 genomes[genome][1]) for genome in names], alphabet)


def write_pairs(pairs: Iterable[AwciPair], fh: IO[str]) -> int:
    """Tab-separated pair records; deterministic given the input order."""
    count = fh.write(PAIRS_HEADER + "\n")
    count += fh.write("stringA\tiA\tjA\tstringB\tkB\tlB\tindels\tsizeA\tsizeB"
                      "\tcommonSetSize\n")
    for p in pairs:
        count += fh.write(
            f"{p.left.string_id}\t{p.left.i}\t{p.left.j}"
            f"\t{p.right.string_id}\t{p.right.i}\t{p.right.j}"
            f"\t{p.indel_total}\t{p.size_left}\t{p.size_right}\t{p.common_size}\n")
    return count


def write_sets(sets: Sequence[AwciSet], fh: IO[str], *, delta: int, quorum: int) -> int:
    """Structured set records: members, the constant closed=1, search parameters."""
    count = fh.write(SETS_HEADER + "\n")
    for s in sets:
        members = " ".join(f"{m.string_id}:{m.i}-{m.j}" for m in s.members)
        count += fh.write(f"{members}\tclosed=1\tdelta={delta}\tquorum={quorum}\n")
    return count


def parse_sets(fh: IO[str], filename: str = "<sets>") -> list[tuple[AwciSet, int, int]]:
    """Inverse of write_sets: (set, delta, quorum) per record.

    A record no search could write raises FormatError naming its line: two
    members on one string, fewer members than its quorum, or a delta or
    quorum that `SearchParams` refuses."""
    header = fh.readline().strip()
    if header != SETS_HEADER:
        raise FormatError(f"{filename}: bad header {header!r}")
    out: list[tuple[AwciSet, int, int]] = []
    for lineno, raw in enumerate(fh, start=2):
        line = raw.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise FormatError(f"{filename}:{lineno}: expected 4 tab-separated fields")
        members = []
        for token in fields[0].split(" "):
            try:
                sid, span = token.rsplit(":", 1)
                i, j = span.split("-")
                members.append(AnchoredInterval(sid, int(i), int(j)))
            except (ValueError, ValidationError) as exc:
                raise FormatError(f"{filename}:{lineno}: bad member {token!r}") from exc
        meta = {}
        for field in fields[1:]:
            key, _, value = field.partition("=")
            meta[key] = value
        if meta.get("closed") != "1":
            raise FormatError(f"{filename}:{lineno}: expected closed=1, since only "
                              "closed sets are written")
        try:
            params = SearchParams(delta=int(meta["delta"]), quorum=int(meta["quorum"]))
        except (KeyError, ValueError, ValidationError) as exc:
            raise FormatError(f"{filename}:{lineno}: bad metadata: {exc}") from exc
        if len({m.string_id for m in members}) < len(members):
            raise FormatError(f"{filename}:{lineno}: two members on one string")
        if len(members) < params.quorum:
            raise FormatError(f"{filename}:{lineno}: {len(members)} members, fewer "
                              f"than quorum={params.quorum}")
        out.append((AwciSet(members=tuple(members)), params.delta, params.quorum))
    return out
