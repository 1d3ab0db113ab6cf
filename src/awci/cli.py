"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 validation/format error,
3 resource guard exceeded.
"""
from __future__ import annotations

import argparse
import io
import sys
from contextlib import contextmanager

from .assemble import assemble
from .ioformats import (
    HomologyTable,
    homology_to_strings,
    parse_gene_order,
    parse_homology,
    parse_ist,
    write_ist,
    write_pairs,
    write_sets,
)
from .model import Dataset, FormatError, ResourceLimitError, SearchParams, ValidationError
from .oracle import brute_force_maximal_closed_sets, brute_force_pairs
from .sweep import enumerate_pairs
from .synth import PlantedSpec, generate_planted, random_instance

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def seed_count(text: str) -> int:
    """--seeds: how many seeds to check, at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def delta_list(text: str) -> list[int]:
    """--delta-list: comma-separated deltas, at least one, none negative."""
    try:
        deltas = [int(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers, got {text!r}") from None
    if not deltas:
        raise argparse.ArgumentTypeError(f"names no delta: {text!r}")
    if min(deltas) < 0:
        raise argparse.ArgumentTypeError(f"holds a negative delta: {text!r}")
    return deltas


def build_parser() -> Parser:
    parser = Parser(prog="awci", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def search_flags(p: Parser) -> None:
        p.add_argument("--delta", type=int, default=0)
        p.add_argument("--quorum", type=int, default=2)
        p.add_argument("--min-size", type=int, default=0)

    p = sub.add_parser("ingest", help="homology table to IST")
    p.add_argument("--homology", required=True)
    p.add_argument("--genes", action="append", required=True,
                   metavar="GENOME=FILE")
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--out", default="-")

    p = sub.add_parser("pairs", help="enumerate interval pairs")
    p.add_argument("ist")
    search_flags(p)
    p.add_argument("--out", default="-")

    p = sub.add_parser("sets", help="full pipeline to maximal closed sets")
    p.add_argument("ist")
    search_flags(p)
    p.add_argument("--out", default="-")

    p = sub.add_parser("gen", help="emit a planted dataset plus ground truth")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--alphabet-size", type=int, default=50)
    p.add_argument("--blocks", type=int, default=3)
    p.add_argument("--block-length", type=int, default=20)
    p.add_argument("--planted-delta", type=int, default=0)
    p.add_argument("--background-sharing", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="PREFIX")

    p = sub.add_parser("verify", help="pair and closed-set differentials against the oracle")
    p.add_argument("--seeds", type=seed_count, default=100)
    p.add_argument("--delta-list", type=delta_list, default="0,1,2")
    p.add_argument("--min-size", type=int, default=1)
    return parser


@contextmanager
def open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _search_input(args) -> tuple[Dataset, SearchParams]:
    """The dataset of `args.ist` and the search parameters of the flags."""
    with open(args.ist) as fh:
        dataset = parse_ist(fh, filename=args.ist)
    if args.quorum > len(dataset):
        raise UsageError(f"quorum {args.quorum} exceeds the {len(dataset)} "
                         "strings in the dataset")
    return dataset, SearchParams(delta=args.delta, quorum=args.quorum,
                                 min_size=args.min_size)


def cmd_ingest(args) -> int:
    specs: dict[str, str] = {}  # genome -> gene-order file
    for spec in args.genes:
        genome, _, path = spec.partition("=")
        if not genome or not path:
            raise UsageError(f"--genes expects GENOME=FILE, got {spec!r}")
        if genome[0] in "#%":
            # parse_homology skips a hit line starting with such a name
            raise ValidationError(f"genome name {genome!r} begins with "
                                  f"{genome[0]!r}, which marks a comment line")
        if genome in specs:
            raise UsageError(f"--genes names genome {genome!r} twice: "
                             f"{specs[genome]} and {path}")
        specs[genome] = path
    gene_orders = {}
    contig_breaks = {}
    for genome, path in specs.items():
        with open(path) as fh:
            gene_orders[genome], contig_breaks[genome] = parse_gene_order(fh, path)
    with open(args.homology) as fh:
        records = parse_homology(fh, args.homology)
    table = HomologyTable(records, gene_orders, contig_breaks)
    dataset = homology_to_strings(table, args.threshold)
    # encode in full first, so an unencodable label leaves no partial file
    buf = io.StringIO()
    write_ist(dataset, buf)
    with open_out(args.out) as fh:
        fh.write(buf.getvalue())
    return EXIT_OK


def cmd_pairs(args) -> int:
    dataset, params = _search_input(args)
    pairs = enumerate_pairs(dataset, params)
    with open_out(args.out) as fh:
        write_pairs(pairs, fh)
    return EXIT_OK


def cmd_sets(args) -> int:
    dataset, params = _search_input(args)
    pairs = enumerate_pairs(dataset, params)
    sets = assemble(pairs, dataset, params)
    with open_out(args.out) as fh:
        write_sets(sets, fh, delta=params.delta, quorum=params.quorum)
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = PlantedSpec(m=args.m, n=args.n, alphabet_size=args.alphabet_size,
                       block_count=args.blocks, block_length=args.block_length,
                       planted_delta=args.planted_delta,
                       background_sharing=args.background_sharing,
                       seed=args.seed)
    dataset, truth = generate_planted(spec)
    with open(args.out + ".ist", "w") as fh:
        write_ist(dataset, fh)
    with open(args.out + ".truth", "w") as fh:
        write_sets(truth, fh, delta=spec.planted_delta, quorum=spec.m)
    return EXIT_OK


def _show(item) -> str:
    """A result's fields as name=value, intervals written as S:i-j."""
    fields = item._asdict() if isinstance(item, tuple) else vars(item)
    # an interval is a tuple subclass; only a plain tuple (a set's members)
    # is joined
    return " ".join(f"{k}={' '.join(map(str, v)) if type(v) is tuple else v}"
                    for k, v in fields.items())


def first_difference(got: list, expected: list, what: str) -> list[str]:
    """No message if the lists agree; else one naming the first differing
    item as got / expected, or the counts if one list is a prefix of the other."""
    if got == expected:
        return []
    for g, e in zip(got, expected):
        if g != e:
            return [f"{what} differ: got {_show(g)} / expected {_show(e)}"]
    return [f"{len(got)} vs {len(expected)} {what}"]


def verify_seed(seed: int, delta: int, min_size: int) -> list[str]:
    """Oracle differential of one seed; returns the mismatches found.

    Pairs: the sweep at quorum 2, which reports every pair (filter on and
    off), against `brute_force_pairs` on `random_instance(seed)`.
    Sets: `assemble` against `brute_force_maximal_closed_sets` on the smaller
    `random_instance(seed, max_n=10)`, at quorum 2 or 3.
    """
    dataset = random_instance(seed)
    params = SearchParams(delta=delta, quorum=2, min_size=min_size)
    expected = brute_force_pairs(dataset, params)
    problems = first_difference(list(enumerate_pairs(dataset, params)), expected, "pairs")
    problems += first_difference(list(enumerate_pairs(dataset, params, use_filter=False)),
                                 expected, "pairs without filter")

    small = random_instance(seed, max_n=10)
    params = SearchParams(delta=delta, quorum=min(2 + seed % 2, len(small)),
                          min_size=min_size)
    problems += first_difference(assemble(enumerate_pairs(small, params), small, params),
                                 brute_force_maximal_closed_sets(small, params),
                                 "closed sets")
    return problems


def cmd_verify(args) -> int:
    deltas = args.delta_list
    matches = 0
    for seed in range(args.seeds):
        problems = verify_seed(seed, deltas[seed % len(deltas)], args.min_size)
        if problems:
            print(f"seed {seed}: MISMATCH ({'; '.join(problems)})", file=sys.stderr)
        else:
            matches += 1
    print(f"{matches}/{args.seeds} oracle matches (pairs and closed sets)")
    return EXIT_OK if matches == args.seeds else EXIT_INVALID


COMMANDS = {
    "ingest": cmd_ingest,
    "pairs": cmd_pairs,
    "sets": cmd_sets,
    "gen": cmd_gen,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (FormatError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
