import io
import re

import pytest

from awci.ioformats import (
    HomologyRecord,
    homology_to_strings,
    parse_gene_order,
    parse_homology,
    parse_ist,
    parse_sets,
    write_ist,
    write_pairs,
    write_sets,
)
from awci.model import AnchoredInterval, FormatError, SearchParams, ValidationError
from awci.oracle import AwciSet, brute_force_pairs, judge_pair
from awci.sweep import enumerate_pairs
from awci.synth import PlantedSpec, generate_planted, random_instance
from awci.tables import build_pos_tables
from conftest import make_dataset, perfbench_workloads


def roundtrip(ds):
    buf = io.StringIO()
    write_ist(ds, buf)
    buf.seek(0)
    return parse_ist(buf)


def test_ist_roundtrip_demo(demo):
    back = roundtrip(demo)
    assert [len(s) for s in back] == [12, 11, 13]
    for orig, new in zip(demo, back):
        assert new.id == orig.id
        assert new.contig_breaks == orig.contig_breaks
        for p in range(1, len(orig) + 1):
            assert {back.alphabet.label(c) for c in new.positions[p - 1]} == \
                {demo.alphabet.label(c) for c in orig.positions[p - 1]}


def workload_specs():
    """The `generate_planted` specs of perfbench's workloads."""
    return [spec for spec, _, _ in perfbench_workloads().values()]


def test_workload_specs_are_read():
    assert len(workload_specs()) == 3


@pytest.mark.parametrize("spec", workload_specs())
def test_ist_roundtrip_keeps_ids_of_workload_datasets(spec):
    # parsing interns the written labels in the order the generator did, so
    # every id, and so every shared-character mask, comes back unchanged
    for seed in range(3):
        ds, _ = generate_planted(PlantedSpec(seed=seed, **spec))
        back = roundtrip(ds)
        assert back.strings == ds.strings
        assert back.alphabet._labels == ds.alphabet._labels
        assert back.shared_masks == ds.shared_masks


def test_ist_roundtrip_with_breaks_and_comments():
    ds = make_dataset(("A", [["x", "y"], ["z"], ["x"]], [2]), ("B", [["x"]]))
    back = roundtrip(ds)
    assert back["A"].contig_breaks == frozenset({2})
    text = "% comment\n>A\nx y\nz\n#\nx\n\n>B\nx\n"
    parsed = parse_ist(io.StringIO(text))
    assert parsed["A"].contig_breaks == frozenset({2})
    assert len(parsed["B"]) == 1


@pytest.mark.parametrize("text,needle", [
    (">A\n", "no positions"),
    (">\na\n", "missing string id"),
    (">A\na\n>A\na\n", "duplicate string id"),
    ("a b\n", "before any '>'"),
    (">A\n#\na\n", "break before first position"),
    ("", "no strings"),
])
def test_ist_parse_errors(text, needle):
    with pytest.raises(FormatError) as exc:
        parse_ist(io.StringIO(text), filename="in.ist")
    assert needle in str(exc.value)
    assert "in.ist" in str(exc.value)


def test_ist_error_reports_line_number():
    with pytest.raises(FormatError) as exc:
        parse_ist(io.StringIO(">A\na\n#\n#\n"))
    assert ":3:" not in str(exc.value)  # the break after position 1 is fine
    with pytest.raises(FormatError) as exc:
        parse_ist(io.StringIO(">A\n#\n"))
    assert ":2:" in str(exc.value)


@pytest.mark.parametrize("text, line", [
    (">S1\n% note\n\n>S2\na\n>S3\na\n", 1),
    (">S1\na\n>S2\n% note\n\n", 3),
], ids=["first", "last"])
def test_ist_empty_string_names_its_header_line(text, line):
    # the line reported was the next header's, or the file's last
    with pytest.raises(FormatError) as exc:
        parse_ist(io.StringIO(text), filename="e.ist")
    assert str(exc.value).startswith(f"e.ist:{line}: string ")
    assert "has no positions" in str(exc.value)


@pytest.mark.parametrize("text, line, needle", [
    (">A\na\n#\n#\nb\n", 4, "directly after the break on line 3"),
    (">A\na\n#\n% note\n\n#\nb\n", 6, "directly after the break on line 3"),
    (">A\na\n#\n>B\nb\n", 3, "after the last position of string 'A'"),
    (">A\na\nb\n#\n% note\n", 4, "after the last position of string 'A'"),
])
def test_ist_rejects_break_without_position_after(text, line, needle):
    with pytest.raises(FormatError) as exc:
        parse_ist(io.StringIO(text), filename="in.ist")
    assert f"in.ist:{line}:" in str(exc.value) and needle in str(exc.value)


@pytest.mark.parametrize("text, line", [
    (">G 1\na\n", 1),
    (">A\na\n>H\ta\nb\n", 3),
])
def test_ist_rejects_string_id_with_whitespace(text, line):
    # such an id would add a field to every pairs row and break sets records
    with pytest.raises(FormatError) as exc:
        parse_ist(io.StringIO(text), filename="in.ist")
    assert f"in.ist:{line}:" in str(exc.value) and "whitespace" in str(exc.value)


def test_write_ist_rejects_unencodable_labels():
    ds = make_dataset(("A", [["a b"]]))
    with pytest.raises(FormatError):
        write_ist(ds, io.StringIO())


def test_ist_roundtrip_markup_characters_inside_a_line():
    # a line is markup only when it starts with '%' or '>' or is a lone '#'
    ds = make_dataset(("G", [["a"], ["#", "%x"], ["0", ">y"], ["#x"]]))
    back = roundtrip(ds)
    assert [{back.alphabet.label(c) for c in p} for p in back["G"].positions] == \
        [{"a"}, {"#", "%x"}, {"0", ">y"}, {"#x"}]


@pytest.mark.parametrize("positions,p", [
    ([["%x"], ["b"], ["#"], [">y", "c"]], 1),   # a comment
    ([["a"], [">y", "c"]], 2),                  # a string header
    ([["a"], ["b"], ["#"]], 3),                 # a contig break
])
def test_write_ist_rejects_lines_read_back_as_markup(positions, p):
    with pytest.raises(FormatError) as exc:
        write_ist(make_dataset(("G", positions)), io.StringIO())
    assert "'G'" in str(exc.value) and f"position {p}" in str(exc.value)


def test_gene_order_parse():
    genes, breaks = parse_gene_order(io.StringIO("g1\ng2\n#\ng3\n% note\n"))
    assert genes == ["g1", "g2", "g3"]
    assert breaks == [2]
    with pytest.raises(FormatError):
        parse_gene_order(io.StringIO("#\ng1\n"))


def test_gene_order_rejects_gene_id_read_as_comment():
    # '%' followed by whitespace or the end of the line is a comment
    genes, _ = parse_gene_order(io.StringIO("g1\n%\n%\tnote\ng3\n"))
    assert genes == ["g1", "g3"]
    with pytest.raises(FormatError) as exc:
        parse_gene_order(io.StringIO("g1\n%g2\ng3\n"), "a.genes")
    assert "a.genes:2" in str(exc.value) and "'%g2'" in str(exc.value)


@pytest.mark.parametrize("text, line", [
    ("g1\n#\n#\ng2\n", 3),              # a gene named '#' between two breaks
    ("g1\n#\n% note\n\n#\ng2\n", 5),    # comments and blanks do not separate
    ("g1\ng2\n#\n", 3),                  # trailing break
    ("g1\n#\n% note\n\n", 2),            # trailing break before a comment
])
def test_gene_order_rejects_break_without_gene_after(text, line):
    with pytest.raises(FormatError) as exc:
        parse_gene_order(io.StringIO(text), "a.genes")
    assert f"a.genes:{line}:" in str(exc.value)


def test_homology_parse_and_validate():
    text = "# header\nGa\tg1\tGb\th1\t0.9\nGa\tg2\tGb\th2\t1.5\n"
    records = parse_homology(io.StringIO(text))
    assert len(records) == 2
    assert records[0].score == 0.9
    with pytest.raises(FormatError):
        parse_homology(io.StringIO("Ga\tg1\tGb\th1\n"))
    with pytest.raises(FormatError):
        parse_homology(io.StringIO("Ga\tg1\tGb\th1\tnope\n"))
    homology_to_strings(records, {"Ga": (["g1", "g2"], []), "Gb": (["h1", "h2"], [])}, 0.0)
    genomes = {"Ga": (["g1"], []), "Gb": (["h1"], [])}
    for bad in (HomologyRecord("Ga", "gX", "Gb", "h1", 1.0),
                HomologyRecord("Gx", "g1", "Gb", "h1", 1.0),
                HomologyRecord("Ga", "g1", "Gb", "h1", -1.0),
                HomologyRecord("Ga", "g1", "Gb", "h1", float("nan"))):
        # refused whatever the threshold, so also when it would be dropped
        for threshold in (0.0, 5.0):
            with pytest.raises(ValidationError):
                homology_to_strings([bad], genomes, threshold)
    with pytest.raises(ValidationError, match="threshold"):
        homology_to_strings([], genomes, float("nan"))


def homology_fixture():
    records = [
        HomologyRecord("Ga", "g1", "Gb", "h1", 1.0),
        HomologyRecord("Ga", "g2", "Gb", "h2", 1.0),
    ]
    return records, {"Ga": (["g1", "g2"], []), "Gb": (["h1", "h2"], [])}


def test_homology_to_strings_in_order_wci():
    ds = homology_to_strings(*homology_fixture(), threshold=0.0)
    v = judge_pair(ds, AnchoredInterval("Ga", 1, 2), AnchoredInterval("Gb", 1, 2), 0)
    assert v.is_wci


def test_homology_empty_table_no_pairs():
    ds = homology_to_strings([], {"Ga": (["g1", "g2"], []), "Gb": (["h1", "h2"], [])},
                             threshold=0.0)
    assert brute_force_pairs(ds, SearchParams(delta=0, quorum=2, min_size=1)) == []


def test_homology_private_characters_never_shared():
    # genome E with gene coli.x and genome E.coli with gene x once both got
    # the private label "E.coli.x", which paired them without any record
    ds = homology_to_strings([], {"E": (["coli.x"], []), "E.coli": (["x"], [])},
                             threshold=0.0)
    assert ds.shared_masks == ((0, 0), (0, 0))
    assert list(enumerate_pairs(ds, SearchParams(delta=0, quorum=2, min_size=1))) == []


def test_homology_unmatched_gene_is_trivial_indel():
    records, genomes = homology_fixture()
    genomes["Ga"] = (["g1", "g0", "g2"], [])
    ds = homology_to_strings(records, genomes, threshold=0.0)
    t = build_pos_tables(ds)
    assert t.nohit[0][1] == 1 << 2  # g0 shares nothing


def test_homology_threshold_and_order_independence():
    records, genomes = homology_fixture()
    ds_hi = homology_to_strings(records, genomes, threshold=2.0)
    assert brute_force_pairs(ds_hi, SearchParams(delta=0, quorum=2, min_size=1)) == []
    a = homology_to_strings(records, genomes, 0.0)
    b = homology_to_strings(list(reversed(records)), dict(reversed(genomes.items())), 0.0)
    for sa, sb in zip(a, b):
        assert [{a.alphabet.label(c) for c in ps} for ps in sa.positions] \
            == [{b.alphabet.label(c) for c in ps} for ps in sb.positions]


def test_homology_gene_listed_twice_rejected():
    records, genomes = homology_fixture()
    genomes["Ga"] = (["g1", "g2", "g1"], [])
    with pytest.raises(ValidationError) as exc:
        homology_to_strings(records, genomes, threshold=0.0)
    msg = str(exc.value)
    assert "'Ga'" in msg and "'g1'" in msg and "positions 1 and 3" in msg


def test_homology_contig_breaks_carried():
    records, genomes = homology_fixture()
    genomes["Ga"] = (["g1", "g2"], [1])
    ds = homology_to_strings(records, genomes, 0.0)
    assert ds["Ga"].contig_breaks == frozenset({1})


def test_write_pairs_demo(demo):
    params = SearchParams(delta=1, quorum=3, min_size=6)
    buf = io.StringIO()
    n = write_pairs(enumerate_pairs(demo, params), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "#awci-pairs v1"
    assert lines[1].startswith("stringA\t")
    assert "S1\t1\t8\tS2\t2\t7\t1\t8\t5\t9" in lines
    assert n == len(buf.getvalue())


def test_write_pairs_common_set_size_matches_judge_pair():
    rows = 0
    for seed in range(30):
        ds = random_instance(seed)
        delta = seed % 3
        buf = io.StringIO()
        write_pairs(enumerate_pairs(ds, SearchParams(delta=delta, quorum=2, min_size=1)), buf)
        header = buf.getvalue().splitlines()[1].split("\t")
        for line in buf.getvalue().splitlines()[2:]:
            row = dict(zip(header, line.split("\t")))
            left = AnchoredInterval(row["stringA"], int(row["iA"]), int(row["jA"]))
            right = AnchoredInterval(row["stringB"], int(row["kB"]), int(row["lB"]))
            common = judge_pair(ds, left, right, delta).common
            assert int(row["commonSetSize"]) == len(common), (seed, line)
            rows += 1
    assert rows > 1000


def test_write_pairs_empty_header_only():
    buf = io.StringIO()
    write_pairs([], buf)
    assert len(buf.getvalue().splitlines()) == 2


def test_sets_roundtrip():
    sets = [
        AwciSet(members=(AnchoredInterval("S1", 1, 8), AnchoredInterval("S2", 2, 7),
                         AnchoredInterval("S3", 1, 8))),
        AwciSet(members=(AnchoredInterval("a:b", 3, 3), AnchoredInterval("T", 1, 2),
                         AnchoredInterval("U", 4, 4))),
    ]
    buf = io.StringIO()
    write_sets(sets, buf, delta=1, quorum=3)
    assert buf.getvalue().splitlines()[1] == "S1:1-8 S2:2-7 S3:1-8\tclosed=1\tdelta=1\tquorum=3"
    buf.seek(0)
    parsed = parse_sets(buf)
    assert [s for s, _, _ in parsed] == sets
    assert all(d == 1 and q == 3 for _, d, q in parsed)


def test_sets_empty_and_errors():
    buf = io.StringIO()
    write_sets([], buf, delta=0, quorum=2)
    assert buf.getvalue() == "#awci-sets v1\n"
    with pytest.raises(FormatError):
        parse_sets(io.StringIO("#wrong\n"))
    with pytest.raises(FormatError):
        parse_sets(io.StringIO("#awci-sets v1\nS1:1-2\tclosed=1\n"))
    with pytest.raises(FormatError):
        parse_sets(io.StringIO("#awci-sets v1\nS1:x-2\tclosed=1\tdelta=0\tquorum=2\n"))


@pytest.mark.parametrize("record, reason", [
    ("S1:1-2 S1:4-5\tclosed=1\tdelta=0\tquorum=2", "two members on one string"),
    ("S1:1-2 S2:1-2\tclosed=1\tdelta=0\tquorum=3", "2 members, fewer than quorum=3"),
    ("S1:1-2 S2:1-2\tclosed=1\tdelta=-1\tquorum=2", "delta must be >= 0"),
    ("S1:1-2\tclosed=1\tdelta=0\tquorum=1", "quorum must be >= 2"),
    ("S:1-2 S:3-4\tclosed=1\tdelta=-1\tquorum=1", "delta must be >= 0"),
], ids=["one-string", "below-quorum", "negative-delta", "quorum-1", "all-at-once"])
def test_parse_sets_refuses_records_no_search_writes(record, reason):
    text = f"#awci-sets v1\nS1:1-2 S2:1-2\tclosed=1\tdelta=0\tquorum=2\n{record}\n"
    with pytest.raises(FormatError, match=f"<sets>:3: .*{re.escape(reason)}"):
        parse_sets(io.StringIO(text))


@pytest.mark.parametrize("meta", ["closed=0\tdelta=0\tquorum=2",
                                  "delta=0\tquorum=2\tclosd=1"])
def test_parse_sets_refuses_records_not_closed(meta):
    # only closed sets are written, so closed=0 or no closed= is malformed
    text = f"#awci-sets v1\nS1:1-2 S2:1-2\tclosed=1\tdelta=0\tquorum=2\nS1:1-2\t{meta}\n"
    with pytest.raises(FormatError, match=r"<sets>:3: expected closed=1"):
        parse_sets(io.StringIO(text))
