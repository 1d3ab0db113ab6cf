from pathlib import Path

import pytest

import awci.cli as cli
from awci.ioformats import parse_sets, write_ist
from awci.model import AnchoredInterval, AwciSet, SearchParams
from awci.oracle import brute_force_maximal_closed_sets
from awci.sweep import enumerate_pairs
from awci.synth import random_instance


def write_demo(demo, tmp_path):
    path = tmp_path / "demo.ist"
    with open(path, "w") as fh:
        write_ist(demo, fh)
    return str(path)


def test_sets_command_demo(demo, tmp_path, capsys):
    ist = write_demo(demo, tmp_path)
    out = str(tmp_path / "out.sets")
    rc = cli.main(["sets", ist, "--delta", "1", "--quorum", "3",
                   "--min-size", "6", "--out", out])
    assert rc == 0
    with open(out) as fh:
        records = parse_sets(fh)
    assert len(records) == 1
    s, delta, quorum = records[0]
    assert tuple(str(m) for m in s.members) == ("S1:1-8", "S2:2-7", "S3:1-8")
    assert delta == 1 and quorum == 3


def test_pairs_quorum_exceeds_strings(demo, tmp_path, capsys):
    ist = write_demo(demo, tmp_path)
    rc = cli.main(["pairs", ist, "--quorum", "5"])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(demo, tmp_path, capsys):
    ist = write_demo(demo, tmp_path)
    assert cli.main(["pairs", ist, "--bogus"]) == 1
    assert cli.main(["frobnicate"]) == 1


def test_bad_input_is_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.ist"
    bad.write_text(">A\n#\n")
    assert cli.main(["pairs", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
    assert cli.main(["pairs", str(tmp_path / "missing.ist")]) == 2


def test_verify_command(capsys):
    assert cli.main(["verify", "--seeds", "5"]) == 0
    assert "5/5 oracle matches" in capsys.readouterr().out


def test_gen_then_sets_recovers_truth(tmp_path):
    prefix = str(tmp_path / "planted")
    rc = cli.main(["gen", "--m", "3", "--n", "60", "--blocks", "2",
                   "--block-length", "8", "--seed", "3", "--out", prefix])
    assert rc == 0
    out = str(tmp_path / "planted.sets")
    rc = cli.main(["sets", prefix + ".ist", "--delta", "0", "--quorum", "3",
                   "--min-size", "5", "--out", out])
    assert rc == 0
    with open(out) as fh:
        reported = [s for s, _, _ in parse_sets(fh)]
    with open(prefix + ".truth") as fh:
        truth = [s for s, _, _ in parse_sets(fh)]
    assert reported == truth


def test_ingest_command(tmp_path, capsys):
    (tmp_path / "ga.genes").write_text("g1\ng2\n")
    (tmp_path / "gb.genes").write_text("h1\n#\nh2\n")
    (tmp_path / "hits.tsv").write_text("Ga\tg1\tGb\th1\t1.0\nGa\tg2\tGb\th2\t0.4\n")
    out = str(tmp_path / "out.ist")
    rc = cli.main(["ingest", "--homology", str(tmp_path / "hits.tsv"),
                   "--genes", f"Ga={tmp_path}/ga.genes",
                   "--genes", f"Gb={tmp_path}/gb.genes",
                   "--threshold", "0.5", "--out", out])
    assert rc == 0
    text = Path(out).read_text()
    assert ">Ga" in text and ">Gb" in text and "#" in text
    assert "h0" in text      # the accepted hit mints a shared character
    assert cli.main(["ingest", "--homology", str(tmp_path / "hits.tsv"),
                     "--genes", "nonsense"]) == 1


def test_ingest_rejects_gene_listed_twice(tmp_path, capsys):
    (tmp_path / "ga.genes").write_text("g1\ng2\ng1\n")
    (tmp_path / "gb.genes").write_text("h1\n")
    (tmp_path / "hits.tsv").write_text("Ga\tg1\tGb\th1\t1.0\n")
    out = tmp_path / "out.ist"
    rc = cli.main(["ingest", "--homology", str(tmp_path / "hits.tsv"),
                   "--genes", f"Ga={tmp_path}/ga.genes",
                   "--genes", f"Gb={tmp_path}/gb.genes", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'Ga'" in err and "'g1'" in err and "positions 1 and 3" in err
    assert not out.exists()


def test_ingest_rejects_genome_named_twice(tmp_path, capsys):
    # the second file named E used to replace the first without a word
    (tmp_path / "a.txt").write_text("g1\n")
    (tmp_path / "b.txt").write_text("g2\n")
    (tmp_path / "f.txt").write_text("h1\n")
    (tmp_path / "hits.tsv").write_text("E\tg1\tF\th1\t1.0\n")
    out = tmp_path / "out.ist"
    args = ["ingest", "--homology", str(tmp_path / "hits.tsv"),
            "--genes", f"E={tmp_path}/a.txt", "--genes", f"E={tmp_path}/b.txt",
            "--genes", f"F={tmp_path}/f.txt", "--out", str(out)]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert "'E'" in err and f"{tmp_path}/a.txt" in err and f"{tmp_path}/b.txt" in err
    assert not out.exists()
    # refused before any file is read: a missing file is not the error
    (tmp_path / "a.txt").unlink()
    assert cli.main(args) == 1
    assert "twice" in capsys.readouterr().err


def test_ingest_rejects_gene_id_read_as_comment(tmp_path, capsys):
    (tmp_path / "ga.genes").write_text("g1\n%g2\ng3\n")
    (tmp_path / "gb.genes").write_text("h1\n")
    (tmp_path / "hits.tsv").write_text("Ga\tg1\tGb\th1\t1.0\n")
    out = tmp_path / "out.ist"
    rc = cli.main(["ingest", "--homology", str(tmp_path / "hits.tsv"),
                   "--genes", f"Ga={tmp_path}/ga.genes",
                   "--genes", f"Gb={tmp_path}/gb.genes", "--out", str(out)])
    assert rc == 2
    assert "ga.genes:2" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_rejects_genome_name_read_back_as_comment(tmp_path, capsys):
    # a hit line starting with %G would be a comment to parse_homology, so
    # the name is refused wherever it stands
    (tmp_path / "ga.genes").write_text("g1\n")
    (tmp_path / "gb.genes").write_text("h1\n")
    (tmp_path / "hits.tsv").write_text("Gb\th1\t%G\tg1\t1.0\n")
    out = tmp_path / "out.ist"
    rc = cli.main(["ingest", "--homology", str(tmp_path / "hits.tsv"),
                   "--genes", f"%G={tmp_path}/ga.genes",
                   "--genes", f"Gb={tmp_path}/gb.genes", "--out", str(out)])
    assert rc == 2
    assert "'%G'" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_rejects_genome_name_read_as_homology_comment(tmp_path, capsys):
    # a hit line "#G\tg1\t..." is a comment to parse_homology; the name is
    # refused before any file is opened, so the missing files are never read
    out = tmp_path / "out.ist"
    rc = cli.main(["ingest", "--homology", str(tmp_path / "hits.tsv"),
                   "--genes", f"Gb={tmp_path}/gb.genes",
                   "--genes", f"#G={tmp_path}/ga.genes", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'#G'" in err and "i/o error" not in err
    assert not out.exists()


def test_ingest_rejects_genome_name_with_whitespace(tmp_path, capsys):
    # "G 1" would become a string id that the pairs and sets outputs split
    (tmp_path / "ga.genes").write_text("g1\n")
    (tmp_path / "gb.genes").write_text("h1\n")
    (tmp_path / "hits.tsv").write_text("G 1\tg1\tGb\th1\t1.0\n")
    out = tmp_path / "out.ist"
    rc = cli.main(["ingest", "--homology", str(tmp_path / "hits.tsv"),
                   "--genes", f"G 1={tmp_path}/ga.genes",
                   "--genes", f"Gb={tmp_path}/gb.genes", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'G 1'" in err and "whitespace" in err
    assert not out.exists()


def test_verify_checks_closed_sets(monkeypatch, capsys):
    monkeypatch.setattr(cli, "assemble", lambda pairs, ds, params: [])
    assert cli.main(["verify", "--seeds", "5"]) == 2
    assert "closed sets" in capsys.readouterr().err


def test_verify_names_the_first_differing_pair(monkeypatch, capsys):
    def first_pair_off(*args, **kwargs):
        pairs = list(enumerate_pairs(*args, **kwargs))
        if pairs:
            pairs[0] = pairs[0]._replace(indel_total=pairs[0].indel_total + 1)
        return pairs

    monkeypatch.setattr(cli, "enumerate_pairs", first_pair_off)
    assert cli.main(["verify", "--seeds", "1"]) == 2
    err = capsys.readouterr().err
    # seed 0 runs at delta 0, min_size 1
    first = next(enumerate_pairs(random_instance(0), SearchParams(delta=0, min_size=1)))
    named = f"left={first.left} right={first.right}"
    for total in (first.indel_total + 1, first.indel_total):
        assert f"{named} common_size={first.common_size} indel_total={total} " in err
    assert "pairs differ: got" in err and "pairs without filter differ: got" in err


def test_verify_names_the_members_of_the_first_differing_set(monkeypatch, capsys):
    # seed 0 checks assemble on random_instance(0, max_n=10) at delta 0,
    # quorum 2, min_size 1
    small = random_instance(0, max_n=10)
    wrong = AwciSet(members=(AnchoredInterval(small[0].id, 1, 1),
                             AnchoredInterval(small[1].id, 1, 2)))
    monkeypatch.setattr(cli, "assemble", lambda pairs, ds, params: [wrong])
    assert cli.main(["verify", "--seeds", "1"]) == 2
    expected = brute_force_maximal_closed_sets(
        small, SearchParams(delta=0, quorum=2, min_size=1))[0]
    got = f"members={small[0].id}:1-1 {small[1].id}:1-2"
    assert (f"closed sets differ: got {got} / expected members="
            f"{' '.join(map(str, expected.members))}") in capsys.readouterr().err


def no_seed_checked(*args):
    raise AssertionError("a seed was checked")


@pytest.mark.parametrize("value", ["1,x", ",", "-1", "0,-2"])
def test_verify_bad_delta_list_is_usage_error(value, monkeypatch, capsys):
    # "1,x" is not an int list, "," names no delta, and a delta below 0
    # would fail only at the first seed using it
    monkeypatch.setattr(cli, "verify_seed", no_seed_checked)
    assert cli.main(["verify", "--seeds", "1", "--delta-list", value]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--delta-list" in err


@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_verify_seeds_below_one_is_usage_error(value, monkeypatch, capsys):
    # --seeds 0 would check nothing and still report success
    monkeypatch.setattr(cli, "verify_seed", no_seed_checked)
    assert cli.main(["verify", "--seeds", value]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--seeds" in err

