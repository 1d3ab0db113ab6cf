"""Acceptance suite: one test per release criterion, one PASS line each.

Shared expensive computations (instance sweeps, benchmark grid) live in
session fixtures so soundness criteria reuse the same instances.
"""
import io
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import awci.cli as cli
import awci.sweep
from awci.assemble import assemble, build_graph, maximal_closed_sets
from awci.ioformats import write_pairs, write_sets
from awci.model import AnchoredInterval, SearchParams
from awci.oracle import (
    brute_force_maximal_closed_sets,
    brute_force_pairs,
    is_closed_set,
    intervals,
    judge_pair,
    make_pair,
)
from awci.sweep import enumerate_pairs, enumerate_trans_intervals
from awci.synth import PlantedSpec, generate_planted, random_instance
from awci.tables import build_pos_tables
from bench import median_sweep_time, run_single
from conftest import WITNESS, make_dataset

GOLDEN_MEMBERS = ("S1:1-8", "S2:2-7", "S3:1-8")


def pair_params(seed):
    return SearchParams(delta=seed % 3, quorum=2, min_size=1 if seed % 2 else 3)


@pytest.fixture(scope="session")
def pair_differential():
    """Criteria 2 and 4 share these 500 instances."""
    t0 = time.perf_counter()
    rows = []
    for seed in range(500):
        ds = random_instance(seed)
        params = pair_params(seed)
        expected = brute_force_pairs(ds, params)
        got = list(enumerate_pairs(ds, params))
        got_off = list(enumerate_pairs(ds, params, use_filter=False))
        rows.append((seed, got == expected, got_off == expected, got == got_off))
    return rows, time.perf_counter() - t0


def set_instances():
    for seed in range(1000, 1200):
        yield seed, random_instance(seed, max_n=10), \
            SearchParams(delta=seed % 3, quorum=2 + seed % 2, min_size=1)
    yield "witness", make_dataset(*WITNESS), SearchParams(delta=1, quorum=2, min_size=1)


@pytest.fixture(scope="session")
def set_differential():
    """Criteria 3 and 4 share these 200 instances plus the witness."""
    rows = []
    for seed, ds, params in set_instances():
        expected = brute_force_maximal_closed_sets(ds, params)
        got = assemble(enumerate_pairs(ds, params), ds, params)
        plain = maximal_closed_sets(
            build_graph(enumerate_pairs(ds, params, use_filter=False), ds, params),
            params)
        rows.append((seed, got == expected, plain == got))
    return rows


@pytest.fixture(scope="session")
def bench_reports():
    """Criteria 7 and 8 share one benchmark grid (m x delta, plus quorum=2).

    The grid is m = 4, 8, 16 x 10 planted datasets of n = 500, each run at
    delta 0 and 2 with quorum m and at delta 0 with quorum 2; the three
    settings of each dataset are timed back to back: on a
    shared host the speed of the same run drifts by up to ±25% within
    minutes, and settings timed in separate grid phases, a minute or more
    apart, would carry that drift into the timing factors criterion 7 prints.

    Each run also counts its units past the min-size lookahead (the calls to
    `candidate_right_bounds`), summed per (m, delta, quorum); criterion 7
    asserts its trends on these counts, which repeat exactly.
    """
    t0 = time.perf_counter()
    main, low_q = [], []
    units: Counter = Counter()
    counted = []
    original = awci.sweep.candidate_right_bounds

    def counting(tables, ridge_t, x, i, *args):
        counted.append((x, i))
        return original(tables, ridge_t, x, i, *args)

    def run(dataset, params):
        counted.clear()
        report = run_single(dataset, params)
        units[len(dataset), params.delta, params.quorum] += len(counted)
        return report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(awci.sweep, "candidate_right_bounds", counting)
        for m in (4, 8, 16):
            for fold in range(10):
                dataset, _ = generate_planted(PlantedSpec(
                    m=m, n=500, block_count=3, block_length=20, planted_delta=0,
                    background_sharing=0.02, seed=fold))
                for delta in (0, 2):
                    main.append(run(dataset, SearchParams(
                        delta=delta, quorum=m, min_size=10)))
                low_q.append(run(dataset, SearchParams(
                    delta=0, quorum=2, min_size=10)))
    return main, low_q, units, time.perf_counter() - t0


def test_criterion_1_golden_closed_set(demo):
    t0 = time.perf_counter()
    params = SearchParams(delta=1, quorum=3, min_size=6)
    sets = assemble(enumerate_pairs(demo, params), demo, params)
    elapsed = time.perf_counter() - t0
    assert len(sets) == 1
    members = sets[0].members
    assert tuple(str(m) for m in members) == GOLDEN_MEMBERS
    assert is_closed_set(demo, members)
    for a in members:
        for b in members:
            if a < b:
                assert judge_pair(demo, a, b, 1).indel_total == 1
    assert elapsed < 1.0
    print(f"[criterion 1] golden closed set, 1 indel per pair: "
          f"PASS ({elapsed:.3f} s < 1 s)")


def test_criterion_2_pair_oracle_equivalence(pair_differential):
    rows, elapsed = pair_differential
    mismatches = [seed for seed, ok, _, _ in rows if not ok]
    assert mismatches == []
    assert len(rows) == 500
    assert elapsed < 300.0
    print(f"[criterion 2] 500-instance pair enumeration == exhaustive oracle: "
          f"PASS ({elapsed:.1f} s < 300 s)")


def test_criterion_3_set_oracle_equivalence(set_differential):
    mismatches = [seed for seed, ok, _ in set_differential if not ok]
    assert mismatches == []
    assert len(set_differential) == 201  # 200 random + non-hereditary witness
    print("[criterion 3] 201-instance closed-set pipeline == exhaustive oracle "
          "(incl. non-hereditary witness): PASS")


def test_criterion_4_filter_and_prune_soundness(pair_differential, set_differential):
    rows, _ = pair_differential
    assert [s for s, _, off_ok, _ in rows if not off_ok] == []
    assert [s for s, _, _, same in rows if not same] == []
    assert [s for s, _, same in set_differential if not same] == []
    print("[criterion 4] filter/prune on == off on all 701 instances: PASS")


def test_criterion_5_incremental_test_exactness():
    # the sweep's acceptance test lives in its trans walk: per left bound, the
    # walk must return exactly the reportable pairs and their counts
    checked = reportable = mismatched = 0
    for seed in range(2000, 2100):
        ds = random_instance(seed, max_m=3, max_n=9)
        tables = build_pos_tables(ds)
        params = SearchParams(delta=seed % 3, quorum=2, min_size=0)
        for x, sx in enumerate(ds):
            for y, sy in enumerate(ds):
                if x == y:
                    continue
                for i in range(1, len(sx) + 1):
                    hi = sx.contig_of[i][1]
                    expected = []
                    for j in range(i, hi + 1):
                        a = AnchoredInterval(sx.id, i, j)
                        for k, l in intervals(sy):
                            b = AnchoredInterval(sy.id, k, l)
                            checked += 1
                            if make_pair(ds, a, b, params) is not None:
                                v = judge_pair(ds, a, b, params.delta)
                                expected.append((j, y, k, l,
                                                 j - i + 1 - len(v.indel_left),
                                                 len(v.indel_right)))
                    reportable += len(expected)
                    got = enumerate_trans_intervals(tables, x, i, i, hi, y, params)
                    mismatched += got != sorted(expected)
    assert mismatched == 0 and reportable > 0
    print(f"[criterion 5] trans walk == oracle on {checked} interval pairs "
          f"({reportable} reportable) of 100 instances: PASS")


def test_criterion_6_planted_recovery():
    t0 = time.perf_counter()
    recovered = total = 0
    for seed in range(50):
        m = 3 if seed % 2 == 0 else 5
        planted_delta = seed % 3
        spec = PlantedSpec(m=m, n=200, block_count=3, block_length=20,
                           planted_delta=planted_delta, seed=seed)
        ds, truth = generate_planted(spec)
        params = SearchParams(delta=planted_delta, quorum=m, min_size=10)
        reported = assemble(enumerate_pairs(ds, params), ds, params)
        total += len(truth)
        recovered += sum(1 for t in truth if t in reported)
    elapsed = time.perf_counter() - t0
    assert recovered == total == 150
    assert elapsed < 120.0
    print(f"[criterion 6] {recovered}/{total} planted sets recovered on 50 "
          f"datasets: PASS ({elapsed:.1f} s < 120 s)")


def test_criterion_7_runtime_trends(bench_reports):
    # the trends are asserted on the sweep's units past the min-size
    # lookahead: the median sweep times of the settings differ by a few
    # percent, no more than a shared host's noise, so they are only printed
    main, low_q, units, elapsed = bench_reports
    assert elapsed < 1800.0
    delta_factors, quorum_factors = [], []
    delta_times, quorum_times = [], []
    for m in (4, 8, 16):
        u0, u2, uq = units[m, 0, m], units[m, 2, m], units[m, 0, 2]
        assert u2 >= u0
        delta_factors.append(u2 / u0)
        quorum_factors.append(max(uq, u0) / min(uq, u0))
        d0 = median_sweep_time(main, m=m, delta=0)
        d2 = median_sweep_time(main, m=m, delta=2)
        q2 = median_sweep_time(low_q, m=m, delta=0)
        delta_times.append(d2 / d0)
        quorum_times.append(max(q2, d0) / min(q2, d0))
    assert max(quorum_factors) < max(delta_factors)
    print(f"[criterion 7] delta raises the sweep's units at every m "
          f"(factors {['%.3f' % f for f in delta_factors]}), quorum effect milder "
          f"(factors {['%.3f' % f for f in quorum_factors]}); median sweep time "
          f"factors: delta {['%.2f' % f for f in delta_times]}, quorum "
          f"{['%.2f' % f for f in quorum_times]}: PASS ({elapsed:.1f} s < 1800 s)")


def test_criterion_8_filter_vector_widths(bench_reports):
    main, low_q, _, _ = bench_reports
    # run_single asserts that every ridge neighbourhood a reach mask was built
    # for fits in the longest contig of its string, on every run
    for m in (4, 8, 16):
        w0 = [r.max_width for r in main if r.m == m and r.delta == 0]
        w2 = [r.max_width for r in main if r.m == m and r.delta == 2]
        assert sum(w0) / len(w0) < sum(w2) / len(w2)
    print("[criterion 8] widths within structural bound; delta=0 widths below "
          "delta=2 widths at every m: PASS")


def _pair_bytes(ds, params):
    buf = io.StringIO()
    write_pairs(enumerate_pairs(ds, params), buf)
    return buf.getvalue()


def _set_bytes(ds, params):
    buf = io.StringIO()
    sets = assemble(enumerate_pairs(ds, params), ds, params)
    write_sets(sets, buf, delta=params.delta, quorum=params.quorum)
    return buf.getvalue()


def _cli_bytes(hash_seed, command, ist):
    src = str(Path(awci.__file__).parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "awci.cli", command, ist, "--delta", "1",
         "--quorum", "3", "--min-size", "10"],
        env=env, capture_output=True, check=True).stdout


def test_criterion_9_determinism(demo, tmp_path):
    cases = [(demo, SearchParams(delta=1, quorum=3, min_size=6))]
    for seed in range(0, 40, 4):
        cases.append((random_instance(seed), pair_params(seed)))
    for seed in (0, 1):
        ds, _ = generate_planted(PlantedSpec(m=3, n=200, block_count=3,
                                             block_length=20, seed=seed))
        cases.append((ds, SearchParams(delta=0, quorum=3, min_size=10)))
    for ds, params in cases:
        assert _pair_bytes(ds, params) == _pair_bytes(ds, params)
        assert _set_bytes(ds, params) == _set_bytes(ds, params)
    # string hashes, and so the order of sets of strings, differ between hash seeds
    prefix = str(tmp_path / "planted")
    assert cli.main(["gen", "--m", "4", "--n", "200", "--blocks", "3",
                     "--block-length", "20", "--planted-delta", "1",
                     "--background-sharing", "0.05", "--seed", "9",
                     "--out", prefix]) == 0
    for command in ("pairs", "sets"):
        out = _cli_bytes("0", command, prefix + ".ist")
        assert out.count(b"\n") > 3 and out == _cli_bytes("1", command, prefix + ".ist")
    print(f"[criterion 9] byte-identical outputs across reruns on {len(cases)} "
          f"inputs and across hash seeds 0 and 1 through the CLI: PASS")
