"""Acceptance suite: one test per release criterion, one PASS line each.

Shared expensive computations (instance sweeps, benchmark grid) live in
session fixtures so soundness criteria reuse the same instances.
"""
import io
import time

import pytest

from awci.assemble import assemble
from awci.bench import median_sweep_time, run_single
from awci.ioformats import write_pairs, write_sets
from awci.model import AnchoredInterval, SearchParams
from awci.oracle import (
    brute_force_maximal_closed_sets,
    brute_force_pairs,
    judge_pair,
)
from awci.sweep import enumerate_pairs, incremental_indel_count
from awci.synth import PlantedSpec, generate_planted, random_instance
from awci.tables import build_pos_tables
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
        plain = assemble(enumerate_pairs(ds, params, use_filter=False),
                         ds, params, prune=False)
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
    apart, would carry that drift into the factors criterion 7 compares.
    """
    t0 = time.perf_counter()
    main, low_q = [], []
    for m in (4, 8, 16):
        for fold in range(10):
            dataset, _ = generate_planted(PlantedSpec(
                m=m, n=500, block_count=3, block_length=20, planted_delta=0,
                background_sharing=0.02, seed=fold))
            for delta in (0, 2):
                main.append(run_single(dataset, SearchParams(
                    delta=delta, quorum=m, min_size=10)))
            low_q.append(run_single(dataset, SearchParams(
                delta=0, quorum=2, min_size=10)))
    return main, low_q, time.perf_counter() - t0


def test_criterion_1_golden_closed_set(demo):
    t0 = time.perf_counter()
    params = SearchParams(delta=1, quorum=3, min_size=6)
    sets = assemble(enumerate_pairs(demo, params), demo, params)
    elapsed = time.perf_counter() - t0
    assert len(sets) == 1 and sets[0].closed
    members = sets[0].members
    assert tuple(str(m) for m in members) == GOLDEN_MEMBERS
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
    checked = mismatched = 0
    for seed in range(2000, 2100):
        ds = random_instance(seed, max_m=3, max_n=9)
        tables = build_pos_tables(ds)
        delta = seed % 3
        for xi in range(len(ds) - 1):
            for yi in range(xi + 1, len(ds)):
                sx, sy = ds[xi], ds[yi]
                for (i, j) in sx.intervals():
                    for (k, l) in sy.intervals():
                        v = judge_pair(ds, AnchoredInterval(sx.id, i, j),
                                       AnchoredInterval(sy.id, k, l), delta)
                        d = incremental_indel_count(tables, xi, i, j, yi, k, l)
                        checked += 1
                        if d != v.indel_total or (d <= delta) != v.is_awci:
                            mismatched += 1
    assert mismatched == 0
    print(f"[criterion 5] incremental acceptance == oracle on {checked} "
          f"interval pairs of 100 instances: PASS")


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
    main, low_q, elapsed = bench_reports
    assert elapsed < 1800.0
    delta_factors, quorum_factors = [], []
    for m in (4, 8, 16):
        d0 = median_sweep_time(main, m=m, delta=0)
        d2 = median_sweep_time(main, m=m, delta=2)
        assert d2 >= d0
        q2 = median_sweep_time(low_q, m=m, delta=0)
        delta_factors.append(d2 / d0)
        quorum_factors.append(max(q2, d0) / min(q2, d0))
    assert max(quorum_factors) < max(delta_factors)
    print(f"[criterion 7] delta raises median sweep time at every m "
          f"(factors {['%.2f' % f for f in delta_factors]}), quorum effect milder "
          f"(factors {['%.2f' % f for f in quorum_factors]}): "
          f"PASS ({elapsed:.1f} s < 1800 s)")


def test_criterion_8_filter_vector_widths(bench_reports):
    main, low_q, _ = bench_reports
    # run_single asserts that every ridge neighbourhood a reach mask was built
    # for fits in the longest contig of its string, on every run
    for m in (4, 8, 16):
        w0 = [r.max_width for r in main if r.m == m and r.delta == 0]
        w2 = [r.max_width for r in main if r.m == m and r.delta == 2]
        assert sum(w0) / len(w0) < sum(w2) / len(w2)
    print("[criterion 8] widths within structural bound; delta=0 widths below "
          "delta=2 widths at every m: PASS")


def _pair_bytes(ds, params, threads):
    buf = io.StringIO()
    write_pairs(enumerate_pairs(ds, params, threads=threads), buf)
    return buf.getvalue()


def _set_bytes(ds, params, threads):
    buf = io.StringIO()
    sets = assemble(enumerate_pairs(ds, params, threads=threads), ds, params)
    write_sets(sets, buf, delta=params.delta, quorum=params.quorum)
    return buf.getvalue()


def test_criterion_9_determinism(demo):
    cases = [(demo, SearchParams(delta=1, quorum=3, min_size=6))]
    for seed in range(0, 40, 4):
        cases.append((random_instance(seed), pair_params(seed)))
    for seed in (0, 1):
        ds, _ = generate_planted(PlantedSpec(m=3, n=200, block_count=3,
                                             block_length=20, seed=seed))
        cases.append((ds, SearchParams(delta=0, quorum=3, min_size=10)))
    for ds, params in cases:
        p1 = _pair_bytes(ds, params, 1)
        assert p1 == _pair_bytes(ds, params, 1)    # repeated run
        assert p1 == _pair_bytes(ds, params, 4)    # thread count
        s1 = _set_bytes(ds, params, 1)
        assert s1 == _set_bytes(ds, params, 4)
    print(f"[criterion 9] byte-identical outputs across reruns and thread "
          f"counts on {len(cases)} inputs: PASS")
