"""Benchmark of the awci search pipeline on seeded planted datasets.

    python3 perfbench/run.py --workload planted-sets --seed 1 --seconds 40 --trace 0

Each run is one workload in its own process, driven as a closed loop: one
client sends jobs back to back with threads=1. A job is what a user pays for
one dataset: `parse_ist` on in-memory IST text, `build_pos_tables`,
`build_all_ridge_t`, `enumerate_pairs`, `assemble` (set workloads only) and
`write_sets` / `write_pairs`. Every job gets another dataset from a fixed
universe of `UNIVERSE` planted datasets per workload; `--seed` picks the
order. Input text is generated between jobs, outside the timed region. One
warm-up job is checked but not timed.

Every job's output is checked: its digest must equal the one recorded in
`digests.json` (made by `record_digests.py` from the seed commit, whose
outputs the acceptance suite checks against the oracle), and on set
workloads every planted block must be reported. A job that raises
(`ResourceLimitError` included) or whose output is wrong is counted as
failed, and the run carries on.

Reported times are calibrated. After every job the run times a fixed
pure-Python kernel (`calibrate`, which never calls awci) and scales the job's
wall time by `CAL_REF_S` over the mean of the kernel times just before and
after it. On a shared host the same job's wall time moves by up to 1.6x
within minutes as other tenants come and go; the kernel slows by the same
factor, so the scaled times stay steady. The raw wall-clock median and the
kernel time are printed too, and reported as `machine.*` in the traced run.

With `--trace 0` the end-to-end metrics are reported. With `--trace 1` jobs
alternate between untraced and traced; the traced ones give the per-layer
metrics, and `trace.overhead_s` is traced minus untraced median job time.
Raw spans of the first traced jobs go to `.bench_build/perfbench/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Without the awci sources
beside the benchmark the run exits with status 1 and prints no result.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "awci" / "__init__.py").is_file():
    sys.exit(f"perfbench: awci sources not found under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from awci import (  # noqa: E402
    PlantedSpec,
    SearchParams,
    assemble,
    build_all_ridge_t,
    build_pos_tables,
    enumerate_pairs,
    generate_planted,
    parse_ist,
    write_ist,
    write_pairs,
    write_sets,
)
from tracing import Tracer  # noqa: E402

# The package rebinds `awci.assemble` to the `assemble` function, so the
# modules are reached through importlib; `import awci.assemble as A` would
# hand back the function and patching it would silently do nothing.
SWEEP = importlib.import_module("awci.sweep")
ASSEMBLE = importlib.import_module("awci.assemble")

UNIVERSE = 256          # planted datasets per workload with a recorded digest
TAIL_PERCENTILE = 85    # job_s_p85: >= 10 samples beyond it from 67 jobs up
# Reported times are scaled to a machine on which calibrate() takes CAL_REF_S.
CAL_ITERS = 30_000
CAL_REF_S = 0.008
DIGESTS = HERE / "digests.json"
TRACE_DIR = ROOT / ".bench_build" / "perfbench"


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict              # PlantedSpec fields other than the seed
    params: SearchParams
    sets: bool              # `sets` path (assemble + write_sets) or `pairs` path
    seed_base: int          # dataset u of the universe uses seed seed_base + u


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        "planted-sets",
        dict(m=4, n=100, block_count=3, block_length=20, planted_delta=1,
             background_sharing=0.02),
        SearchParams(delta=1, quorum=4, min_size=17), True, 1_000_000),
    Workload(
        "dense-pairs",
        dict(m=4, n=100, block_count=3, block_length=20,
             background_sharing=0.6, alphabet_size=20),
        SearchParams(delta=2, quorum=2, min_size=18), False, 2_000_000),
    Workload(
        "wide-pairs",
        dict(m=16, n=200, block_count=1, block_length=20,
             background_sharing=0.01),
        SearchParams(delta=1, quorum=16, min_size=20), False, 3_000_000),
)}


def make_input(w: Workload, u: int) -> tuple[str, list[frozenset]]:
    """IST text of dataset u of the workload's universe, plus its planted blocks."""
    dataset, truth = generate_planted(PlantedSpec(seed=w.seed_base + u, **w.spec))
    buf = io.StringIO()
    write_ist(dataset, buf)
    return buf.getvalue(), [member_key(s) for s in truth]


def member_key(s) -> frozenset:
    return frozenset((m.string_id, m.i, m.j) for m in s.members)


def run_job(w: Workload, text: str, tracer: Tracer | None = None):
    """One job on IST text. Returns (output text, sets or None, setup s, job s).

    With a tracer every stage runs inside a span named after the layer.
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    params = w.params
    t0 = time.perf_counter()
    with span("job"):
        with span("ioformats.parse_ist"):
            dataset = parse_ist(io.StringIO(text))
        with span("tables.build_pos_tables"):
            tables = build_pos_tables(dataset)
        with span("ridge.build_all_ridge_t"):
            ridge_t = build_all_ridge_t(tables, params.delta)
        t1 = time.perf_counter()
        with span("sweep.enumerate_pairs"):
            pairs = list(enumerate_pairs(dataset, params, tables=tables,
                                         ridge_t=ridge_t, threads=1))
        out = io.StringIO()
        sets = None
        if w.sets:
            with span("assemble.assemble"):
                sets = assemble(pairs, dataset, params)
            with span("ioformats.write"):
                n_out = write_sets(sets, out, delta=params.delta, quorum=params.quorum)
        else:
            with span("ioformats.write"):
                n_out = write_pairs(pairs, out)
    t2 = time.perf_counter()
    if tracer is not None:
        tracer.add("ioformats.bytes_out", n_out)
        tracer.add("tables.pos_entries", sum(
            len(row) for rows_x in tables.pos for rows in rows_x if rows is not None
            for row in rows))
        tracer.add("ridge.width_max", max(
            rt.width for row in ridge_t for rt in row if rt is not None))
        tracer.add("sweep.pairs", len(pairs))
        tracer.add("sweep.left_intervals", len({p.left for p in pairs}))
    return out.getvalue(), sets, t1 - t0, t2 - t0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def missing_blocks(sets, truth: list[frozenset]) -> int:
    got = {member_key(s) for s in sets}
    return sum(1 for t in truth if t not in got)


def check(w: Workload, u: int, out: str, sets, truth: list[frozenset],
          recorded: dict[str, str]) -> str | None:
    """None when the output is correct, else the reason it is not."""
    if w.sets:
        missing = missing_blocks(sets, truth)
        if missing:
            return f"{missing} of {len(truth)} planted blocks not reported"
    want = recorded.get(str(u))
    if want is None:
        return "no recorded digest"
    if digest(out) != want:
        return f"output digest {digest(out)} != recorded {want}"
    return None


def install_wrappers(tracer: Tracer) -> None:
    """Wrap the module globals the pipeline calls through, recording counts."""
    def count_len(key):
        return lambda t, args, result: t.add(key, len(result))

    def graph_size(t, args, graph):
        t.add("assemble.vertices", len(graph))
        t.add("assemble.edges", sum(len(a) for a in graph.adj) // 2)

    def pruned(t, args, graph):
        t.add("assemble.pruned", len(args[0]) - len(graph))

    tracer.patch(SWEEP, "filter_position", "ridge.filter_position")
    tracer.patch(SWEEP, "candidate_right_bounds", "sweep.candidate_right_bounds",
                 count_len("ridge.bounds_passed"))
    tracer.patch(SWEEP, "collect_anchors", "sweep.collect_anchors")
    tracer.patch(SWEEP, "refine_bounds", "sweep.refine_bounds",
                 count_len("sweep.bounds_refined"))
    tracer.patch(SWEEP, "enumerate_trans_intervals", "sweep.enumerate_trans_intervals")
    tracer.patch(SWEEP, "make_pair", "oracle.make_pair")
    tracer.patch(ASSEMBLE, "build_graph", "assemble.build_graph", graph_size)
    tracer.patch(ASSEMBLE, "prune_dominated_vertices",
                 "assemble.prune_dominated_vertices", pruned)
    tracer.patch(ASSEMBLE, "maximal_closed_sets", "assemble.maximal_closed_sets",
                 count_len("assemble.sets"))
    tracer.patch(ASSEMBLE, "is_closed_set", "oracle.is_closed_set")


# per-layer metric -> (unit, how it is read from one traced job's record)
def _total(name):
    return lambda j: j["spans"].get(name, (0, 0.0, 0.0))[1]


def _self(name):
    return lambda j: j["spans"].get(name, (0, 0.0, 0.0))[2]


def _calls(name):
    return lambda j: j["spans"].get(name, (0, 0.0, 0.0))[0]


def _count(name):
    return lambda j: j["counts"].get(name, 0)


LAYER_METRICS = {
    "ioformats.parse_s": ("s", _total("ioformats.parse_ist")),
    "ioformats.write_s": ("s", _total("ioformats.write")),
    "ioformats.bytes_out": ("B", _count("ioformats.bytes_out")),
    "tables.build_s": ("s", _total("tables.build_pos_tables")),
    "tables.pos_entries": ("count", _count("tables.pos_entries")),
    "ridge.build_s": ("s", _total("ridge.build_all_ridge_t")),
    "ridge.width_max": ("bits", _count("ridge.width_max")),
    "ridge.filter_calls": ("count", _calls("ridge.filter_position")),
    "ridge.filter_s": ("s", _total("ridge.filter_position")),
    "ridge.bounds_passed": ("count", _count("ridge.bounds_passed")),
    "sweep.units": ("count", _calls("sweep.candidate_right_bounds")),
    "sweep.anchor_s": ("s", _total("sweep.collect_anchors")),
    "sweep.refine_s": ("s", _total("sweep.refine_bounds")),
    "sweep.bounds_refined": ("count", _count("sweep.bounds_refined")),
    "sweep.trans_calls": ("count", _calls("sweep.enumerate_trans_intervals")),
    "sweep.trans_s": ("s", _total("sweep.enumerate_trans_intervals")),
    "sweep.pairs": ("count", _count("sweep.pairs")),
    "sweep.self_s": ("s", _self("sweep.enumerate_pairs")),
    "oracle.make_pair_calls": ("count", _calls("oracle.make_pair")),
    "oracle.make_pair_s": ("s", _total("oracle.make_pair")),
    "oracle.closed_checks": ("count", _calls("oracle.is_closed_set")),
    "oracle.closed_s": ("s", _total("oracle.is_closed_set")),
    "assemble.graph_s": ("s", _total("assemble.build_graph")),
    "assemble.vertices": ("count", _count("assemble.vertices")),
    "assemble.edges": ("count", _count("assemble.edges")),
    "assemble.prune_s": ("s", _total("assemble.prune_dominated_vertices")),
    "assemble.pruned": ("count", _count("assemble.pruned")),
    # maximal_closed_sets minus the closedness tests, its only traced child
    "assemble.cliques_s": ("s", _self("assemble.maximal_closed_sets")),
    "assemble.sets": ("count", _count("assemble.sets")),
}
# ratios of per-job sums: (numerator, denominator)
LAYER_RATIOS = {
    "ridge.pass_share": (_count("ridge.bounds_passed"), _calls("ridge.filter_position")),
    "sweep.useful_share": (_count("sweep.left_intervals"),
                           _count("sweep.bounds_refined")),
}


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Per traced job: times (calibrated) as the median, counts as the mean,
    width as the max."""
    jobs = tracer.jobs
    out: dict[str, dict] = {}
    for name, (unit, read) in LAYER_METRICS.items():
        values = [read(j) for j in jobs]
        if name == "ridge.width_max":
            value = max(values)
        elif unit == "s":
            value = statistics.median(v * j.get("scale", 1.0)
                                      for v, j in zip(values, jobs))
        else:
            value = statistics.fmean(values)
        out[name] = {"value": value, "unit": unit}
    for name, (num, den) in LAYER_RATIOS.items():
        n = sum(num(j) for j in jobs)
        d = sum(den(j) for j in jobs)
        out[name] = {"value": n / d if d else 0.0, "unit": "ratio"}
    return out


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(values)
    k = max(0, min(len(ranked) - 1, -(-pct * len(ranked) // 100) - 1))
    return ranked[k]


def calibrate() -> float:
    """Seconds one fixed pure-Python kernel takes right now; it never calls awci."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    odd: set[int] = set()
    acc = 0
    for i in range(CAL_ITERS):
        key = (i * 7919) % 10007
        counts[key] = counts.get(key, 0) + 1
        if key & 1:
            odd.add(key)
        acc += len(odd) & 3
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    recorded = json.loads(DIGESTS.read_text()).get(w.name, {})
    order = random.Random(args.seed).sample(range(UNIVERSE), UNIVERSE)
    tracer = Tracer() if args.trace else None

    attempted = failed = 0
    job_s: list[float] = []        # untraced jobs, calibrated
    wall_s: list[float] = []       # untraced jobs, as measured
    setup_s: list[float] = []      # calibrated
    traced_s: list[float] = []     # calibrated
    cal_s: list[float] = []
    errors: dict[str, int] = {}

    def one_job(k: int, traced: bool) -> tuple[float, float, bool]:
        u = order[k % UNIVERSE]
        text, truth = make_input(w, u)
        gc.collect()
        try:
            if traced:
                tracer.begin_job(k)
                install_wrappers(tracer)
                try:
                    out, sets, t_setup, t_job = run_job(w, text, tracer)
                finally:
                    tracer.unpatch()
            else:
                out, sets, t_setup, t_job = run_job(w, text)
        except Exception as exc:  # a failing job is counted, the run goes on
            reason = f"{type(exc).__name__}: {exc}"
            t_setup = t_job = 0.0
        else:
            reason = check(w, u, out, sets, truth, recorded)
        if reason is not None:
            errors[reason] = errors.get(reason, 0) + 1
        return t_setup, t_job, reason is None

    k = 0
    _, _, ok = one_job(k, False)   # warm-up: checked, not timed
    attempted, failed = 1, int(not ok)
    cal_before = calibrate()
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        k += 1
        traced = tracer is not None and k % 2 == 0
        t_setup, t_job, ok = one_job(k, traced)
        cal_after = calibrate()
        cal_s.append(cal_after)
        scale = CAL_REF_S / ((cal_before + cal_after) / 2)
        cal_before = cal_after
        attempted += 1
        failed += not ok
        if not ok:
            continue
        if traced:
            tracer.jobs[-1]["scale"] = scale
            traced_s.append(t_job * scale)
        else:
            job_s.append(t_job * scale)
            wall_s.append(t_job)
            setup_s.append(t_setup * scale)

    for reason, n in sorted(errors.items()):
        print(f"FAILED x{n}: {reason}", file=sys.stderr)
    if not job_s or (tracer is not None and not traced_s):
        print("perfbench: no job completed correctly", file=sys.stderr)
        return 1

    p50 = statistics.median(job_s)
    if tracer is None:
        metrics = {
            "jobs_per_s": {"value": len(job_s) / sum(job_s), "unit": "1/s"},
            "job_s_p50": {"value": p50, "unit": "s"},
            f"job_s_p{TAIL_PERCENTILE}": {
                "value": percentile(job_s, TAIL_PERCENTILE), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        }
    else:
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_s) - p50, "unit": "s"}
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(TRACE_DIR / f"{w.name}.spans.jsonl")
    metrics_wall = {
        "machine.calib_s": {"value": statistics.median(cal_s), "unit": "s"},
        "machine.job_wall_s_p50": {"value": statistics.median(wall_s), "unit": "s"},
    }
    if tracer is not None:
        metrics.update(metrics_wall)

    print(f"workload {w.name} seed {args.seed}: {len(job_s)} timed jobs"
          + (f", {len(traced_s)} traced" if tracer is not None else "")
          + f", failed_share {failed / attempted:.4f} ({failed}/{attempted})")
    for name, m in {**metrics, **metrics_wall}.items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
