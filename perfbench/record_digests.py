"""Record the output digest of every dataset in each workload's universe.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Run on a commit whose outputs are trusted (the acceptance suite checks them
against the oracle). Set workloads must report every planted block; the
script stops with an error if one does not. Rewrites `digests.json` for the
named workloads (all by default) and keeps the others.
"""
from __future__ import annotations

import json
import sys

from run import DIGESTS, UNIVERSE, WORKLOADS, digest, make_input, missing_blocks, run_job


def record(name: str) -> dict[str, str]:
    w = WORKLOADS[name]
    out: dict[str, str] = {}
    for u in range(UNIVERSE):
        text, truth = make_input(w, u)
        result, sets, _, _ = run_job(w, text)
        if w.sets and missing_blocks(sets, truth):
            sys.exit(f"{name} dataset {u}: planted blocks not all reported")
        out[str(u)] = digest(result)
    return out


def main(argv: list[str]) -> int:
    names = argv or sorted(WORKLOADS)
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name in names:
        table[name] = record(name)
        print(f"{name}: {len(table[name])} digests", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
