"""Compare two benchmark result files (results.jsonl, one run per line).

For each workload and trace setting present in both files, prints every
metric's median over the runs in A and in B and the ratio B/A, then the
largest absolute checksum difference over the seeds both files ran.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs[(rec["workload"], rec["trace"])].append(rec)
    return runs


def _values(recs: list[dict]) -> dict[str, tuple[list[float], str]]:
    out: dict[str, tuple[list[float], str]] = {}
    for rec in recs:
        named = {**rec["metrics"], **rec.get("ops", {}),
                 "failed_ratio": {"value": rec["failed_ratio"],
                                  "unit": "ratio"}}
        for name, m in named.items():
            out.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    return out


def main(path_a: str, path_b: str) -> int:
    a_runs, b_runs = load(path_a), load(path_b)
    shared = sorted(set(a_runs) & set(b_runs))
    if not shared:
        print("no workload appears in both files")
        return 1
    for key in shared:
        a_recs, b_recs = a_runs[key], b_runs[key]
        print(f"== {key[0]} (trace {key[1]}): {len(a_recs)} runs in A, "
              f"{len(b_recs)} in B")
        a_vals, b_vals = _values(a_recs), _values(b_recs)
        for name in sorted(set(a_vals) & set(b_vals)):
            (a, unit), (b, _) = a_vals[name], b_vals[name]
            ma, mb = statistics.median(a), statistics.median(b)
            ratio = f"{mb / ma:.4f}" if ma else "n/a"
            print(f"  {name:<42} A {ma:<12.6g} B {mb:<12.6g} {unit:<6} "
                  f"B/A {ratio}")
        a_seed = {r["seed"]: r["checksums"] for r in a_recs}
        b_seed = {r["seed"]: r["checksums"] for r in b_recs}
        seeds = sorted(set(a_seed) & set(b_seed))
        deltas = defaultdict(float)
        for seed in seeds:
            for name in set(a_seed[seed]) & set(b_seed[seed]):
                deltas[name] = max(deltas[name],
                                   abs(b_seed[seed][name] - a_seed[seed][name]))
        for name in sorted(deltas):
            print(f"  checksum {name:<33} max |B-A| {deltas[name]:.3g} "
                  f"over {len(seeds)} seeds")
    return 0
