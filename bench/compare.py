#!/usr/bin/env python3
"""Compare two benchmark result files, one row per workload.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records as bench/run.py appends them to
.bench_results/runs.jsonl (copy it away between the two versions).  For
every metric the tool prints the median of each side and the change.  An
end-to-end metric is marked:

- ``worse``       the new median is worse than the base by more than the
                  bound BENCHMARK.json fixes for it;
- ``unresolved``  the run-to-run spread of either side (quartile distance
                  over median) exceeds the bound, and not every new run
                  beats every base run;
- ``better`` / ``within bound`` otherwise, ``better`` only when the
                  medians differ by more than the base spread.

Per-layer metrics have no bound; their changes are listed, counts first.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _load(path):
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs[(rec["workload"], rec["trace"])].append(rec)
    return runs


def _stats(values):
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def _verdict(base, new, bound, lower_better):
    (mb, sb), (mn, sn) = _stats(base), _stats(new)
    change = (mn - mb) / abs(mb) if mb else float("inf")
    worse_by = change if lower_better else -change
    beats_all = (max(new) < min(base)) if lower_better \
        else (min(new) > max(base))
    if worse_by > bound:
        return change, "worse"
    if max(sb, sn) > bound and not beats_all:
        return change, "unresolved"
    if -worse_by > sb:
        return change, "better"
    return change, "within bound"


def _values(records, name):
    return [r["metrics"][name]["value"] for r in records
            if name in r["metrics"]]


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    spec = json.loads(SPEC.read_text())
    base, new = _load(argv[0]), _load(argv[1])
    for label, runs in (("base", base), ("new", new)):
        facts = {json.dumps({k: r["machine"].get(k) for k in
                             ("python", "nproc", "commit", "src_sha256")})
                 for recs in runs.values() for r in recs}
        print("%s: %s" % (label, "; ".join(sorted(facts))))
    workloads = sorted({w for w, _ in base} | {w for w, _ in new})
    print("\nend to end (median change, verdict)")
    print("%-11s %s" % ("workload", "  ".join(
        "%-30s" % m["name"] for m in spec["end_to_end"])))
    for w in workloads:
        cells = []
        for m in spec["end_to_end"]:
            b = _values(base.get((w, 0), []), m["name"])
            n = _values(new.get((w, 0), []), m["name"])
            if not b or not n:
                cells.append("%-30s" % "no runs")
                continue
            change, verdict = _verdict(b, n, m["bound"],
                                       m["better"] == "lower")
            cells.append("%-30s" % ("%+.1f%% %s (%d/%d runs)"
                                    % (100 * change, verdict, len(b),
                                       len(n))))
        print("%-11s %s" % (w, "  ".join(cells)))
    print("\nper layer (traced runs; median base -> new)")
    for w in workloads:
        b_runs, n_runs = base.get((w, 1), []), new.get((w, 1), [])
        if not b_runs or not n_runs:
            print("%s: no traced runs on both sides" % w)
            continue
        rows = []
        for m in spec["per_layer"]:
            b = _values(b_runs, m["name"])
            n = _values(n_runs, m["name"])
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            if mb == mn:
                continue
            change = "%+.1f%%" % (100 * (mn - mb) / abs(mb)) if mb else "new"
            rows.append((m["unit"] != "count", m["name"], mb, mn, change))
        print("%s: %d of %d per-layer metrics changed"
              % (w, len(rows), len(spec["per_layer"])))
        for _, name, mb, mn, change in sorted(rows):
            print("  %-48s %14.6g -> %-14.6g %s" % (name, mb, mn, change))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
