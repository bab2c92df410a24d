#!/usr/bin/env python3
"""Write a BENCH_<n>.json file from the paired runs of a parent and a change.

    python3 tools/bench_file.py --parent SHA --change SHA --out BENCH_n.json \
        [--claim WORKLOAD:METRIC] [--notes NOTES.json] [RUNS.jsonl ...]

The inputs are run records as bench/run.py appends them to
.bench_results/runs.jsonl (the default input).  Records are split into
the two sides by their source digest (``machine.src_sha256``; a unique
prefix will do).  Untraced runs are paired by seed, in the order the
parent's runs were made; each workload gets, per end-to-end metric of
BENCHMARK.json, both sides' quartiles and runs, the number of pairs the
change won and the number of ties.  The last traced run of each side
fills ``traced``.  With ``--claim`` the file states whether the claim is
met: the change wins at least nine tenths of the pairs and the medians
differ by more than the parent's quartile distance.  ``bounds`` gives,
per workload and metric, the change of the median against the bound that
BENCHMARK.json fixes, with the spread and the beats-all test taken per
seed.  The keys of NOTES.json (method, tier1, src_lines, ...) are copied
to the top level as they are.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
TRACED = ["poly.MPoly.substitute.calls", "poly.MPoly.substitute.self_s",
          "poly.MPoly.__mul__.calls", "poly.MPoly.__mul__.self_s",
          "forms.normalize2.calls", "forms.normalize2.self_s",
          "poly.gcd_bivariate.calls", "poly.gcd_bivariate.self_s",
          "poly.exact_divide.calls", "poly.u_gcd.self_s",
          "poly.u_resultant.self_s", "indices.plane_singularities.self_s",
          "linalg.solve.calls", "linalg.nullspace.self_s", "linalg.det.self_s",
          "linalg.rank.self_s", "threefold.dimensional_type.self_s",
          "threefold.match_simple_model3.self_s",
          "threefold.pullback_section.self_s", "fields.mul.q",
          "fields.mul.quad", "fields.mul.param", "fields.add.q",
          "fields.add.quad", "fields.add.param", "fields.inverse.q",
          "fields.inverse.quad", "fields.inverse.param", "fields.mul_us.q",
          "fields.mul_us.quad", "fields.mul_us.param",
          "poly.u_roots_in_tower.calls", "poly.u_roots_in_tower.self_s"]


def _side(rec, parent, change):
    sha = rec["machine"]["src_sha256"]
    hits = [name for name, prefix in (("parent", parent), ("change", change))
            if sha.startswith(prefix)]
    if len(hits) > 1:
        sys.exit("bench_file: digest %s matches both sides" % sha)
    return hits[0] if hits else None


def _load(paths, parent, change):
    out = {"parent": [], "change": []}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    side = _side(rec, parent, change)
                    if side:
                        out[side].append(rec)
    return out


def _quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"q1": q1, "median": med, "q3": q3, "iqr": q3 - q1}


def _pairs(parent_runs, change_runs):
    """(parent record, change record) per seed, in the parent's order."""
    by_seed = {}
    for rec in change_runs:
        by_seed.setdefault(rec["seed"], []).append(rec)
    pairs = []
    for rec in parent_runs:
        if by_seed.get(rec["seed"]):
            pairs.append((rec, by_seed[rec["seed"]].pop(0)))
    return pairs


def _metric(pairs, name, better):
    sides = {s: [rec["metrics"][name]["value"] for rec in side_recs]
             for s, side_recs in zip(("parent", "change"), zip(*pairs))}
    wins = ties = 0
    for p, c in zip(sides["parent"], sides["change"]):
        if p == c:
            ties += 1
        elif (c < p) == (better == "lower"):
            wins += 1
    return {"better": better, "parent": _quartiles(sides["parent"]),
            "change": _quartiles(sides["change"]),
            "change_better_in_pairs": wins, "ties": ties, "runs": sides}


def _traced(recs, names):
    recs = [r for r in recs if r["trace"] == 1]
    if not recs:
        return None
    rec = recs[-1]
    out = {n: rec["metrics"][n]["value"] for n in names if n in rec["metrics"]}
    for key in ("report_digest", "unreached", "reports_identical"):
        out[key] = rec.get(key)
    return rec["seed"], out


def _workload(name, sides, spec, traced_names):
    untraced = {s: [r for r in recs if r["workload"] == name
                    and r["trace"] == 0] for s, recs in sides.items()}
    pairs = _pairs(untraced["parent"], untraced["change"])
    if not pairs:
        return None
    out = {"pairs": len(pairs), "seeds": [p["seed"] for p, _ in pairs]}
    for key in ("failed", "attempted"):
        out[key + "_per_run"] = {
            s: sorted({rec[key] for rec in side})
            for s, side in zip(("parent", "change"), zip(*pairs))}
    out["all_correct"] = all(r["correct"] for pair in pairs for r in pair)
    out["end_to_end"] = {m["name"]: _metric(pairs, m["name"], m["better"])
                         for m in spec["end_to_end"]}
    traced = {s: _traced([r for r in recs if r["workload"] == name],
                         traced_names) for s, recs in sides.items()}
    if all(traced.values()):
        out["traced"] = {"seed": traced["parent"][0],
                         "parent": traced["parent"][1],
                         "change": traced["change"][1]}
    return out


def _claim(workloads, claim):
    name, metric = claim.split(":")
    m = workloads[name]["end_to_end"][metric]
    n = workloads[name]["pairs"]
    gap = abs(m["change"]["median"] - m["parent"]["median"])
    better = (m["change"]["median"] < m["parent"]["median"]) \
        == (m["better"] == "lower")
    met = (m["change_better_in_pairs"] * 10 >= 9 * n and better
           and gap > m["parent"]["iqr"])
    return {"metric": metric, "workload": name,
            "result": "%s: the change is better in %d of %d pairs; median "
                      "%.4g -> %.4g, a difference of %.4g against the "
                      "parent's IQR of %.4g"
                      % ("met" if met else "not met",
                         m["change_better_in_pairs"], n,
                         m["parent"]["median"], m["change"]["median"], gap,
                         m["parent"]["iqr"])}


def _by_seed(values, seeds):
    """The values of each seed, in the order of the pairs."""
    out = {}
    for v, seed in zip(values, seeds):
        out.setdefault(seed, []).append(v)
    return out


def _bounds(workloads, spec):
    """Per workload and metric, the change of the median against the
    bound of BENCHMARK.json.  Seeds run different items, so their medians
    differ: the spread is the largest IQR over median of one side on one
    seed, and the change beats all when on every seed each of its runs
    beats each of the parent's."""
    out = {}
    for name, w in workloads.items():
        rows = {}
        for m in spec["end_to_end"]:
            e = w["end_to_end"][m["name"]]
            base, new = e["parent"]["median"], e["change"]["median"]
            change = (new - base) / abs(base) if base else 0.0
            worse_by = change if m["better"] == "lower" else -change
            runs = {s: _by_seed(e["runs"][s], w["seeds"])
                    for s in ("parent", "change")}
            spread, beats_all = 0.0, True
            for seed, parent in runs["parent"].items():
                ours = runs["change"][seed]
                for q in (_quartiles(parent), _quartiles(ours)):
                    if q["median"]:
                        spread = max(spread, q["iqr"] / abs(q["median"]))
                beats_all = beats_all and (
                    max(ours) < min(parent) if m["better"] == "lower"
                    else min(ours) > max(parent))
            rows[m["name"]] = {
                "median_change": change, "bound": m["bound"],
                "spread": spread,
                "verdict": "worse" if worse_by > m["bound"]
                else "unresolved" if spread > m["bound"] and not beats_all
                else "within bound"}
        out[name] = rows
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("runs", nargs="*",
                    default=[str(ROOT / ".bench_results" / "runs.jsonl")])
    ap.add_argument("--parent", required=True, help="parent src_sha256")
    ap.add_argument("--change", required=True, help="change src_sha256")
    ap.add_argument("--out", required=True)
    ap.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    ap.add_argument("--notes", default=None, metavar="NOTES.json")
    opts = ap.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    sides = _load(opts.runs, opts.parent, opts.change)
    if not sides["parent"] or not sides["change"]:
        sys.exit("bench_file: no runs for one of the two digests")
    workloads = {}
    for w in spec["workloads"]:
        got = _workload(w["name"], sides, spec, TRACED)
        if got:
            workloads[w["name"]] = got
    machine = sides["parent"][0]["machine"]
    doc = {"host": {"python": machine["python"], "nproc": machine["nproc"]},
           "src_sha256": {s: recs[0]["machine"]["src_sha256"]
                          for s, recs in sides.items()}}
    if opts.notes:
        doc.update(json.loads(Path(opts.notes).read_text(encoding="utf-8")))
    doc["workloads"] = workloads
    if opts.claim:
        doc["claim"] = _claim(workloads, opts.claim)
    doc["bounds"] = _bounds(workloads, spec)
    Path(opts.out).write_text(json.dumps(doc, indent=1) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
