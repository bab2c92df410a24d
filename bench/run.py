#!/usr/bin/env python3
"""foliation-lab benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload plane --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nowhere else.  The inputs are generated from the
seed (bench/workloads.py), written to a temporary directory, and fed one
at a time to ``foliation_lab.cli.main`` in this process: a closed loop
with one client.  Every report is checked against ground truth
(bench/checks.py).

``--trace 0`` measures end to end and prints setup_s, verdicts_per_s,
item_p50_s, item_tail_s, verdict_share and peak_rss_mib.  It runs a
fixed number of whole cycles of the workload's slot schedule, as many as
take ``--seconds`` on the reference machine (NOMINAL_CYCLE_S);
verdicts_per_s is items per wall second over the whole pass.
``--trace 1`` runs a fixed prefix of the stream twice, untraced and then
traced (bench/tracer.py), checks that both passes wrote byte-identical
reports, and prints the per-layer metrics; its counts repeat exactly for
one seed.

The last line of standard output is the JSON result.  A fuller record
(machine facts, tail percentile and sample count, failure and
inconclusive shares, the input mix) is printed to standard error and
appended to .bench_results/runs.jsonl; bench/compare.py compares two such
files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
# Seconds one cycle of each slot schedule took on the reference machine
# (2 CPUs, Python 3.11).  A run measures round(--seconds / this) whole
# cycles: the same items for one seed and the same slot mix for every
# seed, so the tail items come from the same slots in every run.
NOMINAL_CYCLE_S = {"plane": 7.0, "space3-projective": 26.0}
# cycles of the fixed prefix that a traced run goes through
TRACE_CYCLES = {"plane": 2, "space3-projective": 1}
# wrapped functions each workload must reach; together they cover all
EXERCISES = {
    "plane": [
        "cli.main", "parser.parse_form", "reduce2d.seidenberg_reduce",
        "reduce2d.classify_point2", "blowup.blowup_point2",
        "forms.normalize2", "forms.invariant_graph_jet", "forms.nu0",
        "forms.mu0", "poly.MPoly.__mul__", "poly.MPoly.substitute",
        "poly.exact_divide", "poly.gcd_bivariate", "poly.u_gcd",
        "poly.u_roots_in_tower", "linalg.solve", "linalg.rank",
        "separatrix.separatrices2", "separatrix.multiplicity_identity_check",
        "fields.FieldElement.__mul__", "fields.FieldElement.__add__",
        "fields.FieldElement.inverse", "fields.sqrt_in_tower",
        "fields.FieldDescriptor.widened"],
    "space3-projective": [
        "blowup.blowup_point3", "blowup.blowup_curve3", "forms.normalize3",
        "linalg.nullspace", "separatrix.weak_separatrix_jet",
        "threefold.second_type3_via_sections", "threefold.pullback_section",
        "threefold.match_simple_model3", "threefold.theorem_main_harness",
        "threefold.dimensional_type",
        "indices.sum_theorem_check", "indices.plane_singularities",
        "indices.cs_index", "indices.gsv_index", "indices.bb_index",
        "indices.logarithmic_criterion", "indices.localize_at",
        "poly.u_resultant", "linalg.det"],
}


def _import_program():
    """foliation_lab.cli from this checkout's src/, or exit 1."""
    if not (SRC / "foliation_lab" / "__init__.py").is_file():
        sys.exit("bench: %s holds no foliation_lab package; run from the "
                 "root of a source checkout" % SRC)
    sys.path.insert(0, str(SRC))
    from foliation_lab import cli
    if Path(cli.__file__).resolve().parent != SRC / "foliation_lab":
        sys.exit("bench: foliation_lab was imported from %s, not %s"
                 % (cli.__file__, SRC))
    return cli


def _cycles(workload, seconds, trace):
    if trace:
        return TRACE_CYCLES[workload]
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def _setup(workload, seed, cycles, workdir):
    """Import the program and write the inputs: what a run needs before
    its first item."""
    cli = _import_program()
    items = workloads.generate(workload, seed, cycles)
    for item in items:
        with open(os.path.join(workdir, item.name + ".form"), "w",
                  encoding="utf-8") as fh:
            fh.write(item.text + "\n")
    return cli, items


def _setup_seconds(workload, seed, seconds, scratch):
    """Median wall time of fresh interpreters that only set up."""
    times = []
    for k in range(SETUP_PROBES):
        workdir = os.path.join(scratch, "probe%d" % k)
        os.mkdir(workdir)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--setup-probe", workdir, "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds)],
                       check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _run_item(cli, item, workdir, outdir, tag):
    out = os.path.join(outdir, "%s.json" % tag)
    argv = ([item.command, os.path.join(workdir, item.name + ".form"),
             "--out", out] + item.flags)
    try:
        code = cli.main(argv)
    except Exception as exc:  # a crash is a failed item, not a dead run
        code = "crash: %s: %s" % (type(exc).__name__, exc)
    return code, out


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _judge(item, code, blob):
    report = None
    if blob is not None:
        try:
            report = json.loads(blob)
        except ValueError:
            pass
    status, problems = checks.status_of(item.command, item.expect, code,
                                        report)
    return status, report, problems


def _tail(times):
    """Mean time of the items at and beyond the highest percentile with at
    least 10 samples beyond it (the 11 slowest), with that percentile.
    One item's time swings with the machine's speed from second to
    second; the mean of the 11 slowest spreads that over their span."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - 11, 0)
    return statistics.fmean(ordered[k:]), 100.0 * (k + 1) / n


def _machine():
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() \
                else None
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "foliation_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "src_sha256": digest.hexdigest(),
            "platform": platform.platform()}


def _mix(results):
    """Shares of attempted items by command, tower, nu, family and
    reported blow-up count."""
    n = len(results)
    keys = {"command": lambda it, rep: it.command,
            "tower": lambda it, rep: it.tower,
            "nu": lambda it, rep: str(it.nu),
            "family": lambda it, rep: it.family,
            "blowups": lambda it, rep: str(
                (rep or {}).get("reduction", {}).get("blowups", "n/a"))}
    return {name: {k: round(v / n, 4) for k, v in sorted(
        Counter(f(it, rep) for it, _, _, rep, _ in results).items())}
        for name, f in keys.items()}


def _negative_control(results):
    """A planted wrong expectation on an item that checked out must be
    flagged; True when it is."""
    for item, code, status, report, _ in results:
        if status != "ok":
            continue
        wrong = checks.planted(item.expect)
        if wrong is None:
            continue
        return bool(checks.problems_of(item.command, wrong, code, report))
    return False


def _pass(cli, items, workdir, outdir, tracer=None):
    """Run items once in order, one at a time: a closed loop with one
    client.  Returns (start times, item times, codes, report bytes, wall);
    the start times carry one more entry, the end of the pass."""
    starts, times, codes, blobs = [], [], [], []
    for item in items:
        if tracer is not None:
            tracer.item = item.index
        t0 = time.perf_counter()
        code, out = _run_item(cli, item, workdir, outdir, item.name)
        times.append(time.perf_counter() - t0)
        starts.append(t0)
        codes.append(code)
        blobs.append(_read(out))
    starts.append(time.perf_counter())
    return starts, times, codes, blobs, starts[-1] - starts[0]


def _judged(items, codes, blobs):
    """(item, code, status, report, problems) for each item run."""
    return [(item, code) + _judge(item, code, blob)
            for item, code, blob in zip(items, codes, blobs)]


def _fallback_operands():
    """Representative operand pairs per tower for a mul replay on a
    workload that never multiplies in that tower."""
    from fractions import Fraction
    from foliation_lab.fields import FieldDescriptor
    out = []
    for desc in (FieldDescriptor(), FieldDescriptor(2),
                 FieldDescriptor(parameter="s")):
        gen = (desc.sqrt_gen() if desc.quadratic_extension
               else desc.param_gen() if desc.parameter
               else desc.one())
        a = desc.rational(Fraction(3, 7)) + gen
        b = desc.rational(Fraction(-5, 11)) + gen * desc.rational(2)
        out.append([(a, b), (b, a)])
    return out


def _summary(results):
    n = len(results)
    counts = Counter(status for _, _, status, _, _ in results)
    failures = [{"item": item.name, "family": item.family,
                 "command": item.command, "code": str(code),
                 "problems": problems[:3]}
                for item, code, status, _, problems in results
                if status == "failed"]
    return {"attempted": n, "failed": counts["failed"],
            "fail_share": counts["failed"] / n,
            "inconclusive_share": counts["inconclusive"] / n,
            "verdict_share": counts["ok"] / n,
            "failures": failures[:5]}


def _frozen_oracles_hold(results):
    return all(status != "failed" for item, _, status, _, _ in results
               if "oracle" in item.expect)


def run_untraced(workload, seed, seconds, scratch):
    setup_s = _setup_seconds(workload, seed, seconds, scratch)
    workdir = os.path.join(scratch, "inputs")
    outdir = os.path.join(scratch, "reports")
    os.mkdir(workdir)
    os.mkdir(outdir)
    cli, items = _setup(workload, seed, _cycles(workload, seconds, False),
                        workdir)
    starts, times, codes, blobs, wall = _pass(cli, items, workdir, outdir)
    results = _judged(items, codes, blobs)
    n = workloads.CYCLE_LENGTH[workload]
    cycle_s = [starts[k + n] - starts[k] for k in range(0, len(times), n)]
    tail, pct = _tail(times)
    summary = _summary(results)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "verdicts_per_s": {"value": len(times) / wall, "unit": "1/s"},
        "item_p50_s": {"value": statistics.median(times), "unit": "s"},
        "item_tail_s": {"value": tail, "unit": "s"},
        "verdict_share": {"value": summary["verdict_share"],
                          "unit": "ratio"},
        "peak_rss_mib": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
    }
    control = _negative_control(results)
    correct = control and _frozen_oracles_hold(results)
    extra = {"tail_percentile": pct, "samples": len(times), "wall_s": wall,
             "cycle_s": cycle_s,
             "negative_control_flagged": control, "mix": _mix(results)}
    return correct, summary, metrics, extra


def run_traced(workload, seed, scratch, spans_path):
    from tracer import Tracer
    workdir = os.path.join(scratch, "inputs")
    os.mkdir(workdir)
    cli, fixed = _setup(workload, seed, _cycles(workload, 0, True), workdir)
    plain_dir = os.path.join(scratch, "plain")
    traced_dir = os.path.join(scratch, "traced")
    os.mkdir(plain_dir)
    os.mkdir(traced_dir)
    _, _, codes, plain, plain_wall = _pass(cli, fixed, workdir, plain_dir)
    tracer = Tracer()
    tracer.install()
    try:
        _, _, traced_codes, traced, traced_wall = _pass(
            cli, fixed, workdir, traced_dir, tracer)
    finally:
        tracer.uninstall()
    identical = plain == traced and codes == traced_codes
    digest = hashlib.sha256(b"".join(b or b"-" for b in plain)).hexdigest()
    results = _judged(fixed, codes, plain)
    calls = tracer.call_counts()
    unreached = [k for k in EXERCISES[workload] if not calls.get(k)]
    metrics = tracer.metrics(traced_wall - plain_wall, _fallback_operands())
    summary = _summary(results)
    metrics["items.fail_share"] = {"value": summary["fail_share"],
                                   "unit": "ratio"}
    metrics["items.inconclusive_share"] = {
        "value": summary["inconclusive_share"], "unit": "ratio"}
    control = _negative_control(results)
    correct = (control and identical and not unreached
               and _frozen_oracles_hold(results))
    tracer.write_spans(spans_path)
    extra = {"reports_identical": identical, "report_digest": digest,
             "unreached": unreached, "bindings": tracer.bindings,
             "spans": len(tracer.spans), "negative_control_flagged": control,
             "mix": _mix(results)}
    return correct, summary, metrics, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    opts = ap.parse_args(argv)
    if opts.setup_probe:
        _setup(opts.workload, opts.seed,
               _cycles(opts.workload, opts.seconds, False), opts.setup_probe)
        return 0
    _import_program()
    machine = _machine()
    load_start = os.getloadavg()
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as scratch:
        if opts.trace:
            spans = RESULTS / ("spans-%s-%d.jsonl.gz"
                               % (opts.workload, opts.seed))
            correct, summary, metrics, extra = run_traced(
                opts.workload, opts.seed, scratch, spans)
        else:
            correct, summary, metrics, extra = run_untraced(
                opts.workload, opts.seed, opts.seconds, scratch)
    machine["loadavg_start"] = load_start
    machine["loadavg_end"] = os.getloadavg()
    record = {"workload": opts.workload, "seed": opts.seed,
              "seconds": opts.seconds, "trace": opts.trace,
              "correct": correct, "machine": machine, "metrics": metrics}
    record.update(summary)
    record.update(extra)
    with open(RESULTS / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        print("%-*s %14.6g %s" % (width, name, m["value"], m["unit"]),
              file=sys.stderr)
    if "tail_percentile" in extra:
        print("item_tail_s is the mean from the p%.1f up, of %d items"
              % (extra["tail_percentile"], extra["samples"]), file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"},
                     indent=1), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
