#!/usr/bin/env python3
"""Digest the exit codes and report bytes of fixed input sets.

    python3 tools/report_digest.py [--list] [--flags "..."]
                                   [--count LAYER.FUNC ...] SET [SET ...]

A SET is either

- ``corpus2``: the twelve plane forms of tests/conftest.py, each under
  analyze2, reduce2, separatrices and second-type2;
- ``chain:N[,N...]``, for example ``chain:2,3,4``: ``second-type3 --seed
  1`` on ``omega3: y*z dx + x*z dy + (-1/N)*x*y dz`` for each N, a germ
  whose plane sections are reduced along blow-up chains that grow with
  N; or
- ``WORKLOAD:SEED[,SEED...]:CYCLES``, for example ``plane:7,11:7``: the
  items that bench/workloads.py generates for each seed, with the file
  names and flags that bench/run.py gives them.

Every input runs in this process through ``foliation_lab.cli.main`` from
this checkout's src/.  The digest of a set is a SHA-256 over each item's
name, exit code and report bytes, in order; the script prints one line
per set: its name, its item count and the digest.  Two checkouts that
print the same lines wrote byte-identical reports with the same exit
codes.  ``--list`` also prints one line per item (name, exit code, the
first 16 hex digits of its report's SHA-256), to find an item that moved.
``--flags "--truncation 6"`` appends the given options to every item's
command line, after the item's own flags, so one command digests (and
lists) a set under a non-default option set; the later option wins where
both name the same one.  ``--count forms.normalize2`` (repeatable; a
method is ``poly.MPoly.substitute``) rebinds every binding of that
function in the package to a wrapper that counts its calls, with
bench/tracer.py's rebinding, and after each set's line prints one line
per calling ``module:function`` with its calls, then the total; the
bindings are restored at exit, and the digests do not change.  Nothing
is written outside a temporary directory.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PLANE_COMMANDS = ("analyze2", "reduce2", "separatrices", "second-type2")


def _import_program():
    for sub in ("src", "bench", "tests"):
        sys.path.insert(0, str(ROOT / sub))
    from foliation_lab import cli
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "foliation_lab":
        sys.exit("report_digest: foliation_lab was imported from %s"
                 % cli.__file__)
    return cli


def _items(spec):
    """(name, command, file name, text, flags) for each input of a set."""
    if spec == "corpus2":
        from conftest import corpus2
        return [("%s/%s" % (command, name), command, name + ".form",
                 "omega2: %s\n" % form.render(), [])
                for name, (form, _) in sorted(corpus2().items())
                for command in PLANE_COMMANDS]
    if spec.startswith("chain:"):
        try:
            ns = [int(n) for n in spec[len("chain:"):].split(",")]
        except ValueError:
            sys.exit("report_digest: a chain set is chain:N[,N...], not %r"
                     % spec)
        return [("chain/%d" % n, "second-type3", "chain%d.form" % n,
                 "omega3: y*z dx + x*z dy + (-1/%d)*x*y dz\n" % n,
                 ["--seed", "1"]) for n in ns]
    import workloads
    try:
        workload, seeds, cycles = spec.split(":")
        seeds = [int(s) for s in seeds.split(",")]
        cycles = int(cycles)
    except ValueError:
        sys.exit("report_digest: a set is corpus2, chain:N[,N...] or "
                 "WORKLOAD:SEEDS:CYCLES, not %r" % spec)
    out = []
    for seed in seeds:
        for item in workloads.generate(workload, seed, cycles):
            out.append(("%d/%s" % (seed, item.name), item.command,
                        item.name + ".form", item.text + "\n", item.flags))
    return out


def _install_counters(keys):
    """Rebind each LAYER.FUNC to a counting wrapper; returns the tracer
    that restores the bindings and one Counter of callers per key."""
    import tracer
    rebinder = tracer.Tracer()
    counters = {}
    for key in dict.fromkeys(keys):
        layer, _, qualname = key.partition(".")
        try:
            orig = tracer._resolve(layer, qualname)
        except KeyError:
            rebinder.uninstall()
            sys.exit("report_digest: no function %r in the package" % key)
        counters[key] = collections.Counter()
        rebinder._rebind(key, orig, _counting(orig, counters[key]))
    return rebinder, counters


def _counting(fn, counts):
    def wrapper(*args, **kwargs):
        caller = sys._getframe(1)
        module = caller.f_globals.get("__name__", "?").rpartition(".")[2]
        counts["%s:%s" % (module, caller.f_code.co_name)] += 1
        return fn(*args, **kwargs)
    return wrapper


def _run(cli, item, workdir, extra):
    name, command, file_name, text, flags = item
    path = os.path.join(workdir, file_name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    out = os.path.join(workdir, "report.json")
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, path, "--out", out] + list(flags)
                            + extra)
    except Exception as exc:  # a crash is an outcome too
        code = "crash: %s: %s" % (type(exc).__name__, exc)
    blob = b""
    if os.path.exists(out):
        with open(out, "rb") as fh:
            blob = fh.read()
        os.remove(out)
    os.remove(path)
    return code, blob


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("sets", nargs="+", metavar="SET")
    ap.add_argument("--list", action="store_true",
                    help="also print one line per item")
    ap.add_argument("--flags", default="", metavar='"..."',
                    help="options appended to every item's command line")
    ap.add_argument("--count", action="append", default=[],
                    metavar="LAYER.FUNC",
                    help="count the calls of a package function per caller")
    opts = ap.parse_args(argv)
    extra = shlex.split(opts.flags)
    cli = _import_program()
    rebinder, counters = _install_counters(opts.count)
    try:
        with tempfile.TemporaryDirectory() as workdir:
            for spec in opts.sets:
                items = _items(spec)
                digest = hashlib.sha256()
                for item in items:
                    code, blob = _run(cli, item, workdir, extra)
                    digest.update(("%s\0%s\0" % (item[0], code)).encode())
                    digest.update(blob + b"\0")
                    if opts.list:
                        print("  %s %s %s" % (
                            item[0], code,
                            hashlib.sha256(blob).hexdigest()[:16]))
                print("%s %d %s" % (spec, len(items), digest.hexdigest()))
                for key, counts in counters.items():
                    for caller, n in sorted(counts.items()):
                        print("  %s %s %d" % (key, caller, n))
                    print("  %s total %d" % (key, sum(counts.values())))
                    counts.clear()
    finally:
        rebinder.uninstall()


if __name__ == "__main__":
    main()
