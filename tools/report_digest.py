#!/usr/bin/env python3
"""Digest the exit codes and report bytes of fixed input sets.

    python3 tools/report_digest.py [--list] [--flags "..."] SET [SET ...]

A SET is either

- ``corpus2``: the twelve plane forms of tests/conftest.py, each under
  analyze2, reduce2, separatrices and second-type2; or
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
``--flags "--jet-order 4"`` appends the given options to every item's
command line, after the item's own flags, so one command digests (and
lists) a set under a non-default option set; the later option wins where
both name the same one.  Nothing is written outside a temporary
directory.
"""

from __future__ import annotations

import argparse
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
    import workloads
    try:
        workload, seeds, cycles = spec.split(":")
        seeds = [int(s) for s in seeds.split(",")]
        cycles = int(cycles)
    except ValueError:
        sys.exit("report_digest: a set is corpus2 or WORKLOAD:SEEDS:CYCLES, "
                 "not %r" % spec)
    out = []
    for seed in seeds:
        for item in workloads.generate(workload, seed, cycles):
            out.append(("%d/%s" % (seed, item.name), item.command,
                        item.name + ".form", item.text + "\n", item.flags))
    return out


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
    opts = ap.parse_args(argv)
    extra = shlex.split(opts.flags)
    cli = _import_program()
    with tempfile.TemporaryDirectory() as workdir:
        for spec in opts.sets:
            items = _items(spec)
            digest = hashlib.sha256()
            for item in items:
                code, blob = _run(cli, item, workdir, extra)
                digest.update(("%s\0%s\0" % (item[0], code)).encode())
                digest.update(blob + b"\0")
                if opts.list:
                    print("  %s %s %s" % (item[0], code,
                                          hashlib.sha256(blob).hexdigest()[:16]))
            print("%s %d %s" % (spec, len(items), digest.hexdigest()))


if __name__ == "__main__":
    main()
