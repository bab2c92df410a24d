"""tools/report_digest.py --count: per-caller call counts that leave the
digest and the package's bindings as they were."""

import importlib.util
import sys
from pathlib import Path

from foliation_lab import forms, reduce2d

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("report_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_prints_callers_and_keeps_the_digest(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    original = forms.normalize2
    tool = _tool()
    tool.main(["corpus2"])
    plain = capsys.readouterr().out.splitlines()
    tool.main(["--count", "forms.normalize2", "corpus2"])
    counted = capsys.readouterr().out.splitlines()
    assert counted[0] == plain[0] and len(plain) == 1
    calls = {line.split()[1]: int(line.split()[2]) for line in counted[1:]}
    assert all(line.split()[0] == "forms.normalize2" for line in counted[1:])
    # each reduction normalizes its root once and each visited point once,
    # in classify_point2; the engine's own loop adds no call
    assert calls["reduce2d:seidenberg_reduce"] == 48
    assert calls["reduce2d:classify_point2"] > 0
    assert "reduce2d:process" not in calls
    assert calls["total"] == sum(n for k, n in calls.items() if k != "total")
    # the bindings are restored
    assert forms.normalize2 is original and reduce2d.normalize2 is original


def test_chain_set_runs_the_one_over_n_family(capsys, monkeypatch):
    """chain:N is second-type3 --seed 1 on the residues (1, 1, -1/N); at
    N = 2 the section test is inconclusive and the item exits 2."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    _tool().main(["--list", "chain:2"])
    item, total = capsys.readouterr().out.splitlines()
    assert item.split()[:2] == ["chain/2", "2"]
    assert total.split()[:2] == ["chain:2", "1"]


# the quick sets and their digests, as tools/report_digest.py prints them
GOLDEN = {
    "corpus2 48":
        "aecb5c0a0a219ce31122c540d1322d26657712651562af20950503c5a6abaa3b",
    "plane:7:7 147":
        "593cd6485881836b0200b582be1c6fac0e7adff3c9318aa4ff656c9a4c9d0111",
    "space3-projective:5:2 156":
        "e0ab70ff62cb175c6e3dc510fd046e541514f65af9551ae9583241fa95f50072",
    "chain:2,3 2":
        "7c2176e0ef8df5bec752f617c81ab7c7d87b1b181dd63de99825f75f3dde4542",
}


def test_reports_match_the_golden_digests(capsys, monkeypatch):
    """Every report of the quick digest sets is byte-identical to the one
    these digests were taken from, exit codes included.  A change that
    alters any report fails here: it updates the set's digest in GOLDEN
    in the same commit and lists each moved item
    (tools/report_digest.py --list SET) in CHANGES.md."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    _tool().main([spec.split()[0] for spec in GOLDEN])
    lines = capsys.readouterr().out.splitlines()
    assert dict(line.rsplit(" ", 1) for line in lines) == GOLDEN
