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
