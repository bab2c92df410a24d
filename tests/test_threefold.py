"""Three-variable germs: model matching, section tests, main harness."""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

from foliation_lab import (cli, dimensional_type, linalg,
                           match_simple_model3, second_type3_via_sections,
                           theorem_main_harness, threefold, well_oriented3)
from foliation_lab.forms import DivisorBranch, LocalDivisor, OneForm3
from foliation_lab.poly import MPoly

from conftest import (CUSP_LINE_SCRIPT, Q, Q2, XYZ, cusp_line_form,
                      dressed_cusp_cylinder, f3)

_R2 = Q2.sqrt_gen()
SRC = Path(__file__).resolve().parent.parent / "src" / "foliation_lab"


def _m3(e, c, desc=Q2):
    return MPoly(XYZ, {e: c}, desc)


def _dxyz():
    return f3({(0, 1, 1): 1}, {(1, 0, 1): 1}, {(1, 1, 0): 1})


def _fibered_tangent():
    """The plane germ y(y - x) dx + x^2 dy made constant along z."""
    return f3({(0, 2, 0): 1, (1, 1, 0): -1}, {(2, 0, 0): 1}, {})


def test_dimensional_type():
    assert dimensional_type(_dxyz()) == (3, None)
    tau, direction = dimensional_type(_fibered_tangent())
    assert tau == 2
    # the germ is constant along z, and the solve returns that axis
    assert [not c.is_zero() for c in direction] == [False, False, True]


def test_only_dimensional_type_solves_the_cylinder_system():
    """_cylinder_candidate has one caller, dimensional_type, at orders 4
    and 6: the model match reads the axis from that solve."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                calls += [(path.name, fn.name, ast.literal_eval(c.args[1]))
                          for c in ast.walk(fn) if isinstance(c, ast.Call)
                          and getattr(c.func, "id", None)
                          == "_cylinder_candidate"]
    assert sorted(calls) == [("threefold.py", "dimensional_type", 4),
                             ("threefold.py", "dimensional_type", 6)]


def test_match_model_a():
    m = match_simple_model3(_dxyz())
    assert m.code == "A" and m.tau == 3
    fa = OneForm3(_m3((0, 1, 1), Q2.one()), _m3((1, 0, 1), _R2),
                  _m3((1, 1, 0), _R2 + _R2), XYZ)
    m = match_simple_model3(fa)
    assert m.code == "A"
    assert [r.render() for r in m.residues] == ["1", "rt(2)", "(2)*rt(2)"]


def test_match_rejects_zero_sum_residues():
    assert match_simple_model3(_fn()).code == "NotSimple"


def _fb1():
    return OneForm3(_m3((0, 1, 1), Q2.one()), _m3((2, 0, 1), _R2),
                    _m3((2, 1, 0), Q2.one()), XYZ)


def _fb2():
    return f3({(0, 1, 1): 1}, {(1, 0, 1): 1}, {(2, 2, 0): 1})


def _fb3():
    """Residues (1, 1, 1) carrying the resonant monomial xyz."""
    return OneForm3(
        _m3((0, 1, 1), Q2.one()),
        _m3((1, 0, 1), Q2.one()) + _m3((2, 1, 2), Q2.one()),
        _m3((1, 1, 0), Q2.one()) + _m3((2, 2, 1), _R2), XYZ)


def test_match_model_b1():
    m = match_simple_model3(_fb1())
    assert m.code == "B1"
    assert m.powers == (1,)
    assert [r.render() for r in m.residues] == ["1", "rt(2)", "1"]
    assert sorted(w.render() for w in m.weak_planes) == ["y", "z"]


def test_match_model_b2():
    m = match_simple_model3(_fb2())
    assert m.code == "B2"
    assert m.powers == (1, 1)
    assert [w.render() for w in m.weak_planes] == ["z"]


def test_well_oriented3_reads_the_invariant_divisor():
    m = match_simple_model3(_fb2())
    weak = MPoly.variable(XYZ, "z", Q).scale(Q.rational(2))
    assert not well_oriented3(m, LocalDivisor([DivisorBranch(weak)]))
    assert well_oriented3(m, LocalDivisor([DivisorBranch(weak, True)]))


def test_match_model_b3_resonant_monomial():
    m = match_simple_model3(_fb3())
    assert m.code == "B3"
    assert m.powers == (1, 1, 1)


def test_b_models_divide_without_a_linear_solve(monkeypatch):
    """b/a and c/a are unit-series quotients, divided degree by degree."""
    solves = []
    original = linalg.solve
    monkeypatch.setattr(linalg, "solve",
                        lambda *a: solves.append(1) or original(*a))
    for build, code in ((_fb1, "B1"), (_fb2, "B2"), (_fb3, "B3")):
        assert match_simple_model3(build()).code == code
    assert solves == []


def test_section_test_reads_the_cylinder_axis_from_the_match(monkeypatch):
    """dimensional_type solves the cylinder system once (two null
    spaces, at orders 4 and 6) and hands its direction to _match_tau2;
    the origin check of the section test reads the axis from the match
    instead of a second solve."""
    orders = []
    original = threefold._cylinder_candidate
    monkeypatch.setattr(threefold, "_cylinder_candidate",
                        lambda form, order: orders.append(order)
                        or original(form, order))
    form = dressed_cusp_cylinder()
    match = match_simple_model3(form)
    assert (match.code, match.tau, match.axis) == ("NotSimple", 2, "z")
    orders.clear()
    v = second_type3_via_sections(form, trials=0, seed=0)
    assert v.kind == "SecondType"
    assert "origin: cylinder reduction clean" in v.evidence
    assert orders == [4, 6]


def test_match_cylinder_over_tangent_germ_is_not_simple():
    assert match_simple_model3(_fibered_tangent()).code == "NotSimple"


def test_section_test_falsifies_tangent_germ():
    v = second_type3_via_sections(_fibered_tangent(), trials=4, seed=7)
    assert v.kind == "NotSecondType"
    assert len(v.witnesses) == 6
    # every witness names where it was found and carries leaf records
    for w in v.witnesses:
        assert w[0] and w[1]


def test_section_test_confirms_logarithmic_model():
    la = OneForm3(_m3((0, 1, 1), Q2.one()), _m3((1, 0, 1), _R2),
                  _m3((1, 1, 0), -Q2.one() - _R2), XYZ)
    v = second_type3_via_sections(la, trials=4, seed=0)
    assert v.kind == "SecondType"
    assert not v.witnesses


def test_section_test_confirms_exact_product_form():
    v = second_type3_via_sections(_dxyz(), trials=4, seed=0)
    assert v.kind == "SecondType"


def test_harness_product_form_all_simple():
    S = [MPoly.variable(XYZ, w, Q) for w in XYZ]
    rep = theorem_main_harness(_dxyz(), S, [])
    assert rep.ok
    assert len(rep.records) == 4
    assert all(r.simple for r in rep.records)
    assert not rep.diagnostics


@pytest.mark.parametrize("lam2,desc", [
    (Q2.sqrt_gen(), Q2),
    (Q.rational(Fraction(5, 2)), Q),
])
def test_harness_cusp_times_line(lam2, desc):
    form = cusp_line_form(lam2)
    S = [MPoly(XYZ, {(0, 2, 0): desc.one(), (3, 0, 0): -desc.one()}, desc),
         MPoly.variable(XYZ, "z", desc)]
    rep = theorem_main_harness(form, S, CUSP_LINE_SCRIPT)
    assert rep.ok, rep.diagnostics
    assert len(rep.records) == 12
    assert all(r.simple for r in rep.records)


def test_harness_flags_non_simple_point():
    S = [MPoly.variable(XYZ, "x", Q), MPoly.variable(XYZ, "y", Q)]
    rep = theorem_main_harness(_fibered_tangent(), S, [])
    assert not rep.ok
    assert any(not r.simple for r in rep.records)


# After the blow-up of the x-axis, chart az carries the exceptional plane
# {z = 0} and a B2 point at its origin.  In the first germ the weak plane
# of that point is the exceptional plane; in the second it is {y = 0},
# which the match reaches through a non-identity permutation.
@pytest.mark.parametrize("omega3,well,ok", [
    ("y*z^2 dx + x*z^2 dy + (x^2*y^2 - x*y*z) dz", False, False),
    ("y*z dx + x^2*z^2 dy + (x*y - x^2*y*z) dz", True, True),
], ids=["weak-plane-exceptional", "weak-plane-y"])
def test_theorem_main_checks_well_orientedness(tmp_form_file, tmp_path,
                                               omega3, well, ok):
    text = ("omega3: %s\nseparatrix:{ x, y, z }\nscript:[ axis-x ]\n"
            % omega3)
    out = tmp_path / "t.json"
    assert cli.main(["theorem-main", tmp_form_file(text),
                     "--out", str(out)]) == 0
    v = json.loads(out.read_text())["verdict3"]
    [rec] = [r for r in v["records"]
             if r["path"] == ["az"] and r["where"] == "origin"]
    assert rec["result"] == "B2" and rec["simple"] is True
    assert rec["well_oriented"] is well
    assert v["ok"] is ok


def test_theorem_main_traces_the_divisor_on_an_axis(tmp_form_file, tmp_path):
    """After the blow-up of the z-axis, chart ax has a b1 point whose weak
    plane {x = 0} is the exceptional plane.  That plane contains the
    z-axis, so its trace on the transversal plane at a generic axis point
    is the weak direction of the axis saddle-node: the axis checkpoint is
    not well oriented either.

    No script can leave only the axis check failing, so a harness that
    ignored badly oriented axis saddle-nodes would pass every test.  A
    divisor component D through a singular axis is invariant, and D is
    tangent to the weak direction of the transversal saddle-node at a
    generic axis point only when it is the weak separatrix surface there
    (the weak separatrix is the one formal invariant curve with that
    tangent).  So D contains the weak surface along the axis, and the
    origin, of type b1, B1 or B2 (the only simple types with a line of
    saddle-nodes), has D among its weak planes and is not well oriented
    either.  The converse fails, as the next test shows."""
    text = ("omega3: (y^2 + x*y) dx - x^2 dy\nseparatrix:{ x }\n"
            "script:[ axis-z ]\n")
    out = tmp_path / "t.json"
    assert cli.main(["theorem-main", tmp_form_file(text),
                     "--out", str(out)]) == 0
    v = json.loads(out.read_text())["verdict3"]
    recs = {r["where"]: r for r in v["records"] if r["path"] == ["ax"]}
    assert recs["origin"]["result"] == "b1"
    assert recs["origin"]["well_oriented"] is False
    assert recs["axis-z"]["result"] == "SaddleNode"
    assert recs["axis-z"]["well_oriented"] is False
    assert v["ok"] is False


def test_theorem_main_checks_a_weak_plane_off_the_axes(tmp_form_file,
                                                     tmp_path):
    """The germ is (v^2 + u v) du - u^2 dv pulled back by u = x,
    v = y - x z^2.  After the blow-up of the z-axis, chart ax carries the
    b1 point with exceptional plane {x = 0}, which is its weak plane,
    proved exactly.  Its line of saddle-nodes {x = 0, y = z^2} is no
    coordinate axis, so only the origin check sees the bad orientation."""
    text = ("omega3: ((y - x*z^2)^2 + x*y) dx - x^2 dy + 2*x^3*z dz\n"
            "separatrix:{ x }\nscript:[ axis-z ]\n")
    out = tmp_path / "t.json"
    assert cli.main(["theorem-main", tmp_form_file(text),
                     "--out", str(out)]) == 0
    v = json.loads(out.read_text())["verdict3"]
    recs = [(r["path"], r["where"], r["result"], r["well_oriented"])
            for r in v["records"]]
    assert recs == [(["ax"], "origin", "b1", False),
                    (["ay"], "origin", "b2", True),
                    (["ay"], "axis-z", "SimpleNonDegenerate", True)]
    assert v["ok"] is False


def _fn():
    return f3({(0, 1, 1): 1}, {(1, 0, 1): 1}, {(1, 1, 0): -2})


@pytest.mark.parametrize("form,calls", [
    (lambda: OneForm3(_m3((0, 1, 1), Q2.one()), _m3((1, 0, 1), _R2),
                      _m3((1, 1, 0), _R2 + _R2), XYZ), 0),
    (_fn, 0),
    (_dxyz, 2),
], ids=["model-A-irrational", "resonant-all-permutations", "B3-then-A"])
def test_match_divides_by_a_only_for_the_b_models(monkeypatch, form, calls):
    """b/a and c/a are series divisions: at most once per permutation, and
    never when only model A can match."""
    seen = []
    quot = threefold.exact_divide
    monkeypatch.setattr(threefold, "exact_divide",
                        lambda *args: seen.append(args) or quot(*args))
    match_simple_model3(form())
    assert len(seen) == calls


def _second_type3(tmp_form_file, tmp_path, text):
    out = tmp_path / "s.json"
    code = cli.main(["second-type3", tmp_form_file(text), "--seed", "1",
                     "--trials", "1", "--out", str(out)])
    return code, json.loads(out.read_text())


def test_section_test_refuses_a_germ_with_no_model_and_no_poles(
        tmp_form_file, tmp_path):
    """d(x^2 + y^2 + z^2) / 2 has dimensional type 3, matches no model,
    and x is not divisible by yz: the origin is left undecided."""
    code, report = _second_type3(tmp_form_file, tmp_path,
                                 "omega3: x dx + y dy + z dz\n")
    assert code == 2
    assert report["diagnostics"] == [
        "origin: no simple model and not logarithmic"]


def test_logarithmic_certificate_refuses_a_vanishing_residue():
    """The B2 germ yz dx + xz dy + x^2 y^2 dz is logarithmic along xyz
    with residues (1, 1, 0)."""
    evidence, notes = [], []
    assert not threefold._logarithmic_certificate(_fb2(), evidence, notes)
    assert notes == ["origin: vanishing logarithmic residue"]


def test_section_test_reads_the_residue_series_exactly(tmp_form_file,
                                                       tmp_path):
    """The pull-back of yz dx + rt(2) xz dy + (-1 - rt(2)) xy dz by
    x -> x (1 + y^8).  Its residue series are not constant multiples of
    one another, b/a - rt(2) = 8 y^8 / (1 + y^8), though their 8-jets
    are.  The certificate reads only constant multiples, so it leaves
    the origin undecided, although the germ is closed as well."""
    text = ("omega3: ((1 + y^8)*y*z) dx"
            " + (8*x*y^8*z + rt(2)*x*z*(1 + y^8)) dy"
            " + ((-1 - rt(2))*(1 + y^8)*x*y) dz\n")
    code, report = _second_type3(tmp_form_file, tmp_path, text)
    assert code == 2
    assert report["second_type"]["verdict"] is None
    assert report["diagnostics"] == [
        "origin: residue series are not constant"]


@pytest.mark.parametrize("where", ["axis", "trial"])
def test_section_test_is_inconclusive_once_a_note_is_left(monkeypatch,
                                                          where):
    """The product form matches model A and every axis and section
    reduces cleanly; one planted Inconclusive, on the first axis or the
    first section, must turn the verdict to Inconclusive."""
    real = threefold.is_second_type2
    planted = []

    def first_fails(form2, D, max_depth):
        if not planted and (form2.vars == ("u", "v")) == (where == "trial"):
            planted.append(form2)
            raise threefold.InconclusiveError("planted")
        return real(form2, D, max_depth)

    monkeypatch.setattr(threefold, "is_second_type2", first_fails)
    v = second_type3_via_sections(_dxyz(), trials=4, seed=0)
    assert planted
    assert v.kind == "Inconclusive"
    assert len(v.notes) == 1 and v.notes[0].endswith(": planted")
    assert "origin matches model A" in v.evidence
    assert any(e.endswith("section pull-backs reduced cleanly")
               for e in v.evidence)
