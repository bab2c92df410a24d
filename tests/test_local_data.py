"""The local data that projective singular points read, against the slow
paths it replaced: the Taylor shift against the frozen translation by
composition, `evaluate` against `restrict`, and the class read off the
chart coefficients against classify_point2 on the translated form; with
guards on what a point builds and on how often a saddle-node is traced."""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_lab import (FieldDescriptor, cli, indices,
                           logarithmic_criterion, plane_singularities,
                           sum_theorem_check)
from foliation_lab.forms import LocalDivisor
from foliation_lab.poly import MPoly
from foliation_lab.reduce2d import SADDLE_NODE, classify_point2

from conftest import (PROJ3, Q, Q2, log_plane_foliation, planes4_foliation,
                      saddle_node_plane_foliation)
from frozen_translate import _translate

QS = FieldDescriptor(parameter="s")
_TOWERS = (Q, Q2, QS)
_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _elements(draw, desc):
    """a + b rt(2) over Q(rt(2)), (a + b s) / (1 + c s) over Q(s)."""
    a = desc.rational(draw(_small))
    if desc.quadratic_extension is not None:
        return a + desc.rational(draw(_small)) * desc.sqrt_gen()
    if desc.parameter is not None:
        s = desc.param_gen()
        den = desc.one() + desc.rational(draw(_small)) * s
        return (a + desc.rational(draw(_small)) * s) / den
    return a


@st.composite
def _polys(draw):
    """(polynomial or series, the tower) in 2 or 3 variables."""
    desc = draw(st.sampled_from(_TOWERS))
    names = draw(st.sampled_from((("u", "v"), ("x", "y", "z"))))
    exps = st.tuples(*[st.integers(0, 4)] * len(names))
    coeffs = draw(st.dictionaries(exps, _elements(desc), max_size=6))
    prec = draw(st.one_of(st.none(), st.integers(0, 6)))
    return MPoly(names, coeffs, desc, prec), desc


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_taylor_shift_matches_the_frozen_composition(data):
    p, desc = data.draw(_polys())
    # each variable shifted by zero, by a nonzero value, or not at all
    shifts = {}
    for name in p.vars + ("w",):
        kind = data.draw(st.sampled_from(("none", "zero", "value")))
        if kind == "zero":
            shifts[name] = desc.zero()
        elif kind == "value":
            shifts[name] = data.draw(_elements(desc))
    got, want = p.translate(shifts), _translate(p, shifts)
    assert (got.vars, got.prec, got.coeffs) == (want.vars, want.prec,
                                                want.coeffs)


def test_taylor_shift_keeps_the_precision_of_a_series():
    p = MPoly(("u", "v"), {(2, 1): 1, (0, 3): 2, (4, 0): 1}, Q, 5)
    got = p.translate({"u": 1, "v": -2})
    assert got.prec == 5 and got.coeffs == _translate(
        p, {"u": 1, "v": -2}).coeffs
    assert got.coefficient((0, 0)) == 1 + 2 * (-8) - 2


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_evaluate_matches_restrict(data):
    p, desc = data.draw(_polys())
    point = {name: data.draw(_elements(desc)) for name in p.vars}
    assert p.evaluate(point) == p.restrict(point).constant_coefficient()


# --- the class read off the chart ------------------------------------------


def _recorded_points(monkeypatch):
    """Every singular point that plane_singularities returns."""
    points = []
    original = indices.plane_singularities

    def recording(fol):
        sings = original(fol)
        points.extend(sings)
        return sings

    monkeypatch.setattr(indices, "plane_singularities", recording)
    return points


def _same_class(sing):
    """The point's linear part and class against classify_point2 on its
    translated form, with no divisor."""
    code, well, M = classify_point2(sing.form, LocalDivisor.empty())
    assert sing.linear == M, sing.point
    assert well
    got = (sing.code.kind, sing.code.strong, sing.code.weak,
           sing.code.adapted)
    assert got == (code.kind, code.strong, code.weak, code.adapted), \
        sing.point
    return code.kind


def test_linear_class_matches_classify_point2_on_conftest_foliations(
        monkeypatch):
    points = _recorded_points(monkeypatch)
    fol, (X, Y, Z) = log_plane_foliation()
    sum_theorem_check(fol, X * Y * Z)
    fol, (X, Y, _) = saddle_node_plane_foliation()
    sum_theorem_check(fol, X * Y)
    fol, gens = planes4_foliation()
    logarithmic_criterion(fol, gens[0] * gens[1] * gens[2] * gens[3],
                          (1, 2, 3))
    kinds = [_same_class(s) for s in points]
    assert len(kinds) >= 10 and SADDLE_NODE in kinds


def test_linear_class_matches_classify_point2_on_the_projective_workload(
        monkeypatch, tmp_path):
    """Every index and log-criterion item of one cycle of the
    bench/workloads.py space3-projective generator."""
    monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "bench")
    import workloads
    points = _recorded_points(monkeypatch)
    items = [item for item in workloads.generate("space3-projective", 5, 1)
             if item.command in ("indices", "log-criterion")]
    for item in items:
        path = tmp_path / (item.name + ".form")
        path.write_text(item.text + "\n", encoding="utf-8")
        cli.main([item.command, str(path), "--out",
                  str(tmp_path / (item.name + ".json"))] + item.flags)
    kinds = [_same_class(s) for s in points]
    assert len(kinds) > 100 and SADDLE_NODE in kinds


# --- what a point builds ---------------------------------------------------


def test_finding_the_points_translates_nothing(monkeypatch):
    calls = []
    original = MPoly.translate
    monkeypatch.setattr(MPoly, "translate",
                        lambda p, shifts: calls.append(1) or original(p, shifts))
    sings = plane_singularities(log_plane_foliation()[0])
    sings += plane_singularities(saddle_node_plane_foliation()[0])
    assert len(sings) > 3 and calls == []
    assert all(s._form is None for s in sings)
    sn, = [s for s in sings if s.code.kind == SADDLE_NODE]
    assert sn.form is sn.form and len(calls) == 2  # built once, on demand


def test_each_saddle_node_is_traced_once_per_sum_check(monkeypatch):
    """The saddle-node (0 : 0 : 1) lies on X and on Y: its Baum-Bott
    index and the curve indices read one pair of traced separatrices."""
    calls = []
    original = indices._germ_branches
    monkeypatch.setattr(indices, "_germ_branches",
                        lambda *args: calls.append(1) or original(*args))
    fol, (X, Y, Z) = saddle_node_plane_foliation()
    for C in (X * Y, X, Y):
        calls.clear()
        assert sum_theorem_check(fol, C).ok
        assert calls == [1]


# --- the invariance of the curve is proved once ------------------------------


def test_sum_check_refuses_a_curve_that_is_not_invariant(monkeypatch):
    """Refused before any singular point is looked for, also over a
    foliation whose points need a wider tower."""
    sought = _recorded_points(monkeypatch)
    X, Y, Z = (MPoly.variable(PROJ3, w, Q) for w in PROJ3)
    k = Q.rational
    fol = indices.ProjFoliation((Y * Y - (Z * Z).scale(k(2)),
                                 (X * Z).scale(k(5)) - X * Y,
                                 (X * Z).scale(k(2)) - (X * Y).scale(k(5))),
                                PROJ3)
    for C in (X + Y + Z, Y, X * Y):
        try:
            sum_theorem_check(fol, C)
        except ValueError as exc:
            assert "not invariant" in str(exc)
        else:
            raise AssertionError(C.render())
    assert sought == []
    assert sum_theorem_check(fol, X).ok


def test_log_criterion_proves_invariance_on_the_surface_only(monkeypatch):
    """S | omega ^ dS pulls back to C | omega_H ^ dC on the section plane,
    so the curve C is not proved invariant again."""
    calls = []
    original = indices.invariant_hypersurface
    monkeypatch.setattr(indices, "invariant_hypersurface",
                        lambda *args: calls.append(args[2]) or original(*args))
    fol, gens = planes4_foliation()
    S = gens[0] * gens[1] * gens[2] * gens[3]
    assert logarithmic_criterion(fol, S, (1, 2, 3)).logarithmic
    assert calls == [S]
