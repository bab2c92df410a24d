"""Point and curve blow-ups: chart data, multiplicities, dicritical tags."""

import ast
from pathlib import Path

import pytest

from foliation_lab import (LocalDivisor, blowup_curve3, blowup_point2,
                           blowup_point3)
from foliation_lab.forms import DivisorBranch
from foliation_lab.poly import MPoly

from conftest import Q, UV, XYZ, corpus2, f2, f3, mk


def test_dicritical_test_on_radial_and_node():
    c = corpus2()
    empty = LocalDivisor.empty()
    assert all(ch.dicritical for ch in blowup_point2(c["radial"][0], empty))
    assert not any(ch.dicritical
                   for ch in blowup_point2(c["node"][0], empty))


def test_blowup_point2_radial_is_dicritical():
    form = corpus2()["radial"][0]
    charts = blowup_point2(form, LocalDivisor.empty())
    assert len(charts) == 2
    for ch in charts:
        assert ch.dicritical
        assert ch.mult == 2  # nu + 1 on a dicritical blow-up
        # the exceptional branch enters the divisor, tagged dicritical
        assert any(b.dicritical for b in ch.divisor)


def test_blowup_point2_cusp_chart_content():
    form = corpus2()["cusp"][0]         # -3u^2 du + 2v dv
    charts = blowup_point2(form, LocalDivisor.empty())
    c1 = next(ch for ch in charts if ch.label == "c1")
    assert not c1.dicritical
    assert c1.mult == 1
    # strict transform in chart (u, uv): v du-part picks up -3u + 2uv^2 du ...
    zero = {w: Q.zero() for w in c1.form.vars}
    assert c1.form.A.evaluate(zero).is_zero()
    assert c1.form.B.evaluate(zero).is_zero()


def test_blowup_point2_refuses_regular_point():
    form = f2({(0, 0): 1}, {(1, 0): 1})
    with pytest.raises(ValueError):
        blowup_point2(form, LocalDivisor.empty())


def test_blowup_point2_divisor_strict_transform():
    form = corpus2()["cusp"][0]
    div = LocalDivisor((DivisorBranch(mk(("u", "v"), {(1, 0): 1})),))
    charts = blowup_point2(form, div)
    c1 = next(ch for ch in charts if ch.label == "c1")
    # {u = 0} passes through chart c1 where it coincides with the
    # exceptional line, plus the new exceptional branch itself
    assert len(c1.divisor.branches) >= 1
    assert all(not b.equation.is_zero() for b in c1.divisor)


def test_blowup_point3_charts():
    # d(xyz)
    form = f3({(0, 1, 1): 1}, {(1, 0, 1): 1}, {(1, 1, 0): 1})
    charts = blowup_point3(form, LocalDivisor.empty())
    assert len(charts) == 3
    for ch in charts:
        assert ch.mult >= 1
        zero = {w: Q.zero() for w in XYZ}
        # still vanishing at every chart origin along an invariant model
        assert all(p.evaluate(zero).is_zero() for p in ch.form.coeffs())


def test_blowup_curve3_refuses_non_singular_center():
    # d(xyz) is regular along the z-axis complement but singular on axes;
    # a form not vanishing on the axis must be refused
    form = f3({(0, 0, 0): 1}, {(1, 0, 1): 1}, {(1, 1, 0): 1})
    with pytest.raises(ValueError):
        blowup_curve3(form, "z", LocalDivisor.empty())


def test_blowup_curve3_along_z_axis():
    form = f3({(0, 1, 1): 1}, {(1, 0, 1): 1}, {(1, 1, 0): 1})  # d(xyz)
    charts = blowup_curve3(form, "z", LocalDivisor.empty())
    assert len(charts) == 2
    for ch in charts:
        assert not ch.dicritical
        assert any(not b.dicritical for b in ch.divisor)


def test_plane_chart_carries_map_and_surviving_branches():
    form = corpus2()["cusp"][0]
    u = mk(UV, {(1, 0): 1})
    v = mk(UV, {(0, 1): 1})
    div = LocalDivisor((DivisorBranch(u), DivisorBranch(v),
                        DivisorBranch(v - u)))
    c1, c2 = blowup_point2(form, div)
    assert (c1.label, c1.exc_var, c2.label, c2.exc_var) == \
        ("c1", "u", "c2", "v")
    assert (c1.mapping["u"], c1.mapping["v"]) == (u, u * v)
    assert (c2.mapping["u"], c2.mapping["v"]) == (u * v, v)
    # {v} survives only in c1, {u} only in c2; {v = u} meets the
    # exceptional line away from both chart origins and survives in both
    assert (c1.survivors, c2.survivors) == ((1, 2), (0, 2))
    one = mk(UV, {(0, 0): 1})
    assert (c1.strict(v - u), c2.strict(v - u)) == (v - one, one - u)
    for ch in (c1, c2):
        branches = ch.divisor.branches
        assert branches[-1] is ch.exceptional
        assert [b.equation for b in branches[:-1]] == \
            [ch.strict(div.branches[i].equation) for i in ch.survivors]
        # {u + v = 1} misses the exceptional line
        assert ch.strict(u + v - one) is None


def test_space_chart_maps_keep_the_axis_and_scale_one_variable():
    form = f3({(0, 1, 1): 1}, {(1, 0, 1): 1}, {(1, 1, 0): 1})  # d(xyz)
    gens = {w: mk(XYZ, {tuple(int(w == x) for x in XYZ): 1}) for w in XYZ}
    for ch in blowup_point3(form, LocalDivisor.empty()):
        e = ch.exc_var
        assert ch.label == "c" + e
        for w in XYZ:
            assert ch.mapping[w] == (gens[e] if w == e else gens[e] * gens[w])
    charts = blowup_curve3(form, "z", LocalDivisor.empty())
    assert [(ch.label, ch.exc_var) for ch in charts] == [("ax", "x"),
                                                          ("ay", "y")]
    for ch, scaled in zip(charts, ("y", "x")):
        e = ch.exc_var
        assert ch.mapping["z"] == gens["z"]
        assert ch.mapping[e] == gens[e]
        assert ch.mapping[scaled] == gens[e] * gens[scaled]
        # {z = 0} is kept by the chart; the exceptional plane is new
        assert ch.strict(gens["z"]) == gens["z"]
        assert ch.strict(gens[e]) is None


def test_chart_labels_are_read_only_in_blowup():
    """Chart labels mean something only in blowup.py; the reduction
    engine names "c1" once, to pick the chart with the finite points."""
    src = Path(blowup_point2.__code__.co_filename).parent
    seen = []
    for path in sorted(src.glob("*.py")):
        if path.name == "blowup.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in ("c1", "c2"):
                seen.append((path.name, node.value))
    assert seen == [("reduce2d.py", "c1")]


def test_one_routine_builds_every_chart():
    """Plane, point and curve blow-ups share blowup._charts: it is the one
    caller of _chart_transform in the package."""
    src = Path(blowup_point2.__code__.co_filename).parent
    callers = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                callers += [(path.name, fn.name) for c in ast.walk(fn)
                            if isinstance(c, ast.Call)
                            and getattr(c.func, "id", None)
                            == "_chart_transform"]
    assert callers == [("blowup.py", "_charts")]
