"""Residue indices of plane projective foliations and their sum laws."""

import cmath
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_lab import (ProjFoliation, bb_index, cli, cs_index, forms,
                           gsv_index, indices, localize_at,
                           logarithmic_criterion, plane_singularities,
                           sum_theorem_check)
from foliation_lab.indices import _cs_over_branches, _resultant_eliminating
from foliation_lab.forms import normalize2
from foliation_lab.poly import MPoly, gcd_bivariate, u_roots_in_tower
from foliation_lab.reduce2d import SADDLE_NODE

from conftest import (PROJ3, Q, UV, corpus2, log_plane_foliation, mk,
                      planes4_foliation, saddle_node_plane_foliation)
from frozen_branches import _branch_coeffs, _local_branches, _swapped


def test_projective_form_validation():
    X = MPoly.variable(PROJ3, "X", Q)
    Y = MPoly.variable(PROJ3, "Y", Q)
    Z = MPoly.variable(PROJ3, "Z", Q)
    fol = ProjFoliation((Y * Z, X * Z, -(X * Y) - (X * Y)), PROJ3)
    assert fol.degree == 1
    with pytest.raises(ValueError):
        ProjFoliation((Y * Z, X * Z, X * Y), PROJ3)  # Euler sum nonzero


def test_camacho_sad_on_linear_node():
    # v du + 2u dv: CS of {v=0} is -1/2, CS of {u=0} is -2
    node = corpus2()["node"][0]
    assert cs_index(node, mk(UV, {(0, 1): 1})).value.as_fraction() \
        == Fraction(-1, 2)
    assert cs_index(node, mk(UV, {(1, 0): 1})).value.as_fraction() == -2


def test_index_sums_along_one_line():
    fol, (X, Y, Z) = log_plane_foliation()
    rep = sum_theorem_check(fol, X)
    assert rep.degree == 1 and rep.curve_degree == 1
    assert rep.cs_sum.as_fraction() == 1          # d0^2
    assert rep.gsv_sum.as_fraction() == 2         # (d+2) d0 - d0^2
    assert rep.bb_sum.as_fraction() == 9          # (d+2)^2
    assert rep.cs_ok and rep.gsv_ok and rep.bb_ok


def _xyz():
    return tuple(MPoly.variable(PROJ3, w, Q) for w in PROJ3)


def test_singular_points_widen_the_tower():
    """The linear field (5X, 2Z, Y) has eigenvalues 5 and +-sqrt 2, so two
    of its singular points lie over Q(sqrt 2)."""
    X, Y, Z = _xyz()
    k = Q.rational
    fol = ProjFoliation((Y * Y - (Z * Z).scale(k(2)),
                         (X * Z).scale(k(5)) - X * Y,
                         (X * Z).scale(k(2)) - (X * Y).scale(k(5))), PROJ3)
    sings = plane_singularities(fol)
    assert [[c.render() for c in s.point] for s in sings] == [
        ["0", "-rt(2)", "1"], ["0", "rt(2)", "1"], ["1", "0", "0"]]
    assert sum_theorem_check(fol, X).ok


def test_sum_check_needs_no_widening_for_the_tangents_of_a_node(
        monkeypatch):
    """The pencil C/L^3 with C = Y^2 Z - 6X^2 Z + 2X^3 + XY^2 and
    L = 9X + 5Z: its seven singular points are rational, and C has a node
    at (0 : 0 : 1) with tangents v = +-rt(6) u.  The indices of the node
    come from the linear part, so the tangents are never split and the
    check stays over Q."""
    X, Y, Z = _xyz()
    k = Q.rational
    C = Y * Y * Z - (X * X * Z).scale(k(6)) + (X * X * X).scale(k(2)) \
        + X * Y * Y
    L = X.scale(k(9)) + Z.scale(k(5))
    fol = ProjFoliation(tuple(L * C.partial(w) - (C * L.partial(w)).scale(k(3))
                              for w in PROJ3), PROJ3)
    sings = plane_singularities(fol)
    assert len(sings) == 7 and all(s.desc == Q for s in sings)
    calls = []
    original = indices.plane_singularities
    monkeypatch.setattr(indices, "plane_singularities",
                        lambda f: calls.append(1) or original(f))
    rep = sum_theorem_check(fol, C)
    assert rep.ok
    assert rep.bb_sum.desc == Q and len(calls) == 1


def test_sum_check_certifies_each_point_once(monkeypatch):
    fol, (X, Y, Z) = log_plane_foliation()
    points = len(plane_singularities(fol))
    calls = []
    certify = forms.gcd_bivariate
    monkeypatch.setattr(forms, "gcd_bivariate",
                        lambda f, g: calls.append(1) or certify(f, g))
    rep = sum_theorem_check(fol, X * Y * Z)
    assert rep.cs_ok and rep.gsv_ok and rep.bb_ok
    assert points and len(calls) == 0  # coprime by proof (_plane_sings)


def _check_local_forms_coprime(monkeypatch):
    """Run the gcd certificate on every local form that the index code
    builds (PlaneSingularity.form) or normalizes with the `coprime` flag
    set; returns the forms checked.  A point builds its form only when a
    saddle-node index asks for it, so every point that
    plane_singularities returns has its form read here, and none goes
    uncertified."""
    checked = []

    def certify(form):
        if form.coprime:
            A, B = forms._content_and_gcd([form.A, form.B], coprime=True)
            assert not A.is_zero() and not B.is_zero(), form.render()
            assert gcd_bivariate(A, B).degree() == 0, form.render()
            checked.append(form)
        return form

    normalize, build = indices.normalize2, indices.OneForm2
    monkeypatch.setattr(indices, "normalize2",
                        lambda form: normalize(certify(form)))
    monkeypatch.setattr(indices, "OneForm2",
                        lambda *args: certify(build(*args)))
    find = indices.plane_singularities

    def reading(fol):
        sings = find(fol)
        for s in sings:
            s.form
        return sings

    monkeypatch.setattr(indices, "plane_singularities", reading)
    return checked


def test_plane_singularities_build_normalized_forms(monkeypatch):
    """Coprime exact coefficients share no monomial either, so each local
    form is normalized as built: the index code makes no normalize2 call
    for it (classify_point2, a public entry, keeps its own), and
    normalize2 would return it unchanged."""
    calls = []
    monkeypatch.setattr(indices, "normalize2",
                        lambda form: calls.append(form) or normalize2(form))
    fol, _ = log_plane_foliation()
    sings = plane_singularities(fol)
    sings += plane_singularities(saddle_node_plane_foliation()[0])
    assert len(sings) > 3 and calls == []
    for s in sings:
        n = normalize2(s.form)
        assert s.form.coprime and (n.A, n.B) == (s.form.A, s.form.B)


def test_local_forms_of_conftest_foliations_are_coprime(monkeypatch):
    checked = _check_local_forms_coprime(monkeypatch)
    fol, (X, Y, Z) = log_plane_foliation()
    assert sum_theorem_check(fol, X * Y * Z).ok
    fol, _ = saddle_node_plane_foliation()
    plane_singularities(fol)
    fol, gens = planes4_foliation()
    logarithmic_criterion(fol, gens[0] * gens[1] * gens[2] * gens[3],
                          (1, 2, 3))
    assert len(checked) >= 10


@pytest.mark.parametrize("seed", [5, 33])
def test_local_forms_of_the_projective_workload_are_coprime(
        monkeypatch, tmp_path, seed):
    """Every index and log-criterion item of one cycle of the
    bench/workloads.py space3-projective generator."""
    monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "bench")
    import workloads
    checked = _check_local_forms_coprime(monkeypatch)
    items = [item for item in workloads.generate("space3-projective", seed, 1)
             if item.command in ("indices", "log-criterion")]
    for item in items:
        path = tmp_path / (item.name + ".form")
        path.write_text(item.text + "\n", encoding="utf-8")
        cli.main([item.command, str(path), "--out",
                  str(tmp_path / (item.name + ".json"))] + item.flags)
    assert len(items) == 65 and len(checked) > 100


def test_index_sums_over_the_full_triangle():
    fol, (X, Y, Z) = log_plane_foliation()
    rep = sum_theorem_check(fol, X * Y * Z)
    assert rep.cs_sum.as_fraction() == 9
    assert rep.gsv_sum.as_fraction() == 0
    assert rep.bb_sum.as_fraction() == 9
    assert rep.cs_ok and rep.gsv_ok and rep.bb_ok


def test_baum_bott_values_at_the_three_vertices():
    fol, _ = log_plane_foliation()
    sings = plane_singularities(fol)
    got = {tuple(c.render() for c in s.point): bb_index(s).value.render()
           for s in sings}
    assert got == {
        ("0", "0", "1"): "2 + (-3/2)*rt(2)",
        ("0", "1", "0"): "2 + (2)*rt(2)",
        ("1", "0", "0"): "5 + (-1/2)*rt(2)",
    }
    # BB - CS - 2 GSV vanishes pointwise on the triangle
    X, Y, Z = (MPoly.variable(PROJ3, w, fol.desc) for w in PROJ3)
    C = X * Y * Z
    for s in sings:
        cl = localize_at(C, s)
        brs = _local_branches(cl, s.desc, 12)
        cs = _cs_over_branches(s.form, brs, 12)
        gsv = gsv_index(s.form, brs, g=cl).value
        bb = bb_index(s).value
        assert (bb - cs - gsv - gsv).is_zero()


def test_saddle_node_baum_bott_and_sums():
    fol, (X, Y, Z) = saddle_node_plane_foliation()
    sings = plane_singularities(fol)
    by_point = {tuple(c.render() for c in s.point): s for s in sings}
    sn = by_point[("0", "0", "1")]
    assert sn.code.kind == SADDLE_NODE
    # degenerate linear part: the value comes from CS + 2 GSV over both
    # separatrices of the germ
    assert bb_index(sn).value.as_fraction() == 5
    other = by_point[("0", "1", "0")]
    assert other.code.kind != SADDLE_NODE
    assert bb_index(other).value.as_fraction() == 4
    rep = sum_theorem_check(fol, X * Y)
    assert rep.cs_sum.as_fraction() == 4
    assert rep.gsv_sum.as_fraction() == 2
    assert rep.bb_sum.as_fraction() == 9
    assert rep.cs_ok and rep.gsv_ok and rep.bb_ok


def test_sum_check_rejects_non_invariant_curve():
    fol, (X, Y, Z) = log_plane_foliation()
    with pytest.raises(ValueError):
        sum_theorem_check(fol, X + Y)


def test_logarithmic_criterion_positive():
    fol, gens = planes4_foliation()
    S = gens[0] * gens[1] * gens[2] * gens[3]
    rep = logarithmic_criterion(fol, S, (1, 2, 3))
    assert rep.logarithmic
    assert rep.degree == 2 and rep.curve_degree == 4   # d0 = d + 2
    assert rep.slack == 0
    assert rep.sums.cs_sum.as_fraction() == 16
    assert rep.sums.gsv_sum.as_fraction() == 0
    assert rep.sums.bb_sum.as_fraction() == 16


def test_logarithmic_criterion_negative():
    fol, gens = planes4_foliation()
    S = gens[0] * gens[1] * gens[2]
    rep = logarithmic_criterion(fol, S, (1, 2, 3))
    assert not rep.logarithmic
    assert rep.curve_degree == 3 and rep.slack == 1
    assert rep.sums.cs_sum.as_fraction() == 9
    assert rep.sums.gsv_sum.as_fraction() == 3
    assert rep.sums.bb_sum.as_fraction() == 16
    assert rep.sums.cs_ok and rep.sums.gsv_ok and rep.sums.bb_ok


# --- floating contour oracle for the GSV index ------------------------------


def _to_complex(c):
    """Floating image of an element of a tower without the parameter."""
    assert not c.involves_parameter()

    def coord(x):
        return x if isinstance(x, Fraction) else x.as_fraction()

    val = complex(coord(c.a))
    if c.desc.quadratic_extension is not None and c.b:
        val += complex(coord(c.b)) * complex(c.desc.quadratic_extension) ** 0.5
    return val


def _num_eval(jet, z):
    total = 0j
    for e, c in jet.coeffs.items():
        total += _to_complex(c) * z ** e[0]
    return total


def _winding(jet, r=1e-3, n=512):
    vals = [_num_eval(jet, r * cmath.exp(2j * math.pi * k / n))
            for k in range(n)]
    if max(abs(v) for v in vals) < 1e-30:
        return None
    total = 0.0
    for k in range(n):
        total += cmath.phase(vals[(k + 1) % n] / vals[k])
    return total / (2 * math.pi)


def _contour_gsv(form, branches, g):
    """Winding-number evaluation of the proportionality factor along each
    branch, mirroring the exact order computation numerically."""
    u, v = form.vars
    gu, gv = g.partial(u), g.partial(v)
    total = 0.0
    for br in branches:
        g1, g2 = br.param.components
        sub = {u: g1, v: g2}
        wu = _winding(gu.substitute(sub))
        wv = _winding(gv.substitute(sub))
        if wv is None or (wu is not None and wu <= wv + 0.5):
            total += _winding(form.A.substitute(sub)) - wu
        else:
            total += _winding(form.B.substitute(sub)) - wv
    return total


def _oracle_cases():
    logf, (X, Y, Z) = log_plane_foliation()
    snf, (XQ, YQ, ZQ) = saddle_node_plane_foliation()
    yield logf, X * Y * Z
    yield logf, X
    yield logf, Y
    yield logf, Z
    yield snf, XQ * YQ


def test_gsv_matches_floating_contour_oracle_everywhere():
    checked = 0
    for fol, C in _oracle_cases():
        for sing in plane_singularities(fol):
            cl = localize_at(C.coerce_to(sing.desc), sing)
            origin = {w: sing.desc.zero() for w in cl.vars}
            if not cl.evaluate(origin).is_zero():
                continue  # the curve misses this singular point
            branches = _local_branches(cl, sing.desc, 12)
            exact = gsv_index(sing.form, branches, g=cl).value.as_fraction()
            approx = _contour_gsv(sing.form, branches, cl)
            assert abs(approx - exact) < 1e-6, (sing.point, exact, approx)
            checked += 1
    assert checked >= 8


_small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_higher = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
        lambda e: sum(e) >= 2), _small, max_size=4)


@settings(max_examples=40, deadline=None)
@given(_small, _small.filter(lambda c: c != 0), _higher)
def test_graph_series_solves_smooth_branches(a, b, higher):
    """f = a u + b v + h.o.t.: the series s solving for v has
    f(u, s(u)) = O(u^(N+1)); with the variables swapped, as _local_branches
    does for a vertical tangent (f_v(0) = 0), the series solving for u has
    f(s(v), v) = O(v^(N+1))."""
    N = 6
    f = mk(UV, dict(higher) | {(1, 0): a, (0, 1): b})
    u = MPoly.variable(UV, "u", Q, N + 1)
    v = MPoly.variable(UV, "v", Q, N + 1)

    def graph(c, slope):
        return MPoly(UV, {(k + 1, 0): ck for k, ck in
                          enumerate(_branch_coeffs(c, slope, 1, N))},
                     Q, N + 1)

    s = graph(f, Q.rational(-a / b))
    assert set(e[1] for e in s.coeffs) <= {0}
    assert f.substitute({"u": u, "v": s}).is_zero()
    g = mk(UV, dict(higher) | {(1, 0): b, (0, 1): 0})  # g_v(0) = 0
    t = _swapped(graph(_swapped(g), Q.zero()))
    assert set(e[0] for e in t.coeffs) <= {0}
    assert g.substitute({"u": t, "v": v}).is_zero()


# a logarithmic foliation of the plane whose affine coefficients
# a = -12 v + 6 v^2 - 6 u v and b = -12 + 6 v - 6 u - 6 u v + 6 u^2 have
# b's leading coefficient in v, 6 - 6 u, vanishing at u = 1
LEAD_DROP_P2 = (
    "proj2: ((1)*-2*(Y)*(-X - Y + 2*Z) + (-4)*-1*(-2*X + Y - 2*Z)*(Y)) dX"
    " + ((1)*1*(Y)*(-X - Y + 2*Z) + (3)*1*(-2*X + Y - 2*Z)*(-X - Y + 2*Z)"
    " + (-4)*-1*(-2*X + Y - 2*Z)*(Y)) dY + ((1)*-2*(Y)*(-X - Y + 2*Z)"
    " + (-4)*2*(-2*X + Y - 2*Z)*(Y)) dZ\n"
    "separatrix:{ (Y) }\n")


def test_resultant_skips_points_where_a_leading_coefficient_vanishes():
    a = mk(UV, {(0, 1): -12, (0, 2): 6, (1, 1): -6})
    b = mk(UV, {(0, 0): -12, (0, 1): 6, (1, 0): -6, (1, 1): -6, (2, 0): 6})
    res = _resultant_eliminating(a, b, "v", Q)
    roots = u_roots_in_tower(res, Q)
    assert sorted(r.as_fraction() for r in roots) == [-1, 0, 2]


def test_sum_check_finds_the_point_over_a_leading_coefficient_drop(
        tmp_path):
    path = tmp_path / "lead.form"
    path.write_text(LEAD_DROP_P2, encoding="utf-8")
    out = tmp_path / "lead.json"
    assert cli.main(["indices", str(path), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["indices"]
    assert [p["point"] for p in rep["points"]] == \
        [["0", "2", "1"], ["-1", "0", "1"], ["2", "0", "1"]]
    assert rep["ok"] is True
    assert (rep["cs_sum"], rep["gsv_sum"], rep["bb_sum"]) == ("1", "2", "9")


def test_sum_check_reads_an_unsplit_tangent_cone(tmp_path):
    """The three lines X^3 = 2 Y^3 through the radial point (0 : 0 : 1) of
    the pencil Y dX - X dY are not defined over Q, and no tangent is
    split: the point carries CS 9 and GSV -3."""
    path = tmp_path / "cubic.form"
    path.write_text("proj2: Y dX - X dY\nseparatrix:{ X^3 - 2*Y^3 }\n",
                    encoding="utf-8")
    out = tmp_path / "cubic.json"
    assert cli.main(["indices", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    rep = report["indices"]
    assert report["field"] == "Q" and rep["ok"] is True
    assert (rep["cs_sum"], rep["gsv_sum"], rep["bb_sum"]) == ("9", "-3", "4")
    assert rep["points"] == [{"point": ["0", "0", "1"], "bb": "4",
                              "cs": "9", "gsv": "-3"}]
