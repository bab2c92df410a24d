"""Camacho-Sad from the branch parametrization against a frozen copy of the
implicit-equation straightening it replaced, and a guard on the graph
traces of a sum check."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_lab import (bb_index, cs_index, indices, localize_at,
                           plane_singularities, sum_theorem_check)
from foliation_lab.fields import FieldError
from foliation_lab.forms import LocalDivisor, OneForm2, normalize2
from foliation_lab.indices import _cs_over_branches, _germ_branches, _residue
from foliation_lab.poly import MPoly
from foliation_lab.reduce2d import SADDLE_NODE, _rotate_form, classify_point2

from conftest import (Q, UV, corpus2, log_plane_foliation, mk,
                      saddle_node_plane_foliation)
from frozen_branches import _branch_coeffs, _local_branches, _swapped
from test_reduce2d import _count_graph_solves


# --- frozen reference: the straightening through the implicit equation ------


def _reference_u_list(p, var, other, N):
    i = p.vars.index(var)
    j = p.vars.index(other)
    out = [p.desc.zero()] * (N + 1)
    for e, c in p.coeffs.items():
        if e[j] == 0 and e[i] <= N:
            out[e[i]] = out[e[i]] + c
    return out


def _reference_multi_graph(c, slope, m, N):
    return MPoly(c.vars, {(k + 1, 0): ck for k, ck in
                          enumerate(_branch_coeffs(c, slope, m, N))},
                 c.desc, N + m)


def _reference_cs_index(form, branch, N=12):
    f = branch.implicit if hasattr(branch, "implicit") else branch
    form = normalize2(form)
    desc = form.desc
    u, v = form.vars
    lu = f.coefficient(tuple(1 if w == u else 0 for w in f.vars))
    lv = f.coefficient(tuple(1 if w == v else 0 for w in f.vars))
    if lu.is_zero() and lv.is_zero():
        raise ValueError("the Camacho-Sad branch must be smooth")
    uu = MPoly.variable(form.vars, u, desc, prec=N + 1)
    vv = MPoly.variable(form.vars, v, desc, prec=N + 1)
    if not lv.is_zero():
        s = _reference_multi_graph(f, -lu / lv, 1, N)
        sub = {u: uu, v: vv + s}
        sp = s.partial(u)
        a_new = form.A.substitute(sub) + form.B.substitute(sub) * sp
        b_new = form.B.substitute(sub)
        along, dep = u, v
    else:
        s = _swapped(_reference_multi_graph(_swapped(f), desc.zero(), 1, N))
        sub = {u: uu + s, v: vv}
        sp = s.partial(v)
        a_new = form.B.substitute(sub) + form.A.substitute(sub) * sp
        b_new = form.A.substitute(sub)
        along, dep = v, u
    tail = _reference_u_list(a_new, along, dep, N)
    if any(not c.is_zero() for c in tail[:max(N - 1, 0)]):
        raise ValueError("the branch is not invariant")
    i_a = form.vars.index(along)
    i_d = form.vars.index(dep)
    n = [desc.zero()] * (N + 1)
    for e, c in a_new.coeffs.items():
        if e[i_d] == 1 and e[i_a] <= N:
            n[e[i_a]] = n[e[i_a]] + c
    m = _reference_u_list(b_new, along, dep, N)
    return -_residue(n, m, desc)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (ValueError, ZeroDivisionError, FieldError) as exc:
        return ("raised", type(exc))


def _same_cs(form, branch, N):
    new = _outcome(lambda: cs_index(form, branch, N).value)
    old = _outcome(_reference_cs_index, form, branch, N)
    assert new == old, (form.render(), N, new, old)
    return new[0] == "ok"


# --- differential -----------------------------------------------------------


def _visited_branches(monkeypatch, runs):
    """(form, branch, N) of every cs_index call the runs make."""
    seen = []
    original = indices.cs_index

    def recording(form, branch, N=12):
        seen.append((form, branch, N))
        return original(form, branch, N)

    with monkeypatch.context() as patch:
        patch.setattr(indices, "cs_index", recording)
        for run in runs:
            run()
    return seen


def test_cs_index_matches_reference_on_the_plane_foliations(monkeypatch):
    log_fol, (X, Y, Z) = log_plane_foliation()
    sn_fol, (Xs, Ys, _) = saddle_node_plane_foliation()
    sn_sings = plane_singularities(sn_fol)
    assert any(s.code.kind == SADDLE_NODE for s in sn_sings)

    def triangle():
        for s in plane_singularities(log_fol):
            cl = localize_at(X * Y * Z, s)
            _cs_over_branches(s.form, _local_branches(cl, s.desc, 12), 12)

    seen = _visited_branches(monkeypatch, [
        triangle,
        lambda: sum_theorem_check(sn_fol, Xs * Ys),
        lambda: [bb_index(s) for s in sn_sings]])
    # three vertices with two lines each, then the saddle-node's curve
    # branches and its strong and weak separatrices
    assert len(seen) >= 10
    # a saddle-node's separatrices are traced once per point and N: the
    # curve indices read the branches that its Baum-Bott index traced, so
    # a branch object recurs, always with the form and N it was traced for
    traced = {id(br): (id(form), N) for form, br, N in seen}
    assert len(traced) == len({(id(br), id(form), N)
                               for form, br, N in seen})
    assert 8 <= len(traced) < len(seen)
    solved = 0
    for form, branch, _ in seen:
        for N in (2, 3, 5, 12):
            solved += _same_cs(form, branch, N)
    assert solved >= 3 * len(seen)


def test_cs_index_matches_reference_on_rotated_saddle_nodes():
    """Strong and weak separatrices as bb_index builds them, in frames
    whose directions are vertical, horizontal and neither."""
    one, two, zero = Q.one(), Q.rational(2), Q.zero()
    frames = [((one, zero), (zero, one)), ((one, one), (zero, one)),
              ((one, -one), (one, two)), ((two, one), (-one, one))]
    tangents, solved = set(), 0
    for name in ("sn", "euler"):
        for d1, d2 in frames:
            form = normalize2(_rotate_form(corpus2()[name][0], d1, d2))
            code, _, _ = classify_point2(form, LocalDivisor.empty())
            assert code.kind == SADDLE_NODE
            for branch in _germ_branches(form, code, 12):
                tangents.add(tuple(g.coefficient((1,)).as_fraction()
                                   for g in branch.param.components))
                for N in (2, 3, 5, 12):
                    solved += _same_cs(form, branch, N)
    assert (0, 1) in tangents and len(tangents) >= 5
    assert solved >= 50


_small = st.fractions(min_value=-3, max_value=3, max_denominator=2)
_poly = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), _small, max_size=4)
_higher = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
        lambda e: sum(e) >= 2), _small, max_size=3)


@settings(max_examples=60, deadline=None)
@given(_small, st.booleans(), _higher, _poly, _poly, _poly,
       st.integers(2, 8))
def test_cs_index_matches_reference_on_smooth_invariant_branches(
        a, vertical, higher, g, p, q, N):
    """omega = g df + f (p du + q dv) leaves {f = 0} invariant; f is
    tangent to u = 0 (vertical) or to v = a u."""
    lin = {(1, 0): 1, (0, 1): 0} if vertical else {(1, 0): -a, (0, 1): 1}
    f = mk(UV, dict(higher) | lin)
    g = mk(UV, {e: c for e, c in g.items() if e != (0, 0)})  # singular
    form = OneForm2(g * f.partial("u") + f * mk(UV, p),
                    g * f.partial("v") + f * mk(UV, q), UV)
    if form.is_zero():
        return
    _same_cs(form, f, N)
    branch, = _local_branches(f, Q, N)
    _same_cs(form, branch, N)


def test_cs_index_refuses_a_singular_or_absent_branch():
    node = corpus2()["node"][0]
    with pytest.raises(ValueError, match="smooth"):
        cs_index(node, mk(UV, {(1, 1): 1}))
    with pytest.raises(ValueError):
        cs_index(node, mk(UV, {(0, 0): 1, (0, 1): 1}))


def test_cs_index_reads_the_linear_term_at_truncation_one():
    # v du + 2u dv: the pole is simple, so the residue needs only the
    # order-0 numerator, which the implicit straightening truncated away
    node = corpus2()["node"][0]
    assert cs_index(node, mk(UV, {(0, 1): 1}), 1).value.as_fraction() \
        == Fraction(-1, 2)
    assert _reference_cs_index(node, mk(UV, {(0, 1): 1}), 1).is_zero()
    # which made the CS sum over the triangle fail at --truncation 1
    fol, (X, Y, Z) = log_plane_foliation()
    assert sum_theorem_check(fol, X * Y * Z, N=1).ok


# --- no graph traced at a non-degenerate point ------------------------------


def test_sum_check_traces_no_curve_branch_at_non_degenerate_points(
        monkeypatch):
    fol, (X, Y, Z) = log_plane_foliation()
    traces = _count_graph_solves(monkeypatch)
    rep = sum_theorem_check(fol, X * Y * Z)
    assert rep.ok
    # each of the three vertices meets two of the lines, and each is
    # non-degenerate: the indices come from its linear part
    assert traces == []
