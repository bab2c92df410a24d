"""Plane reduction of singularities: corpus oracles, dual graphs, stability."""

import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_lab import (dual_graph, is_generalized_curve2, is_second_type2,
                           seidenberg_reduce, trees_equivalent)
from foliation_lab.forms import DivisorBranch, LocalDivisor
from foliation_lab.reduce2d import (REGULAR, SADDLE_NODE, SIMPLE,
                                    classify_point2)

from conftest import UV, corpus2, f2, mk

_FINAL_KINDS = {REGULAR, SIMPLE, SADDLE_NODE}


def test_corpus_reduction_matches_frozen_oracles():
    for name, (form, oracle) in corpus2().items():
        tree = seidenberg_reduce(form)
        assert tree.blowup_count == oracle["blowups"], name
        assert tree.blowup_count <= 10, name
        assert len(tree.singular_leaves()) == oracle["leaves"], name
        assert tree.has_dicritical() == oracle["dicritical"], name
        for rec in tree.leaves:
            assert rec.code.kind in _FINAL_KINDS, (name, rec.code.kind)


def test_corpus_second_type_matches_frozen_oracles():
    for name, (form, oracle) in corpus2().items():
        res = is_second_type2(form)
        assert bool(res) == oracle["second_type"], name
        if not res:
            assert res.witnesses, name


def test_corpus_generalized_curve_matches_frozen_oracles():
    for name, (form, oracle) in corpus2().items():
        assert is_generalized_curve2(form) == oracle["generalized_curve"], name


def test_cusp_dual_graph_self_intersections():
    tree = seidenberg_reduce(corpus2()["cusp"][0])
    g = dual_graph(tree)
    self_ints = sorted(v["self_intersection"] for v in g["vertices"].values())
    assert self_ints == [-3, -2, -1]
    assert len(g["edges"]) == 2
    assert all(not v["dicritical"] for v in g["vertices"].values())


def test_tangent_witness_carries_local_data():
    res = is_second_type2(corpus2()["tangent"][0])
    assert not res
    w = res.witnesses[0]
    assert w.code.kind == SADDLE_NODE
    assert w.well_oriented is False
    assert w.path  # reached after at least one blow-up


def test_trees_equivalent_reflexive_and_discriminating():
    c = corpus2()
    t_cusp = seidenberg_reduce(c["cusp"][0])
    t_cusp2 = seidenberg_reduce(c["cusp"][0])
    t_node = seidenberg_reduce(c["node"][0])
    assert trees_equivalent(t_cusp, t_cusp2)
    assert not trees_equivalent(t_cusp, t_node)


_units = st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3)


@settings(max_examples=25, deadline=None)
@given(_units, _units)
def test_linear_coordinate_scaling_preserves_tree(a, b):
    """Diagonal linear changes of coordinates do not alter the reduction."""
    base = corpus2()["cusp"][0]
    # u -> a u, v -> b v acts on d(v^2 - u^3) by rescaling each coefficient
    scaled = f2({(2, 0): Fraction(-3) * a ** 3}, {(0, 1): Fraction(2) * b ** 2})
    assert trees_equivalent(seidenberg_reduce(base), seidenberg_reduce(scaled))


@settings(max_examples=15, deadline=None)
@given(st.fractions(min_value=-2, max_value=2, max_denominator=2))
def test_high_order_perturbation_of_node_is_stable(eps):
    """Order-3 perturbations cannot change a reduced nondegenerate point."""
    form = f2({(0, 1): 1, (3, 0): eps}, {(1, 0): 2, (0, 3): eps})
    tree = seidenberg_reduce(form)
    assert tree.blowup_count == 0
    assert len(tree.leaves) == 1
    assert tree.leaves[0].code.kind == SIMPLE


def test_divisor_branch_meeting_the_exceptional_line_off_the_origin():
    """{u + v = 0} is invariant for (2uv + v^2) du + (u^2 + 2uv) dv; after
    one blow-up it passes through the point v = -1 of chart c1, which must
    carry it as a component."""
    form = f2({(1, 1): 2, (0, 2): 1}, {(2, 0): 1, (1, 1): 2})
    line = DivisorBranch(mk(UV, {(1, 0): 1, (0, 1): 1}))
    tree = seidenberg_reduce(form, LocalDivisor((line,)))
    (rec,) = [r for r in tree.leaves
              if r.path[0][0] == "c1" and not r.path[0][1].is_zero()]
    assert rec.path[0][1].as_fraction() == -1
    assert sorted(rec.components) == ["B0", "E1"]
    graph = dual_graph(tree)
    assert ("B0", rec.code.kind, rec.well_oriented) in graph["half_edges"]


def _count_graph_solves(monkeypatch):
    """Count invariant_graph_jet calls through every module that binds it."""
    calls = []
    original = sys.modules["foliation_lab.forms"].invariant_graph_jet

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("foliation_lab")
                and getattr(module, "invariant_graph_jet", None) is original):
            monkeypatch.setattr(module, "invariant_graph_jet", wrapper)
    return calls


def _first_nonzero(d):
    return d[0] if not d[0].is_zero() else d[1]


def test_saddle_node_classified_from_its_linear_part(monkeypatch):
    """Classifying a saddle-node reads the 1-jet only: no weak graph is
    solved, and both directions come back scaled."""
    calls = _count_graph_solves(monkeypatch)
    for name in ("sn", "euler"):
        code, well, _ = classify_point2(corpus2()[name][0],
                                        LocalDivisor.empty())
        assert code.kind == SADDLE_NODE and well, name
        assert _first_nonzero(code.strong).as_fraction() == 1, name
        assert _first_nonzero(code.weak).as_fraction() == 1, name
    assert calls == []
    tree = seidenberg_reduce(corpus2()["sn"][0])
    assert [rec.code.kind for rec in tree.leaves] == [SADDLE_NODE]
    assert calls == []
