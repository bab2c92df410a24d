"""Separatrix extraction, weak graphs, and multiplicity identities."""

import random
import time
from fractions import Fraction

import pytest

from foliation_lab import (DicriticalInputError, OneForm2,
                           multiplicity_identity_check, mu0,
                           seidenberg_reduce, separatrices2,
                           weak_graph_coefficients, weak_separatrix_jet)
from foliation_lab.forms import (CurveJet, DivisorBranch, LocalDivisor,
                                 invariant_curve, normalize2, pullback_curve)
from foliation_lab.poly import MPoly
from foliation_lab.reduce2d import _rotate_form, classify_point2

from conftest import corpus2, f2


def test_node_has_two_smooth_transversal_branches():
    form = corpus2()["node"][0]
    tree = seidenberg_reduce(form)
    seps = separatrices2(form, tree)
    assert seps.s0() == 2
    # reduced product of branch equations has the two axes as lowest part
    assert seps.g.lowest_part().degree() == 2


def test_cusp_separatrix_is_the_cusp_curve():
    form = corpus2()["cusp"][0]
    tree = seidenberg_reduce(form)
    seps = separatrices2(form, tree)
    assert seps.s0() == 1
    g = seps.g
    # g is v^2 - u^3 up to normalization
    tail = g.truncate(4)
    assert g.coefficient((0, 2)).as_fraction() != 0
    scale = g.coefficient((0, 2)).inverse()
    gs = g.scale(scale)
    assert gs.coefficient((3, 0)).as_fraction() == -1
    assert tail is not None


def test_dicritical_input_is_refused():
    form = corpus2()["radial"][0]
    tree = seidenberg_reduce(form)
    with pytest.raises(DicriticalInputError):
        separatrices2(form, tree)


def test_weak_graph_coefficients_are_factorials_and_fast():
    """The divergent weak-graph series of (u - v) du + u^2 dv has
    c_k = (k-1)!; order 10 must come out well under a second."""
    form = corpus2()["euler"][0]
    t0 = time.monotonic()
    cs = weak_graph_coefficients(form, N=10)
    elapsed = time.monotonic() - t0
    vals = [c.as_fraction() for c in cs]
    assert vals[:6] == [1, 1, 2, 6, 24, 120]
    assert vals[9] == Fraction(362880)  # 9!
    assert elapsed < 1.0


def test_weak_separatrix_jet_roles():
    form = corpus2()["sn"][0]
    b = weak_separatrix_jet(form, N=8)
    assert b.role == "weak"
    assert not b.analytic  # formal only, in general


def test_multiplicity_identity_matches_frozen_oracles():
    """Equality of the multiplicities of the form and of d(g) holds
    exactly on the items of second type."""
    for name, (form, oracle) in corpus2().items():
        want = oracle["identity"]
        if want is None:
            continue  # dicritical items carry no separatrix product
        if oracle.get("field"):
            pass  # widening happens internally
        rep = multiplicity_identity_check(form)
        assert (rep.nu_form, rep.nu_dg, rep.equal) == want, name
        assert rep.equal == rep.second_type, name


def test_milnor_identity_on_generalized_curves():
    """For reductions free of saddle-nodes, the Milnor numbers of the
    form and of the separatrix differential agree."""
    checked = 0
    for name, (form, oracle) in corpus2().items():
        if oracle["identity"] is None or not oracle["generalized_curve"]:
            continue
        rep = multiplicity_identity_check(form)
        g = rep.g
        u, v = form.vars
        dg = OneForm2(g.partial(u), g.partial(v), form.vars)
        assert mu0(form.coerce_to(g.desc)) == mu0(dg), name
        checked += 1
    assert checked >= 5


def test_milnor_identity_fails_off_generalized_curves():
    """The saddle-node item breaks the Milnor identity."""
    form, oracle = corpus2()["sn"]
    assert not oracle["generalized_curve"]
    rep = multiplicity_identity_check(form)
    g = rep.g
    u, v = form.vars
    dg = OneForm2(g.partial(u), g.partial(v), form.vars)
    assert mu0(form) != mu0(dg)


def _euler_sweep(count=101):
    """The Euler saddle-node pulled back by `count` seeded invertible
    linear maps, with the classification of each."""
    rng = random.Random(4242)
    euler = corpus2()["euler"][0]
    Q = euler.desc
    out = []
    while len(out) < count:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c == 0:
            continue
        form = normalize2(_rotate_form(
            euler, (Q.rational(a), Q.rational(c)),
            (Q.rational(b), Q.rational(d))))
        out.append((form, classify_point2(form, LocalDivisor.empty())[0]))
    return out


def test_weak_separatrix_jet_is_tangent_to_the_weak_direction():
    """Under linear changes of coordinates the weak separatrix jet stays
    tangent to the weak direction, never to the strong one, and its
    parametrization is invariant to the computed order."""
    for form, code in _euler_sweep():
        b = weak_separatrix_jet(form, N=6)
        lin = b.implicit.homogeneous_part(1)
        assert lin.evaluate(dict(zip(form.vars, code.weak))).is_zero()
        assert not lin.evaluate(dict(zip(form.vars, code.strong))).is_zero()
        pb = pullback_curve(form, b.param)
        assert pb.is_zero() or pb.order() >= 6, form.render()


def test_weak_graph_coefficients_start_at_the_weak_slope():
    vertical = 0
    for form, code in _euler_sweep(40):
        weak = code.weak
        if weak[0].is_zero():
            vertical += 1
            with pytest.raises(ValueError, match="vertical"):
                weak_graph_coefficients(form, N=6)
            continue
        cs = weak_graph_coefficients(form, N=6)
        assert cs[0] == weak[1] / weak[0]
        t = MPoly.variable(("t",), "t", form.desc, 7)
        s = MPoly(("t",), {(k + 1,): c for k, c in enumerate(cs)},
                  form.desc, 7)
        assert invariant_curve(form, CurveJet((t, s)))
    assert 0 < vertical < 40


@pytest.mark.parametrize("a, b, jet", [
    ({(0, 0): 1}, {}, "u"),                                  # du
    ({(0, 0): 1}, {(0, 1): -2}, "-v^2 + u"),                 # d(u - v^2)
    ({(0, 2): 1}, {(0, 0): 1, (1, 0): 1}, "v"),              # v^2 du + (1 + u) dv
    ({(0, 0): 1}, {(0, 0): 1, (2, 0): 1}, None),             # du + (1 + u^2) dv
])
def test_a_regular_point_has_the_leaf_as_its_one_separatrix(a, b, jet):
    """The leaf through a regular point is its one separatrix; the
    identity holds with nu = 0 on both sides."""
    form = f2(a, b)
    seps = separatrices2(form, seidenberg_reduce(form))
    assert seps.s0() == 1
    (branch,) = seps.branches
    assert branch.tags() == ("analytic", "ordinary") and branch.path == ()
    if jet is not None:
        assert branch.implicit.render() == jet + " + O(deg 13)"
    pb = pullback_curve(form, branch.param)
    assert pb.is_zero() or pb.order() >= 11
    g = branch.implicit.substitute(
        dict(zip(form.vars, branch.param.components)))
    assert g.is_zero() or g.order() >= 12
    rep = multiplicity_identity_check(form)
    assert (rep.nu_form, rep.nu_dg, rep.equal) == (0, 0, True)


@pytest.mark.parametrize("a, b, branches", [
    ({(0, 1): 1}, {(1, 0): 2}, ({(1, 0): 1}, {(0, 1): 1})),  # node, {u, v}
    ({(0, 0): 1}, {}, ({(1, 0): 1},)),                        # du, {u}
])
def test_declared_divisor_branches_are_never_separatrices(a, b, branches):
    """At a node whose two separatrices are declared and at a regular
    point whose leaf is declared, the separatrix set is empty and g = 1."""
    form = f2(a, b)
    E = LocalDivisor([DivisorBranch(MPoly(form.vars, eq, form.desc))
                      for eq in branches])
    seps = separatrices2(form, seidenberg_reduce(form, E))
    assert seps.s0() == 0
    assert seps.g == MPoly.constant(form.vars, 1, form.desc)

