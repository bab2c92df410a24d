"""The one order-by-order graph-series solver against frozen copies of the
graph loop it replaced and of the substituting solver that followed it,
with guards on its residual reads, substitutions and work.

The solver takes the slope of the graph from its caller.  The
differential tests hand it the slope that the frozen reference picks (its
N = 1 result); a germ on which that order-1 choice raises (no root, or a
root outside the tower) tests the choice alone, which the solver no
longer makes, and is skipped."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_lab import seidenberg_reduce
from foliation_lab.fields import (FieldElement, FieldError, sort_key,
                                  sqrt_or_widen)
from foliation_lab.forms import (OneForm2, PrecisionError,
                                 invariant_graph_jet, normalize2)
from foliation_lab.poly import MPoly
from foliation_lab.reduce2d import REGULAR, _rotate_form

from conftest import Q, UV, corpus2, f2, mk
from frozen_branches import _frozen_invariant_graph_jet
from test_lemma_suites import N_INSTANCES, _random_plane_germ


# --- frozen reference: the graph loop as it was before the merge -------------


def _reference_invariant_graph_jet(form, N):
    u, v = form.vars
    desc = form.desc
    if N < 1:
        raise ValueError("need at least one coefficient")
    prec_cap = form.prec()
    if prec_cap is not None and prec_cap <= N:
        raise PrecisionError("form precision %d too low for a degree-%d graph"
                             % (prec_cap, N))
    coeffs = []
    one_var = (u,)

    def residual(cs, upto):
        s = MPoly(one_var, {(k + 1,): c for k, c in enumerate(cs)
                            if not c.is_zero()}, desc, prec=upto + 2)
        ds = s.partial(u)
        uu = MPoly.variable(one_var, u, desc, prec=upto + 2)
        mapping = {u: uu, v: s}
        return (form.A.substitute(mapping)
                + form.B.substitute(mapping) * ds)

    for k in range(1, N + 1):
        r0 = residual(coeffs + [desc.zero()], k)
        r1 = residual(coeffs + [desc.one()], k)
        alpha = r0.coeffs.get((k,), desc.zero())
        if k == 1:
            r2 = residual(coeffs + [desc.rational(2)], k)
            val1 = r1.coeffs.get((k,), desc.zero())
            val2 = r2.coeffs.get((k,), desc.zero())
            half = desc.rational(Fraction(1, 2))
            q2 = (val2 - val1 - val1 + alpha) * half
            q1 = val1 - alpha - q2
            if not q2.is_zero() and not alpha.is_zero():
                disc = sqrt_or_widen(q1 * q1 - desc.rational(4) * q2 * alpha)
                roots = sorted(
                    ((-q1 + disc) / (q2 + q2), (-q1 - disc) / (q2 + q2)),
                    key=sort_key)
                coeffs.append(roots[0])
                continue
            beta = q1
        else:
            beta = r1.coeffs.get((k,), desc.zero()) - alpha
        if beta.is_zero():
            if not alpha.is_zero():
                raise ValueError("no invariant graph: obstruction at order %d"
                                 % k)
            coeffs.append(desc.zero())
        else:
            coeffs.append(-(alpha / beta))
    return coeffs


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (ValueError, ZeroDivisionError, FieldError) as exc:
        return ("raised", type(exc))


def _picked_slope(reference, form):
    """The slope that the reference's order-1 choice picks, or None when
    that choice raises."""
    picked = _outcome(reference, form, 1)
    return picked[1][0] if picked[0] == "ok" else None


def _same_graph(form, N):
    slope = _picked_slope(_reference_invariant_graph_jet, form)
    if slope is None:
        return False
    new = _outcome(invariant_graph_jet, form, N, slope)
    old = _outcome(_reference_invariant_graph_jet, form, N)
    assert new == old, (form.render(), new, old)
    return new[0] == "ok"


def _frames(desc):
    one, zero, two = desc.one(), desc.zero(), desc.rational(2)
    return [((one, zero), (zero, one)), ((one, one), (zero, one)),
            ((one, -one), (one, two)), ((two, one), (-one, one))]


# --- differential -----------------------------------------------------------


def test_invariant_graph_jet_matches_reference_on_corpus2_leaves():
    solved = 0
    for name, (form, _) in corpus2().items():
        tree = seidenberg_reduce(form)
        for rec in tree.leaves:
            if rec.code.kind == REGULAR:
                continue
            for d1, d2 in _frames(rec.form.desc):
                rotated = normalize2(_rotate_form(rec.form, d1, d2))
                for N in (1, 4, 8):
                    solved += _same_graph(rotated, N)
    assert solved > 50


def test_solvers_match_reference_on_the_plane_lemma_germs():
    rng = random.Random(20260823)
    germs = [_random_plane_germ(rng) for _ in range(N_INSTANCES)]
    solved = 0
    for form in germs:
        form = normalize2(form)
        for d1, d2 in _frames(form.desc)[:2]:
            solved += _same_graph(normalize2(_rotate_form(form, d1, d2)), 6)
    assert solved > 300


_coef = st.integers(-3, 3)
_higher = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
        lambda e: sum(e) >= 2), _coef, max_size=4)


@settings(max_examples=80, deadline=None)
@given(_coef, _coef, _coef, _coef, _higher, _higher, st.integers(1, 6))
def test_invariant_graph_jet_matches_reference_on_singular_germs(
        a10, a01, b10, b01, ha, hb, N):
    _same_graph(f2(dict(ha) | {(1, 0): a10, (0, 1): a01},
                   dict(hb) | {(1, 0): b10, (0, 1): b01}), N)


# --- one residual read per order --------------------------------------------


def test_solver_evaluates_the_residual_once_per_order(monkeypatch):
    calls = []
    original = FieldElement.inverse

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(FieldElement, "inverse", counting)
    # u(1 + v) du - u dv along v = s(u) is u (1 + s - s'): its order k is
    # c_(k-1) - k c_k, so s = e^u - 1, and beta(k) = -k is inverted once
    # per order
    cs = invariant_graph_jet(f2({(1, 0): 1, (1, 1): 1}, {(1, 0): -1}), 7,
                             Q.one())
    assert [-c.as_fraction() for c in calls] == list(range(2, 8))
    assert [c.as_fraction() for c in cs] == [
        1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24),
        Fraction(1, 120), Fraction(1, 720), Fraction(1, 5040)]


def test_adapters_substitute_once_per_order(monkeypatch):
    count = [0]
    original = MPoly.substitute

    def counting(self, mapping):
        count[0] += 1
        return original(self, mapping)

    monkeypatch.setattr(MPoly, "substitute", counting)
    euler = normalize2(corpus2()["euler"][0])
    for N in (1, 2, 9, 16):
        count[0] = 0
        invariant_graph_jet(euler, N, Q.one())
        assert count[0] == 0  # the graph is never substituted


def test_solver_work_grows_quadratically_with_the_order(monkeypatch):
    """Each [u^n] s^j is computed once, so doubling N about quadruples the
    field products (4.3x from N = 12 to 24); re-substituting the graph at
    every order multiplied them by 7.5."""
    count = [0]
    original = FieldElement.__mul__

    def counting(self, other):
        count[0] += 1
        return original(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counting)
    # v du - 2u dv plus terms up to degree 3 in v; slope 0, beta(k) = 1 - 2k
    form = f2({(0, 1): 1, (2, 0): 1, (0, 2): 1, (1, 2): 1, (0, 3): -1},
              {(1, 0): -2, (2, 0): 1, (1, 1): 1, (0, 3): 2})
    products = []
    for N in (12, 24):
        count[0] = 0
        invariant_graph_jet(form, N, Q.zero())
        products.append(count[0])
    assert products[1] < 6 * products[0], products


# --- against a frozen copy of the substituting solver -----------------------


def _result(fn, *args):
    try:
        return ("ok", fn(*args))
    except (ValueError, ZeroDivisionError, FieldError) as exc:
        return ("raised", type(exc), str(exc))


def _agree(new, frozen, *args):
    got, want = _result(new, *args), _result(frozen, *args)
    assert got == want, (args, got, want)
    return got


def _agree_at_picked_slope(form, N):
    """_agree on the slope that the frozen copy picks; None when its
    order-1 choice raises."""
    slope = _picked_slope(_frozen_invariant_graph_jet, form)
    if slope is None:
        return None
    got = _result(invariant_graph_jet, form, N, slope)
    want = _result(_frozen_invariant_graph_jet, form, N)
    assert got == want, (form.render(), N, got, want)
    return got


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 8))
def test_solver_matches_frozen_copy_on_lemma_germs(seed, N):
    form = normalize2(_random_plane_germ(random.Random(seed)))
    for d1, d2 in _frames(form.desc)[:2]:
        _agree_at_picked_slope(normalize2(_rotate_form(form, d1, d2)), N)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True),
       _higher, st.integers(1, 7))
def test_solver_matches_frozen_copy_on_line_products(slopes, higher, N):
    """c = product of lines plus higher terms: the invariant graphs of dc
    along each tangent and along a direction that is not one."""
    u = MPoly.variable(UV, "u", Q)
    v = MPoly.variable(UV, "v", Q)
    c = MPoly.constant(UV, 1, Q)
    for lam in slopes:
        c = c * (v - u.scale(Q.rational(lam)))
    m = len(slopes)
    c = c + mk(UV, {e: k for e, k in higher.items() if sum(e) > m})
    form = OneForm2(c.partial("u"), c.partial("v"), UV)
    for lam in slopes + [4]:
        _agree(invariant_graph_jet, _frozen_invariant_graph_jet, form, N,
               Q.rational(lam))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), _higher, _higher, st.integers(1, 7))
def test_solver_matches_frozen_copy_at_resonant_orders(k0, ha, hb, N):
    """u dv - k0 v du plus higher terms: beta(k0) = 0, so order k0 is
    either free (c_k0 = 0) or an obstruction."""
    form = f2(dict(ha) | {(0, 1): -k0}, dict(hb) | {(1, 0): 1})
    _agree_at_picked_slope(form, N)


def test_frozen_comparison_reaches_resonance_obstruction_and_n1():
    outcomes = set()
    for k0 in (2, 3):
        for a20 in (0, 1):
            form = f2({(0, 1): -k0, (k0, 0): a20}, {(1, 0): 1})
            for N in (1, k0, k0 + 2):
                got = _agree_at_picked_slope(form, N)
                outcomes.add((got[0], N >= k0, a20))
    # free at the resonance without u^k0, an obstruction with it
    assert ("ok", True, 0) in outcomes and ("raised", True, 1) in outcomes
    assert ("ok", False, 1) in outcomes  # N = 1 never reaches it


# --- regular points ---------------------------------------------------------


@pytest.mark.parametrize("a, b", [
    ({(0, 0): 1}, {}),                      # du
    ({}, {(0, 0): 1}),                      # dv
    ({(0, 0): 1}, {(0, 0): 1}),             # du + dv
    ({(0, 0): 1, (0, 1): 1}, {(1, 0): 1}),  # (1 + v) du + u dv
])
def test_invariant_graph_jet_refuses_a_regular_point(a, b):
    with pytest.raises(ValueError, match="singular point"):
        invariant_graph_jet(f2(a, b), 4, Q.zero())
