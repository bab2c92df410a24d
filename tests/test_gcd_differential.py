"""The bivariate gcd, certified coprime at points when it can be,
against a frozen copy of the pseudo-remainder gcd (frozen_gcd.py): the
same normalized gcd on coprime pairs, on pairs with a planted common
factor, and on pairs whose certificate cannot run, over Q, Q(rt 2), Q(s)
and Q(s)(rt 2)."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foliation_lab import FieldDescriptor, linalg, poly
from foliation_lab.forms import pullback
from foliation_lab.poly import MPoly, gcd_bivariate, monomials_below

import frozen_gcd
from conftest import Q, Q2, UV, cusp_line_form, mk

QS = FieldDescriptor(parameter="s")
QS2 = FieldDescriptor(2, "s")

_NONZERO = sorted({Fraction(a, b) for a in range(-4, 5) if a
                   for b in (1, 2)})
_nonzero = st.sampled_from(_NONZERO)


@st.composite
def _coeff(draw, desc):
    c = desc.rational(draw(_nonzero))
    gens = ([desc.sqrt_gen()] if desc.quadratic_extension else []) + (
        [desc.param_gen()] if desc.parameter else [])
    for gen in gens:
        if draw(st.booleans()):
            c = c + desc.rational(draw(_nonzero)) * gen
    return c


@st.composite
def _poly(draw, desc, max_deg, min_order=0, max_terms=5, only_u=False):
    exps = [e for e in monomials_below(2, max_deg + 1)
            if sum(e) >= min_order and not (only_u and e[1])]
    terms = draw(st.dictionaries(st.sampled_from(exps), _coeff(desc),
                                 min_size=1, max_size=max_terms))
    return MPoly(UV, terms, desc)


def _same_gcd(a, b):
    new = gcd_bivariate(a, b)
    old = frozen_gcd.gcd_bivariate(a, b)
    assert (new.coeffs, new.prec) == (old.coeffs, old.prec), \
        (a.render(), b.render())
    return new


_descs = st.sampled_from([Q, Q, Q2, Q2, QS, QS2])
# The pseudo-remainder sequence of the frozen copy grows rational
# functions of s without bound: some coprime pairs of degree 4 over Q(s)
# run for minutes.  Over Q(s) and Q(s)(rt 2) the degrees are halved.
_DEGREE = {Q: 4, Q2: 4, QS: 2, QS2: 2}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_gcd_matches_on_drawn_pairs(data):
    """Mostly coprime pairs; with min_order 1 both vanish at the origin."""
    desc = data.draw(_descs)
    order = data.draw(st.integers(0, 1))
    a = data.draw(_poly(desc, _DEGREE[desc], order))
    b = data.draw(_poly(desc, _DEGREE[desc], order))
    _same_gcd(a, b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gcd_matches_with_a_common_factor_in_v(data):
    desc = data.draw(_descs)
    v = MPoly.variable(UV, "v", desc)
    half = _DEGREE[desc] // 2
    g = data.draw(_poly(desc, half, max_terms=3)) + v.scale(
        data.draw(_coeff(desc)))
    if g.degree_in("v") < 1:
        g = g + v
    a = g * data.draw(_poly(desc, half, data.draw(st.integers(0, 1))))
    b = g * data.draw(_poly(desc, half, data.draw(st.integers(0, 1))))
    assert _same_gcd(a, b).degree_in("v") >= 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gcd_matches_with_a_common_factor_in_u(data):
    desc = data.draw(_descs)
    h = data.draw(_poly(desc, _DEGREE[desc] // 2, 1, max_terms=2,
                        only_u=True))
    cofactor = _poly(desc, _DEGREE[desc] - 1, data.draw(st.integers(0, 1)))
    a = h * data.draw(cofactor)
    b = h * data.draw(cofactor)
    assert _same_gcd(a, b).degree_in("u") >= 1


def _counting(monkeypatch, name):
    calls = []
    original = getattr(poly, name)

    def wrapper(*args):
        out = original(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(poly, name, wrapper)
    return calls


def test_leading_coefficients_vanishing_at_every_point_fall_back(
        monkeypatch):
    """Both leading coefficients in v vanish at u = 1, 2, 3 and 5, so no
    point certifies and the gcd is read off the syzygies."""
    # (u - 1)(u - 2)(u - 3)(u - 5)
    lead = {(4, 0): 1, (3, 0): -11, (2, 0): 41, (1, 0): -61, (0, 0): 30}
    a = mk(UV, {(e[0], 2): c for e, c in lead.items()}
           | {(0, 1): 1, (1, 0): 1})
    b = mk(UV, {(e[0], 1): c for e, c in lead.items()} | {(2, 0): 3})
    certified = _counting(monkeypatch, "_coprime_at_points")
    syzygies = _counting(monkeypatch, "_syzygy_gcd")
    assert _same_gcd(a, b).degree() == 0
    assert certified == [False] and syzygies
    syzygies.clear()
    # the same leading coefficients with a planted common factor v - u
    g = mk(UV, {(0, 1): 1, (1, 0): -1})
    assert _same_gcd(a * g, b * g).degree() == 1
    assert syzygies


def _param_ops(monkeypatch):
    """Calls of u_gcd, _syzygy_gcd and linalg.nullspace over a tower
    with a parameter."""
    seen = []
    for module, name in ((poly, "u_gcd"), (poly, "_syzygy_gcd"),
                         (linalg, "nullspace")):
        original = getattr(module, name)

        def wrapper(*args, _name=name, _original=original):
            last = args[-1]
            desc = last.desc if isinstance(last, MPoly) else last
            if desc.parameter is not None:
                seen.append(_name)
            return _original(*args)

        monkeypatch.setattr(module, name, wrapper)
    return seen


def _random_poly(rng, desc, max_deg, min_terms, max_terms):
    """A polynomial over desc of degree <= max_deg with min_terms to
    max_terms terms, with coefficients r0 + r1 s (+ r2 rt 2): each r is
    drawn from _NONZERO, and r1 s and r2 rt 2 are each added with
    probability 1/2."""
    gens = [desc.param_gen()] + (
        [desc.sqrt_gen()] if desc.quadratic_extension else [])
    terms = {}
    for e in rng.sample(monomials_below(2, max_deg + 1),
                        rng.randint(min_terms, max_terms)):
        c = desc.rational(rng.choice(_NONZERO))
        for gen in gens:
            if rng.random() < 0.5:
                c = c + desc.rational(rng.choice(_NONZERO)) * gen
        terms[e] = c
    return MPoly(UV, terms, desc)


def _random_pair(rng):
    """Two polynomials over Q(s) of degree <= 4 with up to 5 terms each,
    with coefficients r0 + r1 s, as in the pairs that ran for seconds in
    the pseudo-remainder gcd."""
    while True:
        a, b = (_random_poly(rng, QS, 4, 2, 5) for _ in range(2))
        shared = [min(x, y) for x, y in zip(a.monomial_content(),
                                            b.monomial_content())]
        if not any(shared):
            return a, b


def test_coprime_parameter_pairs_need_no_work_over_the_parameter(
        monkeypatch):
    """50 drawn coprime pairs over Q(s) of degree <= 4 are certified at
    points: no syzygy gcd, null space or u_gcd runs over Q(s)."""
    rng = random.Random(18)
    pairs = [_random_pair(rng) for _ in range(50)]
    seen = _param_ops(monkeypatch)
    for a, b in pairs:
        assert gcd_bivariate(a, b) == MPoly.constant(UV, 1, QS), \
            (a.render(), b.render())
    assert seen == []


def _planted_pair(rng, desc):
    """(g, a, b): a planted factor g of degree 1 or 2 with 2 or 3 terms,
    and cofactors a and b of degree <= 4 with 2 to 5 terms each, which
    the points prove coprime, so g a and g b have the gcd g."""
    g = _random_poly(rng, desc, 2, 2, 3)
    while True:
        a, b = (_random_poly(rng, desc, 4, 2, 5) for _ in range(2))
        if poly._coprime_at_points(a, b):
            return g, a, b


def test_planted_parameter_pairs_have_a_bounded_gcd(monkeypatch):
    """20 pairs over Q(s) and 20 over Q(s)(rt 2) with a planted common
    factor: no point certifies them, and the gcd, interpolated from
    ground gcds at values of s, takes under 2 s of CPU each (the
    pseudo-remainder sequence it replaced ran past 15 s on 4 of the
    Q(s) pairs and 8 of the others).  It divides both inputs and has
    the planted degree, and nothing runs u_gcd, a syzygy gcd or a null
    space over the parameter."""
    rng = random.Random(28)
    pairs = [_planted_pair(rng, desc) for desc in (QS, QS2)
             for _ in range(20)]
    seen = _param_ops(monkeypatch)
    for g, a, b in pairs:
        p, q = g * a, g * b
        start = time.process_time()
        h = gcd_bivariate(p, q)
        assert time.process_time() - start < 2, (p.render(), q.render())
        assert h.degree() == g.degree()
        assert poly.divides(p, h) and poly.divides(q, h)
    assert seen == []


# a value of s that _coprime_at_points and _gcd_by_specialization never use
_UNUSED = Fraction(-7, 3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_the_gcd_specializes_to_the_gcd_of_the_specialized_pair(data):
    """At s0 = -7/3, where the leading terms of both inputs survive, the
    gcd over the parameter tower specializes to the ground gcd of the
    specialized pair; no u_gcd or null space runs over the parameter.
    Drawn with a fixed seed: at a few values of s0 (a finite set for
    each pair) the specialized pair gains a common factor."""
    desc = data.draw(st.sampled_from([QS, QS2]))
    g = data.draw(_poly(desc, 2, max_terms=3))
    a = g * data.draw(_poly(desc, 3, data.draw(st.integers(0, 1))))
    b = g * data.draw(_poly(desc, 3, data.draw(st.integers(0, 1))))
    with pytest.MonkeyPatch.context() as patch:
        seen = _param_ops(patch)
        h = gcd_bivariate(a, b)
    assert seen == []
    sa, sb = (poly.specialize(f, _UNUSED) for f in (a, b))
    assume(sa is not None and sb is not None
           and max(a.coeffs) in sa.coeffs and max(b.coeffs) in sb.coeffs)
    assert poly.specialize(h, _UNUSED) == gcd_bivariate(sa, sb)


def test_an_unlucky_first_point_passes_to_the_next():
    """a = -3v(u + sv - s) and b = 3u(u + sv - 1) are coprime, but at
    u = 1 both specializations vanish at v = 0, and at v = 1 both vanish
    at u = 0.  A later point certifies the pair."""
    s = QS.param_gen()
    u, v = (MPoly.variable(UV, w, QS) for w in UV)
    a = v.scale(QS.rational(-3)) * (u + v.scale(s) - s)
    b = u.scale(QS.rational(3)) * (u + v.scale(s) - 1)
    assert poly._coprime_at_points(a, b) is True
    for x0, s0 in ((1, 2), (2, 3)):
        sa, sb = (poly.specialize(f, s0) for f in (a, b))
        first = [poly.to_univariate(f.restrict({"u": x0}), "v")
                 for f in (sa, sb)]
        assert len(poly.u_gcd(*first, sa.desc)) == (2 if x0 == 1 else 1)
    assert _same_gcd(a, b) == MPoly.constant(UV, 1, QS)


def test_a_pair_unlucky_at_three_points_is_certified_at_the_fourth():
    """-v(v + 2u - uv) and u(v + 2u - u^2), from a plane reduction: the
    leading coefficient u - 1 vanishes at u = 1, and at u = 2 and u = 3
    the specializations share a root."""
    a = mk(UV, {(0, 2): -1, (1, 1): -2, (1, 2): 1})
    b = mk(UV, {(1, 1): 1, (2, 0): 2, (3, 0): -1})
    assert poly._coprime_at_points(a, b) is True
    assert _same_gcd(a, b) == MPoly.constant(UV, 1, Q)


def _cusp_line_pullback():
    """The cusp-line germ over Q(rt(2)) pulled back along a quadratic
    section: two coefficients of degree 5 with no common factor."""
    form = cusp_line_form(Q2.sqrt_gen())
    comps = [mk(UV, {(1, 0): 1, (0, 1): 1}, Q2),
             mk(UV, {(1, 0): 2, (0, 1): -1, (0, 2): 1}, Q2),
             mk(UV, {(1, 0): 1, (0, 1): 1, (1, 1): 1}, Q2)]
    return pullback(form.coeffs(), form.vars, dict(zip(form.vars, comps)))


def test_coprime_pullback_needs_no_pseudo_remainder(monkeypatch):
    """The points certify the pair: no syzygy gcd runs."""
    A, B = _cusp_line_pullback()
    assert A.degree() == B.degree() == 5
    syzygies = _counting(monkeypatch, "_syzygy_gcd")
    assert _same_gcd(A, B).degree() == 0
    assert syzygies == []
