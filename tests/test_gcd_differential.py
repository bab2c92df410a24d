"""The bivariate gcd, certified coprime at one point when it can be,
against a frozen copy of the pseudo-remainder gcd (frozen_gcd.py): the
same normalized gcd on coprime pairs, on pairs with a planted common
factor, and on pairs whose certificate cannot run."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_lab import FieldDescriptor, poly
from foliation_lab.forms import pullback
from foliation_lab.poly import MPoly, gcd_bivariate, monomials_below

import frozen_gcd
from conftest import Q, Q2, UV, cusp_line_form, mk

QS = FieldDescriptor(parameter="s")

_NONZERO = sorted({Fraction(a, b) for a in range(-4, 5) if a
                   for b in (1, 2)})
_nonzero = st.sampled_from(_NONZERO)


@st.composite
def _coeff(draw, desc):
    c = desc.rational(draw(_nonzero))
    gen = (desc.sqrt_gen() if desc.quadratic_extension
           else desc.param_gen() if desc.parameter else None)
    if gen is not None and draw(st.booleans()):
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


_descs = st.sampled_from([Q, Q, Q2, Q2, QS])
# The pseudo-remainder sequence of the frozen copy grows rational
# functions of s without bound: some coprime pairs of degree 4 over Q(s)
# run for minutes.  Over Q(s) the degrees are halved.
_DEGREE = {Q: 4, Q2: 4, QS: 2}


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
    """Both leading coefficients in v vanish at u = 1, 2 and 3, so no
    point certifies and the pseudo-remainder sequence runs."""
    lead = {(3, 0): 1, (2, 0): -6, (1, 0): 11, (0, 0): -6}  # (u-1)(u-2)(u-3)
    a = mk(UV, {(e[0], 2): c for e, c in lead.items()}
           | {(0, 1): 1, (1, 0): 1})
    b = mk(UV, {(e[0], 1): c for e, c in lead.items()} | {(2, 0): 3})
    certified = _counting(monkeypatch, "_coprime_at_a_point")
    prems = _counting(monkeypatch, "_rec_prem")
    assert _same_gcd(a, b).degree() == 0
    assert certified == [False] and prems
    prems.clear()
    # the same leading coefficients with a planted common factor v - u
    g = mk(UV, {(0, 1): 1, (1, 0): -1})
    assert _same_gcd(a * g, b * g).degree() == 1
    assert prems


def _cusp_line_pullback():
    """The cusp-line germ over Q(rt(2)) pulled back along a quadratic
    section: two coefficients of degree 5 with no common factor."""
    form = cusp_line_form(Q2.sqrt_gen())
    comps = [mk(UV, {(1, 0): 1, (0, 1): 1}, Q2),
             mk(UV, {(1, 0): 2, (0, 1): -1, (0, 2): 1}, Q2),
             mk(UV, {(1, 0): 1, (0, 1): 1, (1, 1): 1}, Q2)]
    return pullback(form.coeffs(), form.vars, dict(zip(form.vars, comps)))


def test_coprime_pullback_needs_no_pseudo_remainder(monkeypatch):
    A, B = _cusp_line_pullback()
    assert A.degree() == B.degree() == 5
    prems = _counting(monkeypatch, "_rec_prem")
    assert _same_gcd(A, B).degree() == 0
    assert prems == []
