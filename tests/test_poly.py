"""Sparse polynomial and jet arithmetic over field towers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_lab import (FieldDescriptor, FieldExtensionError,
                           OrderIndeterminate)
from foliation_lab.poly import (MPoly, divides, exact_divide, gcd_bivariate,
                                to_univariate, u_gcd, u_resultant,
                                u_roots_in_tower)

from conftest import UV, mk

Q = FieldDescriptor()

_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=4)
_exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
_polys = st.dictionaries(_exps, _fracs, max_size=5).map(
    lambda d: mk(UV, d))


@settings(max_examples=50, deadline=None)
@given(_polys, _polys, _polys)
def test_ring_axioms(p, q, r):
    assert ((p + q) * r - (p * r + q * r)).is_zero()
    assert (p * q - q * p).is_zero()
    assert ((p * q) * r - p * (q * r)).is_zero()


@settings(max_examples=50, deadline=None)
@given(_polys, _polys)
def test_product_degree_and_order(p, q):
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        assert (p * q).degree() == p.degree() + q.degree()
        assert (p * q).order() == p.order() + q.order()


@settings(max_examples=40, deadline=None)
@given(_polys, _fracs, _fracs)
def test_translate_evaluate_consistency(p, a, b):
    sa, sb = Q.rational(a), Q.rational(b)
    shifted = p.translate({"u": sa, "v": sb})
    got = shifted.evaluate({"u": Q.zero(), "v": Q.zero()})
    want = p.evaluate({"u": sa, "v": sb})
    assert (got - want).is_zero()


@settings(max_examples=40, deadline=None)
@given(_polys, _polys)
def test_exact_division_roundtrip(p, q):
    if q.is_zero():
        return
    prod = p * q
    quotient = exact_divide(prod, q)
    assert quotient is not None
    assert (quotient - p).is_zero()
    assert divides(prod, q)


def test_partial_derivative():
    p = mk(UV, {(0, 2): 1, (3, 0): -1})  # v^2 - u^3
    assert (p.partial("u") - mk(UV, {(2, 0): -3})).is_zero()
    assert (p.partial("v") - mk(UV, {(0, 1): 2})).is_zero()


def test_truncated_series_absorb_high_terms():
    u = MPoly.variable(UV, "u", Q, prec=4)
    s = u + u ** 2
    cube = s * s * s
    assert cube.prec == 4
    assert cube.coefficient((3, 0)).as_fraction() == 1
    assert cube.coefficient((4, 0)).is_zero()


def test_order_of_zero_jet_is_indeterminate():
    z = MPoly.zero(UV, Q, prec=5)
    with pytest.raises(OrderIndeterminate):
        z.order()


def test_substitute_across_variable_tuples():
    p = mk(UV, {(1, 1): 1})  # u*v
    t = MPoly.variable(("t",), "t", Q)
    image = p.substitute({"u": t, "v": t + MPoly.constant(("t",), 1, Q)})
    assert image.vars == ("t",)
    assert (image - MPoly(("t",), {(1,): Q.one(), (2,): Q.one()}, Q)).is_zero()


def test_substitute_series_into_a_one_variable_series():
    # f = t + t^2 composed with g = uv
    t = MPoly.variable(("t",), "t", Q, prec=6)
    ft = t + t * t
    g = mk(UV, {(1, 1): 1})
    comp = ft.substitute({"t": g})
    assert (comp.truncate(5)
            - mk(UV, {(1, 1): 1, (2, 2): 1}).truncate(5)).is_zero()


def _frozen_substitute(p, mapping):
    """MPoly.substitute before terms were grouped: every term a checked
    constant times the cached powers, one full product per factor."""
    images = [mapping[name] for name in p.vars]
    tgt = images[0]
    prec = p.prec
    for img in images:
        prec = MPoly._join_prec(prec, img.prec)
    out = {}
    pow_cache = [{0: MPoly.constant(tgt.vars, 1, p.desc, prec)}
                 for _ in images]
    for e, c in p.terms():
        term = MPoly.constant(tgt.vars, c, p.desc, prec)
        for i, k in enumerate(e):
            cache = pow_cache[i]
            if k not in cache:
                kk = max(cache)
                acc = cache[kk]
                while kk < k:
                    acc = acc * images[i]
                    kk += 1
                    cache[kk] = acc
            term = term * cache[k]
        for te, tc in term.coeffs.items():
            out[te] = out[te] + tc if te in out else tc
    return MPoly(tgt.vars, out, p.desc, prec)


_XYZ = ("x", "y", "z")
_precs = st.one_of(st.none(), st.integers(1, 7))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3),
       st.lists(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), _fracs,
                                max_size=5), min_size=4, max_size=4),
       st.lists(_precs, min_size=4, max_size=4))
def test_substitute_matches_frozen_copy(n_src, n_tgt, dicts, precs):
    """Polynomials and series in 1-3 variables, images in 1-3 variables,
    exact or truncated, including the constant and zero images."""
    src, tgt = _XYZ[:n_src], ("u", "v", "w")[:n_tgt]
    p = MPoly(src, {e[:n_src]: c for e, c in dicts[0].items()}, Q, precs[0])
    mapping = {name: MPoly(tgt, {e[:n_tgt]: c for e, c in d.items()}, Q, pr)
               for name, d, pr in zip(src, dicts[1:], precs[1:])}
    got, want = p.substitute(mapping), _frozen_substitute(p, mapping)
    assert (got.vars, got.coeffs, got.prec) == (want.vars, want.coeffs,
                                                 want.prec)


def test_vanishing_order():
    assert mk(UV, {(2, 1): 1, (0, 4): 2}).order() == 3


def test_to_univariate_and_gcd():
    a = to_univariate(mk(UV, {(0, 0): -1, (2, 0): 1}), "u")   # u^2 - 1
    b = to_univariate(mk(UV, {(1, 0): -1, (2, 0): 1}), "u")   # u^2 - u
    g = u_gcd(a, b, Q)  # u - 1, monic
    assert len(g) == 2
    assert g[1].as_fraction() == 1 and g[0].as_fraction() == -1


def test_u_roots_rational_and_quadratic():
    # u(u-2)(u+1/2)
    coeffs = to_univariate(
        mk(UV, {(3, 0): 1, (2, 0): Fraction(-3, 2), (1, 0): -1}), "u")
    roots = sorted(r.as_fraction() for r in u_roots_in_tower(coeffs, Q))
    assert roots == [Fraction(-1, 2), Fraction(0), Fraction(2)]
    # u^2 - 2 over Q(rt(2))
    Q2 = FieldDescriptor(quadratic_extension=2)
    coeffs = [Q2.rational(-2), Q2.zero(), Q2.one()]
    roots = u_roots_in_tower(coeffs, Q2)
    assert len(roots) == 2
    for r in roots:
        assert (r * r - Q2.rational(2)).is_zero()


def test_u_roots_unsplit_factor_diagnostic_is_true():
    Q2 = FieldDescriptor(quadratic_extension=2)
    # (x^2 - 2)(x^2 - 8): reducible over Q, roots in Q(rt(2)), not found
    quartic = [Q2.rational(c) for c in (16, 0, -10, 0, 1)]
    with pytest.raises(FieldExtensionError) as exc:
        u_roots_in_tower(quartic, Q2)
    assert str(exc.value) == ("a factor of degree 4 was not split: "
                              "no root in Q was found")
    # x^3 - rt(2): no rational root test runs on it
    cubic = [-Q2.sqrt_gen(), Q2.zero(), Q2.zero(), Q2.one()]
    with pytest.raises(FieldExtensionError, match="degree 3 .* not in Q"):
        u_roots_in_tower(cubic, Q2)


def test_u_resultant_degree_zero_argument():
    # res(c, q) = c^deg(q); regression for constant arguments
    c = [Q.rational(3)]
    q = [Q.rational(1), Q.rational(0), Q.rational(1)]
    assert u_resultant(q, c, Q).as_fraction() == 9


def test_u_resultant_detects_common_root():
    a = to_univariate(mk(UV, {(2, 0): 1, (0, 0): -1}), "u")   # u^2 - 1
    b = to_univariate(mk(UV, {(1, 0): 1, (0, 0): -1}), "u")   # u - 1
    assert u_resultant(a, b, Q).is_zero()
    c = to_univariate(mk(UV, {(1, 0): 1, (0, 0): -3}), "u")   # u - 3
    assert not u_resultant(a, c, Q).is_zero()


def test_gcd_bivariate():
    common = mk(UV, {(1, 0): 1, (0, 1): 1})          # u + v
    p = common * mk(UV, {(1, 0): 1})                 # u(u+v)
    q = common * mk(UV, {(0, 1): 1, (0, 0): 2})      # (v+2)(u+v)
    g = gcd_bivariate(p, q)
    assert g.degree() == 1
    assert divides(p, g) and divides(q, g)
    assert gcd_bivariate(mk(UV, {(1, 0): 1}), mk(UV, {(0, 1): 1})).degree() == 0
