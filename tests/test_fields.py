"""Field tower arithmetic: axioms, square roots, widening, ordering."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_lab import (FieldDescriptor, FieldError, FieldExtensionError,
                           LocalDivisor, OneForm2, WidenRequest)
from foliation_lab.fields import (_int_sqrt_exact, _squarefree_part, coerce,
                                  eigenvalue_ratio, sort_key, sqrt_in_tower,
                                  sqrt_or_widen)
from foliation_lab.poly import MPoly
from foliation_lab.reduce2d import NON_SIMPLE, classify_point2

Q = FieldDescriptor()
Q2 = FieldDescriptor(quadratic_extension=2)

_fracs = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def _el2(a, b):
    return (Q2.rational(a) + Q2.rational(b) * Q2.sqrt_gen())


_elements = st.tuples(_fracs, _fracs).map(lambda t: _el2(*t))


@settings(max_examples=60, deadline=None)
@given(_elements, _elements, _elements)
def test_ring_axioms(x, y, z):
    assert ((x + y) + z - (x + (y + z))).is_zero()
    assert ((x * y) * z - (x * (y * z))).is_zero()
    assert (x * (y + z) - (x * y + x * z)).is_zero()
    assert (x + y - (y + x)).is_zero()
    assert (x * y - y * x).is_zero()


@settings(max_examples=60, deadline=None)
@given(_elements)
def test_field_inverses(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert (x * x.inverse() - Q2.one()).is_zero()


@settings(max_examples=60, deadline=None)
@given(_elements)
def test_conjugate_norm_is_rational(x):
    assert (x * x.conjugate()).is_rational()


def test_power_matches_repeated_product():
    x = _el2(Fraction(2), Fraction(1))
    acc = Q2.one()
    for k in range(6):
        assert (x ** k - acc).is_zero()
        acc = acc * x


def test_sqrt_in_tower():
    assert sqrt_in_tower(Q.rational(Fraction(9, 4))).as_fraction() \
        == Fraction(3, 2)
    r = sqrt_in_tower(Q2.rational(2))
    assert (r * r - Q2.rational(2)).is_zero()
    assert sqrt_in_tower(Q.rational(2)) is None


def test_sqrt_or_widen_requests_extension():
    with pytest.raises(WidenRequest) as exc:
        sqrt_or_widen(Q.rational(3))
    assert exc.value.m == 3


def test_widening_is_idempotent_and_exclusive():
    assert Q.widened(2) == Q2
    assert Q2.widened(2) == Q2
    assert Q.widened(8) == Q2  # squarefree part
    with pytest.raises(FieldExtensionError):
        Q2.widened(3)


def test_coerce_embeds_rationals():
    x = Q.rational(Fraction(5, 7))
    y = coerce(x, Q2)
    assert y.desc == Q2 and y.as_fraction() == Fraction(5, 7)


def test_sort_key_is_deterministic_total_order():
    els = [_el2(Fraction(1), Fraction(0)), _el2(Fraction(0), Fraction(1)),
           _el2(Fraction(-1), Fraction(2)), Q2.zero()]
    once = sorted(els, key=sort_key)
    twice = sorted(list(reversed(els)), key=sort_key)
    assert [e.render() for e in once] == [e.render() for e in twice]


def test_ratio_in_positive_rationals():
    # diag(1, 2): tr = 3, det = 2, quotient 2 in Q_{>0}
    assert eigenvalue_ratio(Q.rational(3), Q.rational(2)) == "positive"
    # diag(1, -2): quotient -2
    assert eigenvalue_ratio(Q.rational(-1), Q.rational(-2)) == "negative"
    # diag(1, -1): tr = 0, quotient -1
    assert eigenvalue_ratio(Q.zero(), Q.rational(-1)) == "negative"
    # diag(l, -3 l), l = 1 + rt(2): tr and det leave Q, the quotient does not
    r2 = Q2.sqrt_gen()
    lam = Q2.one() + r2
    assert eigenvalue_ratio(lam * Q2.rational(-2),
                            lam * lam * Q2.rational(-3)) == "negative"
    # diag(1, rt(2)): irrational quotient; diag(1, i): complex quotient
    assert eigenvalue_ratio(Q2.one() + r2, r2) == "neither"
    assert eigenvalue_ratio(Q.one(), Q.one()) == "neither"
    # degenerate linear parts
    assert eigenvalue_ratio(Q.one(), Q.zero()) == "zero-eigenvalue"
    assert eigenvalue_ratio(Q.zero(), Q.zero()) == "nilpotent"


@given(st.fractions(min_value=-50, max_value=50, max_denominator=20)
       .filter(lambda q: q != 0), st.sampled_from([1, 3, -7]))
def test_eigenvalue_ratio_reads_the_sign_of_a_rational_quotient(q, lam):
    # diag(lam, q*lam): tr = (1 + q) lam, det = q lam^2
    tr, det = Q.rational((1 + q) * lam), Q.rational(q * lam * lam)
    assert eigenvalue_ratio(tr, det) == ("positive" if q > 0
                                         else "negative")


def test_int_sqrt_exact_is_exact_for_big_integers():
    assert _int_sqrt_exact(10**400) == 10**200
    assert _int_sqrt_exact(10**400 + 1) is None
    assert _int_sqrt_exact((10**20 + 1) ** 2) == 10**20 + 1
    assert _int_sqrt_exact((10**20 + 1) ** 2 - 1) is None
    assert _int_sqrt_exact(2) is None
    assert _int_sqrt_exact(-4) is None


def _squarefree_part_naive(n):
    """Full trial division, the reference for _squarefree_part."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    s, k, d = 1, 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            s *= d
        k *= d ** (e // 2)
        d += 1
    return sign * s * n, k


def test_squarefree_part_matches_naive_factoring():
    rng = random.Random(20261018)
    cases = [1, -1, 12, -50, 1000003 ** 2 * 6, 999983 * 1000003,
             2 ** 39, 3 ** 25]
    for _ in range(30):
        q = rng.choice([rng.randrange(2, 300),
                        rng.randrange(10 ** 5, 10 ** 6)])
        cases.append(rng.randrange(1, 10 ** 12 // q ** 2 + 1) * q * q)
        cases.append(-rng.randrange(1, 10 ** 12))
    for n in cases:
        assert _squarefree_part(n) == _squarefree_part_naive(n), n


def test_squarefree_part_refuses_a_large_unfactored_cofactor():
    with pytest.raises(FieldExtensionError):
        _squarefree_part(998244353 * 1000000007)
    with pytest.raises(FieldExtensionError):
        FieldDescriptor(quadratic_extension=998244353 * 1000000007)


def test_huge_resonant_node_is_not_simple():
    # -v du + k u dv: eigenvalues k and 1, quotient k in Q_{>0}
    k = 100000000000000000001
    assert eigenvalue_ratio(Q.rational(k + 1), Q.rational(k)) == "positive"
    form = OneForm2(MPoly(("u", "v"), {(0, 1): Q.rational(-1)}, Q),
                    MPoly(("u", "v"), {(1, 0): Q.rational(k)}, Q))
    code, _, _ = classify_point2(form, LocalDivisor.empty())
    assert code.kind == NON_SIMPLE


def test_negative_extension_supports_imaginary_arithmetic():
    Qi = FieldDescriptor(quadratic_extension=-1)
    i = Qi.sqrt_gen()
    assert (i * i + Qi.one()).is_zero()


def test_parameter_field_arithmetic():
    Qt = FieldDescriptor(parameter="s")
    s = Qt.param_gen()
    x = (s + Qt.one()) * (s - Qt.one())
    assert (x - (s * s - Qt.one())).is_zero()
    assert not s.is_rational()
