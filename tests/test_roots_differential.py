"""poly.u_roots_in_tower, whose rational root test runs in ints, against
the frozen search that evaluated every Fraction candidate with field
arithmetic (frozen_roots.py): the same sorted roots, or the same
exception type and message."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_lab.fields import FieldDescriptor, FieldExtensionError, sort_key
from foliation_lab.poly import _divisors, u_roots_in_tower

import frozen_roots

QQ = FieldDescriptor()
Q2 = FieldDescriptor(quadratic_extension=2)

# int factors low to high, none with a rational root: x^2 - 2 splits in
# Q(sqrt 2), x^2 + 1 and x^2 - 3 ask for another root, the cubics and
# the quartic are not split
_UNSPLIT = [(-2, 0, 1), (1, 0, 1), (-3, 0, 1), (5, 3, 2), (-2, 0, 0, 1),
            (-1, -1, 0, 1), (3, 0, 1, 2), (2, 0, -4, 0, 1)]

_fracs = st.fractions(min_value=-12, max_value=12, max_denominator=6)


def _times_linear(c, r):
    """The coefficients of (X - r) * c, low to high."""
    return ([-r * c[0]] + [c[i - 1] - r * c[i] for i in range(1, len(c))]
            + [c[-1]])


def _outcome(coeffs, desc, search):
    """The sorted roots as (sort key, element) pairs, or the type and
    message of what the search raised."""
    try:
        roots = search(coeffs, desc)
    except Exception as exc:
        return type(exc), str(exc)
    return [(sort_key(r), r) for r in roots]


def _agree(coeffs, desc):
    got = _outcome(coeffs, desc, u_roots_in_tower)
    assert got == _outcome(coeffs, desc, frozen_roots.u_roots_in_tower)
    return got


@st.composite
def _planted(draw):
    """(coefficients, tower): a non-monic leading coefficient times planted
    rational roots with multiplicities, roots at zero, an optional
    unsplit factor and, over Q(sqrt 2), an optional root a + b*sqrt(2)."""
    desc = draw(st.sampled_from([QQ, Q2]))
    c = [desc.rational(draw(_fracs.filter(bool)))]
    for r in draw(st.lists(_fracs, max_size=4)):
        for _ in range(draw(st.integers(1, 2))):
            c = _times_linear(c, desc.rational(r))
    for _ in range(draw(st.integers(0, 2))):
        c = [desc.zero()] + c
    extra = draw(st.sampled_from([None] + _UNSPLIT))
    if extra is not None:
        c = [sum((c[i - j] * e for j, e in enumerate(extra)
                  if 0 <= i - j < len(c)), desc.zero())
             for i in range(len(c) + len(extra) - 1)]
    if desc is Q2 and draw(st.booleans()):
        a, b = draw(_fracs), draw(_fracs.filter(bool))
        c = _times_linear(c, desc.rational(a) + desc.rational(b) * desc.sqrt_gen())
    return c, desc


@settings(max_examples=200, deadline=None)
@given(_planted())
def test_roots_agree_with_the_frozen_search(case):
    coeffs, desc = case
    _agree(coeffs, desc)


@pytest.mark.parametrize("desc", [QQ, Q2], ids=lambda d: d.describe())
@pytest.mark.parametrize("ints", [
    (-600, 0, 0, 0, 2400),  # 600 (2x^2 - 1)(2x^2 + 1): not split
    (-600, 0, 2400),  # roots +-1/2
    (0, -600, 0, 2400),  # 0 and +-1/2
    (-600, 1, 0, 2400),  # an unsplit cubic
    (-600, -600, 2400, 2400),  # roots -1 and +-1/2
    (-2, 0, 0, 1), (1, 1, 0, 1), (8, -12, 6, -1),  # (2 - x)^3
    (0, 0, 4, -4, 1),  # x^2 (x - 2)^2
], ids=str)
def test_roots_agree_on_fixed_polynomials(ints, desc):
    coeffs = [desc.rational(a) for a in ints]
    _agree(coeffs, desc)
    scaled = [x * Fraction(-3, 7) for x in coeffs]
    assert _agree(scaled, desc) == _agree(coeffs, desc)


def test_fixed_polynomials_have_the_planted_roots():
    roots = u_roots_in_tower([QQ.rational(a) for a in (0, -600, 0, 2400)], QQ)
    assert roots == [QQ.zero(), QQ.rational(Fraction(-1, 2)),
                     QQ.rational(Fraction(1, 2))]
    with pytest.raises(FieldExtensionError, match="degree 3"):
        u_roots_in_tower([QQ.rational(a) for a in (-600, 1, 0, 2400)], QQ)


def test_divisors_match_naive_listing():
    rng = random.Random(20261020)
    cases = [1, -1, 2, 600, -2400, 2 ** 19, 3 ** 7 * 5 ** 3, 99991 * 7]
    cases += [rng.randrange(1, 10 ** 6) for _ in range(30)]
    for n in cases:
        assert sorted(_divisors(n)) == [d for d in range(1, abs(n) + 1)
                                        if n % d == 0], n
    # prime factors at and past the limit
    assert sorted(_divisors(99991 ** 2)) == [1, 99991, 99991 ** 2]
    assert sorted(_divisors(-12 * 1000003)) == sorted(
        d * k for d in (1, 2, 3, 4, 6, 12) for k in (1, 1000003))


def test_divisors_refuse_a_large_unfactored_cofactor():
    for n in (1000000000000000003, 998244353 * 1000000007, -(10 ** 5 + 3) ** 2):
        with pytest.raises(FieldExtensionError, match=str(abs(n))):
            _divisors(n)
