"""The resultant of the index sums, by specialization of the parameter
over Q(s), against a frozen copy that runs every determinant over the
polynomials' own tower (frozen_resultant.py): the same coefficient list
over Q, Q(rt 2), Q(s) and Q(s)(rt 2), on pairs with a planted common
factor, on leading coefficients that vanish at the first points, and on
coefficients with poles there."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foliation_lab import (FieldDescriptor, LogarithmicData, linalg,
                           logarithmic_build, sum_theorem_check)
from foliation_lab.indices import _resultant_eliminating
from foliation_lab.poly import MPoly, monomials_below

import frozen_resultant
from conftest import PROJ3, Q, Q2, UV

QS = FieldDescriptor(parameter="s")
QS2 = FieldDescriptor(2, "s")

_NONZERO = sorted({Fraction(a, b) for a in range(-3, 4) if a
                   for b in (1, 2)})
_nonzero = st.sampled_from(_NONZERO)


@st.composite
def _coeff(draw, desc):
    c = desc.rational(draw(_nonzero))
    if desc.quadratic_extension and draw(st.booleans()):
        c = c + desc.rational(draw(_nonzero)) * desc.sqrt_gen()
    if desc.parameter:
        s = desc.param_gen()
        # a term in s, or over Q(s) a pole at s = 0 or s = 1, the first
        # points
        extra = draw(st.sampled_from(
            [None, s, s * s] + ([] if desc.quadratic_extension
                                else [(s - 1).inverse(), s.inverse()])))
        if extra is not None:
            c = c + desc.rational(draw(_nonzero)) * extra
    return c


@st.composite
def _poly(draw, desc, max_deg, max_terms=4):
    exps = st.sampled_from(monomials_below(2, max_deg + 1))
    terms = draw(st.dictionaries(exps, _coeff(desc), min_size=1,
                                 max_size=max_terms))
    return MPoly(UV, terms, desc)


@st.composite
def _lead(draw, desc):
    """A leading coefficient in v that may vanish at the first points:
    u = 0, 1 for the points in u, s = 0, 1 for those in s."""
    u = MPoly.variable(UV, "u", desc)
    one = MPoly.constant(UV, 1, desc)
    options = [one, u, u * (u - 1)]
    if desc.parameter:
        s = desc.param_gen()
        options += [one.scale(s * (s - 1)), u.scale(s)]
    return draw(st.sampled_from(options))


_descs = st.sampled_from([Q, Q2, QS, QS2])
# The frozen copy runs its determinants over the tower itself, and over
# Q(s)(rt 2) one pair of degree 4 can take minutes there.  So the
# parameter towers draw lower degrees: the total degree of the part
# below the leading term, and the degree in v of that term.
_DEGREE = {Q: (3, 2), Q2: (3, 2), QS: (2, 2), QS2: (1, 1)}


def _same_resultant(p, q, desc):
    new = _resultant_eliminating(p, q, "v", desc)
    old = frozen_resultant.resultant_eliminating(p, q, "v", desc)
    assert new == old, (p.render(), q.render())
    return new


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_resultant_matches_on_drawn_pairs(data):
    desc = data.draw(_descs)
    v = MPoly.variable(UV, "v", desc)
    low, top = _DEGREE[desc]
    p, q = (data.draw(_poly(desc, low))
            + data.draw(_lead(desc)) * v ** data.draw(st.integers(1, top))
            for _ in range(2))
    assume(not p.is_zero() and not q.is_zero())
    _same_resultant(p, q, desc)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_resultant_vanishes_with_a_common_factor(data):
    desc = data.draw(_descs)
    v = MPoly.variable(UV, "v", desc)
    g = data.draw(_poly(desc, 1, max_terms=2)) + v * data.draw(_lead(desc))
    assume(g.degree_in("v") >= 1)
    p = g * data.draw(_poly(desc, _DEGREE[desc][0] - 1))
    q = g * data.draw(_poly(desc, _DEGREE[desc][0] - 1))
    assert all(c.is_zero() for c in _same_resultant(p, q, desc))


def test_sum_check_runs_determinants_over_the_ground_field_only(
        monkeypatch):
    """The logarithmic germ with residues -2s, 2, 2s - 2 on X, Y and
    -X + 2Y - Z over Q(s): every determinant of its index sums runs over
    Q, none over Q(s)."""
    X, Y, Z = (MPoly.variable(PROJ3, w, QS) for w in PROJ3)
    s = QS.param_gen()
    line = -X + Y.scale(QS.rational(2)) - Z
    fol = logarithmic_build(LogarithmicData(
        (X, Y, line), (s * -2, QS.rational(2), s * 2 - 2)))
    towers = []
    det = linalg.det

    def counting(matrix, desc):
        towers.append(desc.describe())
        return det(matrix, desc)

    monkeypatch.setattr(linalg, "det", counting)
    assert sum_theorem_check(fol, X * Y * line).ok
    assert towers and set(towers) == {"Q"}
