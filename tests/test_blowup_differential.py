"""blowup_point2, built by the one chart routine blowup._charts, against
a frozen copy of the plane blow-up that read the exceptional multiplicity
from nu0 and the dicritical tag from u A_nu + v B_nu (frozen_blowup.py):
the same charts on plane germs over Q and Q(rt 2), dicritical ones
included, with and without divisor branches.

Truncated germs are drawn with precision N >= 2 nu + 2 only.  Below
that the two disagree: the pull-back by (u, u v) keeps a term
u^nu v^b of the nu-jet only while nu + b < N, so _charts can read a
larger exceptional content (or 0, when a pulled-back coefficient is zero
to its precision) where the frozen copy reads nu or nu + 1 from the
complete nu-jet.  The reduction engine blows up exact polynomials only."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_lab.blowup import blowup_point2
from foliation_lab.forms import DivisorBranch, LocalDivisor, OneForm2, nu0
from foliation_lab.poly import MPoly, monomials_below

import frozen_blowup
from conftest import Q, Q2, UV

_nonzero = st.sampled_from(sorted({Fraction(a, b) for a in range(-3, 4)
                                   if a for b in (1, 2)}))


@st.composite
def _coeff(draw, desc):
    c = desc.rational(draw(_nonzero))
    if desc.quadratic_extension and draw(st.booleans()):
        c = c + desc.rational(draw(_nonzero)) * desc.sqrt_gen()
    return c


@st.composite
def _poly(draw, desc, lo, hi, min_size=0, max_size=4):
    exps = [e for e in monomials_below(2, hi + 1) if sum(e) >= lo]
    terms = draw(st.dictionaries(st.sampled_from(exps), _coeff(desc),
                                 min_size=min_size, max_size=max_size))
    return MPoly(UV, terms, desc)


@st.composite
def _germ(draw):
    """A plane germ of multiplicity nu <= 3, dicritical about half the time
    when nu >= 1 (u A_nu + v B_nu = 0), exact or truncated at N >= 2 nu + 2,
    with up to two divisor branches."""
    desc = draw(st.sampled_from([Q, Q2]))
    nu = draw(st.integers(0, 3))
    A = draw(_poly(desc, nu, nu + 3))
    B = draw(_poly(desc, nu, nu + 3))
    if nu and draw(st.booleans()):
        h = draw(_poly(desc, nu - 1, nu - 1, min_size=1))
        u, v = (MPoly.variable(UV, w, desc) for w in UV)
        A = v * h + draw(_poly(desc, nu + 1, nu + 3))
        B = B.homogeneous_part(nu + 1) - u * h
    if A.is_zero() and B.is_zero():
        A = MPoly.variable(UV, "v", desc) ** max(nu, 1)
    form = OneForm2(A, B, UV, draw(st.booleans()))
    if draw(st.booleans()):
        N = 2 * nu0(form) + 2 + draw(st.integers(0, 2))
        form = OneForm2(A.truncate(N), B.truncate(N), UV, form.coprime)
    divisor = LocalDivisor([
        DivisorBranch(draw(_poly(desc, draw(st.integers(0, 1)), 3,
                                 min_size=1, max_size=3)),
                      draw(st.booleans()))
        for _ in range(draw(st.integers(0, 2)))])
    return form, divisor


def _chart_data(ch):
    return (ch.label, ch.mult, ch.dicritical, ch.form.A, ch.form.B,
            ch.form.coprime, ch.survivors,
            [(b.equation, b.dicritical) for b in ch.divisor])


@settings(max_examples=200, deadline=None)
@given(_germ())
def test_blowup_point2_matches_the_frozen_plane_blowup(germ):
    form, divisor = germ
    new = [_chart_data(ch) for ch in blowup_point2(form, divisor, force=True)]
    old = [_chart_data(ch)
           for ch in frozen_blowup.blowup_point2(form, divisor, force=True)]
    assert new == old, repr(form)
