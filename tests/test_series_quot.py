"""Division by a unit series one degree at a time
(threefold._series_quot) against exact division by a linear solve
(poly.exact_divide) of the operands truncated at N: the same
coefficients and the same precision."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_lab import FieldDescriptor
from foliation_lab.poly import MPoly, exact_divide, monomials_below
from foliation_lab.threefold import _series_quot

from conftest import Q, Q2, XYZ

QS = FieldDescriptor(parameter="s")

_NONZERO = sorted({Fraction(a, b) for a in range(-5, 6) if a
                   for b in (1, 2, 3)})
_nonzero = st.sampled_from(_NONZERO)
_small = st.just(Fraction(0)) | _nonzero


@st.composite
def _coeff(draw, desc):
    c = desc.rational(draw(_nonzero))
    gen = (desc.sqrt_gen() if desc.quadratic_extension
           else desc.param_gen() if desc.parameter else None)
    if gen is not None and draw(st.booleans()):
        c = c + desc.rational(draw(_small)) * gen
    return c


@st.composite
def _series(draw, desc, min_order, prec):
    exps = st.sampled_from([e for e in monomials_below(3, 5)
                            if sum(e) >= min_order])
    terms = draw(st.dictionaries(exps, _coeff(desc), max_size=6))
    return MPoly(XYZ, terms, desc, prec)


_precs = st.none() | st.integers(1, 7)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_series_quot_matches_exact_divide(data):
    desc = data.draw(st.sampled_from([Q, Q2, QS]))
    N = data.draw(st.integers(1, 6))
    p = data.draw(_series(desc, 0, data.draw(_precs)))
    q = data.draw(_series(desc, 1, data.draw(_precs)))
    q = q + MPoly.constant(XYZ, data.draw(_coeff(desc)), desc)
    got = _series_quot(p, q, N)
    want = exact_divide(p.truncate(N), q.truncate(N))
    assert (got.coeffs, got.prec) == (want.coeffs, want.prec)
    assert got.prec == min([N] + [s.prec for s in (p, q)
                                  if s.prec is not None])
