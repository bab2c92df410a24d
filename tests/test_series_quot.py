"""Division by a unit series degree by degree, now done by
poly.exact_divide, against the two loops it replaced
(frozen_series.py): threefold._series_quot on the operands truncated at
N gives the same coefficients and the same precision, and the residue
of n(t)/m(t) is the one read from the reciprocal of m / t^r
(indices._u_inverse)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_lab import FieldDescriptor
from foliation_lab.indices import _residue
from foliation_lab.poly import MPoly, exact_divide, monomials_below

import frozen_series as frozen
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
    want = frozen._series_quot(p, q, N)
    got = exact_divide(p.truncate(N), q.truncate(N))
    assert (got.coeffs, got.prec) == (want.coeffs, want.prec)
    assert got.prec == min([N] + [s.prec for s in (p, q)
                                  if s.prec is not None])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_residue_matches_the_frozen_reciprocal(data):
    """n(t)/m(t) with m of order r >= 1, known through t^N, N >= 2r - 1:
    the residue is sum_{j<r} n_j [t^(r-1-j)] (t^r / m)."""
    desc = data.draw(st.sampled_from([Q, Q2, QS]))
    r = data.draw(st.integers(1, 4))
    N = data.draw(st.integers(2 * r - 1, 2 * r + 2))
    zero = desc.zero()
    m = [zero] * r + data.draw(st.lists(st.just(zero) | _coeff(desc),
                                        min_size=N + 1 - r,
                                        max_size=N + 1 - r))
    m[r] = data.draw(_coeff(desc))
    n = data.draw(st.lists(st.just(zero) | _coeff(desc), max_size=N + 1))
    inv = frozen._u_inverse(m[r:], r)
    want = zero
    for j in range(min(r, len(n))):
        want = want + n[j] * inv[r - 1 - j]
    assert _residue(n, m, desc) == want
