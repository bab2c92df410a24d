"""Exact division, the Milnor number and the cylinder candidate read one
multiplication matrix (poly.multiplication_matrix).  Each is checked
against a frozen copy of the hand-built system it replaced
(frozen_monomial_systems.py): the same quotient and precision, or None
for both; the same Milnor number or the same error; the same constant
part of the cylinder field."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_lab import FieldDescriptor, linalg
from foliation_lab.fields import FieldElement
from foliation_lab.forms import OneForm2, OneForm3, mu0
from foliation_lab.poly import (MPoly, exact_divide, monomials_below,
                                multiplication_matrix)
from foliation_lab.threefold import _cylinder_candidate

import frozen_monomial_systems as frozen
from conftest import Q, Q2, UV, XYZ, dressed_cusp_cylinder

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
def _poly(draw, desc, vars_, max_deg, min_order=0, max_terms=5,
          prec=None, min_terms=0):
    exps = st.sampled_from([e for e in monomials_below(len(vars_),
                                                        max_deg + 1)
                            if sum(e) >= min_order])
    terms = draw(st.dictionaries(exps, _coeff(desc), min_size=min_terms,
                                 max_size=max_terms))
    return MPoly(vars_, terms, desc, prec)


_descs = st.sampled_from([Q, Q2, QS])
_precs = st.none() | st.integers(1, 7)


def _same(new, old):
    if new is None or old is None:
        return new is None and old is None
    return (new.vars, new.coeffs, new.prec) == (old.vars, old.coeffs,
                                                 old.prec)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return (type(exc), str(exc))


def test_monomials_below_is_lexicographic_and_bounded():
    assert monomials_below(2, 3) == [(0, 0), (0, 1), (0, 2), (1, 0),
                                     (1, 1), (2, 0)]
    assert monomials_below(3, 0) == [] and monomials_below(2, 1) == [(0, 0)]
    for n, d in ((2, 5), (3, 4)):
        assert monomials_below(n, d) == frozen._monomials_below(n, d)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_divide_agrees_on_products(data):
    """p = q r, exact or truncated, sometimes with one term added; q may
    have positive order."""
    desc = data.draw(_descs)
    vars_ = data.draw(st.sampled_from([UV, XYZ]))
    q = data.draw(_poly(desc, vars_, 3, data.draw(st.integers(0, 2)),
                        prec=data.draw(_precs), min_terms=1))
    r = data.draw(_poly(desc, vars_, 3, prec=data.draw(_precs)))
    p = q * r
    if data.draw(st.booleans()):
        p = p + data.draw(_poly(desc, vars_, 4, max_terms=1))
    if q.is_zero():  # every term was past the precision
        return
    assert _same(exact_divide(p, q), frozen.exact_divide(p, q))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_divide_agrees_on_arbitrary_pairs(data):
    """Mostly quotients that do not exist."""
    desc = data.draw(_descs)
    vars_ = data.draw(st.sampled_from([UV, XYZ]))
    p = data.draw(_poly(desc, vars_, 4, prec=data.draw(_precs)))
    q = data.draw(_poly(desc, vars_, 3, data.draw(st.integers(0, 2)),
                        max_terms=3, prec=data.draw(_precs), min_terms=1))
    if q.is_zero():  # every term was past the precision
        return
    assert _same(exact_divide(p, q), frozen.exact_divide(p, q))


def test_unreached_exponent_of_p_fails_without_a_solve(monkeypatch):
    """An exponent of p that no product reaches is a row 0 = p_E != 0."""
    u = MPoly.variable(UV, "u", Q)
    v = MPoly.variable(UV, "v", Q)
    one = MPoly.constant(UV, 1, Q)
    cases = [(u * u + v, u * u),                            # exact box
             ((one + u + u * v).truncate(4), u.truncate(4))]  # series
    solves = []
    original = linalg.solve
    monkeypatch.setattr(linalg, "solve",
                        lambda *a: solves.append(1) or original(*a))
    for p, q in cases:
        assert frozen.exact_divide(p, q) is None
        solves.clear()
        assert exact_divide(p, q) is None
        assert solves == []


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mu0_agrees_on_plane_germs(data):
    """Isolated and non-isolated singular germs, exact or truncated.  Not
    over Q(s): a non-isolated germ there runs its rank to the Bezout cap
    in rational functions of s, up to tens of seconds per test."""
    desc = data.draw(st.sampled_from([Q, Q2]))
    prec = data.draw(st.none() | st.integers(3, 7))
    # a common factor h makes the germ non-isolated, and mu0 then runs to
    # its Bezout cap deg A * deg B + 2: degrees stay at 3 either way
    common = data.draw(st.booleans())
    deg = 2 if common else 3
    A = data.draw(_poly(desc, UV, deg, 1, max_terms=4, prec=prec,
                        min_terms=1))
    B = data.draw(_poly(desc, UV, deg, 1, max_terms=4, prec=prec,
                        min_terms=1))
    if common:
        h = data.draw(_poly(desc, UV, 1, 1, max_terms=2, min_terms=1))
        A, B = A * h, B * h
    else:
        # pure powers u^a in A and v^b in B make most germs isolated
        a, b = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        A = A + MPoly(UV, {(a, 0): data.draw(_coeff(desc))}, desc)
        B = B + MPoly(UV, {(0, b): data.draw(_coeff(desc))}, desc)
    if A.is_zero() or B.is_zero():  # cancelled, or past the precision
        return
    form = OneForm2(A, B, UV)
    assert _outcome(mu0, form) == _outcome(frozen.mu0, form)


@st.composite
def _three_forms(draw):
    """A cylinder over a plane form along a coordinate axis, or a form in
    all three variables, whose linear part may force X(0) = 0."""
    desc = draw(_descs)
    kind = draw(st.sampled_from(["cylinder", "free", "linear"]))
    if kind == "cylinder":
        axis = draw(st.integers(0, 2))
        coeffs = []
        for k in range(3):
            if k == axis:
                coeffs.append(MPoly.zero(XYZ, desc))
                continue
            c = draw(_poly(desc, ("a", "b"), 3, 1, max_terms=4))
            coeffs.append(MPoly(XYZ, {_embed(e, axis): x
                                      for e, x in c.coeffs.items()}, desc))
    else:
        coeffs = [draw(_poly(desc, XYZ, 3, 1, max_terms=4))
                  for _ in range(3)]
        if kind == "linear":
            coeffs = [c + MPoly(XYZ, {tuple(int(j == k) for j in range(3)):
                                      draw(_coeff(desc))}, desc)
                      for k, c in enumerate(coeffs)]
    return OneForm3(*coeffs, XYZ)


def _embed(e, axis):
    e = list(e)
    e.insert(axis, 0)
    return tuple(e)


@settings(max_examples=100, deadline=None)
@given(_three_forms(), st.integers(2, 5))
def test_cylinder_candidate_agrees_on_three_forms(form, order):
    assert (_cylinder_candidate(form, order)
            == frozen._cylinder_candidate(form, order))


def test_cylinder_candidate_finds_the_axis_of_a_cylinder():
    # d(y^2 - x^3) is a cylinder along z
    A = MPoly(XYZ, {(2, 0, 0): Fraction(-3)}, Q)
    B = MPoly(XYZ, {(0, 1, 0): 2}, Q)
    form = OneForm3(A, B, MPoly.zero(XYZ, Q), XYZ)
    for order in (4, 6):
        v = _cylinder_candidate(form, order)
        assert v == frozen._cylinder_candidate(form, order)
        assert v[0].is_zero() and v[1].is_zero() and not v[2].is_zero()


# ---------------------------------------------------------------------------
# operation counts of the sparse rows


def _cylinder_system(form, order):
    monos = sorted(monomials_below(3, order), key=lambda e: (sum(e), e))
    rows, _ = multiplication_matrix(form.coeffs(), monos,
                                    lambda E: sum(E) <= order)
    return rows, 3 * len(monos)


def test_multiplication_matrix_rows_hold_no_zero():
    form = dressed_cusp_cylinder()
    for order in (4, 6):
        rows, ncols = _cylinder_system(form, order)
        assert all(isinstance(row, dict) for row in rows)
        assert all(x for row in rows for x in row.values())
        assert all(0 <= j < ncols for row in rows for j in row)
    p = MPoly(UV, {(3, 1): Q.one(), (0, 2): Q.rational(2)}, Q)
    rows, _ = multiplication_matrix([p], monomials_below(2, 3),
                                    lambda E: True)
    assert sum(len(row) for row in rows) == 2 * len(monomials_below(2, 3))


def test_nullspace_negates_only_nonzero_entries(monkeypatch):
    """On the order-6 cylinder system (71 pivots, 97 free columns) the
    basis is built from the nonzero entries of the reduced rows, each
    negated once: 61 negations, where the dense loop made one for every
    (pivot, free column) pair, 71 * 97 = 6887.  Elimination adds one per
    updated row; those are not counted here."""
    negations = []
    inside = []
    neg, echelon = FieldElement.__neg__, linalg._echelon

    def counting_neg(x):
        if not inside:
            negations.append(1)
        return neg(x)

    def quiet_echelon(*args):
        inside.append(1)
        try:
            return echelon(*args)
        finally:
            inside.pop()

    form = dressed_cusp_cylinder()
    rows, ncols = _cylinder_system(form, 6)
    basis = linalg.nullspace(rows, ncols, Q)
    monkeypatch.setattr(FieldElement, "__neg__", counting_neg)
    monkeypatch.setattr(linalg, "_echelon", quiet_echelon)
    v = _cylinder_candidate(form, 6)
    assert [x.is_zero() for x in v] == [True, True, False]
    assert len(basis) == 97
    assert len(negations) == sum(sum(1 for x in b if x) - 1
                                 for b in basis) == 61
