"""Blow-up charts and transforms of 1-forms and divisors.

Point blow-ups in dimension two use the two standard monomial charts
(u, v) -> (u, u v) and (u, v) -> (u v, v); dimension three adds the three
point charts and blow-ups along coordinate axes.  Each chart carries the
strict transform of the form (exceptional factor divided out), the
transformed divisor with the new exceptional branch appended, and the
extracted exceptional multiplicity.
"""

from __future__ import annotations

from .forms import (
    DivisorBranch,
    LocalDivisor,
    OneForm2,
    OneForm3,
    nu0,
)
from .poly import MPoly, vanishing_order


class BlowupChart:
    """One monomial chart of a blow-up with its transformed data."""

    __slots__ = ("label", "form", "divisor", "exceptional", "mult", "dicritical")

    def __init__(self, label, form, divisor, exceptional, mult, dicritical):
        self.label = label
        self.form = form
        self.divisor = divisor
        self.exceptional = exceptional
        self.mult = mult
        self.dicritical = dicritical

    def __repr__(self):
        return "BlowupChart(%s, m=%d, %s)" % (
            self.label, self.mult, "dicritical" if self.dicritical else "invariant",
        )


def dicritical_test2(form: OneForm2) -> bool:
    """Whether a point blow-up leaves the exceptional line non-invariant."""
    nu = nu0(form)
    u, v = form.vars
    An = form.A.homogeneous_part(nu)
    Bn = form.B.homogeneous_part(nu)
    uu = MPoly.variable(form.vars, u, form.desc)
    vv = MPoly.variable(form.vars, v, form.desc)
    return (uu * An + vv * Bn).is_zero()


def _strict_branch(eq: MPoly, mapping, exc_var: str):
    """Strict transform of a branch equation; None when it leaves the chart."""
    total = eq.substitute(mapping)
    if total.is_zero():
        return None
    k = total.min_exponent_in(exc_var)
    strict = total.divide_var_power(exc_var, k) if k else total
    if strict.degree() == 0 and strict.prec is None:
        return None
    if not strict.constant_coefficient().is_zero():
        return None
    return strict


def _transform_divisor(divisor, mapping, exc_var, exc_branch):
    branches = []
    for b in divisor:
        strict = _strict_branch(b.equation, mapping, exc_var)
        if strict is not None:
            branches.append(DivisorBranch(strict, b.dicritical))
    branches.append(exc_branch)
    return LocalDivisor(branches)


def blowup_point2(form: OneForm2, divisor: LocalDivisor, force: bool = False):
    """Blow up the origin of the plane; returns the two charts.

    Regular points are refused unless `force` is set (the reduction
    engine needs them for tangency points on dicritical components).
    """
    desc = form.desc
    zero = {w: desc.zero() for w in form.vars}
    singular = form.A.evaluate(zero).is_zero() and form.B.evaluate(zero).is_zero()
    if not singular and not force:
        raise ValueError("blow-up refused at a regular point")
    nu = nu0(form)
    dicr = dicritical_test2(form)
    m = nu + 1 if dicr else nu
    u, v = form.vars
    uu = MPoly.variable(form.vars, u, desc, form.A.prec)
    vv = MPoly.variable(form.vars, v, desc, form.A.prec)
    charts = []
    for label, mapping, exc_var in (
        ("c1", {u: uu, v: uu * vv}, u),
        ("c2", {u: uu * vv, v: vv}, v),
    ):
        A = form.A.substitute(mapping)
        B = form.B.substitute(mapping)
        if label == "c1":
            # d(uv) = v du + u dv
            nA = A + vv * B
            nB = uu * B
        else:
            nA = vv * A
            nB = uu * A + B
        nA = nA.divide_var_power(exc_var, m) if not nA.is_zero() else nA
        nB = nB.divide_var_power(exc_var, m) if not nB.is_zero() else nB
        # A chart is an isomorphism off the exceptional line, so a common
        # factor of coprime A, B pulls back to powers of exc_var, now gone.
        strict = OneForm2(nA, nB, form.vars, form.coprime)
        exc = DivisorBranch(MPoly.variable(form.vars, exc_var, desc), dicr)
        charts.append(BlowupChart(
            label, strict,
            _transform_divisor(divisor, mapping, exc_var, exc),
            exc, m, dicr,
        ))
    return charts


def _exc_content3(coeffs, exc_var):
    k = None
    for p in coeffs:
        if p.is_zero():
            continue
        e = p.min_exponent_in(exc_var)
        k = e if k is None else min(k, e)
    return k or 0


def _plane_invariant(form: OneForm3, exc_var: str) -> bool:
    """Whether the coordinate plane {exc_var = 0} is invariant."""
    idx = form.vars.index(exc_var)
    others = [p for i, p in enumerate(form.coeffs()) if i != idx]
    fixed = {exc_var: form.desc.zero()}
    return all(p.restrict(fixed).is_zero() for p in others)


def blowup_point3(form: OneForm3, divisor: LocalDivisor):
    """Blow up the origin of 3-space; returns the three charts."""
    desc = form.desc
    zero = {w: desc.zero() for w in form.vars}
    if not all(p.evaluate(zero).is_zero() for p in form.coeffs()):
        raise ValueError("blow-up refused at a regular point")
    x, y, z = form.vars
    prec = form.prec()
    gens = {w: MPoly.variable(form.vars, w, desc, prec) for w in form.vars}
    charts = []
    for exc_var in form.vars:
        others = [w for w in form.vars if w != exc_var]
        mapping = {exc_var: gens[exc_var]}
        for w in others:
            mapping[w] = gens[exc_var] * gens[w]
        imgs = {w: form.coeffs()[form.vars.index(w)].substitute(mapping)
                for w in form.vars}
        # d(e*w) = w de + e dw for the two scaled variables
        new = {}
        new[exc_var] = imgs[exc_var] + sum(
            (gens[w] * imgs[w] for w in others), MPoly.zero(form.vars, desc, prec))
        for w in others:
            new[w] = gens[exc_var] * imgs[w]
        m = _exc_content3(list(new.values()), exc_var)
        for w in form.vars:
            if not new[w].is_zero():
                new[w] = new[w].divide_var_power(exc_var, m)
        strict = OneForm3(new[x], new[y], new[z], form.vars)
        dicr = not _plane_invariant(strict, exc_var)
        exc = DivisorBranch(MPoly.variable(form.vars, exc_var, desc), dicr)
        charts.append(BlowupChart(
            "c%s" % exc_var, strict,
            _transform_divisor(divisor, mapping, exc_var, exc),
            exc, m, dicr,
        ))
    return charts


def blowup_curve3(form: OneForm3, axis: str, divisor: LocalDivisor):
    """Blow up along a coordinate axis (the axis of `axis`); two charts."""
    if axis not in form.vars:
        raise ValueError("unknown axis %r" % (axis,))
    desc = form.desc
    kept = axis
    a, b = [w for w in form.vars if w != axis]
    tvar = ("t",)
    t = MPoly.variable(tvar, "t", desc)
    zt = MPoly.zero(tvar, desc)
    axis_curve = {w: (t if w == kept else zt) for w in form.vars}
    for p in form.coeffs():
        if not p.substitute({w: axis_curve[w] for w in form.vars}).is_zero():
            raise ValueError("center is not contained in the singular locus")
    for br in divisor:
        restr = br.equation.substitute({w: axis_curve[w] for w in form.vars})
        if not restr.is_zero() and vanishing_order(restr) > 1:
            raise ValueError("center is not normal crossings with the divisor")
    prec = form.prec()
    gens = {w: MPoly.variable(form.vars, w, desc, prec) for w in form.vars}
    charts = []
    for exc_var, scaled in ((a, b), (b, a)):
        mapping = {kept: gens[kept], exc_var: gens[exc_var],
                   scaled: gens[exc_var] * gens[scaled]}
        imgs = {w: form.coeffs()[form.vars.index(w)].substitute(mapping)
                for w in form.vars}
        new = {
            kept: imgs[kept],
            exc_var: imgs[exc_var] + gens[scaled] * imgs[scaled],
            scaled: gens[exc_var] * imgs[scaled],
        }
        m = _exc_content3(list(new.values()), exc_var)
        for w in form.vars:
            if not new[w].is_zero():
                new[w] = new[w].divide_var_power(exc_var, m)
        strict = OneForm3(*(new[w] for w in form.vars), variables=form.vars)
        dicr = not _plane_invariant(strict, exc_var)
        exc = DivisorBranch(MPoly.variable(form.vars, exc_var, desc), dicr)
        charts.append(BlowupChart(
            "a%s" % exc_var, strict,
            _transform_divisor(divisor, mapping, exc_var, exc),
            exc, m, dicr,
        ))
    return charts
