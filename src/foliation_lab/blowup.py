"""Blow-up charts and transforms of 1-forms and divisors.

Point blow-ups in dimension two use the two standard monomial charts
(u, v) -> (u, u v) and (u, v) -> (u v, v); dimension three adds the three
point charts and blow-ups along coordinate axes.  One routine, _charts,
builds every chart in two and three variables: it pulls the form back by
the chart map, takes the exceptional multiplicity m as the exceptional
content of the pull-back (the least power of the exceptional variable e
over its coefficients), divides e^m out, and tags the chart dicritical
when {e = 0} is not invariant by the strict transform.  The chart map is
monomial, so the pull-back is not composed through forms.pullback: each
term moves to its image exponent (_chart_transform), with the same
coefficients and precisions, and the tag is read off the exponents of
e.  Each chart carries its map, the strict transform of the form, the
transformed divisor with the new exceptional branch appended, m and the
tag.
"""

from __future__ import annotations

from .forms import (
    DivisorBranch,
    LocalDivisor,
    OneForm2,
    OneForm3,
)
from .poly import MPoly

# The two charts of a plane point blow-up: label and the index of the
# exceptional variable in the form's variables; the other one is scaled.
PLANE_CHARTS = (("c1", 0), ("c2", 1))


class BlowupChart:
    """One monomial chart of a blow-up with its transformed data.

    A chart is fixed by its exceptional variable e, the variables it
    scales and the variables it keeps: its map sends e to e, each scaled
    w to e*w and each kept variable to itself, so {e = 0} is the
    exceptional divisor.  Labels:

    - blowup_point2: "c1" (e = u, v scaled) and "c2" (e = v, u scaled),
      as listed in PLANE_CHARTS;
    - blowup_point3: "c<e>" for each variable e, the other two scaled;
    - blowup_curve3 along the axis of `axis`: "a<e>" for each of the two
      other variables e, the remaining one scaled and `axis` kept.

    `mapping` is the exact chart map (variable -> image), by which
    `strict` transforms the branch equations (the form is moved term by
    term, see _chart_transform), and `exc_var` is e.  Every chart comes
    from _charts: `mult` is the exceptional content m of the pull-back,
    the least power of e over its coefficients, and `form` is the
    pull-back with e^m divided out; `dicritical` means {e = 0} is not
    invariant by `form`, i.e. some coefficient other than that of de is
    nonzero there.
    `divisor` holds the strict transforms of the input branches that meet
    the exceptional divisor in this chart, at its origin or elsewhere,
    followed by the exceptional branch; `survivors` are the indices of
    those input branches, in input order.  Consumers keep the branches
    through the point they look at.
    """

    __slots__ = ("label", "form", "mapping", "exc_var", "mult", "dicritical",
                 "exceptional", "divisor", "survivors")

    def __init__(self, label, form, mapping, exc_var, mult, dicritical,
                 divisor):
        self.label = label
        self.form = form
        self.mapping = mapping
        self.exc_var = exc_var
        self.mult = mult
        self.dicritical = dicritical
        self.exceptional = DivisorBranch(
            MPoly.variable(form.vars, exc_var, form.desc), dicritical)
        self.divisor, self.survivors = _transform_divisor(self, divisor)

    def strict(self, eq: MPoly):
        """Strict transform of a branch equation; None when it vanishes or
        misses the exceptional divisor in this chart (its restriction to
        {e = 0} is a nonzero constant)."""
        total = eq.substitute(self.mapping)
        if total.is_zero():
            return None
        strict = total.divide_var_power(
            self.exc_var, total.min_exponent_in(self.exc_var))
        trace = strict.restrict({self.exc_var: strict.desc.zero()})
        if trace.degree() == 0:
            return None
        return strict

    def __repr__(self):
        return "BlowupChart(%s, m=%d, %s)" % (
            self.label, self.mult, "dicritical" if self.dicritical else "invariant",
        )


def _transform_divisor(chart: BlowupChart, divisor):
    branches = []
    survivors = []
    for i, b in enumerate(divisor):
        strict = chart.strict(b.equation)
        if strict is not None:
            branches.append(DivisorBranch(strict, b.dicritical))
            survivors.append(i)
    branches.append(chart.exceptional)
    return LocalDivisor(branches), tuple(survivors)


def _chart_transform(form, exc_var, scaled):
    """Chart map and the pull-back of the form by it, before e^m is
    divided out.

    The map is monomial, so the pull-back moves exponents: a term of a
    coefficient c_w goes to its image in c_w(phi), whose exponent of e
    gains the exponents of the scaled variables.  The de coefficient is
    c_e(phi) plus w c_w(phi) for each scaled w, the dw coefficient of a
    scaled w is e c_w(phi), and that of a kept variable is c_w(phi).  As
    in forms.pullback, each coefficient has the lowest precision among
    the c_w that enter it and drops the terms of degree at or past it.
    """
    variables, desc = form.vars, form.desc
    gens = {w: MPoly.variable(variables, w, desc) for w in variables}
    e = gens[exc_var]
    mapping = {w: e * g if w in scaled else g for w, g in gens.items()}
    k = variables.index(exc_var)
    moved = [i for i, w in enumerate(variables) if w in scaled]
    coeffs = form.coeffs()
    terms = [{} for _ in variables]
    precs = [None] * len(variables)
    for i, p in enumerate(coeffs):
        # (j, r): c_i(phi) enters the coefficient of d variables[j] times
        # the Jacobian entry, the variable of index r or, for r None, 1
        targets = [(k, i), (i, k)] if i in moved else [(i, None)]
        for j, _ in targets:
            precs[j] = MPoly._join_prec(precs[j], p.prec)
        for ex, c in p.coeffs.items():
            image = list(ex)
            image[k] += sum(ex[w] for w in moved)
            for j, r in targets:
                ne = list(image)
                if r is not None:
                    ne[r] += 1
                ne = tuple(ne)
                out = terms[j]
                out[ne] = out[ne] + c if ne in out else c
    return mapping, [p._make(t, prec)
                     for p, t, prec in zip(coeffs, terms, precs)]


def _divide(coeffs, exc_var, m):
    return [p.divide_var_power(exc_var, m) if not p.is_zero() else p
            for p in coeffs]


def _charts(form, divisor: LocalDivisor, layout):
    """The charts (label, exc_var, scaled) of a blow-up of a form in two or
    three variables; see the module docstring.  On a truncated series, m
    and the tag are read from the terms the pull-back keeps, which hold
    the whole nu-jet of a plane germ only at precision >= 2 nu + 2."""
    charts = []
    for label, exc_var, scaled in layout:
        mapping, coeffs = _chart_transform(form, exc_var, scaled)
        m = min((p.min_exponent_in(exc_var) for p in coeffs
                 if not p.is_zero()), default=0)
        coeffs = _divide(coeffs, exc_var, m)
        if isinstance(form, OneForm2):
            # A chart is an isomorphism off the exceptional line, so a common
            # factor of coprime A, B pulls back to powers of exc_var, now gone.
            strict = OneForm2(*coeffs, form.vars, form.coprime)
        else:
            strict = OneForm3(*coeffs, variables=form.vars)
        # a coefficient is nonzero on {e = 0} when a term is free of e
        k = form.vars.index(exc_var)
        dicr = any(not ex[k] for w, p in zip(form.vars, coeffs)
                   if w != exc_var for ex in p.coeffs)
        charts.append(BlowupChart(label, strict, mapping, exc_var, m, dicr,
                                  divisor))
    return charts


def blowup_point2(form: OneForm2, divisor: LocalDivisor, force: bool = False):
    """Blow up the origin of the plane; returns the two charts.

    Regular points are refused unless `force` is set (the reduction
    engine needs them for tangency points on dicritical components).
    """
    singular = (form.A.constant_coefficient().is_zero()
                and form.B.constant_coefficient().is_zero())
    if not singular and not force:
        raise ValueError("blow-up refused at a regular point")
    return _charts(form, divisor, [
        (label, form.vars[i], (form.vars[1 - i],))
        for label, i in PLANE_CHARTS])


def blowup_point3(form: OneForm3, divisor: LocalDivisor):
    """Blow up the origin of 3-space; returns the three charts."""
    if not all(p.constant_coefficient().is_zero() for p in form.coeffs()):
        raise ValueError("blow-up refused at a regular point")
    return _charts(form, divisor, [
        ("c" + e, e, tuple(w for w in form.vars if w != e))
        for e in form.vars])


def blowup_curve3(form: OneForm3, axis: str, divisor: LocalDivisor):
    """Blow up along a coordinate axis (the axis of `axis`); two charts."""
    if axis not in form.vars:
        raise ValueError("unknown axis %r" % (axis,))
    desc = form.desc
    a, b = [w for w in form.vars if w != axis]
    tvar = ("t",)
    t = MPoly.variable(tvar, "t", desc)
    zt = MPoly.zero(tvar, desc)
    axis_curve = {w: (t if w == axis else zt) for w in form.vars}
    for p in form.coeffs():
        if not p.substitute(axis_curve).is_zero():
            raise ValueError("center is not contained in the singular locus")
    for br in divisor:
        restr = br.equation.substitute(axis_curve)
        if not restr.is_zero() and restr.order() > 1:
            raise ValueError("center is not normal crossings with the divisor")
    return _charts(form, divisor, (("a" + a, a, (b,)), ("a" + b, b, (a,))))
