"""A frozen copy of the plane point blow-up that took the exceptional
multiplicity from nu0 and the dicritical tag from the lowest homogeneous
parts, kept as the reference for the differential test in
test_blowup_differential.py.  Do not edit it: blowup.blowup_point2 must
build the same charts on every plane germ."""

from __future__ import annotations

from foliation_lab.blowup import PLANE_CHARTS, BlowupChart
from foliation_lab.forms import LocalDivisor, OneForm2, nu0, pullback
from foliation_lab.poly import MPoly


def dicritical_test2(form: OneForm2) -> bool:
    """Whether a point blow-up leaves the exceptional line non-invariant."""
    nu = nu0(form)
    u, v = form.vars
    An = form.A.homogeneous_part(nu)
    Bn = form.B.homogeneous_part(nu)
    uu = MPoly.variable(form.vars, u, form.desc)
    vv = MPoly.variable(form.vars, v, form.desc)
    return (uu * An + vv * Bn).is_zero()


def _divide(coeffs, exc_var, m):
    return [p.divide_var_power(exc_var, m) if not p.is_zero() else p
            for p in coeffs]


def blowup_point2(form: OneForm2, divisor: LocalDivisor, force: bool = False):
    singular = (form.A.constant_coefficient().is_zero()
                and form.B.constant_coefficient().is_zero())
    if not singular and not force:
        raise ValueError("blow-up refused at a regular point")
    nu = nu0(form)
    dicr = dicritical_test2(form)
    m = nu + 1 if dicr else nu
    charts = []
    for label, i in PLANE_CHARTS:
        exc_var = form.vars[i]
        gens = {w: MPoly.variable(form.vars, w, form.desc) for w in form.vars}
        e = gens[exc_var]
        mapping = {w: e * g if w != exc_var else g for w, g in gens.items()}
        coeffs = pullback(form.coeffs(), form.vars, mapping)
        strict = OneForm2(*_divide(coeffs, exc_var, m), form.vars,
                          form.coprime)
        charts.append(BlowupChart(label, strict, mapping, exc_var, m, dicr,
                                  divisor))
    return charts
