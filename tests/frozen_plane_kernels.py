"""Frozen copies of the plane-path code that direct kernels replaced: the
blow-up charts pulled back through forms.pullback and tagged by their
restriction to the exceptional divisor (_charts), the implicit jet
v' - s(u') composed through MPoly.substitute (_graph_branch), one
rotation per traced separatrix, each composed through forms.pullback
(_rotate_form, _trace_graph), the blow-down with a
power of (src - c dst) built per term (_pushdown_implicit) and the
Milnor number read from ranks alone (mu0).  They are the reference for
the differential tests in test_plane_kernels.py.  Do not edit them: the
code in src/ must give the same results."""

from __future__ import annotations

from foliation_lab.blowup import PLANE_CHARTS, BlowupChart
from foliation_lab.forms import (CurveJet, LocalDivisor, OneForm2, OneForm3,
                                 invariant_graph_jet, normalize2, pullback)
from foliation_lab.linalg import rank
from foliation_lab.poly import MPoly, monomials_below, multiplication_matrix


def _chart_transform(form, exc_var, scaled):
    """Chart map and the pull-back of the form by it (forms.pullback),
    before e^m is divided out."""
    gens = {w: MPoly.variable(form.vars, w, form.desc) for w in form.vars}
    e = gens[exc_var]
    mapping = {w: e * g if w in scaled else g for w, g in gens.items()}
    return mapping, pullback(form.coeffs(), form.vars, mapping)


def _divide(coeffs, exc_var, m):
    return [p.divide_var_power(exc_var, m) if not p.is_zero() else p
            for p in coeffs]


def _charts(form, divisor: LocalDivisor, layout):
    charts = []
    for label, exc_var, scaled in layout:
        mapping, coeffs = _chart_transform(form, exc_var, scaled)
        m = min((p.min_exponent_in(exc_var) for p in coeffs
                 if not p.is_zero()), default=0)
        coeffs = _divide(coeffs, exc_var, m)
        if isinstance(form, OneForm2):
            strict = OneForm2(*coeffs, form.vars, form.coprime)
        else:
            strict = OneForm3(*coeffs, variables=form.vars)
        on_exc = {exc_var: form.desc.zero()}
        dicr = any(not p.restrict(on_exc).is_zero()
                   for w, p in zip(form.vars, coeffs) if w != exc_var)
        charts.append(BlowupChart(label, strict, mapping, exc_var, m, dicr,
                                  divisor))
    return charts


def _graph_branch(cs, d_target, d_other, variables, desc, N: int):
    t = MPoly.variable(("t",), "t", desc, N + 1)
    s = MPoly(("t",), {(k + 1,): c for k, c in enumerate(cs)}, desc, N + 1)
    param = CurveJet(tuple(t.scale(a) + s.scale(b)
                           for a, b in zip(d_target, d_other)))
    inv = (d_target[0] * d_other[1] - d_target[1] * d_other[0]).inverse()
    u, v = (MPoly.variable(variables, w, desc, N + 1) for w in variables)
    # u' and v' in terms of (u, v): the rows of the inverse frame matrix
    lin1 = u.scale(d_other[1] * inv) + v.scale(-d_other[0] * inv)
    lin2 = u.scale(-d_target[1] * inv) + v.scale(d_target[0] * inv)
    return param, lin2 - s.substitute({"t": lin1})


def _rotate_form(form: OneForm2, d1, d2) -> OneForm2:
    u, v = form.vars
    gens = [MPoly.variable(form.vars, w, form.desc) for w in form.vars]
    mapping = {u: gens[0].scale(d1[0]) + gens[1].scale(d2[0]),
               v: gens[0].scale(d1[1]) + gens[1].scale(d2[1])}
    invertible = not (d1[0] * d2[1] - d1[1] * d2[0]).is_zero()
    return OneForm2(*pullback(form.coeffs(), form.vars, mapping), form.vars,
                    form.coprime and invertible)


def _trace_graph(form: OneForm2, d_target, d_other, N: int):
    rotated = normalize2(_rotate_form(form, d_target, d_other))
    if rotated.B.constant_coefficient():
        u = MPoly.variable(rotated.vars, rotated.vars[0], form.desc)
        rotated = OneForm2(rotated.A * u, rotated.B * u, rotated.vars)
    return _graph_branch(invariant_graph_jet(rotated, N, form.desc.zero()),
                         d_target, d_other, form.vars, form.desc, N)


_EXC_INDEX = dict(PLANE_CHARTS)


def _pushdown_implicit(f: MPoly, path):
    desc = f.desc
    for label, c in reversed(path):
        prec = f.prec
        e = _EXC_INDEX[label]
        src, dst = f.vars[1 - e], f.vars[e]
        d = f.degree_in(src)
        dst_p = MPoly.variable(f.vars, dst, desc, prec)
        src_p = MPoly.variable(f.vars, src, desc, prec)
        shifted = src_p - dst_p.scale(c)   # (src - c*dst)
        out = MPoly.zero(f.vars, desc, prec)
        for ex, coeff in f.coeffs.items():
            j = ex[1 - e]
            term = (shifted ** j) * MPoly.constant(f.vars, coeff, desc, prec)
            mono = [0, 0]
            mono[e] = ex[e] + d - j
            term = term * MPoly(f.vars, {tuple(mono): desc.one()}, desc, prec)
            out = out + term
        k = out.min_exponent_in(dst)
        if k:
            out = out.divide_var_power(dst, k)
        f = out
    return f


def _ideal_codim(A: MPoly, B: MPoly, d: int) -> int:
    shifts = monomials_below(2, d - min(A.order(), B.order()))
    rows, _ = multiplication_matrix((A, B), shifts, lambda E: sum(E) < d)
    return len(monomials_below(2, d)) - rank(rows)


def mu0(form: OneForm2) -> int:
    A, B = form.A, form.B
    if A.is_zero() or B.is_zero():
        raise ValueError("Milnor number needs both coefficients nonzero")
    if A.prec is None and B.prec is None:
        cap = A.degree() * B.degree() + 2
    else:
        cap = form.prec()
    prev = None
    d = 2
    while d <= cap + 1:
        cur = _ideal_codim(A, B, d)
        if prev is not None and cur == prev and cur + 1 <= d:
            return cur
        prev = cur
        d += 1
    raise ValueError("Milnor number did not stabilize; singularity is not isolated")
