"""A frozen copy of the bivariate gcd by pseudo-remainder sequences, kept
as the reference for the differential test in test_gcd_differential.py.
Do not edit it: poly.gcd_bivariate must return the same polynomial on
every pair of exact bivariate polynomials."""

from __future__ import annotations

from foliation_lab.fields import FieldError
from foliation_lab.poly import MPoly, to_univariate, u_divmod, u_gcd


def gcd_bivariate(p: MPoly, q: MPoly) -> MPoly:
    if p.prec is not None or q.prec is not None:
        raise ValueError("gcd of series is not supported")
    if p.is_zero():
        return _normalize_lead(q)
    if q.is_zero():
        return _normalize_lead(p)
    a = _to_recursive(p)
    b = _to_recursive(q)
    g = _rec_gcd(a, b, p.vars, p.desc)
    return _normalize_lead(_from_recursive(g, p.vars, p.desc))


def _to_recursive(p: MPoly):
    out = {}
    for (eu, ev), c in p.coeffs.items():
        out.setdefault(ev, {})[(eu, 0)] = c
    return {k: MPoly(p.vars, d, p.desc) for k, d in out.items()}


def _from_recursive(d, vars, desc):
    total = MPoly.zero(vars, desc)
    v = MPoly.variable(vars, vars[1], desc)
    for k in sorted(d):
        total = total + d[k] * v ** k
    return total


def _rec_content(d, vars, desc):
    g = None
    for k in sorted(d):
        cu = to_univariate(d[k], vars[0])
        g = cu if g is None else u_gcd(g, cu, desc)
        if len(g) == 1:
            break
    return g


def _rec_primitive(d, vars, desc, content):
    if len(content) == 1:
        inv = content[0].inverse()
        return {k: p.scale(inv) for k, p in d.items()}
    out = {}
    for k, p in d.items():
        q, r = u_divmod(to_univariate(p, vars[0]), content, desc)
        if r:
            raise FieldError("content division left a remainder")
        out[k] = MPoly(vars, {(i, 0): c for i, c in enumerate(q)
                              if not c.is_zero()}, desc)
    return out


def _rec_deg(d):
    return max(d) if d else -1


def _rec_gcd(a, b, vars, desc):
    ca = _rec_content(a, vars, desc)
    cb = _rec_content(b, vars, desc)
    cg = u_gcd(ca, cb, desc)
    a = _rec_primitive(a, vars, desc, ca)
    b = _rec_primitive(b, vars, desc, cb)
    while b:
        if _rec_deg(a) < _rec_deg(b):
            a, b = b, a
            continue
        r = _rec_prem(a, b, vars, desc)
        a, b = b, r
        if b:
            cb2 = _rec_content(b, vars, desc)
            b = _rec_primitive(b, vars, desc, cb2)
    cgpoly = MPoly(vars, {(i, 0): c for i, c in enumerate(cg)}, desc)
    return {k: p * cgpoly for k, p in a.items()}


def _rec_prem(a, b, vars, desc):
    a = dict(a)
    db = _rec_deg(b)
    lb = b[db]
    while a and _rec_deg(a) >= db:
        da = _rec_deg(a)
        la = a[da]
        a = {k: p * lb for k, p in a.items()}
        for k, p in b.items():
            shift = k + da - db
            term = p * la
            a[shift] = a.get(shift, MPoly.zero(vars, desc)) - term
        a = {k: p for k, p in a.items() if not p.is_zero()}
        if _rec_deg(a) == da:
            a.pop(da, None)
    return a


def _normalize_lead(p: MPoly) -> MPoly:
    if p.is_zero():
        return p
    lead = max(p.coeffs)
    return p.scale(p.coeffs[lead].inverse())
