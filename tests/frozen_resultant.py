"""A frozen copy of the resultant by evaluation in u and Lagrange
interpolation, with every determinant over the polynomials' own tower,
kept as the reference for the differential test in
test_resultant_differential.py.  Do not edit it:
indices._resultant_eliminating must return the same coefficient list on
every pair of exact bivariate polynomials."""

from __future__ import annotations

from foliation_lab.poly import MPoly, to_univariate, u_resultant


def resultant_eliminating(p: MPoly, q: MPoly, var: str, desc):
    other = [w for w in p.vars if w != var][0]
    bound = p.degree() * q.degree() + 1
    pts = []
    vals = []
    x = 0
    while len(pts) < bound:
        t = desc.rational(x)
        x += 1
        pa = to_univariate(p.restrict({other: t}), var)
        pb = to_univariate(q.restrict({other: t}), var)
        if len(pa) - 1 < p.degree_in(var) or len(pb) - 1 < q.degree_in(var):
            continue
        pts.append(t)
        vals.append(u_resultant(pa, pb, desc))
    coeffs = [desc.zero()] * bound
    for i, t in enumerate(pts):
        num = [desc.one()]
        denom = desc.one()
        for j, s in enumerate(pts):
            if j == i:
                continue
            new = [desc.zero()] * (len(num) + 1)
            for k, ck in enumerate(num):
                new[k] = new[k] - ck * s
                new[k + 1] = new[k + 1] + ck
            num = new
            denom = denom * (t - s)
        w = vals[i] / denom
        for k, ck in enumerate(num):
            coeffs[k] = coeffs[k] + ck * w
    return coeffs
