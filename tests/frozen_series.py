"""Frozen copies of the two unit-division loops that poly.exact_divide
replaced: threefold._series_quot (a series divided by a unit series) and
indices._u_inverse (the reciprocal of a univariate unit), as they stood.
They are the reference for the differential tests in
test_series_quot.py.  Do not edit them: the code in src/ must give the
same results."""

from __future__ import annotations

from foliation_lab.poly import MPoly


def _series_quot(p: MPoly, q: MPoly, N: int):
    """p / q at the joint precision min(N, p.prec, q.prec); q must be a
    unit series.

    Divided one degree at a time: the homogeneous part of degree d of
    the quotient is r_d = (p_d - sum_{k>=1} q_k r_{d-k}) / q_0.
    """
    prec = min([N] + [s.prec for s in (p, q) if s.prec is not None])
    inv = q.constant_coefficient().inverse()
    qk = [q.homogeneous_part(k) for k in range(prec)]
    parts = []
    for d in range(prec):
        r = p.homogeneous_part(d)
        for k in range(1, d + 1):
            r = r - qk[k] * parts[d - k]
        parts.append(r.scale(inv))
    return sum(parts, MPoly.zero(p.vars, p.desc, prec))


def _u_inverse(c, N: int):
    """First N coefficients of the reciprocal of a unit coefficient list."""
    inv0 = c[0].inverse()
    out = [inv0]
    zero = c[0].desc.zero()
    for k in range(1, N):
        s = zero
        for j in range(1, min(k, len(c) - 1) + 1):
            s = s + c[j] * out[k - j]
        out.append(-(s * inv0))
    return out
