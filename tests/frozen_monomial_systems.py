"""Frozen copies of the three monomial linear systems as they stood before
poly.multiplication_matrix served them: exact division over a box of
exponents, the ideal codimension behind the Milnor number, and the
cylinder candidate.  They are the reference for the differential test in
test_multiplication_matrix.py.  Do not edit them: the code in src/ must
give the same results."""

from __future__ import annotations

from foliation_lab import linalg
from foliation_lab.forms import OneForm2, OneForm3
from foliation_lab.poly import MPoly, OrderIndeterminate


def exact_divide(p: MPoly, q: MPoly):
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return MPoly.zero(p.vars, p.desc, MPoly._join_prec(p.prec, q.prec))
    desc = p.desc
    nvars = len(p.vars)
    prec = MPoly._join_prec(p.prec, q.prec)
    try:
        oq = q.order()
    except OrderIndeterminate:
        return None
    if prec is None:
        bounds = []
        for i in range(nvars):
            dp = max(e[i] for e in p.coeffs)
            dq = max((e[i] for e in q.coeffs), default=0)
            if dp < dq:
                return None
            bounds.append(dp - dq)
        unknowns = _box_exponents(bounds)
        deg_cap = None
    else:
        cap = max(prec - oq, 0)
        unknowns = [e for e in _box_exponents([max(cap - 1, 0)] * nvars)
                    if sum(e) < cap]
        deg_cap = prec
    unknowns = sorted(set(unknowns))
    index = {e: j for j, e in enumerate(unknowns)}
    # equations: for every exponent E reachable in q*r or present in p
    eqs = {}
    for eq_exp, qc in q.coeffs.items():
        for ue in unknowns:
            E = tuple(a + b for a, b in zip(eq_exp, ue))
            if deg_cap is not None and sum(E) >= deg_cap:
                continue
            row = eqs.setdefault(E, {})
            j = index[ue]
            row[j] = row.get(j, desc.zero()) + qc
    for E in p.coeffs:
        if deg_cap is not None and sum(E) >= deg_cap:
            continue
        eqs.setdefault(E, {})
    exps = sorted(eqs)
    matrix = []
    rhs = []
    zero = desc.zero()
    for E in exps:
        row = [zero] * len(unknowns)
        for j, v in eqs[E].items():
            row[j] = v
        matrix.append(row)
        rhs.append(p.coeffs.get(E, zero))
    sol = linalg.solve(matrix, rhs, desc)
    if sol is None:
        return None
    out_prec = None if prec is None else max(prec - oq, 0)
    return MPoly(p.vars, {e: sol[j] for e, j in index.items()}, desc, out_prec)


def _box_exponents(bounds):
    exps = [()]
    for b in bounds:
        exps = [e + (k,) for e in exps for k in range(b + 1)]
    return exps


def _monomials_below(nvars: int, d: int):
    """All exponent tuples of total degree < d, lexicographic."""
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            prefix.append(e)
            rec(prefix, remaining - 1, budget - e)
            prefix.pop()

    rec([], nvars, d - 1)
    return sorted(out)


def _ideal_codim(A: MPoly, B: MPoly, d: int) -> int:
    """dim of O/((A,B) + m^d) by monomial linear algebra at degree < d."""
    desc = A.desc
    monos = _monomials_below(2, d)
    index = {e: i for i, e in enumerate(monos)}
    zero = desc.zero()
    rows = []
    for gen in (A, B):
        base = gen.order()
        for m in _monomials_below(2, max(d - base, 1)):
            shifted = {}
            for e, c in gen.coeffs.items():
                f = (e[0] + m[0], e[1] + m[1])
                if sum(f) < d:
                    shifted[f] = c
            if not shifted:
                continue
            row = [zero] * len(monos)
            for e, c in shifted.items():
                row[index[e]] = c
            rows.append(row)
    return len(monos) - linalg.rank(rows)


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


def _cylinder_candidate(form: OneForm3, order: int):
    """Constant part of a polynomial vector field X of degree below
    `order` with i_X(form) = 0 modulo degree `order`, or None."""
    desc = form.desc
    zero = desc.zero()
    monos = sorted(_monomials_below(3, order), key=lambda e: (sum(e), e))
    idx = {e: j for j, e in enumerate(monos)}
    n = len(monos)
    rows_map = {}
    for i, coeff in enumerate(form.coeffs()):
        for ec, c in coeff.coeffs.items():
            dc = sum(ec)
            if dc > order or c.is_zero():
                continue
            for ex in monos:
                if sum(ex) + dc > order:
                    continue
                m = (ex[0] + ec[0], ex[1] + ec[1], ex[2] + ec[2])
                col = i * n + idx[ex]
                row = rows_map.setdefault(m, {})
                prev = row.get(col)
                row[col] = c if prev is None else prev + c
    rows = [[row.get(j, zero) for j in range(3 * n)]
            for _, row in sorted(rows_map.items())]
    const = [i * n + idx[(0, 0, 0)] for i in range(3)]
    for vec in linalg.nullspace(rows, 3 * n, desc):
        v = tuple(vec[c] for c in const)
        if any(not c.is_zero() for c in v):
            return v
    return None
