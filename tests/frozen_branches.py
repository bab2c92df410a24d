"""A frozen copy of the curve-branch solver that indices._curve_indices
replaced: _local_branches, which split the tangent cone of a curve germ
into slopes and solved each smooth branch as a graph, _swapped and
_branch_coeffs, over the self-contained substituting graph solver
(_frozen_solve_graph, with _frozen_invariant_graph_jet on top of it)
that re-substitutes the graph at every order.  _branch_coeffs keeps its
name and its contract but runs on that solver, as its copy in the graph
solver tests did.  curve_indices is the branch block of the old sum
check.  They are the reference for the differential tests in
test_curve_indices.py, test_cs_index.py and test_graph_solver.py.  Do
not edit them: the code in src/ must give the same results."""

from __future__ import annotations

from foliation_lab.fields import (FieldDescriptor, FieldElement, sort_key,
                                  sqrt_or_widen)
from foliation_lab.forms import PrecisionError, pullback
from foliation_lab.indices import (SingularBranchError, _cs_over_branches,
                                   _CurveBranch, gsv_index)
from foliation_lab.poly import MPoly, _utrim, u_roots_in_tower
from foliation_lab.separatrix import _graph_branch


def _frozen_solve_graph(residual, c1, offset, beta, N, fail):
    coeffs, zero, last = [c1], c1.desc.zero(), None
    for k in range(2, N + 1):
        target, alpha = k + offset, zero
        for e, c in residual(coeffs, target + 1).coeffs.items():
            if sum(e) < target:
                raise ValueError(fail % {"k": k})
            alpha = c if sum(e) == target else alpha
        if alpha.is_zero():
            coeffs.append(zero)
            continue
        b = beta(k)
        if b.is_zero():
            raise ValueError(fail % {"k": k})
        if b is not last:
            last, inv = b, b.inverse()
        coeffs.append(-(alpha * inv))
    return coeffs


def _frozen_invariant_graph_jet(form, N, slope=None):
    u, v = form.vars
    desc = form.desc
    if N < 1:
        raise ValueError("need at least one coefficient")
    prec_cap = form.prec()
    if prec_cap is not None and prec_cap <= N:
        raise PrecisionError("form precision %d too low for a degree-%d graph"
                             % (prec_cap, N))
    A, B = form.A, form.B
    if not (A.constant_coefficient().is_zero()
            and B.constant_coefficient().is_zero()):
        raise ValueError("an invariant graph needs a singular point")
    a10, a01 = A.coefficient((1, 0)), A.coefficient((0, 1))
    b10, b01 = B.coefficient((1, 0)), B.coefficient((0, 1))
    fail = "no invariant graph: obstruction at order %(k)d"
    q1 = a01 + b10
    if slope is None and not (b01.is_zero() or a10.is_zero()):
        disc = sqrt_or_widen(q1 * q1 - desc.rational(4) * b01 * a10)
        slope = min((-q1 + disc) / (b01 + b01), (-q1 - disc) / (b01 + b01),
                    key=sort_key)
    elif slope is None:
        if q1.is_zero() and not a10.is_zero():
            raise ValueError(fail % {"k": 1})
        slope = desc.zero() if q1.is_zero() else -(a10 / q1)
    uu = MPoly.variable((u,), u, desc)

    def residual(cs, prec):
        s = MPoly((u,), {(k + 1,): c for k, c in enumerate(cs)}, desc,
                  prec + 1)
        return pullback(form.coeffs(), form.vars, {u: uu, v: s})[0]

    lin, step = a01 + b01 * slope, b10 + b01 * slope
    return _frozen_solve_graph(residual, slope, 0,
                               lambda k: lin + desc.rational(k) * step, N,
                               fail)


def _local_branches(c: MPoly, desc: FieldDescriptor, N: int):
    """Smooth branches of a reduced curve jet with distinct tangents.

    Returns _CurveBranch objects; raises when a branch is singular or
    tangencies make the configuration unresolvable here.
    """
    if c.is_zero():
        raise ValueError("the local curve equation vanishes identically")
    if not c.constant_coefficient().is_zero():
        return []
    m = c.order()
    # tangent cone roots as slopes lambda of v = lambda u
    lam = [desc.zero()] * (m + 1)
    for e, coeff in c.coeffs.items():
        if sum(e) == m:
            lam[e[1]] = coeff
    plam = _utrim(lam)
    vertical = m - (len(plam) - 1)
    if vertical > 1:
        raise SingularBranchError("the curve has a multiple vertical tangent")
    identity = (desc.one(), desc.zero())
    swapped = identity[::-1]
    branches = []
    if len(plam) > 1:
        roots = u_roots_in_tower(plam, desc)
        if len(roots) < len(plam) - 1:
            raise SingularBranchError(
                "the curve has coincident tangent directions")
        for slope in roots:
            cs = _branch_coeffs(c, slope, m, N)
            branches.append(_CurveBranch(*_graph_branch(
                cs, identity, swapped, c.vars, desc, N)))
    if vertical == 1:
        cs = _branch_coeffs(_swapped(c), desc.zero(), m, N)
        branches.append(_CurveBranch(*_graph_branch(
            cs, swapped, identity, c.vars, desc, N)))
    return branches


def _swapped(p: MPoly) -> MPoly:
    """p with its two variables exchanged."""
    return MPoly(p.vars, {(e[1], e[0]): c for e, c in p.coeffs.items()},
                 p.desc, p.prec)


def _branch_coeffs(c: MPoly, slope: FieldElement, m: int, N: int):
    """Graph coefficients of the branch of c (order m, distinct tangents)
    tangent to v = slope*u: c(u, s(u)) has the order-(k + m - 1) coefficient
    alpha + eta c_k, eta the order-(m - 1) coefficient of c_v(u, slope*u)."""
    u, v = c.vars
    fail = "the tangent direction is not a simple branch"
    uu = MPoly.variable(c.vars, u, c.desc, N + m)

    def residual(cs, prec):
        s = MPoly(c.vars, {(k + 1, 0): ck for k, ck in enumerate(cs)},
                  c.desc, prec)
        return c.substitute({u: uu, v: s})

    eta = c.partial(v).substitute({u: uu, v: uu.scale(slope)}).coefficient(
        (m - 1, 0))
    if eta.is_zero():
        raise ValueError(fail)
    return _frozen_solve_graph(residual, slope, m - 1, lambda k: eta, N, fail)


def curve_indices(sing, c: MPoly, N: int):
    """(CS, GSV) of the curve germ c at a singular point, as the sum check
    read them: from the branches that _local_branches solves."""
    branches = _local_branches(c, sing.desc, N)
    cs = _cs_over_branches(sing.form, branches, N)
    gsv = gsv_index(sing.form, branches, g=c, N=N).value
    return cs, gsv
