"""Separatrix branch jets extracted from a completed reduction.

Each final singularity contributes one branch per separatrix direction
transversal to the divisor.  Branches are solved upstairs as invariant
graphs, composed through the blow-down substitutions as parametrizations,
and their implicit equations are pushed down chart by chart.  The product
of the implicit jets is the reduced equation g used by the multiplicity
identity.
"""

from __future__ import annotations

from .blowup import PLANE_CHARTS
from .fields import WidenRequest
from .forms import (
    CurveJet,
    OneForm2,
    invariant_graph_jet,
    normalize2,
    nu0,
)
from .poly import MPoly
from .reduce2d import (
    REGULAR,
    SADDLE_NODE,
    ReductionTree,
    _branch_tangent,
    _eigdir,
    _parallel,
    _rotate_form,
    seidenberg_reduce,
)


class BranchJet:
    """One separatrix branch: parametrization, implicit jet, tags."""

    __slots__ = ("param", "implicit", "analytic", "role", "path")

    def __init__(self, param, implicit, analytic, role, path):
        self.param = param
        self.implicit = implicit
        self.analytic = analytic
        self.role = role  # weak | strong | ordinary
        self.path = path

    def tags(self):
        return ("analytic" if self.analytic else "formal", self.role)

    def __repr__(self):
        return "BranchJet(%s, %s, %s)" % (
            self.implicit.render(), *self.tags())


class SeparatrixSet:
    __slots__ = ("branches", "g")

    def __init__(self, branches, g):
        self.branches = tuple(branches)
        self.g = g

    def s0(self) -> int:
        return len(self.branches)

    def __iter__(self):
        return iter(self.branches)


class DicriticalInputError(ValueError):
    def __init__(self, components):
        super().__init__(
            "separatrix extraction needs a non-dicritical reduction; "
            "dicritical components: %s" % ", ".join(components))
        self.components = components


def _scale_dir(d):
    """Normalize a direction so its first nonzero entry is 1."""
    pivot = d[0] if not d[0].is_zero() else d[1]
    inv = pivot.inverse()
    return (d[0] * inv, d[1] * inv)


def _leaf_directions(rec):
    """Separatrix directions at a final point: list of (dir, role)."""
    desc = rec.form.desc
    M = rec.linear
    tr = M[0][0] + M[1][1]
    if rec.code.kind == SADDLE_NODE:
        return [(_scale_dir(rec.code.strong), "strong"),
                (_scale_dir(rec.code.weak), "weak")]
    # non-degenerate: eigendirections; anchor on a divisor branch when
    # present so no square root is needed
    branch_dirs = [_branch_tangent(b.equation, desc) for b in rec.divisor]
    if branch_dirs:
        d1 = branch_dirs[0]
        md = (M[0][0] * d1[0] + M[0][1] * d1[1],
              M[1][0] * d1[0] + M[1][1] * d1[1])
        lam1 = md[0] / d1[0] if not d1[0].is_zero() else md[1] / d1[1]
        lam2 = tr - lam1
        d2 = _eigdir(M, lam2, desc)
        return [(_scale_dir(d1), "ordinary"), (_scale_dir(d2), "ordinary")]
    from .fields import sqrt_or_widen
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    disc = sqrt_or_widen(tr * tr - desc.rational(4) * det)
    half = desc.rational(2).inverse()
    lam1 = (tr + disc) * half
    lam2 = (tr - disc) * half
    return [(_scale_dir(_eigdir(M, lam1, desc)), "ordinary"),
            (_scale_dir(_eigdir(M, lam2, desc)), "ordinary")]


def _trace_graph(form: OneForm2, d_target, d_other, N: int):
    """Jet of the invariant curve tangent to d_target, as a parametrization
    in the form's own coordinates."""
    rotated = normalize2(_rotate_form(form, d_target, d_other))
    cs = invariant_graph_jet(rotated, N)
    desc = form.desc
    tvar = ("t",)
    t = MPoly.variable(tvar, "t", desc, prec=N + 1)
    s = MPoly(tvar, {(k + 1,): c for k, c in enumerate(cs) if not c.is_zero()},
              desc, prec=N + 1)
    g1 = t.scale(d_target[0]) + s.scale(d_other[0])
    g2 = t.scale(d_target[1]) + s.scale(d_other[1])
    # implicit: v' - s(u') in rotated coordinates, expressed downstairs
    det = d_target[0] * d_other[1] - d_target[1] * d_other[0]
    inv = det.inverse()
    # rows of the inverse linear map
    l1 = (d_other[1] * inv, -d_other[0] * inv)   # u' in terms of (u, v)
    l2 = (-d_target[1] * inv, d_target[0] * inv)  # v'
    u, v = form.vars
    uu = MPoly.variable(form.vars, u, desc, prec=N + 1)
    vv = MPoly.variable(form.vars, v, desc, prec=N + 1)
    lin1 = uu.scale(l1[0]) + vv.scale(l1[1])
    lin2 = uu.scale(l2[0]) + vv.scale(l2[1])
    s2 = MPoly(form.vars, {(k + 1, 0): c for k, c in enumerate(cs)
                           if not c.is_zero()}, desc, prec=N + 1)
    implicit = lin2 - s2.substitute({u: lin1, v: lin2})
    return CurveJet((g1, g2)), implicit


_EXC_INDEX = dict(PLANE_CHARTS)


def _blowdown_param(curve: CurveJet, path):
    comps = list(curve.components)
    for label, c in reversed(path):
        e = _EXC_INDEX[label]
        shift = MPoly.constant(comps[e].vars, c, comps[e].desc, comps[e].prec)
        comps[1 - e] = comps[e] * (comps[1 - e] + shift)
    return CurveJet(comps)


def _pushdown_implicit(f: MPoly, path):
    desc = f.desc
    for label, c in reversed(path):
        prec = f.prec
        e = _EXC_INDEX[label]
        src, dst = f.vars[1 - e], f.vars[e]
        # curve upstairs f(u,v); downstairs substitute src -> src/dst - c
        # and clear the pole with dst^(deg_src f)
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


def _normalize_implicit(f: MPoly) -> MPoly:
    low = f.lowest_part()
    e = min(low.coeffs)
    return f.scale(low.coeffs[e].inverse())


def separatrices2(form: OneForm2, tree: ReductionTree, N: int = 12) -> SeparatrixSet:
    """All separatrix branches of a non-dicritical germ, to order N."""
    if N < 2:
        raise ValueError("truncation order too small to separate branches")
    if tree.has_dicritical():
        raise DicriticalInputError(tree.dicritical_components())
    form = normalize2(form).coerce_to(tree.desc)
    try:
        return _collect_branches(form, tree, N)
    except WidenRequest as w:
        # an eigendirection left the tower; widen and redo the reduction
        desc = tree.desc.widened(w.m)
        form = form.coerce_to(desc)
        tree = seidenberg_reduce(form)
        return _collect_branches(form, tree, N)


def _collect_branches(form: OneForm2, tree: ReductionTree, N: int) -> SeparatrixSet:
    branches = []
    for rec in tree.leaves:
        if rec.code.kind == REGULAR:
            continue
        desc = rec.form.desc
        branch_dirs = [_branch_tangent(b.equation, desc) for b in rec.divisor]
        for d, role in _leaf_directions(rec):
            if any(_parallel(d, bd) for bd in branch_dirs):
                continue
            others = [x for x, _ in _leaf_directions(rec) if not _parallel(x, d)]
            d_other = others[0]
            param_up, implicit_up = _trace_graph(rec.form, d, d_other, N)
            param = _blowdown_param(param_up, rec.path)
            implicit = _normalize_implicit(
                _pushdown_implicit(implicit_up, rec.path))
            analytic = not (rec.code.kind == SADDLE_NODE and role == "weak")
            branches.append(BranchJet(param, implicit, analytic, role, rec.path))
    if not branches:
        raise ValueError("no separatrix branches found")
    g = branches[0].implicit
    for b in branches[1:]:
        g = g * b.implicit
    return SeparatrixSet(branches, g)


def weak_separatrix_jet(form: OneForm2, N: int = 10) -> BranchJet:
    """Formal graph jet of the weak separatrix of a saddle-node."""
    from .reduce2d import classify_point2
    from .forms import LocalDivisor
    form = normalize2(form)
    code, _, M = classify_point2(form, LocalDivisor.empty())
    if code.kind != SADDLE_NODE:
        raise ValueError("weak separatrix jet needs a saddle-node")
    weak = _scale_dir(code.weak)
    strong = _scale_dir(code.strong)
    desc = form.desc
    if not weak[0].is_zero():
        # graph v = sum c_k u^k in the given coordinates
        cs = invariant_graph_jet(form, N)
        tvar = ("t",)
        t = MPoly.variable(tvar, "t", desc, prec=N + 1)
        s = MPoly(tvar, {(k + 1,): c for k, c in enumerate(cs)
                         if not c.is_zero()}, desc, prec=N + 1)
        u, v = form.vars
        s2 = MPoly(form.vars, {(k + 1, 0): c for k, c in enumerate(cs)
                               if not c.is_zero()}, desc, prec=N + 1)
        vv = MPoly.variable(form.vars, v, desc, prec=N + 1)
        implicit = vv - s2
        return BranchJet(CurveJet((t, s)), implicit, False, "weak", ())
    param, implicit = _trace_graph(form, weak, strong, N)
    return BranchJet(param, implicit, False, "weak", ())


def weak_graph_coefficients(form: OneForm2, N: int = 10):
    """Coefficients c_1..c_N of the weak separatrix graph v = sum c_k u^k."""
    return invariant_graph_jet(normalize2(form), N)


class IdentityReport:
    __slots__ = ("nu_form", "nu_dg", "equal", "second_type", "g", "seps")

    def __init__(self, nu_form, nu_dg, second_type, g, seps):
        self.nu_form = nu_form
        self.nu_dg = nu_dg
        self.equal = nu_form == nu_dg
        self.second_type = second_type
        self.g = g
        self.seps = seps

    def __repr__(self):
        return "IdentityReport(nu_form=%d, nu_dg=%d, equal=%s)" % (
            self.nu_form, self.nu_dg, self.equal)


def multiplicity_identity_check(form: OneForm2, N: int = 12,
                                max_depth: int = 64,
                                tree: ReductionTree = None) -> IdentityReport:
    """Compare the multiplicity of the form with that of d(g), g the
    reduced separatrix equation.

    `tree`, when given, must be a reduction of the same form without a
    divisor; it is used instead of reducing again.
    """
    form = normalize2(form)
    if tree is None:
        tree = seidenberg_reduce(form, None, max_depth)
    seps = separatrices2(form.coerce_to(tree.desc), tree, N)
    g = seps.g
    u, v = form.vars
    dg = OneForm2(g.partial(u), g.partial(v), form.vars)
    return IdentityReport(nu0(form), nu0(dg), not tree.tangent_witnesses(),
                          g, seps)
