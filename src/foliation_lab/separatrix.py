"""Separatrix branch jets extracted from a completed reduction.

Each final singularity contributes one branch per separatrix direction
transversal to the divisor.  Branches are solved upstairs as invariant
graphs, composed through the blow-down substitutions as parametrizations,
and their implicit equations are pushed down chart by chart.  The product
of the implicit jets is the reduced equation g used by the multiplicity
identity.

Every branch is built by _graph_branch from graph coefficients in a frame
(d_target, d_other): it is v' = s(u') in the coordinates (u', v') with
(u, v) = u' d_target + v' d_other, its parametrization is
t -> t d_target + s(t) d_other and its implicit jet is v' - s(u') written
in (u, v).  Reduced points use their separatrix directions as the frame,
a regular point the kernel of omega(0) and a coordinate axis.
"""

from __future__ import annotations

from .blowup import PLANE_CHARTS
from .fields import Inconclusive, sqrt_or_widen, widening
from .forms import (
    CurveJet,
    LocalDivisor,
    OneForm2,
    invariant_graph_jet,
    normalize2,
    nu0,
)
from .poly import MPoly
from .reduce2d import (
    SADDLE_NODE,
    ReductionTree,
    _branch_tangent,
    _eigdir,
    _parallel,
    _rotate_form,
    _scale_dir,
    classify_point2,
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


class DicriticalInputError(ValueError, Inconclusive):
    def __init__(self, components):
        super().__init__(
            "separatrix extraction needs a non-dicritical reduction; "
            "dicritical components: %s" % ", ".join(components))


def _leaf_directions(rec):
    """Separatrix directions at a final point: list of (dir, role)."""
    desc = rec.form.desc
    M = rec.linear
    tr = M[0][0] + M[1][1]
    if rec.code.kind == SADDLE_NODE:
        return [(rec.code.strong, "strong"), (rec.code.weak, "weak")]
    # non-degenerate: eigendirections; anchor on a divisor branch when
    # present so no square root is needed
    branch_dirs = [_branch_tangent(b.equation) for b in rec.divisor]
    if branch_dirs:
        d1 = branch_dirs[0]
        md = (M[0][0] * d1[0] + M[0][1] * d1[1],
              M[1][0] * d1[0] + M[1][1] * d1[1])
        lam1 = md[0] / d1[0] if not d1[0].is_zero() else md[1] / d1[1]
        lam2 = tr - lam1
        d2 = _eigdir(M, lam2, desc)
        return [(_scale_dir(d1), "ordinary"), (_scale_dir(d2), "ordinary")]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    disc = sqrt_or_widen(tr * tr - desc.rational(4) * det)
    half = desc.rational(2).inverse()
    lam1 = (tr + disc) * half
    lam2 = (tr - disc) * half
    return [(_scale_dir(_eigdir(M, lam1, desc)), "ordinary"),
            (_scale_dir(_eigdir(M, lam2, desc)), "ordinary")]


def _graph_branch(cs, d_target, d_other, variables, desc, N: int):
    """(parametrization, implicit jet) in `variables` of the graph with
    coefficients `cs` in the frame (d_target, d_other), as set out in the
    module docstring: the identity frame gives v - s(u), the swapped one
    u - s(v)."""
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


def _trace_graph(form: OneForm2, d_target, d_other, N: int):
    """Jet of the invariant curve tangent to d_target, as a parametrization
    and an implicit jet in the form's own coordinates.

    At a regular point the curve is the leaf through the origin, and
    d_target spans the kernel of omega(0).  Its graph is solved for
    u' * omega: the pull-back of u' * omega along a graph is u' times that
    of omega, so the graph is the same, and u' * omega has a singular
    point at the origin, where invariant_graph_jet applies.
    """
    # callers' forms may lack the flag; a flagged one only loses content
    rotated = normalize2(_rotate_form(form, d_target, d_other))
    if rotated.B.constant_coefficient():
        u = MPoly.variable(rotated.vars, rotated.vars[0], form.desc)
        rotated = OneForm2(rotated.A * u, rotated.B * u, rotated.vars)
    # in the rotated frame d_target is an eigendirection of the linear
    # part (at a regular point, of u' * omega's), so a10 = 0 and slope 0
    # solves order 1
    return _graph_branch(invariant_graph_jet(rotated, N, form.desc.zero()),
                         d_target, d_other, form.vars, form.desc, N)


def _leaf_frame(form: OneForm2):
    """The frame (d, d_other) of the leaf through a regular origin: d is
    the kernel (b, -a) of omega(0) = a du + b dv, scaled, and d_other the
    unit axis that is not parallel to it."""
    a, b = form.A.constant_coefficient(), form.B.constant_coefficient()
    d = _scale_dir((b, -a))
    zero, one = form.desc.zero(), form.desc.one()
    return d, ((zero, one) if d[0] else (one, zero))


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

    def run(desc):
        if desc == tree.desc:
            return _collect_branches(tree, N)
        # an eigendirection left the tower: reduce again over the wider one
        return _collect_branches(
            seidenberg_reduce(form.coerce_to(desc), tree.divisor), N)
    return widening(run, tree.desc)


def _regular_branches(form: OneForm2, divisor, N: int):
    """The separatrices of a regular point: the leaf through the origin,
    tangent to the kernel of omega(0), unless a branch of `divisor`
    through the origin is tangent to it.  Its path is empty, so nothing
    is pushed down."""
    d, d_other = _leaf_frame(form)
    if any(_parallel(d, _branch_tangent(br.equation)) for br in divisor
           if br.equation.constant_coefficient().is_zero()):
        return []
    param, implicit = _trace_graph(form, d, d_other, N)
    return [BranchJet(param, _normalize_implicit(implicit), True, "ordinary",
                      ())]


def _collect_branches(tree: ReductionTree, N: int) -> SeparatrixSet:
    """The separatrix branches of the leaves, or of a regular root.  A
    declared divisor branch is never one of them, so the set may be
    empty; then g = 1."""
    # a root that is neither blown up nor a leaf is a regular point
    branches = ([] if tree.blowup_count or tree.leaves
                else _regular_branches(tree.form, tree.divisor, N))
    for rec in tree.leaves:
        branch_dirs = [_branch_tangent(b.equation) for b in rec.divisor]
        dirs = _leaf_directions(rec)
        for d, role in dirs:
            if any(_parallel(d, bd) for bd in branch_dirs):
                continue
            d_other = next(x for x, _ in dirs if not _parallel(x, d))
            param_up, implicit_up = _trace_graph(rec.form, d, d_other, N)
            param = _blowdown_param(param_up, rec.path)
            implicit = _normalize_implicit(
                _pushdown_implicit(implicit_up, rec.path))
            analytic = not (rec.code.kind == SADDLE_NODE and role == "weak")
            branches.append(BranchJet(param, implicit, analytic, role, rec.path))
    g = MPoly.constant(tree.form.vars, 1, tree.desc)
    for b in branches:
        g = g * b.implicit
    return SeparatrixSet(branches, g)


def _saddle_node_frame(form: OneForm2):
    """Weak and strong directions of a saddle-node at the origin."""
    code, _, _ = classify_point2(form, LocalDivisor.empty())
    if code.kind != SADDLE_NODE:
        raise ValueError("weak separatrix jet needs a saddle-node")
    return code.weak, code.strong


def weak_separatrix_jet(form: OneForm2, N: int = 10) -> BranchJet:
    """Formal jet of the weak separatrix of a saddle-node, solved in the
    frame (weak, strong); the implicit jet is normalized as in
    separatrices2."""
    form = normalize2(form)  # public entry: any form may come in
    weak, strong = _saddle_node_frame(form)
    param, implicit = _trace_graph(form, weak, strong, N)
    return BranchJet(param, _normalize_implicit(implicit), False, "weak", ())


def weak_graph_coefficients(form: OneForm2, N: int = 10):
    """Coefficients c_1..c_N of the weak separatrix graph v = sum c_k u^k;
    ValueError when the weak direction is vertical."""
    form = normalize2(form)  # public entry: any form may come in
    weak, _ = _saddle_node_frame(form)
    if weak[0].is_zero():
        raise ValueError("the weak direction is vertical")
    return invariant_graph_jet(form, N, weak[1])


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
    form = normalize2(form)  # public entry: any form may come in
    if tree is None:
        tree = seidenberg_reduce(form, None, max_depth)
    seps = separatrices2(form.coerce_to(tree.desc), tree, N)
    g = seps.g
    u, v = form.vars
    dg = OneForm2(g.partial(u), g.partial(v), form.vars)
    return IdentityReport(nu0(form), nu0(dg), not tree.tangent_witnesses(),
                          g, seps)
