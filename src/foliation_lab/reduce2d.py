"""Seidenberg reduction of plane foliation singularities.

The engine repeatedly blows up every point over the origin that is
neither divisor-regular nor divisor-simple, classifies the final points
against the simple models (non-degenerate linear, saddle-node), and
records the divisor combinatorics: components with self-intersections,
adjacencies, and the decorated final singularities.

Points to visit on each exceptional line are located exactly by root
isolation over the coefficient field tower; a root that requires a new
square root triggers a widening restart.  A factor of degree three or
more with no root in Q is not split into lower-degree factors, so its
roots are not located and the run aborts with a field-extension error.
"""

from __future__ import annotations

from .fields import Inconclusive, eigenvalue_ratio, sort_key, widening
from .forms import (
    DivisorBranch,
    LocalDivisor,
    OneForm2,
    invariant_hypersurface,
    normalize2,
    pullback,
)
from .blowup import blowup_point2
from .poly import MPoly, to_univariate, u_roots_in_tower

REGULAR = "Regular"
SIMPLE = "SimpleNonDegenerate"
SADDLE_NODE = "SaddleNode"
NON_SIMPLE = "NonSimple"

E_REGULAR = "E-regular"
E_SIMPLE = "E-simple"
UNADAPTED = "unadapted"


class ReductionError(Inconclusive):
    """Engine failure: depth exhausted or degenerate input."""


class ClassCode:
    """Local classification of a point against the simple models.

    At a saddle-node, `strong` and `weak` are the eigendirections of the
    linear part for the nonzero and the zero eigenvalue, each scaled so
    its first nonzero entry is 1.
    """

    __slots__ = ("kind", "strong", "weak", "adapted")

    def __init__(self, kind, strong=None, weak=None, adapted=UNADAPTED):
        self.kind = kind
        self.strong = strong
        self.weak = weak
        self.adapted = adapted

    def is_simple(self):
        return self.kind in (SIMPLE, SADDLE_NODE)

    def __repr__(self):
        return "ClassCode(%s, %s)" % (self.kind, self.adapted)


class SingularityRecord:
    """One final point of the reduction with its local data."""

    __slots__ = ("path", "form", "divisor", "code", "well_oriented", "linear",
                 "components")

    def __init__(self, path, form, divisor, code, well_oriented, linear,
                 components=()):
        self.path = path
        self.form = form
        self.divisor = divisor
        self.code = code
        self.well_oriented = well_oriented
        self.linear = linear
        self.components = tuple(components)

    def __repr__(self):
        return "SingularityRecord(%r, %s, well_oriented=%s)" % (
            list(self.path), self.code, self.well_oriented,
        )


class ReductionTree:
    """Full record of one reduction run; `divisor` is the declared
    LocalDivisor."""

    __slots__ = ("form", "desc", "divisor", "components", "edges", "events",
                 "leaves", "blowup_count")

    def __init__(self, form, desc, divisor):
        self.form = form
        self.desc = desc
        self.divisor = divisor
        self.components = {}
        self.edges = set()
        self.events = []
        self.leaves = []
        self.blowup_count = 0

    def singular_leaves(self):
        return [r for r in self.leaves if r.code.kind != REGULAR]

    def saddle_nodes(self):
        return [r for r in self.leaves if r.code.kind == SADDLE_NODE]

    def tangent_witnesses(self):
        return [r for r in self.leaves if not r.well_oriented]

    def has_dicritical(self):
        return any(c["dicritical"] for c in self.components.values())

    def dicritical_components(self):
        return sorted(k for k, c in self.components.items() if c["dicritical"])


def _parallel(d1, d2) -> bool:
    return (d1[0] * d2[1] - d1[1] * d2[0]).is_zero()


def _branch_tangent(eq: MPoly):
    """Tangent direction of a smooth branch at the origin."""
    fu, fv = eq.coefficient((1, 0)), eq.coefficient((0, 1))
    if fu.is_zero() and fv.is_zero():
        raise ValueError("divisor branch is singular at the origin")
    return (fv, -fu)


def _scale_dir(d):
    """Normalize a direction so its first nonzero entry is 1."""
    pivot = d[0] if not d[0].is_zero() else d[1]
    inv = pivot.inverse()
    return (d[0] * inv, d[1] * inv)


def _eigdir(M, lam, desc):
    """A kernel direction of M - lam*I."""
    a = M[0][0] - lam
    b = M[0][1]
    c = M[1][0]
    d = M[1][1] - lam
    for row in ((a, b), (c, d)):
        if not (row[0].is_zero() and row[1].is_zero()):
            return (-row[1], row[0])
    return (desc.one(), desc.zero())


def classify_linear_part(M) -> ClassCode:
    """The class of a singular point from the linear part M of its dual
    field alone: NonSimple, simple non-degenerate, or a saddle-node with
    its strong and weak eigendirections, scaled.  Simple classes come
    E-simple, as with no divisor; classify_point2 then weighs the
    divisor."""
    tr = M[0][0] + M[1][1]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    verdict = eigenvalue_ratio(tr, det)
    if verdict in ("nilpotent", "positive"):
        return ClassCode(NON_SIMPLE)
    if verdict != "zero-eigenvalue":
        return ClassCode(SIMPLE, adapted=E_SIMPLE)
    desc = tr.desc
    return ClassCode(SADDLE_NODE, _scale_dir(_eigdir(M, tr, desc)),
                     _scale_dir(_eigdir(M, desc.zero(), desc)), E_SIMPLE)


def _swap_uv(form: OneForm2) -> OneForm2:
    """The pull-back by (u, v) -> (v, u): A du + B dv becomes
    B(v, u) du + A(v, u) dv, with the precisions and the flag kept."""
    A, B = (p._make({e[::-1]: c for e, c in p.coeffs.items()}, p.prec)
            for p in (form.B, form.A))
    return OneForm2(A, B, form.vars, form.coprime)


def _rotate_form(form: OneForm2, d1, d2) -> OneForm2:
    """Pull back by the linear map sending (1,0), (0,1) to d1, d2.  The
    unit frames compose nothing: the identity keeps the form, and
    ((0, 1), (1, 0)) swaps u and v."""
    one, zero = form.desc.one(), form.desc.zero()
    if (d1, d2) == ((one, zero), (zero, one)):
        return form
    if (d1, d2) == ((zero, one), (one, zero)):
        return _swap_uv(form)
    u, v = form.vars
    gens = [MPoly.variable(form.vars, w, form.desc) for w in form.vars]
    mapping = {u: gens[0].scale(d1[0]) + gens[1].scale(d2[0]),
               v: gens[0].scale(d1[1]) + gens[1].scale(d2[1])}
    # the pull-back is (A, B) composed with the linear map, times the
    # matrix (d1 d2); both keep coprimality exactly when det(d1, d2) != 0.
    invertible = not _parallel(d1, d2)
    return OneForm2(*pullback(form.coeffs(), form.vars, mapping), form.vars,
                    form.coprime and invertible)


def classify_point2(form: OneForm2, E: LocalDivisor):
    """Classify one point against the simple models, relative to the divisor.

    Returns (ClassCode, well_oriented, linear_matrix).  The divisor is
    restricted to its branches through the origin.  The classification
    reads the linear part of the form and the tangents and invariance of
    the divisor branches only: a saddle-node is well oriented when no
    branch is tangent to its weak direction.
    """
    # public, and _axis_trace_form hands it forms without the flag
    form = normalize2(form)
    local = [b for b in E if b.equation.constant_coefficient().is_zero()]
    a0 = form.A.constant_coefficient()
    b0 = form.B.constant_coefficient()
    M = form.dual_linear_part()
    if not (a0.is_zero() and b0.is_zero()):
        leaf_dir = (b0, -a0)
        adapted = E_REGULAR
        for b in local:
            tangent = _branch_tangent(b.equation)
            if b.dicritical:
                if _parallel(leaf_dir, tangent):
                    adapted = UNADAPTED  # tangency with a dicritical component
            elif not invariant_hypersurface(form.coeffs(), form.vars,
                                            b.equation):
                adapted = UNADAPTED
        return ClassCode(REGULAR, adapted=adapted), True, M

    code = classify_linear_part(M)
    if code.kind == NON_SIMPLE:
        return code, True, M
    if len(local) > 2:
        code.adapted = UNADAPTED
    for b in local:
        if b.dicritical or not invariant_hypersurface(
                form.coeffs(), form.vars, b.equation):
            code.adapted = UNADAPTED
    if code.kind == SIMPLE:
        return code, True, M
    well = True
    for b in local:
        if b.dicritical:
            continue
        if _parallel(_branch_tangent(b.equation), code.weak):
            well = False  # the weak separatrix lies in the divisor
    return code, well, M


def _restrict_to_line(p: MPoly, var: str, desc):
    """Coefficient list of p restricted to {var = 0}, in the other variable."""
    other = [w for w in p.vars if w != var][0]
    restr = p.restrict({var: desc.zero()})
    return to_univariate(restr, other)


class _Engine:
    def __init__(self, form, divisor, max_depth):
        self.max_depth = max_depth
        self.desc = form.desc
        self.tree = ReductionTree(form, form.desc, divisor)
        self.next_comp = 0
        init = []
        for b in divisor:
            cid = "B%d" % self.next_comp
            self.next_comp += 1
            self.tree.components[cid] = {
                "dicritical": b.dicritical, "self_int": None,
            }
            init.append((cid, b))
        self.initial = init

    def new_component(self, dicritical):
        cid = "E%d" % self.next_comp
        self.next_comp += 1
        self.tree.components[cid] = {"dicritical": dicritical, "self_int": -1}
        return cid

    def run(self):
        self.process((), self.tree.form, self.initial, 0)
        return self.tree

    def process(self, path, form, tagged_branches, depth):
        local = [(cid, b) for cid, b in tagged_branches
                 if b.equation.constant_coefficient().is_zero()]
        E = LocalDivisor([b for _, b in local])
        code, well, M = classify_point2(form, E)
        if code.adapted != UNADAPTED:
            if code.kind != REGULAR:
                self.tree.leaves.append(SingularityRecord(
                    path, form, E, code, well, M,
                    components=[cid for cid, _ in local],
                ))
            return
        if depth >= self.max_depth:
            raise ReductionError("blow-up depth exhausted")

        charts = blowup_point2(form, E, force=True)
        self.tree.blowup_count += 1
        new_id = self.new_component(charts[0].dicritical)
        through = sorted(cid for cid, _ in local)
        self.tree.events.append({
            "path": path, "through": through,
            "dicritical": charts[0].dicritical, "new": new_id,
        })
        for cid, _ in local:
            comp = self.tree.components[cid]
            if comp["self_int"] is not None:
                comp["self_int"] -= 1
            self.tree.edges.add(frozenset((cid, new_id)))
        if len(through) == 2:
            self.tree.edges.discard(frozenset(through))

        for chart in charts:
            self.descend(path, chart, local, new_id, depth)

    def descend(self, path, chart, local, new_id, depth):
        desc = self.desc
        strict_branches = [(local[i][0], b)
                           for i, b in zip(chart.survivors, chart.divisor)]
        exc_var = chart.exc_var
        i = chart.form.vars.index(exc_var)
        other = chart.form.vars[1 - i]
        ab = (chart.form.A, chart.form.B)
        # the d(scaled) coefficient on a dicritical line, else the d(e) one
        key = ab[1 - i] if chart.dicritical else ab[i]
        coeffs = _restrict_to_line(key, exc_var, desc)
        if not coeffs:
            raise ReductionError(
                "strict transform vanishes along the exceptional line; "
                "input coefficients were not coprime")
        if chart.label == "c1":  # the chart that carries the finite points
            roots = u_roots_in_tower(coeffs, desc)
            for _, b in strict_branches:
                val = b.equation.restrict({exc_var: desc.zero()})
                extra = u_roots_in_tower(to_univariate(val, other), desc) \
                    if not val.is_zero() else []
                for r in extra:
                    if all(r != s for s in roots):
                        roots.append(r)
            roots.sort(key=sort_key)
        else:
            # this chart only adds the point at infinity of the other one
            candidate = key.constant_coefficient().is_zero() or any(
                b.equation.constant_coefficient().is_zero()
                for _, b in strict_branches)
            roots = [desc.zero()] if candidate else []
        exc_branch = (new_id, chart.exceptional)
        for c in roots:
            child_form = chart.form.translate({other: c})
            child_branches = [exc_branch]
            for cid, b in strict_branches:
                child_branches.append(
                    (cid, DivisorBranch(b.equation.translate({other: c}),
                                        b.dicritical)))
            self.process(path + ((chart.label, c),), child_form,
                         child_branches, depth + 1)


def seidenberg_reduce(form: OneForm2, E: LocalDivisor = None,
                      max_depth: int = 64) -> ReductionTree:
    """Reduce the singularity at the origin; widen the tower on demand."""
    if E is None:
        E = LocalDivisor.empty()
    # public entry: the root may carry a common factor
    form = normalize2(form)
    # coerce_to keeps `coprime`: a field extension leaves the gcd 1
    return widening(lambda desc: _Engine(
        form.coerce_to(desc), E.coerce_to(desc), max_depth).run(), form.desc)


class SecondTypeResult:
    __slots__ = ("value", "witnesses", "tree")

    def __init__(self, value, witnesses, tree):
        self.value = value
        self.witnesses = witnesses
        self.tree = tree

    def __bool__(self):
        return self.value


def is_second_type2(form: OneForm2, E: LocalDivisor = None,
                    max_depth: int = 64) -> SecondTypeResult:
    """Whether every final singularity is well oriented for the divisor."""
    tree = seidenberg_reduce(form, E, max_depth)
    witnesses = tree.tangent_witnesses()
    return SecondTypeResult(not witnesses, witnesses, tree)


def is_generalized_curve2(form: OneForm2) -> bool:
    """Whether the reduction is free of saddle-nodes."""
    tree = seidenberg_reduce(form)
    return not tree.saddle_nodes()


def dual_graph(tree: ReductionTree) -> dict:
    """Weighted dual graph of the final divisor, with decorated half-edges."""
    vertices = {}
    for cid, comp in tree.components.items():
        vertices[cid] = {
            "self_intersection": comp["self_int"],
            "dicritical": comp["dicritical"],
        }
    edges = sorted(tuple(sorted(e)) for e in tree.edges)
    half_edges = []
    for rec in tree.leaves:
        for cid in rec.components:
            half_edges.append((cid, rec.code.kind, rec.well_oriented))
    half_edges.sort(key=lambda h: (h[0], h[1]))
    return {"vertices": vertices, "edges": edges, "half_edges": half_edges}


def _canonical(tree: ReductionTree):
    event_by_path = {ev["path"]: ev for ev in tree.events}
    kids = {p: [] for p in event_by_path}
    roots = []
    for p, ev in event_by_path.items():
        parent = p[:-1] if p else None
        if parent in event_by_path:
            kids[parent].append(p)
        else:
            roots.append(p)
    leaf_by_parent = {}
    for rec in tree.leaves:
        parent = rec.path[:-1] if rec.path else None
        key = parent if parent in event_by_path else None
        leaf_by_parent.setdefault(key, []).append(
            (rec.code.kind, len(rec.components), rec.well_oriented))

    def encode(p):
        ev = event_by_path[p]
        sub = tuple(sorted(encode(q) for q in kids[p]))
        leaves = tuple(sorted(leaf_by_parent.get(p, [])))
        return (len(ev["through"]), ev["dicritical"], leaves, sub)

    top = tuple(sorted(encode(p) for p in roots))
    stray = tuple(sorted(leaf_by_parent.get(None, [])))
    return (top, stray)


def trees_equivalent(t1: ReductionTree, t2: ReductionTree) -> bool:
    """Combinatorial equivalence of two reduction histories."""
    return _canonical(t1) == _canonical(t2)
