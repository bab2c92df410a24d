"""Three-variable singularities: dimensional type, simple-model matching,
plane sections and the blow-up script harness.

A germ in three variables is matched against the list of simple models:
the nonresonant linear model, the three saddle-node shaped models with a
resonant series factor, and the cylinder cases over the plane models.
Sections by embedded planes pull the foliation back to two variables
where the plane reduction machinery applies; a seeded family of sections
drives the section-based second-type test.
"""

from __future__ import annotations

import itertools
import random
from math import gcd as _igcd, lcm as _lcm

from .fields import (
    FieldElement,
    FieldError,
    Inconclusive,
    common_denominator,
    eigenvalue_ratio,
)
from .forms import (
    DivisorBranch,
    LocalDivisor,
    OneForm2,
    OneForm3,
    PrecisionError,
    integrable3,
    invariant_surface3,
    normalize2,
    normalize3,
    nu0,
    pullback,
)
from .blowup import blowup_curve3, blowup_point3
from .linalg import nullspace
from .poly import (MPoly, exact_divide, monomials_below,
                   multiplication_matrix)
from .reduce2d import (
    NON_SIMPLE,
    REGULAR,
    SADDLE_NODE,
    SIMPLE,
    classify_point2,
    is_second_type2,
)


class InconclusiveError(FieldError, Inconclusive):
    """A three-variable question could not be settled by these methods."""


# ---------------------------------------------------------------------------
# dimensional type


def _cylinder_candidate(form: OneForm3, order: int):
    """Constant part of a polynomial vector field X of degree below
    `order` with i_X(form) = 0 modulo degree `order`, or None."""
    # the null-space basis follows the column order, so the shifts stay
    # by (degree, exponent); (0, 0, 0) leads each block of n columns
    monos = sorted(monomials_below(3, order), key=lambda e: (sum(e), e))
    rows, _ = multiplication_matrix(form.coeffs(), monos,
                                    lambda E: sum(E) <= order)
    n = len(monos)
    for vec in nullspace(rows, 3 * n, form.desc):
        v = (vec[0], vec[n], vec[2 * n])
        if any(not c.is_zero() for c in v):
            return v
    return None


def dimensional_type(form: OneForm3):
    """(tau, direction): the smallest number of variables needed to
    define the germ, 1 (regular), 2 or 3, and for tau = 2 the constant
    part X(0) != 0 of a formal vector field X with i_X(form) = 0 on
    6-jets; direction is None otherwise.

    By integrability such a field is an infinitesimal symmetry tangent to
    the foliation, so the germ is a cylinder along X(0) even when the
    straightening change of coordinates is only formal.  A cheap order-4
    pass filters out most points first; it cannot change the answer, as
    an order-6 solution truncates to an order-4 one with the same X(0).
    A coordinate w whose coefficient is zero and which no coefficient
    involves is read first, as direction e_w, with no solve.  Otherwise
    a germ whose coefficients all have order >= 7 raises
    InconclusiveError: its 6-jets are zero and fix no direction.
    """
    form = normalize3(form)
    coeffs = form.coeffs()
    if any(not p.constant_coefficient().is_zero() for p in coeffs):
        return 1, None
    for w, c in zip(form.vars, coeffs):
        if c.is_zero() and all(p.degree_in(w) < 1 for p in coeffs):
            return 2, tuple(form.desc.one() if v == w else form.desc.zero()
                            for v in form.vars)
    if nu0(form) >= 7:
        raise InconclusiveError(
            "6-jets do not fix the cylinder direction of this germ")
    if _cylinder_candidate(form, 4) is None:
        return 3, None
    direction = _cylinder_candidate(form, 6)
    return (3, None) if direction is None else (2, direction)


# ---------------------------------------------------------------------------
# simple-model matching


class Model3Match:
    """Result of matching a germ against the simple models.

    `code` is one of A, B1, B2, B3 (three-variable models), a, b1, b2
    (cylinders over the plane models) or NotSimple.  `weak_planes` holds
    local equations of the weak separatrix surfaces of the saddle-node
    shaped models.  `axis` is the coordinate along which a germ of
    dimensional type 2 is a cylinder, and None otherwise; reports do not
    render it.
    """

    __slots__ = ("code", "tau", "residues", "powers", "weak_planes", "axis")

    def __init__(self, code, tau, residues=(), powers=(), weak_planes=()):
        self.code = code
        self.tau = tau
        self.residues = tuple(residues)
        self.powers = tuple(powers)
        self.weak_planes = tuple(weak_planes)
        self.axis = None

    def is_simple(self) -> bool:
        return self.code != "NotSimple"

    def __repr__(self):
        return "Model3Match(%s, tau=%d)" % (self.code, self.tau)


def _perm_poly(p: MPoly, perm):
    coeffs = {tuple(e[perm[i]] for i in range(3)): c
              for e, c in p.coeffs.items()}
    return MPoly(p.vars, coeffs, p.desc, p.prec)


def _residue_series(p: MPoly, divisors, N: int):
    """p divided by the product of coordinate variables in `divisors`."""
    if p.is_zero():
        return MPoly.zero(p.vars, p.desc, N)
    q = p
    for w in divisors:
        if q.min_exponent_in(w) < 1:
            return None
        q = q.divide_var_power(w, 1)
    return q.truncate(N) if q.prec is None or q.prec > N else q


def _lead_term(q: MPoly):
    e = min(q.coeffs, key=lambda t: (sum(t), t))
    return e, q.coeffs[e]


def _monomial_series_lead(q: MPoly, pvec):
    """The leading coefficient lam of q = lam * phi(x^p1 y^p2 z^p3), phi of
    leading coefficient one, or None when q is not a series in that single
    monomial."""
    terms = {}
    axis = next(i for i, p in enumerate(pvec) if p)
    for e, c in q.coeffs.items():
        k, rem = divmod(e[axis], pvec[axis])
        if rem or k < 1 or any(e[i] != k * pvec[i] for i in range(3)):
            return None
        terms[k] = c
    if not terms:
        return None
    return terms[min(terms)]


def _positive_rational(r: FieldElement):
    if r.is_rational():
        f = r.as_fraction()
        if f > 0:
            return f
    return None


def _pair_nonresonant(l2: FieldElement, l3: FieldElement) -> bool:
    """No relation m2*l2 + m3*l3 = 0 with m2, m3 >= 0 not both zero."""
    if l2.is_zero() or l3.is_zero():
        # one vanishing residue is tolerated; the relation with the other
        # alone is then excluded by its nonvanishing
        return not (l2.is_zero() and l3.is_zero())
    r = l2 / l3
    return not (r.is_rational() and r.as_fraction() < 0)


def _fully_nonresonant(lams) -> bool:
    """No relation m . lam = 0 with m in Z_{>=0}^3 \\ 0.

    The relations are the integer points of the kernel of the rational
    matrix whose columns are the coordinates of the lam_i: the rational
    and sqrt(m) parts, over Q(s) the numerator coefficients of both over
    one common denominator.  The kernel is rational, so a relation exists
    exactly when it meets the closed positive octant outside 0: at rank
    2 when its generator r1 x r2 has one sign, at rank 1 unless the
    normal r1 is strictly of one sign, never at rank 3.
    """
    d = common_denominator(lams) if lams[0].desc.parameter else None
    rows = {}
    for i, lam in enumerate(lams):
        for part, c in enumerate((lam.a, lam.b)):
            for k, q in enumerate((c,) if d is None
                                  else (c * d).coefficients()):
                rows.setdefault((part, k), [0, 0, 0])[i] = q
    rows = [r for r in rows.values() if any(r)]
    if not rows:
        return False
    r1 = rows[0]
    for r2 in rows[1:]:
        w = (r1[1] * r2[2] - r1[2] * r2[1], r1[2] * r2[0] - r1[0] * r2[2],
             r1[0] * r2[1] - r1[1] * r2[0])
        if any(w):
            break
    else:
        return all(c > 0 for c in r1) or all(c < 0 for c in r1)
    if any(sum(a * b for a, b in zip(w, r)) for r in rows):
        return True
    return not (all(c >= 0 for c in w) or all(c <= 0 for c in w))


def _integer_powers(a0: FieldElement, others):
    """Coprime positive integers (p1, p2, ...) with others[i] / a0 equal
    to p_(i+2) / p1, or None when a ratio is not a positive rational."""
    ratios = [_positive_rational(r / a0) for r in others]
    if any(r is None for r in ratios):
        return None
    p1 = _lcm(*(r.denominator for r in ratios))
    powers = [p1] + [int(r * p1) for r in ratios]
    g = _igcd(*powers)
    return tuple(p // g for p in powers)


def _match_tau3(form: OneForm3, jet_order: int):
    x, y, z = form.vars
    for perm in itertools.permutations(range(3)):
        A, B, C = (_perm_poly(form.coeffs()[i], perm) for i in perm)
        a = _residue_series(A, (y, z), jet_order)
        b = _residue_series(B, (x, z), jet_order)
        c = _residue_series(C, (x, y), jet_order)
        if a is None or b is None or c is None:
            continue
        a0, b0, c0 = (p.constant_coefficient() for p in (a, b, c))
        if not a0 or (c0 and not b0):
            continue
        if b0:
            # model B3 (c0 != 0) or B2 (c0 = 0, weak plane {z = 0}):
            # positive integer residue ratios.  B3 is tried before model
            # A because integer residue ratios always pass the zero-sum
            # non-resonance check yet the germ need not be linearizable.
            powers = _integer_powers(a0, (b0, c0) if c0 else (b0,))
            if powers is not None and not c.is_zero():
                qb, qc = (exact_divide(p, a) for p in (b, c))
                match = _model_b(qb, qc, powers, perm)
                if match is not None:
                    return match
            # model A: three nonzero, fully non-resonant residues.  The
            # residue series need not be constant: a non-resonant germ is
            # formally linearizable, so unit factors picked up along the
            # way do not change the model.
            if c0 and _fully_nonresonant((a0, b0, c0)):
                return Model3Match("A", 3, residues=(a0, b0, c0))
            continue
        # model B1: one nonzero residue, weak planes {y = 0}, {z = 0}
        qb, qc = (exact_divide(p, a) for p in (b, c))
        if any(q.is_zero() or q.degree_in(y) or q.degree_in(z)
               for q in (qb, qc)):
            continue
        p1 = _igcd(*(e[0] for q in (qb, qc) for e in q.coeffs))
        match = _model_b(qb, qc, (p1,), perm)
        if match is not None:
            return match
    return Model3Match("NotSimple", 3)


def _model_b(qb: MPoly, qc: MPoly, powers, perm):
    """Model B<k>, k = len(powers), from qb = b/a and qc = c/a, or None.

    With (p1, p2, p3) the powers padded by zeros, p1 qb - p2 and
    p1 qc - p3 must be lam_b phi and lam_c phi for one series phi in
    x^p1 y^p2 z^p3; a residue lam whose power is 0 must not vanish, and
    (lam_b, lam_c) must be non-resonant.  The weak planes are the
    coordinate planes past the powers.
    """
    vars3, desc = qb.vars, qb.desc
    pvec = tuple(powers) + (0,) * (3 - len(powers))
    p1 = desc.rational(pvec[0])
    got = _extract_pair(qb.scale(p1) - desc.rational(pvec[1]),
                        qc.scale(p1) - desc.rational(pvec[2]), pvec)
    if got is None:
        return None
    l2, l3 = got
    if (any(not l for l, p in zip((l2, l3), pvec[1:]) if not p)
            or not _pair_nonresonant(l2, l3)):
        return None
    k = len(powers)
    planes = [MPoly.variable(vars3, vars3[perm[i]], desc) for i in range(k, 3)]
    return Model3Match("B%d" % k, 3, residues=(p1, l2, l3), powers=powers,
                       weak_planes=planes)


def _extract_pair(qb: MPoly, qc: MPoly, pvec):
    """Both series must be multiples of one phi(x^p1 y^p2 z^p3); returns
    (lam_b, lam_c) or None.  One of the two may vanish.  lam_q is the
    leading coefficient of q: both leads are nonzero and lie below the
    joint precision, so q lam_ref = ref lam_q forces one leading exponent,
    and q = lam_q phi."""
    desc = qb.desc
    ref = qc if not qc.is_zero() else qb
    if ref.is_zero():
        return None
    lam_ref = _monomial_series_lead(ref, pvec)
    if lam_ref is None:
        return None
    out = []
    for q in (qb, qc):
        if q.is_zero():
            out.append(desc.zero())
            continue
        _, lam_q = _lead_term(q)
        if not (q.scale(lam_ref) - ref.scale(lam_q)).is_zero():
            return None
        out.append(lam_q)
    return out[0], out[1]


def _plane_trace(form: OneForm3, w: str, value=0) -> OneForm2:
    """The pull-back of the form by the inclusion of the plane {w = value}
    (value a constant): at 0, the plane form left by a cylinder along w."""
    others = tuple(v for v in form.vars if v != w)
    mapping = {v: MPoly.variable(others, v, form.desc) for v in others}
    mapping[w] = MPoly.constant(others, value, form.desc)
    return OneForm2(*pullback(form.coeffs(), form.vars, mapping), others)


def _match_tau2(form: OneForm3, direction, jet_order: int):
    # only a coordinate axis is read; the cylinder itself may be dressed
    # by a formal straightening
    axes = [w for w, c in zip(form.vars, direction) if not c.is_zero()]
    if len(axes) != 1:
        raise InconclusiveError("cylinder direction is not a coordinate"
                                " axis in these coordinates")
    w = axes[0]
    # the trace on a plane can carry a common factor
    form2 = normalize2(_plane_trace(form, w))
    code, _, M = classify_point2(form2, LocalDivisor.empty())
    if code.kind == REGULAR:
        # a cylinder over a regular plane germ would be regular itself
        raise InconclusiveError(
            "6-jets do not fix the cylinder direction of this germ")
    if code.kind == NON_SIMPLE:
        match = Model3Match("NotSimple", 2)
    elif code.kind == SADDLE_NODE:
        from .separatrix import weak_separatrix_jet
        try:
            weak = weak_separatrix_jet(form2, N=jet_order)
            planes = (_lift_to3(weak.implicit, form.vars),)
        except (ValueError, PrecisionError):
            planes = ()
        match = Model3Match("b1", 2, weak_planes=planes)
    else:
        # nondegenerate: resonant (negative rational quotient) or not
        tr = M[0][0] + M[1][1]
        det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        resonant = eigenvalue_ratio(tr, det) == "negative"
        residues = ()
        u2, v2 = form2.vars
        ra = _residue_series(form2.A, (v2,), jet_order)
        rb = _residue_series(form2.B, (u2,), jet_order)
        if ra is not None and rb is not None:
            residues = (ra.constant_coefficient(), rb.constant_coefficient())
        match = Model3Match("b2" if resonant else "a", 2, residues=residues)
    match.axis = w
    return match


def _lift_to3(eq2: MPoly, vars3):
    """A two-variable equation as a cylinder equation in three variables;
    the plane variables must be among vars3."""
    pos = [vars3.index(v) for v in eq2.vars]
    coeffs = {}
    for e, c in eq2.coeffs.items():
        e3 = [0, 0, 0]
        e3[pos[0]], e3[pos[1]] = e
        coeffs[tuple(e3)] = c
    return MPoly(vars3, coeffs, eq2.desc, eq2.prec)


def match_simple_model3(form: OneForm3, D: LocalDivisor = None,
                        jet_order: int = 8) -> Model3Match:
    """Match a singular germ against the simple models in three variables."""
    form = normalize3(form)
    if not integrable3(form):
        raise ValueError("the form is not integrable")
    tau, direction = dimensional_type(form)
    if tau == 1:
        raise ValueError("model matching needs a singular point")
    if D is not None:
        e = len([b for b in D])
        if not tau - 1 <= e <= tau:
            raise ValueError("divisor is not adapted to the point")
    if tau == 2:
        return _match_tau2(form, direction, jet_order)
    return _match_tau3(form, jet_order)


def _same_surface(p: MPoly, q: MPoly) -> bool:
    """Equality of reduced equations up to a scalar, at joint precision."""
    if p.vars != q.vars:
        return False
    _, cp = _lead_term(p)
    _, cq = _lead_term(q)
    a = p.scale(cp.inverse())
    b = q.scale(cq.inverse())
    precs = [x for x in (a.prec, b.prec) if x is not None]
    if precs:
        N = min(precs)
        a, b = a.truncate(N), b.truncate(N)
    return (a - b).is_zero()


def well_oriented3(match: Model3Match, D: LocalDivisor) -> bool:
    """Whether no weak separatrix surface lies inside the divisor."""
    if not match.is_simple():
        raise ValueError("well-orientedness is defined at simple points")
    for w in match.weak_planes:
        for b in D.invariant_part():
            if _same_surface(w, b.equation):
                return False
    return True


# ---------------------------------------------------------------------------
# plane sections


class SectionMap:
    """A plane germ (u, v) -> (phi_1, phi_2, phi_3) into three-space."""

    __slots__ = ("components", "vars", "desc")

    def __init__(self, components):
        components = tuple(components)
        if len(components) != 3:
            raise ValueError("a section map needs three components")
        desc = components[0].desc
        vars2 = components[0].vars
        if len(vars2) != 2:
            raise ValueError("section components live in two variables")
        for c in components:
            if c.vars != vars2 or c.desc != desc:
                raise FieldError("mismatched section components")
            if not c.constant_coefficient().is_zero():
                raise ValueError("section must send the origin to the origin")
        self.components = components
        self.vars = vars2
        self.desc = desc

    def __repr__(self):
        return "SectionMap(%s)" % ", ".join(c.render() for c in self.components)


def pullback_section(form: OneForm3, phi: SectionMap) -> OneForm2:
    """Pull the form back along the section and normalize the result."""
    if phi.desc != form.desc:
        raise FieldError("section and form live over different towers")
    G = OneForm2(*pullback(form.coeffs(), form.vars,
                           dict(zip(form.vars, phi.components))), phi.vars)
    if G.is_zero():
        raise ValueError("the section is invariant; pull-back vanishes")
    return normalize2(G)  # a pull-back can carry a common factor


# ---------------------------------------------------------------------------
# section-based second-type test


class Verdict3:
    """Outcome of the section-based second-type test.  An Inconclusive
    verdict lists in `notes` the reasons that left it undecided; they end
    its evidence too."""

    __slots__ = ("kind", "witnesses", "evidence", "notes")

    def __init__(self, kind, witnesses=(), evidence=(), notes=()):
        self.kind = kind  # SecondType | NotSecondType | Inconclusive
        self.witnesses = tuple(witnesses)
        self.notes = tuple(notes)
        self.evidence = tuple(evidence) + self.notes

    def __bool__(self):
        return self.kind == "SecondType"

    def __repr__(self):
        return "Verdict3(%s)" % self.kind


def _invariant_planes(form: OneForm3):
    planes = []
    for w in form.vars:
        eq = MPoly.variable(form.vars, w, form.desc)
        try:
            if invariant_surface3(form, eq):
                planes.append(w)
        except PrecisionError:
            pass
    return planes


def _singular_axes(form: OneForm3):
    desc = form.desc
    axes = []
    for kept in form.vars:
        fixed = {w: desc.zero() for w in form.vars if w != kept}
        if all(p.restrict(fixed).is_zero() for p in form.coeffs()):
            axes.append(kept)
    return axes


def _axis_trace_form(form: OneForm3, kept: str):
    """The foliation on a transversal plane at a generic axis point, over
    the tower extended by a transcendental parameter."""
    desc_s = form.desc.with_parameter("s")
    return (_plane_trace(form.coerce_to(desc_s), kept, desc_s.param_gen()),
            desc_s)


def _axis_divisor(branches, kept: str, vars2, value) -> LocalDivisor:
    """The traces on the plane {kept = value}, in `vars2`, of the divisor
    branches that contain the axis of `kept`, with their dicritical tags:
    the branches through a generic point of the axis."""
    traces = []
    for b in branches:
        eq = b.equation
        if eq.restrict({w: 0 for w in eq.vars if w != kept}).is_zero():
            tr = eq.coerce_to(value.desc).restrict({kept: value})
            traces.append(DivisorBranch(tr.rename(vars2), b.dicritical))
    return LocalDivisor(traces)


def _random_section(rng, vars2, desc):
    u, v = vars2
    uu = MPoly.variable(vars2, u, desc)
    vv = MPoly.variable(vars2, v, desc)
    while True:
        rows = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)]
        minors = [rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0]
                  for i, j in ((0, 1), (0, 2), (1, 2))]
        if any(minors) and all(r != (0, 0) for r in rows):
            break
    comps = []
    for r in rows:
        comp = uu.scale(desc.rational(r[0])) + vv.scale(desc.rational(r[1]))
        quad = [(rng.randint(-1, 1)) for _ in range(3)]
        comp = comp + (uu * uu).scale(desc.rational(quad[0])) \
            + (uu * vv).scale(desc.rational(quad[1])) \
            + (vv * vv).scale(desc.rational(quad[2]))
        comps.append(comp)
    return SectionMap(comps), rows


def second_type3_via_sections(form: OneForm3, trials: int = 8, seed: int = 0,
                              jet_order: int = 8,
                              max_depth: int = 64) -> Verdict3:
    """Decide second type through plane sections and transversal types.

    A tangent saddle-node found in any pulled-back reduction, or in the
    transversal type along a singular axis, falsifies second type and is
    reported as a witness.  The positive answer combines clean sampled
    sections with exhaustive checks along the singular locus; when a
    subcomputation leaves the supported towers the verdict degrades to
    Inconclusive rather than guessing.
    """
    form = normalize3(form)
    if not integrable3(form):
        raise ValueError("the form is not integrable")
    desc = form.desc
    if any(not p.constant_coefficient().is_zero() for p in form.coeffs()):
        return Verdict3("SecondType", evidence=("regular point",))
    witnesses = []
    evidence = []
    notes = []
    planes = _invariant_planes(form)
    plane_branches = [DivisorBranch(MPoly.variable(form.vars, w, desc))
                      for w in planes]

    # transversal type at a generic point of each singular axis
    for kept in _singular_axes(form):
        try:
            form2, desc_s = _axis_trace_form(form, kept)
            D2 = _axis_divisor(plane_branches, kept, form2.vars,
                               desc_s.param_gen())
            st = is_second_type2(form2, D2, max_depth)
            if not st:
                witnesses.append(("axis", kept, st.witnesses))
            else:
                evidence.append("axis %s: transversal reduction clean" % kept)
        except Inconclusive as exc:
            notes.append("axis %s: %s" % (kept, exc))

    # the origin itself
    origin_ok = False
    try:
        match = match_simple_model3(form, None, jet_order)
        if match.is_simple():
            origin_ok = True
            evidence.append("origin matches model %s" % match.code)
        elif match.tau == 2:
            w = match.axis
            form2 = _plane_trace(form, w)
            D2 = _axis_divisor(plane_branches, w, form2.vars, desc.zero())
            st = is_second_type2(form2, D2, max_depth)
            if not st:
                witnesses.append(("origin", w, st.witnesses))
            else:
                origin_ok = True
                evidence.append("origin: cylinder reduction clean")
        else:
            origin_ok = _logarithmic_certificate(form, evidence, notes,
                                                 jet_order)
    except Inconclusive as exc:
        notes.append("origin: %s" % exc)

    # sampled plane sections
    rng = random.Random(seed)
    target = nu0(form)
    clean = 0
    for trial in range(trials):
        section = None
        for _ in range(40):
            cand, rows = _random_section(rng, ("u", "v"), desc)
            try:
                G = pullback_section(form, cand)
            except ValueError:
                continue
            if nu0(G) == target:
                section = (cand, rows, G)
                break
        if section is None:
            notes.append("trial %d: no multiplicity-preserving section" % trial)
            continue
        cand, rows, G = section
        branches = []
        degenerate = False
        for w in planes:
            eq = cand.components[form.vars.index(w)]
            lin = [c for e, c in eq.coeffs.items() if sum(e) == 1]
            if not lin:
                degenerate = True
                break
            branches.append(DivisorBranch(eq, False))
        if degenerate:
            notes.append("trial %d: divisor trace not smooth" % trial)
            continue
        try:
            st = is_second_type2(G, LocalDivisor(branches), max_depth)
        except Inconclusive as exc:
            notes.append("trial %d: %s" % (trial, exc))
            continue
        if not st:
            witnesses.append(("section", rows, st.witnesses))
        else:
            clean += 1
    if clean:
        evidence.append("%d section pull-backs reduced cleanly" % clean)

    if witnesses:
        return Verdict3("NotSecondType", witnesses=witnesses,
                        evidence=evidence)
    if origin_ok and not notes and (clean or trials == 0):
        return Verdict3("SecondType", evidence=evidence)
    return Verdict3("Inconclusive", evidence=evidence, notes=notes)


def _logarithmic_certificate(form: OneForm3, evidence, notes,
                             jet_order: int) -> bool:
    """Normal-crossings logarithmic germ whose residues are pairwise
    rationally independent never develops a saddle-node: certify that."""
    x, y, z = form.vars
    a = _residue_series(form.A, (y, z), jet_order)
    b = _residue_series(form.B, (x, z), jet_order)
    c = _residue_series(form.C, (x, y), jet_order)
    if a is None or b is None or c is None:
        notes.append("origin: no simple model and not logarithmic")
        return False
    lams = [p.constant_coefficient() for p in (a, b, c)]
    if any(l.is_zero() for l in lams):
        notes.append("origin: vanishing logarithmic residue")
        return False
    if not ((b.scale(lams[0]) - a.scale(lams[1])).is_zero()
            and (c.scale(lams[0]) - a.scale(lams[2])).is_zero()):
        notes.append("origin: residue series are not constant")
        return False
    for i, j in ((0, 1), (0, 2), (1, 2)):
        r = lams[i] / lams[j]
        if r.is_rational():
            notes.append("origin: residues %d and %d rationally dependent"
                         % (i, j))
            return False
    evidence.append("origin: logarithmic with pairwise irrational residues")
    return True


# ---------------------------------------------------------------------------
# blow-up script harness


class PointRecord:
    """One checkpoint of the harness with its classification."""

    __slots__ = ("path", "where", "result", "simple", "well_oriented")

    def __init__(self, path, where, result, simple, well_oriented=None):
        self.path = path
        self.where = where
        self.result = result
        self.simple = simple
        self.well_oriented = well_oriented

    def __repr__(self):
        return "PointRecord(%s %s: %s)" % ("/".join(self.path) or ".",
                                           self.where, self.result)


class TheoremReport:
    __slots__ = ("ok", "records", "diagnostics")

    def __init__(self, ok, records, diagnostics):
        self.ok = ok
        self.records = tuple(records)
        self.diagnostics = tuple(diagnostics)

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "TheoremReport(ok=%s, %d records)" % (self.ok, len(self.records))


def theorem_main_harness(form: OneForm3, surfaces, script,
                         jet_order: int = 8) -> TheoremReport:
    """Run a prescribed sequence of point and axis blow-ups and verify
    that every final checkpoint is a simple, well-oriented singularity
    and that the strict transforms of the declared separatrix surfaces
    stay smooth.

    `script` is a list of (path, center) pairs; `path` is a tuple of
    chart labels and `center` is "point" or "axis-<var>".
    """
    diagnostics = []
    records = []
    form = normalize3(form)
    if not integrable3(form):
        raise ValueError("the form is not integrable")
    for s in surfaces:
        try:
            if not invariant_surface3(form, s):
                diagnostics.append("declared surface %s is not invariant"
                                   % s.render())
        except PrecisionError as exc:
            diagnostics.append("surface %s: %s" % (s.render(), exc))
    panels = {(): (form, LocalDivisor.empty(), list(surfaces))}
    for path, center in script:
        path = tuple(path)
        if path not in panels:
            diagnostics.append("script path %r does not name a live chart"
                               % (path,))
            return TheoremReport(False, records, diagnostics)
        f, D, seqs = panels.pop(path)
        try:
            if center == "point":
                charts = blowup_point3(f, D)
            elif center.startswith("axis-"):
                charts = blowup_curve3(f, center[len("axis-"):], D)
            else:
                raise ValueError("unknown center %r" % (center,))
        except ValueError as exc:
            diagnostics.append("blow-up at %r refused: %s" % (path, exc))
            return TheoremReport(False, records, diagnostics)
        for chart in charts:
            if chart.dicritical:
                diagnostics.append(
                    "dicritical exceptional component in chart %s at %r"
                    % (chart.label, path))
            new_seqs = [t for t in map(chart.strict, seqs) if t is not None]
            panels[path + (chart.label,)] = (chart.form, chart.divisor,
                                             new_seqs)

    all_simple = True
    for path in sorted(panels):
        f, D, seqs = panels[path]
        f = normalize3(f)
        local = [b for b in D if b.equation.constant_coefficient().is_zero()]
        if any(not p.constant_coefficient().is_zero() for p in f.coeffs()):
            records.append(PointRecord(path, "origin", REGULAR, True))
        else:
            try:
                match = match_simple_model3(f, None, jet_order)
                simple = match.is_simple()
                well = well_oriented3(match, LocalDivisor(local)) \
                    if simple else None
                records.append(PointRecord(path, "origin", match.code,
                                           simple, well))
                if not simple or well is False:
                    all_simple = False
            except (Inconclusive, ValueError) as exc:
                diagnostics.append("origin of %r: %s" % (path, exc))
                records.append(PointRecord(path, "origin", "Unresolved",
                                           False))
                all_simple = False
        for kept in _singular_axes(f):
            try:
                form2, desc_s = _axis_trace_form(f, kept)
                code, well, _ = classify_point2(form2, _axis_divisor(
                    local, kept, form2.vars, desc_s.param_gen()))
                simple = code.kind in (SIMPLE, SADDLE_NODE, REGULAR)
                records.append(PointRecord(path, "axis-" + kept, code.kind,
                                           simple, well))
                if not simple or (code.kind == SADDLE_NODE and not well):
                    all_simple = False
            except Inconclusive as exc:
                diagnostics.append("axis %s of %r: %s" % (kept, path, exc))
                all_simple = False
        for s in seqs:
            if not s.constant_coefficient().is_zero():
                continue
            if s.homogeneous_part(1).is_zero():
                diagnostics.append(
                    "separatrix strict transform singular at origin of %r"
                    % (path,))
                all_simple = False
    ok = all_simple and not diagnostics
    return TheoremReport(ok, records, diagnostics)
