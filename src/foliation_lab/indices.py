"""Projective foliations and their index arithmetic.

Degree-d foliations of the projective plane (and 3-space) are given by
homogeneous 1-forms satisfying the Euler condition.  The module builds
logarithmic foliations from factor/residue data, locates the plane
singularities chart by chart, evaluates Camacho-Sad, Gomez-Mont-Seade-
Verjovski and Baum-Bott indices at reduced singular points, verifies the
classical index sum formulas, and decides the logarithmic criterion
through the pole degree of a plane section.

At a non-degenerate point every index is read from the linear part:
Baum-Bott is tr^2/det, and the Camacho-Sad and GSV indices of a curve
with smooth branches of distinct tangents come from the eigenvalues on
the tangents (_curve_indices).  At a saddle-node they are read along the
separatrices traced from its strong and weak directions (_germ_branches),
each given by a parametrization and an implicit jet: Camacho-Sad pulls
the form back along the parametrization (forms.pullback), GSV compares
the form with the gradient of the curve along it, and Baum-Bott is
CS + 2 GSV over both separatrices.  No tangent cone is ever split.
"""

from __future__ import annotations

from .fields import (FieldDescriptor, FieldElement, Inconclusive, RatFunc,
                     common_denominator, sort_key, widening)
from .forms import (LocalDivisor, OneForm2, PrecisionError, integrable,
                    invariant_hypersurface, normalize2, pullback)
from .poly import (
    MPoly,
    _utrim,
    divides,
    exact_divide,
    gcd_bivariate,
    interpolate,
    interpolate_parameter,
    specialize,
    to_univariate,
    u_gcd,
    u_resultant,
    u_roots_in_tower,
)
from .reduce2d import SADDLE_NODE, _branch_tangent, classify_point2
from .separatrix import _leaf_frame, _trace_graph

_UV = ("u", "v")


class DegeneratePointError(ValueError, Inconclusive):
    """An index at a degenerate singular point is out of reach here."""


class SingularBranchError(ValueError, Inconclusive):
    """A singular curve branch, or two branches with one tangent, are out
    of reach of the smooth-branch index formulas here."""


class PositiveDimensionalLocusError(ValueError, Inconclusive):
    """The singular locus of a plane foliation has a curve component, so
    its singular points are not isolated and no index sum is read."""

    def __init__(self):
        super().__init__("the singular locus is positive-dimensional")


# ---------------------------------------------------------------------------
# projective 1-forms


def _homogeneous_degree(p: MPoly):
    """The degree of a homogeneous polynomial, or None for zero; raises
    for inhomogeneous input."""
    if p.is_zero():
        return None
    degs = {sum(e) for e in p.coeffs}
    if len(degs) != 1:
        raise ValueError("coefficient is not homogeneous")
    return degs.pop()


class ProjFoliation:
    """A foliation of P^2 or P^3 by a homogeneous 1-form.

    Coefficients are homogeneous of degree d+1 where d is the degree of
    the foliation; the Euler contraction sum x_i A_i vanishes, and in
    four variables the form is integrable.
    """

    __slots__ = ("coeffs", "vars", "degree", "desc")

    def __init__(self, coeffs, variables=None):
        coeffs = tuple(coeffs)
        vars_ = tuple(variables) if variables is not None else coeffs[0].vars
        if len(coeffs) != len(vars_) or len(vars_) not in (3, 4):
            raise ValueError("a projective form needs 3 or 4 coefficients")
        desc = coeffs[0].desc
        degs = set()
        for p in coeffs:
            if p.prec is not None:
                raise ValueError("projective coefficients must be exact")
            d = _homogeneous_degree(p)
            if d is not None:
                degs.add(d)
        if len(degs) != 1:
            raise ValueError(
                "coefficients must be homogeneous of one common degree")
        euler = MPoly.zero(vars_, desc)
        for w, p in zip(vars_, coeffs):
            euler = euler + p * MPoly.variable(vars_, w, desc)
        if not euler.is_zero():
            raise ValueError("the Euler condition fails")
        if len(vars_) == 4 and not integrable(coeffs, vars_):
            raise ValueError("the form is not integrable")
        self.coeffs = coeffs
        self.vars = vars_
        self.degree = degs.pop() - 1
        self.desc = desc

    def coerce_to(self, desc: FieldDescriptor) -> "ProjFoliation":
        return ProjFoliation(tuple(p.coerce_to(desc) for p in self.coeffs),
                             self.vars)

    def __repr__(self):
        return "ProjFoliation(degree=%d, vars=%s)" % (self.degree, self.vars)


class LogarithmicData:
    """Factors and residues of a logarithmic form sum lam_i dF_i / F_i.

    The residues must balance the factor degrees (sum lam_i deg F_i = 0)
    and the product of factors must be reduced.
    """

    __slots__ = ("factors", "residues", "vars", "desc")

    def __init__(self, factors, residues):
        factors = tuple(factors)
        residues = tuple(residues)
        if len(factors) != len(residues) or not factors:
            raise ValueError("factors and residues must pair up")
        vars_ = factors[0].vars
        desc = factors[0].desc
        residues = tuple(lam if isinstance(lam, FieldElement)
                         else desc.rational(lam) for lam in residues)
        balance = desc.zero()
        for f, lam in zip(factors, residues):
            if f.vars != vars_ or f.prec is not None:
                raise ValueError("factors must be exact and share variables")
            d = _homogeneous_degree(f)
            if d is None or d < 1:
                raise ValueError("factors must be nonzero and homogeneous")
            balance = balance + lam * desc.rational(d)
        if not balance.is_zero():
            raise ValueError("the residue condition sum lam_i deg F_i = 0 fails")
        for i, f in enumerate(factors):
            for g in factors[i + 1:]:
                if divides(f, g) or divides(g, f):
                    raise ValueError("the factor product is not reduced")
        self.factors = factors
        self.residues = residues
        self.vars = vars_
        self.desc = desc


def logarithmic_build(data: LogarithmicData) -> ProjFoliation:
    """The polynomial form F_1...F_l * sum lam_i dF_i / F_i."""
    desc = data.desc
    vars_ = data.vars
    coeffs = []
    for w in vars_:
        acc = MPoly.zero(vars_, desc)
        for i, (f, lam) in enumerate(zip(data.factors, data.residues)):
            term = f.partial(w).scale(lam)
            for j, g in enumerate(data.factors):
                if j != i:
                    term = term * g
            acc = acc + term
        coeffs.append(acc)
    return ProjFoliation(tuple(coeffs), vars_)


# ---------------------------------------------------------------------------
# plane singularities


class PlaneSingularity:
    """One singular point of a plane projective foliation.

    `point` is a normalized homogeneous coordinate triple, `chart` the
    variable set to one, and `form` the translated affine local 1-form in
    (u, v); `code` and `linear` come from the plane classification.
    `form` is built normalized when the point is found, with no
    normalize2 call: its coefficients are coprime (proved in
    _plane_sings, not certified), so they share no monomial either, and
    it carries the `coprime` flag.
    """

    __slots__ = ("point", "chart", "base", "form", "code", "well_oriented",
                 "linear", "desc")

    def __init__(self, point, chart, base, form, code, well_oriented, linear):
        self.point = tuple(point)
        self.chart = chart
        self.base = tuple(base)
        self.form = form
        self.code = code
        self.well_oriented = well_oriented
        self.linear = linear
        self.desc = form.desc

    def __repr__(self):
        return "PlaneSingularity(%s-chart, %s)" % (self.chart, self.code.kind)


def _dehomog(p: MPoly, drop: int) -> MPoly:
    """Set variable `drop` to one; remaining two become (u, v) in order."""
    return p.restrict({p.vars[drop]: 1}).rename(_UV)


_CHART_DROP = {"Z": 2, "Y": 1, "X": 0}


def localize_at(p: MPoly, sing: PlaneSingularity) -> MPoly:
    """Local equation of a homogeneous polynomial at a singular point."""
    q = _dehomog(p.coerce_to(sing.desc), _CHART_DROP[sing.chart])
    return q.translate({"u": sing.base[0], "v": sing.base[1]})


def _resultant_eliminating(p: MPoly, q: MPoly, var: str, desc):
    """Resultant of two exact bivariate polynomials eliminating `var`,
    as a univariate coefficient list in the other variable u
    (evaluation-interpolation).

    Without a parameter: the Sylvester resultants of p(u0, .) and
    q(u0, .) over the tower at deg p * deg q + 1 integer points u0, which
    bounds the degree in u of the resultant, interpolated.  Points where
    a leading coefficient in `var` vanishes are skipped: there the
    specialized resultant is not the specialization of the resultant.

    Over a tower with a parameter s: let L_p and L_q in Q[s] be the lcms
    of the denominators of p and q, P = L_p p and Q = L_q q, and d_p, d_q
    the degrees of p and q in `var`.  The resultant is homogeneous of
    degree d_q in the coefficients of p and of degree d_p in those of q,
    so Res(P, Q) = L_p^d_q L_q^d_p Res(p, q).  Each Sylvester row has at
    most the s-degree of its polynomial, so Res(P, Q) is a polynomial in
    (u, s) of degree at most D = d_q deg_s P + d_p deg_s Q in s.  Take
    D + 1 integer points s0 where no coefficient has a pole and neither
    degree in `var` drops.  At each, Res(p, q)(u, s0) is the resultant of
    the specializations over the tower without s, computed as above.
    The rational part and the square-root part of each coefficient in u
    of Res(P, Q) are then interpolated in s, which gives them exactly,
    and divided by L_p^d_q L_q^d_p.  No determinant runs over rational
    functions of s.
    """
    if desc.parameter is not None:
        return _resultant_by_specialization(p, q, var, desc)
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
    return interpolate(pts, vals)


def _resultant_by_specialization(p, q, var, desc):
    """_resultant_eliminating over a tower with a parameter."""
    dp, dq = p.degree_in(var), q.degree_in(var)
    scale = RatFunc(1)  # L_p^dq L_q^dp
    D = 0
    for f, k in ((p, dq), (q, dp)):
        den = common_denominator(f.coeffs.values())
        D += k * (max(c.degree() for x in f.coeffs.values()
                      for c in (x.a, x.b) if c) + den.degree())
        for _ in range(k):
            scale = scale * den
    length = p.degree() * q.degree() + 1
    pts, vals = [], []
    s0 = 0
    while len(pts) <= D:
        ps, qs = specialize(p, s0), specialize(q, s0)
        if (ps is not None and qs is not None and ps.degree_in(var) == dp
                and qs.degree_in(var) == dq):
            f = scale.at(s0)
            res = _resultant_eliminating(ps, qs, var, ps.desc)
            pts.append(s0)
            vals.append([c * f for c in res]
                        + [ps.desc.zero()] * (length - len(res)))
        s0 += 1
    inv = FieldElement(desc, 1 / scale, 0)
    return [interpolate_parameter(pts, [row[k] for row in vals], desc) * inv
            for k in range(length)]


def _affine_common_roots(a: MPoly, b: MPoly, desc: FieldDescriptor):
    """Common zeros of two exact bivariate polynomials, as (u, v) pairs.

    A gcd that is zero (a = b = 0) or of positive degree is a curve of
    common zeros.  Past that test a and b are coprime, so when one is zero
    the other is a nonzero constant: without v they have no common zero,
    and otherwise Res_v(a, b) != 0, as it vanishes only for a common
    factor of positive degree in v (a^deg_v(b) when deg_v a = 0).
    """
    if gcd_bivariate(a, b).degree() != 0:
        raise PositiveDimensionalLocusError()
    if a.degree_in("v") <= 0 and b.degree_in("v") <= 0:
        return []
    res = _resultant_eliminating(a, b, "v", desc)
    points = []
    for x0 in u_roots_in_tower(res, desc):
        ca = to_univariate(a.restrict({"u": x0}), "v")
        cb = to_univariate(b.restrict({"u": x0}), "v")
        if not ca or not cb:
            common = ca or cb
        else:
            common = u_gcd(ca, cb, desc)
        if len(common) <= 1:
            continue
        for y0 in u_roots_in_tower(common, desc):
            points.append((x0, y0))
    return points


def plane_singularities(fol: ProjFoliation):
    """All singular points over the field tower, with affine local forms."""
    if len(fol.vars) != 3:
        raise ValueError("plane singularities need a 3-variable form")
    return widening(lambda desc: _plane_sings(fol.coerce_to(desc)), fol.desc)


def _classified(point, chart, base, a, b):
    # a and b are coprime (see _plane_sings) and translation keeps it, so
    # the form is normalized as built: normalize2 would return it unchanged
    form = OneForm2(a.translate({"u": base[0], "v": base[1]}),
                    b.translate({"u": base[0], "v": base[1]}), _UV, True)
    code, well, M = classify_point2(form, LocalDivisor.empty())
    return PlaneSingularity(point, chart, base, form, code, well, M)


def _plane_sings(fol: ProjFoliation):
    """Singular points chart by chart: Z = 1, then Y = 1 on Z = 0, then
    (1 : 0 : 0).

    The two chart coefficients of every local form share no nonconstant
    factor, so the forms are built with `coprime` and need no normalize2:
    a common monomial would be a common factor.  In chart Z,
    _affine_common_roots has proved gcd(a, b) = 1.  In charts Y and X, a
    common factor would be a curve of singular points (the Euler relation
    makes the third coefficient vanish there too).  Off Z = 0 such a
    curve lies in chart Z, where coprime a and b have only finitely many
    common zeros; so it would be the line Z = 0, whose two restrictions
    in chart Y would then both vanish, and that is refused before any
    point of chart Y or X is built.
    """
    desc = fol.desc
    zero, one = desc.zero(), desc.one()
    A, B, C = fol.coeffs
    sings = []
    # chart Z = 1, coordinates (X, Y)
    a, b = _dehomog(A, 2), _dehomog(B, 2)
    pts = _affine_common_roots(a, b, desc)
    for x0, y0 in sorted(pts, key=lambda p: (sort_key(p[0]), sort_key(p[1]))):
        sings.append(_classified((x0, y0, one), "Z", (x0, y0), a, b))
    # chart Y = 1 restricted to Z = 0, coordinates (X, Z)
    a, c = _dehomog(A, 1), _dehomog(C, 1)
    ra = to_univariate(a.restrict({"v": zero}), "u")
    rc = to_univariate(c.restrict({"v": zero}), "u")
    if not ra and not rc:
        raise PositiveDimensionalLocusError()
    common = (ra or rc) if not (ra and rc) else u_gcd(ra, rc, desc)
    if len(common) > 1:
        for x0 in u_roots_in_tower(common, desc):
            sings.append(_classified((x0, one, zero), "Y", (x0, zero), a, c))
    # chart X = 1 at the single point Y = Z = 0
    b, c = _dehomog(B, 0), _dehomog(C, 0)
    if (b.constant_coefficient().is_zero()
            and c.constant_coefficient().is_zero()):
        sings.append(_classified((one, zero, zero), "X", (zero, zero), b, c))
    return sings


# ---------------------------------------------------------------------------
# index values


class IndexValue:
    """A residue-type index: exact value and kind."""

    __slots__ = ("value", "kind")

    def __init__(self, value: FieldElement, kind: str):
        self.value = value
        self.kind = kind

    def __repr__(self):
        return "IndexValue(%s, %s)" % (self.kind, self.value)


def _residue(n, m, desc: FieldDescriptor) -> FieldElement:
    """Residue at the origin of the Laurent series n(t)/m(t), where m
    holds the coefficients of t^0..t^N."""
    N = len(m) - 1
    m = _utrim(list(m))
    if not m:
        raise PrecisionError("the residue denominator vanishes through "
                             "order %d; raise --truncation" % N)
    r = 0
    while m[r].is_zero():
        r += 1
    if r == 0:
        return desc.zero()
    if 2 * r - 1 > N:
        raise PrecisionError("a pole of order %d needs the denominator "
                             "through order %d; raise --truncation"
                             % (r, 2 * r - 1))
    num, unit = (MPoly(("t",), {(k,): c for k, c in enumerate(s)}, desc, r)
                 for s in (n[:r], m[r:2 * r]))
    return exact_divide(num, unit).coefficient((r - 1,))


def cs_index(form: OneForm2, branch, N: int = 12) -> IndexValue:
    """Camacho-Sad index of a smooth invariant branch at the origin.

    `branch` carries a parametrization gamma (`param`); a bare equation f
    must be smooth and is traced first, as the leaf of df.  With
    n = d/dv, or d/du when gamma'(0) is vertical, the map
    (x, y) -> gamma(x) + y n straightens the branch to {y = 0}, and
    CS = -Res_x (d_n omega)(gamma') / omega(n)|_gamma: the numerator is
    the pull-back of (d_n A, d_n B) along gamma, the denominator the
    n-coefficient of omega along gamma.  The pull-back of omega along
    gamma must vanish below order N - 1.
    """
    form = normalize2(form)  # public entry: any form may come in
    if isinstance(branch, MPoly):
        if (branch.coefficient((1, 0)).is_zero()
                and branch.coefficient((0, 1)).is_zero()):
            raise SingularBranchError("the Camacho-Sad branch must be smooth")
        if not branch.constant_coefficient().is_zero():
            raise ValueError("the Camacho-Sad branch misses the origin")
        # the leaf of df through the origin, as _regular_branches traces it
        df = OneForm2(*map(branch.partial, branch.vars), branch.vars)
        branch = _CurveBranch(*_trace_graph(df, *_leaf_frame(df), N))
    gamma = branch.param.components
    coeffs, names = form.coeffs(), form.vars
    normal = names[0] if gamma[0].coefficient((1,)).is_zero() else names[1]
    along = dict(zip(names, gamma))
    # A and B along gamma, shared by the pull-back and the denominator
    images = [c.substitute(along) for c in coeffs]
    x = gamma[0].vars[0]
    tangent = images[0] * gamma[0].partial(x) + images[1] * gamma[1].partial(x)
    if any(not tangent.coefficient((k,)).is_zero() for k in range(N - 1)):
        raise ValueError("the branch is not invariant")
    num = pullback([c.partial(normal) for c in coeffs], names, along)[0]
    den = images[names.index(normal)]
    num, den = ([p.coefficient((k,)) for k in range(N + 1)] for p in (num, den))
    return IndexValue(-_residue(num, den, form.desc), "CS")


def _order_or_none(p: MPoly):
    return None if p.is_zero() else p.order()


def gsv_index(form: OneForm2, branches, g: MPoly = None,
              N: int = 12) -> IndexValue:
    """GSV index of the curve defined by `branches` (equation g).

    Along each branch the form is proportional to dg; the index is the
    total vanishing order of the proportionality factor, which realizes
    the decomposition route omega = h dg + g eta branch by branch.
    """
    form = normalize2(form)  # public entry: any form may come in
    desc = form.desc
    u, v = form.vars
    if not (form.A.constant_coefficient().is_zero()
            and form.B.constant_coefficient().is_zero()):
        # regular point on a smooth invariant branch: conventional value
        return IndexValue(desc.one(), "GSV")
    branches = list(branches)
    if g is None:
        g = MPoly.constant(form.vars, 1, desc)
        for br in branches:
            g = g * br.implicit
    gu, gv = g.partial(u), g.partial(v)
    total = 0
    for br in branches:
        g1, g2 = br.param.components
        sub = {u: g1, v: g2}
        a_g, b_g = form.A.substitute(sub), form.B.substitute(sub)
        gu_g, gv_g = gu.substitute(sub), gv.substitute(sub)
        cross = a_g * gv_g - b_g * gu_g
        if not cross.is_zero() and cross.order() < N - 2:
            raise ValueError("the branch is not invariant")
        ou, ov = _order_or_none(gu_g), _order_or_none(gv_g)
        if ou is None and ov is None:
            raise ValueError("the curve equation degenerates on the branch")
        if ov is None or (ou is not None and ou <= ov):
            num, den = _order_or_none(a_g), ou
        else:
            num, den = _order_or_none(b_g), ov
        if num is None:
            raise ValueError("the proportionality factor vanishes on the "
                             "branch to the computed order")
        total += num - den
    return IndexValue(desc.rational(total), "GSV")


def bb_index(sing: PlaneSingularity, N: int = 12) -> IndexValue:
    """Baum-Bott index at a reduced singular point.

    Non-degenerate points use tr^2/det of the dual linear part; at
    saddle-nodes the value is obtained through BB = CS + 2 GSV over the
    complete local separatrix set.
    """
    M = sing.linear
    tr = M[0][0] + M[1][1]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if not det.is_zero():
        return IndexValue(tr * tr / det, "BB")
    if sing.code.kind != SADDLE_NODE:
        raise DegeneratePointError("Baum-Bott needs a non-degenerate point "
                                   "or a saddle-node")
    branches = _germ_branches(sing.form, sing.code, N)
    cs = _cs_over_branches(sing.form, branches, N)
    gsv = gsv_index(sing.form, branches, N=N).value
    return IndexValue(cs + gsv + gsv, "BB")


class _CurveBranch:
    __slots__ = ("param", "implicit")

    def __init__(self, param, implicit):
        self.param = param
        self.implicit = implicit


def _germ_branches(form: OneForm2, code, N: int):
    """Both separatrix branches of a reduced germ, as jets; `form` is a
    PlaneSingularity form, normalized as built."""
    d1, d2 = code.strong, code.weak
    return [_CurveBranch(*_trace_graph(form, d, other, N))
            for d, other in ((d1, d2), (d2, d1))]


def _intersection_order(br_i: _CurveBranch, br_j: _CurveBranch) -> int:
    g1, g2 = br_i.param.components
    pulled = br_j.implicit.substitute(
        {br_j.implicit.vars[0]: g1, br_j.implicit.vars[1]: g2})
    if pulled.is_zero():
        raise ValueError("curve branches coincide")
    return pulled.order()


def _cs_over_branches(form: OneForm2, branches, N: int) -> FieldElement:
    """CS of the (possibly multi-branch) curve: branch indices plus twice
    the pairwise intersection orders."""
    desc = form.desc
    out = desc.zero()
    for br in branches:
        out = out + cs_index(form, br, N).value
    for i in range(len(branches)):
        for j in range(i + 1, len(branches)):
            k = _intersection_order(branches[i], branches[j])
            out = out + desc.rational(2 * k)
    return out


def _curve_indices(sing: PlaneSingularity, c: MPoly, N: int):
    """(CS, GSV) of the curve germ {c = 0} through a singular point.

    The tangent cone of c, of degree m = ord c, read as a polynomial in the
    slope of v = lambda u, must be m distinct lines, so that the germ is m
    smooth, pairwise transversal branches; else SingularBranchError.

    At a non-degenerate point each branch is tangent to an eigenline of
    the linear part.  In coordinates where it is {y = 0} and omega =
    y a dx + b dy, CS = -a(0,0)/b_x(0,0), the transversal eigenvalue over
    the tangent one lambda_t, and GSV = ord b(x, 0) = 1.  So one branch
    has CS = tr/lambda_t - 1; a scalar linear part gives 1 per branch; any
    other has two eigenlines, so m = 2, and lambda_1/lambda_2 +
    lambda_2/lambda_1 = tr^2/det - 2.  Two transversal smooth branches
    meet once: CS gains m(m - 1) and GSV = m - m(m - 1).  A degenerate
    point here is a saddle-node (bb_index refused the rest), and the
    branches are its separatrices tangent to the cone.
    """
    desc = sing.desc
    m = c.order()
    cone = c.homogeneous_part(m)
    lam = to_univariate(cone.restrict({c.vars[0]: desc.one()}), c.vars[1])
    if m - (len(lam) - 1) > 1:
        raise SingularBranchError("the curve has a multiple vertical tangent")
    if len(lam) > 2 and len(u_gcd(lam, [lam[k] * desc.rational(k)
                                        for k in range(1, len(lam))],
                                  desc)) > 1:
        raise SingularBranchError("the curve has coincident tangent directions")
    M = sing.linear
    tr = M[0][0] + M[1][1]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if det.is_zero():
        # _germ_branches traces the strong direction, then the weak one
        dirs = (sing.code.strong, sing.code.weak)
        branches = [br for d, br in zip(dirs, _germ_branches(sing.form,
                                                             sing.code, N))
                    if cone.evaluate(dict(zip(c.vars, d))).is_zero()]
        return (_cs_over_branches(sing.form, branches, N),
                gsv_index(sing.form, branches, g=c, N=N).value)
    if m == 1:
        t = _branch_tangent(c)
        i = 0 if t[0] else 1
        cs = tr * t[i] / (M[i][0] * t[0] + M[i][1] * t[1]) - desc.one()
    elif M[0][1].is_zero() and M[1][0].is_zero() and M[0][0] == M[1][1]:
        cs = desc.rational(m)
    else:
        cs = tr * tr / det - desc.rational(2)
    return cs + desc.rational(m * (m - 1)), desc.rational(m * (2 - m))


# ---------------------------------------------------------------------------
# sum theorems


class SumReport:
    """Exact evaluation of the three classical index sums."""

    __slots__ = ("degree", "curve_degree", "cs_sum", "gsv_sum", "bb_sum",
                 "cs_ok", "gsv_ok", "bb_ok", "points")

    def __init__(self, degree, curve_degree, cs_sum, gsv_sum, bb_sum, desc,
                 points):
        self.degree = degree
        self.curve_degree = curve_degree
        self.cs_sum = cs_sum
        self.gsv_sum = gsv_sum
        self.bb_sum = bb_sum
        d, d0 = degree, curve_degree
        self.cs_ok = (cs_sum - desc.rational(d0 * d0)).is_zero()
        self.gsv_ok = (gsv_sum
                       - desc.rational((d + 2) * d0 - d0 * d0)).is_zero()
        self.bb_ok = (bb_sum - desc.rational((d + 2) ** 2)).is_zero()
        self.points = tuple(points)

    @property
    def ok(self) -> bool:
        return self.cs_ok and self.gsv_ok and self.bb_ok

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return ("SumReport(CS=%s %s, GSV=%s %s, BB=%s %s)"
                % (self.cs_sum, self.cs_ok, self.gsv_sum, self.gsv_ok,
                   self.bb_sum, self.bb_ok))


def sum_theorem_check(fol: ProjFoliation, C: MPoly, N: int = 12) -> SumReport:
    """Verify CS over C = d0^2, GSV over C = (d+2)d0 - d0^2, and the
    global BB sum (d+2)^2, all exactly."""
    if len(fol.vars) != 3 or C.vars != fol.vars:
        raise ValueError("the sum theorems run on plane foliations")
    d0 = _homogeneous_degree(C)
    if d0 is None:
        raise ValueError("the invariant curve must be nonzero")
    return widening(lambda desc: _sum_check(fol.coerce_to(desc),
                                            C.coerce_to(desc), d0, N),
                    fol.desc)


def _sum_check(fol, C, d0, N):
    if not invariant_hypersurface(fol.coeffs, fol.vars, C):
        raise ValueError("the declared curve is not invariant")
    sings = plane_singularities(fol)
    desc = sings[0].desc if sings else fol.desc
    cs_sum = desc.zero()
    gsv_sum = desc.zero()
    bb_sum = desc.zero()
    points = []
    for sing in sings:
        bb = bb_index(sing, N).value
        bb_sum = bb_sum + bb
        entry = {"point": sing.point, "bb": bb}
        cl = localize_at(C, sing)
        if cl.constant_coefficient().is_zero():
            cs, gsv = _curve_indices(sing, cl, N)
            cs_sum = cs_sum + cs
            gsv_sum = gsv_sum + gsv
            entry["cs"] = cs
            entry["gsv"] = gsv
        points.append(entry)
    return SumReport(fol.degree, d0, cs_sum, gsv_sum, bb_sum, desc, points)


# ---------------------------------------------------------------------------
# logarithmic criterion on projective 3-space


class LogCriterionReport:
    """Verdict of the pole-degree characterization d0 = d + 2."""

    __slots__ = ("degree", "curve_degree", "slack", "logarithmic", "sums")

    def __init__(self, degree, curve_degree, sums):
        self.degree = degree
        self.curve_degree = curve_degree
        self.slack = (curve_degree - (degree + 2)) ** 2
        self.logarithmic = curve_degree == degree + 2 and sums.ok
        self.sums = sums

    def __bool__(self):
        return self.logarithmic

    def __repr__(self):
        return ("LogCriterionReport(logarithmic=%s, d0=%d, d=%d, slack=%d)"
                % (self.logarithmic, self.curve_degree, self.degree,
                   self.slack))


def logarithmic_criterion(fol: ProjFoliation, S: MPoly, section,
                          N: int = 12) -> LogCriterionReport:
    """Decide d0 = d + 2 through a plane section W = a X + b Y + c Z.

    `S` is the declared invariant surface; `section` gives (a, b, c).
    """
    if len(fol.vars) != 4:
        raise ValueError("the logarithmic criterion runs in four variables")
    desc = fol.desc
    if S.vars != fol.vars or _homogeneous_degree(S) is None:
        raise ValueError("the invariant surface must be homogeneous")
    if not invariant_hypersurface(fol.coeffs, fol.vars, S):
        raise ValueError("the declared surface is not invariant")
    plane_vars = ("X", "Y", "Z")
    gens = [MPoly.variable(plane_vars, w, desc) for w in plane_vars]
    coeffs_abc = [c if isinstance(c, FieldElement) else desc.rational(c)
                  for c in section]
    img_w = (gens[0].scale(coeffs_abc[0]) + gens[1].scale(coeffs_abc[1])
             + gens[2].scale(coeffs_abc[2]))
    mapping = dict(zip(fol.vars, gens + [img_w]))
    sec_coeffs = tuple(pullback(fol.coeffs, fol.vars, mapping))
    if all(p.is_zero() for p in sec_coeffs):
        raise ValueError("the section plane is invariant, not transversal")
    C = S.substitute(mapping)
    if C.is_zero():
        raise ValueError("the section plane lies inside the surface")
    sec = ProjFoliation(sec_coeffs, plane_vars)
    sums = sum_theorem_check(sec, C, N)
    return LogCriterionReport(sec.degree, _homogeneous_degree(C), sums)
