"""One-forms in two and three variables and their basic invariants.

A plane form is written A du + B dv and a space form A dx + B dy + C dz,
with coefficients that are exact polynomials or truncated series over a
field tower.  This module provides normalization (removal of a common
coefficient factor), the algebraic multiplicity nu0, the Milnor number
mu0, and the 1-form calculus shared by every number of variables:

- pullback: for omega = sum_i c_i dx_i and a map phi, the coefficient of
  dy_j in phi*omega is sum_i c_i(phi) * d(phi_i)/dy_j.  Its precision is
  the lowest among the terms that enter it: c_i(phi) has that of c_i and
  of the images, a Jacobian entry that of its image minus one, and an
  exact-zero entry adds no term.  A coefficient with no term is zero to
  the joint precision of the c_i and the images.  Rotations, plane
  sections, coordinate-plane restrictions and curve jets are all
  pull-backs; blow-up charts follow the same rule but move exponents
  directly (blowup._chart_transform).
- invariant_hypersurface: {f = 0} is invariant when f divides every
  minor c_i df/dx_j - c_j df/dx_i of omega ^ df.
- integrable: omega ^ d omega = 0, one triple i < j < k at a time.
- invariant_graph_jet: the one series solver for graphs v = s(u), behind
  every separatrix trace; the caller gives the slope, and each order of
  the residual is read from a table of the coefficients of the powers of
  s, so the graph is never substituted and the tower never widened.

Boolean questions about truncated series are three-valued internally;
an answer that cannot be certified at the available precision raises
PrecisionError instead of guessing.
"""

from __future__ import annotations

from itertools import combinations

from .fields import FieldDescriptor, FieldError, Inconclusive
from .linalg import rank
from .poly import (
    MPoly,
    OrderIndeterminate,
    exact_divide,
    gcd_bivariate,
    monomials_below,
    multiplication_matrix,
)


class PrecisionError(FieldError, Inconclusive):
    """A series-level question could not be settled at the stored precision."""


class InvarianceResult:
    """Boolean answer together with the order to which it was certified."""

    __slots__ = ("value", "order")

    def __init__(self, value: bool, order):
        self.value = value
        self.order = order

    def __bool__(self):
        return self.value

    def __repr__(self):
        return "InvarianceResult(%r, order=%r)" % (self.value, self.order)


class OneForm2:
    """A du + B dv with labeled variables, default (u, v).

    `coprime` records that A and B are known to share no nonconstant
    factor, so a later normalize2 only strips monomial content.  It is
    False unless set by normalize2, by a caller that proves it
    (indices._plane_sings), or carried by an operation that provably
    keeps the property: translate, rename and coerce_to (a gcd does not
    change under automorphisms or a field extension), the strict
    transforms of blowup_point2 and invertible linear changes of
    coordinates.  Any other new form starts with False.
    """

    __slots__ = ("vars", "A", "B", "desc", "coprime")

    def __init__(self, A: MPoly, B: MPoly, variables=("u", "v"),
                 coprime: bool = False):
        variables = tuple(variables)
        if len(variables) != 2:
            raise ValueError("a plane form needs exactly two variables")
        if A.vars != variables or B.vars != variables:
            raise ValueError("coefficient variables do not match the form")
        if A.desc != B.desc:
            raise FieldError("mismatched field descriptors in one form")
        self.vars = variables
        self.A = A
        self.B = B
        self.desc = A.desc
        self.coprime = coprime

    def coeffs(self):
        return (self.A, self.B)

    def is_zero(self) -> bool:
        return self.A.is_zero() and self.B.is_zero()

    def prec(self):
        return MPoly._join_prec(self.A.prec, self.B.prec)

    # coerce_to, translate and rename keep `coprime`: a gcd is unchanged by
    # a field extension, and a translation or renaming is an automorphism.
    def coerce_to(self, desc: FieldDescriptor) -> "OneForm2":
        return OneForm2(self.A.coerce_to(desc), self.B.coerce_to(desc),
                        self.vars, self.coprime)

    def translate(self, shifts) -> "OneForm2":
        return OneForm2(self.A.translate(shifts), self.B.translate(shifts),
                        self.vars, self.coprime)

    def rename(self, new_vars) -> "OneForm2":
        new_vars = tuple(new_vars)
        return OneForm2(self.A.rename(new_vars), self.B.rename(new_vars),
                        new_vars, self.coprime)

    def dual_linear_part(self):
        """Linear part of the dual field B d/du - A d/dv as a 2x2 matrix."""
        u, v = self.vars
        z = self.desc.zero()

        def lin(p, w):
            e = tuple(1 if x == w else 0 for x in self.vars)
            return p.coeffs.get(e, z)

        return [
            [lin(self.B, u), lin(self.B, v)],
            [-lin(self.A, u), -lin(self.A, v)],
        ]

    def render(self) -> str:
        u, v = self.vars
        return "(%s) d%s + (%s) d%s" % (self.A.render(), u, self.B.render(), v)

    def __repr__(self):
        return "OneForm2(%s)" % self.render()


class OneForm3:
    """A dx + B dy + C dz with labeled variables, default (x, y, z)."""

    __slots__ = ("vars", "A", "B", "C", "desc")

    def __init__(self, A: MPoly, B: MPoly, C: MPoly, variables=("x", "y", "z")):
        variables = tuple(variables)
        if len(variables) != 3:
            raise ValueError("a space form needs exactly three variables")
        for p in (A, B, C):
            if p.vars != variables:
                raise ValueError("coefficient variables do not match the form")
        if not (A.desc == B.desc == C.desc):
            raise FieldError("mismatched field descriptors in one form")
        self.vars = variables
        self.A = A
        self.B = B
        self.C = C
        self.desc = A.desc

    def coeffs(self):
        return (self.A, self.B, self.C)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.coeffs())

    def prec(self):
        precs = [p.prec for p in self.coeffs() if p.prec is not None]
        return min(precs) if precs else None

    def coerce_to(self, desc: FieldDescriptor) -> "OneForm3":
        return OneForm3(
            self.A.coerce_to(desc),
            self.B.coerce_to(desc),
            self.C.coerce_to(desc),
            self.vars,
        )

    def __repr__(self):
        x, y, z = self.vars
        return "OneForm3((%s) d%s + (%s) d%s + (%s) d%s)" % (
            self.A.render(), x, self.B.render(), y, self.C.render(), z,
        )


class DivisorBranch:
    """One branch of a normal-crossings divisor: reduced local equation + tag."""

    __slots__ = ("equation", "dicritical")

    def __init__(self, equation: MPoly, dicritical: bool = False):
        if equation.is_zero():
            raise ValueError("divisor branch needs a nonzero equation")
        self.equation = equation
        self.dicritical = dicritical

    def __repr__(self):
        tag = "dicritical" if self.dicritical else "invariant"
        return "DivisorBranch(%s, %s)" % (self.equation.render(), tag)


class LocalDivisor:
    """Normal-crossings divisor germ: a list of smooth branches."""

    __slots__ = ("branches",)

    def __init__(self, branches=()):
        self.branches = tuple(branches)

    @staticmethod
    def empty() -> "LocalDivisor":
        return LocalDivisor(())

    def invariant_part(self):
        return [b for b in self.branches if not b.dicritical]

    def coerce_to(self, desc: FieldDescriptor) -> "LocalDivisor":
        return LocalDivisor([DivisorBranch(b.equation.coerce_to(desc),
                                           b.dicritical) for b in self])

    def __iter__(self):
        return iter(self.branches)

    def __repr__(self):
        return "LocalDivisor(%r)" % (list(self.branches),)


class CurveJet:
    """Parametrized curve t -> (g_1(t), ..., g_n(t)) as truncated series."""

    __slots__ = ("components", "desc", "prec")

    def __init__(self, components):
        components = tuple(components)
        if len(components) not in (2, 3):
            raise ValueError("curve jets live in two or three variables")
        if all(c.is_zero() for c in components):
            raise ValueError("curve jet is identically zero")
        desc = components[0].desc
        for c in components:
            if c.vars != components[0].vars or len(c.vars) != 1:
                raise ValueError("curve components must share one parameter variable")
            if c.desc != desc:
                raise FieldError("mismatched field descriptors in curve jet")
        self.components = components
        self.desc = desc
        precs = [c.prec for c in components if c.prec is not None]
        self.prec = min(precs) if precs else None

    def __repr__(self):
        return "CurveJet(%s)" % ", ".join(c.render() for c in self.components)


def _content_and_gcd(coeffs, coprime=False):
    """Common factor of a list of nonzero polynomials/series.

    Monomial content always comes out; a genuine polynomial gcd is taken
    only for exact bivariate input, where gcd_bivariate applies, and only
    when the caller does not already know the list is coprime.
    gcd_bivariate is then the one certificate: coprimality proved at
    specialized points, or else a gcd of degree 0 (read off the
    syzygies, or over the parameter tower interpolated in s), proves the
    list coprime.
    """
    alive = [p for p in coeffs if not p.is_zero()]
    if not alive:
        raise ValueError("zero form cannot be normalized")
    common = None
    for p in alive:
        mono = dict(zip(p.vars, p.monomial_content()))
        if common is None:
            common = mono
        else:
            common = {w: min(common[w], mono[w]) for w in common}
    stripped = []
    for p in coeffs:
        q = p
        for w, k in common.items():
            if k and not q.is_zero():
                q = q.divide_var_power(w, k)
        stripped.append(q)
    if coprime:
        return stripped
    alive = [p for p in stripped if not p.is_zero()]
    exact = all(p.prec is None for p in alive)
    if exact and len(alive[0].vars) == 2:
        g = alive[0]
        for p in alive[1:]:
            g = gcd_bivariate(g, p)
            if g.degree() == 0:
                break
        if g.degree() > 0:
            out = []
            for p in stripped:
                if p.is_zero():
                    out.append(p)
                    continue
                q = exact_divide(p, g)
                if q is None:
                    raise FieldError("gcd division failed; inconsistent input")
                out.append(q)
            stripped = out
    return stripped


def normalize2(form: OneForm2) -> OneForm2:
    """Remove the common factor of the two coefficients.  Idempotent.

    The result has `coprime` set: for exact coefficients A and B share
    no nonconstant factor; truncated series only lose monomial content.
    Coprimality of exact coefficients is decided by gcd_bivariate alone.
    A form that already carries the flag (see OneForm2) skips that gcd
    and only loses its monomial content.
    """
    if form.is_zero():
        raise ValueError("zero form cannot be normalized")
    A, B = _content_and_gcd([form.A, form.B], form.coprime)
    return OneForm2(A, B, form.vars, coprime=True)


def normalize3(form: OneForm3) -> OneForm3:
    """Remove the common monomial content of the three coefficients."""
    if form.is_zero():
        raise ValueError("zero form cannot be normalized")
    A, B, C = _content_and_gcd([form.A, form.B, form.C])
    return OneForm3(A, B, C, form.vars)


def nu0(form) -> int:
    """Algebraic multiplicity: minimal vanishing order of the coefficients."""
    best = None
    for p in form.coeffs():
        if p.is_zero():
            continue
        try:
            o = p.order()
        except OrderIndeterminate:
            continue
        if best is None or o < best:
            best = o
    if best is None:
        raise OrderIndeterminate("all coefficients vanish to the stored precision")
    return best


def _ideal_codim(A: MPoly, B: MPoly, d: int) -> int:
    """dim of O/((A,B) + m^d) by monomial linear algebra at degree < d.

    Shifts of degree >= d - ord g give g only zero columns, so one shift
    list serves both generators.
    """
    shifts = monomials_below(2, d - min(A.order(), B.order()))
    rows, _ = multiplication_matrix((A, B), shifts, lambda E: sum(E) < d)
    return len(monomials_below(2, d)) - rank(rows)


def mu0(form: OneForm2) -> int:
    """Milnor number: dimension of the local algebra of (A, B).

    At a singular point mu = 1 exactly when the linear part of (A, B) is
    invertible: then A and B span m/m^2, so (A, B) = m by Nakayama's
    lemma, and conversely (A, B) = m needs them to span m/m^2.  That
    case is read from the four linear coefficients.  Otherwise mu comes
    from bounded monomial linear algebra: the codimension of the ideal
    in the truncated algebra stabilizes once the truncation degree
    passes the Milnor number.  Non-stabilization within the Bezout bound
    signals a non-isolated singularity.
    """
    A, B = form.A, form.B
    if A.is_zero() or B.is_zero():
        raise ValueError("Milnor number needs both coefficients nonzero")
    if (not A.constant_coefficient() and not B.constant_coefficient()
            and A.coefficient((1, 0)) * B.coefficient((0, 1))
            != A.coefficient((0, 1)) * B.coefficient((1, 0))):
        return 1
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


def pullback(coeffs, variables, mapping):
    """Coefficients of phi*omega for omega = sum_i coeffs[i] d variables[i],
    in the target variables shared by the images mapping[x_i] = phi_i
    (formula and precision rule in the module docstring).

    c_i is substituted only when some entry d(phi_i)/dy_j is not an exact
    zero; an exact constant entry scales c_i(phi), and 1 adds it as is.
    """
    targets = mapping[variables[0]].vars
    one = coeffs[0].desc.one()
    images = {}
    out = []
    for y in targets:
        total = None
        for i, w in enumerate(variables):
            d = mapping[w].partial(y)
            if d.prec is None and d.is_zero():
                continue
            if i not in images:
                images[i] = coeffs[i].substitute(mapping)
            img = images[i]
            if d.prec is not None or d.degree() > 0:
                term = img * d
            else:
                c = d.constant_coefficient()
                term = img if c == one else img.scale(c)
            total = term if total is None else total + term
        if total is None:
            prec = None
            for p in list(coeffs) + list(mapping.values()):
                prec = MPoly._join_prec(prec, p.prec)
            total = MPoly.zero(targets, one.desc, prec)
        out.append(total)
    return out


def invariant_hypersurface(coeffs, variables, f: MPoly) -> InvarianceResult:
    """Whether {f = 0} is invariant: f divides every minor
    c_i df/dx_j - c_j df/dx_i of omega ^ df, pairs i < j in order.

    A failing minor answers False with its precision; otherwise the order
    is the lowest precision among the nonzero minors (None when exact).
    """
    parts = [f.partial(w) for w in variables]
    order = None
    for i, j in combinations(range(len(variables)), 2):
        minor = coeffs[i] * parts[j] - coeffs[j] * parts[i]
        if minor.is_zero():
            continue
        if exact_divide(minor, f) is None:
            return InvarianceResult(False, minor.prec)
        order = MPoly._join_prec(order, minor.prec)
    return InvarianceResult(True, order)


def integrable(coeffs, variables) -> bool:
    """Frobenius condition omega ^ d omega = 0: for every triple i < j < k,
    c_i (d_j c_k - d_k c_j) + c_j (d_k c_i - d_i c_k) + c_k (d_i c_j - d_j c_i)
    vanishes, d_j meaning the partial derivative in variables[j]."""
    n = len(variables)
    d = {(i, j): coeffs[i].partial(variables[j])
         for i in range(n) for j in range(n) if i != j}
    for i, j, k in combinations(range(n), 3):
        expr = (coeffs[i] * (d[k, j] - d[j, k]) + coeffs[j] * (d[i, k] - d[k, i])
                + coeffs[k] * (d[j, i] - d[i, j]))
        if not expr.is_zero():
            return False
    return True


def integrable3(form: OneForm3) -> bool:
    """Whether the form satisfies the Frobenius integrability condition."""
    return integrable(form.coeffs(), form.vars)


def pullback_curve(form, curve: CurveJet) -> MPoly:
    """Coefficient of dt in the pull-back of the form along the curve."""
    if len(curve.components) != len(form.vars):
        raise ValueError("curve dimension does not match the form")
    return pullback(form.coeffs(), form.vars,
                    dict(zip(form.vars, curve.components)))[0]


def invariant_curve(form, curve: CurveJet) -> InvarianceResult:
    """Whether the curve is invariant: the pull-back must vanish identically.

    The answer carries the order to which it is certified.  A pull-back
    that is zero only because no coefficient survives truncation raises
    PrecisionError instead of answering true.
    """
    pb = pullback_curve(form, curve)
    if not pb.is_zero():
        return InvarianceResult(False, pb.order())
    if pb.prec is not None and pb.prec < 2:
        raise PrecisionError(
            "pull-back vanishes only below order %d; raise the truncation" % pb.prec
        )
    return InvarianceResult(True, pb.prec)


def invariant_surface3(form: OneForm3, f: MPoly) -> InvarianceResult:
    """Whether {f = 0} is invariant: every coefficient of w ^ df divisible by f."""
    if f.is_zero() or not f.constant_coefficient().is_zero():
        raise ValueError("surface equation must be nonzero and vanish at the origin")
    res = invariant_hypersurface(form.coeffs(), form.vars, f)
    if res and res.order is not None and res.order < 2:
        raise PrecisionError("divisibility certified only below order %d" % res.order)
    return res


def _image(rows, cols, n, zero):
    """[u^n] p(u, s) for the polynomial p whose terms c u^i v^j are listed
    in rows[j] as (i, c), i increasing, read from the power columns
    cols[m][j] = [u^m] s^j."""
    val = zero
    for j in range(min(n, len(rows) - 1) + 1):
        last = n - j
        for i, c in rows[j]:
            if i > last:
                break
            w = cols[n - i][j]
            if w:
                val = val + c * w
    return val


def invariant_graph_jet(form: OneForm2, N: int, slope):
    """Coefficients c_1..c_N of the invariant graph v = sum c_k u^k with
    c_1 = `slope` at a singular point, solving the residual
    R = A(u, s) + B(u, s) s' = 0 order by order.

    The caller picks the direction: `slope` must be a root of the order-1
    equation a10 + (a01 + b10) c_1 + b01 c_1^2 = 0.  Order k >= 2 of R is
    alpha + beta(k) c_k with alpha free of c_k and later coefficients and
    beta(k) = (a01 + b01 c_1) + k (b10 + b01 c_1); it sets c_k = 0 when
    alpha = 0, else -alpha/beta(k).  A nonzero coefficient of R at order
    1 (checked once, when N >= 2; the singular point makes order 0 zero
    and linearity keeps the later ones zero) or beta(k) = 0 != alpha
    means there is no such graph and raises ValueError.

    Nothing is substituted, and everything is kept in lists.  The terms
    of A and B of degree <= N are grouped by their exponent of v, and
    R is read from them and from the power table cols[n][j] = [u^n] s^j,
    j up to the largest such exponent, filled one column per order: at
    order k column k reads c_1..c_(k-1), and its entry [u^k] s = c_k is
    zero until c_k is solved.  [u^n] B(u, s) is kept once it is final,
    which at order k it is for n < k; [u^k] B(u, s) is read with c_k = 0,
    then completed by b01 c_k.  Sums over the c_i run over the nonzero
    ones only.
    """
    desc = form.desc
    if N < 1:
        raise ValueError("need at least one coefficient")
    prec_cap = form.prec()
    if prec_cap is not None and prec_cap <= N:
        raise PrecisionError("form precision %d too low for a degree-%d graph" % (prec_cap, N))
    A, B = form.A, form.B
    if not (A.constant_coefficient().is_zero()
            and B.constant_coefficient().is_zero()):
        raise ValueError("an invariant graph needs a singular point")
    if N == 1:
        return [slope]
    a01 = A.coefficient((0, 1))
    b10, b01 = B.coefficient((1, 0)), B.coefficient((0, 1))
    lin, step = a01 + b01 * slope, b10 + b01 * slope
    zero = desc.zero()
    rows = []
    for p in (A, B):
        by_v = []
        for (i, j), c in sorted(p.coeffs.items()):
            if i + j <= N:
                by_v.extend([] for _ in range(j + 1 - len(by_v)))
                by_v[j].append((i, c))
        rows.append(by_v)
    top = max(len(r) for r in rows) - 1
    cs = [slope]
    known = [(1, slope, slope)] if slope else []  # (i, c_i, i c_i), c_i != 0
    cols = [[desc.one()], [zero, slope]]
    images = [zero, _image(rows[1], cols, 1, zero)]  # [u^n] B(u, s)
    fail = "no invariant graph: obstruction at order %d"
    if _image(rows[0], cols, 1, zero) + images[1] * slope:
        raise ValueError(fail % 2)
    for k in range(2, N + 1):
        col = [zero, zero]
        for j in range(2, min(k, top) + 1):
            val = zero
            for i, c, _ in known:
                if i > k - j + 1:
                    break
                w = cols[k - i][j - 1]
                if w:
                    val = val + c * w
            col.append(val)
        cols.append(col)
        images.append(_image(rows[1], cols, k, zero))
        alpha = _image(rows[0], cols, k, zero)
        for i, _, ic in known:
            alpha = alpha + images[k + 1 - i] * ic
        c = zero
        if alpha:
            beta = lin + desc.rational(k) * step
            if not beta:
                raise ValueError(fail % k)
            c = -(alpha * beta.inverse())
            col[1] = c
            if b01:
                images[k] = images[k] + b01 * c
            known.append((k, c, c * desc.rational(k)))
        cs.append(c)
    return cs
