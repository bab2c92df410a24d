"""Sparse multivariate polynomials and truncated power series.

An MPoly maps exponent tuples to nonzero FieldElements over a fixed tuple of
variable labels.  A truncated series is the same data plus a precision N:
coefficients are trusted for total degree < N only, and arithmetic
propagates the minimum precision of the operands (pessimistic, never
reporting an untrusted coefficient).

exact_divide is the one division of the package, for polynomials and
series alike: the quotient is found one degree at a time, lowest first.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from . import linalg
from .fields import (_TRIAL_LIMIT, FieldDescriptor, FieldElement, FieldError,
                     FieldExtensionError, Inconclusive, MismatchedFieldError,
                     RatFunc, _homogeneous_value, _trial_factor, coerce,
                     common_denominator, sort_key, sqrt_or_widen)


class OrderIndeterminate(FieldError, Inconclusive):
    """The vanishing order cannot be certified at the available precision."""


def _as_element(c, desc: FieldDescriptor) -> FieldElement:
    if isinstance(c, FieldElement):
        if c.desc is not desc and c.desc != desc:
            raise MismatchedFieldError("coefficient over a different tower")
        return c
    return desc.rational(c)


class MPoly:
    """Polynomial (prec is None) or truncated series (prec = int)."""

    __slots__ = ("vars", "coeffs", "desc", "prec")

    def __init__(self, vars, coeffs, desc: FieldDescriptor, prec=None):
        self.vars = tuple(vars)
        self.desc = desc
        self.prec = prec
        clean = {}
        for exp, c in coeffs.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(self.vars) or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp} for variables {self.vars}")
            if prec is not None and sum(exp) >= prec:
                continue
            c = _as_element(c, desc)
            if not c.is_zero():
                clean[exp] = c
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars, desc, prec=None):
        return cls(vars, {}, desc, prec)

    @classmethod
    def constant(cls, vars, c, desc, prec=None):
        return cls(vars, {(0,) * len(vars): c}, desc, prec)

    @classmethod
    def variable(cls, vars, name, desc, prec=None):
        exp = [0] * len(vars)
        exp[tuple(vars).index(name)] = 1
        return cls(vars, {tuple(exp): 1}, desc, prec)

    def _make(self, coeffs, prec):
        """Trusted constructor over self's variables and tower: `coeffs`
        maps well-formed exponents to elements of self.desc, as operations
        on this polynomial's own terms build it; only zero coefficients and
        terms of degree >= prec are dropped."""
        p = object.__new__(MPoly)
        p.vars, p.desc, p.prec = self.vars, self.desc, prec
        p.coeffs = {e: c for e, c in coeffs.items()
                    if c and (prec is None or sum(e) < prec)}
        return p

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def terms(self):
        """Deterministically ordered (exponent, coefficient) pairs."""
        return sorted(self.coeffs.items())

    def constant_coefficient(self) -> FieldElement:
        return self.coeffs.get((0,) * len(self.vars), self.desc.zero())

    def coefficient(self, exp) -> FieldElement:
        return self.coeffs.get(tuple(exp), self.desc.zero())

    def degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def degree_in(self, name: str) -> int:
        if not self.coeffs:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.coeffs)

    def order(self) -> int:
        """Vanishing order at the origin (smallest total degree present)."""
        if not self.coeffs:
            if self.prec is not None:
                raise OrderIndeterminate(
                    f"series is zero to its precision {self.prec}")
            raise OrderIndeterminate("polynomial is identically zero")
        return min(sum(e) for e in self.coeffs)

    def min_exponent_in(self, name: str) -> int:
        if not self.coeffs:
            return 0
        i = self.vars.index(name)
        return min(e[i] for e in self.coeffs)

    def homogeneous_part(self, k: int) -> "MPoly":
        return self._make({e: c for e, c in self.coeffs.items() if sum(e) == k},
                          None)

    def lowest_part(self) -> "MPoly":
        return self.homogeneous_part(self.order())

    # -- arithmetic --------------------------------------------------------

    def _match(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = MPoly.constant(self.vars, other, self.desc)
        if not isinstance(other, MPoly):
            return NotImplemented
        if other.vars != self.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
        if other.desc is not self.desc and other.desc != self.desc:
            raise MismatchedFieldError("operands over different towers")
        return other

    @staticmethod
    def _join_prec(p, q):
        if p is None:
            return q
        if q is None:
            return p
        return min(p, q)

    def __add__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return self._make(out, self._join_prec(self.prec, other.prec))

    __radd__ = __add__

    def __neg__(self):
        return self._make({e: -c for e, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        prec = self._join_prec(self.prec, other.prec)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(map(operator.add, e1, e2))
                if prec is not None and sum(e) >= prec:
                    continue
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return self._make(out, prec)

    __rmul__ = __mul__

    def scale(self, c) -> "MPoly":
        c = _as_element(c, self.desc)
        return self._make({e: v * c for e, v in self.coeffs.items()}, self.prec)

    def __eq__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs and self.prec == other.prec

    def __hash__(self):
        return hash((self.vars, tuple(self.terms()), self.prec))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.constant(self.vars, 1, self.desc, self.prec)
        for _ in range(n):
            result = result * self
        return result

    def partial(self, name: str) -> "MPoly":
        i = self.vars.index(name)
        out = {}
        for e, c in self.coeffs.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * e[i] if e[i] > 1 else c
        prec = None if self.prec is None else max(self.prec - 1, 0)
        return self._make(out, prec)

    def truncate(self, N: int) -> "MPoly":
        prec = N if self.prec is None else min(self.prec, N)
        return self._make(self.coeffs, prec)

    # -- substitution ------------------------------------------------------

    def substitute(self, mapping: dict) -> "MPoly":
        """Replace each variable by the polynomial/series mapping[name].

        All images must share one variable tuple and tower.  Precision of the
        result is the minimum over the own precision and those of the images.
        """
        images = []
        for name in self.vars:
            img = mapping.get(name)
            if img is None:
                raise ValueError(f"no image for variable {name}")
            images.append(img)
        tgt = images[0]
        prec = self.prec
        for img in images:
            if img.vars != tgt.vars or img.desc != self.desc:
                raise ValueError("substitution images are incompatible")
            prec = self._join_prec(prec, img.prec)
        if prec is not None:
            images = [img.truncate(prec) for img in images]
        powers = [[None, img] for img in images]  # powers[i][k] = image^k

        def power(i, k):
            cache = powers[i]
            while len(cache) <= k:
                cache.append(cache[-1] * cache[1])
            return cache[k]

        # terms sharing their exponents past the first variable are one
        # combination of powers of the first image, multiplied out once
        origin = (0,) * len(tgt.vars)
        groups = {}
        for e, c in self.terms():
            acc = groups.setdefault(e[1:], {})
            if not e[0]:
                acc[origin] = acc[origin] + c if origin in acc else c
                continue
            for te, tc in power(0, e[0]).coeffs.items():
                tc = c * tc
                acc[te] = acc[te] + tc if te in acc else tc
        out = {}
        for rest, acc in groups.items():
            part = tgt._make(acc, prec)
            for i, k in enumerate(rest, 1):
                if k:
                    part = part * power(i, k)
            for te, tc in part.coeffs.items():
                out[te] = out[te] + tc if te in out else tc
        return tgt._make(out, prec)

    def translate(self, shifts: dict) -> "MPoly":
        """Substitute name -> name + c for each (name, c) in shifts."""
        mapping = {}
        for name in self.vars:
            img = MPoly.variable(self.vars, name, self.desc, self.prec)
            if name in shifts:
                img = img + MPoly.constant(self.vars, shifts[name], self.desc,
                                           self.prec)
            mapping[name] = img
        return self.substitute(mapping)

    def evaluate(self, point: dict) -> FieldElement:
        """The value at `point`, which fixes every variable."""
        return self.restrict(point).constant_coefficient()

    def restrict(self, fixed: dict) -> "MPoly":
        """Set some variables to field constants, keeping the others.

        Each fixed variable has one table of the powers of its value,
        extended as the terms ask for them, so a term takes one product
        per fixed variable."""
        kept = [i for i, v in enumerate(self.vars) if v not in fixed]
        powers = [(i, [None, _as_element(fixed[v], self.desc)])
                  for i, v in enumerate(self.vars)
                  if v in fixed and self.coeffs]
        out = {}
        for e, c in self.coeffs.items():
            val = c
            for i, table in powers:
                k = e[i]
                if k:
                    while len(table) <= k:
                        table.append(table[-1] * table[1])
                    val = val * table[k]
            ne = tuple([e[i] for i in kept])
            if not val.is_zero():
                out[ne] = out[ne] + val if ne in out else val
        return MPoly([self.vars[i] for i in kept], out, self.desc, self.prec)

    def rename(self, new_vars) -> "MPoly":
        if len(new_vars) != len(self.vars):
            raise ValueError("variable count mismatch")
        return MPoly(tuple(new_vars), self.coeffs, self.desc, self.prec)

    def coerce_to(self, desc: FieldDescriptor) -> "MPoly":
        """Embed the coefficients into a wider field tower."""
        if desc == self.desc:
            return self
        out = {e: coerce(c, desc) for e, c in self.coeffs.items()}
        return MPoly(self.vars, out, desc, self.prec)

    # -- divisibility ------------------------------------------------------

    def divide_var_power(self, name: str, k: int) -> "MPoly":
        """Exact division by name**k (series precision drops by k)."""
        if k == 0:
            return self
        i = self.vars.index(name)
        out = {}
        for e, c in self.coeffs.items():
            if e[i] < k:
                raise ValueError(f"not divisible by {name}^{k}")
            ne = list(e)
            ne[i] -= k
            out[tuple(ne)] = c
        prec = None if self.prec is None else max(self.prec - k, 0)
        return self._make(out, prec)

    def monomial_content(self):
        """Exponent tuple of the largest monomial dividing all terms."""
        if not self.coeffs:
            return (0,) * len(self.vars)
        exps = list(self.coeffs)
        return tuple(min(e[i] for e in exps) for i in range(len(self.vars)))

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.terms():
            mono = "*".join(f"{v}^{k}" if k > 1 else v
                            for v, k in zip(self.vars, e) if k > 0)
            cs = c.render()
            if mono:
                cs = f"({cs})*{mono}" if not _plain(cs) else \
                    (mono if cs == "1" else f"-{mono}" if cs == "-1" else f"{cs}*{mono}")
            parts.append(cs)
        s = " + ".join(parts).replace("+ -", "- ")
        if self.prec is not None:
            s += f" + O(deg {self.prec})"
        return s

    def __repr__(self):
        return f"<{self.render()}>"


def _plain(s: str) -> bool:
    return all(ch not in s for ch in "+-*/ ") or (s.lstrip("-").isdigit())


def monomials_below(nvars: int, d: int):
    """All exponent tuples of total degree < d, lexicographic."""
    return [e for e in itertools.product(range(d), repeat=nvars)
            if sum(e) < d]


def multiplication_matrix(gens, shifts, keep):
    """Matrix of (r_1, ..., r_k) -> sum g_i r_i on monomials.

    Column i * len(shifts) + k holds the coefficients of g_i * x^shifts[k].
    There is one row per exponent E that some product reaches and
    keep(E) accepts, in sorted order.  Returns (rows, exponents); each
    row is a sparse linalg row, a dict {column: coefficient} that holds
    the nonzero coefficients only, so no zero of the matrix is built.
    """
    n = len(shifts)
    entries = {}
    for i, g in enumerate(gens):
        for k, s in enumerate(shifts):
            for e, c in g.coeffs.items():
                E = tuple(map(operator.add, e, s))
                if keep(E):
                    entries.setdefault(E, {})[i * n + k] = c
    exponents = sorted(entries)
    return [entries[E] for E in exponents], exponents


def exact_divide(p: MPoly, q: MPoly):
    """Quotient r with p = q*r (exact, or to the joint precision); None if
    the division fails.

    Divided one degree at a time, lowest first, for polynomials and
    series alike (Knuth, TAOCP vol. 2, 4.7).  Let L be the lowest part
    of q, of order oq.  The degree-j part r_j of r solves L r_j = h_j,
    where h_j is the degree-(j + oq) part of the residual
    p - q (r_0 + ... + r_{j-1}): a scaling when L is a constant, else a
    linear solve with the multiplication_matrix of L over the monomials
    of degree j.  L is not a zero divisor, so each r_j is unique.  q
    divides p when p has no term below degree oq, every step solves and
    the residual ends at zero: in every degree for polynomials, where
    r stops at degree deg p - deg q; below the joint precision N of p
    and q for series, where r is trusted below N - oq.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    prec = MPoly._join_prec(p.prec, q.prec)
    if p.is_zero():
        return MPoly.zero(p.vars, p.desc, prec)
    oq = q.order()
    residual = {}  # degree -> {exponent: coefficient}, below prec only
    for e, c in p.coeffs.items():
        d = sum(e)
        if prec is None or d < prec:
            residual.setdefault(d, {})[e] = c
    if any(d < oq for d in residual):
        return None
    lowest = q.lowest_part()
    tail = [(e, c, sum(e)) for e, c in q.coeffs.items() if sum(e) > oq]
    inv = lowest.constant_coefficient().inverse() if oq == 0 else None
    quotient = {}
    for j in range(p.degree() - q.degree() + 1 if prec is None
                   else prec - oq):
        h = residual.pop(j + oq, None)
        if not h:
            continue
        r = ({e: c * inv for e, c in h.items()} if inv is not None
             else _solve_degree(lowest, h, j))
        if r is None:
            return None
        quotient.update(r)
        for e, c, d in tail:
            if prec is not None and d + j >= prec:
                continue
            part = residual.setdefault(d + j, {})
            for s, x in r.items():
                E = tuple(map(operator.add, e, s))
                y = part.get(E)
                y = -(c * x) if y is None else y - c * x
                if y:
                    part[E] = y
                else:
                    del part[E]
    if any(residual.values()):
        return None
    return p._make(quotient, None if prec is None else max(prec - oq, 0))


def _solve_degree(L: MPoly, h: dict, j: int):
    """The r, over the monomials of degree j, with L r = h (h homogeneous
    of degree j + ord L), or None when there is none."""
    n = len(L.vars)
    shifts = [e + (j - sum(e),) for e in monomials_below(n - 1, j + 1)]
    matrix, exps = multiplication_matrix([L], shifts, lambda E: True)
    reached = set(exps)
    if any(E not in reached for E in h):
        return None  # that row would read 0 = h_E != 0
    zero = L.desc.zero()
    sol = linalg.solve(matrix, [h.get(E, zero) for E in exps], L.desc)
    if sol is None:
        return None
    return {s: x for s, x in zip(shifts, sol) if x}


def divides(p: MPoly, q: MPoly) -> bool:
    """True when q divides p (exactly, or to the joint precision)."""
    return exact_divide(p, q) is not None


# ---------------------------------------------------------------------------
# univariate polynomials over the tower (dense FieldElement lists, low->high)


def to_univariate(p: MPoly, name: str):
    """Coefficient list of p viewed in `name`; other variables must be absent."""
    i = p.vars.index(name)
    coeffs = [p.desc.zero()] * (p.degree_in(name) + 1 if not p.is_zero() else 0)
    for e, c in p.coeffs.items():
        if any(k != 0 for j, k in enumerate(e) if j != i):
            raise ValueError("polynomial involves other variables")
        coeffs[e[i]] = c
    return _utrim(coeffs)


def _utrim(c):
    n = len(c)
    while n and c[n - 1].is_zero():
        n -= 1
    return c[:n]


def interpolate(xs, ys):
    """Coefficients, low to high, of the polynomial of degree below
    len(xs) that takes the value ys[i] at the rational xs[i] (distinct):
    Newton's divided differences, expanded by Horner's rule.  The values
    are field elements or Fractions."""
    c = list(ys)
    n = len(c)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])
    out = [c[-1]]
    for i in range(n - 2, -1, -1):
        x = xs[i]
        out = ([c[i] - out[0] * x]
               + [out[k - 1] - out[k] * x for k in range(1, len(out))]
               + out[-1:])
    return out


def u_divmod(a, b, desc):
    a = list(a)
    q = [desc.zero()] * max(len(a) - len(b) + 1, 0)
    inv = b[-1].inverse()
    while len(_utrim(a)) >= len(b):
        a = _utrim(a)
        k = len(a) - len(b)
        f = a[-1] * inv
        q[k] = f
        for j in range(len(b)):
            a[k + j] = a[k + j] - f * b[j]
        a = a[:-1]
    return q, _utrim(a)


def u_gcd(a, b, desc):
    a, b = _utrim(list(a)), _utrim(list(b))
    while b:
        a, b = b, u_divmod(a, b, desc)[1]
    if a:
        inv = a[-1].inverse()
        a = [c * inv for c in a]
    return a


def _divisors(n: int):
    """The positive divisors of the int n != 0, from one trial division
    (fields._trial_factor); FieldExtensionError names n when a cofactor
    too large to be known prime is left."""
    factors, c = _trial_factor(n)
    if c >= _TRIAL_LIMIT ** 2:
        raise FieldExtensionError(
            "cannot list the rational roots: the coefficient %d is not "
            "factored, as its cofactor %d has no prime factor up to %d"
            % (n, c, _TRIAL_LIMIT))
    if c > 1:
        factors.append((c, 1))
    out = [1]
    for p, e in factors:
        out = [d * p ** k for d in out for k in range(e + 1)]
    return out


def _rational_roots(f):
    """(roots, g): the rational roots p/q (q > 0, gcd(p, q) = 1) of the
    int polynomial f with f[0] != 0, once per multiplicity, and the int
    polynomial g that f is left with after dividing by every q*X - p.
    The search stops at a linear g.

    A root has p | f[0] and q | f[-1], and f = (q*X - p) * h with h in
    Z[X] gives (q - p) | f(1) and (q + p) | f(-1); a candidate that
    passes these is tested as sum f_i p^i q^(n-i) = 0 in ints."""
    roots = []
    ps, qs = _divisors(f[0]), _divisors(f[-1])
    for p, q in ((p, q) for q in qs for d in ps if math.gcd(d, q) == 1
                 for p in (d, -d)):
        while (len(f) > 2 and not (f[0] % p or f[-1] % q)
               and _divides(q - p, sum(f))
               and _divides(q + p, sum(f[::2]) - sum(f[1::2]))
               and not _homogeneous_value(f, p, q)):
            roots.append((p, q))
            # f = (q*X - p) * g, from the top: g_(i-1) = (f_i + p g_i) / q
            g, carry = [0] * (len(f) - 1), 0
            for i in range(len(f) - 1, 0, -1):
                carry = g[i - 1] = (f[i] + p * carry) // q
            f = g
        if len(f) <= 2:
            break
    return roots, f


def _divides(a: int, b: int) -> bool:
    return b % a == 0 if a else b == 0


def u_roots_in_tower(coeffs, desc: FieldDescriptor):
    """All roots lying inside the tower, each listed once, sorted.

    Roots in Q come from the rational root test, run in ints on the
    coefficients over their common denominator, and a quadratic factor
    is solved by a square root (WidenRequest outside the tower).  A factor
    of degree >= 3 without a root in Q is not split: FieldExtensionError
    names its degree, although its roots may lie in the tower.
    """
    c = _utrim(list(coeffs))
    if not c:
        raise ValueError("zero polynomial has every root")
    roots = []
    # strip root at the origin
    k = 0
    while k < len(c) and c[k].is_zero():
        k += 1
    if k:
        roots.append(desc.zero())
        c = c[k:]
    rational = all(x.is_rational() for x in c)
    if rational and len(c) > 2:
        fracs = [x.as_fraction() for x in c]
        m = math.lcm(*(x.denominator for x in fracs))
        found, f = _rational_roots(
            [x.numerator * (m // x.denominator) for x in fracs])
        roots += [desc.rational(Fraction(p, q)) for p, q in found]
        # c is f times the product of the q over m
        scale = math.prod(q for _, q in found)
        c = [desc.rational(Fraction(a * scale, m)) for a in f]
    if len(c) == 2:
        roots.append(-c[0] / c[1])
    elif len(c) == 3:
        a2, a1, a0 = c[2], c[1], c[0]
        disc = a1 * a1 - 4 * a2 * a0
        if disc.is_zero():
            roots.append(-a1 / (2 * a2))
        else:
            s = sqrt_or_widen(disc)
            roots.append((-a1 + s) / (2 * a2))
            roots.append((-a1 - s) / (2 * a2))
    elif len(c) > 3:
        raise FieldExtensionError("a factor of degree %d was not split: %s" % (
            len(c) - 1, "no root in Q was found" if rational else
            "its coefficients are not in Q, so no root was searched"))
    seen = []
    for r in roots:
        if all(not (r - s).is_zero() for s in seen):
            seen.append(r)
    seen.sort(key=sort_key)
    return seen


def u_resultant(a, b, desc: FieldDescriptor) -> FieldElement:
    """Sylvester resultant of two univariate coefficient lists."""
    a, b = _utrim(list(a)), _utrim(list(b))
    if not a or not b:
        return desc.zero()
    n, m = len(a) - 1, len(b) - 1
    if n == 0:
        return a[0] ** m if m >= 0 else desc.one()
    if m == 0:
        return b[0] ** n
    rows = [{i + j: c for j, c in enumerate(reversed(p)) if c}
            for p, shifts in ((a, m), (b, n)) for i in range(shifts)]
    return linalg.det(rows, desc)


# ---------------------------------------------------------------------------
# the parameter at a rational value


def specialize(x, s0):
    """x, a field element or an exact MPoly over a tower with a
    parameter, at the rational parameter value s0: the same over the
    tower without the parameter, or None when a coefficient has a pole
    at s0."""
    ground = FieldDescriptor(x.desc.quadratic_extension)
    poly = isinstance(x, MPoly)
    out = {}
    for e, c in (x.coeffs.items() if poly else ((None, x),)):
        a, b = c.a.at(s0), c.b.at(s0)
        if a is None or b is None:
            return None
        out[e] = FieldElement(ground, a, b)
    return MPoly(x.vars, out, ground) if poly else out[None]


def interpolate_parameter(pts, values, desc: FieldDescriptor):
    """The element of desc, a polynomial in its parameter of degree below
    len(pts), whose value at the rational pts[i] is values[i], an element
    of the tower without the parameter: the rational part and the
    square-root part are interpolated separately."""
    return FieldElement(desc, RatFunc(interpolate(pts, [x.a for x in values])),
                        RatFunc(interpolate(pts, [x.b for x in values])))


# ---------------------------------------------------------------------------
# bivariate gcd (used by 1-form normalization)


def gcd_bivariate(p: MPoly, q: MPoly) -> MPoly:
    """Gcd of two exact polynomials in exactly two variables, with
    coefficient one at its largest exponent.

    Most coprime pairs are proved coprime at points (_coprime_at_points).
    Otherwise the gcd is read off the syzygies of p and q over Q or
    Q(rt m) (_syzygy_gcd), and over a tower with the parameter it is
    interpolated from those at values of the parameter
    (_gcd_by_specialization).  Callers: forms._content_and_gcd
    (normalize2) and indices._affine_common_roots.
    """
    if p.prec is not None or q.prec is not None:
        raise ValueError("gcd of series is not supported")
    if p.is_zero():
        return _normalize_lead(q)
    if q.is_zero():
        return _normalize_lead(p)
    if _coprime_at_points(p, q):
        return MPoly.constant(p.vars, 1, p.desc)
    if p.desc.parameter is not None:
        return _gcd_by_specialization(p, q)
    return _normalize_lead(_syzygy_gcd(p, q))


def _coprime_at_points(p, q) -> bool:
    """True when specializations prove that p and q, in variables (u, v)
    over a tower K, have no common factor of positive degree, so their
    gcd is 1; False when no point certified.

    Let k be K without its parameter s (Q or Q(rt m)); without a
    parameter s is not set.  The test for v at a point (u0, s0): no
    coefficient of p or q has a pole at s0, neither leading coefficient
    in v vanishes at (u0, s0), and p(u0, s0, v) and q(u0, s0, v) have a
    constant gcd over k.  Proof: multiply p and q by the lcm of their
    denominators in k[s], which do not vanish at s0, to get P and Q in
    k[s, u][v].  Let g of positive v-degree divide p and q.  By Gauss's
    lemma (k[s, u] is a UFD) g may be taken primitive in k[s, u][v], and
    then it divides P and Q there.  So lc_v(g) divides lc_v(P) and
    lc_v(Q) in k[s, u] and does not vanish at (u0, s0): g(u0, s0, v)
    keeps its positive degree and divides both specializations, whose
    gcd is then not constant.  The same test with u and v exchanged, at
    (v0, s0), rules out the common factors of positive u-degree, and a
    common factor of degree 0 in both is a unit.

    v is tested first and u only once v is certified.  A point where
    the test fails (a leading coefficient vanishes, or the gcd is not
    constant although p and q may be coprime) passes to the next one.
    u0 = 0 is not used: local forms vanish at the origin, so their
    specializations there share a power of v.
    """
    vars = p.vars
    degrees = [(p.degree_in(w), q.degree_in(w)) for w in vars]
    done = 0
    for x0, s0 in ((1, 2), (2, 3), (3, 5), (5, 7)):
        ps, qs = p, q
        if p.desc.parameter is not None:
            ps, qs = specialize(p, s0), specialize(q, s0)
            if ps is None or qs is None:
                continue
        while done < 2:
            main, other = vars[1 - done], vars[done]
            sa, sb = (to_univariate(f.restrict({other: x0}), main)
                      for f in (ps, qs))
            if ((len(sa) - 1, len(sb) - 1) != degrees[1 - done]
                    or len(u_gcd(sa, sb, ps.desc)) > 1):
                break
            done += 1
        if done == 2:
            return True
    return False


def _syzygies(p, q, k):
    """A basis of the pairs (r, t) of degree at most k with r p = t q,
    each the coefficients of r and then of t on monomials_below(2, k + 1),
    and those monomials."""
    shifts = monomials_below(2, k + 1)
    matrix, _ = multiplication_matrix((p, -q), shifts, lambda E: True)
    return linalg.nullspace(matrix, 2 * len(shifts), p.desc), shifts


def _syzygy_gcd(p, q):
    """A gcd of the nonzero p and q over a tower without the parameter
    (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 6).  Write
    p = g a, q = g b with a, b coprime, n = deg g, M = max(deg p, deg q).
    The syzygies r p = t q are r = b h, t = a h, as b divides r a; with
    r and t of degree <= k, deg h <= k - M + n.  So at k = M - 1 they
    span n (n + 1) / 2 dimensions, the monomials of degree below n, and
    at k = M - n they are the multiples of (b, a): g = p / a.
    """
    top = max(p.degree(), q.degree())
    basis, _ = _syzygies(p, q, top - 1)
    n = (math.isqrt(8 * len(basis) + 1) - 1) // 2
    if not n:
        return MPoly.constant(p.vars, 1, p.desc)
    [syzygy], shifts = _syzygies(p, q, top - n)
    return exact_divide(p, MPoly(p.vars, dict(zip(
        shifts, syzygy[len(shifts):])), p.desc))


def _gcd_by_specialization(p, q):
    """gcd_bivariate over a tower k(s), from gcds over k at s0 = 0, 1, ...
    (W. S. Brown, J. ACM 18 (1971)).  Let P, Q be p, q over their
    denominators, in k[s][u, v], G their gcd with lc(G) = 1 and P = G' C
    with G' primitive.  Where the leading terms of P and Q survive,
    lc(G') | lc(P) does not vanish, so G(s0) divides the gcd H of P(s0)
    and Q(s0): the leading exponent of H is a multiple of that of G,
    equal where H = G(s0), larger at finitely many points.  A constant H
    proves the gcd 1.  lc(P) G = lc(C) G' has degree <= D = deg_s P in
    s, so D + 1 points of the least leading exponent, each H times
    lc(P)(s0), interpolate it.  A candidate that divides p and q divides
    G and has a multiple of its leading exponent, so it is G.
    """
    desc = p.desc
    P, Q = (f.scale(FieldElement(desc, common_denominator(
        f.coeffs.values()), 0)) for f in (p, q))
    lp, lq = max(P.coeffs), max(Q.coeffs)
    D = max(c.degree() for x in P.coeffs.values() for c in (x.p, x.q) if c)
    best, pts, vals = None, [], []
    for s0 in itertools.count():
        ps, qs = specialize(P, s0), specialize(Q, s0)
        if lp not in ps.coeffs or lq not in qs.coeffs:
            continue
        h = gcd_bivariate(ps, qs)
        lead = max(h.coeffs)
        if not any(lead):
            return MPoly.constant(p.vars, 1, desc)
        if best is None or lead < best:
            best, pts, vals = lead, [], []
        if lead == best:
            pts.append(s0)
            vals.append(h.scale(ps.coeffs[lp]))
        if len(pts) > D:
            g = _normalize_lead(MPoly(p.vars, {
                e: interpolate_parameter(pts, [x.coefficient(e)
                                               for x in vals], desc)
                for e in set().union(*(x.coeffs for x in vals))}, desc))
            if divides(p, g) and divides(q, g):
                return g
            pts, vals = [], []


def _normalize_lead(p: MPoly) -> MPoly:
    if p.is_zero():
        return p
    lead = max(p.coeffs)
    return p.scale(p.coeffs[lead].inverse())
