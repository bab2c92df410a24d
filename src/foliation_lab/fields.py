"""Exact coefficient field towers.

The ground field is Q.  A tower may adjoin one square root of a square-free
integer m (m = -1 gives the imaginary unit) and one transcendental parameter,
yielding at most Q(t)(sqrt(m)).  Elements are kept in the normal form
(p + q*sqrt(m))/d.  The descriptor fixes the type of the coordinates: in a
parameter-free tower p, q and d are integers with d > 0 and no common
factor, so an operation is a few integer products and at most one gcd; with
the parameter p and q are RatFuncs and d = 1.  A RatFunc is num/den with
num and den tuples of integer coefficients, coprime, with no common
content and den[-1] > 0; when both denominators are constant, as for a
polynomial in t over Q, an operation is integer convolutions and one gcd,
and only a non-constant denominator takes a polynomial gcd in Z[t].  Both
coordinate types share + - *, == and truth testing, so the element
arithmetic is written once for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class Inconclusive(Exception):
    """A question these exact methods could not settle: the command line
    exits 2 on exactly the subclasses of this class."""


class FieldError(Exception):
    """Base class for coefficient-field failures."""


class MismatchedFieldError(FieldError):
    """Two operands live over different field descriptors."""


class FieldExtensionError(FieldError, Inconclusive):
    """A computation requires an extension the tower cannot host."""


class WidenRequest(FieldError, Inconclusive):
    """Raised internally when a square root of m would solve the problem.

    Callers owning the whole computation retry through `widening`.
    """

    def __init__(self, m: int):
        super().__init__(f"requires adjoining sqrt({m})")
        self.m = m


# ---------------------------------------------------------------------------
# dense univariate polynomials over Z, low-to-high tuples of ints, trimmed
# (the leading entry is nonzero)


def _ptrim(c):
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def _padd(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, b in enumerate(q):
        out[i] += b
    return _ptrim(out)


def _pneg(p):
    return tuple(-c for c in p)


def _pmul(p, q):
    if not p or not q:
        return ()
    if len(q) == 1:
        p, q = q, p
    if len(p) == 1:
        a = p[0]
        return q if a == 1 else tuple(a * b for b in q)
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _primitive(p):
    """p over its content, with a positive leading coefficient."""
    g = math.gcd(*p)
    if p[-1] < 0:
        g = -g
    return p if g == 1 else tuple(c // g for c in p)


def _pquo(p, q):
    """p / q when q divides p in Q[t] and q is primitive, so that the
    quotient has integer coefficients (Gauss's lemma)."""
    r = list(p)
    dq = len(q) - 1
    lead = q[-1]
    out = [0] * (len(p) - dq)
    for k in range(len(out) - 1, -1, -1):
        c = out[k] = r[k + dq] // lead
        if c:
            for j, b in enumerate(q):
                r[k + j] -= c * b
    return tuple(out)


def _prem(p, q):
    """A nonzero integer multiple of the remainder of p by q, for
    len(p) >= len(q) >= 2."""
    r = list(p)
    dq = len(q) - 1
    lead = q[-1]
    while len(r) > dq:
        c = r[-1]
        if c:
            g = math.gcd(c, lead)
            a, b = lead // g, c // g
            k = len(r) - 1 - dq
            r = [x * a for x in r]
            for j, y in enumerate(q):
                r[k + j] -= b * y
        r.pop()
    return _ptrim(r)


def _pgcd(p, q):
    """The gcd in Z[t] of two nonzero polynomials, primitive with a
    positive leading coefficient: the primitive remainder sequence."""
    if len(p) < len(q):
        p, q = q, p
    p, q = _primitive(p), _primitive(q)
    while len(q) > 1:
        p, q = q, _prem(p, q)
        if not q:
            return p
        q = _primitive(q)
    return _ONE


def _homogeneous_value(c, p, q):
    """sum c_i p^i q^(n-i) with n = len(c) - 1: q^n times the value of
    the polynomial c at p/q, in integers (Horner's rule)."""
    acc, w = 0, 1
    for a in reversed(c):
        acc = acc * p + a * w
        w *= q
    return acc


_ONE = (1,)


def _rf(num, den):
    """The trusted constructor of num/den, already in normal form."""
    r = object.__new__(RatFunc)
    r.num, r.den = num, den
    return r


def _over(num, d):
    """num/d in normal form, for a trimmed polynomial num and an int d > 0:
    one gcd."""
    if not num:
        return _RF0
    if d == 1:
        return _rf(num, _ONE)
    g = math.gcd(d, *num)
    if g != 1:
        return _rf(tuple(c // g for c in num), (d // g,))
    return _rf(num, (d,))


def _reduce(num, den):
    """num/den in normal form, for trimmed polynomials with den nonzero.
    Only a non-constant den takes a polynomial gcd."""
    if len(den) == 1:
        d = den[0]
        return _over(num, d) if d > 0 else _over(_pneg(num), -d)
    if not num:
        return _RF0
    g = _pgcd(num, den)
    if len(g) > 1:
        num, den = _pquo(num, g), _pquo(den, g)
    c = math.gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    if c != 1:
        num, den = tuple(x // c for x in num), tuple(x // c for x in den)
    return _rf(num, den)


def _integral(c):
    """(n, m): the int polynomial n and the positive int m with c = n/m,
    for a rational or a sequence of rationals (ints or Fractions)."""
    if isinstance(c, (int, Fraction)):
        c = (c,)
    m = math.lcm(*(x.denominator for x in c))
    return _ptrim([x.numerator * (m // x.denominator) for x in c]), m


def _lift(x):
    """The constant RatFunc of an int or a Fraction."""
    return _rf((x.numerator,), (x.denominator,)) if x else _RF0


class RatFunc:
    """A rational function num/den in one variable over Q.

    num and den are trimmed tuples of ints, low to high, in one normal
    form: no common polynomial factor, no common integer content, and
    den[-1] > 0.  A polynomial has a den of length 1, so a constant c is
    ((c.numerator,), (c.denominator,)) and zero is ((), (1,)); equal
    values have equal tuples.  + - * / with constant denominators on both
    sides take integer products and one gcd.  render, at and the sort key
    read the monic Fraction form of _monic.  Immutable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE):
        """num/den from one rational or a sequence of rationals (ints or
        Fractions, low to high) on each side."""
        num, a = _integral(num)
        den, b = _integral(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        r = _reduce(_pmul(num, (b,)), _pmul(den, (a,)))
        self.num, self.den = r.num, r.den

    @staticmethod
    def variable():
        return _rf((0, 1), _ONE)

    def is_zero(self):
        return not self.num

    def _monic(self):
        """(num, den) over the leading coefficient of den, as Fractions
        (ints when that coefficient is 1)."""
        lead = self.den[-1]
        if lead == 1:
            return self.num, self.den
        return (tuple(Fraction(c, lead) for c in self.num),
                tuple(Fraction(c, lead) for c in self.den))

    def at(self, x):
        """The value at the rational x, or None at a pole."""
        p, q = x.numerator, x.denominator
        den = _homogeneous_value(self.den, p, q)
        if not den:
            return None
        num = _homogeneous_value(self.num, p, q)
        k = len(self.den) - len(self.num)
        return (Fraction(num * q ** k, den) if k >= 0
                else Fraction(num, den * q ** -k))

    def is_constant(self):
        return len(self.num) <= 1 and len(self.den) == 1

    def as_fraction(self):
        if not self.is_constant():
            raise FieldError("not a constant rational function")
        return Fraction(self.num[0], self.den[0]) if self.num else Fraction(0)

    def degree(self):
        """The degree of num less that of den, for a nonzero value."""
        return len(self.num) - len(self.den)

    def coefficients(self):
        """The coefficients of a polynomial, low to high, as Fractions."""
        if len(self.den) > 1:
            raise FieldError("not a polynomial")
        return [Fraction(c, self.den[0]) for c in self.num]

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _lift(other)
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if type(other) is not RatFunc:
            other = _lift(other)
        a, d = self.num, self.den
        b, e = other.num, other.den
        if len(d) == 1 and len(e) == 1:
            d, e = d[0], e[0]
            if d == e:
                return _over(_padd(a, b), d)
            return _over(_padd(_pmul(a, (e,)), _pmul(b, (d,))), d * e)
        return _reduce(_padd(_pmul(a, e), _pmul(b, d)), _pmul(d, e))

    __radd__ = __add__

    def __neg__(self):
        return _rf(_pneg(self.num), self.den)

    def __sub__(self, other):
        if type(other) is not RatFunc:
            other = _lift(other)
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not RatFunc:
            other = _lift(other)
        return _reduce(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not RatFunc:
            other = _lift(other)
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return _reduce(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return _lift(other) / self

    def __repr__(self):
        return f"RatFunc({self.num}, {self.den})"

    def render(self, name: str) -> str:
        def side(p):
            if not p:
                return "0"
            terms = []
            for k, c in enumerate(p):
                if c == 0:
                    continue
                if k == 0:
                    terms.append(str(c))
                elif k == 1:
                    terms.append(f"{c}*{name}" if c != 1 else name)
                else:
                    terms.append(f"{c}*{name}^{k}" if c != 1 else f"{name}^{k}")
            return " + ".join(terms).replace("+ -", "- ")
        num, den = self._monic()
        if len(den) == 1:
            return side(num)
        return f"({side(num)})/({side(den)})"


_RF0 = _rf((), _ONE)


# Trial division stops here, so one factorization costs at most this many
# steps; what a cofactor left above the limit still decides is up to the
# caller.
_TRIAL_LIMIT = 10 ** 5


def _trial_factor(n: int):
    """(factors, c) for an int n != 0: the (prime, exponent) pairs of the
    primes up to _TRIAL_LIMIT dividing n, and the cofactor c of |n| they
    leave.  Every prime factor of c exceeds the limit, so c is 1 or prime
    when c < _TRIAL_LIMIT^2."""
    n = abs(n)
    factors = []
    d = 2
    while d * d <= n and d <= _TRIAL_LIMIT:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    return factors, n


def _squarefree_part(n: int):
    """Return (s, k) with n = s*k^2 and s square-free.

    A cofactor c that _trial_factor leaves below the cube of the limit
    has at most two prime factors: it is the square of a prime or
    square-free.  A larger c is not factored, and FieldExtensionError is
    raised.
    """
    if n == 0:
        return 0, 1
    factors, c = _trial_factor(n)
    s, k = (-1 if n < 0 else 1), 1
    for p, e in factors:
        if e % 2:
            s *= p
        k *= p ** (e // 2)
    if c >= _TRIAL_LIMIT ** 3:
        raise FieldExtensionError(
            "cannot decide whether %d is square-free: it has no prime "
            "factor below %d" % (c, _TRIAL_LIMIT))
    r = math.isqrt(c)
    if r * r == c:
        return s, k * r
    return s * c, k


def _is_squarefree(n: int) -> bool:
    return _squarefree_part(n)[0] == n


@dataclass(frozen=True)
class FieldDescriptor:
    """Shape of the coefficient tower: Q, optionally (t), optionally sqrt(m)."""

    quadratic_extension: int | None = None
    parameter: str | None = None

    def __post_init__(self):
        m = self.quadratic_extension
        if m is not None:
            if m in (0, 1):
                raise FieldError(f"m = {m} is not an admissible quadratic extension")
            if not _is_squarefree(m):
                raise FieldError(f"m = {m} is not square-free")

    # -- constructors for elements over this descriptor

    def rational(self, q) -> "FieldElement":
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        if self.parameter is None:
            return _elem(self, q.numerator, 0, q.denominator)
        return _elem(self, _lift(q), _RF0, 1)

    def zero(self) -> "FieldElement":
        return self.rational(0)

    def one(self) -> "FieldElement":
        return self.rational(1)

    def sqrt_gen(self) -> "FieldElement":
        if self.quadratic_extension is None:
            raise FieldError("descriptor has no quadratic extension")
        if self.parameter is not None:
            return FieldElement(self, 0, 1)
        return _elem(self, 0, 1, 1)

    def param_gen(self) -> "FieldElement":
        if self.parameter is None:
            raise FieldError("descriptor has no transcendental parameter")
        return FieldElement(self, RatFunc.variable(), 0)

    def widened(self, m: int) -> "FieldDescriptor":
        s, _ = _squarefree_part(m)
        if self.quadratic_extension is not None:
            if self.quadratic_extension == s:
                return self
            raise FieldExtensionError(
                f"tower already hosts sqrt({self.quadratic_extension}); "
                f"cannot also adjoin sqrt({s})")
        return FieldDescriptor(s, self.parameter)

    def with_parameter(self, name: str) -> "FieldDescriptor":
        if self.parameter is not None:
            if self.parameter == name:
                return self
            raise FieldExtensionError("tower already hosts a transcendental parameter")
        return FieldDescriptor(self.quadratic_extension, name)

    def extends(self, other: "FieldDescriptor") -> bool:
        ok_m = other.quadratic_extension in (None, self.quadratic_extension)
        ok_p = other.parameter in (None, self.parameter)
        return ok_m and ok_p

    def describe(self) -> str:
        s = "Q"
        if self.parameter is not None:
            s += f"({self.parameter})"
        if self.quadratic_extension is not None:
            s += f"(sqrt({self.quadratic_extension}))"
        return s


QQ = FieldDescriptor()


def _frac(c) -> Fraction:
    """The value of a constant coordinate."""
    return c if type(c) is Fraction else c.as_fraction()


def _render(c, name: str) -> str:
    return str(c) if type(c) is Fraction else c.render(name)


def _key(c):
    """(numerator, denominator) tuples of the monic form; a Fraction keys
    as the constant RatFunc, so 0 (empty numerator) sorts before every
    other rational."""
    return ((c,) if c else (), _ONE) if type(c) is Fraction else c._monic()


def _elem(desc: FieldDescriptor, p, q, d) -> "FieldElement":
    """The trusted constructor of (p + q*sqrt(m))/d, for coordinates of
    desc's type with d > 0 and q zero when desc has no sqrt(m), as
    arithmetic on elements of desc yields them: no checks, and one gcd
    brings integer coordinates to normal form."""
    if d != 1:
        g = math.gcd(p, q, d)
        if g != 1:
            p, q, d = p // g, q // g, d // g
    x = object.__new__(FieldElement)
    x.desc, x.p, x.q, x.d = desc, p, q, d
    return x


class FieldElement:
    """Element (p + q*sqrt(m))/d of a field tower.

    In a parameter-free tower p, q and d are integers with d > 0 and
    gcd(p, q, d) = 1, so equal values have equal coordinates.  In a tower
    with the parameter p and q are reduced RatFuncs and d = 1.  Either
    way q is zero when desc has no sqrt(m), and + - * share one formula
    for both kinds of tower.  The properties a and b give the value as
    a + b*sqrt(m), as Fractions or RatFuncs.  The public constructor
    checks the tower and converts a and b; results of arithmetic are
    built by the trusted `_elem`.
    """

    __slots__ = ("desc", "p", "q", "d")

    def __init__(self, desc: FieldDescriptor, a, b):
        if desc.parameter is None:
            if any(type(c) is RatFunc and not c.is_constant() for c in (a, b)):
                raise FieldError("parameter appears in a parameter-free tower")
            a, b = (Fraction(_frac(c) if type(c) is RatFunc else c)
                    for c in (a, b))
            d = math.lcm(a.denominator, b.denominator)
            p, q = (c.numerator * (d // c.denominator) for c in (a, b))
        else:
            p, q = (c if type(c) is RatFunc else RatFunc(c) for c in (a, b))
            d = 1
        if desc.quadratic_extension is None and q:
            raise FieldError("sqrt coordinate in a tower without extension")
        self.desc, self.p, self.q, self.d = desc, p, q, d

    @property
    def a(self):
        return (Fraction(self.p, self.d) if self.desc.parameter is None
                else self.p)

    @property
    def b(self):
        return (Fraction(self.q, self.d) if self.desc.parameter is None
                else self.q)

    # -- coercion helpers

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.desc is not self.desc and other.desc != self.desc:
                raise MismatchedFieldError(
                    f"{self.desc.describe()} vs {other.desc.describe()}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.desc.rational(other)
        return NotImplemented

    def is_zero(self):
        return not self.p and not self.q

    def is_rational(self):
        return not self.q and (self.desc.parameter is None
                               or self.p.is_constant())

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise FieldError("element is not rational")
        return _frac(self.a)

    def involves_parameter(self) -> bool:
        return self.desc.parameter is not None and not (
            self.p.is_constant() and self.q.is_constant())

    def __bool__(self):
        return bool(self.p) or bool(self.q)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            if self.q:
                return False
            if self.d == 1:
                return self.p == other
            return self.p == other.numerator and self.d == other.denominator
        return (isinstance(other, FieldElement)
                and (self.desc is other.desc or self.desc == other.desc)
                and self.p == other.p and self.q == other.q
                and self.d == other.d)

    def __hash__(self):
        return hash((self.desc, self.p, self.q, self.d))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _elem(self.desc, self.p + other.p, self.q + other.q, d)
        return _elem(self.desc, self.p * e + other.p * d,
                     self.q * e + other.q * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _elem(self.desc, -self.p, -self.q, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _elem(self.desc, self.p - other.p, self.q - other.q, d)
        return _elem(self.desc, self.p * e - other.p * d,
                     self.q * e - other.q * d, d * e)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = self.desc.quadratic_extension
        if m is None:
            return _elem(self.desc, self.p * other.p, self.q,
                         self.d * other.d)
        p, q, r, s = self.p, self.q, other.p, other.q
        return _elem(self.desc, p * r + q * s * m, p * s + q * r,
                     self.d * other.d)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = self.desc.one()
        for _ in range(n):
            out = out * self
        return out

    def inverse(self):
        """The conjugate over the norm p^2 - m q^2 (p^2 without sqrt(m)),
        which vanishes only at 0 as m is square-free, times d."""
        p, q, d = self.p, self.q, self.d
        m = self.desc.quadratic_extension
        if not p and not q:
            raise ZeroDivisionError("inverse of zero field element")
        if self.desc.parameter is not None:
            if m is None:
                return _elem(self.desc, 1 / p, q, 1)
            norm = p * p - q * q * m
            return _elem(self.desc, p / norm, -q / norm, 1)
        norm = p * p if m is None else p * p - q * q * m
        if norm < 0:
            norm, d = -norm, -d
        return _elem(self.desc, d * p, -d * q, norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def conjugate(self):
        return _elem(self.desc, self.p, -self.q, self.d)

    def render(self) -> str:
        name = self.desc.parameter or "t"
        m = self.desc.quadratic_extension
        if not self.q:
            return _render(self.a, name)
        parts = []
        if self.p:
            parts.append(_render(self.a, name))
        bs = _render(self.b, name)
        root = f"rt({m})"
        if bs == "1":
            parts.append(root)
        elif bs == "-1":
            parts.append(f"-{root}")
        else:
            parts.append(f"({bs})*{root}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"<{self.render()} in {self.desc.describe()}>"


def coerce(x: FieldElement, desc: FieldDescriptor) -> FieldElement:
    """Embed x into a tower that extends its own."""
    if x.desc is desc or x.desc == desc:
        return x
    if not desc.extends(x.desc):
        raise FieldExtensionError(
            f"cannot embed {x.desc.describe()} into {desc.describe()}")
    if desc.parameter is not None and x.desc.parameter is None:
        return _elem(desc, _over(_ptrim((x.p,)), x.d),
                     _over(_ptrim((x.q,)), x.d), 1)
    return _elem(desc, x.p, x.q, x.d)


def common_denominator(elements) -> RatFunc:
    """The monic lcm in Q[t] of the denominators of the coordinates of
    elements of a tower with a parameter, as a polynomial RatFunc."""
    d = _ONE
    for x in elements:
        for c in (x.p, x.q):
            if len(c.den) > 1:
                e = _primitive(c.den)
                d = _pmul(d, _pquo(e, _pgcd(d, e)))
    return _rf(d, (d[-1],))


def _fraction_sqrt(q: Fraction):
    """Exact square root of a non-negative rational, or None."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn = _int_sqrt_exact(num)
    rd = _int_sqrt_exact(den)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _int_sqrt_exact(n: int):
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def sqrt_in_tower(x: FieldElement):
    """A square root of x inside its own tower, or None.

    Only elements free of the transcendental parameter are considered;
    parameter-dependent square roots lie outside the supported towers.
    """
    if x.involves_parameter():
        return None
    desc = x.desc
    m = desc.quadratic_extension
    a = _frac(x.a)
    if not x.q:
        r = _fraction_sqrt(a)
        if r is not None:
            return desc.rational(r)
        if m is not None:
            r = _fraction_sqrt(a / m)
            if r is not None:
                return FieldElement(desc, 0, r)
        return None
    # x = a + b*sqrt(m); candidate sqrt c + d*sqrt(m) needs
    # c^2 + m d^2 = a and 2 c d = b, so z = c^2 solves z^2 - a z + m b^2 / 4 = 0.
    b = _frac(x.b)
    disc = a * a - Fraction(m) * b * b
    s = _fraction_sqrt(disc)
    if s is None:
        return None
    for root in ((a + s) / 2, (a - s) / 2):
        c = _fraction_sqrt(root)
        if c is not None and c != 0:
            d = b / (2 * c)
            cand = FieldElement(desc, c, d)
            if cand * cand == x:
                return cand
    return None


def sqrt_or_widen(x: FieldElement):
    """Square root in the tower; raise WidenRequest when one adjunction fixes it.

    Raises FieldExtensionError when the root lies beyond any supported tower.
    """
    r = sqrt_in_tower(x)
    if r is not None:
        return r
    if x.involves_parameter():
        raise FieldExtensionError("square root of a parameter-dependent element")
    if not x.q and x.desc.quadratic_extension is None:
        q = x.as_fraction()
        s, _ = _squarefree_part(q.numerator * q.denominator)
        raise WidenRequest(s)
    raise FieldExtensionError(
        f"square root of {x.render()} needs a second quadratic extension")


def widening(run, desc: FieldDescriptor):
    """run(desc), and once more over desc widened by sqrt(m) when the first
    run raises WidenRequest(m).  Only sqrt_or_widen raises one, and only
    over a tower without a square root, so the second run cannot ask
    again; a request that it did raise would propagate."""
    try:
        return run(desc)
    except WidenRequest as w:
        m = w.m
    return run(desc.widened(m))


def sort_key(x: FieldElement):
    """Deterministic total order key for elements of one tower."""
    return _key(x.a) + _key(x.b)


def eigenvalue_ratio(tr: FieldElement, det: FieldElement) -> str:
    """Classify the eigenvalue quotient q of a 2x2 linear part from trace
    and determinant of its characteristic polynomial T^2 - tr*T + det.

    Returns 'positive' or 'negative' when q is a rational of that sign,
    'neither' otherwise, and 'zero-eigenvalue' or 'nilpotent' when
    det = 0.  Decided exactly: t = tr^2/det = q + 2 + 1/q, so q is
    rational iff t is rational and (t-2)^2 - 4 is the square of a
    rational, and then t >= 4 or t <= 0 by the sign of q.
    """
    if det.is_zero():
        return "nilpotent" if tr.is_zero() else "zero-eigenvalue"
    t = tr * tr / det
    if not t.is_rational():
        return "neither"
    tq = t.as_fraction()
    if _fraction_sqrt((tq - 2) ** 2 - 4) is None:
        return "neither"
    return "positive" if tq > 0 else "negative"
