"""Integer coordinates (p + q*sqrt(m))/d in parameter-free towers against a
frozen copy of the element whose coordinates are all RatFuncs, the normal
form after every operation, and the boundary between parameter-free and
parametric towers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_lab import fields
from foliation_lab.fields import (FieldDescriptor, FieldError,
                                  MismatchedFieldError)

# --- frozen reference: every coordinate a RatFunc, checked on every result --


def _ptrim(c):
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _padd(p, q):
    n = max(len(p), len(q))
    return _ptrim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                   for i in range(n)])


def _pneg(p):
    return tuple(-c for c in p)


def _pmul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _ptrim(out)


def _pdivmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq = len(q) - 1
    lead = q[-1]
    while len(r) - 1 >= dq and _ptrim(r):
        r = list(_ptrim(r))
        if len(r) - 1 < dq:
            break
        c = r[-1] / lead
        k = len(r) - 1 - dq
        quo[k] = c
        for j in range(len(q)):
            r[k + j] -= c * q[j]
        r = r[:-1]
    return _ptrim(quo), _ptrim(r)


def _pgcd(p, q):
    a, b = _ptrim(p), _ptrim(q)
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if a:
        a = tuple(c / a[-1] for c in a)  # monic
    return a


def _pmonic_scale(p):
    """Return (monic polynomial, leading coefficient)."""
    if not p:
        return (), Fraction(1)
    lead = p[-1]
    return tuple(c / lead for c in p), lead


_ONE_DEN = (Fraction(1),)
_F0 = Fraction(0)


def _const_rf(c: Fraction) -> "RatFunc":
    """Constant rational function without normalization overhead."""
    r = object.__new__(RatFunc)
    r.num = (c,) if c else ()
    r.den = _ONE_DEN
    return r


class RatFunc:
    """A reduced rational function in one variable over Q.

    Constants are represented with denominator (1,).  Immutable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE_DEN):
        if isinstance(num, (int, Fraction)):
            num = (Fraction(num),) if num != 0 else ()
        if isinstance(den, (int, Fraction)):
            den = (Fraction(den),)
        if type(num) is not tuple:
            num = tuple(num)
        if type(den) is not tuple:
            den = tuple(den)
        if any(type(c) is not Fraction for c in num):
            num = tuple(Fraction(c) for c in num)
        if any(type(c) is not Fraction for c in den):
            den = tuple(Fraction(c) for c in den)
        num = _ptrim(num)
        den = _ptrim(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            self.num = ()
            self.den = _ONE_DEN
            return
        if len(den) == 1:
            if den[0] != 1:
                lead = den[0]
                num = tuple(c / lead for c in num)
            self.num = num
            self.den = _ONE_DEN
            return
        g = _pgcd(num, den)
        if g and len(g) > 1 or (g and g != (Fraction(1),)):
            num = _pdivmod(num, g)[0]
            den = _pdivmod(den, g)[0]
        den, lead = _pmonic_scale(den)
        num = tuple(c / lead for c in num)
        self.num = num
        self.den = den

    def _const_value(self):
        """The constant value when this is a constant, else None."""
        if self.den is _ONE_DEN or self.den == _ONE_DEN:
            if not self.num:
                return _F0
            if len(self.num) == 1:
                return self.num[0]
        return None

    @staticmethod
    def variable():
        return RatFunc((Fraction(0), Fraction(1)))

    def is_zero(self):
        return not self.num

    def is_constant(self):
        return len(self.num) <= 1 and self.den == (Fraction(1),)

    def as_fraction(self):
        if not self.is_constant():
            raise FieldError("not a constant rational function")
        return self.num[0] if self.num else Fraction(0)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        a, b = self._const_value(), other._const_value()
        if a is not None and b is not None:
            return _const_rf(a + b)
        return RatFunc(_padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
                       _pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        a = self._const_value()
        if a is not None:
            return _const_rf(-a)
        return RatFunc(_pneg(self.num), self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        a, b = self._const_value(), other._const_value()
        if a is not None and b is not None:
            return _const_rf(a - b)
        return self + (-other)

    def __rsub__(self, other):
        return RatFunc(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        a, b = self._const_value(), other._const_value()
        if a is not None and b is not None:
            return _const_rf(a * b)
        if (a is not None and not a) or (b is not None and not b):
            return _const_rf(_F0)
        return RatFunc(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        a, b = self._const_value(), other._const_value()
        if a is not None and b is not None:
            return _const_rf(a / b)
        return RatFunc(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return RatFunc(other) / self

    def degree_pair(self):
        return (len(self.num) - 1 if self.num else -1, len(self.den) - 1)

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
        if self.den == (Fraction(1),):
            return side(self.num)
        return f"({side(self.num)})/({side(self.den)})"


class RefElement:
    """Element a + b*sqrt(m) of a field tower, a and b rational functions."""

    __slots__ = ("desc", "a", "b")

    def __init__(self, desc: FieldDescriptor, a: RatFunc, b: RatFunc):
        if desc.quadratic_extension is None and not b.is_zero():
            raise FieldError("sqrt coordinate in a tower without extension")
        if desc.parameter is None:
            for part in (a, b):
                if part.degree_pair() > (0, 0):
                    raise FieldError("parameter appears in a parameter-free tower")
        self.desc = desc
        self.a = a
        self.b = b

    # -- coercion helpers

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RefElement(self.desc, RatFunc(other), RatFunc(0))
        if not isinstance(other, RefElement):
            return NotImplemented
        if other.desc != self.desc:
            raise MismatchedFieldError(
                f"{self.desc.describe()} vs {other.desc.describe()}")
        return other

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    def is_rational(self):
        return self.b.is_zero() and self.a.is_constant()

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise FieldError("element is not rational")
        return self.a.as_fraction()

    def involves_parameter(self) -> bool:
        return self.a.degree_pair() > (0, 0) or self.b.degree_pair() > (0, 0)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b.is_zero() and self.a == RatFunc(other)
        return (isinstance(other, RefElement) and self.desc == other.desc
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        return hash((self.desc, self.a, self.b))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RefElement(self.desc, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return RefElement(self.desc, -self.a, -self.b)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = self.desc.quadratic_extension
        a = self.a * other.a
        if m is not None:
            a = a + self.b * other.b * m
        b = self.a * other.b + self.b * other.a
        return RefElement(self.desc, a, b)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = _ref_rational(self.desc, 1)
        for _ in range(n):
            out = out * self
        return out

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        return self._inv_conj()

    def _inv_conj(self):
        m = self.desc.quadratic_extension or 0
        norm = self.a * self.a - self.b * self.b * m
        if norm.is_zero():
            # impossible for square-free m over Q(t); defensive
            raise FieldError("zero norm in quadratic tower")
        return RefElement(self.desc, self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def conjugate(self):
        return RefElement(self.desc, self.a, -self.b)

    def render(self) -> str:
        name = self.desc.parameter or "t"
        m = self.desc.quadratic_extension
        if self.b.is_zero():
            return self.a.render(name)
        parts = []
        if not self.a.is_zero():
            parts.append(self.a.render(name))
        bs = self.b.render(name)
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


def _ref_rational(desc, q):
    return RefElement(desc, RatFunc(Fraction(q)), RatFunc(0))


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


def ref_sqrt_in_tower(x: RefElement):
    """A square root of x inside its own tower, or None.

    Only elements free of the transcendental parameter are considered;
    parameter-dependent square roots lie outside the supported towers.
    """
    if x.involves_parameter():
        return None
    desc = x.desc
    m = desc.quadratic_extension
    a = x.a.as_fraction()
    if x.b.is_zero():
        r = _fraction_sqrt(a)
        if r is not None:
            return _ref_rational(desc, r)
        if m is not None:
            r = _fraction_sqrt(a / m)
            if r is not None:
                return RefElement(desc, RatFunc(0), RatFunc(r))
        return None
    # x = a + b*sqrt(m); candidate sqrt c + d*sqrt(m) needs
    # c^2 + m d^2 = a and 2 c d = b, so z = c^2 solves z^2 - a z + m b^2 / 4 = 0.
    b = x.b.as_fraction()
    disc = a * a - Fraction(m) * b * b
    s = _fraction_sqrt(disc)
    if s is None:
        return None
    for root in ((a + s) / 2, (a - s) / 2):
        c = _fraction_sqrt(root)
        if c is not None and c != 0:
            d = b / (2 * c)
            cand = RefElement(desc, RatFunc(c), RatFunc(d))
            if cand * cand == x:
                return cand
    return None


def ref_sort_key(x: RefElement):
    """Deterministic total order key for elements of one tower."""
    return (x.a.num, x.a.den, x.b.num, x.b.den)


# --- the live element against the reference --------------------------------

QQ = FieldDescriptor()
Q2 = FieldDescriptor(quadratic_extension=2)
QS = FieldDescriptor(parameter="s")
QS2 = FieldDescriptor(quadratic_extension=2, parameter="s")
TOWERS = [QQ, Q2, FieldDescriptor(quadratic_extension=-1),
          FieldDescriptor(quadratic_extension=5), QS, QS2]

_fracs = st.fractions(min_value=-20, max_value=20, max_denominator=9)
_towers = st.sampled_from(TOWERS)


def _coordinate(draw, desc):
    """(numerator, denominator) coefficient tuples, low to high."""
    if desc.parameter is None:
        return (draw(_fracs),), (Fraction(1),)
    num = tuple(draw(st.lists(_fracs, max_size=3)))
    den = tuple(draw(st.lists(_fracs, min_size=1, max_size=2).filter(any)))
    return num, den


def _pair(draw, desc):
    """One value as a live element and as a reference element."""
    a = _coordinate(draw, desc)
    b = (_coordinate(draw, desc) if desc.quadratic_extension is not None
         else ((), (Fraction(1),)))
    live = fields.FieldElement(desc, fields.RatFunc(*a), fields.RatFunc(*b))
    return live, RefElement(desc, RatFunc(*a), RatFunc(*b))


def _normal_ratfunc(c):
    """c is a RatFunc in the integer normal form: trimmed int tuples with
    no common polynomial factor and no common content, den[-1] > 0."""
    assert type(c) is fields.RatFunc
    assert type(c.num) is type(c.den) is tuple
    assert all(type(a) is int for a in c.num + c.den)
    assert not c.num or c.num[-1] != 0
    assert c.den and c.den[-1] > 0
    if not c.num:
        assert c.den == (1,)
        return
    assert math.gcd(*c.num, *c.den) == 1
    if len(c.den) > 1:
        assert _pgcd(*(tuple(map(Fraction, p)) for p in (c.num, c.den))) \
            == (1,)


def _normal(x):
    """x is in normal form: integers with d > 0 and gcd(p, q, d) = 1 over
    the ground field, RatFuncs in their normal form over d = 1 with the
    parameter, and q = 0 without sqrt(m)."""
    if x.desc.parameter is None:
        assert all(type(c) is int for c in (x.p, x.q, x.d))
        assert x.d > 0 and math.gcd(x.p, x.q, x.d) == 1
    else:
        _normal_ratfunc(x.p)
        _normal_ratfunc(x.q)
        assert x.d == 1
    assert x.desc.quadratic_extension is not None or not x.q


def _same(live, ref):
    """Equal coordinates (as the sort key spells them), equal text, and
    the live element in normal form."""
    _normal(live)
    assert fields.sort_key(live) == ref_sort_key(ref)
    assert live.render() == ref.render()


def _outcome(fn, *args):
    """The result of fn, or the type of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(_towers, st.data())
def test_ring_operations_agree_with_reference(desc, data):
    (lx, rx), (ly, ry) = _pair(data.draw, desc), _pair(data.draw, desc)
    _same(lx, rx)
    for op in (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q,
               lambda p, q: -p * q):
        _same(op(lx, ly), op(rx, ry))
    k = data.draw(st.integers(-5, 5) | _fracs)
    for op in (lambda p: p + k, lambda p: k - p, lambda p: p * k,
               lambda p: k * p, lambda p: p ** 3, lambda p: p.conjugate()):
        _same(op(lx), op(rx))
    if ry.is_zero():
        assert _outcome(lambda: lx / ly) is ZeroDivisionError
        assert _outcome(ly.inverse) is ZeroDivisionError
        assert _outcome(ry.inverse) is ZeroDivisionError
    else:
        _same(lx / ly, rx / ry)
        _same(ly.inverse(), ry.inverse())
        if k:
            _same(k / ly, k / ry)


@settings(max_examples=150, deadline=None)
@given(_towers, st.data())
def test_rational_queries_and_comparisons_agree(desc, data):
    lx, rx = _pair(data.draw, desc)
    assert lx.is_zero() == rx.is_zero()
    assert lx.is_rational() == rx.is_rational()
    assert lx.involves_parameter() == rx.involves_parameter()
    assert _outcome(lx.as_fraction) == _outcome(rx.as_fraction)
    k = data.draw(_fracs)
    own = rx.as_fraction() if rx.is_rational() else k
    for other in (0, 1, -1, k, int(k), own):
        assert (lx == other) == (rx == other)
    ly, ry = _pair(data.draw, desc)
    assert (lx == ly) == (rx == ry)
    assert (lx == lx + 0) and (lx != lx + 1)


@settings(max_examples=100, deadline=None)
@given(_towers, st.data())
def test_truth_value_agrees_with_reference(desc, data):
    """__bool__ tests both coordinates itself, in every tower."""
    lx, rx = _pair(data.draw, desc)
    assert bool(lx) == bool(rx) == (not rx.is_zero())
    assert not desc.zero() and not (lx - lx) and desc.one()
    if desc.quadratic_extension is not None:
        assert desc.sqrt_gen()  # a = 0, b = 1


@settings(max_examples=150, deadline=None)
@given(_towers, st.data())
def test_square_roots_agree_with_reference(desc, data):
    lx, rx = _pair(data.draw, desc)
    for live, ref in ((lx, rx), (lx * lx, rx * rx),
                      (lx * lx * desc.rational(2), rx * rx * 2)):
        lr, rr = fields.sqrt_in_tower(live), ref_sqrt_in_tower(ref)
        assert (lr is None) == (rr is None)
        if lr is not None:
            _same(lr, rr)
            assert lr * lr == live


@settings(max_examples=60, deadline=None)
@given(_towers, st.data())
def test_sort_order_agrees_with_reference(desc, data):
    pairs = [_pair(data.draw, desc) for _ in range(6)]
    pairs += [(desc.rational(k), _ref_rational(desc, k)) for k in (0, -1, 1)]
    live = sorted(range(len(pairs)), key=lambda i: fields.sort_key(pairs[i][0]))
    ref = sorted(range(len(pairs)), key=lambda i: ref_sort_key(pairs[i][1]))
    assert [fields.sort_key(pairs[i][0]) for i in live] == \
        [ref_sort_key(pairs[i][1]) for i in ref]


@pytest.mark.parametrize("desc", TOWERS, ids=lambda d: d.describe())
def test_zero_sorts_before_negative_rationals(desc):
    zero, neg, pos = (desc.rational(q) for q in (0, Fraction(-3, 2), 1))
    order = sorted([pos, neg, zero], key=fields.sort_key)
    assert order == [zero, neg, pos]
    refs = sorted([_ref_rational(desc, q) for q in (1, Fraction(-3, 2), 0)],
                  key=ref_sort_key)
    assert [fields.sort_key(x) for x in order] == [ref_sort_key(x) for x in refs]


@settings(max_examples=150, deadline=None)
@given(_towers, _fracs, _fracs, _fracs.filter(bool))
def test_equal_values_by_every_route_are_equal_and_hash_equal(desc, a, b, k):
    """The public constructor, rational and sqrt_gen, arithmetic and
    coerce all land on one normal form."""
    if desc.quadratic_extension is None:
        b = Fraction(0)
    x = fields.FieldElement(desc, a, b)
    routes = [fields.FieldElement(desc, fields.RatFunc(a), fields.RatFunc(b)),
              x * k / k, x + k - k, k - (k - x), x.conjugate().conjugate()]
    if x:
        routes.append((x * k).inverse().inverse() / k)
    if desc.quadratic_extension is not None:
        routes.append(desc.rational(a) + desc.rational(b) * desc.sqrt_gen())
    if desc.parameter is not None:
        ground = FieldDescriptor(desc.quadratic_extension)
        routes.append(fields.coerce(fields.FieldElement(ground, a, b), desc))
    if not b:
        routes += [desc.rational(a), fields.coerce(QQ.rational(a), desc)]
        assert x == a and (a.denominator != 1 or x == int(a))
    for y in routes:
        _normal(y)
        assert y == x and hash(y) == hash(x)
        assert fields.sort_key(y) == fields.sort_key(x)


@pytest.mark.parametrize("desc", [QQ, Q2, QS, QS2], ids=lambda d: d.describe())
def test_ground_tower_arithmetic_builds_no_fraction(desc, monkeypatch):
    """+ - * / inverse and comparisons with an int or a Fraction run on
    integers alone over Q and Q(sqrt(2)), and over Q(s) and
    Q(s)(sqrt(2)) on coordinates with constant denominators."""
    gen = desc.sqrt_gen() if desc.quadratic_extension else desc.one()
    if desc.parameter is not None:
        gen = gen * (desc.param_gen() * Fraction(2, 3) - 1)
    x = desc.rational(Fraction(3, 7)) + gen
    y = desc.rational(Fraction(-5, 11)) - gen * 2
    half = Fraction(1, 2)
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    results = [x + y, x - y, x * y, x / y, y.inverse(), -x, x.conjugate(),
               x ** 3, x + 2, 2 - x, 3 * x, x * half, half / x, x / 3,
               desc.rational(half), desc.rational(5), desc.zero(), desc.one()]
    tests = [x == 3, x == half, x != y, x == x * 1, bool(x), x.is_zero(),
             desc.rational(half) == half, desc.rational(6) == 6,
             (x - x) == 0, x * x.inverse() == 1]
    monkeypatch.undo()
    assert built == []
    assert tests == [False, False, True, True, True, False, True, True,
                     True, True]
    assert results[3] * y == x and results[4] * y == 1


# --- RatFunc against the frozen Fraction RatFunc ---------------------------


def _ref_at(c, x):
    """The frozen value of the RatFunc c at the rational x, or None."""
    def value(p):
        acc = _F0
        for a in reversed(p):
            acc = acc * x + a
        return acc
    den = value(c.den)
    return value(c.num) / den if den else None


def _ref_common_denominator(elements):
    """The frozen monic lcm of the denominators of the coordinates."""
    d = _ONE_DEN
    for x in elements:
        for c in (x.a, x.b):
            if len(c.den) > 1:
                d = _pmul(d, _pdivmod(c.den, _pgcd(d, c.den))[0])
    return RatFunc(d)


def _rf_same(live, ref):
    """The same value: the monic form of the live RatFunc is the frozen
    one's coordinates, with equal text; and live is in normal form."""
    _normal_ratfunc(live)
    assert fields._key(live) == (ref.num, ref.den)
    assert live.render("s") == ref.render("s")


def _rf_pair(draw):
    """num/den as a live and a frozen RatFunc, with non-constant
    denominators and, at times, a common factor to cancel."""
    num = tuple(draw(st.lists(_fracs, max_size=4)))
    den = tuple(draw(st.lists(_fracs, min_size=1, max_size=3).filter(any)))
    common = tuple(draw(st.lists(_fracs, min_size=1, max_size=2).filter(any)))
    num, den = (_pmul(tuple(map(Fraction, p)), common) for p in (num, den))
    return fields.RatFunc(num, den), RatFunc(num, den)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ratfunc_agrees_with_frozen_ratfunc(data):
    (lx, rx), (ly, ry) = _rf_pair(data.draw), _rf_pair(data.draw)
    _rf_same(lx, rx)
    _rf_same(ly, ry)
    k = data.draw(st.integers(-5, 5) | _fracs)
    for op in (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q,
               lambda p, q: -p * q):
        _rf_same(op(lx, ly), op(rx, ry))
        _rf_same(op(lx, k), op(rx, k))
        _rf_same(op(k, lx), op(k, rx))
    for p, q, r, s in ((lx, ly, rx, ry), (k, lx, k, rx), (lx, k, rx, k)):
        if s:
            _rf_same(p / q, r / s)
        else:
            assert _outcome(lambda: p / q) is ZeroDivisionError
    for x in (0, 1, -2, k, Fraction(1, 3)):
        assert lx.at(x) == _ref_at(rx, x)
    assert (lx == ly) == (rx == ry) and (lx == k) == (rx == k)
    assert lx.is_constant() == rx.is_constant()
    assert _outcome(lx.as_fraction) == _outcome(rx.as_fraction)
    elements = [fields.FieldElement(QS2, lx, ly), fields.FieldElement(QS, ly, 0),
                QS.rational(k)]
    refs = [RefElement(QS2, rx, ry), RefElement(QS, ry, RatFunc(0)),
            _ref_rational(QS, k)]
    _rf_same(fields.common_denominator(elements),
             _ref_common_denominator(refs))


# --- the boundary between parameter-free and parametric towers -------------


@pytest.mark.parametrize("src, dst", [(QQ, QS), (QQ, QS2), (Q2, QS2)],
                         ids=lambda d: d.describe())
def test_coerce_into_a_parametric_tower(src, dst):
    values = [(Fraction(0), Fraction(0)), (Fraction(-3, 4), Fraction(0)),
              (Fraction(5), Fraction(2, 7)), (Fraction(0), Fraction(-1))]
    s = dst.param_gen()
    for a, b in values:
        if src.quadratic_extension is None and b:
            continue
        x = src.rational(a)
        if b:
            x = x + src.rational(b) * src.sqrt_gen()
        y = fields.coerce(x, dst)
        built = dst.rational(a)
        if b:
            built = built + dst.rational(b) * dst.sqrt_gen()
        assert y == built and y.desc == dst
        assert fields.sort_key(y) == fields.sort_key(built)
        assert y.render() == built.render() == x.render()
        assert type(y.a) is fields.RatFunc and type(y.b) is fields.RatFunc
        assert (y * s + 1) - (built * s + 1) == 0
        assert (y + s) / (s * s + 1) == (built + s) / (s * s + 1)
        if x:
            assert y.inverse() == built.inverse()
            assert y * y.inverse() == dst.one()


def test_mixed_towers_raise():
    x, y, z = Q2.rational(3) + Q2.sqrt_gen(), QS.param_gen(), QQ.rational(2)
    for p, q in ((x, y), (y, x), (z, x), (x, z), (z, y), (y, QS2.one())):
        for op in (lambda p, q: p + q, lambda p, q: p - q,
                   lambda p, q: p * q, lambda p, q: p / q):
            with pytest.raises(MismatchedFieldError):
                op(p, q)
        assert p != q


def test_public_constructor_checks_the_tower():
    s = fields.RatFunc.variable()
    with pytest.raises(FieldError, match="parameter"):
        fields.FieldElement(QQ, s, fields.RatFunc(0))
    with pytest.raises(FieldError, match="parameter"):
        fields.FieldElement(Q2, fields.RatFunc(1), s)
    for desc in (QQ, QS):
        with pytest.raises(FieldError, match="sqrt"):
            fields.FieldElement(desc, 0, 1)
    x = fields.FieldElement(QQ, fields.RatFunc(Fraction(3, 2)), fields.RatFunc(0))
    assert type(x.a) is Fraction and x == Fraction(3, 2)
    assert (x.p, x.q, x.d) == (3, 0, 2)
    y = fields.FieldElement(QS2, 2, Fraction(1, 3))
    assert type(y.a) is fields.RatFunc and y == QS2.rational(2) + \
        QS2.sqrt_gen() * Fraction(1, 3)
