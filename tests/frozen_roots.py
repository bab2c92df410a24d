"""A frozen copy of the rational root search that poly.u_roots_in_tower
replaced: _rational_root_candidates (every candidate +-p/q of the
rational root test, a sorted set of Fractions, rebuilt after each
deflation), u_roots_in_tower with its candidate loop, which evaluates
each candidate with field arithmetic, and its helpers u_eval and
u_deflate, as they stood.  They are the reference for the differential
test in test_roots_differential.py.  Only the import inside
u_roots_in_tower names the package instead of being relative, and
u_eval drops its annotation.  Do not edit them: the code in src/ must
give the same results."""

from __future__ import annotations

from fractions import Fraction

from foliation_lab.fields import FieldDescriptor, sort_key
from foliation_lab.poly import _utrim, u_divmod


def u_eval(c, x):
    acc = x.desc.zero()
    for k in reversed(c):
        acc = acc * x + k
    return acc


def u_deflate(c, root, desc):
    """Divide by (X - root)."""
    out, rem = u_divmod(c, [-root, desc.one()], desc)
    if rem:
        raise ValueError("not a root")
    return out


def _rational_root_candidates(coeffs):
    """Rational-root-theorem candidates for a rational-coefficient list."""
    fracs = [c.as_fraction() for c in coeffs]
    from math import gcd as igcd
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // igcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    a0, an = ints[0], ints[-1]
    if a0 == 0:
        return []

    def divisors(n):
        n = abs(n)
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.extend((d, n // d))
            d += 1
        return sorted(set(out))

    cands = set()
    for p in divisors(a0):
        for q in divisors(an):
            cands.add(Fraction(p, q))
            cands.add(Fraction(-p, q))
    return sorted(cands)


def u_roots_in_tower(coeffs, desc: FieldDescriptor):
    """All roots lying inside the tower, each listed once, sorted.

    Roots in Q come from the rational root test and a quadratic factor
    is solved by a square root (WidenRequest outside the tower).  A factor
    of degree >= 3 without a root in Q is not split: FieldExtensionError
    names its degree, although its roots may lie in the tower.
    """
    from foliation_lab.fields import FieldExtensionError, sqrt_or_widen

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
    while len(c) > 1:
        if len(c) == 2:
            roots.append(-c[0] / c[1])
            break
        rational = all(x.is_rational() for x in c)
        if rational:
            found = None
            for cand in _rational_root_candidates(c):
                x = desc.rational(cand)
                if u_eval(c, x).is_zero():
                    found = x
                    break
            if found is not None:
                roots.append(found)
                c = u_deflate(c, found, desc)
                continue
        if len(c) == 3:
            a2, a1, a0 = c[2], c[1], c[0]
            disc = a1 * a1 - 4 * a2 * a0
            if disc.is_zero():
                roots.append(-a1 / (2 * a2))
                break
            s = sqrt_or_widen(disc)
            roots.append((-a1 + s) / (2 * a2))
            roots.append((-a1 - s) / (2 * a2))
            break
        raise FieldExtensionError("a factor of degree %d was not split: %s" % (
            len(c) - 1, "no root in Q was found" if rational else
            "its coefficients are not in Q, so no root was searched"))
    seen = []
    for r in roots:
        if all(not (r - s).is_zero() for s in seen):
            seen.append(r)
    seen.sort(key=sort_key)
    return seen
