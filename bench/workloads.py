"""Seeded input generators for the benchmark workloads.

Every input is built as text from seeded integers; nothing here imports
``foliation_lab``, so a change to the program cannot change the workload.
Each generator returns `cycles` cycles of items in a fixed slot order: a
cycle repeats the same (family, command) slots and only the seeded
parameters differ, so every run has the same mix whatever the seed.

Each item carries the answer known for it by construction or by theorem
(``expect``) and its mix tags: family, tower (Q, Q(sqrt m), Q(s)) and the
multiplicity nu of the form at the origin (or the foliation degree for
projective inputs).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd


class Item:
    __slots__ = ("index", "command", "text", "flags", "expect", "family",
                 "tower", "nu")

    def __init__(self, command, text, expect, family, tower, nu, flags=()):
        self.index = None
        self.command = command
        self.text = text
        self.flags = list(flags)
        self.expect = expect
        self.family = family
        self.tower = tower
        self.nu = nu

    @property
    def name(self):
        return "item%04d" % self.index


# ---------------------------------------------------------------------------
# text rendering


def _term(c, exps, vars_):
    """One monomial; `c` is an int or a coefficient expression string."""
    mono = "*".join(v if e == 1 else "%s^%d" % (v, e)
                    for v, e in zip(vars_, exps) if e)
    if isinstance(c, str):
        return "(%s)*%s" % (c, mono) if mono else "(%s)" % c
    if not mono:
        return str(c)
    if c == 1:
        return mono
    if c == -1:
        return "-" + mono
    return "%d*%s" % (c, mono)


def _poly(terms, vars_):
    """Sum of (coefficient, exponents) terms; repeats are left to the
    parser to add up."""
    parts = [_term(c, e, vars_) for c, e in terms if c != 0]
    if not parts:
        return "0"
    return " + ".join(parts).replace("+ -", "- ")


def _form(head, coeffs, vars_, diffs):
    return "%s: %s" % (head, " + ".join(
        "(%s) %s" % (_poly(t, vars_), d) for t, d in zip(coeffs, diffs)))


def _nz(rng, lo, hi):
    while True:
        x = rng.randint(lo, hi)
        if x:
            return x


def _order(terms):
    return min((sum(e) for c, e in terms if c != 0), default=None)


def _nu(*coeffs):
    return min(o for o in (_order(t) for t in coeffs) if o is not None)


# ---------------------------------------------------------------------------
# plane germs in (u, v)

UV = ("u", "v")
_PLANE_DIFFS = ("du", "dv")

# frozen oracles of the 12-germ plane corpus (identity: nu_form, nu_dg, equal)
CORPUS2 = [
    ("node", "v du + 2*u dv", dict(
        blowups=0, leaves=1, dicritical=False, second_type=True,
        generalized_curve=True, identity=(1, 1, True))),
    ("res12", "2*v du - u dv", dict(
        blowups=2, leaves=1, dicritical=True, second_type=True,
        generalized_curve=True, identity=None)),
    ("cusp", "(-3*u^2) du + 2*v dv", dict(
        blowups=3, leaves=3, dicritical=False, second_type=True,
        generalized_curve=True, identity=(1, 1, True))),
    ("tacnode", "(-4*u^3) du + 2*v dv", dict(
        blowups=2, leaves=3, dicritical=False, second_type=True,
        generalized_curve=True, identity=(1, 1, True))),
    ("radial", "v du - u dv", dict(
        blowups=1, leaves=0, dicritical=True, second_type=True,
        generalized_curve=True, identity=None)),
    ("sn", "(-v - u*v) du + u^2 dv", dict(
        blowups=0, leaves=1, dicritical=False, second_type=True,
        generalized_curve=False, identity=(1, 1, True))),
    ("euler", "(u - v) du + u^2 dv", dict(
        blowups=0, leaves=1, dicritical=False, second_type=True,
        generalized_curve=False, identity=(1, 1, True))),
    ("tangent", "(v^2 - u*v) du + u^2 dv", dict(
        blowups=1, leaves=2, dicritical=False, second_type=False,
        generalized_curve=False, identity=(2, 1, False))),
    ("ham3", "3*u^2 du + 3*v^2 dv", dict(
        blowups=1, leaves=3, dicritical=False, second_type=True,
        generalized_curve=True, identity=(2, 2, True))),
    ("hamuvw", "(2*u*v + v^2) du + (u^2 + 2*u*v) dv", dict(
        blowups=1, leaves=3, dicritical=False, second_type=True,
        generalized_curve=True, identity=(2, 2, True))),
    ("dicq", "(u*v + v^3) du - u^2 dv", dict(
        blowups=2, leaves=2, dicritical=True, second_type=True,
        generalized_curve=True, identity=None)),
    ("rand2", "(u*v + 2*v^2) du + (u^2 + 3*u*v) dv", dict(
        blowups=1, leaves=3, dicritical=False, second_type=True,
        generalized_curve=True, identity=(2, 2, True))),
]

# square-free m whose square root the Hamiltonian tangent cones need
_ROOTS = [2, 3, 5, 6, 7, -1, -2, -3]

_KNOWN_CURVE = dict(dicritical=False, second_type=True,
                    generalized_curve=True, identity_equal=True)


def _exact(f):
    """(A, B) of df for f given as {(i, j): c}."""
    A = [(c * i, (i - 1, j)) for (i, j), c in f.items() if i]
    B = [(c * j, (i, j - 1)) for (i, j), c in f.items() if j]
    return A, B


def _terms(rng, support, lo=-2, hi=2):
    return [(_nz(rng, lo, hi), e) for e in support]


def _hamiltonian(rng, head, support):
    """d(v^a - k u^b + h), h supported above the Newton diagram of
    v^a - u^b: an isolated singularity with a holomorphic first integral,
    so a generalized curve of second type whatever the coefficients."""
    a, b = head
    f = {(0, a): 1, (b, 0): -rng.randint(1, 3)}
    for e in support:
        assert a * e[0] + b * e[1] > a * b
        f[e] = _nz(rng, -3, 3)
    A, B = _exact(f)
    return A, B, dict(_KNOWN_CURVE), "hamiltonian", "Q"


def _nilpotent(rng, head, sup_a, sup_b):
    """d(v^a - k u^b) plus a non-exact perturbation."""
    a, b = head
    A, B = _exact({(0, a): 1, (b, 0): -rng.randint(1, 3)})
    return (A + _terms(rng, sup_a, -3, 3), B + _terms(rng, sup_b, -3, 3),
            {}, "nilpotent", "Q")


def _lemma(rng, sup_a, sup_b, node=False, param=None):
    """Lemma-suite germ l1 v du + l2 u dv plus higher terms.  With
    l1 l2 > 0 the eigenvalue quotient is negative, so the origin is already
    a simple non-degenerate point; a node slot takes l2 = -2 l1 instead."""
    l1 = _nz(rng, -4, 4)
    l2 = -2 * l1 if node else l1 // abs(l1) * rng.randint(1, 4)
    A = [(l1, (0, 1))] + _terms(rng, sup_a)
    B = [(l2, (1, 0))] + _terms(rng, sup_b)
    if param is not None:
        A.append((param, (2, 1)))
    expect = {} if node else dict(
        blowups=0, dicritical=False, second_type=True,
        generalized_curve=True, identity_equal=True)
    return (A, B, expect, "param" if param else "lemma",
            "Q(s)" if param else "Q")


def _saddle_node(rng, k, sup_a, sup_b):
    """v (-c + ...) du + (d u^(k+1) + e u^(k+2) + v (...)) dv: eigenvalues
    0 and c, isolated since the pure-u part of B is nonzero."""
    A = [(-_nz(rng, -3, 3), (0, 1))] + _terms(rng, sup_a)
    B = ([(_nz(rng, -3, 3), (k + 1, 0)), (rng.randint(-2, 2), (k + 2, 0))]
         + _terms(rng, sup_b))
    for i, j in sup_a + sup_b:
        assert j >= 1 and i + j >= 2
    expect = dict(blowups=0, leaves=1, dicritical=False, second_type=True,
                  generalized_curve=False)
    return A, B, expect, "saddle-node", "Q"


def _dicritical(rng, m, sup_a, sup_b):
    """g (v du - u dv) plus terms of order m + 1, g homogeneous of degree
    m - 1: the lowest part is radial, so the first blow-up is dicritical."""
    g = [(_nz(rng, -2, 2), (i, m - 1 - i)) for i in range(m)]
    A = [(c, (i, j + 1)) for c, (i, j) in g] + _terms(rng, sup_a, -3, 3)
    B = [(-c, (i + 1, j)) for c, (i, j) in g] + _terms(rng, sup_b, -3, 3)
    return A, B, dict(dicritical=True), "dicritical", "Q"


def _widen(rng, cubic, support):
    """Hamiltonians whose tangent lines need sqrt(m): the cubic cone
    u (u^2 - m v^2) with 3 lines, or the saddle v^2 - m u^2."""
    m = rng.choice(_ROOTS)
    if cubic:
        f = {(3, 0): 1, (1, 2): -m}
        expect = dict(_KNOWN_CURVE, blowups=1, leaves=3)
    else:
        f = {(0, 2): 1, (2, 0): -m}
        expect = dict(_KNOWN_CURVE, blowups=0, leaves=1)
    for e in support:
        assert sum(e) > (3 if cubic else 2)
        f[e] = _nz(rng, -2, 2)
    A, B = _exact(f)
    return A, B, expect, "widen", "Q(sqrt(%d))" % m


# One cycle of (family, command).  Monomial supports are fixed per slot
# and the seed draws the coefficients, so the cost of a cycle depends on
# the program and the machine more than on which supports a seed drew.
# Every schedule has an odd number of slots: the median item of a run of
# whole cycles then falls inside one slot's samples, not between two.
_PLANE_SLOTS = [
    (lambda r: _lemma(r, [(2, 0), (1, 2)], [(0, 2)]), "analyze2"),
    (lambda r: _hamiltonian(r, (2, 3), [(1, 2)]), "analyze2"),
    (lambda r: _saddle_node(r, 1, [(1, 1)], [(1, 1)]), "analyze2"),
    (lambda r: _lemma(r, [(1, 1)], [(2, 1), (0, 3)]), "reduce2"),
    ("corpus", "analyze2"),
    (lambda r: _nilpotent(r, (2, 5), [(3, 1)], [(1, 2)]), "analyze2"),
    (lambda r: _lemma(r, [(0, 2), (3, 0)], [(2, 0)]), "analyze2"),
    (lambda r: _dicritical(r, 1, [(0, 2)], [(2, 0)]), "analyze2"),
    (lambda r: _hamiltonian(r, (2, 5), [(3, 1)]), "second-type2"),
    (lambda r: _widen(r, True, [(1, 3)]), "analyze2"),
    (lambda r: _lemma(r, [(2, 0)], [(0, 2)], node=True), "separatrices"),
    (lambda r: _saddle_node(r, 2, [(0, 2)], [(1, 1)]), "separatrices"),
    (lambda r: _lemma(r, [(1, 1)], [(0, 2)], param="param(s)"),
     "analyze2"),
    (lambda r: _nilpotent(r, (3, 4), [(2, 2)], [(3, 1)]), "reduce2"),
    (lambda r: _lemma(r, [(1, 1), (0, 3)], [(1, 2)]), "analyze2"),
    (lambda r: _hamiltonian(r, (2, 7), [(4, 1)]), "second-type2"),
    (lambda r: _dicritical(r, 2, [(1, 2)], [(3, 0)]), "reduce2"),
    (lambda r: _widen(r, False, [(2, 1)]), "second-type2"),
    (lambda r: _lemma(r, [(3, 1)], [(1, 1)]), "second-type2"),
    (lambda r: _dicritical(r, 1, [(1, 1)], [(0, 2)]), "separatrices"),
    (lambda r: _saddle_node(r, 3, [(1, 2)], [(2, 1)]), "reduce2"),
]


def plane(seed, cycles):
    rng = random.Random(seed)
    items = []
    for cycle in range(cycles):
        for fam, command in _PLANE_SLOTS:
            if fam == "corpus":
                name, body, oracle = CORPUS2[cycle % len(CORPUS2)]
                items.append(Item(command, "omega2: " + body,
                                  {"oracle": oracle, "corpus": name},
                                  "corpus2", "Q", None))
                continue
            A, B, expect, family, tower = fam(rng)
            text = _form("omega2", (A, B), UV, _PLANE_DIFFS)
            items.append(Item(command, text, expect, family, tower,
                              _nu(A, B)))
    return items


# ---------------------------------------------------------------------------
# three-space germs in (x, y, z)

XYZ = ("x", "y", "z")
_SPACE_DIFFS = ("dx", "dy", "dz")


def _q2(a, b):
    """The element a + b rt(2) as coefficient text."""
    if b == 0:
        return a
    if a == 0:
        return "%d*rt(2)" % b
    return "%d + %d*rt(2)" % (a, b)


def _irrational(rng):
    return _q2(rng.randint(-1, 1), _nz(rng, -2, 2))


def _model(rng, kind):
    """Simple-model instance of a known family, multiplied through by xyz
    (A: non-resonant logarithmic; B1, B2, B3: saddle-node models).  The A
    residues 1, a + b rt(2), c + d rt(2) with b d > 0 admit no relation
    with non-negative integer weights."""
    if kind == "A":
        C3 = ([(1, (0, 1, 1))],
              [(_q2(rng.randint(-1, 1), rng.randint(1, 2)), (1, 0, 1))],
              [(_q2(rng.randint(-1, 1), rng.randint(1, 2)), (1, 1, 0))])
    elif kind == "B1":
        # dx/x + x (l2 dy/y + dz/z)
        C3 = ([(1, (0, 1, 1))], [(_irrational(rng), (2, 0, 1))],
              [(1, (2, 1, 0))])
    elif kind == "B2":
        # dx/x + 2 dy/y + mu x y^2 dz/z
        C3 = ([(1, (0, 1, 1))], [(2, (1, 0, 1))],
              [(_irrational(rng), (2, 3, 0))])
    else:
        # dx/x + dy/y + dz/z + w (dy/y + l3 dz/z), w = xyz resonant
        C3 = ([(1, (0, 1, 1))],
              [(1, (1, 0, 1)), (1, (2, 1, 2))],
              [(1, (1, 1, 0)), (_irrational(rng), (2, 2, 1))])
    return C3


def _model_match(rng, kind):
    C3 = _model(rng, kind)
    text = _form("omega3", C3, XYZ, _SPACE_DIFFS)
    return Item("model-match3", text, {"model": kind}, "model-" + kind,
                "Q(sqrt(2))", _nu(*C3))


def _model_match_q(rng):
    """Model A with positive rational residues: no relation with
    non-negative integer weights."""
    C3 = _log3(_positive_residues(rng, False))
    text = _form("omega3", C3, XYZ, _SPACE_DIFFS)
    return Item("model-match3", text, {"model": "A"}, "model-A", "Q",
                _nu(*C3))


def _model_match_cylinder(rng):
    """The saddle-node y (-c + a x) dx + (d x^2 + e x^3) dy, constant along
    z: dimensional type 2 with a saddle-node trace, the b1 family."""
    C3 = ([(-_nz(rng, -3, 3), (0, 1, 0)), (_nz(rng, -2, 2), (1, 1, 0))],
          [(_nz(rng, -3, 3), (2, 0, 0)), (rng.randint(-2, 2), (3, 0, 0))],
          [])
    text = _form("omega3", C3, XYZ, _SPACE_DIFFS)
    return Item("model-match3", text, {"model": "b1"}, "model-b1-cylinder",
                "Q", _nu(*C3))


def _positive_residues(rng, quadratic):
    """Residues (1, l2, l3), all positive reals: every rational quotient
    of two of them is positive, so no section meets a resonant or
    dicritical point."""
    if quadratic:
        return (1, _q2(rng.randint(0, 1), rng.randint(1, 2)),
                _q2(rng.randint(0, 1), rng.randint(1, 2)))
    return (1, rng.randint(1, 3), rng.randint(1, 3))


def _log3(lams):
    l1, l2, l3 = lams
    return ([(l1, (0, 1, 1))], [(l2, (1, 0, 1))], [(l3, (1, 1, 0))])


def _tangent3(rng):
    """The cylinder over y(y - x) dx + x^2 dy after x -> a x, y -> b y:
    y (b y - a x) dx + a x^2 dy, not of second type."""
    a, b = _nz(rng, -3, 3), _nz(rng, -3, 3)
    return ([(b, (0, 2, 0)), (-a, (1, 1, 0))], [(a, (2, 0, 0))], [])


# the section test samples planes: a small fixed trial count and seed
_SECTION_FLAGS = ("--trials", "1", "--seed", "1")


def _sections_log(rng, quadratic):
    C3 = _log3(_positive_residues(rng, quadratic))
    return Item("second-type3", _form("omega3", C3, XYZ, _SPACE_DIFFS),
                {"section_verdict": "SecondType"}, "log3",
                "Q(sqrt(2))" if quadratic else "Q", _nu(*C3), _SECTION_FLAGS)


def _sections_tangent(rng):
    C3 = _tangent3(rng)
    return Item("second-type3", _form("omega3", C3, XYZ, _SPACE_DIFFS),
                {"section_verdict": "NotSecondType"}, "tangent3", "Q",
                _nu(*C3), _SECTION_FLAGS)


def _harness_log(rng, quadratic, script):
    """Logarithmic form on the coordinate planes with positive residues:
    every point over the axes is simple."""
    C3 = _log3(_positive_residues(rng, quadratic))
    text = (_form("omega3", C3, XYZ, _SPACE_DIFFS)
            + "\nseparatrix:{ x, y, z }" + script)
    return Item("theorem-main", text, {"harness_ok": True}, "log3",
                "Q(sqrt(2))" if quadratic else "Q", _nu(*C3))


def _harness_cusp_line(rng):
    """z d(y^2 - x^3) + lam (y^2 - x^3) dz with lam = a + b rt(2), b > 0,
    over the cusp-times-line script."""
    lam = _q2(rng.randint(0, 1), rng.randint(1, 2))
    text = ("omega3: -3*x^2*z dx + 2*y*z dy + (%s)*(y^2 - x^3) dz\n"
            "separatrix:{ y^2 - x^3, z }\n"
            "script:[ axis-z, ax:axis-z, ax.ay:axis-z ]" % lam)
    return Item("theorem-main", text, {"harness_ok": True}, "cusp-line",
                "Q(sqrt(2))", 2)


def _harness_tangent(rng):
    C3 = _tangent3(rng)
    text = _form("omega3", C3, XYZ, _SPACE_DIFFS) + "\nseparatrix:{ x, y }"
    return Item("theorem-main", text, {"harness_ok": False}, "tangent3",
                "Q", _nu(*C3))


_SPACE_SLOTS = [
    lambda rng: _model_match(rng, "A"),
    lambda rng: _sections_log(rng, True),
    lambda rng: _harness_log(rng, False, ""),
    lambda rng: _model_match(rng, "B1"),
    lambda rng: _sections_tangent(rng),
    lambda rng: _model_match(rng, "B2"),
    lambda rng: _harness_tangent(rng),
    lambda rng: _sections_log(rng, False),
    lambda rng: _model_match(rng, "B3"),
    lambda rng: _harness_cusp_line(rng),
    lambda rng: _harness_log(rng, True, "\nscript:[ point ]"),
    _model_match_cylinder,
    _model_match_q,
]


# ---------------------------------------------------------------------------
# projective foliations

_P2 = ("X", "Y", "Z")
_P3 = ("X", "Y", "Z", "W")


def _random_line(rng, dim):
    while True:
        v = tuple(rng.randint(-2, 2) for _ in range(dim))
        if any(v) and gcd(*v) == 1:
            return v


def _linear(l, vars_):
    return "(%s)" % _poly([(c, tuple(int(w == v) for w in vars_))
                           for c, v in zip(l, vars_)], vars_)


def _log_text(head, factors, lams, vars_):
    """Text of F_1...F_k sum lam_i dF_i / F_i, left unexpanded."""
    parts = []
    for k, v in enumerate(vars_):
        terms = []
        for i, (f, lam) in enumerate(zip(factors, lams)):
            if f[k] == 0:
                continue
            others = "*".join(_linear(g, vars_)
                              for j, g in enumerate(factors) if j != i)
            terms.append("(%s)*%d*%s" % (lam, f[k], others))
        parts.append("(%s) d%s" % (" + ".join(terms) or "0", v))
    return "%s: %s" % (head, " + ".join(parts))


def _residues(rng, k, tower):
    """k nonzero residues summing to zero in the given tower."""
    while True:
        if tower == "Q":
            lams = [_nz(rng, -3, 3) for _ in range(k - 1)]
            last = -sum(lams)
            if last:
                return [str(x) for x in lams + [last]]
        elif tower == "Q(sqrt(2))":
            pairs = [(rng.randint(-3, 3), _nz(rng, -2, 2))
                     for _ in range(k - 1)]
            a, b = -sum(p[0] for p in pairs), -sum(p[1] for p in pairs)
            if b:
                return [str(_q2(*p)) for p in pairs + [(a, b)]]
        else:
            c = _nz(rng, -3, 3)
            rest = [_nz(rng, -3, 3) for _ in range(k - 2)]
            return (["%d*param(s)" % c] + [str(x) for x in rest]
                    + ["-%d*param(s) - (%d)" % (c, sum(rest))])


def _arrangement(rng, coordinate, extra, dim):
    """`coordinate` coordinate hyperplanes plus `extra` random ones in
    general position: no two equal, no three through one point of P^2 or
    one line of P^3."""
    base = [tuple(int(i == j) for j in range(dim)) for i in range(coordinate)]
    while True:
        planes = base + [_random_line(rng, dim) for _ in range(extra)]
        if (all(_rank(p) == 2 for p in combinations(planes, 2))
                and all(_rank(p) == 3 for p in combinations(planes, 3))):
            return planes


def _rank(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    rank, col = 0, 0
    ncols = len(m[0])
    while rank < len(m) and col < ncols:
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def _indices_log(rng, coordinate, extra, tower, declare_all):
    lines = _arrangement(rng, coordinate, extra, 3)
    lams = _residues(rng, len(lines), tower)
    decl = list(range(len(lines)))
    if not declare_all:
        decl = sorted(rng.sample(decl, rng.randint(1, len(lines) - 1)))
    text = (_log_text("proj2", lines, lams, _P2) + "\nseparatrix:{ %s }"
            % ", ".join(_linear(lines[i], _P2) for i in decl))
    return Item("indices", text, {"sums_ok": True}, "log-p2", tower,
                len(lines) - 2)


def _indices_linear(rng, jordan):
    """Degree-1 foliation of a lower-triangular linear vector field with
    X invariant: distinct eigenvalues (logarithmic on its eigen-lines, X
    declared alone) or a Jordan block (a saddle-node: not logarithmic)."""
    p = rng.randint(-3, 3)
    q = p if jordan else p + _nz(rng, -3, 3)
    s = p + rng.choice([k for k in range(-4, 5) if k and p + k != q])
    r = _nz(rng, -2, 2) if jordan else rng.randint(-2, 2)
    t, w = rng.randint(-2, 2), rng.randint(-2, 2)
    V = ([(p, (1, 0, 0))], [(r, (1, 0, 0)), (q, (0, 1, 0))],
         [(t, (1, 0, 0)), (w, (0, 1, 0)), (s, (0, 0, 1))])

    def times(terms, var):
        e0 = tuple(int(v == var) for v in _P2)
        return [(c, tuple(a + b for a, b in zip(e, e0))) for c, e in terms]

    def neg(terms):
        return [(-c, e) for c, e in terms]

    coeffs = (times(V[2], "Y") + neg(times(V[1], "Z")),
              times(V[0], "Z") + neg(times(V[2], "X")),
              times(V[1], "X") + neg(times(V[0], "Y")))
    text = (_form("proj2", coeffs, _P2, ("dX", "dY", "dZ"))
            + "\nseparatrix:{ X }")
    return Item("indices", text, {"sums_ok": True},
                "jordan-p2" if jordan else "linear-p2", "Q", 1)


def _log_criterion(rng, extra, tower, declare_all):
    """Logarithmic form on planes of P^3, cut by a generic section plane
    W = aX + bY + cZ: it contains no line where two planes meet and no
    point where three meet, so the traces are lines in general position."""
    planes = _arrangement(rng, 4 - extra, extra, 4)
    lams = _residues(rng, len(planes), tower)
    while True:
        sec = (_nz(rng, -3, 3), _nz(rng, -3, 3), _nz(rng, -3, 3))
        normal = (sec + (-1,),)
        if (all(_rank(p + normal) == 3 for p in combinations(planes, 2))
                and all(_rank(p + normal) == 4
                        for p in combinations(planes, 3))):
            break
    decl = list(range(len(planes)))
    if not declare_all:
        decl.pop(rng.randrange(len(decl)))
    text = (_log_text("proj3", planes, lams, _P3)
            + "\nseparatrix:{ %s }" % ", ".join(_linear(planes[i], _P3)
                                                for i in decl)
            + "\nsection:(%d, %d, %d)" % sec)
    expect = {"sums_ok": True, "logarithmic": declare_all,
              "slack": 0 if declare_all else 1}
    return Item("log-criterion", text, expect, "log-p3", tower,
                len(planes) - 2)


_PROJ_SLOTS = [
    lambda rng: _indices_log(rng, 2, 1, "Q(sqrt(2))", True),
    lambda rng: _indices_log(rng, 3, 0, "Q(s)", False),
    lambda rng: _indices_linear(rng, False),
    lambda rng: _log_criterion(rng, 0, "Q", True),
    lambda rng: _indices_log(rng, 3, 1, "Q", True),
    lambda rng: _indices_log(rng, 2, 1, "Q(s)", True),
    lambda rng: _indices_linear(rng, True),
    lambda rng: _indices_log(rng, 0, 3, "Q", rng.randint(0, 1) == 1),
    lambda rng: _log_criterion(rng, 0, "Q(sqrt(2))", False),
    lambda rng: _indices_log(rng, 3, 0, "Q(sqrt(2))", True),
    lambda rng: _indices_log(rng, 0, 3, "Q(s)", True),
    lambda rng: _log_criterion(rng, 1, "Q", True),
    lambda rng: _indices_log(rng, 3, 0, "Q", False),
]


# Projective items per three-space item.  A projective item takes about a
# tenth of the time of a three-space one, so five of them per three-space
# item give the projective half of the workload about 40% of its time,
# and enough items that the median item, which falls among them, moves
# little with the seed.  Both slot lists have 13 entries, so a cycle goes
# through _PROJ_SLOTS exactly _PROJ_PER_SPACE times.
_PROJ_PER_SPACE = 5


def space3_projective(seed, cycles):
    """Three-space germs, each followed by _PROJ_PER_SPACE projective
    foliations, so machine speed drift falls on both alike."""
    rng = random.Random(seed)
    items = []
    for _ in range(cycles):
        proj = iter(_PROJ_SLOTS * _PROJ_PER_SPACE)
        for slot in _SPACE_SLOTS:
            items.append(slot(rng))
            items.extend(next(proj)(rng) for _ in range(_PROJ_PER_SPACE))
    return items


WORKLOADS = {"plane": plane, "space3-projective": space3_projective}
CYCLE_LENGTH = {"plane": len(_PLANE_SLOTS),
                "space3-projective": len(_SPACE_SLOTS) * (1 + _PROJ_PER_SPACE)}


def generate(workload, seed, cycles):
    """`cycles` cycles of the workload's slot schedule for `seed`."""
    items = WORKLOADS[workload](seed, cycles)
    for k, item in enumerate(items):
        item.index = k
    return items
