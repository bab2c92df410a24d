"""Sparse-row elimination against frozen copies of the dense loops it
replaced: same pivots, same reduced rows, same solve/nullspace/rank/det;
the same answers from list rows and from dict rows; and the exact
resonance test against the bounded search it replaced and closed forms."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliation_lab import FieldDescriptor
from foliation_lab import linalg
from foliation_lab.threefold import _fully_nonresonant

Q = FieldDescriptor()
Q2 = FieldDescriptor(quadratic_extension=2)
QS = FieldDescriptor(parameter="s")


# ---------------------------------------------------------------------------
# frozen reference copies of the dense loops


def _echelon_dense(rows, ncols):
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _det_dense(matrix, desc):
    n = len(matrix)
    if n == 0:
        return desc.one()
    rows = [list(row) for row in matrix]
    sign = 1
    result = desc.one()
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if not rows[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            return desc.zero()
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        result = result * rows[c][c]
        inv = rows[c][c].inverse()
        for i in range(c + 1, n):
            if not rows[i][c].is_zero():
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    if sign < 0:
        result = -result
    return result


def _fully_nonresonant_dense(lams, bound):
    for total in range(1, bound + 1):
        for m1 in range(total + 1):
            for m2 in range(total - m1 + 1):
                m3 = total - m1 - m2
                s = lams[0].desc.zero()
                for m, lam in zip((m1, m2, m3), lams):
                    if m:
                        s = s + lam * lam.desc.rational(m)
                if s.is_zero():
                    return False
    return True


# ---------------------------------------------------------------------------
# strategies

_small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_nonzero = _small.filter(lambda q: q != 0)


def _q(q):
    return Q.rational(q)


def _q2(a, b):
    return Q2.rational(a) + Q2.rational(b) * Q2.sqrt_gen()


def _qs(a, b):
    return QS.rational(a) + QS.rational(b) * QS.param_gen()


_ENTRIES = {
    Q: _nonzero.map(_q),
    Q2: st.tuples(_small, _nonzero).map(lambda t: _q2(*t))
    | _nonzero.map(lambda a: _q2(a, 0)),
    QS: st.tuples(_small, _nonzero).map(lambda t: _qs(*t))
    | _nonzero.map(lambda a: _qs(a, 0)),
}


# Entries in Q(s) grow in degree with every elimination step, and a 12 x 14
# matrix of them takes minutes in either loop: Q(s) stays at 7 x 8.
_MAX_SHAPE = {Q: (12, 14), Q2: (12, 14), QS: (7, 8)}


@st.composite
def _sparse(draw, desc, square=False):
    """A matrix over `desc` with at least 60% zero entries."""
    max_rows, max_cols = _MAX_SHAPE[desc]
    n = draw(st.integers(1, max_rows))
    m = n if square else draw(st.integers(1, max_cols))
    cells = [(i, j) for i in range(n) for j in range(m)]
    nnz = draw(st.integers(0, (2 * n * m) // 5))
    rows = [[desc.zero()] * m for _ in range(n)]
    for i, j in draw(st.permutations(cells))[:nnz]:
        rows[i][j] = draw(_ENTRIES[desc])
    return rows


_towers = st.sampled_from([Q, Q2, QS])


def _matrix_and_desc(square=False):
    return _towers.flatmap(lambda d: st.tuples(_sparse(d, square), st.just(d)))


def _dense(row, ncols, desc):
    out = [desc.zero()] * ncols
    for j, x in row.items():
        out[j] = x
    return out


def _as_dicts(matrix):
    return [{j: x for j, x in enumerate(r) if x} for r in matrix]


# ---------------------------------------------------------------------------
# elimination


@settings(max_examples=60, deadline=None)
@given(_matrix_and_desc())
def test_echelon_matches_the_dense_loop(case):
    matrix, desc = case
    ncols = len(matrix[0])
    before = [list(r) for r in matrix]
    slow = [list(r) for r in matrix]
    pivots, rows = linalg._echelon(matrix, ncols)
    assert pivots == _echelon_dense(slow, ncols)
    assert [_dense(r, ncols, desc) for r in rows] == slow
    assert all(x for r in rows for x in r.values())
    assert matrix == before


@settings(max_examples=60, deadline=None)
@given(_matrix_and_desc(), st.data())
def test_solve_nullspace_rank_match_the_dense_loop(case, data):
    matrix, desc = case
    ncols = len(matrix[0])
    rhs = [data.draw(st.just(desc.zero()) | _ENTRIES[desc])
           for _ in matrix]
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    pivots = _echelon_dense(rows, ncols)
    if any(not rows[r][ncols].is_zero() for r in range(len(pivots),
                                                      len(rows))):
        want = None
    else:
        want = [desc.zero()] * ncols
        for r, c in enumerate(pivots):
            want[c] = rows[r][ncols]
    assert linalg.solve(matrix, rhs, desc) == want

    rows = [list(r) for r in matrix]
    pivots = _echelon_dense(rows, ncols)
    assert linalg.rank(matrix) == len(pivots)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [desc.zero()] * ncols
        v[f] = desc.one()
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(v)
    assert linalg.nullspace(matrix, ncols, desc) == basis


@settings(max_examples=60, deadline=None)
@given(_matrix_and_desc(square=True))
def test_det_matches_the_dense_loop(case):
    matrix, desc = case
    assert linalg.det(matrix, desc) == _det_dense(matrix, desc)


@settings(max_examples=60, deadline=None)
@given(_matrix_and_desc(), _matrix_and_desc(square=True), st.data())
def test_list_rows_and_dict_rows_agree(case, square_case, data):
    """The same matrix as list rows and as dict rows {column: nonzero
    entry} gives the same solve, rank, nullspace and det."""
    matrix, desc = case
    ncols = len(matrix[0])
    sparse = _as_dicts(matrix)
    before = [dict(r) for r in sparse]
    rhs = [data.draw(st.just(desc.zero()) | _ENTRIES[desc]) for _ in matrix]
    assert linalg.rank(sparse) == linalg.rank(matrix)
    assert linalg.nullspace(sparse, ncols, desc) \
        == linalg.nullspace(matrix, ncols, desc)
    # a dict row has no width of its own: its solution stops at the
    # last column that holds an entry, and the unknowns past it are free
    width = max((j + 1 for r in sparse for j in r), default=0)
    want = linalg.solve(matrix, rhs, desc)
    got = linalg.solve(sparse, rhs, desc)
    assert got == (None if want is None else want[:width])
    assert sparse == before
    square, desc = square_case
    assert linalg.det(_as_dicts(square), desc) == linalg.det(square, desc)


def test_det_sign_of_a_row_swap():
    one, zero = Q.one(), Q.zero()
    swap = [[zero, one], [one, zero]]
    assert linalg.det(swap, Q) == -one
    assert linalg.det([[zero, one], [zero, one]], Q) == zero
    assert linalg.det([], Q) == one


# ---------------------------------------------------------------------------
# resonance

def _gen(desc):
    """rt(m), the parameter or 1: a generator of the tower over Q."""
    return (desc.sqrt_gen() if desc.quadratic_extension
            else desc.param_gen() if desc.parameter else desc.one())


def _residues(desc):
    gen = _gen(desc)
    return st.tuples(_small, _small).map(
        lambda t: desc.rational(t[0]) + desc.rational(t[1]) * gen)


def _quotients(desc):
    """u / v for nonzero residues u, v: over Q(s), denominators differ."""
    nonzero = _residues(desc).filter(bool)
    return st.tuples(nonzero, nonzero).map(lambda t: t[0] / t[1])


def _triple(desc):
    """Three residues over desc, one of them zero in about a fifth of the
    draws."""
    some = _residues(desc) | _quotients(desc)
    one = st.just(desc.zero()) | some | some | some | some
    return st.tuples(one, one, one)


_triples = st.sampled_from([Q, Q2, QS]).flatmap(_triple)


@settings(max_examples=60, deadline=None)
@given(_triples, st.integers(1, 25))
@example((Q.one(), Q.rational(2), Q.rational(-3)), 1)
@example((Q.one(), Q.rational(-1), Q.rational(5)), 1)
@example((Q.one(), Q.zero(), Q.rational(5)), 1)
@example((QS.param_gen(), QS.rational(-2) * QS.param_gen(), QS.one()), 3)
def test_resonance_verdicts_match_on_random_triples(lams, bound):
    # every relation of the bounded search is found without a bound
    if not _fully_nonresonant_dense(lams, bound):
        assert not _fully_nonresonant(lams)


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(0, 60), st.integers(0, 60), st.integers(1, 60))
       .filter(lambda m: sum(m) <= 60),
       st.sampled_from([Q, Q2, QS]).flatmap(
           lambda desc: st.tuples(_quotients(desc), _quotients(desc))))
def test_resonance_verdicts_match_on_planted_relations(m, pair):
    # lam3 is solved from m . lam = 0, so the relation m is planted
    lam1, lam2 = pair
    desc = lam1.desc
    lam3 = -(lam1 * desc.rational(m[0]) + lam2 * desc.rational(m[1])) \
        * desc.rational(Fraction(1, m[2]))
    assert not _fully_nonresonant((lam1, lam2, lam3))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([Q2, QS]).flatmap(
    lambda desc: st.tuples(st.just(desc), _small, _small,
                           _quotients(desc))))
def test_resonance_verdicts_follow_the_closed_form(args):
    """(1, g, a + b g) for a generator g over Q has the relation
    (-a, -b, 1) m3 exactly when a, b <= 0; a common factor c, which
    brings denominators over Q(s), keeps the relations."""
    desc, a, b, c = args
    g = _gen(desc)
    lams = tuple(c * x for x in
                 (desc.one(), g, desc.rational(a) + desc.rational(b) * g))
    assert _fully_nonresonant(lams) == (a > 0 or b > 0)


@given(st.tuples(_small, _small, _small), _residues(Q2).filter(bool))
def test_rational_residue_ratios_resonate_unless_of_one_sign(qs, c):
    lams = tuple(c * Q2.rational(q) for q in qs)
    assert _fully_nonresonant(lams) == (all(q > 0 for q in qs)
                                        or all(q < 0 for q in qs))
