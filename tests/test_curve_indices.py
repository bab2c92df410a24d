"""The curve indices of the sum check, read from the linear part at a
non-degenerate point and from the separatrices at a saddle-node, against
the frozen curve-branch solver they replaced: at every on-curve singular
point where the sum check reads the curve, the same CS and GSV, or the
same exception type and message."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foliation_lab import (LogarithmicData, ProjFoliation, bb_index,
                           localize_at, logarithmic_build, plane_singularities,
                           sum_theorem_check)
from foliation_lab.fields import (FieldError, FieldExtensionError,
                                  Inconclusive)
from foliation_lab.forms import pullback
from foliation_lab.indices import SingularBranchError, _curve_indices
from foliation_lab.poly import MPoly
from foliation_lab.reduce2d import SADDLE_NODE

from conftest import PROJ3, Q, Q2, saddle_node_plane_foliation
from frozen_branches import curve_indices


def _result(fn, *args):
    try:
        return ("ok", fn(*args))
    except (ValueError, ZeroDivisionError, FieldError, Inconclusive) as exc:
        return ("raised", type(exc), str(exc))


def _compare(fol, C, N=12):
    """The kinds ("non-degenerate" or the saddle-node code) and the results
    of the points compared, or None when the points are out of reach.

    The frozen solver splits the tangent cone in the tower and gives up
    on a factor it cannot split (FieldExtensionError); _curve_indices
    never splits it, so there it must give a value."""
    try:
        sings = plane_singularities(fol)
    except Inconclusive:
        return None
    kinds = []
    for sing in sings:
        cl = localize_at(C, sing)
        if not cl.constant_coefficient().is_zero():
            continue
        try:
            bb_index(sing, N)
        except Inconclusive:
            continue  # the sum check stops before it reads the curve
        new = _result(_curve_indices, sing, cl, N)
        old = _result(curve_indices, sing, cl, N)
        if old[0] == "raised" and old[1] is FieldExtensionError:
            assert new[0] == "ok", ([c.render() for c in sing.point], new)
        else:
            assert new == old, ([c.render() for c in sing.point], new, old)
        M = sing.linear
        det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        kinds.append((sing.code.kind if det.is_zero() else "non-degenerate",
                      new))
    return kinds


def _gens(desc):
    return [MPoly.variable(PROJ3, w, desc) for w in PROJ3]


def _elem(draw, desc, lo=-2, hi=2):
    a = draw(st.integers(lo, hi))
    if desc is Q or not draw(st.booleans()):
        return desc.rational(a)
    return desc.rational(a) + desc.rational(draw(st.integers(-1, 1))) \
        * desc.sqrt_gen()


def _linear(coeffs, desc):
    X, Y, Z = _gens(desc)
    return X.scale(coeffs[0]) + Y.scale(coeffs[1]) + Z.scale(coeffs[2])


def _transformed(fol, curves, rows):
    """The foliation and curves pulled back by the linear map whose matrix
    has the given integer rows."""
    desc = fol.desc
    mapping = {w: _linear([desc.rational(x) for x in row], desc)
               for w, row in zip(PROJ3, rows)}
    return (ProjFoliation(pullback(fol.coeffs, PROJ3, mapping), PROJ3),
            [c.substitute(mapping) for c in curves])


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


_rows = st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                 min_size=3, max_size=3).filter(lambda m: _det3(m) != 0)
_desc = st.sampled_from([Q, Q2])


def _product(factors):
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


@settings(max_examples=40, deadline=None)
@given(st.data(), _desc, st.integers(2, 4))
def test_curve_indices_match_frozen_on_line_arrangements(data, desc, k):
    """A logarithmic foliation on k lines; the curve is some of them."""
    lines = []
    for _ in range(k):
        coeffs = [_elem(data.draw, desc) for _ in range(3)]
        assume(any(not c.is_zero() for c in coeffs))
        lines.append(_linear(coeffs, desc))
    residues = [_elem(data.draw, desc, 1, 3) for _ in range(k - 1)]
    last = desc.zero()
    for lam in residues:
        last = last - lam
    try:
        fol = logarithmic_build(LogarithmicData(lines, residues + [last]))
    except ValueError:
        assume(False)  # two proportional lines
    keep = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
    assume(any(keep))
    _compare(fol, _product([f for f, x in zip(lines, keep) if x]))


def _pencil(center, desc):
    """The lines through `center`: (P x X) . dX."""
    X, Y, Z = _gens(desc)
    p0, p1, p2 = center
    return ProjFoliation((Z.scale(p1) - Y.scale(p2), X.scale(p2) - Z.scale(p0),
                          Y.scale(p0) - X.scale(p1)), PROJ3)


@settings(max_examples=40, deadline=None)
@given(st.data(), _desc, st.integers(1, 4))
def test_curve_indices_match_frozen_at_radial_points(data, desc, k):
    """k lines of a pencil meet at its one singular point, whose linear
    part is scalar."""
    center = [_elem(data.draw, desc) for _ in range(3)]
    assume(any(not c.is_zero() for c in center))
    lines = []
    for _ in range(k):
        r = [_elem(data.draw, desc) for _ in range(3)]
        normal = (center[1] * r[2] - center[2] * r[1],
                  center[2] * r[0] - center[0] * r[2],
                  center[0] * r[1] - center[1] * r[0])
        assume(any(not c.is_zero() for c in normal))
        lines.append(_linear(normal, desc))
    try:
        LogarithmicData(lines, [desc.zero()] * k)  # the lines are distinct
    except ValueError:
        assume(False)
    kinds = _compare(_pencil(center, desc), _product(lines))
    assume(kinds is not None)
    (kind, (_, (cs, gsv))), = kinds
    assert kind == "non-degenerate"
    assert (cs, gsv) == (desc.rational(k * k), desc.rational(k * (2 - k)))


@settings(max_examples=30, deadline=None)
@given(_rows, st.sampled_from([(True, False), (False, True), (True, True)]))
def test_curve_indices_match_frozen_at_saddle_nodes(rows, keep):
    """The saddle-node foliation and some of its lines X, Y, moved by a
    linear map so that the strong and weak directions take any slope."""
    fol, (X, Y, _) = saddle_node_plane_foliation()
    fol, (X, Y) = _transformed(fol, [X, Y], rows)
    kinds = _compare(fol, _product([f for f, x in zip((X, Y), keep) if x]))
    assert SADDLE_NODE in [kind for kind, _ in kinds]


def _monomial_curve(a, b):
    """The linear field (aX, bY, 0) and the curve Y^a Z^(b-a) = X^b that
    it leaves invariant."""
    X, Y, Z = _gens(Q)
    fol = ProjFoliation(((Y * Z).scale(Q.rational(-b)),
                         (X * Z).scale(Q.rational(a)),
                         (X * Y).scale(Q.rational(b - a))), PROJ3)
    return fol, Y ** a * Z ** (b - a) - X ** b


@settings(max_examples=30, deadline=None)
@given(_rows, st.sampled_from([(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]))
def test_curve_indices_match_frozen_on_cusps_and_tacnodes(rows, ab):
    """A smooth curve, a cusp (2, 3), a tacnode (2, 4) or a (3, 4) cusp at
    (0 : 0 : 1), moved by a linear map."""
    fol, C = _monomial_curve(*ab)
    fol, (C,) = _transformed(fol, [C], rows)
    assert _compare(fol, C)


def _sums(fol, C):
    rep = sum_theorem_check(fol, C)
    assert rep.ok
    return rep.cs_sum.as_fraction(), rep.gsv_sum.as_fraction()


def test_radial_points_with_three_and_four_lines():
    X, Y, Z = _gens(Q)
    fol = _pencil([Q.zero(), Q.zero(), Q.one()], Q)
    three = X * Y * (X - Y)
    four = three * (X + Y.scale(Q.rational(2)))
    for C in (three, four):
        assert [kind for kind, _ in _compare(fol, C)] == ["non-degenerate"]
    assert _sums(fol, three) == (9, -3)
    assert _sums(fol, four) == (16, -8)


def test_cusp_and_tacnode_raise_the_frozen_diagnostic():
    """At (0 : 0 : 1), with the tangent horizontal and, after X and Y are
    exchanged, vertical."""
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    for ab in ((2, 3), (2, 4)):
        for rows, message in (
                (None, "the curve has coincident tangent directions"),
                (swap, "the curve has a multiple vertical tangent")):
            fol, C = _monomial_curve(*ab)
            if rows:
                fol, (C,) = _transformed(fol, [C], rows)
            (origin,) = [s for s in plane_singularities(fol) if s.chart == "Z"
                         and all(c.is_zero() for c in s.base)]
            cl = localize_at(C, origin)
            got = _result(_curve_indices, origin, cl, 12)
            assert got == ("raised", SingularBranchError, message)
            assert got == _result(curve_indices, origin, cl, 12)
