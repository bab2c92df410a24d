"""The shared 1-form calculus (forms.pullback, invariant_hypersurface,
integrable) against frozen copies of the routines it replaced.

Every draw is a form over Q or Q(rt(2)) whose coefficients are exact
polynomials or truncated series of one common precision, pulled back by
a blow-up chart, a rotation, a plane section, a curve jet, a projective
plane section or a coordinate-plane inclusion.  The shared code must give
the same coefficients and the same precision as the frozen copy.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_lab.blowup import _chart_transform
from foliation_lab.fields import FieldError
from foliation_lab.forms import (CurveJet, OneForm2, OneForm3,
                                 PrecisionError, integrable, integrable3,
                                 invariant_hypersurface, invariant_surface3,
                                 normalize2, pullback, pullback_curve)
from foliation_lab.poly import MPoly, divides, exact_divide
from foliation_lab.reduce2d import _rotate_form
from foliation_lab.threefold import (SectionMap, _axis_trace_form,
                                     _plane_trace, pullback_section)

from conftest import PROJ3, PROJ4, Q, Q2, UV, XYZ

T = ("t",)


# --- frozen references: the hand-expanded routines before the merge --------


def _ref_pull_back(variables, coeffs, exc_var, scaled, prec):
    desc = coeffs[0].desc
    gens = {w: MPoly.variable(variables, w, desc, prec) for w in variables}
    e = gens[exc_var]
    mapping = {w: e * gens[w] if w in scaled else gens[w] for w in variables}
    imgs = dict(zip(variables, (p.substitute(mapping) for p in coeffs)))
    out = []
    for w in variables:
        c = imgs[w]
        if w == exc_var:
            for s in scaled:
                c = c + gens[s] * imgs[s]
        elif w in scaled:
            c = e * c
        out.append(c)
    return mapping, out


def _ref_rotate_form(form, d1, d2):
    u, v = form.vars
    desc = form.desc
    prec = form.prec()
    uu = MPoly.variable(form.vars, u, desc, prec)
    vv = MPoly.variable(form.vars, v, desc, prec)
    mapping = {u: uu.scale(d1[0]) + vv.scale(d2[0]),
               v: uu.scale(d1[1]) + vv.scale(d2[1])}
    A = form.A.substitute(mapping)
    B = form.B.substitute(mapping)
    return A.scale(d1[0]) + B.scale(d1[1]), A.scale(d2[0]) + B.scale(d2[1])


def _ref_pullback_section(form, phi):
    u, v = phi.vars
    mapping = dict(zip(form.vars, phi.components))
    A2 = B2 = None
    for p, comp in zip(form.coeffs(), phi.components):
        img = p.substitute(mapping)
        ta = img * comp.partial(u)
        tb = img * comp.partial(v)
        A2 = ta if A2 is None else A2 + ta
        B2 = tb if B2 is None else B2 + tb
    G = OneForm2(A2, B2, phi.vars)
    if G.is_zero():
        raise ValueError("the section is invariant; pull-back vanishes")
    return normalize2(G)


def _ref_pullback_curve(form, curve):
    mapping = dict(zip(form.vars, curve.components))
    total = None
    derivs = (c.partial("t") for c in curve.components)
    for p, dg in zip(form.coeffs(), derivs):
        term = p.substitute(mapping) * dg
        total = term if total is None else total + term
    return total


def _ref_log_section(coeffs, section, desc):
    plane_vars = PROJ3
    gens = [MPoly.variable(plane_vars, w, desc) for w in plane_vars]
    img_w = (gens[0].scale(section[0]) + gens[1].scale(section[1])
             + gens[2].scale(section[2]))
    mapping = dict(zip(PROJ4, gens + [img_w]))
    pulled = [p.substitute(mapping) for p in coeffs]
    return tuple(pulled[i] + pulled[3].scale(section[i]) for i in range(3))


def _ref_cylinder_trace(form, w):
    others = tuple(v for v in form.vars if v != w)
    A, B = (form.coeffs()[form.vars.index(v)].restrict(
        {w: form.desc.zero()}).rename(others) for v in others)
    return OneForm2(A, B, others)


def _ref_axis_trace_form(form, kept, param_name="s"):
    desc_s = form.desc.with_parameter(param_name)
    s = desc_s.param_gen()
    others = [w for w in form.vars if w != kept]
    coeffs = []
    for w in others:
        p = form.coeffs()[form.vars.index(w)].coerce_to(desc_s)
        coeffs.append(p.restrict({kept: s}))
    return OneForm2(coeffs[0].rename(tuple(others)),
                    coeffs[1].rename(tuple(others)), tuple(others)), desc_s


def _ref_integrable3(form):
    x, y, z = form.vars
    A, B, C = form.A, form.B, form.C
    expr = (A * (B.partial(z) - C.partial(y))
            + B * (C.partial(x) - A.partial(z))
            + C * (A.partial(y) - B.partial(x)))
    return expr.is_zero()


def _ref_integrable4(coeffs, vars4):
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                terms = (
                    coeffs[i] * (coeffs[k].partial(vars4[j])
                                 - coeffs[j].partial(vars4[k])),
                    coeffs[j] * (coeffs[i].partial(vars4[k])
                                 - coeffs[k].partial(vars4[i])),
                    coeffs[k] * (coeffs[j].partial(vars4[i])
                                 - coeffs[i].partial(vars4[j])),
                )
                if not (terms[0] + terms[1] + terms[2]).is_zero():
                    return False
    return True


def _ref_invariant_surface3(form, f):
    if f.is_zero() or not f.evaluate({w: f.desc.zero() for w in f.vars}).is_zero():
        raise ValueError("surface equation must be nonzero and vanish at the origin")
    x, y, z = form.vars
    A, B, C = form.A, form.B, form.C
    fx, fy, fz = f.partial(x), f.partial(y), f.partial(z)
    order = None
    for comp in (A * fy - B * fx, B * fz - C * fy, A * fz - C * fx):
        if comp.is_zero():
            continue
        if exact_divide(comp, f) is None:
            return (False, comp.prec)
        if comp.prec is not None:
            order = comp.prec if order is None else min(order, comp.prec)
    if order is not None and order < 2:
        raise PrecisionError("divisibility certified only below order %d" % order)
    return (True, order)


def _ref_branch_invariant(form, eq):
    u, v = form.vars
    xf = form.B * eq.partial(u) - form.A * eq.partial(v)
    if xf.is_zero():
        return True
    return divides(xf, eq)


def _ref_check_invariant_curve(coeffs, vars_, C):
    parts = [C.partial(w) for w in vars_]
    n = len(vars_)
    for i in range(n):
        for j in range(i + 1, n):
            comp = coeffs[i] * parts[j] - coeffs[j] * parts[i]
            if not comp.is_zero() and not divides(comp, C):
                return False
    return True


# --- strategies -----------------------------------------------------------

_descs = st.sampled_from([Q, Q2])
_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=2)
_precs = st.one_of(st.none(), st.integers(2, 6))


def _elem(draw, desc):
    a = draw(_fracs)
    b = draw(_fracs) if desc is Q2 else Fraction(0)
    x = desc.rational(a)
    return x + desc.rational(b) * desc.sqrt_gen() if b else x


def _exponent(e, low, top):
    """e moved into total degrees low..top: the first entry is raised, the
    last ones are lowered."""
    e = list(e)
    e[0] += max(low - sum(e), 0)
    for i in reversed(range(len(e))):
        e[i] -= min(e[i], max(sum(e) - top, 0))
    return tuple(e)


def _poly(draw, desc, vars_, prec=None, low=0, top=3, terms=4):
    exps = draw(st.lists(st.tuples(*[st.integers(0, top)] * len(vars_)),
                         max_size=terms))
    return MPoly(vars_, {_exponent(e, low, top): _elem(draw, desc)
                         for e in exps}, desc, prec)


@st.composite
def forms(draw, vars_, low=0):
    desc = draw(_descs)
    prec = draw(_precs)
    coeffs = [_poly(draw, desc, vars_, prec, low) for _ in vars_]
    if all(p.is_zero() for p in coeffs):
        coeffs[0] = MPoly.variable(vars_, vars_[-1], desc, prec)
    return coeffs


def _same(p, q):
    return p.vars == q.vars and p.coeffs == q.coeffs and p.prec == q.prec


def _same_all(ps, qs):
    return len(ps) == len(qs) and all(_same(p, q) for p, q in zip(ps, qs))


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (ValueError, FieldError) as exc:
        return ("raised", type(exc))


# --- pull-backs -------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(forms(UV), st.integers(0, 1))
def test_plane_charts(coeffs, i):
    form = OneForm2(*coeffs, UV)
    e, other = UV[i], UV[1 - i]
    ref_map, ref = _ref_pull_back(UV, coeffs, e, (other,), form.A.prec)
    mapping, new = _chart_transform(form, e, (other,))
    assert _same_all(new, ref)
    if form.prec() is None:
        assert all(_same(mapping[w], ref_map[w]) for w in UV)


@settings(max_examples=80, deadline=None)
@given(forms(XYZ), st.integers(0, 2), st.integers(0, 2))
def test_space_point_and_axis_charts(coeffs, i, k):
    form = OneForm3(*coeffs, XYZ)
    e = XYZ[i]
    others = tuple(w for w in XYZ if w != e)
    # k == 2: point chart; otherwise an axis chart keeping others[k]
    scaled = others if k == 2 else (others[1 - k],)
    _, ref = _ref_pull_back(XYZ, coeffs, e, scaled, form.prec())
    _, new = _chart_transform(form, e, scaled)
    assert _same_all(new, ref)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rotations(data):
    coeffs = data.draw(forms(UV))
    desc = coeffs[0].desc
    d1 = (_elem(data.draw, desc), _elem(data.draw, desc))
    d2 = (_elem(data.draw, desc), _elem(data.draw, desc))
    form = OneForm2(*coeffs, UV)
    new = _rotate_form(form, d1, d2)
    assert _same_all((new.A, new.B), _ref_rotate_form(form, d1, d2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_plane_sections(data):
    coeffs = data.draw(forms(XYZ))
    desc = coeffs[0].desc
    form = OneForm3(*coeffs, XYZ)
    prec = data.draw(_precs)
    comps = [_poly(data.draw, desc, UV, prec, low=1, top=2) for _ in XYZ]
    phi = SectionMap(comps)
    ref = _outcome(_ref_pullback_section, form, phi)
    new = _outcome(pullback_section, form, phi)
    if ref[0] == "ok" and new[0] == "ok":
        assert _same_all(new[1].coeffs(), ref[1].coeffs())
        assert new[1].coprime and ref[1].coprime
    else:
        assert new == ref


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(2, 3))
def test_curve_jets(data, n):
    vars_ = XYZ if n == 3 else UV
    coeffs = data.draw(forms(vars_))
    desc = coeffs[0].desc
    form = OneForm3(*coeffs, XYZ) if n == 3 else OneForm2(*coeffs, UV)
    prec = data.draw(_precs)
    comps = [_poly(data.draw, desc, T, prec, low=1) for _ in vars_]
    if all(c.is_zero() for c in comps):
        comps[0] = MPoly.variable(T, "t", desc, prec)
    curve = CurveJet(comps)
    assert _same(pullback_curve(form, curve), _ref_pullback_curve(form, curve))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_projective_plane_sections(data):
    desc = data.draw(_descs)
    coeffs = [_poly(data.draw, desc, PROJ4) for _ in PROJ4]
    section = [_elem(data.draw, desc) for _ in range(3)]
    gens = [MPoly.variable(PROJ3, w, desc) for w in PROJ3]
    img_w = (gens[0].scale(section[0]) + gens[1].scale(section[1])
             + gens[2].scale(section[2]))
    new = pullback(coeffs, PROJ4, dict(zip(PROJ4, gens + [img_w])))
    assert _same_all(new, _ref_log_section(coeffs, section, desc))


@settings(max_examples=80, deadline=None)
@given(forms(XYZ), st.sampled_from(XYZ))
def test_coordinate_plane_traces(coeffs, w):
    form = OneForm3(*coeffs, XYZ)
    new, ref = _plane_trace(form, w), _ref_cylinder_trace(form, w)
    assert new.vars == ref.vars
    assert _same_all(new.coeffs(), ref.coeffs())


@settings(max_examples=40, deadline=None)
@given(forms(XYZ), st.sampled_from(XYZ))
def test_axis_traces_over_the_parameter_tower(coeffs, kept):
    form = OneForm3(*coeffs, XYZ)
    (new, desc_new), (ref, desc_ref) = (_axis_trace_form(form, kept),
                                        _ref_axis_trace_form(form, kept))
    assert desc_new == desc_ref and new.vars == ref.vars
    assert _same_all(new.coeffs(), ref.coeffs())


def test_exact_zero_jacobian_entries_add_no_precision():
    # c_x is a series, but x maps to the constant 0: phi*omega = c_y(0, y) dy
    cx = MPoly.variable(("x", "y"), "y", Q, 3)
    cy = MPoly.variable(("x", "y"), "x", Q) + MPoly.variable(("x", "y"), "y", Q)
    y = MPoly.variable(("y",), "y", Q)
    (out,) = pullback((cx, cy), ("x", "y"), {"x": MPoly.zero(("y",), Q), "y": y})
    assert _same(out, y)
    # a truncated map loses one order in its Jacobian
    t = MPoly.variable(T, "t", Q, 4)
    (out,) = pullback((cy, cx), ("x", "y"), {"x": t, "y": t * t})
    assert out.prec == 3


# --- integrability ----------------------------------------------------------


def _closed(draw, vars_):
    """g dF: integrable, with F, g drawn."""
    desc = draw(_descs)
    F = _poly(draw, desc, vars_, low=1)
    g = _poly(draw, desc, vars_, terms=2)
    if g.is_zero():
        g = MPoly.constant(vars_, 1, desc)
    coeffs = [g * F.partial(w) for w in vars_]
    if all(c.is_zero() for c in coeffs):
        coeffs[0] = MPoly.constant(vars_, 1, desc)
    return coeffs


@settings(max_examples=80, deadline=None)
@given(st.data(), st.booleans())
def test_integrability_in_three_variables(data, closed):
    coeffs = _closed(data.draw, XYZ) if closed else data.draw(forms(XYZ))
    form = OneForm3(*coeffs, XYZ)
    assert integrable3(form) == _ref_integrable3(form)
    assert integrable(coeffs, XYZ) == _ref_integrable3(form)
    if closed:
        assert integrable3(form)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.booleans())
def test_integrability_in_four_variables(data, closed):
    desc = data.draw(_descs)
    coeffs = (_closed(data.draw, PROJ4) if closed
              else [_poly(data.draw, desc, PROJ4) for _ in PROJ4])
    assert integrable(coeffs, PROJ4) == _ref_integrable4(coeffs, PROJ4)
    if closed:
        assert integrable(coeffs, PROJ4)


def test_plane_forms_are_integrable():
    assert integrable((MPoly.variable(UV, "v", Q), MPoly.zero(UV, Q)), UV)


# --- invariance -------------------------------------------------------------


def _with_invariant(draw, vars_, desc, prec):
    """(coeffs, f) with {f = 0} invariant: g df + f eta."""
    f = _poly(draw, desc, vars_, low=1, top=2, terms=3)
    if f.is_zero():
        f = MPoly.variable(vars_, vars_[0], desc)
    g = _poly(draw, desc, vars_, terms=2)
    coeffs = [(g * f.partial(w) + f * _poly(draw, desc, vars_, terms=2))
              for w in vars_]
    if prec is not None:
        coeffs = [c.truncate(prec) for c in coeffs]
    return coeffs, f


@settings(max_examples=80, deadline=None)
@given(st.data(), st.booleans())
def test_invariant_surfaces(data, planted):
    desc = data.draw(_descs)
    prec = data.draw(_precs)
    if planted:
        coeffs, f = _with_invariant(data.draw, XYZ, desc, prec)
    else:
        coeffs = [_poly(data.draw, desc, XYZ, prec) for _ in XYZ]
        f = _poly(data.draw, desc, XYZ, low=1, top=2, terms=3)
    if all(c.is_zero() for c in coeffs):
        coeffs[0] = MPoly.constant(XYZ, 1, desc, prec)
    form = OneForm3(*coeffs, XYZ)
    ref = _outcome(_ref_invariant_surface3, form, f)
    new = _outcome(invariant_surface3, form, f)
    if new[0] == "ok":
        new = ("ok", (new[1].value, new[1].order))
    assert new == ref


@settings(max_examples=80, deadline=None)
@given(st.data(), st.booleans())
def test_invariant_plane_branches(data, planted):
    desc = data.draw(_descs)
    prec = data.draw(_precs)
    if planted:
        coeffs, f = _with_invariant(data.draw, UV, desc, prec)
    else:
        coeffs = [_poly(data.draw, desc, UV, prec) for _ in UV]
        f = _poly(data.draw, desc, UV, low=1, top=2, terms=3)
    if f.is_zero():
        f = MPoly.variable(UV, "u", desc)
    form = OneForm2(*coeffs, UV)
    assert (bool(invariant_hypersurface(form.coeffs(), UV, f))
            == _ref_branch_invariant(form, f))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.booleans())
def test_invariant_projective_curves(data, planted):
    desc = data.draw(_descs)
    if planted:
        coeffs, C = _with_invariant(data.draw, PROJ3, desc, None)
    else:
        coeffs = [_poly(data.draw, desc, PROJ3) for _ in PROJ3]
        C = _poly(data.draw, desc, PROJ3, low=1, top=2, terms=3)
    if C.is_zero():
        C = MPoly.variable(PROJ3, "X", desc)
    assert (bool(invariant_hypersurface(coeffs, PROJ3, C))
            == _ref_check_invariant_curve(coeffs, PROJ3, C))

