"""Shared builders and the desk-scale corpus used across the test suite."""

from fractions import Fraction

import pytest

from foliation_lab import (FieldDescriptor, LogarithmicData, OneForm2,
                           OneForm3, ProjFoliation, logarithmic_build)
from foliation_lab.poly import MPoly

UV = ("u", "v")
XYZ = ("x", "y", "z")
PROJ3 = ("X", "Y", "Z")
PROJ4 = ("X", "Y", "Z", "W")

Q = FieldDescriptor()
Q2 = FieldDescriptor(quadratic_extension=2)


def mk(vars_, coeffs, desc=Q):
    """Exact polynomial from {exponent: value}; values are Fractions,
    ints, or (a, b) pairs meaning a + b*rt(m) in a widened tower."""
    out = {}
    for e, c in coeffs.items():
        if isinstance(c, tuple):
            a, b = c
            val = (desc.rational(Fraction(a))
                   + desc.rational(Fraction(b)) * desc.sqrt_gen())
        else:
            val = desc.rational(Fraction(c))
        out[e] = val
    return MPoly(vars_, out, desc)


def f2(a_coeffs, b_coeffs, desc=Q):
    return OneForm2(mk(UV, a_coeffs, desc), mk(UV, b_coeffs, desc), UV)


def f3(a_coeffs, b_coeffs, c_coeffs, desc=Q):
    return OneForm3(mk(XYZ, a_coeffs, desc), mk(XYZ, b_coeffs, desc),
                    mk(XYZ, c_coeffs, desc), XYZ)


def corpus2():
    """The 12-item plane corpus: name -> (form, frozen oracle dict)."""
    return {
        # v du + 2u dv: non-resonant linear node
        "node": (f2({(0, 1): 1}, {(1, 0): 2}),
                 dict(blowups=0, leaves=1, dicritical=False,
                      second_type=True, generalized_curve=True,
                      identity=(1, 1, True))),
        # 2v du - u dv: 1:2 resonance, rejected then dicritical
        "res12": (f2({(0, 1): 2}, {(1, 0): -1}),
                  dict(blowups=2, leaves=1, dicritical=True,
                       second_type=True, generalized_curve=True,
                       identity=None)),
        # d(v^2 - u^3)
        "cusp": (f2({(2, 0): -3}, {(0, 1): 2}),
                 dict(blowups=3, leaves=3, dicritical=False,
                      second_type=True, generalized_curve=True,
                      identity=(1, 1, True))),
        # d(v^2 - u^4)
        "tacnode": (f2({(3, 0): -4}, {(0, 1): 2}),
                    dict(blowups=2, leaves=3, dicritical=False,
                         second_type=True, generalized_curve=True,
                         identity=(1, 1, True))),
        # v du - u dv
        "radial": (f2({(0, 1): 1}, {(1, 0): -1}),
                   dict(blowups=1, leaves=0, dicritical=True,
                        second_type=True, generalized_curve=True,
                        identity=None)),
        # -v(1+u) du + u^2 dv: saddle-node with a dressed strong axis
        "sn": (f2({(0, 1): -1, (1, 1): -1}, {(2, 0): 1}),
               dict(blowups=0, leaves=1, dicritical=False,
                    second_type=True, generalized_curve=False,
                    identity=(1, 1, True))),
        # (u - v) du + u^2 dv: divergent weak separatrix
        "euler": (f2({(1, 0): 1, (0, 1): -1}, {(2, 0): 1}),
                  dict(blowups=0, leaves=1, dicritical=False,
                       second_type=True, generalized_curve=False,
                       identity=(1, 1, True))),
        # v(v - u) du + u^2 dv: not of second type
        "tangent": (f2({(0, 2): 1, (1, 1): -1}, {(2, 0): 1}),
                    dict(blowups=1, leaves=2, dicritical=False,
                         second_type=False, generalized_curve=False,
                         identity=(2, 1, False))),
        # d(u^3 + v^3): needs Q(rt(-3))
        "ham3": (f2({(2, 0): 3}, {(0, 2): 3}),
                 dict(blowups=1, leaves=3, dicritical=False,
                      second_type=True, generalized_curve=True,
                      identity=(2, 2, True), field="Q(sqrt(-3))")),
        # d(uv(u+v))
        "hamuvw": (f2({(1, 1): 2, (0, 2): 1}, {(2, 0): 1, (1, 1): 2}),
                   dict(blowups=1, leaves=3, dicritical=False,
                        second_type=True, generalized_curve=True,
                        identity=(2, 2, True))),
        # v(u + v^2) du - u^2 dv: dicritical with quadratic lowest part
        "dicq": (f2({(1, 1): 1, (0, 3): 1}, {(2, 0): -1}),
                 dict(blowups=2, leaves=2, dicritical=True,
                      second_type=True, generalized_curve=True,
                      identity=None)),
        # (uv + 2v^2) du + (u^2 + 3uv) dv: generic degree-2 cone
        "rand2": (f2({(1, 1): 1, (0, 2): 2}, {(2, 0): 1, (1, 1): 3}),
                  dict(blowups=1, leaves=3, dicritical=False,
                       second_type=True, generalized_curve=True,
                       identity=(2, 2, True))),
    }


def log_plane_foliation():
    """Degree-1 logarithmic foliation of the plane with residues
    (1, rt(2), -1-rt(2)) on the coordinate lines, over Q(rt(2))."""
    X = MPoly.variable(PROJ3, "X", Q2)
    Y = MPoly.variable(PROJ3, "Y", Q2)
    Z = MPoly.variable(PROJ3, "Z", Q2)
    one = Q2.one()
    r2 = Q2.sqrt_gen()
    data = LogarithmicData((X, Y, Z), (one, r2, -one - r2))
    return logarithmic_build(data), (X, Y, Z)


def saddle_node_plane_foliation():
    """Degree-1 plane foliation with a saddle-node at the origin of the
    Z-chart (affine field x^2 d/dx + y(x+1) d/dy)."""
    X = MPoly.variable(PROJ3, "X", Q)
    Y = MPoly.variable(PROJ3, "Y", Q)
    Z = MPoly.variable(PROJ3, "Z", Q)
    return ProjFoliation((X * Y + Y * Z, -(X * X), -(X * Y)), PROJ3), (X, Y, Z)


def planes4_foliation():
    """Degree-2 logarithmic foliation of projective 3-space on the four
    coordinate planes, residues (1, rt(2), 2rt(2), -1-3rt(2))."""
    gens = [MPoly.variable(PROJ4, w, Q2) for w in PROJ4]
    one = Q2.one()
    r2 = Q2.sqrt_gen()
    lam = (one, r2, r2 + r2, -one - r2 - r2 - r2)
    return logarithmic_build(LogarithmicData(tuple(gens), lam)), gens


def cusp_line_form(lam2):
    """z d(y^2 - x^3) + lam2 (y^2 - x^3) dz over lam2's field."""
    desc = lam2.desc
    return OneForm3(
        mk(XYZ, {(2, 0, 1): -3}, desc),
        mk(XYZ, {(0, 1, 1): 2}, desc),
        mk(XYZ, {(0, 2, 0): 1, (3, 0, 0): -1}, desc).scale(lam2),
        XYZ)


def dressed_cusp_cylinder():
    """d(y^2 - (x + yz)^3): a cylinder along z over the cusp whose three
    coefficients all involve z, so only the null space finds the axis."""
    x, y, z = (MPoly.variable(XYZ, w, Q) for w in XYZ)
    g = y * y - (x + y * z) ** 3
    return OneForm3(g.partial("x"), g.partial("y"), g.partial("z"), XYZ)


CUSP_LINE_SCRIPT = [((), "axis-z"), (("ax",), "axis-z"),
                    (("ax", "ay"), "axis-z")]


@pytest.fixture
def tmp_form_file(tmp_path):
    def write(text, name="input.form"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write
