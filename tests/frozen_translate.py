"""Frozen copy of MPoly.translate as it stood before the Taylor shift:
the composition with the images name + c through MPoly.substitute.  It
is the reference for the differential tests in test_local_data.py.  Do
not edit it: the code in src/ must give the same results."""

from __future__ import annotations

from foliation_lab.poly import MPoly


def _translate(p: MPoly, shifts: dict) -> MPoly:
    """Substitute name -> name + c for each (name, c) in shifts."""
    mapping = {}
    for name in p.vars:
        img = MPoly.variable(p.vars, name, p.desc, p.prec)
        if name in shifts:
            img = img + MPoly.constant(p.vars, shifts[name], p.desc, p.prec)
        mapping[name] = img
    return p.substitute(mapping)
