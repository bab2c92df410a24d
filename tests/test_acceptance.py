"""Acceptance gate: the ten headline guarantees, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria complete.  Each criterion asserts exact expectations; a failure
prints a FAIL line naming the criterion before the assertion details.
"""

import functools
import json
import time
from fractions import Fraction

from foliation_lab import (OneForm2, bb_index, cs_index, gsv_index,
                           localize_at, mu0, multiplicity_identity_check,
                           plane_singularities, second_type3_via_sections,
                           seidenberg_reduce, sum_theorem_check,
                           theorem_main_harness, weak_graph_coefficients)
from foliation_lab import cli
from foliation_lab.indices import _cs_over_branches
from foliation_lab.poly import MPoly
from foliation_lab.reduce2d import REGULAR, SADDLE_NODE, SIMPLE

from conftest import (CUSP_LINE_SCRIPT, PROJ3, Q, Q2, XYZ, corpus2,
                      cusp_line_form, f3, log_plane_foliation)
from frozen_branches import _local_branches
from test_indices import _contour_gsv, _oracle_cases
from test_lemma_suites import (
    test_two_branch_second_type_germs_are_already_simple as _lemma_plane,
    test_well_oriented_models_never_give_tangent_saddle_nodes as _lemma_model)

_ALLOWED_KINDS = {REGULAR, SIMPLE, SADDLE_NODE}


def criterion(n, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("FAIL criterion %d: %s" % (n, label))
                raise
            print("PASS criterion %d: %s" % (n, label))
        return run
    return wrap


@criterion(1, "corpus reduces in <= 10 blow-ups to allowed final kinds")
def test_criterion_1_reduction_of_the_corpus():
    for name, (form, oracle) in corpus2().items():
        tree = seidenberg_reduce(form)
        assert tree.blowup_count <= 10, name
        assert tree.blowup_count == oracle["blowups"], name
        assert len(tree.leaves) == oracle["leaves"], name
        assert tree.has_dicritical() == oracle["dicritical"], name
        for rec in tree.leaves:
            assert rec.code.kind in _ALLOWED_KINDS, (name, rec.code.kind)


@criterion(2, "multiplicity identity holds exactly on second-type germs")
def test_criterion_2_multiplicity_identity():
    checked = 0
    for name, (form, oracle) in corpus2().items():
        if oracle["identity"] is None:
            continue  # dicritical items have no separatrix product
        rep = multiplicity_identity_check(form)
        assert rep.equal == rep.second_type == oracle["second_type"], name
        checked += 1
    assert checked >= 8


@criterion(3, "Milnor-number identity holds on generalized curves")
def test_criterion_3_milnor_identity():
    checked = 0
    for name, (form, oracle) in corpus2().items():
        if oracle["identity"] is None or not oracle["generalized_curve"]:
            continue
        rep = multiplicity_identity_check(form)
        g = rep.g
        u, v = form.vars
        dg = OneForm2(g.partial(u), g.partial(v), form.vars)
        assert mu0(form.coerce_to(g.desc)) == mu0(dg), name
        checked += 1
    assert checked >= 5


@criterion(4, "two 200-instance seeded lemma suites, zero counterexamples")
def test_criterion_4_lemma_suites():
    _lemma_plane()
    _lemma_model()


@criterion(5, "order-10 factorial weak-graph coefficients in under 1s")
def test_criterion_5_divergent_weak_graph_series():
    form = corpus2()["euler"][0]
    t0 = time.monotonic()
    cs = weak_graph_coefficients(form, N=10)
    elapsed = time.monotonic() - t0
    assert [c.as_fraction() for c in cs[:6]] == [1, 1, 2, 6, 24, 120]
    assert elapsed < 1.0, elapsed


@criterion(6, "index sums exact over Q(sqrt(2)), BB = CS + 2 GSV pointwise")
def test_criterion_6_exact_index_sums():
    fol, (X, Y, Z) = log_plane_foliation()
    line = sum_theorem_check(fol, X)
    assert (line.cs_sum.as_fraction(), line.gsv_sum.as_fraction(),
            line.bb_sum.as_fraction()) == (1, 2, 9)
    assert line.cs_ok and line.gsv_ok and line.bb_ok
    tri = sum_theorem_check(fol, X * Y * Z)
    assert (tri.cs_sum.as_fraction(), tri.gsv_sum.as_fraction(),
            tri.bb_sum.as_fraction()) == (9, 0, 9)
    sings = plane_singularities(fol)
    total = fol.desc.zero()
    C = X * Y * Z
    for s in sings:
        bb = bb_index(s).value
        total = total + bb
        cl = localize_at(C, s)
        brs = _local_branches(cl, s.desc, 12)
        cs = _cs_over_branches(s.form, brs, 12)
        gsv = gsv_index(s.form, brs, g=cl).value
        assert (bb - cs - gsv - gsv).is_zero(), s.point
    assert total.as_fraction() == 9


@criterion(7, "exact GSV agrees with the floating contour oracle to 1e-6")
def test_criterion_7_gsv_contour_oracle():
    checked = 0
    for fol, C in _oracle_cases():
        for sing in plane_singularities(fol):
            cl = localize_at(C.coerce_to(sing.desc), sing)
            origin = {w: sing.desc.zero() for w in cl.vars}
            if not cl.evaluate(origin).is_zero():
                continue
            branches = _local_branches(cl, sing.desc, 12)
            exact = gsv_index(sing.form, branches, g=cl).value.as_fraction()
            approx = _contour_gsv(sing.form, branches, cl)
            assert abs(approx - exact) < 1e-6, (sing.point, exact, approx)
            checked += 1
    assert checked >= 8


@criterion(8, "point harness: all-simple on three positives, flags the "
              "negative")
def test_criterion_8_main_harness():
    dxyz = f3({(0, 1, 1): 1}, {(1, 0, 1): 1}, {(1, 1, 0): 1})
    S = [MPoly.variable(XYZ, w, Q) for w in XYZ]
    rep = theorem_main_harness(dxyz, S, [])
    assert rep.ok and all(r.simple for r in rep.records)
    for lam2, desc in ((Q2.sqrt_gen(), Q2),
                       (Q.rational(Fraction(5, 2)), Q)):
        form = cusp_line_form(lam2)
        curve = [MPoly(XYZ, {(0, 2, 0): desc.one(),
                             (3, 0, 0): -desc.one()}, desc),
                 MPoly.variable(XYZ, "z", desc)]
        rep = theorem_main_harness(form, curve, CUSP_LINE_SCRIPT)
        assert rep.ok, rep.diagnostics
        assert len(rep.records) == 12
        assert all(r.simple for r in rep.records)
    tangent = f3({(0, 2, 0): 1, (1, 1, 0): -1}, {(2, 0, 0): 1}, {})
    rep = theorem_main_harness(
        tangent, [MPoly.variable(XYZ, "x", Q), MPoly.variable(XYZ, "y", Q)],
        [])
    assert not rep.ok and any(not r.simple for r in rep.records)


@criterion(9, "section test: reproducible refutation and confirmation in "
              "three variables")
def test_criterion_9_section_test():
    tangent = f3({(0, 2, 0): 1, (1, 1, 0): -1}, {(2, 0, 0): 1}, {})
    v1 = second_type3_via_sections(tangent, trials=4, seed=7)
    v2 = second_type3_via_sections(tangent, trials=4, seed=7)
    assert v1.kind == v2.kind == "NotSecondType"
    assert v1.witnesses and len(v1.witnesses) == len(v2.witnesses)
    assert [w[0] for w in v1.witnesses] == [w[0] for w in v2.witnesses]
    la = f3({(0, 1, 1): 1}, {(1, 0, 1): (0, 1)},
            {(1, 1, 0): (-1, -1)}, Q2)
    v = second_type3_via_sections(la, trials=4, seed=0)
    assert v.kind == "SecondType" and not v.witnesses


@criterion(10, "identical runs produce byte-identical JSON reports")
def test_criterion_10_deterministic_reports(tmp_form_file, tmp_path):
    jobs = [
        ("analyze2", "omega2: (-3*u^2) du + 2*v dv\n", []),
        ("second-type3", "omega3: (y^2 - x*y) dx + x^2 dy\n",
         ["--trials", "4", "--seed", "7"]),
    ]
    for k, (command, text, flags) in enumerate(jobs):
        path = tmp_form_file(text, "job%d.form" % k)
        blobs = []
        for rep in range(2):
            out = tmp_path / ("job%d_%d.json" % (k, rep))
            assert cli.main([command, path, "--out", str(out)] + flags) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], command
        json.loads(blobs[0])  # well-formed JSON
