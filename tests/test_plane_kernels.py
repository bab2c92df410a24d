"""The direct kernels of the plane path against the frozen code they
replaced (frozen_plane_kernels.py): blow-up charts by exponent maps
against the pull-back through forms.pullback, with the dicritical tag
read off the exponents against the restriction to {e = 0}; the implicit
jet by binomial expansion against the composition through
MPoly.substitute; the rotation to a unit frame, which composes nothing,
against the pull-back; one rotation per point against one per traced
separatrix; the blow-down over one power table against a power per
term; and mu0 at an invertible linear part against the rank path.  The
guards at the end fail as soon as a kernel falls back to the generic
path."""

import sys
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_lab import (FieldDescriptor, blowup, cli, forms, indices,
                           reduce2d, seidenberg_reduce, separatrices2,
                           separatrix)
from foliation_lab.fields import widening
from foliation_lab.forms import (DivisorBranch, LocalDivisor, OneForm2,
                                 OneForm3, mu0)
from foliation_lab.poly import MPoly, monomials_below
from foliation_lab.reduce2d import SADDLE_NODE

import frozen_plane_kernels as frozen
from conftest import Q, Q2, UV, XYZ, corpus2

QS = FieldDescriptor(parameter="s")
_TOWERS = (Q, Q2, QS)
_small = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def _element(draw, desc, nonzero=False):
    """a + b rt(2) over Q(rt(2)), (a + b s) / (1 + c s) over Q(s)."""
    x = desc.rational(draw(_small))
    if desc.quadratic_extension is not None:
        x = x + desc.rational(draw(_small)) * desc.sqrt_gen()
    elif desc.parameter is not None:
        s = desc.param_gen()
        x = ((x + desc.rational(draw(_small)) * s)
             / (desc.one() + desc.rational(draw(_small)) * s))
    return desc.one() if nonzero and not x else x


@st.composite
def _poly(draw, desc, names, lo, hi, max_size=4, keep=lambda e: True):
    exps = [e for e in monomials_below(len(names), hi + 1)
            if sum(e) >= lo and keep(e)]
    terms = draw(st.dictionaries(st.sampled_from(exps), _element(desc),
                                 max_size=max_size))
    return MPoly(names, terms, desc)


def _truncated(draw, coeffs):
    """The coefficients as they are, or truncated at a precision N drawn
    from 1 to 2 nu + 4, so both below and at or past the N >= 2 nu + 2 of
    test_blowup_differential.py."""
    if not draw(st.booleans()) or all(p.is_zero() for p in coeffs):
        return coeffs
    nu = min(p.order() for p in coeffs if not p.is_zero())
    N = draw(st.integers(1, 2 * nu + 4))
    return [p.truncate(N) for p in coeffs]


@st.composite
def _plane_germ(draw):
    desc = draw(st.sampled_from(_TOWERS))
    nu = draw(st.integers(0, 3))
    A, B = (draw(_poly(desc, UV, nu, nu + 3)) for _ in range(2))
    if nu and draw(st.booleans()):  # dicritical: u A_nu + v B_nu = 0
        h = draw(_poly(desc, UV, nu - 1, nu - 1, 2))
        u, v = (MPoly.variable(UV, w, desc) for w in UV)
        A = v * h + draw(_poly(desc, UV, nu + 1, nu + 3))
        B = B.homogeneous_part(nu + 1) - u * h
    if A.is_zero() and B.is_zero():
        A = MPoly.variable(UV, "v", desc) ** max(nu, 1)
    branches = []
    for _ in range(draw(st.integers(0, 2))):
        eq = draw(_poly(desc, UV, 0, 2, 3)) + MPoly.variable(
            UV, draw(st.sampled_from(UV)), desc)
        if eq.is_zero():
            eq = MPoly.variable(UV, "u", desc)
        branches.append(DivisorBranch(eq, draw(st.booleans())))
    divisor = LocalDivisor(branches)
    return (OneForm2(*_truncated(draw, [A, B]), UV, draw(st.booleans())),
            divisor)


@st.composite
def _space_germ(draw, axis=None):
    """A form in (x, y, z) singular at the origin, or along the axis of
    `axis`, with up to two divisor branches: coordinate planes that
    contain the centre."""
    desc = draw(st.sampled_from(_TOWERS))
    off = [i for i, w in enumerate(XYZ) if w != axis]
    keep = lambda e: any(e[i] for i in off)  # noqa: E731
    coeffs = [draw(_poly(desc, XYZ, 1, 3, keep=keep)) for _ in XYZ]
    if all(p.is_zero() for p in coeffs):
        coeffs[0] = MPoly.variable(XYZ, XYZ[off[0]], desc)
    planes = draw(st.lists(st.sampled_from([XYZ[i] for i in off]),
                           max_size=2, unique=True))
    divisor = LocalDivisor([DivisorBranch(MPoly.variable(XYZ, w, desc))
                            for w in planes])
    return OneForm3(*_truncated(draw, coeffs), variables=XYZ), divisor


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (ValueError, ArithmeticError) as exc:
        return ("raised", type(exc), str(exc))


def _charts(fn, *args):
    def data():
        return [(ch.label, ch.exc_var, ch.mapping, ch.mult, ch.dicritical,
                 ch.form.coeffs(), getattr(ch.form, "coprime", None),
                 ch.survivors,
                 [(b.equation, b.dicritical) for b in ch.divisor])
                for ch in fn(*args)]
    new = _outcome(data)
    with mock.patch.object(blowup, "_charts", frozen._charts):
        old = _outcome(data)
    assert new == old, args
    return new


# --- blow-up charts ---------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(_plane_germ())
def test_plane_charts_match_the_pullback(germ):
    form, divisor = germ
    _charts(blowup.blowup_point2, form, divisor, True)


@settings(max_examples=50, deadline=None)
@given(_space_germ())
def test_space_point_charts_match_the_pullback(germ):
    _charts(blowup.blowup_point3, *germ)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_axis_charts_match_the_pullback(data):
    axis = data.draw(st.sampled_from(XYZ))
    form, divisor = data.draw(_space_germ(axis))
    _charts(blowup.blowup_curve3, form, axis, divisor)


# --- the implicit jet -------------------------------------------------------


@st.composite
def _frame(draw, desc):
    """Two directions with a nonzero determinant; entries may be zero.
    A parallel pair is replaced by d1 and its turn by a right angle,
    which the towers here, inside the reals, keep independent."""
    d1, d2 = ((draw(_element(desc)), draw(_element(desc))) for _ in range(2))
    if not (d1[0] or d1[1]):
        d1 = (desc.one(), d1[1])
    if not d1[0] * d2[1] - d1[1] * d2[0]:
        d2 = (-d1[1], d1[0])
    return d1, d2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_binomial_implicit_jet_matches_the_substitution(data):
    desc = data.draw(st.sampled_from(_TOWERS))
    N = data.draw(st.integers(1, 8))
    cs = [data.draw(_element(desc)) for _ in range(N)]
    d_target, d_other = data.draw(_frame(desc))
    got = separatrix._graph_branch(cs, d_target, d_other, UV, desc, N)
    want = frozen._graph_branch(cs, d_target, d_other, UV, desc, N)
    assert got[0].components == want[0].components
    assert (got[1].coeffs, got[1].prec) == (want[1].coeffs, want[1].prec)


@settings(max_examples=60, deadline=None)
@given(_plane_germ(), st.data())
def test_rotation_matches_the_pullback(germ, data):
    """The unit frames, which compose nothing, and any other frame."""
    form, _ = germ
    one, zero = form.desc.one(), form.desc.zero()
    frame = data.draw(st.sampled_from([((one, zero), (zero, one)),
                                       ((zero, one), (one, zero)), None]))
    d1, d2 = frame or data.draw(_frame(form.desc))
    got = reduce2d._rotate_form(form, d1, d2)
    want = frozen._rotate_form(form, d1, d2)
    assert [(p.coeffs, p.prec) for p in got.coeffs()] == [
        (p.coeffs, p.prec) for p in want.coeffs()]
    assert got.coprime == want.coprime


# --- one rotation per point -------------------------------------------------


def _jets(pair):
    return [None if p is None else (p[0].components, p[1]) for p in pair]


def _same_pair(form, d1, d2, N, wanted):
    got = _outcome(lambda: _jets(separatrix._trace_frame(form, d1, d2, N,
                                                         wanted)))
    want = _outcome(lambda: _jets([
        frozen._trace_graph(form, d, other, N) if w else None
        for d, other, w in ((d1, d2, wanted[0]), (d2, d1, wanted[1]))]))
    assert got == want, (form.render(), wanted, N)
    return got


def _corpus_leaves():
    """(leaf, its two separatrix directions) over every corpus2
    reduction, over the tower that holds the directions."""
    out = []
    for _, (form, _) in sorted(corpus2().items()):
        def run(desc, form=form):
            tree = seidenberg_reduce(form.coerce_to(desc))
            return [(rec, [d for d, _ in separatrix._leaf_directions(rec)])
                    for rec in tree.leaves]
        out.extend(widening(run, form.desc))
    return out


def test_one_rotation_per_leaf_matches_two_traces_on_corpus2():
    leaves = _corpus_leaves()
    assert len(leaves) > 20
    for rec, (d1, d2) in leaves:
        for N in (2, 6, 12):
            for wanted in ((True, True), (True, False), (False, True)):
                got = _same_pair(rec.form, d1, d2, N, wanted)
                if got[0] != "ok":
                    continue
                for jets in got[1]:
                    if jets is not None:
                        implicit = jets[1]
                        assert (separatrix._pushdown_implicit(implicit,
                                                              rec.path)
                                == frozen._pushdown_implicit(implicit,
                                                             rec.path))


def test_one_rotation_per_saddle_node_on_the_projective_workload(
        monkeypatch, tmp_path):
    """The saddle-nodes of one cycle of the space3-projective generator,
    as indices._germ_branches traces them."""
    monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "bench")
    import workloads
    points = []
    original = indices.plane_singularities

    def recording(fol):
        sings = original(fol)
        points.extend(sings)
        return sings

    monkeypatch.setattr(indices, "plane_singularities", recording)
    for item in workloads.generate("space3-projective", 5, 1):
        if item.command in ("indices", "log-criterion"):
            path = tmp_path / (item.name + ".form")
            path.write_text(item.text + "\n", encoding="utf-8")
            cli.main([item.command, str(path), "--out",
                      str(tmp_path / (item.name + ".json"))] + item.flags)
    saddle_nodes = [s for s in points if s.code.kind == SADDLE_NODE]
    assert len(saddle_nodes) >= 5
    for sing in saddle_nodes:
        for N in (4, 10):
            got = _outcome(lambda: _jets(
                [(b.param, b.implicit) for b in
                 indices._germ_branches(sing.form, sing.code, N)]))
            want = _same_pair(sing.form, sing.code.strong, sing.code.weak,
                              N, (True, True))
            assert got == want, sing.point


# --- the Milnor number ------------------------------------------------------


@st.composite
def _singular_germ(draw):
    """A singular plane germ whose linear part is invertible or, about
    half the time, of rank at most one; exact or truncated."""
    desc = draw(st.sampled_from(_TOWERS))
    lin = [draw(_element(desc)) for _ in range(4)]
    if draw(st.booleans()):  # (b10, b01) = lam (a10, a01)
        lam = draw(_element(desc))
        lin[2], lin[3] = lam * lin[0], lam * lin[1]
    A, B = (draw(_poly(desc, UV, 2, 4)) + MPoly(UV, {(1, 0): a, (0, 1): b},
                                                desc)
            for a, b in (lin[:2], lin[2:]))
    return OneForm2(*_truncated(draw, [A, B]), UV)


@settings(max_examples=80, deadline=None)
@given(_singular_germ())
def test_mu0_matches_the_rank_path(form):
    assert _outcome(mu0, form) == _outcome(frozen.mu0, form)


def test_mu0_rank_path_runs_on_degenerate_corpus_germs():
    for name in ("cusp", "sn", "tangent"):
        form = corpus2()[name][0]
        assert mu0(form) == frozen.mu0(form) > 1, name


# --- guards: the kernels stay in place --------------------------------------


def _count(monkeypatch, module, name):
    """Count calls of module.name through every package module that binds
    it (a class attribute when `module` is a class)."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    if not isinstance(module, type):
        for key, other in list(sys.modules.items()):
            if (key.startswith("foliation_lab")
                    and getattr(other, name, None) is original):
                monkeypatch.setattr(other, name, wrapper)
    return calls


def test_blowing_up_corpus2_composes_nothing(monkeypatch):
    pullbacks = _count(monkeypatch, forms, "pullback")
    substitutions = _count(monkeypatch, MPoly, "substitute")
    charts = 0
    for _, (form, _) in sorted(corpus2().items()):
        charts += len(blowup.blowup_point2(form, LocalDivisor.empty(), True))
    assert charts == 2 * len(corpus2())
    assert pullbacks == [] and substitutions == []


def test_separatrices_rotate_each_leaf_once(monkeypatch):
    rotations = _count(monkeypatch, separatrix, "_rotate_form")
    pairs = 0
    for name, (form, oracle) in sorted(corpus2().items()):
        if oracle["dicritical"]:
            continue
        tree = seidenberg_reduce(form)
        del rotations[:]
        seps = separatrices2(form, tree, 8)
        paths = [b.path for b in seps]
        pairs += len(paths) - len(set(paths))
        assert len(rotations) == len(set(paths)), name
    assert pairs >= 3


def test_mu0_reads_an_invertible_linear_part_without_ranks(monkeypatch):
    ranks = _count(monkeypatch, forms, "rank")
    for name in ("node", "res12", "radial"):
        assert mu0(corpus2()[name][0]) == 1, name
    assert ranks == []
    assert mu0(corpus2()["cusp"][0]) > 1 and ranks
