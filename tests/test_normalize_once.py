"""Normalize once: the inherited coprimality flag against full gcd
normalization at every node, one reduction per command, and the
"no floats enter any verdict" promise of the README."""

import ast
import json
import random
from pathlib import Path

import pytest

from foliation_lab import (cli, forms, multiplicity_identity_check,
                           separatrix, trees_equivalent)
from foliation_lab.blowup import blowup_point2
from foliation_lab.forms import LocalDivisor, normalize2
from foliation_lab.reduce2d import _rotate_form

from conftest import corpus2, f2
from test_lemma_suites import N_INSTANCES, _random_plane_germ

SRC = Path(__file__).resolve().parent.parent / "src" / "foliation_lab"

CUBIC = "omega2: (u^3+v^3+u*v) du + (u^2-v) dv\n"
# inputs with a common factor: the root normalization must remove it
NOT_COPRIME = ["omega2: (u + v)*(-3*u^2) du + (u + v)*2*v dv\n",
               "omega2: (1 + u)*v du + (1 + u)*2*u dv\n",
               "omega2: u*(v^2 - u*v) du + u*u^2 dv\n"]


def _full_normalization(monkeypatch):
    """Make normalize2 run the gcd certificate whatever the flag says."""
    full = forms._content_and_gcd
    monkeypatch.setattr(forms, "_content_and_gcd",
                        lambda coeffs, coprime=False: full(coeffs))


def _lemma_germs():
    rng = random.Random(20260823)
    return [_random_plane_germ(rng) for _ in range(N_INSTANCES)]


def _leaf_forms(tree):
    return [(rec.path, rec.form.render()) for rec in tree.leaves]


def _form_text(form):
    return "omega2: %s\n" % form.render()


def _reports(command, texts, tmp_path):
    out = []
    for k, text in enumerate(texts):
        path = tmp_path / ("in%d.form" % k)
        path.write_text(text, encoding="utf-8")
        report = tmp_path / ("in%d.json" % k)
        report.unlink(missing_ok=True)
        code = cli.main([command, str(path), "--out", str(report)])
        out.append((code, report.read_bytes() if report.exists() else None))
    return out


def test_flag_is_set_by_normalize2_and_kept_where_proved():
    form = corpus2()["cusp"][0]
    assert not form.coprime
    n = normalize2(form)
    assert n.coprime
    one, zero = n.desc.one(), n.desc.zero()
    assert n.translate({"u": one}).coprime
    assert n.rename(("x", "y")).coprime
    assert n.coerce_to(n.desc.widened(2)).coprime
    assert all(c.form.coprime for c in blowup_point2(n, LocalDivisor.empty()))
    assert _rotate_form(n, (one, zero), (one, one)).coprime
    assert not _rotate_form(n, (one, zero), (one + one, zero)).coprime
    assert not _rotate_form(form, (one, zero), (one, one)).coprime


def test_flagged_form_only_loses_monomial_content():
    # u*v*(u + v) (du + dv): with the flag set on purpose, only the
    # monomial u*v comes out; without it the full gcd does
    raw = f2({(2, 1): 1, (1, 2): 1}, {(2, 1): 1, (1, 2): 1})
    assert normalize2(raw).render() == "(1) du + (1) dv"
    raw.coprime = True
    assert normalize2(raw).render() == "(v + u) du + (v + u) dv"


def _analyze_all(monkeypatch, texts, tmp_path):
    """analyze2 reports of all texts, with the tree each command built
    (None when the reduction raised)."""
    built = []
    reduce = cli.seidenberg_reduce

    def keep(*args, **kwargs):
        built.append(reduce(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "seidenberg_reduce", keep)
    trees, reports = [], []
    for text in texts:
        built.clear()
        reports += _reports("analyze2", [text], tmp_path)
        trees.append(built[0] if built else None)
    monkeypatch.setattr(cli, "seidenberg_reduce", reduce)
    return trees, reports


def test_inherited_and_full_normalization_agree(monkeypatch, tmp_path):
    """Trees, leaf forms and analyze2 reports are the same whether the
    coprimality flag is trusted or the full gcd runs at every node, on
    corpus2, on the 200 instances of the plane lemma suite and on inputs
    whose coefficients share a factor."""
    texts = [_form_text(form) for form, _ in corpus2().values()]
    texts += [_form_text(form) for form in _lemma_germs()] + NOT_COPRIME
    fast_trees, fast = _analyze_all(monkeypatch, texts, tmp_path)
    _full_normalization(monkeypatch)
    slow_trees, slow = _analyze_all(monkeypatch, texts, tmp_path)
    reduced = 0
    for text, t1, t2, a, b in zip(texts, fast_trees, slow_trees, fast, slow):
        assert a == b, text
        assert (t1 is None) == (t2 is None), text
        if t1 is None:
            continue
        reduced += 1
        assert trees_equivalent(t1, t2), text
        assert t1.blowup_count == t2.blowup_count, text
        assert _leaf_forms(t1) == _leaf_forms(t2), text
    assert reduced >= 150


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_reduce2_certifies_coprimality_once(monkeypatch, tmp_path):
    calls = _counting(monkeypatch, forms, "gcd_bivariate")
    [(code, _)] = _reports("reduce2", [CUBIC], tmp_path)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["analyze2", "separatrices", "reduce2",
                                     "second-type2"])
def test_divisor_block_saturates_the_root_once(monkeypatch, tmp_path,
                                               command):
    calls = _counting(monkeypatch, forms, "gcd_bivariate")
    text = "omega2: (v^2 - u^3) du + (u*v) dv\ndivisor:{ u }\n"
    [(code, _)] = _reports(command, [text], tmp_path)
    assert code == 0
    assert len(calls) == 1


def test_analyze2_reduces_once(monkeypatch, tmp_path):
    calls = _counting(monkeypatch, cli, "seidenberg_reduce")
    monkeypatch.setattr(separatrix, "seidenberg_reduce",
                        cli.seidenberg_reduce)
    [(code, _)] = _reports("analyze2", [CUBIC], tmp_path)
    assert code == 0
    assert len(calls) == 1


def _standalone(form):
    rep = multiplicity_identity_check(form)
    return ({"nu_form": rep.nu_form, "nu_dg": rep.nu_dg, "equal": rep.equal},
            [br.implicit.render() for br in rep.seps])


def test_reused_tree_matches_standalone_identity_check(tmp_path):
    items = [form for form, oracle in corpus2().values()
             if oracle["identity"] is not None]
    reports = _reports("analyze2", [_form_text(f) for f in items], tmp_path)
    for form, (code, blob) in zip(items, reports):
        assert code == 0, form.render()
        report = json.loads(blob)
        identity, jets = _standalone(form)
        assert report["identity_check"] == identity, form.render()
        assert [s["jet"] for s in report["separatrices"]] == jets


@pytest.mark.parametrize("command", ["analyze2", "separatrices"])
def test_divisor_block_keeps_its_own_identity_reduction(tmp_path, command):
    # {v = 0} is the weak separatrix of this saddle-node: with it in the
    # divisor the command's tree keeps one branch and is not of second
    # type, while the identity check must reduce the bare form
    form = corpus2()["sn"][0]
    text = _form_text(form) + "divisor:{ v }\n"
    [(code, blob)] = _reports(command, [text], tmp_path)
    assert code == 0
    report = json.loads(blob)
    assert [s["jet"] for s in report["separatrices"]] == ["u + O(deg 13)"]
    identity, _ = _standalone(form)
    assert identity == {"nu_form": 1, "nu_dg": 1, "equal": True}
    assert report["identity_check"] == identity


# --- the README promise: no floats enter any verdict ------------------------

_FLOAT_CALLS = {"float", "complex"}


class _FloatFinder(ast.NodeVisitor):
    """Float-producing constructs, each with its scope and line."""

    def __init__(self):
        self.scope = []
        self.found = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = _enter
    visit_FunctionDef = _enter

    def _flag(self, node, what):
        self.found.append((".".join(self.scope), node.lineno, what))

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id in _FLOAT_CALLS:
            self._flag(node, node.func.id + "(")
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if (node.attr == "sqrt" and isinstance(node.value, ast.Name)
                and node.value.id in ("math", "cmath")):
            self._flag(node, "math.sqrt")
        self.generic_visit(node)

    def visit_BinOp(self, node):
        if (isinstance(node.op, ast.Pow)
                and isinstance(node.right, ast.Constant)
                and isinstance(node.right.value, float)):
            self._flag(node, "** %r" % node.right.value)
        self.generic_visit(node)


def test_no_floats_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        finder = _FloatFinder()
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += [(path.name,) + f for f in finder.found]
    assert not found


def test_float_guard_sees_a_planted_float():
    finder = _FloatFinder()
    finder.visit(ast.parse("def f(n):\n    return int(n ** 0.5)\n"))
    assert finder.found == [("f", 2, "** 0.5")]
