"""Input-format parsing and the command-line driver end to end."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from foliation_lab import cli
from foliation_lab.parser import InputSyntaxError, parse_form

TANGENT2 = "omega2: (v^2 - u*v) du + u^2 dv\n"
CUSP2 = "omega2: (-3*u^2) du + 2*v dv\n"
RADIAL2 = "omega2: -v du + u dv\n"
TANGENT3 = "omega3: (y^2 - x*y) dx + x^2 dy\n"
DXYZ3 = "omega3: y*z dx + x*z dy + x*y dz\n"
CUSP_LINE3 = ("omega3: -3*x^2*z dx + 2*y*z dy + rt(2)*(y^2 - x^3) dz\n"
              "separatrix:{ y^2 - x^3, z }\n"
              "script:[ axis-z, ax:axis-z, ax.ay:axis-z ]\n")
SADDLE_NODE_P2 = ("proj2: (X*Y + Y*Z) dX - X^2 dY - X*Y dZ\n"
                  "separatrix:{ X, Y }\n")
PLANES4_P3 = ("proj3: Y*Z*W dX + rt(2)*X*Z*W dY + 2*rt(2)*X*Y*W dZ"
              " - (1 + 3*rt(2))*X*Y*Z dW\n"
              "separatrix:{ X, Y, Z, W }\n"
              "section:(1, 2, 3)\n")


# --- parser -----------------------------------------------------------------


def test_parse_plane_form():
    parsed = parse_form(TANGENT2)
    assert parsed.kind == "omega2"
    assert parsed.form.A.render() == "v^2 - u*v"
    assert parsed.form.B.render() == "u^2"
    assert parsed.divisor is None and parsed.script is None


def test_parse_three_form_infers_quadratic_field():
    parsed = parse_form("omega3: y*z dx + x*z dy + rt(2)*x*y dz")
    assert parsed.kind == "omega3"
    assert parsed.desc.quadratic_extension == 2
    assert parsed.form.C.render() == "rt(2)*x*y"


def test_parse_reports_line_and_column():
    with pytest.raises(InputSyntaxError) as exc:
        parse_form("omega2: du +")
    assert exc.value.line == 1 and exc.value.col == 13
    assert "line 1, column 13" in str(exc.value)


def test_parse_rejects_unknown_symbol():
    with pytest.raises(InputSyntaxError):
        parse_form("omega2: w du + u dv")


def test_parse_auxiliary_blocks():
    parsed = parse_form(CUSP_LINE3)
    assert [s.render() for s in parsed.separatrices] == ["y^2 - x^3", "z"]
    assert parsed.script == [((), "axis-z"), (("ax",), "axis-z"),
                             (("ax", "ay"), "axis-z")]


def test_parse_divisor_and_section_blocks():
    parsed = parse_form("omega2: v du + 2*u dv\n"
                        "divisor:{ u, dicritical(v) }")
    assert [b.dicritical for b in parsed.divisor.branches] == [False, True]
    parsed = parse_form(PLANES4_P3)
    assert [c.render() for c in parsed.section] == ["1", "2", "3"]
    assert parsed.desc.quadratic_extension == 2


# --- command-line driver ----------------------------------------------------


def test_cli_reduce2_reports_three_blowups(tmp_form_file, tmp_path):
    out = tmp_path / "cusp.json"
    code = cli.main(["reduce2", tmp_form_file(CUSP2), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["reduction"]["blowups"] == 3
    assert not rep["dicritical"]
    assert all(l["kind"] in ("SimpleNonDegenerate", "SaddleNode")
               for l in rep["reduction"]["leaves"])


def test_cli_second_type2_negative_with_witness(tmp_form_file, tmp_path):
    out, dot = tmp_path / "t.json", tmp_path / "t.dot"
    code = cli.main(["second-type2", tmp_form_file(TANGENT2),
                     "--out", str(out), "--dot", str(dot)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["second_type"]["verdict"] is False
    wit = rep["second_type"]["witnesses"]
    assert wit and wit[0]["path"] and wit[0]["kind"] == "SaddleNode"
    text = dot.read_text()
    assert text.startswith("graph dual_graph {")
    assert "(tangent)" in text


def test_cli_analyze2_full_report(tmp_form_file, tmp_path):
    out = tmp_path / "c.json"
    assert cli.main(["analyze2", tmp_form_file(CUSP2),
                     "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["nu0"] == 1 and rep["mu0"] == 2
    assert rep["generalized_curve"] is True
    assert rep["second_type"]["verdict"] is True
    assert rep["identity_check"] == {"nu_form": 1, "nu_dg": 1, "equal": True}
    assert rep["separatrices"][0]["tags"] == ["analytic", "ordinary"]


@pytest.mark.parametrize("command", ["analyze2", "separatrices"])
def test_cli_regular_point_reports_its_leaf(tmp_form_file, tmp_path,
                                            command):
    out = tmp_path / "r.json"
    assert cli.main([command, tmp_form_file("omega2: du"),
                     "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["separatrices"] == [{"jet": "u + O(deg 13)",
                                    "tags": ["analytic", "ordinary"]}]
    assert rep["identity_check"] == {"nu_form": 0, "nu_dg": 0, "equal": True}


@pytest.mark.parametrize("command", ["analyze2", "separatrices"])
def test_cli_separatrices_widen_past_a_reduction_over_q(tmp_form_file,
                                                        tmp_path, command):
    """A reduced node with eigenvalues (1 +- sqrt 5)/2: the reduction
    ends over Q, and the separatrices reduce again over Q(sqrt 5)."""
    out = tmp_path / "w.json"
    assert cli.main([command, tmp_form_file("omega2: -u du + (u + v) dv\n"),
                     "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["field"] == "Q"
    assert [s["jet"] for s in rep["separatrices"]] == [
        "v + (1/2 + (-1/2)*rt(5))*u + O(deg 13)",
        "v + (1/2 + (1/2)*rt(5))*u + O(deg 13)"]
    assert rep["identity_check"] == {"nu_form": 1, "nu_dg": 1, "equal": True}


@pytest.mark.parametrize("command", ["analyze2", "separatrices"])
@pytest.mark.parametrize("text, nu", [
    ("omega2: v du + 2*u dv\ndivisor:{ u, v }\n", 1),
    ("omega2: du\ndivisor:{ u }\n", 0),
])
def test_cli_declared_branches_leave_no_separatrix(tmp_form_file, tmp_path,
                                                   command, text, nu):
    """Declared divisor branches are never listed as separatrices; an
    empty list is a valid answer.  The identity is that of the form
    without its divisor."""
    out = tmp_path / "d.json"
    assert cli.main([command, tmp_form_file(text), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["separatrices"] == []
    assert rep["identity_check"] == {"nu_form": nu, "nu_dg": nu,
                                     "equal": True}


def test_cli_plane_invariants_are_those_of_the_saturated_form(
        tmp_form_file, tmp_path):
    # u^2 v du - u v^2 dv = u v (u du - v dv): the saturated form has nu 1
    path = tmp_form_file("omega2: u^2*v du - u*v^2 dv\n")
    out = tmp_path / "s.json"
    for command in ("reduce2", "separatrices", "second-type2", "analyze2"):
        assert cli.main([command, path, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["nu0"] == 1, command
    assert rep["mu0"] == 1
    assert rep["identity_check"]["nu_form"] == 1
    assert rep["diagnostics"] == []


def test_cli_huge_semiprime_discriminant_ends(tmp_form_file, tmp_path):
    # 998244359987710471 = 998244353 * 1000000007: trial division alone
    # would run to about 10^9
    out = tmp_path / "h.json"
    t0 = time.perf_counter()
    code = cli.main(["analyze2",
                     tmp_form_file("omega2: -998244359987710471*u du"
                                   " + v dv\n"), "--out", str(out)])
    assert time.perf_counter() - t0 < 10
    assert code in (0, 2)
    if code == 2:
        assert json.loads(out.read_text())["diagnostics"]


def _fresh_run(argv, timeout=60):
    """(exit code, stdout, stderr) of the command line in a new interpreter
    that imports this checkout's package."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    run = subprocess.run([sys.executable, "-m", "foliation_lab.cli"] + argv,
                         capture_output=True, text=True, env=env,
                         timeout=timeout)
    return run.returncode, run.stdout, run.stderr


def test_cli_huge_prime_coefficient_bounds_the_root_search(tmp_form_file):
    """The tangent cone u^3 + p v^3 with p = 10^18 + 3 prime: trial
    division up to sqrt(p) would take minutes, so the rational root test
    stops at its limit and exits 2 naming the coefficient."""
    p = 1000000000000000003
    code, out, _ = _fresh_run(
        ["reduce2", tmp_form_file("omega2: (u^2) du + (%d*v^2) dv\n" % p)],
        timeout=20)
    assert code == 2
    [diagnostic] = json.loads(out)["diagnostics"]
    assert diagnostic.startswith(
        "cannot list the rational roots: the coefficient %d" % p)


def test_cli_reduce2_over_the_parameter_with_a_common_factor_ends(
        tmp_form_file):
    """Both coefficients share the factor u + (1 + 3s) v, so no point
    proves them coprime: normalize2 interpolates the gcd from its values
    at s = 0, 1, ..., and the saturated form is a saddle-node.  The
    pseudo-remainder gcd over Q(s) that this replaced ran past 60 s."""
    s = "param(s)"
    g = "(u + (1 + 3*%s)*v)" % s
    form = ("omega2: %s*((3/2 + %s)*v - 1/2*v^2 + 1/2*v^4 + (3 - %s)*u*v^2"
            " + (2 + 3/2*%s)*u^2*v^2) du + %s*(-4*v^3 - 3/2*v^4"
            " - (3/2 + 2*%s)*u*v^3 - (1 + 2*%s)*u^2 + (%s - 3)*u^3) dv\n"
            % (g, s, s, s, g, s, s, s))
    code, out, _ = _fresh_run(["reduce2", tmp_form_file(form)], timeout=20)
    assert code == 0
    report = json.loads(out)
    assert report["field"] == "Q(s)"
    assert [leaf["kind"] for leaf in report["reduction"]["leaves"]] == [
        "SaddleNode"]


def test_cli_parser_is_reused_across_calls(tmp_form_file, capsys):
    """One process runs main with --truncation 6 and then without it: each
    report equals that of a fresh process, and a later argument error
    still exits 1 with one line."""
    path = tmp_form_file(TANGENT2)
    runs = [["separatrices", path, "--truncation", "6"],
            ["separatrices", path]]
    fresh = [_fresh_run(argv)[:2] for argv in runs]
    assert fresh[0][0] == 0 and fresh[0][1] != fresh[1][1]
    capsys.readouterr()
    for argv, (code, out) in zip(runs, fresh):
        assert cli.main(argv) == code
        assert capsys.readouterr().out == out
    assert cli.main(["separatrices", path, "--truncation", "x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("foliation-lab: ") and err.count("\n") == 1
    assert cli._build_argparser() is cli._build_argparser()


def test_cli_undecidable_field_is_inconclusive(tmp_form_file, tmp_path):
    # the square-free part of rt(998244353 * 1000000007) is not decided,
    # so the coefficient field is unknown: exit 2, not a usage error
    out = tmp_path / "f.json"
    code = cli.main(["analyze2",
                     tmp_form_file("omega2: rt(998244359987710471)*v du"
                                   " + u dv\n"), "--out", str(out)])
    assert code == 2
    rep = json.loads(out.read_text())
    assert rep["field"] is None
    assert list(rep) == ["input", "field", "diagnostics"]
    assert "square-free" in rep["diagnostics"][0]


def test_cli_unsplit_quartic_diagnostic_names_its_degree(tmp_form_file,
                                                         tmp_path):
    # d((v^2 - 2u^2)(v^2 - 8u^2)): the tangent cone splits into two
    # quadratics over Q, which the root search does not find
    out = tmp_path / "q.json"
    body = "(64*u^3 - 20*u*v^2) du + (4*v^3 - 20*u^2*v) dv"
    for text in ("omega2: " + body, "omega2: rt(2)*u du - rt(2)*u du + "
                 + body):
        assert cli.main(["reduce2", tmp_form_file(text + "\n"),
                         "--out", str(out)]) == 2
        assert json.loads(out.read_text())["diagnostics"] == [
            "a factor of degree 4 was not split: no root in Q was found"]


def test_cli_separatrices_dicritical_is_inconclusive(tmp_form_file,
                                                     tmp_path):
    out = tmp_path / "r.json"
    code = cli.main(["separatrices", tmp_form_file(RADIAL2),
                     "--out", str(out)])
    assert code == 2
    rep = json.loads(out.read_text())
    assert rep["diagnostics"] and "dicritical" in rep["diagnostics"][0]


def test_cli_usage_errors_exit_one(tmp_form_file, tmp_path):
    # second-type3 without a seed
    assert cli.main(["second-type3", tmp_form_file(TANGENT3)]) == 1
    # missing input file
    assert cli.main(["reduce2", str(tmp_path / "missing.form")]) == 1
    # syntax error in the input
    assert cli.main(["reduce2", tmp_form_file("omega2: du +")]) == 1
    # wrong form kind for the command
    assert cli.main(["reduce2", tmp_form_file(DXYZ3)]) == 1
    # theorem-main without its separatrix block
    assert cli.main(["theorem-main", tmp_form_file(DXYZ3)]) == 1
    # separatrix jets need order 2, also where the reduction is
    # inconclusive (a tangent cone u^3 - 2 v^3 outside the tower)
    for text in (CUSP2, "omega2: 3*u^2 du - 6*v^2 dv\n"):
        for command in ("analyze2", "separatrices"):
            assert cli.main([command, tmp_form_file(text),
                             "--truncation", "1"]) == 1


@pytest.mark.parametrize("argv", [
    ["reduce2", "{form}", "--bogus"],
    ["nocmd", "{form}"],
    ["reduce2", "{form}", "--truncation", "x"],
    ["reduce2"],
    ["model-match3", "{form}", "--resonance-bound", "25"],
    ["log-criterion", "{form}", "--section", "1,2,3"],
    ["model-match3", "{form}", "--jet-order", "4"],
], ids=["unknown-option", "unknown-command", "bad-int", "no-input",
        "removed-option", "removed-section-option",
        "removed-jet-order-option"])
def test_cli_argument_errors_exit_one(tmp_form_file, capsys, argv):
    path = tmp_form_file(DXYZ3 if argv[0] == "model-match3" else CUSP2)
    assert cli.main([a.format(form=path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("foliation-lab: ") and err.count("\n") == 1


def test_cli_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("option", ["--out", "--dot"])
def test_cli_unwritable_output_path_exits_one(tmp_form_file, tmp_path,
                                              capsys, option):
    target = str(tmp_path / "missing" / "r.out")
    assert cli.main(["reduce2", tmp_form_file(CUSP2), option, target]) == 1
    err = capsys.readouterr().err
    assert err.startswith("foliation-lab: ") and err.count("\n") == 1


def test_cli_max_depth_bounds_the_reduction(tmp_form_file, tmp_path):
    out = tmp_path / "d.json"
    path = tmp_form_file(CUSP2)
    assert cli.main(["reduce2", path, "--max-depth", "2",
                     "--out", str(out)]) == 2
    assert json.loads(out.read_text())["diagnostics"] == [
        "blow-up depth exhausted"]
    assert cli.main(["reduce2", path, "--max-depth", "3",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["reduction"]["blowups"] == 3


def test_readme_options_are_the_parser_options():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = readme.index("Options:")
    paragraph = readme[start:readme.index("\n\n", start)]
    documented = set(re.findall(r"`(--[a-z-]+)", paragraph))
    parsed = {o for a in cli._build_argparser()._actions
              for o in a.option_strings if o.startswith("--")} - {"--help"}
    assert documented == parsed


def test_model_match3_decides_a_resonance_past_any_small_bound(
        tmp_form_file, tmp_path):
    """(1, 0, 30) . (1, 1, -1/30) = 0: not model A; with +1/30 there is no
    relation at all."""
    out = tmp_path / "m.json"
    for c, model in (("-1/30", "NotSimple"), ("1/30", "A")):
        path = tmp_form_file("omega3: y*z dx + x*z dy + (%s)*x*y dz\n" % c)
        assert cli.main(["model-match3", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdict3"]["model"] == model


def test_cli_model_match3(tmp_form_file, tmp_path):
    out = tmp_path / "m.json"
    assert cli.main(["model-match3", tmp_form_file(DXYZ3),
                     "--out", str(out)]) == 0
    v = json.loads(out.read_text())["verdict3"]
    assert v["model"] == "A" and v["tau"] == 3
    assert v["residues"] == ["1", "1", "1"]


def test_cli_theorem_main_script_run(tmp_form_file, tmp_path):
    out = tmp_path / "t.json"
    assert cli.main(["theorem-main", tmp_form_file(CUSP_LINE3),
                     "--out", str(out)]) == 0
    v = json.loads(out.read_text())["verdict3"]
    assert v["ok"] is True
    assert len(v["records"]) == 12
    assert all(r["simple"] for r in v["records"])


def test_cli_indices_sums(tmp_form_file, tmp_path):
    out = tmp_path / "i.json"
    assert cli.main(["indices", tmp_form_file(SADDLE_NODE_P2),
                     "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["indices"]
    assert rep["ok"] is True
    assert (rep["cs_sum"], rep["gsv_sum"], rep["bb_sum"]) == ("4", "2", "9")


def test_cli_log_criterion(tmp_form_file, tmp_path):
    out = tmp_path / "l.json"
    assert cli.main(["log-criterion", tmp_form_file(PLANES4_P3),
                     "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["field"] == "Q(sqrt(2))"
    assert rep["verdict3"] == {"logarithmic": True, "slack": 0}


def test_cli_reports_are_byte_deterministic(tmp_form_file, tmp_path):
    """Identical invocations, including seeded section sampling, must
    produce byte-identical JSON reports."""
    path = tmp_form_file(TANGENT3)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli.main(["second-type3", path, "--trials", "4",
                         "--seed", "7", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    rep = json.loads(outs[0])
    assert rep["verdict3"]["kind"] == "NotSecondType"
    assert rep["second_type"]["verdict"] is False
    assert len(rep["second_type"]["witnesses"]) == 6
    for w in rep["second_type"]["witnesses"]:
        assert w["where"] and w["leaves"]


def test_cli_second_type3_inconclusive_verdict_is_null(tmp_form_file,
                                                       tmp_path):
    """An inconclusive section test exits 2, and its report says neither
    "of second type" nor "not": the verdict is null.  The reason it is
    undecided closes the evidence and is the report's diagnostic."""
    out = tmp_path / "report.json"
    code = cli.main(["second-type3",
                     tmp_form_file("omega3: y*z dx + x*z dy"
                                   " + (-1/2)*x*y dz\n"),
                     "--seed", "1", "--out", str(out)])
    assert code == 2
    rep = json.loads(out.read_text())
    assert rep["verdict3"]["kind"] == "Inconclusive"
    assert rep["second_type"]["verdict"] is None
    note = "origin: residues 0 and 1 rationally dependent"
    assert rep["diagnostics"] == [note]
    assert rep["verdict3"]["evidence"][-1] == note


def test_cli_indices_low_truncation_is_inconclusive(tmp_form_file, tmp_path):
    """A truncation too low for a residue gives exit 2, never another
    verdict: every N either reproduces the N = 12 report or exits 2."""
    path = tmp_form_file(SADDLE_NODE_P2)

    def run(n):
        out = tmp_path / ("n%d.json" % n)
        code = cli.main(["indices", path, "--truncation", str(n),
                         "--out", str(out)])
        return code, out.read_bytes()

    reference = run(12)
    assert reference[0] == 0
    for n in range(1, 12):
        code, body = run(n)
        assert code == 2 or (code, body) == reference, n
    assert run(2)[0] == 2  # a pole of order 2 needs the jet through t^3


def test_cli_indices_degenerate_point_is_inconclusive(tmp_form_file,
                                                     tmp_path):
    """The pencil C/Z^3 of the nodal cubic C = Y^2 Z - 2 X^2 Z - X^3 has a
    degenerate base point (0 : 1 : 0), where no Baum-Bott index is read:
    exit 2 with the diagnostic, not a usage error."""
    out = tmp_path / "d.json"
    text = ("proj2: (-4*X*Z^2 - 3*X^2*Z) dX + 2*Y*Z^2 dY"
            " + (-2*Y^2*Z + 4*X^2*Z + 3*X^3) dZ\n"
            "separatrix:{ Y^2*Z - 2*X^2*Z - X^3 }\n")
    assert cli.main(["indices", tmp_form_file(text), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["diagnostics"] == [
        "Baum-Bott needs a non-degenerate point or a saddle-node"]


def test_cli_indices_singular_branch_is_inconclusive(tmp_form_file,
                                                    tmp_path):
    """The form is a multiple of d(Y^2 Z / X^3), so the cuspidal cubic
    Y^2 Z = X^3 is invariant; its branch at (0 : 0 : 1) is a cusp, out of
    reach of the smooth-branch index formulas.  The input is valid, so
    the run exits 2 with the diagnostic, not 1."""
    out = tmp_path / "c.json"
    text = ("proj2: (3*Y*Z) dX + (-2*X*Z) dY + (-1*X*Y) dZ\n"
            "separatrix:{ Y^2*Z - X^3 }\n")
    assert cli.main(["indices", tmp_form_file(text), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["diagnostics"] == [
        "the curve has coincident tangent directions"]


@pytest.mark.parametrize("form", ["(Y*Z) dX + (-1*X*Z) dY + (0) dZ",
                                  "(X*Y*Z) dX + (-1*X^2*Z) dY + (0) dZ"])
def test_cli_indices_positive_dimensional_locus_is_inconclusive(
        tmp_form_file, tmp_path, form):
    """Z (Y dX - X dY) vanishes along the line Z = 0, and X times it along
    X = 0 as well, so the singular points are not isolated and no index
    sum is read.  The input is valid: exit 2 with the diagnostic, not 1."""
    out = tmp_path / "p.json"
    text = "proj2: %s\nseparatrix:{ X }\n" % form
    assert cli.main(["indices", tmp_form_file(text), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["diagnostics"] == [
        "the singular locus is positive-dimensional"]


@pytest.mark.parametrize("command, text", [
    ("indices", "proj2: (Y*Z) dX + (-2*X*Z) dY + (X*Y) dZ\n"
                "separatrix:{ 1 }\n"),
    ("log-criterion", "proj3: ((2)*1*(Y)*(Z)*(W)) dX + ((-2)*1*(X)*(Z)*(W)) dY"
                      " + ((-1)*1*(X)*(Y)*(W)) dZ + ((1)*1*(X)*(Y)*(Z)) dW\n"
                      "separatrix:{ 3 }\n"),
], ids=["indices", "log-criterion"])
def test_cli_constant_separatrix_block_is_a_usage_error(
        tmp_form_file, tmp_path, capsys, command, text):
    """A block whose product is a nonzero constant declares no curve or
    surface: no report on one of degree 0, but exit 1 with one line that
    names the block."""
    out = tmp_path / "const.json"
    assert cli.main([command, tmp_form_file(text), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "separatrix:{...} block" in err
    assert "the constant" in err


def test_cli_indices_pencil_of_lines_has_one_point(tmp_form_file, tmp_path):
    """Z dX - X dZ is the pencil of lines through (0 : 1 : 0).  In chart
    Z = 1 its coefficients are 1 and 0, which have no common zero, so the
    one singular point is (0 : 1 : 0), radial, and the line X = 0 through
    it gives CS 1 = X.X, GSV 1 = 2 deg X - X.X and BB 4 = (0 + 2)^2."""
    out = tmp_path / "pencil.json"
    text = "proj2: Z dX - X dZ\nseparatrix:{ X }\n"
    assert cli.main(["indices", tmp_form_file(text), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["diagnostics"] == []
    sums = rep["indices"]
    assert [p["point"] for p in sums["points"]] == [["0", "1", "0"]]
    assert (sums["cs_sum"], sums["gsv_sum"], sums["bb_sum"]) == ("1", "1", "4")
    assert sums["cs_ok"] and sums["gsv_ok"] and sums["bb_ok"] and sums["ok"]


def test_cli_refuses_divisor_branches_that_are_never_adapted(tmp_form_file):
    """A branch through the origin that is neither invariant nor tagged
    dicritical would keep the reduction blowing up; it is a usage error."""
    for branch in ("u", "v"):
        path = tmp_form_file(CUSP2 + "divisor:{ %s }\n" % branch)
        for command in ("analyze2", "reduce2", "separatrices",
                        "second-type2"):
            t0 = time.perf_counter()
            assert cli.main([command, path]) == 1
            assert time.perf_counter() - t0 < 10
    # tagged dicritical, or missing the origin, the branch is accepted
    for block in ("divisor:{ dicritical(u) }", "divisor:{ u - 1 }"):
        path = tmp_form_file(CUSP2 + block + "\n")
        assert cli.main(["reduce2", path]) != 1


def test_cli_refuses_invariant_divisor_branches_tagged_dicritical(
        tmp_form_file, capsys):
    """An invariant branch tagged dicritical would keep every point on its
    strict transform unadapted; it is a usage error that names it."""
    sn = "omega2: (-v - u*v) du + u^2 dv\n"
    for form, branch in ((sn, "u"), (CUSP2, "v^2 - u^3")):
        path = tmp_form_file(form + "divisor:{ dicritical(%s) }\n" % branch)
        for command in ("analyze2", "reduce2", "separatrices",
                        "second-type2"):
            t0 = time.perf_counter()
            assert cli.main([command, path]) == 1
            assert time.perf_counter() - t0 < 10
            err = capsys.readouterr().err
            assert "divisor branch %s is invariant but tagged" % branch in err


def test_cli_model_match3_reports_the_weak_plane(tmp_form_file, tmp_path):
    """The trace (x - y) dx + (2 (x + y)^2 + x - y) dy is a saddle-node
    with weak direction (1, 1) and strong separatrix {y + x = 0}."""
    out = tmp_path / "m.json"
    text = "omega3: (x - y) dx + (2*(x + y)^2 + x - y) dy\n"
    assert cli.main(["model-match3", tmp_form_file(text),
                     "--out", str(out)]) == 0
    v = json.loads(out.read_text())["verdict3"]
    assert v["model"] == "b1"
    (plane,) = v["weak_planes"]
    assert plane.startswith("y - ") and " - x - " in plane
    assert "y + x" not in plane


def test_model_match3_decides_the_dimensional_type_on_6_jets(
        tmp_form_file, tmp_path):
    """The dimensional type is decided on 6-jets, with no order to set:
    this germ has type 3 and is model B2 with weak plane {z = 0}."""
    out = tmp_path / "b2.json"
    path = tmp_form_file("omega3: (y*z) dx + (2*x*z) dy"
                         " + ((-1 - 1*rt(2))*x^2*y^3) dz\n")
    assert cli.main(["model-match3", path, "--out", str(out)]) == 0
    v = json.loads(out.read_text())["verdict3"]
    assert (v["model"], v["tau"], v["weak_planes"]) == ("B2", 3, ["z"])


def test_model_match3_reads_the_b3_resonance_past_the_linear_part(
        tmp_form_file, tmp_path):
    """The residue series of this germ are not constant: its quotients
    b/a and c/a carry the resonant monomial xyz, so it is model B3 with
    residues (1, 1, 1 + 2 rt(2)), not model A, whose linear part it
    shares."""
    out = tmp_path / "b3.json"
    path = tmp_form_file("omega3: (y*z) dx + (x*z + x^2*y*z^2) dy"
                         " + (x*y + (1 + 2*rt(2))*x^2*y^2*z) dz\n")
    assert cli.main(["model-match3", path, "--out", str(out)]) == 0
    v = json.loads(out.read_text())["verdict3"]
    assert (v["model"], v["tau"], v["residues"], v["powers"]) == (
        "B3", 3, ["1", "1", "1 + (2)*rt(2)"], [1, 1, 1])


def test_model_match3_prints_an_invariant_weak_plane_exactly(
        tmp_form_file, tmp_path):
    """The weak separatrix of the trace (y - 2xy) dx + (3x^2 + 2x^3) dy is
    {y = 0}, and its jet is proved invariant: it is printed without
    O(...)."""
    out = tmp_path / "b1.json"
    path = tmp_form_file("omega3: (y - 2*x*y) dx + (3*x^2 + 2*x^3) dy\n")
    assert cli.main(["model-match3", path, "--out", str(out)]) == 0
    v = json.loads(out.read_text())["verdict3"]
    assert (v["model"], v["weak_planes"]) == ("b1", ["y"])


@pytest.mark.parametrize("text", ["omega3: dx\n",
                                  "omega3: (1 + x) dx + y dy\n"])
def test_model_match3_reads_a_regular_germ(tmp_form_file, tmp_path, text):
    """A regular germ is valid input: model Regular, tau 1, exit 0."""
    out = tmp_path / "r.json"
    assert cli.main(["model-match3", tmp_form_file(text),
                     "--out", str(out)]) == 0
    v = json.loads(out.read_text())["verdict3"]
    assert (v["model"], v["tau"], v["weak_planes"]) == ("Regular", 1, [])


def test_model_match3_refuses_a_divisor_not_adapted_to_the_point(
        tmp_form_file, capsys):
    """Two divisor branches cannot meet at a regular point of the
    foliation: the declared data contradict the germ, exit 1."""
    path = tmp_form_file("omega3: dx\ndivisor:{ x, y }\n")
    assert cli.main(["model-match3", path]) == 1
    err = capsys.readouterr().err
    assert "divisor is not adapted to the point" in err
    assert err.startswith("foliation-lab: ") and err.count("\n") == 1


def test_model_match3_reads_a_cylinder_axis_the_form_does_not_involve(
        tmp_form_file, tmp_path):
    """All coefficients have order 7, so the 6-jet solve leaves the
    direction free; the form does not involve z, which is the axis.  The
    trace on the (x, y) plane has a zero linear part: NotSimple, tau 2."""
    out = tmp_path / "c.json"
    path = tmp_form_file("omega3: x^7 dx + y^7 dy\n")
    assert cli.main(["model-match3", path, "--out", str(out)]) == 0
    v = json.loads(out.read_text())["verdict3"]
    assert (v["model"], v["tau"]) == ("NotSimple", 2)


def test_model_match3_vacuous_six_jets_are_inconclusive(tmp_form_file,
                                                       tmp_path):
    """x^7 dx + y^7 dy + z^7 dz involves every coordinate and has all
    coefficients of order 7: its 6-jets are zero and fix no cylinder
    direction (the germ has tau 3), so the run exits 2 and reports no
    model."""
    out = tmp_path / "v.json"
    path = tmp_form_file("omega3: x^7 dx + y^7 dy + z^7 dz\n")
    assert cli.main(["model-match3", path, "--out", str(out)]) == 2
    assert json.loads(out.read_text())["diagnostics"] == [
        "6-jets do not fix the cylinder direction of this germ"]


def test_model_match3_regular_trace_is_inconclusive(tmp_form_file, tmp_path):
    """The exact form d(x^8/8 + y^8/8 + x^7 z) has all coefficients of
    order 7, so its 6-jets fix no cylinder direction; the trace on x = 0
    is regular, which no cylinder's is: exit 2, not a traceback."""
    out = tmp_path / "r.json"
    path = tmp_form_file("omega3: (x^7 + 7*x^6*z) dx + y^7 dy + x^7 dz\n")
    assert cli.main(["model-match3", path, "--out", str(out)]) == 2
    assert json.loads(out.read_text())["diagnostics"] == [
        "6-jets do not fix the cylinder direction of this germ"]
