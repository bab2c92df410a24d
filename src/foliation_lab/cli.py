"""Command-line surface: parse input files, run analyses, emit JSON/DOT.

Commands operate on one form per input file and produce deterministic
JSON reports (and DOT dual graphs for the reduction-bearing commands).
Exit code 0 signals success with a verdict, 1 a usage or input error,
and 2 a mathematically inconclusive run.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .fields import FieldError, Inconclusive
from .forms import invariant_hypersurface, mu0, normalize2, nu0
from .indices import logarithmic_criterion, sum_theorem_check
from .parser import parse_form
from .poly import MPoly, OrderIndeterminate
from .reduce2d import dual_graph, seidenberg_reduce
from .separatrix import (DicriticalInputError, multiplicity_identity_check,
                         separatrices2)
from .threefold import (match_simple_model3, second_type3_via_sections,
                        theorem_main_harness)

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_INCONCLUSIVE = 2

_FORM_KINDS = {
    "analyze2": "omega2",
    "reduce2": "omega2",
    "separatrices": "omega2",
    "second-type2": "omega2",
    "second-type3": "omega3",
    "model-match3": "omega3",
    "theorem-main": "omega3",
    "indices": "proj2",
    "log-criterion": "proj3",
}

_TREE_COMMANDS = ("analyze2", "reduce2", "separatrices", "second-type2")


class UsageError(ValueError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Argument errors are usage errors: exit 1, not argparse's 2."""

    def error(self, message):
        raise UsageError(message)


def _render(value):
    """JSON-safe rendering of exact values, recursively."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, MPoly):
        return value.render()
    if hasattr(value, "render"):
        return value.render()
    if isinstance(value, (list, tuple)):
        return [_render(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _render(v) for k, v in value.items()}
    return str(value)


def _chart_step(step):
    """One reduction-path step (chart label plus translation) as text."""
    if isinstance(step, str):
        return step
    label, shift = step
    if shift.is_zero():
        return label
    return "%s@%s" % (label, shift.render())


def _leaf_dict(rec):
    return {
        "path": [_chart_step(s) for s in rec.path],
        "kind": rec.code.kind,
        "well_oriented": rec.well_oriented,
    }


def _reduction_dict(tree, dot_ref):
    out = {
        "blowups": tree.blowup_count,
        "leaves": [_leaf_dict(r) for r in tree.leaves],
    }
    if dot_ref is not None:
        out["dual_graph_ref"] = dot_ref
    return out


def _dot_text(tree) -> str:
    graph = dual_graph(tree)
    lines = ["graph dual_graph {"]
    for cid in sorted(graph["vertices"]):
        v = graph["vertices"][cid]
        shape = "doublecircle" if v["dicritical"] else "circle"
        lines.append('  "%s" [label="%s (%d)", shape=%s];'
                     % (cid, cid, v["self_intersection"], shape))
    for a, b in graph["edges"]:
        lines.append('  "%s" -- "%s";' % (a, b))
    for k, (cid, kind, well) in enumerate(graph["half_edges"]):
        lines.append('  "s%d" [label="%s%s", shape=box];'
                     % (k, kind, "" if well else " (tangent)"))
        lines.append('  "%s" -- "s%d";' % (cid, k))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _second_type_dict(tree):
    witnesses = tree.tangent_witnesses()
    return {
        "verdict": not witnesses,
        "witnesses": [_leaf_dict(r) for r in witnesses],
    }


def _separatrix_list(seps):
    return [{"jet": br.implicit.render(), "tags": list(br.tags())}
            for br in seps]


def _identity_dict(rep):
    return {"nu_form": rep.nu_form, "nu_dg": rep.nu_dg, "equal": rep.equal}


def _separatrices_and_identity(parsed, tree, opts):
    """Separatrix set of `tree` and the multiplicity identity report.

    Without divisor branches `tree` is the reduction the identity needs,
    so the form is reduced, saturated and its branches collected only
    once: `tree.form` is the normalized root.
    """
    if parsed.divisor is None or not parsed.divisor.branches:
        rep = multiplicity_identity_check(tree.form, opts.truncation,
                                          opts.max_depth, tree=tree)
        return rep.seps, rep
    seps = separatrices2(parsed.form.coerce_to(tree.desc), tree,
                         opts.truncation)
    return seps, multiplicity_identity_check(parsed.form, opts.truncation,
                                             opts.max_depth)


def _product(polys):
    out = polys[0]
    for p in polys[1:]:
        out = out * p
    return out


# ---------------------------------------------------------------------------
# command handlers: fill the report dict, return an exit code


def _cmd_reduce2(parsed, report, opts, dot_ref):
    tree = seidenberg_reduce(parsed.form, parsed.divisor, opts.max_depth)
    report["nu0"] = nu0(tree.form)
    report["dicritical"] = tree.has_dicritical()
    report["reduction"] = _reduction_dict(tree, dot_ref)
    report["_tree"] = tree
    return _EXIT_OK


def _cmd_analyze2(parsed, report, opts, dot_ref):
    tree = seidenberg_reduce(parsed.form, parsed.divisor, opts.max_depth)
    report["nu0"] = nu0(tree.form)
    try:
        report["mu0"] = mu0(tree.form)
    except (ValueError, OrderIndeterminate) as exc:
        report["diagnostics"].append("mu0: %s" % exc)
    report["dicritical"] = tree.has_dicritical()
    report["reduction"] = _reduction_dict(tree, dot_ref)
    report["second_type"] = _second_type_dict(tree)
    report["generalized_curve"] = not tree.saddle_nodes()
    try:
        seps, rep = _separatrices_and_identity(parsed, tree, opts)
        report["separatrices"] = _separatrix_list(seps)
        report["identity_check"] = _identity_dict(rep)
    except DicriticalInputError as exc:
        report["diagnostics"].append(str(exc))
    report["_tree"] = tree
    return _EXIT_OK


def _cmd_separatrices(parsed, report, opts, dot_ref):
    tree = seidenberg_reduce(parsed.form, parsed.divisor, opts.max_depth)
    report["nu0"] = nu0(tree.form)
    report["dicritical"] = tree.has_dicritical()
    seps, rep = _separatrices_and_identity(parsed, tree, opts)
    report["separatrices"] = _separatrix_list(seps)
    report["identity_check"] = _identity_dict(rep)
    if dot_ref is not None:
        report["reduction"] = _reduction_dict(tree, dot_ref)
    report["_tree"] = tree
    return _EXIT_OK


def _cmd_second_type2(parsed, report, opts, dot_ref):
    tree = seidenberg_reduce(parsed.form, parsed.divisor, opts.max_depth)
    report["nu0"] = nu0(tree.form)
    report["dicritical"] = tree.has_dicritical()
    report["reduction"] = _reduction_dict(tree, dot_ref)
    report["second_type"] = _second_type_dict(tree)
    report["_tree"] = tree
    return _EXIT_OK


def _witness3(w):
    where, detail, leaves = w
    out = {"where": where, "detail": _render(detail)}
    out["leaves"] = [_leaf_dict(r) for r in leaves]
    return out


def _cmd_second_type3(parsed, report, opts, dot_ref):
    verdict = second_type3_via_sections(
        parsed.form, trials=opts.trials, seed=opts.seed,
        jet_order=opts.jet_order, max_depth=opts.max_depth)
    report["second_type"] = {
        "verdict": (None if verdict.kind == "Inconclusive"
                    else verdict.kind == "SecondType"),
        "witnesses": [_witness3(w) for w in verdict.witnesses],
    }
    report["verdict3"] = {
        "kind": verdict.kind,
        "evidence": [_render(e) for e in verdict.evidence],
    }
    report["diagnostics"].extend(verdict.notes)
    return (_EXIT_INCONCLUSIVE if verdict.kind == "Inconclusive"
            else _EXIT_OK)


def _cmd_model_match3(parsed, report, opts, dot_ref):
    match = match_simple_model3(parsed.form, parsed.divisor, opts.jet_order)
    report["verdict3"] = {
        "model": match.code,
        "tau": match.tau,
        "residues": [_render(r) for r in match.residues],
        "powers": list(match.powers),
        "weak_planes": [_render(w) for w in match.weak_planes],
    }
    return _EXIT_OK


def _cmd_theorem_main(parsed, report, opts, dot_ref):
    if not parsed.separatrices:
        raise UsageError("theorem-main needs a separatrix:{...} block "
                         "declaring the invariant surfaces")
    rep = theorem_main_harness(parsed.form, parsed.separatrices,
                               parsed.script or [], opts.jet_order)
    report["verdict3"] = {
        "ok": rep.ok,
        "records": [{
            "path": list(r.path),
            "where": r.where,
            "result": _render(r.result),
            "simple": r.simple,
            "well_oriented": r.well_oriented,
        } for r in rep.records],
    }
    report["diagnostics"].extend(str(d) for d in rep.diagnostics)
    return _EXIT_OK


def _point_entry(entry):
    out = {"point": [_render(c) for c in entry["point"]],
           "bb": _render(entry["bb"])}
    if "cs" in entry:
        out["cs"] = _render(entry["cs"])
        out["gsv"] = _render(entry["gsv"])
    return out


def _sums_dict(rep):
    return {
        "degree": rep.degree,
        "curve_degree": rep.curve_degree,
        "cs_sum": _render(rep.cs_sum),
        "cs_ok": rep.cs_ok,
        "gsv_sum": _render(rep.gsv_sum),
        "gsv_ok": rep.gsv_ok,
        "bb_sum": _render(rep.bb_sum),
        "bb_ok": rep.bb_ok,
        "points": [_point_entry(e) for e in rep.points],
    }


def _cmd_indices(parsed, report, opts, dot_ref):
    if not parsed.separatrices:
        raise UsageError("indices needs a separatrix:{...} block declaring "
                         "the invariant curve factors")
    C = _product(parsed.separatrices)
    rep = sum_theorem_check(parsed.form, C, opts.truncation)
    report["indices"] = _sums_dict(rep)
    report["indices"]["ok"] = rep.ok
    return _EXIT_OK


def _cmd_log_criterion(parsed, report, opts, dot_ref):
    if not parsed.separatrices:
        raise UsageError("log-criterion needs a separatrix:{...} block "
                         "declaring the invariant surface factors")
    S = _product(parsed.separatrices)
    rep = logarithmic_criterion(parsed.form, S, parsed.section or (1, 1, 1),
                                N=opts.truncation)
    report["indices"] = {
        "logarithmic": rep.logarithmic,
        "degree": rep.degree,
        "curve_degree": rep.curve_degree,
        "slack": rep.slack,
        "sums": _sums_dict(rep.sums),
    }
    report["verdict3"] = {"logarithmic": rep.logarithmic,
                         "slack": rep.slack}
    return _EXIT_OK


_HANDLERS = {
    "analyze2": _cmd_analyze2,
    "reduce2": _cmd_reduce2,
    "separatrices": _cmd_separatrices,
    "second-type2": _cmd_second_type2,
    "second-type3": _cmd_second_type3,
    "model-match3": _cmd_model_match3,
    "theorem-main": _cmd_theorem_main,
    "indices": _cmd_indices,
    "log-criterion": _cmd_log_criterion,
}


# ---------------------------------------------------------------------------
# driver


@functools.cache
def _build_argparser():
    """The argument parser, built on the first call and reused: parsing
    leaves it unchanged."""
    ap = _ArgumentParser(
        prog="foliation-lab",
        description="Exact local analysis of singular holomorphic "
                    "foliations given by 1-forms.")
    ap.add_argument("command", choices=sorted(_HANDLERS))
    ap.add_argument("inputs", nargs="+", help="input files (one form each)")
    ap.add_argument("--jet-order", type=int, default=8)
    ap.add_argument("--max-depth", type=int, default=64)
    ap.add_argument("--trials", type=int, default=8)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--truncation", type=int, default=12, metavar="N")
    ap.add_argument("--out", default=None,
                    help="report file (directory when several inputs)")
    ap.add_argument("--dot", default=None,
                    help="DOT dual-graph file (directory when several "
                         "inputs)")
    return ap


def _target_path(base, path, suffix):
    if base is None:
        return None
    if os.path.isdir(base):
        stem = os.path.splitext(os.path.basename(path))[0]
        return os.path.join(base, stem + suffix)
    return base


def _validate(opts):
    if opts.jet_order < 1 or opts.max_depth < 1 or opts.truncation < 1:
        raise UsageError("options must be positive")
    if opts.trials < 0:
        raise UsageError("options must be positive")
    if opts.command in ("analyze2", "separatrices") and opts.truncation < 2:
        raise UsageError("separatrix jets need --truncation N >= 2")
    if opts.command == "second-type3" and opts.seed is None:
        raise UsageError("second-type3 samples sections: --seed is "
                         "mandatory for reproducibility")
    if len(opts.inputs) > 1:
        for base in (opts.out, opts.dot):
            if base is not None and not os.path.isdir(base):
                raise UsageError("with several inputs, --out/--dot must "
                                 "name directories")


def _check_divisor(form, divisor):
    """Refuse a branch through the origin of the saturated `form` that is
    invariant exactly when tagged dicritical: no blow-up ever adapts the
    divisor to such a branch."""
    for b in divisor:
        if not b.equation.constant_coefficient().is_zero():
            continue
        if bool(invariant_hypersurface(form.coeffs(), form.vars,
                                       b.equation)) == b.dicritical:
            raise UsageError("divisor branch %s is %s" % (
                b.equation.render(),
                "invariant but tagged dicritical(...)" if b.dicritical
                else "neither invariant nor tagged dicritical(...)"))


def _run_one(opts, path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(str(exc))
    report = {"input": os.path.basename(path), "field": None,
              "diagnostics": []}
    dot_path = (_target_path(opts.dot, path, ".dot")
                if opts.command in _TREE_COMMANDS else None)
    try:
        # a coefficient field that cannot be decided leaves "field" null
        parsed = parse_form(text)
        expected = _FORM_KINDS[opts.command]
        if parsed.kind != expected:
            raise UsageError("command %s expects a %s: input, got %s:"
                             % (opts.command, expected, parsed.kind))
        report["field"] = parsed.desc.describe()
        if parsed.kind == "omega2" and parsed.divisor is not None:
            # saturate the root once: every later normalize2 sees the flag
            parsed.form = normalize2(parsed.form)
            _check_divisor(parsed.form, parsed.divisor)
        code = _HANDLERS[opts.command](parsed, report, opts, dot_path)
    except Inconclusive as exc:
        report["diagnostics"].append(str(exc))
        code = _EXIT_INCONCLUSIVE
    tree = report.pop("_tree", None)
    if dot_path is not None and tree is not None:
        _write_text(dot_path, _dot_text(tree))
    _write_report(opts, path, report)
    return code


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(str(exc))


def _write_report(opts, path, report):
    # diagnostics close the report
    report["diagnostics"] = report.pop("diagnostics")
    text_out = json.dumps(report, indent=2) + "\n"
    out_path = _target_path(opts.out, path, ".json")
    if out_path is None:
        sys.stdout.write(text_out)
    else:
        _write_text(out_path, text_out)


def main(argv=None) -> int:
    try:
        opts = _build_argparser().parse_args(argv)
        _validate(opts)
    except UsageError as exc:
        print("foliation-lab: %s" % exc, file=sys.stderr)
        return _EXIT_USAGE
    code = _EXIT_OK
    for path in sorted(opts.inputs, key=os.path.basename):
        try:
            code = max(code, _run_one(opts, path))
        except (FieldError, ValueError) as exc:
            print("foliation-lab: %s: %s" % (path, exc), file=sys.stderr)
            return _EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
