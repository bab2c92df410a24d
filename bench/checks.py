"""Correctness checks of CLI reports against ground truth.

The checks compare a report with what is known about its input: frozen
oracles for the plane corpus, answers known by construction (model family,
section verdict, harness verdict, dicritical lowest part, simple or
saddle-node linear part), and theorems (the multiplicity identity holds
exactly on second-type germs; the Camacho-Sad, GSV and Baum-Bott sums hold
for every invariant curve).  They never compare bytes with a frozen report,
so a deliberate change of report layout or wording does not fail them.
"""

from __future__ import annotations

_ALLOWED_LEAVES = {"Regular", "SimpleNonDegenerate", "SaddleNode"}

# report keys every exit-0 report of a command carries
_REQUIRED = {
    "analyze2": ("reduction", "second_type", "dicritical"),
    "reduce2": ("reduction", "dicritical"),
    "second-type2": ("reduction", "second_type"),
    "separatrices": ("separatrices", "identity_check"),
    "model-match3": ("verdict3",),
    "second-type3": ("verdict3",),
    "theorem-main": ("verdict3",),
    "indices": ("indices",),
    "log-criterion": ("indices",),
}


def _same(problems, what, got, want):
    if got != want:
        problems.append("%s: got %r, expected %r" % (what, got, want))


def _plane(exp, rep, problems):
    red = rep.get("reduction")
    if red is not None:
        for leaf in red["leaves"]:
            if leaf["kind"] not in _ALLOWED_LEAVES:
                problems.append("final point of kind %s" % leaf["kind"])
        if "blowups" in exp:
            _same(problems, "blowups", red["blowups"], exp["blowups"])
        if "leaves" in exp:
            _same(problems, "leaves", len(red["leaves"]), exp["leaves"])
    for key in ("dicritical", "generalized_curve"):
        if key in exp and key in rep:
            _same(problems, key, rep[key], exp[key])
    st = rep.get("second_type")
    if "second_type" in exp and st is not None:
        _same(problems, "second type", st["verdict"], exp["second_type"])
    ident = rep.get("identity_check")
    if "identity_equal" in exp and ident is not None:
        _same(problems, "identity", ident["equal"], exp["identity_equal"])
    if "identity" in exp:
        want = exp["identity"]
        got = (None if ident is None else
               (ident["nu_form"], ident["nu_dg"], ident["equal"]))
        _same(problems, "identity check", got, want)
    # nu(omega) = nu(dg) holds exactly when the germ is of second type
    if (ident is not None and st is not None and not rep.get("dicritical")
            and ident["equal"] != st["verdict"]):
        problems.append("identity_check.equal %s contradicts second type %s"
                        % (ident["equal"], st["verdict"]))


def _sums(problems, sums, want):
    for key in ("cs_ok", "gsv_ok", "bb_ok"):
        _same(problems, key, sums[key], want)


def problems_of(command, expect, code, report):
    """Contradictions between a report and the known answer, as text."""
    if report is None:
        return ["no report written"]
    problems = []
    if code == 0:
        for key in _REQUIRED[command]:
            if key not in report:
                problems.append("exit 0 without %r" % key)
        if problems:
            return problems
    exp = dict(expect.get("oracle", {}), **expect)
    _plane(exp, report, problems)
    v3 = report.get("verdict3")
    if v3 is not None:
        if "model" in exp:
            _same(problems, "model", v3["model"], exp["model"])
        if "section_verdict" in exp and v3["kind"] != "Inconclusive":
            _same(problems, "section verdict", v3["kind"],
                  exp["section_verdict"])
        if "harness_ok" in exp:
            _same(problems, "harness", v3["ok"], exp["harness_ok"])
    ind = report.get("indices")
    if ind is not None:
        if "sums_ok" in exp:
            _sums(problems, ind.get("sums", ind), exp["sums_ok"])
        for key in ("logarithmic", "slack"):
            if key in exp:
                _same(problems, key, ind[key], exp[key])
    return problems


def status_of(command, expect, code, report):
    """(status, problems): status is ok, inconclusive or failed.  A crash,
    exit 1 on valid input, or any contradiction is a failure."""
    if code not in (0, 2):
        return "failed", ["exit %r on valid input" % (code,)]
    problems = problems_of(command, expect, code, report)
    if problems:
        return "failed", problems
    return ("ok" if code == 0 else "inconclusive"), []


def planted(expect):
    """A copy of `expect` with one known answer deliberately wrong, for the
    negative control; None when nothing definite is expected."""
    if "oracle" in expect:
        oracle = dict(expect["oracle"])
        oracle["second_type"] = not oracle["second_type"]
        return dict(expect, oracle=oracle)
    for key in sorted(expect):
        value = expect[key]
        if isinstance(value, bool):
            return dict(expect, **{key: not value})
        if isinstance(value, int):
            return dict(expect, **{key: value + 1})
        if isinstance(value, str):
            return dict(expect, **{key: value + "-planted"})
    return None
