"""The parser against a frozen copy of its earlier version
(frozen_parser.py): every input parses to the same rendered result, or
fails with the same exception type and text."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from foliation_lab.parser import parse_form

import frozen_parser

_HEADERS = ["omega2:", "omega3:", "proj2:", "proj3:", "omega2", ""]

# single tokens and short phrases of the input language, valid or not
_FRAGMENTS = [
    "u", "v", "x", "y", "z", "X", "Y", "Z", "W", "s", "q",
    "du", "dv", "dx", "dy", "dz", "dX", "dY", "dZ", "dW",
    "0", "1", "2", "3",
    "+", "-", "*", "/", "^", "(", ")", "{", "}", "[", "]", ",", ".",
    ":", ";", "?", "\n", "# note\n",
    "divisor:", "separatrix:", "script:", "section:", "omega3:",
    "dicritical(", "dicritical", "point", "axis", "axis-z", "axis-x",
    "ax", "az", "ax.ay:", "i", "rt(2)", "rt(-3)", "rt(4)", "rt", "param(s)",
    "u * du", "+ v dv", "- 2 * u^2 du", "u / 2 du", "x*y dz", "- z^2 dx",
    "Y dX - X dY", "(u + v) du", "u * v * dv",
    "divisor:{ u }", "divisor:{ dicritical(u), v }", "separatrix:{ x, y }",
    "script:[ point, ax:axis-z ]", "script:[]", "section:(1, 2, 3)",
    "section:(1, 2)",
]

# well-formed pieces per header: form terms, then blocks
_VALID = {
    "omega2:": (["u du", "- v * dv", "+ u^2 * v / 3 du", "+ (u - v) dv",
                 "+ rt(2) * u dv", "+ i*v du"],
                ["divisor:{ u }", "divisor:{ dicritical(v), u - v^2 }",
                 "separatrix:{ u, v - u^2 }", "script:[ point ]",
                 "section:(0, 1, 2)"]),
    "omega3:": (["y*z dx", "+ x*z * dy", "- 2 * x*y dz", "+ x^2 dz",
                 "+ param(s) * z dx"],
                ["separatrix:{ x, y*z }", "script:[ point, ax:axis-z ]",
                 "script:[ ax.ay:point, axis-x ]", "divisor:{ x, y }",
                 "section:(1, -1, 1/2)"]),
    "proj2:": (["Y dX", "- X dY", "+ Z*X dZ"],
               ["section:(1, rt(4), -2/3)", "divisor:{ X }"]),
}

_FIXED = [
    "omega2: u du\ndivisor:{ u * du }",
    "omega2: u * v * dv",
    "omega2: u / 2 du",
    "omega2: u v du",
    "omega3: x dx\nscript:[]",
    "proj2: Y dX - X dY\nsection:(1, 2)",
    "omega2: u * du + v * dv\ndivisor:{ dicritical(u - v), v }",
    "omega3: y*z dx + x*z dy + x*y dz\nseparatrix:{ x, y, z }\n"
    "script:[ point, ax:axis-z ]",
    "proj2: Y dX - X dY\nsection:(1, rt(4), -2/3)",
]


def _render(parsed):
    form = parsed.form
    coeffs = form.coeffs if isinstance(form.coeffs, tuple) else form.coeffs()
    out = [parsed.kind, parsed.desc.describe(), tuple(form.vars),
           [(p.render(), p.prec) for p in coeffs]]
    if parsed.divisor is not None:
        out.append([(b.equation.render(), b.dicritical)
                    for b in parsed.divisor])
    else:
        out.append(None)
    out.append(None if parsed.separatrices is None
               else [p.render() for p in parsed.separatrices])
    out.append(parsed.script)
    out.append(None if parsed.section is None
               else [c.render() for c in parsed.section])
    return out


def _outcome(parse, text):
    try:
        return ("parsed", _render(parse(text)))
    except Exception as exc:  # compared by type name and text
        return ("raised", type(exc).__name__, str(exc))


def _same(text):
    assert _outcome(parse_form, text) == _outcome(frozen_parser.parse_form,
                                                  text), text


@pytest.mark.parametrize("text", _FIXED)
def test_parser_matches_frozen_copy_on_fixed_inputs(text):
    _same(text)


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(_HEADERS),
       st.lists(st.sampled_from(_FRAGMENTS), max_size=16))
def test_parser_matches_frozen_copy_on_token_streams(header, fragments):
    _same(" ".join([header] + fragments))


@st.composite
def _near_valid(draw):
    """A well-formed input with up to two tokens inserted, replaced or
    deleted."""
    header = draw(st.sampled_from(sorted(_VALID)))
    terms, blocks = _VALID[header]
    words = []
    for piece in (draw(st.lists(st.sampled_from(terms), min_size=1,
                                max_size=3))
                  + draw(st.lists(st.sampled_from(blocks), max_size=3))):
        words += piece.split()
    words = [header] + words[words[0] == "+":]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(words)))
        how = draw(st.sampled_from(["insert", "replace", "delete"]))
        if how == "insert":
            words.insert(k, draw(st.sampled_from(_FRAGMENTS)))
        elif k < len(words):
            if how == "replace":
                words[k] = draw(st.sampled_from(_FRAGMENTS))
            else:
                del words[k]
    return " ".join(words)


@settings(max_examples=600, deadline=None)
@given(_near_valid())
def test_parser_matches_frozen_copy_near_valid_inputs(text):
    _same(text)
