"""Text format for 1-forms and their declared auxiliary data.

One form per file, introduced by ``omega2:``, ``omega3:``, ``proj2:`` or
``proj3:``.  Coefficients are exact expressions over the rationals,
optionally extended by ``i``, ``rt(m)`` (an adjoined square root) or
``param(s)`` (a transcendental parameter).  Optional blocks declare extra
data: ``divisor:{...}``, ``separatrix:{...}``, ``script:[...]`` and
``section:(a, b, c)``.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import (FieldDescriptor, FieldElement, FieldExtensionError,
                     _squarefree_part)
from .forms import DivisorBranch, LocalDivisor, OneForm2, OneForm3
from .indices import ProjFoliation
from .poly import MPoly


class InputSyntaxError(ValueError):
    """Malformed input text, with the offending line and column."""

    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


_SYMBOLS = "+-*/^(){}[]:,.;"

_HEADS = ("omega2", "omega3", "proj2", "proj3", "divisor", "separatrix",
          "script", "section")

# block head -> (opening, closing) bracket
_BLOCKS = {"divisor": "{}", "separatrix": "{}", "script": "[]",
           "section": "()"}

_OPENING = {"{": "an opening brace", "[": "an opening bracket",
            "(": "an opening parenthesis"}

_KINDS = {
    "omega2": (("u", "v"), ("du", "dv")),
    "omega3": (("x", "y", "z"), ("dx", "dy", "dz")),
    "proj2": (("X", "Y", "Z"), ("dX", "dY", "dZ")),
    "proj3": (("X", "Y", "Z", "W"), ("dX", "dY", "dZ", "dW")),
}


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str):
    out = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("number", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            out.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise InputSyntaxError("unexpected character %r" % ch, line, col)
    out.append(_Token("end", "", line, col))
    return out


def _infer_descriptor(tokens) -> FieldDescriptor:
    """Scan for rt(m), i and param(s) and build the coefficient tower."""
    extensions = []
    parameter = None
    for k, tok in enumerate(tokens):
        if tok.kind != "ident":
            continue
        if tok.text == "i":
            extensions.append((-1, tok))
        elif tok.text in ("rt", "param"):
            if (k + 2 >= len(tokens) or tokens[k + 1].kind != "("):
                raise InputSyntaxError("%s needs a parenthesized argument"
                                       % tok.text, tok.line, tok.col)
            arg = tokens[k + 2]
            if tok.text == "param":
                if arg.kind != "ident":
                    raise InputSyntaxError("param needs a symbol name",
                                           arg.line, arg.col)
                if parameter is not None and parameter != arg.text:
                    raise InputSyntaxError("only one parameter is supported",
                                           arg.line, arg.col)
                parameter = arg.text
            else:
                neg = False
                if arg.kind == "-":
                    neg = True
                    arg = tokens[k + 3]
                if arg.kind != "number":
                    raise InputSyntaxError("rt needs an integer argument",
                                           arg.line, arg.col)
                m = -int(arg.text) if neg else int(arg.text)
                if m == 0:
                    continue
                s, _ = _squarefree_part(m)
                if s != 1:
                    extensions.append((s, tok))
    desc = FieldDescriptor(parameter=parameter)
    for s, tok in extensions:
        try:
            desc = desc.widened(s)
        except FieldExtensionError as exc:
            raise InputSyntaxError(str(exc), tok.line, tok.col)
    return desc


class ParsedInput:
    """One parsed input file: the form plus any declared blocks."""

    __slots__ = ("kind", "form", "divisor", "separatrices", "script",
                 "section", "desc")

    def __init__(self, kind, form, divisor, separatrices, script, section,
                 desc):
        self.kind = kind
        self.form = form
        self.divisor = divisor
        self.separatrices = separatrices
        self.script = script
        self.section = section
        self.desc = desc


class _Parser:
    def __init__(self, tokens, desc):
        self.toks = tokens
        self.pos = 0
        self.desc = desc
        self.vars = None
        self.diffs = None

    # -- token plumbing ----------------------------------------------------

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.next()
        if tok.kind != kind:
            raise InputSyntaxError("expected %s" % (what or kind),
                                   tok.line, tok.col)
        return tok

    def fail(self, message):
        tok = self.peek()
        raise InputSyntaxError(message, tok.line, tok.col)

    def at_head(self) -> bool:
        tok = self.peek()
        return (tok.kind == "ident" and tok.text in _HEADS
                and self.toks[self.pos + 1].kind == ":")

    # -- expressions -------------------------------------------------------

    def const(self, c) -> MPoly:
        return MPoly.constant(self.vars, c, self.desc)

    def parse_expr(self) -> MPoly:
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            acc = -self.parse_term()
        else:
            acc = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "+":
                self.next()
                acc = acc + self.parse_term()
            elif tok.kind == "-":
                self.next()
                acc = acc - self.parse_term()
            else:
                return acc

    def parse_term(self, stops=()) -> MPoly:
        """Factors joined by * and /; stops before `* d` for a
        differential d in `stops`, which then closes a form term."""
        acc = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "*" and self.toks[self.pos + 1].text not in stops:
                self.next()
                acc = acc * self.parse_factor()
            elif tok.kind == "/":
                self.next()
                den = self.parse_factor()
                c = den.constant_coefficient()
                if den.degree() > 0 or c.is_zero():
                    raise InputSyntaxError(
                        "division is only supported by nonzero constants",
                        tok.line, tok.col)
                acc = acc.scale(c.inverse())
            else:
                return acc

    def parse_factor(self) -> MPoly:
        acc = self.parse_primary()
        while self.peek().kind == "^":
            self.next()
            exp = self.expect("number", "an integer exponent")
            acc = acc ** int(exp.text)
        return acc

    def parse_primary(self) -> MPoly:
        tok = self.next()
        if tok.kind == "number":
            return self.const(Fraction(int(tok.text)))
        if tok.kind == "(":
            inner = self.parse_expr()
            self.expect(")", "a closing parenthesis")
            return inner
        if tok.kind == "-":
            return -self.parse_primary()
        if tok.kind == "ident":
            name = tok.text
            if name in self.vars:
                return MPoly.variable(self.vars, name, self.desc)
            if name == "i":
                return self.const(self.desc.sqrt_gen())
            if name == "rt":
                self.expect("(")
                neg = False
                if self.peek().kind == "-":
                    self.next()
                    neg = True
                arg = self.expect("number", "an integer")
                self.expect(")", "a closing parenthesis")
                m = -int(arg.text) if neg else int(arg.text)
                return self.const(self._root_value(m, tok))
            if name == "param":
                self.expect("(")
                self.expect("ident", "a parameter name")
                self.expect(")", "a closing parenthesis")
                return self.const(self.desc.param_gen())
            raise InputSyntaxError("unknown symbol %r" % name,
                                   tok.line, tok.col)
        raise InputSyntaxError("expected a value", tok.line, tok.col)

    def _root_value(self, m: int, tok) -> FieldElement:
        if m == 0:
            return self.desc.zero()
        s, k = _squarefree_part(m)
        scale = self.desc.rational(k)
        if s == 1:
            return scale
        if self.desc.quadratic_extension != s:
            raise InputSyntaxError("rt(%d) does not live in this tower" % m,
                                   tok.line, tok.col)
        return self.desc.sqrt_gen() * scale

    # -- form body ---------------------------------------------------------

    def parse_form_body(self):
        """Sum of terms, each carrying exactly one differential."""
        coeffs = [MPoly.zero(self.vars, self.desc)
                  for _ in range(len(self.vars))]
        sign = 1
        first = True
        while True:
            tok = self.peek()
            if not first:
                if tok.kind == "end" or self.at_head():
                    return coeffs
                if tok.kind == "+":
                    sign = 1
                elif tok.kind == "-":
                    sign = -1
                else:
                    self.fail("expected + or - between form terms")
                self.next()
            else:
                if tok.kind == "-":
                    sign = -1
                    self.next()
                first = False
            coeff, slot = self.parse_form_term()
            if sign < 0:
                coeff = -coeff
            coeffs[slot] = coeffs[slot] + coeff

    def parse_form_term(self):
        """`[coefficient [*]] d` with d one of the form's differentials."""
        if self.peek().text in self.diffs:
            coeff = self.const(1)
        else:
            coeff = self.parse_term(self.diffs)
            if self.peek().kind == "*":
                self.next()
        tok = self.next()
        if tok.text not in self.diffs:
            raise InputSyntaxError("expected a differential to close the term",
                                   tok.line, tok.col)
        return coeff, self.diffs[tok.text]

    # -- auxiliary blocks --------------------------------------------------

    def parse_list(self, block, item):
        """The items of a block between its brackets, separated by commas;
        only a script may be empty, and a section has 3 entries."""
        opening, closing = _BLOCKS[block]
        self.expect(opening, _OPENING[opening])
        items = []
        if block == "script" and self.peek().kind == closing:
            self.next()
            return items
        while True:
            items.append(item())
            tok = self.next()
            if tok.kind == closing:
                if block == "section" and len(items) != 3:
                    raise InputSyntaxError("a section needs 3 entries",
                                           tok.line, tok.col)
                return items
            if tok.kind != ",":
                raise InputSyntaxError("expected , or %s in %s block"
                                       % (closing, block), tok.line, tok.col)

    def parse_branch(self) -> DivisorBranch:
        """A divisor branch: `eq` or `dicritical(eq)`."""
        if self.peek().text != "dicritical":
            return DivisorBranch(self.parse_expr())
        self.next()
        self.expect("(")
        eq = self.parse_expr()
        self.expect(")", "a closing parenthesis")
        return DivisorBranch(eq, True)

    def parse_script_item(self):
        """`[label(.label)*:]center` with center `point` or `axis-<var>`."""
        labels = []
        tok = self.expect("ident", "a chart label or blow-up center")
        while self.peek().kind == ".":
            labels.append(tok.text)
            self.next()
            tok = self.expect("ident", "a chart label")
        if self.peek().kind == ":":
            labels.append(tok.text)
            self.next()
            tok = self.expect("ident", "a blow-up center")
        center = tok.text
        if center == "axis" and self.peek().kind == "-":
            self.next()
            var = self.expect("ident", "an axis variable")
            center = "axis-" + var.text
        if center != "point" and not center.startswith("axis-"):
            raise InputSyntaxError("unknown blow-up center %r" % center,
                                   tok.line, tok.col)
        return (tuple(labels), center)

    def parse_section_entry(self) -> FieldElement:
        p = self.parse_expr()
        if p.degree() > 0:
            self.fail("section entries must be constants")
        return p.constant_coefficient()


def parse_form(text: str) -> ParsedInput:
    """Parse one input file into a form plus declared auxiliary data."""
    tokens = _tokenize(text)
    desc = _infer_descriptor(tokens)
    parser = _Parser(tokens, desc)
    head = parser.expect("ident", "a form header such as omega2:")
    if head.text not in _KINDS:
        raise InputSyntaxError("input must start with omega2:, omega3:, "
                               "proj2: or proj3:", head.line, head.col)
    parser.expect(":", "a colon after the header")
    kind = head.text
    vars_, diffs = _KINDS[kind]
    parser.vars = vars_
    parser.diffs = {d: i for i, d in enumerate(diffs)}
    coeffs = parser.parse_form_body()
    divisor = None
    separatrices = None
    script = None
    section = None
    while parser.peek().kind != "end":
        if not parser.at_head():
            parser.fail("expected a block header")
        block = parser.next().text
        parser.expect(":")
        if block == "divisor":
            divisor = LocalDivisor(parser.parse_list(block,
                                                     parser.parse_branch))
        elif block == "separatrix":
            separatrices = parser.parse_list(block, parser.parse_expr)
        elif block == "script":
            script = parser.parse_list(block, parser.parse_script_item)
        elif block == "section":
            section = tuple(parser.parse_list(block,
                                              parser.parse_section_entry))
        else:
            parser.fail("a file holds a single form")
    if kind == "omega2":
        form = OneForm2(coeffs[0], coeffs[1], vars_)
    elif kind == "omega3":
        form = OneForm3(coeffs[0], coeffs[1], coeffs[2], vars_)
    else:
        form = ProjFoliation(tuple(coeffs), vars_)
    return ParsedInput(kind, form, divisor, separatrices, script, section,
                       desc)
