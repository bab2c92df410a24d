"""One definition of "inconclusive" and one widening retry.

The command line exits 2 on exactly the subclasses of
`fields.Inconclusive`.  An AST guard keeps the package from listing those
causes one by one again, and keeps every retry on a WidenRequest inside
`fields.widening`."""

import ast
from pathlib import Path

import pytest

import foliation_lab
from foliation_lab import cli
from foliation_lab.fields import (FieldDescriptor, FieldError, Inconclusive,
                                  MismatchedFieldError, WidenRequest,
                                  widening)

SRC = Path(__file__).resolve().parent.parent / "src" / "foliation_lab"

INCONCLUSIVE = ["FieldExtensionError", "WidenRequest", "PrecisionError",
                "OrderIndeterminate", "InconclusiveError", "ReductionError",
                "DicriticalInputError", "DegeneratePointError",
                "SingularBranchError", "PositiveDimensionalLocusError"]


def test_the_inconclusive_causes_share_one_base():
    for name in INCONCLUSIVE:
        assert issubclass(getattr(foliation_lab, name), Inconclusive), name
    # usage and input errors keep exit 1
    for cls in (FieldError, MismatchedFieldError,
                foliation_lab.InputSyntaxError, cli.UsageError):
        assert not issubclass(cls, Inconclusive), cls.__name__


def _subclass_names():
    out, todo = set(), [Inconclusive]
    while todo:
        cls = todo.pop()
        out.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return out


def _names(node):
    if node is None:
        return []
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    return [e.attr if isinstance(e, ast.Attribute) else getattr(e, "id", None)
            for e in elts]


def handler_drift(source, causes):
    """(line, reason) of every `except` that lists two or more of
    `causes`, and of every `except WidenRequest` outside `widening`."""
    tree = ast.parse(source)
    inside = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "widening":
            inside.update(id(n) for n in ast.walk(fn))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        names = _names(node.type)
        if sum(n in causes for n in names) > 1:
            found.append((node.lineno, "lists inconclusive causes"))
        if "WidenRequest" in names and id(node) not in inside:
            found.append((node.lineno, "retries outside widening"))
    return found


def test_no_handler_lists_inconclusive_causes_or_retries_a_widening():
    causes = _subclass_names()
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [(path.name,) + f
                  for f in handler_drift(path.read_text(encoding="utf-8"),
                                         causes)]
    assert found == []


def test_handler_guard_sees_planted_handlers():
    source = ("def widening(run, desc):\n"
              "    try:\n"
              "        return run(desc)\n"
              "    except WidenRequest as w:\n"
              "        return run(desc.widened(w.m))\n"
              "def f():\n"
              "    try:\n"
              "        pass\n"
              "    except (PrecisionError, fields.ReductionError):\n"
              "        pass\n"
              "    except (Inconclusive, ValueError):\n"
              "        pass\n"
              "    except fields.WidenRequest:\n"
              "        pass\n")
    assert handler_drift(source, _subclass_names()) == [
        (9, "lists inconclusive causes"), (13, "retries outside widening")]


Q = FieldDescriptor()


def test_widening_retries_once_over_the_wider_tower():
    seen = []

    def run(desc):
        seen.append(desc)
        if desc.quadratic_extension is None:
            raise WidenRequest(5)
        return "done"

    assert widening(run, Q) == "done"
    assert seen == [Q, FieldDescriptor(5)]


def test_widening_lets_a_second_request_propagate():
    calls = []

    def run(desc):
        calls.append(desc)
        raise WidenRequest(5)

    with pytest.raises(WidenRequest):
        widening(run, Q)
    assert calls == [Q, FieldDescriptor(5)]
