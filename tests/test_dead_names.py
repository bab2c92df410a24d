"""No dead names in the package: every module-level import is used,
every local name a function stores is read again (``_`` excepted), and
every private top-level function or class is named outside itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "foliation_lab"

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(fn):
    """The nodes of a function body outside its nested functions and
    classes, which are scopes of their own."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def _loads(tree):
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def dead_names(source):
    """(scope, name, line) of every unused import and unread local."""
    tree = ast.parse(source)
    found = []
    used = _loads(tree)
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name != "annotations" and name not in used:
                    found.append(("<module>", name, node.lineno))
    for fn in ast.walk(tree):
        if not isinstance(fn, _SCOPES):
            continue
        shared, stored = set(), {}
        for node in _own_nodes(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
            elif (isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Store)):
                stored.setdefault(node.id, node.lineno)
        # a nested function may read what its parent stores
        read = _loads(fn)
        for name, line in stored.items():
            if name != "_" and name not in read and name not in shared:
                found.append((getattr(fn, "name", "<lambda>"), name, line))
    return found


def _named(node):
    """Every name, attribute and imported name that a node mentions."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def orphans(sources):
    """(module, name, line) of every private top-level function or class
    that no top-level statement but its own definition names; `sources`
    maps module names to their source text."""
    defs, named = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            named.append((node, _named(node)))
            if (isinstance(node, _SCOPES + (ast.ClassDef,))
                    and node.name.startswith("_")):
                defs.append((module, node))
    return [(module, node.name, node.lineno) for module, node in defs
            if not any(node.name in names
                       for other, names in named if other is not node)]


def test_no_dead_names_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            found += [(path.name,) + f
                      for f in dead_names(path.read_text(encoding="utf-8"))]
    assert not found


def test_dead_name_guard_sees_planted_names():
    source = ("import os\n"
              "from math import gcd, lcm\n"
              "def f(p):\n"
              "    a, b = p\n"
              "    _, c = p\n"
              "    def g():\n"
              "        return c\n"
              "    return lcm(a, g())\n")
    assert dead_names(source) == [("<module>", "os", 1),
                                  ("<module>", "gcd", 2), ("f", "b", 4)]


def test_no_orphaned_private_helpers_in_the_package():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert orphans(sources) == []


def test_orphan_guard_sees_planted_helpers():
    sources = {"a.py": ("def _used():\n"
                        "    return 1\n"
                        "def _orphan(n):\n"
                        "    return _orphan(n - 1) if n else 0\n"
                        "class _Lonely:\n"
                        "    pass\n"),
               "b.py": ("from .a import _used\n"
                        "def f():\n"
                        "    return _used()\n")}
    assert orphans(sources) == [("a.py", "_orphan", 3), ("a.py", "_Lonely", 5)]
