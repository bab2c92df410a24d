"""No dead names in the package: every module-level import is used,
every local name a function stores is read again (``_`` excepted), every
parameter is read, and every private top-level function or class is
named outside itself."""

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


# the signature that every command handler in cli._HANDLERS shares
_HANDLER_SIGNATURE = ("parsed", "report", "opts", "dot_ref")


def unread_parameters(source):
    """(function, parameter, line) of every parameter that a top-level
    function, or a method of a top-level class, never reads.  The first
    parameter of a method and the command-handler signature are exempt."""
    tree = ast.parse(source)
    fns = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            fns.append((node.name, node, 0))
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in fn.decorator_list)
                    fns.append(("%s.%s" % (node.name, fn.name), fn,
                                0 if static else 1))
    found = []
    for name, fn, skip in fns:
        a = fn.args
        params = (a.posonlyargs + a.args + a.kwonlyargs
                  + [p for p in (a.vararg, a.kwarg) if p])[skip:]
        if tuple(p.arg for p in params) == _HANDLER_SIGNATURE:
            continue
        read = _loads(fn)
        found += [(name, p.arg, p.lineno) for p in params
                  if p.arg not in read]
    return found


def _private_targets(module, node):
    """The (module, name) keys that a top-level node of `module` names: a
    bare name resolves in its own module, a relative import in the module
    it imports from, an attribute in any module ("*")."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add((module, n.id))
        elif isinstance(n, ast.Attribute):
            out.add(("*", n.attr))
        elif isinstance(n, ast.ImportFrom) and n.level and n.module:
            out.update((n.module + ".py", a.name) for a in n.names)
    return out


def orphans(sources):
    """(module, name, line) of every private top-level function or class
    that the rest of the package does not reach; `sources` maps module
    names (file names) to their source text.  Every other top-level
    statement is reached, and a private definition is reached when a
    reached statement names it: a helper that only dead helpers call, or
    whose name only another module's helper of the same name explains,
    is an orphan too."""
    bodies = {m: ast.parse(s).body for m, s in sources.items()}
    private = {(m, n.name): n for m, body in bodies.items() for n in body
               if isinstance(n, _SCOPES + (ast.ClassDef,))
               and n.name.startswith("_")}
    by_name = {}
    for m, name in private:
        by_name.setdefault(name, []).append((m, name))
    todo = [(m, n) for m, body in bodies.items() for n in body
            if private.get((m, getattr(n, "name", None))) is not n]
    reached = set()
    while todo:
        m, node = todo.pop()
        for target in _private_targets(m, node):
            keys = by_name.get(target[1], []) if target[0] == "*" else [target]
            for key in keys:
                if key in private and key not in reached:
                    reached.add(key)
                    todo.append((key[0], private[key]))
    return [(m, name, node.lineno) for (m, name), node in private.items()
            if (m, name) not in reached]


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


def test_orphan_guard_follows_chains_and_modules():
    """A helper that only a dead helper calls, and a dead helper whose
    name only another module's own helper of that name explains, are
    orphans; a relative import, also inside a function, and an attribute
    reach a helper."""
    sources = {"a.py": ("def _step():\n"
                        "    return 1\n"
                        "def _dead():\n"
                        "    return _step()\n"
                        "def _shared():\n"
                        "    return 2\n"
                        "def _by_attr():\n"
                        "    return 3\n"
                        "def _lazy():\n"
                        "    return 4\n"),
               "b.py": ("from . import a\n"
                        "def _shared():\n"
                        "    return 5\n"
                        "def f():\n"
                        "    from .a import _lazy\n"
                        "    return _shared() + a._by_attr() + _lazy()\n")}
    assert orphans(sources) == [("a.py", "_step", 1), ("a.py", "_dead", 3),
                                ("a.py", "_shared", 5)]


def test_no_unread_parameters_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [(path.name,) + f
                  for f in unread_parameters(path.read_text(encoding="utf-8"))]
    assert not found


def test_unread_parameter_guard_sees_planted_names():
    source = ("def _f(a, b, *rest, c=1, **kw):\n"
              "    return a + c\n"
              "def public(a, b):\n"
              "    return a\n"
              "def _handler(parsed, report, opts, dot_ref):\n"
              "    return report\n"
              "def _outer(n):\n"
              "    def inner():\n"
              "        return n\n"
              "    return inner\n"
              "class _C:\n"
              "    def m(self, x, y):\n"
              "        return y\n"
              "    @staticmethod\n"
              "    def s(first):\n"
              "        return 0\n"
              "class Public:\n"
              "    def m(self, x):\n"
              "        return 0\n")
    assert unread_parameters(source) == [
        ("_f", "b", 1), ("_f", "rest", 1), ("_f", "kw", 1),
        ("public", "b", 3), ("_C.m", "x", 12), ("_C.s", "first", 15),
        ("Public.m", "x", 18)]


def _callee(call):
    f = call.func
    return (f.id if isinstance(f, ast.Name)
            else f.attr if isinstance(f, ast.Attribute) else None)


def unset_defaults(sources, callers):
    """(module, function, parameter, line) of every parameter with a
    default that no call passes, by keyword, by position or through a
    `*` or `**` argument.  `sources` maps module names to the source
    whose definitions are checked, `callers` is every source whose calls
    count.  A call reaches each function or method of its name; a class
    name reaches its __init__."""
    calls = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        owner = {fn: cls for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(fn)
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            skip = 1 if cls is not None and not static else 0
            a = fn.args
            positional = (a.posonlyargs + a.args)[skip:]
            defaulted = [(p, i) for i, p in enumerate(positional)
                         if i >= len(positional) - len(a.defaults)]
            defaulted += [(p, None) for p, d in zip(a.kwonlyargs,
                                                    a.kw_defaults) if d]
            name = cls.name if cls and fn.name == "__init__" else fn.name
            sites = calls.get(name, [])

            def passed(p, i):
                return any(
                    any(k.arg in (None, p.arg) for k in c.keywords)
                    or (i is not None
                        and (len(c.args) > i
                             or any(isinstance(x, ast.Starred)
                                    for x in c.args)))
                    for c in sites)
            found += [(module, fn.name, p.arg, p.lineno)
                      for p, i in defaulted if not passed(p, i)]
    return found


def test_no_unset_defaults_in_the_package():
    tests = Path(__file__).resolve().parent
    callers = [path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))
               + sorted(tests.glob("*.py"))]
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert unset_defaults(sources, callers) == []


def test_unset_default_guard_sees_planted_parameters():
    source = ("def f(a, by_kw=1, by_pos=2, unset=3, *, kw_only=4):\n"
              "    return a\n"
              "def g(a, starred=1):\n"
              "    return a\n"
              "def h(a, double=1):\n"
              "    return a\n"
              "class C:\n"
              "    def __init__(self, x, y=0):\n"
              "        self.x = x\n"
              "    def m(self, z=0):\n"
              "        return z\n")
    callers = [source, ("f(0, 1, 2, by_kw=5)\n"
                        "g(*args)\n"
                        "h(0, **opts)\n"
                        "C(1, 2).m()\n")]
    assert unset_defaults({"m.py": source}, callers) == [
        ("m.py", "f", "unset", 1), ("m.py", "f", "kw_only", 1),
        ("m.py", "m", "z", 10)]


def unread_slots(sources, readers):
    """(module, class, slot, line) of every `__slots__` name that no
    source in `readers` reads as an attribute.  `sources` maps module
    names to the source whose classes are checked."""
    read = set()
    for source in readers:
        read.update(n.attr for n in ast.walk(ast.parse(source))
                    if isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Load))
    found = []
    for module, source in sources.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.Assign)
                        and any(getattr(t, "id", None) == "__slots__"
                                for t in node.targets)):
                    found += [(module, cls.name, e.value, e.lineno)
                              for e in ast.walk(node.value)
                              if isinstance(e, ast.Constant)
                              and e.value not in read]
    return found


def test_no_unread_slots_in_the_package():
    tests = Path(__file__).resolve().parent
    readers = [path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))
               + sorted(tests.glob("*.py"))]
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert unread_slots(sources, readers) == []


def test_unread_slot_guard_sees_planted_slots():
    source = ("class A:\n"
              "    __slots__ = ('kept', 'stored')\n"
              "    def __init__(self):\n"
              "        self.kept = 1\n"
              "        self.stored = 2\n"
              "class B:\n"
              "    __slots__ = ('alone',)\n")
    reader = "def f(a):\n    return a.kept\n"
    assert unread_slots({"m.py": source}, [source, reader]) == [
        ("m.py", "A", "stored", 2), ("m.py", "B", "alone", 7)]
