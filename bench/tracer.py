"""Span and counter tracer that wraps foliation_lab functions from outside.

The package binds names directly (``from .forms import normalize2`` in
several modules), so wrapping one module attribute would miss most calls.
`Tracer.install` replaces every module-global binding of each wrapped
function object across ``foliation_lab.*``, plus every class attribute
bound to it (``__radd__ = __add__`` included), and `uninstall` puts the
originals back.

Spans (name, start, end, parent, item, raised) are kept in memory; a
layer's self time is its span time minus the time of its child spans.
Field operations are counted per tower, not spanned: they are too many
and too short, and a sample of multiplication operands is kept for a
replay in a tight loop after the run.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import time

PACKAGE = "foliation_lab"

# layer -> functions called through spans (Class.method for methods)
SPANNED = {
    "cli": ["main"],
    "parser": ["parse_form"],
    "reduce2d": ["seidenberg_reduce", "classify_point2"],
    "blowup": ["blowup_point2", "blowup_point3", "blowup_curve3"],
    "forms": ["normalize2", "normalize3", "invariant_graph_jet", "nu0",
              "mu0"],
    "poly": ["MPoly.__mul__", "MPoly.substitute", "exact_divide",
             "gcd_bivariate", "u_gcd", "u_roots_in_tower", "u_resultant"],
    "linalg": ["solve", "nullspace", "rank", "det"],
    "separatrix": ["separatrices2", "multiplicity_identity_check",
                   "weak_separatrix_jet"],
    "threefold": ["second_type3_via_sections", "pullback_section",
                  "match_simple_model3", "theorem_main_harness",
                  "dimensional_type"],
    "indices": ["sum_theorem_check", "plane_singularities", "cs_index",
                "gsv_index", "bb_index", "logarithmic_criterion",
                "localize_at"],
}

# fields functions that are only counted
COUNTED = ["FieldElement.__mul__", "FieldElement.__add__",
           "FieldElement.inverse", "sqrt_in_tower", "FieldDescriptor.widened"]

LAYERS = list(SPANNED) + ["fields"]
TOWERS = ("q", "quad", "param")
_FIELD_OPS = {"FieldElement.__mul__": "mul", "FieldElement.__add__": "add",
              "FieldElement.inverse": "inverse"}
_SAMPLE_EVERY = 997
_SAMPLE_MAX = 256


def _resolve(layer, qualname):
    module = sys.modules["%s.%s" % (PACKAGE, layer)]
    obj = module
    for part in qualname.split("."):
        obj = vars(obj)[part]
    return obj


def _tower(desc):
    if desc.parameter is not None:
        return 2
    return 0 if desc.quadratic_extension is None else 1


class Tracer:
    """Install with `install()`, run items with `item` set, then
    `uninstall()` and read `metrics()`."""

    def __init__(self):
        self.item = None
        self.spans = []
        self.names = []          # span name id -> "layer.function"
        self.layer_of = []       # span name id -> layer
        self.calls = []
        self.self_s = []
        self.raised = {layer: 0 for layer in LAYERS}
        self.blowups = 0
        self.normalize2_useful = 0
        self.divide_monomial = 0
        self.field_counts = {op: [0, 0, 0]
                             for op in ("mul", "add", "inverse")}
        self.sqrt_calls = 0
        self.widened_calls = 0
        self.mul_samples = ([], [], [])
        self.originals = {}
        self.bindings = {}
        self._restore = []
        self.next_id = 0
        self._stack = []
        self._ids = []
        self._child = []

    # -- installation ------------------------------------------------------

    def _rebind(self, key, orig, wrapper):
        """Replace every binding of `orig` in the package; return count."""
        count = 0
        seen = set()
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, orig))
                    count += 1
                elif (isinstance(value, type) and id(value) not in seen
                      and value.__module__.startswith(PACKAGE)):
                    seen.add(id(value))
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is orig:
                            setattr(value, cattr, wrapper)
                            self._restore.append((value, cattr, orig))
                            count += 1
        self.bindings[key] = count
        return count

    def install(self):
        for layer, names in SPANNED.items():
            for qualname in names:
                orig = _resolve(layer, qualname)
                key = "%s.%s" % (layer, qualname)
                sid = len(self.names)
                self.names.append(key)
                self.layer_of.append(layer)
                self.calls.append(0)
                self.self_s.append(0.0)
                self.originals[key] = orig
                self._rebind(key, orig, self._span_wrapper(orig, sid))
        for qualname in COUNTED:
            orig = _resolve("fields", qualname)
            key = "fields." + qualname
            self.originals[key] = orig
            self._rebind(key, orig, self._count_wrapper(qualname, orig))
        missing = [k for k, n in self.bindings.items() if n == 0]
        if missing:
            self.uninstall()
            raise RuntimeError("no binding found for %s" % ", ".join(missing))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- wrappers ----------------------------------------------------------

    def _on_return(self, key, args, result):
        if key == "reduce2d.seidenberg_reduce":
            self.blowups += result.blowup_count
        elif key == "forms.normalize2":
            form = args[0]
            if result.A != form.A or result.B != form.B:
                self.normalize2_useful += 1
        elif key == "poly.exact_divide":
            if len(args[1].coeffs) == 1:
                self.divide_monomial += 1

    def _span_wrapper(self, fn, sid):
        spans, stack, ids, child = self.spans, self._stack, self._ids, \
            self._child
        calls, self_s = self.calls, self.self_s
        layer_of, raised = self.layer_of, self.raised
        clock = time.perf_counter
        key = self.names[sid]
        hooked = key in ("reduce2d.seidenberg_reduce", "forms.normalize2",
                         "poly.exact_divide")
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            parent_id = ids[-1] if ids else -1
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            stack.append(sid)
            ids.append(span_id)
            child.append(0.0)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                ids.pop()
                dur = t1 - t0
                inner = child.pop()
                if child:
                    child[-1] += dur
                calls[sid] += 1
                self_s[sid] += dur - inner
                spans.append((span_id, sid, t0, t1, parent_id, tracer.item,
                              not ok))
                if not ok and (parent < 0
                               or layer_of[parent] != layer_of[sid]):
                    raised[layer_of[sid]] += 1
            if hooked:
                tracer._on_return(key, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, qualname, fn):
        tracer = self
        raised = self.raised
        if qualname in _FIELD_OPS:
            counts = self.field_counts[_FIELD_OPS[qualname]]
            samples = self.mul_samples if qualname.endswith("__mul__") \
                else None
            every = [0]

            def wrapper(x, *args):
                t = _tower(x.desc)
                counts[t] += 1
                if samples is not None and type(args[0]) is type(x):
                    every[0] += 1
                    if (every[0] % _SAMPLE_EVERY == 0
                            and len(samples[t]) < _SAMPLE_MAX):
                        samples[t].append((x, args[0]))
                try:
                    return fn(x, *args)
                except BaseException:
                    raised["fields"] += 1
                    raise
        else:
            attr = ("sqrt_calls" if qualname == "sqrt_in_tower"
                    else "widened_calls")

            def wrapper(*args, **kwargs):
                setattr(tracer, attr, getattr(tracer, attr) + 1)
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    raised["fields"] += 1
                    raise

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def _stat(self, key):
        sid = self.names.index(key)
        return self.calls[sid], self.self_s[sid]

    def call_counts(self):
        """Calls of every wrapped function, by "layer.function"."""
        out = {k: self._stat(k)[0] for k in self.names}
        for qualname in COUNTED:
            key = "fields." + qualname
            if qualname in _FIELD_OPS:
                out[key] = sum(self.field_counts[_FIELD_OPS[qualname]])
            elif qualname == "sqrt_in_tower":
                out[key] = self.sqrt_calls
            else:
                out[key] = self.widened_calls
        return out

    def mul_us(self, fallback):
        """Microseconds per field multiplication in each tower, replaying
        the captured operands (or `fallback` pairs for a tower the run
        never multiplied in) through the unwrapped method."""
        mul = self.originals["fields.FieldElement.__mul__"]
        out = {}
        for t, name in enumerate(TOWERS):
            pairs = self.mul_samples[t] or fallback[t]
            reps = []
            for _ in range(5):
                n = 0
                t0 = time.perf_counter()
                while True:
                    for a, b in pairs:
                        mul(a, b)
                    n += len(pairs)
                    el = time.perf_counter() - t0
                    if el >= 0.02:
                        break
                reps.append(el / n * 1e6)
            out[name] = statistics.median(reps)
        return out

    def metrics(self, overhead_s, fallback):
        m = {}

        def put(name, value, unit):
            m[name] = {"value": value, "unit": unit}

        calls = self.call_counts()
        main_calls = calls["cli.main"]
        for key in self.names:
            n, s = self._stat(key)
            put(key + ".calls", n, "count")
            put(key + ".self_s", s, "s")
        reductions = calls["reduce2d.seidenberg_reduce"]
        put("cli.reductions_per_verdict",
            reductions / main_calls if main_calls else 0.0, "ratio")
        put("reduce2d.blowups", self.blowups, "count")
        put("reduce2d.widen_restarts", self.widened_calls, "count")
        n2 = calls["forms.normalize2"]
        put("forms.normalize2.useful_ratio",
            self.normalize2_useful / n2 if n2 else 0.0, "ratio")
        nd = calls["poly.exact_divide"]
        put("poly.exact_divide.monomial_share",
            self.divide_monomial / nd if nd else 0.0, "ratio")
        for op, counts in self.field_counts.items():
            for t, name in enumerate(TOWERS):
                put("fields.%s.%s" % (op, name), counts[t], "count")
        put("fields.sqrt_in_tower.calls", self.sqrt_calls, "count")
        for name, us in self.mul_us(fallback).items():
            put("fields.mul_us." + name, us, "us")
        for layer in LAYERS:
            put(layer + ".raised", self.raised[layer], "count")
        put("trace.overhead_s", overhead_s, "s")
        return m

    def write_spans(self, path):
        """Spans as gzip JSON lines [id, name, start, end, parent id, item,
        raised], in the order they ended; parent id -1 is the top level."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span_id, sid, t0, t1, parent, item, raised in self.spans:
                fh.write(json.dumps([span_id, self.names[sid], t0, t1,
                                     parent, item, raised]) + "\n")
