"""In-memory span tracer wrapped around variety_forge's module boundaries.

`Tracer.install()` replaces selected public functions and methods with
wrappers that record a span (name, parent, start, end) per call.  A function
is replaced under every name any variety_forge module binds it to, so a call
that crosses a module boundary is seen whichever way it was imported.  The
program itself is not edited; spans inside src/ are a later change.

Per pass the tracer keeps, for each span name, the self time (its duration
minus the part its child spans cover) and the number of outermost calls (a
call nested directly in a span of the same name is part of that call), plus
the counters named in METRICS.  The layer of a span is the part of its name
before the first dot, which is the module name.
"""

from __future__ import annotations

import array
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("terms", "scalar", "exprs", "linalg", "engine", "algebras", "operads",
          "catalog", "cli")

# (module, function, span); every binding of the function is replaced
FUNCTIONS = (
    ("engine", "consequences", "engine.consequences"),
    ("engine", "dim_multilinear", "engine.dim_multilinear"),
    ("engine", "is_consequence", "engine.is_consequence"),
    ("engine", "equivalent", "engine.equivalent"),
    ("engine", "element_to_row", "engine.element_to_row"),
    ("engine", "apply_index_map", "engine.apply_index_map"),
    ("engine", "depolarize_variety", "engine.depolarize"),
    ("engine", "load_variety", "engine.load_variety"),
    ("terms", "normalize_tree", "terms.normalize"),
    ("terms", "normalize", "terms.normalize"),
    ("terms", "act_monomial", "terms.normalize"),
    ("exprs", "parse_expr", "exprs.parse"),
    ("exprs", "format_element", "exprs.format"),
    ("algebras", "tensor", "algebras.tensor"),
    ("algebras", "load_algebra", "algebras.load"),
    ("operads", "koszul_dual", "operads.koszul_dual"),
    ("operads", "hilbert_series", "operads.series"),
    ("operads", "compose", "operads.series"),
    ("operads", "koszulness_witness", "operads.koszulness_witness"),
    ("operads", "free_delta_p_basis", "operads.free_basis"),
    ("catalog", "variety", "catalog.lookup"),
    ("catalog", "identity", "catalog.lookup"),
    ("catalog", "algebra", "catalog.lookup"),
    ("catalog", "presentation", "catalog.lookup"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, span); the scalar spans sit at the PolyDomain
# boundary, so Z[d] arithmetic is timed where linalg calls it
METHODS = (
    ("linalg", "RowBasis", "insert", "linalg.insert"),
    ("linalg", "RowBasis", "reduce", "linalg.reduce"),
    ("linalg", "RowBasis", "canonical_rows", "linalg.canonical_rows"),
    ("linalg", "PolyDomain", "mul", "scalar.poly_mul"),
    ("linalg", "PolyDomain", "sub", "scalar.poly_sub"),
    ("linalg", "PolyDomain", "cancel", "scalar.cancel"),
    ("linalg", "PolyDomain", "reduce_row_full", "scalar.reduce_row_full"),
    ("engine", "MonomialContext", "__init__", "engine.context"),
    ("engine", "MonomialContext", "perm_generator_tables", "engine.perm_tables"),
    ("engine", "MonomialContext", "lift_tables", "engine.lift_tables"),
    ("algebras", "Algebra", "eval_identity", "algebras.eval_identity"),
    ("algebras", "Algebra", "check_variety", "algebras.check_variety"),
)

# per-layer metrics reported by a traced run besides <layer>.self_s:
# name -> (unit, source), where the source is ("self", span),
# ("calls", span) or ("count", counter)
METRICS = {
    "linalg.insert_s": ("s", ("self", "linalg.insert")),
    "linalg.inserts": ("count", ("calls", "linalg.insert")),
    "linalg.inserts_accepted": ("count", ("count", "linalg.inserts_accepted")),
    "linalg.accept_ratio": ("ratio", ("count", "linalg.accept_ratio")),
    "linalg.rank": ("count", ("count", "linalg.rank")),
    "linalg.row_support.mean": ("entries", ("count", "linalg.row_support.mean")),
    "linalg.row_support.max": ("entries", ("count", "linalg.row_support.max")),
    "linalg.reduce_s": ("s", ("self", "linalg.reduce")),
    "linalg.reduces": ("count", ("calls", "linalg.reduce")),
    "linalg.canonical_rows_s": ("s", ("self", "linalg.canonical_rows")),
    "engine.element_to_row_s": ("s", ("self", "engine.element_to_row")),
    "engine.context_s": ("s", ("self", "engine.context")),
    "engine.perm_tables_s": ("s", ("self", "engine.perm_tables")),
    "engine.lift_tables_s": ("s", ("self", "engine.lift_tables")),
    "engine.apply_index_map_s": ("s", ("self", "engine.apply_index_map")),
    "engine.candidates": ("count", ("count", "engine.candidates")),
    "engine.candidates.identities": ("count", ("count", "engine.candidates.identities")),
    "engine.candidates.lifts": ("count", ("count", "engine.candidates.lifts")),
    "engine.candidates.sn_images": ("count", ("count", "engine.candidates.sn_images")),
    "scalar.poly_mul.calls": ("count", ("calls", "scalar.poly_mul")),
    "scalar.poly_mul_s": ("s", ("self", "scalar.poly_mul")),
    "scalar.poly_sub_s": ("s", ("self", "scalar.poly_sub")),
    "scalar.cancel.calls": ("count", ("calls", "scalar.cancel")),
    "scalar.cancel_s": ("s", ("self", "scalar.cancel")),
    "scalar.reduce_row_full_s": ("s", ("self", "scalar.reduce_row_full")),
    "scalar.d_degree.max": ("degree", ("count", "scalar.d_degree.max")),
    "terms.normalize.calls": ("count", ("calls", "terms.normalize")),
    "terms.normalize_s": ("s", ("self", "terms.normalize")),
    "algebras.eval_identity_s": ("s", ("self", "algebras.eval_identity")),
    "algebras.tuples": ("count", ("count", "algebras.tuples")),
    "algebras.tensor_s": ("s", ("self", "algebras.tensor")),
    "operads.koszul_dual_s": ("s", ("self", "operads.koszul_dual")),
    "operads.series_s": ("s", ("self", "operads.series")),
    "exprs.parse_s": ("s", ("self", "exprs.parse")),
    "catalog.lookup_s": ("s", ("self", "catalog.lookup")),
}


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.pass_bounds = []
        self._stack = []          # [child seconds, span index, name id]
        self._table_kind = {}     # id(index map) -> "lifts" | "sn_images"
        self.begin_pass()

    def begin_pass(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.covered = 0.0        # seconds inside outermost spans
        self._bases = {}          # id -> RowBasis inserted into this pass
        self._first = len(self.span_start)

    def end_pass(self):
        """Close the pass; returns {metric name: value} for it."""
        self.pass_bounds.append((self._first, len(self.span_start)))
        rows = [row for b in self._bases.values() for row in b.rows.values()]
        self.counts["linalg.rank"] = len(rows)
        self.counts["linalg.row_support.mean"] = (
            sum(len(r) for r in rows) / len(rows) if rows else 0.0)
        self.counts["linalg.row_support.max"] = max((len(r) for r in rows), default=0)
        tried = self.calls["linalg.insert"]
        self.counts["linalg.accept_ratio"] = (
            self.counts["linalg.inserts_accepted"] / tried if tried else 0.0)
        self.counts["engine.candidates"] = sum(
            self.counts["engine.candidates." + k]
            for k in ("identities", "lifts", "sn_images"))
        self._bases = {}
        out = {}
        for metric, (_, (kind, key)) in METRICS.items():
            if kind == "self":
                out[metric] = self.self_s[key]
            elif kind == "calls":
                out[metric] = self.calls[key]
            else:
                out[metric] = self.counts[key]
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(v for k, v in self.self_s.items()
                                         if k.split(".", 1)[0] == layer)
        out["trace.spans"] = len(self.span_start) - self._first
        return out

    # -- recording -----------------------------------------------------------

    def wrap(self, span, fn, after=None):
        nid = self._ids.get(span)
        if nid is None:
            nid = self._ids[span] = len(self.names)
            self.names.append(span)
        stack, clock = self._stack, self.clock
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(starts)
            names.append(nid)
            parents.append(parent[1] if parent is not None else -1)
            ends.append(0.0)
            entry = [0.0, idx, nid]
            stack.append(entry)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                self.self_s[span] += dur - entry[0]
                if parent is None:
                    self.covered += dur
                    self.calls[span] += 1
                else:
                    parent[0] += dur
                    if parent[2] != nid:
                        self.calls[span] += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _inside(self, span):
        nid = self._ids[span]
        return any(entry[2] == nid for entry in self._stack)

    # -- counters computed from arguments and results --------------------------

    def _after_insert(self, args, accepted):
        self._bases[id(args[0])] = args[0]
        if accepted:
            self.counts["linalg.inserts_accepted"] += 1

    def _after_tables(self, kind):
        def after(args, tables):
            for table in tables:
                self._table_kind[id(table)] = kind
        return after

    def _after_index_map(self, args, row):
        kind = self._table_kind.get(id(args[1]))
        if kind is not None:
            self.counts["engine.candidates." + kind] += 1

    def _after_element_to_row(self, args, row):
        if self._inside("engine.consequences"):
            self.counts["engine.candidates.identities"] += 1

    def _after_poly_mul(self, args, product):
        degree = len(product) - 1
        if degree > self.counts["scalar.d_degree.max"]:
            self.counts["scalar.d_degree.max"] = degree

    def _after_eval_identity(self, args, entry):
        algebra, identity = args[0], args[1]
        if entry.witness is None:
            self.counts["algebras.tuples"] += algebra.dim ** identity.arity
        else:
            index = 0
            for i in entry.witness:
                index = index * algebra.dim + i
            self.counts["algebras.tuples"] += index + 1

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every function in FUNCTIONS and method in METHODS."""
        after = {
            "linalg.insert": self._after_insert,
            "engine.perm_tables": self._after_tables("sn_images"),
            "engine.lift_tables": self._after_tables("lifts"),
            "engine.apply_index_map": self._after_index_map,
            "engine.element_to_row": self._after_element_to_row,
            "scalar.poly_mul": self._after_poly_mul,
            "algebras.eval_identity": self._after_eval_identity,
        }
        modules = [m for name, m in list(sys.modules.items())
                   if name == "variety_forge" or name.startswith("variety_forge.")]
        for module, attr, span in FUNCTIONS:
            original = getattr(sys.modules["variety_forge." + module], attr)
            traced = self.wrap(span, original, after.get(span))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)
        for module, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules["variety_forge." + module], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(span, raw.__func__,
                                                          after.get(span))))
            else:
                setattr(cls, attr, self.wrap(span, raw, after.get(span)))

    # -- output ----------------------------------------------------------------

    def write(self, directory, label):
        """Write every recorded span: <label>.json header, <label>.spans data.

        The data file holds four little-endian arrays of `count` items each:
        name id (int32), parent span index or -1 (int32), start and end
        (float64, seconds on the tracer's clock).
        """
        os.makedirs(directory, exist_ok=True)
        base = os.path.join(directory, label)
        with open(base + ".spans", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                if sys.byteorder != "little":
                    arr = array.array(arr.typecode, arr)
                    arr.byteswap()
                arr.tofile(fh)
        header = {"names": self.names, "count": len(self.span_start),
                  "passes": self.pass_bounds,
                  "layout": ["name:int32", "parent:int32", "start:float64",
                             "end:float64"]}
        with open(base + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
