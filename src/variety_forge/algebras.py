"""Finite-dimensional algebras by structure constants, and identity checks.

An algebra stores, per operation, a sparse table c[i][j] -> {k: coefficient}
meaning op(e_i, e_j) = sum_k c e_k, with indices 0-based internally and
printed 1-based.  Declared products are completed by the operation's symmetry;
everything undeclared is zero.

A multilinear identity holds on the algebra iff it vanishes on every tuple of
basis vectors.  eval_identity does not walk the dim ** arity tuples one by
one: it evaluates each monomial bottom-up over its tree on all basis tuples
at once, joining the two children of a node only where the operation has a
nonzero structure constant, so it stores and touches nonzero products only.
The witness of a failing identity is the lexicographically smallest failing
tuple, the same one a walk in itertools.product order would stop at, with the
same exact value.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .exprs import read_directives
from .terms import BRACKET, DOT, PLAIN, Element, OpSymbol, ops_table

_F = Fraction


class AlgebraError(ValueError):
    pass


class Algebra:
    def __init__(self, dim, ops, products, delta=None, name=""):
        """products: (op_name, i, j, {k: Fraction}), 1-based; delta: d's value or None."""
        self.dim = int(dim)
        self.ops = tuple(ops)
        self.delta = _F(delta) if delta is not None else None
        self.name = name
        self._symmetry = ops_table(self.ops)
        self.tables = {op.name: {} for op in self.ops}
        for op_name, i, j, comps in products:
            self._declare(op_name, i, j, comps)

    def _declare(self, op_name, i, j, comps):
        if op_name not in self.tables:
            raise AlgebraError("undeclared operation %r" % op_name)
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise AlgebraError("basis index out of range in %s e%d e%d" % (op_name, i, j))
        for k in comps:
            if not (1 <= k <= self.dim):
                raise AlgebraError("basis index e%d out of range" % k)
        value = {k - 1: _F(c) for k, c in comps.items() if c}
        table = self.tables[op_name]
        sym = self._symmetry[op_name]
        self._set(table, op_name, i - 1, j - 1, value)
        if sym == "symmetric" and i != j:
            self._set(table, op_name, j - 1, i - 1, value)
        elif sym == "antisymmetric":
            if i == j:
                if value:
                    raise AlgebraError(
                        "%s(e%d,e%d) must vanish for an antisymmetric operation"
                        % (op_name, i, i))
                return
            self._set(table, op_name, j - 1, i - 1, {k: -c for k, c in value.items()})

    @staticmethod
    def _set(table, op_name, i, j, value):
        old = table.get((i, j))
        if old is not None and old != value:
            raise AlgebraError("conflicting declarations for %s(e%d,e%d)"
                               % (op_name, i + 1, j + 1))
        if value:
            table[(i, j)] = value

    # -- evaluation -------------------------------------------------------

    def _require_ops(self, e: Element):
        missing = e.op_names() - set(self.tables)
        if missing:
            raise AlgebraError("algebra lacks operations %s" % sorted(missing))

    def _coefficients(self, e: Element, delta):
        q = delta if delta is not None else self.delta
        out = []
        for coeff in e.terms.values():
            if coeff.is_constant():
                out.append(coeff.as_fraction())
            elif q is None:
                raise AlgebraError(
                    "identity coefficients involve d but no delta binding is "
                    "available (algebra %r)" % (self.name or "?"))
            else:
                out.append(coeff.eval_at(q))
        return out

    def eval_identity(self, e: Element, delta=None, label=""):
        """CheckEntry for one identity: vanishing on all basis tuples.

        Each monomial's values on all basis tuples (``_basis_values``) are
        scaled by its coefficient and summed into one dict keyed by the tuple
        in variable order; the work follows the nonzero structure constants,
        not dim ** arity.  The witness is the smallest failing tuple, the one
        a lexicographic walk over all basis tuples would meet first.
        """
        self._require_ops(e)
        coeffs = self._coefficients(e, delta)
        by_left = {}
        for op_name, table in self.tables.items():
            rows = by_left[op_name] = {}
            for (i, j), comps in table.items():
                rows.setdefault(i, {})[j] = comps
        total = {}
        for mono, c in zip(e.terms.keys(), coeffs):
            if not c:
                continue
            # leaf order -> variable order: the tree's leaves are a
            # permutation of 1..arity
            order = sorted(range(e.arity), key=mono.leaves().__getitem__)
            for key, vec in self._basis_values(mono.tree, by_left).items():
                acc = total.setdefault(tuple(key[p] for p in order), {})
                _add_scaled(acc, vec, c)
        failing = [tup for tup, vec in total.items() if vec]
        if failing:
            witness = min(failing)
            return CheckEntry(label or str(e), False, witness, total[witness])
        return CheckEntry(label or str(e), True)

    def _basis_values(self, tree, by_left):
        """Nonzero values of a tree on basis vectors, keyed by the tuple of
        basis indices at its leaves in left-to-right order.

        by_left[op][i][j] is the op's product e_i * e_j.  A node joins its two
        children only on component pairs (i, j) with a nonzero product.
        """
        if isinstance(tree, int):
            return {(i,): {i: _F(1)} for i in range(self.dim)}
        rows = by_left[tree[0]]
        left = self._basis_values(tree[1], by_left)
        right_by_comp = {}
        for key, vec in self._basis_values(tree[2], by_left).items():
            for j, b in vec.items():
                right_by_comp.setdefault(j, []).append((key, b))
        out = {}
        for lkey, lvec in left.items():
            for i, a in lvec.items():
                for j, comps in rows.get(i, {}).items():
                    for rkey, b in right_by_comp.get(j, ()):
                        acc = out.setdefault(lkey + rkey, {})
                        _add_scaled(acc, comps, a * b)
        return {key: vec for key, vec in out.items() if vec}

    def check_variety(self, v):
        """CheckReport over all identities of the variety, at its delta."""
        entries = []
        for idx, ident in enumerate(v.identities):
            label = "%s[%d]" % (v.name or "identity", idx + 1)
            entries.append(self.eval_identity(ident, delta=v.delta, label=label))
        return CheckReport(self.name or "algebra", v.name or "variety", entries)

    def __repr__(self):
        return "Algebra(%s, dim=%d)" % (self.name or "?", self.dim)


class CheckEntry:
    __slots__ = ("label", "satisfied", "witness", "value")

    def __init__(self, label, satisfied, witness=None, value=None):
        self.label = label
        self.satisfied = satisfied
        self.witness = witness
        self.value = value

    def witness_str(self):
        if self.witness is None:
            return ""
        args = ",".join("e%d" % (i + 1) for i in self.witness)
        val = " + ".join(_coeff_basis(c, k) for k, c in sorted(self.value.items()))
        return "(%s) -> %s" % (args, val)

    def __str__(self):
        if self.satisfied:
            return "%s: satisfied" % self.label
        return "%s: FAILS at %s" % (self.label, self.witness_str())


def _coeff_basis(c, k):
    if c == 1:
        return "e%d" % (k + 1)
    return "%s*e%d" % (c, k + 1)


class CheckReport:
    def __init__(self, algebra_name, variety_name, entries):
        self.algebra_name = algebra_name
        self.variety_name = variety_name
        self.entries = entries

    @property
    def all_satisfied(self):
        return all(entry.satisfied for entry in self.entries)

    def __str__(self):
        head = "check %s against %s: %s" % (
            self.algebra_name, self.variety_name,
            "all satisfied" if self.all_satisfied else "violations found")
        return "\n".join([head] + ["  " + str(e) for e in self.entries])


# ---------------------------------------------------------------------------
# tensor product and polarization splitting

def tensor(a: Algebra, b: Algebra) -> Algebra:
    """Poisson-type tensor product on the dot/bracket signature.

    dot = dot (x) dot and bracket = bracket (x) dot + dot (x) bracket on
    basis pairs; the result is d_a * d_b dimensional.
    """
    for alg in (a, b):
        names = {op.name: op.symmetry for op in alg.ops}
        if names.get("dot") != "symmetric" or names.get("bracket") != "antisymmetric":
            raise AlgebraError("tensor requires the {dot, bracket} signature")

    def pair(i, j):
        return i * b.dim + j

    tables = {"dot": {}, "bracket": {}}
    for left, right, target in (("dot", "dot", "dot"), ("bracket", "dot", "bracket"),
                                ("dot", "bracket", "bracket")):
        out = tables[target]
        for (i1, i2), ta in a.tables[left].items():
            for (j1, j2), tb in b.tables[right].items():
                comps = {}
                for k, ca in ta.items():
                    for l, cb in tb.items():
                        comps[pair(k, l)] = comps.get(pair(k, l), _F(0)) + ca * cb
                _merge(out, (pair(i1, j1), pair(i2, j2)), comps)
    products = [(op_name, i + 1, j + 1, {k + 1: c for k, c in comps.items()})
                for op_name, table in tables.items() for (i, j), comps in table.items()]
    delta = a.delta if a.delta == b.delta else None
    name = "%s(x)%s" % (a.name, b.name) if a.name and b.name else ""
    return Algebra(a.dim * b.dim, (DOT, BRACKET), products, delta=delta, name=name)


def _add_scaled(acc, vec, c):
    """acc += c * vec on sparse vectors, dropping entries that cancel."""
    for k, v in vec.items():
        new = acc.get(k, 0) + c * v
        if new:
            acc[k] = new
        else:
            acc.pop(k, None)


def _merge(target, key, comps):
    cur = target.setdefault(key, {})
    _add_scaled(cur, comps, 1)
    if not cur:
        target.pop(key, None)


def split_polarization(a: Algebra) -> Algebra:
    """One-operation algebra -> (dot, bracket) with c = (sym, antisym)/2 parts."""
    if len(a.ops) != 1:
        raise AlgebraError("split_polarization expects a single-operation algebra")
    (op,) = a.ops
    table = a.tables[op.name]
    products = []
    for i in range(a.dim):
        for j in range(i, a.dim):
            fwd = table.get((i, j), {})
            bwd = table.get((j, i), {})
            keys = set(fwd) | set(bwd)
            dot_comps = {k + 1: (fwd.get(k, _F(0)) + bwd.get(k, _F(0))) / 2 for k in keys}
            br_comps = {k + 1: (fwd.get(k, _F(0)) - bwd.get(k, _F(0))) / 2 for k in keys}
            dot_comps = {k: c for k, c in dot_comps.items() if c}
            br_comps = {k: c for k, c in br_comps.items() if c}
            if dot_comps:
                products.append(("dot", i + 1, j + 1, dot_comps))
            if br_comps and i != j:
                products.append(("bracket", i + 1, j + 1, br_comps))
    return Algebra(a.dim, (DOT, BRACKET), products, delta=a.delta,
                   name=(a.name + "-polarized") if a.name else "")


def merge_polarization(a: Algebra) -> Algebra:
    """(dot, bracket) algebra -> single operation m(x,y) = dot(x,y)+bracket(x,y)."""
    names = {op.name for op in a.ops}
    if not {"dot", "bracket"} <= names:
        raise AlgebraError("merge_polarization expects the {dot, bracket} signature")
    merged = {}
    for key, comps in a.tables["dot"].items():
        _merge(merged, key, comps)
    for key, comps in a.tables["bracket"].items():
        _merge(merged, key, comps)
    products = [(PLAIN.name, i + 1, j + 1, {k + 1: c for k, c in comps.items()})
                for (i, j), comps in merged.items()]
    return Algebra(a.dim, (PLAIN,), products, delta=a.delta,
                   name=(a.name + "-depolarized") if a.name else "")


# ---------------------------------------------------------------------------
# file format

_DEFAULT_OP_SYMMETRY = ops_table((DOT, BRACKET))


def parse_algebra_text(text: str, name: str = "") -> Algebra:
    """``exprs.read_directives`` lines, one ``dim <n>`` and ``<op> e<i> e<j> = <comb>`` lines.

    The operations keep the file's order: the declared ones, then any used
    only in a product line, in the order first used.
    """
    ops, delta, rest = read_directives(text, AlgebraError)
    op_by_name = {op.name: op for op in ops}
    dim = None
    products = []
    for lineno, line in rest:
        parts = line.split()
        if parts[0] == "dim":
            if len(parts) != 2 or not parts[1].isdigit():
                raise AlgebraError("line %d: expected 'dim <n>'" % lineno)
            if dim is not None:
                raise AlgebraError("line %d: dimension declared twice" % lineno)
            dim = int(parts[1])
            continue
        try:
            lhs, rhs = line.split("=", 1)
            op_name, ei, ej = lhs.split()
            i = int(ei.lstrip("e"))
            j = int(ej.lstrip("e"))
            comps = _parse_lincomb(rhs)
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            raise AlgebraError("line %d: cannot parse product %r" % (lineno, line)) from exc
        if op_name not in op_by_name:
            op_by_name[op_name] = OpSymbol(op_name, _DEFAULT_OP_SYMMETRY.get(op_name, "none"))
        products.append((op_name, i, j, comps))
    if dim is None:
        raise AlgebraError("algebra file lacks a 'dim' line")
    ops = tuple(op_by_name.values()) or (DOT, BRACKET)
    return Algebra(dim, ops, products, delta=delta, name=name)


def _parse_lincomb(text: str):
    text = text.replace("-", "+-").replace("*", " ")
    comps = {}
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk or chunk == "0":
            continue
        if "e" not in chunk:
            raise ValueError("term %r has no basis vector" % chunk)
        coeff_part, idx_part = chunk.rsplit("e", 1)
        coeff_part = coeff_part.strip()
        if coeff_part in ("", "-"):
            coeff = _F(-1) if coeff_part == "-" else _F(1)
        else:
            coeff = _F(coeff_part.replace(" ", ""))
        k = int(idx_part)
        comps[k] = comps.get(k, _F(0)) + coeff
    return {k: c for k, c in comps.items() if c}


def format_algebra(a: Algebra) -> str:
    lines = []
    if a.name:
        lines.append("# %s" % a.name)
    lines.append("dim %d" % a.dim)
    if a.delta is not None:
        lines.append("param delta = %s" % a.delta)
    for op in a.ops:
        lines.append("op %s %s" % (op.name, op.symmetry))
    for op in a.ops:
        table = a.tables[op.name]
        mirrored = a._symmetry[op.name] in ("symmetric", "antisymmetric")
        for (i, j) in sorted(table):
            if mirrored and i > j:
                continue  # mirrors are implied
            rhs = " + ".join(_coeff_basis(c, k) for k, c in sorted(table[(i, j)].items()))
            lines.append("%s e%d e%d = %s" % (op.name, i + 1, j + 1, rhs))
    return "\n".join(lines) + "\n"


def load_algebra(path) -> Algebra:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra_text(fh.read(),
                                  name=os.path.splitext(os.path.basename(path))[0])
