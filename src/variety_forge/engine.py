"""Multilinear components of the ideal of consequences of a variety.

The degree-n component of the T-ideal generated by multilinear identities is
built arity by arity: every identity of arity m is lifted to arity m+1 by the
two elementary steps (substitute x_i <- op(x_i, x_{m+1}), and multiply the
whole monomial by the fresh variable), and each arity level is closed under
variable relabelings.  Closure over all of S_n is realised by saturating the
row span under the two group generators (1 2) and (1 2 ... n), which spans the
same space as inserting every one of the n! images.  A (1 2) image is not
tried where the span provably holds it already: for a lift row at n >= 3,
and for a row that was itself accepted as a (1 2) image (see
``_build_basis``).  Level n is lifted from the cached level n-1, so each
level is built once per process.

Most of a consequence space is whole association types: the monomials of one
shape and op-word, which form one S_n orbit and one contiguous column range.
The span is S_n-invariant, so once it holds one such monomial it holds every
monomial of that type, and ``_build_basis`` inserts the type's unit rows at
once instead of finding them image by image.  Lifts commute with S_{n-1} up
to relabelling the lift (sigma L_i = L_sigma(i) sigma), so a whole type of
level n-1 is lifted through one of its columns.

Rows live over Q when the variety carries no free parameter (or d is
specialized to a rational), and over Q(d) otherwise: ``Variety.domain`` makes
that choice once.  See linalg for the fraction-free representation.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction

from .exprs import format_element, parse_expr
from .linalg import PolyDomain, RowBasis, ZZDomain, sampled_delta_points, to_row
from .scalar import RationalFunction, pdeg, peval
from .terms import (ANTISYMMETRIC, BRACKET, DOT, NONE, PLAIN, Element, OpSymbol,
                    Permutation, TermError, depolarize_expr, enumerate_coded,
                    ops_table)

# arity 7 is out of reach in either mode: building its context alone takes
# about 9 s and 480 MB, before any row is inserted
MAX_ARITY = 6


class EngineError(ValueError):
    pass


class ArityOverflowError(EngineError):
    """Requested arity exceeds the resource guard MAX_ARITY."""


# ---------------------------------------------------------------------------
# varieties

class Variety:
    """Operation symbols plus a finite list of multilinear identities.

    ``delta`` is None for generic-d computations, or a Fraction to specialize
    every coefficient before any linear algebra.  ``domain`` is the row domain
    of every consequence space: PolyDomain iff d is generic and some
    coefficient depends on it, else ZZDomain.  ``cache_key`` identifies the
    consequence spaces: the signature, the set of identities and delta.
    """

    def __init__(self, ops, identities, delta=None, name=""):
        self.ops = tuple(ops)
        self.identities = tuple(identities)
        self.delta = Fraction(delta) if delta is not None else None
        self.name = name
        table = ops_table(self.ops)
        for e in self.identities:
            if e.is_zero():
                raise EngineError("identity is identically zero")
            missing = e.op_names() - set(table)
            if missing:
                raise EngineError("identity uses undeclared operations %s" % sorted(missing))
        self.domain = (PolyDomain if self.delta is None and self.uses_delta()
                       else ZZDomain)
        self.cache_key = (self.signature(), frozenset(self.identities), self.delta)

    def with_delta(self, q) -> "Variety":
        return Variety(self.ops, self.identities, delta=q, name=self.name)

    def with_identities(self, extra) -> "Variety":
        return Variety(self.ops, self.identities + tuple(extra), delta=self.delta,
                       name=self.name)

    def uses_delta(self) -> bool:
        return any(not c.is_constant() for e in self.identities for c in e.terms.values())

    def signature(self):
        return tuple(sorted((op.name, op.symmetry) for op in self.ops))

    def __repr__(self):
        return "Variety(%s, %d identities, delta=%s)" % (
            self.name or "?", len(self.identities), self.delta)


# ---------------------------------------------------------------------------
# per-arity monomial contexts with index maps

_CONTEXTS = {}


class MonomialContext:
    """The canonical monomials of one arity and the index maps on them.

    ``nodes`` codes every canonical subtree over every subset of 1..n as in
    ``terms.enumerate_coded``: ids below ``len(monomials)`` are column
    indices, and a proper subtree's children have smaller ids than it.
    ``node_id`` inverts ``nodes``.  An index map is built by one pass over the
    ids: the image of a node is the join of its children's images, found by
    lookup alone, so no tree is renormalised.  A signed image is ``~id``.
    The monomial keys share their interned shape, op-word and leaf-word
    tuples, which pays for the memory of the subtree registry.
    """

    def __init__(self, ops, n):
        self.ops = tuple(ops)
        self.n = n
        self.table = ops_table(ops)
        self.monomials, self.nodes = enumerate_coded(n, ops)
        self.node_id = {code: i for i, code in enumerate(self.nodes)}
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self._perm_tables = None
        self._lift_tables = None
        self._type_blocks = None

    def type_blocks(self):
        """Per column, the column range of its association type.

        The association type of a monomial is its shape and op-word, the
        first two parts of its key.  Relabelling the leaves keeps both (two
        children whose order the leaves decide have equal shape and op-word),
        and any two monomials of one type differ by a relabelling, so each
        type is one S_n orbit; the keys sort by type first, so its columns
        are one contiguous range.
        """
        if self._type_blocks is None:
            blocks = []
            monomials = self.monomials
            start = 0
            for i in range(1, len(monomials) + 1):
                if i == len(monomials) or monomials[i].key[:2] != monomials[start].key[:2]:
                    blocks.extend([range(start, i)] * (i - start))
                    start = i
            self._type_blocks = blocks
        return self._type_blocks

    def _join(self, name, a, b):
        """Signed id of the canonical form of name(a, b), a and b signed ids."""
        neg = False
        if a < 0:
            a, neg = ~a, True
        if b < 0:
            b, neg = ~b, not neg
        i = self.node_id.get((name, a, b))
        if i is None:
            # only the other order is canonical: name is (anti)symmetric
            i = self.node_id[(name, b, a)]
            if self.table[name] == ANTISYMMETRIC:
                neg = not neg
        return ~i if neg else i

    def _images(self, leaf_image, target):
        """Signed target ids of all nodes, given the images of the leaves."""
        nodes = self.nodes
        join = target._join
        img = [0] * len(nodes)
        top = len(self.monomials)
        # children before parents: proper subtrees in id order, then the top
        for i in itertools.chain(range(top, len(nodes)), range(top)):
            code = nodes[i]
            if code.__class__ is int:
                img[i] = leaf_image[code]
            else:
                img[i] = join(code[0], img[code[1]], img[code[2]])
        return img

    def _index_map(self, images):
        return [(j, 1) if j >= 0 else (~j, -1) for j in images[:len(self.monomials)]]

    def perm_generator_tables(self):
        """Index maps for the S_n generators (1 2) and (1 2 ... n)."""
        if self._perm_tables is None:
            gens = []
            if self.n >= 2:
                gens.append(Permutation.transposition(self.n, 1, 2))
            if self.n >= 3:
                gens.append(Permutation.cycle(self.n))
            leaf = self.node_id
            self._perm_tables = [
                self._index_map(self._images(
                    {i: leaf[s(i)] for i in range(1, self.n + 1)}, self))
                for s in gens]
        return self._perm_tables

    def lift_tables(self, target: "MonomialContext"):
        """Index maps arity n -> n+1 for all elementary consequence steps.

        Per operation and orientation: multiplication by the fresh variable,
        then the substitutions x_i <- op(x_i, x_{n+1}) for i = 1..n.
        """
        if self._lift_tables is None:
            join = target._join
            same = {i: target.node_id[i] for i in range(1, self.n + 1)}
            fresh = target.node_id[self.n + 1]
            embedded = self._images(same, target)[:len(self.monomials)]
            tables = []
            for op in self.ops:
                for flip in ((False,) if op.symmetry != NONE else (False, True)):
                    def times_fresh(a):
                        return join(op.name, fresh, a) if flip else join(op.name, a, fresh)
                    tables.append(self._index_map([times_fresh(m) for m in embedded]))
                    for i in range(1, self.n + 1):
                        tables.append(self._index_map(self._images(
                            {**same, i: times_fresh(same[i])}, target)))
            self._lift_tables = tables
        return self._lift_tables


def get_context(ops, n) -> MonomialContext:
    key = (tuple((op.name, op.symmetry) for op in ops), n)
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        ctx = _CONTEXTS[key] = MonomialContext(ops, n)
    return ctx


# ---------------------------------------------------------------------------
# rows

def element_to_row(e: Element, ctx: MonomialContext, delta, domain):
    """Write an element as a denominator-free row in ctx's column order."""
    terms = e.terms if delta is None else {m: c.eval_at(delta) for m, c in e.terms.items()}
    return to_row({ctx.index[m]: c for m, c in terms.items()}, domain)


def row_to_element(entries, monomials, arity) -> Element:
    terms = {}
    for c, v in entries.items():
        if isinstance(v, RationalFunction):
            coeff = v
        elif isinstance(v, tuple):
            coeff = RationalFunction(v)
        else:
            coeff = RationalFunction.from_fraction(Fraction(v))
        if not coeff.is_zero():
            terms[monomials[c]] = coeff
    return Element(arity, terms)


def apply_index_map(row, table, neg):
    out = {}
    for c, v in row.items():
        j, s = table[c]
        out[j] = v if s == 1 else neg(v)
    return out


# ---------------------------------------------------------------------------
# consequence spaces

class ConsequenceSpace:
    """The multilinear degree-n component of a variety's ideal of consequences."""

    def __init__(self, variety, n, monomials, basis):
        self.variety = variety
        self.n = n
        self.monomials = monomials
        self.basis = basis

    @property
    def rank(self):
        return self.basis.rank

    @property
    def dim(self):
        return len(self.monomials) - self.rank

    def __repr__(self):
        return "ConsequenceSpace(n=%d, rank=%d of %d, delta=%s)" % (
            self.n, self.rank, len(self.monomials), self.variety.delta)


_SPACE_CACHE = {}


def clear_cache():
    _SPACE_CACHE.clear()
    _CONTEXTS.clear()


def consequences(v: Variety, n: int, mode: str = "exact") -> ConsequenceSpace:
    """Row span of the degree-n multilinear component of v's T-ideal.

    A sampled space of a variety with generic d is the exact space of v at
    one sample point of d, so its ``variety.delta`` is that point; see
    ``_sampled_spaces``.
    """
    if mode == "sampled":
        return _sampled_spaces((v,), n)[0]
    if mode != "exact":
        raise EngineError("unknown mode %r" % mode)
    if n < 1:
        raise EngineError("arity must be positive")
    if n > MAX_ARITY:
        raise ArityOverflowError(
            "arity %d exceeds the guard %d: the direct path cannot reach it "
            "in practice" % (n, MAX_ARITY))
    key = (v.cache_key, n)
    space = _SPACE_CACHE.get(key)
    if space is None:
        space = _SPACE_CACHE[key] = ConsequenceSpace(
            v, n, get_context(v.ops, n).monomials, _build_basis(v, n))
    return space


def _sampled_spaces(varieties, n):
    """Exact spaces of the varieties, all taken at one shared sample point of d.

    Of the points that are a pole for none of the varieties, the first with
    the largest combined rank; a generic rank is missed only where d hits a
    root of some minor (Schwartz-Zippel).  Varieties without a generic d are
    returned as their exact spaces.
    """
    generic = [v.domain is PolyDomain for v in varieties]
    if not any(generic):
        return tuple(consequences(v, n) for v in varieties)
    best = None
    for q in sampled_delta_points(3):
        try:
            spaces = tuple(consequences(v.with_delta(q) if g else v, n)
                           for v, g in zip(varieties, generic))
        except ZeroDivisionError:
            continue  # q is a pole of a coefficient of some variety
        if best is None or sum(s.rank for s in spaces) > sum(s.rank for s in best):
            best = spaces
    if best is None:
        raise EngineError("every sampled specialization of d hit a pole")
    return best


def at_sample_point(v: Variety, mode: str) -> bool:
    """True iff mode is sampled and v's spaces are taken at a sample point of d.

    That is the case exactly when d is generic in v; a d-free variety gets
    its exact space in either mode.
    """
    return mode == "sampled" and v.domain is PolyDomain


def _build_basis(v: Variety, n: int) -> RowBasis:
    """Closure of v's arity-n identities and of the lifts of level n-1.

    Level n-1 comes from ``consequences``, so each level is built once per
    process.  The candidates are inserted first; every accepted row then
    queues its images under the generators (1 2) and (1 2 ... n), except a
    (1 2) image that the span provably holds already:

    - a lift row x at n >= 3: the lifts span W = L(V_{n-1}), and (1 2) lies
      in S_{n-1}, which maps V_{n-1} to itself, fixes the lift by the fresh
      variable and permutes the substitution lifts (sigma L_i = L_sigma(i)
      sigma); so (1 2)x lies in W, all of whose rows went in before the
      queue started;
    - a row accepted as (1 2)y: its (1 2) image is y.

    Such an insert would be rejected, and a rejected insert leaves the basis
    as it was, so the skips change no basis state, only the work done.

    Unit rows are placed a whole association type at a time.  The span is
    S_n-invariant and a type is one S_n orbit of columns (see
    ``MonomialContext.type_blocks``), so once e_c lies in the span, the unit
    rows of every column of c's type do too.  An accepted insert that leaves
    a unit row kills its type: the type's unit rows go in, and none is
    queued, because their images lie in the type.  The unit rows of level
    n-1 are whole types as well.  Of each such type one column is lifted
    through every lift table, and the type each image lands in is killed;
    by sigma L_i = L_sigma(i) sigma the lifts of the other columns land in
    the same types.  The other rows of level n-1 are lifted one by one.
    """
    domain = v.domain
    ctx = get_context(v.ops, n)
    basis = RowBasis(len(ctx.monomials), domain)
    rows, neg, one = basis.rows, domain.neg, domain.one
    blocks = ctx.type_blocks()
    killed = set()

    def kill(col):
        """Insert the unit rows of col's association type."""
        block = blocks[col]
        if block not in killed:
            killed.add(block)
            for c in block:
                basis.insert({c: one})

    def place(row):
        """Insert row; True iff it was accepted and is to be queued."""
        if not basis.insert(row):
            return False
        p = next(reversed(rows))  # an accepted row's pivot is the last key
        if len(rows[p]) == 1:
            kill(p)
            return False
        return True

    # queue entries: an accepted row and whether its (1 2) image may be new
    queue = []
    for e in v.identities:
        if e.arity == n:
            row = element_to_row(e, ctx, v.delta, domain)
            if place(row):
                queue.append((row, True))
    if any(e.arity < n for e in v.identities):
        prev = consequences(v, n - 1)
        prev_ctx = get_context(v.ops, n - 1)
        lifts = prev_ctx.lift_tables(ctx)
        for block in dict.fromkeys(prev_ctx.type_blocks()):
            s = prev.basis.rows.get(block.start)
            if s is not None and len(s) == 1:
                for table in lifts:
                    kill(table[block.start][0])
        for table in lifts:
            for row in prev.basis.rows.values():
                if len(row) > 1:
                    img = apply_index_map(row, table, neg)
                    if place(img):
                        queue.append((img, n < 3))
    tables = ctx.perm_generator_tables()
    while queue:
        row, swap_new = queue.pop()
        for k, table in enumerate(tables):
            if k == 0 and not swap_new:
                continue
            img = apply_index_map(row, table, neg)
            if place(img):
                queue.append((img, k != 0))
    return basis


def dim_multilinear(v: Variety, n: int, mode: str = "exact") -> int:
    """Monomial-space dimension minus the rank of consequences(v, n)."""
    return consequences(v, n, mode).dim


def is_consequence(v: Variety, target: Element, n: int, mode: str = "exact") -> bool:
    """True iff target lies in the span of consequences(v, n, mode).

    The target is specialised at the space's own d, which in sampled mode is
    the sample point.
    """
    if target.arity != n:
        raise EngineError("target arity %d does not match n=%d" % (target.arity, n))
    if target.is_zero():
        return True
    space = consequences(v, n, mode)
    basis, delta = space.basis, space.variety.delta
    ctx = get_context(v.ops, n)
    if delta != v.delta:
        # a sample point: the target's primitive row over Z[d] spans the same
        # line over Q(d), and has neither a pole nor a common root there
        prim = PolyDomain.reduce_row_full(element_to_row(target, ctx, None, PolyDomain))
        return basis.contains(to_row({c: peval(p, delta) for c, p in prim.items()}, ZZDomain))
    try:
        row = element_to_row(target, ctx, delta, basis.domain)
    except ValueError:
        # d-dependent target against a d-free span: membership holds iff each
        # d-power component lies in the span separately
        poly_row = element_to_row(target, ctx, None, PolyDomain)
        maxdeg = max(pdeg(p) for p in poly_row.values())
        for i in range(maxdeg + 1):
            comp = {c: p[i] for c, p in poly_row.items() if pdeg(p) >= i and p[i]}
            if comp and not basis.contains(comp):
                return False
        return True
    return basis.contains(row)


def equivalent(v1: Variety, v2: Variety, n: int, mode: str = "exact") -> bool:
    """True iff the two varieties have equal consequence spans at arity n.

    In sampled mode both spans are the exact spans at one shared sample point
    of d (see ``_sampled_spaces``).
    """
    if v1.signature() != v2.signature():
        raise EngineError("operation signature mismatch: %s vs %s"
                          % (v1.signature(), v2.signature()))
    if v1.delta != v2.delta:
        raise EngineError("parameter modes differ: %s vs %s" % (v1.delta, v2.delta))
    if mode == "sampled":
        s1, s2 = _sampled_spaces((v1, v2), n)
    else:
        s1, s2 = consequences(v1, n, mode), consequences(v2, n, mode)
    return s1.basis.canonical_rows() == s2.basis.canonical_rows()


# ---------------------------------------------------------------------------
# polarization at the variety level

def depolarize_variety(v: Variety) -> Variety:
    """One-operation variety over ``m`` whose identities are the depolarized ones."""
    dot = next((op for op in v.ops if op.symmetry == "symmetric"), DOT)
    bracket = next((op for op in v.ops if op.symmetry == "antisymmetric"), BRACKET)
    idents = [depolarize_expr(e, dot, bracket) for e in v.identities]
    idents = [e for e in idents if not e.is_zero()]
    return Variety((PLAIN,), idents, delta=v.delta,
                   name=(v.name + "-depolarized") if v.name else "depolarized")


# ---------------------------------------------------------------------------
# variety files

def parse_variety_text(text: str, name: str = "") -> Variety:
    """Line-oriented format: op/param/identity lines, # comments."""
    ops = []
    delta = None
    identity_lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("op "):
            parts = line.split()
            if len(parts) != 3:
                raise EngineError("line %d: expected 'op <name> <symmetry>'" % lineno)
            try:
                ops.append(OpSymbol(parts[1], parts[2]))
            except TermError as exc:
                raise EngineError("line %d: %s" % (lineno, exc)) from None
        elif line.startswith("param "):
            body = line[len("param "):].strip()
            if "=" in body:
                pname, value = (s.strip() for s in body.split("=", 1))
                if pname != "delta":
                    raise EngineError("line %d: unknown parameter %r" % (lineno, pname))
                try:
                    delta = Fraction(value)
                except (ValueError, ZeroDivisionError):
                    raise EngineError("line %d: expected 'param delta = <rational>'"
                                      % lineno) from None
            elif body != "delta":
                raise EngineError("line %d: unknown parameter %r" % (lineno, body))
        elif line.startswith("identity:"):
            identity_lines.append((lineno, line[len("identity:"):].strip()))
        else:
            raise EngineError("line %d: unrecognized directive %r" % (lineno, line))
    if not ops:
        raise EngineError("variety file declares no operations")
    identities = []
    for lineno, src in identity_lines:
        try:
            e = parse_expr(src, ops)
        except (TermError, ValueError) as exc:
            raise EngineError("line %d: %s" % (lineno, exc)) from exc
        if not e.is_zero():
            identities.append(e)
    return Variety(ops, identities, delta=delta, name=name)


def format_variety(v: Variety) -> str:
    lines = []
    if v.name:
        lines.append("# %s" % v.name)
    for op in v.ops:
        lines.append("op %s %s" % (op.name, op.symmetry))
    if v.delta is not None:
        lines.append("param delta = %s" % v.delta)
    elif v.domain is PolyDomain:
        lines.append("param delta")
    for e in v.identities:
        lines.append("identity: %s" % format_element(e))
    return "\n".join(lines) + "\n"


def load_variety(path) -> Variety:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_variety_text(fh.read(), name=os.path.splitext(os.path.basename(path))[0])
