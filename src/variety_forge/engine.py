"""Multilinear components of the ideal of consequences of a variety.

The degree-n component of the T-ideal generated by multilinear identities is
built arity by arity: every identity of arity m is lifted to arity m+1 by the
two elementary steps (substitute x_i <- op(x_i, x_{m+1}), and multiply the
whole monomial by the fresh variable), and each arity level is closed under
variable relabelings.  One rule realises the closure over all of S_n: the
seed rows of level n, the images of its identities under the permutations
that fix n and the lifts of level n-1, span an S_{n-1}-invariant space, and
the level is saturated under the n-cycle (1 2 ... n) alone.  By the cosets
of S_{n-1} in S_n that spans the same space as inserting every one of the
n! images (see ``_build_basis``).  Level n is lifted from the cached level
n-1, so each level is built once per process.  Every relabelling and lift
is an index map of a ``MonomialContext``, so a build renormalises no tree.

Most of a consequence space is whole association types: the monomials of one
shape and op-word, which form one S_n orbit and one contiguous column range.
The span is S_n-invariant, so once it holds one such monomial it holds every
monomial of that type, and ``_build_basis`` inserts the type's unit rows at
once instead of finding them image by image.  Lifts commute with S_{n-1} up
to relabelling the lift (sigma L_i = L_sigma(i) sigma), so a whole type of
level n-1 is lifted through one of its columns.

A ``MonomialContext`` knows the column range of every type before it
enumerates any monomial, and enumerates a type only when a row entry needs
one of its columns.  A killed type needs none: its unit rows go in by range,
the kill of a lifted type reads only the type of the image, and an image
entry that lands in a killed type is dropped, since the type's unit rows
would eliminate it.  At n = 6 anti-Poisson enumerates 18 of its 164 types,
and records 2,930 of the 12,156 canonical subtrees over proper subsets of
1..6: a subtree is recorded only when an enumeration or an image needs it.

Rows live over Q when the variety carries no free parameter (or d is
specialized to a rational), and over Q(d) otherwise: ``Variety.domain`` makes
that choice once.  See linalg for the fraction-free representation.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import os
import weakref
from fractions import Fraction

from .exprs import format_element, parse_expr, read_directives
from .linalg import PolyDomain, RowBasis, ZZDomain, to_row
from .scalar import RationalFunction, peval
from .terms import (ANTISYMMETRIC, BRACKET, DOT, MONOMIALS, NONE, PLAIN, Element,
                    Monomial, TermError, depolarize_expr, ops_table)

# arity 7 is not promised in either mode.  Its context is a counted type
# list (under 0.01 s), and cold AP(7) and MP(7) builds take 3-4.6 s and
# 1.3-1.8 s at 109 and 71 MB peak RSS, but a variety whose span holds no
# unit rows (poisson, jordan-bracket) already takes 2.9-4.2 s and
# 117-136 MB at arity 6, and generic TDP(6) 8.9 s (cold builds of levels
# 1..6, median of three fresh processes, 2 cores, Python 3.11)
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
    """The canonical monomials of one arity, by association type, and the
    index maps on them.

    Built at once: the sorted association types of the arity-n monomials.
    A type is op(A, B), the monomials op(a, b) with subtrees a of kind A and
    b of kind B over complementary leaf sets, where the kind of a subtree is
    its shape and op-word.  The kinds are the types of arities 1..n-1, in
    that order, read from the lower contexts (``get_context(ops, n - 1)``
    holds them all), and a type's size there is the kind's count over one
    leaf set.  So type sizes are counted, not enumerated: ``offsets[t]`` is
    the first column of type t and ``ncols`` the number of columns.

    Built on demand: the registry of canonical subtrees over proper subsets
    of 1..n, where ``nodes[i]`` codes node i as a leaf label or (op_name,
    left_id, right_id), children first, and ``node_id`` inverts ``nodes``.
    A subtree is recorded the first time a type enumeration (``of_kind``) or
    an index-map image (``_join``) needs it.  A type's monomials are
    enumerated the first time a column in it is needed, sorted by leaf-word,
    and take the columns ``offsets[t]`` + rank.  That is the order of the
    monomial keys, which sort by type first.  ``monomials`` enumerates every
    type on first access; ``index`` maps a monomial to its column and learns
    each monomial when it is first looked up.

    An index map (``_IndexMap``) is filled column by column from the images
    of the proper nodes (``_NodeImages``), so no tree is renormalised.  A
    signed node id is ``~id`` for the negated node.
    """

    def __init__(self, ops, n):
        self.ops = tuple(ops)
        self.n = n
        self.table = ops_table(ops)
        if n == 1:
            self._kind_keys, self._kind_specs, self._kind_size, self._kind_count = [], [], [], []
            self._kind_of_spec = {}
        else:
            lower = get_context(self.ops, n - 1)
            base, sizes = len(lower._kind_keys), [len(b) for b in lower.type_blocks()]
            self._kind_keys = lower._kind_keys + lower._type_keys
            self._kind_specs = lower._kind_specs + lower._type_specs
            self._kind_size = lower._kind_size + [n - 1] * len(sizes)
            self._kind_count = lower._kind_count + sizes
            self._kind_of_spec = dict(lower._kind_of_spec)
            self._kind_of_spec.update((spec, base + t) for t, spec in enumerate(lower._type_specs))
        types, sizes = self._count_types()
        self._type_keys = [key for key, _ in types]
        self._type_specs = [spec for _, spec in types]
        self._type_of_key = {key: t for t, key in enumerate(self._type_keys)}
        self._type_of_spec = {spec: t for t, spec in enumerate(self._type_specs)}
        self.offsets = list(itertools.accumulate(sizes, initial=0))
        self.ncols = self.offsets[-1]
        # the registry: per node its code, key and kind
        self.nodes, self._keys, self._kind = [], [], []
        self.node_id = {}
        self._groups = {}                          # (leaf set, kind) -> node ids
        self._words = {}                           # interned leaf-words
        self._codes = [None] * len(types)          # per type: codes by rank
        self._columns = [None] * len(types)        # per type: leaf-word -> column
        self.index = _ColumnIndex(self)
        self._monomials = None
        self._perm_tables = {}                     # image tuple -> index map
        self._lift_tables = None
        self._lift_target = None

    def _count_types(self):
        """Sorted [((shape, op-word), (op_name, A, B))], and the type sizes.

        A kind of size k occurs over each k-subset of 1..n equally often, so
        op(A, B) with |A| = k has C(n, k) * #A * #B monomials, where #A
        counts A over one k-set; halved for an (anti)symmetric op with A = B,
        whose two children come in one order.
        """
        n = self.n
        if n == 1:
            return [(((1,), ()), None)], [1]
        keys, size, count = self._kind_keys, self._kind_size, self._kind_count
        by_size = {}
        for k, s in enumerate(size):
            by_size.setdefault(s, []).append(k)
        found = []
        for op in self.ops:
            for a, (sa, oa) in enumerate(keys):
                for b in by_size[n - size[a]]:
                    sb, ob = keys[b]
                    if op.symmetry != NONE and (sa, oa) > (sb, ob):
                        continue  # canonical form puts the children the other way
                    c = math.comb(n, size[a]) * count[a] * count[b]
                    if a == b and op.symmetry != NONE:
                        c //= 2
                    found.append((((0,) + sa + sb, (op.name,) + oa + ob), (op.name, a, b), c))
        found.sort()
        return [(key, spec) for key, spec, _ in found], [c for _, _, c in found]

    def _node(self, code, kind, word):
        """Id of the node with this code, recorded if new as a node of the
        kind over the leaf-word."""
        i = self.node_id.get(code)
        if i is None:
            i = self.node_id[code] = len(self.nodes)
            shape, ops = self._kind_keys[kind]
            self.nodes.append(code)
            self._keys.append((shape, ops, self._words.setdefault(word, word)))
            self._kind.append(kind)
        return i

    def _leaf(self, label):
        """Id of the leaf x_label (kind 0, the one type of arity 1)."""
        return self._node(label, 0, (label,))

    def _pairs(self, leafset, spec):
        """(leaf-word, x, y) for every canonical name(x, y) over leafset,
        where spec is (name, A, B), x is of kind A and y of kind B."""
        name, a, b = spec
        keys, of_kind = self._keys, self.of_kind
        unordered = a == b and self.table[name] != NONE
        for left in itertools.combinations(sorted(leafset), self._kind_size[a]):
            left = frozenset(left)
            ys = of_kind(leafset - left, b)
            for x in of_kind(left, a):
                wx = keys[x][2]
                for y in ys:
                    wy = keys[y][2]
                    if unordered and wx > wy:
                        continue  # not canonical: the children swap
                    yield wx + wy, x, y

    def of_kind(self, leafset, kind):
        """Ids of every canonical subtree of the kind over leafset, a
        nonempty proper subset of 1..n, recorded the first time."""
        ids = self._groups.get((leafset, kind))
        if ids is None:
            spec = self._kind_specs[kind]
            if spec is None:
                (leaf,) = leafset
                ids = [self._leaf(leaf)]
            else:
                name, node = spec[0], self._node
                ids = [node((name, x, y), kind, w) for w, x, y in self._pairs(leafset, spec)]
            self._groups[leafset, kind] = ids
        return ids

    def _type_columns(self, t):
        """Leaf-word -> column for type t, enumerating the type the first time."""
        columns = self._columns[t]
        if columns is None:
            if self.n == 1:
                found = [((1,), 1)]
            else:
                spec, words = self._type_specs[t], self._words
                found = sorted((words.setdefault(w, w), (spec[0], x, y)) for w, x, y
                               in self._pairs(frozenset(range(1, self.n + 1)), spec))
            start = self.offsets[t]
            self._codes[t] = [code for _, code in found]
            columns = self._columns[t] = {w: start + r for r, (w, _) in enumerate(found)}
        return columns

    def type_of(self, c):
        """The type of column c."""
        return bisect.bisect_right(self.offsets, c) - 1

    def type_of_monomial(self, m):
        """The type of the monomial m, read from its key."""
        shape, ops, _ = m.key
        return self._type_of_key[shape, ops]

    def type_blocks(self):
        """The column range of every type, in type order.

        The association type of a monomial is its shape and op-word.
        Relabelling the leaves keeps both (two children whose order the
        leaves decide have equal shape and op-word), and any two monomials of
        one type differ by a relabelling, so each type is one S_n orbit.
        """
        offsets = self.offsets
        return [range(offsets[t], offsets[t + 1]) for t in range(len(offsets) - 1)]

    @property
    def monomials(self):
        """Every monomial, in column order."""
        if self._monomials is None:
            n = self.n
            for t in range(len(self._type_keys)):
                self._type_columns(t)
            trees = []
            for code in self.nodes:
                trees.append(code if code.__class__ is int
                             else (code[0], trees[code[1]], trees[code[2]]))
            out = []
            for t, (shape, ops) in enumerate(self._type_keys):
                for word, code in zip(self._columns[t], self._codes[t]):
                    tree = code if n == 1 else (code[0], trees[code[1]], trees[code[2]])
                    out.append(Monomial(tree, n, (shape, ops, word)))
            self._monomials = out
        return self._monomials

    def _join(self, name, a, b):
        """Signed id of the canonical form of name(a, b) over a proper subset,
        a and b signed ids; recorded if new.  An (anti)symmetric op puts the
        child with the smaller key first, an antisymmetric one negating."""
        neg = False
        if a < 0:
            a, neg = ~a, True
        if b < 0:
            b, neg = ~b, not neg
        keys, symmetry = self._keys, self.table[name]
        if symmetry != NONE and keys[a] > keys[b]:
            a, b = b, a
            if symmetry == ANTISYMMETRIC:
                neg = not neg
        i = self.node_id.get((name, a, b))
        if i is None:
            kind = self._kind
            i = self._node((name, a, b), self._kind_of_spec[name, kind[a], kind[b]],
                           keys[a][2] + keys[b][2])
        return ~i if neg else i

    def perm_table(self, image):
        """The index map of the permutation i -> image[i-1] of 1..n, n >= 2,
        built once per image tuple from the images of the leaves."""
        table = self._perm_tables.get(image)
        if table is None:
            table = self._perm_tables[image] = _IndexMap(self, self, _NodeImages(
                self, self, {i: self._leaf(j) for i, j in enumerate(image, 1)}))
        return table

    def perm_generator_tables(self):
        """The index map of the n-cycle (1 2 ... n), the one permutation an
        accepted row pushes in ``_build_basis``: one table from n = 2, where
        it is (2 1), and none at n = 1."""
        n = self.n
        return [self.perm_table(tuple(range(2, n + 1)) + (1,))] if n >= 2 else []

    def lift_tables(self):
        """Index maps arity n -> n+1 for all elementary consequence steps,
        into ``get_context(self.ops, self.n + 1)``.

        Per operation and orientation: multiplication by the fresh variable,
        then the substitutions x_i <- op(x_i, x_{n+1}) for i = 1..n.  At
        n = 1 the substitution is the multiplication, so it has no table.
        """
        if self._lift_tables is None:
            n = self.n
            target = get_context(self.ops, n + 1)
            same = {i: target._leaf(i) for i in range(1, n + 1)}
            fresh = target._leaf(n + 1)
            embedded = _NodeImages(self, target, same)
            tables = []
            for op in self.ops:
                for flip in ((False,) if op.symmetry != NONE else (False, True)):
                    tables.append(_IndexMap(self, target, embedded, (op.name, flip)))
                    for i in range(1, n + 1) if n > 1 else ():
                        g = (target._join(op.name, fresh, same[i]) if flip
                             else target._join(op.name, same[i], fresh))
                        tables.append(_IndexMap(self, target, _NodeImages(
                            self, target, {**same, i: g})))
            self._lift_tables = tables
            # the tables hold their target weakly, so keep it while they live:
            # they then still resolve after clear_cache drops it from the cache
            self._lift_target = target
        return self._lift_tables


class _ColumnIndex(dict):
    """Monomial -> column, filled on first lookup of each monomial.

    The context is held by a weak reference, since it holds this index.
    """

    __slots__ = ("_context",)

    def __init__(self, context):
        self._context = weakref.ref(context)

    def __missing__(self, m):
        ctx = self._context()
        c = self[m] = ctx._type_columns(ctx.type_of_monomial(m))[m.key[2]]
        return c


class _NodeImages(dict):
    """Source node id -> signed target node id, filled on first lookup.

    A leaf maps by ``leaf`` (source label -> signed target id), a node to
    the join of its children's images.  Both contexts are held by weak
    references, as in ``_IndexMap``.
    """

    __slots__ = ("_source", "_target", "_leaf")

    def __init__(self, source, target, leaf):
        self._source = weakref.ref(source)
        self._target = weakref.ref(target)
        self._leaf = leaf

    def __missing__(self, i):
        code = self._source().nodes[i]
        image = self[i] = (self._leaf[code] if code.__class__ is int
                           else self._target()._join(code[0], self[code[1]], self[code[2]]))
        return image


class _IndexMap(dict):
    """An index map column -> (image column, sign), filled on first lookup.

    ``img`` gives the target images of the source's proper nodes.  Without
    ``times_fresh`` a column op(a, b) maps to op(img[a], img[b]); with
    ``times_fresh`` = (op_name, flip) it maps to op_name(e, x_{n+1}), or
    op_name(x_{n+1}, e) if flip, where e is op(img[a], img[b]), the column
    embedded in the target.  ``_types`` maps each located column to the type
    of its image, which ``type_of`` reads without enumerating the type; the
    image column is resolved at once only if that type is enumerated
    already, and otherwise when it is looked up.  No leaf-word is kept.
    Both contexts are held by weak references: a context keeps its tables,
    so a table keeping its context would be a cycle.
    """

    __slots__ = ("_source", "_target", "_img", "_times_fresh", "_types")

    def __init__(self, source, target, img, times_fresh=None):
        self._source = weakref.ref(source)
        self._target = weakref.ref(target)
        self._img = img
        self._times_fresh = times_fresh
        self._types = {}

    def _locate(self, c, resolve):
        """The type of the image of column c, recorded in ``_types``, and the
        image column too if resolve or if that type is enumerated already.
        Ordered and signed as in ``MonomialContext._join``, inlined here."""
        source, target, img = self._source(), self._target(), self._img
        st = bisect.bisect_right(source.offsets, c) - 1  # the source column's type
        if source._codes[st] is None:
            source._type_columns(st)
        code = source._codes[st][c - source.offsets[st]]
        if self._times_fresh is None:
            name, a, b = code[0], img[code[1]], img[code[2]]
        else:
            e = (target.node_id[code] if code.__class__ is int
                 else target._join(code[0], img[code[1]], img[code[2]]))
            name, flip = self._times_fresh
            fresh = target.node_id[target.n]
            a, b = (fresh, e) if flip else (e, fresh)
        neg = False
        if a < 0:
            a, neg = ~a, True
        if b < 0:
            b, neg = ~b, not neg
        keys, symmetry = target._keys, target.table[name]
        if symmetry != NONE and keys[a] > keys[b]:
            a, b = b, a
            if symmetry == ANTISYMMETRIC:
                neg = not neg
        kind = target._kind
        t = self._types[c] = target._type_of_spec[name, kind[a], kind[b]]
        columns = target._type_columns(t) if resolve else target._columns[t]
        if columns is not None:
            j = columns[keys[a][2] + keys[b][2]]
            self[c] = (j, -1) if neg else (j, 1)
        return t

    def type_of(self, c):
        """The type of the image of column c."""
        return self._types[c] if c in self._types else self._locate(c, False)

    def __missing__(self, c):
        self._locate(c, True)
        return self[c]


def get_context(ops, n) -> MonomialContext:
    """The arity-n context of a signature, built in the first caller's op order.

    Keyed by the sorted (name, symmetry) pairs: the columns do not depend on
    the order the operations are declared in.
    """
    key = (tuple(sorted((op.name, op.symmetry) for op in ops)), n)
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        if n < 1:
            raise EngineError("arity must be positive")
        ctx = _CONTEXTS[key] = MonomialContext(ops, n)
    return ctx


# ---------------------------------------------------------------------------
# rows

def element_to_row(e: Element, ctx: MonomialContext, delta, domain, killed=()):
    """Write an element as a denominator-free row in ctx's column order,
    without its terms in a type in killed (each is evaluated first, so a
    pole at delta still raises)."""
    terms = e.terms if delta is None else {m: c.eval_at(delta) for m, c in e.terms.items()}
    if killed:
        terms = {m: c for m, c in terms.items() if ctx.type_of_monomial(m) not in killed}
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


def apply_index_map(row, table, neg, killed=()):
    """The image of row under a table column -> (image column, sign), without
    the entries whose image lies in a type in killed (the unit rows of such a
    type eliminate them); killed needs an ``_IndexMap``, read directly."""
    out, types = {}, table._types if killed else None
    for c, v in row.items():
        if killed and (types[c] if c in types else table._locate(c, False)) in killed:
            continue
        j, s = table[c]
        out[j] = v if s == 1 else neg(v)
    return out


# ---------------------------------------------------------------------------
# consequence spaces

class ConsequenceSpace:
    """The multilinear degree-n component of a variety's ideal of consequences."""

    def __init__(self, variety, n, context, basis):
        self.variety = variety
        self.n = n
        self.context = context
        self.basis = basis
        self._unit_types = None

    def unit_types(self):
        """The types all of whose columns hold unit rows.

        A type holds unit rows at all of its columns or at none, since the
        span is S_n-invariant, so its first column decides.
        """
        if self._unit_types is None:
            unit = self.basis.unit
            self._unit_types = frozenset(
                t for t, c in enumerate(self.context.offsets[:-1]) if unit[c])
        return self._unit_types

    @property
    def monomials(self):
        return self.context.monomials

    @property
    def rank(self):
        return self.basis.rank

    @property
    def dim(self):
        return self.context.ncols - self.rank

    def __repr__(self):
        return "ConsequenceSpace(n=%d, rank=%d of %d, delta=%s)" % (
            self.n, self.rank, self.context.ncols, self.variety.delta)


_SPACE_CACHE = {}


def clear_cache():
    _SPACE_CACHE.clear()
    _CONTEXTS.clear()
    MONOMIALS.clear()


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
            v, n, get_context(v.ops, n), _build_basis(v, n))
    return space


# the sample points of d: none is 0, +-1, 1/2 or 1/3, where the catalog's
# d-families have a pole or a jump in dimension
_SAMPLE_POINTS = (Fraction(51, 13), Fraction(7, 5), Fraction(64, 7))


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
    for q in _SAMPLE_POINTS:
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
    process.  One heap queues the seed rows (the images of each arity-n
    identity's row under the (n-1)! permutations that fix n, and the lift
    rows) and, for each accepted row, its image under c = (1 2 ... n); every
    image is a row mapped through a context index map (``apply_index_map``).

    That is exact by the cosets of S_{n-1}.  The identity images are whole
    S_{n-1} orbits, and lifts commute with S_{n-1} up to relabelling the
    lift (sigma L_i = L_sigma(i) sigma), so the lift span L(V_{n-1}) is
    S_{n-1}-invariant too: the seed span W is, and so is each killed type.
    Every accepted row pushes its c image, and c maps each killed type to
    itself, so the final span U is c-invariant and holds every c^k W.  S_n
    is the disjoint union of the cosets c^k S_{n-1}, k = 0..n-1, so S_n W
    is the sum of the c^k W, and U, which lies in S_n W, is S_n W.  At
    n = 2, c is (2 1) and S_1 is trivial.  A pushed image lies in the final
    span but not always in the span of its time, so the push rule changes
    the work done and its order, not the span or the canonical rows.

    Candidates go in largest leading column first: the closure always
    inserts the queued row with the largest leading column, ties in queue
    order.  A stored row with pivot P holds no column below P, so a new row
    whose pivot lies below every stored pivot is back-substituted into none
    of them; this order keeps most new pivots there, which saves
    eliminations and, over Z[d], keeps the degrees of the stored rows low.
    The span, and so the canonical rows, do not depend on the order.

    Unit rows are placed a whole association type at a time.  The span is
    S_n-invariant and a type is one S_n orbit of columns (see
    ``MonomialContext.type_blocks``), so once e_c lies in the span, the unit
    rows of every column of c's type do too.  An accepted insert that leaves
    a unit row kills its type: the type's unit rows go in, and its c image
    is not pushed, because it lies in the type.  The unit rows of level n-1
    are whole types as well (``ConsequenceSpace.unit_types``).  Of each such
    type one column is lifted through every lift table, and the type each
    image lands in is killed; by sigma L_i = L_sigma(i) sigma the lifts of
    the other columns land in the same types.  The other rows of level n-1
    are lifted one by one.

    Every candidate drops its entries in killed types (``apply_index_map``).
    The unit rows there would eliminate exactly those entries, so each
    insert reduces to the same row and is accepted or rejected as before.
    A pending image may keep entries in a type killed after it was pushed,
    but it differs from the image without them by a vector in killed types,
    as do its own images, since a permutation maps each type to itself.  So
    neither the span nor any basis state changes, and a type killed before
    any candidate reaches it is never enumerated.
    """
    domain = v.domain
    ctx = get_context(v.ops, n)
    basis = RowBasis(ctx.ncols, domain)
    unit, neg = basis.unit, domain.neg
    blocks = ctx.type_blocks()
    killed = set()

    def kill(t):
        """Insert the unit rows of type t."""
        if t not in killed:
            killed.add(t)
            basis.insert_unit_range(blocks[t].start, blocks[t].stop)

    def place(row):
        """Insert row; True iff it was accepted and its c image is to be pushed."""
        if not basis.insert(row):
            return False
        p = basis.last_pivot
        if unit[p]:
            kill(ctx.type_of(p))
            return False
        return True

    cycle = ctx.perm_generator_tables()  # [c], or [] at n = 1
    # every candidate of the level, largest leading column first; ties in
    # queue order
    heap, order = [], itertools.count()

    def queue(row):
        if row:
            heapq.heappush(heap, (-min(row), next(order), row))

    for e in v.identities:
        if e.arity == n:
            row = element_to_row(e, ctx, v.delta, domain)
            queue(row)  # the first permutation is the identity
            for p in itertools.islice(itertools.permutations(range(1, n)), 1, None):
                queue(apply_index_map(row, ctx.perm_table(p + (n,)), neg))
    if any(e.arity < n for e in v.identities):
        prev = consequences(v, n - 1)
        lifts = prev.context.lift_tables()
        for t in sorted(prev.unit_types()):
            for table in lifts:
                kill(table.type_of(prev.context.offsets[t]))
        for table in lifts:
            for row in prev.basis.rows.values():
                queue(apply_index_map(row, table, neg, killed))
    while heap:
        row = heapq.heappop(heap)[2]
        if place(row):
            for table in cycle:
                queue(apply_index_map(row, table, neg, killed))
    return basis


def dim_multilinear(v: Variety, n: int, mode: str = "exact") -> int:
    """Monomial-space dimension minus the rank of consequences(v, n)."""
    return consequences(v, n, mode).dim


def is_consequence(v: Variety, target: Element, n: int, mode: str = "exact") -> bool:
    """True iff target lies in the span of consequences(v, n, mode).

    The target is specialised at the space's own d, which in sampled mode is
    the sample point.  In exact mode its terms in a type of unit rows are
    dropped before their columns are looked up: those rows reduce them to
    zero, and the query enumerates no such type.
    """
    if target.is_zero():
        return True  # zero lies in every span, whatever n is
    if target.arity != n:
        raise EngineError("target arity %d does not match n=%d" % (target.arity, n))
    space = consequences(v, n, mode)
    try:
        return _in_span(v, space, target)
    except KeyError:
        # only a monomial over an operation v lacks has no type; checking the
        # operations first would cost every query a pass over its terms
        missing = target.op_names() - {op.name for op in v.ops}
        if not missing:
            raise
        raise EngineError("target uses undeclared operations %s" % sorted(missing)) from None


def _in_span(v: Variety, space: ConsequenceSpace, target: Element) -> bool:
    basis, delta, ctx = space.basis, space.variety.delta, space.context
    if delta != v.delta:
        # a sample point: the target's primitive row over Z[d] spans the same
        # line over Q(d), and has neither a pole nor a common root there
        prim = PolyDomain.reduce_row_full(element_to_row(target, ctx, None, PolyDomain))
        return basis.contains(to_row({c: peval(p, delta) for c, p in prim.items()}, ZZDomain))
    units = space.unit_types()
    if delta is not None:
        return basis.contains(element_to_row(target, ctx, delta, basis.domain, units))
    row = element_to_row(target, ctx, None, PolyDomain, units)
    if basis.domain is PolyDomain:
        return basis.contains(row)
    # a d-free span holds the target over Q(d) iff it holds each of the
    # target's d-power components
    return all(basis.contains({c: p[i] for c, p in row.items() if len(p) > i and p[i]})
               for i in range(max(map(len, row.values()), default=0)))


def equivalent(v1: Variety, v2: Variety, n: int, mode: str = "exact") -> bool:
    """True iff the two varieties have equal consequence spans at arity n.

    In sampled mode both spans are the exact spans at one shared sample point
    of d (see ``_sampled_spaces``).
    """
    if v1.signature() != v2.signature():
        raise EngineError("operation signature mismatch: %s vs %s"
                          % (v1.signature(), v2.signature()))
    if v1.uses_delta() and v2.uses_delta() and v1.delta != v2.delta:
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
    """``exprs.read_directives`` lines, bare ``param delta`` too, and ``identity:`` lines."""
    ops, delta, rest = read_directives(text, EngineError, generic_delta=True)
    if not ops:
        raise EngineError("variety file declares no operations")
    identities = []
    for lineno, line in rest:
        if not line.startswith("identity:"):
            raise EngineError("line %d: unrecognized directive %r" % (lineno, line))
        try:
            e = parse_expr(line[len("identity:"):], ops)
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
