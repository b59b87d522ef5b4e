"""Multilinear monomials over binary operations with declared symmetry.

A monomial is a leaf-labelled binary tree; internal nodes carry operation
symbols, leaves carry variable indices 1..n, each exactly once.  Trees are
stored as nested tuples: a leaf is an int, a node is ``(op_name, left, right)``.
Canonical form orders the children of every symmetric or antisymmetric node by
the fixed total order on subtrees (shape, then operation labels, then the leaf
word); reordering under an antisymmetric node flips the sign.

Elements are finite sums of canonical monomials with coefficients in Q(d);
an identity is an element asserted to vanish.

A raw tree becomes canonical in one place: ``normalize_tree(tree, table)``,
with ``table`` the name -> symmetry dict of ``ops_table``, returns the sign
and the ``Monomial``.  ``Monomial(tree, arity, key)`` only wraps a tree that
is already canonical.  Every rewrite of an element (relabelling,
substitution, polarization, ...) produces raw (tree, coeff) pairs and sums
them through ``_collect``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .scalar import RationalFunction

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"
NONE = "none"

_SYMMETRIES = (SYMMETRIC, ANTISYMMETRIC, NONE)


class TermError(ValueError):
    pass


class OpSymbol:
    """An operation name and its symmetry; immutable, equal by value."""

    __slots__ = ("name", "symmetry")

    def __init__(self, name, symmetry):
        if symmetry not in _SYMMETRIES:
            raise TermError("unknown symmetry %r" % symmetry)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "symmetry", symmetry)

    def __setattr__(self, *args):
        raise AttributeError("OpSymbol is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return OpSymbol, (self.name, self.symmetry)

    def __eq__(self, other):
        if other.__class__ is not OpSymbol:
            return NotImplemented
        return self.name == other.name and self.symmetry == other.symmetry

    def __hash__(self):
        return hash((self.name, self.symmetry))

    def __repr__(self):
        return "OpSymbol(name=%r, symmetry=%r)" % (self.name, self.symmetry)

    def __str__(self):
        return "%s(%s)" % (self.name, self.symmetry)


DOT = OpSymbol("dot", SYMMETRIC)
BRACKET = OpSymbol("bracket", ANTISYMMETRIC)
PLAIN = OpSymbol("m", NONE)


def _tree_key(tree):
    """Total-order key: left-depth-first shape, then op labels, then leaves.

    Internal nodes encode as 0 and leaves as 1, so compound subtrees precede
    plain variables; canonical form therefore writes x{y,z} as dot(bracket,var).
    """
    shape = []
    ops = []
    leaves = []
    stack = [tree]
    while stack:
        t = stack.pop()
        if isinstance(t, int):
            shape.append(1)
            leaves.append(t)
        else:
            shape.append(0)
            ops.append(t[0])
            stack.append(t[2])
            stack.append(t[1])
    return (tuple(shape), tuple(ops), tuple(leaves))


class Monomial:
    """A canonical multilinear monomial; obtain one through ``normalize``.

    The constructor trusts its caller: ``tree`` is already canonical, and
    ``key`` is its ``_tree_key``.
    """

    __slots__ = ("tree", "arity", "_key", "_hash")

    def __init__(self, tree, arity, key):
        self.tree = tree
        self.arity = arity
        self._key = key
        self._hash = hash(key)

    @property
    def key(self):
        return self._key

    def leaves(self):
        return list(self._key[2])

    def op_names(self):
        return set(self._key[1])

    def __eq__(self, other):
        return isinstance(other, Monomial) and self._key == other._key

    def __lt__(self, other):
        return self._key < other._key

    def __hash__(self):
        return self._hash

    def __str__(self):
        return format_tree(self.tree)

    def __repr__(self):
        return "Monomial(%s)" % self


def format_tree(tree) -> str:
    if isinstance(tree, int):
        return "x%d" % tree
    return "%s(%s,%s)" % (tree[0], format_tree(tree[1]), format_tree(tree[2]))


def ops_table(ops) -> dict:
    table = {}
    for op in ops:
        if op.name in table:
            raise TermError("operation %r declared twice" % op.name)
        table[op.name] = op.symmetry
    return table


# key -> the Monomial normalize_tree returns for it, so that the terms of
# many elements share one Monomial per key; engine.clear_cache empties it
MONOMIALS = {}


def normalize_tree(tree, table, fragment=False):
    """Canonicalize a raw tree over the name -> symmetry ``table``.

    Returns (sign, Monomial), the Monomial interned by key in ``MONOMIALS``.
    With fragment=True leaf labels need only be distinct, which is the shape
    substitution arguments come in; otherwise they must be exactly 1..n.
    """
    sign, canon = _normalize_rec(tree, table)
    key = _tree_key(canon)
    leaves = key[2]
    if fragment:
        if len(set(leaves)) != len(leaves):
            raise TermError("repeated variable in monomial: %r" % (tree,))
    elif sorted(leaves) != list(range(1, len(leaves) + 1)):
        raise TermError("monomial is not multilinear in x1..xn: %r" % (tree,))
    mono = MONOMIALS.get(key)
    if mono is None:
        mono = MONOMIALS[key] = Monomial(canon, len(leaves), key)
    return sign, mono


def _normalize_rec(tree, table):
    if isinstance(tree, int):
        return 1, tree
    name, left, right = tree
    try:
        sym = table[name]
    except KeyError:
        raise TermError("unknown operation %r" % name) from None
    sl, left = _normalize_rec(left, table)
    sr, right = _normalize_rec(right, table)
    sign, left, right = _order_children(sym, left, right)
    return sl * sr * sign, (name, left, right)


def _order_children(sym, left, right):
    """(sign, left, right) with two canonical children in canonical order.

    An (anti)symmetric operation puts the child with the smaller
    ``_tree_key`` first; under an antisymmetric one the swap flips the sign.
    """
    if sym != NONE and _tree_key(left) > _tree_key(right):
        return (-1 if sym == ANTISYMMETRIC else 1), right, left
    return 1, left, right


def normalize(tree, ops, fragment=False):
    """Public canonicalization: (sign, Monomial) for a raw labelled tree."""
    return normalize_tree(tree, ops_table(ops), fragment=fragment)


# ---------------------------------------------------------------------------
# elements

class Element:
    """A finite Q(d)-combination of canonical monomials of one arity."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms=None):
        self.arity = arity
        self.terms = {}
        if terms:
            for mono, coeff in (terms.items() if isinstance(terms, dict) else terms):
                self._add(mono, coeff)

    def _add(self, mono: Monomial, coeff):
        if not isinstance(coeff, RationalFunction):
            coeff = RationalFunction.from_fraction(coeff) if not isinstance(coeff, int) \
                else RationalFunction((coeff,) if coeff else ())
        if mono.arity != self.arity:
            raise TermError("arity mismatch: %d vs %d" % (mono.arity, self.arity))
        cur = self.terms.get(mono)
        new = coeff if cur is None else cur + coeff
        if new.is_zero():
            self.terms.pop(mono, None)
        else:
            self.terms[mono] = new

    def is_zero(self) -> bool:
        return not self.terms

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].key)

    def op_names(self):
        names = set()
        for m in self.terms:
            names |= m.op_names()
        return names

    def scale(self, c) -> "Element":
        out = Element(self.arity)
        for m, v in self.terms.items():
            out._add(m, v * c)
        return out

    def __add__(self, other: "Element") -> "Element":
        if self.arity != other.arity:
            raise TermError("arity mismatch in addition")
        out = Element(self.arity, dict(self.terms))
        for m, v in other.terms.items():
            out._add(m, v)
        return out

    def __sub__(self, other: "Element") -> "Element":
        return self + other.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        if not self.terms and not other.terms:
            return True  # the zero element, whatever arity tag it carries
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity if self.terms else 0,
                     frozenset(self.terms.items())))

    def __str__(self):
        from .exprs import format_element
        return format_element(self)

    def __repr__(self):
        return "Element(%s)" % self


def _collect(arity, pairs, table):
    """The Element of the given arity summing coeff * tree over raw pairs."""
    out = Element(arity)
    for tree, coeff in pairs:
        sign, mono = normalize_tree(tree, table)
        out._add(mono, coeff if sign == 1 else -coeff)
    return out


# ---------------------------------------------------------------------------
# permutations

class Permutation:
    """A bijection of 1..n given by its image tuple."""

    __slots__ = ("image",)

    def __init__(self, image):
        image = tuple(image)
        if sorted(image) != list(range(1, len(image) + 1)):
            raise TermError("not a permutation of 1..n: %r" % (image,))
        self.image = image

    @staticmethod
    def cycle(n):
        """The n-cycle (1 2 ... n)."""
        return Permutation(list(range(2, n + 1)) + [1]) if n > 1 else Permutation((1,))

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self*other)(i) = self(other(i))."""
        return Permutation(tuple(self.image[j - 1] for j in other.image))

    def sign(self) -> int:
        img = self.image
        sign = 1
        seen = [False] * len(img)
        for i in range(len(img)):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = img[j] - 1
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return "Permutation(%r)" % (self.image,)


def _relabel(tree, mapping):
    if isinstance(tree, int):
        return mapping[tree]
    return (tree[0], _relabel(tree[1], mapping), _relabel(tree[2], mapping))


def act(sigma: Permutation, e: Element, ops) -> Element:
    """Replace each leaf label i by sigma(i) and renormalize."""
    if len(sigma.image) != e.arity:
        raise TermError("permutation arity %d does not match element arity %d"
                        % (len(sigma.image), e.arity))
    table = ops_table(ops)
    mapping = {i: sigma(i) for i in range(1, e.arity + 1)}
    return _collect(e.arity, ((_relabel(mono.tree, mapping), coeff)
                              for mono, coeff in e.terms.items()), table)


def act_monomial(sigma: Permutation, mono: Monomial, table):
    mapping = {i: sigma(i) for i in range(1, mono.arity + 1)}
    return normalize_tree(_relabel(mono.tree, mapping), table)


# ---------------------------------------------------------------------------
# substitution and multiplication by a fresh variable

def substitute_tree(tree, var, g_tree):
    if isinstance(tree, int):
        return g_tree if tree == var else tree
    return (tree[0], substitute_tree(tree[1], var, g_tree),
            substitute_tree(tree[2], var, g_tree))


def substitute(e: Element, var: int, g: Monomial, ops) -> Element:
    """Replace x_var by the monomial g everywhere, renumber to 1..n'.

    Variables of g other than x_var itself must be disjoint from e's; the
    result is renumbered to consecutive indices preserving relative order.
    """
    table = ops_table(ops)
    g_leaves = set(g.leaves())
    clash = (g_leaves - {var}) & set(range(1, e.arity + 1))
    if clash:
        raise TermError("substitution variables %s collide with element variables" % sorted(clash))
    new_labels = sorted((set(range(1, e.arity + 1)) - {var}) | g_leaves)
    renum = {old: i + 1 for i, old in enumerate(new_labels)}
    return _collect(len(new_labels),
                    ((_relabel(substitute_tree(mono.tree, var, g.tree), renum), coeff)
                     for mono, coeff in e.terms.items()), table)


def multiply_by_var(e: Element, op: OpSymbol, position: str = "right") -> Element:
    """Wrap every monomial as op(m, x_{n+1}) (or mirrored for position left)."""
    if position not in ("left", "right"):
        raise TermError("position must be left or right")
    fresh = e.arity + 1
    out = Element(fresh)
    for mono, coeff in e.terms.items():
        # subtrees are already canonical, only the new root needs ordering
        left, right = (mono.tree, fresh) if position == "right" else (fresh, mono.tree)
        sign, left, right = _order_children(op.symmetry, left, right)
        tree = (op.name, left, right)
        out._add(Monomial(tree, fresh, _tree_key(tree)), coeff if sign == 1 else -coeff)
    return out


# ---------------------------------------------------------------------------
# multilinearization (full polarization, characteristic zero)

def multilinearize(e, ops) -> list:
    """Full polarization family of a (possibly non-multilinear) element.

    The input is given as a list of (raw_tree, coeff) pairs; leaf labels may
    repeat.  Each multihomogeneous component is polarized separately: every
    variable of multiplicity k is spread over k fresh variables in all k!
    ways.  Vanishing of the returned family is equivalent over Q to vanishing
    of the input.
    """
    table = ops_table(ops)
    components = {}
    for tree, coeff in e:
        degree = {}
        for v in _tree_key(tree)[2]:
            degree[v] = degree.get(v, 0) + 1
        key = tuple(sorted(degree.items()))
        components.setdefault(key, []).append((tree, coeff))
    out = []
    for key, part in sorted(components.items()):
        degree = dict(key)
        variables = sorted(degree)
        blocks = {}
        base = 1
        for v in variables:
            blocks[v] = list(range(base, base + degree[v]))
            base += degree[v]
        out.append(_collect(base - 1, ((_relabel_occurrences(tree, assign), coeff)
                                       for tree, coeff in part
                                       for assign in _occurrence_assignments(tree, blocks)),
                            table))
    return out


def _occurrence_assignments(tree, blocks):
    """Yield per-occurrence label assignments: lists consumed left to right."""
    positions = {}
    for idx, v in enumerate(_tree_key(tree)[2]):
        positions.setdefault(v, []).append(idx)
    per_var = []
    for v, occ in sorted(positions.items()):
        per_var.append((occ, list(itertools.permutations(blocks[v]))))
    for choice in itertools.product(*(perms for _, perms in per_var)):
        assign = {}
        for (occ, _), labels in zip(per_var, choice):
            for pos, lab in zip(occ, labels):
                assign[pos] = lab
        yield assign


def _relabel_occurrences(tree, assign, counter=None):
    if counter is None:
        counter = itertools.count()
    if isinstance(tree, int):
        return assign[next(counter)]
    return (tree[0], _relabel_occurrences(tree[1], assign, counter),
            _relabel_occurrences(tree[2], assign, counter))


# ---------------------------------------------------------------------------
# polarization and depolarization of expressions

def polarize_expr(e: Element) -> Element:
    """Rewrite a one-operation element over {dot, bracket}: ab -> a o b + [a,b]."""
    names = e.op_names()
    if len(names) > 1:
        raise TermError("polarize_expr expects a single operation, got %s" % sorted(names))
    plain = names.pop() if names else PLAIN.name
    rules = {plain: ((DOT.name, False, 1), (BRACKET.name, False, 1))}
    return _collect(e.arity, _expand_terms(e, rules), ops_table((DOT, BRACKET)))


def depolarize_expr(e: Element, dot=DOT, bracket=BRACKET) -> Element:
    """Expand dot/bracket into the free one-operation space over ``m``.

    dot(a,b) -> (ab+ba)/2 and bracket(a,b) -> (ab-ba)/2, exactly.
    """
    if not e.op_names() <= {dot.name, bracket.name}:
        raise TermError("element uses operations outside {%s, %s}" % (dot.name, bracket.name))
    half = Fraction(1, 2)
    m = PLAIN.name
    rules = {dot.name: ((m, False, half), (m, True, half)),
             bracket.name: ((m, False, half), (m, True, -half))}
    return _collect(e.arity, _expand_terms(e, rules), ops_table((PLAIN,)))


def _expand_terms(e, rules):
    return ((tree, coeff * weight) for mono, coeff in e.terms.items()
            for tree, weight in _expand_tree(mono.tree, rules))


def _expand_tree(tree, rules):
    """Raw (tree, weight) pairs: every node op(a, b) expanded by rules[op].

    ``rules[op]`` lists (new_op, swapped, weight); the node becomes the sum of
    weight * new_op(a, b), or weight * new_op(b, a) where swapped.
    """
    if isinstance(tree, int):
        return [(tree, 1)]
    rule = rules.get(tree[0])
    if rule is None:
        raise TermError("unexpected operation %r in one-operation element" % tree[0])
    out = []
    for lt, lw in _expand_tree(tree[1], rules):
        for rt, rw in _expand_tree(tree[2], rules):
            for new_op, swapped, weight in rule:
                out.append(((new_op, rt, lt) if swapped else (new_op, lt, rt), lw * rw * weight))
    return out
