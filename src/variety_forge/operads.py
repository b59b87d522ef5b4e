"""Koszul duals of binary quadratic varieties, Hilbert-series tests.

A binary quadratic presentation is a ``Variety`` whose generators are
symmetric or antisymmetric and whose identities all have arity 3; its Koszul
dual is again such a ``Variety``.  The dual is computed in the arity-3
component: the relations span the arity-3 consequence space
(``engine.consequences``, which closes them under the S3 action), and the
dual takes its orthogonal complement under the sign-twisted pairing that
couples each monomial with its operation-swapped mirror weighted by the sign
of its leaf word.  The pairing normalization is calibrated on the self-dual
linkage family and cross-checked on the mixed-Poisson relation matrix, then
frozen by unit tests.

Hilbert series here carry the convention a_n = (-1)^n dim P(n) / n!, so a
Koszul operad satisfies H(H!(t)) = t; a nonzero deviation coefficient
certifies non-Koszulness.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .engine import (MAX_ARITY, ArityOverflowError, Variety, apply_index_map,
                     at_sample_point, consequences, dim_multilinear, get_context,
                     row_to_element)
from .linalg import nullspace
from .scalar import join_signed, signed_term
from .terms import (ANTISYMMETRIC, BRACKET, DOT, NONE, SYMMETRIC, Monomial,
                    OpSymbol, Permutation, normalize, normalize_tree)

_F = Fraction

# free_delta_p_basis lists (n-1)! Lie words, and each arity costs about ten
# times the one before: n = 9 (40,320 words) takes about 2 s at 80 MB peak RSS
MAX_FREE_BASIS_ARITY = 9


class OperadError(ValueError):
    pass


def _leaf_sign(mono: Monomial) -> int:
    return Permutation(mono.leaves()).sign()


def _dual_signature(generators):
    """Dual generators and the name map applied to monomial labels."""
    syms = sorted(op.symmetry for op in generators)
    if len(generators) == 1:
        (op,) = generators
        flipped = SYMMETRIC if op.symmetry == ANTISYMMETRIC else ANTISYMMETRIC
        return (OpSymbol(op.name, flipped),), {op.name: op.name}
    if len(generators) == 2 and syms == [ANTISYMMETRIC, SYMMETRIC]:
        # one generator of each kind: flipping the symmetries and renaming
        # keeps the dual on the same signature, with the operation names
        # swapped inside every monomial
        a = next(op for op in generators if op.symmetry == SYMMETRIC)
        b = next(op for op in generators if op.symmetry == ANTISYMMETRIC)
        return tuple(generators), {a.name: b.name, b.name: a.name}
    raise OperadError("unsupported generator signature for Koszul duality")


def _swap_ops(tree, name_map):
    if isinstance(tree, int):
        return tree
    return (name_map[tree[0]], _swap_ops(tree[1], name_map),
            _swap_ops(tree[2], name_map))


def _check_quadratic(v: Variety):
    """Raise OperadError unless v is a binary quadratic presentation."""
    for e in v.identities:
        if e.arity != 3:
            raise OperadError("variety is not binary quadratic: identity of arity %d"
                              % e.arity)
    for op in v.ops:
        if op.symmetry == NONE:
            raise OperadError(
                "generator %r carries no symmetry; only symmetric or "
                "antisymmetric binary generators are supported" % op.name)


def koszul_dual(v: Variety) -> Variety:
    """Dual presentation on the sign-twisted orthogonal complement."""
    _check_quadratic(v)
    dual_ops, name_map = _dual_signature(v.ops)
    dual_ctx = get_context(dual_ops, 3)
    space = consequences(v, 3)
    if space.dim == 0:
        raise OperadError("relations span the whole arity-3 space")

    twisted = []
    for mono in space.monomials:
        sign, img = normalize_tree(_swap_ops(mono.tree, name_map), dual_ctx.table)
        twisted.append((dual_ctx.index[img], sign * _leaf_sign(mono)))
    domain = space.basis.domain
    m_rows = [apply_index_map(row, twisted, domain.neg)
              for _, row in space.basis.items()]
    kernel = nullspace(m_rows, len(dual_ctx.monomials), domain)
    relations = tuple(row_to_element(row, dual_ctx.monomials, 3)
                      for row in kernel.field_rows())
    return Variety(dual_ops, relations, delta=v.delta, name=v.name + "!")


# ---------------------------------------------------------------------------
# Hilbert series

def hilbert_series(dims):
    """(a_1, ..., a_N) with a_n = (-1)^n dim P(n) / n!, from dims = (dim P(1), ..., dim P(N))."""
    coeffs = []
    fact = 1
    for n, d in enumerate(dims, 1):
        fact *= n
        coeffs.append(_F((-1) ** n * d, fact))
    return tuple(coeffs)


def compose(f, g):
    """f(g(t)) through the shorter order; f and g are coefficient tuples
    (a_1, ..., a_N), with no constant term."""
    order = min(len(f), len(g))
    out = [_F(0)] * (order + 1)
    gpoly = [_F(0)] + list(g[:order])
    power = [_F(0)] * (order + 1)
    power[0] = _F(1)
    for k in range(1, order + 1):
        power = _trunc_mul(power, gpoly, order)
        a = f[k - 1]
        if a:
            for i in range(order + 1):
                out[i] += a * power[i]
    return tuple(out[1:])


def _format_series(coeffs):
    return join_signed([signed_term(c, "t", i) for i, c in enumerate(coeffs, 1) if c])


def _trunc_mul(a, b, order):
    out = [_F(0)] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if i + j > order:
                    break
                if y:
                    out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# Koszulness witness

class KoszulVerdict:
    """H(t), H!(t) and H(H!(t)) through t^N from dim P(n) and dim P!(n), n = 1..N."""

    def __init__(self, name, dims, dual_dims, probabilistic=False):
        self.name = name
        self.dims = tuple(dims)
        self.dual_dims = tuple(dual_dims)
        self.order = len(self.dims)
        self.probabilistic = probabilistic
        self.series = hilbert_series(self.dims)
        self.dual_series = hilbert_series(self.dual_dims)
        self.composed = compose(self.series, self.dual_series)
        # the first nonzero coefficient of H(H!(t)) - t, if any
        diff = [c - 1 if n == 1 else c for n, c in enumerate(self.composed, 1)]
        self.deviation_order, self.deviation = next(
            ((n, c) for n, c in enumerate(diff, 1) if c), (None, None))
        self.consistent = self.deviation_order is None

    def to_lines(self):
        lines = ["name=%s" % (self.name or "?"),
                 "order=%d" % self.order,
                 "dims=%s" % ",".join(str(d) for d in self.dims),
                 "dual_dims=%s" % ",".join(str(d) for d in self.dual_dims),
                 "probabilistic=%s" % ("yes" if self.probabilistic else "no")]
        if self.consistent:
            lines.append("verdict=consistent with Koszul through order %d" % self.order)
        else:
            lines.append("deviation_order=%d" % self.deviation_order)
            lines.append("deviation=%s" % self.deviation)
            lines.append("verdict=not Koszul")
        return lines

    def __str__(self):
        head = "Hilbert-series Koszulness test for %s through t^%d%s" % (
            self.name or "?", self.order,
            " (probabilistic dims)" if self.probabilistic else "")
        body = ["  dim P(n), n=1..%d:  %s" % (self.order, list(self.dims)),
                "  dim P!(n), n=1..%d: %s" % (self.order, list(self.dual_dims)),
                "  H(t)   = %s" % _format_series(self.series),
                "  H!(t)  = %s" % _format_series(self.dual_series),
                "  H(H!(t)) = %s" % _format_series(self.composed)]
        if self.consistent:
            body.append("  consistent with Koszul through order %d" % self.order)
        else:
            body.append("  NOT Koszul: deviation %s at t^%d"
                        % (self.deviation, self.deviation_order))
        return "\n".join([head] + body)


def koszulness_witness(v: Variety, order: int, mode: str = "exact") -> KoszulVerdict:
    """Compare H(H!(t)) with t using engine-computed dimensions on both sides."""
    if order < 1:
        raise OperadError("order must be positive")
    if order > MAX_ARITY:
        raise ArityOverflowError("order %d exceeds the arity guard %d: the test needs "
                                 "dim P(n) for every n up to the order" % (order, MAX_ARITY))
    dual = koszul_dual(v)
    dims = [dim_multilinear(v, n, mode) for n in range(1, order + 1)]
    dual_dims = [dim_multilinear(dual, n, mode) for n in range(1, order + 1)]
    return KoszulVerdict(v.name, dims, dual_dims, probabilistic=at_sample_point(v, mode))


# ---------------------------------------------------------------------------
# free-algebra basis families for the self-dual linkage variety

def _lyndon_multilinear(letters):
    """Standard-bracketing basis monomials: one per word starting at the min."""
    letters = sorted(letters)
    first, rest = letters[0], letters[1:]
    out = []
    for perm in itertools.permutations(rest):
        word = (first,) + perm
        out.append(_standard_bracketing(word))
    return out


def _standard_bracketing(word):
    """Bracketing of a Lyndon word of distinct letters (it starts with its
    least letter): split at its longest proper Lyndon suffix, which starts
    at the least letter of the tail."""
    if len(word) == 1:
        return word[0]
    split = word.index(min(word[1:]))
    return ("bracket", _standard_bracketing(word[:split]),
            _standard_bracketing(word[split:]))


def _canonical(tree, ops):
    sign, mono = normalize(tree, ops, fragment=True)
    return mono


def _sorted_product(letters):
    letters = sorted(letters)
    tree = letters[0]
    for v in letters[1:]:
        tree = ("dot", tree, v)
    return tree


class FreeBasisReport:
    def __init__(self, n, families):
        self.n = n
        self.families = families  # list of (name, [Monomial])

    @property
    def counts(self):
        return tuple(len(monos) for _, monos in self.families)

    @property
    def total(self):
        return sum(self.counts)

    def __str__(self):
        head = "free basis, multilinear arity %d: %s = %d" % (
            self.n, " + ".join(str(c) for c in self.counts), self.total)
        lines = [head]
        for name, monos in self.families:
            lines.append("  %s (%d):" % (name, len(monos)))
            for m in monos:
                lines.append("    %s" % m)
        return "\n".join(lines)


def free_delta_p_basis(n: int) -> FreeBasisReport:
    """Multilinear basis families of the free self-dual-linkage algebra.

    For n >= 5 the three families have sizes ((n-1)!, (n-2)!, 1); small
    arities return the explicit bases, which carry extra families.
    """
    if n < 1:
        raise OperadError("arity must be positive")
    if n > MAX_FREE_BASIS_ARITY:
        raise ArityOverflowError(
            "arity %d exceeds the free-basis guard %d: the families list (n-1)! "
            "Lie words" % (n, MAX_FREE_BASIS_ARITY))
    ops = (DOT, BRACKET)
    letters = list(range(1, n + 1))
    if n == 1:
        fam = [("generator", [_canonical(1, ops)])]
        return FreeBasisReport(1, fam)
    lie = [_canonical(t, ops) for t in _lyndon_multilinear(letters)]
    product = [_canonical(_sorted_product(letters), ops)]
    if n == 2:
        return FreeBasisReport(2, [("lie", lie), ("product", product)])
    if n == 3:
        mixed = [_canonical(("dot", ("bracket", a, b), c), ops)
                 for c in letters for a, b in [sorted(set(letters) - {c})]]
        return FreeBasisReport(3, [("lie", lie), ("var-times-bracket", mixed),
                                   ("product", product)])
    if n == 4:
        mixed = [_canonical(("dot", t, 1), ops)
                 for t in _lyndon_multilinear(letters[1:])]
        pairs = []
        for a, b in itertools.combinations(letters, 2):
            c, e = sorted(set(letters) - {a, b})
            if (a, b) <= (c, e):
                pairs.append(_canonical(("dot", ("bracket", a, b), ("bracket", c, e)), ops))
        return FreeBasisReport(4, [("lie", lie), ("var-times-lie", mixed),
                                   ("bracket-pairs", pairs), ("product", product)])
    mixed = [_canonical(("dot", t, 1), ops) for t in _lyndon_multilinear(letters[1:])]
    return FreeBasisReport(n, [("lie", lie), ("var-times-lie", mixed),
                               ("product", product)])
