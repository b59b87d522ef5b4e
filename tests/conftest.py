"""Shared strategies and helpers for the test suite."""

import functools
import itertools
import random
from fractions import Fraction

from hypothesis import HealthCheck, settings

from variety_forge.engine import Variety
from variety_forge.linalg import RowBasis, ZZDomain
from variety_forge.scalar import RationalFunction
from variety_forge.terms import (BRACKET, DOT, PLAIN, Element, OpSymbol, normalize_tree,
                                 ops_table)

settings.register_profile(
    "suite", deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.load_profile("suite")

TWO_OPS = (DOT, BRACKET)
ONE_OP = (PLAIN,)
# operation sets for the subtree-code and index-map tests: each symmetry
# alone, a symmetric with an unordered operation, all three together, and
# the dot/bracket pair of the catalog varieties
OP_SETS = {
    "m": ONE_OP,
    "dot": (DOT,),
    "bracket": (BRACKET,),
    "dot+m": (DOT, PLAIN),
    "a+bracket+dot": (OpSymbol("a", "none"), BRACKET, DOT),
    "dot+bracket": TWO_OPS,
}


def dense_rref(rows, ncols, to_field=Fraction):
    """Independent dense Gauss-Jordan elimination; returns the nonzero RREF rows."""
    mat = [[to_field(r[c]) if c in r else to_field(0) for c in range(ncols)]
           for r in rows]
    done = []
    for col in range(ncols):
        piv = next((r for r in mat if r[col]), None)
        if piv is None:
            continue
        mat.remove(piv)
        lead = piv[col]
        piv = [v / lead for v in piv]
        for r in mat + done:
            if r[col]:
                f = r[col]
                for c in range(ncols):
                    r[c] -= f * piv[c]
        done.append(piv)
    return [{c: v for c, v in enumerate(r) if v} for r in done]


def row_basis(rows, ncols, domain=ZZDomain):
    """The RowBasis of the rows, inserted in order."""
    basis = RowBasis(ncols, domain)
    for row in rows:
        basis.insert(row)
    return basis


def bracket_is_perfect(a):
    """The bracket values of a structure-constant algebra span it (dense RREF)."""
    return len(dense_rref(list(a.tables.get("bracket", {}).values()), a.dim)) == a.dim


@functools.lru_cache(maxsize=None)
def _normal_forms(leaves, ops):
    """The sorted Monomials over the leaf labels: the normal forms of
    op(a, b) for every op and every split of the labels into two nonempty
    parts, with a and b normal forms over their parts."""
    table = ops_table(ops)
    if len(leaves) == 1:
        return (normalize_tree(leaves[0], table, fragment=True)[1],)
    found = set()
    for k in range(1, len(leaves)):
        for left in itertools.combinations(leaves, k):
            right = tuple(i for i in leaves if i not in left)
            for a in _normal_forms(left, ops):
                for b in _normal_forms(right, ops):
                    for op in ops:
                        found.add(normalize_tree((op.name, a.tree, b.tree), table,
                                                 fragment=True)[1])
    return tuple(sorted(found))


def reference_monomials(n, ops):
    """Every canonical monomial of arity n, in the total order, built by
    ``normalize_tree`` alone: the oracle for the arity contexts."""
    return list(_normal_forms(tuple(range(1, n + 1)), tuple(ops)))


def with_identities(v, extra):
    """v with the identities in extra added, at the same d."""
    return Variety(v.ops, v.identities + tuple(extra), delta=v.delta, name=v.name)


def random_rational(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_rational_function(rng, degree=2, span=4):
    num = tuple(rng.randint(-span, span) for _ in range(rng.randint(1, degree + 1)))
    den = ()
    while not any(den):
        den = tuple(rng.randint(-span, span) for _ in range(rng.randint(1, degree + 1)))
    if not any(num):
        num = (1,)
    return RationalFunction(num, den)


def random_element(rng, ops, arity, max_terms=4, delta_coeffs=False):
    monos = reference_monomials(arity, ops)
    e = Element(arity)
    for mono in rng.sample(monos, min(max_terms, len(monos))):
        if delta_coeffs:
            c = random_rational_function(rng, degree=1, span=3)
        else:
            c = RationalFunction.from_fraction(random_rational(rng))
        if not c.is_zero():
            e._add(mono, c)
    return e


def seeded(seed):
    return random.Random(seed)
