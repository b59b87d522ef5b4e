"""Higher-arity relations between the catalog varieties.

These pin the structural facts the workbench is meant to decide: which
bridge identities follow from which linkage families, and where the
parameter boundaries sit.
"""

from fractions import Fraction

from variety_forge.catalog import TWO_OPS, algebra, identity, variety
from variety_forge.engine import Variety, equivalent, is_consequence
from variety_forge.scalar import RationalFunction
from variety_forge.terms import Element

from conftest import with_identities

F = Fraction


def _specialized(name, q):
    e = identity(name)
    terms = {}
    for m, c in e.terms.items():
        v = RationalFunction.from_fraction(c.eval_at(q))
        if not v.is_zero():
            terms[m] = v
    return Element(e.arity, terms)


def test_single_identity_presentation_of_mixed_poisson():
    single = Variety(TWO_OPS, (identity("assoc"), identity("jacobi"),
                               identity("mixed-poisson-single")), name="mp-single")
    for n in (3, 4):
        assert equivalent(single, variety("mixed-poisson"), n)


def test_scalar_family_is_an_intersection():
    # imposing the linkage law at two distinct parameter values is the same
    # as imposing the scalar family
    pair = Variety(TWO_OPS, (identity("assoc"), identity("jacobi"),
                             _specialized("delta-poisson-law", F(2)),
                             _specialized("delta-poisson-law", F(5))), name="two-values")
    for n in (3, 4):
        assert equivalent(pair, variety("scalar-poisson"), n)
    transposed_pair = Variety(TWO_OPS, (identity("assoc"), identity("jacobi"),
                                        _specialized("transposed-delta-poisson-law", F(2)),
                                        _specialized("transposed-delta-poisson-law", F(5))),
                              name="two-transposed-values")
    assert equivalent(transposed_pair, variety("transposed-scalar-poisson"), 3)


def test_mixed_family_is_scalar_meet_transposed_scalar():
    union = Variety(TWO_OPS, variety("scalar-poisson").identities
                    + (identity("product-of-bracket"),
                       identity("transposed-scalar-poisson-law")), name="meet")
    for n in (3, 4):
        assert equivalent(union, variety("mixed-poisson"), n)


def test_linkage_family_is_f_manifold():
    dp = variety("delta-poisson")
    assert is_consequence(dp, identity("f-manifold-law"), 4)


def test_jordan_bracket_needs_the_strong_identity():
    dp = variety("delta-poisson")
    assert is_consequence(dp, identity("jordan-bracket-2"), 4)
    assert is_consequence(dp, identity("jordan-bracket-3"), 4)
    assert not is_consequence(dp, identity("jordan-bracket-1"), 4)
    with_strong = with_identities(dp, [identity("strong")])
    assert is_consequence(with_strong, identity("jordan-bracket-1"), 4)
    with_jb1 = with_identities(dp, [identity("jordan-bracket-1")])
    assert is_consequence(with_jb1, identity("strong"), 4)


def test_transposed_family_satisfies_the_strong_identity():
    assert is_consequence(variety("transposed-delta-poisson"), identity("strong"), 4)


def test_transposed_f_manifold_boundary():
    # away from the degenerate parameter values, being F-manifold is the same
    # as killing {xy,zt}; at 1/3 the forward implication fails (the
    # transposed-third algebra is an F-manifold witness keeping {xy,zt} alive)
    t2 = variety("transposed-delta-poisson", delta=F(2))
    assert equivalent(with_identities(t2, [identity("f-manifold-law")]),
                      with_identities(t2, [identity("xyzt-1")]), 4)
    t3 = variety("transposed-delta-poisson", delta=F(1, 3))
    assert not is_consequence(with_identities(t3, [identity("f-manifold-law")]),
                              identity("xyzt-1"), 4)
    witness = algebra("transposed-third")
    assert witness.check_variety(variety("f-manifold")).all_satisfied
    assert not witness.eval_identity(identity("xyzt-1")).satisfied


def test_transposed_at_one_f_manifold_one_direction():
    t1 = variety("transposed-delta-poisson", delta=F(1))
    assert is_consequence(with_identities(t1, [identity("f-manifold-law")]),
                          identity("xyzt-1"), 4)
    assert not is_consequence(with_identities(t1, [identity("xyzt-1")]),
                              identity("f-manifold-law"), 4)
    witness = algebra("transposed-one")
    assert witness.eval_identity(identity("xyzt-1")).satisfied
    assert not witness.check_variety(variety("f-manifold")).all_satisfied
