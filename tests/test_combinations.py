"""Exact recombination identities between the catalog's one-operation laws.

Each depolarization correspondence rests on writing one identity family as an
explicit linear combination of permuted instances of another; these tests pin
every coefficient of every transcribed law at once, far more tightly than the
span equalities do.  Coefficients marked "recombined" were solved for exactly
here (the straightforward display of that combination does not reproduce the
target element; the span equality still holds and is covered elsewhere).
"""

from fractions import Fraction

from variety_forge.catalog import identity
from variety_forge.scalar import DELTA, RationalFunction
from variety_forge.terms import Element, Permutation, act

from conftest import ONE_OP

F = Fraction
d = DELTA
ONE = RationalFunction.from_fraction(F(1))
HALF = ONE / 2

E123, E132, E213, E231, E312, E321 = \
    (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)


def rf(x):
    return RationalFunction.from_fraction(F(x))


def sub_delta(e, q):
    out = Element(e.arity)
    for m, c in e.terms.items():
        out._add(m, RationalFunction.from_fraction(c.eval_at(q)))
    return out


def inst(e, img):
    if isinstance(e, str):
        e = identity(e)
    return act(Permutation(img), e, ONE_OP)


def combo(*parts):
    out = None
    for e, img, coeff in parts:
        term = inst(e, img).scale(coeff)
        out = term if out is None else out + term
    return out


H3_0 = sub_delta(identity("h3-delta"), F(0))
H4_0 = sub_delta(identity("h4-delta"), F(0))
H4_1 = sub_delta(identity("h4-delta"), F(1))


def test_linkage_law_from_structure_identities():
    got = combo(("h1", E123, HALF * (d + 1)), ("h1", E213, HALF * (d - 1)),
                ("h2", E123, HALF * d), ("h3-delta", E123, HALF * d),
                ("h3-delta", E132, HALF * (d - 1)), ("h3-delta", E231, HALF * (d + 1)))
    assert got == identity("f-delta")


def test_scalar_laws_from_structure_identities():
    # recombined: the E-instances enter with positive signs
    got1 = combo(("h1", E132, HALF), ("h2", E123, -HALF), (H3_0, E132, ONE),
                 (H3_0, E231, HALF), ("E", E123, ONE), ("E", E132, HALF))
    assert got1 == identity("sc1")
    got2 = combo(("h1", E123, -HALF), (H3_0, E123, HALF), (H3_0, E231, -HALF))
    assert got2 == identity("sc2")


def test_degenerate_linkage_laws_both_directions():
    got1 = combo(("h2", E123, HALF), (H3_0, E123, HALF), (H3_0, E132, HALF),
                 (H3_0, E231, -HALF))
    assert got1 == identity("g1")
    got2 = combo(("h1", E213, -HALF), (H3_0, E123, HALF), (H3_0, E132, HALF))
    assert got2 == identity("g2")
    assert combo(("g2", E231, ONE), ("g2", E213, -ONE)) == identity("h1")
    assert combo(("g2", E132, ONE), ("g2", E213, ONE), ("g2", E312, -ONE)) == H3_0
    assert combo(("g1", E123, ONE), ("g1", E132, -ONE)) == identity("h2")
    assert combo(("g1", E123, ONE), ("g1", E213, ONE)) == H3_0


def test_transposed_laws_both_directions():
    got_2f = combo(("h1", E132, ONE - d), ("h2", E123, d), ("h4-delta", E123, ONE - d),
                   ("h4-delta", E213, d - 1), ("h4-delta", E312, -d))
    assert got_2f == identity("F-delta").scale(rf(2))
    got_g = combo(("h1", E123, d), ("h1", E132, -d), ("h2", E123, HALF),
                  ("h4-delta", E123, HALF), ("h4-delta", E213, HALF),
                  ("h4-delta", E312, -HALF))
    assert got_g == identity("G-delta")
    # recombined
    got_h1 = combo(("F-delta", E123, rf(F(2, 3))), ("F-delta", E132, rf(F(4, 3))),
                   ("F-delta", E231, rf(F(2, 3))), ("G-delta", E123, rf(F(1, 3))),
                   ("G-delta", E213, rf(F(2, 3))), ("G-delta", E312, rf(F(1, 3))))
    assert got_h1 == identity("h1")
    c1 = (3 * d - 2) / ((d - 1) * 3)
    c2 = ONE / ((d - 1) * 3)
    got_h2 = combo(("G-delta", E123, c1), ("G-delta", E231, c1), ("G-delta", E321, -c1),
                   ("F-delta", E123, -c2), ("F-delta", E132, c2), ("F-delta", E231, -c2))
    assert got_h2 == identity("h2")
    den3 = (d - 1) * 3
    got_h4 = combo(("G-delta", E123, -(2 * d * d - 5 * d + 2) / den3),
                   ("G-delta", E231, (d * d - d + 1) / den3),
                   ("G-delta", E321, -(d * d - d + 1) / den3),
                   ("F-delta", E123, -(-2 * d * d + 2 * d + 1) / den3),
                   ("F-delta", E132, (-2 * d * d + 2 * d + 1) / den3),
                   ("F-delta", E231, -((2 * d - 1) ** 2) / den3))
    assert got_h4 == identity("h4-delta")


def test_transposed_at_one_both_directions():
    assert combo(("h2", E123, HALF), (H4_1, E312, -HALF)) == identity("F1")
    got_g1 = combo(("h1", E123, ONE), ("h1", E132, -ONE), ("h2", E123, HALF),
                   (H4_1, E123, HALF), (H4_1, E213, HALF), (H4_1, E312, -HALF))
    assert got_g1 == identity("G1")
    got_h = combo(("h2", E123, -HALF), (H4_1, E123, HALF), (H4_1, E213, -HALF),
                  (H4_1, E312, HALF))
    assert got_h == identity("H")
    # the specialization d=1 of the recombined generic expression
    got_h1 = combo(("F1", E123, rf(F(2, 3))), ("F1", E132, rf(F(4, 3))),
                   ("F1", E231, rf(F(2, 3))), ("G1", E123, rf(F(1, 3))),
                   ("G1", E213, rf(F(2, 3))), ("G1", E312, rf(F(1, 3))))
    assert got_h1 == identity("h1")
    assert combo(("G1", E123, ONE), ("G1", E231, ONE), ("G1", E321, -ONE),
                 ("H", E123, ONE)) == identity("h2")
    assert combo(("F1", E123, ONE), ("F1", E132, -ONE), ("F1", E231, -ONE),
                 ("H", E123, ONE)) == H4_1


def test_transposed_scalar_laws_both_directions():
    # recombined: the second D-instance carries swapped first arguments
    got_s1 = combo(("h1", E123, ONE), ("h1", E132, -HALF), ("h2", E123, HALF),
                   (H4_0, E123, HALF), (H4_0, E213, HALF), (H4_0, E312, HALF),
                   ("D", E123, -HALF), ("D", E213, HALF))
    assert got_s1 == identity("S1")
    got_s2 = combo(("h1", E123, HALF), ("h1", E132, -HALF), ("h2", E123, HALF),
                   (H4_0, E123, HALF), (H4_0, E213, HALF), (H4_0, E312, -HALF),
                   ("D", E123, -HALF))
    assert got_s2 == identity("S2")
    third = rf(F(1, 3))
    two_thirds = rf(F(2, 3))
    assert combo(("S1", E123, two_thirds), ("S1", E213, ONE), ("S1", E312, two_thirds),
                 ("S1", E231, -third), ("S2", E123, -third), ("S2", E213, -two_thirds),
                 ("S2", E312, -third)) == identity("h1")
    assert combo(("S1", E123, third), ("S1", E312, third), ("S1", E231, third),
                 ("S2", E123, third), ("S2", E213, -third), ("S2", E312, third)) \
        == identity("h2")
    assert combo(("S1", E123, third), ("S1", E132, two_thirds), ("S1", E213, third),
                 ("S1", E312, two_thirds), ("S1", E231, ONE), ("S2", E123, third),
                 ("S2", E213, two_thirds), ("S2", E312, -two_thirds)) == H4_0
    assert combo(("S1", E123, third), ("S1", E132, third), ("S1", E213, two_thirds),
                 ("S1", E231, two_thirds), ("S2", E123, -two_thirds),
                 ("S2", E213, -third), ("S2", E312, third)) == identity("D")


def test_mixed_laws_both_directions():
    assert combo((H3_0, E132, HALF), (H4_0, E213, HALF)) == identity("L")
    assert combo(("L", E132, ONE), ("L", E231, ONE)) == H3_0
    assert combo(("L", E213, ONE), ("L", E312, -ONE)) == H4_0
    thirds = lambda k: rf(F(k, 3))
    assert combo(("L", E123, thirds(-4)), ("L", E132, thirds(1)), ("L", E213, thirds(-5)),
                 ("L", E312, thirds(-1)), ("L", E231, thirds(5)), ("L", E321, thirds(4)),
                 ("S2", E123, thirds(2)), ("S2", E213, thirds(4)),
                 ("S2", E312, thirds(2))) == identity("h1")
    assert combo(("L", E123, thirds(-1)), ("L", E132, thirds(1)), ("L", E213, thirds(1)),
                 ("L", E312, thirds(-1)), ("L", E231, thirds(-1)), ("L", E321, thirds(1)),
                 ("S2", E123, thirds(2)), ("S2", E213, thirds(-2)),
                 ("S2", E312, thirds(2))) == identity("h2")


def test_two_linkage_mixture_both_directions():
    # substituting d -> 1/(3d) into the transposed structure identity
    def sub_rf(e, val):
        out = Element(e.arity)
        for m, c in e.terms.items():
            def horner(p):
                acc = RationalFunction.from_fraction(F(0))
                for coef in reversed(p):
                    acc = acc * val + coef
                return acc
            out._add(m, horner(c.num) / horner(c.den))
        return out
    h4_sub = sub_rf(identity("h4-delta"), ONE / (d * 3))
    got_h = combo(("h2", E123, -HALF), ("h3-delta", E123, ONE / (d * 2)),
                  ("h3-delta", E132, -(ONE / (d * 2))), (h4_sub, E123, rf(F(3, 2))))
    assert got_h == identity("H")
    c9 = -ONE / (d * d * 9)
    c3 = ONE / (d * 3)
    got_back = combo(("f-delta", E123, c9), ("f-delta", E132, -c9),
                     ("f-delta", E213, c9), ("f-delta", E312, -c9),
                     ("f-delta", E231, c3), ("f-delta", E321, -c3),
                     ("H", E123, rf(F(2, 3))))
    assert got_back == h4_sub


def test_shift_associativity_relations():
    assoc = identity("associator")
    den = d * (d - 1) * 3
    got_s = combo(("f-delta", E123, (d - 1) / den), ("f-delta", E132, ONE / den),
                  ("f-delta", E312, -(d / den)), ("f-delta", E321, ONE / den),
                  (assoc, E132, ONE / (1 - d)), (assoc, E312, d / (d - 1)),
                  (assoc, E321, ONE / (1 - d)))
    assert got_s == identity("shift-assoc")
    den2 = d * (d + 1) * 3
    got_a = combo(("f-delta", E123, (2 * d + 1) / den2), ("f-delta", E213, ONE / den2),
                  ("f-delta", E312, d / den2), ("shift-assoc", E123, -(d / (d + 1))),
                  ("shift-assoc", E213, -(ONE / (d + 1))),
                  ("shift-assoc", E312, -(d / (d + 1))))
    assert got_a == assoc


def test_shift_associativity_at_the_degenerate_parameters():
    assoc = identity("associator")
    f1 = sub_delta(identity("f-delta"), F(1))
    got = combo((f1, E123, rf(F(1, 2))), (f1, E213, rf(F(1, 6))), (f1, E312, rf(F(1, 6))),
                ("shift-assoc", E123, rf(F(-1, 2))), ("shift-assoc", E213, rf(F(-1, 2))),
                ("shift-assoc", E312, rf(F(-1, 2))))
    assert got == assoc
    fm1 = sub_delta(identity("f-delta"), F(-1))
    got_s = combo((fm1, E123, rf(F(-1, 2))), (fm1, E132, rf(F(1, 6))),
                  (fm1, E231, rf(F(-1, 6))), (fm1, E321, rf(F(1, 6))),
                  ("anti-flexible", E123, rf(F(-1, 2))),
                  ("anti-flexible", E132, rf(F(1, 2))))
    assert got_s == identity("shift-assoc")
    got_afl = combo((fm1, E123, rf(F(-1, 3))), (fm1, E213, rf(F(-2, 3))),
                    (fm1, E321, rf(F(1, 3))), ("shift-assoc", E213, rf(-2)))
    assert got_afl == identity("anti-flexible")


def test_flexibility_only_at_parameter_one():
    f1 = sub_delta(identity("f-delta"), F(1))
    got = combo((f1, E123, rf(F(1, 3))), (f1, E321, rf(F(1, 3))))
    assert got == identity("flexible")
    # at any other parameter value the flexible law is not a consequence
    from variety_forge.engine import Variety, is_consequence
    assert not is_consequence(Variety(ONE_OP, (identity("f-delta"),), delta=F(2)),
                              identity("flexible"), 3)
    assert is_consequence(Variety(ONE_OP, (identity("f-delta"),), delta=F(1)),
                          identity("flexible"), 3)
