"""Consequence spaces: dimensions, membership, equivalence, stability."""

import functools
import gc
import hashlib
import itertools
import math
import sys
import weakref
from fractions import Fraction

import pytest
from variety_forge import engine, terms
from variety_forge.catalog import algebra, identity, variety, variety_names
from variety_forge.engine import (ArityOverflowError, EngineError,
                                  MonomialContext, Variety, clear_cache,
                                  consequences, dim_multilinear, equivalent,
                                  format_variety, get_context, is_consequence,
                                  parse_variety_text, row_to_element)
from variety_forge.exprs import parse_expr
from variety_forge.linalg import PolyDomain, RowBasis, ZZDomain, sampled_delta_points
from variety_forge.scalar import DELTA
from variety_forge.terms import (BRACKET, DOT, NONE, Element, OpSymbol,
                                 Permutation, TermError, act, act_monomial,
                                 normalize_tree, substitute_tree)

from conftest import ONE_OP, OP_SETS, TWO_OPS, reference_monomials, with_identities
from test_terms import double_factorial_count

F = Fraction


def test_dimension_table_small():
    dp = variety("delta-poisson")
    assert [dim_multilinear(dp, n) for n in (1, 2, 3, 4)] == [1, 2, 6, 12]
    mp = variety("mixed-poisson")
    assert [dim_multilinear(mp, n) for n in (2, 3, 4)] == [2, 3, 7]


def _compose(f, g, order):
    """f(g(x)) truncated after x^order; coefficient lists from x^0, g[0] = 0."""
    out = [F(0)] * (order + 1)
    power = [F(1)] + [F(0)] * order
    for fi in f[1:]:
        power = [sum(power[j] * g[k - j] for j in range(k + 1)) for k in range(order + 1)]
        out = [o + fi * p for o, p in zip(out, power)]
    return out


def test_closed_form_agreement():
    # (n-1)! + (n-2)! + 1 at n=5 over the generic parameter field, and
    # (n-1)! + 1 for the mixed family through n=6
    assert dim_multilinear(variety("delta-poisson"), 5) == 24 + 6 + 1
    mp = variety("mixed-poisson")
    for n in (3, 4, 5, 6):
        assert dim_multilinear(mp, n) == math.factorial(n - 1) + 1
    # Poisson is Com o Lie: n! monomials survive
    poisson = variety("poisson")
    for n in range(1, 6):
        assert dim_multilinear(poisson, n) == math.factorial(n)
    # com-lie is the Koszul dual of mixed-poisson, so with f(x) the
    # exponential series of mixed-poisson and h its compositional inverse,
    # dim com-lie(n) = (-1)^(n+1) n! h_n
    order = 5
    f = [F(0), F(1)] + [F(math.factorial(n - 1) + 1, math.factorial(n))
                        for n in range(2, order + 1)]
    h = [F(0), F(1)] + [F(0)] * (order - 1)
    for k in range(2, order + 1):
        h[k] = -_compose(f, h, order)[k]  # f_1 = 1, so h_k enters x^k once
    com_lie = variety("com-lie")
    for n in range(1, order + 1):
        assert dim_multilinear(com_lie, n) == (-1) ** (n + 1) * math.factorial(n) * h[n]


def test_empty_variety_has_zero_consequences():
    free = variety("two-ops-free")
    assert dim_multilinear(free, 3) == 12
    space = consequences(free, 3)
    assert space.rank == 0


def test_consequence_space_codimensions():
    dp = variety("delta-poisson")
    space = consequences(dp, 3)
    assert len(space.monomials) == 12 and space.rank == 6
    mp = variety("mixed-poisson")
    assert consequences(mp, 3).rank == 9


def test_generators_are_consequences():
    dp = variety("delta-poisson")
    for e in dp.identities:
        assert is_consequence(dp, e, e.arity)


def test_vanishing_products_generic_but_not_poisson():
    dp = variety("delta-poisson")
    assert is_consequence(dp, identity("xyzt-1"), 4)
    assert not is_consequence(variety("poisson"), identity("xyzt-1"), 4)


def test_scalar_poisson_identities_independent():
    sc1 = Variety(ONE_OP, (identity("sc1"),))
    assert not equivalent(sc1, Variety(ONE_OP, (identity("sc1"), identity("sc2"))), 3)


def test_identity_catalog_lookup():
    from variety_forge.catalog import CatalogError
    from variety_forge.engine import Variety as V
    from variety_forge.terms import Element
    assert isinstance(identity("f-delta"), Element)
    assert isinstance(variety("delta-poisson"), V)
    assert isinstance(variety("transposed-delta-poisson"), V)
    assert isinstance(variety("mixed-poisson"), V)
    for lookup in (identity, variety):
        with pytest.raises(CatalogError):
            lookup("no-such-name")


def test_equivalence_requires_same_signature():
    with pytest.raises(EngineError):
        equivalent(variety("delta-poisson", delta=1), Variety(ONE_OP, (identity("sc1"),)), 3)


def test_equivalence_compares_d_only_where_both_sides_use_it():
    # com-lie has no d, so its delta of None is no clash with poisson's 1
    for mode in ("exact", "sampled"):
        assert not equivalent(variety("poisson"), variety("com-lie"), 3, mode)
    com_lie = variety("com-lie")
    assert equivalent(com_lie.with_delta(F(2)), com_lie, 3)
    with pytest.raises(EngineError, match="parameter modes differ"):
        equivalent(variety("anti-poisson"), variety("poisson"), 3)


def test_a_target_that_normalizes_to_zero_is_a_consequence_at_every_arity():
    v = variety("poisson")
    for text in ("dot(x1,x2) - dot(x2,x1)", "0", "bracket(x1,x2) + bracket(x2,x1)"):
        zero = parse_expr(text, v.ops)
        assert zero.is_zero()
        for n in (zero.arity, 1, 2, 3, 5):
            for mode in ("exact", "sampled"):
                assert is_consequence(v, zero, n, mode)
    # a nonzero target still has to match the arity
    with pytest.raises(EngineError, match="does not match"):
        is_consequence(v, identity("assoc"), 4)


def test_target_with_undeclared_operations_is_rejected():
    # every membership path: d-free, generic d, the sample point, unit rows
    for name, target in (("mixed-poisson", "h1"), ("one-op-free", "assoc"),
                         ("delta-poisson", "h1"), ("anti-poisson", "h1")):
        for mode in ("exact", "sampled"):
            with pytest.raises(EngineError, match="target uses undeclared operations"):
                is_consequence(variety(name), identity(target), 3, mode)


def test_delta_specialization_modes():
    dp = variety("delta-poisson")
    assert dp.delta is None and dp.domain is PolyDomain
    specialized = dp.with_delta(F(2))
    assert specialized.delta == 2 and specialized.domain is ZZDomain
    assert dim_multilinear(specialized, 4) == 12


def test_sampled_mode_matches_exact_here():
    dp = variety("delta-poisson")
    space = consequences(dp, 4, mode="sampled")
    # a sampled space is the exact space at one sample point
    assert space.variety.delta in sampled_delta_points(3)
    assert space.dim == 12
    # sampled rank never exceeds the generic rank
    assert space.rank <= consequences(dp, 4).rank


GENERIC_D_VARIETIES = ("delta-poisson", "transposed-delta-poisson", "delta-mixed-poisson")
CRITERION_9_TARGETS = ("xyzt-1", "xyzt-2", "xyzt-3", "xyzt-4", "xyzt-5", "cycl",
                       "zid5-1", "zid5-2", "zid5-3", "zid5-4",
                       "idtp1", "idtp2", "idtp3", "idtp4", "idtp5", "idtp6")


@pytest.mark.parametrize("name", GENERIC_D_VARIETIES)
def test_sampled_membership_agrees_with_exact(name):
    # the d-dependent targets are specialised at the sample point of the
    # sampled span; the criterion-9 targets across all three varieties give
    # both answers (idtp1 is no on delta-poisson, xyzt-1 on the transposed one)
    v = variety(name)
    assert v.delta is None and v.domain is PolyDomain
    for i, e in enumerate(v.identities):
        assert is_consequence(v, e, e.arity, mode="sampled"), (name, i)
    answers = set()
    for target_name in CRITERION_9_TARGETS:
        target = identity(target_name)
        exact = is_consequence(v, target, target.arity)
        assert is_consequence(v, target, target.arity, mode="sampled") == exact, target_name
        answers.add(exact)
    if name != "delta-mixed-poisson":
        assert answers == {True, False}


def test_sampled_membership_of_a_target_with_a_root_or_pole_at_the_point():
    # delta-poisson is sampled at d=51/13; a target scaled by 1/(13d-51) has
    # a pole there, and one scaled by (13d-51)^2 vanishes there
    dp = variety("delta-poisson")
    assert consequences(dp, 3, mode="sampled").variety.delta == F(51, 13)
    yes = dp.identities[2].scale(1 / (13 * DELTA - 51))
    no = identity("idtp1").scale((13 * DELTA - 51) ** 2)
    assert is_consequence(dp, yes, 3) and is_consequence(dp, yes, 3, mode="sampled")
    assert not is_consequence(dp, no, 3) and not is_consequence(dp, no, 3, mode="sampled")


@pytest.mark.parametrize("target,expected", [
    ("d*bracket(dot(x1,x2),x3)", True),
    ("bracket(dot(x1,x2),x3) + d*dot(x1,bracket(x2,x3))", True),
    ("d^2*dot(dot(x1,x2),x3) - d^2*dot(x1,dot(x2,x3))", True),
    ("(1+d)*dot(dot(x1,x2),x3)", False),
    ("dot(dot(x1,x2),x3) - dot(x1,dot(x2,x3)) + d*dot(dot(x1,x2),x3)", False),
])
def test_d_dependent_target_against_a_d_free_span(target, expected):
    # mixed-poisson's span holds no d, so the target lies in it iff each of
    # its d-power components does; the first two targets lie in types of
    # unit rows, whose terms are dropped unread; the other three are split
    # by powers of d
    mp = variety("mixed-poisson")
    e = parse_expr(target, mp.ops)
    with pytest.raises(ValueError):
        engine.element_to_row(e, get_context(mp.ops, 3), mp.delta, mp.domain)
    assert is_consequence(mp, e, 3) is expected


def test_sampled_equivalence_shares_one_point():
    # scaling the third identity by 1/(13d-51) keeps the span; the first
    # sample point d=51/13 is a pole of the scaled copy only
    dp = variety("delta-poisson")
    ids = list(dp.identities)
    ids[2] = ids[2].scale(1 / (13 * DELTA - 51))
    scaled = Variety(dp.ops, ids, name="scaled")
    assert sampled_delta_points(3)[0] == F(51, 13)
    for n in (3, 4):
        assert equivalent(dp, scaled, n)
        assert equivalent(dp, scaled, n, mode="sampled")
        assert equivalent(scaled, dp, n, mode="sampled")
    assert not equivalent(dp, variety("two-ops-free"), 4, mode="sampled")
    assert not equivalent(dp, variety("transposed-delta-poisson"), 4, mode="sampled")


def test_arity_guard(monkeypatch):
    with pytest.raises(ArityOverflowError, match="guard 6"):
        dim_multilinear(variety("delta-poisson"), 7)
    # one guard for both modes: sampled mode promises no more than exact
    with pytest.raises(ArityOverflowError):
        dim_multilinear(variety("delta-poisson"), 7, mode="sampled")
    monkeypatch.setattr(engine, "MAX_ARITY", 3)
    with pytest.raises(ArityOverflowError):
        dim_multilinear(variety("delta-poisson"), 4)


def test_sn_stability_of_spaces():
    for name, n in (("delta-poisson", 4), ("mixed-poisson", 4), ("com-lie", 4)):
        v = variety(name)
        space = consequences(v, n)
        ctx = get_context(v.ops, n)
        rows = [row_to_element(r, ctx.monomials, n) for _, r in space.basis.items()]
        for img in itertools.permutations(range(1, n + 1)):
            sigma = Permutation(img)
            for e in rows[:6]:
                assert is_consequence(v, act(sigma, e, v.ops), n)


def test_monotonicity_under_extra_identities():
    base = variety("com-lie")
    bigger = with_identities(base, [identity("bracket-of-product")])
    for n in (3, 4):
        assert dim_multilinear(bigger, n) <= dim_multilinear(base, n)


def test_soundness_against_catalog_algebras():
    # consequences of a variety must hold in every catalog algebra satisfying it
    third = variety("delta-poisson", delta=F(1, 3))
    pb = algebra("P-beta", beta=1)
    assert pb.check_variety(third).all_satisfied
    for name in ("xyzt-1", "xyzt-2", "xyzt-3", "xyzt-5", "cycl"):
        target = identity(name)
        assert is_consequence(third, target, target.arity)
        assert pb.eval_identity(target, delta=F(1, 3)).satisfied
    tm1 = variety("transposed-delta-poisson", delta=F(-1))
    a1 = algebra("A1")
    for name in ("idtp1", "idtp2", "idtp3", "idtp4", "idtp5", "idtp6"):
        target = identity(name)
        assert is_consequence(tm1, target, target.arity)
        assert a1.eval_identity(target, delta=F(-1)).satisfied


def test_two_parameter_mixed_poisson_boundary():
    # a delta1-Poisson + transposed delta2-Poisson algebra is mixed-Poisson
    # exactly away from delta1*delta2 = 1/3 (spot checks at rational pairs)
    def joint(q1, q2):
        law1 = identity("delta-poisson-law")
        law2 = identity("transposed-delta-poisson-law")
        ids = [_specialize(law1, q1), _specialize(law2, q2),
               identity("assoc"), identity("jacobi")]
        return Variety(TWO_OPS, ids, name="joint")

    def _specialize(e, q):
        from variety_forge.scalar import RationalFunction
        from variety_forge.terms import Element
        terms = {m: RationalFunction.from_fraction(c.eval_at(q))
                 for m, c in e.terms.items()}
        return Element(e.arity, {m: c for m, c in terms.items() if not c.is_zero()})

    target = identity("product-of-bracket")  # x{y,z} = 0
    assert is_consequence(joint(F(1, 2), F(1, 3)), target, 3)      # product 1/6
    assert is_consequence(joint(F(2), F(5)), target, 3)            # product 10
    assert not is_consequence(joint(F(1, 3), F(1)), target, 3)     # product 1/3


def test_variety_file_roundtrip(tmp_path):
    v = variety("delta-poisson", delta=F(-1))
    text = format_variety(v)
    back = parse_variety_text(text, name=v.name)
    assert back.delta == F(-1)
    assert equivalent(back, v, 3)
    generic = parse_variety_text(format_variety(variety("delta-poisson")))
    assert generic.delta is None and generic.domain is PolyDomain


def test_variety_file_errors():
    with pytest.raises(EngineError):
        parse_variety_text("identity: dot(x1,x2)\n")  # no ops declared
    with pytest.raises(EngineError):
        parse_variety_text("op dot symmetric\nidentity: dot(x1\n")
    with pytest.raises(EngineError):
        parse_variety_text("op dot symmetric\nfrobnicate\n")
    for text in ("op dot symmetric\nparam delta = x\n",
                 "op dot symmetric\nparam delta = 1/0\n",
                 "op dot sym\n", "op dot\n",
                 "op dot symmetric\nparam foo = 1\n",
                 "op dot symmetric\nparam foo\n",
                 "op dot symmetric\nop dot symmetric\n"):
        with pytest.raises(EngineError, match=r"^line \d+: "):
            parse_variety_text(text)
    # d is given once: a second param line, bare or bound, is refused on its line
    for text in ("op dot symmetric\nparam delta = 1\nparam delta = 2\n",
                 "op dot symmetric\nparam delta\nparam delta = 2\n",
                 "op dot symmetric\nparam delta = 2\nparam delta\n",
                 "op dot symmetric\nparam delta\nparam delta\n"):
        with pytest.raises(EngineError, match=r"^line 3: parameter 'delta' declared twice"):
            parse_variety_text(text)
    # an operation is declared once: a conflicting op line is refused on its
    # own line, not on the first identity that uses it, and so is a repeat
    # in the constructor
    with pytest.raises(EngineError, match=r"^line 2: operation 'dot' declared twice"):
        parse_variety_text("op dot symmetric\nop dot antisymmetric\nidentity: dot(x1,x2)\n")
    with pytest.raises(TermError, match="declared twice"):
        Variety((DOT, DOT), ())
    # the parser rejects an unknown operation name; the constructor, too
    with pytest.raises(EngineError, match=r"undeclared operations \['bracket'\]"):
        Variety((DOT,), (identity("jacobi"),))


def test_cache_key_is_the_set_of_identities():
    v = variety("delta-poisson")
    ids = v.identities
    same = Variety(v.ops, tuple(reversed(ids)) + ids[:1])
    assert consequences(same, 3) is consequences(v, 3)
    assert consequences(v.with_delta(F(2)), 3) is not consequences(v, 3)


def test_depolarize_variety_spans_polarized_image():
    # polarizing f_delta lands inside the two-operation consequence span
    from variety_forge.terms import polarize_expr
    q = F(2)
    dp = variety("delta-poisson", delta=q)
    f = identity("f-delta")
    pol = polarize_expr(f)
    assert is_consequence(dp, pol, 3)


def test_extended_arity_six():
    assert dim_multilinear(variety("anti-poisson"), 6) == 145
    assert dim_multilinear(variety("mixed-poisson"), 6) == 121


# sha256 of repr(canonical_rows()) at arity 6: neither placing whole
# association types at once nor the order in which the closure inserts its
# candidates may change these canonical spaces.  delta-poisson at d=-1 is
# anti-poisson's own space (same identities and d, one cache key), so the
# third build is delta-mixed-poisson at d=-1, whose span is mixed-poisson's.
# poisson, jordan-bracket, transposed-poisson and TDP at d=7 have few or no
# unit rows, so the closure order moves most of their eliminations
ARITY6_DIGESTS = {
    ("anti-poisson", None): "fa9e8f99ae66a4a70e27bf7038a6922b105400f774bde4c8c05ba72a01c58f63",
    ("mixed-poisson", None): "e53015c0afefc09f448a4bf69f6e156f51ade568dafc55377d845be41447f8aa",
    ("delta-mixed-poisson", -1):
        "e53015c0afefc09f448a4bf69f6e156f51ade568dafc55377d845be41447f8aa",
    ("transposed-poisson", None):
        "104dffed5b463abd07e542bbd65f2adfdd9c34d2b94c975aaed7f21475605bab",
    ("transposed-delta-poisson", 7):
        "e423dc437d31e87befd736fe7e368d33b2bedf04e0bca5fc4c39e1ecf106afa8",
    ("poisson", None): "f4792a4e7d1727e1bf1f47eaee431378597106a6cd8c46d7492d1234befee3d2",
    ("jordan-bracket", None):
        "c935a1c3d8680c49d403f6b5e96c7d67e4bbac95e49a0fb9f0aac0204ca1c7f8",
}


@pytest.mark.parametrize("name,delta", sorted(ARITY6_DIGESTS, key=str))
def test_arity6_spaces_are_pinned(name, delta):
    basis = consequences(variety(name, delta=delta), 6).basis
    digest = hashlib.sha256(repr(basis.canonical_rows()).encode()).hexdigest()
    assert digest == ARITY6_DIGESTS[name, delta]


@pytest.mark.parametrize("name", variety_names())
def test_unit_rows_fill_whole_association_types(name):
    # the span is S_n-invariant and a type is one orbit, so a type holds all
    # of its columns as unit rows or none; unit rows are column flags, read
    # here from the canonical rows, and no stored row has one entry
    v = variety(name)
    for n in range(1, 6):
        space = consequences(v, n)
        units = {p for p, row in space.basis.canonical_rows() if len(row) == 1}
        assert units == {c for c, flag in enumerate(space.basis.unit) if flag}
        assert all(len(row) > 1 for row in space.basis.rows.values())
        blocks = get_context(v.ops, n).type_blocks()
        for block in set(blocks):
            assert len(units.intersection(block)) in (0, len(block)), (n, block)
        assert space.unit_types() == {t for t, b in enumerate(blocks) if b.start in units}


def test_type_blocks_are_contiguous_orbits():
    # dot+bracket has 4, 14, 44 and 164 association types at n = 3..6
    for n, count in zip(range(3, 7), (4, 14, 44, 164)):
        ctx = MonomialContext(TWO_OPS, n)
        types = ctx.type_blocks()
        assert len(types) == count
        assert sum(len(b) for b in types) == len(ctx.monomials) == ctx.ncols
        assert [b.start for b in types] == [0] + [b.stop for b in types[:-1]]
        tables = [_reference_swap(ctx)] + _reference_perm_tables(ctx)
        for block in types:
            key = ctx.monomials[block.start].key[:2]
            assert all(ctx.monomials[c].key[:2] == key for c in block)
            # closed under (1 2) and (1 2 ... n), and one orbit: reached from its start
            seen, todo = {block.start}, [block.start]
            while todo:
                c = todo.pop()
                for table in tables:
                    j = table[c][0]
                    assert j in block
                    if j not in seen:
                        seen.add(j)
                        todo.append(j)
            assert len(seen) == len(block)


@pytest.mark.parametrize("ops,top", [
    (TWO_OPS, 6), ((OpSymbol("m", NONE),), 6),
    ((DOT, BRACKET, OpSymbol("wedge", "antisymmetric")), 5)],
    ids=["dot+bracket", "m", "dot+bracket+wedge"])
def test_types_enumerate_in_column_order(ops, top):
    for n in range(1, top + 1):
        ctx = MonomialContext(ops, n)
        sizes = [len(block) for block in ctx.type_blocks()]
        if all(op.symmetry != NONE for op in ops):
            assert sum(sizes) == double_factorial_count(n, len(ops))
        else:  # ordered binary trees: Catalan(n-1) shapes times n! labels
            assert sum(sizes) == math.factorial(2 * n - 2) // math.factorial(n - 1)
        # the counted sizes are the enumerated ones, and the types one after
        # the other are the monomials in the total order
        assert [len(ctx._type_columns(t)) for t in range(len(sizes))] == sizes
        reference = reference_monomials(n, ops)
        assert ctx.monomials == reference
        assert [m.tree for m in ctx.monomials] == [m.tree for m in reference]
        assert all(ctx.index[m] == c for c, m in enumerate(reference))


def _enumerated_types(ctx):
    return [t for t, columns in enumerate(ctx._columns) if columns is not None]


@pytest.mark.parametrize("name,types,columns", [
    ("anti-poisson", 18, 2835), ("mixed-poisson", 12, 1890)])
def test_arity6_enumerates_only_the_live_types(name, types, columns):
    # every other type is killed whole, and its columns are never looked up
    clear_cache()
    v = variety(name)
    rows = consequences(v, 6).basis.rows
    ctx = get_context(v.ops, 6)
    live = {ctx.type_of(c) for row in rows.values() for c in row}
    assert _enumerated_types(ctx) == sorted(live)
    assert len(live) == types
    assert sum(len(ctx.type_blocks()[t]) for t in live) == columns
    assert ctx._monomials is None and not ctx.index
    # a membership query drops its terms in types of unit rows unread
    units = consequences(v, 6).unit_types()
    assert len(units) + len(live) == len(ctx.type_blocks())
    other = MonomialContext(v.ops, 6)
    m = other.monomials[other.offsets[min(units)]]
    assert is_consequence(v, Element(6, {m: 1}), 6)
    assert _enumerated_types(ctx) == sorted(live) and not ctx.index
    # the registry records only the subtrees that the live types and the
    # index-map images reach (12,156 proper subtrees at n = 6)
    assert len(ctx.nodes) < 3000
    # the arity-7 context is its counted type list, and records no subtree
    ctx7 = get_context(v.ops, 7)
    assert ctx7.ncols == double_factorial_count(7, 2) == 665280
    assert len(ctx7.type_blocks()) == 616 and not ctx7.nodes


def test_mixed_poisson_one_arity_past_the_guard(monkeypatch):
    # MP(7) = 6! + 1, the paper's count one arity past the shipped guard
    monkeypatch.setattr(engine, "MAX_ARITY", 7)
    clear_cache()
    try:
        assert dim_multilinear(variety("mixed-poisson"), 7) == math.factorial(6) + 1
    finally:
        clear_cache()


def _reference_levels(v, top):
    """Levels 1..top, each the span of every sigma in S_n applied to the
    arity-n identities and to the lifts of the previous reference level.

    The permutation tables renormalise every permuted tree, so they share no
    code with the context's index maps."""
    domain, neg = v.domain, v.domain.neg
    levels, prev = [], None
    for n in range(1, top + 1):
        ctx = get_context(v.ops, n)
        seeds = [engine.element_to_row(e, ctx, v.delta, domain)
                 for e in v.identities if e.arity == n]
        if prev is not None:
            for table in get_context(v.ops, n - 1).lift_tables():
                seeds += [engine.apply_index_map(row, table, neg)
                          for _, row in prev.items()]
        prev = RowBasis(len(ctx.monomials), domain)
        for img in itertools.permutations(range(1, n + 1)):
            table = _reference_table(Permutation(img), ctx)
            for row in seeds:
                prev.insert(engine.apply_index_map(row, table, neg))
        levels.append(prev)
    return levels


@pytest.mark.parametrize("name", variety_names())
def test_closure_matches_the_span_of_all_permutations(name):
    # no generator pair and no skipped image: every sigma on every seed row
    v = variety(name)
    for n, ref in enumerate(_reference_levels(v, 4), 1):
        assert consequences(v, n).basis.canonical_rows() == ref.canonical_rows(), n


_INVARIANCE_CASES = ([(name, n) for name in variety_names() for n in range(2, 6)]
                     + [("anti-poisson", 6), ("mixed-poisson", 6)])


@pytest.mark.parametrize("name,n", _INVARIANCE_CASES)
def test_every_stored_row_is_closed_under_both_generators(name, n):
    # the closure pushes (1 2 ... n) images only, and the span it ends with
    # holds the (1 2) and (1 2 ... n) images of each of its rows
    v = variety(name)
    basis = consequences(v, n).basis
    ctx = get_context(v.ops, n)
    for table in [_reference_swap(ctx)] + ctx.perm_generator_tables():
        for row in basis.rows.values():
            assert basis.contains(engine.apply_index_map(row, table, basis.domain.neg))


def test_every_image_is_an_n_cycle_image(monkeypatch):
    # jordan-bracket has identities of arity 3 and 4, so level 4 seeds
    # identity images beside lift rows: at every level, whatever seed a row
    # came from, the one permutation table the closure applies is (1 2 ... n)
    v = variety("jordan-bracket")
    clear_cache()
    used = []
    original = engine.apply_index_map

    def recording(row, table, neg, killed=()):
        used.append(table)
        return original(row, table, neg, killed)

    monkeypatch.setattr(engine, "apply_index_map", recording)
    consequences(v, 5)
    levels = {}
    for table in used:
        if table._source() is table._target():  # a lift maps into the next level
            levels.setdefault(table._source().n, {})[id(table)] = table
    assert sorted(levels) == [3, 4, 5]
    for n, tables in levels.items():
        ctx = get_context(v.ops, n)
        assert list(tables) == [id(t) for t in ctx.perm_generator_tables()], n
        assert _every_column(tables.values(), ctx) == _reference_perm_tables(ctx), n


def test_an_arity_five_identity_spans_its_whole_orbit():
    # no catalog identity has arity 5: at its own arity the closure seeds
    # the S_4 orbit of the identity and saturates it under (1 2 3 4 5)
    v = parse_variety_text(
        "op dot symmetric\nop bracket antisymmetric\nidentity: "
        "dot(x1,bracket(x2,bracket(x3,bracket(x4,x5))))"
        " - dot(x2,bracket(x1,bracket(x3,bracket(x4,x5))))"
        " + 2*bracket(dot(x1,x2),bracket(x3,dot(x4,x5)))\n")
    (e,) = v.identities
    clear_cache()
    ctx = get_context(v.ops, 5)
    reference = RowBasis(ctx.ncols, v.domain)
    for img in itertools.permutations(range(1, 6)):
        reference.insert(engine.element_to_row(act(Permutation(img), e, v.ops),
                                               ctx, v.delta, v.domain))
    space = consequences(v, 5)
    assert space.rank == reference.rank == 60
    assert space.basis.canonical_rows() == reference.canonical_rows()


def test_new_pivots_rarely_land_above_stored_ones(monkeypatch):
    # identity rows, lift rows and images wait on one heap, largest leading
    # column first, so a new pivot seldom lies above a stored row holding it:
    # the cold poisson(5) level runs 319 back-substitution eliminations, and
    # 2,137 when every lift row went in before any image
    v = variety("poisson")
    clear_cache()
    consequences(v, 4)
    calls = {"reduce": 0, "back": 0}
    depth = [0]
    eliminate, reduce = ZZDomain.eliminate, RowBasis._reduce

    def counting_eliminate(r, s, p):
        calls["reduce" if depth[0] else "back"] += 1
        return eliminate(r, s, p)

    def counting_reduce(self, row):
        depth[0] += 1
        try:
            return reduce(self, row)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ZZDomain, "eliminate", staticmethod(counting_eliminate))
    monkeypatch.setattr(RowBasis, "_reduce", counting_reduce)
    consequences(v, 5)
    assert calls["reduce"] > 0
    assert calls["back"] < 1000, calls


@pytest.mark.parametrize("sign", ["+", "-"])
def test_arity_two_identity_levels_and_the_level_cache(sign, monkeypatch):
    # m anticommutative (+) or commutative (-): (2n-3)!! monomials survive,
    # and level 3 is the first one lifted
    v = parse_variety_text("op m none\nidentity: m(x1,x2) %s m(x2,x1)\n" % sign)
    for n, dim in enumerate((1, 1, 3, 15, 105), 1):
        clear_cache()
        assert dim_multilinear(v, n) == dim
    # the cold level-5 build above left levels 1..4 in the cache
    built = []

    class CountingBasis(RowBasis):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(engine, "RowBasis", CountingBasis)
    level4 = consequences(v, 4)
    assert consequences(v, 4) is level4 and built == []


# ---------------------------------------------------------------------------
# index maps, against tables built by renormalising every tree

@functools.lru_cache(maxsize=None)
def _reference_columns(ops, n):
    """The monomials of ``reference_monomials`` and monomial -> column."""
    monomials = reference_monomials(n, ops)
    return monomials, {m: c for c, m in enumerate(monomials)}


def _reference_table(sigma, ctx):
    monomials, index = _reference_columns(ctx.ops, ctx.n)
    table = []
    for m in monomials:
        sign, img = act_monomial(sigma, m, ctx.table)
        table.append((index[img], sign))
    return table


def _reference_perm_tables(ctx):
    """The (1 2 ... n) map from n = 2, as ``perm_generator_tables`` builds it."""
    return [_reference_table(Permutation.cycle(ctx.n), ctx)] if ctx.n >= 2 else []


def _reference_swap(ctx):
    """The (1 2) map, which the closure never applies."""
    return _reference_table(Permutation((2, 1) + tuple(range(3, ctx.n + 1))), ctx)


def _reference_lift_tables(ctx):
    fresh = ctx.n + 1
    monomials = _reference_columns(ctx.ops, ctx.n)[0]
    index = _reference_columns(ctx.ops, fresh)[1]
    tables = []
    for op in ctx.ops:
        for flip in ((False,) if op.symmetry != "none" else (False, True)):
            raws = [[(op.name, fresh, m.tree) if flip else (op.name, m.tree, fresh)
                     for m in monomials]]
            # at arity 1 the substitution is the multiplication
            for i in range(1, ctx.n + 1) if ctx.n > 1 else ():
                g = (op.name, fresh, i) if flip else (op.name, i, fresh)
                raws.append([substitute_tree(m.tree, i, g) for m in monomials])
            for trees in raws:
                table = []
                for raw in trees:
                    sign, img = normalize_tree(raw, ctx.table)
                    table.append((index[img], sign))
                tables.append(table)
    return tables


def _every_column(tables, ctx):
    return [[table[c] for c in range(ctx.ncols)] for table in tables]


@pytest.mark.parametrize("name", sorted(OP_SETS))
def test_index_maps_match_renormalised_trees(name):
    ops = OP_SETS[name]
    clear_cache()
    contexts = [get_context(ops, n) for n in range(1, 6)]
    for ctx, target in zip(contexts, contexts[1:] + [None]):
        assert _every_column(ctx.perm_generator_tables(), ctx) == _reference_perm_tables(ctx)
        if target is not None:
            lifts = ctx.lift_tables()
            # the type of an image is read without enumerating any type
            types = [[table.type_of(c) for c in range(ctx.ncols)] for table in lifts]
            assert _enumerated_types(target) == []
            reference = _reference_lift_tables(ctx)
            assert _every_column(lifts, ctx) == reference
            assert types == [[target.type_of(j) for j, _ in table] for table in reference]


@pytest.mark.parametrize("name", sorted(OP_SETS))
def test_apply_index_map_drops_killed_types(name):
    # every image type but the first killed, against the reference tables.
    # Under a lift the image types lie in the next context: under every other
    # table one killed type is enumerated first, and the others, never
    # looked up, stay unenumerated
    ops = OP_SETS[name]
    clear_cache()
    contexts = [get_context(ops, n) for n in range(1, 6)]
    enumerated = unenumerated = 0
    for ctx, target in zip(contexts, contexts[1:] + [None]):
        row = {c: (c % 7 + 1) * (-1) ** c for c in range(ctx.ncols)}
        pairs = [(table, ref, ctx) for table, ref in
                 zip(ctx.perm_generator_tables(), _reference_perm_tables(ctx))]
        if target is not None:
            pairs += [(table, ref, target) for table, ref in
                      zip(ctx.lift_tables(), _reference_lift_tables(ctx))]
        images = [[(j, sign, image_ctx.type_of(j)) for j, sign in ref]
                  for _, ref, image_ctx in pairs]
        for k, ((table, _, image_ctx), image) in enumerate(zip(pairs, images)):
            types = sorted({t for _, _, t in image})
            killed = set(types[1:] or types)
            fresh = sorted(t for t in killed if image_ctx._columns[t] is None)
            if image_ctx is target and fresh and k % 2:
                image_ctx._type_columns(fresh.pop())
                enumerated += 1
            expected = {j: v * sign for (j, sign, t), v in zip(image, row.values())
                        if t not in killed}
            for _ in range(2):  # the second time reads the recorded types
                assert engine.apply_index_map(row, table, ZZDomain.neg, killed) == expected
            if image_ctx is target:
                assert all(image_ctx._columns[t] is None for t in fresh)
                unenumerated += len(fresh)
        for (table, _, _), image in zip(pairs, images):
            assert engine.apply_index_map(row, table, ZZDomain.neg) == {
                j: v * sign for (j, sign, _), v in zip(image, row.values())}
    assert enumerated > 0 and unenumerated > 0


def test_index_maps_match_renormalised_trees_at_arity_six():
    ops = variety("anti-poisson").ops
    clear_cache()
    ctx5, ctx6 = get_context(ops, 5), get_context(ops, 6)
    assert _every_column(ctx5.lift_tables(), ctx5) == _reference_lift_tables(ctx5)
    assert _every_column(ctx6.perm_generator_tables(), ctx6) == _reference_perm_tables(ctx6)


def test_lift_tables_resolve_in_the_cached_next_level():
    ops = variety("anti-poisson").ops
    clear_cache()
    ctx3 = get_context(ops, 3)
    lifts = ctx3.lift_tables()
    old4 = weakref.ref(get_context(ops, 4))
    assert all(table._target() is old4() for table in lifts)
    # tables kept past clear_cache resolve in the level 4 they were built into
    clear_cache()
    assert old4() is not None and _enumerated_types(old4()) == []
    assert _every_column(lifts, ctx3) == _reference_lift_tables(ctx3)
    # a new level 3 lifts into the new level 4
    new3 = get_context(ops, 3)
    new_lifts = new3.lift_tables()
    assert new3 is not ctx3 and get_context(ops, 4) is not old4()
    assert all(table._target() is get_context(ops, 4) for table in new_lifts)
    assert _every_column(new_lifts, new3) == _reference_lift_tables(new3)


@pytest.mark.parametrize("n", [0, -1])
def test_a_context_needs_a_positive_arity(n):
    with pytest.raises(EngineError, match="arity must be positive"):
        get_context(TWO_OPS, n)


def test_one_context_per_signature():
    # the columns do not depend on the order the operations are declared in,
    # so a variety declaring bracket before dot shares poisson's contexts
    clear_cache()
    reversed_first = get_context((BRACKET, DOT), 4).monomials
    clear_cache()
    assert get_context((DOT, BRACKET), 4).monomials == reversed_first
    assert get_context((DOT, BRACKET), 4) is get_context((BRACKET, DOT), 4)
    poisson = variety("poisson")
    rev = Variety((BRACKET, DOT), poisson.identities, delta=poisson.delta, name="rev")
    clear_cache()
    assert equivalent(poisson, rev, 4)
    assert len(engine._CONTEXTS) == 4


def test_contexts_and_tables_die_with_the_cache():
    # freed by reference counting alone: a reference cycle through a context
    # would keep it and its tables alive until a cyclic collection
    clear_cache()
    gc.collect()
    gc.disable()
    try:
        v = variety("anti-poisson")
        assert dim_multilinear(v, 4) == 12
        contexts = [get_context(v.ops, n) for n in (3, 4)]
        tables = contexts[0].lift_tables() + contexts[1].perm_generator_tables()
        refs = [weakref.ref(ctx) for ctx in contexts]
        del contexts
        clear_cache()
        assert [r() for r in refs] == [None, None]
        # held only by `tables`, the loop variable and getrefcount's argument
        assert {sys.getrefcount(t) for t in tables} == {3}
    finally:
        gc.enable()


def test_normalized_monomials_are_interned_until_the_cache_clears():
    # equal keys give one Monomial object, and clear_cache bounds the table
    table = {"dot": "symmetric", "bracket": "antisymmetric"}
    sign, m = normalize_tree(("bracket", ("dot", 3, 1), 2), table)
    assert normalize_tree(("bracket", 2, ("dot", 1, 3)), table) == (-sign, m)
    assert normalize_tree(("bracket", 2, ("dot", 1, 3)), table)[1] is m
    clear_cache()
    assert not terms.MONOMIALS
    again = normalize_tree(("bracket", ("dot", 1, 3), 2), table)[1]
    assert again == m and again is not m and terms.MONOMIALS == {m.key: again}
