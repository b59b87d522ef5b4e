"""Koszul duals of quadratic varieties, Hilbert series, free bases."""

import copy
import itertools
from fractions import Fraction

import pytest

from variety_forge import engine
from variety_forge.catalog import identity, presentation, variety, variety_names
from variety_forge.engine import (ArityOverflowError, Variety, consequences,
                                  dim_multilinear, element_to_row, equivalent,
                                  get_context)
from variety_forge.exprs import format_element, parse_expr
from variety_forge.linalg import RowBasis
from variety_forge.operads import (KoszulVerdict, OperadError, _check_quadratic,
                                   _dual_signature, _format_series, _leaf_sign,
                                   _standard_bracketing, _swap_ops,
                                   compose, free_delta_p_basis,
                                   hilbert_series, koszul_dual,
                                   koszulness_witness)
from variety_forge.scalar import DELTA, RationalFunction
from variety_forge.terms import (BRACKET, DOT, OpSymbol, Permutation, act,
                                 normalize_tree)

F = Fraction
d = DELTA

# the fixed ordered arity-3 sub-bases of the printed relation matrices
_BLOCK_SOURCES = {
    "mixed": ("bracket(dot(x1,x2),x3)", "bracket(dot(x1,x3),x2)", "bracket(dot(x2,x3),x1)",
              "dot(bracket(x1,x2),x3)", "dot(bracket(x1,x3),x2)", "dot(bracket(x2,x3),x1)"),
    "pure-dot": ("dot(dot(x1,x2),x3)", "dot(dot(x1,x3),x2)", "dot(dot(x2,x3),x1)"),
    "pure-bracket": ("bracket(bracket(x1,x2),x3)", "bracket(bracket(x1,x3),x2)",
                     "bracket(bracket(x2,x3),x1)"),
}


def block_basis(v: Variety, block: str):
    """The fixed ordered sub-basis, restricted to the available generators."""
    try:
        sources = _BLOCK_SOURCES[block]
    except KeyError:
        raise OperadError("unknown block %r (mixed | pure-dot | pure-bracket)" % block)
    names = {op.name for op in v.ops}
    out = []
    for src in sources:
        used = {w for w in ("dot", "bracket") if w in src}
        if used <= names:
            e = parse_expr(src, v.ops)
            ((mono, _),) = e.terms.items()
            out.append(mono)
    return out


def dual_relation_matrix(v: Variety, block: str):
    """Coefficient rows of v's identities on the block, in the listed order.

    Identities with no support on the block are skipped; one that
    straddles the block boundary is an error since the printed matrices are
    block-homogeneous.
    """
    basis = block_basis(v, block)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for rel in v.identities:
        row = [None] * len(basis)
        inside = 0
        for mono, coeff in rel.terms.items():
            if mono in index:
                row[index[mono]] = coeff
                inside += 1
        if inside == 0:
            continue
        if inside != len(rel.terms):
            raise OperadError("relation %s straddles the %s block" % (rel, block))
        rows.append([c if c is not None else RationalFunction(0) for c in row])
    return rows


def test_printed_mixed_matrix_of_the_self_dual_family():
    rows = dual_relation_matrix(presentation("delta-poisson"), "mixed")
    expected = [
        [1, 0, 0, 0, -d, -d],
        [0, 1, 0, -d, 0, d],
        [0, 0, 1, d, d, 0],
    ]
    assert [[c for c in row] for row in rows] == \
        [[x if hasattr(x, "num") else (d - d + x) for x in row] for row in expected]


def test_printed_mixed_matrix_of_mixed_poisson():
    rows = dual_relation_matrix(presentation("mixed-poisson"), "mixed")
    expected = [
        [1, 0, 0, 0, 1, -1],
        [1, 0, 0, 0, -1, 1],
        [0, 1, 0, -1, 0, -1],
        [0, 1, 0, 1, 0, 1],
        [0, 0, 1, 1, -1, 0],
        [0, 0, 1, -1, 1, 0],
    ]
    assert [[c.as_fraction() for c in row] for row in rows] == \
        [[F(x) for x in row] for row in expected]


def test_pure_blocks_and_empty_matrix():
    dp = presentation("delta-poisson")
    assert [[c.as_fraction() for c in r] for r in dual_relation_matrix(dp, "pure-dot")] \
        == [[1, 0, -1]]
    assert [[c.as_fraction() for c in r] for r in dual_relation_matrix(dp, "pure-bracket")] \
        == [[1, -1, 1]]
    no_mixed = presentation("com-lie")
    assert dual_relation_matrix(no_mixed, "mixed") == []
    with pytest.raises(OperadError):
        dual_relation_matrix(dp, "sideways")


def test_block_basis_order():
    dp = presentation("delta-poisson")
    assert [str(m) for m in block_basis(dp, "mixed")] == [
        "bracket(dot(x1,x2),x3)", "bracket(dot(x1,x3),x2)", "bracket(dot(x2,x3),x1)",
        "dot(bracket(x1,x2),x3)", "dot(bracket(x1,x3),x2)", "dot(bracket(x2,x3),x1)"]


def test_self_duality_of_the_linkage_family():
    for q in (F(-1), F(1, 2), F(2)):
        dp = variety("delta-poisson", delta=q)
        assert equivalent(koszul_dual(dp), dp, 3)
    for q in (F(-1), F(1, 2), F(2)):
        tp = variety("transposed-delta-poisson", delta=q)
        assert equivalent(koszul_dual(tp), tp, 3)


def test_mixed_poisson_dual_is_pure():
    dual = koszul_dual(presentation("mixed-poisson"))
    assert all(len(rel.op_names()) == 1 for rel in dual.identities)
    assert equivalent(dual, variety("com-lie"), 3)
    assert [dim_multilinear(dual, n) for n in (2, 3, 4)] == [2, 9, 67]


def test_com_lie_duality_and_biduality():
    com = presentation("com")
    dual = koszul_dual(com)
    (op,) = dual.ops
    assert op.symmetry == "antisymmetric"
    assert equivalent(dual, _rename_variety(variety("lie"), op.name), 3)
    again = koszul_dual(dual)
    assert equivalent(again, _rename_variety(variety("com"), op.name), 3)


def _rename_variety(v, new_name):
    (op,) = v.ops
    renamed = OpSymbol(new_name, op.symmetry)
    idents = [parse_expr(format_element(e).replace(op.name + "(", new_name + "("),
                         (renamed,)) for e in v.identities]
    return Variety((renamed,), idents, delta=v.delta, name=v.name)


def test_biduality_of_two_operation_presentations():
    for name in ("mixed-poisson", "com-lie"):
        p = presentation(name)
        assert equivalent(koszul_dual(koszul_dual(p)), p, 3)
    ap = presentation("anti-poisson")
    assert equivalent(koszul_dual(koszul_dual(ap)), ap, 3)


def test_dimension_duality_at_arity_three():
    for p in (presentation("anti-poisson"), presentation("mixed-poisson"),
              presentation("com-lie"), variety("transposed-delta-poisson", delta=F(2))):
        dual = koszul_dual(p)
        r1 = consequences(p, 3).rank
        r2 = consequences(dual, 3).rank
        assert r1 + r2 == 12


def _quadratic_presentations():
    """Every catalog presentation and every quadratic catalog variety."""
    out = [presentation(name) for name in
           ("delta-poisson", "anti-poisson", "poisson", "transposed-delta-poisson",
            "mixed-poisson", "com", "lie", "com-lie")]
    for name in variety_names():
        v = variety(name)
        try:
            _check_quadratic(v)
        except OperadError:
            continue  # an identity of arity 4, or a generator without symmetry
        out.append(v)
    return out


def test_relation_span_is_the_arity_three_consequence_space():
    presentations = _quadratic_presentations()
    assert len(presentations) == 21  # 8 presentations, 13 quadratic varieties
    for p in presentations:
        ctx = get_context(p.ops, 3)
        images = [act(Permutation(img), rel, p.ops)
                  for rel in p.identities for img in itertools.permutations((1, 2, 3))]
        span = RowBasis(len(ctx.monomials), p.domain)
        for img in images:
            span.insert(element_to_row(img, ctx, p.delta, p.domain))
        assert span.canonical_rows() == \
            consequences(p, 3).basis.canonical_rows(), p.name
        # the dual relations are the RREF basis of the orthogonal complement of
        # that span under the sign-twisted pairing, so they are fixed by it
        dual = koszul_dual(p)
        dual_ops, name_map = _dual_signature(p.ops)
        assert dual.ops == dual_ops
        assert len(dual.identities) == len(ctx.monomials) - span.rank, p.name
        dual_table = get_context(dual_ops, 3).table
        for img in images:
            for rel in dual.identities:
                pairing = 0
                for mono, c in img.terms.items():
                    sign, twin = normalize_tree(_swap_ops(mono.tree, name_map), dual_table)
                    if twin in rel.terms:
                        pairing = pairing + c * rel.terms[twin] * (sign * _leaf_sign(mono))
                if p.delta is not None and pairing:
                    pairing = pairing.eval_at(p.delta)
                assert pairing == 0, (p.name, str(img), str(rel))


def test_dual_rejects_bad_presentations():
    with pytest.raises(OperadError, match="no symmetry"):
        koszul_dual(Variety((OpSymbol("m", "none"),), ()))
    # xyzt-1 has arity 4
    with pytest.raises(OperadError, match="arity 4"):
        koszul_dual(Variety((DOT, BRACKET), (identity("xyzt-1"),)))


def test_hilbert_series_values():
    h = hilbert_series([1, 2, 6, 12, 31])
    assert h == (F(-1), F(1), F(-1), F(1, 2), F(-31, 120))
    assert hilbert_series([1]) == (F(-1),)
    # derived by plugging (n-1)!+1 into (-1)^n dim/n!
    assert hilbert_series([1, 2, 3, 7, 25]) == (F(-1), F(1), F(-1, 2), F(7, 24), F(-5, 24))
    assert _format_series((1, -1, 0, F(1, 2), -3)) == "t - t^2 + 1/2*t^4 - 3*t^5"


def test_compose_examples():
    h = hilbert_series([1, 2, 6, 12, 31])
    assert compose(h, h) == (F(1), 0, 0, 0, F(91, 60))
    f = (F(3), F(-2), F(5))
    assert compose(f, (1, 0, 0)) == f
    # truncated at the shorter input
    assert compose(f, (1,)) == (3,)
    assert compose((1,), f) == (3,)
    assert compose((-1,), (-1,)) == (1,)


def test_koszul_verdict_from_dims():
    # the order, both series, the composition and the deviation come from the dims
    w = KoszulVerdict("x", (1, 1), (1, 2))
    assert w.order == 2 and not w.probabilistic
    assert w.series == (-1, F(1, 2)) and w.dual_series == (-1, 1)
    # -(-t + t^2) + (-t + t^2)^2 / 2 = t - t^2/2 through t^2
    assert w.composed == (1, F(-1, 2)) and (w.deviation_order, w.deviation) == (2, F(-1, 2))
    assert not w.consistent


def test_koszulness_witnesses():
    w = koszulness_witness(variety("anti-poisson"), 5)
    assert not w.consistent
    assert w.deviation_order == 5 and w.deviation == F(91, 60)
    assert "deviation=91/60" in w.to_lines()
    assert "order=5" in w.to_lines()

    w2 = koszulness_witness(variety("mixed-poisson"), 5)
    assert w2.consistent
    assert w2.dims == (1, 2, 3, 7, 25)
    assert w2.dual_dims == (1, 2, 9, 67, 695)

    w3 = koszulness_witness(variety("com"), 4)
    assert w3.consistent
    assert w3.dims == (1, 1, 1, 1) and w3.dual_dims == (1, 1, 2, 6)


def test_koszulness_past_the_paper_tables():
    # the paper's tables stop at t^5; transposed delta-Poisson already fails
    # there, and the mixed-Poisson / com-lie pair stays consistent at t^6
    tdp = koszulness_witness(variety("transposed-delta-poisson"), 5)
    assert tdp.dims == tdp.dual_dims == (1, 2, 6, 20, 66)
    assert tdp.deviation_order == 5 and tdp.deviation == F(1, 10)
    assert not tdp.consistent

    mp = koszulness_witness(variety("mixed-poisson"), 6)
    assert mp.consistent
    assert mp.dims[-2:] == (25, 121) and mp.dual_dims[-2:] == (695, 9256)
    assert "verdict=consistent with Koszul through order 6" in mp.to_lines()

    cl = koszulness_witness(variety("com-lie"), 6)
    assert cl.consistent
    assert cl.dims == mp.dual_dims and cl.dual_dims == mp.dims


def test_koszulness_witness_sampled_flag():
    w = koszulness_witness(variety("delta-poisson"), 3, mode="sampled")
    assert w.probabilistic
    assert "probabilistic=yes" in w.to_lines()
    # no sample point is taken for a d-free variety
    assert not koszulness_witness(variety("mixed-poisson"), 3, mode="sampled").probabilistic


def test_free_basis_counts():
    expected = {1: (1,), 2: (1, 1), 3: (2, 3, 1), 4: (6, 2, 3, 1),
                5: (24, 6, 1), 6: (120, 24, 1)}
    for n, counts in expected.items():
        report = free_delta_p_basis(n)
        assert report.counts == counts
        assert report.total == sum(counts)
    assert free_delta_p_basis(5).total == 31
    assert free_delta_p_basis(6).total == 145
    # (n-1)! Lie words: the guard refuses before any is built
    with pytest.raises(ArityOverflowError, match="free-basis guard 9"):
        free_delta_p_basis(10)


def test_koszul_order_past_the_arity_guard_builds_nothing():
    # every dimension through the order is needed, so the guard refuses first
    engine.clear_cache()
    with pytest.raises(ArityOverflowError, match="arity guard 6"):
        koszulness_witness(variety("poisson"), engine.MAX_ARITY + 1)
    assert not engine._SPACE_CACHE


def _longest_lyndon_suffix_bracketing(word):
    """Reference: split at the longest proper suffix that is smaller than
    each of its own proper suffixes."""
    if len(word) == 1:
        return word[0]
    i = next(i for i in range(1, len(word))
             if all(word[i:] < word[j:] for j in range(i + 1, len(word))))
    return ("bracket", _longest_lyndon_suffix_bracketing(word[:i]),
            _longest_lyndon_suffix_bracketing(word[i:]))


def test_standard_bracketing_splits_at_the_longest_lyndon_suffix():
    for n in range(1, 7):
        for perm in itertools.permutations(range(2, n + 1)):
            word = (1,) + perm
            assert _standard_bracketing(word) == _longest_lyndon_suffix_bracketing(word)


def test_free_basis_is_complement_of_the_ideal():
    ap = variety("anti-poisson")
    space = consequences(ap, 5)
    ctx = get_context(ap.ops, 5)
    basis = copy.deepcopy(space.basis)
    added = 0
    for _, monos in free_delta_p_basis(5).families:
        for m in monos:
            if basis.insert({ctx.index[m]: 1}):
                added += 1
    assert added == 31
    assert basis.rank == len(ctx.monomials)
