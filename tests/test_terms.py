"""Canonical monomials, enumeration, group action, substitution, polarization."""

import copy
import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from variety_forge.engine import MonomialContext, clear_cache, get_context
from variety_forge.exprs import parse_expr
from variety_forge.scalar import RF_ONE
from variety_forge.terms import (BRACKET, DOT, OpSymbol,
                                 Permutation, TermError, _tree_key, act,
                                 depolarize_expr, multilinearize, multiply_by_var, normalize,
                                 ops_table, polarize_expr, substitute)

from conftest import ONE_OP, OP_SETS, TWO_OPS, random_element, reference_monomials, seeded


def double_factorial_count(n: int, k: int) -> int:
    """(2n-3)!! * k^(n-1): canonical monomial count for k symmetric-type ops."""
    out = 1
    for v in range(2 * n - 3, 0, -2):
        out *= v
    return out * k ** (n - 1)


def test_normalize_examples():
    sign, m = normalize(("bracket", 2, 1), TWO_OPS)
    assert (sign, str(m)) == (-1, "bracket(x1,x2)")
    sign, m = normalize(("dot", 2, 1), TWO_OPS)
    assert (sign, str(m)) == (1, "dot(x1,x2)")
    sign, m = normalize(("bracket", ("dot", 3, 1), 2), TWO_OPS)
    assert (sign, str(m)) == (1, "bracket(dot(x1,x3),x2)")


def test_normalize_rejects_non_multilinear():
    with pytest.raises(TermError):
        normalize(("dot", 1, 1), TWO_OPS)
    with pytest.raises(TermError):
        normalize(("dot", 1, 3), TWO_OPS)  # gap in variables
    with pytest.raises(TermError):
        normalize(("wedge", 1, 2), TWO_OPS)  # undeclared operation
    # fragments allow gaps but not repeats
    sign, m = normalize(("dot", 1, 3), TWO_OPS, fragment=True)
    assert str(m) == "dot(x1,x3)"


def test_op_symbol_is_an_immutable_value():
    dot = OpSymbol("dot", "symmetric")
    assert dot == DOT and hash(dot) == hash(DOT) and len({dot, DOT}) == 1
    assert dot != OpSymbol("dot", "antisymmetric") and dot != ("dot", "symmetric")
    assert repr(dot) == "OpSymbol(name='dot', symmetry='symmetric')"
    assert str(BRACKET) == "bracket(antisymmetric)"
    assert copy.deepcopy(dot) == dot and pickle.loads(pickle.dumps(dot)) == dot
    with pytest.raises(AttributeError):
        dot.symmetry = "none"
    with pytest.raises(TermError, match="unknown symmetry 'sym'"):
        OpSymbol("dot", "sym")


def test_ops_table_rejects_a_repeated_name():
    assert ops_table(TWO_OPS) == {"dot": "symmetric", "bracket": "antisymmetric"}
    for ops in ((DOT, DOT), (DOT, OpSymbol("dot", "none"))):
        with pytest.raises(TermError, match="operation 'dot' declared twice"):
            ops_table(ops)


def test_normalize_idempotent_on_canonical():
    for mono in get_context(TWO_OPS, 4).monomials:
        sign, again = normalize(mono.tree, TWO_OPS)
        assert sign == 1 and again == mono


def test_enumerate_counts():
    assert len(get_context(TWO_OPS, 2).monomials) == 2
    assert len(get_context(TWO_OPS, 3).monomials) == 12
    assert len(get_context(TWO_OPS, 5).monomials) == 1680 == double_factorial_count(5, 2)
    assert len(get_context(TWO_OPS, 6).monomials) == 30240 == double_factorial_count(6, 2)
    assert len(get_context(ONE_OP, 3).monomials) == 12  # ordered trees: 2 shapes x 3! labels
    assert len(get_context(ONE_OP, 2).monomials) == 2
    one_sym = (DOT,)
    for n in range(1, 6):
        assert len(get_context(one_sym, n).monomials) == double_factorial_count(n, 1)
    three_sym = (DOT, BRACKET, OpSymbol("wedge", "antisymmetric"))
    for n in range(2, 5):
        assert len(get_context(three_sym, n).monomials) == double_factorial_count(n, 3)


def test_enumerate_matches_bruteforce_normalization():
    # independent oracle: all ordered trees x op labels x leaf assignments,
    # then quotient by the symmetry relations through normalize
    def ordered_trees(leaves):
        if len(leaves) == 1:
            yield leaves[0]
            return
        for cut in range(1, len(leaves)):
            for left in ordered_trees(leaves[:cut]):
                for right in ordered_trees(leaves[cut:]):
                    for op in ("dot", "bracket"):
                        yield (op, left, right)

    seen = set()
    for perm in itertools.permutations((1, 2, 3)):
        for tree in ordered_trees(list(perm)):
            _, mono = normalize(tree, TWO_OPS)
            seen.add(mono)
    monos = get_context(TWO_OPS, 3).monomials
    assert seen == set(monos) == set(reference_monomials(3, TWO_OPS))


def _ordered_trees(leaves, names):
    if len(leaves) == 1:
        yield leaves[0]
        return
    for cut in range(1, len(leaves)):
        for left in _ordered_trees(leaves[:cut], names):
            for right in _ordered_trees(leaves[cut:], names):
                for name in names:
                    yield (name, left, right)


def _decode(nodes, i):
    code = nodes[i]
    if isinstance(code, int):
        return code
    return (code[0], _decode(nodes, code[1]), _decode(nodes, code[2]))


@pytest.mark.parametrize("name", sorted(OP_SETS))
def test_coded_enumeration(name):
    ops = OP_SETS[name]
    names = [op.name for op in ops]
    for n in range(1, 5):
        # the arity-n monomials are exactly the normalized raw trees, sorted,
        # both from the arity context and from the oracle of the tests
        seen = set()
        for perm in itertools.permutations(range(1, n + 1)):
            for tree in _ordered_trees(list(perm), names):
                seen.add(normalize(tree, ops)[1])
        for monos in (get_context(ops, n).monomials, reference_monomials(n, ops)):
            assert monos == sorted(seen)
            assert [m.key for m in monos] == sorted(m.key for m in monos)
    # an arity-6 context records the subtrees over 1..k of each kind, the
    # types of arity k, on demand; they are that type's monomials
    ctx = MonomialContext(ops, 6)
    assert not ctx.nodes
    for k in range(1, 6):
        reference = {}
        for m in reference_monomials(k, ops):
            reference.setdefault(m.key[:2], []).append(m.tree)
        kinds = [kind for kind, size in enumerate(ctx._kind_size) if size == k]
        assert sorted(ctx._kind_keys[kind] for kind in kinds) == sorted(reference)
        for kind in kinds:
            trees = [_decode(ctx.nodes, i) for i in ctx.of_kind(frozenset(range(1, k + 1)), kind)]
            assert sorted(trees, key=_tree_key) == reference[ctx._kind_keys[kind]]
    nodes = ctx.nodes
    for i, code in enumerate(nodes):
        if isinstance(code, tuple):
            assert all(c < i for c in code[1:])
    trees = [_decode(nodes, i) for i in range(len(nodes))]
    # every node is keyed by its tree, and each subtree has one id
    assert [_tree_key(tree) for tree in trees] == ctx._keys
    assert len(set(trees)) == len(trees)
    assert all(ctx.node_id[code] == i for i, code in enumerate(nodes))


def test_enumerate_order_is_deterministic():
    monos = get_context(TWO_OPS, 3).monomials
    clear_cache()
    again = get_context(TWO_OPS, 3).monomials
    assert again is not monos and monos == again
    assert [m.key for m in monos] == sorted(m.key for m in monos)


def test_act_examples():
    swap = Permutation((2, 1))
    br = parse_expr("bracket(x1,x2)", TWO_OPS)
    assert act(swap, br, TWO_OPS) == br.scale(-1)
    dot = parse_expr("dot(x1,x2)", TWO_OPS)
    assert act(swap, dot, TWO_OPS) == dot
    e = parse_expr("bracket(dot(x1,x2),x3)", TWO_OPS)
    assert act(Permutation((3, 2, 1)), e, TWO_OPS) == \
        parse_expr("bracket(dot(x2,x3),x1)", TWO_OPS)


@given(st.integers(0, 10 ** 6), st.integers(3, 4))
def test_act_is_group_action(seed, n):
    rng = seeded(seed)
    e = random_element(rng, TWO_OPS, n)
    imgs = list(itertools.permutations(range(1, n + 1)))
    s1 = Permutation(rng.choice(imgs))
    s2 = Permutation(rng.choice(imgs))
    assert act(s1.compose(s2), e, TWO_OPS) == act(s1, act(s2, e, TWO_OPS), TWO_OPS)


def test_substitute_examples():
    br = parse_expr("bracket(x1,x2)", TWO_OPS)
    _, g = normalize(("dot", 1, 3), TWO_OPS, fragment=True)
    assert substitute(br, 1, g, TWO_OPS) == parse_expr("bracket(dot(x1,x3),x2)", TWO_OPS)
    dotted = parse_expr("dot(x1,x2)", TWO_OPS)
    _, g2 = normalize(("bracket", 1, 3), TWO_OPS, fragment=True)
    assert substitute(dotted, 1, g2, TWO_OPS) == \
        parse_expr("dot(bracket(x1,x3),x2)", TWO_OPS)
    # renumbering squeezes gaps: substitute x2 <- x2.x4 inside bracket(x1,x2);
    # the antisymmetric root reorders, so a sign appears
    _, g3 = normalize(("dot", 2, 4), TWO_OPS, fragment=True)
    out = substitute(br, 2, g3, TWO_OPS)
    assert out == parse_expr("-bracket(dot(x2,x3),x1)", TWO_OPS)


def test_substitute_product_into_linkage_law():
    # z <- z.t inside the linkage law produces the relation between
    # {xy,zt} and the two arity-4 right-hand monomials, a consequence row
    law = parse_expr("bracket(dot(x1,x2),x3) - d*dot(x1,bracket(x2,x3))"
                     " - d*dot(bracket(x1,x3),x2)", TWO_OPS)
    _, zt = normalize(("dot", 3, 4), TWO_OPS, fragment=True)
    lifted = substitute(law, 3, zt, TWO_OPS)
    expected = parse_expr(
        "bracket(dot(x1,x2),dot(x3,x4)) - d*dot(x1,bracket(x2,dot(x3,x4)))"
        " - d*dot(bracket(x1,dot(x3,x4)),x2)", TWO_OPS)
    assert lifted == expected
    from variety_forge.catalog import variety
    from variety_forge.engine import is_consequence
    assert is_consequence(variety("delta-poisson"), lifted, 4)


def test_multiply_by_var():
    br = parse_expr("bracket(x1,x2)", TWO_OPS)
    assert multiply_by_var(br, DOT) == parse_expr("dot(bracket(x1,x2),x3)", TWO_OPS)
    # symmetric op: left and right placements agree
    assert multiply_by_var(br, DOT, "left") == multiply_by_var(br, DOT, "right")
    jac = parse_expr("bracket(bracket(x1,x2),x3) + bracket(bracket(x2,x3),x1)"
                     " + bracket(bracket(x3,x1),x2)", TWO_OPS)
    lifted = multiply_by_var(jac, DOT)
    assert lifted.arity == 4 and len(lifted.terms) == 3


def test_multilinearize_examples():
    fam = multilinearize([(("dot", 1, 1), RF_ONE)], TWO_OPS)
    assert fam == [parse_expr("2*dot(x1,x2)", TWO_OPS)]
    fam = multilinearize([(("m", ("m", 1, 1), 1), RF_ONE)], ONE_OP)
    (e,) = fam
    assert e.arity == 3 and len(e.terms) == 6  # the full S3 spread of (xx)x
    # (x,x,x^2)-type polarization lives in arity 4
    assoc_on_squares = [
        (("m", ("m", 1, 1), ("m", 1, 1)), RF_ONE),
        (("m", 1, ("m", 1, ("m", 1, 1))), -RF_ONE),
    ]
    (e4,) = multilinearize(assoc_on_squares, ONE_OP)
    assert e4.arity == 4


def test_polarize_depolarize_examples():
    e = parse_expr("m(x1,x2)", ONE_OP)
    assert polarize_expr(e) == parse_expr("dot(x1,x2) + bracket(x1,x2)", TWO_OPS)
    e21 = parse_expr("m(x2,x1)", ONE_OP)
    assert polarize_expr(e21) == parse_expr("dot(x1,x2) - bracket(x1,x2)", TWO_OPS)
    assert depolarize_expr(parse_expr("dot(x1,x2)", TWO_OPS)) == \
        parse_expr("1/2*m(x1,x2) + 1/2*m(x2,x1)", ONE_OP)
    assert depolarize_expr(parse_expr("bracket(x1,x2)", TWO_OPS)) == \
        parse_expr("1/2*m(x1,x2) - 1/2*m(x2,x1)", ONE_OP)
    with pytest.raises(TermError):
        depolarize_expr(e)  # m is neither dot nor bracket


@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_polarization_round_trips(seed, n):
    rng = seeded(seed)
    one = random_element(rng, ONE_OP, n, delta_coeffs=True)
    assert depolarize_expr(polarize_expr(one)) == one
    two = random_element(rng, TWO_OPS, n, delta_coeffs=True)
    assert polarize_expr(depolarize_expr(two)) == two
