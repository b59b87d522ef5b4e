"""Structure-constant algebras: loading, evaluation, witnesses, constructions."""

import itertools
from fractions import Fraction

import pytest

from variety_forge.algebras import (Algebra, AlgebraError, format_algebra,
                                    merge_polarization, parse_algebra_text,
                                    split_polarization, tensor)
from variety_forge.catalog import (_IDENTITY_SOURCES, CatalogError, algebra,
                                   algebra_names, identity, variety, variety_names)
from variety_forge.exprs import parse_expr
from variety_forge.terms import BRACKET, DOT, PLAIN, TermError

from conftest import bracket_is_perfect, dense_rref, random_element, seeded

F = Fraction


def test_load_algebra_and_symmetry_completion():
    a = parse_algebra_text("""
        # three-dimensional sample
        dim 3
        dot e1 e1 = e2
        bracket e1 e2 = e3
    """)
    assert a.dim == 3
    assert a.tables["bracket"][(1, 0)] == {2: F(-1)}
    assert a.tables["dot"][(0, 0)] == {1: F(1)}


def test_load_algebra_errors():
    with pytest.raises(AlgebraError):
        parse_algebra_text("dim 2\nbracket e1 e1 = e2\n")
    with pytest.raises(AlgebraError):
        parse_algebra_text("dim 2\ndot e1 e3 = e1\n")
    with pytest.raises(AlgebraError):
        parse_algebra_text("dim 2\nm e1 e2 = e7\n")
    with pytest.raises(AlgebraError):
        parse_algebra_text("dot e1 e1 = e1\n")  # missing dim
    # a param line binds d, as in a variety file; no other name is read
    for text in ("dim\n", "dim two\n", "dim 2\nop dot\n", "dim 2\nparam delta\n",
                 "dim 2\nparam delta = x\n", "dim 2\nop dot sym\n",
                 "dim 2\ndot e1 e1 = 1/0*e2\n", "dim 2\nparam beta = 2\n",
                 "dim 2\nop dot symmetric\nop dot antisymmetric\n"):
        with pytest.raises(AlgebraError, match=r"^line \d+: "):
            parse_algebra_text(text)
    assert parse_algebra_text("dim 2\nparam delta = -1/2\n").delta == F(-1, 2)
    # the dimension and d are given once each, refused on the repeated line
    with pytest.raises(AlgebraError, match=r"^line 2: dimension declared twice"):
        parse_algebra_text("dim 3\ndim 2\n")
    with pytest.raises(AlgebraError, match=r"^line 3: parameter 'delta' declared twice"):
        parse_algebra_text("dim 2\nparam delta = 1\nparam delta = 2\n")
    # catalog algebras: the name, and the free parameter of a family
    with pytest.raises(CatalogError, match="unknown algebra"):
        algebra("no-such-algebra")
    with pytest.raises(CatalogError, match="must be nonzero"):
        algebra("P-beta", beta=0)
    for name, kwargs in (("P-beta", {"gamma": 1}), ("A1", {"beta": 1}),
                         ("A1", {"delta": 2})):
        with pytest.raises(CatalogError, match="unexpected parameters"):
            algebra(name, **kwargs)
    conflicting = """
        dim 2
        dot e1 e2 = e1
        dot e2 e1 = e2
    """
    with pytest.raises(AlgebraError):
        parse_algebra_text(conflicting)
    with pytest.raises(TermError, match="declared twice"):
        Algebra(1, (DOT, DOT), [])


def test_lincomb_parsing_variants():
    a = parse_algebra_text("""
        dim 5
        m e1 e2 = e4 + e5
        m e2 e1 = e5 - e4
        m e1 e1 = 1/2 e3
        m e2 e2 = -2*e3
        m e3 e3 = 0
    """)
    assert a.tables["m"][(0, 1)] == {3: F(1), 4: F(1)}
    assert a.tables["m"][(1, 0)] == {3: F(-1), 4: F(1)}
    assert a.tables["m"][(0, 0)] == {2: F(1, 2)}
    assert a.tables["m"][(1, 1)] == {2: F(-2)}
    assert (2, 2) not in a.tables["m"]


def test_format_parse_roundtrip():
    for name in ("A1", "P-beta", "td1-B3", "zero"):
        a = algebra(name) if name != "P-beta" else algebra(name, beta=1)
        text = format_algebra(a)
        back = parse_algebra_text(text, name=name)
        assert back.dim == a.dim and back.delta == a.delta
        for op in a.tables:
            assert back.tables[op] == a.tables[op]


def test_eval_identity_witness():
    b1 = algebra("sc-B1")
    entry = b1.eval_identity(identity("sc2"), label="sc2")
    assert not entry.satisfied
    assert entry.witness is not None
    # the witness must re-evaluate to the reported nonzero value
    assignment = {i + 1: {entry.witness[i]: F(1)} for i in range(3)}
    again = _eval_element(b1, identity("sc2"), assignment)
    assert again == entry.value and again


def test_zero_algebra_satisfies_everything():
    z = algebra("zero")
    for name in ("delta-poisson", "mixed-poisson", "f-manifold"):
        assert z.check_variety(variety(name, delta=F(7))).all_satisfied


def test_unbound_delta_is_an_error():
    b1 = algebra("trans-B1")  # no delta binding
    with pytest.raises(AlgebraError):
        b1.eval_identity(identity("F-delta"))
    assert b1.eval_identity(identity("F-delta"), delta=F(2)).satisfied


def test_missing_operation_is_an_error_in_every_evaluation():
    b1 = algebra("sc-B1")  # declares only m
    assoc = identity("assoc")
    with pytest.raises(AlgebraError, match=r"lacks operations \['dot'\]"):
        b1.eval_identity(assoc)
    with pytest.raises(AlgebraError, match=r"lacks operations \['dot'\]"):
        b1.check_variety(variety("poisson"))


def test_fractional_coefficients_need_no_delta_binding():
    # 1/2 is a constant: checking it must not ask for a value of d
    half = parse_expr("1/2*m(m(x1,x2),x3) - 1/2*m(x2,m(x3,x1))", (PLAIN,))
    assert algebra("sc-B1").delta is None
    entry = algebra("sc-B1").eval_identity(half)
    assert entry.value == {k: c / 2 for k, c in
                           algebra("sc-B1").eval_identity(identity("shift-assoc")).value.items()}


def test_p_beta_example():
    pb = algebra("P-beta", beta=1)
    assert pb.check_variety(variety("delta-poisson", delta=F(1, 3))).all_satisfied
    assert pb.check_variety(variety("transposed-delta-poisson", delta=F(1))).all_satisfied
    entry = pb.eval_identity(identity("product-of-bracket"), label="x{y,z}")
    assert not entry.satisfied
    assert entry.witness == (0, 0, 1)
    assert entry.value == {3: F(3)}  # 3*e4
    # beta=2 gives the 1/6-Poisson member of the family
    pb2 = algebra("P-beta", beta=2)
    assert pb2.check_variety(variety("delta-poisson", delta=F(1, 6))).all_satisfied
    assert pb2.check_variety(variety("transposed-delta-poisson", delta=F(2))).all_satisfied


def test_simple_pair_against_transposed_minus_one():
    tm1 = variety("transposed-delta-poisson", delta=F(-1))
    for name in ("A1", "A2"):
        a = algebra(name)
        assert a.check_variety(tm1).all_satisfied
        assert bracket_is_perfect(a)
        # the dot part alone is not perfect, the bracket is what spans
        assert len(dense_rref(list(a.tables["dot"].values()), a.dim)) < a.dim


def test_tensor_examples():
    one = Algebra(1, (DOT, BRACKET), [("dot", 1, 1, {1: 1})], name="unit")
    t = tensor(one, one)
    assert t.dim == 1 and t.tables["dot"][(0, 0)] == {0: F(1)}
    a1 = algebra("A1")
    t2 = tensor(a1, a1)
    assert t2.dim == 9
    assert t2.check_variety(variety("transposed-delta-poisson", delta=F(-1))).all_satisfied
    with pytest.raises(AlgebraError):
        tensor(a1, algebra("sc-B1"))
    # the product keeps d only where both factors bind the same value
    assert t2.delta == F(-1) and tensor(a1, algebra("A2")).delta == F(-1)
    assert tensor(a1, algebra("transposed-half")).delta is None
    assert tensor(a1, algebra("zero")).delta is None


def test_tensor_square_of_the_parameter_family():
    # the tensor square of a member of the linkage family stays in it
    pb = algebra("P-beta", beta=1)
    square = tensor(pb, pb)
    assert square.dim == 25
    assert square.check_variety(variety("delta-poisson", delta=F(1, 3))).all_satisfied


def test_tensor_symmetry_under_factor_swap():
    a1, a2 = algebra("A1"), algebra("A2")
    t12, t21 = tensor(a1, a2), tensor(a2, a1)
    assert t12.dim == t21.dim == 9

    def swap(idx, da, db):
        i, j = divmod(idx, db)
        return j * da + i

    for op in ("dot", "bracket"):
        swapped = {}
        for (i, j), comps in t21.tables[op].items():
            swapped[(swap(i, a2.dim, a1.dim), swap(j, a2.dim, a1.dim))] = {
                swap(k, a2.dim, a1.dim): c for k, c in comps.items()}
        assert swapped == t12.tables[op]


def test_split_polarization_examples():
    commutative = parse_algebra_text("dim 2\nm e1 e1 = e2\nm e1 e2 = e1\nm e2 e1 = e1\n")
    split = split_polarization(commutative)
    assert not split.tables["bracket"]
    anticomm = parse_algebra_text("dim 3\nm e1 e2 = e3\nm e2 e1 = -e3\n")
    split2 = split_polarization(anticomm)
    assert not split2.tables["dot"]
    assert split2.tables["bracket"][(0, 1)] == {2: F(1)}


def test_split_then_merge_recovers_constants():
    for name in ("sc-B1", "td1-B3", "dmix-B1", "tsc-B2"):
        a = algebra(name)
        back = merge_polarization(split_polarization(a))
        assert back.tables["m"] == a.tables["m"]


def test_shift_associative_split_satisfies_anti_poisson_linkage():
    # nilpotent noncommutative sample with (xy)z = y(zx): all double products
    # vanish, so shift associativity holds while m(e1,e2) = -m(e2,e1) != 0
    a = parse_algebra_text("""
        dim 3
        m e1 e2 = e3
        m e2 e1 = -e3
    """)
    assert a.eval_identity(identity("shift-assoc")).satisfied
    assert a.tables["m"][(0, 1)] != a.tables["m"].get((1, 0))
    split = split_polarization(a)
    assert not split.tables["dot"]
    assert split.eval_identity(identity("jacobi")).satisfied
    # the bracket-product linkage of the delta = -1 case holds on the split
    assert split.eval_identity(identity("delta-poisson-law"), delta=F(-1)).satisfied
    assert split.eval_identity(identity("assoc")).satisfied


def _dense_ideal(a, subset):
    """RREF of the ideal generated by basis vectors, by dense Gauss-Jordan."""
    span = dense_rref([{i: F(1)} for i in subset], a.dim)
    while True:
        products = [p for op in a.tables for x in span for i in range(a.dim)
                    for p in (_apply(a, op, x, {i: F(1)}), _apply(a, op, {i: F(1)}, x))]
        grown = dense_rref(span + products, a.dim)
        if len(grown) == len(span):
            return span
        span = grown


def _proper_ideal_from_basis_subsets(a):
    """The first basis subset, by size, that generates a proper nonzero ideal."""
    for size in range(1, a.dim):
        for subset in itertools.combinations(range(a.dim), size):
            if len(_dense_ideal(a, subset)) < a.dim:
                return subset
    return None


def test_simplicity_check_on_the_classified_pair():
    for name in ("A1", "A2"):
        a = algebra(name)
        assert bracket_is_perfect(a)
        assert _proper_ideal_from_basis_subsets(a) is None
    assert _proper_ideal_from_basis_subsets(algebra("zero")) == (0,)
    assert _proper_ideal_from_basis_subsets(algebra("dmix-B1")) is not None


def test_multilinearity_shortcut_on_random_vectors():
    rng = seeded(7)
    a1 = algebra("A1")
    law = identity("transposed-delta-poisson-law")
    assert a1.eval_identity(law, delta=F(-1)).satisfied
    for _ in range(100):
        assignment = {i: {k: F(rng.randint(-5, 5), rng.randint(1, 4))
                          for k in range(a1.dim)} for i in (1, 2, 3)}
        assert not _eval_element(a1, law, assignment, delta=F(-1))


# ---------------------------------------------------------------------------
# eval_identity against the per-tuple loop it replaced, over a reference
# evaluator that multiplies sparse vectors one product at a time

def _apply(a, op_name, u, v):
    """Bilinear product of sparse vectors {index: Fraction}."""
    table = a.tables[op_name]
    out = {}
    for i, x in u.items():
        for j, y in v.items():
            for k, c in table.get((i, j), {}).items():
                out[k] = out.get(k, 0) + c * x * y
    return {k: c for k, c in out.items() if c}


def _eval_tree(a, tree, assignment):
    if isinstance(tree, int):
        return assignment[tree]
    return _apply(a, tree[0], _eval_tree(a, tree[1], assignment),
                  _eval_tree(a, tree[2], assignment))


def _eval_element(a, e, assignment, delta=None):
    """Value of a multilinear element on vectors x_i -> assignment[i]; d is
    read at delta, else at the algebra's binding, and only where it occurs."""
    missing = e.op_names() - set(a.tables)
    if missing:
        raise AlgebraError("algebra lacks operations %s" % sorted(missing))
    q = delta if delta is not None else a.delta
    coeffs = []
    for coeff in e.terms.values():
        if coeff.is_constant():
            coeffs.append(coeff.as_fraction())
        elif q is None:
            raise AlgebraError("identity coefficients involve d but no delta binding")
        else:
            coeffs.append(coeff.eval_at(q))
    out = {}
    for mono, c in zip(e.terms, coeffs):
        for k, x in _eval_tree(a, mono.tree, assignment).items():
            out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x}


def _per_tuple_check(a, e, delta):
    """(satisfied, witness, value) by walking every basis tuple in
    lexicographic order through _eval_element; the first nonzero value wins."""
    # operation and coefficient errors come first, even when there are no tuples
    _eval_element(a, e, {i: {} for i in range(1, e.arity + 1)}, delta)
    for tup in itertools.product(range(a.dim), repeat=e.arity):
        value = _eval_element(a, e, {i + 1: {t: F(1)} for i, t in enumerate(tup)}, delta)
        if value:
            return False, tup, value
    return True, None, None


def _sparse_check(a, e, delta):
    entry = a.eval_identity(e, delta=delta)
    return entry.satisfied, entry.witness, entry.value


def _outcome(check, a, e, delta):
    try:
        return check(a, e, delta)
    except Exception as exc:  # the exception type is part of the answer
        return type(exc)


def _catalog_identities():
    """Every catalog identity and every catalog-variety identity, once each."""
    out = {}
    for name in sorted(_IDENTITY_SOURCES):
        out.setdefault(str(identity(name)), identity(name))
    for name in variety_names():
        for e in variety(name).identities:
            out.setdefault(str(e), e)
    return list(out.values())


def _check_algebra(name):
    if name == "A1xA1":
        return tensor(algebra("A1"), algebra("A1"))
    if name == "A1xA2":
        return tensor(algebra("A1"), algebra("A2"))
    return algebra(name)


@pytest.mark.parametrize("name", algebra_names() + ["A1xA1", "A1xA2"])
def test_eval_identity_matches_the_per_tuple_loop(name):
    a = _check_algebra(name)
    for e in _catalog_identities():
        uses_d = any(not c.is_constant() for c in e.terms.values())
        walks = {}
        for delta in (None, F(-1), F(2)):
            # _eval_element reads d only for coefficients that involve it, and
            # then at delta or else at the algebra's binding: one walk per value
            q = (delta if delta is not None else a.delta) if uses_d else None
            if q not in walks:
                walks[q] = _outcome(_per_tuple_check, a, e, delta)
            assert _outcome(_sparse_check, a, e, delta) == walks[q], (name, str(e), delta)


def _random_algebra(rng, ops):
    """Sparse random structure constants in dimension 2-4; a symmetric or
    antisymmetric product is declared once and mirrored by the Algebra."""
    dim = rng.randint(2, 4)
    products = []
    for op in ops:
        for i, j in itertools.product(range(1, dim + 1), repeat=2):
            if op.symmetry != "none" and (j < i or (j == i and op.symmetry == "antisymmetric")):
                continue
            if rng.random() < 0.3:
                comps = {k: F(rng.randint(-3, 3), rng.randint(1, 2))
                         for k in rng.sample(range(1, dim + 1), rng.randint(1, 2))}
                products.append((op.name, i, j, comps))
    return Algebra(dim, ops, products)


def test_eval_identity_on_random_sparse_algebras():
    rng = seeded(11)
    seen = set()
    for ops in ((DOT, BRACKET), (DOT,), (BRACKET,), (PLAIN,)):
        for _ in range(25):
            a = _random_algebra(rng, ops)
            e = random_element(rng, ops, rng.randint(3, 4), max_terms=rng.randint(1, 4))
            expected = _per_tuple_check(a, e, None)
            assert _sparse_check(a, e, None) == expected
            seen.add(expected[0])
    assert seen == {True, False}


def test_eighty_one_dimensional_tensor_power_is_transposed_minus_one():
    # closure under the tensor product (criterion 12), at dim 81 where the
    # per-tuple loop would walk 81^3 = 531,441 tuples per identity
    a1 = algebra("A1")
    big = tensor(tensor(tensor(a1, a1), a1), algebra("A2"))
    assert big.dim == 81
    assert big.check_variety(variety("transposed-delta-poisson", delta=F(-1))).all_satisfied
