"""Acceptance criteria, one test per criterion, exact values throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per criterion.
The extended-scale (arity-6) parts run with the rest of the suite.
"""

import itertools
import time
from fractions import Fraction

from variety_forge.catalog import algebra, identity, presentation, variety
from variety_forge.engine import (Variety, consequences, depolarize_variety,
                                  dim_multilinear, equivalent, get_context,
                                  is_consequence, row_to_element)
from variety_forge.exprs import format_element, parse_expr
from variety_forge.linalg import PolyDomain, RowBasis, nullspace
from variety_forge.operads import (compose, free_delta_p_basis, hilbert_series,
                                   koszul_dual, koszulness_witness)
from variety_forge.terms import (Permutation, act, depolarize_expr,
                                 polarize_expr)

from conftest import (ONE_OP, TWO_OPS, bracket_is_perfect, random_element, row_basis,
                      seeded)

F = Fraction


def _report(number, elapsed, limit, description):
    line = "ACCEPTANCE %2d PASS (%6.2fs <= %ds): %s" % (number, elapsed, limit,
                                                        description)
    print(line)
    assert elapsed <= limit, "criterion %d exceeded its %ds budget" % (number, limit)


def test_criterion_01_anti_poisson_dimension_table():
    start = time.time()
    ap = variety("anti-poisson")
    dims = [dim_multilinear(ap, n) for n in range(1, 6)]
    assert dims == [1, 2, 6, 12, 31]
    _report(1, time.time() - start, 120, "dim AP(1..5) = 1,2,6,12,31")


def test_criterion_02_generic_delta_invariance():
    start = time.time()
    dims = [dim_multilinear(variety("delta-poisson", delta=q), 5)
            for q in (F(-1), F(2), F(5))]
    assert dims == [31, 31, 31]
    _report(2, time.time() - start, 240, "dim P(5) = 31 at delta in {-1, 2, 5}")


def test_criterion_03_mixed_poisson_dimensions():
    start = time.time()
    mp = variety("mixed-poisson")
    dims = [dim_multilinear(mp, n) for n in range(2, 6)]
    assert dims == [2, 3, 7, 25]
    _report(3, time.time() - start, 120, "dim MP(2..5) = 2,3,7,25")


def test_criterion_04_dual_dimension_table():
    start = time.time()
    dual = koszul_dual(presentation("mixed-poisson"))
    dims = [dim_multilinear(dual, n) for n in range(2, 6)]
    assert dims == [2, 9, 67, 695]
    _report(4, time.time() - start, 600, "dim MP!(2..5) = 2,9,67,695")


def test_criterion_05_self_duality():
    start = time.time()
    for q in (F(-1), F(1, 2), F(2)):
        dp = variety("delta-poisson", delta=q)
        tp = variety("transposed-delta-poisson", delta=q)
        assert equivalent(koszul_dual(dp), dp, 3)
        assert equivalent(koszul_dual(tp), tp, 3)
    _report(5, time.time() - start, 5,
            "self-duality of both linkage families at delta in {-1, 1/2, 2}")


def test_criterion_06_purity_of_mixed_poisson_dual():
    start = time.time()
    dual = koszul_dual(presentation("mixed-poisson"))
    assert all(len(rel.op_names()) == 1 for rel in dual.identities)
    ctx = get_context(dual.ops, 3)
    jac = RowBasis(len(ctx.monomials))
    from variety_forge.engine import element_to_row
    jac.insert(element_to_row(identity("jacobi"), ctx, None, jac.domain))
    ass = RowBasis(len(ctx.monomials))
    for img in itertools.permutations((1, 2, 3)):
        ass.insert(element_to_row(act(Permutation(img), identity("assoc"), TWO_OPS),
                                  ctx, None, ass.domain))
    bracket_rows = RowBasis(len(ctx.monomials))
    dot_rows = RowBasis(len(ctx.monomials))
    for rel in dual.identities:
        row = element_to_row(rel, ctx, None, bracket_rows.domain)
        if rel.op_names() == {"bracket"}:
            bracket_rows.insert(row)
        else:
            dot_rows.insert(row)
    assert bracket_rows.canonical_rows() == jac.canonical_rows()
    assert dot_rows.canonical_rows() == ass.canonical_rows()
    _report(6, time.time() - start, 5,
            "MP! has no mixed relation; pure blocks are Jacobi and associativity")


def test_criterion_07_non_koszulness_witness():
    start = time.time()
    h = hilbert_series([dim_multilinear(variety("anti-poisson"), n)
                        for n in range(1, 6)])
    c = compose(h, h, 5)
    assert c.coefficient(1) == 1
    assert c.coefficient(2) == c.coefficient(3) == c.coefficient(4) == 0
    assert c.coefficient(5) == F(91, 60)
    _report(7, time.time() - start, 120, "H(H!(t)) - t has coefficient 91/60 at t^5")


def test_criterion_08_mixed_poisson_koszul_consistency():
    start = time.time()
    w = koszulness_witness(variety("mixed-poisson"), 5)
    assert w.consistent
    assert w.dims == (1, 2, 3, 7, 25)
    assert w.dual_dims == (1, 2, 9, 67, 695)
    _report(8, time.time() - start, 600, "H_MP(H_MP!(t)) = t through t^5")


def test_criterion_09_consequence_suite():
    start = time.time()
    dp = variety("delta-poisson")
    for name in ("xyzt-1", "xyzt-2", "xyzt-3", "xyzt-4", "xyzt-5"):
        assert is_consequence(dp, identity(name), 4), name
    assert is_consequence(dp, identity("cycl"), 3)
    assert not is_consequence(variety("poisson"), identity("xyzt-1"), 4)
    tdp = variety("transposed-delta-poisson")
    for name in ("idtp1", "idtp2", "idtp3", "idtp4", "idtp5", "idtp6"):
        target = identity(name)
        assert is_consequence(tdp, target, target.arity), name
    for name in ("xyzt-1", "xyzt-2", "xyzt-3", "xyzt-5"):
        # the arity-4 annihilated monomials reappear in the free-basis
        # construction; assert them in that role as well
        assert is_consequence(dp, identity(name), 4)
    for name in ("zid5-1", "zid5-2", "zid5-3", "zid5-4"):
        t0 = time.time()
        assert is_consequence(dp, identity(name), 5), name
        assert time.time() - t0 <= 60, "arity-5 item %s exceeded 60s" % name
    _report(9, time.time() - start, 400, "vanishing-product and free-basis "
            "annihilation consequences at generic delta (and the Poisson case)")


def test_criterion_10_equivalence_suite():
    start = time.time()
    q = F(2)
    cases = [
        ("one-multiplication form of the linkage family",
         depolarize_variety(variety("delta-poisson", delta=q)),
         Variety(ONE_OP, (identity("f-delta"),), delta=q)),
        ("scalar family", depolarize_variety(variety("scalar-poisson")),
         Variety(ONE_OP, (identity("sc1"), identity("sc2")))),
        ("transposed family", depolarize_variety(
            variety("transposed-delta-poisson", delta=q)),
         Variety(ONE_OP, (identity("F-delta"), identity("G-delta")), delta=q)),
        ("transposed at 1", depolarize_variety(
            variety("transposed-delta-poisson", delta=F(1))),
         Variety(ONE_OP, (identity("F1"), identity("G1"), identity("H")), delta=F(1))),
        ("transposed scalar family", depolarize_variety(
            variety("transposed-scalar-poisson")),
         Variety(ONE_OP, (identity("S1"), identity("S2")))),
        ("mixed family", depolarize_variety(variety("mixed-poisson")),
         Variety(ONE_OP, (identity("S2"), identity("L")))),
        ("mixed linkage family", depolarize_variety(
            variety("delta-mixed-poisson", delta=q)),
         Variety(ONE_OP, (identity("f-delta"), identity("H")), delta=q)),
    ]
    for label, lhs, rhs in cases:
        t0 = time.time()
        assert equivalent(lhs, rhs, 3), label
        assert time.time() - t0 <= 5, label
    _report(10, time.time() - start, 60, "seven depolarization equivalences at arity 3")


def test_criterion_11_independence_matrix():
    start = time.time()
    q = F(2)
    pattern = [
        ("zero-B1", "g2", None, True), ("zero-B1", "g1", None, False),
        ("zero-B2", "g1", None, True), ("zero-B2", "g2", None, False),
        ("sc-B1", "sc1", None, True), ("sc-B1", "sc2", None, False),
        ("sc-B2", "sc2", None, True), ("sc-B2", "sc1", None, False),
        ("trans-B1", "F-delta", q, True), ("trans-B1", "G-delta", q, False),
        ("trans-B2", "G-delta", q, True), ("trans-B2", "F-delta", q, False),
        ("td1-B1", "F1", None, True), ("td1-B1", "H", None, True),
        ("td1-B1", "G1", None, False),
        ("td1-B2", "G1", None, True), ("td1-B2", "H", None, True),
        ("td1-B2", "F1", None, False),
        ("td1-B3", "F1", None, True), ("td1-B3", "G1", None, True),
        ("td1-B3", "H", None, False),
        ("tsc-B1", "S2", None, True), ("tsc-B1", "S1", None, False),
        ("tsc-B2", "S1", None, True), ("tsc-B2", "S2", None, False),
        ("depol-B1", "S2", None, True), ("depol-B1", "L", None, False),
        ("depol-B2", "L", None, True), ("depol-B2", "S2", None, False),
        ("dmix-B1", "f-delta", q, True), ("dmix-B1", "H", q, False),
        ("dmix-B2", "H", q, True), ("dmix-B2", "f-delta", q, False),
    ]
    assert len(pattern) >= 16
    for name, ident, delta, expected in pattern:
        t0 = time.time()
        entry = algebra(name).eval_identity(identity(ident), delta=delta, label=ident)
        assert entry.satisfied == expected, (name, ident)
        if not expected:
            assert entry.witness is not None
        assert time.time() - t0 <= 1, (name, ident)
    _report(11, time.time() - start, 60,
            "%d independence assertions reproduce the counterexample patterns"
            % len(pattern))


def test_criterion_12_example_algebra_suite():
    start = time.time()
    tm1 = variety("transposed-delta-poisson", delta=F(-1))
    for name in ("A1", "A2"):
        a = algebra(name)
        assert a.check_variety(tm1).all_satisfied, name
        assert bracket_is_perfect(a), name
    pb = algebra("P-beta", beta=1)
    assert pb.check_variety(variety("delta-poisson", delta=F(1, 3))).all_satisfied
    assert pb.check_variety(variety("transposed-delta-poisson",
                                    delta=F(1))).all_satisfied
    entry = pb.eval_identity(identity("product-of-bracket"), label="x{y,z}")
    assert not entry.satisfied
    assert entry.witness == (0, 0, 1) and entry.value == {3: F(3)}
    assert "(e1,e1,e2) -> 3*e4" in entry.witness_str()
    from variety_forge.algebras import tensor
    assert tensor(algebra("A1"), algebra("A1")).check_variety(tm1).all_satisfied
    _report(12, time.time() - start, 60,
            "simple pair, parameter family witness, tensor square")


def test_criterion_13_free_basis_counts():
    start = time.time()
    report = free_delta_p_basis(5)
    assert report.counts == (24, 6, 1)
    assert report.total == 31 == dim_multilinear(variety("anti-poisson"), 5)
    _report(13, time.time() - start, 60, "free-basis families 24+6+1 = 31 at n=5")


def test_criterion_14_property_suites():
    start = time.time()
    rng = seeded(20250809)
    cases = 0
    # S_n stability of every consequence space computed here
    for name, n in (("delta-poisson", 3), ("delta-poisson", 4),
                    ("mixed-poisson", 4), ("com-lie", 4),
                    ("transposed-delta-poisson", 4)):
        v = variety(name)
        space = consequences(v, n)
        ctx = get_context(v.ops, n)
        rows = [row_to_element(r, ctx.monomials, n)
                for _, r in space.basis.items()]
        perms = [Permutation(img) for img in itertools.permutations(range(1, n + 1))]
        for e in rows:
            sigma = rng.choice(perms)
            assert is_consequence(v, act(sigma, e, v.ops), n)
            cases += 1
    # rank-nullity on random sparse matrices over Q(d), degree <= 2 entries
    for _ in range(250):
        ncols = rng.randint(2, 7)
        rows = []
        for _ in range(rng.randint(1, 5)):
            row = {}
            for c in range(ncols):
                if rng.random() < 0.5:
                    coeffs = tuple(rng.randint(-3, 3)
                                   for _ in range(rng.randint(1, 3)))
                    while coeffs and coeffs[-1] == 0:
                        coeffs = coeffs[:-1]
                    if coeffs:
                        row[c] = coeffs
            rows.append(row)
        assert row_basis(rows, ncols, PolyDomain).rank + \
            nullspace(rows, ncols, PolyDomain).rank == ncols
        cases += 1
    # polarize/depolarize round trips
    for _ in range(250):
        n = rng.randint(2, 4)
        one = random_element(rng, ONE_OP, n, delta_coeffs=True)
        assert depolarize_expr(polarize_expr(one)) == one
        two = random_element(rng, TWO_OPS, n, delta_coeffs=True)
        assert polarize_expr(depolarize_expr(two)) == two
        cases += 2
    # parse/print fixpoints
    for _ in range(250):
        n = rng.randint(2, 4)
        ops = TWO_OPS if rng.random() < 0.7 else ONE_OP
        e = random_element(rng, ops, n, delta_coeffs=bool(rng.getrandbits(1)))
        text = format_element(e)
        assert parse_expr(text, ops) == e
        cases += 1
    assert cases >= 1000
    _report(14, time.time() - start, 60, "%d randomized property cases" % cases)


def test_criterion_01_extended_arity_six():
    start = time.time()
    assert dim_multilinear(variety("anti-poisson"), 6) == 145
    _report(1, time.time() - start, 1800, "extended: dim AP(6) = 145")


def test_criterion_13_extended_arity_six():
    start = time.time()
    report = free_delta_p_basis(6)
    assert report.counts == (120, 24, 1)
    assert report.total == 145 == dim_multilinear(variety("anti-poisson"), 6)
    _report(13, time.time() - start, 1800, "extended: 120+24+1 = 145 at n=6")
