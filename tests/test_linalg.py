"""Sparse exact row reduction over Q and Q(d): rank, nullspace, membership."""

import copy
import hashlib
import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from variety_forge import scalar
from variety_forge.catalog import variety
from variety_forge.engine import consequences
from variety_forge.linalg import (PolyDomain, RowBasis, ZZDomain, nullspace,
                                  sampled_delta_points, to_row)
from variety_forge.scalar import (DELTA, PONE, RF_ZERO, DegreeOverflowError,
                                  RationalFunction, padd, pcontent, pdivexact, pgcd,
                                  pmul, pneg, pnormalize, pscale, psub)

from conftest import (dense_rref, random_rational, random_rational_function, row_basis,
                      seeded)

F = Fraction
d = DELTA

# the relation matrices of the self-dual linkage family and the mixed
# family, in the fixed arity-3 mixed-block ordering
DP_MIXED = [  # entries in Z[d]; columns in the fixed arity-3 mixed order
    {0: (1,), 4: (0, -1), 5: (0, -1)},
    {1: (1,), 3: (0, -1), 5: (0, 1)},
    {2: (1,), 3: (0, 1), 4: (0, 1)},
]
MP_MIXED = [
    {0: 1, 4: 1, 5: -1},
    {0: 1, 4: -1, 5: 1},
    {1: 1, 3: -1, 5: -1},
    {1: 1, 3: 1, 5: 1},
    {2: 1, 3: 1, 4: -1},
    {2: 1, 3: -1, 4: 1},
]


def test_to_row_clears_denominators():
    assert to_row({0: 2, 1: 0, 3: -4}, ZZDomain) == {0: 1, 3: -2}
    assert to_row({0: F(1, 2), 1: F(-1, 3), 2: F(0)}, ZZDomain) == {0: 3, 1: -2}
    assert to_row({0: RationalFunction(2), 1: F(4, 3)}, ZZDomain) == {0: 3, 1: 2}
    assert to_row({}, ZZDomain) == {}
    # over Z[d]: 1/(d-1) and d/2 share the denominator 2(d-1)
    row = to_row({0: 1 / (d - 1), 1: d / 2, 2: d - d}, PolyDomain)
    assert row == {0: (2,), 1: (0, -1, 1)}
    assert to_row({0: F(2), 1: 2 * d + 4}, PolyDomain) == {0: (1,), 1: (2, 1)}


def test_to_row_rejects_d_over_z():
    with pytest.raises(ValueError):
        to_row({0: F(1), 1: d}, ZZDomain)
    with pytest.raises(ValueError):   # a d-dependent denominator too
        to_row({0: 3, 1: F(1, 2), 2: 1 / (d + 1)}, ZZDomain)


def _ref_to_row(entries, domain):
    """The general lcm/content route, with Fraction and Q(d) arithmetic."""
    if domain is ZZDomain:
        vals = {c: v.as_fraction() if isinstance(v, RationalFunction) else F(v)
                for c, v in entries.items() if v}
        lcm = math.lcm(1, *(v.denominator for v in vals.values()))
        row = {c: int(v * lcm) for c, v in vals.items()}
        g = math.gcd(*row.values())
        return {c: v // g for c, v in row.items()}
    vals = {c: v if isinstance(v, RationalFunction) else RationalFunction.from_fraction(v)
            for c, v in entries.items() if v}
    lcm = PONE
    for v in vals.values():
        lcm = pdivexact(pmul(lcm, v.den), pgcd(lcm, v.den))
    row = {c: pmul(v.num, pdivexact(lcm, v.den)) for c, v in vals.items()}
    g = math.gcd(*(pcontent(p) for p in row.values()))
    return {c: tuple(x // g for x in p) for c, p in row.items()}


def _random_entries(rng, poly, constant_dens=False):
    """A mix of ints, Fractions and RationalFunctions, zeros included.

    With constant_dens every denominator is 1, the route on which to_row
    takes the numerators over Z[d] without a polynomial lcm.
    """
    def entry():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.choice([0, F(0), RF_ZERO])
        if kind == 1:
            return rng.randint(-9, 9)
        if constant_dens:
            if poly:   # a polynomial: denominator PONE
                return RationalFunction(tuple(rng.randint(-4, 4) for _ in range(3)))
            return RationalFunction(rng.randint(-9, 9))
        if kind == 2:
            return random_rational(rng)
        if poly:
            return random_rational_function(rng)
        return RationalFunction.from_fraction(random_rational(rng))

    return {c: entry() for c in rng.sample(range(12), rng.randint(0, 6))}


@given(st.integers(0, 10 ** 6), st.booleans())
def test_to_row_matches_the_lcm_content_reference(seed, poly):
    rng = seeded(seed)
    domain = PolyDomain if poly else ZZDomain
    for constant_dens in (False, True):
        entries = _random_entries(rng, poly, constant_dens)
        row = to_row(entries, domain)
        assert row == _ref_to_row(entries, domain)
        assert set(row) == {c for c, v in entries.items() if v}
        assert all(row.values())


def test_insert_examples():
    basis = RowBasis(4)
    assert basis.insert(to_row({0: F(1), 2: F(2)}, ZZDomain))
    assert basis.rank == 1
    assert not basis.insert(to_row({0: F(2), 2: F(4)}, ZZDomain))
    assert basis.rank == 1
    assert basis.insert(to_row({1: F(1)}, ZZDomain))
    assert basis.rank == 2


def test_insert_normalizes_trailing_zero_coefficients():
    padded, plain = RowBasis(2, PolyDomain), RowBasis(2, PolyDomain)
    assert padded.insert({0: (1, 0), 1: (1,)})
    assert plain.insert({0: (1,), 1: (1,)})
    assert padded.canonical_rows() == plain.canonical_rows()
    assert padded.rows == {0: {0: (1,), 1: (1,)}}


def test_insert_drops_zero_polynomial_entries():
    basis = RowBasis(2, PolyDomain)
    assert basis.insert({0: (0, 0), 1: (1,)})
    assert dict(basis.items()) == {1: {1: (1,)}} and basis.rows == {}
    assert not basis.insert({0: (), 1: (2,)})


def test_insert_drops_zero_int_entries():
    basis = RowBasis(2)
    assert basis.insert({0: 0, 1: 1})
    assert basis.pivots() == [1] and dict(basis.items()) == {1: {1: 1}}
    assert basis.insert({0: 3})
    assert basis.rank == 2


def _unit_row_checks(basis, to_field):
    """insert and kill, each checking the basis against the dense RREF of
    every row inserted so far; kill inserts the unit rows of a range."""
    inserted = []

    def check():
        # integer content divided out, checked before field_rows finalizes
        content = pcontent if basis.domain is PolyDomain else abs
        assert all(math.gcd(*map(content, r.values())) == 1 for r in basis.rows.values())
        ref = dense_rref(inserted, basis.ncols, to_field)
        assert basis.field_rows() == ref and basis.rank == len(ref)
        for p, r in basis.rows.items():
            assert len(r) > 1 and min(r) == p
            assert not any(c != p and (c in basis.rows or basis.unit[c]) for c in r)

    def insert(row, expect):
        assert basis.insert(row) is expect
        inserted.append(row)
        check()

    def kill(start, stop):
        basis.insert_unit_range(start, stop)
        inserted.extend({c: basis.domain.one} for c in range(start, stop))
        check()
    return insert, kill


@pytest.mark.parametrize("poly", [False, True])
def test_insert_unit_rows_against_the_dense_reference(poly, monkeypatch):
    domain, to_field = (PolyDomain, RationalFunction) if poly else (ZZDomain, F)

    def e(v):  # an entry: ints, or constant polynomials over Z[d]
        return (v,) if poly else v

    basis = RowBasis(6, domain)
    insert, kill = _unit_row_checks(basis, to_field)
    insert({0: e(2), 3: e(1), 5: e(4)}, True)
    insert({1: e(1), 3: e(-1), 4: e(2)}, True)
    # a unit row at a column without a row: a flag, back-substituted out of
    # the rows occ lists under it, which are divided by their content afterwards
    insert({3: e(-5)}, True)
    assert basis.rows[0] == {0: e(1), 5: e(2)} and 3 not in basis.occ and basis.unit[3]
    # a unit row at a pivot whose row is not a unit row: back-substitution
    # leaves that row one entry, so it becomes a flag too
    insert({1: e(7)}, True)
    assert list(basis.rows) == [0] and basis.unit == bytearray([0, 1, 0, 1, 1, 0])
    # a unit row at a flagged column is in the span
    insert({4: e(-3)}, False)
    # a range without a stored row's pivot runs no reduction: a fresh column
    # (2), flagged ones (3, 4), and one (5) that leaves row 0 a unit row
    monkeypatch.setattr(RowBasis, "_reduce", None)
    kill(2, 6)
    assert basis.rows == {} and basis.units == 6 and basis.occ == {}


@pytest.mark.parametrize("poly", [False, True])
def test_unit_range_reinserts_the_rows_it_holds_the_pivot_of(poly):
    domain, to_field = (PolyDomain, RationalFunction) if poly else (ZZDomain, F)

    def e(v):
        return (v,) if poly else v

    basis = RowBasis(6, domain)
    insert, kill = _unit_row_checks(basis, to_field)
    insert({0: e(2), 2: e(1), 4: e(6)}, True)
    insert({1: e(3), 3: e(2), 4: e(-2), 5: e(6)}, True)
    before = copy.deepcopy(basis)
    # column 2 goes from row 0, which is divided by its content; row 1 goes
    # in again without column 1, as {3: 2, 4: -2, 5: 6} divided by 2
    kill(1, 3)
    assert basis.rows == {0: {0: e(1), 4: e(3)}, 3: {3: e(1), 4: e(-1), 5: e(3)}}
    assert basis.rank == 4 and before.rank == 2
    assert before.rows[1] == {1: e(3), 3: e(2), 4: e(-2), 5: e(6)} and not any(before.unit)
    # reduce and contains drop the flagged entries of a copy of the argument
    row = {1: e(5), 2: e(-1), 3: e(1), 4: e(-1), 5: e(3)}
    arg, snapshot = dict(row), copy.deepcopy(basis)
    assert basis.reduce(row) == {} and basis.contains(row)
    assert basis.reduce({2: e(4), 4: e(1)}) == {4: e(1)}
    assert not basis.contains({1: e(1), 4: e(1)})
    assert row == arg and basis.unit == snapshot.unit
    assert basis.rows == snapshot.rows and basis.occ == snapshot.occ


def test_insert_unit_rows_read_the_canonical_entry():
    for domain, zeros in ((ZZDomain, (0,)), (PolyDomain, ((), (0,), (0, 0)))):
        for zero in zeros:
            basis = RowBasis(3, domain)
            assert not basis.insert({1: zero})
            assert basis.rows == {} and basis.occ == {} and basis.rank == 0
    poly = RowBasis(3, PolyDomain)
    insert, _ = _unit_row_checks(poly, RationalFunction)
    insert({0: (1,), 1: (0, 1)}, True)
    insert({1: (3, 0)}, True)  # 3, with a trailing zero coefficient
    assert dict(poly.items()) == {0: {0: (1,)}, 1: {1: (1,)}} and poly.rows == {}
    insert({1: (0, 0, 2)}, False)  # 2*d^2: a unit of Q(d)


def test_copy_is_independent():
    rows = [{0: 1, 2: 1}, {1: 1, 2: 1}]   # both rows hold non-pivot column 2

    def fresh(*extra):
        b = RowBasis(4)
        for r in rows + list(extra):
            b.insert(r)
        return b.canonical_rows()

    for into_copy, by_range in itertools.product((True, False), repeat=2):
        src = RowBasis(4)
        for r in rows:
            src.insert(r)
        dup = copy.deepcopy(src)
        changed, kept = (dup, src) if into_copy else (src, dup)
        # column 2 becomes a unit row there only
        if by_range:
            changed.insert_unit_range(2, 3)
        else:
            assert changed.insert({2: 1})
        assert changed.rank == 3 and kept.rank == 2
        assert kept.canonical_rows() == fresh()
        assert kept.insert({2: 1, 3: 1})  # the other still back-substitutes 2
        assert kept.canonical_rows() == fresh({2: 1, 3: 1})
        assert changed.canonical_rows() == fresh({2: 1})


def _fill_and_cancel_rows(rng, ncols, poly):
    """Dense random rows plus combinations of them, a few unit rows, and a
    few column ranges, each standing for the unit rows of its columns.

    The combinations make inserts reject and entries cancel to zero during
    back-substitution; the density makes back-substitution fill columns.  A
    range goes in by ``insert_unit_range`` (see ``_put``), so it deletes
    entries from stored rows and takes out rows whose pivot it holds.
    """
    def entry():
        if poly:
            return pnormalize(rng.randint(-2, 2) for _ in range(rng.randint(1, 2)))
        return rng.randint(-3, 3)

    def combine(x, y, kx, ky):
        if poly:
            return padd(pscale(x, kx), pscale(y, ky))
        return kx * x + ky * y

    zero = () if poly else 0
    base = []
    for _ in range(rng.randint(1, ncols)):
        row = {c: entry() for c in range(ncols) if rng.random() < 0.6}
        base.append({c: v for c, v in row.items() if v})
    rows = list(base)
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(base), rng.choice(base)
        ka, kb = rng.choice([1, -1, 2]), rng.choice([1, -2, 3])
        combo = {c: combine(a.get(c, zero), b.get(c, zero), ka, kb)
                 for c in set(a) | set(b)}
        rows.append({c: v for c, v in combo.items() if v})
    for _ in range(rng.randint(0, 2)):
        unit = rng.choice([(-2,), (1,), (0, 3)] if poly else [-2, 1, 3])
        rows.append({rng.randrange(ncols): unit})
    for _ in range(rng.randint(0, 2)):
        start = rng.randrange(ncols)
        rows.append(range(start, rng.randint(start + 1, min(ncols, start + 3))))
    rng.shuffle(rows)
    return [r for r in rows if r]


def _put(basis, item):
    """Insert a row, or the unit rows of a column range in one call."""
    if isinstance(item, range):
        basis.insert_unit_range(item.start, item.stop)
    else:
        basis.insert(item)


def _expand(items, one):
    """The rows of items, each range as the unit rows of its columns."""
    return [row for item in items
            for row in ([{c: one} for c in item] if isinstance(item, range) else [item])]


def _check_against_reference(rng, ncols, poly):
    domain, to_field = (PolyDomain, RationalFunction) if poly else (ZZDomain, F)
    items = _fill_and_cancel_rows(rng, ncols, poly)
    rows = _expand(items, domain.one)
    ref = dense_rref(rows, ncols, to_field)
    bases = []
    # the generated order, the same with each range as its unit rows one by
    # one, then two shuffles
    for order in (items, rows, rng.sample(items, len(items)), rng.sample(items, len(items))):
        basis = RowBasis(ncols, domain)
        for item in order:
            _put(basis, item)
        assert basis.rank == len(ref)
        assert basis.field_rows() == ref
        bases.append(basis)
    assert len({b.canonical_rows() for b in bases}) == 1


@given(st.integers(0, 10 ** 6))
def test_row_basis_matches_dense_reference_over_q(seed):
    rng = seeded(seed)
    _check_against_reference(rng, rng.randint(2, 9), poly=False)


@given(st.integers(0, 10 ** 6))
def test_row_basis_matches_dense_reference_over_qd(seed):
    rng = seeded(seed)
    _check_against_reference(rng, rng.randint(2, 6), poly=True)


@given(st.integers(0, 10 ** 6), st.booleans())
def test_reduced_form_invariants(seed, poly):
    # the one-scan reduce relies on these: no stored row holds another row's
    # pivot, and reduce/contains copy their argument and leave the basis alone
    rng = seeded(seed)
    ncols = rng.randint(2, 6 if poly else 9)
    domain = PolyDomain if poly else ZZDomain
    basis = RowBasis(ncols, domain)
    inserted = _fill_and_cancel_rows(rng, ncols, poly)
    for item in inserted:
        _put(basis, item)
        # a unit row is a flag, and no stored row holds a flagged column
        assert basis.units == sum(basis.unit)
        for p, row in basis.rows.items():
            assert len(row) > 1 and min(row) == p
            assert not any(c != p and (c in basis.rows or basis.unit[c]) for c in row)
    rows = _expand(inserted, domain.one)
    probes = rows[:2] + _random_sparse_rows(rng, 3, ncols, poly)
    for row in probes:
        before, snapshot = dict(row), copy.deepcopy(basis)
        rem = basis.reduce(row)
        assert not any(c in basis.rows or basis.unit[c] for c in rem)
        grown = row_basis([r for _, r in basis.items()] + [row], ncols, domain)
        in_span = grown.rank == basis.rank
        assert (not rem) == in_span == basis.contains(row)
        assert row == before and basis.unit == snapshot.unit
        assert basis.rows == snapshot.rows and basis.occ == snapshot.occ
    assert all(basis.contains(r) for r in rows)


def test_reference_matrix_ranks():
    assert row_basis(DP_MIXED, 6, PolyDomain).rank == 3
    # the six-row matrix has full mixed rank (a hand reduction gives e1, e2,
    # e3 from the row sums and an invertible 3x3 block on the rest)
    assert row_basis(MP_MIXED, 6).rank == 6
    assert len(dense_rref(MP_MIXED, 6)) == 6
    assert row_basis([], 3).rank == 0
    assert row_basis([{0: 1}, {1: 1}, {2: 1}], 3).rank == 3


def test_nullspace_examples():
    assert nullspace([{0: 1}, {1: 1}, {2: 1}], 3).rank == 0
    ns = nullspace([{0: 1, 1: 1}], 2)
    assert ns.rank == 1
    (vec,) = ns.field_rows()
    assert vec[0] / vec[1] == -1
    # the generic mixed block has a 3-dimensional kernel
    assert nullspace(DP_MIXED, 6, PolyDomain).rank == 3


def test_contains_examples():
    full = RowBasis(3)
    for i in range(3):
        full.insert({i: 1})
    assert full.contains({0: 5, 2: -7})
    empty = RowBasis(3)
    assert empty.contains({})
    e2_only = RowBasis(3)
    e2_only.insert({1: 1})
    assert not e2_only.contains({0: 1})


def test_canonical_rows_are_span_invariants():
    b1 = RowBasis(3)
    b1.insert({0: 2, 1: 2})
    b1.insert({1: 3, 2: 3})
    b2 = RowBasis(3)
    b2.insert({0: 1, 2: -1})   # (1,1,0)-(0,1,1)
    b2.insert({1: 5, 2: 5})
    assert b1.canonical_rows() == b2.canonical_rows()


def _random_sparse_rows(rng, nrows, ncols, poly):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < 0.5:
                if poly:
                    v = pnormalize(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
                    if v:
                        row[c] = v
                else:
                    v = rng.randint(-4, 4)
                    if v:
                        row[c] = v
        rows.append(row)
    return rows


@given(st.integers(0, 10 ** 6))
def test_rank_nullity_over_q(seed):
    rng = seeded(seed)
    ncols = rng.randint(2, 8)
    rows = _random_sparse_rows(rng, rng.randint(1, 6), ncols, poly=False)
    rk = row_basis(rows, ncols).rank
    assert rk == len(dense_rref(rows, ncols))
    assert rk + nullspace(rows, ncols).rank == ncols
    # kernel vectors annihilate every row
    for vec in nullspace(rows, ncols).field_rows():
        for r in rows:
            assert sum(F(v) * vec.get(c, F(0)) for c, v in r.items()) == 0


@given(st.integers(0, 10 ** 6))
def test_rank_nullity_over_qd(seed):
    rng = seeded(seed)
    ncols = rng.randint(2, 6)
    rows = _random_sparse_rows(rng, rng.randint(1, 5), ncols, poly=True)
    rk = row_basis(rows, ncols, PolyDomain).rank
    assert rk + nullspace(rows, ncols, PolyDomain).rank == ncols


@given(st.integers(0, 10 ** 6))
def test_rank_invariance_under_scaling_and_permutation(seed):
    rng = seeded(seed)
    ncols = rng.randint(2, 7)
    rows = _random_sparse_rows(rng, rng.randint(1, 5), ncols, poly=False)
    rk = row_basis(rows, ncols).rank
    scaled = []
    for r in rows:
        factor = rng.choice([1, 2, -3, 5])
        scaled.append({c: v * factor for c, v in r.items()})
    rng.shuffle(scaled)
    assert row_basis(scaled, ncols).rank == rk


@given(st.integers(0, 10 ** 6))
def test_generic_vs_specialized_rank(seed):
    # Schwartz-Zippel style: specialization never raises the rank, and at
    # least one of a handful of samples attains it
    rng = seeded(seed)
    ncols = rng.randint(2, 6)
    rows = _random_sparse_rows(rng, rng.randint(1, 4), ncols, poly=True)
    generic = row_basis(rows, ncols, PolyDomain).rank
    attained = []
    for q in sampled_delta_points(5, seed=seed % 1000):
        rows_at_q = []
        for r in rows:
            row = {}
            for c, p in r.items():
                val = sum(F(coef) * q ** i for i, coef in enumerate(p))
                if val:
                    row[c] = val
            rows_at_q.append({c: int(v * _common_den(row)) for c, v in row.items()})
        rk = row_basis(rows_at_q, ncols).rank
        assert rk <= generic
        attained.append(rk)
    assert max(attained, default=0) == generic


def _common_den(row):
    lcm = 1
    for v in row.values():
        lcm = lcm * v.denominator // __import__("math").gcd(lcm, v.denominator)
    return lcm


def test_sampled_points_avoid_degenerate_values():
    pts = sampled_delta_points(8)
    banned = {F(0), F(1), F(-1), F(1, 2), F(1, 3)}
    assert banned.isdisjoint(pts)
    assert len(set(pts)) == 8
    assert pts == sampled_delta_points(8)  # deterministic


# -- PolyDomain.cancel: any common factor, never a wrong one -----------------

poly_factors = st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(pnormalize).filter(bool)


def _check_cancel(A, B):
    a, b = PolyDomain.cancel(A, B)
    assert a and b
    assert pmul(a, B) == pmul(b, A)
    return a, b


@given(poly_factors, poly_factors, poly_factors)
def test_cancel_contract(f, g, h):
    if f[-1] < 0:
        f = pneg(f)  # a stored pivot, as eliminate passes it
    assert _check_cancel(f, f) == (PONE, PONE)                  # equal
    assert _check_cancel(f, pneg(f)) == (PONE, pneg(PONE))      # negated
    assert _check_cancel(f, pmul(f, g)) == (PONE, g)            # f divides
    _check_cancel(pmul(f, g), f)                                # divides f
    _check_cancel(f, g)                                         # coprime or not
    A, B = pmul(f, h), pmul(g, pmul(h, h))                      # shared h
    a, b = _check_cancel(A, B)
    # whatever factor is split off, it has at least the degree of h
    assert len(a) + len(b) <= len(A) + len(B) - 2 * (len(h) - 1)


def test_cancel_examples():
    assert _check_cancel((6,), (-4,)) == ((3,), (-2,))
    assert _check_cancel((1, 1), (2, 1)) == ((1, 1), (2, 1))    # coprime
    # (1+d)(2+d) against (1+d)(3+d): the split goes through the gcd 1+d
    assert _check_cancel((2, 3, 1), (3, 4, 1)) == ((2, 1), (3, 1))


# -- the elimination loops, against a reference built from cancel and
# -- mul/sub/neg one entry at a time -----------------------------------------

def _reference_elimination(r, s, p, poly):
    """a*r - b*s, (a, b) the pivot entries over a common factor, entry by entry."""
    if poly:
        (a, b), one = PolyDomain.cancel(s[p], r[p]), PONE
        mul, sub, neg = pmul, psub, pneg
    else:
        g = math.gcd(s[p], r[p])
        (a, b), one = (s[p] // g, r[p] // g), 1
        mul, sub, neg = operator.mul, operator.sub, operator.neg
    out = dict(r) if a == one else {c: mul(a, v) for c, v in r.items()}
    for c, v in s.items():
        if c in out:
            out[c] = sub(out[c], mul(b, v))
            if not out[c]:
                del out[c]
        else:
            out[c] = neg(mul(b, v))
    return out, a, b


def _elimination_pair(rng, poly):
    """(r, s, p): rows with the pivot column p, negative entries, constant and
    non-constant Z[d] entries, and in half the pairs r a multiple of s on
    some columns, p among them, so that those entries cancel to zero."""
    def entry():
        if poly:
            v = pnormalize(rng.randint(-3, 3) for _ in range(rng.choice((1, 1, 2, 3))))
            return v or (rng.choice((-1, 1)),)
        return rng.choice((-1, 1)) * rng.randint(1, 9)

    p = rng.randrange(8)
    pivots = [(1,), (-1,), (2,), (-3,), (1, 1), (0, 2)] if poly else [1, -1, 2, -3]
    s = {c: entry() for c in range(8) if rng.random() < 0.6}
    s[p] = rng.choice(pivots + [entry()])
    r = {c: entry() for c in range(8) if rng.random() < 0.6}
    r[p] = entry()
    if rng.random() < 0.5:
        m = entry()
        for c in s:
            if c == p or rng.random() < 0.5:
                r[c] = pmul(m, s[c]) if poly else m * s[c]
    return r, s, p


@pytest.mark.parametrize("poly", [False, True], ids=["Z", "Zd"])
def test_elimination_loop_matches_the_entrywise_reference(poly):
    domain = PolyDomain if poly else ZZDomain
    rng = seeded(2501 if poly else 2502)
    seen = set()
    for _ in range(600):
        r, s, p = _elimination_pair(rng, poly)
        expected, a, b = _reference_elimination(r, s, p, poly)
        s_before, arg = dict(s), dict(r)
        out = domain.eliminate(arg, s, p)
        assert out is arg and out == expected and s == s_before
        assert p not in out and all(out.values())
        if poly:
            assert all(v[-1] for v in out.values())  # normalized
        seen.add("a == one" if a == domain.one else "a != one")
        seen.add("cancelled" if len(out) < len(set(r) | set(s)) - 1 else "none cancelled")
        if poly:
            seen.add("constant b" if len(b) == 1 else "non-constant b")
            seen.add("constant a" if len(a) == 1 else "non-constant a")
    assert {"a == one", "a != one", "cancelled", "none cancelled"} <= seen
    if poly:
        assert {"constant a", "non-constant a", "constant b", "non-constant b"} <= seen


def test_every_product_of_two_non_constants_goes_through_poly_mul(monkeypatch):
    # a wrapper installed on PolyDomain.mul, as a tracer does, sees each one
    calls = []

    def recording_mul(x, y):
        calls.append((x, y))
        return pmul(x, y)

    monkeypatch.setattr(PolyDomain, "mul", staticmethod(recording_mul))
    rng = seeded(2503)
    for _ in range(300):
        r, s, p = _elimination_pair(rng, True)
        expected, a, b = _reference_elimination(r, s, p, True)
        del calls[:]
        assert PolyDomain.eliminate(dict(r), s, p) == expected
        wanted = [(a, v) for v in r.values() if a != PONE and len(a) > 1 and len(v) > 1]
        wanted += [(b, v) for v in s.values() if len(b) > 1 and len(v) > 1]
        assert calls == wanted


def test_degree_ceiling_inside_the_elimination_loop(monkeypatch):
    monkeypatch.setattr(scalar, "_DEGREE_LIMIT", 2)
    # a constant multiplier never reaches the ceiling, whatever the degrees
    r = {0: (2,), 1: (1, 0, 0, 5)}
    assert PolyDomain.eliminate(dict(r), {0: (3,), 1: (0, 0, 0, 0, 1)}, 0) == {
        1: (3, 0, 0, 15, -2)}
    # (1+d) * d^2 has degree 3: past the ceiling, the loop raises
    with pytest.raises(DegreeOverflowError):
        PolyDomain.eliminate({0: (1, 1), 1: (1,)}, {0: (1, 2), 1: (0, 0, 1)}, 0)


# sha256 of repr(consequences(v, 5).basis.canonical_rows()) for the generic-d
# families: a cheaper Z[d] kernel or cancel must leave these canonical spaces
# identical, not only their dimensions
GENERIC_ARITY5_DIGESTS = {
    "delta-poisson": "bdf9f5713f9e32d989bab7b9dee170cae8dd41623b54528923be97229c0a55ba",
    "transposed-delta-poisson":
        "2a42a783d726388792a4da7e47aed8c44941701c4196fc7d470aa754bc84c9dc",
    "delta-mixed-poisson": "fd7ad41ac26fe3ddbf64484206808dfe788808c806ee33a94cd75de746d32f1a",
}


@pytest.mark.parametrize("name", sorted(GENERIC_ARITY5_DIGESTS))
def test_generic_arity5_spaces_are_pinned(name):
    basis = consequences(variety(name), 5).basis
    assert basis.domain is PolyDomain
    digest = hashlib.sha256(repr(basis.canonical_rows()).encode()).hexdigest()
    assert digest == GENERIC_ARITY5_DIGESTS[name]
