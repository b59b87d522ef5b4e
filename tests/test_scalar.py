"""Exact arithmetic in Q(d): canonical forms, evaluation, parsing."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from variety_forge import scalar
from variety_forge.exprs import parse_scalar
from variety_forge.scalar import (DELTA, DegreeOverflowError, PoleError,
                                  RationalFunction, padd, pgcd, pdivexact, peval,
                                  pmul, pneg, pquo, psub, pstr)

from conftest import random_rational_function, seeded

d = DELTA


def test_field_arith_examples():
    assert (d - d).is_zero()
    assert (d * d - 1) / (d - 1) == d + 1
    # hand multiplication: 1/(1-d) * d = d/(1-d) = (-d)/(d-1) in canonical form
    got = (1 / (1 - d)) * d
    assert got == RationalFunction((0, 1), (1, -1))
    assert str(got) == "(-d)/(d-1)"


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        d / (d - d)


def test_eval_at_examples():
    assert (d / (d - 1)).eval_at(2) == 2
    with pytest.raises(PoleError) as err:
        (d / (d - 1)).eval_at(1)
    assert "d-1" in str(err.value)
    # the coefficient that kills {xy,zt} in the F-manifold comparison
    assert parse_scalar("6*d^2-5*d+1").eval_at(Fraction(1, 3)) == 0
    assert parse_scalar("6*d^2-5*d+1").eval_at(Fraction(1, 2)) == 0
    assert parse_scalar("6*d^2-5*d+1").eval_at(Fraction(1, 4)) != 0


def test_is_zero():
    assert RationalFunction(0).is_zero()
    assert (d - d).is_zero()
    assert not (d - 1).is_zero()


def test_canonical_uniqueness():
    a = (3 * d ** 2 - 3) / (3 * d - 3)
    assert a == d + 1
    assert a.num == (1, 1) and a.den == (1,)
    assert hash(a) == hash(d + 1)
    # denominator sign normalization
    b = RationalFunction((1,), (-1, 1))  # 1/(d-1) entered with positive lead
    c = RationalFunction((-1,), (1, -1))  # -1/(1-d)
    assert b == c


def test_parse_print_roundtrip():
    for text in ["(3*d^2-1)/(d-1)", "d", "-2/3", "0", "d^3-d", "(-d)/(d-1)",
                 "1/(3*d)", "(d+1)/(d^2+d+1)"]:
        v = parse_scalar(text)
        assert parse_scalar(str(v)) == v


def test_parse_scalar_grammar():
    assert parse_scalar("+d") == d
    assert parse_scalar("-d^2 + +3") == 3 - d * d
    assert parse_scalar(" 2 * (d - 1) / 4 ") == (d - 1) / 2
    for bad in ["", "d d", "2d", "(d", "d)", "d^-1", "d^d", "x1", "3 +"]:
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_pstr_examples():
    for poly, text in [((), "0"), ((1,), "1"), ((-1,), "-1"), ((0, -1), "-d"),
                       ((1, -1, 3), "3*d^2-d+1"), ((0, 0, -2), "-2*d^2"),
                       ((-5, 0, 1), "d^2-5")]:
        assert pstr(poly) == text


def test_pow_and_coercion():
    assert d ** 3 == d * d * d
    assert (1 + d) * 2 == 2 * d + 2
    assert Fraction(1, 2) * d == d / 2
    assert (d ** 2 - 1) / (d + 1) == d - 1


def test_degree_ceiling(monkeypatch):
    monkeypatch.setattr(scalar, "_DEGREE_LIMIT", 8)
    with pytest.raises(DegreeOverflowError):
        _ = (d + 1) ** 9


def test_poly_gcd_divexact():
    a = pmul((1, 1), (2, 0, 1))   # (1+d)(2+d^2)
    b = pmul((1, 1), (3, 1))      # (1+d)(3+d)
    g = pgcd(a, b)
    assert g == (1, 1)
    assert pdivexact(a, g) == (2, 0, 1)


# -- Z[d] kernels against a schoolbook reference ----------------------------

def _ref_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _ref_trim(x + sign * y for x, y in zip(a, b))


def _ref_mul(a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


CONSTANTS = [(), (1,), (-1,), (2,), (-3,), (12,)]
polys = st.one_of(
    st.sampled_from(CONSTANTS),
    st.lists(st.integers(-30, 30), max_size=7).map(_ref_trim))
nonzero_polys = polys.filter(bool)


@given(polys, polys)
def test_kernels_match_schoolbook(a, b):
    assert pmul(a, b) == _ref_mul(a, b)
    assert padd(a, b) == _ref_add(a, b)
    assert psub(a, b) == _ref_add(a, b, -1)
    assert pneg(a) == _ref_add((), a, -1)


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=6),
       st.lists(st.integers(-30, 30), min_size=1, max_size=6), st.integers(1, 5))
def test_equal_length_sums_cancel_their_top_terms(low_a, low_b, top):
    # a and b share a length and opposite top coefficients, so the sum
    # (and a minus -b) loses its top term, maybe more
    n = min(len(low_a), len(low_b))
    a = tuple(low_a[:n]) + (top,)
    b = tuple(low_b[:n]) + (-top,)
    assert padd(a, b) == _ref_add(a, b)
    assert psub(a, pneg(b)) == _ref_add(a, b)
    assert len(padd(a, b)) <= n
    assert padd(a, pneg(a)) == psub(a, a) == ()


@given(nonzero_polys, nonzero_polys)
def test_pquo_recovers_an_exact_quotient(q, b):
    a = pmul(q, b)
    got = pquo(a, b)
    assert got == q and pmul(got, b) == a
    assert pquo((), b) == ()


@given(polys, nonzero_polys)
def test_pquo_is_exact_or_none(a, b):
    got = pquo(a, b)
    if got is not None:
        assert pmul(got, b) == a


@given(polys, st.lists(st.integers(-30, 30), min_size=1, max_size=5),
       st.integers(1, 30), st.lists(st.integers(-30, 30), min_size=1, max_size=5))
def test_pquo_rejects_a_nonzero_remainder(q, low, lead, rem):
    b = tuple(low) + (lead,)           # degree >= 1
    r = _ref_trim(rem[:len(low)])      # degree < deg b
    assume(r)
    a = padd(pmul(q, b), r)
    assert pquo(a, b) is None
    with pytest.raises(ArithmeticError):
        pdivexact(a, b)


@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_pgcd_divides_and_keeps_common_factors(a, b, h):
    g = pgcd(pmul(a, h), pmul(b, h))
    assert g[-1] > 0
    assert pquo(pmul(a, h), g) is not None and pquo(pmul(b, h), g) is not None
    assert pquo(g, h) is not None or pquo(g, pneg(h)) is not None
    if len(a) == 1:
        assert pgcd(a, b) == (math.gcd(a[0], *b),)


def test_pquo_integer_non_divisibility():
    assert pquo((2, 2), (4,)) is None
    assert pquo((4, 8), (4,)) == (1, 2)
    assert pquo((2, 2), (2, 4)) is None       # same degree, quotient not integral
    assert pquo((3, 1), (0, 1)) is None       # d does not divide 3 + d
    with pytest.raises(ArithmeticError):
        pdivexact((2, 2), (4,))
    with pytest.raises(ZeroDivisionError):
        pquo((1,), ())


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_distributivity(sa, sb, sc):
    rng = seeded(sa ^ (sb << 1) ^ (sc << 2))
    a = random_rational_function(rng)
    b = random_rational_function(rng)
    c = random_rational_function(rng)
    assert (a + b) * c == a * c + b * c


@given(st.integers(0, 10 ** 6), st.integers(2, 40))
def test_eval_is_ring_morphism(seed, qnum):
    rng = seeded(seed)
    a = random_rational_function(rng)
    b = random_rational_function(rng)
    q = Fraction(qnum, 7)
    try:
        lhs = (a * b).eval_at(q)
        rhs = a.eval_at(q) * b.eval_at(q)
        add_lhs = (a + b).eval_at(q)
        add_rhs = a.eval_at(q) + b.eval_at(q)
    except PoleError:
        return
    assert lhs == rhs
    assert add_lhs == add_rhs


# -- evaluation at a rational point: integer Horner against Fraction Horner --

def _ref_eval(a, q):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * q + c
    return acc


# zero, negative, integral and non-unit-denominator points, as ints and Fractions
points = st.one_of(
    st.sampled_from([0, Fraction(0), -1, Fraction(-1), 2, Fraction(-7, 3)]),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)))


@given(polys, nonzero_polys, points)
def test_integer_evaluation_matches_fraction_horner(a, b, q):
    got = peval(a, q)
    assert isinstance(got, Fraction) and got == _ref_eval(a, q)
    assert peval((), q) == 0
    f = RationalFunction(a, b)
    den = _ref_eval(f.den, q)
    if den:
        got = f.eval_at(q)
        assert isinstance(got, Fraction) and got == _ref_eval(f.num, q) / den
    else:
        with pytest.raises(PoleError):
            f.eval_at(q)


@given(nonzero_polys, nonzero_polys, points)
def test_eval_at_raises_at_a_denominator_root(a, h, q):
    q = Fraction(q)
    assume(_ref_eval(a, q))
    # (d - q)*h up to the unit 1/v, so the canonical form keeps the root q
    f = RationalFunction(a, pmul((-q.numerator, q.denominator), h))
    with pytest.raises(PoleError) as err:
        f.eval_at(q)
    assert str(err.value).endswith("vanishes at d=%s" % q)
