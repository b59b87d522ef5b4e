"""Exact arithmetic in Q(d): canonical forms, evaluation, parsing."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from variety_forge import scalar
from variety_forge.exprs import parse_scalar
from variety_forge.scalar import (DELTA, DegreeOverflowError, PoleError,
                                  RationalFunction, pgcd, pdivexact, pmul, pstr)

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
