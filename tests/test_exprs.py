"""Identity expression grammar: parsing, errors, canonical printing; the
directives that variety and algebra files share."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from variety_forge.algebras import AlgebraError, format_algebra, parse_algebra_text
from variety_forge.catalog import algebra, algebra_names, variety, variety_names
from variety_forge.engine import EngineError, format_variety, parse_variety_text
from variety_forge.exprs import (ExprSyntaxError, format_element, parse_expr,
                                 parse_scalar)
from variety_forge.scalar import RF_ONE
from variety_forge.terms import BRACKET, DOT, TermError, multilinearize

from conftest import ONE_OP, TWO_OPS, random_element, seeded


def test_parse_delta_poisson_law():
    e = parse_expr("bracket(dot(x1,x2),x3) - d*dot(x1,bracket(x2,x3))"
                   " - d*dot(bracket(x1,x3),x2)", TWO_OPS)
    assert e.arity == 3 and len(e.terms) == 3
    printed = format_element(e)
    assert parse_expr(printed, TWO_OPS) == e


def test_parse_cancellation_to_zero():
    assert parse_expr("dot(x1,x2) - dot(x2,x1)", TWO_OPS).is_zero()
    assert parse_expr("bracket(x1,x2) + bracket(x2,x1)", TWO_OPS).is_zero()


def test_parse_non_multilinear():
    with pytest.raises(TermError):
        parse_expr("bracket(x1,x1)", TWO_OPS)
    # the full polarization of a repeated variable is terms.multilinearize
    (e,) = multilinearize([(("bracket", 1, 1), RF_ONE)], TWO_OPS)
    assert e.is_zero()
    (e,) = multilinearize([(("m", 1, 1), RF_ONE)], ONE_OP)
    assert e == parse_expr("m(x1,x2) + m(x2,x1)", ONE_OP)


def test_parse_errors_report_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("dot(x1,", TWO_OPS)
    assert err.value.position is not None
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("wedge(x1,x2)", TWO_OPS)
    assert "unknown operation" in str(err.value)
    with pytest.raises(ExprSyntaxError):
        parse_expr("dot(x1,x2) dot(x3,x4)", TWO_OPS)
    with pytest.raises(ExprSyntaxError):
        parse_expr("2*3", TWO_OPS)
    for bad in ("x1 + 2", "x1*x2", "x1/x2", "dot(x1,x2)^2", "dot(2,x1)"):
        with pytest.raises(ExprSyntaxError):
            parse_expr(bad, TWO_OPS)
    with pytest.raises(ExprSyntaxError):
        parse_scalar("x1")
    # a superscript two is no decimal digit: a syntax error with a position,
    # not a bare int() error
    for bad, position in (("dot(x\u00b2,x1)", 4), ("2\u00b2*dot(x1,x2)", 1)):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(bad, TWO_OPS)
        assert err.value.position == position


def test_coefficient_grammar():
    e = parse_expr("(3*d^2-1)/(d-1)*dot(x1,x2) + 1/2*bracket(x1,x2)", TWO_OPS)
    assert len(e.terms) == 2
    rt = format_element(e)
    assert parse_expr(rt, TWO_OPS) == e
    # bilinear expansion of compound arguments
    e2 = parse_expr("dot(x1 + bracket(x1,x3) - x1, x2)", TWO_OPS)
    assert e2 == parse_expr("dot(bracket(x1,x3),x2)", TWO_OPS)
    # a sign may precede any factor, and parentheses may group a sum
    for text, explicit in (("2*-x1", "-2*x1"),
                           ("-(dot(x1,x2))", "-dot(x1,x2)"),
                           ("2*(dot(x1,x2) + bracket(x1,x2))",
                            "2*dot(x1,x2) + 2*bracket(x1,x2)"),
                           ("dot(x1,x2)/-2", "-1/2*dot(x1,x2)")):
        assert parse_expr(text, TWO_OPS) == parse_expr(explicit, TWO_OPS), text


def test_zero_literal_and_arity_check():
    assert parse_expr("0", TWO_OPS).is_zero()
    # terms of different arities may cancel, but may not remain
    assert parse_expr("dot(x1,x2) + dot(dot(x1,x2),x3) - dot(x3,dot(x2,x1))",
                      TWO_OPS).arity == 2
    with pytest.raises(TermError):
        parse_expr("dot(x1,x2) + dot(dot(x1,x2),x3)", TWO_OPS)


@given(st.integers(0, 10 ** 6), st.integers(2, 4), st.booleans())
def test_print_parse_fixpoint(seed, n, use_delta):
    rng = seeded(seed)
    ops = TWO_OPS if rng.random() < 0.7 else ONE_OP
    e = random_element(rng, ops, n, delta_coeffs=use_delta)
    text = format_element(e)
    back = parse_expr(text, ops)
    assert back == e
    assert format_element(back) == text


# ---------------------------------------------------------------------------
# the directives variety and algebra files share

def _read_both(text):
    """Parse text as a variety file and, after a 'dim 1' line, as an algebra
    file: (ops, delta) of each, or the error message of each."""
    results = []
    for parse, error, suffix in ((parse_variety_text, EngineError, ""),
                                 (parse_algebra_text, AlgebraError, "dim 1\n")):
        try:
            parsed = parse(text + suffix)
        except error as exc:
            assert type(exc) is error, (text, exc)
            results.append(str(exc))
        else:
            results.append((set(parsed.ops), parsed.delta))
    return results


@pytest.mark.parametrize("text, ops, delta", [
    ("# a comment\n\n   \nop dot symmetric   # trailing comment\n", {DOT}, None),
    ("op\tdot\tsymmetric\n", {DOT}, None),
    ("op dot symmetric\nop bracket antisymmetric\nparam delta=1/2\n", {DOT, BRACKET},
     Fraction(1, 2)),
    ("op dot symmetric\nparam delta = -1  # anti-Poisson\n", {DOT}, Fraction(-1)),
])
def test_both_file_formats_read_directives_alike(text, ops, delta):
    assert _read_both(text) == [(ops, delta)] * 2


@pytest.mark.parametrize("text, message", [
    ("op dot symmetric\nop\n", "line 2: expected 'op <name> <symmetry>'"),
    ("op dot symmetric\nparam\n", "line 2: expected 'param delta = <rational>'"),
    ("op dot symmetric\nparam delta = x\n", "line 2: expected 'param delta = <rational>'"),
    ("op dot symmetric\nparam beta = 2\n", "line 2: unknown parameter 'beta'"),
    ("# header\nop dot sym\n", "line 2: unknown symmetry 'sym'"),
    ("op dot symmetric\nop dot symmetric\n", "line 2: operation 'dot' declared twice"),
    ("op dot symmetric\n\nop dot antisymmetric\n", "line 3: operation 'dot' declared twice"),
    ("op dot symmetric\nparam delta = 1\nparam delta = 2\n",
     "line 3: parameter 'delta' declared twice"),
])
def test_both_file_formats_refuse_directives_alike(text, message):
    assert _read_both(text) == [message] * 2


def test_every_catalog_file_round_trips_through_its_reader():
    for name in variety_names():
        v = variety(name)
        text = format_variety(v)
        back = parse_variety_text(text, name=name)
        assert back.ops == v.ops and back.cache_key == v.cache_key, name
        assert format_variety(back) == text, name
    for name in algebra_names():
        a = algebra(name)
        text = format_algebra(a)
        back = parse_algebra_text(text, name=name)
        assert back.ops == a.ops and back.delta == a.delta, name
        assert back.tables == a.tables, name
        assert format_algebra(back) == text, name
