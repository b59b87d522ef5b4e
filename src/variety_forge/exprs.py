"""Parsing and canonical printing of identity expressions; the directives
that variety and algebra files share (``read_directives``).

One grammar serves coefficients and identities (whitespace insignificant)::

    sum     := product (('+'|'-') product)*
    product := power (('*'|'/') power)*
    power   := ('+'|'-') power | primary ['^' int]
    primary := int | 'd' | var | opname '(' sum ',' sum ')' | '(' sum ')'
    var     := 'x' int

Every rung has a value of one of two kinds: a scalar in Q(d), or a raw sum of
``(tree, coefficient)`` pairs.  Scalars combine by field arithmetic; a raw sum
may be scaled by a scalar, but two monomials never multiply, a monomial never
divides and never takes a power.  Where an element must stand (the whole
input of ``parse_expr`` and each operation argument) every term of a sum is a
raw sum or the scalar zero.  ``parse_scalar`` reads a sum whose value is a
scalar.  So a sign may precede any factor (``2*-x1``), parentheses may group
a sum of monomials, and operation arguments expand bilinearly
(``dot(x1+x2, x3)``).  Canonical printing emits terms in the monomial total
order with explicit signs; parse o print is the identity.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import (DELTA, PONE, RF_ONE, RationalFunction, join_signed, pconst,
                     pstr, signed_term)
from .terms import Element, OpSymbol, TermError, normalize_tree, ops_table


class ExprSyntaxError(ValueError):
    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


def _lex(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word[0] == "x" and word[1:].isdecimal():
                tokens.append(("var", int(word[1:]), i))
            else:
                tokens.append(("ident", word, i))
            i = j
        elif ch in "+-*/^(),":
            tokens.append((ch, None, i))
            i += 1
        else:
            raise ExprSyntaxError("unexpected character %r" % ch, i)
    tokens.append(("end", None, len(text)))
    return tokens


def _scale(value, c):
    """A scalar or raw sum times the scalar c."""
    if isinstance(value, RationalFunction):
        return value * c
    return [(tree, c * coeff) for tree, coeff in value]


class _Parser:
    """Recursive descent over one ladder whose values are scalars or raw sums."""

    def __init__(self, text, op_table):
        self.tokens = _lex(text)
        self.pos = 0
        self.ops = op_table

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprSyntaxError("expected %r, found %r" % (kind, tok[0]), tok[2])
        self.pos += 1
        return tok

    def finish(self):
        tok = self.take()
        if tok[0] != "end":
            raise ExprSyntaxError("trailing input", tok[2])

    def as_sum(self, value, at):
        """The raw sum of a value; a scalar stands for a sum only when zero."""
        if not isinstance(value, RationalFunction):
            return value
        if value.is_zero():
            return []
        raise ExprSyntaxError("term has no monomial", at)

    def parse_sum(self, raw=False):
        """A sum of scalars is a scalar.  A sum with a monomial in it, or one
        read where an element must stand (``raw``), is a raw sum."""
        items = [(self.peek()[2], self.parse_product())]
        while self.peek()[0] in "+-":
            op = self.take()[0]
            at = self.peek()[2]
            value = self.parse_product()
            items.append((at, value if op == "+" else _scale(value, -1)))
        if raw or not all(isinstance(v, RationalFunction) for _, v in items):
            return [pair for at, v in items for pair in self.as_sum(v, at)]
        return sum((v for _, v in items[1:]), items[0][1])

    def parse_product(self):
        value = self.parse_power()
        while self.peek()[0] in "*/":
            op = self.take()[0]
            at = self.peek()[2]
            rhs = self.parse_power()
            if not isinstance(rhs, RationalFunction):
                if op == "/":
                    raise ExprSyntaxError("division by a monomial is not allowed", at)
                if not isinstance(value, RationalFunction):
                    raise ExprSyntaxError("a term may contain only one monomial", at)
                value, rhs = rhs, value
            value = _scale(value, rhs if op == "*" else 1 / rhs)
        return value

    def parse_power(self):
        if self.peek()[0] in "+-":
            sign = self.take()[0]
            value = self.parse_power()
            return value if sign == "+" else _scale(value, -1)
        value = self.parse_primary()
        if self.peek()[0] == "^":
            at = self.take()[2]
            if not isinstance(value, RationalFunction):
                raise ExprSyntaxError("only a scalar has a power", at)
            value = value ** self.take("int")[1]
        return value

    def parse_primary(self):
        kind, payload, at = self.take()
        if kind == "int":
            return RationalFunction(pconst(payload))
        if kind == "ident" and payload == "d":
            return DELTA
        if kind == "var":
            return [(payload, RF_ONE)]
        if kind == "(":
            value = self.parse_sum()
            self.take(")")
            return value
        if kind != "ident":
            raise ExprSyntaxError("expected a scalar or a monomial", at)
        if payload not in self.ops:
            raise ExprSyntaxError("unknown operation %r" % payload, at)
        self.take("(")
        left = self.parse_sum(raw=True)
        self.take(",")
        right = self.parse_sum(raw=True)
        self.take(")")
        return [((payload, lt, rt), lc * rc) for lt, lc in left for rt, rc in right]


def parse_scalar(text: str) -> RationalFunction:
    """Parse a scalar in Q(d), e.g. ``(3*d^2-1)/(d-1)`` or ``-2/3``."""
    parser = _Parser(text, {})
    value = parser.parse_sum()
    if not isinstance(value, RationalFunction):
        raise ExprSyntaxError("expected a scalar")
    parser.finish()
    return value


def parse_expr(text: str, ops) -> Element:
    """Parse a multilinear identity expression into a normalized Element.

    Non-multilinear input raises TermError; ``terms.multilinearize`` polarizes
    it fully.
    """
    table = ops_table(ops)
    parser = _Parser(text, table)
    raw = parser.parse_sum(raw=True)
    parser.finish()
    # one Element per arity, so that terms of different arities may cancel
    by_arity = {}
    for tree, coeff in raw:
        sign, mono = normalize_tree(tree, table)
        acc = by_arity.get(mono.arity)
        if acc is None:
            acc = by_arity[mono.arity] = Element(mono.arity)
        acc._add(mono, coeff if sign == 1 else -coeff)
    nonzero = [acc for acc in by_arity.values() if not acc.is_zero()]
    if len(nonzero) > 1:
        raise TermError("terms of different arities remain after cancellation")
    return nonzero[0] if nonzero else Element(0)


# ---------------------------------------------------------------------------
# file directives

def read_directives(text: str, error, generic_delta=False):
    """``(ops, delta, rest)`` of a variety or algebra file, ``#`` comments out.

    ``op <name> <symmetry>`` declares an operation once, ``param delta =
    <rational>`` binds d, and a bare ``param delta`` leaves it generic where
    ``generic_delta``; one ``param`` line at most.  ``rest`` holds the
    ``(lineno, line)`` of every other line.  A malformed directive raises
    ``error("line N: ...")``.
    """
    ops = {}
    delta = None
    delta_declared = False
    rest = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        words = line.split()
        if not words:
            continue
        if words[0] == "op":
            if len(words) != 3:
                raise error("line %d: expected 'op <name> <symmetry>'" % lineno)
            if words[1] in ops:
                raise error("line %d: operation %r declared twice" % (lineno, words[1]))
            try:
                ops[words[1]] = OpSymbol(words[1], words[2])
            except TermError as exc:
                raise error("line %d: %s" % (lineno, exc)) from None
        elif words[0] == "param":
            pname, _, value = line[len("param"):].partition("=")
            pname = pname.strip()
            if pname not in ("", "delta"):
                raise error("line %d: unknown parameter %r" % (lineno, pname))
            if pname and delta_declared:
                raise error("line %d: parameter 'delta' declared twice" % lineno)
            delta_declared = True
            if generic_delta and words[1:] == ["delta"]:
                continue
            try:
                # a nameless line (``param``, ``param = 2``) is malformed
                delta = Fraction(value if pname else "")
            except (ValueError, ZeroDivisionError):
                raise error("line %d: expected 'param delta = <rational>'"
                            % lineno) from None
        else:
            rest.append((lineno, line))
    return list(ops.values()), delta, rest


# ---------------------------------------------------------------------------
# printing

def _coeff_text(c: RationalFunction):
    """Return (sign, text or None) with text suitable for `text*mono`."""
    num, den = c.num, c.den
    if den != PONE:
        return "+", "(%s)/(%s)" % (pstr(num), pstr(den))
    nonzero = [i for i, v in enumerate(num) if v]
    if len(nonzero) != 1:
        return "+", "(%s)" % pstr(num)
    sign, text = signed_term(num[nonzero[0]], "d", nonzero[0])
    return sign, None if text == "1" else text


def format_element(e: Element) -> str:
    parts = []
    for mono, coeff in e.items_sorted():
        sign, text = _coeff_text(coeff)
        parts.append((sign, str(mono) if text is None else "%s*%s" % (text, mono)))
    return join_signed(parts)
