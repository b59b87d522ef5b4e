"""Parsing and canonical printing of identity expressions.

Grammar (whitespace insignificant)::

    expr  := ['-'] term (('+'|'-') term)*
    term  := [coeff '*'] atom
    atom  := opname '(' expr ',' expr ')' | var
    var   := 'x' int
    coeff := rational function in d (ints, 'd', + - * / ^, parentheses)

``parse_scalar`` reads a lone coeff with the same grammar.  Operation
arguments are full expressions and expand bilinearly, so ``dot(x1+x2, x3)``
is accepted.  Canonical printing emits terms in the monomial total order
with explicit signs; parse o print is the identity.
"""

from __future__ import annotations

from .scalar import DELTA, PONE, RF_ONE, RationalFunction, pconst, pstr
from .terms import Element, TermError, multilinearize, normalize_tree, ops_table


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
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word[0] == "x" and word[1:].isdigit():
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


class _Parser:
    """Recursive-descent parser producing raw (tree, coefficient) sums."""

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

    # -- element expressions --------------------------------------------

    def parse_expr(self):
        sign = 1
        if self.peek()[0] in "+-":
            if self.take()[0] == "-":
                sign = -1
        terms = self.parse_term()
        if sign == -1:
            terms = [(t, -c) for t, c in terms]
        while self.peek()[0] in "+-":
            op = self.take()[0]
            nxt = self.parse_term()
            if op == "-":
                nxt = [(t, -c) for t, c in nxt]
            terms.extend(nxt)
        return terms

    def parse_term(self):
        coeff = RF_ONE
        atom = None
        while True:
            kind, payload, at = self.peek()
            if kind in ("int", "(") or (kind == "ident" and payload == "d"):
                coeff = coeff * self.parse_scalar_factor()
            elif kind in ("var", "ident"):
                if atom is not None:
                    raise ExprSyntaxError("a term may contain only one monomial", at)
                atom = self.parse_atom()
            else:
                raise ExprSyntaxError("expected a coefficient or a monomial", at)
            while self.peek()[0] == "/":
                self.take()
                kind2, payload2, at2 = self.peek()
                if kind2 == "var" or (kind2 == "ident" and payload2 != "d"):
                    raise ExprSyntaxError("division by a monomial is not allowed", at2)
                coeff = coeff / self.parse_scalar_factor()
            if self.peek()[0] == "*":
                self.take()
                continue
            break
        if atom is None:
            if coeff.is_zero():
                return []
            raise ExprSyntaxError("term has no monomial", self.peek()[2])
        return [(t, coeff * c) for t, c in atom]

    def parse_atom(self):
        kind, payload, at = self.take()
        if kind == "var":
            return [(payload, RF_ONE)]
        if kind != "ident":
            raise ExprSyntaxError("expected a monomial", at)
        if payload not in self.ops:
            raise ExprSyntaxError("unknown operation %r" % payload, at)
        self.take("(")
        left = self.parse_expr()
        self.take(",")
        right = self.parse_expr()
        self.take(")")
        out = []
        for lt, lc in left:
            for rt, rc in right:
                out.append(((payload, lt, rt), lc * rc))
        return out

    # -- scalar sub-expressions -------------------------------------------

    def parse_scalar_factor(self):
        kind, payload, at = self.peek()
        if kind == "int":
            self.take()
            value = RationalFunction(pconst(payload))
        elif kind == "ident" and payload == "d":
            self.take()
            value = DELTA
        elif kind == "(":
            self.take()
            value = self.parse_scalar_expr()
            self.take(")")
        elif kind == "-":
            self.take()
            return -self.parse_scalar_factor()
        elif kind == "+":
            self.take()
            return self.parse_scalar_factor()
        else:
            raise ExprSyntaxError("expected a scalar", at)
        if self.peek()[0] == "^":
            self.take()
            kind, exp, at = self.take("int")
            value = value ** exp
        return value

    def parse_scalar_expr(self):
        value = self.parse_scalar_term()
        while self.peek()[0] in "+-":
            op = self.take()[0]
            rhs = self.parse_scalar_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_scalar_term(self):
        value = self.parse_scalar_factor()
        while self.peek()[0] in "*/":
            op = self.take()[0]
            rhs = self.parse_scalar_factor()
            value = value * rhs if op == "*" else value / rhs
        return value


def parse_scalar(text: str) -> RationalFunction:
    """Parse a scalar in Q(d), e.g. ``(3*d^2-1)/(d-1)`` or ``-2/3``."""
    parser = _Parser(text, {})
    value = parser.parse_scalar_expr()
    parser.finish()
    return value


def parse_expr(text: str, ops, allow_multilinearize: bool = False,
               arity: int | None = None) -> Element:
    """Parse an identity expression into a normalized Element.

    Non-multilinear input raises unless ``allow_multilinearize`` is set, in
    which case the full polarization is returned (it must consist of a single
    multihomogeneous component).
    """
    table = ops_table(ops)
    parser = _Parser(text, table)
    raw = parser.parse_expr()
    parser.finish()
    if not raw:
        return Element(arity if arity is not None else 0)
    try:
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
        out = nonzero[0] if nonzero else Element(arity or 0)
    except TermError:
        if not allow_multilinearize:
            raise
        family = multilinearize(raw, ops)
        if len(family) != 1:
            raise TermError(
                "expression has %d multihomogeneous components; "
                "call multilinearize directly" % len(family))
        out = family[0]
    if arity is not None and out.arity != arity and not out.is_zero():
        raise TermError("expected arity %d, got %d" % (arity, out.arity))
    return out


# ---------------------------------------------------------------------------
# printing

def _coeff_text(c: RationalFunction):
    """Return (sign, text or None) with text suitable for `text*mono`."""
    num, den = c.num, c.den
    if den == PONE:
        nonzero = [i for i, v in enumerate(num) if v]
        if len(nonzero) == 1:
            i = nonzero[0]
            v = num[i]
            sign = "-" if v < 0 else "+"
            mag = abs(v)
            if i == 0:
                text = None if mag == 1 else str(mag)
            elif i == 1:
                text = "d" if mag == 1 else "%d*d" % mag
            else:
                text = "d^%d" % i if mag == 1 else "%d*d^%d" % (mag, i)
            return sign, text
        return "+", "(%s)" % pstr(num)
    return "+", "(%s)/(%s)" % (pstr(num), pstr(den))


def format_element(e: Element) -> str:
    if e.is_zero():
        return "0"
    parts = []
    for mono, coeff in e.items_sorted():
        sign, text = _coeff_text(coeff)
        body = str(mono) if text is None else "%s*%s" % (text, mono)
        parts.append((sign, body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += " %s %s" % (sign, body)
    return out
