"""Exact arithmetic in Q and in the rational-function field Q(d).

Rationals are stdlib ``fractions.Fraction``.  Elements of Q(d) are kept as a
pair of integer-coefficient polynomials (numerator, denominator) in canonical
form: the pair is coprime over Q[d], the denominator is nonzero with positive
leading coefficient, and the integer contents are reduced as far as possible.
Polynomials are tuples of ints in ascending degree with no trailing zeros, so
``()`` is the zero polynomial and ``(0, 1)`` is d itself.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

Poly = tuple  # integer coefficients, ascending degree, no trailing zeros

PZERO: Poly = ()
PONE: Poly = (1,)
PD: Poly = (0, 1)  # the formal parameter d


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a root of its denominator."""


class DegreeOverflowError(ArithmeticError):
    """Intermediate polynomial degree exceeded the configured ceiling."""


# Ceiling on the degree of any polynomial product.
_DEGREE_LIMIT = 64


# ---------------------------------------------------------------------------
# integer polynomial helpers

def pnormalize(coeffs) -> Poly:
    c = tuple(coeffs)
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return c[:n]


def pdeg(p: Poly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def padd(a: Poly, b: Poly) -> Poly:
    # inputs carry no trailing zeros, so only equal lengths can cancel the
    # top, and only a zero top coefficient needs normalising
    la, lb = len(a), len(b)
    if la > lb:
        return tuple(map(operator.add, a, b)) + a[lb:]
    if la < lb:
        return tuple(map(operator.add, a, b)) + b[la:]
    out = tuple(map(operator.add, a, b))
    return out if not out or out[-1] else pnormalize(out)


def pneg(a: Poly) -> Poly:
    return tuple(map(operator.neg, a))


def psub(a: Poly, b: Poly) -> Poly:
    la, lb = len(a), len(b)
    if la > lb:
        return tuple(map(operator.sub, a, b)) + a[lb:]
    if la < lb:
        return tuple(map(operator.sub, a, b)) + tuple(map(operator.neg, b[la:]))
    out = tuple(map(operator.sub, a, b))
    return out if not out or out[-1] else pnormalize(out)


def pmul(a: Poly, b: Poly) -> Poly:
    # Z is an integral domain: the top coefficient a[-1]*b[-1] is never zero,
    # so the product needs no normalisation
    if not a or not b:
        return PZERO
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        x = a[0]
        if x == 1:
            return b
        return tuple([x * v for v in b])
    if len(a) + len(b) - 2 > _DEGREE_LIMIT:
        raise DegreeOverflowError(
            "polynomial degree %d exceeds ceiling %d"
            % (len(a) + len(b) - 2, _DEGREE_LIMIT))
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)


def pconst(c: int) -> Poly:
    return (c,) if c else PZERO


def pscale(a: Poly, c: int) -> Poly:
    if c == 0:
        return PZERO
    return tuple(v * c for v in a)


def pcontent(a: Poly) -> int:
    """gcd of the coefficients, nonnegative; 0 for the zero polynomial."""
    g = 0
    for v in a:
        g = math.gcd(g, v)
        if g == 1:
            return 1
    return g


def pprimitive(a: Poly) -> Poly:
    c = pcontent(a)
    if c <= 1:
        return a
    return tuple(v // c for v in a)


def pquo(a: Poly, b: Poly):
    """The exact quotient a/b in Z[d], or None when b does not divide a."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return PZERO
    db, lb = len(b) - 1, b[-1]
    qn = len(a) - len(b)
    # a[-1] = q[-1]*b[-1] and a[0] = q[0]*b[0] reject most non-divisors early
    if qn < 0 or a[-1] % lb or (a[0] % b[0] if b[0] else a[0]):
        return None
    if not db:
        if lb == 1:
            return a
        if any(v % lb for v in a):
            return None
        return tuple([v // lb for v in a])
    rem = list(a)
    q = [0] * (qn + 1)
    for k in range(qn, -1, -1):
        lead = rem[k + db]
        if lead % lb:
            return None
        c = lead // lb
        q[k] = c
        if c:
            for j, v in enumerate(b, k):
                rem[j] -= c * v
    # every step cleared one top coefficient; only the low db can remain
    if any(rem[:db]):
        return None
    return tuple(q)


def pdivexact(a: Poly, b: Poly) -> Poly:
    """Exact division a/b in Z[d]; raises if it does not divide."""
    q = pquo(a, b)
    if q is None:
        raise ArithmeticError("inexact polynomial division")
    return q


def pprem(a: Poly, b: Poly) -> Poly:
    """Pseudo-remainder of a by b in Z[d] (b nonzero, deg a >= deg b)."""
    da, db = pdeg(a), pdeg(b)
    lb = b[-1]
    r = list(a)
    for k in range(da - db, -1, -1):
        coef = r[k + db]
        if coef:
            for i in range(len(r)):
                r[i] *= lb
            for j in range(db + 1):
                r[k + j] -= coef * b[j]
    return pnormalize(r[:db])


def pgcd(a: Poly, b: Poly) -> Poly:
    """gcd in Z[d]: gcd of contents times primitive gcd, positive leading."""
    if not a:
        return b if not b or b[-1] > 0 else pneg(b)
    if not b:
        return a if a[-1] > 0 else pneg(a)
    ca, cb = pcontent(a), pcontent(b)
    if len(a) == 1 or len(b) == 1:
        return (math.gcd(ca, cb),)
    a, b = pprimitive(a), pprimitive(b)
    if pdeg(a) < pdeg(b):
        a, b = b, a
    while b:
        r = pprem(a, b)
        a, b = b, pprimitive(r)
    if a[-1] < 0:
        a = pneg(a)
    cg = math.gcd(ca, cb)
    return pscale(a, cg) if cg > 1 else a


def _homogeneous_eval(a: Poly, u: int, v: int) -> int:
    """v^deg(a) * a(u/v) as an int (0 for the zero polynomial).

    Integer Horner with a running power of v, so no Fraction is built.
    """
    if not a:
        return 0
    it = reversed(a)
    acc = next(it)
    vk = 1
    for c in it:
        vk *= v
        acc = acc * u + c * vk
    return acc


def peval(a: Poly, q) -> Fraction:
    """Exact value a(q) at an int or Fraction q."""
    v = q.denominator
    return Fraction(_homogeneous_eval(a, q.numerator, v), v ** max(len(a) - 1, 0))


def signed_term(c, var: str, i: int):
    """``(sign, body)`` of the term c*var^i, unit factors dropped: ``3*d^2``."""
    sign, mag = ("-" if c < 0 else "+"), abs(c)
    if i == 0:
        return sign, str(mag)
    power = var if i == 1 else "%s^%d" % (var, i)
    return sign, power if mag == 1 else "%s*%s" % (mag, power)


def join_signed(parts, sep: str = " ") -> str:
    """Join ``(sign, body)`` parts as a signed sum, e.g. ``a - b + c``; ``0`` if none."""
    if not parts:
        return "0"
    (sign, body), rest = parts[0], parts[1:]
    return ("-" if sign == "-" else "") + body + "".join(
        sep + sign + sep + body for sign, body in rest)


def pstr(a: Poly) -> str:
    """Human form, descending powers: ``3*d^2-d+1``."""
    return join_signed([signed_term(a[i], "d", i)
                        for i in range(len(a) - 1, -1, -1) if a[i]], sep="")


# ---------------------------------------------------------------------------
# the field Q(d)

class RationalFunction:
    """An element of Q(d) in reduced canonical form.

    Equality, hashing and printing all operate on the canonical pair, so two
    values are equal exactly when their canonical fields coincide.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=PONE, _canonical=False):
        if not _canonical:
            num = _as_poly(num)
            den = _as_poly(den)
            if not den:
                raise ZeroDivisionError("zero denominator in Q(d)")
            num, den = _reduce(num, den)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_fraction(q) -> "RationalFunction":
        q = Fraction(q)
        return RationalFunction(pconst(q.numerator), pconst(q.denominator))

    @staticmethod
    def delta() -> "RationalFunction":
        return RationalFunction(PD, PONE, _canonical=True)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return pdeg(self.num) <= 0 and pdeg(self.den) == 0

    def as_fraction(self) -> Fraction:
        if pdeg(self.num) > 0 or pdeg(self.den) > 0:
            raise ValueError("not a constant: %s" % self)
        n = self.num[0] if self.num else 0
        return Fraction(n, self.den[0])

    # -- field arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        num = padd(pmul(self.num, other.den), pmul(other.num, self.den))
        return RationalFunction(num, pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(pneg(self.num), self.den, _canonical=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(pmul(self.num, other.num),
                                pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(d)")
        return RationalFunction(pmul(self.num, other.den),
                                pmul(self.den, other.num))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            return (RationalFunction(PONE) / self) ** (-k)
        out = RationalFunction(PONE)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    # -- evaluation and printing ---------------------------------------------

    def eval_at(self, q) -> Fraction:
        """Exact value at d = q; raises PoleError at a denominator root."""
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        u, v = q.numerator, q.denominator
        num, den = self.num, self.den
        dv = _homogeneous_eval(den, u, v)
        if not dv:
            raise PoleError("denominator %s vanishes at d=%s" % (pstr(den), q))
        nv = _homogeneous_eval(num, u, v)
        # nv / dv is v^(deg num - deg den) times the value; cancel that power
        k = len(num) - len(den)
        if k > 0:
            dv *= v ** k
        elif k < 0:
            nv *= v ** -k
        return Fraction(nv, dv)

    def __str__(self):
        if self.den == PONE:
            return pstr(self.num)
        return "(%s)/(%s)" % (pstr(self.num), pstr(self.den))

    def __repr__(self):
        return "RationalFunction(%s)" % self


def _as_poly(v) -> Poly:
    if isinstance(v, tuple):
        return pnormalize(v)
    if isinstance(v, int):
        return pconst(v)
    raise TypeError("cannot build a polynomial from %r" % (v,))


def _reduce(num: Poly, den: Poly):
    if not num:
        return PZERO, PONE
    # g holds the gcd of the contents, so by Gauss's lemma the quotients
    # have coprime contents
    g = pgcd(num, den)
    if pdeg(g) > 0 or (g and g[0] not in (1, -1)):
        num = pdivexact(num, g)
        den = pdivexact(den, g)
    if den[-1] < 0:
        num, den = pneg(num), pneg(den)
    return num, den


def _coerce(v):
    if isinstance(v, RationalFunction):
        return v
    if isinstance(v, int):
        return RationalFunction(pconst(v), PONE, _canonical=True)
    if isinstance(v, Fraction):
        return RationalFunction.from_fraction(v)
    return NotImplemented


RF_ZERO = RationalFunction(PZERO, PONE, _canonical=True)
RF_ONE = RationalFunction(PONE, PONE, _canonical=True)
DELTA = RationalFunction.delta()
