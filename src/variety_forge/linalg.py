"""Sparse exact linear algebra over Q and Q(d).

Rows are dicts column -> entry.  Entries live in an integral domain: plain
ints for rational problems, integer-coefficient polynomial tuples for
generic-d problems.  Elimination is fraction-free: cross-multiplication by
the two pivots divided by a common factor (``cancel`` may split by any common
factor, not only the gcd), followed by content reduction.  Each domain has
one elimination loop, ``eliminate``, with no call per entry over Z and none
over Z[d] for a constant factor or a constant difference.  Every product of
two non-constant polynomials goes through ``PolyDomain.mul`` (``scalar.pmul``),
which checks the degree ceiling: ``DegreeOverflowError`` leaves the loop.

``to_row`` is the one conversion from field values (ints, Fractions,
RationalFunctions) to such a domain row: it clears every denominator.  The
RowBasis methods take domain rows only, and RowBasis is the one rank.

RowBasis maintains the fully reduced form at all times: pivots are the
leading (smallest) columns, every stored row vanishes at every other row's
pivot, and ``RowBasis._orient`` keeps the (leading coefficient of the) pivot
entry positive.  Content is divided out at two strengths:

- the lazy ``reduce_row`` during elimination and back-substitution (over
  Z[d] the integer content, and the polynomial content only once some
  degree passes ``PolyDomain.lazy_degree``);
- the full ``reduce_row_full`` on the new row in ``insert`` and on every row
  in ``finalize``.  Over Z the integer content is the full content, so the
  two coincide.

So after ``finalize`` the rows are the field RREF rescaled to a primitive
integral form, whichever factor each step cancelled.  That representation is
canonical for the row space, which is what makes span comparison a
structural equality.

A unit row (one nonzero entry) is not stored as a row: it is a flag on its
column, one byte of ``RowBasis.unit``.  ``rows`` holds only the rows with
two or more entries, and no stored row holds a flagged column.  A row that
reduces to one entry, when inserted or by back-substitution, becomes a flag;
``insert_unit_range`` flags a whole column range in one call.  Readers that
need every row, unit rows included, go through ``RowBasis.items``.

Beside the rows, RowBasis keeps an occurrence index: for each non-pivot
column, a list of pivots whose rows may hold an entry there.  It is a
superset (stale and repeated entries are allowed, and a listed pivot may
since have become a flag), so a new pivot is back-substituted only out of
the rows listed under it rather than out of every stored row.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from itertools import compress

from .scalar import (PONE, RationalFunction, pdivexact, pgcd, pmul, pneg,
                     pnormalize, pquo, psub)


class ZZDomain:
    """Entries are ints; content reduction is a plain gcd."""

    one = 1

    @staticmethod
    def canonical_copy(row, skip):
        """row without its zero entries and its entries at columns flagged in skip."""
        return {c: v for c, v in row.items() if v and not skip[c]}

    neg = staticmethod(operator.neg)

    @staticmethod
    def eliminate(r, s, p):
        """r <- a*r - b*s in place, with (a, b) = (s[p], r[p]) over their gcd."""
        g = math.gcd(s[p], r[p])
        a, b = s[p] // g, r[p] // g
        if a != 1:
            for c, v in r.items():
                r[c] = a * v
        get = r.get
        for c, v in s.items():
            v = get(c, 0) - b * v
            if v:
                r[c] = v
            else:
                del r[c]
        return r

    @staticmethod
    def reduce_row(row):
        g = math.gcd(*row.values())
        if g > 1:
            for c, v in row.items():
                row[c] = v // g
        return row

    reduce_row_full = reduce_row  # the integer content is the full content

    @staticmethod
    def positive(entry):
        return entry > 0

    field_div = staticmethod(Fraction)


class PolyDomain:
    """Entries are integer-coefficient polynomials in d (ascending tuples)."""

    one = PONE
    lazy_degree = 16  # full polynomial content reduction above this degree

    @staticmethod
    def canonical_copy(row, skip):
        """row with normalized entries, without its zero entries and its
        entries at columns flagged in skip."""
        out = {c: v if v[-1] else pnormalize(v) for c, v in row.items() if v and not skip[c]}
        return {c: v for c, v in out.items() if v} if () in out.values() else out

    mul = staticmethod(pmul)
    sub = staticmethod(psub)
    neg = staticmethod(pneg)

    @staticmethod
    def cancel(a, b):
        """Nonzero (a/g, b/g) for a common factor g of a and b: g = 1 when a
        is 1, the integer gcd of two constants, else a or b when one divides
        the other, else the PRS gcd.  Canonical form comes from
        reduce_row_full, so no more is needed.  The first entry is PONE when
        a has a positive leading coefficient and divides b, so eliminate
        skips scaling r."""
        if a == PONE:
            return PONE, b
        if len(a) == 1 and len(b) == 1:
            g = math.gcd(a[0], b[0])
            return (a[0] // g,), (b[0] // g,)
        if a == b:
            return PONE, PONE
        q = pquo(b, a)
        if q is not None:
            return PONE, q
        q = pquo(a, b)
        if q is not None:
            return q, PONE
        g = pgcd(a, b)
        if g == PONE:
            return a, b
        return pdivexact(a, g), pdivexact(b, g)

    @staticmethod
    def eliminate(r, s, p):
        """r <- a*r - b*s in place, with (a, b) = cancel(s[p], r[p]).  A
        constant minus a constant (or none) is one int subtraction; any other
        difference of two entries calls PolyDomain.sub, looked up per call."""
        a, b = PolyDomain.cancel(s[p], r[p])
        if a != PONE:
            r.update(_times(a, r))
        get, sub = r.get, PolyDomain.sub
        for c, v in _times(b, s):
            cur = get(c, ())
            if len(v) == 1 and len(cur) < 2:
                v = (cur[0] if cur else 0) - v[0]
                v = (v,) if v else ()
            else:
                v = sub(cur, v) if cur else pneg(v)
            if v:
                r[c] = v
            else:
                del r[c]
        return r

    @classmethod
    def reduce_row(cls, row):
        """Divide out the integer content, in the same pass as the degree
        test, and the polynomial content only once some degree passes
        ``lazy_degree``."""
        g, top = 0, 1
        for v in row.values():
            if g != 1:
                g = math.gcd(g, *v)
            if len(v) > top:
                top = len(v)
        if g > 1:
            for c, v in row.items():
                row[c] = tuple([x // g for x in v])
        if top > cls.lazy_degree + 1:
            cls.reduce_row_full(row)
        return row

    @staticmethod
    def reduce_row_full(row):
        g = ()
        for v in row.values():
            g = pgcd(g, v)
            if g == PONE:
                return row
        if g and g != PONE:
            for c, v in row.items():
                row[c] = pdivexact(v, g)
        return row

    @staticmethod
    def positive(entry):
        return entry[-1] > 0

    field_div = staticmethod(RationalFunction)


def _times(k, row):
    """(c, k*v) for every entry v of a Z[d] row.  A constant factor scales
    coefficient by coefficient; a product of two non-constant polynomials
    goes through PolyDomain.mul, looked up at call time."""
    if len(k) == 1:
        x = k[0]
        if x == 1:
            return row.items()
        return [(c, (x * v[0],) if len(v) == 1 else tuple([x * w for w in v]))
                for c, v in row.items()]
    mul = PolyDomain.mul
    return [(c, tuple([v[0] * w for w in k]) if len(v) == 1 else mul(k, v))
            for c, v in row.items()]


def to_row(entries, domain):
    """A mapping column -> int, Fraction or RationalFunction as a domain row.

    Every entry is multiplied by the lcm of the denominators, zero entries
    are dropped and the row is divided by its content as the domain's
    reduce_row computes it.  Over Z a d-dependent entry raises ValueError.
    """
    if domain is ZZDomain:
        # ints and Fractions both carry numerator/denominator
        fracs = {c: v.as_fraction() if isinstance(v, RationalFunction) else v
                 for c, v in entries.items() if v}
        lcm = 1
        for v in fracs.values():
            lcm = math.lcm(lcm, v.denominator)
        row = {c: v.numerator * (lcm // v.denominator) for c, v in fracs.items()}
    else:
        rfs = {c: v if isinstance(v, RationalFunction) else RationalFunction.from_fraction(v)
               for c, v in entries.items() if v}
        lcm = PONE
        # polynomial entries (denominator 1) are the common case: no lcm to take
        for v in rfs.values():
            if v.den != PONE:
                lcm = pdivexact(pmul(lcm, v.den), pgcd(lcm, v.den))
        if lcm == PONE:
            row = {c: v.num for c, v in rfs.items()}
        else:
            row = {c: pmul(v.num, pdivexact(lcm, v.den)) for c, v in rfs.items()}
    return domain.reduce_row(row)


class RowBasis:
    """Incremental fully-reduced row-echelon basis over a fraction-free domain.

    ``unit[c]`` is 1 iff column c holds a unit row, and ``units`` counts
    them.  ``rows`` maps the pivot of every other row to the row.  ``occ``
    maps each non-pivot column c to a list of pivots q; every stored row q
    with an entry at c is listed there (the list may also name rows that no
    longer hold c, or that have become unit rows).  Pivot columns, flagged
    ones included, have no list.  After an accepted ``insert``,
    ``last_pivot`` is the new row's pivot.
    """

    def __init__(self, ncols: int, domain=ZZDomain):
        self.ncols = ncols
        self.domain = domain
        self.rows = {}  # pivot column -> row dict with two or more entries
        self.occ = {}   # non-pivot column -> pivots of rows that may hold it
        self.unit = bytearray(ncols)
        self.units = 0
        self.last_pivot = None

    @property
    def rank(self) -> int:
        return len(self.rows) + self.units

    def pivots(self):
        return sorted([*self.rows, *compress(range(self.ncols), self.unit)])

    def items(self):
        """(pivot, row) for every row in pivot order; a unit row is {pivot: one}."""
        rows, one = self.rows, self.domain.one
        for p in self.pivots():
            row = rows.get(p)
            yield p, {p: one} if row is None else row

    def _reduce(self, row):
        """Fully reduce a row against the basis; returns the remainder.

        The row is copied in canonical form (no zero entries, normalized
        polynomials, no entry at a unit row's column), so a caller may pass
        entries such as 0 or (1, 0), and the argument is left unchanged.

        Stored rows vanish at every other row's pivot, so eliminating one
        pivot column neither adds nor removes an entry at another: one scan
        over the pivot columns the row holds leaves none of them.
        """
        rows, dom = self.rows, self.domain
        r, eliminate = dom.canonical_copy(row, self.unit), dom.eliminate
        steps = 0
        for c in sorted(r.keys() & rows.keys()):
            eliminate(r, rows[c], c)
            steps += 1
            if steps % 8 == 0:
                dom.reduce_row(r)
        if r and steps:
            dom.reduce_row(r)
        return r

    def reduce(self, row) -> dict:
        return self._reduce(row)

    def contains(self, row) -> bool:
        return not self.reduce(row)

    def _orient(self, row, pivot):
        """Negate row in place unless its pivot entry is positive."""
        dom = self.domain
        if not dom.positive(row[pivot]):
            neg = dom.neg
            for c in row:
                row[c] = neg(row[c])
        return row

    def _flag(self, q):
        """Turn the stored row at q, left with one entry, into a unit row."""
        del self.rows[q]
        self.unit[q] = 1
        self.units += 1

    def insert(self, row):
        """Grow the span by row; True iff row was outside the previous span.

        A row that reduces to one entry goes in as a flag, which
        back-substitution deletes from the rows listed under its column.
        """
        r = self._reduce(row)
        if not r:
            return False
        p = self.last_pivot = min(r)
        if len(r) == 1:
            self.insert_unit_range(p, p + 1)
            return True
        dom = self.domain
        rows, occ = self.rows, self.occ
        self._orient(dom.reduce_row_full(r), p)
        # back-substitute the new pivot out of the older rows that hold it
        for q in occ.pop(p, ()):
            s = rows.get(q)
            if s is None or p not in s:
                continue
            s2 = self._orient(dom.reduce_row(dom.eliminate(dict(s), r, p)), q)
            if len(s2) == 1:
                self._flag(q)
                continue
            for c in s2:
                if c not in s:
                    occ.setdefault(c, []).append(q)
            rows[q] = s2
        for c in r:
            if c != p:
                occ.setdefault(c, []).append(p)
        rows[p] = r
        return True

    def insert_unit_range(self, start, stop):
        """Grow the span by the unit rows of the columns start..stop-1.

        The columns are flagged and deleted, in one pass, from the rows
        listed under them; a row left with one entry becomes a flag, any
        other has its content divided out.  A stored row whose pivot lies in
        the range is taken out and inserted again without its flagged
        entries, so a range holding no such pivot runs no reduction.
        """
        rows, occ, unit = self.rows, self.occ, self.unit
        moved = [rows.pop(q) for q in range(start, stop) if q in rows]
        self.units += unit.count(0, start, stop)
        unit[start:stop] = b"\x01" * (stop - start)
        touched = {}
        for c in range(start, stop):
            for q in occ.pop(c, ()):
                s = rows.get(q)
                if s is not None and c in s:
                    del s[c]
                    touched[q] = s
        reduce_row = self.domain.reduce_row
        for q, s in touched.items():
            if len(s) == 1:
                self._flag(q)
            else:
                reduce_row(s)
        for s in moved:
            self.insert(s)

    def finalize(self):
        """Bring every stored row to its canonical primitive form."""
        for q, s in self.rows.items():
            self._orient(self.domain.reduce_row_full(s), q)
        return self

    def canonical_rows(self):
        """Hashable canonical content, suitable for span equality."""
        self.finalize()
        # ints lift to constant polynomials so Q and Q(d) spans compare cleanly
        lift = (lambda v: (v,) if v else ()) if self.domain is ZZDomain else (lambda v: v)
        return tuple((p, tuple(sorted((c, lift(v)) for c, v in row.items())))
                     for p, row in self.items())

    def field_rows(self):
        """Rows as dicts over the field, pivot entries scaled to 1."""
        self.finalize()
        div = self.domain.field_div
        return [{c: div(v, row[p]) for c, v in row.items()} for p, row in self.items()]


def nullspace(rows, ncols: int, domain=ZZDomain) -> RowBasis:
    """Basis of the right kernel {y : M y = 0}, dim = ncols - rank."""
    basis = RowBasis(ncols, domain)
    for r in rows:
        basis.insert(r)
    by_pivot = dict(basis.items())
    out = RowBasis(ncols, domain)
    for f in range(ncols):
        if f in by_pivot:
            continue
        entries = {f: 1}
        for p, row in by_pivot.items():
            if f in row:
                entries[p] = -domain.field_div(row[f], row[p])
        out.insert(to_row(entries, domain))
    return out


def sampled_delta_points(k: int, seed: int = 0):
    """k random rational specialization points avoiding 0, +-1, 1/2, 1/3."""
    rng = random.Random(seed)
    banned = {Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(1, 3)}
    points = []
    while len(points) < k:
        q = Fraction(rng.randint(2, 97), rng.randint(1, 13))
        if rng.random() < 0.5:
            q = -q
        if q not in banned and q not in points:
            points.append(q)
    return points
