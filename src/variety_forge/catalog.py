"""Built-in catalog: named identities, varieties, algebras, presentations.

A presentation is a ``Variety`` too: the binary quadratic one whose arity-3
relations come in the order the paper prints its relation matrices.

Variable conventions: displayed identities in x,y,z(,t) are entered with
x->x1, y->x2, z->x3, t->x4; the four-variable transposed-Poisson consequences
use (h,x,y,z)->(x1,x2,x3,x4) and (x,u,y,v)->(x1,x2,x3,x4).  Products of three
or more commutative factors are left-associated.
"""

from __future__ import annotations

from fractions import Fraction

from .algebras import Algebra
from .engine import Variety
from .exprs import parse_expr
from .terms import BRACKET, DOT, PLAIN, Element, Permutation, act

TWO_OPS = (DOT, BRACKET)
ONE_OP = (PLAIN,)


class CatalogError(KeyError):
    pass


# ---------------------------------------------------------------------------
# identities

_IDENTITY_SOURCES = {
    # two-operation structure identities
    "assoc": ("2", "dot(dot(x1,x2),x3) - dot(x1,dot(x2,x3))"),
    "jacobi": ("2", "bracket(bracket(x1,x2),x3) + bracket(bracket(x2,x3),x1)"
                    " + bracket(bracket(x3,x1),x2)"),
    # the two Leibniz-type linkages and their degenerations
    "delta-poisson-law": ("2", "bracket(dot(x1,x2),x3) - d*dot(x1,bracket(x2,x3))"
                               " - d*dot(bracket(x1,x3),x2)"),
    "transposed-delta-poisson-law": ("2", "dot(x1,bracket(x2,x3)) - d*bracket(dot(x1,x2),x3)"
                                          " - d*bracket(x2,dot(x1,x3))"),
    "bracket-of-product": ("2", "bracket(dot(x1,x2),x3)"),
    "product-of-bracket": ("2", "dot(x1,bracket(x2,x3))"),
    "scalar-poisson-law": ("2", "dot(x1,bracket(x2,x3)) + dot(bracket(x1,x3),x2)"),
    "transposed-scalar-poisson-law": ("2", "bracket(dot(x1,x2),x3) + bracket(x2,dot(x1,x3))"),
    "mixed-poisson-single": ("2", "bracket(dot(x1,x2),x3) + dot(bracket(x1,x3),x2)"
                                  " - dot(bracket(x2,x3),x1)"),
    "delta-mixed-law": ("2", "dot(x1,bracket(x2,x3)) - (1/(3*d))*bracket(dot(x1,x2),x3)"
                             " - (1/(3*d))*bracket(x2,dot(x1,x3))"),
    "strong": ("2", "dot(bracket(x1,x2),bracket(x3,x4)) + dot(bracket(x2,x4),bracket(x3,x1))"
                    " + dot(bracket(x4,x1),bracket(x3,x2))"),
    "f-manifold-law": ("2", "bracket(dot(x1,x2),dot(x3,x4))"
                            " - dot(bracket(dot(x1,x2),x3),x4) - dot(bracket(dot(x1,x2),x4),x3)"
                            " - dot(x1,bracket(x2,dot(x3,x4))) - dot(x2,bracket(x1,dot(x3,x4)))"
                            " + dot(dot(x1,x3),bracket(x2,x4)) + dot(dot(x2,x3),bracket(x1,x4))"
                            " + dot(dot(x2,x4),bracket(x1,x3)) + dot(dot(x1,x4),bracket(x2,x3))"),
    "jordan-bracket-1": ("2", "bracket(dot(bracket(x1,x2),x3),x4)"
                              " + bracket(dot(bracket(x2,x4),x3),x1)"
                              " + bracket(dot(bracket(x4,x1),x3),x2)"
                              " - dot(bracket(x1,x2),bracket(x3,x4))"
                              " - dot(bracket(x2,x4),bracket(x3,x1))"
                              " - dot(bracket(x4,x1),bracket(x3,x2))"),
    "jordan-bracket-2": ("2", "dot(bracket(dot(x2,x4),x3),x1) + dot(dot(bracket(x1,x3),x2),x4)"
                              " - dot(bracket(dot(x4,x1),x3),x2) - dot(dot(bracket(x2,x3),x4),x1)"),
    "jordan-bracket-3": ("2", "bracket(dot(x4,x1),dot(x2,x3)) + bracket(dot(x4,x2),dot(x1,x3))"
                              " + bracket(dot(dot(x1,x2),x3),x4)"
                              " - dot(bracket(dot(x4,x2),x3),x1) - dot(bracket(dot(x4,x1),x3),x2)"
                              " - dot(dot(x1,x2),bracket(x3,x4))"),
    # transposed delta-Poisson consequences, (h,x,y,z)=(x1,x2,x3,x4) resp.
    # (x,u,y,v)=(x1,x2,x3,x4) for the last two
    "idtp1": ("2", "dot(bracket(x1,x2),x3) + dot(bracket(x2,x3),x1) + dot(bracket(x3,x1),x2)"),
    "idtp2": ("2", "bracket(dot(x1,x2),bracket(x3,x4)) + bracket(dot(x1,x3),bracket(x4,x2))"
                   " + bracket(dot(x1,x4),bracket(x2,x3))"),
    "idtp3": ("2", "bracket(dot(x1,bracket(x2,x3)),x4) + bracket(dot(x1,bracket(x3,x4)),x2)"
                   " + bracket(dot(x1,bracket(x4,x2)),x3)"),
    "idtp4": ("2", "dot(bracket(x1,x2),bracket(x3,x4)) + dot(bracket(x1,x3),bracket(x4,x2))"
                   " + dot(bracket(x1,x4),bracket(x2,x3))"),
    "idtp5": ("2", "d^2*bracket(dot(x1,x2),dot(x3,x4)) + d^2*bracket(dot(x1,x4),dot(x3,x2))"
                   " - (1-d)*dot(dot(x2,x4),bracket(x1,x3))"),
    "idtp6": ("2", "d*dot(x1,bracket(x2,dot(x3,x4))) + d*dot(x4,bracket(dot(x1,x3),x2))"
                   " + (1-d)*dot(dot(x3,x2),bracket(x4,x1))"),
    # vanishing products of generic delta-Poisson algebras
    "xyzt-1": ("2", "bracket(dot(x1,x2),dot(x3,x4))"),
    "xyzt-2": ("2", "dot(bracket(x1,dot(x2,x3)),x4)"),
    "xyzt-3": ("2", "bracket(x1,dot(dot(x2,x3),x4))"),
    "xyzt-4": ("2", "d*dot(dot(bracket(x1,x2),x3),x4)"),
    "xyzt-5": ("2", "bracket(dot(x1,x2),bracket(x3,x4))"),
    "cycl": ("2", "bracket(dot(x1,x2),x3) + bracket(dot(x2,x3),x1) + bracket(dot(x3,x1),x2)"),
    # arity-5 monomials that vanish in the free algebra of the linkage variety
    "zid5-1": ("2", "bracket(x1,dot(x2,bracket(x3,bracket(x4,x5))))"),
    "zid5-2": ("2", "bracket(x1,bracket(x2,dot(x3,bracket(x4,x5))))"),
    "zid5-3": ("2", "bracket(x1,bracket(x2,bracket(x3,dot(x4,x5))))"),
    "zid5-4": ("2", "dot(x1,bracket(x2,bracket(x3,dot(x4,x5))))"),
    # one-operation identities from the depolarization correspondences
    "h1": ("1", "m(m(x1,x2),x3) + m(m(x2,x1),x3) - m(m(x3,x2),x1) - m(m(x2,x3),x1)"
                " - m(x1,m(x2,x3)) - m(x1,m(x3,x2)) + m(x3,m(x2,x1)) + m(x3,m(x1,x2))"),
    "h2": ("1", "m(m(x1,x2),x3) - m(m(x2,x1),x3) - m(m(x3,x2),x1) - m(m(x1,x3),x2)"
                " + m(m(x2,x3),x1) + m(m(x3,x1),x2) - m(x1,m(x2,x3)) + m(x2,m(x1,x3))"
                " + m(x3,m(x2,x1)) + m(x1,m(x3,x2)) - m(x2,m(x3,x1)) - m(x3,m(x1,x2))"),
    "h3-delta": ("1", "m(m(x1,x2),x3) + m(m(x2,x1),x3) - m(x3,m(x1,x2)) - m(x3,m(x2,x1))"
                      " - d*m(x1,m(x2,x3)) + d*m(x1,m(x3,x2)) - d*m(m(x2,x3),x1)"
                      " + d*m(m(x3,x2),x1) - d*m(m(x1,x3),x2) + d*m(m(x3,x1),x2)"
                      " - d*m(x2,m(x1,x3)) + d*m(x2,m(x3,x1))"),
    "h4-delta": ("1", "m(x1,m(x2,x3)) - m(x1,m(x3,x2)) + m(m(x2,x3),x1) - m(m(x3,x2),x1)"
                      " - d*m(m(x1,x2),x3) - d*m(m(x2,x1),x3) + d*m(x3,m(x1,x2))"
                      " + d*m(x3,m(x2,x1)) - d*m(x2,m(x1,x3)) - d*m(x2,m(x3,x1))"
                      " + d*m(m(x1,x3),x2) + d*m(m(x3,x1),x2)"),
    "E": ("1", "m(x1,m(x2,x3)) - m(x1,m(x3,x2)) + m(m(x2,x3),x1) - m(m(x3,x2),x1)"
               " + m(m(x1,x3),x2) - m(m(x3,x1),x2) + m(x2,m(x1,x3)) - m(x2,m(x3,x1))"),
    "D": ("1", "m(m(x1,x2),x3) - m(m(x1,x3),x2) + m(m(x2,x1),x3) - m(m(x3,x1),x2)"
               " + m(x2,m(x1,x3)) - m(x3,m(x1,x2)) + m(x2,m(x3,x1)) - m(x3,m(x2,x1))"),
    "f-delta": ("1", "3*d*m(m(x1,x2),x3) + (1-2*d)*m(x2,m(x3,x1)) - (2*d+1)*m(x1,m(x2,x3))"
                     " - m(x1,m(x3,x2)) + m(x2,m(x1,x3)) + d*m(x3,m(x1,x2))"),
    "g1": ("1", "m(m(x1,x2),x3) + m(m(x3,x1),x2) - m(m(x3,x2),x1) + m(x1,m(x3,x2))"
                " - m(x3,m(x1,x2)) - m(x2,m(x3,x1))"),
    "g2": ("1", "m(m(x1,x3),x2) + m(m(x3,x1),x2) - m(x3,m(x1,x2)) - m(x3,m(x2,x1))"),
    "sc1": ("1", "3*m(m(x1,x3),x2) - 2*m(x1,m(x3,x2)) + m(x3,m(x1,x2)) - m(x2,m(x3,x1))"
                 " - m(x3,m(x2,x1))"),
    "sc2": ("1", "m(x1,m(x2,x3)) + m(x1,m(x3,x2)) - m(x3,m(x1,x2)) - m(x3,m(x2,x1))"),
    "F-delta": ("1", "m(m(x3,x1),x2) - m(m(x3,x2),x1) + (2*d-1)*m(x1,m(x3,x2))"
                     " - (2*d-1)*m(x2,m(x3,x1)) + d*m(x3,m(x2,x1)) - d*m(x3,m(x1,x2))"),
    "G-delta": ("1", "m(m(x2,x3),x1) - m(m(x3,x2),x1) + (2*d-1)*m(x3,m(x1,x2))"
                     " - (2*d-1)*m(x2,m(x1,x3)) - (2*d+1)*m(x2,m(x3,x1))"
                     " + (2*d+1)*m(x3,m(x2,x1))"),
    "F1": ("1", "m(m(x3,x1),x2) - m(m(x3,x2),x1) + m(x1,m(x3,x2)) - m(x3,m(x1,x2))"
                " - m(x2,m(x3,x1)) + m(x3,m(x2,x1))"),
    "G1": ("1", "m(m(x2,x3),x1) - m(m(x3,x2),x1) - m(x2,m(x1,x3)) + m(x3,m(x1,x2))"
                " - 3*m(x2,m(x3,x1)) + 3*m(x3,m(x2,x1))"),
    "H": ("1", "m(x1,m(x2,x3)) - m(x1,m(x3,x2)) + m(x2,m(x3,x1)) - m(x2,m(x1,x3))"
               " + m(x3,m(x1,x2)) - m(x3,m(x2,x1))"),
    "S1": ("1", "2*m(m(x1,x2),x3) - 2*m(m(x3,x2),x1) + m(x3,m(x1,x2)) - 2*m(x2,m(x3,x1))"
                " + m(x3,m(x2,x1))"),
    "S2": ("1", "m(m(x2,x3),x1) - m(m(x3,x2),x1) - 2*m(x2,m(x3,x1)) + 2*m(x3,m(x2,x1))"),
    "L": ("1", "m(m(x1,x3),x2) - m(x2,m(x3,x1))"),
    "shift-assoc": ("1", "m(m(x1,x2),x3) - m(x2,m(x3,x1))"),
    "associator": ("1", "m(m(x1,x2),x3) - m(x1,m(x2,x3))"),
    "cyclic-assoc-1": ("1", "m(m(x1,x2),x3) - m(m(x2,x3),x1)"),
    "cyclic-assoc-2": ("1", "m(m(x2,x3),x1) - m(x1,m(x2,x3))"),
    "flexible": ("1", "m(m(x1,x2),x3) - m(x1,m(x2,x3)) + m(m(x3,x2),x1) - m(x3,m(x2,x1))"),
    "anti-flexible": ("1", "m(m(x1,x2),x3) - m(x1,m(x2,x3)) - m(m(x3,x2),x1) + m(x3,m(x2,x1))"),
}

_IDENTITY_CACHE = {}


def identity(name: str) -> Element:
    """The named identity as a normalized Element (coefficients in Q(d))."""
    try:
        kind, src = _IDENTITY_SOURCES[name]
    except KeyError:
        raise CatalogError("unknown identity %r" % name) from None
    if name not in _IDENTITY_CACHE:
        ops = TWO_OPS if kind == "2" else ONE_OP
        _IDENTITY_CACHE[name] = parse_expr(src, ops)
    return _IDENTITY_CACHE[name]


# ---------------------------------------------------------------------------
# varieties

_VARIETY_SOURCES = {
    # (ops, identity names, delta or None)
    "delta-poisson": (TWO_OPS, ("assoc", "jacobi", "delta-poisson-law"), None),
    "poisson": (TWO_OPS, ("assoc", "jacobi", "delta-poisson-law"), Fraction(1)),
    "anti-poisson": (TWO_OPS, ("assoc", "jacobi", "delta-poisson-law"), Fraction(-1)),
    "transposed-delta-poisson": (TWO_OPS, ("assoc", "jacobi",
                                           "transposed-delta-poisson-law"), None),
    "transposed-poisson": (TWO_OPS, ("assoc", "jacobi", "transposed-delta-poisson-law"),
                           Fraction(1, 2)),
    "mixed-poisson": (TWO_OPS, ("assoc", "jacobi", "bracket-of-product",
                                "product-of-bracket"), None),
    "scalar-poisson": (TWO_OPS, ("assoc", "jacobi", "bracket-of-product",
                                 "scalar-poisson-law"), None),
    "transposed-scalar-poisson": (TWO_OPS, ("assoc", "jacobi", "product-of-bracket",
                                            "transposed-scalar-poisson-law"), None),
    "delta-mixed-poisson": (TWO_OPS, ("assoc", "jacobi", "delta-poisson-law",
                                      "delta-mixed-law"), None),
    "f-manifold": (TWO_OPS, ("assoc", "jacobi", "f-manifold-law"), None),
    "jordan-bracket": (TWO_OPS, ("assoc", "jordan-bracket-1", "jordan-bracket-2",
                                 "jordan-bracket-3"), None),
    "com-lie": (TWO_OPS, ("assoc", "jacobi"), None),
    "com": ((DOT,), ("assoc",), None),
    "lie": ((BRACKET,), ("jacobi",), None),
    "two-ops-free": (TWO_OPS, (), None),
    "one-op-free": (ONE_OP, (), None),
    "shift-associative": (ONE_OP, ("shift-assoc",), None),
    "cyclic-associative": (ONE_OP, ("cyclic-assoc-1", "cyclic-assoc-2"), None),
}


def variety_names():
    return sorted(_VARIETY_SOURCES)


def variety(name: str, delta=None) -> Variety:
    """A named variety; delta overrides the catalog's parameter mode."""
    try:
        ops, idents, base_delta = _VARIETY_SOURCES[name]
    except KeyError:
        raise CatalogError("unknown variety %r" % name) from None
    return Variety(ops, tuple(identity(i) for i in idents),
                   delta=base_delta if delta is None else delta, name=name)


# ---------------------------------------------------------------------------
# algebras

_F = Fraction

_ALGEBRA_SOURCES = {
    # classification of simple transposed (-1)-Poisson algebras
    "A1": {
        "dim": 3, "ops": "2", "delta": _F(-1),
        "products": [("dot", 1, 1, {2: 1}), ("bracket", 1, 2, {3: 1}),
                     ("bracket", 1, 3, {1: 1}), ("bracket", 2, 3, {2: -1})],
    },
    "A2": {
        "dim": 3, "ops": "2", "delta": _F(-1),
        "products": [("dot", 1, 1, {3: 1}), ("dot", 1, 3, {2: -1}),
                     ("bracket", 1, 2, {3: 1}), ("bracket", 1, 3, {1: 1}),
                     ("bracket", 2, 3, {2: -1})],
    },
    # the 5-dimensional family that is 1/(3b)-Poisson and transposed b-Poisson
    "P-beta": {
        "dim": 5, "ops": "2", "parametrized": "beta",
        "products": [("dot", 1, 1, {3: 1}), ("dot", 1, 2, {5: 1}), ("dot", 1, 3, {4: 1}),
                     ("bracket", 1, 2, {3: ("beta", 3)}), ("bracket", 1, 5, {4: 1}),
                     ("bracket", 2, 3, {4: -2})],
    },
    # transposed 1/3-Poisson F-manifold that keeps {xy,zt} nonzero
    "transposed-third": {
        "dim": 5, "ops": "2", "delta": _F(1, 3),
        "products": [("dot", 1, 1, {2: 1}), ("dot", 1, 2, {3: 1}), ("dot", 1, 3, {4: 1}),
                     ("dot", 1, 4, {5: 1}), ("dot", 2, 2, {4: 1}), ("dot", 2, 3, {5: 1}),
                     ("bracket", 1, 2, {3: _F(1, 3)}), ("bracket", 1, 3, {4: 1}),
                     ("bracket", 1, 4, {5: 2}), ("bracket", 2, 3, {5: 1})],
    },
    # transposed 1/2-Poisson F-manifold, same behaviour
    "transposed-half": {
        "dim": 3, "ops": "2", "delta": _F(1, 2),
        "products": [("dot", 1, 1, {1: 1}), ("dot", 1, 2, {2: 1}), ("dot", 1, 3, {3: 1}),
                     ("bracket", 1, 3, {2: 1})],
    },
    # transposed 1-Poisson with {xy,zt}=0 that is not F-manifold
    "transposed-one": {
        "dim": 5, "ops": "2", "delta": _F(1),
        "products": [("dot", 1, 1, {3: 1}), ("dot", 1, 2, {5: 1}), ("dot", 1, 3, {4: 1}),
                     ("bracket", 2, 1, {1: -1}), ("bracket", 2, 3, {3: -1}),
                     ("bracket", 2, 4, {4: -1}), ("bracket", 2, 5, {5: -1})],
    },
    "zero": {"dim": 2, "ops": "2", "products": []},
    # independence witnesses for the 0-Poisson depolarization identities
    "zero-B1": {
        "dim": 4, "ops": "1",
        "products": [("m", 1, 1, {4: 1}), ("m", 2, 3, {4: 1}), ("m", 3, 2, {4: 1}),
                     ("m", 1, 2, {2: 1}), ("m", 2, 1, {2: -1}),
                     ("m", 1, 3, {1: 1}), ("m", 3, 1, {1: -1})],
    },
    "zero-B2": {
        "dim": 3, "ops": "1",
        "products": [("m", 1, 1, {3: 1}), ("m", 2, 2, {3: 1}), ("m", 3, 3, {3: 1}),
                     ("m", 1, 2, {3: 1}), ("m", 2, 1, {3: -1})],
    },
    # scalar-Poisson independence pair
    "sc-B1": {
        "dim": 3, "ops": "1",
        "products": [("m", 1, 1, {1: 1}), ("m", 2, 2, {2: 1}),
                     ("m", 1, 3, {3: _F(1, 3)}), ("m", 3, 1, {3: _F(2, 3)})],
    },
    "sc-B2": {
        "dim": 3, "ops": "1",
        "products": [("m", 1, 1, {1: 1}), ("m", 2, 2, {2: 1}),
                     ("m", 1, 3, {3: _F(2, 3)}), ("m", 3, 1, {3: _F(1, 3)})],
    },
    # transposed delta-Poisson independence pair
    "trans-B1": {"dim": 3, "ops": "1",
                 "products": [("m", 1, 3, {1: 1})]},
    "trans-B2": {"dim": 3, "ops": "1",
                 "products": [("m", 1, 1, {1: 1}), ("m", 1, 3, {2: 1})]},
    # transposed 1-Poisson independence triple (B1/B2 reuse the pair above)
    "td1-B3": {
        "dim": 5, "ops": "1",
        "products": [("m", 3, 3, {4: 1}), ("m", 1, 2, {4: 1, 5: 1}),
                     ("m", 2, 1, {4: -1, 5: 1}), ("m", 1, 3, {1: -1}), ("m", 3, 1, {1: 1}),
                     ("m", 2, 3, {2: 1}), ("m", 3, 2, {2: -1}), ("m", 4, 3, {5: 2})],
    },
    # transposed scalar-Poisson independence pair
    "tsc-B1": {"dim": 3, "ops": "1",
               "products": [("m", 1, 1, {1: 1}), ("m", 1, 3, {2: 1})]},
    "tsc-B2": {
        "dim": 2, "ops": "1",
        "products": [("m", 1, 1, {1: 1}), ("m", 1, 2, {2: -2}), ("m", 2, 1, {2: 1})],
    },
    # mixed-Poisson depolarization independence pair
    "depol-B1": {"dim": 2, "ops": "1",
                 "products": [("m", 1, 1, {2: 1}), ("m", 1, 2, {2: 1})]},
    "depol-B2": {"dim": 2, "ops": "1",
                 "products": [("m", 1, 1, {2: 1}), ("m", 2, 2, {1: 1})]},
    # delta-mixed-Poisson independence pair
    "dmix-B1": {
        "dim": 5, "ops": "1",
        "products": [("m", 3, 3, {4: 1}), ("m", 1, 2, {4: 1, 5: 1}),
                     ("m", 2, 1, {4: -1, 5: 1}), ("m", 1, 3, {1: -1}), ("m", 3, 1, {1: 1}),
                     ("m", 2, 3, {2: 1}), ("m", 3, 2, {2: -1}),
                     ("m", 3, 4, {5: 1}), ("m", 4, 3, {5: 1})],
    },
    "dmix-B2": {"dim": 2, "ops": "1",
                "products": [("m", 1, 1, {1: 1}), ("m", 1, 2, {2: 1})]},
}

_ALGEBRA_ALIASES = {"td1-B1": "trans-B1", "td1-B2": "trans-B2"}


def algebra_names():
    return sorted(list(_ALGEBRA_SOURCES) + list(_ALGEBRA_ALIASES))


def algebra(name: str, **params):
    """A catalog algebra; parameter families take their values here."""
    key = _ALGEBRA_ALIASES.get(name, name)
    try:
        src = _ALGEBRA_SOURCES[key]
    except KeyError:
        raise CatalogError("unknown algebra %r" % name) from None
    free = src.get("parametrized")
    if free:
        value = _F(params.pop(free, 1))
        if value == 0:
            raise CatalogError("parameter %s of %r must be nonzero" % (free, name))
    if params:
        raise CatalogError("unexpected parameters %s for %r" % (sorted(params), name))
    ops = TWO_OPS if src["ops"] == "2" else ONE_OP
    # a (name, factor) coefficient is the factor times the free parameter
    products = [(op, i, j, {k: value * c[1] if isinstance(c, tuple) else _F(c)
                            for k, c in comps.items()})
                for op, i, j, comps in src["products"]]
    return Algebra(src["dim"], ops, products, delta=src.get("delta"), name=name)


# ---------------------------------------------------------------------------
# quadratic presentations carrying the fixed arity-3 relation ordering

_DELTA_POISSON_IMAGES = ("delta-poisson-law", ((1, 2, 3), (1, 3, 2), (3, 2, 1)))

_PRESENTATION_LAWS = {
    # name -> None for the catalog variety as it stands, or (law, images):
    # the law's images under the listed permutations replace the variety's
    # linkage law, after assoc and jacobi, in the printed order
    "com": None,
    "lie": None,
    "com-lie": None,
    "delta-poisson": _DELTA_POISSON_IMAGES,
    "poisson": _DELTA_POISSON_IMAGES,
    "anti-poisson": _DELTA_POISSON_IMAGES,
    "transposed-delta-poisson": ("transposed-delta-poisson-law",
                                 ((1, 2, 3), (2, 1, 3), (3, 2, 1))),
    "mixed-poisson": ("mixed-poisson-single", ((1, 2, 3), (2, 1, 3), (3, 1, 2),
                                               (1, 3, 2), (3, 2, 1), (2, 3, 1))),
}


def presentation(name: str) -> Variety:
    """Named binary quadratic presentation with the printed relation order."""
    try:
        linkage = _PRESENTATION_LAWS[name]
    except KeyError:
        raise CatalogError("unknown presentation %r" % name) from None
    v = variety(name)
    if linkage is None:
        return v
    law, images = linkage
    mixed = tuple(act(Permutation(img), identity(law), TWO_OPS) for img in images)
    return Variety(v.ops, (identity("assoc"), identity("jacobi")) + mixed,
                   delta=v.delta, name=name)
