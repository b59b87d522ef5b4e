"""The four benchmark workloads: their inputs, queries and known answers.

Every expected value below comes from outside the engine under test: the
paper's tables and the acceptance criteria (tests/test_acceptance.py), the
recorded `check` verdicts and witnesses, or a hand computation written next to
the value.  A workload is resolved once (catalog varieties, catalog algebras,
input files: that is set-up), then run as passes of steps.  A step is a query
(timed into query_s, checked) or a build (timed into wall_s only, checked).

Cache discipline: cold workloads clear the engine cache before every query,
because a command-line user pays the context build in every process; the warm
workload clears it once, at the start of a pass.

This module imports only variety_forge, so the set-up probe stays light.
"""

from __future__ import annotations

import contextlib
import io
import os
from fractions import Fraction

from variety_forge import catalog, cli, engine

COLD = {"exact-arity6": True, "generic-d": True, "membership-session": False,
        "cli-mix": True}
NAMES = tuple(COLD)


class Step:
    __slots__ = ("label", "run", "expect", "query")

    def __init__(self, label, run, expect, query=True):
        self.label = label
        self.run = run          # () -> output
        self.expect = expect    # output -> bool
        self.query = query


def _equals(value):
    return lambda out: out == value


# ---------------------------------------------------------------------------
# set-up: what a process resolves before it can answer its first query

def resolve(name, inputs):
    """Resolve the catalog entries and input files the workload uses."""
    if name == "exact-arity6":
        return {"anti-poisson": catalog.variety("anti-poisson")}
    if name == "generic-d":
        out = {v: catalog.variety(v) for v in
               ("delta-poisson", "transposed-delta-poisson", "delta-mixed-poisson")}
        for ident in _ZID5 + _IDTP:
            out[ident] = catalog.identity(ident)
        return out
    if name == "membership-session":
        return {v: catalog.variety(v) for v in ("anti-poisson", "delta-poisson")}
    if name == "cli-mix":
        out = {}
        for a in ("A1", "A2", "sc-B1", "sc-B2", "P-beta"):
            out[a] = catalog.algebra(a)
        for v in ("transposed-delta-poisson", "delta-poisson", "mixed-poisson",
                  "anti-poisson"):
            out[v] = catalog.variety(v)
        for i in ("idtp2", "idtp5", "sc2", "product-of-bracket"):
            out[i] = catalog.identity(i)
        for path in (inputs["depolarized"], inputs["one-op"]):
            out[path] = engine.load_variety(path)
        return out
    raise ValueError("unknown workload %r" % name)


# ---------------------------------------------------------------------------
# load: made from the seed before set-up is timed

# One-operation form of the delta-Poisson linkage at delta = 2 (criterion 10).
F_DELTA_AT_2 = ("op m none\nparam delta = 2\n"
                "identity: 3*d*m(m(x1,x2),x3) + (1-2*d)*m(x2,m(x3,x1))"
                " - (2*d+1)*m(x1,m(x2,x3)) - m(x1,m(x3,x2)) + m(x2,m(x1,x3))"
                " + d*m(x3,m(x1,x2))\n")


def prepare(name, seed, workdir):
    """Inputs for one run; the same seed gives the same inputs."""
    if name == "membership-session":
        from gen import membership_targets
        return {"targets": membership_targets(seed)}
    if name == "cli-mix":
        depol = os.path.join(workdir, "depolarized.var")
        one_op = os.path.join(workdir, "f-delta.var")
        v = engine.depolarize_variety(catalog.variety("delta-poisson",
                                                      delta=Fraction(2)))
        with open(depol, "w", encoding="utf-8") as fh:
            fh.write(engine.format_variety(v))
        with open(one_op, "w", encoding="utf-8") as fh:
            fh.write(F_DELTA_AT_2)
        return {"depolarized": depol, "one-op": one_op, "workdir": workdir}
    return {}


# ---------------------------------------------------------------------------
# passes

_ZID5 = ("zid5-1", "zid5-2", "zid5-3", "zid5-4")
_IDTP = ("idtp1", "idtp2", "idtp3", "idtp4", "idtp5", "idtp6")


def steps(name, resolved, inputs, rng):
    """The steps of one pass, in the order they are issued."""
    if name == "exact-arity6":
        ap = resolved["anti-poisson"]
        # acceptance criterion 1 (extended): dim AP(6) = 145
        return [Step("dim anti-poisson 6", lambda: engine.dim_multilinear(ap, 6),
                     _equals(145))]
    if name == "generic-d":
        return _generic_d(resolved, rng)
    if name == "membership-session":
        return _membership(resolved, inputs)
    if name == "cli-mix":
        return _cli_mix(inputs)
    raise ValueError("unknown workload %r" % name)


def _generic_d(r, rng):
    dp, tdp = r["delta-poisson"], r["transposed-delta-poisson"]
    dmp = r["delta-mixed-poisson"]

    def dim(v, mode):
        return lambda: engine.dim_multilinear(v, 5, mode)

    def member(v, ident):
        target = r[ident]
        return lambda: engine.is_consequence(v, target, target.arity)

    # dims 31 / 66 / 25 from the paper's tables; sampled mode reports the
    # same dimensions (an upper bound that is attained at generic points)
    out = [Step("dim delta-poisson 5", dim(dp, "exact"), _equals(31)),
           Step("dim transposed-delta-poisson 5", dim(tdp, "exact"), _equals(66)),
           Step("dim delta-mixed-poisson 5", dim(dmp, "exact"), _equals(25)),
           Step("dim delta-poisson 5 sampled", dim(dp, "sampled"), _equals(31)),
           Step("dim transposed-delta-poisson 5 sampled", dim(tdp, "sampled"),
                _equals(66))]
    # criterion 9: every item is a consequence
    out += [Step("consequence delta-poisson " + i, member(dp, i), _equals(True))
            for i in _ZID5]
    out += [Step("consequence transposed-delta-poisson " + i, member(tdp, i),
                 _equals(True)) for i in _IDTP]
    rng.shuffle(out)
    return out


def _membership(r, inputs):
    ap, dp = r["anti-poisson"], r["delta-poisson"]
    by_name = {"anti-poisson": ap, "delta-poisson": dp}

    def build(v):
        return lambda: engine.consequences(v, 5).dim

    def member(v, target):
        return lambda: engine.is_consequence(v, target, 5)

    # both spaces have dim 31 at arity 5 (paper, criterion 1 and 2)
    out = [Step("build anti-poisson 5", build(ap), _equals(31), query=False),
           Step("build delta-poisson 5", build(dp), _equals(31), query=False)]
    for vname, target, expected in inputs["targets"]:
        out.append(Step("consequence " + vname, member(by_name[vname], target),
                        _equals(expected)))
    return out


def _cli(argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["--no-timing"])
        return code, buf.getvalue()
    return run


def _prints(*lines):
    """The exit code is 0 and every expected line is printed."""
    def check(out):
        code, text = out
        printed = text.splitlines()
        return code == 0 and all(line in printed for line in lines)
    return check


def _relations(count, mixed):
    def check(out):
        code, text = out
        lines = text.splitlines()
        if code != 0 or "relations:" not in lines or "mixed_relations=%d" % mixed not in lines:
            return False
        start = lines.index("relations:") + 1
        return sum(1 for ln in lines[start:] if ln.startswith("  ")) == count
    return check


def _cli_mix(inputs):
    w = inputs["workdir"]
    a11 = os.path.join(w, "A1xA1.alg")
    a111 = os.path.join(w, "A1xA1xA1.alg")
    a12 = os.path.join(w, "A1xA2.alg")
    steps_ = [
        # tensor dimensions multiply
        ("tensor A1 A1", ["tensor", "A1", "A1", "-o", a11],
         _prints("written=%s dim=9" % a11)),
        ("tensor A1xA1 A1", ["tensor", a11, "A1", "-o", a111],
         _prints("written=%s dim=27" % a111)),
        ("tensor A1 A2", ["tensor", "A1", "A2", "-o", a12],
         _prints("written=%s dim=9" % a12)),
        # A1, A2 are transposed (-1)-Poisson and the class is closed under
        # this tensor product (criterion 12 checks the square)
        ("check A1xA1xA1 transposed-delta-poisson -1",
         ["check", a111, "transposed-delta-poisson", "--delta", "-1", "--expect", "yes"],
         _prints("check A1xA1xA1 against transposed-delta-poisson: all satisfied")),
        ("check A1xA2 transposed-delta-poisson -1",
         ["check", a12, "transposed-delta-poisson", "--delta", "-1", "--expect", "yes"],
         _prints("check A1xA2 against transposed-delta-poisson: all satisfied")),
        # by hand: {e1 e1, e1} = {e2, e1} = -e3 while both d-terms vanish, and
        # the associativity and Jacobi rows hold on A1
        ("check A1 delta-poisson -1",
         ["check", "A1", "delta-poisson", "--delta", "-1", "--expect", "no"],
         _prints("check A1 against delta-poisson: violations found",
                 "  delta-poisson[1]: satisfied", "  delta-poisson[2]: satisfied",
                 "  delta-poisson[3]: FAILS at (e1,e1,e1) -> -1*e3")),
        # idtp2 and idtp5 are consequences of the transposed law (criterion 9),
        # so they hold on the transposed (-1)-Poisson algebra A1
        ("check A1 idtp2", ["check", "A1", "idtp2", "--expect", "yes"],
         _prints("idtp2: satisfied")),
        ("check A1 idtp5", ["check", "A1", "idtp5", "--expect", "yes"],
         _prints("idtp5: satisfied")),
        # criterion 11; the witness by hand: at (e1,e1,e3) the four products
        # give 1/9 + 2/9 - 2/3 - 2/3 = -1 times e3
        ("check sc-B1 sc2", ["check", "sc-B1", "sc2", "--expect", "no"],
         _prints("sc2: FAILS at (e1,e1,e3) -> -1*e3")),
        ("check sc-B2 sc2", ["check", "sc-B2", "sc2", "--expect", "yes"],
         _prints("sc2: satisfied")),
        # criterion 12: x{y,z} fails on P-beta with witness (e1,e1,e2) -> 3*e4
        ("check P-beta product-of-bracket",
         ["check", "P-beta", "product-of-bracket", "--expect", "no"],
         _prints("product-of-bracket: FAILS at (e1,e1,e2) -> 3*e4")),
        # criterion 8
        ("koszul mixed-poisson 5", ["koszul", "mixed-poisson", "--order", "5"],
         _prints("dims=1,2,3,7,25", "dual_dims=1,2,9,67,695",
                 "verdict=consistent with Koszul through order 5")),
        # criterion 7: the AP deviation 91/60 at t^5
        ("koszul anti-poisson 5", ["koszul", "anti-poisson", "--order", "5"],
         _prints("dims=1,2,6,12,31", "deviation_order=5", "deviation=91/60",
                 "verdict=not Koszul")),
        # criterion 6: the dual of MP has no mixed relation
        ("dual mixed-poisson", ["dual", "mixed-poisson"], _relations(3, 0)),
        # self-dual (criterion 5): 12 arity-3 monomials minus dim 6 gives six
        # relations, three of them in the mixed block
        ("dual delta-poisson -1", ["dual", "delta-poisson", "--delta", "-1"],
         _relations(6, 3)),
        ("dual transposed-delta-poisson", ["dual", "transposed-delta-poisson"],
         _relations(6, 3)),
        # criterion 13 (extended): 120 + 24 + 1 = 145
        ("free-basis 6", ["free-basis", "--arity", "6"],
         _prints("120 + 24 + 1 = 145")),
        # criterion 10
        ("equiv depolarized linkage", ["equiv", inputs["depolarized"],
                                       inputs["one-op"], "--arity", "3"],
         _prints("equivalent=yes")),
        # criterion 9: xyzt-1 vanishes in generic delta-Poisson algebras
        ("consequence delta-poisson xyzt-1",
         ["consequence", "delta-poisson", "--target",
          "bracket(dot(x1,x2),dot(x3,x4))", "--expect", "yes"],
         _prints("consequence=yes")),
        # criterion 1
        ("dim delta-poisson 5 -1",
         ["dim", "delta-poisson", "--arity", "5", "--delta", "-1"],
         _prints("dim=31")),
    ]
    return [Step(label, _cli(argv), check) for label, argv, check in steps_]
