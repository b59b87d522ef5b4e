"""Command-line surface for the workbench.

Subcommands: dim, consequence, equiv, check, tensor, depolarize, dual,
koszul, free-basis, export-catalog.  Inputs are file paths or built-in
catalog names.  Exit codes: 0 success, 1 mathematical negative under
--expect, 2 input error, 3 resource/overflow abort.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from . import catalog
from .algebras import (Algebra, AlgebraError, format_algebra, load_algebra,
                       merge_polarization, split_polarization, tensor)
from .engine import (ArityOverflowError, EngineError, Variety, at_sample_point,
                     consequences, dim_multilinear, equivalent, format_variety,
                     is_consequence, load_variety)
from .exprs import format_element, parse_expr
from .operads import (OperadError, free_delta_p_basis, koszul_dual,
                      koszulness_witness)
from .scalar import DegreeOverflowError
from .terms import TermError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


class _InputError(Exception):
    pass


def _resolve_variety(spec: str, delta=None) -> Variety:
    if os.path.exists(spec):
        v = load_variety(spec)
    else:
        try:
            v = catalog.variety(spec)
        except catalog.CatalogError:
            raise _InputError("no such file or catalog variety: %r" % spec)
    if delta is not None:
        v = v.with_delta(delta)
    return v


def _resolve_algebra(spec: str) -> Algebra:
    if os.path.exists(spec):
        return load_algebra(spec)
    try:
        return catalog.algebra(spec)
    except catalog.CatalogError:
        raise _InputError("no such file or catalog algebra: %r" % spec)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a rational number: %r" % text)


def _expect(args, answer: bool) -> int:
    if args.expect is not None and (args.expect == "yes") != answer:
        return EXIT_NEGATIVE
    return EXIT_OK


def _write_algebra(args, a: Algebra) -> int:
    """Write a to the -o path, or print it when none is given."""
    text = format_algebra(a)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print("written=%s dim=%d" % (args.output, a.dim))
    else:
        print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands

def cmd_dim(args):
    v = _resolve_variety(args.variety, args.delta)
    d = dim_multilinear(v, args.arity, mode=args.mode)
    print("dim=%d" % d)
    if at_sample_point(v, args.mode):
        print("certified=upper-bound (sampled ranks are lower bounds)")
    return EXIT_OK


def cmd_consequence(args):
    v = _resolve_variety(args.variety, args.delta)
    try:
        target = catalog.identity(args.target)
    except catalog.CatalogError:
        target = parse_expr(args.target, v.ops)
    n = target.arity if args.arity is None else args.arity
    answer = is_consequence(v, target, n, mode=args.mode)
    space = consequences(v, n, mode=args.mode)
    print("consequence=%s" % ("yes" if answer else "no"))
    print("rank=%d" % space.rank)
    if at_sample_point(v, args.mode):
        print("probabilistic=yes")
    return _expect(args, answer)


def cmd_equiv(args):
    v1 = _resolve_variety(args.variety1, args.delta)
    v2 = _resolve_variety(args.variety2, args.delta)
    answer = equivalent(v1, v2, args.arity, mode=args.mode)
    print("equivalent=%s" % ("yes" if answer else "no"))
    if at_sample_point(v1, args.mode) or at_sample_point(v2, args.mode):
        print("probabilistic=yes")
    return _expect(args, answer)


def cmd_check(args):
    a = _resolve_algebra(args.algebra)
    try:
        v = _resolve_variety(args.variety, args.delta)
        report = a.check_variety(v)
    except _InputError:
        try:
            ident = catalog.identity(args.variety)
        except catalog.CatalogError:
            raise _InputError("no such variety or identity: %r" % args.variety)
        report_entry = a.eval_identity(ident, delta=args.delta, label=args.variety)
        print(report_entry)
        return _expect(args, report_entry.satisfied)
    print(report)
    return _expect(args, report.all_satisfied)


def cmd_tensor(args):
    a = _resolve_algebra(args.algebra1)
    b = _resolve_algebra(args.algebra2)
    return _write_algebra(args, tensor(a, b))


def cmd_depolarize(args):
    a = _resolve_algebra(args.algebra)
    names = {op.name for op in a.ops}
    if {"dot", "bracket"} <= names:
        out = merge_polarization(a)
    elif len(a.ops) == 1:
        out = split_polarization(a)
    else:
        raise _InputError("expected a {dot,bracket} algebra or a one-operation algebra")
    return _write_algebra(args, out)


def cmd_dual(args):
    v = _resolve_variety(args.variety, args.delta)
    dual = koszul_dual(v)
    print("generators:")
    for op in dual.ops:
        print("  op %s %s" % (op.name, op.symmetry))
    print("relations:")
    for rel in dual.identities:
        print("  %s" % format_element(rel))
    mixed = sum(1 for rel in dual.identities if len(rel.op_names()) > 1)
    print("mixed_relations=%d" % mixed)
    return EXIT_OK


def cmd_koszul(args):
    v = _resolve_variety(args.variety, args.delta)
    verdict = koszulness_witness(v, args.order, mode=args.mode)
    print(verdict)
    for line in verdict.to_lines():
        print(line)
    return EXIT_OK


def cmd_free_basis(args):
    report = free_delta_p_basis(args.arity)
    print("%s = %d" % (" + ".join(str(c) for c in report.counts), report.total))
    if args.verbose:
        print(report)
    return EXIT_OK


def cmd_export_catalog(args):
    outdir = args.output or "catalog"
    os.makedirs(outdir, exist_ok=True)
    written = []
    for name in catalog.variety_names():
        path = os.path.join(outdir, name + ".var")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_variety(catalog.variety(name)))
        written.append(path)
    for name in catalog.algebra_names():
        path = os.path.join(outdir, name + ".alg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_algebra(catalog.algebra(name)))
        written.append(path)
    for path in written:
        print("written=%s" % path)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="variety-forge",
        description="Workbench for Poisson-type algebra varieties: consequence "
                    "spaces, operad dimensions, structure-constant checks, "
                    "Koszul duals.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mode=True, expect=False, delta=True):
        p.add_argument("--no-timing", action="store_true",
                       help="suppress the trailing timing line")
        if delta:
            p.add_argument("--delta", type=_fraction, default=None,
                           help="specialize the parameter d to a rational")
        if mode:
            p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
        if expect:
            p.add_argument("--expect", choices=("yes", "no"), default=None,
                           help="exit 1 unless the answer matches")

    p = sub.add_parser("dim", help="multilinear dimension of a variety's operad component")
    p.add_argument("variety")
    p.add_argument("--arity", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("consequence", help="is the target identity a consequence?")
    p.add_argument("variety")
    p.add_argument("--target", required=True,
                   help="identity expression or catalog identity name")
    p.add_argument("--arity", type=int, default=None)
    common(p, expect=True)
    p.set_defaults(func=cmd_consequence)

    p = sub.add_parser("equiv", help="do two varieties have equal consequence spans?")
    p.add_argument("variety1")
    p.add_argument("variety2")
    p.add_argument("--arity", type=int, required=True)
    common(p, expect=True)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("check", help="check an algebra against a variety or identity")
    p.add_argument("algebra")
    p.add_argument("variety")
    common(p, mode=False, expect=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("tensor", help="Poisson-type tensor product of two algebras")
    p.add_argument("algebra1")
    p.add_argument("algebra2")
    p.add_argument("-o", "--output", default=None)
    common(p, mode=False, delta=False)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("depolarize",
                       help="convert between one-operation and (dot, bracket) tables")
    p.add_argument("algebra")
    p.add_argument("-o", "--output", default=None)
    common(p, mode=False, delta=False)
    p.set_defaults(func=cmd_depolarize)

    p = sub.add_parser("dual", help="Koszul dual of a binary quadratic presentation")
    p.add_argument("variety")
    common(p, mode=False)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("koszul", help="Hilbert-series Koszulness test")
    p.add_argument("variety")
    p.add_argument("--order", type=int, default=5)
    common(p)
    p.set_defaults(func=cmd_koszul)

    p = sub.add_parser("free-basis",
                       help="free-algebra basis families (multilinear component)")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("-v", "--verbose", action="store_true")
    common(p, mode=False, delta=False)
    p.set_defaults(func=cmd_free_basis)

    p = sub.add_parser("export-catalog", help="write every catalog entry as a file")
    p.add_argument("-o", "--output", default=None)
    common(p, mode=False, delta=False)
    p.set_defaults(func=cmd_export_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        code = args.func(args)
    except (ArityOverflowError, DegreeOverflowError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("error: out of memory; try a smaller arity or order", file=sys.stderr)
        return EXIT_RESOURCE
    except (_InputError, EngineError, AlgebraError, OperadError, TermError,
            catalog.CatalogError, ValueError, ZeroDivisionError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    if not args.no_timing:
        print("time=%.3fs" % (time.time() - started))
    return code


if __name__ == "__main__":
    sys.exit(main())
