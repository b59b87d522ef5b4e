"""Command-line surface for the workbench.

The subcommands are the rows of ``_COMMANDS``; a run builds the parser of
its own subcommand only.  Inputs are file paths or built-in catalog names.
Exit codes: 0 success, 1 mathematical negative under --expect, 2 input
error, 3 resource/overflow abort.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from . import catalog
from .algebras import (Algebra, format_algebra, load_algebra, merge_polarization,
                       split_polarization, tensor)
from .engine import (ArityOverflowError, Variety, at_sample_point, consequences,
                     dim_multilinear, equivalent, format_variety, is_consequence,
                     load_variety)
from .exprs import format_element, parse_expr
from .operads import free_delta_p_basis, koszul_dual, koszulness_witness
from .scalar import DegreeOverflowError

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
    # a target that normalizes to zero has no arity of its own, and so no space
    zero = target.is_zero() and args.arity is None
    space = None if zero else consequences(v, n, mode=args.mode)
    print("consequence=%s" % ("yes" if answer else "no"))
    if space is not None:
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

def _arg(*flags, **kwargs):
    return flags, kwargs


# name, help, own arguments, common() flags: the only list of the commands,
# in the order that help lists them; each runs cmd_<name>
_COMMANDS = (
    ("dim", "multilinear dimension of a variety's operad component",
     (_arg("variety"), _arg("--arity", type=int, required=True)), {}),
    ("consequence", "is the target identity a consequence?",
     (_arg("variety"),
      _arg("--target", required=True, help="identity expression or catalog identity name"),
      _arg("--arity", type=int, default=None)), dict(expect=True)),
    ("equiv", "do two varieties have equal consequence spans?",
     (_arg("variety1"), _arg("variety2"), _arg("--arity", type=int, required=True)),
     dict(expect=True)),
    ("check", "check an algebra against a variety or identity",
     (_arg("algebra"), _arg("variety")), dict(mode=False, expect=True)),
    ("tensor", "Poisson-type tensor product of two algebras",
     (_arg("algebra1"), _arg("algebra2"), _arg("-o", "--output", default=None)),
     dict(mode=False, delta=False)),
    ("depolarize", "convert between one-operation and (dot, bracket) tables",
     (_arg("algebra"), _arg("-o", "--output", default=None)), dict(mode=False, delta=False)),
    ("dual", "Koszul dual of a binary quadratic presentation",
     (_arg("variety"),), dict(mode=False)),
    ("koszul", "Hilbert-series Koszulness test",
     (_arg("variety"), _arg("--order", type=int, default=5)), {}),
    ("free-basis", "free-algebra basis families (multilinear component)",
     (_arg("--arity", type=int, required=True), _arg("-v", "--verbose", action="store_true")),
     dict(mode=False, delta=False)),
    ("export-catalog", "write every catalog entry as a file",
     (_arg("-o", "--output", default=None),), dict(mode=False, delta=False)),
)


def _common(p, mode=True, expect=False, delta=True):
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


def build_parser(command=None):
    """The parser with the sub-parser of ``command`` only, or with every
    sub-parser when ``command`` names none (top-level help, a misspelt name)."""
    parser = argparse.ArgumentParser(
        prog="variety-forge",
        description="Workbench for Poisson-type algebra varieties: consequence "
                    "spaces, operad dimensions, structure-constant checks, "
                    "Koszul duals.")
    rows = [row for row in _COMMANDS if row[0] == command] or _COMMANDS
    # a lone sub-parser still lists every command in the usage line; the full
    # build keeps argparse's own metavar, which its errors call "command"
    metavar = "{%s}" % ",".join(row[0] for row in _COMMANDS) if len(rows) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, arguments, flags in rows:
        p = sub.add_parser(name, help=help_text)
        for arg_flags, kwargs in arguments:
            p.add_argument(*arg_flags, **kwargs)
        _common(p, **flags)
        # looked up per build, so a handler replaced at run time is the one called
        p.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    started = time.time()
    try:
        code = args.func(args)
    except (ArityOverflowError, DegreeOverflowError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("error: out of memory; try a smaller arity or order", file=sys.stderr)
        return EXIT_RESOURCE
    except (_InputError, catalog.CatalogError, ValueError, ZeroDivisionError,
            OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    if not args.no_timing:
        print("time=%.3fs" % (time.time() - started))
    return code


if __name__ == "__main__":
    sys.exit(main())
