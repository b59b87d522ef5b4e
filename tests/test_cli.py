"""Command-line behaviour: outputs, exit codes, determinism, file round trips."""

import argparse
import itertools

import pytest

from variety_forge import cli, engine, scalar
from variety_forge.catalog import variety
from variety_forge.cli import build_parser, main

COMMANDS = ("dim", "consequence", "equiv", "check", "tensor", "depolarize", "dual",
            "koszul", "free-basis", "export-catalog")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def exits(capsys, parse, argv):
    """(exit code, stdout, stderr) of a parse that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def subcommands(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(action.choices)


@pytest.mark.parametrize("command", COMMANDS)
def test_one_sub_parser_prints_the_help_of_the_full_parser(capsys, command):
    whole = exits(capsys, build_parser().parse_args, [command, "--help"])
    alone = exits(capsys, build_parser(command).parse_args, [command, "--help"])
    assert alone == whole
    assert whole[0] == 0 and whole[1].startswith("usage: variety-forge %s " % command)


def test_one_sub_parser_prints_the_errors_of_the_full_parser(capsys):
    listed = "{%s}" % ",".join(COMMANDS)
    for argv, words in ((["dim", "delta-poisson", "--arity", "3", "extra"],
                         # the top-level parser's usage names every command
                         (listed, "error: unrecognized arguments: extra")),
                        (["dim", "delta-poisson"],
                         ("error: the following arguments are required: --arity",)),
                        (["equiv", "poisson", "--arity", "3"],
                         ("error: the following arguments are required: variety2",))):
        whole = exits(capsys, build_parser().parse_args, argv)
        alone = exits(capsys, build_parser(argv[0]).parse_args, argv)
        assert alone == whole, argv
        assert whole[:2] == (2, "") and all(w in whole[2] for w in words), whole


def test_main_without_a_known_command_names_every_command(capsys):
    listed = "{%s}" % ",".join(COMMANDS)
    for argv, code, words in (([], 2, ("required: command",)),
                              (["-h"], 0, COMMANDS),
                              (["di"], 2, ("argument command: invalid choice: 'di'",))):
        got, out, err = exits(capsys, main, argv)
        assert got == code and listed in out + err, argv
        assert all(w in out + err for w in words), argv


def test_a_known_command_builds_its_own_sub_parser_only(capsys, monkeypatch):
    assert subcommands(build_parser("dim")) == ["dim"]
    assert subcommands(build_parser()) == list(COMMANDS)
    assert subcommands(build_parser("di")) == list(COMMANDS)
    built = []

    def spy(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    assert run(capsys, "free-basis", "--arity", "3", "--no-timing")[0] == 0
    assert built == ["free-basis"]


def test_dim_command(capsys):
    code, out, _ = run(capsys, "dim", "delta-poisson", "--arity", "5",
                       "--delta", "-1", "--no-timing")
    assert code == 0 and out == "dim=31\n"
    code, out, _ = run(capsys, "dim", "mixed-poisson", "--arity", "4", "--no-timing")
    assert code == 0 and out == "dim=7\n"


def test_dim_of_free_signature(capsys, tmp_path):
    path = tmp_path / "empty.var"
    path.write_text("op dot symmetric\nop bracket antisymmetric\n")
    code, out, _ = run(capsys, "dim", str(path), "--arity", "3", "--no-timing")
    assert code == 0 and out == "dim=12\n"


def test_consequence_command_and_expect(capsys):
    code, out, _ = run(capsys, "consequence", "delta-poisson",
                       "--target", "bracket(dot(x1,x2),dot(x3,x4))",
                       "--no-timing", "--expect", "yes")
    assert code == 0 and "consequence=yes" in out and "rank=" in out
    assert "probabilistic" not in out
    code, out, _ = run(capsys, "consequence", "delta-poisson",
                       "--target", "xyzt-1", "--delta", "1",
                       "--no-timing", "--expect", "yes")
    assert code == 1 and "consequence=no" in out
    code, out, _ = run(capsys, "consequence", "delta-poisson",
                       "--target", "delta-poisson-law", "--no-timing")
    assert code == 0 and "consequence=yes" in out


def test_equiv_command(capsys, tmp_path):
    f = tmp_path / "fdelta.var"
    f.write_text("op m none\nparam delta = 2\n"
                 "identity: 3*d*m(m(x1,x2),x3) + (1-2*d)*m(x2,m(x3,x1))"
                 " - (2*d+1)*m(x1,m(x2,x3)) - m(x1,m(x3,x2)) + m(x2,m(x1,x3))"
                 " + d*m(x3,m(x1,x2))\n")
    g = tmp_path / "depol.var"
    from variety_forge.engine import depolarize_variety, format_variety
    from fractions import Fraction
    g.write_text(format_variety(depolarize_variety(variety("delta-poisson",
                                                           delta=Fraction(2)))))
    code, out, _ = run(capsys, "equiv", str(f), str(g), "--arity", "3", "--no-timing")
    assert code == 0 and out == "equivalent=yes\n"
    # com-lie has no d, so poisson's d = 1 does not clash with it ...
    code, out, _ = run(capsys, "equiv", "poisson", "com-lie", "--arity", "3", "--no-timing")
    assert code == 0 and out == "equivalent=no\n"
    # ... while two bindings of the same d do
    code, out, err = run(capsys, "equiv", "anti-poisson", "poisson", "--arity", "3",
                         "--no-timing")
    assert code == 2 and out == "" and "parameter modes differ" in err


def test_check_command(capsys):
    code, out, _ = run(capsys, "check", "A1", "transposed-delta-poisson",
                       "--delta", "-1", "--no-timing")
    assert code == 0 and "all satisfied" in out
    code, out, _ = run(capsys, "check", "sc-B1", "sc2", "--no-timing", "--expect", "no")
    assert code == 0 and "FAILS at" in out
    code, out, _ = run(capsys, "check", "zero", "delta-poisson",
                       "--delta", "5", "--no-timing")
    assert code == 0 and "all satisfied" in out


def test_tensor_and_check_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "t.alg"
    code, out, _ = run(capsys, "tensor", "A1", "A1", "-o", str(out_path), "--no-timing")
    assert code == 0 and "dim=9" in out
    code, out, _ = run(capsys, "check", str(out_path), "transposed-delta-poisson",
                       "--delta", "-1", "--no-timing")
    assert code == 0 and "all satisfied" in out


def test_depolarize_command_both_directions(capsys, tmp_path):
    split_path = tmp_path / "split.alg"
    code, out, _ = run(capsys, "depolarize", "sc-B1", "-o", str(split_path),
                       "--no-timing")
    assert code == 0
    text = split_path.read_text()
    assert "dot" in text
    merged_path = tmp_path / "merged.alg"
    code, out, _ = run(capsys, "depolarize", str(split_path), "-o", str(merged_path),
                       "--no-timing")
    assert code == 0
    from variety_forge.algebras import load_algebra
    from variety_forge.catalog import algebra
    assert load_algebra(str(merged_path)).tables["m"] == algebra("sc-B1").tables["m"]
    # commutative input: the bracket table of the split is empty
    comm = tmp_path / "comm.alg"
    comm.write_text("dim 2\nm e1 e1 = e2\n")
    code, out, _ = run(capsys, "depolarize", str(comm), "--no-timing")
    assert code == 0 and "bracket e" not in out and "dot e1 e1 = e2" in out


def test_dual_command(capsys):
    code, out, _ = run(capsys, "dual", "mixed-poisson", "--no-timing")
    assert code == 0
    assert "mixed_relations=0" in out
    code, out, _ = run(capsys, "dual", "delta-poisson", "--delta", "-1", "--no-timing")
    assert code == 0 and "relations:" in out


def test_koszul_command(capsys):
    code, out, _ = run(capsys, "koszul", "anti-poisson", "--order", "5", "--no-timing")
    assert code == 0
    assert "deviation=91/60" in out and "deviation_order=5" in out
    code, out, _ = run(capsys, "koszul", "com", "--order", "4", "--no-timing")
    assert code == 0 and "verdict=consistent with Koszul through order 4" in out


def test_free_basis_command(capsys):
    code, out, _ = run(capsys, "free-basis", "--arity", "5", "--no-timing")
    assert code == 0 and out == "24 + 6 + 1 = 31\n"
    # verbose adds the report: its head line, then each family under a header
    code, out, _ = run(capsys, "free-basis", "--arity", "3", "-v", "--no-timing")
    lines = out.splitlines()
    assert code == 0 and lines[:2] == ["2 + 3 + 1 = 6",
                                       "free basis, multilinear arity 3: 2 + 3 + 1 = 6"]
    headers = [line.strip() for line in lines if line.endswith("):")]
    assert headers == ["lie (2):", "var-times-bracket (3):", "product (1):"]


def test_export_catalog_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "export-catalog", "-o", str(tmp_path), "--no-timing")
    assert code == 0
    var_path = tmp_path / "delta-poisson.var"
    alg_path = tmp_path / "A1.alg"
    assert var_path.exists() and alg_path.exists()
    code, out, _ = run(capsys, "dim", str(var_path), "--arity", "4",
                       "--delta", "-1", "--no-timing")
    assert code == 0 and out == "dim=12\n"
    code, out, _ = run(capsys, "check", str(alg_path), "transposed-delta-poisson",
                       "--delta", "-1", "--no-timing")
    assert code == 0 and "all satisfied" in out


def test_sampled_mode(capsys):
    code, out, _ = run(capsys, "dim", "delta-poisson", "--arity", "4",
                       "--mode", "sampled", "--no-timing")
    assert code == 0
    assert "dim=12" in out and "certified=upper-bound" in out
    for target in ("bracket(dot(x1,x2),dot(x3,x4))",
                   # the third defining identity: its coefficients depend on d
                   "bracket(dot(x1,x2),x3) - d*dot(bracket(x1,x3),x2) "
                   "- d*dot(bracket(x2,x3),x1)"):
        code, out, _ = run(capsys, "consequence", "delta-poisson", "--target", target,
                           "--mode", "sampled", "--expect", "yes", "--no-timing")
        assert code == 0 and "consequence=yes" in out and "probabilistic=yes" in out
    code, out, _ = run(capsys, "equiv", "delta-poisson", "delta-poisson",
                       "--arity", "3", "--mode", "sampled", "--no-timing")
    assert code == 0 and out == "equivalent=yes\nprobabilistic=yes\n"
    code, out, _ = run(capsys, "equiv", "mixed-poisson", "delta-poisson",
                       "--arity", "3", "--mode", "sampled", "--no-timing")
    assert code == 0 and out == "equivalent=no\nprobabilistic=yes\n"
    code, out, _ = run(capsys, "koszul", "delta-poisson", "--order", "3",
                       "--mode", "sampled", "--no-timing")
    assert code == 0 and "probabilistic=yes" in out


def test_sampled_mode_without_generic_d_is_exact(capsys):
    # no sample point is taken for a d-free variety, so nothing is labelled
    code, out, _ = run(capsys, "dim", "anti-poisson", "--arity", "4",
                       "--mode", "sampled", "--no-timing")
    assert code == 0 and out == "dim=12\n"
    code, out, _ = run(capsys, "consequence", "anti-poisson", "--delta", "2",
                       "--target", "xyzt-1", "--mode", "sampled", "--no-timing")
    assert code == 0 and "consequence=" in out and "probabilistic" not in out
    code, out, _ = run(capsys, "consequence", "delta-poisson", "--delta", "2",
                       "--target", "xyzt-1", "--mode", "sampled", "--no-timing")
    assert code == 0 and "consequence=" in out and "probabilistic" not in out
    code, out, _ = run(capsys, "equiv", "anti-poisson", "anti-poisson",
                       "--arity", "3", "--mode", "sampled", "--no-timing")
    assert code == 0 and out == "equivalent=yes\n"
    code, out, _ = run(capsys, "koszul", "mixed-poisson", "--order", "4",
                       "--mode", "sampled", "--no-timing")
    assert code == 0 and "probabilistic=no" in out
    assert "(probabilistic dims)" not in out


def test_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, "dim", "no-such-thing", "--arity", "3", "--no-timing")
    assert code == 2 and "no such file or catalog variety" in err
    code, _, err = run(capsys, "dim", "delta-poisson", "--arity", "9", "--no-timing")
    assert code == 3 and "guard" in err and "override" not in err
    code, _, err = run(capsys, "dim", "delta-poisson", "--arity", "7",
                       "--mode", "sampled", "--no-timing")
    assert code == 3 and "guard" in err
    code, _, err = run(capsys, "check", "A1", "no-such-variety", "--no-timing")
    assert code == 2
    # (n-1)! Lie words past the free-basis guard: refused before any is built
    code, out, err = run(capsys, "free-basis", "--arity", "10", "--no-timing")
    assert code == 3 and out == "" and "free-basis guard" in err
    # a target over operations the variety lacks is an input error, not a crash
    for name, target in (("mixed-poisson", "h1"), ("one-op-free", "assoc")):
        code, out, err = run(capsys, "consequence", name, "--target", target,
                             "--no-timing")
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("error: target uses undeclared operations"), err
    # argparse refuses a d that is not a rational number
    with pytest.raises(SystemExit) as exc:
        main(["dim", "delta-poisson", "--arity", "3", "--delta", "x"])
    assert exc.value.code == 2 and "not a rational number" in capsys.readouterr().err
    # depolarize needs one operation or the dot/bracket pair
    two_plain = tmp_path / "two-plain.alg"
    two_plain.write_text("dim 2\nop p none\nop q none\np e1 e1 = e2\n")
    code, out, err = run(capsys, "depolarize", str(two_plain), "--no-timing")
    assert code == 2 and out == "" and "expected a {dot,bracket} algebra" in err
    # specializing onto a coefficient pole is an input error, not a crash
    code, _, err = run(capsys, "dim", "delta-mixed-poisson", "--arity", "3",
                       "--delta", "0", "--no-timing")
    assert code == 2 and "vanishes" in err
    # a Koszulness order below 1 compares nothing
    code, _, err = run(capsys, "koszul", "mixed-poisson", "--order", "-1", "--no-timing")
    assert code == 2 and "order must be positive" in err
    code, out, err = run(capsys, "koszul", "mixed-poisson", "--order", "0", "--no-timing")
    assert code == 2 and "order must be positive" in err and out == ""
    # an order past the arity guard is refused before any dimension is built
    code, out, err = run(capsys, "koszul", "poisson", "--order", "7", "--no-timing")
    assert code == 3 and out == "" and "arity guard" in err
    # an explicit arity 0 is an input error, as for dim and equiv
    code, out, err = run(capsys, "consequence", "poisson", "--target", "assoc",
                         "--arity", "0", "--no-timing")
    assert code == 2 and out == ""
    # a target that normalizes to zero is a consequence at every arity
    for target in ("dot(x1,x2) - dot(x2,x1)", "0"):
        code, out, err = run(capsys, "consequence", "poisson", "--target", target,
                             "--no-timing")
        assert (code, out, err) == (0, "consequence=yes\n", "")
        code, out, _ = run(capsys, "consequence", "poisson", "--target", target,
                           "--arity", "2", "--no-timing")
        assert code == 0 and out.splitlines() == ["consequence=yes", "rank=0"]
    code, out, _ = run(capsys, "consequence", "poisson", "--target", "0", "--arity", "0",
                       "--no-timing")
    assert code == 2 and out == ""
    # a malformed algebra file is an input error naming its line, not a crash
    for i, (text, lineno) in enumerate((("dim\n", 1), ("dim 2\nop dot\n", 2),
                                        ("dim 2\nparam delta\n", 2),
                                        ("dim 2\nparam beta = 2\n", 2),
                                        ("dim 2\nop dot sym\n", 2),
                                        ("dim 2\ndot e1 e1 = 1/0*e2\n", 2),
                                        ("dim 2\nop dot symmetric\nop dot antisymmetric\n"
                                         "dot e1 e2 = e1\n", 3),
                                        ("dim 3\ndim 2\n", 2),
                                        ("dim 2\nparam delta = 1\nparam delta = 2\n", 3))):
        path = tmp_path / ("bad%d.alg" % i)
        path.write_text(text)
        code, out, err = run(capsys, "check", str(path), "assoc", "--no-timing")
        assert code == 2 and out == "", text
        assert err.startswith("error: line %d: " % lineno) and "Traceback" not in err, err
    # so is a malformed variety file
    for i, (text, lineno) in enumerate((("op dot symmetric\nparam delta = x\n", 2),
                                        ("op dot symmetric\nparam delta = 1/0\n", 2),
                                        ("op dot\n", 1),
                                        ("op dot symmetric\nparam foo = 1\n", 2),
                                        ("op dot symmetric\nparam foo\n", 2),
                                        ("op dot sym\n", 1),
                                        # each association type once, not twice
                                        ("op dot symmetric\nop dot symmetric\nidentity: "
                                         "dot(dot(x1,x2),x3) - dot(x1,dot(x2,x3))\n", 2),
                                        # d once: a second param line, bare or bound
                                        ("op dot symmetric\nparam delta = 1\n"
                                         "param delta = 2\n", 3),
                                        ("op dot symmetric\nparam delta\n"
                                         "param delta = 2\n", 3))):
        path = tmp_path / ("bad%d.var" % i)
        path.write_text(text)
        code, out, err = run(capsys, "dim", str(path), "--arity", "3", "--no-timing")
        assert code == 2 and out == "", text
        assert err.startswith("error: line %d: " % lineno) and "Traceback" not in err, err


def test_input_errors_name_their_cause(capsys, tmp_path):
    # each is exit 2 with one error line, not a traceback
    bad_alg = tmp_path / "bad.alg"
    bad_alg.write_text("dim 2\ndot e1 e1 = 2*f2\n")  # f2 is no basis vector
    whole = tmp_path / "whole.var"
    whole.write_text("op dot symmetric\nop bracket antisymmetric\n" + "".join(
        "identity: %s(%s(x1,x2),x3)\n" % pair
        for pair in itertools.product(("dot", "bracket"), repeat=2)))
    # a pole at each sample point 51/13, 7/5 and 64/7
    poles = tmp_path / "poles.var"
    poles.write_text("op dot symmetric\nparam delta\nidentity: "
                     "1/((13*d-51)*(5*d-7)*(7*d-64))*dot(dot(x1,x2),x3)"
                     " - dot(x1,dot(x2,x3))\n")
    for argv, message in (
            (("check", "no-such-algebra", "assoc"),
             "no such file or catalog algebra: 'no-such-algebra'"),
            (("check", str(bad_alg), "assoc"),
             "line 2: cannot parse product 'dot e1 e1 = 2*f2'"),
            (("consequence", "poisson", "--target", "dot(x1,x2) ? x3"),
             "unexpected character '?' (at position 11)"),
            (("dual", str(whole)), "relations span the whole arity-3 space"),
            (("dim", str(poles), "--arity", "3", "--mode", "sampled"),
             "every sampled specialization of d hit a pole")):
        assert run(capsys, *argv, "--no-timing") == (2, "", "error: %s\n" % message), argv
    # exact mode has no sample points
    assert run(capsys, "dim", str(poles), "--arity", "3", "--no-timing") == (0, "dim=0\n", "")


def test_out_of_memory_is_a_resource_abort(capsys, monkeypatch):
    import variety_forge.cli as cli

    def exhausted(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_dim", exhausted)
    code, _, err = run(capsys, "dim", "delta-poisson", "--arity", "3", "--no-timing")
    assert code == 3 and err.startswith("error: out of memory")


def test_timing_line_is_printed_once_and_last(capsys):
    for argv in (("dim", "mixed-poisson", "--arity", "3"),
                 ("free-basis", "--arity", "3"),
                 ("check", "A1", "lie"),        # against a variety
                 ("check", "sc-B1", "sc2")):    # against a single identity
        code, out, _ = run(capsys, *argv)
        lines = out.splitlines()
        assert code == 0 and len(lines) > 1, argv
        assert [line for line in lines if line.startswith("time=")] == lines[-1:], argv
        code, out, _ = run(capsys, *argv, "--no-timing")
        assert "time=" not in out, argv


def test_deterministic_output(capsys):
    first = run(capsys, "koszul", "mixed-poisson", "--order", "4", "--no-timing")
    second = run(capsys, "koszul", "mixed-poisson", "--order", "4", "--no-timing")
    assert first == second
    with_timing = run(capsys, "dim", "mixed-poisson", "--arity", "3")
    assert "time=" in with_timing[1]


def test_degree_ceiling_on_the_elimination_path(capsys, monkeypatch):
    # generic TDP(5) multiplies polynomials up to d-degree 5 inside RowBasis
    # elimination, so a ceiling of 3 must stop it there, and the CLI must
    # report it with the arithmetic-limit exit code
    monkeypatch.setattr(scalar, "_DEGREE_LIMIT", 3)
    engine.clear_cache()
    with pytest.raises(scalar.DegreeOverflowError) as excinfo:
        engine.dim_multilinear(variety("transposed-delta-poisson"), 5)
    assert "eliminate" in {entry.name for entry in excinfo.traceback}
    engine.clear_cache()
    code, _, err = run(capsys, "dim", "transposed-delta-poisson", "--arity", "5",
                       "--no-timing")
    assert code == 3
    assert err.startswith("error: polynomial degree")
