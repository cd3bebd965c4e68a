import ast
import csv
import gzip
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from troptree import cli
from troptree.cli import EXIT_PIPE, main
from tests.conftest import CLADE_A, QUARTET_A, QUARTET_B

#: equidistant within tol, but the three-point condition fails by more
SKEWED = "((1:0.5000000009,2:0.4999999991):0.5,3:1);"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_segment_csv_golden(files, capsys):
    a = files("a.nwk", QUARTET_A)
    b = files("b.nwk", QUARTET_B)
    code, out, _ = run(capsys, "segment", a, b)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:2] == ["index", "lambda"]
    assert len(rows) == 4               # header + 3 bend points
    assert all(len(r) == 4 + 6 for r in rows)
    assert [r[2:8] for r in rows[1:]] == [
        ["0.8", "0.8", "2", "0.4", "2", "2"],
        ["0.8", "0.8", "2", "0.8", "2", "2"],
        ["0.4", "0.8", "2", "0.8", "2", "2"],
    ]
    assert rows[2][8] == "((1:0.4,2:0.4,3:0.4):0.6,4:1);"
    assert rows[2][9] == "{1,2,3}|{1,2,3,4}"


def test_segment_newick_and_json(files, capsys):
    a = files("a.nwk", QUARTET_A)
    b = files("b.nwk", QUARTET_B)
    code, out, _ = run(capsys, "segment", a, b, "--format", "newick")
    assert code == 0
    assert len(out.strip().splitlines()) == 3
    code, out, _ = run(capsys, "segment", a, b, "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["index"] for r in rows] == [0, 1, 2]
    assert rows[1]["ultrametric"] == [0.8, 0.8, 2, 0.8, 2, 2]


def test_segment_identical_single_row(files, capsys):
    a = files("a.nwk", QUARTET_A)
    code, out, _ = run(capsys, "segment", a, a)
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_topologies_output(files, capsys):
    a = files("a.nwk", QUARTET_A)
    b = files("b.nwk", QUARTET_B)
    code, out, _ = run(capsys, "topologies", a, b)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "{2,3}|{1,2,3}|{1,2,3,4}"
    assert lines[1] == "{1,2,3}|{1,2,3,4}"
    assert lines[2] == "{1,2}|{1,2,3}|{1,2,3,4}"
    assert lines[3] == "star-crossing: no"
    assert lines[4] == "transition 0: single-nni degenerate"
    assert lines[5] == "transition 1: single-nni degenerate"


def test_topologies_star_crossing(files, capsys):
    a = files("a.nwk", "((1:0.3,2:0.3):0.7,3:1);")
    b = files("b.nwk", "((1:0.5,3:0.5):0.5,2:1);")
    code, out, _ = run(capsys, "topologies", a, b)
    assert code == 0
    assert "star-crossing: yes" in out


def test_topologies_identical(files, capsys):
    a = files("a.nwk", QUARTET_A)
    code, out, _ = run(capsys, "topologies", a, a)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1] == "star-crossing: no"


def test_dist_golden(files, capsys):
    a = files("a.nwk", QUARTET_A)
    b = files("b.nwk", QUARTET_B)
    code, out, _ = run(capsys, "dist", a, b)
    assert code == 0
    assert out.strip() == "0.8"
    code, out, _ = run(capsys, "dist", a, a)
    assert out.strip() == "0"
    # a pair of ultrametrics whose difference spans 3
    c = files("c.nwk", "(1:1,2:1,3:1);")
    d = files("d.nwk", "((1:1,2:1):1.5,3:2.5);")
    code, out, _ = run(capsys, "dist", c, d)
    assert code == 0
    assert out.strip() == "3"


def test_validate(files, capsys):
    good = files("good.nwk", QUARTET_A)
    code, out, _ = run(capsys, "validate", good)
    assert code == 0 and out.startswith("valid")
    star = files("star.nwk", "(1:1,2:1,3:1);")
    assert run(capsys, "validate", star)[0] == 0
    bad = files("bad.nwk", "(1:1,(2:0.5,3:0.5):0.2);")
    code, _, err = run(capsys, "validate", bad)
    assert code == 3
    assert "leaf" in err


def test_validate_and_segment_reject_three_point_violation(files, capsys):
    skewed = files("skewed.nwk", SKEWED)
    code, out, err = run(capsys, "validate", skewed)
    assert code == 3
    assert out == "" and "three-point" in err
    # segment rejects it whatever the partner tree, the one within tol of
    # it included
    for partner in ("((1:0.5,2:0.5):0.5,3:1);", "((1:0.5,3:0.5):0.5,2:1);"):
        other = files("other.nwk", partner)
        for argv in (["segment", skewed, other], ["segment", other, skewed]):
            code, out, err = run(capsys, *argv)
            assert code == 3
            assert out == "" and "three-point" in err


def test_exit_codes(files, capsys):
    broken = files("broken.nwk", "((1:0.2,2:0.2):0.8,3;")
    code, _, err = run(capsys, "validate", broken)
    assert code == 2
    assert "byte" in err
    a = files("a.nwk", QUARTET_A)
    other = files("other.nwk", CLADE_A)
    for command in ("segment", "topologies", "dist"):
        assert run(capsys, command, a, other)[0] == 4
    missing = str(files("x", "x")) + ".does-not-exist"
    assert run(capsys, "validate", missing)[0] == 1
    assert run(capsys, "simulate", "star-prob", "--n", "2")[0] == 1
    # a one-leaf tree parses but has no ultrametric: a diagnostic, no traceback
    single = files("single.nwk", "A:0;")
    for argv in (["validate", single], ["segment", single, single],
                 ["dist", single, single], ["topologies", single, single]):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == "" and err == "error: an ultrametric needs at least 2 leaves\n"
    # at a subnormal height the sampler draws merge heights of exactly 0
    for kind in ("star-prob", "nni-conjecture"):
        code, out, err = run(capsys, "simulate", kind, "--n", "4", "--samples", "50",
                             "--height", "5e-324")
        assert code == 3
        assert out == "" and err == "error: all pairwise distances must be positive\n"


def test_non_finite_lengths_and_distances_exit_with_a_diagnostic(files, capsys):
    # a branch length that overflows a float is a parse error at its token
    text = "((a:1e400,b:1e400):1,c:1e400);"
    huge = files("huge.nwk", text)
    for argv in (["validate", huge], ["segment", huge, huge], ["dist", huge, huge],
                 ["topologies", huge, huge]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and err == (f"parse error: {huge}: branch length 1e400 "
                                     f"overflows (at byte {text.index('1e400')})\n")
    # finite lengths whose sums overflow: every input check rejects them
    overflow = files("overflow.nwk", "((a:1,b:1):1e308,c:1e308);")
    for argv in (["validate", overflow], ["segment", overflow, overflow],
                 ["dist", overflow, overflow], ["topologies", overflow, overflow]):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == "" and err == "error: all pairwise distances must be finite\n"
    # an odd n, whose median depth is one leaf's, and an even n, whose
    # median is the mean of two depths near the largest float
    for kind, n in (("star-prob", "4"), ("nni-conjecture", "3"), ("nni-conjecture", "4")):
        code, out, err = run(capsys, "simulate", kind, "--n", n, "--samples", "5",
                             "--height", "1e308")
        assert code == 3
        assert out == "" and err == "error: all pairwise distances must be finite\n"
        code, out, err = run(capsys, "simulate", kind, "--n", "4", "--height", "inf")
        assert code == 1
        assert out == "" and err.startswith("error: height must be finite\n")


def test_parse_errors_name_the_byte_of_the_file(tmp_path, capsys):
    # 'é' is two bytes in UTF-8, so the '-' is character 7 but byte 8
    path = tmp_path / "e.nwk"
    path.write_bytes("(é:1,b:-1);".encode("utf-8"))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == f"parse error: {path}: negative branch length -1 (at byte 8)\n"


def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.nwk"
    path.write_bytes(b"(a:1,b:1);\xff\n")
    done = python_m("validate", str(path))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"parse error: {path}: not UTF-8 (invalid start byte) (at byte 10)\n"


def test_digit_like_labels_validate(files):
    # '²' is a digit to str.isdigit but not a decimal digit; it once
    # crashed the natural sort
    done = python_m("validate", files("sq.nwk", "(²:1,(1²:0.5,①:0.5):0.5);"))
    assert (done.returncode, done.stdout, done.stderr) == (0, "valid: 3 leaves, height 1\n", "")


def test_dist_not_equidistant(files, capsys):
    bad = files("bad.nwk", "(1:1,(2:0.5,3:0.5):0.2);")
    a = files("a.nwk", "((1:0.5,2:0.5):0.5,3:1);")
    assert run(capsys, "dist", a, bad)[0] == 3


def test_simulate_star_prob_json(files, capsys):
    code, out, err = run(capsys, "simulate", "star-prob",
                         "--n", "3", "--samples", "200", "--seed", "42")
    assert code == 0
    report = json.loads(out)
    assert report["experiment"] == "star-prob"
    assert report["hits"] + round((1 - report["rate"]) * 200) == 200
    assert "wall-clock" in err
    # stdout is byte-identical across runs
    code2, out2, _ = run(capsys, "simulate", "star-prob",
                         "--n", "3", "--samples", "200", "--seed", "42")
    assert out2 == out


def test_simulate_nni_conjecture_json(files, capsys):
    code, out, _ = run(capsys, "simulate", "nni-conjecture",
                       "--n", "4", "--samples", "30", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["experiment"] == "nni-conjecture"
    assert report["transitions_total"] >= report["transitions_single_nni"]
    assert sum(report["topology_count_histogram"].values()) == 30


def test_usage_error_exit_one(capsys):
    assert main(["segment"]) == 1
    captured = capsys.readouterr()
    assert "usage" in captured.err


def test_negative_seed_is_a_usage_error(capsys):
    for kind in ("star-prob", "nni-conjecture"):
        code, out, err = run(capsys, "simulate", kind, "--n", "4", "--samples", "3",
                             "--seed", "-1")
        assert (code, out) == (1, "")
        assert err.splitlines()[0] == "error: seed must be non-negative"
        assert err.splitlines()[1].startswith("usage:")


@pytest.mark.parametrize("argv, message", [
    (["segment", "--precision", "0"], "argument --precision: precision must be >= 1, got '0'"),
    (["segment", "--precision", "-1"], "argument --precision: precision must be >= 1, got '-1'"),
    (["dist", "--precision", "0"], "argument --precision: precision must be >= 1, got '0'"),
    (["validate", "--tol", "nan"], "argument --tol: tolerance must be finite and >= 0, got 'nan'"),
    (["segment", "--tol", "-1"], "argument --tol: tolerance must be finite and >= 0, got '-1'"),
    (["topologies", "--tol", "inf"], "argument --tol: tolerance must be finite and >= 0, got 'inf'"),
    (["dist", "--tol=-inf"], "argument --tol: tolerance must be finite and >= 0, got '-inf'"),
    # the flag that topologies and validate never read is gone
    (["topologies", "--precision", "3"], "unrecognized arguments: --precision 3"),
    (["validate", "--precision", "3"], "unrecognized arguments: --precision 3"),
])
def test_out_of_range_flags_are_usage_errors(argv, message, files, capsys):
    a = files("a.nwk", QUARTET_A)
    bad = files("bad.nwk", "((a:1,b:5):1,c:2);")
    trees = [bad] if argv[0] == "validate" else [a, a]
    code, out, err = run(capsys, argv[0], *trees, *argv[1:])
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == f"error: {message}"
    assert err.splitlines()[1].startswith("usage:")
    assert "Traceback" not in err


def test_zero_tolerance_is_valid(files, capsys):
    a = files("a.nwk", QUARTET_A)
    b = files("b.nwk", QUARTET_B)
    for command in ("segment", "topologies", "dist"):
        assert run(capsys, command, a, b, "--tol", "0")[0] == 0
    assert run(capsys, "validate", a, "--tol", "0")[0] == 0
    # at the default tolerance, and at zero, a tree that is not equidistant fails
    bad = files("bad.nwk", "((a:1,b:5):1,c:2);")
    for tol in ([], ["--tol", "0"]):
        code, out, err = run(capsys, "validate", bad, *tol)
        assert (code, out) == (3, "")
        assert err.startswith("error: tree is not equidistant")


def test_outputs_are_byte_deterministic(files, capsys):
    a = files("a.nwk", QUARTET_A)
    b = files("b.nwk", QUARTET_B)
    outs = set()
    for _ in range(2):
        for cmd in (["segment", a, b], ["segment", a, b, "--format", "json"],
                    ["topologies", a, b], ["dist", a, b]):
            code, out, _ = run(capsys, *cmd)
            assert code == 0
            outs.add((tuple(cmd[0:1] + cmd[3:]), out))
    assert len(outs) == 4


def test_help_returns_its_exit_code(monkeypatch, capsys):
    # help is printed to stdout and returned as 0, as every other path
    # returns its code, with the same text as `python -m troptree --help`
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["--help"], ["segment", "-h"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        done = python_m(*argv)
        assert (done.returncode, done.stdout, done.stderr) == (0, out, ""), argv
    # the docstring's note on calling main from Python is not in the help
    code, out, _ = run(capsys, "-h")
    assert "nothing on stderr\n\npositional arguments:" in out
    assert "cli.main" not in out


def test_reused_parser_answers_as_a_fresh_one(files, monkeypatch, capsys):
    # one process, every subcommand and exit path interleaved: each call
    # answers as it does on a parser built for it alone, and the sequence
    # builds the parser once
    monkeypatch.setenv("COLUMNS", "80")
    a = files("a.nwk", QUARTET_A)
    b = files("b.nwk", QUARTET_B)
    other = files("other.nwk", CLADE_A)
    broken = files("broken.nwk", "((1:0.2,2:0.2):0.8,3;")
    uneven = files("uneven.nwk", "(1:1,(2:0.5,3:0.5):0.2);")
    calls = [
        (0, ["segment", a, b]),
        (1, []),
        (0, ["segment", a, b, "--format", "newick", "--precision", "3"]),
        (0, ["-h"]),
        (2, ["validate", broken]),
        (0, ["segment", a, b, "--format", "json"]),
        (1, ["bogus", a]),
        (0, ["topologies", a, b]),
        (3, ["validate", uneven]),
        (0, ["segment", "--help"]),
        (0, ["dist", a, b, "--tol", "0"]),
        (1, ["segment", a, b, "--tol", "-1"]),
        (4, ["segment", a, other]),
        (0, ["validate", a]),
        (1, ["dist", a, b, "--precision", "0"]),
        (0, ["simulate", "star-prob", "--n", "4", "--samples", "50", "--seed", "1"]),
        (1, ["simulate", "nni-conjecture", "--n", "2"]),
        (0, ["simulate", "nni-conjecture", "--n", "5", "--samples", "20", "--seed", "1"]),
        (3, ["dist", a, uneven]),
        (4, ["topologies", other, b]),
        (0, ["segment", a, b]),
    ]

    def answer(argv):
        code, out, err = run(capsys, *argv)
        return code, out, re.sub(r"wall-clock: \S+", "wall-clock", err)

    cli._build_parser.cache_clear()
    reused = [answer(argv) for _, argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _ in calls] == [code for code, _, _ in reused]
    for (_, argv), got in zip(calls, reused):
        cli._build_parser.cache_clear()
        assert answer(argv) == got, argv


#: One directory per input pair: t1.nwk, t2.nwk and the stdout of
#: `segment --format csv|newick|json` and `topologies` on them, byte for
#: byte (gzipped when large).  The pairs: seeded random trees at n = 6, 12
#: (mixed text and numeric labels) and 32; trees with tied node heights and
#: input polytomies (`ties_n8`); and trees whose node heights differ by
#: 0.5 and 1.5 tol (`tolgaps_height_n8`) or 0.25 and 0.75 tol
#: (`tolgaps_dist_n8`, distance gaps of 0.5 and 1.5 tol), nested and
#: between subtrees; and the n = 32 pair written by `write_newick(tree, 10)`
#: (`random_n32_seed32_p10`), whose rounded endpoints the candidate table's
#: guard refuses, so its 119 bends are read by single linkage.
CLI_GOLDEN = Path(__file__).parent / "golden" / "cli"
CLI_OUTPUTS = {
    "segment.csv": ["segment", "--format", "csv"],
    "segment.newick": ["segment", "--format", "newick"],
    "segment.json": ["segment", "--format", "json"],
    "topologies.txt": ["topologies"],
}


@pytest.mark.parametrize("case", sorted(p.name for p in CLI_GOLDEN.iterdir()))
@pytest.mark.parametrize("output", sorted(CLI_OUTPUTS))
def test_cli_golden(case, output, capsys):
    folder = CLI_GOLDEN / case
    command, *options = CLI_OUTPUTS[output]
    code, out, err = run(capsys, command, str(folder / "t1.nwk"),
                         str(folder / "t2.nwk"), *options)
    assert code == 0 and err == ""
    plain = folder / output
    expected = (plain.read_bytes() if plain.exists()
                else gzip.decompress((folder / (output + ".gz")).read_bytes()))
    assert out.encode() == expected


def source_env():
    # the environment of a fresh interpreter on this checkout's sources
    src = str(Path(__file__).parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def python(*argv):
    return subprocess.run([sys.executable, *argv], env=source_env(),
                          capture_output=True, text=True, timeout=120)


def python_m(*argv):
    # `python -m troptree` in a fresh process
    return python("-m", "troptree", *argv)


def test_python_dash_m_runs_the_cli():
    # `python -m troptree` is the CLI: stdout, exit codes and all
    done = python_m("simulate", "nni-conjecture", "--n", "6", "--samples", "100",
                    "--seed", "1")
    assert done.returncode == 0
    assert done.stdout == (Path(__file__).parent / "golden" /
                           "nni_conjecture_n6_seed1.json").read_text()
    done = python_m("simulate", "nni-conjecture", "--n", "6", "--samples", "100",
                    "--height", "1e9")
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("error: tree is not equidistant")
    assert python_m().returncode == 1


def test_cli_import_loads_no_lazy_module():
    # the candidate table, the block sampler, the block single linkage and
    # the survey's blocks are imported by their first caller, so that
    # start-up does not pay for them
    lazy = ["troptree._linkages", "troptree._meets", "troptree._streams", "troptree._survey"]
    done = python("-c", "import contextlib, io, sys, troptree.cli\n"
                  "def loaded():\n"
                  "    print(sorted(m for m in sys.modules if m.startswith('troptree')))\n"
                  "loaded()\n"
                  "for argv in (['star-prob', '--n', '4'], ['nni-conjecture', '--n', '5']):\n"
                  "    with contextlib.redirect_stdout(io.StringIO()):\n"
                  "        troptree.cli.main(['simulate', *argv])\n"
                  "    loaded()\n")
    at_import, star, survey = (eval(line) for line in done.stdout.splitlines())
    assert "troptree.cli" in at_import
    assert [m for m in lazy if m in at_import] == []
    assert [m for m in lazy if m in star] == ["troptree._streams"]
    assert [m for m in lazy if m in survey] == [m for m in lazy if m != "troptree._meets"]


def package_imports(module):
    """The troptree modules that a module of the package imports, anywhere
    in its source, each with whether the import sits in an
    ``if TYPE_CHECKING:`` block, read with ast."""
    tree = ast.parse((Path(__file__).parents[1] / "src" / "troptree" / f"{module}.py").read_text())
    typing_only = {id(node) for block in ast.walk(tree)
                   if isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING"
                   for statement in block.body for node in ast.walk(statement)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if not node.level:
                if base.split(".")[0] != "troptree":
                    continue
                base = base.removeprefix("troptree").lstrip(".")
            names = [base.split(".")[0]] if base else [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name.split(".")[1] for alias in node.names
                     if alias.name.startswith("troptree.")]
        else:
            continue
        found += [(name, id(node) in typing_only) for name in names]
    return found


def test_single_linkage_reads_no_tree_module():
    # distances become clusters in _linkages alone: it imports nothing from
    # treespace, and the candidate table reaches single linkage and the run
    # split through it, with treespace for its type hints only
    assert [name for name, _ in package_imports("_linkages") if name == "treespace"] == []
    meets = package_imports("_meets")
    assert [name for name, typing_only in meets
            if name == "trees" or name == "treespace" and not typing_only] == []
    # the reader finds the imports that are there
    assert ("_linkages", False) in meets and ("treespace", True) in meets
    assert ("trees", False) in package_imports("_linkages")


def test_two_leaf_trees_exit_three(files):
    # a two-leaf tree is valid, but its ultrametric has one coordinate and
    # spans no segment: one diagnostic line and exit 3, no traceback
    pair = files("pair.nwk", "(a:1,b:1);")
    done = python_m("validate", pair)
    assert (done.returncode, done.stdout, done.stderr) == (0, "valid: 2 leaves, height 1\n", "")
    for command, message in (("segment", "a tree segment"), ("topologies", "a tree segment"),
                             ("dist", "the tropical distance")):
        done = python_m(command, pair, pair)
        assert (done.returncode, done.stdout) == (3, ""), command
        assert done.stderr == f"error: {message} needs at least 3 leaves, got 2\n"
        assert "Traceback" not in done.stderr


@pytest.mark.parametrize("fmt", ["csv", "json", "newick"])
def test_closed_pipe_exits_quietly(fmt):
    # `segment ... | head -c 1000`: the reader leaves after 1000 bytes of
    # 114 KB to 1.3 MB, written in blocks of at most 22 KB; the writer
    # stops with EXIT_PIPE at its next write, with nothing on stderr
    folder = CLI_GOLDEN / "random_n32_seed32"
    launch = ("import sys\nfrom troptree import _linkages, cli\n_linkages._BLOCK_ELEMENTS = 1000\n"
              "raise SystemExit(cli.main(sys.argv[1:]))")
    proc = subprocess.Popen([sys.executable, "-c", launch, "segment", str(folder / "t1.nwk"),
                             str(folder / "t2.nwk"), "--format", fmt],
                            env=source_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            bufsize=0)
    head = b""
    while len(head) < 1000:     # unbuffered: read no more than head would
        head += proc.stdout.read(1000 - len(head))
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (EXIT_PIPE, b"")
    expected = gzip.decompress((folder / f"segment.{fmt}.gz").read_bytes())
    assert head == expected[:1000]


def test_closed_pipe_in_one_write_exits_quietly():
    # the 114 KB of Newick text are one block and one write, which the
    # reader cuts short; the short count is the only sign of the closed pipe
    folder = CLI_GOLDEN / "random_n32_seed32"
    proc = subprocess.Popen([sys.executable, "-m", "troptree", "segment", str(folder / "t1.nwk"),
                             str(folder / "t2.nwk"), "--format", "newick"],
                            env=source_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            bufsize=0)
    head = b""
    while len(head) < 1000:
        head += proc.stdout.read(1000 - len(head))
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (EXIT_PIPE, b"")
    assert head == gzip.decompress((folder / "segment.newick.gz").read_bytes())[:1000]
