"""Command-line front end.

Subcommands operate on Newick files (one tree per file) and write data to
stdout, diagnostics to stderr.  Exit codes are stable:

* 0 - success
* 1 - bad usage or configuration (missing file, bad flag values)
* 2 - Newick parse error (diagnostic includes the byte offset in the file),
      or a file that is not UTF-8
* 3 - semantic tree error (not equidistant, three-point violation, height
      mismatch, fewer than 2 leaves; segment, topologies and dist need 3)
* 4 - leaf-set mismatch between the two input trees
* 141 - a write found stdout closed by its reader (``| head``), as a
        shell reports a writer stopped by SIGPIPE; nothing on stderr
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import time

from .errors import (LeafSetMismatchError, NewickParseError,
                     NotEquidistantError, NotUltrametricError, TropTreeError)
from .newick import RootedTree, parse_newick
from .sim import SampleConfig, check_nni_conjecture, estimate_star_probability
from .treespace import (require_ultrametric, topology_sequence, tree_segment,
                        ultrametric_of)
from .trees import require_same_leaves
from .tropical import trop_dist
from .util import DEFAULT_TOL

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_LEAVES = 4
EXIT_PIPE = 141


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise _UsageError(message)


def _load_tree(path: str) -> RootedTree:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_newick(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise NewickParseError(f"{path}: not UTF-8 ({exc.reason})", exc.start) from None
    except NewickParseError as exc:
        raise NewickParseError(f"{path}: {exc.message}", exc.offset) from None


class _Stdout:
    """``sys.stdout`` as it is when made, written through its byte buffer:
    a write that a closed pipe cuts short raises BrokenPipeError, where
    ``TextIOWrapper`` drops the short count that its buffer returns."""

    def __init__(self):
        self.stream = sys.stdout
        self.stream.flush()

    def write(self, text: str) -> None:
        data = text.encode(self.stream.encoding, self.stream.errors)
        if self.stream.buffer.write(data) < len(data):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def _build_parser() -> _Parser:
    parser = _Parser(prog="troptree", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def tolerance(text: str) -> float:
        tol = float(text)
        if not 0.0 <= tol < math.inf:
            raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
        return tol

    def precision(text: str) -> int:
        digits = int(text)
        if digits < 1:
            raise argparse.ArgumentTypeError(f"precision must be >= 1, got {text!r}")
        return digits

    def add_common(p, two_trees=True, digits=False):
        p.add_argument("tree1", help="Newick file (one tree)")
        if two_trees:
            p.add_argument("tree2", help="Newick file (one tree)")
        p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL,
                       help="absolute tolerance (default 1e-9)")
        if digits:
            p.add_argument("--precision", type=precision, default=10,
                           help="significant digits on output (default 10)")

    p = sub.add_parser("segment", help="bend points of the tropical segment")
    add_common(p, digits=True)
    p.add_argument("--format", choices=["csv", "newick", "json"], default="csv")

    p = sub.add_parser("topologies", help="topology changes along the segment")
    add_common(p)

    p = sub.add_parser("dist", help="tropical distance between the ultrametrics")
    add_common(p, digits=True)

    p = sub.add_parser("validate", help="check a tree file (equidistant + ultrametric)")
    add_common(p, two_trees=False)

    p = sub.add_parser("simulate", help="Monte Carlo experiments")
    p.add_argument("kind", choices=["star-prob", "nni-conjecture"])
    p.add_argument("--n", type=int, required=True, help="number of leaves")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--height", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    return parser


def cmd_segment(args) -> int:
    t1 = _load_tree(args.tree1)
    t2 = _load_tree(args.tree2)
    seg = tree_segment(t1, t2, args.tol)
    write = {"csv": seg.to_csv, "newick": seg.to_newick, "json": seg.to_json}[args.format]
    write(args.precision, _Stdout() if hasattr(sys.stdout, "buffer") else sys.stdout)
    return EXIT_OK


def cmd_topologies(args) -> int:
    t1 = _load_tree(args.tree1)
    t2 = _load_tree(args.tree2)
    seg = tree_segment(t1, t2, args.tol)
    topos = topology_sequence(seg)
    from ._linkages import topology_strs      # loaded by the segment already
    for text in topology_strs(topos):
        print(text)
    star = any(topo.is_star for topo in topos)
    print(f"star-crossing: {'yes' if star else 'no'}")
    for k, (a, b) in enumerate(zip(topos, topos[1:])):
        if a.is_binary and b.is_binary:
            flag = "yes" if a.one_nni_apart(b) else "no"
        else:
            flag = "degenerate"
        print(f"transition {k}: single-nni {flag}")
    return EXIT_OK


def cmd_dist(args) -> int:
    u = ultrametric_of(_load_tree(args.tree1), args.tol)
    v = ultrametric_of(_load_tree(args.tree2), args.tol)
    require_same_leaves(u.labels, v.labels)
    if u.n < 3:
        raise TropTreeError(f"the tropical distance needs at least 3 leaves, got {u.n}")
    print(format(trop_dist(u.entries, v.entries), f".{args.precision}g"))
    return EXIT_OK


def cmd_validate(args) -> int:
    tree = _load_tree(args.tree1)
    # the same checks segment applies to its inputs
    require_ultrametric(ultrametric_of(tree, args.tol), args.tol)
    print(f"valid: {tree.n_leaves} leaves, height {tree.height():.12g}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        cfg = SampleConfig(n=args.n, height=args.height,
                           samples=args.samples, seed=args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    start = time.perf_counter()
    if args.kind == "star-prob":
        report = estimate_star_probability(cfg)
    else:
        report = check_nni_conjecture(cfg)
    print(report.to_json())
    print(f"wall-clock: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "segment": cmd_segment,
            "topologies": cmd_topologies,
            "dist": cmd_dist,
            "validate": cmd_validate,
            "simulate": cmd_simulate,
        }[args.command]
        code = handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, so that the flush at
        # exit raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except NewickParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except LeafSetMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LEAVES
    except (NotEquidistantError, NotUltrametricError, TropTreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
