"""The process that runs one workload: set-up, then the timed loop.

It prints ``ready`` once ``troptree`` is imported, the CLI parser built and
the workload's inputs loaded, so the launcher can time set-up from process
start.  With ``--setup-only`` it stops there.  Otherwise it runs the
operation on input ``--input`` again and again, closed loop with one
caller, until the timed operations add up to ``--seconds``, and prints one
JSON line describing what it ran.  The launcher starts one worker per input,
so each input's peak memory is measured on its own.  Each operation is timed by ``calib.Clock``, which reports its raw
time and its time normalised to the host's momentary speed.  Outputs are
kept for the launcher's checks: the first output of each input as a file,
later ones only as a digest that must match it.

With ``--trace 1`` every step runs an operation untraced and then the same
operation under ``tracer.Tracer``, so the two can be compared; both are
timed raw, without reference chunks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from pathlib import Path

import numpy as np

import calib
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]


class CliOps:
    """Operations that are calls of ``troptree.cli.main``; each writes its
    standard output to a file, as a shell redirect would."""

    def __init__(self, cli, argvs: list, items_per_op, out: Path):
        self.cli = cli
        self.argvs = argvs
        self.items_per_op = items_per_op  # a count, or None: the CSV rows
        self.out = out
        self.digests: dict[int, str] = {}
        self.mismatched: list[int] = []

    def _call(self, i: int, path: Path) -> int:
        with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh), \
                contextlib.redirect_stderr(io.StringIO()):
            return self.cli.main(self.argvs[i])

    def run(self, i: int, clock) -> tuple:
        """Run operation i; returns (raw s, normalised s, attempted, failed,
        items of work done)."""
        path = self.out / "current.out"
        rc, raw, norm, _ = clock.measure(self._call, i, path)
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if i not in self.digests:
            self.digests[i] = digest
            os.replace(path, self.out / f"first{i}.out")
        elif digest != self.digests[i]:
            self.mismatched.append(i)
        failed = int(rc != 0)
        items = self.items_per_op if self.items_per_op else data.count(b"\n") - 1
        return raw, norm, 1, failed, 0 if failed else items

    def save(self) -> dict:
        return {"mismatched": self.mismatched}


class RoundtripOps:
    """One operation is one round over all trees: write_newick, then
    parse_newick, then ultrametric_of, for each."""

    def __init__(self, tt, trees: list, out: Path):
        self.tt = tt
        self.trees = trees
        self.out = out
        self.first: dict[int, object] = {}
        self.mismatched: list[int] = []

    def _round(self) -> list:
        tt = self.tt
        results = []
        for tree in self.trees:
            try:
                u = tt.ultrametric_of(tt.parse_newick(tt.write_newick(tree)))
                results.append((u.labels, u.entries))
            except tt.TropTreeError as exc:
                results.append(type(exc).__name__)
        return results

    def run(self, _i: int, clock) -> tuple:
        results, raw, norm, _ = clock.measure(self._round)
        failed = 0
        for k, res in enumerate(results):
            failed += isinstance(res, str)
            if k not in self.first:
                self.first[k] = res
            elif not _same(res, self.first[k]):
                self.mismatched.append(k)
        return raw, norm, len(results), failed, len(results) - failed

    def save(self) -> dict:
        arrays = {}
        errors = {}
        for k, res in self.first.items():
            if isinstance(res, str):
                errors[str(k)] = res
            else:
                arrays[f"labels{k}"] = np.array(res[0])
                arrays[f"entries{k}"] = res[1]
        np.savez(self.out / "roundtrip.npz", **arrays)
        return {"mismatched": sorted(set(self.mismatched)), "errors": errors}


def _same(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a[0] == b[0] and a[1].shape == b[1].shape and bool((a[1] == b[1]).all())


def setup(workload: str, inputs: Path, out: Path):
    """Import the program, build its CLI parser and load the inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    import troptree as tt
    import troptree.cli as cli
    # an empty command line builds the parser and stops at the usage error
    with contextlib.redirect_stderr(io.StringIO()):
        if cli.main([]) != 1:
            raise RuntimeError("troptree with no arguments did not report a usage error")
    spec = json.loads((inputs / "inputs.json").read_text())
    if workload == "segment-n80":
        argvs = [["segment", str(inputs / p["t1"]), str(inputs / p["t2"]), "--format", "csv"]
                 for p in spec["pairs"]]
        for argv in argvs:
            for f in argv[1:3]:
                if not Path(f).is_file():
                    raise FileNotFoundError(f)
        return tt, CliOps(cli, argvs, None, out)
    if workload in ("star-prob-n4", "nni-survey-n6"):
        kind = "star-prob" if workload == "star-prob-n4" else "nni-conjecture"
        argvs = [["simulate", kind, "--n", str(spec["n"]), "--samples", str(spec["samples"]),
                  "--height", repr(spec["height"]), "--seed", str(s)] for s in spec["seeds"]]
        return tt, CliOps(cli, argvs, spec["samples"], out)
    if workload == "newick-roundtrip":
        return tt, RoundtripOps(tt, [_rooted(tt, t) for t in spec["trees"]], out)
    raise ValueError(f"unknown workload {workload!r}")


def _rooted(tt, obj: dict):
    """A generator tree (merge list) as a troptree.RootedTree."""
    n, heights = obj["n"], obj["heights"]
    nodes = [tt.TreeNode(label=str(k + 1)) for k in range(n)]
    for m, (a, b) in enumerate(obj["merges"]):
        h = heights[n + m]
        for c in (a, b):
            nodes[c].length = h - heights[c]
        nodes.append(tt.TreeNode(children=[nodes[a], nodes[b]]))
    return tt.RootedTree(nodes[-1])


def timed_loop(tt, ops, index: int, seconds: float, tracer=None) -> dict:
    """Operations on input `index` until the timed part reaches `seconds`.
    With a tracer, each operation runs untraced and then traced, both on a
    plain clock; otherwise on a clock with reference chunks."""
    clock = calib.Clock(plain=tracer is not None)
    loop = {key: [] for key in ("op_seconds", "op_norm", "op_inputs", "op_items",
                                "traced_seconds", "traced_ops")}
    attempted = failed = 0
    timed = 0.0
    while timed < seconds:
        raw, norm, a, f, items = ops.run(index, clock)
        loop["op_seconds"].append(raw)
        loop["op_norm"].append(norm)
        loop["op_inputs"].append(index)
        loop["op_items"].append(items)
        attempted += a
        failed += f
        timed += raw
        if tracer is not None:
            tracer.install(tt)
            try:
                raw, _, a, f, _ = ops.run(index, clock)
            finally:
                tracer.uninstall()
            loop["traced_seconds"].append(raw)
            loop["traced_ops"].append(index)
            attempted += a
            failed += f
            timed += raw
    return {**loop, "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run one benchmark workload on one input")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--input", type=int, help="index of the input to run")
    ap.add_argument("--seconds", type=float, help="timed seconds to run it for")
    args = ap.parse_args(argv)
    if not args.setup_only and (args.input is None or args.seconds is None):
        ap.error("--input and --seconds are required unless --setup-only")

    tt, ops = setup(args.workload, args.inputs, args.out)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    loop = timed_loop(tt, ops, args.input, args.seconds, tracer)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {**loop, "rss_kib": rss_kib, **ops.save()}
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.save(args.out / f"spans{args.input}.npz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
