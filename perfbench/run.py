"""Benchmark for troptree: one workload per invocation.

    python3 perfbench/run.py --workload segment-n80 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  The launcher makes the workload's inputs from ``--seed`` (see
``gen.py``; generating them is not timed), times set-up over several fresh
processes, runs the workload in a worker process (``worker.py``), checks
every output against independent recomputations (``checks.py``) and prints
one JSON line: ``correct``, ``attempted``, ``failed`` and the metrics.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced run (``tracer.py``).  Times are
normalised to the host's momentary speed against reference work run beside
them (``calib.py``).  A record of the
run (counts, metrics, git revision, Python and numpy versions) goes to
standard error and to ``.bench_runs/<run>/record.json``.

Exit status is 0 with a result, non-zero without one.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calib
import checks
import gen

ROOT = gen.ROOT
RUNS = ROOT / ".bench_runs"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_LAUNCHES = 8
WORKER_TIMEOUT_S = 150

#: (metric, unit, span or counter name, field); values are per operation.
LAYERS = (
    ("newick.parse_newick.calls", "count", "newick.parse_newick", "calls"),
    ("newick.parse_newick.self_s", "s", "newick.parse_newick", "self_s"),
    ("newick.write_newick.calls", "count", "newick.write_newick", "calls"),
    ("newick.write_newick.self_s", "s", "newick.write_newick", "self_s"),
    ("trees.agglomerate.calls", "count", "trees.agglomerate", "calls"),
    ("trees.agglomerate.self_s", "s", "trees.agglomerate", "self_s"),
    ("trees.topology_of.calls", "count", "trees.topology_of", "calls"),
    ("trees.topology_of.self_s", "s", "trees.topology_of", "self_s"),
    ("trees.one_nni_apart.calls", "count", "trees.one_nni_apart", "calls"),
    ("trees.one_nni_apart.self_s", "s", "trees.one_nni_apart", "self_s"),
    ("trees.nni_neighbors.calls", "count", "trees.nni_neighbors", "calls"),
    ("trees.pairwise_distances.self_s", "s", "trees.pairwise_distances", "self_s"),
    ("util.natural_key.calls", "count", "util.natural_key", "calls"),
    ("tropical.tropical_segment.self_s", "s", "tropical.tropical_segment", "self_s"),
    ("tropical.bend_points.self_s", "s", "tropical.bend_points", "self_s"),
    ("treespace.ultrametric_of.calls", "count", "treespace.ultrametric_of", "calls"),
    ("treespace.ultrametric_of.self_s", "s", "treespace.ultrametric_of", "self_s"),
    ("treespace.tree_of.calls", "count", "treespace.tree_of", "calls"),
    ("treespace.tree_of.self_s", "s", "treespace.tree_of", "self_s"),
    ("treespace.to_csv.self_s", "s", "treespace.to_csv", "self_s"),
    ("treespace.trees_rebuilt", "count", "treespace.trees_rebuilt", "calls"),
    ("treespace.star_on_segment.calls", "count", "treespace.star_on_segment", "calls"),
    ("treespace.star_on_segment.self_s", "s", "treespace.star_on_segment", "self_s"),
    ("sim.random_equidistant_tree.calls", "count", "sim.random_equidistant_tree", "calls"),
    ("sim.random_equidistant_tree.self_s", "s", "sim.random_equidistant_tree", "self_s"),
    ("sim.sample_rng.self_s", "s", "sim.sample_rng", "self_s"),
    ("sim.nni.fine_reruns", "count", "sim.nni.fine_reruns", "calls"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
)

#: Each workload's headline metric under a name of its own, for the run record.
NAMED = {"segment-n80": ("segment.pair_s", "op_s"),
         "star-prob-n4": ("star.samples_per_s", "items_per_s"),
         "nni-survey-n6": ("nni.samples_per_s", "items_per_s"),
         "newick-roundtrip": ("roundtrip.trees_per_s", "items_per_s")}


def launch(argv: list[str]) -> tuple[float, str]:
    """Start a process; returns (seconds until it printed ready, the rest
    of its standard output).  Raises RuntimeError when it fails."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out") from None
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{argv[1]} failed (exit {proc.returncode}):\n{err.strip()}")
    return setup_s, rest


def setup_samples(worker: list[str], count: int) -> list[tuple[float, float]]:
    """(raw, normalised) set-up times of `count` set-up-only starts, each
    between two starts of calib.REFERENCE_LAUNCH."""
    refs = [launch(calib.REFERENCE_LAUNCH)[0]]
    raws = []
    for _ in range(count):
        raws.append(launch(worker + ["--setup-only"])[0])
        refs.append(launch(calib.REFERENCE_LAUNCH)[0])
    return [(raw, calib.normalise_launch(raw, refs[k:k + 2])) for k, raw in enumerate(raws)]


def check_outputs(workload: str, inputs: Path, out: Path, result: dict) -> list[str]:
    spec = json.loads((inputs / "inputs.json").read_text())
    fails = [f"input {i}: output changed between runs" for i in result["mismatched"]]
    if workload == "segment-n80":
        for i, pair in enumerate(spec["pairs"]):
            path = out / f"first{i}.out"
            if path.exists():
                fails += [f"pair {i}: {m}" for m in checks.check_segment(
                    path.read_text(), gen.Tree.from_json(pair["tree1"]),
                    gen.Tree.from_json(pair["tree2"]))]
    elif workload == "star-prob-n4":
        hits = samples = 0
        for i, seed in enumerate(spec["seeds"]):
            path = out / f"first{i}.out"
            if path.exists():
                f, h = checks.check_star(path.read_text(), seed, spec["n"],
                                         spec["height"], spec["samples"])
                fails += f
                hits += h
                samples += spec["samples"]
        fails += checks.check_star_rate(hits, samples, spec["n"])
    elif workload == "nni-survey-n6":
        for i, seed in enumerate(spec["seeds"]):
            path = out / f"first{i}.out"
            if path.exists():
                fails += checks.check_nni(path.read_text(), seed, spec["n"],
                                          spec["height"], spec["samples"])
    else:
        saved = np.load(out / "roundtrip.npz")
        for k, obj in enumerate(spec["trees"]):
            if str(k) in result["errors"]:
                if not obj["expect_fail"]:
                    fails.append(f"tree {k}: {result['errors'][str(k)]}")
                continue
            fails += [f"tree {k}: {m}" for m in checks.check_roundtrip(
                saved[f"labels{k}"].tolist(), saved[f"entries{k}"], gen.Tree.from_json(obj))]
    return fails


def useful_rerun_ratio(out: Path, result: dict, reruns: int) -> float:
    """Share of the survey's fine-tolerance reruns that turned a transition
    into a single-NNI one.  Each transition is tested once directly and
    reruns once when that test fails, so the useful reruns number
    single - (total - reruns) over the traced reports."""
    if not reruns:
        return 0.0
    single = total = 0
    for i in result["traced_ops"]:
        rep = json.loads((out / f"first{i}.out").read_text())
        single += rep["transitions_single_nni"]
        total += rep["transitions_total"]
    return (single - total + reruns) / reruns


def layer_metrics(workload: str, out: Path, result: dict) -> dict:
    layers = result["layers"]
    ops = len(result["traced_seconds"])
    metrics = {}
    for name, unit, key, field in LAYERS:
        metrics[name] = {"value": layers.get(key, {}).get(field, 0) / ops, "unit": unit}
    reruns = layers["sim.nni.fine_reruns"]["calls"]
    ratio = useful_rerun_ratio(out, result, reruns) if workload == "nni-survey-n6" else 0.0
    metrics["sim.nni.fine_rerun_useful_ratio"] = {"value": ratio, "unit": "ratio"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(result["traced_seconds"])
        - statistics.median(result["op_seconds"]), "unit": "s"}
    return metrics


def input_count(workload: str, inputs: Path) -> int:
    """Number of inputs, each of which runs in a worker of its own."""
    spec = json.loads((inputs / "inputs.json").read_text())
    if workload == "segment-n80":
        return len(spec["pairs"])
    if workload == "newick-roundtrip":
        return 1  # one input: a round over all trees
    return len(spec["seeds"])


def merge(results: list[dict]) -> dict:
    """One result from the workers of a run, one worker per input."""
    merged = {key: [x for r in results for x in r[key]]
              for key in ("op_seconds", "op_norm", "op_inputs", "op_items",
                          "traced_seconds", "traced_ops", "mismatched")}
    merged["attempted"] = sum(r["attempted"] for r in results)
    merged["failed"] = sum(r["failed"] for r in results)
    merged["rss_kib"] = [r["rss_kib"] for r in results]
    merged["errors"] = {k: v for r in results for k, v in r.get("errors", {}).items()}
    if "layers" in results[0]:
        layers: dict[str, dict] = {}
        for r in results:
            for name, v in r["layers"].items():
                acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
                acc["calls"] += v["calls"]
                acc["self_s"] += v["self_s"]
        merged["layers"] = layers
    return merged


def per_input(result: dict, key: str) -> tuple[list[float], list[int]]:
    """The median time (under `key`) and the work of each distinct input."""
    times: dict[int, list[float]] = {}
    items: dict[int, int] = {}
    for i, dt, n in zip(result["op_inputs"], result[key], result["op_items"]):
        times.setdefault(i, []).append(dt)
        items[i] = n
    return [statistics.median(v) for v in times.values()], list(items.values())


def end_to_end_metrics(result: dict, setup: list, key: str = "op_norm") -> dict:
    """setup_s is the median of the set-up samples; peak_rss_mib is the mean
    over inputs of the peak memory of the worker that ran the input; op_s is
    the mean over inputs of each input's median time; items_per_s is the
    inputs' work over the sum of those times.  Operation times are
    normalised (see calib.py) unless `key` says otherwise."""
    times, items = per_input(result, key)
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mib": {"value": statistics.fmean(result["rss_kib"]) / 1024, "unit": "MiB"},
        "op_s": {"value": statistics.fmean(times), "unit": "s"},
        "items_per_s": {"value": sum(items) / sum(times), "unit": "1/s"},
    }


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="troptree benchmark, one workload per run")
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(gen.SIZES), default="full",
                    help="input sizes; 'tiny' is for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "troptree" / "__init__.py").is_file():
        print(f"error: no troptree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    inputs = gen.ensure(args.workload, args.seed, args.size)
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    out = RUNS / tag
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    worker = [sys.executable, str(WORKER), "--workload", args.workload,
              "--inputs", str(inputs), "--out", str(out), "--trace", str(args.trace)]
    count = input_count(args.workload, inputs)
    share = ["--seconds", repr(args.seconds / count)]
    # Set-up is sampled before and after the workload, so that the median
    # spans the run rather than one moment of the host.
    half = SETUP_LAUNCHES // 2 if not args.trace else 0
    try:
        if half:
            launch(worker + ["--setup-only"])  # warms the file cache and bytecode
        setup = setup_samples(worker, half)
        result = merge([json.loads(launch(worker + ["--input", str(i)] + share)[1]
                                   .strip().splitlines()[-1]) for i in range(count)])
        setup += setup_samples(worker, half)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    fails = check_outputs(args.workload, inputs, out, result)
    if args.trace:
        metrics = layer_metrics(args.workload, out, result)
    else:
        metrics = end_to_end_metrics(result, [norm for _, norm in setup])
    for path in list(out.glob("*.out")) + list(out.glob("roundtrip.npz")):
        path.unlink()

    named, source = NAMED[args.workload]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "attempted": result["attempted"], "failed": result["failed"],
        "correct": not fails, "check_failures": fails[:20],
        "operations": len(result["op_seconds"]) + len(result["traced_seconds"]),
        "op_seconds": result["op_seconds"], "traced_seconds": result["traced_seconds"],
        "op_norm": result["op_norm"], "setup_samples_s": setup,
        "rss_kib_per_input": result["rss_kib"],
        "git_revision": git_revision(), "python": platform.python_version(),
        "numpy": np.__version__, "metrics": metrics,
    }
    if not args.trace:
        record[named] = metrics[source]["value"]
        record["raw"] = end_to_end_metrics(result, [raw for raw, _ in setup], "op_seconds")
    (out / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record), file=sys.stderr)
    print(json.dumps({"correct": not fails, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
