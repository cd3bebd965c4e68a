"""Seeded inputs for the benchmark workloads, made without the program.

Random trees follow the package's sampling model (coalescent merges with
uniform sorted merge heights, root pinned at the tree height) and draw the
same random numbers in the same order as ``troptree.random_equidistant_tree``,
so a replica of a sampled pair can be rebuilt here from (seed, index) alone.
Each tree is kept as its merge list, from which the exact pairwise distances
and a full-precision Newick string follow directly.

Regenerate the input files of one workload and seed with

    python3 perfbench/gen.py --workload segment-n80 --seed 3
"""

from __future__ import annotations

import argparse
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
INPUTS = ROOT / ".bench_inputs"

WORKLOADS = ("segment-n80", "star-prob-n4", "nni-survey-n6", "newick-roundtrip")

#: Input sizes per workload.  "full" is what the benchmark measures; "tiny"
#: exists for the benchmark's own tests.
SIZES = {
    "full": {
        "segment-n80": {"n": 80, "pairs": 4},
        "star-prob-n4": {"n": 4, "calls": 5, "samples": 2000},
        "nni-survey-n6": {"n": 6, "calls": 4, "samples": 100},
        "newick-roundtrip": {"ns": (12, 32, 80), "per_cell": 10},
    },
    "tiny": {
        "segment-n80": {"n": 12, "pairs": 1},
        "star-prob-n4": {"n": 4, "calls": 2, "samples": 200},
        "nni-survey-n6": {"n": 6, "calls": 2, "samples": 20},
        "newick-roundtrip": {"ns": (12,), "per_cell": 2},
    },
}

ROUNDTRIP_HEIGHTS = (1e-3, 1.0, 1e3)
#: Height-1e3 round-trip trees come from this seed whatever --seed says:
#: they fail every time (the absolute tolerance rejects rounded lengths at
#: that scale), and a fixed input keeps the failed share of every run equal.
FAILING_HEIGHT = 1e3
FIXED_SEED = 20210419

_SALT = {name: k + 1 for k, name in enumerate(WORKLOADS)}


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """The per-sample random stream of the sampling model."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


def input_stream(seed: int, workload: str, index: int) -> np.random.Generator:
    """A stream for benchmark inputs, disjoint from the sampler's streams."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(
        entropy=seed, spawn_key=(1_000_000 + _SALT[workload], index))))


@dataclass
class Tree:
    """A binary equidistant tree on leaves 0..n-1 (labels "1".."n").

    Node k < n is a leaf; node n + m is the m-th merge, joining
    ``merges[m] = (a, b)`` at height ``heights[n + m]``.  The last merge is
    the root.
    """

    n: int
    merges: list
    heights: list

    def leafsets(self) -> list:
        sets = [[k] for k in range(self.n)]
        for a, b in self.merges:
            sets.append(sets[a] + sets[b])
        return sets

    def root_split(self) -> tuple[frozenset, frozenset]:
        sets = self.leafsets()
        a, b = self.merges[-1]
        return frozenset(sets[a]), frozenset(sets[b])

    def distances(self) -> np.ndarray:
        """Square matrix of leaf distances: twice the merge height of the
        pair's most recent common ancestor."""
        D = np.zeros((self.n, self.n))
        sets = self.leafsets()
        for m, (a, b) in enumerate(self.merges):
            d = 2.0 * self.heights[self.n + m]
            D[np.ix_(sets[a], sets[b])] = d
            D[np.ix_(sets[b], sets[a])] = d
        return D

    def newick(self) -> str:
        """Newick text with every branch length at full precision."""
        parts = [str(k + 1) for k in range(self.n)]
        for m, (a, b) in enumerate(self.merges):
            h = self.heights[self.n + m]
            parts.append("(" + ",".join(
                f"{parts[c]}:{h - self.heights[c]!r}" for c in (a, b)) + ")")
        return parts[-1] + ";"

    def to_json(self) -> dict:
        return {"n": self.n, "merges": self.merges, "heights": self.heights}

    @classmethod
    def from_json(cls, obj: dict) -> "Tree":
        return cls(obj["n"], [tuple(m) for m in obj["merges"]], obj["heights"])


def draw_tree(n: int, height: float, rng: np.random.Generator) -> Tree:
    """One draw of the sampling model, consuming the stream exactly as the
    package's sampler does."""
    merge_heights = np.sort(rng.uniform(0.0, height, n - 2)) if n > 2 else np.array([])
    alive = list(range(n))
    heights = [0.0] * n
    merges = []
    for h in list(merge_heights) + [height]:
        i, j = sorted(rng.choice(len(alive), size=2, replace=False))
        b = alive.pop(j)
        a = alive.pop(i)
        merges.append((a, b))
        heights.append(float(h))
        alive.append(n + len(merges) - 1)
    return Tree(n, merges, heights)


def sampled_pair(seed: int, index: int, n: int, height: float) -> tuple[Tree, Tree]:
    """Replica of sample `index` of a `simulate` run with `seed`."""
    rng = sample_stream(seed, index)
    return draw_tree(n, height, rng), draw_tree(n, height, rng)


def cli_seeds(seed: int, workload: str, count: int) -> list[int]:
    """Seeds handed to `troptree simulate`, derived from the workload seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(2_000_000 + _SALT[workload],))
    return [int(x) for x in ss.generate_state(count)]


def input_dir(workload: str, seed: int, size: str) -> Path:
    return INPUTS / f"{workload}-{size}-seed{seed}"


def generate(workload: str, seed: int, size: str = "full") -> Path:
    """Write the inputs of one workload into a fresh directory and return it.

    The directory holds ``inputs.json`` (what the workload process loads)
    and, for tree workloads, the Newick files and the generator's trees.
    """
    spec = SIZES[size][workload]
    out = input_dir(workload, seed, size)
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    if workload == "segment-n80":
        pairs = []
        for k in range(spec["pairs"]):
            rng = input_stream(seed, workload, k)
            t1, t2 = draw_tree(spec["n"], 1.0, rng), draw_tree(spec["n"], 1.0, rng)
            names = []
            for tag, tree in (("a", t1), ("b", t2)):
                name = f"pair{k}{tag}.nwk"
                (out / name).write_text(tree.newick() + "\n")
                names.append(name)
            pairs.append({"t1": names[0], "t2": names[1],
                          "tree1": t1.to_json(), "tree2": t2.to_json()})
        inputs = {"pairs": pairs}
    elif workload in ("star-prob-n4", "nni-survey-n6"):
        inputs = {"n": spec["n"], "height": 1.0, "samples": spec["samples"],
                  "seeds": cli_seeds(seed, workload, spec["calls"])}
    elif workload == "newick-roundtrip":
        trees = []
        for n in spec["ns"]:
            for height in ROUNDTRIP_HEIGHTS:
                base = FIXED_SEED if height == FAILING_HEIGHT else seed
                for k in range(spec["per_cell"]):
                    rng = input_stream(base, workload, len(trees))
                    tree = draw_tree(n, height, rng)
                    trees.append({**tree.to_json(), "expect_fail": height == FAILING_HEIGHT})
        inputs = {"trees": trees}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (out / "inputs.json").write_text(json.dumps(inputs))
    return out


def ensure(workload: str, seed: int, size: str = "full") -> Path:
    """The input directory for (workload, seed), generated if absent."""
    out = input_dir(workload, seed, size)
    if (out / "inputs.json").exists():
        return out
    return generate(workload, seed, size)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)
    print(generate(args.workload, args.seed, args.size))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
