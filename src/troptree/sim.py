"""Random equidistant trees and Monte Carlo experiments.

The sampling model (tagged ``coalescent-uniform-heights``) draws a ranked
topology by merging a uniformly random pair of lineages at each step and
assigns the n-2 non-root merge heights i.i.d. uniform(0, h), sorted, with
the root pinned at h.  Every draw is a binary equidistant tree of height
exactly h.

Each sample gets its own counter-based random stream keyed by
(seed, sample index), so runs are reproducible regardless of execution
order or parallelism.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import TropTreeError
from .newick import RootedTree, TreeNode, write_newick
from .trees import _clade_table, _tree_of_clades, nni_neighbors
from .treespace import (star_crossings, topology_sequence, tree_of,
                        tree_segment, ultrametric_of)
from .util import DEFAULT_TOL, square_index

MODEL_TAG = "coalescent-uniform-heights"


@dataclass(frozen=True)
class SampleConfig:
    """Configuration of one Monte Carlo experiment."""

    n: int
    height: float = 1.0
    samples: int = 1
    seed: int = 0
    model: str = MODEL_TAG

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 leaves")
        if self.samples < 1:
            raise ValueError("need at least 1 sample")
        if not self.height > 0:
            raise ValueError("height must be positive")
        if self.model != MODEL_TAG:
            raise ValueError(f"unknown sampling model {self.model!r}")


@dataclass
class ExperimentReport:
    """Aggregated result of a Monte Carlo experiment.

    `wall_clock_sec` is excluded from the serialized report by default so
    that identical configurations produce byte-identical output.
    """

    experiment: str
    config: SampleConfig
    hits: int | None = None
    rate: float | None = None
    transitions_total: int | None = None
    transitions_single_nni: int | None = None
    transition_rate: float | None = None
    degenerate_boundaries: int | None = None
    unresolved_boundaries: int | None = None
    topology_count_histogram: dict[int, int] | None = None
    violations: list[dict] = field(default_factory=list)
    wall_clock_sec: float = 0.0

    def to_dict(self, include_timing: bool = False) -> dict:
        out: dict = {
            "experiment": self.experiment,
            "config": {
                "n": self.config.n,
                "height": self.config.height,
                "samples": self.config.samples,
                "seed": self.config.seed,
                "model": self.config.model,
            },
        }
        if self.hits is not None:
            out["hits"] = self.hits
            out["rate"] = self.rate
        if self.transitions_total is not None:
            out["transitions_total"] = self.transitions_total
            out["transitions_single_nni"] = self.transitions_single_nni
            out["transition_rate"] = self.transition_rate
            out["degenerate_boundaries"] = self.degenerate_boundaries
            out["unresolved_boundaries"] = self.unresolved_boundaries
            out["topology_count_histogram"] = {
                str(k): v for k, v in sorted(self.topology_count_histogram.items())}
            out["violations"] = self.violations
        if include_timing:
            out["wall_clock_sec"] = self.wall_clock_sec
        return out

    def to_json(self, include_timing: bool = False, indent: int = 2) -> str:
        return json.dumps(self.to_dict(include_timing), sort_keys=True, indent=indent)


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based random stream for sample `index` of run `seed`."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


def _merges(n: int, height: float, rng: np.random.Generator):
    """The sampling model's merge schedule, and the only code that draws
    its random numbers: (i, j, h) per merge, meaning that lineages i < j of
    the current k are merged at height h into a new last lineage.  The
    n-2 non-root heights are drawn first, sorted; then one pair per merge."""
    heights = np.sort(rng.uniform(0.0, height, n - 2)).tolist() if n > 2 else []
    for k, h in zip(range(n, 1, -1), heights + [height]):
        i, j = sorted(rng.choice(k, size=2, replace=False).tolist())
        yield i, j, h


def random_equidistant_tree(n: int, height: float, rng: np.random.Generator,
                            labels: Sequence[str] | None = None) -> RootedTree:
    """One draw from the sampling model: a binary equidistant tree with the
    given height.  Default labels are "1" ... "n"."""
    if n < 2:
        raise ValueError("need at least 2 leaves")
    if not height > 0:
        raise ValueError("height must be positive")
    if labels is None:
        labels = [str(i) for i in range(1, n + 1)]
    else:
        labels = list(labels)
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for n={n}")

    nodes = [TreeNode(label=lab) for lab in labels]
    node_heights = [0.0] * n
    for i, j, h in _merges(n, height, rng):
        b = nodes.pop(j)
        a = nodes.pop(i)
        hb = node_heights.pop(j)
        ha = node_heights.pop(i)
        a.length = h - ha
        b.length = h - hb
        nodes.append(TreeNode(children=[a, b]))
        node_heights.append(h)
    return RootedTree(nodes[0])


def _ultrametric_row(n: int, height: float, rng: np.random.Generator) -> list[float]:
    """One draw from the sampling model as its condensed ultrametric over
    the default labels: bit for bit
    ``ultrametric_of(random_equidistant_tree(n, height, rng)).entries``.
    Each leaf keeps its depth below the newest node above it, grown by
    ``h - h_child`` per merge and summed pairwise, in the order in which
    :func:`~troptree.trees.pairwise_distances` adds the tree's lengths."""
    index = square_index(n).tolist()
    row = [0.0] * (n * (n - 1) // 2)
    depth = [0.0] * n
    members = [[k] for k in range(n)]
    tops = [0.0] * n
    for i, j, h in _merges(n, height, rng):
        b, hb = members.pop(j), tops.pop(j)
        a, ha = members.pop(i), tops.pop(i)
        for group, step in ((a, h - ha), (b, h - hb)):
            for x in group:
                depth[x] += step
        for x in a:
            dx, at = depth[x], index[x]
            for y in b:
                row[at[y]] = dx + depth[y]
        members.append(a + b)
        tops.append(h)
    return row


def random_one_nni_pair(n: int, height: float, rng: np.random.Generator,
                        tol: float = DEFAULT_TOL) -> tuple[RootedTree, RootedTree]:
    """A random tree and a uniformly chosen NNI neighbor of it."""
    t1 = random_equidistant_tree(n, height, rng)
    nbrs = nni_neighbors(t1, tol)
    return t1, nbrs[int(rng.integers(len(nbrs)))]


def random_shared_clade_pair(n: int, height: float, rng: np.random.Generator,
                             tol: float = DEFAULT_TOL,
                             ) -> tuple[RootedTree, RootedTree, tuple[str, ...]]:
    """Two random trees sharing one clade with an identical induced
    topology (the shared subtree is rescaled to fit the second tree, which
    preserves its topology)."""
    if n < 4:
        raise ValueError("need at least 4 leaves to share a proper clade")
    t1 = random_equidistant_tree(n, height, rng)
    labels = t1.leaf_labels
    proper = [c for c in _clade_table(t1) if c != (1 << n) - 1]
    clade = proper[int(rng.integers(len(proper)))]

    # the skeleton keeps the clade's leaf of smallest rank (its top bit) as
    # a stub, which every skeleton clade above it expands to the clade
    stub = 1 << (clade.bit_length() - 1)
    inside = [lab for r, lab in enumerate(labels) if clade >> (n - 1 - r) & 1]
    rest = [lab for r, lab in enumerate(labels) if not (clade ^ stub) >> (n - 1 - r) & 1]
    skeleton = random_equidistant_tree(len(rest), height, rng, labels=rest)
    new_map = {(c | clade if c & stub else c): h
               for c, (h, _) in _clade_table(skeleton, labels).items()}

    # the smallest skeleton clade above the stub
    slot = new_map[min((c for c in new_map if c & stub), key=int.bit_count)]
    shared = _clade_table(tree_of(ultrametric_of(t1, tol).restrict(inside), tol), labels)
    top = max(h for h, _ in shared.values())
    scale = (0.5 * slot / top) if top >= slot - 2 * tol else 1.0
    for c, (h, _) in shared.items():
        new_map[c] = h * scale
    return t1, _tree_of_clades(labels, new_map), tuple(inside)


#: Entries per (u, v) block of the star-crossing test: 32768 floats, 256 KiB
#: per side, so memory stays flat at any sample count and any n.
_STAR_BLOCK_ENTRIES = 1 << 15


def _star_block_rows(n: int) -> int:
    """Samples per block of :func:`estimate_star_probability` at n leaves."""
    return max(1, _STAR_BLOCK_ENTRIES // (n * (n - 1) // 2))


def estimate_star_probability(cfg: SampleConfig) -> ExperimentReport:
    """Draw pairs of random trees and count how often the segment between
    them passes through the star tree (the origin of the coordinates).

    The pairs are drawn straight into ultrametric rows and tested a block
    at a time, with the positivity and height checks and the star test of
    :func:`star_on_segment`, raising what it raises.  The trees are
    equidistant by construction, so their depths are not re-checked."""
    start = time.perf_counter()
    e = cfg.n * (cfg.n - 1) // 2
    block = _star_block_rows(cfg.n)
    hits = 0
    for first in range(0, cfg.samples, block):
        rows = min(block, cfg.samples - first)
        u = np.empty((rows, e))
        v = np.empty((rows, e))
        for r in range(rows):
            rng = sample_rng(cfg.seed, first + r)
            u[r] = _ultrametric_row(cfg.n, cfg.height, rng)
            v[r] = _ultrametric_row(cfg.n, cfg.height, rng)
        positive = (u > 0).all(axis=1) & (v > 0).all(axis=1)
        valid = rows if positive.all() else int(np.argmin(positive))
        # rows before the first non-positive one are height-checked first,
        # as the per-sample loop would have reached them first
        hits += int(np.count_nonzero(star_crossings(u[:valid], v[:valid])))
        if valid < rows:
            raise TropTreeError("all pairwise distances must be positive")
    return ExperimentReport(
        experiment="star-prob", config=cfg, hits=hits,
        rate=hits / cfg.samples, wall_clock_sec=time.perf_counter() - start)


def _binary_transitions(t1: RootedTree, t2: RootedTree, tol: float):
    """Consecutive pairs of distinct binary topologies along the segment.
    Degenerate (polytomy) topologies bound the binary runs and are not
    transition endpoints themselves; each must resolve against (be a
    contraction of) its binary neighbors."""
    seq = topology_sequence(tree_segment(t1, t2, tol))
    binary: list = []
    degenerate = 0
    unresolved = 0
    for k, topo in enumerate(seq):
        if not topo.is_binary:
            degenerate += 1
            for nb in seq[k - 1:k] + seq[k + 1:k + 2]:
                if nb.is_binary and not topo.is_contraction_of(nb):
                    unresolved += 1
        elif not binary or binary[-1] != topo:
            binary.append(topo)
    return list(zip(binary, binary[1:])), degenerate, unresolved, len(seq)


def check_nni_conjecture(cfg: SampleConfig) -> ExperimentReport:
    """Draw pairs of random trees and test whether consecutive binary
    topologies along each segment differ by a single NNI move.  Each
    segment is computed once, at the default tolerance; a transition that
    fails the test is reported as a violation."""
    start = time.perf_counter()
    total = 0
    single = 0
    degenerate_total = 0
    unresolved_total = 0
    histogram: dict[int, int] = {}
    violations: list[dict] = []
    for index in range(cfg.samples):
        rng = sample_rng(cfg.seed, index)
        t1 = random_equidistant_tree(cfg.n, cfg.height, rng)
        t2 = random_equidistant_tree(cfg.n, cfg.height, rng)
        pairs, degenerate, unresolved, n_topos = _binary_transitions(
            t1, t2, DEFAULT_TOL)
        histogram[n_topos] = histogram.get(n_topos, 0) + 1
        degenerate_total += degenerate
        unresolved_total += unresolved
        for t_index, (topo_a, topo_b) in enumerate(pairs):
            total += 1
            if topo_a.one_nni_apart(topo_b):
                single += 1
            else:
                violations.append({
                    "sample": index,
                    "transition": t_index,
                    "t1": write_newick(t1),
                    "t2": write_newick(t2),
                })
    return ExperimentReport(
        experiment="nni-conjecture", config=cfg,
        transitions_total=total, transitions_single_nni=single,
        transition_rate=(single / total) if total else 1.0,
        degenerate_boundaries=degenerate_total,
        unresolved_boundaries=unresolved_total,
        topology_count_histogram=histogram,
        violations=violations,
        wall_clock_sec=time.perf_counter() - start)
