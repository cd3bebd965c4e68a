"""Random equidistant trees and Monte Carlo experiments.

The sampling model (tagged ``coalescent-uniform-heights``) draws a ranked
topology by merging a uniformly random pair of lineages at each step and
assigns the n-2 non-root merge heights i.i.d. uniform(0, h), sorted, with
the root pinned at h.  Every draw is a binary equidistant tree of height
exactly h.

Each sample gets its own counter-based random stream keyed by
(seed, sample index), so runs are reproducible regardless of execution
order or parallelism.  The star-probability experiment draws the same
numbers for a block of samples at once (:mod:`troptree._streams`).
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import TropTreeError
from .newick import RootedTree, _newick_of_merges
from .trees import (Topology, _clade_table, _distances_of_merges, _equidistance_error,
                    _merge_lengths, _tree_of_clades, _tree_of_merges, nni_neighbors)
from .treespace import (Ultrametric, _invalid_distances, _segment_topologies,
                        _topology_sequence, _violating_triple, require_ultrametric,
                        star_crossings)
from .tropical import tropical_segment
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
        if self.height == math.inf:
            raise ValueError("height must be finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
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


@functools.lru_cache(maxsize=32)
def _pair_bounds(n: int) -> np.ndarray:
    """The inclusive bounds of :func:`_schedule`'s pair draws at n leaves:
    (k-2, k-1, 1) for each k = n, n-1, ..., 2."""
    bounds = np.array([(k - 2, k - 1, 1) for k in range(n, 1, -1)]).ravel()
    bounds.flags.writeable = False
    return bounds


def _schedule(n: int, height: float, rng: np.random.Generator,
              ) -> list[tuple[float, list[int]]]:
    """The sampling model's merge schedule, drawn from `rng`.  The block
    route of :mod:`troptree._streams` draws the same numbers from the same
    streams, and is checked against this.  The n-2 non-root heights are
    drawn first, sorted; then one pair per merge: lineages i < j of the
    current k are merged at height h into a new last lineage.  The schedule
    has the form of :func:`~troptree.trees._single_linkages`: (h, [node of
    i, node of j]) per merge, leaves are nodes 0..n-1 and the m-th merge
    makes node n + m.

    All the pairs come from one bounded-integer draw, three values per
    merge, and are the pairs ``sorted(rng.choice(k, 2, replace=False))``
    would give, leaving the stream where those calls would.  For a
    population of at most 10 000 without weights, ``choice`` runs Floyd's
    algorithm: a in [0, k-2], then b in [0, k-1], replaced by k-1 if it
    equals a, each from numpy's ``random_bounded_uint64``, and then one
    draw in [0, 1] that shuffles the two.  ``integers`` with an array of
    bounds makes those draws in that order from the same routine, which
    draws nothing for a bound of 0 (a at k = 2), as Floyd's does; the
    shuffle draw is spent and its value dropped, as the pair is sorted.
    ``tests/test_sim.py::test_schedule_matches_choice_oracle`` pins this
    against ``choice`` itself."""
    if n < 2:
        raise ValueError("need at least 2 leaves")
    if not height > 0:
        raise ValueError("height must be positive")
    heights = np.sort(rng.uniform(0.0, height, n - 2)).tolist() if n > 2 else []
    draws = rng.integers(0, _pair_bounds(n), endpoint=True).tolist()
    return _merges_of(n, heights + [height], draws[::3], draws[1::3])


def _merges_of(n: int, heights: Sequence[float], first: Sequence[int],
               second: Sequence[int]) -> list[tuple[float, list[int]]]:
    """The merge schedule of :func:`_schedule`'s draws at n leaves: each
    merge's height, and the lineages i and j of the current k that it
    merges, into a new last lineage.  If j equals i, j is k-1 (Floyd's
    algorithm); i and j are then taken in increasing order."""
    lineages = list(range(n))
    merges: list[tuple[float, list[int]]] = []
    for k, h, i, j in zip(range(n, 1, -1), heights, first, second):
        if j == i:
            j = k - 1
        elif j < i:
            i, j = j, i
        b = lineages.pop(j)
        a = lineages.pop(i)
        lineages.append(n + len(merges))
        merges.append((h, [a, b]))
    return merges


def random_equidistant_tree(n: int, height: float, rng: np.random.Generator,
                            labels: Sequence[str] | None = None) -> RootedTree:
    """One draw from the sampling model: a binary equidistant tree with the
    given height.  Default labels are "1" ... "n"."""
    if labels is None:
        return _tree_of_merges([str(i) for i in range(1, n + 1)], _schedule(n, height, rng))
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for n={n}")
    merges = _schedule(n, height, rng)
    return RootedTree._of_schedule(labels, [c for _, c in merges], _merge_lengths(n, merges))


def random_one_nni_pair(n: int, height: float, rng: np.random.Generator,
                        tol: float = DEFAULT_TOL) -> tuple[RootedTree, RootedTree]:
    """A random tree and a uniformly chosen NNI neighbor of it."""
    if n < 3:
        raise ValueError("need at least 3 leaves for an NNI move")
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
    labels = tuple(str(k) for k in range(1, n + 1))
    merges = _schedule(n, height, rng)
    t1 = _tree_of_merges(labels, merges)
    table = _clade_table(t1)
    proper = [c for c in table if c != (1 << n) - 1]
    clade = proper[int(rng.integers(len(proper)))]

    # the skeleton keeps the clade's leaf of smallest rank (its top bit) as
    # a stub, which every skeleton clade above it expands to the clade
    stub = 1 << (clade.bit_length() - 1)
    inside = [lab for r, lab in enumerate(labels) if clade >> (n - 1 - r) & 1]
    rest = [lab for r, lab in enumerate(labels) if not (clade ^ stub) >> (n - 1 - r) & 1]
    skeleton = _tree_of_merges(rest, _schedule(len(rest), height, rng))
    new_map = {(c | clade if c & stub else c): h
               for c, (h, _) in _clade_table(skeleton, labels).items()}

    # the smallest skeleton clade above the stub
    slot = new_map[min((c for c in new_map if c & stub), key=int.bit_count)]
    shared = _subtree_heights(n, merges, table, clade)
    top = max(shared.values())
    scale = (0.5 * slot / top) if top >= slot - 2 * tol else 1.0
    for c, h in shared.items():
        new_map[c] = h * scale
    return t1, _tree_of_clades(labels, new_map), tuple(inside)


def _subtree_heights(n: int, merges: list[tuple[float, list[int]]],
                     table: dict[int, tuple[float, list[int]]], clade: int) -> dict[int, float]:
    """The node heights of the subtree of a clade of the binary tree of a
    :func:`_schedule` (`table` is its :func:`~troptree.trees._clade_table`),
    as rebuilding the subtree from its distances gives them: each node at
    half the largest distance across it, re-read downward as
    :func:`~troptree.trees._clade_table` reads a tree.

    A leaf's distance to a node above it is a sum of branch lengths, added
    upward from the leaf as :func:`~troptree.trees.pairwise_distances` adds
    them.  Float addition is monotone, so the largest such sum through
    child c is ``h_c + l_c``, with h_c its height in `table` and l_c its
    branch, and the largest distance across a node is the sum of that for
    its two children.  This is the value that single linkage of the
    distances halves whenever the distances across different nodes of the
    clade are more than tol apart; closer ones it would merge into a
    polytomy, where this keeps the clade's binary shape."""
    lengths = _merge_lengths(n, merges)
    masks = [1 << (n - 1 - r) for r in range(n)]
    half = [0.0] * n                # each node's height in the rebuilt subtree
    read = [0.0] * n                # and its height read downward from it
    shared = {}
    for h, children in merges:
        mask = masks[children[0]] | masks[children[1]]
        masks.append(mask)
        half.append(0.0)
        read.append(0.0)
        if mask & ~clade:
            continue
        a, b = ((table[masks[c]][0] if c >= n else 0.0) + lengths[c] for c in children)
        half[-1] = (a + b) / 2.0
        for c in children:
            down = read[c] + max(half[-1] - half[c], 0.0)
            if down > read[-1]:
                read[-1] = down
        shared[mask] = read[-1]
    return shared


#: Entries per (u, v) block of the star-crossing test: 32768 floats, 256 KiB
#: per side, so memory stays flat at any sample count and any n.
_STAR_BLOCK_ENTRIES = 1 << 15

#: Samples per block at most.  The block draw holds about ten times its rows
#: in numpy arrays (0.6 MiB for 512 samples at n = 4), so at small n, where
#: the entries bound allows thousands of samples, this keeps a block under
#: 1 MiB; from n = 12 on the entries bound is the smaller.
_STAR_BLOCK_SAMPLES = 1 << 9


def _star_block_rows(n: int) -> int:
    """Samples per block of :func:`estimate_star_probability` at n leaves."""
    return max(1, min(_STAR_BLOCK_SAMPLES, _STAR_BLOCK_ENTRIES // (n * (n - 1) // 2)))


def estimate_star_probability(cfg: SampleConfig) -> ExperimentReport:
    """Draw pairs of random trees and count how often the segment between
    them passes through the star tree (the origin of the coordinates).

    The pairs are drawn straight into ultrametric rows a block of samples
    at a time (:func:`troptree._streams.star_rows`) and tested with the
    distance and height checks and the star test of
    :func:`star_on_segment`, raising what it raises.  The trees are
    equidistant by construction, so their depths are not re-checked."""
    # imported here, so that only star-probability runs load it
    from ._streams import star_rows
    start = time.perf_counter()
    block = _star_block_rows(cfg.n)
    hits = 0
    for first in range(0, cfg.samples, block):
        u, v = star_rows(cfg, first, min(block, cfg.samples - first))
        # the per-sample loop checks a sample's u before its v, and would
        # have height-checked every sample before the first invalid one
        faults = [f for f in (_invalid_distances(u), _invalid_distances(v)) if f is not None]
        bad = min(faults, key=lambda f: f[0], default=None)
        valid = len(u) if bad is None else bad[0]
        hits += int(np.count_nonzero(star_crossings(u[:valid], v[:valid])))
        if bad is not None:
            raise TropTreeError(bad[1])
    return ExperimentReport(
        experiment="star-prob", config=cfg, hits=hits,
        rate=hits / cfg.samples, wall_clock_sec=time.perf_counter() - start)


def _binary_transitions(seq: list[Topology]):
    """Consecutive pairs of distinct binary topologies along a segment's
    deduplicated topology sequence.  Degenerate (polytomy) topologies bound
    the binary runs and are not transition endpoints themselves; each must
    resolve against (be a contraction of) its binary neighbors."""
    binary: list[Topology] = []
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
    return list(zip(binary, binary[1:])), degenerate, unresolved


#: Bends per block of the NNI survey, counting n(n-1)/2 per segment, the
#: most a segment has.  A block's merge schedules and topologies take about
#: 2 KiB of Python objects per bend at small n, far more than its floats,
#: so this keeps a block near 1 MiB, while one batched single-linkage pass
#: still spreads numpy's per-call cost over hundreds of bends.
_SURVEY_BLOCK_BENDS = 1 << 9


def _survey_block_rows(n: int) -> int:
    """Samples per block of :func:`check_nni_conjecture` at n leaves."""
    return max(1, _SURVEY_BLOCK_BENDS // (n * (n - 1) // 2))


def _survey_block(cfg: SampleConfig, labels: tuple[str, ...], first: int, stop: int):
    """Samples first..stop-1 of the NNI survey, from their merge schedules,
    sample by sample: its index, its two draws' (merges, branch lengths)
    and the deduplicated topology sequence of their segment.

    Every check of the tree route runs, batched where it can be.  The
    equidistance of each draw, and positivity and the three-point condition
    on the stacked rows, give their first failing sample without raising.
    The samples before the earliest are yielded, and the checks of their
    segments and bends raise in sample order.  Then that sample runs its
    checks in the tree route's order (each draw's equidistance and then its
    distances, then the three-point condition on each), so the block raises
    what :func:`~troptree.treespace.tree_segment` raises for the first
    sample that fails."""
    n, tol = cfg.n, DEFAULT_TOL
    draws = []
    errors = []                 # each draw's equidistance error, or None
    rows = []
    for index in range(first, stop):
        rng = sample_rng(cfg.seed, index)
        pair = []
        for _ in range(2):
            merges = _schedule(n, cfg.height, rng)
            lengths = _merge_lengths(n, merges)
            errors.append(_equidistance_error(labels, merges, lengths, tol))
            pair.append((merges, lengths))
            rows.append(_distances_of_merges(n, merges, lengths))
        draws.append(pair)
    rows = np.array(rows)
    squares = np.concatenate((rows, np.zeros((len(rows), 1))), axis=1)[:, square_index(n)]
    faults = [_invalid_distances(rows), _violating_triple(squares, tol)]
    unequal = next((r for r, error in enumerate(errors) if error is not None), len(rows))
    bad = min([unequal] + [fault[0] for fault in faults if fault is not None]) // 2
    segments = [tropical_segment(rows[2 * k], rows[2 * k + 1], tol) for k in range(bad)]
    for index, pair, (_, _, bends, pieces) in zip(
            range(first, stop), draws, _segment_topologies(labels, segments, tol)):
        yield index, pair, _topology_sequence(bends, pieces)
    # the failing sample, if there is one
    for error, row in zip(errors[2 * bad:2 * bad + 2], rows[2 * bad:2 * bad + 2]):
        if error is not None:
            raise error
        Ultrametric._of_sorted(labels, row)     # the distance check of ultrametric_of
    for row in rows[2 * bad:2 * bad + 2]:
        require_ultrametric(Ultrametric._of_sorted(labels, row), tol)


def check_nni_conjecture(cfg: SampleConfig) -> ExperimentReport:
    """Draw pairs of random trees and test whether consecutive binary
    topologies along each segment differ by a single NNI move.  Each
    segment is computed once, at the default tolerance; a transition that
    fails the test is reported as a violation, with the Newick strings of
    the sample's two trees.

    The samples run in blocks of :func:`_survey_block_rows`, from their
    merge schedules: no tree is built, the bend points of all the segments
    of a block share one single-linkage pass, and the Newick strings are
    written from the schedules, only for samples with a violation.  The
    survey stops with the error, and the message, that the tree route
    raises for the first sample that fails (see :func:`_survey_block`)."""
    start = time.perf_counter()
    labels = tuple(str(k) for k in range(1, cfg.n + 1))
    total = 0
    single = 0
    degenerate_total = 0
    unresolved_total = 0
    histogram: dict[int, int] = {}
    violations: list[dict] = []
    block = _survey_block_rows(cfg.n)
    for first in range(0, cfg.samples, block):
        stop = min(first + block, cfg.samples)
        for index, pair, seq in _survey_block(cfg, labels, first, stop):
            pairs, degenerate, unresolved = _binary_transitions(seq)
            histogram[len(seq)] = histogram.get(len(seq), 0) + 1
            degenerate_total += degenerate
            unresolved_total += unresolved
            newicks = None
            for t_index, (topo_a, topo_b) in enumerate(pairs):
                total += 1
                if topo_a.one_nni_apart(topo_b):
                    single += 1
                    continue
                if newicks is None:
                    newicks = [_newick_of_merges(labels, merges, lengths, 10)
                               for merges, lengths in pair]
                violations.append({"sample": index, "transition": t_index,
                                   "t1": newicks[0], "t2": newicks[1]})
    return ExperimentReport(
        experiment="nni-conjecture", config=cfg,
        transitions_total=total, transitions_single_nni=single,
        transition_rate=(single / total) if total else 1.0,
        degenerate_boundaries=degenerate_total,
        unresolved_boundaries=unresolved_total,
        topology_count_histogram=histogram,
        violations=violations,
        wall_clock_sec=time.perf_counter() - start)
