import gzip
import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import tree_walks as walk
import troptree as tt
from troptree.cli import main
from troptree import (SampleConfig, check_nni_conjecture,
                      estimate_star_probability, random_equidistant_tree,
                      sample_rng, write_newick)


def oracle_transitions(t1, t2, tol):
    """The survey's per-sample tree route: consecutive pairs of distinct
    binary topologies along the segment of two trees, the degenerate
    topologies, those of them that resolve against neither binary
    neighbour, and the number of topologies."""
    seq = tt.topology_sequence(tt.tree_segment(t1, t2, tol))
    binary = []
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


def oracle_survey(cfg):
    """The NNI survey one sample at a time on the tree route: two trees
    drawn per sample, their segment, and Newick strings from the trees."""
    report = tt.ExperimentReport(experiment="nni-conjecture", config=cfg,
                                 transitions_total=0, transitions_single_nni=0,
                                 degenerate_boundaries=0, unresolved_boundaries=0,
                                 topology_count_histogram={})
    for index in range(cfg.samples):
        rng = sample_rng(cfg.seed, index)
        t1 = random_equidistant_tree(cfg.n, cfg.height, rng)
        t2 = random_equidistant_tree(cfg.n, cfg.height, rng)
        pairs, degenerate, unresolved, n_topos = oracle_transitions(t1, t2, tt.DEFAULT_TOL)
        hist = report.topology_count_histogram
        hist[n_topos] = hist.get(n_topos, 0) + 1
        report.degenerate_boundaries += degenerate
        report.unresolved_boundaries += unresolved
        for t_index, (a, b) in enumerate(pairs):
            report.transitions_total += 1
            if a.one_nni_apart(b):
                report.transitions_single_nni += 1
            else:
                report.violations.append({"sample": index, "transition": t_index,
                                          "t1": write_newick(t1), "t2": write_newick(t2)})
    total = report.transitions_total
    report.transition_rate = report.transitions_single_nni / total if total else 1.0
    return report


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(n=2)
    with pytest.raises(ValueError):
        SampleConfig(n=3, samples=0)
    with pytest.raises(ValueError):
        SampleConfig(n=3, height=0.0)
    with pytest.raises(ValueError):
        SampleConfig(n=3, model="other")
    with pytest.raises(ValueError, match="^seed must be non-negative$"):
        SampleConfig(n=3, seed=-1)


def test_random_tree_is_binary_equidistant_with_exact_height():
    for seed in range(20):
        rng = sample_rng(7, seed)
        n = 3 + seed % 8
        tree = random_equidistant_tree(n, 1.0, rng)
        assert tt.is_equidistant(tree)
        assert tree.height() == 1.0
        assert tt.topology_of(tree).is_binary
        assert tt.is_ultrametric(tt.ultrametric_of(tree).entries)


def test_random_tree_three_leaf_topologies_uniform():
    counts = {}
    draws = 3000
    for k in range(draws):
        tree = random_equidistant_tree(3, 1.0, sample_rng(123, k))
        key = tt.topology_of(tree).canonical_str()
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 3
    sigma = math.sqrt(draws * (1 / 3) * (2 / 3))
    for c in counts.values():
        assert abs(c - draws / 3) <= 4 * sigma


def test_random_tree_mean_internal_height():
    heights = []
    for k in range(2000):
        tree = random_equidistant_tree(3, 1.0, sample_rng(5, k))
        heights.append(min(tt.speciation_times(tree)))
    # single non-root height is uniform(0, 1): mean 1/2, var 1/12
    sigma = math.sqrt(1 / 12 / len(heights))
    assert abs(np.mean(heights) - 0.5) <= 4 * sigma


def test_reports_are_reproducible_modulo_timing():
    cfg = SampleConfig(n=4, samples=150, seed=99)
    a = estimate_star_probability(cfg)
    b = estimate_star_probability(cfg)
    assert a.to_json() == b.to_json()
    assert "wall_clock" not in a.to_json()
    assert "wall_clock_sec" in json.dumps(a.to_dict(include_timing=True))

    ca = check_nni_conjecture(SampleConfig(n=4, samples=40, seed=5))
    cb = check_nni_conjecture(SampleConfig(n=4, samples=40, seed=5))
    assert ca.to_json() == cb.to_json()


def test_star_probability_small_runs():
    zero = estimate_star_probability(SampleConfig(n=5, samples=400, seed=1))
    assert zero.hits == 0
    three = estimate_star_probability(SampleConfig(n=3, samples=400, seed=1))
    sigma = math.sqrt(400 * (2 / 3) * (1 / 3)) / 400
    assert abs(three.rate - 2 / 3) <= 4 * sigma
    four = estimate_star_probability(SampleConfig(n=4, samples=400, seed=1))
    assert four.rate > 0


def root_split_probabilities(n):
    """The probability of every root split of a coalescent-uniform-heights
    draw on leaves 0..n-1, in exact arithmetic, from its ranked histories:
    at each step a uniformly random pair of the current lineages merges."""
    splits = {}

    def merge(lineages, p):
        if len(lineages) == 2:
            split = frozenset(lineages)
            splits[split] = splits.get(split, 0) + p
            return
        pairs = list(itertools.combinations(range(len(lineages)), 2))
        for i, j in pairs:
            rest = [x for k, x in enumerate(lineages) if k not in (i, j)]
            merge(rest + [lineages[i] | lineages[j]], p / len(pairs))

    merge([frozenset([k]) for k in range(n)], Fraction(1))
    return splits


def exact_star_rate(n):
    """The probability that the segment between two independent draws
    passes through the star tree.  Both trees have height h and every other
    node lies below h (with probability 1), so a pair's distance is 2h
    exactly when its tree's root splits it.  The coordinate-wise maximum is
    constant, 2h, exactly when no pair is joined below the root in both."""
    splits = root_split_probabilities(n)
    assert sum(splits.values()) == 1

    def joined(split):
        return {pair for side in split for pair in itertools.combinations(sorted(side), 2)}

    return sum(p * q for a, p in splits.items() for b, q in splits.items()
               if not joined(a) & joined(b))


def test_star_rate_in_exact_arithmetic():
    # a root side of three leaves keeps two of them together in any split
    # of the other tree, so only splits into sides of at most two cross
    assert [exact_star_rate(n) for n in range(3, 7)] == \
        [Fraction(2, 3), Fraction(2, 27), 0, 0]


def test_star_hits_match_brute_force_on_three_leaves():
    # independent oracle: at equal heights, a 3-leaf segment crosses the
    # star exactly when the two topologies differ
    cfg = SampleConfig(n=3, samples=300, seed=17)
    report = estimate_star_probability(cfg)
    expected = 0
    for index in range(cfg.samples):
        rng = sample_rng(cfg.seed, index)
        t1 = random_equidistant_tree(3, 1.0, rng)
        t2 = random_equidistant_tree(3, 1.0, rng)
        if tt.topology_of(t1) != tt.topology_of(t2):
            expected += 1
    assert report.hits == expected


def test_conjecture_one_nni_pairs_always_single_move():
    total = 0
    for seed in range(60):
        t1, t2 = tt.random_one_nni_pair(4 + seed % 5, 1.0, sample_rng(31, seed))
        pairs_ok = tt.check_nni_theorem(t1, t2)
        assert pairs_ok
        seq = tt.topology_sequence(tt.tree_segment(t1, t2))
        binary = [t for t in seq if t.is_binary]
        for a, b in zip(binary, binary[1:]):
            if a != b:
                total += 1
    assert total > 0


def test_conjecture_identical_pair_has_no_transitions(quartet_a):
    seq = tt.topology_sequence(tt.tree_segment(quartet_a, quartet_a, 1e-9))
    pairs, degenerate, unresolved = tt.sim._binary_transitions(seq)
    assert pairs == [] and degenerate == 0 and len(seq) == 1
    assert oracle_transitions(quartet_a, quartet_a, 1e-9) == (pairs, degenerate, unresolved, 1)


def test_conjecture_report_fields():
    cfg = SampleConfig(n=5, samples=50, seed=2)
    report = check_nni_conjecture(cfg)
    assert report.transitions_total >= report.transitions_single_nni
    assert sum(report.topology_count_histogram.values()) == cfg.samples
    assert report.unresolved_boundaries == 0
    data = report.to_dict()
    assert data["config"]["model"] == tt.sim.MODEL_TAG


@pytest.mark.parametrize("height", [1e-3, 1.0, 1e3])
def test_ultrametric_row_matches_tree_route(height):
    # bit for bit, so that seeded reports do not depend on the route
    for n in range(2, 31):
        for seed in range(3):
            for index in range(4):
                merges = tt.sim._schedule(n, height, sample_rng(seed, index))
                lengths = tt.trees._merge_lengths(n, merges)
                row = np.array(tt.trees._distances_of_merges(n, merges, lengths))
                tree = random_equidistant_tree(n, height, sample_rng(seed, index))
                # 17 digits write every length exactly
                root = walk.parse_newick(write_newick(tree, 17))
                assert row.tobytes() == walk.pairwise_distances(root)[1].tobytes()


def _choice_schedule(n, height, rng):
    # the sampling model drawn with one Generator.choice call per merge
    heights = np.sort(rng.uniform(0.0, height, n - 2)).tolist() if n > 2 else []
    lineages = list(range(n))
    merges = []
    for k, h in zip(range(n, 1, -1), heights + [height]):
        i, j = sorted(rng.choice(k, size=2, replace=False).tolist())
        b = lineages.pop(j)
        a = lineages.pop(i)
        lineages.append(n + len(merges))
        merges.append((h, [a, b]))
    return merges


def test_schedule_matches_choice_oracle():
    # bit for bit, stream position included: the seeded goldens and every
    # seeded report rest on this, and a numpy release that changes how
    # choice draws breaks it here first
    sizes = [*range(2, 81), 400]
    heights = (1e-3, 1.0, 1e3)
    for seed in range(2 * len(sizes) * len(heights)):
        n = sizes[seed % len(sizes)]
        height = heights[seed // len(sizes) % len(heights)]
        ours, oracle = sample_rng(seed, n), sample_rng(seed, n)
        for _ in range(4):
            got, want = tt.sim._schedule(n, height, ours), _choice_schedule(n, height, oracle)
            assert [(h.hex(), p) for h, p in got] == [(h.hex(), p) for h, p in want], (n, seed)
        assert ours.random() == oracle.random()
        assert ours.integers(2**32) == oracle.integers(2**32)


def _crosses_star(n, seed, index):
    # the per-sample route: two trees, then star_on_segment
    rng = sample_rng(seed, index)
    t1 = random_equidistant_tree(n, 1.0, rng)
    t2 = random_equidistant_tree(n, 1.0, rng)
    return tt.star_on_segment(t1, t2)


def test_star_blocks_match_per_sample_loop():
    n = 4
    block = tt.sim._star_block_rows(n)
    assert block > 1
    # a seed whose samples on both sides of the first block boundary cross
    # the star, so a boundary sample lost or drawn from the wrong stream
    # changes the count
    seed = next(s for s in range(2000)
                if _crosses_star(n, s, block - 1) and _crosses_star(n, s, block))
    crossed = [_crosses_star(n, seed, k) for k in range(block + 1)]
    for samples in (1, block, block + 1):
        report = estimate_star_probability(SampleConfig(n=n, samples=samples, seed=seed))
        assert report.hits == sum(crossed[:samples])


@pytest.mark.parametrize("height", [1e-3, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_survey_matches_tree_route(n, height, monkeypatch):
    # blocks of 7 samples, so that 30 samples cross four block boundaries
    monkeypatch.setattr(tt.sim, "_survey_block_rows", lambda n: 7)
    for seed in (0, 1):
        cfg = SampleConfig(n=n, height=height, samples=30, seed=seed)
        assert check_nni_conjecture(cfg).to_json() == oracle_survey(cfg).to_json()


def test_survey_matches_tree_route_across_a_natural_block():
    block = tt.sim._survey_block_rows(9)
    assert 1 < block < 60
    cfg = SampleConfig(n=9, samples=block + 6, seed=3)
    report = check_nni_conjecture(cfg)
    assert report.violations and report.to_json() == oracle_survey(cfg).to_json()


@pytest.mark.parametrize("n, height, seed, samples", [
    (6, 1e7, 1, 100), (6, 1e9, 0, 100), (6, 5e-324, 0, 100),
    # the first failing sample fails the three-point condition, and a later
    # one in its block fails the equidistance of a draw, which the block
    # checks first
    (7, 1e7, 1, 100),
    # the first failing sample fails at a bend, a later one at a draw
    (5, 1e7, 3, 100),
    # only the equidistance check of a draw fails, or only the three-point
    # condition
    (6, 1e8, 4, 1), (7, 1e7, 4, 1),
    # the first draw's distances are not finite, and the second draw is not
    # equidistant: the tree route checks the first draw's distances first
    (6, 1e308, 2, 1),
    # the first failing sample names leaf '8'; a later one in its block fails
    # earlier in the order of the checks and names leaf '7'
    (8, 1e9, 5, 60),
    # the first sample fails at a bend of a segment large enough that the
    # tree route tries its candidate table first
    (16, 1e7, 5, 20),
])
def test_survey_errors_match_tree_route(n, height, seed, samples, capsys):
    cfg = SampleConfig(n=n, height=height, samples=samples, seed=seed)
    with pytest.raises(tt.TropTreeError) as expected:
        oracle_survey(cfg)
    code = main(["simulate", "nni-conjecture", "--n", str(n), "--height", repr(height),
                 "--samples", str(samples), "--seed", str(seed)])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.splitlines()[0] == f"error: {expected.value}"
    with pytest.raises(type(expected.value), match="^" + re.escape(str(expected.value)) + "$"):
        check_nni_conjecture(cfg)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, experiment, cfg", [
    ("nni_conjecture_n6_seed1.json", check_nni_conjecture,
     SampleConfig(n=6, samples=100, seed=1)),
    ("star_prob_n4_seed1.json", estimate_star_probability,
     SampleConfig(n=4, samples=2000, seed=1)),
    ("star_prob_n3_seed1.json", estimate_star_probability,
     SampleConfig(n=3, samples=2000, seed=1)),
    ("star_prob_n5_seed1.json", estimate_star_probability,
     SampleConfig(n=5, samples=2000, seed=1)),
    ("star_prob_n8_seed1.json", estimate_star_probability,
     SampleConfig(n=8, samples=2000, seed=1)),
])
def test_report_golden(name, experiment, cfg):
    # byte for byte; the survey holds 429 transitions, 390 single-NNI,
    # 39 violations and 429 degenerate boundaries
    assert experiment(cfg).to_json() + "\n" == (GOLDEN / name).read_text()


#: Seeded draws of the pair generators behind criteria 6 and 7, byte for
#: byte: for n = 4..31 at heights 1e-3, 1 and 1e3, one stream each, the
#: `random_one_nni_pair` and `random_shared_clade_pair` trees (Newick at 17
#: digits), the shared clade, the `speciation_times` of all four trees and
#: every `nni_neighbors` tree of the first.
DRAWS_GOLDEN = GOLDEN / "seeded_draws.txt.gz"


def seeded_draws() -> str:
    lines = []
    for n in range(4, 32):
        for index, height in enumerate((1e-3, 1.0, 1e3)):
            rng = sample_rng(n, index)
            t1, t2 = tt.random_one_nni_pair(n, height, rng)
            a, b, clade = tt.random_shared_clade_pair(n, height, rng)
            lines.append(f"n={n} height={height!r}")
            lines += [write_newick(t, 17) for t in (t1, t2, a, b)]
            lines.append(" ".join(clade))
            lines += [" ".join(map(repr, tt.speciation_times(t))) for t in (t1, t2, a, b)]
            lines += [write_newick(t, 17) for t in tt.nni_neighbors(t1)]
    return "\n".join(lines) + "\n"


def test_seeded_draws_golden():
    assert seeded_draws().encode() == gzip.decompress(DRAWS_GOLDEN.read_bytes())


def test_one_nni_pair_needs_three_leaves():
    rng = sample_rng(5, 0)
    for n in (0, 1, 2):
        with pytest.raises(ValueError, match="need at least 3 leaves for an NNI move"):
            tt.random_one_nni_pair(n, 1.0, rng)
    assert rng.random() == sample_rng(5, 0).random()
    # from three leaves up the check draws nothing: the pair is a sampler
    # tree and the neighbour that the next draw picks
    rng, again = sample_rng(5, 1), sample_rng(5, 1)
    t1, t2 = tt.random_one_nni_pair(3, 1.0, rng)
    want = random_equidistant_tree(3, 1.0, again)
    neighbors = tt.nni_neighbors(want)
    assert write_newick(t1, 17) == write_newick(want, 17)
    assert write_newick(t2, 17) == write_newick(neighbors[int(again.integers(len(neighbors)))], 17)
    assert rng.random() == again.random()
