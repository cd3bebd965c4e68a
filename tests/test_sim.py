import gzip
import json
import math
from pathlib import Path

import numpy as np
import pytest

import troptree as tt
from troptree import (SampleConfig, check_nni_conjecture,
                      estimate_star_probability, random_equidistant_tree,
                      sample_rng, write_newick)


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(n=2)
    with pytest.raises(ValueError):
        SampleConfig(n=3, samples=0)
    with pytest.raises(ValueError):
        SampleConfig(n=3, height=0.0)
    with pytest.raises(ValueError):
        SampleConfig(n=3, model="other")


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
    pairs, degenerate, unresolved, n_topos = \
        tt.sim._binary_transitions(quartet_a, quartet_a, 1e-9)
    assert pairs == [] and degenerate == 0 and n_topos == 1


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
                row = np.array(tt.sim._ultrametric_row(n, height, sample_rng(seed, index)))
                tree = random_equidistant_tree(n, height, sample_rng(seed, index))
                assert row.tobytes() == tt.ultrametric_of(tree).entries.tobytes()


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
