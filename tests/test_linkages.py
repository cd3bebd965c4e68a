"""The array routes of single linkage and of the NNI survey against the
routes that read one point, or draw one sample, at a time.

`_linkages._single_linkages` reads the clusters of a block of points in numpy
arrays (`_linkages.linkage`), and is the library's one reader from
distances to clusters.  The reference reads one point with the union-find
of `tree_walks.merge_runs` over the same run split and spanning tree, and
the two must agree bit for bit: the clusters with their heights (by
`float.hex`), the clade cut and the equidistance check.  The arrays'
equidistance check on the survey's draws must be that of
`_equidistance_error`, and the survey's block draws those of `sample_rng`
and `_schedule`, also where a Lemire rejection or a failed guard sends a
sample to the scalar route.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest

import tree_walks as walk
import troptree as tt
from troptree import (DEFAULT_TOL, SampleConfig, Ultrametric, _linkages, _streams,
                      check_nni_conjecture, parse_newick, random_equidistant_tree, sample_rng,
                      tropical_segment, ultrametric_of)
from troptree import trees, tropical
from troptree.newick import _merge_masks
from troptree.sim import _merges_of

TOL = DEFAULT_TOL
GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"


def point_oracle(labels, point, tol):
    """One point read on its own: its clusters with their heights, the
    clusters that the clade cut keeps, and the equidistance error of its
    schedule, or None."""
    n = len(labels)
    merges = walk.single_linkage(point, n, tol)
    lengths = trees._merge_lengths(n, merges)
    masks = _merge_masks([1 << (n - 1 - r) for r in range(n)], merges)
    clusters = sorted((masks[n + m], h.hex()) for m, (h, _) in enumerate(merges))
    kept = sorted(masks[k] for k in range(n, len(masks)) if lengths[k] > tol)
    error = trees._equidistance_error(labels, merges, lengths, tol)
    return clusters, kept, None if error is None else str(error)


def linkage_rows(linkage):
    """What `point_oracle` reads, for every row of a Linkage, but the
    error message: whether the check fails."""
    # a node's height is half its run's top
    for masks, heights, nodes, kept, unequal in zip(linkage.masks.tolist(),
                                                    (linkage.tops / 2.0).tolist(),
                                                    linkage.nodes.tolist(),
                                                    linkage.kept.tolist(),
                                                    linkage.unequal.tolist()):
        yield (sorted((m, h.hex()) for m, h, node in zip(masks, heights, nodes) if node),
               sorted(m for m, k in zip(masks, kept) if k), unequal)


def disagreements(labels, points, tol=TOL):
    """The points at which the arrays and the one-point route differ, the
    number of points and the number that fail the equidistance check."""
    linkage = _linkages._single_linkages(points, len(labels), tol)
    bad = []
    failing = 0
    for k, (got, point) in enumerate(zip(linkage_rows(linkage), points)):
        clusters, kept, error = point_oracle(labels, point, tol)
        failing += error is not None
        if got != (clusters, kept, error is not None):
            bad.append(k)
    return bad, len(points), failing


def segment_points(u, v, tol=TOL):
    """The bend points and the piece midpoints of the segment from v to u."""
    seg = tropical_segment(u.entries, v.entries, tol)
    return seg.bend_points + [seg.piece_midpoint(k) for k in range(seg.n_bends - 1)]


def sampled_pairs(ns, heights, seeds):
    for n, height, seed in itertools.product(ns, heights, seeds):
        rng = sample_rng(seed, n)
        # unchecked, so that heights at which the sums round apart pass
        yield tuple(ultrametric_of(random_equidistant_tree(n, height, rng), tol=np.inf)
                    for _ in range(2))


def grid_ultrametric(rng, n, scale):
    """An ultrametric whose node heights come from a coarse grid, plus
    offsets near tol: ties between runs, polytomies and runs near tol."""
    members = [[k] for k in range(n)]
    heights = [0.0] * n
    D = np.zeros((n, n))
    while len(members) > 1:
        picked = sorted(rng.choice(len(members), min(len(members), rng.integers(2, 4)),
                                   replace=False).tolist())
        h = max(max(heights[k] for k in picked), scale * rng.choice([0.1, 0.2, 0.3, 0.5, 0.8]))
        h += TOL * rng.choice([0.0, 0.25, 0.5, 1.0, 1.5, 3.0])
        for x, y in itertools.combinations(picked, 2):
            for a in members[x]:
                for b in members[y]:
                    D[a, b] = D[b, a] = 2 * h
        members = [m for k, m in enumerate(members) if k not in picked] + \
            [[m for k in picked for m in members[k]]]
        heights = [hk for k, hk in enumerate(heights) if k not in picked] + [h]
    return Ultrametric(tuple(str(k) for k in range(1, n + 1)), D[np.triu_indices(n, k=1)])


@pytest.mark.parametrize("height", [1e-3, 1.0, 1e3])
def test_clusters_match_merge_runs_on_sampled_segments(height):
    # every bend and piece midpoint of 108 segments at n = 3..20
    points = 0
    for u, v in sampled_pairs(range(3, 21), [height], range(6)):
        bad, count, _ = disagreements(u.labels, segment_points(u, v))
        assert bad == []
        points += count
    assert points > 2000


def test_clusters_match_merge_runs_on_grid_ties():
    rng = np.random.default_rng(16)
    points = 0
    for k in range(120):
        n = int(rng.integers(3, 13))
        scale = float(rng.choice([1e-3, 1.0, 1e3]))
        u, v = (grid_ultrametric(rng, n, scale) for _ in range(2))
        bad, count, _ = disagreements(u.labels, segment_points(u, v))
        assert bad == [], k
        points += count
    assert points > 1000


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_CLI.iterdir()))
def test_clusters_match_merge_runs_on_cli_goldens(name):
    u, v = (ultrametric_of(parse_newick((GOLDEN_CLI / name / f"t{k}.nwk").read_text()))
            for k in (1, 2))
    assert disagreements(u.labels, segment_points(u, v))[0] == []


def test_clusters_match_merge_runs_above_64_leaves():
    # masks wider than a word are Python ints
    (u, v), = sampled_pairs([70], [1.0], [0])
    linkage = _linkages._single_linkages(segment_points(u, v)[:40], 70, TOL)
    assert linkage.masks.dtype == object
    assert disagreements(u.labels, segment_points(u, v)[:40])[0] == []


@pytest.mark.parametrize("height", [1e7, 1e9])
def test_equidistance_check_matches_at_failing_heights(height):
    # the root-to-leaf sums of some bends round apart by more than tol
    failing = 0
    for u, v in sampled_pairs(range(4, 13), [height], range(4)):
        bad, _, count = disagreements(u.labels, segment_points(u, v))
        assert bad == []
        failing += count
    assert failing > 0


@pytest.mark.parametrize("height", [1.0, 1e7, 1e9])
def test_draw_equidistance_matches_equidistance_error(height):
    # the survey's check on its draws, in the float order of _node_depths
    flagged = 0
    for n in range(3, 13):
        labels = tuple(str(k) for k in range(1, n + 1))
        cfg = SampleConfig(n=n, height=height, samples=50, seed=n)
        _, heights, i, j = next(_streams.sample_blocks(cfg, 50))
        members = np.empty((len(heights), n - 1, n), dtype=bool)
        _streams.rows(n, heights, i, j, members)
        unequal = _linkages.unequal(_linkages.leaf_depths(heights, members)[0], TOL)
        for t in range(len(heights)):
            merges = _merges_of(n, heights[t].tolist(), i[t].tolist(), j[t].tolist())
            error = trees._equidistance_error(labels, merges, trees._merge_lengths(n, merges), TOL)
            assert unequal[t] == (error is not None), (n, t)
        flagged += int(unequal.sum())
    assert (flagged > 0) == (height > 1.0)


def spy_on_scalar_draws(monkeypatch):
    """The sample indices that the survey draws one at a time."""
    drawn = []
    scalar = _streams.sample_draw

    def spy(cfg, index):
        drawn.append(index)
        return scalar(cfg, index)

    monkeypatch.setattr(_streams, "sample_draw", spy)
    return drawn


@pytest.mark.parametrize("n, samples", [(5, 200), (6, 100)])
def test_survey_draws_nothing_one_at_a_time(n, samples, monkeypatch):
    # at odd n the second draw of a sample starts on the half word that the
    # first left: a block draw that dropped it would fail the guard
    drawn = spy_on_scalar_draws(monkeypatch)
    cfg = SampleConfig(n=n, samples=samples, seed=1)
    assert check_nni_conjecture(cfg).to_json() + "\n" == \
        (Path(__file__).parent / "golden" / f"nni_conjecture_n{n}_seed1.json").read_text()
    assert drawn == []


@pytest.mark.parametrize("n", [5, 6])
def test_survey_redraws_rejected_samples_one_at_a_time(n, monkeypatch):
    # zero words give every sample a rejected draw: the first pair draw has
    # bound n - 2, whose rejection threshold 2**32 mod (n - 1) is not 0;
    # samples 0, 5 and 12 get them, in blocks of 7, so the first sample of
    # a block is among them and the guard is skipped there
    cfg = SampleConfig(n=n, samples=20, seed=1)
    monkeypatch.setattr(tt.sim, "_survey_block_rows", lambda n: 7)
    want = check_nni_conjecture(cfg).to_json()
    keys, philox = _streams.keys, _streams.philox
    crafted = {0, 5, 12}
    indices = []

    def seen(seed, block):
        indices[:] = block.tolist()
        return keys(seed, block)

    def zeroed(key, blocks):
        words = philox(key, blocks)
        words[[k for k, index in enumerate(indices) if index in crafted]] = 0
        return words

    monkeypatch.setattr(_streams, "keys", seen)
    monkeypatch.setattr(_streams, "philox", zeroed)
    assert _streams.draws(np.zeros((1, _streams.words_per_sample(n)), dtype=np.uint64),
                          n, 1.0)[3].tolist() == [True]
    drawn = spy_on_scalar_draws(monkeypatch)
    assert check_nni_conjecture(cfg).to_json() == want
    assert drawn == sorted(crafted)


def test_survey_redraws_a_block_that_fails_its_guard(monkeypatch):
    # draws that differ in the last bit of every merge height, as a numpy
    # whose internals moved might give: every block fails its guard, and
    # the report is that of the scalar draws
    cfg = SampleConfig(n=7, samples=20, seed=3)
    monkeypatch.setattr(tt.sim, "_survey_block_rows", lambda n: 7)
    want = check_nni_conjecture(cfg).to_json()
    draws = _streams.draws

    def drifted(words, n, height):
        h, i, j, rejected = draws(words, n, height)
        return np.nextafter(h, np.inf), i, j, rejected

    monkeypatch.setattr(_streams, "draws", drifted)
    drawn = spy_on_scalar_draws(monkeypatch)
    assert check_nni_conjecture(cfg).to_json() == want
    assert drawn == list(range(20))


def test_bend_points_match_tropical_segment(monkeypatch):
    # one sort of the stacked v - u rows gives the bends of every segment,
    # and the default point reader of segment_linkages reads their points
    pairs = [p for p in sampled_pairs(range(3, 13), [1e-3, 1.0, 1e3], range(3)) if p[0].n == 8]
    u = np.stack([p[0].entries for p in pairs])
    v = np.stack([p[1].entries for p in pairs])
    segment, params, last = tropical._bend_parameters(u, v, TOL)
    read = []
    real = _linkages._single_linkages

    def spied(points, n, tol):
        read.append(points)
        return real(points, n, tol)

    monkeypatch.setattr(_linkages, "_single_linkages", spied)
    assert _linkages.segment_linkages(pairs[0][0].labels, u, v, TOL)[0].tolist() == segment.tolist()
    points = read[0]
    for s in range(len(u)):
        seg = tropical_segment(u[s], v[s], TOL)
        at = segment == s
        assert params[at].tobytes() == seg.bend_parameters.tobytes()
        assert points[at].tobytes() == np.stack(seg.bend_points).tobytes()
        assert last[at].tolist() == [False] * (seg.n_bends - 1) + [True]
