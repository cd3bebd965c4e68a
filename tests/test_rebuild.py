"""The single-linkage rebuild and the bitmask topologies against reference
implementations kept here: the all-pairs merge loop that `agglomerate`
replaced, a canonical clade order computed from label sets, the tree route
to a topology and to a Newick string that the merge-schedule routes replaced
along segments, and the midpoint pass that piece topologies read from their
bends replaced."""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_walks as walk
from troptree import (DEFAULT_TOL, NotEquidistantError, SampleConfig, Topology,
                      TreeSegment, Ultrametric, check_nni_conjecture, parse_newick,
                      random_equidistant_tree, sample_rng, structurally_equal,
                      topology_of, topology_sequence, tree_segment, ultrametric_of)
from troptree import _linkages, trees
from troptree.cli import main
from troptree.newick import RootedTree, TreeNode, _newick_of_merges
from troptree.trees import (_equidistance_error, _merge_lengths, _topology_of_merges,
                            agglomerate)
from troptree.util import natural_key, sorted_labels

TOL = DEFAULT_TOL
#: offsets that put node heights on either side of the tolerance
NEAR_TOL = (0.0, 0.25 * TOL, 0.5 * TOL, 0.75 * TOL, TOL, 1.5 * TOL, 3 * TOL)


def tol_groups(sorted_values, tol):
    start = 0
    for k in range(1, len(sorted_values)):
        if sorted_values[k] - sorted_values[k - 1] > tol:
            yield start, k
            start = k
    if len(sorted_values) > 0:
        yield start, len(sorted_values)


def all_pairs_agglomerate(labels, dists, tol):
    """The rebuild before it used a spanning tree: every pair, in ascending
    distance order, joins its two components; distance runs with gaps <=
    tol merge at half the run's largest value."""
    n = len(labels)
    pairs = list(itertools.combinations(labels, 2))
    order = np.argsort(dists, kind="stable")
    svals = dists[order]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    pos = {lab: k for k, lab in enumerate(labels)}
    comp_node = {k: TreeNode(label=lab) for k, lab in enumerate(labels)}
    comp_height = {k: 0.0 for k in range(n)}
    for start, stop in tol_groups(svals, tol):
        height = float(svals[stop - 1]) / 2.0
        merged_into = {}
        for k in order[start:stop]:
            a, b = pairs[int(k)]
            ra, rb = find(pos[a]), find(pos[b])
            if ra == rb:
                continue
            parent[rb] = ra
            group = merged_into.setdefault(ra, [ra])
            if rb in merged_into:
                group.extend(merged_into.pop(rb))
            else:
                group.append(rb)
        for new_root, members in merged_into.items():
            children = [comp_node[m] for m in members]
            for m, child in zip(members, children):
                child.length = max(height - comp_height[m], 0.0)
            node = TreeNode(children=children)
            for m in members:
                comp_node.pop(m, None)
                comp_height.pop(m, None)
            comp_node[new_root] = node
            comp_height[new_root] = height
    return RootedTree(comp_node[find(0)])


@st.composite
def ultrametrics(draw, n=st.integers(3, 40), scale=1.0, offsets=NEAR_TOL):
    """A random ultrametric on n leaves, built by merging clusters at
    heights drawn from a coarse grid scaled by `scale` (ties) plus
    `offsets` (by default around tol)."""
    n = draw(n)
    members = [[k] for k in range(n)]
    heights = [0.0] * n
    D = np.zeros((n, n))
    while len(members) > 1:
        size = draw(st.integers(2, min(3, len(members))))
        picked = sorted(draw(st.lists(st.integers(0, len(members) - 1),
                                      min_size=size, max_size=size, unique=True)))
        floor = max(heights[k] for k in picked)
        h = max(floor, scale * draw(st.sampled_from((0.1, 0.2, 0.3, 0.5, 0.8))))
        h += draw(st.sampled_from(offsets))
        for x, y in itertools.combinations(picked, 2):
            for a in members[x]:
                for b in members[y]:
                    D[a, b] = D[b, a] = 2 * h
        merged = [m for k in picked for m in members[k]]
        members = [m for k, m in enumerate(members) if k not in picked] + [merged]
        heights = [hk for k, hk in enumerate(heights) if k not in picked] + [h]
    return n, D[np.triu_indices(n, k=1)]


@settings(max_examples=150, deadline=None)
@given(case=ultrametrics())
def test_agglomerate_matches_all_pairs_loop(case):
    n, dists = case
    labels = [str(k) for k in range(1, n + 1)]
    tree = agglomerate(labels, dists)
    assert structurally_equal(tree, all_pairs_agglomerate(labels, dists, TOL))
    assert topology_of(tree).canonical_str() == reference_canonical_str(tree)


@st.composite
def distance_vectors(draw):
    """An arbitrary distance vector on n leaves, from a grid with gaps on
    either side of tol."""
    n = draw(st.integers(2, 12))
    grid = st.sampled_from((1.0, 1.0 + TOL / 2, 1.0 + 2 * TOL, 2.0, 3.0, 3.0 + TOL))
    dists = draw(st.lists(grid, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    return n, np.array(dists)


@settings(max_examples=60, deadline=None)
@given(case=distance_vectors())
def test_agglomerate_matches_all_pairs_loop_on_any_distances(case):
    # the spanning-tree argument holds for every distance vector, not only
    # for ultrametrics
    n, dists = case
    labels = [f"S{k}" for k in range(1, n + 1)]
    assert structurally_equal(agglomerate(labels, dists),
                              all_pairs_agglomerate(labels, dists, TOL))


def outcome(build):
    """What a topology builder returns, or the type and message it raises."""
    try:
        return build()
    except ValueError as exc:
        return type(exc), str(exc)


def merge_topology(labels, dists, tol=TOL):
    """The topology read from the single-linkage merges of `dists`, one
    vector at a time (`tree_walks.merge_runs`)."""
    merges = walk.single_linkage(dists, len(labels), tol)
    return _topology_of_merges(tuple(labels), merges, _merge_lengths(len(labels), merges), tol)


def assert_merge_topology_matches_tree_route(labels, dists, tol=TOL):
    merged = outcome(lambda: merge_topology(labels, dists, tol))
    assert merged == outcome(lambda: topology_of(agglomerate(labels, dists, tol), tol))


@settings(max_examples=150, deadline=None)
@given(case=ultrametrics(), height=st.sampled_from((1e-3, 1.0, 1e3)))
def test_merge_topology_matches_tree_route(case, height):
    n, dists = case
    assert_merge_topology_matches_tree_route(
        [str(k) for k in range(1, n + 1)], dists * height)


@settings(max_examples=100, deadline=None)
@given(case=distance_vectors(), height=st.sampled_from((1e-3, 1.0, 1e3)))
def test_merge_topology_matches_tree_route_on_any_distances(case, height):
    n, dists = case
    assert_merge_topology_matches_tree_route(
        [f"S{k}" for k in range(1, n + 1)], dists * height)


def test_merge_topology_raises_what_the_tree_route_raises():
    # at height 1e9 the branch lengths' sums round apart by more than tol
    labels = ("1", "2", "3", "4")
    dists = np.array([2e9, 2e9, 2e9, 15391826.52607618, 841289020.0374248,
                      841289020.0374248])
    merged = outcome(lambda: merge_topology(labels, dists))
    assert merged[0] is NotEquidistantError
    assert_merge_topology_matches_tree_route(labels, dists)
    # one leaf: no topology either way
    assert_merge_topology_matches_tree_route(("1",), np.empty(0))


def test_merge_topology_drops_a_branch_of_exactly_tol():
    # the cherry's branch, 0.75 - 0.5, is exactly tol: not kept
    dists = np.array([1.0, 1.5, 1.5])
    topo = merge_topology(("1", "2", "3"), dists, 0.25)
    assert topo.is_star
    assert_merge_topology_matches_tree_route(("1", "2", "3"), dists, tol=0.25)


GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"


def midpoint_topology(seg, k):
    """Piece k's topology read from the single-linkage merges of its
    midpoint, as every piece's was before it was read from its bends."""
    return merge_topology(seg.u.labels, seg.segment.piece_midpoint(k), seg.tol)


def counted_calls(monkeypatch, modules):
    """Count the calls of each name of each module, by name."""
    calls = {name: 0 for names in modules.values() for name in names}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for module, names in modules.items():
        for name in names:
            monkeypatch.setattr(module, name, counted(module, name))
    return calls


def test_segment_builds_trees_only_for_output(monkeypatch):
    calls = counted_calls(monkeypatch, {trees: ("agglomerate", "_tree_of_merges", "_clade_merges"),
                                        _linkages: ("_single_linkages",)})
    check_nni_conjecture(SampleConfig(n=6, samples=20, seed=1))
    # one batched single-linkage pass per block of samples (20 samples fit
    # in one) and no tree
    assert calls == {"agglomerate": 0, "_single_linkages": 1, "_tree_of_merges": 0,
                     "_clade_merges": 0}
    calls.update(dict.fromkeys(calls, 0))
    rng = sample_rng(5, 0)
    seg = tree_segment(random_equidistant_tree(12, 1.0, rng),
                       random_equidistant_tree(12, 1.0, rng))
    topology_sequence(seg)
    seg.to_csv()
    seg.bend_newicks(10)
    # no distance values near tol apart: no piece needs a midpoint pass
    assert calls == {"agglomerate": 0, "_single_linkages": 1, "_tree_of_merges": 0,
                     "_clade_merges": 0}
    assert len(seg.bend_trees) == seg.n_bends
    # one tree per bend, from a merge schedule made for it then
    assert calls["_tree_of_merges"] == calls["_clade_merges"] == seg.n_bends

    # a pair with node heights 0.5 and 1.5 tol apart: some pieces need a
    # midpoint pass (one more batched call, over their midpoints); output
    # builds no tree
    folder = [str(GOLDEN_CLI / "tolgaps_height_n8" / f"t{k}.nwk") for k in (1, 2)]
    for fmt in ("csv", "newick", "json"):
        calls.update(dict.fromkeys(calls, 0))
        assert main(["segment", *folder, "--format", fmt]) == 0
        assert calls == {"agglomerate": 0, "_single_linkages": 2, "_tree_of_merges": 0,
                         "_clade_merges": 0}


def test_fallback_pieces_of_a_pair_with_gaps_near_tol(monkeypatch):
    # node heights 0.5 and 1.5 tol apart: the union of the bends' clades is
    # not what the midpoint pass reads on some piece, and a midpoint pass
    # runs there
    t1, t2 = (parse_newick((GOLDEN_CLI / "tolgaps_height_n8" / f"t{k}.nwk").read_text())
              for k in (1, 2))
    passes = []
    batched = _linkages._single_linkages

    def spy(points, n, tol):
        passes.append(len(points))
        return batched(points, n, tol)

    monkeypatch.setattr(_linkages, "_single_linkages", spy)
    seg = tree_segment(t1, t2)
    # one pass over the bends, one over the midpoints of some pieces
    bends, fallback = passes
    assert bends == seg.n_bends
    assert 0 < fallback <= len(seg.piece_topologies)
    reference = [midpoint_topology(seg, k) for k in range(len(seg.piece_topologies))]
    assert seg.piece_topologies == reference
    unions = [Topology._of_masks(seg.u.labels, a.masks | b.masks)
              for a, b in zip(seg.bend_topologies, seg.bend_topologies[1:])]
    assert unions != reference


def test_piece_next_to_a_wide_run_reads_its_midpoint():
    # one piece: leaves 1-3 keep their distances, those of leaves 4-8 grow
    # by 10 tol.  At both bends the cherry {1,2} lies in a run of values 0,
    # 0.9, 1.7 and 2.2 tol above 1, which hides it; at the midpoint the
    # values of 4-8 have moved away and it is a branch of 1.1 tol
    labels = tuple(str(k) for k in range(1, 9))

    def ultrametric(shift):
        D = np.full((8, 8), 4.0)
        for clade, value in (((4, 5, 6, 7, 8), 1.0 + 1.7 * TOL), ((4, 5, 6, 7), 1.0 + 0.9 * TOL),
                             ((4, 5, 6), 1.0 - 8.3 * TOL), ((4, 5), 1.0 - 9.1 * TOL),
                             ((1, 2, 3), 1.0 + 2.2 * TOL - shift), ((1, 2), 1.0 - shift)):
            at = np.array(clade) - 1
            D[np.ix_(at, at)] = value
        return Ultrametric(labels, D[np.triu_indices(8, k=1)])

    v, u = ultrametric(0.0), ultrametric(10 * TOL)
    seg = TreeSegment(u, v, TOL)
    assert seg.n_bends == 2
    cherry = frozenset({"1", "2"})
    assert all(cherry not in bend.clades for bend in seg.bend_topologies)
    assert seg.piece_topologies == [midpoint_topology(seg, 0)]
    assert cherry in seg.piece_topologies[0].clades


@st.composite
def ultrametric_pairs(draw):
    """Two ultrametrics on the same n leaves, from a grid scaled by 1e-3, 1
    or 1e3 (ties), in half the pairs plus offsets around tol that are not
    scaled (most pieces of those pairs get a midpoint pass)."""
    n = draw(st.integers(3, 12))
    scale = draw(st.sampled_from((1e-3, 1.0, 1e3)))
    offsets = draw(st.sampled_from((NEAR_TOL, (0.0,))))
    u = draw(ultrametrics(n=st.just(n), scale=scale, offsets=offsets))[1]
    v = draw(ultrametrics(n=st.just(n), scale=scale, offsets=offsets))[1]
    return n, u, v


@settings(max_examples=300, deadline=None)
@given(case=ultrametric_pairs())
def test_piece_topologies_match_midpoint_pass(case):
    n, u, v = case
    labels = tuple(str(k) for k in range(1, n + 1))
    u, v = Ultrametric(labels, u), Ultrametric(labels, v)
    seg = TreeSegment(u, v, TOL)
    disagreements = [k for k in range(len(seg.piece_topologies))
                     if seg.piece_topologies[k] != midpoint_topology(seg, k)]
    assert disagreements == []


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(ultrametrics(), distance_vectors()),
       height=st.sampled_from((1e-3, 1.0, 1e3)))
def test_newick_of_merges_matches_tree_route(case, height):
    # labels whose natural order differs from their string order
    n, dists = case
    labels = tuple(f"t{k}" for k in range(1, n + 1))
    merges = walk.single_linkage(dists * height, n, TOL)
    lengths = _merge_lengths(n, merges)
    for precision in (3, 10, 17):
        assert _newick_of_merges(labels, merges, lengths, precision) == \
            walk.write_newick(walk.nodes_of_merges(labels, merges), precision)


def test_schedule_equidistance_checks_the_lengths_it_is_given():
    # heights that telescope, branch lengths that do not: leaf 2's depth is
    # 0.8, not 1, so the schedule is not equidistant whatever its heights say
    labels = ("1", "2", "3")
    merges = [(0.5, [0, 1]), (1.0, [2, 3])]
    lengths = [0.5, 0.3, 1.0, 0.5, 0.0]
    root = TreeNode(children=[
        TreeNode(length=0.5, children=[TreeNode("1", 0.5), TreeNode("2", 0.3)]),
        TreeNode("3", 1.0)])
    with pytest.raises(NotEquidistantError) as want:
        walk.require_equidistant(root, TOL)
    with pytest.raises(NotEquidistantError) as got:
        _topology_of_merges(labels, merges, lengths, TOL)
    for error in (_equidistance_error(labels, merges, lengths, TOL), got.value):
        assert str(error) == str(want.value) == ("tree is not equidistant: leaf '2' has "
                                                 "depth 0.8, expected 1 (off by 0.2, tol 1e-09)")
        assert error.leaf == want.value.leaf == "2"


def reference_canonical_str(tree):
    """Clades as label sets, read from the tree's schedule: the root and
    every internal node whose branch exceeds tol, sorted by size and then by
    their members' natural keys."""
    return walk.canonical_str(tree.leaf_labels, tree.merges, tree.lengths, TOL)


def writer_rows(n, labels, rng):
    """Distance rows over n leaves for one canonical writer: two random
    trees, a caterpillar whose runs lie 1.5 tol and 6 tol apart (so some
    of its clades fall to the clade cut and some do not), and a star."""
    rows = [ultrametric_of(random_equidistant_tree(n, 1.0, rng)).entries for _ in range(2)]
    steps = [1.5 * TOL if k % 2 else 6 * TOL for k in range(n)]
    tops = 1.0 + np.cumsum(steps)
    first, second = np.triu_indices(n, k=1)
    rows.append(tops[second])       # leaf j joins leaves 0..j-1 at tops[j] / 2
    rows.append(np.full(n * (n - 1) // 2, 2.0))
    return [Ultrametric(labels, row) for row in rows]


@pytest.mark.parametrize("n", [*range(3, 13), 63, 64, 65, 80, 130])
def test_canonical_writer_matches_label_set_reference(n):
    # one writer over several rows, written whole and a row at a time:
    # masks are uint64 up to 64 leaves and Python ints above, labels sort
    # naturally ("t2" before "t10"), and the star row keeps no clade
    labels = sorted_labels(f"t{k}" for k in range(1, n + 1))
    rows = writer_rows(n, labels, sample_rng(19, n))
    linkage = _linkages._single_linkages(np.stack([u.entries for u in rows]), n, TOL)
    assert linkage.masks.dtype == (np.uint64 if n <= 64 else object)
    assert not linkage.kept[-1].any() and linkage.nodes[-2].sum() > linkage.kept[-2].sum() > 0
    want = [reference_canonical_str(agglomerate(labels, u.entries)) for u in rows]
    write = _linkages.canonical_strs(labels, linkage.masks, linkage.kept)
    assert write(slice(None)) == want
    assert [write(slice(k, k + 1))[0] for k in range(len(rows))] == want
    assert [topology_of(agglomerate(labels, u.entries)).canonical_str() for u in rows] == want
    assert want[-1] == "{" + ",".join(labels) + "}"


MIXED = ("a", "B", "t2", "t10", "t1", "x9", "x10", "10", "9", "A1b2", "A1b10", "z")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_canonical_str_matches_label_set_reference(data):
    # random laminar families over labels whose natural order differs
    # from their plain string order
    labels = list(data.draw(st.permutations(MIXED)))
    clades = []
    pool = [[lab] for lab in labels]
    while len(pool) > 1:
        k = data.draw(st.integers(2, min(4, len(pool))))
        merged = [lab for part in pool[:k] for lab in part]
        clades.append(frozenset(merged))
        pool = pool[k:] + [merged]
        pool = [pool[i] for i in data.draw(st.permutations(range(len(pool))))]
    kept = [c for c in clades if data.draw(st.booleans())]
    topo = Topology(labels, kept)
    expected = sorted((sorted(c, key=natural_key) for c in set(kept) | {frozenset(labels)}),
                      key=lambda c: (len(c), [natural_key(x) for x in c]))
    assert topo.canonical_str() == "|".join("{" + ",".join(c) + "}" for c in expected)
    assert topo.labels == sorted_labels(labels)
    assert topo.clades == frozenset(kept) | {frozenset(labels)}
    assert topo == Topology(reversed(labels), reversed(kept))
