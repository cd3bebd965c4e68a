"""The single-linkage rebuild and the bitmask topologies against reference
implementations kept here: the all-pairs merge loop that `agglomerate`
replaced, a canonical clade order computed from label sets, and the tree
route to a topology that the merge-schedule route replaced along segments."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from troptree import (DEFAULT_TOL, NotEquidistantError, SampleConfig, Topology,
                      check_nni_conjecture, random_equidistant_tree, sample_rng,
                      structurally_equal, topology_of, topology_sequence, tree_segment)
from troptree import trees
from troptree.newick import RootedTree, TreeNode
from troptree.trees import _single_linkage, _topology_of_merges, agglomerate
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
def ultrametrics(draw):
    """A random ultrametric on n leaves, built by merging clusters at
    heights drawn from a coarse grid (ties) plus offsets around tol."""
    n = draw(st.integers(3, 40))
    members = [[k] for k in range(n)]
    heights = [0.0] * n
    D = np.zeros((n, n))
    while len(members) > 1:
        size = draw(st.integers(2, min(3, len(members))))
        picked = sorted(draw(st.lists(st.integers(0, len(members) - 1),
                                      min_size=size, max_size=size, unique=True)))
        floor = max(heights[k] for k in picked)
        h = max(floor, draw(st.sampled_from((0.1, 0.2, 0.3, 0.5, 0.8))))
        h += draw(st.sampled_from(NEAR_TOL))
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


def assert_merge_topology_matches_tree_route(labels, dists, tol=TOL):
    labels = tuple(labels)
    merged = outcome(lambda: _topology_of_merges(
        labels, _single_linkage(dists, len(labels), tol), tol))
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
    merged = outcome(lambda: _topology_of_merges(labels, _single_linkage(dists, 4, TOL), TOL))
    assert merged[0] is NotEquidistantError
    assert_merge_topology_matches_tree_route(labels, dists)
    # one leaf: no topology either way
    assert_merge_topology_matches_tree_route(("1",), np.empty(0))


def test_merge_topology_drops_a_branch_of_exactly_tol():
    # the cherry's branch, 0.75 - 0.5, is exactly tol: not kept
    dists = np.array([1.0, 1.5, 1.5])
    topo = _topology_of_merges(("1", "2", "3"), _single_linkage(dists, 3, 0.25), 0.25)
    assert topo.is_star
    assert_merge_topology_matches_tree_route(("1", "2", "3"), dists, tol=0.25)


def test_segment_builds_trees_only_for_output(monkeypatch):
    calls = {"agglomerate": 0, "_single_linkage": 0, "_tree_of_merges": 0}

    def counted(name):
        real = getattr(trees, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(trees, name, counted(name))

    check_nni_conjecture(SampleConfig(n=6, samples=20, seed=1))
    assert calls["agglomerate"] == calls["_tree_of_merges"] == 0
    calls["_single_linkage"] = 0
    rng = sample_rng(5, 0)
    seg = tree_segment(random_equidistant_tree(12, 1.0, rng),
                       random_equidistant_tree(12, 1.0, rng))
    topology_sequence(seg)
    # one single-linkage pass per bend and per piece, and no tree
    linkages = 2 * seg.n_bends - 1
    assert calls == {"agglomerate": 0, "_single_linkage": linkages, "_tree_of_merges": 0}
    seg.to_csv()
    assert len(seg.bend_trees) == seg.n_bends
    # one tree per bend, from the merges already computed
    assert calls == {"agglomerate": 0, "_single_linkage": linkages,
                     "_tree_of_merges": seg.n_bends}


def reference_canonical_str(tree):
    """Clades as label sets, sorted by size and then by their members'
    natural keys."""
    sets = {}

    def visit(node):
        if node.is_leaf():
            return frozenset([node.label])
        s = frozenset().union(*(visit(c) for c in node.children))
        if node is tree.root or node.length > TOL:
            sets[s] = None
        return s

    visit(tree.root)
    ordered = sorted((sorted(c, key=natural_key) for c in sets),
                     key=lambda c: (len(c), [natural_key(x) for x in c]))
    return "|".join("{" + ",".join(c) + "}" for c in ordered)


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
