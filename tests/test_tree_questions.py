"""Every question about a tree, answered from its merge schedule, against
the node walks kept in `tree_walks`: Newick strings, leaf depths, distances,
the equidistance check and its message, topologies, cluster tables,
speciation times, clade tests and structural equality.

The trees are built and parsed here, each as a graph of nodes for the
walks and as a `RootedTree`: polytomies, zero-length branches,
labels whose natural order differs from their string order, lengths that do
not telescope (written at precision 6, then parsed), and trees that are not
equidistant, with lengths on a grid so that several leaves often deviate
most from the median."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import tree_walks as walk
from troptree import (DEFAULT_TOL, is_clade, parse_newick, speciation_times,
                      structurally_equal, topology_of, write_newick)
from troptree.newick import RootedTree, TreeNode
from troptree.trees import _clade_table, pairwise_distances, require_equidistant
from troptree.util import sorted_labels

#: labels whose natural order differs from their string order
LABELS = ("1", "01", "001", "2", "02", "9", "10", "100", "S1", "S01", "S2", "S9",
          "S10", "b9", "b10", "x", "X", "x2", "x10", "a")


def random_tree(rnd, labels, scale, kind):
    """The root of a tree over `labels` merged from random groups of 2-4 nodes, each
    group's children in random order.  `kind` "equidistant" gives each
    child the height difference to its parent (0 for about a fifth of the
    merges), "noisy" adds up to 2e-9 to or from that, and "grid" draws every
    length from multiples of scale / 4."""
    nodes = [TreeNode(label=lab) for lab in labels]
    heights = [0.0] * len(nodes)
    while len(nodes) > 1:
        picked = rnd.sample(range(len(nodes)), min(len(nodes), rnd.choice((2, 2, 3, 4))))
        top = max(heights[k] for k in picked)
        if rnd.random() > 0.2:
            top += scale * rnd.choice((0.25, 0.5, 1.0, rnd.random()))
        for k in picked:
            if kind == "grid":
                nodes[k].length = scale * rnd.choice((0.0, 0.25, 0.5, 0.75))
            else:
                nodes[k].length = top - heights[k]
            if kind == "noisy":
                nodes[k].length = max(0.0, nodes[k].length + rnd.uniform(-2e-9, 2e-9))
        parent = TreeNode(children=[nodes[k] for k in picked])
        for k in sorted(picked, reverse=True):
            del nodes[k], heights[k]
        nodes.append(parent)
        heights.append(top)
    return nodes[0]


@st.composite
def tree_cases(draw):
    """A tree and the root it was read from, the same tree written at
    precision 6 and 17 and parsed, both by `parse_newick` and into nodes,
    and another tree and its root over the same labels; a scale and a
    superset of the labels."""
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 12))
    labels = rnd.sample(LABELS, n)
    scale = draw(st.sampled_from((1e-3, 1.0, 1e3)))
    kind = draw(st.sampled_from(("equidistant", "noisy", "grid")))
    root = random_tree(rnd, labels, scale, kind)
    other = random_tree(rnd, labels, scale, kind)
    texts = [walk.write_newick(root, p) for p in (6, 17)]
    variants = [(RootedTree(root), root)] + [(parse_newick(t), walk.parse_newick(t))
                                             for t in texts]
    other = (RootedTree(other), other)
    superset = sorted_labels(labels + rnd.sample([x for x in LABELS if x not in labels],
                                                 min(3, len(LABELS) - n)))
    return variants, other, scale, superset, rnd


def outcome(f, *args):
    """What a call returns, or the type, message and leaf of what it raises."""
    try:
        return "returned", f(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc), getattr(exc, "leaf", None)


@settings(max_examples=400, deadline=None)
@given(case=tree_cases())
def test_schedule_answers_match_node_walks(case):
    variants, other, scale, superset, rnd = case
    for tree, root in variants:
        for precision in (1, 6, 10, 17):
            assert write_newick(tree, precision) == walk.write_newick(root, precision)
        assert list(tree.leaf_depths().items()) == list(walk.leaf_depths(root).items())
        labels, dists = pairwise_distances(tree)
        want_labels, want = walk.pairwise_distances(root)
        assert labels == want_labels and dists.tobytes() == want.tobytes()
        assert list(_clade_table(tree).items()) == list(walk.clade_table(root).items())
        assert list(_clade_table(tree, superset).items()) == \
            list(walk.clade_table(root, superset).items())
        for tol in (0.0, DEFAULT_TOL, 0.3 * scale):
            assert outcome(require_equidistant, tree, tol) == \
                outcome(walk.require_equidistant, root, tol)
            assert outcome(topology_of, tree, tol) == outcome(walk.topology_of, root, tol)
            assert outcome(speciation_times, tree, tol) == \
                outcome(walk.speciation_times, root, tol)
            for _ in range(3):
                leaves = rnd.sample(labels, rnd.randint(1, len(labels)))
                assert is_clade(tree, leaves, tol) == walk.is_clade(root, leaves, tol)
        for b, b_root in variants + [other]:
            for tol in (0.0, 1e-12 * scale, 1e-6 * scale):
                assert structurally_equal(tree, b, tol) == \
                    walk.structurally_equal(root, b_root, tol)


def test_equidistance_ties_name_the_first_leaf_in_preorder():
    # leaves 3 and 1 both deviate most from the median depth 1; preorder
    # takes the last child first, so 3 is named
    text = "((1:0.5,2:1):0,3:1.5,4:1);"
    tree = parse_newick(text)
    want = outcome(walk.require_equidistant, walk.parse_newick(text), DEFAULT_TOL)
    assert want[2] == ("tree is not equidistant: leaf '3' has depth 1.5, expected 1 "
                       "(off by 0.5, tol 1e-09)")
    assert outcome(require_equidistant, tree, DEFAULT_TOL) == want
    assert outcome(topology_of, tree, DEFAULT_TOL) == want
