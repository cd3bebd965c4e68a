"""The two schedule writers, `pairwise_distances` and `write_newick`, held
bit for bit to the copies in `tree_walks` that build a fresh index on every
call and sort every node's children, on trees made by all three routes:
`parse_newick`, `RootedTree(root)` and `_tree_of_merges`."""

import math
import random

import numpy as np
import pytest

import tree_walks as walk
from troptree import RootedTree, parse_newick, write_newick
from troptree.trees import _tree_of_merges, pairwise_distances
from troptree.util import sorted_labels, square_index, square_rows

HEIGHTS = (1e-3, 1.0, 1e3)


def random_schedule(n, height, rnd, tied):
    """A merge schedule over n leaves with its root at `height`, each
    node's children in a random order: two lineages merge at each step or,
    when `tied`, two to four, and a node may take its last node's height."""
    alive = list(range(n))
    steps = []
    raw = 0.0
    while len(alive) > 1:
        k = rnd.randint(2, min(4, len(alive))) if tied else 2
        children = rnd.sample(alive, k)
        alive = [c for c in alive if c not in children] + [n + len(steps)]
        if not (tied and steps and rnd.random() < 0.3):
            raw += rnd.random()
        steps.append((raw, children))
    return [(height * h / raw, children) for h, children in steps]


def exact_text(node):
    """Newick of a graph of nodes in its own child order, every length by
    `repr`, so that `parse_newick` reads back the very floats."""
    if not node.children:
        return node.label
    return "(" + ",".join(f"{exact_text(c)}:{c.length!r}" for c in node.children) + ")"


def three_routes(labels, merges, rnd):
    """The tree of a schedule over natural-sorted `labels` by
    `_tree_of_merges`, by `RootedTree(root)` on a graph whose leaves take
    the labels in a shuffled order, and by `parse_newick` of that graph."""
    root = walk.nodes_of_merges(rnd.sample(labels, len(labels)), merges)
    return [_tree_of_merges(labels, merges), RootedTree(root),
            parse_newick(exact_text(root) + ";")]


@pytest.mark.parametrize("tied", [False, True], ids=["binary", "tied"])
def test_pairwise_distances_match_the_fresh_index_writer(tied):
    rnd = random.Random(29 + tied)
    for n in range(2, 121):
        labels = tuple(f"t{k}" for k in range(1, n + 1))
        for height in HEIGHTS:
            merges = random_schedule(n, height, rnd, tied)
            for tree in three_routes(labels, merges, rnd):
                got_labels, got = pairwise_distances(tree)
                want = np.array(walk.distances_of_merges(n, tree.merges, tree.lengths))
                assert got_labels == tree.leaf_labels == labels
                assert got.dtype == want.dtype == np.float64
                assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


#: Branch lengths that both text routes read back exactly, and three that
#: only a graph of nodes can hold.
TEXT_LENGTHS = (0.0, 5e-324, 1e300)
NODE_LENGTHS = (-0.0, math.inf, math.nan)


@pytest.mark.parametrize("tied", [False, True], ids=["binary", "polytomy"])
def test_write_newick_matches_the_sorting_writer(tied):
    rnd = random.Random(290 + tied)
    words = ["é", "λ", "鳥", "ß", "x", "Ω"]
    polytomies = 0
    for n in (2, 3, 4, 7, 12, 33, 80):
        labels = sorted_labels(f"{rnd.choice(words)}{k}" for k in range(n))
        for height in HEIGHTS:
            merges = random_schedule(n, height, rnd, tied)
            trees = three_routes(labels, merges, rnd)
            root = walk.nodes_of_merges(rnd.sample(labels, n), merges)
            nodes = [root]
            while nodes:
                node = nodes.pop()
                if node is not root and rnd.random() < 0.3:
                    node.length = rnd.choice(TEXT_LENGTHS)
                nodes += node.children
            trees += [RootedTree(root), parse_newick(exact_text(root) + ";")]
            for node in rnd.sample(root.children, 1):
                node.length = rnd.choice(NODE_LENGTHS)
            trees.append(RootedTree(root))
            polytomies += any(len(children) > 2 for _, children in merges)
            for tree in trees:
                for precision in (*range(1, 18), 30):
                    assert write_newick(tree, precision) == walk.newick_of_merges(
                        tree.leaf_labels, tree.merges, tree.lengths, precision)
    assert polytomies > 10 if tied else polytomies == 0


def test_percent_g_writes_the_text_of_format():
    rnd = random.Random(2900)
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, 1.7976931348623157e308,
              math.inf, -math.inf, math.nan, 1.0, 0.1, 1e-3, 123456789.0, 1e16, 1e17]
    values += [rnd.uniform(-1, 1) * 10.0 ** rnd.randint(-320, 300) for _ in range(400)]
    for precision in (*range(1, 18), 30):
        for x in values:
            assert f"%.{precision}g" % x == format(x, f".{precision}g")


def test_square_rows_are_cached_tuples():
    rows = square_rows(7)
    assert isinstance(rows, tuple) and all(isinstance(row, tuple) for row in rows)
    assert all(type(k) is int for row in rows for k in row)
    assert rows == tuple(map(tuple, square_index(7).tolist()))
    assert square_rows(7) is rows
    for n in range(2, 50):
        square_rows(n)
    info = square_rows.cache_info()
    assert info.maxsize == 32 and info.currsize <= 32
