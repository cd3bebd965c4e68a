"""Every way into a tree's merge schedule against the node route it replaced.

A `RootedTree` holds its merge schedule in one form: leaves by natural
rank, internal nodes in the left-to-right postorder of the tree's child
order, each height the largest child height plus branch.  `parse_newick`
writes that form as it parses, `RootedTree(root)` reads it from a graph of
nodes, and `_tree_of_merges` renumbers the schedules of single linkage, the
candidate table, the sampler and `_clade_merges` into it.  The oracle route
is the one those replaced, kept in `tree_walks`: a parser and a builder
that make nodes, and the walk that read nodes into a schedule.  Both routes
must give the same labels, the same merges (heights compared as
`float.hex`, child lists in order) and the same branch lengths."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_walks as walk
from troptree import (NewickParseError, parse_newick, random_equidistant_tree, sample_rng,
                      tree_segment, ultrametric_of, write_newick)
from troptree import _linkages, _meets, treespace
from troptree.newick import RootedTree, TreeNode
from troptree.sim import _schedule
from troptree.trees import _clade_merges, _tree_of_clades, _tree_of_merges

#: labels whose natural order differs from their string order, with ties
#: of natural keys ('1', '01', '001')
LABELS = ("1", "01", "001", "2", "02", "9", "10", "100", "S1", "S01", "S2", "S9",
          "S10", "b9", "b10", "x", "X", "x2", "x10", "a")
#: branch lengths as written, with exponents, signs, a negative zero and
#: sums that do not telescope
LENGTHS = ("0", "-0", "0.1", "0.2", "0.30000000000000004", "1", "1.5", "2.5E2", "1e-3",
           "+3", "7.", ".25", "123456789.123456789", "1e-320")


def form(tree):
    """What a tree holds, with every float written exactly."""
    return (tree.leaf_labels, [(h.hex(), children) for h, children in tree.merges],
            [length.hex() for length in tree.lengths])


def oracle(root):
    """:func:`form` of the schedule that the node walk reads from a root."""
    labels, merges, lengths = walk.read_tree(root)
    return (labels, [(h.hex(), children) for h, children in merges],
            [float(length).hex() for length in lengths])


@st.composite
def newick_texts(draw):
    """A Newick string of 1-12 leaves: polytomies, internal labels, spaces,
    tabs and newlines between tokens, and an optional root length."""
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 12))

    def ws():
        return rnd.choice(("", "", "", " ", "\n", "\t "))

    nodes = rnd.sample(LABELS, n)
    while len(nodes) > 1:
        picked = rnd.sample(range(len(nodes)), min(len(nodes), rnd.choice((2, 2, 3, 4))))
        inner = ",".join(f"{ws()}{nodes[k]}{ws()}:{ws()}{rnd.choice(LENGTHS)}{ws()}"
                         for k in picked)
        name = rnd.choice(("", "", "", "anc", f"{ws()}n7"))
        nodes = [x for k, x in enumerate(nodes) if k not in picked] + [f"({inner}){name}"]
    root_length = rnd.choice(("", "", ":0", f":{ws()}1.5"))
    return f"{ws()}{nodes[0]}{ws()}{root_length}{ws()};{ws()}"


@settings(max_examples=400, deadline=None)
@given(text=newick_texts())
def test_parse_newick_matches_node_route(text):
    root = walk.parse_newick(text)
    want = oracle(root)
    assert form(parse_newick(text)) == want
    assert form(RootedTree(root)) == want


@st.composite
def broken_newick_texts(draw):
    """A Newick string with one to three characters deleted, inserted or
    replaced."""
    text = draw(newick_texts())
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    for _ in range(rnd.randint(1, 3)):
        at = rnd.randint(0, len(text))
        new = rnd.choice("(),:;ab1e.- \n")
        text = rnd.choice((text[:at] + new + text[at:], text[:at] + text[at + 1:],
                           text[:at] + new + text[at + 1:]))
    return text


def parse_outcome(parse, text):
    """The form of what a parse returns, or the message and offset of the
    NewickParseError it raises."""
    try:
        tree = parse(text)
    except NewickParseError as exc:
        return "raised", str(exc), exc.offset
    return "parsed", form(tree) if isinstance(tree, RootedTree) else oracle(tree)


@settings(max_examples=1000, deadline=None)
@given(text=st.one_of(st.text(alphabet="ab12(),.:;-+eE \t²٣é", max_size=60),
                      broken_newick_texts()))
def test_parse_errors_match_node_parser(text):
    got = parse_outcome(parse_newick, text)
    want = parse_outcome(walk.parse_newick, text)
    if got[0] == "raised" and "overflows" in got[1]:
        # the node parser keeps inf, and parses on from there
        offset = got[2]
        assert float(re.match(r"[\d+\-.eE]*", text[offset:]).group()) == float("inf")
        assert want[0] == "parsed" or want[2] > offset
    else:
        assert got == want


@pytest.mark.parametrize("n", [12, 32, 80])
@pytest.mark.parametrize("height", [1e-3, 1.0, 1e3])
def test_parse_newick_matches_node_route_at_benchmark_scale(n, height):
    # the written trees of the benchmark's sizes and heights
    for k in range(3):
        tree = random_equidistant_tree(n, height, sample_rng(n, k))
        for precision in (10, 17):
            text = write_newick(tree, precision)
            assert form(parse_newick(text)) == oracle(walk.parse_newick(text))


def test_single_leaf_and_tied_labels():
    for text in ("A;", "A:0;", " A : 3 ;"):
        assert form(parse_newick(text)) == (("A",), [], [(0.0).hex()])
    a, b = parse_newick("((01:1,1:1):1,2:2);"), parse_newick("((1:1,01:1):1,2:2);")
    assert a.leaf_labels == b.leaf_labels == ("01", "1", "2")
    assert [c for _, c in a.merges] == [[0, 1], [3, 2]]
    assert [c for _, c in b.merges] == [[1, 0], [3, 2]]


@pytest.mark.parametrize("height", [1e-3, 1.0, 1e3])
def test_sampler_trees_match_node_route(height):
    for n in range(2, 81):
        labels = [str(k) for k in range(1, n + 1)]
        shuffled = random.Random(n).sample(LABELS * (n // len(LABELS) + 1), n)
        shuffled = [f"{lab}_{k}" for k, lab in enumerate(shuffled)]
        for seed in range(2):
            merges = _schedule(n, height, sample_rng(seed, n))
            tree = random_equidistant_tree(n, height, sample_rng(seed, n))
            assert form(tree) == oracle(walk.nodes_of_merges(labels, merges))
            tree = random_equidistant_tree(n, height, sample_rng(seed, n), labels=shuffled)
            assert form(tree) == oracle(walk.nodes_of_merges(shuffled, merges))


@pytest.mark.parametrize("route", ["single linkage", "candidate table"])
def test_bend_trees_match_node_route(route, monkeypatch):
    table = route == "candidate table"
    monkeypatch.setattr(treespace, "_TABLE_MIN_ENTRIES", 0 if table else float("inf"))
    bends = 0
    for n, height in ((6, 1e-3), (12, 1.0), (32, 1.0), (32, 1e3)):
        for index in range(4):
            rng = sample_rng(n, index)
            t1 = random_equidistant_tree(n, height, rng)
            t2 = random_equidistant_tree(n, height, rng)
            u, v = ultrametric_of(t1), ultrametric_of(t2)
            if table and _meets.MeetTable.of(u, v) is None:
                continue            # a pair that the table's guard sends to single linkage
            seg = tree_segment(t1, t2)
            labels = list(u.labels)
            for merges, tree in zip(_linkages.merges(seg.u.n, seg._linkage), seg.bend_trees):
                assert form(tree) == oracle(walk.nodes_of_merges(labels, merges))
            bends += seg.n_bends
    assert bends > 300


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 20),
       scale=st.sampled_from((1e-3, 1.0, 1e3)))
def test_clade_trees_match_node_route(seed, n, scale):
    # a laminar family of groups of 2-4 clades, with heights from a grid that
    # need not rise toward the root (so that some branches clamp at 0)
    rnd = random.Random(seed)
    labels = tuple(sorted(rnd.sample(range(1000), n)))
    labels = tuple(f"L{k}" for k in labels)
    tops = [1 << (n - 1 - r) for r in range(n)]
    heights = {}
    while len(tops) > 1:
        picked = rnd.sample(range(len(tops)), min(len(tops), rnd.choice((2, 2, 3, 4))))
        mask = sum(tops[k] for k in picked)
        heights[mask] = scale * rnd.choice((0.1, 0.25, 0.5, 1.0, rnd.random()))
        tops = [t for k, t in enumerate(tops) if k not in picked] + [mask]
    merges = _clade_merges(n, [(mask, heights[mask])
                               for mask in sorted(heights, key=int.bit_count)])
    want = oracle(walk.nodes_of_merges(labels, merges))
    assert form(_tree_of_clades(labels, heights)) == want
    assert form(_tree_of_merges(labels, merges)) == want


def test_node_input_keeps_its_messages():
    def leaf(label, length=1.0):
        return TreeNode(label=label, length=length)

    cases = [
        (TreeNode(children=[leaf("a"), leaf("")]), "every leaf needs a non-empty label"),
        (TreeNode(children=[leaf("a"), TreeNode(children=[leaf("b"), leaf("a")])]),
         "duplicate leaf label 'a'"),
        (TreeNode(children=[leaf("a"), leaf("b", -0.5)]), "negative branch length -0.5"),
        (TreeNode(children=[leaf("a"), TreeNode(children=[leaf("b")])]),
         "internal nodes need at least 2 children"),
        # a label fault is named before a node fault met earlier in the walk
        (TreeNode(children=[leaf("a", -1.0), leaf("a")]), "duplicate leaf label 'a'"),
        # of two node faults, the first in preorder, the last child first
        (TreeNode(children=[TreeNode(children=[leaf("a")]), leaf("b", -2.0)]),
         "negative branch length -2.0"),
    ]
    for root, message in cases:
        with pytest.raises(ValueError) as err:
            RootedTree(root)
        assert str(err.value) == message


def test_node_input_is_a_snapshot():
    root = walk.parse_newick("((a:1,b:1):1,c:2);")
    tree = RootedTree(root)
    want = form(tree)
    root.children[0].length = 5.0
    root.children.append(TreeNode(label="d", length=2.0))
    assert form(tree) == want
    assert np.array_equal(ultrametric_of(tree).entries, [2.0, 4.0, 4.0])
