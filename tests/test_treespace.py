import csv
import io
import itertools
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import troptree as tt
from troptree import (Topology, Ultrametric, check_clade_preservation,
                      check_nni_theorem, in_tropical_hull, is_ultrametric,
                      parse_newick, segment_to_star, star_on_segment,
                      topology_of, topology_sequence, tree_of, tree_segment,
                      trop_dist, ultrametric_of, write_newick)
from troptree import _linkages
from troptree.util import sorted_labels

U_A = np.array([0.4, 0.8, 2.0, 0.8, 2.0, 2.0])
U_B = np.array([0.8, 0.8, 2.0, 0.4, 2.0, 2.0])


def topo(*clades, leaves):
    return Topology(leaves, [frozenset(c) for c in clades])


def random_tree(n, seed, height=1.0):
    return tt.random_equidistant_tree(n, height, tt.sample_rng(seed, 0))


# --------------------------------------------------------------------------
# ultrametric <-> tree conversion
# --------------------------------------------------------------------------

def test_ultrametric_of_golden(quartet_a, quartet_b):
    assert np.allclose(ultrametric_of(quartet_a).entries, U_A, atol=1e-12)
    assert np.allclose(ultrametric_of(quartet_b).entries, U_B, atol=1e-12)


def test_ultrametric_of_star():
    u = ultrametric_of(parse_newick("(1:0.75,2:0.75,3:0.75,4:0.75);"))
    assert np.allclose(u.entries, 1.5)
    assert u.height == pytest.approx(0.75)


def test_ultrametric_of_sorts_no_labels(monkeypatch):
    # the tree sorted and checked its labels when it was built
    tree = parse_newick("((S10:1,S2:1):1,(S1:1.5,S9:1.5):0.5);")
    calls = []
    monkeypatch.setattr(tt.util, "natural_key", lambda label: calls.append(label))
    u = ultrametric_of(tree)
    assert u.labels == ("S1", "S2", "S9", "S10") and calls == []


def test_tree_of_golden_caterpillar():
    tree = tree_of(Ultrametric(("1", "2", "3", "4"), U_A))
    assert topology_of(tree) == topo({"1", "2"}, {"1", "2", "3"}, leaves="1234")
    assert tt.speciation_times(tree) == pytest.approx((0.2, 0.4, 1.0))


def test_tree_of_golden_polytomy():
    tree = tree_of(Ultrametric(("1", "2", "3", "4"), [0.8, 0.8, 2, 0.8, 2, 2]))
    assert topology_of(tree) == topo({"1", "2", "3"}, leaves="1234")
    assert write_newick(tree) == "((1:0.4,2:0.4,3:0.4):0.6,4:1);"


def test_tree_of_rejects_bad_triple():
    with pytest.raises(tt.NotUltrametricError) as err:
        tree_of(Ultrametric(("1", "2", "3"), [1.0, 2.0, 3.0]))
    assert set(err.value.triple) == {"1", "2", "3"}


def test_is_ultrametric():
    assert is_ultrametric(U_A)
    assert is_ultrametric([2.0, 2.0, 2.0])
    assert not is_ultrametric([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        is_ultrametric([1.0, 2.0, 3.0, 4.0])


def test_ultrametric_type_validation():
    with pytest.raises(ValueError):
        Ultrametric(("2", "1"), [1.0])
    with pytest.raises(ValueError):
        Ultrametric(("1", "2"), [0.0])
    with pytest.raises(ValueError):
        Ultrametric(("1", "2", "3"), [1.0, 1.0])


def test_ultrametric_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="natural-sorted and unique"):
        Ultrametric(["1", "1", "2"], [1, 2, 2])


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 24), seed=st.integers(0, 2**32 - 1))
def test_roundtrip_tree_ultrametric(n, seed):
    tree = random_tree(n, seed)
    u = ultrametric_of(tree)
    back = tree_of(u)
    assert topology_of(back) == topology_of(tree)
    assert np.allclose(ultrametric_of(back).entries, u.entries, atol=1e-9)
    assert tt.speciation_times(back) == pytest.approx(tt.speciation_times(tree))


# --------------------------------------------------------------------------
# tree segments
# --------------------------------------------------------------------------

def test_tree_segment_golden(quartet_a, quartet_b):
    seg = tree_segment(quartet_a, quartet_b)
    # unsorted coordinate differences as printed, then sorted in the segment
    assert np.allclose(seg.v.entries - seg.u.entries,
                       [0.4, 0, 0, -0.4, 0, 0], atol=1e-12)
    assert np.allclose(seg.segment.lambdas,
                       [-0.4, 0, 0, 0, 0, 0.4], atol=1e-12)
    assert len(seg.bend_ultrametrics) == 3
    assert np.allclose(seg.bend_ultrametrics[0].entries, U_B, atol=1e-12)
    assert np.allclose(seg.bend_ultrametrics[1].entries,
                       [0.8, 0.8, 2, 0.8, 2, 2], atol=1e-12)
    assert np.allclose(seg.bend_ultrametrics[2].entries, U_A, atol=1e-12)
    assert seg.bend_topologies[1] == topo({"1", "2", "3"}, leaves="1234")


def test_tree_segment_different_heights(quartet_a):
    taller = parse_newick("(((2:0.6,3:0.6):0.6,1:1.2):0.8,4:2);")
    seg = tree_segment(quartet_a, taller)
    assert np.allclose(seg.bend_ultrametrics[0].entries, seg.v.entries)
    assert np.allclose(seg.bend_ultrametrics[-1].entries, seg.u.entries)
    for bu in seg.bend_ultrametrics:
        assert is_ultrametric(bu.entries)
    heights = [bu.height for bu in seg.bend_ultrametrics]
    assert heights[0] == pytest.approx(2.0) and heights[-1] == pytest.approx(1.0)


def test_tree_segment_identical(quartet_a):
    seg = tree_segment(quartet_a, quartet_a)
    assert len(seg.bend_trees) == 1
    assert topology_sequence(seg) == [topology_of(quartet_a)]


def test_tree_segment_leaf_mismatch(quartet_a):
    with pytest.raises(tt.LeafSetMismatchError):
        tree_segment(quartet_a, parse_newick("((1:0.5,2:0.5):0.5,9:1);"))


def test_topology_sequence_golden(quartet_a, quartet_b):
    seq = topology_sequence(tree_segment(quartet_a, quartet_b))
    assert seq == [
        topo({"2", "3"}, {"1", "2", "3"}, leaves="1234"),
        topo({"1", "2", "3"}, leaves="1234"),
        topo({"1", "2"}, {"1", "2", "3"}, leaves="1234"),
    ]


def test_topology_sequence_nni_endpoints_are_contractions(quartet_a):
    balanced = parse_newick("((1:0.2,2:0.2):0.8,(3:0.3,4:0.3):0.7);")
    seq = topology_sequence(tree_segment(balanced, quartet_a))
    ta, tb = topology_of(balanced), topology_of(quartet_a)
    assert all(t.is_contraction_of(ta) or t.is_contraction_of(tb) for t in seq)


def test_segment_restriction_keeps_clade_topology(clade_a, clade_b):
    seg = tree_segment(clade_a, clade_b)
    def induced(tree):
        return topology_of(tt.tree_of(tt.ultrametric_of(tree).restrict(("S1", "S2", "S3"))))

    want = induced(clade_a)
    for bend in seg.bend_trees:
        got = induced(bend)
        assert got == want


def test_topology_sequence_dedupes_positions(quartet_a, quartet_b):
    seg = tree_segment(quartet_a, quartet_b)
    positions = seg.positions()
    # positions: bend0, piece0, bend1, piece1, bend2 -> 5 positions
    assert len(positions) == 5
    want = [positions[0]] + [b for a, b in zip(positions, positions[1:]) if b != a]
    assert topology_sequence(seg) == want


def per_entry_csv(seg, precision):
    """TreeSegment.to_csv as it was before it formatted each distinct value
    of a row once: one format call per entry."""
    fmt = f".{precision}g"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "lambda"] + [f"d({a},{b})" for a, b in seg.u.pairs()]
                    + ["newick", "topology"])
    for k, bu in enumerate(seg.bend_ultrametrics):
        row = [str(k), format(seg.segment.bend_parameters[k], fmt)]
        row += [format(x, fmt) for x in bu.entries.tolist()]
        row += [write_newick(seg.bend_trees[k], precision),
                seg.bend_topologies[k].canonical_str()]
        writer.writerow(row)
    return buf.getvalue()


@pytest.mark.parametrize("n", [4, 7, 12, 20, 32])
def test_to_csv_matches_per_entry_format(n):
    seg = tree_segment(random_tree(n, 100 + n), random_tree(n, 200 + n))
    for precision in (3, 10, 17):
        assert seg.to_csv(precision) == per_entry_csv(seg, precision)


def test_output_precision_below_one_is_rejected(quartet_a, quartet_b):
    seg = tree_segment(quartet_a, quartet_b)
    for precision in (0, -1):
        for write in (seg.to_csv, seg.bend_newicks):
            with pytest.raises(ValueError, match=r"^precision must be >= 1$"):
                write(precision)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 9), s1=st.integers(0, 2**31), s2=st.integers(0, 2**31))
def test_segment_closure_and_geodesic(n, s1, s2):
    t1, t2 = random_tree(n, s1), random_tree(n, s2)
    seg = tree_segment(t1, t2)
    for bu in seg.bend_ultrametrics:
        assert is_ultrametric(bu.entries)
    bends = [bu.entries for bu in seg.bend_ultrametrics]
    total = sum(trop_dist(a, b) for a, b in zip(bends, bends[1:]))
    assert total == pytest.approx(
        trop_dist(seg.u.entries, seg.v.entries), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 8), s1=st.integers(0, 2**31), s2=st.integers(0, 2**31))
def test_piece_topology_constant_and_refines_bends(n, s1, s2):
    t1, t2 = random_tree(n, s1), random_tree(n, s2)
    seg = tree_segment(t1, t2)
    params = seg.segment.bend_parameters
    for k in range(len(params) - 1):
        lo, hi = params[k], params[k + 1]
        topos = set()
        for frac in (0.25, 0.5, 0.75):
            point = seg.segment.point_at(lo + frac * (hi - lo))
            topos.add(topology_of(tree_of(Ultrametric(seg.u.labels, point))))
        assert len(topos) == 1
        # the piece topology is the union of the two adjacent bend topologies
        piece = topos.pop()
        assert seg.piece_topologies[k] == piece
        union = seg.bend_topologies[k].clades | seg.bend_topologies[k + 1].clades
        assert piece.clades == union


# --------------------------------------------------------------------------
# segments to the star tree
# --------------------------------------------------------------------------

def test_segment_to_star_ladder_structure(ladder8):
    stars = segment_to_star(ladder8)
    assert len(stars) == 7
    leaves = "12345678"
    expected = [
        topo({"3", "4"}, {"5", "6"}, {"7", "8"}, {"2", "3", "4"},
             {"1", "2", "3", "4"}, {"5", "6", "7", "8"}, leaves=leaves),
        topo({"3", "4"}, {"5", "6"}, {"7", "8"}, {"2", "3", "4"},
             {"1", "2", "3", "4"}, {"5", "6", "7", "8"}, leaves=leaves),
        topo({"3", "4"}, {"5", "6"}, {"7", "8"}, {"2", "3", "4"},
             {"1", "2", "3", "4"}, {"5", "6", "7", "8"}, leaves=leaves),
        topo({"5", "6"}, {"7", "8"}, {"2", "3", "4"},
             {"1", "2", "3", "4"}, {"5", "6", "7", "8"}, leaves=leaves),
        topo({"2", "3", "4"}, {"1", "2", "3", "4"}, {"5", "6", "7", "8"},
             leaves=leaves),
        topo({"1", "2", "3", "4"}, {"5", "6", "7", "8"}, leaves=leaves),
        topo(leaves=leaves),
    ]
    assert [topology_of(t) for t in stars] == expected


def test_segment_to_star_star_input():
    star = parse_newick("(1:1,2:1,3:1,4:1);")
    out = segment_to_star(star)
    assert len(out) == 1
    assert topology_of(out[0]).is_star


def test_segment_to_star_three_leaves():
    tree = parse_newick("((1:0.2,2:0.2):0.8,3:1);")
    out = segment_to_star(tree)
    assert len(out) == 2
    assert topology_of(out[0]) == topology_of(tree)
    assert np.allclose(ultrametric_of(out[1]).entries, 2.0)


def test_segment_to_star_matches_segment_bends(ladder8):
    stars = segment_to_star(ladder8)
    n = ladder8.n_leaves
    star = tree_of(Ultrametric(ladder8.leaf_labels,
                               np.full(n * (n - 1) // 2, 2 * ladder8.height())))
    seg = tree_segment(ladder8, star)
    assert len(seg.bend_ultrametrics) == len(stars)
    for bend, tree in zip(seg.bend_ultrametrics, reversed(stars)):
        assert np.allclose(bend.entries, ultrametric_of(tree).entries, atol=1e-9)


# --------------------------------------------------------------------------
# star crossings
# --------------------------------------------------------------------------

def star_in_hull(t1, t2, tol=tt.DEFAULT_TOL):
    """Oracle for :func:`star_on_segment` by a second route: does the
    constant vector at the shared height lie in the tropical hull of the
    two ultrametrics?"""
    u = ultrametric_of(t1, tol)
    v = ultrametric_of(t2, tol)
    origin = np.full(u.e, max(u.entries.max(), v.entries.max()))
    return in_tropical_hull([u.entries, v.entries], origin, tol)


def test_star_on_segment_golden():
    x = tree_of(Ultrametric(("1", "2", "3", "4"), [1, 2, 2, 2, 2, 2]))
    y = tree_of(Ultrametric(("1", "2", "3", "4"), [2, 1, 2, 2, 1, 2]))
    assert star_on_segment(x, y)
    assert star_in_hull(x, y)


def test_star_on_segment_identical_non_star(quartet_a):
    assert not star_on_segment(quartet_a, quartet_a)


def test_star_on_segment_shared_cherry_blocks():
    # both trees keep the cherry {1,2} strictly below the root
    a = tree_of(Ultrametric(("1", "2", "3", "4", "5"),
                            [0.4, 2, 2, 2, 2, 2, 2, 2, 2, 2]))
    b = tree_of(Ultrametric(("1", "2", "3", "4", "5"),
                            [0.8, 2, 2, 2, 2, 2, 2, 2, 1.0, 2]))
    assert not star_on_segment(a, b)
    assert not star_in_hull(a, b)


def test_star_on_segment_height_mismatch(quartet_a):
    taller = parse_newick("(((1:0.2,2:0.2):0.2,3:0.4):1.6,4:2);")
    with pytest.raises(tt.TropTreeError, match="height mismatch: 1 vs 2"):
        star_on_segment(quartet_a, taller)


def test_star_crossings_rows():
    star = [2.0, 2.0, 2.0]
    cherry = [1.0, 2.0, 2.0]
    other = [2.0, 2.0, 1.0]
    u = np.array([cherry, cherry, star])
    v = np.array([other, cherry, cherry])
    assert tt.treespace.star_crossings(u, v).tolist() == [True, False, True]
    # the first pair whose heights differ is the one named
    v[1] *= 3.0
    v[2] *= 2.0
    with pytest.raises(tt.TropTreeError, match="height mismatch: 1 vs 3"):
        tt.treespace.star_crossings(u, v)


@pytest.mark.xfail(strict=True, reason="ROADMAP items 1 and 2: the star test holds max(u, v) to "
                   "2 tol, the segment's topologies split each point's runs at tol")
def test_star_tests_agree_near_tol():
    # node heights 1.8e-9 apart: max(u, v) spans 3.6e-9 > 2 tol, so
    # star_on_segment says no, but the midpoint of the middle piece reads as
    # the star tree, so `topologies` reports a star crossing
    labels = ("1", "2", "3", "4")
    t1, t2 = (tree_of(Ultrametric(labels, d)) for d in (
        (2, 1.9999999964, 1.9999999928, 2, 2, 1.9999999964),
        (1.9999999964, 1.9999999928, 2, 1.9999999964, 2, 2)))
    sequence = topology_sequence(tree_segment(t1, t2))
    assert star_on_segment(t1, t2) == any(topology.is_star for topology in sequence)


def test_three_leaf_law():
    # different topologies at equal height: the star appears mid-segment
    t1 = parse_newick("((1:0.3,2:0.3):0.7,3:1);")
    t2 = parse_newick("((1:0.5,3:0.5):0.5,2:1);")
    assert star_on_segment(t1, t2)
    seq = topology_sequence(tree_segment(t1, t2))
    assert seq == [topology_of(t2),
                   topo(leaves="123"),
                   topology_of(t1)]
    # same topology: no crossing
    t3 = parse_newick("((1:0.1,2:0.1):0.9,3:1);")
    assert not star_on_segment(t1, t3)


@settings(max_examples=60, deadline=None)
@given(s1=st.integers(0, 2**31), s2=st.integers(0, 2**31))
def test_three_leaf_law_random(s1, s2):
    t1, t2 = random_tree(3, s1), random_tree(3, s2)
    seq = topology_sequence(tree_segment(t1, t2))
    if topology_of(t1) == topology_of(t2):
        assert not star_on_segment(t1, t2)
        assert seq == [topology_of(t1)]
    else:
        assert star_on_segment(t1, t2)
        assert seq == [topology_of(t2), topo(leaves="123"), topology_of(t1)]


@settings(max_examples=50, deadline=None)
@given(s1=st.integers(0, 2**31), s2=st.integers(0, 2**31))
def test_origin_criterion_equivalence(s1, s2):
    n = 3 + (s1 % 4)
    t1, t2 = random_tree(n, s1), random_tree(n, s2)
    assert star_on_segment(t1, t2) == star_in_hull(t1, t2)


# --------------------------------------------------------------------------
# structural checkers
# --------------------------------------------------------------------------

def test_check_clade_preservation_golden(clade_a, clade_b):
    assert check_clade_preservation(clade_a, clade_b, ("S1", "S2", "S3"))
    assert check_clade_preservation(clade_a, clade_a, ("S1", "S2", "S3"))


def test_check_clade_preservation_rejects_non_clade(clade_a, clade_b):
    with pytest.raises(ValueError):
        check_clade_preservation(clade_a, clade_b, ("S1", "S4"))


def test_check_nni_theorem_golden(quartet_a, quartet_b):
    assert check_nni_theorem(quartet_a, quartet_b)


def test_check_nni_theorem_identical_pair_trivially_true(quartet_a):
    assert check_nni_theorem(quartet_a, quartet_a)
    # same topology, different heights: still within the trivial case
    other = parse_newick("(((1:0.1,2:0.1):0.5,3:0.6):0.4,4:1);")
    assert check_nni_theorem(quartet_a, other)


def test_check_nni_theorem_requires_nni_pair(quartet_a):
    far = parse_newick("(((3:0.2,4:0.2):0.2,1:0.4):0.6,2:1);")
    with pytest.raises(ValueError):
        check_nni_theorem(quartet_a, far)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 9), seed=st.integers(0, 2**31))
def test_check_nni_theorem_random(n, seed):
    t1, t2 = tt.random_one_nni_pair(n, 1.0, tt.sample_rng(seed, 0))
    assert check_nni_theorem(t1, t2)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 8), seed=st.integers(0, 2**31))
def test_check_clade_preservation_random(n, seed):
    t1, t2, leaves = tt.random_shared_clade_pair(n, 1.0, tt.sample_rng(seed, 0))
    assert check_clade_preservation(t1, t2, leaves)


@pytest.mark.parametrize("n", [40, 80])
def test_check_clade_preservation_on_table_segments(n):
    # these segments read their bends from the candidate table, whose run
    # margins choose the bends that are read from their points
    for k in range(2):
        t1, t2, leaves = tt.random_shared_clade_pair(n, 1.0, tt.sample_rng(60, k))
        assert check_clade_preservation(t1, t2, leaves)


@pytest.mark.parametrize("tol", [-1e-9, float("nan")])
def test_negative_or_nan_tol_is_refused(tol, quartet_a, quartet_b):
    want = re.escape(f"tolerance must be >= 0, got {tol}")
    u = ultrametric_of(quartet_a)
    rng = tt.sample_rng(5, 0)
    for call in (lambda: tt.is_equidistant(quartet_a, tol), lambda: ultrametric_of(quartet_a, tol),
                 lambda: tree_segment(quartet_a, quartet_b, tol),
                 lambda: tt.tropical_segment(U_A, U_B, tol),
                 lambda: tt.is_ultrametric(U_A, tol), lambda: tt.is_ultrametric([1.0], tol),
                 lambda: tt.treespace.require_ultrametric(u, tol), lambda: tree_of(u, tol),
                 lambda: topology_of(quartet_a, tol), lambda: tt.is_clade(quartet_a, ["1"], tol),
                 lambda: tt.speciation_times(quartet_a, tol),
                 lambda: tt.nni_neighbors(quartet_a, tol),
                 lambda: tt.random_one_nni_pair(5, 1.0, rng, tol),
                 lambda: tt.random_shared_clade_pair(5, 1.0, rng, tol),
                 lambda: tt.point_type([U_A, U_B], U_A, tol),
                 lambda: in_tropical_hull([U_A, U_B], U_A, tol),
                 lambda: tt.structurally_equal(quartet_a, quartet_a, tol),
                 lambda: tt.treespace.star_crossings(U_A[None], U_B[None], tol)):
        with pytest.raises(ValueError, match=want) as raised:
            call()
        assert raised.type is ValueError
    # the samplers refuse before any draw
    assert rng.random() == tt.sample_rng(5, 0).random()


def per_bend_clade_preservation(t1, t2, leaves, tol=1e-9):
    """check_clade_preservation as it checked every bend tree of the
    segment on the tree route, one at a time."""
    leaves = sorted_labels(set(leaves))
    if not (tt.is_clade(t1, leaves, tol) and tt.is_clade(t2, leaves, tol)):
        raise ValueError(f"{list(leaves)} is not a clade of both trees")

    def induced(tree):
        return topology_of(tree_of(ultrametric_of(tree, tol).restrict(leaves), tol), tol)

    target = induced(t1)
    if induced(t2) != target:
        raise ValueError(f"the trees induce different topologies on {list(leaves)}")
    return all(tt.is_clade(bend, leaves, tol) and induced(bend) == target
               for bend in tree_segment(t1, t2, tol).bend_trees)


def grid_shared_clade_pair(rng, n, m):
    """Two trees on leaves 1..n sharing the clade 1..m with one induced
    subtree, their node heights from a coarse grid plus offsets near tol:
    ties, polytomies, and clades and runs about tol apart."""
    offsets = (0.0, 0.5e-9, 1.5e-9, 3e-9)

    def merge(D, members, heights):
        while len(members) > 1:
            picked = sorted(rng.choice(len(members), min(len(members), rng.integers(2, 4)),
                                       replace=False).tolist())
            h = (max(max(heights[k] for k in picked), rng.choice([0.1, 0.2, 0.3, 0.5, 0.8]))
                 + rng.choice(offsets))
            for x, y in itertools.combinations(picked, 2):
                D[np.ix_(members[x], members[y])] = D[np.ix_(members[y], members[x])] = 2 * h
            members = [g for k, g in enumerate(members) if k not in picked] + \
                [[a for k in picked for a in members[k]]]
            heights = [g for k, g in enumerate(heights) if k not in picked] + [h]
        return heights[0]

    inner = np.zeros((n, n))
    top = merge(inner, [[k] for k in range(m)], [0.0] * m)
    labels = tuple(str(k) for k in range(1, n + 1))
    trees = []
    for _ in range(2):
        D = inner.copy()
        merge(D, [list(range(m))] + [[k] for k in range(m, n)], [top] + [0.0] * (n - m))
        trees.append(tree_of(Ultrametric(labels, D[np.triu_indices(n, k=1)])))
    return trees[0], trees[1], labels[:m]


def outcome(check, *args):
    try:
        return check(*args)
    except tt.TropTreeError as err:
        return type(err).__name__, str(err)
    except ValueError as err:
        return "ValueError", str(err)


def test_clade_preservation_matches_per_bend_loop(monkeypatch):
    # the same answer, or the same error, as the loop over bend trees: on
    # sampled pairs at three heights, on pairs above 64 leaves (masks as
    # Python ints), and on grid pairs near tol, with the clean rule as it is
    # and with every bend sent to the tree route
    cases = [tt.random_shared_clade_pair(4 + k % 7, height, tt.sample_rng(61, k))
             for height in (1e-3, 1.0, 1e3) for k in range(12)]
    cases += [tt.random_shared_clade_pair(n, 1.0, tt.sample_rng(61, n)) for n in (66, 70)]
    # the full leaf set, which the root holds: two trees on a shared clade
    cases += [(*(tree_of(ultrametric_of(t).restrict(leaves)) for t in (t1, t2)), leaves)
              for t1, t2, leaves in cases[:36] if len(leaves) > 2]
    rng = np.random.default_rng(62)
    cases += [grid_shared_clade_pair(rng, n, m) for n in range(4, 10) for m in range(2, n)
              for _ in range(3)]
    want = [outcome(per_bend_clade_preservation, *case) for case in cases]
    assert {w if isinstance(w, bool) else w[0] for w in want} >= {True, "ValueError"}
    assert [outcome(check_clade_preservation, *case) for case in cases] == want
    # the checker's own clean rule sends its bends to the tree route; the
    # segment reader's, called from segment_linkages, keeps the pieces as they are
    real, checked = _linkages._is_clean, []

    def clean(widths, gaps, tol):
        if sys._getframe(1).f_code is not check_clade_preservation.__code__:
            return real(widths, gaps, tol)
        checked.append(len(widths))
        return widths < 0

    monkeypatch.setattr(_linkages, "_is_clean", clean)
    assert [outcome(check_clade_preservation, *case) for case in cases] == want
    assert len(checked) >= sum(isinstance(w, bool) for w in want) > 0


def test_clade_preservation_answers_no_as_the_bend_trees_do(monkeypatch):
    # the checker reading a segment from t1 to a third tree t3, on which the
    # leaf set may be no clade or induce another topology: its answer is
    # that of the loop over the bend trees of that segment, False included
    real = tt.treespace.tree_segment
    got, want = [], []
    for k in range(60):
        rng = tt.sample_rng(63, k)
        n = 4 + k % 7
        t1, t2, leaves = tt.random_shared_clade_pair(n, 1.0, rng)
        t3 = tt.random_equidistant_tree(n, 1.0, rng)
        monkeypatch.setattr(tt.treespace, "tree_segment", lambda a, b, tol, t3=t3: real(a, t3, tol))
        got.append(check_clade_preservation(t1, t2, leaves))
        monkeypatch.setattr(tt.treespace, "tree_segment", real)
        target = topology_of(tree_of(ultrametric_of(t1).restrict(leaves)))
        want.append(all(tt.is_clade(bend, leaves) and target == topology_of(
            tree_of(ultrametric_of(bend).restrict(leaves))) for bend in real(t1, t3).bend_trees))
    assert got == want
    assert 0 < sum(want) < len(want)
