import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_walks as walk
import troptree as tt
from troptree import (Topology, is_clade, is_equidistant, nni_neighbors,
                      one_nni_apart, parse_newick, speciation_times,
                      topology_of, write_newick)
from troptree.newick import _newick_of_merges
from troptree.trees import _clade_table, _tree_of_clades, require_equidistant
from troptree.util import sorted_labels

#: leaf depths spread by 1.8e-9: within tol of the median, but the
#: three-point condition fails on (1, 3, 2) by more than tol
SKEWED = "((1:0.5000000009,2:0.4999999991):0.5,3:1);"


def topo(*clades, leaves):
    return Topology(leaves, [frozenset(c) for c in clades])


def restrict(tree, keep):
    return tt.tree_of(tt.ultrametric_of(tree).restrict(keep))


def members(labels, mask):
    """The labels of a clade mask over natural-sorted labels."""
    n = len(labels)
    return frozenset(lab for r, lab in enumerate(labels) if mask >> (n - 1 - r) & 1)


def clade_heights(tree):
    """Internal clade (as a label set) -> height, from the cluster table."""
    return {members(tree.leaf_labels, mask): h
            for mask, (h, _) in _clade_table(tree).items()}


def tree_of_clade_heights(leaves, heights):
    """The tree of a laminar label-set clade -> height map."""
    labels = sorted_labels(leaves)
    n = len(labels)
    return _tree_of_clades(labels, {
        sum(1 << (n - 1 - labels.index(lab)) for lab in clade): h
        for clade, h in heights.items()})


# --------------------------------------------------------------------------
# equidistance
# --------------------------------------------------------------------------

def test_is_equidistant(quartet_a):
    assert is_equidistant(quartet_a)
    assert not is_equidistant(parse_newick("(1:1,(2:0.5,3:0.5):0.2);"))
    assert is_equidistant(parse_newick("A:0;"))


def test_is_equidistant_agrees_with_require_equidistant():
    skewed = parse_newick(SKEWED)
    require_equidistant(skewed)
    assert is_equidistant(skewed)
    tight = 0.5e-9
    with pytest.raises(tt.NotEquidistantError):
        require_equidistant(skewed, tight)
    assert not is_equidistant(skewed, tight)


def test_not_equidistant_error_names_leaf():
    tree = parse_newick("((1:1,2:1):1,(3:0.5,4:1):1);")
    with pytest.raises(tt.NotEquidistantError) as err:
        tt.ultrametric_of(tree)
    assert err.value.leaf == "3"


# --------------------------------------------------------------------------
# topologies
# --------------------------------------------------------------------------

def test_topology_golden(quartet_a):
    expected = topo({"1", "2"}, {"1", "2", "3"}, leaves="1234")
    assert topology_of(quartet_a) == expected
    assert topology_of(quartet_a).canonical_str() == "{1,2}|{1,2,3}|{1,2,3,4}"


def test_topology_polytomy_bend_tree():
    tree = parse_newick("((1:0.4,2:0.4,3:0.4):0.6,4:1);")
    assert topology_of(tree) == topo({"1", "2", "3"}, leaves="1234")


def test_topology_star():
    tree = parse_newick("(1:1,2:1,3:1,4:1);")
    assert topology_of(tree) == topo(leaves="1234")
    assert topology_of(tree).is_star


def test_topology_collapses_short_edges():
    tree = parse_newick("((1:0.4,(2:0.4,3:0.4):0):0.6,4:1);")
    assert topology_of(tree) == topo({"1", "2", "3"}, leaves="1234")


def test_topology_scaling_invariance(quartet_a):
    scaled = parse_newick(_newick_of_merges(quartet_a.leaf_labels, quartet_a.merges,
                                            [7.5 * x for x in quartet_a.lengths], 17))
    assert topology_of(scaled) == topology_of(quartet_a)


def test_topology_laminarity_enforced():
    with pytest.raises(ValueError):
        Topology("1234", [frozenset("12"), frozenset("23")])


def test_topology_binary_and_contraction(quartet_a):
    t = topology_of(quartet_a)
    assert t.is_binary and not t.is_star
    poly = topo({"1", "2", "3"}, leaves="1234")
    assert not poly.is_binary
    assert poly.is_contraction_of(t)
    assert not t.is_contraction_of(poly)
    assert t.is_contraction_of(t)


# --------------------------------------------------------------------------
# speciation times
# --------------------------------------------------------------------------

def test_speciation_times_golden(quartet_a):
    assert speciation_times(quartet_a) == pytest.approx((0.2, 0.4, 1.0))


def test_speciation_times_star():
    assert speciation_times(parse_newick("(1:2.5,2:2.5,3:2.5);")) == (2.5,)


def test_speciation_times_ladder(ladder8):
    assert speciation_times(ladder8) == pytest.approx(
        (0.2, 0.3, 0.4, 0.6, 0.7, 1.0, 1.2))


def test_speciation_times_dedupe_ties():
    tree = parse_newick("((1:0.3,2:0.3):0.7,(3:0.3,4:0.3):0.7);")
    assert speciation_times(tree) == pytest.approx((0.3, 1.0))


# --------------------------------------------------------------------------
# clades and restriction
# --------------------------------------------------------------------------

def test_restrict_clade_golden(clade_a):
    sub = restrict(clade_a, {"S1", "S2", "S3"})
    assert write_newick(sub) == "((S1:0.5,S2:0.5):0.5,S3:1);"


def test_restrict_identity(clade_a):
    sub = restrict(clade_a, clade_a.leaf_labels)
    assert tt.structurally_equal(sub, clade_a, tol=1e-12)


def test_restrict_two_leaves(clade_a):
    sub = restrict(clade_a, {"S1", "S4"})
    # distance S1-S4 is 3.8, so the cherry height is 1.9
    assert write_newick(sub) == "(S1:1.9,S4:1.9);"


def test_restrict_errors(clade_a):
    with pytest.raises(ValueError):
        restrict(clade_a, set())
    with pytest.raises(ValueError):
        restrict(clade_a, {"S1", "nope"})


def test_restrict_matches_ultrametric_route(clade_a):
    # independent route: intersect every clade with the kept leaves; each
    # intersection of two or more leaves sits at the height of the lowest
    # clade that gives it
    keep = frozenset({"S1", "S2", "S4"})
    induced: dict = {}
    for clade, height in clade_heights(clade_a).items():
        sub = clade & keep
        if len(sub) >= 2:
            induced[sub] = min(height, induced.get(sub, height))
    want = tree_of_clade_heights(keep, induced)
    assert tt.structurally_equal(restrict(clade_a, keep), want, tol=1e-12)


def test_is_clade_golden(clade_a):
    assert is_clade(clade_a, {"S1", "S2", "S3"})
    assert not is_clade(clade_a, {"S1", "S4"})
    assert is_clade(clade_a, clade_a.leaf_labels)
    assert is_clade(clade_a, {"S5"})


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 9), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_is_clade_iff_in_topology(n, seed, data):
    tree = tt.random_equidistant_tree(n, 1.0, tt.sample_rng(seed, 0))
    labels = list(tree.leaf_labels)
    size = data.draw(st.integers(2, n - 1))
    subset = frozenset(data.draw(st.permutations(labels))[:size])
    assert is_clade(tree, subset) == (subset in topology_of(tree).clades)
    assert is_equidistant(restrict(tree, subset))


# --------------------------------------------------------------------------
# NNI moves
# --------------------------------------------------------------------------

def test_nni_three_leaf():
    tree = parse_newick("((1:0.5,2:0.5):0.5,3:1);")
    got = {topology_of(t) for t in nni_neighbors(tree)}
    assert got == {topo({"1", "3"}, leaves="123"), topo({"2", "3"}, leaves="123")}


def test_nni_produces_example_pair(quartet_a):
    # the caterpillar (((1,2),3),4) has ((1,2),(3,4)) among its neighbors
    target = topo({"1", "2"}, {"3", "4"}, leaves="1234")
    assert target in {topology_of(t) for t in nni_neighbors(quartet_a)}


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_nni_count_caterpillar(n):
    # oracle: one move per (internal edge, far clade) choice = 2 per edge;
    # count the internal edges by direct structure inspection
    parts = "1:0.1"
    for k in range(2, n + 1):
        parts = f"({parts},{k}:{0.1 * (k - 1):.1f}):0.1"
    text = parts[:-4] + ";"
    tree = parse_newick(text)
    root = walk.parse_newick(text)
    internal_edges = 0
    stack = list(root.children)
    while stack:
        node = stack.pop()
        if not node.is_leaf():
            internal_edges += 1
            stack += node.children
    assert internal_edges == n - 2
    neighbors = nni_neighbors(tree)
    assert len(neighbors) == 2 * internal_edges
    # all neighbors are valid equidistant trees with distinct topologies
    topos = {topology_of(t) for t in neighbors}
    assert len(topos) == len(neighbors)
    assert all(is_equidistant(t) for t in neighbors)


def test_nni_rejects_polytomy():
    with pytest.raises(ValueError):
        nni_neighbors(parse_newick("(1:1,2:1,3:1);"))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 10), seed=st.integers(0, 2**32 - 1))
def test_nni_neighbors_change_exactly_one_clade(n, seed):
    tree = tt.random_equidistant_tree(n, 1.0, tt.sample_rng(seed, 0))
    base = topology_of(tree)
    for nb in nni_neighbors(tree):
        other = topology_of(nb)
        assert len(base.clades ^ other.clades) == 2
        assert is_equidistant(nb)
        assert abs(nb.height() - tree.height()) < 1e-9


def test_nni_refit_keeps_topology_valid():
    # regrafting the tall clade {3,4,5} below the shallow node at 0.2 forces
    # a rescale; the neighbor topologies must still be binary
    tree = parse_newick(
        "((1:0.1,2:0.1):0.9,((3:0.5,4:0.5):0.4,5:0.9):0.1);")
    for nb in nni_neighbors(tree):
        assert topology_of(nb).is_binary
        assert is_equidistant(nb)


def test_nni_neighbors_use_callers_tol():
    # the sibling clade {4,5} sits 1e-8 below the node {1,2,3} it is
    # regrafted to: more than 2 tol below at the default, so it keeps its
    # height, but within 2 tol at tol=1e-7, so it is rescaled
    tree = parse_newick("(((1:0.3,2:0.3):0.2,3:0.5):0.5,"
                        "(4:0.49999999,5:0.49999999):0.50000001);")

    def heights_of_45(nbrs):
        return {round(clade_heights(nb)[frozenset("45")], 12)
                for nb in nbrs if frozenset("45") in clade_heights(nb)}

    default = nni_neighbors(tree)
    assert [write_newick(t) for t in default] == \
        [write_newick(t) for t in nni_neighbors(tree, tt.DEFAULT_TOL)]
    assert heights_of_45(default) == {0.49999999}
    assert heights_of_45(nni_neighbors(tree, 1e-7)) == {0.49999999, 0.25}


def test_nni_neighbors_regraft_a_sibling_of_height_zero():
    # the cherry sits at 1e-9, within 2 tol of 0, and the sibling regrafted
    # below it is the leaf 3: a subtree of height 0 has nothing to rescale
    tree = parse_newick("((1:1e-9,2:1e-9):0.999999999,3:1);")
    nbrs = nni_neighbors(tree)
    assert [write_newick(nb) for nb in nbrs] == [
        "(1:1,(2:1e-09,3:1e-09):0.999999999);",
        "((1:1e-09,3:1e-09):0.999999999,2:1);"]
    assert [topology_of(nb) for nb in nbrs] == [
        topo("23", "123", leaves="123"), topo("13", "123", leaves="123")]
    # at height 1e-9 every node height is below 2 tol; each neighbour is
    # still exactly one NNI move away
    for seed in range(20):
        t1, t2 = tt.random_one_nni_pair(5, 1e-9, tt.sample_rng(seed, 0))
        base = topology_of(t1, 1e-15)
        assert base.is_binary
        for nb in [t2, *nni_neighbors(t1)]:
            assert base.one_nni_apart(topology_of(nb, 1e-15))


def test_one_nni_apart_golden(quartet_a, quartet_b):
    balanced = parse_newick("((1:0.2,2:0.2):0.8,(3:0.3,4:0.3):0.7);")
    assert one_nni_apart(balanced, quartet_a)
    assert one_nni_apart(quartet_a, quartet_b)
    assert not one_nni_apart(quartet_a, quartet_a)
    # two moves apart: (((1,2),3),4) vs (((3,4),1),2)
    far = parse_newick("(((3:0.2,4:0.2):0.2,1:0.4):0.6,2:1);")
    assert not one_nni_apart(quartet_a, far)


def test_one_nni_apart_leaf_mismatch(quartet_a):
    with pytest.raises(tt.LeafSetMismatchError):
        one_nni_apart(quartet_a, parse_newick("((1:0.5,2:0.5):0.5,9:1);"))


def nni_by_enumeration(a, b):
    """Reference: is b's topology among those of a's NNI neighbours?"""
    return any(topology_of(x) == topology_of(b) for x in nni_neighbors(a))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 9), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["one-move", "independent", "two-moves"]))
def test_one_nni_apart_matches_enumeration(n, seed, kind):
    rng = tt.sample_rng(seed, 0)
    if kind == "one-move":
        a, b = tt.random_one_nni_pair(n, 1.0, rng)
    elif kind == "independent":
        a = tt.random_equidistant_tree(n, 1.0, rng)
        b = tt.random_equidistant_tree(n, 1.0, rng)
    else:
        a, mid = tt.random_one_nni_pair(n, 1.0, rng)
        nbrs = nni_neighbors(mid)
        b = nbrs[int(rng.integers(len(nbrs)))]
    assert one_nni_apart(a, b) == nni_by_enumeration(a, b)
    assert one_nni_apart(b, a) == nni_by_enumeration(b, a)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 9), seed=st.integers(0, 2**32 - 1))
def test_one_nni_apart_symmetric(n, seed):
    t1, t2 = tt.random_one_nni_pair(n, 1.0, tt.sample_rng(seed, 0))
    assert one_nni_apart(t1, t2)
    assert one_nni_apart(t2, t1)


# --------------------------------------------------------------------------
# shared-clade pair generator (exercised here because it returns trees)
# --------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 9), seed=st.integers(0, 2**32 - 1))
def test_random_shared_clade_pair(n, seed):
    t1, t2, leaves = tt.random_shared_clade_pair(n, 1.0, tt.sample_rng(seed, 0))
    assert is_clade(t1, leaves) and is_clade(t2, leaves)
    assert topology_of(restrict(t1, leaves)) == \
        topology_of(restrict(t2, leaves))
    assert is_equidistant(t2)
    heights = clade_heights(t2)
    assert max(heights.values()) == pytest.approx(1.0)


def test_random_shared_clade_pair_default_tol():
    for seed in range(5):
        got = tt.random_shared_clade_pair(6, 1.0, tt.sample_rng(seed, 0))
        explicit = tt.random_shared_clade_pair(6, 1.0, tt.sample_rng(seed, 0),
                                               tol=tt.DEFAULT_TOL)
        assert [write_newick(t) for t in got[:2]] == [write_newick(t) for t in explicit[:2]]
        assert got[2] == explicit[2]
