import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from troptree import (NewickParseError, parse_newick, random_equidistant_tree,
                      sample_rng, structurally_equal, topology_of, ultrametric_of,
                      write_newick)


def test_parse_three_leaf_depths():
    tree = parse_newick("((1:0.2,2:0.2):0.8,3:1.0);")
    depths = tree.leaf_depths()
    assert depths == {"1": 1.0, "2": 1.0, "3": 1.0}
    assert tree.leaf_labels == ("1", "2", "3")


def test_parse_keeps_structure():
    tree = parse_newick("(((1:0.2,2:0.2):0.2,3:0.4):0.6,4:1.0);")
    depths = tree.leaf_depths()
    assert all(abs(d - 1.0) < 1e-12 for d in depths.values())
    # the cherry {1,2} hangs two levels below the root, which has two
    # children; internal nodes are numbered in postorder
    assert [children for _, children in tree.merges] == [[0, 1], [4, 2], [5, 3]]
    assert len(tree.merges[-1][1]) == 2


def test_parse_single_leaf():
    tree = parse_newick("A:0;")
    assert tree.leaf_labels == ("A",)
    assert tree.merges == [] and tree.lengths == [0.0]
    assert parse_newick("A;").leaf_labels == ("A",)


def test_parse_internal_labels_dropped():
    tree = parse_newick("((1:0.2,2:0.2)anc:0.8,3:1.0)root;")
    assert tree.leaf_labels == ("1", "2", "3")


def test_parse_whitespace_insignificant():
    a = parse_newick(" ( (1:0.2 ,2:0.2) : 0.8, 3:1.0 ) ;\n")
    b = parse_newick("((1:0.2,2:0.2):0.8,3:1.0);")
    assert structurally_equal(a, b)


@pytest.mark.parametrize("text,fragment", [
    ("((1:0.2,2:0.2):0.8,3;", "missing branch length"),
    ("((1:0.2,2:0.2):0.8,3:1.0)", "expected ';'"),
    ("((1:0.2,2:0.2:0.8,3:1.0);", "unbalanced"),
    ("((1:0.2,1:0.2):0.8,3:1.0);", "duplicate leaf label"),
    ("((1:0.2,2:-0.2):0.8,3:1.0);", "negative branch length"),
    ("((1:0.2,2:0.2):0.8,3:1.0); extra", "trailing content"),
    ("(1:0.5);", "at least 2 children"),
    ("(,1:0.5);", "expected a leaf label"),
    ("(1:0.5,2:1.2.3);", "invalid branch length"),
    ("(1:0.5,2:x);", "expected a branch length"),
    ("", "expected a leaf label"),
    ("((a:1e400,b:1):1,c:1);", "branch length 1e400 overflows"),
])
def test_parse_errors_carry_offsets(text, fragment):
    with pytest.raises(NewickParseError) as err:
        parse_newick(text)
    assert fragment in str(err.value)
    assert 0 <= err.value.offset <= len(text)


def test_parse_error_offset_points_at_problem():
    with pytest.raises(NewickParseError) as err:
        parse_newick("((1:0.2,2:-0.2):0.8,3:1.0);")
    assert err.value.offset == "((1:0.2,2:".__len__()
    with pytest.raises(NewickParseError) as err:
        parse_newick("((1:0.2,2:0.2):0.8,3: 2e308);")
    assert err.value.offset == "((1:0.2,2:0.2):0.8,3: ".__len__()


def test_write_golden_three_leaf():
    tree = parse_newick("((1:0.2,2:0.2):0.8,3:1.0);")
    assert write_newick(tree) == "((1:0.2,2:0.2):0.8,3:1);"


def test_write_golden_star():
    tree = parse_newick("(2:1,3:1,1:1);")
    assert write_newick(tree) == "(1:1,2:1,3:1);"


def test_write_golden_polytomy_bend_tree():
    tree = parse_newick("(4:1,(3:0.4,1:0.4,2:0.4):0.6);")
    assert write_newick(tree) == "((1:0.4,2:0.4,3:0.4):0.6,4:1);"


def test_write_is_canonical_under_child_permutation():
    a = parse_newick("((1:0.2,2:0.2):0.8,3:1);")
    b = parse_newick("(3:1,(2:0.2,1:0.2):0.8);")
    assert write_newick(a) == write_newick(b)


def test_write_precision_trims():
    tree = parse_newick("(1:0.3333333333333333,2:0.3333333333333333);")
    assert write_newick(tree, precision=4) == "(1:0.3333,2:0.3333);"


def test_natural_label_order():
    tree = parse_newick("(S10:1,(S2:0.5,S1:0.5):0.5);")
    assert tree.leaf_labels == ("S1", "S2", "S10")
    assert write_newick(tree) == "((S1:0.5,S2:0.5):0.5,S10:1);"


def test_tied_natural_keys_ordered_by_label():
    # '01' and '1' have equal digit runs; the spelling of the input must
    # not decide their order
    a = parse_newick("((01:1,1:1):1,2:2);")
    b = parse_newick("((1:1,01:1):1,2:2);")
    assert a.leaf_labels == b.leaf_labels == ("01", "1", "2")
    assert write_newick(a) == write_newick(b) == "((01:1,1:1):1,2:2);"
    assert topology_of(a) == topology_of(b)
    assert ultrametric_of(a).entries.tolist() == ultrametric_of(b).entries.tolist()


def test_digit_like_labels_and_lengths():
    # '²' and '①' are digits to str.isdigit but not decimal digits: in a
    # label they sort as text, and in a branch length they are invalid;
    # '٣' is a decimal digit, and float reads it
    tree = parse_newick("((²:1,1²:1):1,(①:1,2:1):1);")
    assert tree.leaf_labels == ("1²", "2", "²", "①")
    assert write_newick(tree) == "((1²:1,²:1):1,(2:1,①:1):1);"
    assert parse_newick("(²:1,b:1);").leaf_labels == ("b", "²")
    with pytest.raises(NewickParseError) as err:
        parse_newick("(a:1²,b:1);")
    assert (str(err.value), err.value.offset) == ("invalid branch length '1²' (at byte 3)", 3)
    assert parse_newick("(a:1٣,b:13);").lengths == [13.0, 13.0, 0.0]


def test_parse_error_offsets_index_the_string():
    with pytest.raises(NewickParseError) as err:
        parse_newick("(é:1,b:-1);")
    assert err.value.offset == 7 and "(é:1,b:-1);"[7] == "-"


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 20), seed=st.integers(0, 2**32 - 1))
def test_roundtrip_random_trees(n, seed):
    tree = random_equidistant_tree(n, 1.0, sample_rng(seed, 0))
    again = parse_newick(write_newick(tree, precision=17))
    assert structurally_equal(tree, again, tol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="abc123(),.:;- \t", max_size=60))
def test_fuzz_never_crashes(text):
    try:
        parse_newick(text)
    except NewickParseError:
        pass
