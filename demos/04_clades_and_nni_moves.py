"""Shared clades survive along segments, and one-NNI segments stay close
to their endpoints.

First: two 5-leaf trees whose {S1,S2,S3} clade has the same shape in both.
Every tree on their segment keeps that clade with that shape.  Second: for
trees one NNI move apart, every topology on the segment is an endpoint
topology or a contraction of one (some internal edges collapsed to zero).
"""

from troptree import (check_clade_preservation, check_nni_theorem, is_clade,
                      nni_neighbors, one_nni_apart, parse_newick, topology_of,
                      topology_sequence, tree_of, tree_segment, ultrametric_of,
                      write_newick)

t1 = parse_newick("((((S1:0.5,S2:0.5):0.5,S3:1):0.9,S4:1.9):0.1,S5:2);")
t2 = parse_newick("(((S1:0.5,S2:0.5):0.5,S3:1):1,(S4:1.5,S5:1.5):0.5);")
clade = ("S1", "S2", "S3")


def restrict(tree, leaves):
    """The tree induced on a subset of the leaves."""
    return tree_of(ultrametric_of(tree).restrict(leaves))


print(f"t1 = {write_newick(t1)}")
print(f"t2 = {write_newick(t2)}")
print(f"\n{clade} is a clade of both: "
      f"{is_clade(t1, clade)} and {is_clade(t2, clade)}")
print(f"Induced subtree in t1: {write_newick(restrict(t1, clade))}")

print("\nEvery bend tree keeps the clade with the same shape:")
seg = tree_segment(t1, t2)
for k, bend in enumerate(seg.bend_trees):
    sub = restrict(bend, clade)
    print(f"  bend {k}: clade={is_clade(bend, clade)}, "
          f"shape={topology_of(sub).canonical_str()}")
print(f"check_clade_preservation: {check_clade_preservation(t1, t2, clade)}")

print("\n" + "-" * 60)
a = parse_newick("(((1:0.2,2:0.2):0.2,3:0.4):0.6,4:1);")
print(f"\nNNI neighbors of {write_newick(a)}:")
for nb in nni_neighbors(a):
    print(f"  {write_newick(nb)}")

b = parse_newick("((1:0.2,2:0.2):0.8,(3:0.3,4:0.3):0.7);")
print(f"\n{write_newick(a)} and {write_newick(b)} are one NNI apart: "
      f"{one_nni_apart(a, b)}")
print("Topologies along their segment:")
for topo in topology_sequence(tree_segment(a, b)):
    tag = ""
    if topo == topology_of(a):
        tag = "  <- endpoint"
    elif topo == topology_of(b):
        tag = "  <- endpoint"
    elif not topo.is_binary:
        tag = "  <- contraction (zero-length edges)"
    print(f"  {topo.canonical_str()}{tag}")
print(f"check_nni_theorem: {check_nni_theorem(a, b)}")
