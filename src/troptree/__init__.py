"""Tropical line segments between equidistant phylogenetic trees.

The package represents equidistant trees by their ultrametrics (pairwise
leaf-distance vectors) and studies the tropical line segment, the unique
max-plus geodesic, between two of them: its bend points, the tree topologies
along it, star-tree crossings, clade preservation, and the relation to
nearest-neighbor-interchange moves.
"""

from .errors import (LeafSetMismatchError, NewickParseError,
                     NotEquidistantError, NotUltrametricError, TropTreeError)
from .newick import (RootedTree, TreeNode, parse_newick, structurally_equal,
                     write_newick)
from .sim import (ExperimentReport, SampleConfig, check_nni_conjecture,
                  estimate_star_probability, random_equidistant_tree,
                  random_one_nni_pair, random_shared_clade_pair, sample_rng)
from .trees import (Topology, is_clade, is_equidistant, nni_neighbors,
                    one_nni_apart, speciation_times, topology_of)
from .tropical import (TropicalSegment, canonicalize, in_tropical_hull,
                       point_type, trop_combine, trop_dist, tropical_segment)
from .treespace import (TreeSegment, Ultrametric, check_clade_preservation,
                        check_nni_theorem, is_ultrametric, segment_to_star,
                        star_on_segment, topology_sequence, tree_of,
                        tree_segment, ultrametric_of)
from .util import DEFAULT_TOL

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "ExperimentReport",
    "LeafSetMismatchError",
    "NewickParseError",
    "NotEquidistantError",
    "NotUltrametricError",
    "RootedTree",
    "SampleConfig",
    "Topology",
    "TreeNode",
    "TreeSegment",
    "TropTreeError",
    "TropicalSegment",
    "Ultrametric",
    "canonicalize",
    "check_clade_preservation",
    "check_nni_conjecture",
    "check_nni_theorem",
    "estimate_star_probability",
    "in_tropical_hull",
    "is_clade",
    "is_equidistant",
    "is_ultrametric",
    "nni_neighbors",
    "one_nni_apart",
    "parse_newick",
    "point_type",
    "random_equidistant_tree",
    "random_one_nni_pair",
    "random_shared_clade_pair",
    "sample_rng",
    "segment_to_star",
    "speciation_times",
    "star_on_segment",
    "structurally_equal",
    "topology_of",
    "topology_sequence",
    "tree_of",
    "tree_segment",
    "trop_combine",
    "trop_dist",
    "tropical_segment",
    "ultrametric_of",
    "write_newick",
]
