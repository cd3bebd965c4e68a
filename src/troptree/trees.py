"""Equidistant-tree semantics: validation, topologies, clades, speciation
times, and rooted NNI moves.

Heights here are measured upward from the leaves (a leaf has height 0); the
pairwise distance between two leaves of an equidistant tree is twice the
height of their most recent common ancestor.  Trees are built here from merge
schedules, those of distances by single linkage (:mod:`troptree._linkages`).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import LeafSetMismatchError, NotEquidistantError
from .newick import RootedTree, _merge_masks, _node_depths, _preorder_leaves
from .util import DEFAULT_TOL, sorted_labels, square_form, square_rows, valid_tol


# --------------------------------------------------------------------------
# basic measurements
# --------------------------------------------------------------------------

def is_equidistant(tree: RootedTree, tol: float = DEFAULT_TOL) -> bool:
    """True iff :func:`require_equidistant` accepts the tree; it refuses the same tol."""
    return _equidistance_error(tree.leaf_labels, tree.merges, tree.lengths, valid_tol(tol)) is None


def require_equidistant(tree: RootedTree, tol: float = DEFAULT_TOL) -> None:
    """Raise :class:`NotEquidistantError` naming a deviant leaf: one whose
    root-to-leaf path length is more than tol from the median, and
    ValueError for a tol below 0 or NaN."""
    error = _equidistance_error(tree.leaf_labels, tree.merges, tree.lengths, valid_tol(tol))
    if error is not None:
        raise error


def pairwise_distances(tree: RootedTree) -> tuple[tuple[str, ...], np.ndarray]:
    """Cophenetic path distances between all leaf pairs, written from the
    tree's merge schedule by :func:`_distances_of_merges`: the natural-sorted
    labels and the condensed vector in lexicographic pair order over them,
    its float64 entries read from the row list by ``np.fromiter``, bit for
    bit those of ``np.array`` of it."""
    labels = tree.leaf_labels
    row = _distances_of_merges(len(labels), tree.merges, tree.lengths)
    return labels, np.fromiter(row, dtype=np.float64, count=len(row))


def _distances_of_merges(n: int, merges: list[tuple[float, list[int]]],
                         lengths: list[float]) -> list[float]:
    """The condensed cophenetic distances of a merge schedule over n leaves
    with the branch `lengths` of its nodes.  Each leaf keeps its depth below
    the newest node above it, added upward from the leaf, one branch per
    merge; the distance of two leaves is the sum of their depths below the
    node that joins them.  Pair positions come from the rows cached per n by
    :func:`~troptree.util.square_rows`, so a call builds no index; the cache
    changes no addition, so every float is the one a fresh index gives."""
    index = square_rows(n)
    row = [0.0] * (n * (n - 1) // 2)
    depth = [0.0] * n
    members = [[k] for k in range(n)]
    for _, children in merges:
        below: list[int] = []
        for c in children:
            group, step = members[c], lengths[c]
            for x in group:
                depth[x] += step
            for x in group:
                dx, at = depth[x], index[x]
                for y in below:
                    row[at[y]] = dx + depth[y]
            below += group
        members.append(below)
    return row


def require_same_leaves(a: Iterable[str], b: Iterable[str]) -> None:
    """Raise :class:`LeafSetMismatchError` unless two trees' leaf labels
    form the same set."""
    a, b = set(a), set(b)
    if a != b:
        raise LeafSetMismatchError(
            f"trees have different leaf sets: {sorted(a ^ b)} not shared")


# --------------------------------------------------------------------------
# topologies
# --------------------------------------------------------------------------

class Topology:
    """Canonical rooted tree shape: a laminar family of clades over a fixed
    leaf set.  The full leaf set is always a clade; singletons never are.
    Branch lengths are discarded, so tied node heights appear as polytomies
    (missing clades).  `labels` holds the leaves in natural order.  Each clade is an int
    bitmask in `masks`, in which the leaf of rank r sets bit
    ``1 << (n-1-r)`` (Day 1985's cluster table, one int per cluster), so
    equality, contraction and the NNI test are set operations on ints.  The
    canonical clade order, by size and then by member labels in natural
    order, is the order by (popcount, -mask)."""

    __slots__ = ("labels", "masks")

    def __init__(self, leaves: Iterable[str], clades: Iterable[frozenset[str]]):
        labels = sorted_labels(frozenset(leaves))
        bit = {lab: 1 << k for k, lab in enumerate(reversed(labels))}
        masks = []
        for c in map(frozenset, clades):
            if len(c) < 2 or not c <= bit.keys():
                raise ValueError(f"bad clade {sorted(c)}")
            masks.append(sum(bit[lab] for lab in c))
        self._set(labels, masks)
        ordered = sorted(self.masks, key=int.bit_count)
        for k, a in enumerate(ordered):
            for b in ordered[k + 1:]:
                if a & b and a & b != a:
                    raise ValueError(f"clades {_members(self.labels, a)} and "
                                     f"{_members(self.labels, b)} are not laminar")

    @classmethod
    def _of_masks(cls, labels: tuple[str, ...], masks: Iterable[int]) -> "Topology":
        """Topology from natural-sorted labels and clade masks known to be
        laminar (as the clades of a tree are)."""
        topo = object.__new__(cls)
        topo._set(labels, masks)
        return topo

    def _set(self, labels: tuple[str, ...], masks: Iterable[int]) -> None:
        if len(labels) < 2:
            raise ValueError(f"bad clade {list(labels)}")
        self.labels = labels
        self.masks = frozenset(masks).union(((1 << len(labels)) - 1,))

    @property
    def clades(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(_members(self.labels, m)) for m in self.masks)

    @property
    def is_binary(self) -> bool:
        # a laminar family with the full set and n-1 members forces 2 children
        # at every internal node
        return len(self.masks) == len(self.labels) - 1

    @property
    def is_star(self) -> bool:
        return len(self.masks) == 1

    def is_contraction_of(self, other: "Topology") -> bool:
        """True iff self arises from `other` by collapsing internal edges
        (its clade family is a sub-family of other's)."""
        return self.labels == other.labels and self.masks <= other.masks

    def one_nni_apart(self, other: "Topology") -> bool:
        """True iff both topologies are binary and each has exactly one
        clade the other lacks: rooted Robinson-Foulds distance 2, which for
        binary rooted trees means exactly one NNI move apart."""
        return (self.is_binary and other.is_binary and self.labels == other.labels
                and len(self.masks - other.masks) == 1)

    def canonical_str(self) -> str:
        from ._linkages import topology_strs
        return topology_strs([self])[0]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Topology) and self.masks == other.masks
                and self.labels == other.labels)

    def __hash__(self) -> int:
        return hash(self.masks)

    def __repr__(self) -> str:
        return f"Topology({self.canonical_str()})"


def _members(labels: Sequence[str], mask: int) -> list[str]:
    """The labels of a clade mask over natural-sorted `labels`: its bits from the high end."""
    top = len(labels) - 1
    out = []
    while mask:
        high = mask.bit_length() - 1
        out.append(labels[top - high])
        mask ^= 1 << high
    return out


def topology_of(tree: RootedTree, tol: float = DEFAULT_TOL) -> Topology:
    """Clade set of an equidistant tree after collapsing every internal edge
    of length <= tol into its parent, read from its merge schedule."""
    return _topology_of_merges(tree.leaf_labels, tree.merges, tree.lengths, valid_tol(tol))


def _clade_table(tree: RootedTree, labels: Sequence[str] | None = None,
                 ) -> dict[int, tuple[float, list[int]]]:
    """The tree's cluster table (Day 1985), read from its merge schedule:
    each internal node's clade mask -> (height, its children's masks), from
    the root down, in reverse schedule order.  Masks are over natural-sorted
    `labels` (default the tree's own) in the bit convention of
    :class:`Topology`.  Heights are the schedule's, the largest child height
    plus branch."""
    labels = tree.leaf_labels if labels is None else labels
    bit = {lab: 1 << k for k, lab in enumerate(reversed(labels))}
    n = tree.n_leaves
    masks = _merge_masks([bit[lab] for lab in tree.leaf_labels], tree.merges)
    return {masks[n + m]: (height, [masks[c] for c in children])
            for m, (height, children) in reversed(list(enumerate(tree.merges)))}


def speciation_times(tree: RootedTree, tol: float = DEFAULT_TOL) -> tuple[float, ...]:
    """Sorted distinct internal-node heights; values within tol are merged
    (each merged group, split where consecutive heights differ by more than
    tol, is represented by its largest member, so the last entry is exactly
    the tree height)."""
    require_equidistant(tree, tol)
    internal = sorted([h for h, _ in tree.merges])
    return tuple(h for h, up in zip(internal, internal[1:] + [math.inf]) if up - h > tol)


# --------------------------------------------------------------------------
# building trees from distances or clade maps
# --------------------------------------------------------------------------

def _merge_lengths(n: int, merges: list[tuple[float, list[int]]]) -> list[float]:
    """The branch length of every node of a merge schedule over n leaves,
    by node number: the parent's height minus the node's own, clamped at
    0.  The root's is 0."""
    heights = [0.0] * n
    lengths = [0.0] * (n + len(merges))
    for height, children in merges:
        for c in children:
            length = height - heights[c]
            lengths[c] = 0.0 if length < 0.0 else length
        heights.append(height)
    return lengths


def _tree_of_merges(labels: Sequence[str],
                    merges: list[tuple[float, list[int]]]) -> RootedTree:
    """The tree of a merge schedule over natural-sorted `labels`, as single
    linkage, :func:`_clade_merges` and the sampler make them."""
    return RootedTree._of_schedule(labels, [children for _, children in merges],
                                   _merge_lengths(len(labels), merges), ranked=True)


def _equidistance_error(labels: Sequence[str], merges: list[tuple[float, list[int]]],
                        lengths: list[float], tol: float) -> NotEquidistantError | None:
    """The :class:`NotEquidistantError` naming a deviant leaf of a merge
    schedule over `labels` with the branch `lengths` of its nodes, or None
    if there is none: a deviant leaf is one whose root-to-leaf sum
    (:func:`~troptree.newick._node_depths`) is more than tol from the median
    of all; of several that deviate most, the first in the schedule's
    preorder (:func:`~troptree.newick._preorder_leaves`).  Its message gives
    the leaf's depth, the median, how far apart they are and the tol."""
    n = len(labels)
    if n < 2:
        return None
    depths = _node_depths(n, merges, lengths)
    ordered = sorted(depths[:n])
    # their median, as statistics.median takes it; halved before the sum,
    # which then cannot overflow
    half = n // 2
    ref = ordered[half] if n % 2 else ordered[half - 1] / 2 + ordered[half] / 2
    # the largest deviation is at one end of the sorted depths
    if ordered[-1] - ref <= tol and ref - ordered[0] <= tol:
        return None
    worst = max(_preorder_leaves(n, merges), key=lambda k: abs(depths[k] - ref))
    off = abs(depths[worst] - ref)
    if off > tol:
        return NotEquidistantError(
            f"tree is not equidistant: leaf {labels[worst]!r} has depth "
            f"{depths[worst]:.12g}, expected {ref:.12g} (off by {off:.2g}, tol {tol:g})",
            leaf=labels[worst])
    return None


def _topology_of_merges(labels: Sequence[str],
                        merges: list[tuple[float, list[int]]],
                        lengths: list[float], tol: float) -> Topology:
    """The topology of a merge schedule over natural-sorted `labels` with
    the branch `lengths` of its nodes: the equidistance check
    (:func:`_equidistance_error`), then a node's clade is kept when its
    branch exceeds tol."""
    error = _equidistance_error(labels, merges, lengths, tol)
    if error is not None:
        raise error
    n = len(labels)
    masks = _merge_masks([1 << k for k in range(n - 1, -1, -1)], merges)
    return Topology._of_masks(tuple(labels), [masks[k] for k in range(n, len(masks))
                                              if lengths[k] > tol])


def agglomerate(labels: Sequence[str], dists: np.ndarray,
                tol: float = DEFAULT_TOL) -> RootedTree:
    """Build the equidistant tree whose cophenetic distances are `dists`
    (condensed order over `labels`, which must be natural-sorted): the
    single-linkage dendrogram of the distances, in which entries within
    tol of each other merge simultaneously (see
    :func:`~troptree._linkages._single_linkages`).
    The input is assumed to satisfy the three-point condition."""
    n = len(labels)
    dists = np.asarray(dists, dtype=float)
    if dists.shape != (n * (n - 1) // 2,):
        raise ValueError("distance vector length does not match the labels")
    from ._linkages import _single_linkages, merges     # not loaded with the package
    # a single leaf merges nothing
    schedule = merges(n, _single_linkages(dists[None], n, tol))[0] if n > 1 else []
    return _tree_of_merges(labels, schedule)


def _tree_of_clades(labels: Sequence[str], heights: dict[int, float]) -> RootedTree:
    """The tree of a laminar clade mask -> height map over natural-sorted
    `labels` that includes the full set, built by :func:`_tree_of_merges`
    from its merge schedule (:func:`_clade_merges`)."""
    return _tree_of_merges(labels, _clade_merges(
        len(labels), [(mask, heights[mask]) for mask in sorted(heights, key=int.bit_count)]))


def _clade_merges(n: int, clades: Iterable[tuple[int, float]]) -> list[tuple[float, list[int]]]:
    """The merge schedule of a laminar family of (clade mask, height) over
    n leaves that ends with the full set, listed so that every clade comes
    after the clades inside it: one node per clade, in that order, each
    node's children in the order of their smallest leaf rank."""
    top = list(range(n))        # node of the largest clade so far, at its smallest rank
    masks = [1 << (n - 1 - r) for r in range(n)]
    merges: list[tuple[float, list[int]]] = []
    for mask, height in clades:
        children = []           # the largest clades so far that make up this one
        rest = mask
        while rest:
            child = top[n - rest.bit_length()]
            children.append(child)
            rest ^= masks[child]
        top[n - mask.bit_length()] = len(masks)
        masks.append(mask)
        merges.append((height, children))
    return merges


# --------------------------------------------------------------------------
# clades
# --------------------------------------------------------------------------

def is_clade(tree: RootedTree, leaves: Iterable[str], tol: float = DEFAULT_TOL) -> bool:
    """True iff every within-set distance is smaller than every distance to
    an outside leaf (with a tol margin): the pairwise-distance criterion for
    the set being the descendant leaves of one internal node."""
    tol = valid_tol(tol)
    keep = set(leaves)
    full = set(tree.leaf_labels)
    if not keep <= full:
        raise ValueError(f"unknown leaf label(s): {sorted(keep - full)}")
    if len(keep) <= 1 or keep == full:
        return True
    labels, dists = pairwise_distances(tree)
    D = square_form(dists, len(labels), diagonal=-np.inf)
    inside = np.array([lab in keep for lab in labels])
    max_in = D[np.ix_(inside, inside)].max()
    min_ext = D[np.ix_(inside, ~inside)].min()
    return bool(min_ext - max_in > tol)


# --------------------------------------------------------------------------
# NNI moves
# --------------------------------------------------------------------------

def nni_neighbors(tree: RootedTree, tol: float = DEFAULT_TOL) -> list[RootedTree]:
    """All trees one rooted NNI move away from a binary equidistant tree.

    For every internal edge there are two moves, each exchanging the clade
    on the far side of the edge with one of the two clades below it; the
    node where the exchange happens keeps its height.  If the regrafted
    subtree does not fit strictly below its new parent, its internal heights
    are rescaled into the lower half of the available span (the move is then
    metrically refitted but topologically exact); "strictly" means by more
    than 2 tol.  Raises ValueError for a tol below 0 or NaN.
    """
    tol = valid_tol(tol)
    table = _clade_table(tree)
    if any(len(kids) != 2 for _, kids in table.values()):
        raise ValueError("NNI moves are defined on binary trees only")
    heights = {clade: h for clade, (h, _) in table.items()}
    parent_of = {kid: clade for clade, (_, kids) in table.items() for kid in kids}
    full = (1 << tree.n_leaves) - 1

    neighbors: list[RootedTree] = []
    for clade, (h_v, kids) in table.items():
        if clade == full:
            continue
        sibling = parent_of[clade] ^ clade
        for kept in reversed(kids):     # moving out the first child keeps the second
            new_map = dict(heights)
            del new_map[clade]
            # the regrafted sibling subtree must sit strictly below h_v; one
            # of height 0 (a leaf, say) has nothing to rescale
            sib_h = new_map.get(sibling, 0.0)
            if sib_h > 0 and sib_h >= h_v - 2 * tol:
                scale = (0.5 * h_v) / sib_h
                for other in new_map:
                    if other | sibling == sibling:
                        new_map[other] *= scale
            new_map[kept | sibling] = h_v
            neighbors.append(_tree_of_clades(tree.leaf_labels, new_map))
    return neighbors


def one_nni_apart(a: RootedTree, b: RootedTree, tol: float = DEFAULT_TOL) -> bool:
    """True iff the topology of `b` is exactly one rooted NNI move from the
    topology of `a` (see :meth:`Topology.one_nni_apart`; identical or
    non-binary topologies give False)."""
    require_same_leaves(a.leaf_labels, b.leaf_labels)
    return topology_of(a, tol).one_nni_apart(topology_of(b, tol))
