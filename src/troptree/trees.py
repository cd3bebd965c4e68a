"""Equidistant-tree semantics: validation, topologies, clades, speciation
times, and rooted NNI moves.

Heights here are measured upward from the leaves (a leaf has height 0); the
pairwise distance between two leaves of an equidistant tree is twice the
height of their most recent common ancestor.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import LeafSetMismatchError, NotEquidistantError
from .newick import RootedTree, _merge_masks, _node_depths, _preorder_leaves
from .util import DEFAULT_TOL, sorted_labels, square_form, square_index

if TYPE_CHECKING:
    from ._linkages import Linkage


# --------------------------------------------------------------------------
# basic measurements
# --------------------------------------------------------------------------

def is_equidistant(tree: RootedTree, tol: float = DEFAULT_TOL) -> bool:
    """True iff :func:`require_equidistant` accepts the tree."""
    return _equidistance_error(tree.leaf_labels, tree.merges, tree.lengths, tol) is None


def require_equidistant(tree: RootedTree, tol: float = DEFAULT_TOL) -> None:
    """Raise :class:`NotEquidistantError` naming a deviant leaf: one whose
    root-to-leaf path length is more than tol from the median."""
    error = _equidistance_error(tree.leaf_labels, tree.merges, tree.lengths, tol)
    if error is not None:
        raise error


def pairwise_distances(tree: RootedTree) -> tuple[tuple[str, ...], np.ndarray]:
    """Cophenetic path distances between all leaf pairs, written from the
    tree's merge schedule by :func:`_distances_of_merges`: the natural-sorted
    labels and the condensed vector in lexicographic pair order over them."""
    labels = tree.leaf_labels
    return labels, np.array(_distances_of_merges(len(labels), tree.merges, tree.lengths))


def _distances_of_merges(n: int, merges: list[tuple[float, list[int]]],
                         lengths: list[float]) -> list[float]:
    """The condensed cophenetic distances of a merge schedule over n leaves
    with the branch `lengths` of its nodes.  Each leaf keeps its depth below
    the newest node above it, added upward from the leaf, one branch per
    merge; the distance of two leaves is the sum of their depths below the
    node that joins them."""
    index = square_index(n).tolist()
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
    (missing clades).

    `labels` holds the leaves in natural order.  Each clade is an int
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
                    raise ValueError(f"clades {self._members(a)} and "
                                     f"{self._members(b)} are not laminar")

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

    def _members(self, mask: int) -> list[str]:
        """Labels of a clade mask, in natural order: its bits from the high
        end."""
        labels, top = self.labels, len(self.labels) - 1
        out = []
        while mask:
            high = mask.bit_length() - 1
            out.append(labels[top - high])
            mask ^= 1 << high
        return out

    @property
    def clades(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(self._members(m)) for m in self.masks)

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
        return _canonical_strs([self])[0]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Topology) and self.masks == other.masks
                and self.labels == other.labels)

    def __hash__(self) -> int:
        return hash(self.masks)

    def __repr__(self) -> str:
        return f"Topology({self.canonical_str()})"


def _canonical_strs(topologies: Sequence[Topology],
                    written: dict[int, tuple[int, str]] | None = None) -> list[str]:
    """The canonical string of each of a sequence of topologies over one
    label tuple: its clades in canonical order, by (popcount, -mask), each
    written as its members in braces.  A clade that several of the
    topologies share is written once, and kept in `written` by mask with
    its sort key for the next call."""
    written = {} if written is None else written
    out = []
    for topo in topologies:
        n = len(topo.labels)
        clades = []
        for mask in topo.masks:
            clade = written.get(mask)
            if clade is None:
                # (popcount << n) - mask orders as (popcount, -mask) does
                clade = written[mask] = ((mask.bit_count() << n) - mask,
                                         "{" + ",".join(topo._members(mask)) + "}")
            clades.append(clade)
        clades.sort()
        out.append("|".join([text for _, text in clades]))
    return out


def topology_of(tree: RootedTree, tol: float = DEFAULT_TOL) -> Topology:
    """Clade set of an equidistant tree after collapsing every internal edge
    of length <= tol into its parent, read from its merge schedule."""
    return _topology_of_merges(tree.leaf_labels, tree.merges, tree.lengths, tol)


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

#: Entries of the (rows, n, n) distance stack that one block of
#: :func:`_single_linkages` builds: 1 MiB of floats, so memory stays flat
#: at any number of rows and any n.
_LINKAGE_BLOCK_ENTRIES = 1 << 17


def _mst_edges(stack: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-1 edges (near, far) of a minimum spanning tree of the complete
    graph on n vertices for every row of a stack of condensed edge
    weights, shape (rows, n(n-1)/2): two (rows, n-1) arrays, in the order
    Prim's algorithm adds the edges (numpy updates of all rows at once,
    O(n^2) per row)."""
    rows = stack.shape[0]
    at = np.arange(rows)
    D = np.concatenate((stack, np.full((rows, 1), np.inf)), axis=1)[:, square_index(n)]
    best = D[:, 0].copy()                       # distance of each vertex to the tree
    closest = np.zeros((rows, n), dtype=np.intp)  # and the tree vertex it is closest to
    D[:, :, 0] = np.inf
    near = np.empty((rows, n - 1), dtype=np.intp)
    far = np.empty((rows, n - 1), dtype=np.intp)
    for k in range(n - 1):
        j = best.argmin(axis=1)
        near[:, k] = closest[at, j]
        far[:, k] = j
        D[at, :, j] = np.inf                    # j joins the tree: no row may lower best[j]
        best[at, j] = np.inf
        row = D[at, j]
        np.copyto(closest, j[:, None], where=row < best)
        np.minimum(best, row, out=best)
    return near, far


def _runs(values: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs of each row of a (rows, m) stack of values: sorted, the
    values split into runs wherever consecutive ones differ by more than
    tol.  Returns the top (largest value) of each value's run, in the row's
    own order, the width of each row's widest run (largest minus smallest
    value, 0 for a single value) and its narrowest gap between two
    consecutive runs (inf with one run).  Single linkage and the candidate
    table (:meth:`~troptree._meets.MeetTable.linkages`) both split by it."""
    rows, m = values.shape
    order = np.arange(rows)[:, None], np.argsort(values, axis=1)
    svals = values[order]
    step = np.diff(svals, axis=1)
    start = np.ones((rows, m), dtype=bool)
    np.greater(step, tol, out=start[:, 1:])
    gaps = np.where(start[:, 1:], step, np.inf).min(axis=1, initial=np.inf)
    del step
    # the top and the bottom of every sorted value's run: the values
    # ascend, so they are the nearest run end after it and the nearest run
    # start before it
    bottoms = np.where(start, svals, -np.inf)
    np.maximum.accumulate(bottoms, axis=1, out=bottoms)
    tops = svals[:, ::-1]                   # the run ends hold their own tops
    np.copyto(tops[:, 1:], np.inf, where=~start[:, :0:-1])
    np.minimum.accumulate(tops, axis=1, out=tops)
    widths = np.subtract(svals, bottoms, out=bottoms).max(axis=1, initial=0.0)
    top = np.empty_like(values)
    top[order] = svals
    return top, widths, gaps


def _spanning_edges(stack: np.ndarray, n: int, tol: float,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The n-1 edges (near, far) of a minimum spanning tree of each row of
    a stack of condensed distance vectors, shape (rows, n(n-1)/2), sorted
    by the top of their run (:func:`_runs`), by which they merge, stably;
    those tops, and the widest run and narrowest gap of each row."""
    top, widths, gaps = _runs(stack, tol)
    near, far = _mst_edges(stack, n)
    row = np.arange(len(stack))[:, None]
    tops = top[row, square_index(n)[near, far]]
    by_top = row, np.argsort(tops, axis=1, kind="stable")
    return near[by_top], far[by_top], tops[by_top], widths, gaps


def _single_linkages(points: Sequence[np.ndarray] | np.ndarray, n: int,
                     tol: float) -> tuple[Linkage, np.ndarray, np.ndarray]:
    """The single-linkage clusters of each of a non-empty sequence of
    condensed distance vectors over n leaves, as numpy arrays
    (:class:`~troptree._linkages.Linkage`): the nodes that
    :func:`_single_linkage` makes of each and their tree, with the clade
    cut at tol and the equidistance check of its schedule.

    The distance values are split into runs by :func:`_runs`; the pairs of
    a run merge simultaneously at half the run's top, so values within tol
    of each other produce polytomies.  Only the edges of a minimum spanning
    tree are merged: for every threshold, those at or below it connect the
    same leaves as all pairs at or below it (Gower & Ross 1969), so this
    takes O(n^2) per vector.  The vectors are stacked in blocks of
    `_LINKAGE_BLOCK_ENTRIES` square entries; the run split and Prim's
    algorithm run for a whole block at once, and the merging of the edges
    (:func:`~troptree._linkages.linkage`) for eight blocks at once.

    Also returns, per vector, the width of its widest run and its narrowest
    gap between runs, as :func:`_runs` gives them."""
    # imported here, so that only the callers with many vectors load it
    from ._linkages import Linkage, linkage
    step = max(1, _LINKAGE_BLOCK_ENTRIES // (n * n))
    near, far, tops, widths, gaps = map(np.concatenate, zip(*(
        _spanning_edges(np.asarray(points[first:first + step], dtype=float), n, tol)
        for first in range(0, len(points), step))))
    # the edges are merged in larger blocks: the pass holds a few bytes per
    # square entry where Prim's algorithm holds floats, and its cost per
    # block grows with n whatever the block's size
    step *= 8
    parts = [linkage(n, near[k:k + step], far[k:k + step], tops[k:k + step], tol)
             for k in range(0, len(near), step)]
    return Linkage(*map(np.concatenate, zip(*parts))), widths, gaps


def _merge_runs(n: int, near: list[int], far: list[int],
                top_value: list[float]) -> list[tuple[float, list[int]]]:
    """The merge schedule of spanning-tree edges (near[k], far[k]) sorted by
    the top of their run, `top_value[k]`: the edges of one run, those with
    one top, join their components into one node each, at half that top."""
    parent = list(range(n))                 # union-find over components

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    top = list(range(n))                    # node of each component, by its root
    merges: list[tuple[float, list[int]]] = []
    first = 0
    while first < n - 1:
        height = top_value[first] / 2.0
        last = first + 1
        while last < n - 1 and top_value[last] == top_value[first]:
            last += 1
        if last == first + 1:
            # a run of one edge (no tie): a binary merge
            ra, rb = find(near[first]), find(far[first])
            parent[rb] = ra
            merges.append((height, [top[ra], top[rb]]))
            top[ra] = n + len(merges) - 1
            first = last
            continue
        ends = [(find(near[k]), find(far[k])) for k in range(first, last)]
        for ra, rb in ends:
            parent[find(rb)] = find(ra)
        merged: dict[int, list[int]] = {}
        for r in dict.fromkeys(itertools.chain.from_iterable(ends)):
            merged.setdefault(find(r), []).append(top[r])
        for root, children in merged.items():
            top[root] = n + len(merges)
            merges.append((height, children))
        first = last
    return merges


def _single_linkage(dists: np.ndarray, n: int,
                    tol: float) -> list[tuple[float, list[int]]]:
    """The merge schedule of the single-linkage dendrogram of one condensed
    distance vector over n leaves: one (height, children) per internal
    node, in the order the nodes are made.  Leaves are nodes 0..n-1 and the
    m-th internal node is node n + m, so the last one is the root.  Its
    nodes are those of :func:`_single_linkages`, made by :func:`_merge_runs`
    from the same run split and spanning tree."""
    edges = _spanning_edges(np.asarray(dists, dtype=float)[None], n, tol)[:3]
    return _merge_runs(n, *(edge[0].tolist() for edge in edges))


def _merge_lengths(n: int, merges: list[tuple[float, list[int]]]) -> list[float]:
    """The branch length of every node of a :func:`_single_linkage`
    schedule over n leaves, by node number: the parent's height minus the
    node's own, clamped at 0.  The root's is 0."""
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
    preorder (:func:`~troptree.newick._preorder_leaves`)."""
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
    if abs(depths[worst] - ref) > tol:
        return NotEquidistantError(
            f"tree is not equidistant: leaf {labels[worst]!r} has depth "
            f"{depths[worst]:.12g}, expected {ref:.12g}", leaf=labels[worst])
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
    tol of each other merge simultaneously (see :func:`_single_linkages`).
    The input is assumed to satisfy the three-point condition; validation
    belongs to the callers.
    """
    n = len(labels)
    dists = np.asarray(dists, dtype=float)
    if dists.shape != (n * (n - 1) // 2,):
        raise ValueError("distance vector length does not match the labels")
    return _tree_of_merges(labels, _single_linkage(dists, n, tol))


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
    than 2 tol.
    """
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
