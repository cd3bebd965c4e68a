"""Equidistant-tree semantics: validation, topologies, clades, speciation
times, and rooted NNI moves.

Heights here are measured upward from the leaves (a leaf has height 0); the
pairwise distance between two leaves of an equidistant tree is twice the
height of their most recent common ancestor.
"""

from __future__ import annotations

import itertools
import statistics
from typing import Iterable, Sequence

import numpy as np

from .errors import LeafSetMismatchError, NotEquidistantError
from .newick import RootedTree, TreeNode
from .util import (DEFAULT_TOL, natural_key, pair_index, sorted_labels, square_form,
                   tol_group_stops)


# --------------------------------------------------------------------------
# basic measurements
# --------------------------------------------------------------------------

def is_equidistant(tree: RootedTree, tol: float = DEFAULT_TOL) -> bool:
    """True iff :func:`require_equidistant` accepts the tree."""
    try:
        require_equidistant(tree, tol)
    except NotEquidistantError:
        return False
    return True


def require_equidistant(tree: RootedTree, tol: float = DEFAULT_TOL) -> None:
    """Raise :class:`NotEquidistantError` naming a deviant leaf: one whose
    root-to-leaf path length is more than tol from the median."""
    depths = tree.leaf_depths()
    if len(depths) < 2:
        return
    ref = statistics.median(depths.values())
    worst = max(depths, key=lambda lab: abs(depths[lab] - ref))
    if abs(depths[worst] - ref) > tol:
        raise NotEquidistantError(
            f"tree is not equidistant: leaf {worst!r} has depth "
            f"{depths[worst]:.12g}, expected {ref:.12g}", leaf=worst)


def subtree_heights(tree: RootedTree) -> dict[int, float]:
    """Height of every node, keyed by id(node).  Computed downward (largest
    distance to a descendant leaf), so it needs no equidistance assumption."""
    heights: dict[int, float] = {}

    def visit(node: TreeNode) -> float:
        h = 0.0 if node.is_leaf() else max(
            visit(c) + c.length for c in node.children)
        heights[id(node)] = h
        return h

    visit(tree.root)
    return heights


def pairwise_distances(tree: RootedTree) -> tuple[tuple[str, ...], np.ndarray]:
    """Cophenetic path distances between all leaf pairs.

    Returns the natural-sorted labels and the condensed vector in
    lexicographic pair order over those labels.
    """
    labels = tree.leaf_labels
    n = len(labels)
    pos = {lab: k for k, lab in enumerate(labels)}
    out = np.zeros(n * (n - 1) // 2)

    def visit(node: TreeNode) -> dict[str, float]:
        if node.is_leaf():
            return {node.label: 0.0}
        maps = []
        for child in node.children:
            m = visit(child)
            maps.append({lab: d + child.length for lab, d in m.items()})
        merged: dict[str, float] = {}
        for k, m in enumerate(maps):
            for other in maps[k + 1:]:
                for la, da in m.items():
                    for lb, db in other.items():
                        i, j = pos[la], pos[lb]
                        if i > j:
                            i, j = j, i
                        out[pair_index(n, i, j)] = da + db
            merged.update(m)
        return merged

    visit(tree.root)
    return labels, out


def clade_leafsets(tree: RootedTree) -> dict[int, frozenset[str]]:
    """Descendant leaf set of every node, keyed by id(node)."""
    sets: dict[int, frozenset[str]] = {}

    def visit(node: TreeNode) -> frozenset[str]:
        if node.is_leaf():
            s = frozenset([node.label])
        else:
            s = frozenset().union(*(visit(c) for c in node.children))
        sets[id(node)] = s
        return s

    visit(tree.root)
    return sets


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
        """Labels of a clade mask, in natural order."""
        labels, n = self.labels, len(self.labels)
        out = []
        while mask:
            low = mask & -mask
            out.append(labels[n - low.bit_length()])
            mask ^= low
        return out[::-1]

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
        ordered = sorted(self.masks, key=lambda m: (m.bit_count(), -m))
        return "|".join("{" + ",".join(self._members(m)) + "}" for m in ordered)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Topology) and self.masks == other.masks
                and self.labels == other.labels)

    def __hash__(self) -> int:
        return hash(self.masks)

    def __repr__(self) -> str:
        return f"Topology({self.canonical_str()})"


def topology_of(tree: RootedTree, tol: float = DEFAULT_TOL) -> Topology:
    """Clade set of an equidistant tree after collapsing every internal edge
    of length <= tol into its parent, built as bitmasks in one walk."""
    require_equidistant(tree, tol)
    labels = tree.leaf_labels
    bit = {lab: 1 << k for k, lab in enumerate(reversed(labels))}
    masks: list[int] = []

    def visit(node: TreeNode) -> int:
        if node.is_leaf():
            return bit[node.label]
        mask = 0
        for child in node.children:
            mask |= visit(child)
        if node.length > tol:
            masks.append(mask)
        return mask

    visit(tree.root)
    return Topology._of_masks(labels, masks)


def speciation_times(tree: RootedTree, tol: float = DEFAULT_TOL) -> tuple[float, ...]:
    """Sorted distinct internal-node heights; values within tol are merged
    (each merged group is represented by its largest member, so the last
    entry is exactly the tree height)."""
    require_equidistant(tree, tol)
    heights = subtree_heights(tree)
    internal = sorted(heights[id(node)] for node in tree.nodes() if not node.is_leaf())
    return tuple(internal[stop - 1] for stop in tol_group_stops(internal, tol))


# --------------------------------------------------------------------------
# building trees from distances or clade maps
# --------------------------------------------------------------------------

def _mst_edges(dists: np.ndarray, n: int) -> tuple[list[int], list[int], np.ndarray]:
    """The n-1 edges (near, far, weight) of a minimum spanning tree of the
    complete graph whose condensed edge weights are `dists`, in the order
    Prim's algorithm adds them (numpy row updates, O(n^2))."""
    D = square_form(dists, n, np.inf)
    best = D[0].copy()                  # distance of each vertex to the tree
    closest = np.zeros(n, dtype=np.intp)  # and the tree vertex it is closest to
    D[:, 0] = np.inf
    near, far, weight = [], [], np.empty(n - 1)
    for k in range(n - 1):
        j = int(best.argmin())
        near.append(int(closest[j]))
        far.append(j)
        weight[k] = best[j]
        D[:, j] = np.inf                # j joins the tree: no row may lower best[j]
        best[j] = np.inf
        row = D[j]
        closest[row < best] = j
        np.minimum(best, row, out=best)
    return near, far, weight


def _single_linkage(dists: np.ndarray, n: int,
                    tol: float) -> list[tuple[float, list[int]]]:
    """The merge schedule of the single-linkage dendrogram of condensed
    distances over n leaves: one (height, children) per internal node, in
    the order the nodes are made.  Leaves are nodes 0..n-1 and the m-th
    internal node is node n + m, so the last one is the root.

    The sorted distance values are split into runs wherever consecutive
    values differ by more than tol; the pairs of a run merge simultaneously
    at half the run's largest value, so values within tol of each other
    produce polytomies.  Only the edges of a minimum spanning tree are
    merged: for every threshold, those at or below it connect the same
    leaves as all pairs at or below it (Gower & Ross 1969), so this takes
    O(n^2)."""
    svals = np.sort(dists)
    stops = tol_group_stops(svals, tol)
    near, far, weight = _mst_edges(dists, n)
    run_of = np.searchsorted(stops, np.searchsorted(svals, weight), side="right").tolist()

    parent = list(range(n))                 # union-find over components

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    top = list(range(n))                    # node of each component, by its root
    merges: list[tuple[float, list[int]]] = []
    edges = sorted(range(n - 1), key=run_of.__getitem__)
    for run, ks in itertools.groupby(edges, key=run_of.__getitem__):
        height = float(svals[stops[run] - 1]) / 2.0
        ends = [(find(near[k]), find(far[k])) for k in ks]
        for ra, rb in ends:
            parent[find(rb)] = find(ra)
        merged: dict[int, list[int]] = {}
        for r in dict.fromkeys(itertools.chain.from_iterable(ends)):
            merged.setdefault(find(r), []).append(top[r])
        for root, children in merged.items():
            top[root] = n + len(merges)
            merges.append((height, children))
    return merges


def _merge_lengths(n: int, merges: list[tuple[float, list[int]]]) -> list[float]:
    """The branch length of every node of a :func:`_single_linkage`
    schedule over n leaves, by node number: the parent's height minus the
    node's own, clamped at 0.  The root's is 0."""
    heights = [0.0] * n
    lengths = [0.0] * (n + len(merges))
    for height, children in merges:
        for c in children:
            lengths[c] = max(height - heights[c], 0.0)
        heights.append(height)
    return lengths


def _tree_of_merges(labels: Sequence[str],
                    merges: list[tuple[float, list[int]]]) -> RootedTree:
    """The tree of a :func:`_single_linkage` schedule over `labels`."""
    lengths = _merge_lengths(len(labels), merges)
    nodes = [TreeNode(label=lab) for lab in labels]
    for _, children in merges:
        for c in children:
            nodes[c].length = lengths[c]
        nodes.append(TreeNode(children=[nodes[c] for c in children]))
    return RootedTree(nodes[-1])


def _topology_of_merges(labels: Sequence[str],
                        merges: list[tuple[float, list[int]]],
                        tol: float) -> Topology:
    """``topology_of(_tree_of_merges(labels, merges), tol)`` without
    building the tree: a node's clade is kept when its branch (from
    :func:`_merge_lengths`, as in the tree) exceeds tol, and the
    root-to-leaf sums get the same equidistance check (on failure the tree
    is built, so that the error is the one :func:`topology_of` raises).
    `labels` must be natural-sorted."""
    n = len(labels)
    lengths = _merge_lengths(n, merges)
    masks = [1 << k for k in range(n - 1, -1, -1)]
    for _, children in merges:
        mask = 0
        for c in children:
            mask |= masks[c]
        masks.append(mask)
    # root-to-leaf sums, added from the root down as RootedTree.leaf_depths does
    depths = [0.0] * len(lengths)
    for m in range(len(merges) - 1, -1, -1):
        above = depths[n + m]
        for c in merges[m][1]:
            depths[c] = above + lengths[c]
    ref = statistics.median(depths[:n])
    if not all(abs(d - ref) <= tol for d in depths[:n]):
        require_equidistant(_tree_of_merges(labels, merges), tol)
    return Topology._of_masks(tuple(labels), [masks[k] for k in range(n, len(masks))
                                              if lengths[k] > tol])


def agglomerate(labels: Sequence[str], dists: np.ndarray,
                tol: float = DEFAULT_TOL) -> RootedTree:
    """Build the equidistant tree whose cophenetic distances are `dists`
    (condensed order over `labels`, which must be natural-sorted): the
    single-linkage dendrogram of the distances, in which entries within
    tol of each other merge simultaneously (see :func:`_single_linkage`).
    The input is assumed to satisfy the three-point condition; validation
    belongs to the callers.
    """
    n = len(labels)
    dists = np.asarray(dists, dtype=float)
    if dists.shape != (n * (n - 1) // 2,):
        raise ValueError("distance vector length does not match the labels")
    return _tree_of_merges(labels, _single_linkage(dists, n, tol))


def tree_from_clade_heights(leaves: Iterable[str],
                            clade_heights: dict[frozenset[str], float]) -> RootedTree:
    """Build an equidistant tree from a laminar clade -> height map that
    includes the full leaf set."""
    leaves = sorted_labels(leaves)
    full = frozenset(leaves)
    if full not in clade_heights:
        raise ValueError("the clade map must contain the full leaf set")
    tops: dict[str, TreeNode] = {lab: TreeNode(label=lab) for lab in leaves}
    top_height: dict[int, float] = {id(node): 0.0 for node in tops.values()}

    for clade in sorted(clade_heights, key=len):
        height = clade_heights[clade]
        children: list[TreeNode] = []
        seen: set[int] = set()
        for lab in sorted(clade, key=natural_key):
            node = tops[lab]
            if id(node) not in seen:
                seen.add(id(node))
                children.append(node)
        if len(children) < 2:
            raise ValueError(f"clade {sorted(clade)} has fewer than 2 branches")
        for child in children:
            child.length = max(height - top_height[id(child)], 0.0)
        node = TreeNode(children=children)
        top_height[id(node)] = height
        for lab in clade:
            tops[lab] = node
    return RootedTree(tops[leaves[0]])


def internal_clade_heights(tree: RootedTree) -> dict[frozenset[str], float]:
    """Clade -> height map over the internal nodes (root included)."""
    heights = subtree_heights(tree)
    sets = clade_leafsets(tree)
    return {sets[id(node)]: heights[id(node)]
            for node in tree.nodes() if not node.is_leaf()}


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
    n = len(labels)
    pos = {lab: k for k, lab in enumerate(labels)}
    inside = sorted(pos[lab] for lab in keep)
    outside = sorted(pos[lab] for lab in full - keep)
    max_in = max(dists[pair_index(n, a, b)]
                 for ai, a in enumerate(inside) for b in inside[ai + 1:])
    min_ext = min(dists[pair_index(n, min(a, b), max(a, b))]
                  for a in inside for b in outside)
    return min_ext - max_in > tol


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
    for node in tree.nodes():
        if not node.is_leaf() and len(node.children) != 2:
            raise ValueError("NNI moves are defined on binary trees only")

    heights = internal_clade_heights(tree)
    sets = clade_leafsets(tree)
    children_of: dict[frozenset[str], list[frozenset[str]]] = {
        sets[id(node)]: [sets[id(c)] for c in node.children]
        for node in tree.nodes() if not node.is_leaf()}
    full = frozenset(tree.leaf_labels)

    parent_of: dict[frozenset[str], frozenset[str]] = {}
    for clade, kids in children_of.items():
        for kid in kids:
            parent_of[kid] = clade

    neighbors: list[RootedTree] = []
    for clade, h_v in heights.items():
        if clade == full:
            continue
        parent = parent_of[clade]
        (sibling,) = [c for c in children_of[parent] if c != clade]
        for moved_out in children_of[clade]:
            kept = next(c for c in children_of[clade] if c != moved_out)
            new_clade = kept | sibling
            new_map = dict(heights)
            del new_map[clade]
            # the regrafted sibling subtree must sit strictly below h_v
            sib_h = new_map.get(sibling, 0.0)
            if sib_h >= h_v - 2 * tol:
                scale = (0.5 * h_v) / sib_h
                for other in list(new_map):
                    if other <= sibling:
                        new_map[other] *= scale
            new_map[new_clade] = h_v
            neighbors.append(tree_from_clade_heights(full, new_map))
    return neighbors


def one_nni_apart(a: RootedTree, b: RootedTree, tol: float = DEFAULT_TOL) -> bool:
    """True iff the topology of `b` is exactly one rooted NNI move from the
    topology of `a` (see :meth:`Topology.one_nni_apart`; identical or
    non-binary topologies give False)."""
    require_same_leaves(a.leaf_labels, b.leaf_labels)
    return topology_of(a, tol).one_nni_apart(topology_of(b, tol))
