"""The candidate table of a tree segment: the meets of the clusters of its
two endpoints, from which :class:`~troptree.treespace.TreeSegment` reads the
merge schedule of every bend of a large segment.  It is imported on the
first such segment, so that the callers that never build one (the
simulations, small segments) do not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import trees as _trees
from .newick import _merge_masks
from .tropical import _shifted_max
from .util import square_index

if TYPE_CHECKING:
    from .treespace import Ultrametric

Merges = list[tuple[float, list[int]]]


def clusters(n: int, entries: np.ndarray,
             ) -> tuple[list[int], list[int], np.ndarray, np.ndarray] | None:
    """The clusters of an ultrametric over n leaves, by size and then by
    mask: each one's leaf mask, its parent (the full set is its own), its
    distance value, and the cluster of every pair's most recent common
    ancestor (lca).

    The clusters are the nodes of the single-linkage schedule of the
    entries with no tolerance, and each pair's lca is written by one walk
    of that schedule.  None unless every pair's entry is its lca's value:
    a vector equals its single-linkage (subdominant) ultrametric exactly
    when it meets the three-point condition, here with no tolerance, in
    floats, so this fails when root-to-leaf sums differ in their last
    bits."""
    merges = _trees._single_linkage(entries, n, 0.0)
    index = square_index(n).tolist()
    lca = [0] * len(entries)
    up = [len(merges) - 1] * len(merges)    # the parent of every node; the root's is itself
    members = [[k] for k in range(n)]
    for node, (_, children) in enumerate(merges):
        below: list[int] = []
        for c in children:
            if c >= n:
                up[c - n] = node
            group = members[c]
            for x in group:
                at = index[x]
                for y in below:
                    lca[at[y]] = node
            below += group
        members.append(below)
    lca = np.array(lca)
    value = np.empty(len(merges))
    value[lca] = entries                    # the entry of one of its pairs
    if (value[lca] != entries).any():
        return None
    masks = _merge_masks([1 << (n - 1 - r) for r in range(n)], merges)[n:]
    order = sorted(range(len(masks)), key=lambda c: (masks[c].bit_count(), masks[c]))
    rank = np.argsort(order)
    return [masks[c] for c in order], rank[up][order].tolist(), value[order], rank[lca]


class MeetTable:
    """The candidate table of a segment between ultrametrics u and v (see
    :class:`~troptree.treespace.TreeSegment`): every distinct meet C = A ∩ B of a cluster A of u
    and a cluster B of v with at least two leaves, ordered by size.  Each
    is held as its leaf mask, the distance values diam_u(A) and diam_v(B)
    of the smallest such A and B, and the smallest meets strictly above it
    (`above`, from `starts`).  Made by :meth:`of` from the clusters of u
    and of v, read by single linkage (:func:`clusters`); None unless every
    pair's entry of each is its lca's value, the three-point condition
    with no tolerance."""

    __slots__ = ("n", "masks", "du", "dv", "above", "starts")

    @classmethod
    def of(cls, u: Ultrametric, v: Ultrametric) -> "MeetTable | None":
        n = u.n
        sides = []
        for w in (u, v):
            side = clusters(n, w.entries)
            if side is None:
                return None
            sides.append(side)
        (um, up_u, du, lca_u), (vm, up_v, dv, lca_v) = sides
        # a pair lies in the meet of its two lca nodes, and those are the
        # smallest clusters that hold that meet; every meet of two or more
        # leaves holds a pair split by both nodes' children, so the meets
        # are the distinct (lca_u, lca_v) of the pairs
        keys = np.unique(lca_u * len(vm) + lca_v)
        nodes = sorted(zip(*(side.tolist() for side in np.divmod(keys, len(vm)))),
                       key=lambda ab: (um[ab[0]] & vm[ab[1]]).bit_count())
        table = object.__new__(cls)
        table.n = n
        table.masks = [um[a] & vm[b] for a, b in nodes]
        at = np.array(nodes, dtype=np.intp).reshape(-1, 2)
        table.du, table.dv = du[at[:, 0]], dv[at[:, 1]]
        index = {mask: k for k, mask in enumerate(table.masks)}
        chains = []                     # the v-ancestors of every v-node, from it up
        for b in range(len(vm)):
            chain = [b]
            while up_v[chain[-1]] != chain[-1]:
                chain.append(up_v[chain[-1]])
            chains.append(chain)
        above: list[int] = []
        starts: list[int] = []
        for (a, b), mask in zip(nodes, table.masks):
            starts.append(len(above))
            above += [index[c] for c in meets_above(a, chains[b], mask, um, vm, up_u)]
            if len(above) == starts[-1]:
                above.append(len(nodes))    # the full set: a column that is never reached
        table.above, table.starts = np.array(above), np.array(starts)
        return table

    def linkages(self, a: np.ndarray, b: np.ndarray, tol: float,
                 ) -> tuple[list[Merges], np.ndarray, np.ndarray]:
        """What single linkage reads of the points max(u + a, v + b): the
        merge schedule of each point (with the clusters and heights of
        :func:`~troptree.trees._single_linkage`), the width of its widest
        run and its narrowest gap between runs.

        A meet's value at shifts (a, b) is max(diam_u(A) + a, diam_v(B) + b):
        on every pair whose lca nodes are A and B, that is the entry of the
        point, the same floats.  So the distinct entries of a point are the
        values of the meets, and its runs, widths and gaps are read from
        those by the run reader of single linkage
        (:func:`~troptree.trees._runs`), with no sort of all its entries.
        The component that holds a meet C among the pairs at or below the
        top T of C's run is A* ∩ B*, with A* the highest u-ancestor of A
        whose diam_u + a is at most T and B* likewise.  That is a meet with
        a value in C's run, so C is a cluster of the point, C = A* ∩ B*,
        exactly when every meet strictly above C has a value above T.
        Values grow with the meet, so the smallest meets above C decide it.
        Each cluster is a node at T/2, as in single linkage."""
        values = _shifted_max(self.du, self.dv, a, b)
        rows = len(values)
        top, widths, gaps = _trees._runs(values, tol)
        # meets by rows, so that each reduces contiguous rows
        reach = np.concatenate((values, np.full((rows, 1), np.inf)), axis=1).T.copy()[self.above]
        is_cluster = np.minimum.reduceat(reach, self.starts, axis=0).T > top
        row, meet = np.nonzero(is_cluster)
        heights = (top[row, meet] / 2.0).tolist()
        masks = [self.masks[k] for k in meet.tolist()]
        schedules = []
        first_cluster = 0
        for count in np.count_nonzero(is_cluster, axis=1).tolist():
            stop = first_cluster + count
            schedules.append(_trees._clade_merges(
                self.n, zip(masks[first_cluster:stop], heights[first_cluster:stop])))
            first_cluster = stop
        return schedules, widths, gaps


def meets_above(a: int, chain: list[int], mask: int, um: list[int], vm: list[int],
                up_u: list[int]) -> list[int]:
    """The masks of the smallest meets strictly above the meet `mask` of
    u-node `a` and the first v-node of `chain` (its v-ancestors, from it
    up): every meet above it holds one.  For a and each u-ancestor of a,
    the meet with the lowest v-ancestor that adds a leaf, kept while that
    v-ancestor gets lower, since a meet with both nodes higher holds the
    one before it."""
    size = mask.bit_count()
    out = []
    limit = len(chain)
    low = 1                         # the meet of a and chain[0] is `mask` itself
    while True:
        for t in range(low, limit):
            meet = um[a] & vm[chain[t]]
            if meet.bit_count() > size:
                out.append(meet)
                limit = t
                break
        if limit == 0 or up_u[a] == a:
            return out
        a = up_u[a]
        low = 0
