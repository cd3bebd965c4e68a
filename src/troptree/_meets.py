"""The candidate table of a tree segment: the meets of the clusters of its two
endpoints, from which :class:`~troptree.treespace.TreeSegment` reads the
clusters and the tree of every bend of a large segment:
:meth:`MeetTable.linkages` is the point reader that it hands to the one segment
reader, :func:`troptree._linkages.segment_linkages`, whose module also reads
the endpoints' clusters and the runs of the meet values.  It is imported on the
first such segment, so that the callers that never build one (the simulations,
small segments) do not load it.
"""

from __future__ import annotations

from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from . import _linkages
from ._linkages import Linkage, branch_depths, linkage_of
from .tropical import _shifted_max
from .util import square_form

if TYPE_CHECKING:
    from .treespace import Ultrametric

#: Meet values, rows times meets, in one block of :meth:`MeetTable.linkages`:
#: 4 MiB of floats, the bends of an 80-leaf segment.
_BLOCK_ENTRIES = 1 << 19


def clusters(n: int, entries: np.ndarray,
             ) -> list[tuple[list[int], list[int], np.ndarray, np.ndarray] | None]:
    """The clusters of each row of a stack of ultrametrics over n leaves,
    by size and then by mask: each one's leaf mask, its parent (the full
    set is its own), its distance value, and the cluster of every pair's
    most recent common ancestor (lca), the first node slot that holds both
    its leaves (:func:`lcas`) in one single-linkage pass with no tolerance.
    A row gives None unless every pair's entry is its lca's value, the top
    of its run: a vector equals its single-linkage (subdominant)
    ultrametric exactly when it meets the three-point condition, here in
    floats, so this fails when root-to-leaf sums differ in their last bits."""
    linkage = _linkages._single_linkages(entries, n, 0.0)
    out = []
    for row, nodes, masks, tops, parents in zip(entries, linkage.nodes, linkage.masks,
                                                linkage.tops, linkage.parents):
        lca = lcas(n, parents)
        if (tops[lca] != row).any():
            out.append(None)
            continue
        slots = np.flatnonzero(nodes)
        masks = masks[slots].tolist()
        order = sorted(range(len(slots)), key=lambda c: (masks[c].bit_count(), masks[c]))
        slots = slots[order]
        rank = np.empty(len(tops) + 1, dtype=np.intp)   # by slot; the root's parent is the root
        rank[slots] = np.arange(len(slots))
        rank[-1] = len(slots) - 1
        out.append(([masks[c] for c in order], rank[parents[n + slots]].tolist(), tops[slots],
                    rank[lca]))
    return out


def lcas(n: int, parents: np.ndarray) -> np.ndarray:
    """The slot of the lca of every pair of leaves, in pair order, from the
    parent slot of every element of one row of a
    :class:`~troptree._linkages.Linkage`: the first slot above both leaves.
    Sorted by the slots above them, from the highest down, the leaves of
    every node are consecutive, and the lca of two leaves is the highest of
    the lcas of the neighbours from one to the other."""
    parents = parents.astype(np.intp)
    steps = len(parents) - n
    above = np.zeros((n, steps), dtype=bool)        # whether a slot's node holds a leaf
    leaves, at = np.arange(n), parents[:n]
    while leaves.size:
        above[leaves, at] = True
        at = parents[n + at]
        inner = at < steps                          # not above the root
        leaves, at = leaves[inner], at[inner]
    order = np.lexsort(above.T)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    ordered = above[order]
    meet = (ordered[:-1] & ordered[1:]).argmax(axis=1)
    # the highest meet from each leaf on, by rank
    span = np.maximum.accumulate(np.where(np.arange(n - 1) >= np.arange(n)[:, None], meet, -1),
                                 axis=1)
    first, second = np.triu_indices(n, k=1)
    a, b = rank[first], rank[second]
    return span[np.minimum(a, b), np.maximum(a, b) - 1]


class MeetTable:
    """The candidate table of a segment between ultrametrics u and v (see
    :class:`~troptree.treespace.TreeSegment`): every distinct meet C = A ∩ B
    of a cluster A of u and a cluster B of v with at least two leaves, by
    size, with its mask and smallest leaf (then a row without leaves), the
    values diam_u(A) and diam_v(B) of the smallest such A and B, and the
    smallest meets strictly above it; those that hold each leaf, too; and
    the meets by level, their longest chain of such meets to the full set.
    Made by :meth:`of` from the clusters of u and v (:func:`clusters`);
    None unless every pair's entry of each is its lca's value, the
    three-point condition with no tolerance."""

    __slots__ = ("n", "masks", "firsts", "du", "dv", "above", "leaf_above", "levels")

    @classmethod
    def of(cls, u: Ultrametric, v: Ultrametric) -> "MeetTable | None":
        n = u.n
        sides = clusters(n, np.stack((u.entries, v.entries)))
        if None in sides:
            return None
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
        masks = [um[a] & vm[b] for a, b in nodes]
        table.masks = np.array(masks + [0], dtype=np.uint64 if n <= 64 else object)
        table.firsts = np.array([n - mask.bit_length() for mask in masks] + [0])
        at = np.array(nodes, dtype=np.intp).reshape(-1, 2)
        table.du, table.dv = du[at[:, 0]], dv[at[:, 1]]
        index = {mask: k for k, mask in enumerate(masks)}
        chains = [[b] for b in range(len(vm))]      # the v-ancestors of every v-node, from it up
        for b in range(len(vm) - 2, -1, -1):            # parents come after their children
            chains[b] += chains[up_v[b]]
        # the full set has none above it: a row that is never reached
        ups = [[index[c] for c in meets_above(a, chains[b], mask, um, vm, up_u)] or [len(nodes)]
               for (a, b), mask in zip(nodes, masks)]
        table.above = _padded(ups)
        # each leaf's smallest clusters are the smallest lca of its pairs
        leaf_u, leaf_v = (square_form(lca, n, len(side)).min(axis=1).tolist()
                          for lca, side in ((lca_u, um), (lca_v, vm)))
        table.leaf_above = _padded([
            [index[c] for c in meets_above(a, chains[b], 1 << (n - 1 - x), um, vm, up_u, 0)]
            for x, (a, b) in enumerate(zip(leaf_u, leaf_v))])
        level = [0] * len(nodes) + [-1]
        for c in range(len(nodes) - 1, -1, -1):
            level[c] = 1 + max(level[x] for x in ups[c])
        levels = [[c for c in range(len(nodes)) if level[c] == k] for k in range(max(level) + 1)]
        table.levels = [(np.array(ids), _padded([ups[c] for c in ids])) for ids in levels]
        return table

    def linkages(self, a: np.ndarray, b: np.ndarray, tol: float) -> Linkage:
        """What single linkage reads of the points max(u + a, v + b), in
        blocks of `_BLOCK_ENTRIES` meet values: their
        :class:`~troptree._linkages.Linkage`, with the width of each point's
        widest run and its narrowest gap between runs.

        A meet's value at shifts (a, b), max(diam_u(A) + a, diam_v(B) + b),
        is the entry of the point on every pair whose lca nodes are A and
        B, in the same floats, so the run reader of single linkage
        (:func:`~troptree._linkages._runs`) reads the point's runs from them.
        The component that holds a meet C at the top T of its run is the
        meet A* ∩ B* of the highest ancestors of A and B with values at
        most T, so C is a cluster exactly when every meet strictly above it
        has a value above T; values grow with the meet, so the smallest
        meets above C decide it.  Each cluster is a node at T/2 in the slots
        sorted by T, as in single linkage; every meet above C holds one of
        those smallest meets, and the clusters that hold C are nested, so its
        parent is the smallest of the lowest clusters that hold them."""
        n, meets = self.n, len(self.du)
        step = max(1, _BLOCK_ENTRIES // (meets + 1))
        parts = []
        for first in range(0, len(a), step):
            values = _shifted_max(self.du, self.dv, a[first:first + step], b[first:first + step])
            rows = len(values)
            top, width, gap = _linkages._runs(values, tol)
            # meets by rows, so that each gathers a contiguous row, a column at a time
            reach = np.append(values, np.full((rows, 1), np.inf), axis=1).T.copy()
            row, meet = np.nonzero(reduce(np.minimum, map(reach.__getitem__, self.above)).T > top)
            # each row's clusters by meet, then by top, stably: the slots
            # without one (top 0, the row without leaves) come first
            counts = np.bincount(row, minlength=rows)
            col = np.arange(len(row)) - (np.cumsum(counts) - counts)[row]
            tops = np.zeros((rows, n - 1))
            tops[row, col] = top[row, meet]
            at = np.full((rows, n - 1), meets)
            at[row, col] = meet
            by_top = np.argsort(tops, axis=1, kind="stable")
            tops, at = (np.take_along_axis(x, by_top, axis=1) for x in (tops, at))
            # each meet's and leaf's parent, a meet (the row without leaves above the full set),
            # level by level from the top: a meet's lowest cluster is itself or its parent
            cluster = np.zeros((meets + 1, rows), dtype=bool)
            cluster[meet, row] = True
            lowest = np.empty((meets + 1, rows), dtype=np.min_scalar_type(meets))
            up = np.empty_like(lowest)
            lowest[meets] = up[meets] = meets
            for ids, above in self.levels:
                up[ids] = np.minimum.reduce(lowest[above])
                lowest[ids] = np.where(cluster[ids], ids[:, None], up[ids])
            leaf_up = np.minimum.reduce(lowest[self.leaf_above]).T
            slot_of = np.empty((rows, meets + 1), dtype=np.min_scalar_type(n - 1))
            np.put_along_axis(slot_of, at, np.arange(n - 1, dtype=slot_of.dtype), axis=1)
            slot_of[:, meets] = n - 1                       # above the root
            parents = np.take_along_axis(slot_of, np.append(
                leaf_up, np.take_along_axis(up.T, at, axis=1), axis=1), axis=1)
            parts.append(linkage_of(tops, self.masks[at], at < meets, self.firsts[at],
                                    *branch_depths(tops / 2.0, parents), parents, tol, width, gap))
        return Linkage(*map(np.concatenate, zip(*parts)))


def _padded(lists: list[list[int]]) -> np.ndarray:
    """Non-empty lists as the columns of one array, each padded with its first entry."""
    width = max(map(len, lists))
    return np.array([x + x[:1] * (width - len(x)) for x in lists]).T


def meets_above(a: int, chain: list[int], mask: int, um: list[int], vm: list[int],
                up_u: list[int], low: int = 1) -> list[int]:
    """The masks of the smallest meets strictly above the meet `mask` of
    u-node `a` and the first v-node of `chain` (its v-ancestors, from it
    up): every meet above it holds one.  For a and each u-ancestor of a,
    the meet with the lowest v-ancestor that adds a leaf, kept while that
    v-ancestor gets lower, since a meet with both nodes higher holds the
    one before it.  The meet of a and chain[0] is `mask` itself, so the
    search starts at chain[`low`]: at chain[0] for a leaf's `mask`, with a
    and chain[0] the smallest clusters that hold the leaf."""
    size = mask.bit_count()
    out = []
    limit = len(chain)
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
