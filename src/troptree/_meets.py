"""The candidate table of a tree segment: the meets of the clusters of its
two endpoints, from which :class:`~troptree.treespace.TreeSegment` reads the
clusters and the tree of every bend of a large segment.  It is imported on the
first such segment, so that the callers that never build one (the
simulations, small segments) do not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import trees as _trees
from ._linkages import Linkage, leaf_masks, linkage_of
from .treespace import _bend_shifts, _is_clean, _shifts
from .tropical import _shifted_max

if TYPE_CHECKING:
    from .treespace import Ultrametric

#: Leaf flags, rows times slots times leaves, in one block of
#: :meth:`MeetTable.linkages`: 4 MiB, the bends of an 80-leaf segment.
_BLOCK_ENTRIES = 1 << 22


def clusters(n: int, entries: np.ndarray,
             ) -> list[tuple[list[int], list[int], np.ndarray, np.ndarray] | None]:
    """The clusters of each row of a stack of ultrametrics over n leaves,
    by size and then by mask: each one's leaf mask, its parent (the full
    set is its own), its distance value, and the cluster of every pair's
    most recent common ancestor (lca).

    The clusters are the nodes of one single-linkage pass over the rows
    with no tolerance (:func:`~troptree.trees._single_linkages`), and a
    pair's lca is the first node slot that holds both its leaves
    (:func:`lcas`).  A row gives None unless every pair's entry is its
    lca's value, the top of its run: a vector equals its single-linkage
    (subdominant) ultrametric exactly when it meets the three-point
    condition, here with no tolerance, in floats, so this fails when
    root-to-leaf sums differ in their last bits."""
    linkage = _trees._single_linkages(entries, n, 0.0)[0]
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
    :class:`~troptree._linkages.Linkage`.

    A node's slot comes after the slots of the nodes inside it, so a pair's
    lca is the first slot above both leaves.  Sorted by the slots above
    them, from the highest down, the leaves of every node are consecutive,
    and the lca of two leaves is the highest of the lcas of the neighbours
    from one to the other."""
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
    :class:`~troptree.treespace.TreeSegment`): every distinct meet C = A ∩ B of a cluster A of u
    and a cluster B of v with at least two leaves, ordered by size.  Each
    is held as its leaf mask and flags (then a row without leaves), the
    values diam_u(A) and diam_v(B) of the smallest such A and B, and the
    smallest meets strictly above it (`above`, from `starts`).  Made by
    :meth:`of` from the clusters of u and of v, read by single linkage
    (:func:`clusters`); None unless every pair's entry of each is its lca's
    value, the three-point condition with no tolerance."""

    __slots__ = ("n", "masks", "members", "firsts", "du", "dv", "above", "starts")

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
        width = -(-n // 8)
        raw = np.frombuffer(b"".join(m.to_bytes(width, "big") for m in masks), dtype=np.uint8)
        table.members = np.zeros((len(masks) + 1, n), dtype=bool)
        table.members[:-1] = np.unpackbits(raw.reshape(-1, width), axis=1)[:, 8 * width - n:]
        table.masks, table.firsts = leaf_masks(n, table.members), table.members.argmax(axis=1)
        at = np.array(nodes, dtype=np.intp).reshape(-1, 2)
        table.du, table.dv = du[at[:, 0]], dv[at[:, 1]]
        index = {mask: k for k, mask in enumerate(masks)}
        chains = []                     # the v-ancestors of every v-node, from it up
        for b in range(len(vm)):
            chain = [b]
            while up_v[chain[-1]] != chain[-1]:
                chain.append(up_v[chain[-1]])
            chains.append(chain)
        above: list[int] = []
        starts: list[int] = []
        for (a, b), mask in zip(nodes, masks):
            starts.append(len(above))
            above += [index[c] for c in meets_above(a, chains[b], mask, um, vm, up_u)]
            if len(above) == starts[-1]:
                above.append(len(nodes))    # the full set: a column that is never reached
        table.above, table.starts = np.array(above), np.array(starts)
        return table

    def linkages(self, a: np.ndarray, b: np.ndarray, tol: float,
                 ) -> tuple[Linkage, np.ndarray, np.ndarray]:
        """What single linkage reads of the points max(u + a, v + b): the
        :class:`~troptree._linkages.Linkage` of the points, with the
        clusters and heights of :func:`~troptree.trees._single_linkages`,
        the width of each point's widest run and its narrowest gap between
        runs.  The points are read in blocks of `_BLOCK_ENTRIES` leaf flags.

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
        Each cluster is a node at T/2, as in single linkage: sorted by T, the
        clusters of a point fill its last slots, the full set the last."""
        n, meets = self.n, len(self.du)
        step = max(1, _BLOCK_ENTRIES // (n * n))
        parts = []
        for first in range(0, len(a), step):
            values = _shifted_max(self.du, self.dv, a[first:first + step], b[first:first + step])
            rows = len(values)
            top, width, gap = _trees._runs(values, tol)
            # meets by rows, so that each reduces contiguous rows
            reach = np.append(values, np.full((rows, 1), np.inf), axis=1).T.copy()[self.above]
            row, meet = np.nonzero(np.minimum.reduceat(reach, self.starts, axis=0).T > top)
            by_top = np.lexsort((top[row, meet], row))
            row, meet = row[by_top], meet[by_top]
            slot = np.arange(len(row)) - np.cumsum(np.bincount(row, minlength=rows))[row] + n - 1
            at = np.full((rows, n - 1), meets)              # the row without leaves
            at[row, slot] = meet
            tops = np.zeros((rows, n - 1))
            tops[row, slot] = top[row, meet]
            parts.append((linkage_of(tops, self.masks[at], self.members[at], at < meets,
                                     self.firsts[at], tol), width, gap))
        linkages, widths, gaps = zip(*parts)
        return Linkage(*map(np.concatenate, zip(*linkages))), *map(np.concatenate, (widths, gaps))


def segment_linkages(u: Ultrametric, v: Ultrametric, params: np.ndarray, tol: float,
                     ) -> tuple[np.ndarray, Linkage, Linkage | None] | None:
    """What :func:`troptree._linkages.segment_linkages` reads of the segment
    from v to u with bend parameters `params`, read from its candidate
    table: the unclean pieces, the bends' Linkage and that of those pieces'
    midpoints.  None when u and v fail the table's guard, and when a bend
    or a midpoint fails the equidistance check: single linkage fails there
    too, and names the leaf that its own schedule's preorder names."""
    table = MeetTable.of(u, v)
    if table is None:
        return None
    linkage, widths, gaps = table.linkages(*_bend_shifts(params), tol)
    clean = _is_clean(widths, gaps, tol)
    unclean = np.flatnonzero(~(clean[:-1] & clean[1:]))
    midlinkage = None
    if unclean.size:
        midlinkage = table.linkages(*_shifts(0.5 * (params[unclean] + params[unclean + 1])),
                                    tol)[0]
    if any(x is not None and x.unequal.any() for x in (linkage, midlinkage)):
        return None
    return unclean, linkage, midlinkage


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
