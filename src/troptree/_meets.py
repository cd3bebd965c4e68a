"""The candidate table of a tree segment: the meets of the clusters of its
two endpoints, from which :class:`~troptree.treespace.TreeSegment` reads the
merge schedule of every bend of a large segment.  It is imported on the
first such segment, so that the callers that never build one (the
simulations, small segments) do not load it.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from . import trees as _trees
from .tropical import _shifted_max
from .util import square_form

if TYPE_CHECKING:
    from .treespace import Ultrametric

Merges = list[tuple[float, list[int]]]


@functools.lru_cache(maxsize=32)
def pair_ends(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two leaf ranks of every pair over n leaves, in lexicographic
    pair order (``np.triu_indices(n, k=1)``)."""
    ends = np.triu_indices(n, k=1)
    for side in ends:
        side.setflags(write=False)      # shared by every caller of this n
    return ends


#: Entries of the (pairs, n) ball arrays that one block of :func:`clusters`
#: builds, so that memory stays flat at any n.
BALL_BLOCK_ENTRIES = 1 << 17


def clusters(n: int, entries: np.ndarray,
             ) -> tuple[list[int], list[int], np.ndarray, np.ndarray] | None:
    """The clusters of an ultrametric over n leaves, by size: each one's
    leaf mask, its parent (the full set is its own), its distance value,
    and the cluster of every pair's most recent common ancestor (lca).

    The lca of a pair (i, j) is the ball of the leaves within d(i, j) of i.
    None unless that is the ball of radius d(i, j) around j as well, for
    every pair: that is the three-point condition with no tolerance, in
    floats, so it fails when root-to-leaf sums differ in their last bits.
    Where it holds, every pair whose lca is a cluster has one value, the
    cluster's largest."""
    D = square_form(entries, n)
    left, right = pair_ends(n)
    step = max(1, BALL_BLOCK_ENTRIES // n)
    balls = []
    for first in range(0, len(entries), step):
        radius = entries[first:first + step, None]
        ball = D[left[first:first + step]] <= radius
        if (ball != (D[right[first:first + step]] <= radius)).any():
            return None
        balls.append(np.packbits(ball, axis=1))
    balls = np.concatenate(balls)
    width = balls.shape[1]
    _, first, lca = np.unique(balls.view(f"V{width}").ravel(), return_index=True,
                              return_inverse=True)
    masks = [int.from_bytes(balls[p].tobytes(), "big") >> (8 * width - n) for p in first.tolist()]
    order = sorted(range(len(masks)), key=lambda c: masks[c].bit_count())
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    masks = [masks[c] for c in order]
    parent = [len(masks) - 1] * len(masks)
    for node, (_, children) in enumerate(_trees._clade_merges(n, [(m, 0.0) for m in masks])):
        for c in children:
            if c >= n:
                parent[c - n] = node
    return masks, parent, entries[first[order]], rank[lca.reshape(-1)]


class MeetTable:
    """The candidate table of a segment between ultrametrics u and v (see
    :class:`~troptree.treespace.TreeSegment`): every distinct meet C = A ∩ B of a cluster A of u
    and a cluster B of v with at least two leaves, ordered by size.  Each
    is held as its leaf mask, the distance values diam_u(A) and diam_v(B)
    of the smallest such A and B, and the smallest meets strictly above it
    (`above`, from `starts`).  Made by :meth:`of`, which returns None
    unless u and v meet the three-point condition exactly (:func:`clusters`)."""

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
        """What :func:`~troptree.trees._single_linkages` returns for the
        points max(u + a, v + b): the merge schedule of each point, the
        width of its widest run and its narrowest gap between runs.

        A meet's value at shifts (a, b) is max(diam_u(A) + a, diam_v(B) + b):
        on every pair whose lca nodes are A and B, that is the entry of the
        point, the same floats.  So the distinct entries of a point are the
        values of the meets, and its runs, widths and gaps are read from
        those, with no sort of all its entries.  The component that
        holds a meet C among the pairs at or below the top T of C's run is
        A* ∩ B*, with A* the highest u-ancestor of A whose diam_u + a is at
        most T and B* likewise.  That is a meet with a value in C's run, so
        C is a cluster of the point, C = A* ∩ B*, exactly when every meet
        strictly above C has a value above T.  Values grow with the meet,
        so the smallest meets above C decide it.  Each cluster is a node
        at T/2, as in single linkage."""
        values = _shifted_max(self.du, self.dv, a, b)
        rows, m = values.shape
        order = np.argsort(values, axis=1)
        svals = np.take_along_axis(values, order, axis=1)
        step = np.diff(svals, axis=1)
        start = np.ones((rows, m), dtype=bool)
        start[:, 1:] = step > tol
        end = np.ones((rows, m), dtype=bool)
        end[:, :-1] = start[:, 1:]
        # the top and the bottom of every sorted value's run: the values
        # ascend, so they are the nearest run end after it and the nearest
        # run start before it
        tops = np.minimum.accumulate(np.where(end, svals, np.inf)[:, ::-1], axis=1)[:, ::-1]
        widths = (tops - np.maximum.accumulate(np.where(start, svals, -np.inf), axis=1)).max(axis=1)
        gaps = np.where(start[:, 1:], step, np.inf).min(axis=1, initial=np.inf)
        top = np.empty_like(values)
        np.put_along_axis(top, order, tops, axis=1)
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
