"""Single linkage of a block of distance vectors in numpy arrays, and the
topologies along a block of tree segments read from it.

:func:`~troptree.trees._single_linkages` splits the values of each vector
into runs and finds its minimum spanning tree; :func:`linkage` turns the
spanning-tree edges of the whole block, sorted by the top of their run,
into every vector's clusters with one pass per edge rank.  Its nodes are
those of :func:`~troptree.trees._merge_runs`: the edges of one run join
their components into one node each, at half the run's top.  Each node is
held in the slot of the first edge of its run that lies inside it, so a
vector over n leaves has n - 1 slots, in an order in which every node
comes after the nodes inside it.

:func:`leaf_depths` and :func:`unequal` are the equidistance check of
:func:`~troptree.trees._equidistance_error` on arrays, in its float order;
the NNI survey runs them on its draws as well.

:func:`segment_linkages` reads the bends and pieces of a block of tree
segments by single linkage: the NNI survey's blocks, and the one segment
of :class:`~troptree.treespace.TreeSegment`'s single-linkage route.
:func:`segment_rows` writes each of their topologies as a row of clade
masks, for the survey.  This module is imported by the first batched
pass, so that ``import troptree.cli`` does not load it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import trees as _trees
from .treespace import _bend_shifts, _is_clean, _shifts
from .tropical import _bend_starts, _lambdas, _shifted_max


class Linkage(NamedTuple):
    """The clusters of a block of distance vectors, one row per vector and
    one column per slot (see the module docstring)."""

    #: the spanning-tree edges (near, far) of each vector and the top of
    #: their run, sorted by it, as :func:`linkage` is given them
    near: np.ndarray
    far: np.ndarray
    tops: np.ndarray
    #: the leaf mask of the node in each slot, 0 in a slot without one: the
    #: leaf of rank r sets bit ``1 << (n-1-r)``, in uint64 up to 64 leaves
    #: and in Python ints (an object array) above
    masks: np.ndarray
    #: whether the slot holds a node
    nodes: np.ndarray
    #: whether it holds a node whose branch is longer than tol: the clades
    #: of the vector's topology, but for the full set
    kept: np.ndarray
    #: per vector, whether the equidistance check fails on its schedule
    unequal: np.ndarray


def leaf_masks(n: int, members: np.ndarray) -> np.ndarray:
    """The leaf mask of each row of leaf flags, shape (..., n) bool, in
    the bit order of :class:`~troptree.trees.Topology`: the flags are the
    mask's bits from the highest, packed into big-endian bytes and read as
    64-bit words, which make one Python int above 64 leaves."""
    packed = np.packbits(members, axis=-1)
    pad = 8 * packed.shape[-1] - n
    width = -(-packed.shape[-1] // 8)
    aligned = np.zeros(members.shape[:-1] + (8 * width,), dtype=np.uint8)
    aligned[..., 8 * width - packed.shape[-1]:] = packed
    words = aligned.view(">u8").astype(np.uint64)
    if width == 1:
        return words[..., 0] >> np.uint64(pad)
    masks = words[..., 0].astype(object)
    for k in range(1, width):
        masks = masks << 64 | words[..., k].astype(object)
    return masks >> pad


def leaf_depths(heights: np.ndarray, members: np.ndarray, at: np.ndarray | None = None,
                ) -> tuple[np.ndarray, np.ndarray | None]:
    """The root-to-leaf sums of a block of schedules, given per row as the
    height of each step's node, shape (rows, steps), and its leaves, shape
    (rows, steps, n), with no node in a step without leaves and the last
    step at the root's height.  Returns the sum of every leaf, shape
    (rows, n), and, if `at` gives one leaf of each step's node as an index
    into the flat (rows, n) sums, shape (rows, steps), each node's branch.

    A branch is the height of the node's parent minus its own
    (:func:`~troptree.trees._merge_lengths`), and the sums add them from
    the root down (:func:`~troptree.newick._node_depths`), so the floats
    are theirs: the steps are walked from the root, and a leaf's parent
    height is the last node above it so far.  Heights never fall from a
    step to a later one, so no branch is clamped at 0."""
    rows, steps, n = members.shape
    depth = np.zeros((rows, n))
    above = np.repeat(heights[:, -1:], n, axis=1)       # the root is its own parent
    branch = np.empty((rows, n))
    lengths = None if at is None else np.empty((rows, steps))
    for k in range(steps - 1, -1, -1):
        height, member = heights[:, k, None], members[:, k]
        np.subtract(above, height, out=branch)
        if at is not None:
            lengths[:, k] = branch.take(at[:, k])
        np.add(depth, branch, out=depth, where=member)
        np.copyto(above, height, where=member)
    # every leaf hangs from its lowest node
    depth += above
    return depth, lengths


def unequal(depths: np.ndarray, tol: float) -> np.ndarray:
    """Whether each row of root-to-leaf sums fails the equidistance check
    of :func:`~troptree.trees._equidistance_error`: a sum more than tol
    from their median, taken as it does."""
    n = depths.shape[1]
    ordered = np.sort(depths, axis=1)
    half = n // 2
    ref = ordered[:, half] if n % 2 else ordered[:, half - 1] / 2 + ordered[:, half] / 2
    return (ordered[:, -1] - ref > tol) | (ref - ordered[:, 0] > tol)


def linkage(n: int, near: np.ndarray, far: np.ndarray, tops: np.ndarray,
            tol: float) -> Linkage:
    """The clusters of a block of vectors from their spanning-tree edges
    (near, far), shape (rows, n-1), sorted by the top of their run, `tops`.

    One pass over the edge ranks joins every row's components, each leaf
    labelled by the smallest leaf of its component.  An edge's node is its
    near leaf's component after the last edge of its run, and it sits in
    the slot of the first such edge of the run.  The branches and the
    equidistance check follow from :func:`leaf_depths`."""
    rows, steps = near.shape
    row = np.arange(rows)[:, None]
    slot = np.arange(steps)
    small = np.min_scalar_type(n)                       # holds a leaf or a slot
    near_at, far_at = row * n + near, row * n + far     # into the flat labels
    labels = np.empty((rows, steps, n), dtype=small)    # after each edge
    label = np.broadcast_to(np.arange(n, dtype=small), (rows, n)).copy()
    for k in range(steps):
        a, b = label.take(near_at[:, k]), label.take(far_at[:, k])
        np.copyto(label, np.minimum(a, b)[:, None], where=label == np.maximum(a, b)[:, None])
        labels[:, k] = label
    # the labels after the last edge of each edge's run
    end = np.empty((rows, steps), dtype=bool)
    np.not_equal(tops[:, 1:], tops[:, :-1], out=end[:, :-1])
    end[:, -1] = True
    last = np.minimum.accumulate(np.where(end, slot, steps)[:, ::-1], axis=1)[:, ::-1]
    final = labels.reshape(-1, n)[row * steps + last]
    near_slot = (row * steps + slot) * n + near         # each edge's near leaf, by slot
    node = final.reshape(-1).take(near_slot)
    # an edge whose node an earlier edge of its run holds adds none: two
    # runs of one row have different last edges
    key = last * n + node
    twin = key[:, :, None] == key[:, None, :]
    twin &= slot[:, None] > slot
    nodes = ~twin.any(axis=2)
    members = (final == node[:, :, None]) & nodes[:, :, None]
    depths, lengths = leaf_depths(tops / 2.0, members, near_at)
    return Linkage(near, far, tops, leaf_masks(n, members), nodes, nodes & (lengths > tol),
                   unequal(depths, tol))


def within(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For rows of clade masks a and b, shape (rows, width) each, whether
    each mask of a is in its row of b, shape (rows, width)."""
    return (a[:, :, None] == b[:, None, :]).any(axis=2)


def bend_points(u: np.ndarray, v: np.ndarray, tol: float,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The bends of the segments from the rows of v to those of u, from one
    sort of the stacked v - u: each bend's segment, its parameter and its
    point, bit for bit as :class:`~troptree.tropical.TropicalSegment` gives
    them, and whether it is its segment's last."""
    lam = _lambdas(u, v)
    segment, column = np.nonzero(_bend_starts(lam, tol))
    params = lam[segment, column]
    last = np.ones(len(params), dtype=bool)
    last[:-1] = segment[1:] != segment[:-1]
    return (segment, params, _shifted_max(u[segment], v[segment], *_bend_shifts(params, last)),
            last)


def topology_rows(n: int, linkage: Linkage) -> np.ndarray:
    """The topology row of each vector of a :class:`Linkage`, n wide: its
    kept clades and the full set, unsorted, zeros in the other slots."""
    rows = np.empty((len(linkage.kept), n), dtype=linkage.masks.dtype)
    rows[:, :n - 1] = np.where(linkage.kept, linkage.masks, 0)
    rows[:, n - 1] = (1 << n) - 1
    return rows


def _raise_at(labels: tuple[str, ...], point: np.ndarray, tol: float) -> None:
    """Read a point whose schedule the array check flags by single linkage
    one point at a time, which raises what the tree route raises there: the
    leaf named is the first in its own schedule's preorder."""
    n = len(labels)
    merges = _trees._single_linkage(point, n, tol)
    _trees._topology_of_merges(labels, merges, _trees._merge_lengths(n, merges), tol)


def segment_linkages(labels: tuple[str, ...], u: np.ndarray, v: np.ndarray, tol: float,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, Linkage, Linkage | None]:
    """The single linkage of the segments from the rows of v to those of
    u, as :class:`~troptree.treespace.TreeSegment` reads them: the segment
    of each bend; the first bend of each piece, which lies between it and
    the next; those of the pieces where the clean rule fails at either
    bend, which take the topology of their midpoint; the
    :class:`Linkage` of the bends, and that of those midpoints (None
    without one).

    The bends come from :func:`bend_points` and share one single-linkage
    pass (:func:`~troptree.trees._single_linkages`); the midpoints share
    one more.  Raises what the tree route raises at the first segment with
    a bend or a piece midpoint that fails the equidistance check."""
    n = len(labels)
    segment, params, points, last = bend_points(u, v, tol)
    linkage, widths, gaps = _trees._single_linkages(points, n, tol)
    clean = _is_clean(widths, gaps, tol)
    left = np.flatnonzero(~last)
    unclean = left[~(clean[left] & clean[left + 1])]
    midlinkage = None
    flagged = [(segment[k], 0, points[k]) for k in np.flatnonzero(linkage.unequal)[:1]]
    if unclean.size:
        mids = _shifted_max(u[segment[unclean]], v[segment[unclean]],
                            *_shifts(0.5 * (params[unclean] + params[unclean + 1])))
        midlinkage = _trees._single_linkages(mids, n, tol)[0]
        flagged += [(segment[unclean[k]], 1, mids[k])
                    for k in np.flatnonzero(midlinkage.unequal)[:1]]
    # the tree route reads every bend of a segment before its pieces
    if flagged:
        _raise_at(labels, min(flagged, key=lambda f: f[:2])[2], tol)
    return segment, left, unclean, linkage, midlinkage


def segment_rows(labels: tuple[str, ...], u: np.ndarray, v: np.ndarray, tol: float,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The topologies along the segments from the rows of v to those of u
    (:func:`segment_linkages`): one row of clade masks per position, 2n
    wide, sorted and padded with zeros, so that two rows are one topology
    exactly when they are equal, and the segment of each row.  The
    positions are those of :class:`~troptree.treespace.TreeSegment`, bend
    k of a segment and then its piece k, which takes the union of its
    bends' clades or its midpoint's."""
    n = len(labels)
    segment, left, unclean, linkage, midlinkage = segment_linkages(labels, u, v, tol)
    # bend k at position 2k - (its segment), the piece after it at one more
    bends = topology_rows(n, linkage)
    position = np.zeros((2 * len(bends) - len(u), 2 * n), dtype=bends.dtype)
    at = 2 * np.arange(len(bends)) - segment
    position[at, :n] = bends
    a, b = bends[left], bends[left + 1]
    position[at[left] + 1, :n] = a
    position[at[left] + 1, n:] = np.where(within(b, a), 0, b)
    if midlinkage is not None:
        position[at[unclean] + 1, :n] = topology_rows(n, midlinkage)
        position[at[unclean] + 1, n:] = 0
    position.sort(axis=1)
    return position, np.repeat(np.arange(len(u)), 2 * np.bincount(segment, minlength=len(u)) - 1)
