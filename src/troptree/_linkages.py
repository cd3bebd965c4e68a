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
comes after the nodes inside it.  The candidate table of a large segment
(:meth:`troptree._meets.MeetTable.linkages`) fills the same slots.

:func:`leaf_depths` gives each node its parent and branch, and with
:func:`unequal` it is the equidistance check of
:func:`~troptree.trees._equidistance_error` on arrays, in its float order;
the NNI survey runs them on its draws as well.  :func:`newicks` and
:func:`merges` write each row's tree as Newick text and merge schedule.

:func:`segment_linkages` reads the bends and pieces of a block of tree
segments by single linkage: the NNI survey's blocks, and the one segment
of :class:`~troptree.treespace.TreeSegment`'s single-linkage route.
:func:`segment_rows` writes each of their topologies as a row of clade
masks, for the survey.  This module is imported by the first batched
pass, so that ``import troptree.cli`` does not load it.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

import numpy as np

from . import trees as _trees
from .treespace import _bend_shifts, _is_clean, _shifts
from .tropical import _bend_starts, _lambdas, _shifted_max


class Linkage(NamedTuple):
    """The clusters of a block of distance vectors, one row per vector and
    one column per slot (see the module docstring), and the tree they make:
    an element is a leaf, by rank, or the slot n + s."""

    #: the top of the run of each slot's node, by which the slots are sorted
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
    #: per element, the slot of its parent (the number of slots at the root
    #: and in a slot without a node) and its branch (0 there); per slot, the
    #: smallest leaf rank of its node
    parents: np.ndarray
    lengths: np.ndarray
    firsts: np.ndarray


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
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The root-to-leaf sums of a block of schedules, given per row as the
    height of each step's node, shape (rows, steps), and its leaves, shape
    (rows, steps, n): no node in a step without leaves, every node after
    the nodes inside it, the last step at the root's height.  Also the
    branch and parent of every element, as :class:`Linkage` holds them
    (garbage in a step without a node); `at` gives one leaf of each step's
    node, by default its smallest.  Walked from the root, a node's parent
    is the last step so far that holds its leaf.  A branch is the parent's
    height minus the node's (:func:`~troptree.trees._merge_lengths`), and
    the sums add them from the root down as
    :func:`~troptree.newick._node_depths` does, so the floats are theirs."""
    rows, steps, n = members.shape
    at = members.argmax(axis=2) if at is None else at
    small = np.min_scalar_type(steps)
    parents = np.empty((rows, n + steps), dtype=small)
    cover = np.full((rows, n), steps, dtype=small)
    at = np.arange(rows)[:, None] * n + at              # into the flat cover
    for k in range(steps - 1, -1, -1):
        parents[:, n + k] = cover.take(at[:, k])
        np.putmask(cover, members[:, k], k)
    parents[:, :n] = cover
    row = np.arange(rows)[:, None] * (steps + 1)
    lengths = np.append(heights, heights[:, -1:], axis=1).reshape(-1).take(row + parents)
    lengths[:, n:] -= heights
    depth, up = np.zeros((rows, steps + 1)), row + parents[:, n:]
    for k in range(steps - 1, -1, -1):
        np.add(depth.reshape(-1).take(up[:, k]), lengths[:, n + k], out=depth[:, k])
    return depth.reshape(-1).take(row + cover) + lengths[:, :n], lengths, parents


def linkage_of(tops: np.ndarray, masks: np.ndarray, members: np.ndarray, nodes: np.ndarray,
               firsts: np.ndarray, tol: float) -> Linkage:
    """The :class:`Linkage` of slots sorted by `tops`, with their nodes' `masks`, `members`
    and smallest leaves, and whether they hold one; a clade is kept if its branch exceeds tol."""
    n, steps = members.shape[2], members.shape[1]
    depths, lengths, parents = leaf_depths(tops / 2.0, members, firsts)
    lengths[:, n:][~nodes] = 0.0
    parents[:, n:][~nodes] = steps
    return Linkage(tops, masks, nodes, nodes & (lengths[:, n:] > tol), unequal(depths, tol),
                   parents, lengths, firsts)


def merges(n: int, linkage: Linkage) -> list[list[tuple[float, list[int]]]]:
    """The :func:`~troptree.trees._clade_merges` schedule of each row of a :class:`Linkage`."""
    clades = zip(linkage.masks[linkage.nodes].tolist(),
                 (linkage.tops[linkage.nodes] / 2.0).tolist())
    return [_trees._clade_merges(n, itertools.islice(clades, count))
            for count in np.count_nonzero(linkage.nodes, axis=1).tolist()]


#: Elements in one block of :func:`newicks` (rows times leaves and slots)
#: and of the segment writers (bends times entries).
_BLOCK_ELEMENTS = 1 << 16


def newicks(labels: tuple[str, ...], linkage: Linkage, precision: int) -> Iterator[list[str]]:
    """The Newick string of the tree of each row of a :class:`Linkage` over
    natural-sorted `labels`, as :func:`~troptree.newick.write_newick` writes
    it, each distinct branch length formatted once, in lists of a block of
    `_BLOCK_ELEMENTS` at a time.  Siblings go by smallest leaf rank,
    so an element's first leaf is its parent's plus the leaves of the
    siblings before it, added from the root down.  Each element is written
    at its last leaf, after the smaller ones that close there, with a "("
    before a leaf for each node that opens there; a comma follows it unless
    its parent closes there too, and ";" follows the root."""
    n = len(labels)
    rows, steps = linkage.nodes.shape
    width = n + steps
    fmt = f".{precision}g"
    values, inverse = np.unique(linkage.lengths, return_inverse=True)
    texts = [":" + format(x, fmt) for x in values.tolist()]
    # "(" * k, the labels, ")" and "", each length with a comma and without, ";" and ""
    tokens = np.array(["(" * k for k in range(n)] + [*labels, ")", ""]
                      + [t + "," for t in texts] + texts + [";", ""], dtype=object)
    tails = inverse.reshape(rows, width) + 2 * n + 2
    root = 2 * n + 2 + 2 * len(values)
    leaves = np.arange(n)
    block = max(1, _BLOCK_ELEMENTS // width)
    for first in range(0, rows, block):
        at = slice(first, first + block)
        nodes = linkage.nodes[at]
        count = len(nodes)
        row = np.arange(count)[:, None]
        parent = n + linkage.parents[at].astype(np.intp)    # an element; `width` above the root
        up = parent + row * (width + 1)
        # the leaves below each element, added up from the leaves
        size = np.bincount(up[:, :n].reshape(-1), minlength=count * (width + 1)).reshape(count, -1)
        size[:, :n] = 1
        for k in range(n, width):
            size.reshape(-1)[up[:, k]] += size[:, k]
        key = np.append(np.broadcast_to(leaves, (count, n)), linkage.firsts[at], axis=1)
        order = np.argsort((parent * n + key).astype(np.min_scalar_type((width + 1) * n)),
                           axis=1, kind="stable")
        before = np.take_along_axis(size, order, axis=1)
        before = np.cumsum(before, axis=1) - before
        start = np.diff(np.take_along_axis(parent, order, axis=1), axis=1, prepend=-1) != 0
        before -= np.maximum.accumulate(np.where(start, before, 0), axis=1)
        offset = np.zeros((count, width + 1), dtype=np.intp)
        np.put_along_axis(offset, order, before, axis=1)
        flat = offset.reshape(-1)
        for k in range(width - 1, n - 1, -1):
            offset[:, k] += flat.take(up[:, k])
        offset[:, :n] += flat.take(up[:, :n])
        last = offset + size - 1
        index = np.zeros((count, width, 3), dtype=np.intp)
        index[:, :n, 0] = np.bincount((row * n + offset[:, n:width])[nodes],
                                      minlength=count * n).take(row * n + offset[:, :n])
        index[:, :n, 1] = leaves + n
        index[:, n:, 1] = np.where(nodes, 2 * n, 2 * n + 1)
        shut = last[:, :width] == np.take_along_axis(last, parent, axis=1)
        index[:, :, 2] = tails[at] + shut * len(values)
        index[:, n:, 2] = np.where(nodes, np.where(parent[:, n:] == width, root, index[:, n:, 2]),
                                   root + 1)
        key = np.where(index[:, :, 1] <= 2 * n, last[:, :width] * (n + 1) + size[:, :width],
                       width * (n + 1))
        close = np.argsort(key.astype(np.min_scalar_type(width * (n + 1))), axis=1, kind="stable")
        index = index.reshape(-1, 3)[close + row * width].reshape(count, -1)
        yield ["".join(row_tokens) for row_tokens in tokens.take(index).tolist()]


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
    return linkage_of(tops, leaf_masks(n, members), members, nodes, node, tol)


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
