"""Single linkage of a block of distance vectors in numpy arrays, the
clean rule, and the topologies along a block of tree segments read from them.

:func:`_single_linkages` splits the values of each vector into runs
(:func:`_runs`) and finds its minimum spanning tree; :func:`linkage` turns
the edges of the whole block, sorted by the top of their run, into every
vector's clusters, one pass per edge rank: the edges of one run join their
components into one node each, at half the run's top.  Each node sits in
the slot of the first edge of its run inside it: n - 1 slots, each node
after the nodes inside it, which the candidate table of a large segment
(:meth:`troptree._meets.MeetTable.linkages`) fills too, with each row's
widest run and narrowest gap, the margins of the clean rule (:func:`_is_clean`).
:func:`leaf_depths` gives each node its parent, :func:`branch_depths` its
branch, and with :func:`unequal` they are the equidistance check of
:func:`~troptree.trees._equidistance_error` on arrays, in its float order.
:func:`newicks` and :func:`merges` write each row's tree.
:func:`segment_linkages` is the one reader of the bends and pieces of tree
segments: of the NNI survey's blocks, by single linkage, and of both routes
of :class:`~troptree.treespace.TreeSegment`, which hands it its own bend
parameters and, on the table route, the candidate table as its point
reader; it applies the clean rule to the pieces.  Imported by
the first batched pass, so that ``import troptree.cli`` does not load it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import trees as _trees
from .tropical import _bend_parameters, _bend_shifts, _shifted_max, _shifts
from .util import square_index


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
    #: per vector, its widest run and narrowest gap (:func:`_runs`)
    widths: np.ndarray
    gaps: np.ndarray


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
    """The root-to-leaf sums, branches and parents (:func:`branch_depths`)
    of a block of schedules, given per row as the height of each step's
    node, shape (rows, steps), and its leaves, shape (rows, steps, n): no
    node in a step without leaves, every node after the nodes inside it, the
    last at the root's height.  `at` gives one leaf of each step's node, by
    default its smallest.  Walked from the root, a node's parent is the last
    step so far that holds its leaf."""
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
    return (*branch_depths(heights, parents), parents)


def branch_depths(heights: np.ndarray, parents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The root-to-leaf sums and the branch of every element of a block of
    schedules, from each step's node height, shape (rows, steps), and each
    element's parent step, as :class:`Linkage` holds them: a branch is the
    parent's height minus the node's, and the sums add them from the root
    down as :func:`~troptree.newick._node_depths` does, so the floats are theirs."""
    rows, steps = heights.shape
    n = parents.shape[1] - steps
    row = np.arange(rows)[:, None] * (steps + 1)
    lengths = np.append(heights, heights[:, -1:], axis=1).reshape(-1).take(row + parents)
    lengths[:, n:] -= heights
    depth, up = np.zeros((rows, steps + 1)), row + parents[:, n:]
    for k in range(steps - 1, -1, -1):
        np.add(depth.reshape(-1).take(up[:, k]), lengths[:, n + k], out=depth[:, k])
    return depth.reshape(-1).take(row + parents[:, :n]) + lengths[:, :n], lengths


def linkage_of(tops: np.ndarray, masks: np.ndarray, nodes: np.ndarray, firsts: np.ndarray,
               depths: np.ndarray, lengths: np.ndarray, parents: np.ndarray, tol: float,
               widths: np.ndarray, gaps: np.ndarray) -> Linkage:
    """The :class:`Linkage` of slots sorted by `tops`, with their nodes' masks and smallest leaves,
    whether they hold one, :func:`branch_depths` and the rows' run margins; a clade is kept if
    its branch exceeds tol."""
    steps, n = tops.shape[1], parents.shape[1] - tops.shape[1]
    lengths[:, n:][~nodes] = 0.0
    parents[:, n:][~nodes] = steps
    return Linkage(tops, masks, nodes, nodes & (lengths[:, n:] > tol), unequal(depths, tol),
                   parents, lengths, firsts, widths, gaps)


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
    it, in lists of a block of `_BLOCK_ELEMENTS` at a time, each distinct
    branch length of a block formatted once.  Siblings go by smallest leaf rank,
    so an element's first leaf is its parent's plus the leaves of the
    siblings before it, added from the root down.  Each element is written
    at its last leaf, after the smaller ones that close there, with a "("
    before a leaf for each node that opens there; a comma follows it unless
    its parent closes there too, and ";" follows the root."""
    n = len(labels)
    rows, steps = linkage.nodes.shape
    width = n + steps
    fmt = f".{precision}g"
    # "(" * k, the labels, ")" and "", then the block's lengths with a comma and without, ";" and ""
    fixed = ["(" * k for k in range(n)] + [*labels, ")", ""]
    leaves = np.arange(n)
    block = max(1, _BLOCK_ELEMENTS // width)
    for first in range(0, rows, block):
        at = slice(first, first + block)
        nodes = linkage.nodes[at]
        count = len(nodes)
        values, inverse = np.unique(linkage.lengths[at], return_inverse=True)
        texts = [":" + format(x, fmt) for x in values.tolist()]
        tokens = np.array(fixed + [t + "," for t in texts] + texts + [";", ""], dtype=object)
        root = 2 * n + 2 + 2 * len(values)
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
        index[:, :, 2] = inverse.reshape(count, width) + 2 * n + 2 + shut * len(values)
        index[:, n:, 2] = np.where(nodes, np.where(parent[:, n:] == width, root, index[:, n:, 2]),
                                   root + 1)
        key = np.where(index[:, :, 1] <= 2 * n, last[:, :width] * (n + 1) + size[:, :width],
                       width * (n + 1))
        close = np.argsort(key.astype(np.min_scalar_type(width * (n + 1))), axis=1, kind="stable")
        index = index.reshape(-1, 3)[close + row * width].reshape(count, -1)
        yield ["".join(row_tokens) for row_tokens in tokens.take(index).tolist()]


def entry_pairs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct pairs (u_k, v_k), in lexicographic order, as two vectors,
    and each k's pair: one unique of u + iv, whose sort order is lexicographic."""
    pairs, columns = np.unique(u + 1j * v, return_inverse=True)     # exact for finite u, v
    return pairs.real, pairs.imag, columns


def canonical_strs(labels: tuple[str, ...], masks: np.ndarray, kept: np.ndarray,
                    ) -> Callable[[slice], list[str]]:
    """The canonical strings of rows of clade masks over natural-sorted
    `labels` (the full set left out), shape (rows, width), of which `kept`
    flags the clades: each row's clades by (popcount, -mask), in braces,
    then the full set.  The distinct masks are ranked and written once; the
    function returned writes a slice of rows from their ranks, sorted by numpy."""
    flat = masks[kept].tolist()
    values = sorted(set(flat), key=lambda mask: (mask.bit_count(), -mask))
    rank = {mask: k for k, mask in enumerate(values)}
    ranks = np.full(masks.shape, len(values))           # the empty text, after every clade
    ranks[kept] = np.fromiter(map(rank.__getitem__, flat), dtype=ranks.dtype, count=len(flat))
    texts = np.array(["{" + ",".join(_trees._members(labels, mask)) + "}|" for mask in values]
                     + [""], dtype=object)
    full = "{" + ",".join(labels) + "}"
    return lambda at: ["".join(row) + full
                       for row in texts.take(np.sort(ranks[at], axis=1)).tolist()]


def topology_strs(topologies: Sequence[_trees.Topology]) -> list[str]:
    """The canonical strings of topologies over one label tuple, by one writer."""
    rows = [sorted(t.masks)[:-1] for t in topologies]   # the full set is the largest
    width = max(map(len, rows))
    masks = np.array([row + [0] * (width - len(row)) for row in rows], dtype=object)
    return canonical_strs(topologies[0].labels, masks, masks != 0)(slice(None))


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
            tol: float, widths: np.ndarray, gaps: np.ndarray) -> Linkage:
    """The clusters of a block of vectors from their spanning-tree edges
    (near, far), shape (rows, n-1), sorted by the top of their run, `tops`,
    and their run margins `widths` and `gaps`.

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
    return linkage_of(tops, leaf_masks(n, members), nodes, node,
                      *leaf_depths(tops / 2.0, members, node), tol, widths, gaps)


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
                     tol: float) -> Linkage:
    """The single-linkage clusters of each of a non-empty sequence of condensed
    distance vectors over n leaves, as numpy arrays (:class:`Linkage`), with
    the clade cut at tol, the equidistance check of each schedule, and the
    width of each vector's widest run and its narrowest gap between runs
    (:func:`_runs`).  Every distance vector that the library turns into
    clusters is read here.  The pairs of a run merge at once, at half the run's
    top, so values within tol of each other make polytomies.  Only the edges of
    a minimum spanning tree are merged: for every threshold, those at or below
    it connect the same leaves as all pairs at or below it (Gower & Ross 1969),
    O(n^2) per vector.  The run split and Prim's algorithm run on blocks of
    `_LINKAGE_BLOCK_ENTRIES` square entries, the merging of the edges
    (:func:`linkage`) on eight at once."""
    step = max(1, _LINKAGE_BLOCK_ENTRIES // (n * n))
    near, far, tops, widths, gaps = map(np.concatenate, zip(*(
        _spanning_edges(np.asarray(points[first:first + step], dtype=float), n, tol)
        for first in range(0, len(points), step))))
    # the edges are merged in larger blocks: the pass holds a few bytes per
    # square entry where Prim's algorithm holds floats, and its cost per
    # block grows with n whatever the block's size
    step *= 8
    parts = [linkage(n, near[k:k + step], far[k:k + step], tops[k:k + step], tol,
                     widths[k:k + step], gaps[k:k + step]) for k in range(0, len(near), step)]
    return Linkage(*map(np.concatenate, zip(*parts)))


#: Bounds, in multiples of tol, on the widest run of distance values and
#: the narrowest gap between runs of a bend point under which the pieces
#: next to it read their topologies from their bends (:class:`~troptree.treespace.TreeSegment`).
_RUN_WIDTH = 0.25
_RUN_GAP = 8.0


def _is_clean(widths: np.ndarray, gaps: np.ndarray, tol: float) -> np.ndarray:
    """The clean rule of :class:`~troptree.treespace.TreeSegment` for each bend, from the
    width of its widest run of distance values and its narrowest gap between runs."""
    return (widths <= _RUN_WIDTH * tol) & (gaps > _RUN_GAP * tol)


def _raise_at(labels: tuple[str, ...], linkage: Linkage, row: int, tol: float) -> None:
    """Raise the error of :func:`~troptree.trees._equidistance_error`, as the tree
    route does, at a row of a :class:`Linkage` whose schedule the array check
    flags: it names the first leaf in the preorder of the row's :func:`merges` schedule."""
    n = len(labels)
    schedule, = merges(n, Linkage(*(field[row:row + 1] for field in linkage)))
    raise _trees._equidistance_error(labels, schedule, _trees._merge_lengths(n, schedule), tol)


class _ShiftedRows:
    """The points max(u[rows] + a, v[rows] + b), made by :func:`_shifted_max`
    for the slice or index of a and b asked for: one row of u and v is
    broadcast to every point rather than copied for each."""

    def __init__(self, u: np.ndarray, v: np.ndarray, rows: np.ndarray, a: np.ndarray,
                 b: np.ndarray):
        self.ends, self.rows, self.a, self.b = (u, v), rows, a, b

    def __len__(self) -> int:
        return len(self.a)

    def __getitem__(self, at) -> np.ndarray:
        u, v = self.ends
        if len(u) > 1:
            u, v = u[self.rows[at]], v[self.rows[at]]
        return _shifted_max(u, v, self.a[at], self.b[at])


def segment_linkages(labels: tuple[str, ...], u: np.ndarray, v: np.ndarray, tol: float,
                     params: np.ndarray | None = None,
                     read: Callable | None = None,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, Linkage, Linkage | None]:
    """The bends and pieces of the segments from the rows of v to those of
    u, as :class:`~troptree.treespace.TreeSegment` reads them: the segment
    of each bend; the first bend of each piece; those of the pieces where
    the clean rule fails at either bend, which take the topology of their
    midpoint; the :class:`Linkage` of the bends, and that of those
    midpoints (None without one).  The bends are those of
    :func:`~troptree.tropical._bend_parameters`, or the bend parameters
    `params` of one segment, u and v one row each.  ``read(rows, a, b)`` reads the points
    max(u[rows] + a, v[rows] + b): their :class:`Linkage`, which carries
    the widest run and narrowest gap of each, by default in one pass of
    :func:`_single_linkages`, which makes each point once, a block at a
    time, as it reads it (:class:`_ShiftedRows`); the candidate table of
    one segment reads them from its meets.  Raises what the tree
    route raises at the first segment with a bend or a piece midpoint that
    fails the equidistance check."""
    n = len(labels)
    if params is None:
        segment, params, last = _bend_parameters(u, v, tol)
    else:
        segment = np.zeros(len(params), dtype=np.intp)
        last = np.arange(len(params)) == len(params) - 1
    if read is None:
        def read(rows, a, b):
            return _single_linkages(_ShiftedRows(u, v, rows, a, b), n, tol)
    linkage = read(segment, *_bend_shifts(params, last))
    clean = _is_clean(linkage.widths, linkage.gaps, tol)
    left = np.flatnonzero(~last)
    unclean = left[~(clean[left] & clean[left + 1])]
    midlinkage = None
    flagged = [(segment[k], 0, linkage, k) for k in np.flatnonzero(linkage.unequal)[:1]]
    if unclean.size:
        midlinkage = read(segment[unclean],
                          *_shifts(0.5 * (params[unclean] + params[unclean + 1])))
        flagged += [(segment[unclean[k]], 1, midlinkage, k)
                    for k in np.flatnonzero(midlinkage.unequal)[:1]]
    # the tree route reads every bend of a segment before its pieces
    if flagged:
        _raise_at(labels, *min(flagged, key=lambda f: f[:2])[2:], tol)
    return segment, left, unclean, linkage, midlinkage
