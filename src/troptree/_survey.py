"""The NNI survey's blocks in numpy arrays: the draws, the segments, the
bend clusters and the transitions of a block of samples, each a fixed
number of numpy passes (see :func:`_survey_block`).  It is imported by
:func:`~troptree.sim.check_nni_conjecture`, so that the other callers of
:mod:`troptree.sim` do not load it.

A topology is a row of clade masks (:func:`segment_rows`) with the full set
among them, padded with zeros and sorted, so that two rows are one topology
exactly when they are equal.  The survey's questions are then set operations
on rows: whether one topology is binary (n - 1 clades), whether one is a
contraction of another (its clades are among the other's), and whether two
are one NNI move apart (binary, and one clade of either is not a clade of
the other).
"""

from __future__ import annotations

import numpy as np

from . import _linkages, _streams, trees as _trees
from .newick import _newick_of_merges
from .sim import SampleConfig
from .treespace import _invalid_distances, _violating_triple, Ultrametric, require_ultrametric
from .util import DEFAULT_TOL, square_index


def _survey_block(cfg: SampleConfig, labels: tuple[str, ...], first: int, heights: np.ndarray,
                  i: np.ndarray, j: np.ndarray,
                  ) -> tuple[np.ndarray, int, int, int, int, list[dict]]:
    """A block of the NNI survey from its first sample and its draws, as
    :func:`troptree._streams.sample_blocks` gives them, in numpy arrays:
    the number of topologies along each sample's segment, the number of
    transitions between binary topologies and of those one NNI move apart,
    the number of degenerate topologies and of those that resolve against
    a binary neighbour they are no contraction of, and the violations, each
    with the Newick strings of its sample's two trees.

    The draws are star-prob's.  Their rows are checked as the tree route
    checks them, batched: the equidistance of each draw
    (:func:`troptree._linkages.unequal`), positivity and the three-point
    condition give their first failing sample without raising.
    The segments of the samples before it are read together by
    :func:`segment_rows`, through the reader of
    :class:`~troptree.treespace.TreeSegment`'s single-linkage route: from
    one sort of their v - u rows and one single-linkage pass over all their
    bends, and one more over the piece midpoints that the clean rule needs.
    It raises what the tree route raises at the first sample with a bend or
    midpoint that fails the equidistance check.  Otherwise the failing
    sample runs its checks in the tree route's order (each draw's
    equidistance and then its distances, then the three-point condition on
    each), so the block raises what
    :func:`~troptree.treespace.tree_segment` raises for the first sample
    that fails.  Merge schedules are built only for the error messages and
    for the Newick strings of samples with a violation."""
    n, tol = cfg.n, DEFAULT_TOL
    count = len(heights) // 2
    members = np.empty((2 * count, n - 1, n), dtype=bool)
    # the segment passes read the rows in sample order, so they are made
    # contiguous once
    rows = np.ascontiguousarray(_streams.rows(n, heights, i, j, members))
    unequal = _linkages.unequal(_linkages.leaf_depths(heights, members)[0], tol)
    squares = np.concatenate((rows, np.zeros((len(rows), 1))), axis=1)[:, square_index(n)]
    faults = [_invalid_distances(rows), _violating_triple(squares, tol)]
    bad = min([int(np.argmax(unequal)) if unequal.any() else len(rows)]
              + [fault[0] for fault in faults if fault is not None]) // 2

    found = (np.zeros(0, dtype=np.intp), 0, 0, 0, 0, [])
    if bad:
        u, v = rows[0:2 * bad:2], rows[1:2 * bad:2]
        found = _transitions(labels, u, v, heights, i, j, first, tol)
    if bad < count:
        for t in (2 * bad, 2 * bad + 1):
            if unequal[t]:
                merges = _streams.draw_merges(n, heights[t], i[t], j[t])
                raise _trees._equidistance_error(labels, merges, _trees._merge_lengths(n, merges),
                                                 tol)
            Ultrametric._of_sorted(labels, rows[t])     # the distance check of ultrametric_of
        for t in (2 * bad, 2 * bad + 1):
            require_ultrametric(Ultrametric._of_sorted(labels, rows[t]), tol)
    return found


def _transitions(labels: tuple[str, ...], u: np.ndarray, v: np.ndarray, heights: np.ndarray,
                 i: np.ndarray, j: np.ndarray, first: int, tol: float,
                 ) -> tuple[np.ndarray, int, int, int, int, list[dict]]:
    """What :func:`_survey_block` returns for the samples whose draws have
    the rows u and v and pass every check, samples first, first+1, ...,
    from the topologies along their segments (:func:`segment_rows`)."""
    n = len(labels)
    samples = len(u)
    position, owner = segment_rows(labels, u, v, tol)

    # the topology sequence of each segment: consecutive duplicates removed
    keep = np.ones(len(position), dtype=bool)
    keep[1:] = (owner[1:] != owner[:-1]) | (position[1:] != position[:-1]).any(axis=1)
    seq, owner = position[keep], owner[keep]
    binary = np.count_nonzero(seq, axis=1) == n - 1

    # a degenerate topology must be a contraction of its binary neighbours:
    # the one before it, then the one after it
    unresolved = 0
    for here, there in ((slice(1, None), slice(None, -1)), (slice(None, -1), slice(1, None))):
        check = np.flatnonzero((owner[here] == owner[there]) & ~binary[here] & binary[there])
        x, y = seq[here][check], seq[there][check]
        unresolved += int(np.count_nonzero(~(within(x, y) | (x == 0)).all(axis=1)))

    # consecutive distinct binary topologies
    shapes, shape_owner = seq[binary], owner[binary]
    new = np.ones(len(shapes), dtype=bool)
    new[1:] = (shape_owner[1:] != shape_owner[:-1]) | (shapes[1:] != shapes[:-1]).any(axis=1)
    shapes, shape_owner = shapes[new], shape_owner[new]
    pair = np.flatnonzero(shape_owner[1:] == shape_owner[:-1])
    x, y = shapes[pair], shapes[pair + 1]
    single = np.count_nonzero((x != 0) & ~within(x, y), axis=1) == 1
    # each transition's number within its sample
    number = pair - np.searchsorted(shape_owner, shape_owner[pair])

    violations = []
    newicks = {}
    for p in np.flatnonzero(~single).tolist():
        s = int(shape_owner[pair[p]])
        if s not in newicks:
            newicks[s] = []
            for t in (2 * s, 2 * s + 1):
                merges = _streams.draw_merges(n, heights[t], i[t], j[t])
                newicks[s].append(_newick_of_merges(labels, merges,
                                                    _trees._merge_lengths(n, merges), 10))
        violations.append({"sample": first + s, "transition": int(number[p]),
                           "t1": newicks[s][0], "t2": newicks[s][1]})
    return (np.bincount(owner, minlength=samples), len(pair), int(np.count_nonzero(single)),
            int(np.count_nonzero(~binary)), unresolved, violations)


def segment_rows(labels: tuple[str, ...], u: np.ndarray, v: np.ndarray, tol: float,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The topologies along the segments from the rows of v to those of u
    (:func:`troptree._linkages.segment_linkages`): one row of clade masks per
    position, 2n wide, sorted and padded with zeros, so that two rows are one
    topology exactly when they are equal, and the segment of each row.  The
    positions are those of :class:`~troptree.treespace.TreeSegment`, bend k of
    a segment and then its piece k, which takes the union of its bends' clades
    or its midpoint's."""
    n = len(labels)
    segment, left, unclean, linkage, midlinkage = _linkages.segment_linkages(labels, u, v, tol)
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


def topology_rows(n: int, linkage: _linkages.Linkage) -> np.ndarray:
    """The topology row of each vector of a :class:`~troptree._linkages.Linkage`, n wide:
    its kept clades and the full set, unsorted, zeros in the other slots."""
    rows = np.empty((len(linkage.kept), n), dtype=linkage.masks.dtype)
    rows[:, :n - 1] = np.where(linkage.kept, linkage.masks, 0)
    rows[:, n - 1] = (1 << n) - 1
    return rows


def within(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For rows of clade masks a and b, shape (rows, width) each, whether
    each mask of a is in its row of b, shape (rows, width)."""
    return (a[:, :, None] == b[:, None, :]).any(axis=2)
