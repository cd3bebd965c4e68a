"""The star-probability experiment one sample at a time: an oracle for
:func:`troptree.estimate_star_probability`, which draws its samples a block
at a time.

Each sample takes its own stream (``sample_rng``), draws its two merge
schedules (``_schedule``), writes their ultrametric rows
(``_distances_of_merges``) and runs the distance checks and the star test
(``star_crossings``) on that one pair of rows, in that order, so the first
sample that fails raises its own error.

``sample_major_rows`` is the block row writer as it was before
``troptree._streams.rows`` went leaf-major: every array holds one row per
draw.  It is the reference that the leaf-major writer is checked against.
"""

import numpy as np

from troptree import ExperimentReport, TropTreeError, sample_rng
from troptree.sim import _schedule
from troptree.trees import _distances_of_merges, _merge_lengths
from troptree.treespace import _invalid_distances, star_crossings


def sample_rows(n, height, seed, index):
    """Sample `index`'s two ultrametric rows, each shape (1, n(n-1)/2)."""
    rng = sample_rng(seed, index)
    rows = []
    for _ in range(2):
        merges = _schedule(n, height, rng)
        rows.append(np.array([_distances_of_merges(n, merges, _merge_lengths(n, merges))]))
    return rows


def star_report(cfg):
    """The report of ``simulate star-prob`` for `cfg`, or the error it raises."""
    hits = 0
    for index in range(cfg.samples):
        u, v = sample_rows(cfg.n, cfg.height, cfg.seed, index)
        for rows in (u, v):
            fault = _invalid_distances(rows)
            if fault is not None:
                raise TropTreeError(fault[1])
        hits += int(star_crossings(u, v)[0])
    return ExperimentReport(experiment="star-prob", config=cfg, hits=hits,
                            rate=hits / cfg.samples)


def sample_major_rows(n, heights, first, second, members=None):
    """``troptree._streams.rows`` with one row per draw in every array: the
    condensed ultrametric rows, shape (draws, n(n-1)/2), of merge schedules
    given as the merge heights and the lineage positions i < j merged at
    each step, shape (draws, n-1) each; `members`, if given, gets the
    leaves below each step's node, shape (draws, n-1, n)."""
    count = len(heights)
    lineage = np.broadcast_to(np.arange(n), (count, n)).copy()      # each leaf's position
    top = np.zeros((count, n))                                      # its lineage's height
    depth = np.zeros((count, n))
    depths = np.empty((count, n - 1, n))
    seconds = np.empty((count, n - 1, n), dtype=bool)     # the leaves of each step's j
    firsts = np.empty((count, n - 1), dtype=np.int32)     # and the size of its i
    above = np.empty((count, n), dtype=bool)
    for m in range(n - 1):
        i, j, h = first[:, m, None], second[:, m, None], heights[:, m, None]
        in_i = lineage == i
        in_j = np.equal(lineage, j, out=seconds[:, m])
        joined = np.logical_or(in_i, in_j, out=None if members is None else members[:, m])
        np.add(depth, h - top, out=depth, where=joined)
        depths[:, m] = depth
        np.copyto(top, h, where=joined)
        np.sum(in_i, axis=1, out=firsts[:, m])
        # pop j, pop i, append the merged lineage
        np.subtract(lineage, np.greater(lineage, j, out=above), out=lineage)
        np.subtract(lineage, np.greater(lineage, i, out=above), out=lineage)
        np.putmask(lineage, joined, n - m - 2)
    # each leaf's place in the leaf order, and the gap that each step splits
    place = (seconds * firsts[:, :, None]).sum(axis=1, dtype=np.int32)
    gap = np.where(seconds, place[:, None, :], n).min(axis=2) - 1
    row = np.arange(count)[:, None]
    gap_at = np.empty((count, n - 1), dtype=np.intp)
    gap_at[row, gap] = row * ((n - 1) * n) + np.arange(n - 1) * n
    join = np.zeros((count, n, n), dtype=np.intp)
    for p in range(n - 1):
        np.maximum.accumulate(gap_at[:, p:], axis=1, out=join[:, p, p + 1:])
    join += join.transpose(0, 2, 1)
    x, y = np.triu_indices(n, k=1)
    at = join.ravel().take((place * n + row * (n * n))[:, x] + place[:, y])
    depths = depths.ravel()
    out = depths.take(at + x)
    out += depths.take(at + y)
    return out
