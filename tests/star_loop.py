"""The star-probability experiment one sample at a time: an oracle for
:func:`troptree.estimate_star_probability`, which draws its samples a block
at a time.

Each sample takes its own stream (``sample_rng``), draws its two merge
schedules (``_schedule``), writes their ultrametric rows
(``_distances_of_merges``) and runs the distance checks and the star test
(``star_crossings``) on that one pair of rows, in that order, so the first
sample that fails raises its own error.
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
