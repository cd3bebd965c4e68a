"""Ultrametrics and tropical line segments between equidistant trees.

An equidistant tree on n leaves is encoded by its ultrametric: the vector of
pairwise leaf distances (twice the most-recent-common-ancestor heights) in
lexicographic pair order.  A distance vector is an ultrametric exactly when
the maximum over every leaf triple is attained at least twice (the
three-point condition), and the set of all ultrametrics is closed under
coordinate-wise tropical combinations, so every point of the tropical line
segment between two equidistant trees is again an equidistant tree.  This
module computes those segments, reconstructs the trees along them, and
provides checkers for the structural facts the test suite exercises (star
crossings, clade preservation, segments between NNI neighbors).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import trees as _trees
from .errors import NotUltrametricError, TropTreeError
from .newick import RootedTree
from .tropical import _bend_shifts, _shifted_max, tropical_segment
from .trees import (Topology, require_equidistant, require_same_leaves,
                    speciation_times, topology_of)
from .util import DEFAULT_TOL, sorted_labels, square_form, square_index, valid_tol

if TYPE_CHECKING:
    from ._linkages import Linkage


class Ultrametric:
    """Condensed pairwise-distance vector of an equidistant tree.

    `labels` must be natural-sorted; `entries` has length n(n-1)/2 in
    lexicographic pair order over the labels, with every entry positive
    and finite.
    """

    __slots__ = ("labels", "entries")

    def __init__(self, labels: Sequence[str], entries):
        labels = tuple(labels)
        if labels != sorted_labels(labels) or len(set(labels)) != len(labels):
            raise ValueError("labels must be natural-sorted and unique")
        self._set(labels, entries)

    @classmethod
    def _of_sorted(cls, labels: tuple[str, ...], entries) -> "Ultrametric":
        """Ultrametric over labels known to be natural-sorted and unique (as
        those of another Ultrametric are)."""
        u = object.__new__(cls)
        u._set(labels, entries)
        return u

    def _set(self, labels: tuple[str, ...], entries) -> None:
        n = len(labels)
        if n < 2:
            raise TropTreeError("an ultrametric needs at least 2 leaves")
        self.labels = labels
        self.entries = np.asarray(entries, dtype=float)
        if self.entries.shape != (n * (n - 1) // 2,):
            raise ValueError(
                f"expected {n * (n - 1) // 2} entries for {n} leaves, "
                f"got {self.entries.shape}")
        bad = _invalid_distances(self.entries[None])
        if bad is not None:
            raise TropTreeError(bad[1])

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def e(self) -> int:
        return self.entries.size

    @property
    def height(self) -> float:
        """Height of the corresponding tree: half the largest distance."""
        return float(self.entries.max()) / 2.0

    def pairs(self) -> list[tuple[str, str]]:
        """All leaf pairs, in lexicographic order."""
        return list(itertools.combinations(self.labels, 2))

    def restrict(self, keep: Iterable[str]) -> "Ultrametric":
        """Sub-ultrametric on a subset of at least two leaves."""
        keep = sorted_labels(set(keep))
        rank = {lab: r for r, lab in enumerate(self.labels)}
        missing = [lab for lab in keep if lab not in rank]
        if missing:
            raise ValueError(f"unknown leaf label(s): {missing}")
        m = len(keep)
        if m < 2:
            raise ValueError("restriction needs at least 2 leaves")
        # the kept ranks ascend, so the upper triangle of their square of
        # pair indices lists the sub-pairs in lexicographic order
        at = np.array([rank[lab] for lab in keep])
        pairs = square_index(self.n)[at[:, None], at][np.triu_indices(m, k=1)]
        return Ultrametric._of_sorted(keep, self.entries[pairs])

    def __repr__(self) -> str:
        vals = ", ".join(format(x, ".6g") for x in self.entries[:6])
        if self.e > 6:
            vals += ", ..."
        return f"Ultrametric(n={self.n}, [{vals}])"


def _invalid_distances(rows: np.ndarray) -> tuple[int, str] | None:
    """The first row of a stack of condensed distance rows, shape (rows, e),
    with an entry that is not positive (NaN included) or not finite, and
    the message naming its fault; None if every row passes."""
    positive = (rows > 0).all(axis=1)
    valid = positive & np.isfinite(rows).all(axis=1)
    if valid.all():
        return None
    r = int(np.argmin(valid))
    return r, "all pairwise distances must be " + ("finite" if positive[r] else "positive")


def _violating_triple(D: np.ndarray, tol: float) -> tuple[int, int, int, int] | None:
    """The first triple that fails the three-point condition in a stack of
    square distance matrices, shape (rows, n, n): (r, i, j, k) with
    D[r,i,j] > max(D[r,i,k], D[r,j,k]) + tol, for the smallest r, then the
    smallest k, then (i, j) in row-major order; None if there is none."""
    first = None
    for k in range(D.shape[1]):
        bad = D > np.maximum(D[:, :, k, None], D[:, None, k, :]) + tol
        if bad.any():
            r, i, j = np.argwhere(bad)[0].tolist()
            if first is None or r < first[0]:
                first = (r, i, j, k)
    return first


def is_ultrametric(entries, tol: float = DEFAULT_TOL) -> bool:
    """True iff every leaf triple attains its maximum pairwise distance at
    least twice, within tol."""
    tol = valid_tol(tol)
    vec = np.asarray(entries, dtype=float)
    if vec.ndim != 1:
        raise ValueError("expected a 1-D condensed distance vector")
    e = vec.size
    n = round((1 + np.sqrt(1 + 8 * e)) / 2)
    if n * (n - 1) // 2 != e:
        raise ValueError(f"length {e} is not a triangular number")
    if n < 3:
        return True
    return _violating_triple(square_form(vec, n)[None], tol) is None


def ultrametric_of(tree: RootedTree, tol: float = DEFAULT_TOL) -> Ultrametric:
    """Cophenetic distance vector of an equidistant tree."""
    require_equidistant(tree, tol)
    # a tree's labels are natural-sorted and unique already
    return Ultrametric._of_sorted(*_trees.pairwise_distances(tree))


def require_ultrametric(u: Ultrametric, tol: float = DEFAULT_TOL) -> None:
    """Raise :class:`NotUltrametricError` naming an offending triple when
    the three-point condition fails.  Every max-plus combination of
    ultrametrics that pass is again one that passes, so validating a
    segment's endpoints validates all of it."""
    D = square_form(u.entries, u.n)
    bad = _violating_triple(D[None], valid_tol(tol))
    if bad is not None:
        _, i, j, k = bad
        names = (u.labels[i], u.labels[j], u.labels[k])
        raise NotUltrametricError(
            f"three-point condition fails on triple {names}: "
            f"d({names[0]},{names[1]})={D[i, j]:.12g} exceeds both "
            f"d({names[0]},{names[2]})={D[i, k]:.12g} and "
            f"d({names[1]},{names[2]})={D[j, k]:.12g}", triple=names)


def tree_of(u: Ultrametric, tol: float = DEFAULT_TOL) -> RootedTree:
    """The unique equidistant tree realizing an ultrametric.

    Leaves merge bottom-up at half their pairwise distance; entries equal
    within tol merge simultaneously, producing polytomies.  Raises
    :class:`NotUltrametricError` naming an offending triple when the
    three-point condition fails.
    """
    require_ultrametric(u, tol)
    return _trees.agglomerate(u.labels, u.entries, tol)


# --------------------------------------------------------------------------
# tree segments
# --------------------------------------------------------------------------

def _topologies(labels: tuple[str, ...], linkage: Linkage) -> list[Topology]:
    """The topology of each vector of a :class:`~troptree._linkages.Linkage`:
    its kept clades."""
    masks = iter(linkage.masks[linkage.kept].tolist())
    return [Topology._of_masks(labels, itertools.islice(masks, size))
            for size in np.count_nonzero(linkage.kept, axis=1).tolist()]


def _quoted(field: str) -> str:
    """A csv field in quotes, as csv's minimal quoting writes one that
    holds a comma."""
    return f'"{field}"' if '"' not in field else '"' + field.replace('"', '""') + '"'


def _emit(out: TextIO | None, head: str, blocks: Iterable[str], tail: str) -> str | None:
    """Write the text to `out` as it is made, or return it as one string."""
    if out is None:
        return "".join([head, *blocks, tail])
    for text in itertools.chain([head], blocks, [tail]):
        out.write(text)
    return None


#: The fewest distance entries, bends times pairs, at which a segment reads its bends
#: from a :class:`~troptree._meets.MeetTable`; smaller ones take the batched single-linkage
#: pass: over random pairs at n 16-24 the table was the slower up to about 12,000 entries
#: (n = 20) and the faster from about 19,000 (n = 24), on 11 of 12 pairs at either n.
_TABLE_MIN_ENTRIES = 1 << 14


class TreeSegment:
    """A tropical line segment between two equidistant trees, with the
    topology at every bend point and on every straight piece in between.

    Order convention: everything runs from the v end of the underlying
    coordinate segment to the u end (from the second input tree of
    :func:`tree_segment` to the first).  Positions along the segment
    interleave bends and pieces: ``2*k`` is bend k and ``2*k + 1`` is the
    open piece between bends k and k+1.  ``TreeSegment(u, v, tol)`` makes
    its own tropical segment (:attr:`segment`) of the entries of `u` and `v`,
    which take :func:`require_ultrametric` where the candidate table's
    guard, the three-point condition at tol 0, does not stand in for it: no
    triple fails at a tol >= 0 where the guard holds.

    The bend topologies are read from the clusters of each bend, without
    building a tree: the nodes of the single-linkage dendrogram of its
    point, on which runs of distance values within tol merge at half their
    largest value.  Every cluster of every bend is a meet A ∩ B of a
    cluster A of u and a cluster B of v (Develin & Sturmfels 2004), and a
    large segment reads its bends from the table of those meets
    (:class:`~troptree._meets.MeetTable`), bit for bit as single linkage
    reads them.  A segment whose endpoints fail the table's guard, and one
    whose bend points hold fewer than ``_TABLE_MIN_ENTRIES`` distance
    entries, where the table measured slower than single linkage, is read
    by single linkage of its bend points instead, in one batched pass.  One
    reader, :func:`troptree._linkages.segment_linkages`, takes either as its
    point reader and the segment's own bend parameters, and raises at the
    first bend or midpoint that fails the equidistance check: the table's
    error is single linkage's, and no segment is read twice.

    Each piece topology follows from its two bends.  On an open piece no
    coordinate changes side between ``u + d`` and ``v``, so every
    coordinate is affine in d, the tree's shape is constant (tropical types
    are constant on open cells, Develin & Sturmfels 2004), and so every
    branch length, a difference of two node heights, is affine in d, with
    its limits at the bends.  Affine and non-negative on the closed piece,
    it is positive inside it exactly when it is positive at one end, so the
    piece's clades are the union of its two bends' clades.

    The tolerance breaks that argument near `tol`: a branch of length l at
    one end and 0 at the other has l/2 at the midpoint, which the
    midpoint's tree drops when l <= 2 tol, and values within tol of each
    other merge into one run, which can hide a branch.  So the union is
    used only when, at both bends, every run of distance values is at most
    tol/4 wide and consecutive runs are more than 8 tol apart: the clean
    rule, :func:`troptree._linkages._is_clean`, beside its reader.  Then every
    branch of a bend lies within a run (at most tol/8, dropped) or between
    runs (longer than 4 tol, kept).  On the piece, two coordinates on the
    same side keep their difference, so a run at the midpoint joins at most
    one value class of each side, at most tol + tol/2 wide, and moves a node
    height by at most 3 tol / 4: a branch longer than 2 tol at the midpoint
    keeps more than tol, and one short at both bends stays at most 7 tol / 8.
    Elsewhere a piece reads the clusters of its midpoint, in one more pass
    over all such midpoints on either route.

    Both routes hold each bend's clusters in arrays
    (:class:`~troptree._linkages.Linkage`): the rows of clade masks of the
    topologies, the parent and branch of every node and leaf, from which
    :meth:`bend_newicks` writes the Newick strings in block passes, and
    each bend's widest run and narrowest gap, which the clean rule and
    :func:`check_clade_preservation` read; each bend point is made once, a
    block at a time, by the reader that reads it, and none is kept.
    :class:`~troptree.trees.Topology` objects are made on first access to
    :attr:`bend_topologies` and :attr:`piece_topologies`, merges and trees
    on first use of :attr:`bend_trees`; the writers make none, and
    :meth:`to_csv` writes each distinct entry and clade once.  The NNI
    survey reads its many small segments with the reader of the
    single-linkage route, a block of them at a time (:mod:`troptree._survey`).
    """

    def __init__(self, u: Ultrametric, v: Ultrametric, tol: float):
        self.u = u
        self.v = v
        self.segment = segment = tropical_segment(u.entries, v.entries, tol)
        self.tol = tol
        # imported here: ``import troptree.cli`` loads neither, small segments no table
        from ._linkages import segment_linkages
        params, read = segment.bend_parameters, None
        if len(params) * u.e >= _TABLE_MIN_ENTRIES:
            from ._meets import MeetTable
            table = MeetTable.of(u, v)
            if table is not None:
                def read(rows, a, b):
                    return table.linkages(a, b, tol)
        if read is None:
            require_ultrametric(u, tol)
            require_ultrametric(v, tol)
        self._unclean, self._linkage, self._midlinkage = segment_linkages(
            u.labels, segment.u[None], segment.v[None], tol, params, read)[2:]

    @cached_property
    def bend_topologies(self) -> list[Topology]:
        """The topology of every bend, made on first use from its kept clades."""
        return _topologies(self.u.labels, self._linkage)

    @cached_property
    def piece_topologies(self) -> list[Topology]:
        """The topology of every piece, made on first use: its bends' union, or its midpoint's."""
        labels, bends = self.u.labels, self.bend_topologies
        mids = {} if self._midlinkage is None else dict(
            zip(self._unclean.tolist(), _topologies(labels, self._midlinkage)))
        return [mids[k] if k in mids else Topology._of_masks(labels, a.masks | b.masks)
                for k, (a, b) in enumerate(zip(bends, bends[1:]))]

    @cached_property
    def bend_ultrametrics(self) -> list[Ultrametric]:
        """The ultrametric at every bend point, made on first use, with no
        check: the bend at d is ``max(u + min(d, 0), v - max(d, 0))``, at
        least v for d <= 0 and at least u for d >= 0, so it is positive."""
        return [Ultrametric._of_sorted(self.u.labels, b) for b in self.segment.bend_points]

    @cached_property
    def bend_trees(self) -> list[RootedTree]:
        """The tree at every bend point, built from the merges of the
        clusters its topology was read from."""
        from ._linkages import merges
        return [_trees._tree_of_merges(self.u.labels, m) for m in merges(self.u.n, self._linkage)]

    def bend_newicks(self, precision: int = 10) -> list[str]:
        """The Newick string of the tree at every bend point, as
        :func:`~troptree.newick.write_newick` writes it, from the bends'
        arrays (:func:`troptree._linkages.newicks`)."""
        return list(itertools.chain.from_iterable(self._newicks(precision)))

    def _newicks(self, precision: int) -> Iterator[list[str]]:
        if precision < 1:
            raise ValueError("precision must be >= 1")
        from ._linkages import newicks
        return newicks(self.u.labels, self._linkage, precision)

    @property
    def n_bends(self) -> int:
        return len(self._linkage.kept)

    def positions(self) -> list[Topology]:
        """Topology at every position (bends and pieces interleaved, from
        the v end to the u end)."""
        pairs = zip(self.bend_topologies, self.piece_topologies)
        return [topo for pair in pairs for topo in pair] + self.bend_topologies[-1:]

    def to_csv(self, precision: int = 10, out: TextIO | None = None) -> str | None:
        """One row per bend point: index, the bend's lambda parameter, the
        ultrametric entries, the Newick string, and the topology id.
        Written to `out` a block of bends at a time, or returned as one
        string without it.  Numbers need no csv quoting; a Newick string,
        a canonical topology and a d(a,b) header always hold a comma,
        which csv's minimal quoting always quotes."""
        fmt = f".{precision}g"

        def row(k: int, lam: float, entries: list[str], newick: str, topology: str) -> str:
            return f"{k},{lam:{fmt}},{','.join(entries)},{_quoted(newick)},{_quoted(topology)}\n"
        head = ("index,lambda," + ",".join([_quoted(f"d({x},{y})") for x, y in self.u.pairs()])
                + ",newick,topology\n")
        return _emit(out, head, self._rows(precision, lambda x: format(x, fmt), row, ""), "")

    def to_json(self, precision: int = 10, out: TextIO | None = None) -> str | None:
        """The bends as ``json.dumps`` writes a list of dicts with indent 2
        and sorted keys, and a newline: index, lambda, the ultrametric
        entries, the Newick string and the topology id of each.  Written
        or returned as by :meth:`to_csv`."""
        from json import dumps
        comma = ",\n      "

        def row(k: int, lam: float, entries: list[str], newick: str, topology: str) -> str:
            return (f'  {{\n    "index": {k},\n    "lambda": {lam!r},\n    "newick": '
                    f'{dumps(newick)},\n    "topology": {dumps(topology)},\n    "ultrametric": '
                    f'[\n      {comma.join(entries)}\n    ]\n  }}')
        return _emit(out, "[\n", self._rows(precision, repr, row, ",\n"), "\n]\n")

    def to_newick(self, precision: int = 10, out: TextIO | None = None) -> str | None:
        """The Newick string of every bend, one per line, written or
        returned as by :meth:`to_csv`."""
        return _emit(out, "", ("\n".join(block + [""]) for block in self._newicks(precision)), "")

    def _rows(self, precision: int, entry: Callable[[float], str], row: Callable[..., str],
              sep: str) -> Iterator[str]:
        """The text of the bends, a block of ``_BLOCK_ELEMENTS`` entries at
        a time, rows made by `row` and parted by `sep`.  A bend entry is
        max(u + a, v + b) of the endpoint entries, fixed by the pair (u, v)
        of its column, so `entry` writes each distinct value of the
        distinct pairs once, and a block gathers the texts of its pairs
        before those of its columns.  The topologies are written from the
        bends' mask rows (:func:`~troptree._linkages.canonical_strs`)."""
        from ._linkages import _BLOCK_ELEMENTS, canonical_strs, entry_pairs
        newicks = itertools.chain.from_iterable(self._newicks(precision))
        pu, pv, columns = entry_pairs(self.u.entries, self.v.entries)
        a, b = _bend_shifts(self.segment.bend_parameters)
        lams = self.segment.bend_parameters.tolist()
        block = max(1, _BLOCK_ELEMENTS // self.u.e)
        starts = range(0, len(lams), block)

        def points(first: int) -> np.ndarray:
            return _shifted_max(pu, pv, a[first:first + block], b[first:first + block])
        values = np.unique(np.concatenate([np.unique(points(first)) for first in starts]))
        texts = np.array([entry(x) for x in values.tolist()], dtype=object)
        topologies = canonical_strs(self.u.labels, self._linkage.masks, self._linkage.kept)

        def rows(first: int) -> str:
            at = slice(first, first + block)
            # each distinct pair's text, then each column's
            entries = texts.take(np.searchsorted(values, points(first))).take(columns, axis=1)
            # a block after the first opens with `sep`
            return sep.join(itertools.chain([""] * (first > 0), itertools.starmap(row, zip(
                itertools.count(first), lams[at], entries.tolist(), newicks, topologies(at)))))
        return map(rows, starts)

    def __repr__(self) -> str:
        return (f"TreeSegment(n={self.u.n}, bends={self.n_bends}, "
                f"length={self.segment.length:.6g})")


def tree_segment(t1: RootedTree, t2: RootedTree, tol: float = DEFAULT_TOL) -> TreeSegment:
    """Tropical line segment between two equidistant trees on one leaf set,
    reconstructed tree by tree (ordered from t2 to t1)."""
    require_same_leaves(t1.leaf_labels, t2.leaf_labels)
    u = ultrametric_of(t1, tol)
    v = ultrametric_of(t2, tol)
    if u.n < 3:     # no triple of fewer leaves fails the three-point condition
        raise TropTreeError(f"a tree segment needs at least 3 leaves, got {u.n}")
    return TreeSegment(u, v, tol)


def topology_sequence(seg: TreeSegment) -> list[Topology]:
    """Deduplicated sequence of topologies along the segment, from the t2
    end to the t1 end (bends and straight pieces interleaved): one per
    maximal run of equal topologies of its :meth:`~TreeSegment.positions`."""
    return [topology for topology, _ in itertools.groupby(seg.positions())]


# --------------------------------------------------------------------------
# star trees on segments
# --------------------------------------------------------------------------

def segment_to_star(tree: RootedTree, tol: float = DEFAULT_TOL) -> list[RootedTree]:
    """The trees at the bend points of the segment from `tree` to the star
    tree of the same height, ordered from `tree` to the star.  With
    speciation times t_1 < ... < t_k, the i-th tree raises every internal
    node of height below t_i up to t_i (coordinate-wise max(d, 2 t_i) on
    the distance vector); the first tree is the input, the last the star."""
    u = ultrametric_of(tree, tol)
    require_ultrametric(u, tol)
    from ._linkages import _single_linkages, merges
    points = np.maximum(u.entries, 2.0 * np.array(speciation_times(tree, tol))[:, None])
    linkage = _single_linkages(points, u.n, tol)
    return [_trees._tree_of_merges(u.labels, m) for m in merges(u.n, linkage)]


def star_crossings(u: np.ndarray, v: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Star test on stacked pairs of ultrametric rows, shape (pairs, e): one
    bool per pair, true iff their coordinate-wise maximum is a constant
    vector.  Raises :class:`TropTreeError` naming the first pair whose
    heights differ by more than tol, with the two heights, their difference
    and the tol, and ValueError for a tol below 0 or NaN."""
    tol = valid_tol(tol)
    hu = u.max(axis=1) / 2.0
    hv = v.max(axis=1) / 2.0
    off = np.abs(hu - hv)
    mismatch = np.flatnonzero(off > tol)
    if mismatch.size:
        k = mismatch[0]
        raise TropTreeError(f"height mismatch: {hu[k]:.12g} vs {hv[k]:.12g} "
                            f"(off by {off[k]:.2g}, tol {tol:g})")
    m = np.maximum(u, v)
    return m.max(axis=1) - m.min(axis=1) <= 2.0 * tol


def star_on_segment(t1: RootedTree, t2: RootedTree, tol: float = DEFAULT_TOL) -> bool:
    """True iff the segment between two equal-height trees passes through
    the star tree, i.e. the coordinate-wise maximum of the two ultrametrics
    is a constant vector (the torus origin)."""
    require_same_leaves(t1.leaf_labels, t2.leaf_labels)
    u = ultrametric_of(t1, tol)
    v = ultrametric_of(t2, tol)
    return bool(star_crossings(u.entries[None], v.entries[None], tol)[0])


# --------------------------------------------------------------------------
# structural checkers
# --------------------------------------------------------------------------

def check_clade_preservation(t1: RootedTree, t2: RootedTree,
                             leaves: Iterable[str],
                             tol: float = DEFAULT_TOL) -> bool:
    """Given a leaf set that is a clade of both trees with the same induced
    topology, check that every bend tree of their segment keeps it as a
    clade with that same induced topology.  (This always holds; the checker
    exists to exercise the implementation.)  A bend where the clean rule of
    :class:`TreeSegment` holds is read from its own row of the segment's bend
    :class:`~troptree._linkages.Linkage`, with no bend point made again: the
    set is a clade there exactly when its mask is a node's, and its induced
    topology is the row's kept clades inside it, as every distance of the
    restricted tree lies within tol/4 of the point's, its runs more than
    8 tol apart.  The others check their trees."""
    leaves = sorted_labels(set(leaves))
    if not (_trees.is_clade(t1, leaves, tol) and _trees.is_clade(t2, leaves, tol)):
        raise ValueError(f"{list(leaves)} is not a clade of both trees")

    def induced(tree: RootedTree) -> Topology:
        return topology_of(tree_of(ultrametric_of(tree, tol).restrict(leaves), tol), tol)

    target = induced(t1)
    if induced(t2) != target:
        raise ValueError(
            f"the trees induce different topologies on {list(leaves)}")
    seg = tree_segment(t1, t2, tol)
    from ._linkages import _is_clean
    bends = seg._linkage
    bit = {label: 1 << k for k, label in enumerate(reversed(seg.u.labels))}
    mask = sum(bit[label] for label in leaves)
    want = {sum(bit[label] for label in clade) for clade in target.clades}
    clade = (bends.masks == mask).any(axis=1)          # a slot without a node holds 0
    inside = bends.kept & ((bends.masks & mask) == bends.masks)
    fast = _is_clean(bends.widths, bends.gaps, tol)
    return all(clade[k] and {mask, *bends.masks[k][inside[k]].tolist()} == want if fast[k] else
               _trees.is_clade(seg.bend_trees[k], leaves, tol)
               and induced(seg.bend_trees[k]) == target
               for k in range(seg.n_bends))


def check_nni_theorem(t1: RootedTree, t2: RootedTree,
                      tol: float = DEFAULT_TOL) -> bool:
    """For two trees one NNI move apart (or sharing one topology), check
    that every topology along their segment is the topology of an endpoint
    or a contraction of one (an endpoint topology with some internal edges
    collapsed to length 0)."""
    topo1 = topology_of(t1, tol)
    topo2 = topology_of(t2, tol)
    if topo1 != topo2 and not topo1.one_nni_apart(topo2):
        raise ValueError("the trees are not one NNI move apart")
    return all(
        topo == topo1 or topo == topo2
        or topo.is_contraction_of(topo1) or topo.is_contraction_of(topo2)
        for topo in topology_sequence(tree_segment(t1, t2, tol)))
