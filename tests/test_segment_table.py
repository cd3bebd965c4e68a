"""The candidate table of a segment against single linkage of its points.

Every bend of a segment, and the midpoint of every piece, is read twice:
from the table of meets of the endpoints' clusters (`_meets.MeetTable`), and by
single linkage of the point itself, one point at a time with the union-find of
`tree_walks.merge_runs` (small segments take the batched
`_linkages._single_linkages`, the library's one reader from distances to
clusters).  The two must agree bit for bit: the clades with their node
heights, the widest run and the narrowest gap of every point, and then the
topologies, Newick strings and CSV bytes of the whole segment.
`TreeSegment` takes the table route from `_TABLE_MIN_ENTRIES` distance
entries up; the tests move that bound to force one route or the other.

Both routes split distance values into runs by the same `_linkages._runs`,
and the table reads the clusters of both its endpoints in one
`_single_linkages` pass with no tolerance.  So those two decisions are
checked against oracles of their own in `tree_walks`: a run split in plain
Python, and the clusters read from balls around the leaves, the guard the
table used before.
"""

import collections
import csv
import gzip
import hashlib
import importlib.util
import io
import itertools
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_walks as walk
from troptree import (DEFAULT_TOL, NotEquidistantError, TreeSegment, TropTreeError, Ultrametric,
                      parse_newick, random_equidistant_tree, sample_rng, tree_segment,
                      tropical_segment, ultrametric_of, write_newick)
from troptree import _linkages, _meets, cli, treespace, trees, tropical
from troptree.newick import _merge_masks, _newick_of_merges
from troptree.util import sorted_labels, square_form

TOL = DEFAULT_TOL
ROOT = Path(__file__).resolve().parents[1]
GOLDEN_CLI = ROOT / "tests" / "golden" / "cli"


def clades(n, merges):
    """The clades of a merge schedule with their node heights, as bits."""
    masks = _merge_masks([1 << (n - 1 - r) for r in range(n)], merges)
    return sorted((masks[n + m], height.hex()) for m, (height, _) in enumerate(merges))


def linkage_clades(linkage):
    """What `clades` reads, for every row of a Linkage: the nodes of its
    slots, each at half its run's top."""
    return [sorted((m, h.hex()) for m, h, node in zip(masks, heights, nodes) if node)
            for masks, heights, nodes in zip(linkage.masks.tolist(),
                                              (linkage.tops / 2.0).tolist(),
                                              linkage.nodes.tolist())]


def bend_merges(seg):
    """The merge schedule of every bend of a TreeSegment, as its bend trees
    are built from them."""
    return _linkages.merges(seg.u.n, seg._linkage)


def single_linkages(points, n, tol):
    """The single-linkage schedule of each point, one point at a time, and
    the widest run and narrowest gap of each."""
    return ([walk.single_linkage(p, n, tol) for p in points],
            *_linkages._runs(np.stack(points), tol)[1:])


def disagreements(u, v, tol=TOL, midpoints=True):
    """The bends, and the piece midpoints unless told not to, of the segment
    from v to u at which the table and single linkage differ, and the
    number of points compared.  The table must exist: both endpoints pass
    its guard."""
    n = u.n
    seg = tropical_segment(u.entries, v.entries, tol)
    table = _meets.MeetTable.of(u, v)
    assert table is not None
    linkage = table.linkages(*tropical._bend_shifts(seg.bend_parameters), tol)
    widths, gaps = linkage.widths, linkage.gaps
    oracle, oracle_widths, oracle_gaps = single_linkages(seg.bend_points, n, tol)
    bad = [("bend", k) for k, (a, b) in enumerate(zip(linkage_clades(linkage), oracle))
           if a != clades(n, b)]
    bad += [("width", k) for k in np.flatnonzero(widths != oracle_widths).tolist()]
    bad += [("gap", k) for k in np.flatnonzero(gaps != oracle_gaps).tolist()]
    params = seg.bend_parameters
    middle = 0.5 * (params[:-1] + params[1:])
    if midpoints and len(middle):
        linkage = table.linkages(*tropical._shifts(middle), tol)
        widths, gaps = linkage.widths, linkage.gaps
        points = [seg.piece_midpoint(k) for k in range(len(middle))]
        oracle, oracle_widths, oracle_gaps = single_linkages(points, n, tol)
        bad += [("midpoint", k) for k, (a, b) in enumerate(zip(linkage_clades(linkage), oracle))
                if a != clades(n, b)]
        bad += [("midpoint width", k) for k in np.flatnonzero(widths != oracle_widths).tolist()]
        bad += [("midpoint gap", k) for k in np.flatnonzero(gaps != oracle_gaps).tolist()]
    return bad, len(params) + (len(middle) if midpoints else 0)


def oracle_csv(seg, precision, merges):
    """TreeSegment.to_csv as csv.writer writes it: every entry by `format`,
    once per distinct float (by its bits, so 0.0 and -0.0 stay apart), each
    bend's Newick by the sorting writer of `tree_walks`, with every branch
    length formatted where it stands, and each topology written from its
    clades as label sets."""
    fmt = f".{precision}g"
    points = np.array(seg.segment.bend_points)
    bits, at = np.unique(points.view(np.int64).ravel(), return_inverse=True)
    texts = np.array([format(x, fmt) for x in bits.view(np.float64).tolist()], dtype=object)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "lambda"] + [f"d({a},{b})" for a, b in seg.u.pairs()]
                    + ["newick", "topology"])
    for k, row in enumerate(texts[at.reshape(points.shape)].tolist()):
        lengths = trees._merge_lengths(seg.u.n, merges[k])
        writer.writerow([str(k), format(seg.segment.bend_parameters[k], fmt), *row,
                         walk.newick_of_merges(seg.u.labels, merges[k], lengths, precision),
                         walk.canonical_str(seg.u.labels, merges[k], lengths, seg.tol)])
    return buf.getvalue()


def both_routes(monkeypatch, u, v, tol=TOL):
    """The TreeSegment of u and v on the table route, where the guard lets
    it, and on the single-linkage route."""
    monkeypatch.setattr(treespace, "_TABLE_MIN_ENTRIES", 0)
    table = TreeSegment(u, v, tol)
    monkeypatch.setattr(treespace, "_TABLE_MIN_ENTRIES", float("inf"))
    linkage = TreeSegment(u, v, tol)
    return table, linkage


def assert_same(first, *others):
    """Fail unless every one of `others` equals `first`, naming the first
    line of a text, or item of a list, at which one differs: pytest's own
    diff of two multi-MB texts runs for minutes."""
    for other in others:
        if other == first:
            continue
        a, b = (x.splitlines(keepends=True) if isinstance(x, str) else list(x)
                for x in (first, other))
        k = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        x, y = (repr(z[k]) if k < len(z) else "" for z in (a, b))
        c = next((c for c, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
        at = slice(max(c - 40, 0), c + 80)
        pytest.fail(f"line or item {k} of {len(a)} against {len(b)}, from character {c} of "
                    f"its repr: {x[at]} != {y[at]}")


def assert_same_segments(table, linkage, precisions=(3, 10, 17)):
    n = table.u.n
    merges = bend_merges(linkage)
    assert_same([clades(n, m) for m in bend_merges(table)], [clades(n, m) for m in merges])
    assert_same(table.bend_topologies, linkage.bend_topologies)
    assert_same(table.piece_topologies, linkage.piece_topologies)
    for precision in precisions:
        assert_same(table.bend_newicks(precision), linkage.bend_newicks(precision))
        assert_same(table.to_csv(precision), linkage.to_csv(precision),
                    oracle_csv(linkage, precision, merges))


def sampled_pairs(ns, heights, seeds):
    for n, height, seed in itertools.product(ns, heights, seeds):
        rng = sample_rng(seed, n)
        yield (ultrametric_of(random_equidistant_tree(n, height, rng)),
               ultrametric_of(random_equidistant_tree(n, height, rng)))


@pytest.mark.parametrize("height", [1e-3, 1.0, 1e3])
def test_table_matches_single_linkage_on_sampled_pairs(height, monkeypatch):
    checked = 0
    pairs = itertools.chain(sampled_pairs(range(3, 13), [height], range(3)),
                            sampled_pairs([32, 80], [height], range(1)))
    for u, v in pairs:
        if _meets.MeetTable.of(u, v) is None:
            continue
        bad, points = disagreements(u, v)
        assert bad == []
        checked += points
        if u.n <= 12:
            assert_same_segments(*both_routes(monkeypatch, u, v))
    # most sampled pairs pass the guard
    assert checked > 500


def benchmark_pairs(monkeypatch, seeds):
    """The four pairs of the segment-n80 benchmark workload at each seed,
    drawn by the benchmark's own generator and read from their Newick text."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)
    spec.loader.exec_module(gen)
    for seed, k in itertools.product(seeds, range(4)):
        rng = gen.input_stream(seed, "segment-n80", k)
        yield tuple(ultrametric_of(parse_newick(gen.draw_tree(80, 1.0, rng).newick()))
                    for _ in range(2))


def test_table_matches_single_linkage_on_the_segment_benchmark_pairs(monkeypatch):
    bends = 0
    for u, v in benchmark_pairs(monkeypatch, [1]):
        bad, points = disagreements(u, v, midpoints=False)
        assert bad == []
        bends += points
    assert bends == 1439


@pytest.mark.parametrize("name", ["ties_n8", "tolgaps_dist_n8", "tolgaps_height_n8",
                                  "random_n6_seed11", "random_n12_seed12",
                                  "random_n32_seed32"])
def test_table_matches_single_linkage_on_cli_goldens(name, monkeypatch):
    u, v = (ultrametric_of(parse_newick((GOLDEN_CLI / name / f"t{k}.nwk").read_text()))
            for k in (1, 2))
    assert disagreements(u, v)[0] == []
    assert_same_segments(*both_routes(monkeypatch, u, v))


@st.composite
def grid_pairs(draw):
    """Two ultrametrics on n leaves whose node heights come from a coarse
    grid (ties and polytomies), scaled by 1e-3, 1 or 1e3, in half the pairs
    plus offsets near tol that are not scaled."""
    n = draw(st.integers(3, 12))
    scale = draw(st.sampled_from((1e-3, 1.0, 1e3)))
    offsets = draw(st.sampled_from(((0.0, 0.25 * TOL, 0.5 * TOL, TOL, 1.5 * TOL, 3 * TOL),
                                    (0.0,))))
    labels = tuple(str(k) for k in range(1, n + 1))
    pair = []
    for _ in range(2):
        members = [[k] for k in range(n)]
        heights = [0.0] * n
        D = np.zeros((n, n))
        while len(members) > 1:
            size = draw(st.integers(2, min(3, len(members))))
            picked = sorted(draw(st.lists(st.integers(0, len(members) - 1),
                                          min_size=size, max_size=size, unique=True)))
            h = max(max(heights[k] for k in picked),
                    scale * draw(st.sampled_from((0.1, 0.2, 0.3, 0.5, 0.8))))
            h += draw(st.sampled_from(offsets))
            for x, y in itertools.combinations(picked, 2):
                for a in members[x]:
                    for b in members[y]:
                        D[a, b] = D[b, a] = 2 * h
            members = [m for k, m in enumerate(members) if k not in picked] + \
                [[m for k in picked for m in members[k]]]
            heights = [hk for k, hk in enumerate(heights) if k not in picked] + [h]
        pair.append(Ultrametric(labels, D[np.triu_indices(n, k=1)]))
    return pair


@settings(max_examples=100, deadline=None)
@given(pair=grid_pairs())
def test_table_matches_single_linkage_on_grid_ties(pair):
    u, v = pair
    assert disagreements(u, v)[0] == []


def test_table_route_matches_on_grid_ties_end_to_end(monkeypatch):
    # a fixed handful of grid pairs through TreeSegment on both routes
    @settings(max_examples=40, deadline=None, database=None)
    @given(pair=grid_pairs())
    def check(pair):
        assert_same_segments(*both_routes(monkeypatch, *pair))
    check()


@st.composite
def run_rows(draw):
    """A (rows, m) stack of values from a coarse grid (ties), scaled by
    1e-3, 1 or 1e3, plus offsets in steps of tol/2 that are not scaled
    (gaps of 0.5, 1 and 1.5 tol), and a tol of 0 or TOL."""
    m = draw(st.integers(1, 12))
    rows = draw(st.integers(1, 4))
    scale = draw(st.sampled_from((1e-3, 1.0, 1e3)))
    value = st.builds(lambda grid, steps: scale * grid + steps * 0.5 * TOL,
                      st.sampled_from((0.1, 0.2, 0.3, 0.5, 0.8)), st.integers(0, 6))
    stack = draw(st.lists(st.lists(value, min_size=m, max_size=m),
                          min_size=rows, max_size=rows))
    return np.array(stack), draw(st.sampled_from((0.0, TOL)))


@settings(max_examples=200, deadline=None)
@given(case=run_rows())
def test_run_split_matches_plain_python(case):
    stack, tol = case
    top, widths, gaps = _linkages._runs(stack, tol)
    for row, row_top, width, gap in zip(stack.tolist(), top.tolist(), widths.tolist(),
                                        gaps.tolist()):
        want_top, want_width, want_gap = walk.runs(row, tol)
        assert [x.hex() for x in row_top] == [x.hex() for x in want_top]
        assert (width.hex(), gap.hex()) == (want_width.hex(), want_gap.hex())


def guard_disagreement(w):
    """The table's clusters of an ultrametric against the clusters read
    from balls: None when they agree on refusing it, or on accepting it
    with the same clusters, parents, values and lca of every pair."""
    (found,), want = _meets.clusters(w.n, w.entries[None]), walk.ball_clusters(w.n, w.entries)
    if found is None or want is None:
        return None if found is want else ("guard", found is None)
    masks, parent, values, lca = found
    table = {mask: (masks[up], value.hex())
             for mask, up, value in zip(masks, parent, values.tolist())}
    want_table, want_lca = want
    if table != {mask: (up, value.hex()) for mask, (up, value) in want_table.items()}:
        return "clusters"
    return None if [masks[c] for c in lca.tolist()] == want_lca else "lca"


def test_cluster_guard_matches_balls_on_the_segment_benchmark_trees(monkeypatch):
    ends = [w for pair in benchmark_pairs(monkeypatch, range(1, 21)) for w in pair]
    assert len(ends) == 160
    assert [guard_disagreement(w) for w in ends] == [None] * len(ends)


@pytest.mark.parametrize("n, refused", [(6, 0), (12, 1), (32, 10)])
def test_cluster_guard_matches_balls_on_sampled_trees(n, refused):
    # 42 trees at each n; at heights 1e-3 and 1e3 some fail the three-point
    # condition in their last bits, and both guards must refuse those
    ends = [w for pair in sampled_pairs([n], [1e-3, 1.0, 1e3], range(7)) for w in pair]
    assert [guard_disagreement(w) for w in ends] == [None] * len(ends)
    assert sum(walk.ball_clusters(w.n, w.entries) is None for w in ends) == refused


def test_guard_sends_last_bit_variants_to_single_linkage(monkeypatch):
    # root-to-leaf sums that differ in their last bits give a cluster two
    # distance values; the guard refuses the table, and the segment is read
    # by single linkage
    refused = 0
    for u, v in sampled_pairs([12, 32], [1e-3, 1e3], range(6)):
        if None not in _meets.clusters(u.n, np.stack((u.entries, v.entries))):
            continue
        refused += 1
        assert _meets.MeetTable.of(u, v) is None
        calls = {"of": 0}
        real = _meets.MeetTable.of

        def counted(*args):
            calls["of"] += 1
            return real(*args)

        monkeypatch.setattr(_meets.MeetTable, "of", counted)
        table, linkage = both_routes(monkeypatch, u, v)
        monkeypatch.setattr(_meets.MeetTable, "of", real)
        assert calls["of"] == 1
        assert_same_segments(table, linkage)
        # the endpoints fail the three-point condition only without a
        # tolerance: by rounding, not by shape
        squares = np.stack([square_form(w.entries, w.n) for w in (u, v)])
        assert treespace._violating_triple(squares, 0.0) is not None
        assert treespace._violating_triple(squares, TOL) is None
        if refused == 3:
            break
    assert refused == 3


def test_table_guard_stands_in_for_the_triple_search(monkeypatch):
    # the guard is the three-point condition at tol 0, so where it holds no
    # triple fails at a tol >= 0 and a segment read from the table runs no
    # search; every other segment searches both endpoints before single
    # linkage reads it, and raises what the search raises, in the same order
    searched = []
    search = treespace._violating_triple

    def counted(D, tol):
        searched.append(tol)
        return search(D, tol)

    monkeypatch.setattr(treespace, "_violating_triple", counted)
    checked = []

    def checked_segment(t1, t2, tol):
        """What tree_segment did before the table's guard stood in for the
        triple search: both endpoints searched, u then v, then the segment
        read with the searches counted out."""
        u, v = ultrametric_of(t1, tol), ultrametric_of(t2, tol)
        try:
            treespace.require_ultrametric(u, tol)
            treespace.require_ultrametric(v, tol)
        finally:
            checked.append(len(searched))
        with monkeypatch.context() as patch:
            patch.setattr(treespace, "_violating_triple", search)
            return TreeSegment(u, v, tol)

    def outcome(build, t1, t2, tol):
        try:
            return "read", build(t1, t2, tol).to_csv(17)
        except ValueError as exc:       # a TropTreeError, or a negative tol
            return "raised", f"{type(exc).__name__}: {exc}"

    routes = {"table": 0, "refused": 0, "small": 0, "raised": 0, "skipped": 0}
    pairs = [tuple(parse_newick((GOLDEN_CLI / "random_n32_seed32" / f"t{k}.nwk").read_text())
                   for k in (1, 2))]
    for n, height, seed in itertools.product([6, 12, 32], [1e-3, 1e3], range(4)):
        rng = sample_rng(seed, n)
        pairs.append((random_equidistant_tree(n, height, rng),
                      random_equidistant_tree(n, height, rng)))
    for t1, t2 in pairs:
        u, v = ultrametric_of(t1), ultrametric_of(t2)
        seg = tropical_segment(u.entries, v.entries, TOL)
        large = len(seg.bend_parameters) * u.e >= treespace._TABLE_MIN_ENTRIES
        guarded = large and _meets.MeetTable.of(u, v) is not None
        routes["table" if guarded else "refused" if large else "small"] += 1
        for tol in (TOL, 0.0, -TOL):
            searched.clear()
            got = outcome(tree_segment, t1, t2, tol)
            calls = len(searched)
            searched.clear()
            checked.clear()
            assert got == outcome(checked_segment, t1, t2, tol)
            # the searches that the checked route ran: none if an
            # equidistance check raised first, one if u's search raised; a
            # guarded segment runs none, whether it reads or a bend or
            # midpoint fails the equidistance check on the table
            assert calls == (0 if guarded else sum(checked)), (tol, got)
            routes["raised"] += got[1].startswith("NotUltrametricError")
            routes["skipped"] += guarded and got[0] == "read"
            if tol < 0:     # refused before any check, on every route
                assert got == ("raised", f"ValueError: tolerance must be >= 0, got {tol}")
                assert calls == 0
    assert min(routes.values()) > 0, routes


def test_large_segment_runs_single_linkage_only_on_its_endpoints(monkeypatch):
    # the table reads the clusters of both endpoints in one single-linkage
    # pass with no tolerance, no bend point or midpoint by single linkage,
    # and writes its output with no merge schedule
    calls = {"_single_linkages": [], "_clade_merges": []}
    for module, (name, seen) in zip((_linkages, trees), calls.items()):
        real = getattr(module, name)

        def counted(*args, _seen=seen, _real=real):
            _seen.append(args)
            return _real(*args)
        monkeypatch.setattr(module, name, counted)

    def assert_endpoint_calls(seg):
        # one call on the entries of both endpoints, u then v, at tol 0
        assert len(calls["_single_linkages"]) == 1 and calls["_clade_merges"] == []
        (points, n, tol), = calls["_single_linkages"]
        assert points.tobytes() == np.stack((seg.u.entries, seg.v.entries)).tobytes()
        assert n == seg.u.n and tol == 0.0
        for seen in calls.values():
            seen.clear()

    t1, t2 = (parse_newick((GOLDEN_CLI / "random_n32_seed32" / f"t{k}.nwk").read_text())
              for k in (1, 2))
    seg = tree_segment(t1, t2)
    assert seg.n_bends * seg.u.e >= treespace._TABLE_MIN_ENTRIES
    seg.to_csv()
    assert_endpoint_calls(seg)
    # pieces next to runs near tol read their midpoints from the table too,
    # all of them in one more pass
    passes = []
    real_linkages = _meets.MeetTable.linkages

    def counted_linkages(table, a, b, tol):
        passes.append(len(a))
        return real_linkages(table, a, b, tol)

    monkeypatch.setattr(_meets.MeetTable, "linkages", counted_linkages)
    monkeypatch.setattr(treespace, "_TABLE_MIN_ENTRIES", 0)
    t1, t2 = (parse_newick((GOLDEN_CLI / "tolgaps_height_n8" / f"t{k}.nwk").read_text())
              for k in (1, 2))
    seg = tree_segment(t1, t2)
    seg.to_csv()
    assert len(passes) == 2 and passes[0] == seg.n_bends and passes[1] > 1
    assert_endpoint_calls(seg)


def test_failing_bend_raises_what_single_linkage_raises(monkeypatch):
    # from height 1e7 up the root-to-leaf sums of a bend's branch lengths
    # round apart by more than tol; the table raises at its own Linkage what
    # single linkage raises, at the same bend or midpoint and naming the leaf
    # that the single-linkage schedule's preorder names, or both read, and
    # the table route reads single linkage only on its endpoints
    calls = []
    real = _linkages._single_linkages

    def counted(points, n, tol):
        calls.append((len(points), tol))
        return real(points, n, tol)

    monkeypatch.setattr(_linkages, "_single_linkages", counted)

    def outcome(u, v, bound):
        monkeypatch.setattr(treespace, "_TABLE_MIN_ENTRIES", bound)
        calls.clear()
        try:
            seg = TreeSegment(u, v, TOL)
        except TropTreeError as exc:
            return type(exc).__name__, str(exc), exc.leaf
        return "read", linkage_clades(seg._linkage)

    guarded = raised = 0
    for height in (1e7, 1e9, 1e11):
        for pair in sampled_pairs([4, 6, 9, 12, 20, 40], [1.0], range(6)):
            u, v = (Ultrametric(w.labels, w.entries * height) for w in pair)
            if _meets.MeetTable.of(u, v) is None:
                continue
            guarded += 1
            table = outcome(u, v, 0)
            assert calls == [(2, 0.0)]
            assert table == outcome(u, v, float("inf")), (u.n, height)
            raised += table[0] != "read"
    assert guarded > 100 and raised >= 50


def test_csv_quotes_labels_with_quote_marks(monkeypatch):
    labels = sorted_labels(('a"1', 'a"2', 'a"3', 'b,1', 'b"2'))
    rng = sample_rng(3, 5)
    u, v = (Ultrametric(labels, ultrametric_of(random_equidistant_tree(5, 1.0, rng)).entries)
            for _ in range(2))
    table, linkage = both_routes(monkeypatch, u, v)
    assert_same_segments(table, linkage)
    assert '"d(a""1,a""2)"' in table.to_csv()


class Sink:
    """A text stream that keeps its writes apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def oracle_json(seg, precision):
    """`segment --format json` as it was built before it was streamed:
    every row as Python objects, then one json.dumps."""
    newicks = seg.bend_newicks(precision)
    rows = [{
        "index": k,
        "lambda": float(seg.segment.bend_parameters[k]),
        "ultrametric": [float(x) for x in bu.entries],
        "newick": newicks[k],
        "topology": seg.bend_topologies[k].canonical_str(),
    } for k, bu in enumerate(seg.bend_ultrametrics)]
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def streamed_pairs():
    """CLI golden pairs, and sampled pairs whose labels hold a non-ASCII
    character, a quote mark and a comma."""
    for name in ("ties_n8", "tolgaps_height_n8", "random_n12_seed12", "random_n32_seed32"):
        yield tuple(ultrametric_of(parse_newick((GOLDEN_CLI / name / f"t{k}.nwk").read_text()))
                    for k in (1, 2))
    labels = sorted_labels(("é1", 'a"2', "b,3", "Ω4", "5", "6", "7"))
    for u, v in sampled_pairs([7], [1e-3, 1.0], [3]):
        yield Ultrametric(labels, u.entries), Ultrametric(labels, v.entries)


def test_streamed_output_matches_returned_text(monkeypatch):
    # on both routes, to_csv, to_json and to_newick write to a stream the
    # text they return without one, and to_json is what json.dumps made of
    # the rows
    for u, v in streamed_pairs():
        for seg in both_routes(monkeypatch, u, v):
            for precision in (3, 10, 17):
                for write in (seg.to_csv, seg.to_json, seg.to_newick):
                    sink = Sink()
                    assert write(precision, out=sink) is None
                    assert_same("".join(sink.writes), write(precision))
                assert_same(seg.to_json(precision), oracle_json(seg, precision))
                assert_same(seg.to_newick(precision), "".join(
                    s + "\n" for s in seg.bend_newicks(precision)))
    assert "\\u00e9" in seg.to_json() and '\\"' in seg.to_json()


def test_writes_hold_at_most_one_block_of_bends(monkeypatch):
    # with three bends of entries to a block, each write holds at most
    # three CSV or JSON rows, and at most a block of Newick strings, on
    # both routes; the blocks end where the Newick writer's blocks do not
    folder = GOLDEN_CLI / "random_n32_seed32"
    u, v = (ultrametric_of(parse_newick((folder / f"t{k}.nwk").read_text())) for k in (1, 2))
    segs = both_routes(monkeypatch, u, v)
    monkeypatch.setattr(_linkages, "_BLOCK_ELEMENTS", 3 * u.e)
    newick_rows = 3 * u.e // (2 * u.n - 1)
    for seg in segs:
        for write, name, rows, most in ((seg.to_csv, "segment.csv", "\n", 3),
                                        (seg.to_json, "segment.json", '"index"', 3),
                                        (seg.to_newick, "segment.newick", "\n", newick_rows)):
            sink = Sink()
            write(10, out=sink)
            counts = [text.count(rows) for text in sink.writes]
            assert max(counts) <= most and len(counts) > seg.n_bends // most
            assert_same("".join(sink.writes),
                        gzip.decompress((folder / (name + ".gz")).read_bytes()).decode())


def test_segment_failing_at_a_bend_writes_nothing(monkeypatch, tmp_path, capsys):
    # both endpoints pass, a bend fails the equidistance check: exit 3 and
    # not one byte on stdout, in every format, on both routes
    paths = [tmp_path / f"t{k}.nwk" for k in range(2)]
    for k, path in enumerate(paths):
        path.write_text(write_newick(random_equidistant_tree(8, 1e8, sample_rng(7, k)), 17))
    ends = [parse_newick(p.read_text()) for p in paths]
    for tree in ends:
        treespace.require_ultrametric(ultrametric_of(tree))
    for bound in (0, float("inf")):
        monkeypatch.setattr(treespace, "_TABLE_MIN_ENTRIES", bound)
        with pytest.raises(NotEquidistantError):
            tree_segment(*ends)
        for fmt in ("csv", "json", "newick"):
            assert cli.main(["segment", *map(str, paths), "--format", fmt]) == 3
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: tree is not equidistant")


def test_wide_masks_match_byte_for_byte(monkeypatch):
    # above 64 leaves the masks are Python ints in object arrays: a pair of
    # the segment-n80 benchmark and a sampled pair at n = 70, on both routes
    (bench,) = itertools.islice(benchmark_pairs(monkeypatch, [1]), 1)
    (sampled,) = sampled_pairs([70], [1.0], [0])
    for u, v in (bench, sampled):
        assert _meets.MeetTable.of(u, v) is not None
        table, linkage = both_routes(monkeypatch, u, v)
        assert table._linkage.masks.dtype == linkage._linkage.masks.dtype == object
        assert_same_segments(table, linkage, precisions=(10,))


def merge_newicks(labels, schedules, precision):
    """The Newick string of each merge schedule, by the writer behind
    write_newick."""
    n = len(labels)
    return [_newick_of_merges(labels, m, trees._merge_lengths(n, m), precision)
            for m in schedules]


@pytest.mark.parametrize("route", ["single linkage", "candidate table"])
def test_newick_writer_matches_merge_writer(route, monkeypatch):
    # the block writer against the writer behind write_newick on the merges
    # of every bend, n 3-200 at heights 1e-3, 1 and 1e3 (the table route
    # reads the pairs that pass its guard, and alone takes n = 120 and 200,
    # several blocks of bends each); on the single-linkage route also
    # against the union-find schedule of each bend point
    table = route == "candidate table"
    monkeypatch.setattr(treespace, "_TABLE_MIN_ENTRIES", 0 if table else float("inf"))
    cases = [(3, 1e-3), (4, 1.0), (5, 1e3), (8, 1e-3), (13, 1.0), (21, 1e3), (21, 1e-3),
             (40, 1.0), (40, 1e3)] + [(120, 1.0), (200, 1.0)] * table
    bends = 0
    for n, height in cases:
        (u, v), = sampled_pairs([n], [height], [7])
        seg = TreeSegment(u, v, TOL)
        for precision in (3, 17) if n < 100 else (17,):
            assert seg.bend_newicks(precision) == merge_newicks(u.labels, bend_merges(seg),
                                                                precision)
        if not table and n <= 21:
            assert seg.bend_newicks(10) == merge_newicks(
                u.labels, [walk.single_linkage(p, n, TOL) for p in seg.segment.bend_points], 10)
        bends += seg.n_bends
    assert bends > (2000 if table else 400)
    if not table:
        # 120 leaves: 40 bends read in one batched single-linkage pass
        (u, v), = sampled_pairs([120], [1e3], [7])
        points = tropical_segment(u.entries, v.entries, TOL).bend_points[:40]
        linkage = _linkages._single_linkages(points, 120, TOL)
        assert [*itertools.chain(*_linkages.newicks(u.labels, linkage, 10))] == merge_newicks(
            u.labels, [walk.single_linkage(p, 120, TOL) for p in points], 10)


def test_newick_writer_memory_stays_flat_in_n():
    # the block writer holds one block of bends at a time, and a block has
    # about as many elements at any n: drained as to_newick writes to a
    # stream, its traced peak at n = 200 (7 blocks) stays near its peak at
    # n = 80 (one block), about 1.3x; a cache of formatted lengths kept
    # across blocks would read about 2x
    peaks = []
    for n in (80, 200):
        (u, v), = sampled_pairs([n], [1.0], [1])
        seg = TreeSegment(u, v, TOL)
        tracemalloc.start()
        try:
            collections.deque(seg._newicks(10), maxlen=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.6 * peaks[0], [peak / 2**20 for peak in peaks]


def test_single_linkage_reader_memory_stays_flat_in_n(monkeypatch):
    # the default reader of segment_linkages makes each bend point as its
    # block is read: the traced peak of a TreeSegment on the single-linkage
    # route at n = 120 (about 610 bends) stays near its peak at n = 80
    # (about 380), about 1.4x; a stack of every bend point read about 3.6x
    monkeypatch.setattr(treespace, "_TABLE_MIN_ENTRIES", float("inf"))
    peaks = []
    for n in (80, 120):
        u, v = (ultrametric_of(random_equidistant_tree(n, 1.0, sample_rng(s, n))) for s in (1, 2))
        tracemalloc.start()
        try:
            TreeSegment(u, v, TOL)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], [peak / 2**20 for peak in peaks]


def golden_pairs():
    for name in sorted(p.name for p in GOLDEN_CLI.iterdir()):
        yield name, tuple(ultrametric_of(parse_newick((GOLDEN_CLI / name / f"t{k}.nwk")
                                                      .read_text())) for k in (1, 2))


def test_bend_linkage_keeps_the_run_margins_of_the_bend_points(monkeypatch):
    # on both routes each bend's Linkage row carries the widest run and the
    # narrowest gap of its point, those that _linkages._runs gives, byte for
    # byte: the clean rule and check_clade_preservation read them there
    pairs = [*(pair for name, pair in golden_pairs() if name.startswith(("tolgaps", "ties"))),
             *sampled_pairs([3, 4, 6, 9, 13, 21, 40, 80], [1e-3, 1.0, 1e3], [0])]
    tables = 0
    for u, v in pairs:
        tables += _meets.MeetTable.of(u, v) is not None
        for seg in both_routes(monkeypatch, u, v):
            _, widths, gaps = _linkages._runs(np.stack(seg.segment.bend_points), TOL)
            assert seg._linkage.widths.tobytes() == widths.tobytes()
            assert seg._linkage.gaps.tobytes() == gaps.tobytes()
    assert len(pairs) == 27 and tables == 22


def test_entry_pairs_match_the_row_unique(monkeypatch):
    # the one-key unique of the segment writers gives the pairs and columns
    # that a unique of the stacked (u, v) rows gives
    pairs = [*benchmark_pairs(monkeypatch, [1]), *(pair for _, pair in golden_pairs())]
    assert len(pairs) == 11
    for u, v in pairs:
        rows, columns = np.unique(np.stack((u.entries, v.entries), axis=1), axis=0,
                                  return_inverse=True)
        pu, pv, got = _linkages.entry_pairs(u.entries, v.entries)
        assert np.stack((pu, pv), axis=1).tobytes() == rows.tobytes()
        assert got.tolist() == columns.reshape(-1).tolist()


def test_output_builds_no_topology(monkeypatch):
    # CSV, JSON and Newick output, the bend count and repr read the bends'
    # mask rows on both routes; the topologies are made on first access
    made = []
    real = trees.Topology._of_masks.__func__

    def counted(cls, labels, masks):
        made.append(labels)
        return real(cls, labels, masks)

    monkeypatch.setattr(trees.Topology, "_of_masks", classmethod(counted))
    pairs = [pair for name, pair in golden_pairs() if name.startswith(("tolgaps", "random"))]
    pairs.append(next(benchmark_pairs(monkeypatch, [1])))
    for u, v in pairs:
        for seg in both_routes(monkeypatch, u, v):
            for write in (seg.to_csv, seg.to_json, seg.to_newick):
                write(10, out=Sink())
            assert repr(seg).startswith(f"TreeSegment(n={u.n}, bends={seg.n_bends},")
            assert made == []
    seg.bend_topologies
    assert len(made) == seg.n_bends


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_CLI.iterdir()))
def test_topologies_on_first_access_match_point_readings(name, monkeypatch):
    # on both routes, the lazy bend topologies are those of single linkage
    # of each bend point, one at a time, and a piece's are its bends' union,
    # or its midpoint's where the clean rule fails (the tolgaps goldens)
    u, v = dict(golden_pairs())[name]

    def read(point):
        merges = walk.single_linkage(point, u.n, TOL)
        return trees._topology_of_merges(u.labels, merges, trees._merge_lengths(u.n, merges), TOL)

    for seg in both_routes(monkeypatch, u, v):
        assert "bend_topologies" not in vars(seg) and "piece_topologies" not in vars(seg)
        bends = [read(point) for point in seg.segment.bend_points]
        pieces = [trees.Topology._of_masks(u.labels, a.masks | b.masks)
                  for a, b in zip(bends, bends[1:])]
        for k in seg._unclean.tolist():
            pieces[k] = read(seg.segment.piece_midpoint(k))
        assert seg.bend_topologies == bends and seg.piece_topologies == pieces
        assert seg.bend_topologies is seg.bend_topologies
        if name.startswith("tolgaps"):
            assert len(seg._unclean) > 0


#: sha256 of `segment --format csv` and `--format json` on pair 0 of the
#: seed-1 segment-n80 benchmark inputs (80 leaves: masks are Python ints)
N80_DIGESTS = {"csv": "ba6b33becfec511c58260dbd8b062d505ce7091d4a36ca1fb9319f88a8177428",
               "json": "559172ea92b2114784f64a7bc74d1a940ee975c1fcfe55f0e24dca80d6af6612"}


def test_segment_bytes_above_64_leaves(monkeypatch, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)
    spec.loader.exec_module(gen)
    rng = gen.input_stream(1, "segment-n80", 0)
    paths = [tmp_path / f"pair0{tag}.nwk" for tag in "ab"]
    for path in paths:
        path.write_text(gen.draw_tree(80, 1.0, rng).newick() + "\n")
    for bound in (0, float("inf")):
        monkeypatch.setattr(treespace, "_TABLE_MIN_ENTRIES", bound)
        for fmt, digest in N80_DIGESTS.items():
            assert cli.main(["segment", *map(str, paths), "--format", fmt]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest


def leaf_flags(n, masks):
    """The leaf flags of an array of clade masks, shape (..., n)."""
    width = -(-n // 8)
    raw = np.frombuffer(b"".join(int(m).to_bytes(width, "big") for m in masks.reshape(-1).tolist()),
                        dtype=np.uint8)
    flags = np.unpackbits(raw.reshape(-1, width), axis=1)[:, 8 * width - n:]
    return flags.reshape(masks.shape + (n,)).astype(bool)


def test_table_parents_match_the_leaf_flag_pass(monkeypatch):
    # the parents that the table reads level by level, and the branches
    # from them, are those of the pass over the leaf flags of the same slots
    pairs = [*(pair for _, pair in golden_pairs()), next(benchmark_pairs(monkeypatch, [1])),
             *sampled_pairs([5, 9, 70], [1e-3, 1.0], range(2))]
    checked = 0
    for u, v in pairs:
        table = _meets.MeetTable.of(u, v)
        if table is None:
            continue
        params = tropical_segment(u.entries, v.entries, TOL).bend_parameters
        middle = 0.5 * (params[:-1] + params[1:])
        for shifts in (tropical._bend_shifts(params), tropical._shifts(middle)):
            linkage = table.linkages(*shifts, TOL)
            lengths, parents = _linkages.leaf_depths(linkage.tops / 2.0,
                                                     leaf_flags(u.n, linkage.masks),
                                                     linkage.firsts)[1:]
            nodes = np.append(np.ones((len(parents), u.n), dtype=bool), linkage.nodes, axis=1)
            assert parents[nodes].tolist() == linkage.parents[nodes].tolist()
            assert lengths[nodes].tobytes() == linkage.lengths[nodes].tobytes()
            checked += len(parents)
    assert checked > 1000
