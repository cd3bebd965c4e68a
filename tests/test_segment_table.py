"""The candidate table of a segment against single linkage of its points.

Every bend of a segment, and the midpoint of every piece, is read twice:
from the table of meets of the endpoints' clusters (`_meets.MeetTable`), and by
single linkage of the point itself (`_single_linkage`, one point at a time;
small segments take the batched `_single_linkages`).  The two must agree bit
for bit: the clades with their node heights, the widest run and the narrowest
gap of every point, and then the topologies, Newick strings and CSV bytes of
the whole segment.  `TreeSegment` takes the table route from `_TABLE_MIN_ENTRIES`
distance entries up; the tests move that bound to force one route or the
other.

Both routes split distance values into runs by the same `trees._runs`, and
the table reads the clusters of its endpoints by single linkage.  So those
two decisions are checked against oracles of their own in `tree_walks`: a
run split in plain Python, and the clusters read from balls around the
leaves, the guard the table used before.
"""

import csv
import gzip
import importlib.util
import io
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_walks as walk
from troptree import (DEFAULT_TOL, NotEquidistantError, TreeSegment, Ultrametric,
                      parse_newick, random_equidistant_tree, sample_rng, tree_segment,
                      tropical_segment, ultrametric_of, write_newick)
from troptree import _linkages, _meets, cli, treespace, trees
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
    return ([trees._single_linkage(p, n, tol) for p in points],
            *trees._runs(np.stack(points), tol)[1:])


def disagreements(u, v, tol=TOL, midpoints=True):
    """The bends, and the piece midpoints unless told not to, of the segment
    from v to u at which the table and single linkage differ, and the
    number of points compared.  The table must exist: both endpoints pass
    its guard."""
    n = u.n
    seg = tropical_segment(u.entries, v.entries, tol)
    table = _meets.MeetTable.of(u, v)
    assert table is not None
    linkage, widths, gaps = table.linkages(*treespace._bend_shifts(seg.bend_parameters), tol)
    oracle, oracle_widths, oracle_gaps = single_linkages(seg.bend_points, n, tol)
    bad = [("bend", k) for k, (a, b) in enumerate(zip(linkage_clades(linkage), oracle))
           if a != clades(n, b)]
    bad += [("width", k) for k in np.flatnonzero(widths != oracle_widths).tolist()]
    bad += [("gap", k) for k in np.flatnonzero(gaps != oracle_gaps).tolist()]
    params = seg.bend_parameters
    middle = 0.5 * (params[:-1] + params[1:])
    if midpoints and len(middle):
        linkage, widths, gaps = table.linkages(*treespace._shifts(middle), tol)
        points = [seg.piece_midpoint(k) for k in range(len(middle))]
        oracle, oracle_widths, oracle_gaps = single_linkages(points, n, tol)
        bad += [("midpoint", k) for k, (a, b) in enumerate(zip(linkage_clades(linkage), oracle))
                if a != clades(n, b)]
        bad += [("midpoint width", k) for k in np.flatnonzero(widths != oracle_widths).tolist()]
        bad += [("midpoint gap", k) for k in np.flatnonzero(gaps != oracle_gaps).tolist()]
    return bad, len(params) + (len(middle) if midpoints else 0)


def oracle_csv(seg, precision, merges):
    """TreeSegment.to_csv as csv.writer writes it, with every entry and
    every branch length of the bends' merge schedules formatted where it
    stands."""
    fmt = f".{precision}g"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "lambda"] + [f"d({a},{b})" for a, b in seg.u.pairs()]
                    + ["newick", "topology"])
    for k, point in enumerate(seg.segment.bend_points):
        writer.writerow([str(k), format(seg.segment.bend_parameters[k], fmt),
                         *[format(x, fmt) for x in point.tolist()],
                         _newick_of_merges(seg.u.labels, merges[k],
                                           trees._merge_lengths(seg.u.n, merges[k]), precision),
                         seg.bend_topologies[k].canonical_str()])
    return buf.getvalue()


def both_routes(monkeypatch, u, v, tol=TOL):
    """The TreeSegment of u and v on the table route, where the guard lets
    it, and on the single-linkage route."""
    seg = tropical_segment(u.entries, v.entries, tol)
    monkeypatch.setattr(treespace, "_TABLE_MIN_ENTRIES", 0)
    table = TreeSegment(u, v, seg, tol)
    monkeypatch.setattr(treespace, "_TABLE_MIN_ENTRIES", float("inf"))
    linkage = TreeSegment(u, v, seg, tol)
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
    top, widths, gaps = trees._runs(stack, tol)
    for row, row_top, width, gap in zip(stack.tolist(), top.tolist(), widths.tolist(),
                                        gaps.tolist()):
        want_top, want_width, want_gap = walk.runs(row, tol)
        assert [x.hex() for x in row_top] == [x.hex() for x in want_top]
        assert (width.hex(), gap.hex()) == (want_width.hex(), want_gap.hex())


def guard_disagreement(w):
    """The table's clusters of an ultrametric against the clusters read
    from balls: None when they agree on refusing it, or on accepting it
    with the same clusters, parents, values and lca of every pair."""
    found, want = _meets.clusters(w.n, w.entries), walk.ball_clusters(w.n, w.entries)
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
        if all(_meets.clusters(w.n, w.entries) is not None for w in (u, v)):
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


def test_large_segment_runs_single_linkage_only_on_its_endpoints(monkeypatch):
    # the table reads the clusters of each endpoint by single linkage with
    # no tolerance, no bend point or midpoint by single linkage, and writes
    # its output with no merge schedule
    calls = {"_single_linkages": [], "_single_linkage": [], "_clade_merges": []}
    for name, seen in calls.items():
        real = getattr(trees, name)

        def counted(*args, _seen=seen, _real=real):
            _seen.append(args)
            return _real(*args)
        monkeypatch.setattr(trees, name, counted)

    def assert_endpoint_calls(seg):
        # one call per endpoint, u then v, at tol 0 on its entries, and no
        # batched pass
        assert len(calls["_single_linkage"]) == 2 and calls["_single_linkages"] == []
        assert calls["_clade_merges"] == []
        for w, (dists, n, tol) in zip((seg.u, seg.v), calls["_single_linkage"]):
            assert dists is w.entries and n == w.n and tol == 0.0
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
    # at height 1e9 the root-to-leaf sums of a bend's branch lengths round
    # apart by more than tol; both routes stop at the same bend, and name
    # the leaf that the single-linkage schedule's preorder names
    t1, t2 = (random_equidistant_tree(10, 1.0, sample_rng(0, k)) for k in range(2))
    u, v = (Ultrametric(t.leaf_labels, ultrametric_of(t).entries * 1e9) for t in (t1, t2))
    assert _meets.MeetTable.of(u, v) is not None
    messages = []
    for bound in (0, float("inf")):
        monkeypatch.setattr(treespace, "_TABLE_MIN_ENTRIES", bound)
        with pytest.raises(NotEquidistantError) as err:
            TreeSegment(u, v, tropical_segment(u.entries, v.entries, TOL), TOL)
        messages.append((str(err.value), err.value.leaf))
    assert messages[0] == messages[1]


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
    # of every bend, n 3-120 at heights 1e-3, 1 and 1e3 (the table route
    # reads the pairs that pass its guard); on the single-linkage route also
    # against the union-find schedule of each bend point
    table = route == "candidate table"
    monkeypatch.setattr(treespace, "_TABLE_MIN_ENTRIES", 0 if table else float("inf"))
    cases = [(3, 1e-3), (4, 1.0), (5, 1e3), (8, 1e-3), (13, 1.0), (21, 1e3), (21, 1e-3),
             (40, 1.0), (40, 1e3)] + [(120, 1.0)] * table
    bends = 0
    for n, height in cases:
        (u, v), = sampled_pairs([n], [height], [7])
        seg = TreeSegment(u, v, tropical_segment(u.entries, v.entries, TOL), TOL)
        for precision in (3, 17) if n < 100 else (17,):
            assert seg.bend_newicks(precision) == merge_newicks(u.labels, bend_merges(seg),
                                                                precision)
        if not table and n <= 21:
            assert seg.bend_newicks(10) == merge_newicks(
                u.labels, [trees._single_linkage(p, n, TOL) for p in seg.segment.bend_points], 10)
        bends += seg.n_bends
    assert bends > (1000 if table else 400)
    if not table:
        # 120 leaves: 40 bends read in one batched single-linkage pass
        (u, v), = sampled_pairs([120], [1e3], [7])
        points = tropical_segment(u.entries, v.entries, TOL).bend_points[:40]
        linkage = trees._single_linkages(points, 120, TOL)[0]
        assert [*itertools.chain(*_linkages.newicks(u.labels, linkage, 10))] == merge_newicks(
            u.labels, [trees._single_linkage(p, 120, TOL) for p in points], 10)
