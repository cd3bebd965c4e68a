"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the lines
as they complete.  Monte Carlo criteria are seeded and deterministic.
"""

import gc
import math
import time

import numpy as np

import troptree as tt
from troptree import (SampleConfig, Ultrametric, canonicalize,
                      check_clade_preservation, check_nni_theorem,
                      estimate_star_probability, in_tropical_hull,
                      is_ultrametric, parse_newick, sample_rng,
                      segment_to_star, structurally_equal, topology_of,
                      tree_of, tree_segment, trop_combine, trop_dist,
                      tropical_segment, ultrametric_of, write_newick)

from tests.conftest import LADDER8, QUARTET_A, QUARTET_B


def report(number: int, description: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" [{extra}]" if extra else ""
    print(f"ACCEPTANCE {number:2d}: {status} - {description}{tail}")
    assert ok, f"criterion {number} failed: {description}"


def paths_match(bends, expected, tol):
    def eq(seq):
        return all(
            np.allclose(canonicalize(b), canonicalize(e), atol=tol)
            for b, e in zip(seq, expected))
    return len(bends) == len(expected) and (eq(bends) or eq(bends[::-1]))


def test_criterion_01_segment_golden_three_coordinates():
    best = math.inf
    for _ in range(10):
        start = time.perf_counter()
        seg = tropical_segment([0, 0, 0], [0, 3, 1])
        bends = seg.bend_points
        best = min(best, time.perf_counter() - start)
    ok = (len(bends) == 3
          and np.allclose(canonicalize(bends[0]), [0, 3, 1], atol=1e-12)
          and np.allclose(canonicalize(bends[1]), [0, 2, 0], atol=1e-12)
          and np.allclose(canonicalize(bends[2]), [0, 0, 0], atol=1e-12)
          and best < 1e-3)
    report(1, "3-coordinate segment bends at (0,2,0), exact", ok,
           f"{best * 1e6:.0f}us")


def test_criterion_02_segment_golden_second_example():
    v1, v2, v3 = [0, 0, 0], [0, 3, 1], [0, 2, 5]
    seg23 = tropical_segment(v2, v3).bend_points
    seg13 = tropical_segment(v1, v3).bend_points
    ok = paths_match(seg23, [np.array([0, 3, 1.]), np.array([0, 3, 5.]),
                             np.array([0, 2, 5.])], 1e-12) \
        and paths_match(seg13, [np.array([0, 0, 0.]), np.array([0, 0, 3.]),
                                np.array([0, 2, 5.])], 1e-12)
    report(2, "segments v2-v3 and v1-v3 reproduce the printed paths", ok)


def test_criterion_03_tree_segment_golden():
    t1 = parse_newick(QUARTET_A)
    t2 = parse_newick(QUARTET_B)
    seg = tree_segment(t1, t2)
    printed = [
        [0.8, 0.8, 2, 0.4, 2, 2],
        [0.8, 0.8, 2, 0.8, 2, 2],
        [0.4, 0.8, 2, 0.8, 2, 2],
    ]
    ok = (len(seg.bend_ultrametrics) == 3
          and all(np.allclose(bu.entries, want, atol=1e-12)
                  for bu, want in zip(seg.bend_ultrametrics, printed))
          and np.allclose(seg.v.entries - seg.u.entries,
                          [0.4, 0, 0, -0.4, 0, 0], atol=1e-12)
          and seg.bend_topologies[1].canonical_str() == "{1,2,3}|{1,2,3,4}")
    report(3, "4-leaf tree segment: printed ultrametrics and polytomy bend", ok)


def test_criterion_04_star_segment_structure():
    tree = parse_newick(LADDER8)
    stars = segment_to_star(tree)
    times = tt.speciation_times(tree)
    pattern = [sorted(sorted(c) for c in topology_of(t).clades if len(c) < 8)
               for t in stars]
    expected = [
        [["1", "2", "3", "4"], ["2", "3", "4"], ["3", "4"],
         ["5", "6"], ["5", "6", "7", "8"], ["7", "8"]],
        [["1", "2", "3", "4"], ["2", "3", "4"], ["3", "4"],
         ["5", "6"], ["5", "6", "7", "8"], ["7", "8"]],
        [["1", "2", "3", "4"], ["2", "3", "4"], ["3", "4"],
         ["5", "6"], ["5", "6", "7", "8"], ["7", "8"]],
        [["1", "2", "3", "4"], ["2", "3", "4"],
         ["5", "6"], ["5", "6", "7", "8"], ["7", "8"]],
        [["1", "2", "3", "4"], ["2", "3", "4"], ["5", "6", "7", "8"]],
        [["1", "2", "3", "4"], ["5", "6", "7", "8"]],
        [],
    ]
    n = tree.n_leaves
    star = tree_of(Ultrametric(tree.leaf_labels,
                               np.full(n * (n - 1) // 2, 2 * tree.height())))
    bends = tree_segment(tree, star).bend_ultrametrics
    same_as_bends = len(bends) == len(stars) and all(
        np.allclose(b.entries, ultrametric_of(t).entries, atol=1e-9)
        for b, t in zip(bends, reversed(stars)))
    ok = (len(stars) == len(times) == 7
          and pattern == expected
          and same_as_bends)
    report(4, "8-leaf star segment: one tree per speciation time, "
              "printed polytomy pattern, matches segment bends", ok)


def test_criterion_05_star_crossing_rates():
    start = time.perf_counter()
    zero_hits = True
    for n in (5, 6, 7):
        rep = estimate_star_probability(
            SampleConfig(n=n, samples=10_000, seed=500 + n))
        zero_hits = zero_hits and rep.hits == 0
    rep3 = estimate_star_probability(SampleConfig(n=3, samples=10_000, seed=503))
    rep4 = estimate_star_probability(SampleConfig(n=4, samples=10_000, seed=504))
    elapsed = time.perf_counter() - start
    # the exact rate at n=4 is 2/27 (tests/test_sim.py derives it from the
    # model's ranked topologies); 4 standard deviations of 10,000 samples
    # are 0.0105
    p4 = 2 / 27
    ok = (zero_hits
          and 0.64 <= rep3.rate <= 0.70
          and abs(rep4.rate - p4) <= 4 * math.sqrt(p4 * (1 - p4) / 10_000)
          and elapsed < 30.0)
    report(5, "star crossings: 0 of 30000 at n=5..7, 2/3 at n=3, 2/27 at n=4",
           ok, f"n3={rep3.rate:.4f} n4={rep4.rate:.4f} {elapsed:.1f}s")


def test_criterion_06_clade_preservation_suite():
    all_ok = True
    for k in range(1000):
        rng = sample_rng(60, k)
        n = 4 + int(rng.integers(5))  # 4..8
        t1, t2, leaves = tt.random_shared_clade_pair(n, 1.0, rng)
        if not check_clade_preservation(t1, t2, leaves):
            all_ok = False
            break
    report(6, "1000 random shared-clade pairs keep the clade on the segment",
           all_ok)


def test_criterion_07_nni_segment_suite():
    all_ok = True
    for k in range(1000):
        rng = sample_rng(70, k)
        n = 4 + int(rng.integers(7))  # 4..10
        t1, t2 = tt.random_one_nni_pair(n, 1.0, rng)
        if not check_nni_theorem(t1, t2):
            all_ok = False
            break
    report(7, "1000 random one-NNI pairs: segment topologies are endpoint "
              "topologies or contractions", all_ok)


def test_criterion_08_closure_and_geodesic():
    all_ok = True
    for k in range(1000):
        rng = sample_rng(80, k)
        n = 3 + int(rng.integers(8))  # 3..10
        u = ultrametric_of(tt.random_equidistant_tree(n, 1.0, rng))
        v = ultrametric_of(tt.random_equidistant_tree(n, 1.0, rng))
        bends = tropical_segment(u.entries, v.entries).bend_points
        if not all(is_ultrametric(b) for b in bends):
            all_ok = False
            break
        total = sum(trop_dist(a, b) for a, b in zip(bends, bends[1:]))
        if abs(total - trop_dist(u.entries, v.entries)) > 1e-9:
            all_ok = False
            break
    report(8, "1000 random pairs: bends stay ultrametric, bend path length "
              "equals endpoint distance", all_ok)


def _grid_vectors_n3():
    out = []
    for a in (0.2, 0.4, 0.6, 0.8):
        for cherry in range(3):
            entries = [2.0, 2.0, 2.0]
            entries[cherry] = 2 * a
            out.append(np.array(entries))
    return out


def _grid_vectors_n4():
    # each entry is twice the height of the lowest clade holding its pair
    leaves = (1, 2, 3, 4)
    shapes = []
    for pair in ((1, 2), (1, 3), (1, 4)):
        rest = tuple(sorted(set(leaves) - set(pair)))
        shapes.append([set(pair), set(rest)])               # balanced
        shapes.append([set(pair), set(pair + rest[:1])])    # ladder
    out = []
    for shape in shapes:
        for h1, h2 in ((0.25, 0.5), (0.5, 0.75)):
            out.append(np.array([
                2 * min([h for clade, h in zip(shape, (h1, h2)) if {a, b} <= clade],
                        default=1.0)
                for a in leaves for b in leaves if a < b]))
    return out


def test_criterion_09_membership_matches_dense_sampling():
    probes = 0
    agree = True
    step = 0.01
    for vectors in (_grid_vectors_n3(), _grid_vectors_n4()):
        for i, u in enumerate(vectors):
            for v in vectors[i + 1:]:
                lam = np.sort(v - u)
                ds = np.arange(lam[0] - 0.1, lam[-1] + 0.1 + step / 2, step)
                samples = np.stack([trop_combine([d, 0.0], [u, v]) for d in ds])
                for k, s in enumerate(samples):
                    # dense combinations are members by construction
                    probes += 1
                    if not in_tropical_hull([u, v], s):
                        agree = False
                    # perturb one coordinate; classify by nearest sample
                    x = s.copy()
                    x[k % x.size] += 0.05
                    diff = samples - x
                    dmin = (diff.max(axis=1) - diff.min(axis=1)).min()
                    if dmin > 0.0075:
                        probes += 1
                        if in_tropical_hull([u, v], x):
                            agree = False
    ok = agree and probes >= 10_000
    report(9, "hull membership agrees with dense tropical-combination "
              "sampling", ok, f"{probes} probes")


def test_criterion_10_complexity_scaling():
    sizes = (100, 200, 400)
    inputs = {}
    for n in sizes:
        rng = sample_rng(100, n)
        inputs[n] = (
            ultrametric_of(tt.random_equidistant_tree(n, 1.0, rng)).entries,
            ultrametric_of(tt.random_equidistant_tree(n, 1.0, rng)).entries)
    for n in sizes:  # warm caches and the allocator before timing
        tropical_segment(*inputs[n])
    # one call takes 20-30 us at n=100, short enough for a timer tick or a
    # page fault to swing it; each sample times a batch of calls lasting a
    # few milliseconds, and the per-call time is the best batch's mean.  The
    # sizes take turns, batch by batch, so that a slow phase of the host
    # slows all of them alike.  As in timeit, the garbage collector is off
    # while timing, so that a collection of the rest of the suite's heap
    # lands in no sample.
    calls = {100: 100, 200: 25, 400: 5}
    best = dict.fromkeys(sizes, math.inf)
    gc.disable()
    try:
        for _ in range(25):
            for n in sizes:
                start = time.perf_counter()
                for _ in range(calls[n]):
                    tropical_segment(*inputs[n])
                best[n] = min(best[n], time.perf_counter() - start)
    finally:
        gc.enable()
    timings = {n: best[n] / calls[n] for n in sizes}

    def model(n):
        e = n * (n - 1) / 2
        return e * math.log(e)

    ok = timings[400] < 1.0
    ratios = []
    for small, big in ((100, 200), (200, 400)):
        predicted = model(big) / model(small)
        observed = timings[big] / timings[small]
        ratios.append(observed / predicted)
        ok = ok and predicted / 2 <= observed <= predicted * 2
    report(10, "segment computation scales like e*log(e), n=400 under 1s",
           ok, " ".join(f"n{n}={timings[n] * 1e3:.2f}ms" for n in sizes)
           + " fit=" + ",".join(f"{r:.2f}" for r in ratios))


def test_criterion_11_round_trips():
    all_ok = True
    for k in range(1000):
        rng = sample_rng(110, k)
        n = 3 + int(rng.integers(30))  # 3..32
        tree = tt.random_equidistant_tree(n, 1.0, rng)
        u = ultrametric_of(tree)
        back = tree_of(u)
        if topology_of(back) != topology_of(tree):
            all_ok = False
            break
        if not np.allclose(ultrametric_of(back).entries, u.entries, atol=1e-9):
            all_ok = False
            break
        reparsed = parse_newick(write_newick(tree))
        if not structurally_equal(tree, reparsed, tol=1e-9):
            all_ok = False
            break
    report(11, "1000 random trees: ultrametric and Newick round trips at 1e-9",
           all_ok)
