"""Output checks that recompute every expected value without the program.

Each check takes the program's output text (or array) and the generator's
trees from ``gen``, and returns a list of failure messages (empty when the
output is right).  Nothing here imports ``troptree``: the Newick reader,
tropical segment, topologies (clade families read off distances as
ultrametric balls), star test and NNI test are all written out below.

Printed numbers carry ``precision`` significant digits, so a printed value
may differ from the exact one by half a unit in its last digit, at most
``ROUND`` times its magnitude.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

import gen

TOL = 1e-9  # the program's default tolerance, which every workload runs at
PRECISION = 10  # the program's default significant digits
ROUND = 0.5 * 10.0 ** (1 - PRECISION)
EPS = np.finfo(float).eps
STAR_RATE_N4 = 2.0 / 27.0
BINOMIAL_SIGMAS = 5.0

_TOKEN = re.compile(r"\s*([(),;]|:[^(),;:\s]+|[^(),;:\s]+)")


# --------------------------------------------------------------------------
# independent readers
# --------------------------------------------------------------------------

def newick_distances(text: str, index: dict) -> np.ndarray:
    """Square matrix of path lengths between the leaves of a Newick tree;
    `index` maps each leaf label to its row."""
    tokens = _TOKEN.findall(text)
    D = np.zeros((len(index), len(index)))
    # each stack frame: list of (leaf rows, distances from this node) per child
    stack: list[list] = [[]]
    pending = None  # (rows, dists) of the subtree just closed
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok in (",", ")", ";"):
            if pending is not None:
                stack[-1].append(pending)
                pending = None
            if tok == ")":
                kids = stack.pop()
                for a in range(len(kids)):
                    for b in range(a + 1, len(kids)):
                        ra, da = kids[a]
                        rb, db = kids[b]
                        block = da[:, None] + db[None, :]
                        D[ra[:, None], rb[None, :]] = block
                        D[rb[:, None], ra[None, :]] = block.T
                rows = np.concatenate([k[0] for k in kids])
                pending = (rows, np.concatenate([k[1] for k in kids]))
        elif tok.startswith(":"):
            rows, dists = pending
            pending = (rows, dists + float(tok[1:]))
        elif pending is None:
            pending = (np.array([index[tok]]), np.zeros(1))
        # a label after ')' names an internal node: ignored
    return D


def clade_masks(text: str, index: dict) -> frozenset:
    """A topology cell ``{a,b}|{a,b,c}|...`` as packed leaf-membership rows."""
    out = set()
    for part in text.split("|"):
        row = np.zeros(len(index), dtype=bool)
        row[[index[lab] for lab in part.strip("{}").split(",")]] = True
        out.add(np.packbits(row).tobytes())
    return frozenset(out)


def square(entries: np.ndarray, n: int) -> np.ndarray:
    D = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    D[iu] = entries
    D.T[iu] = entries
    return D


# --------------------------------------------------------------------------
# independent geometry
# --------------------------------------------------------------------------

def trop_dist(x: np.ndarray, y: np.ndarray) -> float:
    d = x - y
    return float(d.max() - d.min())


def segment_point(u: np.ndarray, v: np.ndarray, lam: float) -> np.ndarray:
    return np.maximum(u + min(lam, 0.0), v - max(lam, 0.0))


def bend_parameters(u: np.ndarray, v: np.ndarray, tol: float) -> np.ndarray:
    """First value of each run of sorted(v - u) split at gaps above tol."""
    lam = np.sort(v - u)
    return lam[np.concatenate(([0], np.flatnonzero(np.diff(lam) > tol) + 1))]


def positions(u: np.ndarray, v: np.ndarray, tol: float) -> list[np.ndarray]:
    """Bend points and midpoints of the pieces between them, interleaved,
    from v to u.  The end bends are v and u themselves."""
    params = bend_parameters(u, v, tol)
    if len(params) == 1:
        return [v]
    bends = [v] + [segment_point(u, v, p) for p in params[1:-1]] + [u]
    out = []
    for k, b in enumerate(bends):
        out.append(b)
        if k + 1 < len(bends):
            out.append(segment_point(u, v, 0.5 * (params[k] + params[k + 1])))
    return out


def _radii(D: np.ndarray, gap: float) -> np.ndarray:
    vals = np.unique(D[np.triu_indices(len(D), 1)])
    return vals[np.append(np.flatnonzero(np.diff(vals) > gap), len(vals) - 1)]


def ball_family(D: np.ndarray, radii: np.ndarray) -> frozenset:
    """Clades of the ultrametric D: the balls {j : D[i, j] <= r} with at
    least two leaves, one family of balls per radius."""
    n = len(D)
    rows = (D[None, :, :] <= radii[:, None, None]).reshape(-1, n)
    packed = np.packbits(rows[rows.sum(axis=1) >= 2], axis=1)
    width = packed.shape[1]
    flat = packed.tobytes()
    return frozenset(flat[k:k + width] for k in range(0, len(flat), width))


def families(D: np.ndarray, tol: float) -> tuple[frozenset, frozenset]:
    """The clade family with runs of distinct distances split at gaps above
    1.5 tol and above 2.5 tol, one ball radius (the run's largest value) per
    run.  Runs closer than the program's threshold (2 tol between distance
    levels, i.e. tol between node heights) are one speciation event; the
    program's answer is one of the two families, which differ only when a
    gap falls in that narrow band."""
    lo, hi = _radii(D, 1.5 * tol), _radii(D, 2.5 * tol)
    fam = ball_family(D, lo)
    return fam, (fam if np.array_equal(lo, hi) else ball_family(D, hi))


def rf2(a: frozenset, b: frozenset) -> bool:
    """Rooted Robinson-Foulds distance 2: one clade each side lacks."""
    return len(a - b) == 1 and len(b - a) == 1


def three_point_excess(D: np.ndarray) -> float:
    """Largest amount by which some D[i, j] exceeds max(D[i, k], D[j, k])."""
    minimax = np.maximum(D[:, None, :], D[None, :, :]).min(axis=2)
    return float((D - minimax).max())


def _close(printed, exact, extra: float = 0.0) -> bool:
    printed = np.asarray(printed, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return bool(np.all(np.abs(printed - exact)
                       <= ROUND * 1.01 * np.abs(exact) + 1e-13 + extra))


# --------------------------------------------------------------------------
# segment-n80
# --------------------------------------------------------------------------

def check_segment(csv_text: str, tree1: gen.Tree, tree2: gen.Tree,
                  tol: float = TOL) -> list[str]:
    """Check ``troptree segment t1 t2 --format csv`` against the generator's
    trees: end rows, the three-point condition, the segment formula at each
    row's lambda, additivity of tropical distances along the rows, every
    Newick cell and every topology cell."""
    fails: list[str] = []
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows:
        return ["empty output"]
    header, body = rows[0], rows[1:]
    n = tree1.n
    labels = [str(k + 1) for k in range(n)]
    index = {lab: k for k, lab in enumerate(labels)}
    pairs = [tuple(index[x] for x in h[2:-1].split(",")) for h in header[2:-2]]
    iu = np.triu_indices(n, 1)
    if header[:2] != ["index", "lambda"] or header[-2:] != ["newick", "topology"] \
            or pairs != list(zip(*iu)):
        return ["unexpected CSV header"]
    u = tree1.distances()[iu]
    v = tree2.distances()[iu]
    params = bend_parameters(u, v, tol)
    if len(body) != len(params):
        return [f"{len(body)} rows, expected {len(params)} bends"]
    lam = np.array([float(r[1]) for r in body])
    X = np.array([[float(x) for x in r[2:-2]] for r in body])
    if not _close(X[0], v):
        fails.append("first row differs from t2's distances")
    if not _close(X[-1], u):
        fails.append("last row differs from t1's distances")
    steps = sum(trop_dist(X[k], X[k + 1]) for k in range(len(X) - 1))
    length = trop_dist(u, v)
    if abs(steps - length) > 4 * ROUND * len(X) * max(1.0, float(np.abs(X).max())):
        fails.append(f"consecutive rows add up to {steps!r}, trop_dist(u, v) is {length!r}")
    exact = [v] + [segment_point(u, v, p) for p in params[1:-1]] + ([u] if len(params) > 1 else [])
    for k, row in enumerate(body):
        if row[0] != str(k):
            fails.append(f"row {k}: index cell {row[0]!r}")
        if not _close(lam[k], params[k]):
            fails.append(f"row {k}: lambda {lam[k]!r}, expected {params[k]!r}")
        if not _close(X[k], segment_point(u, v, lam[k]), extra=ROUND * 1.01 * abs(lam[k])):
            fails.append(f"row {k}: not max(u + min(lambda,0), v - max(lambda,0))")
        D = square(X[k], n)
        if three_point_excess(D) > tol + 2.02 * ROUND * float(X[k].max()):
            fails.append(f"row {k}: three-point condition fails")
        tree_D = newick_distances(row[-2], index)
        if not _close(tree_D[iu], X[k], extra=ROUND * 1.01 * np.abs(X[k]) + 2 * tol):
            fails.append(f"row {k}: Newick cell does not read back to the row")
        if clade_masks(row[-1], index) not in families(square(exact[k], n), tol):
            fails.append(f"row {k}: topology cell is not the row's clade family")
        if len(fails) > 20:
            break
    return fails


# --------------------------------------------------------------------------
# star-prob-n4
# --------------------------------------------------------------------------

def star_recount(seed: int, n: int, height: float, samples: int) -> int:
    """Star crossings recounted from root splits: the segment between two
    trees passes through the star exactly when every intersection of a side
    of one root split with a side of the other holds at most one leaf."""
    hits = 0
    for index in range(samples):
        t1, t2 = gen.sampled_pair(seed, index, n, height)
        a = t1.root_split()
        b = t2.root_split()
        hits += all(len(x & y) <= 1 for x in a for y in b)
    return hits


def check_star(report_text: str, seed: int, n: int, height: float,
               samples: int) -> tuple[list[str], int]:
    """Check one ``simulate star-prob`` report; returns failures and hits."""
    rep = json.loads(report_text)
    fails = []
    cfg = rep.get("config", {})
    if (rep.get("experiment"), cfg.get("n"), cfg.get("samples"), cfg.get("seed")) != \
            ("star-prob", n, samples, seed):
        return [f"report does not echo its configuration: {cfg}"], 0
    hits = rep["hits"]
    if rep["rate"] != hits / samples:
        fails.append(f"rate {rep['rate']} is not hits/samples")
    recount = star_recount(seed, n, height, samples)
    if hits != recount:
        fails.append(f"seed {seed}: {hits} hits reported, {recount} recounted")
    return fails, hits


def check_star_rate(hits: int, samples: int, n: int) -> list[str]:
    """Pooled rate within BINOMIAL_SIGMAS standard errors of 2/27 (n=4)."""
    if n != 4:
        return []
    p = STAR_RATE_N4
    sigma = math.sqrt(p * (1 - p) / samples)
    rate = hits / samples
    if abs(rate - p) > BINOMIAL_SIGMAS * sigma:
        return [f"star rate {rate:.5f} over {samples} samples is outside "
                f"2/27 +- {BINOMIAL_SIGMAS:g} sigma ({sigma:.5f})"]
    return []


# --------------------------------------------------------------------------
# nni-survey-n6
# --------------------------------------------------------------------------

def _transitions(u, v, n, tol, variant):
    seq = []
    for x in positions(u, v, tol):
        topo = families(square(x, n), tol)[variant]
        if not seq or seq[-1] != topo:
            seq.append(topo)
    binary = []
    for topo in seq:
        if len(topo) == n - 1 and (not binary or binary[-1] != topo):
            binary.append(topo)
    return list(zip(binary, binary[1:])), len(seq)


def nni_recount(seed: int, n: int, height: float, samples: int,
                tol: float = TOL) -> list[tuple[int, int]]:
    """(transitions, single-NNI transitions) recounted from the bend and
    piece points of each sampled segment, once with ties grouped below and
    once above the program's threshold.  A transition that is not one NNI
    move counts as single when every transition of the same segment at
    tol/100 is one, as the survey's documented re-check does."""
    out = []
    for variant in (0, 1):
        total = single = 0
        for index in range(samples):
            t1, t2 = gen.sampled_pair(seed, index, n, height)
            iu = np.triu_indices(n, 1)
            u, v = t1.distances()[iu], t2.distances()[iu]
            pairs, _ = _transitions(u, v, n, tol, variant)
            fine = None
            for a, b in pairs:
                total += 1
                if rf2(a, b):
                    single += 1
                    continue
                if fine is None:
                    fine_pairs, _ = _transitions(u, v, n, tol / 100, variant)
                    fine = all(rf2(x, y) for x, y in fine_pairs)
                single += fine
        out.append((total, single))
    return out


def check_nni(report_text: str, seed: int, n: int, height: float,
              samples: int) -> list[str]:
    """Check one ``simulate nni-conjecture`` report: its internal sums and
    its transition totals against an independent recount."""
    rep = json.loads(report_text)
    cfg = rep.get("config", {})
    if (rep.get("experiment"), cfg.get("n"), cfg.get("samples"), cfg.get("seed")) != \
            ("nni-conjecture", n, samples, seed):
        return [f"report does not echo its configuration: {cfg}"]
    fails = []
    total = rep["transitions_total"]
    single = rep["transitions_single_nni"]
    if sum(rep["topology_count_histogram"].values()) != samples:
        fails.append("topology histogram does not sum to the sample count")
    if single + len(rep["violations"]) != total:
        fails.append(f"{single} single-NNI + {len(rep['violations'])} violations "
                     f"!= {total} transitions")
    if total and rep["transition_rate"] != single / total:
        fails.append("transition_rate is not single/total")
    recounts = nni_recount(seed, n, height, samples)
    if (total, single) not in recounts:
        fails.append(f"seed {seed}: reported {(total, single)} (transitions, single), "
                     f"recounted {recounts[0]}")
    return fails


# --------------------------------------------------------------------------
# newick-roundtrip
# --------------------------------------------------------------------------

def check_roundtrip(labels, entries, tree: gen.Tree) -> list[str]:
    """Distances read back after write -> parse -> ultrametric equal the
    generator's, within what rounding each branch length to PRECISION
    digits allows: the rounding errors of the lengths on a path add up to
    at most ROUND times the path's length."""
    n = tree.n
    if list(labels) != [str(k + 1) for k in range(n)]:
        return ["labels are not 1..n in natural order"]
    d = tree.distances()[np.triu_indices(n, 1)]
    entries = np.asarray(entries, dtype=float)
    bound = ROUND * d * (1 + 1e-6) + 4 * n * EPS * d
    bad = np.abs(entries - d) > bound
    if entries.shape != d.shape or bad.any():
        return [f"{int(np.sum(bad))} of {d.size} distances are off by more than rounding"]
    return []
