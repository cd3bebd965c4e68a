"""Reference answers to the tree questions, by walking the nodes.

These are the recursive walks that answered each question before trees
were read into merge schedules (`troptree.newick._read_tree`).  The tests
compare the schedule routes against them, so that no test compares a
function with itself."""

import statistics

import numpy as np

from troptree import NotEquidistantError, Topology
from troptree.util import natural_key


def leaf_depths(tree):
    """Root-to-leaf path lengths, added from the root down, in preorder."""
    depths = {}
    stack = [(tree.root, 0.0)]
    while stack:
        node, acc = stack.pop()
        if node.is_leaf():
            depths[node.label] = acc
        else:
            for child in node.children:
                stack.append((child, acc + child.length))
    return depths


def require_equidistant(tree, tol):
    depths = leaf_depths(tree)
    if len(depths) < 2:
        return
    ref = statistics.median(depths.values())
    worst = max(depths, key=lambda lab: abs(depths[lab] - ref))
    if abs(depths[worst] - ref) > tol:
        raise NotEquidistantError(
            f"tree is not equidistant: leaf {worst!r} has depth "
            f"{depths[worst]:.12g}, expected {ref:.12g}", leaf=worst)


def write_newick(tree, precision=10):
    rank = {lab: r for r, lab in enumerate(tree.leaf_labels)}
    fmt = f".{precision}g"

    def render(node):
        if node.is_leaf():
            return rank[node.label], node.label
        parts = sorted((*render(c), format(c.length, fmt)) for c in node.children)
        return parts[0][0], "(" + ",".join(
            f"{text}:{length}" for _, text, length in parts) + ")"

    return render(tree.root)[1] + ";"


def pair_index(n, i, j):
    return n * i - i * (i + 1) // 2 + (j - i - 1)


def pairwise_distances(tree):
    labels = tree.leaf_labels
    n = len(labels)
    pos = {lab: k for k, lab in enumerate(labels)}
    out = np.zeros(n * (n - 1) // 2)

    def visit(node):
        if node.is_leaf():
            return {node.label: 0.0}
        maps = []
        for child in node.children:
            m = visit(child)
            maps.append({lab: d + child.length for lab, d in m.items()})
        merged = {}
        for k, m in enumerate(maps):
            for other in maps[k + 1:]:
                for la, da in m.items():
                    for lb, db in other.items():
                        i, j = sorted((pos[la], pos[lb]))
                        out[pair_index(n, i, j)] = da + db
            merged.update(m)
        return merged

    visit(tree.root)
    return labels, out


def topology_of(tree, tol):
    require_equidistant(tree, tol)
    labels = tree.leaf_labels
    bit = {lab: 1 << k for k, lab in enumerate(reversed(labels))}
    masks = []

    def visit(node):
        if node.is_leaf():
            return bit[node.label]
        mask = 0
        for child in node.children:
            mask |= visit(child)
        if node.length > tol:
            masks.append(mask)
        return mask

    visit(tree.root)
    return Topology._of_masks(labels, masks)


def clade_table(tree, labels=None):
    labels = tree.leaf_labels if labels is None else labels
    bit = {lab: 1 << k for k, lab in enumerate(reversed(labels))}
    rows = []

    def visit(node):
        slot = len(rows)
        rows.append(None)               # preorder slot; nodes() takes the last child first
        mask = 0
        height = 0.0
        kids = []
        for child in reversed(node.children):
            m, h = visit(child) if child.children else (bit[child.label], 0.0)
            h += child.length
            mask |= m
            if h > height:
                height = h
            kids.append(m)
        kids.reverse()
        rows[slot] = (mask, (height, kids))
        return mask, height

    if tree.root.children:
        visit(tree.root)
    return dict(rows)


def speciation_times(tree, tol):
    require_equidistant(tree, tol)
    internal = sorted([h for h, _ in clade_table(tree).values()])
    return tuple(h for h, up in zip(internal, internal[1:] + [float("inf")]) if up - h > tol)


def is_clade(tree, leaves, tol):
    keep = set(leaves)
    full = set(tree.leaf_labels)
    if len(keep) <= 1 or keep == full:
        return True
    labels, dists = pairwise_distances(tree)
    n = len(labels)
    pos = {lab: k for k, lab in enumerate(labels)}
    inside = sorted(pos[lab] for lab in keep)
    outside = sorted(pos[lab] for lab in full - keep)
    max_in = max(dists[pair_index(n, a, b)]
                 for ai, a in enumerate(inside) for b in inside[ai + 1:])
    min_ext = min(dists[pair_index(n, min(a, b), max(a, b))]
                  for a in inside for b in outside)
    return min_ext - max_in > tol


def structurally_equal(a, b, tol=0.0):
    def smallest(node):
        if node.is_leaf():
            return node.label
        return min((smallest(c) for c in node.children), key=natural_key)

    def eq(x, y, at_root):
        if x.is_leaf() != y.is_leaf():
            return False
        if x.is_leaf():
            return x.label == y.label and (at_root or abs(x.length - y.length) <= tol)
        if len(x.children) != len(y.children):
            return False
        if not at_root and abs(x.length - y.length) > tol:
            return False
        xs = sorted(x.children, key=lambda c: natural_key(smallest(c)))
        ys = sorted(y.children, key=lambda c: natural_key(smallest(c)))
        return all(eq(cx, cy, False) for cx, cy in zip(xs, ys))

    return eq(a.root, b.root, True)
