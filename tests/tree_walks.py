"""Reference answers to the tree questions, by walking graphs of nodes.

A tree used to be a graph of `TreeNode`s, built by a Newick parser and by
the tree builders, and read into its merge schedule by a walk.  That
parser, that builder, that walk, and the recursive walks that answered
each question before trees were read into merge schedules, are kept here.
They take roots that the tests build or parse themselves, and the tests
compare the schedule routes against them, so that no test compares a
function with itself.

Two decisions that single linkage and the candidate table of a segment
share are kept here the same way: the split of sorted values into runs
(`runs`), in plain Python, and the clusters of an ultrametric read from
balls around its leaves (`ball_clusters`), as the table read them before
it read them by single linkage.  So is the union-find that merged the
spanning tree of one distance vector at a time (`merge_runs`, through
`single_linkage`), before every vector went through the batched pass of
`_linkages._single_linkages`.  And the canonical string of a topology is
written here from its clades as label sets (`canonical_str`), without the
bitmask ranks of `_linkages.canonical_strs`.  The two schedule writers are
kept as they were before they read cached index rows and wrote a two-child
node without a sort (`distances_of_merges`, `newick_of_merges`), so that the
library's writers can be held to them bit for bit."""

import itertools
import math
import statistics

import numpy as np

from troptree import NewickParseError, NotEquidistantError, Topology, TreeNode, _linkages
from troptree.util import natural_key, sorted_labels, square_form, square_index


def leaf_labels(root):
    """The labels of the leaves below a node, in natural order."""
    labels = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.children:
            stack += node.children
        else:
            labels.append(node.label)
    return sorted_labels(labels)


def read_tree(root):
    """The merge schedule of a graph of nodes: the natural-sorted labels,
    (height, children) per internal node and the branch length of every
    node, by node number.  Leaves are numbered by natural rank and internal
    nodes in reverse preorder, the preorder taking the last child first;
    a node's height is the largest child height plus branch length."""
    labels = leaf_labels(root)
    rank = {lab: r for r, lab in enumerate(labels)}
    internal = []                       # in preorder
    stack = [root]
    while stack:
        node = stack.pop()
        if node.children:
            internal.append(node)
            stack += node.children
    number = {}
    heights = [0.0] * len(rank)
    lengths = [0.0] * (len(rank) + len(internal))
    merges = []
    for node in reversed(internal):
        height = 0.0
        children = []
        for child in node.children:
            c = number[id(child)] if child.children else rank[child.label]
            lengths[c] = child.length
            h = heights[c] + child.length
            if h > height:
                height = h
            children.append(c)
        number[id(node)] = len(heights)
        heights.append(height)
        merges.append((height, children))
    return labels, merges, lengths


def nodes_of_merges(labels, merges):
    """The root of the graph of nodes of a merge schedule over `labels`
    (leaf k is labels[k], internal node n + m is merges[m]): each node's
    children in the schedule's order, each branch the parent's height minus
    the child's, clamped at 0."""
    n = len(labels)
    heights = [0.0] * n
    nodes = [TreeNode(label=lab) for lab in labels]
    for height, children in merges:
        for c in children:
            length = height - heights[c]
            nodes[c].length = 0.0 if length < 0.0 else length
        heights.append(height)
        nodes.append(TreeNode(children=[nodes[c] for c in children]))
    return nodes[-1]


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_label(self):
        start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in "(),:;" or ch.isspace():
                break
            self.pos += 1
        return self.text[start:self.pos]


def _parse_length(s):
    s.skip_ws()
    start = s.pos
    while s.pos < len(s.text) and (s.text[s.pos].isdigit() or s.text[s.pos] in "+-.eE"):
        s.pos += 1
    token = s.text[start:s.pos]
    if not token:
        raise NewickParseError("expected a branch length after ':'", start)
    try:
        value = float(token)
    except ValueError:
        raise NewickParseError(f"invalid branch length {token!r}", start) from None
    if value < 0:
        raise NewickParseError(f"negative branch length {token}", start)
    return value


def _parse_subtree(s, seen, is_root):
    s.skip_ws()
    if s.peek() == "(":
        open_pos = s.pos
        s.pos += 1
        children = [_parse_subtree(s, seen, is_root=False)]
        s.skip_ws()
        while s.peek() == ",":
            s.pos += 1
            children.append(_parse_subtree(s, seen, is_root=False))
            s.skip_ws()
        if s.peek() != ")":
            raise NewickParseError(
                "expected ',' or ')' (unbalanced parentheses?)",
                s.pos if s.pos < len(s.text) else open_pos)
        s.pos += 1
        if len(children) < 2:
            raise NewickParseError("internal node needs at least 2 children", open_pos)
        s.skip_ws()
        s.take_label()
        node = TreeNode(children=children)
    else:
        label_pos = s.pos
        label = s.take_label()
        if not label:
            raise NewickParseError("expected a leaf label or '('", label_pos)
        if label in seen:
            raise NewickParseError(f"duplicate leaf label {label!r}", label_pos)
        seen.add(label)
        node = TreeNode(label=label)
    s.skip_ws()
    if s.peek() == ":":
        s.pos += 1
        length = _parse_length(s)
        node.length = 0.0 if is_root else length
    elif not is_root:
        raise NewickParseError("missing branch length on a non-root node", s.pos)
    return node


def parse_newick(text):
    """The root of the graph of nodes of a Newick string, parsed by
    recursive descent into nodes, with the errors and offsets of
    `troptree.parse_newick`, apart from branch lengths that overflow a
    float, which it keeps as inf."""
    s = _Scanner(text)
    root = _parse_subtree(s, set(), is_root=True)
    s.skip_ws()
    if s.peek() != ";":
        raise NewickParseError("expected ';' terminating the tree", s.pos)
    s.pos += 1
    s.skip_ws()
    if s.pos < len(s.text):
        raise NewickParseError("trailing content after ';'", s.pos)
    return root


def leaf_depths(root):
    """Root-to-leaf path lengths, added from the root down, in preorder."""
    depths = {}
    stack = [(root, 0.0)]
    while stack:
        node, acc = stack.pop()
        if node.is_leaf():
            depths[node.label] = acc
        else:
            for child in node.children:
                stack.append((child, acc + child.length))
    return depths


def require_equidistant(root, tol):
    depths = leaf_depths(root)
    if len(depths) < 2:
        return
    ref = statistics.median(depths.values())
    worst = max(depths, key=lambda lab: abs(depths[lab] - ref))
    off = abs(depths[worst] - ref)
    if off > tol:
        raise NotEquidistantError(
            f"tree is not equidistant: leaf {worst!r} has depth "
            f"{depths[worst]:.12g}, expected {ref:.12g} (off by {off:.2g}, tol {tol:g})",
            leaf=worst)


def write_newick(root, precision=10):
    rank = {lab: r for r, lab in enumerate(leaf_labels(root))}
    fmt = f".{precision}g"

    def render(node):
        if node.is_leaf():
            return rank[node.label], node.label
        parts = sorted((*render(c), format(c.length, fmt)) for c in node.children)
        return parts[0][0], "(" + ",".join(
            f"{text}:{length}" for _, text, length in parts) + ")"

    return render(root)[1] + ";"


def pair_index(n, i, j):
    return n * i - i * (i + 1) // 2 + (j - i - 1)


def pairwise_distances(root):
    labels = leaf_labels(root)
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

    visit(root)
    return labels, out


def topology_of(root, tol):
    require_equidistant(root, tol)
    labels = leaf_labels(root)
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

    visit(root)
    return Topology._of_masks(labels, masks)


def canonical_str(labels, merges, lengths, tol):
    """The canonical string of a merge schedule's topology, from its clades
    as label sets: the root and every internal node whose branch exceeds
    tol, sorted by size and then by their members' natural keys."""
    nodes = [frozenset([lab]) for lab in labels]
    for _, children in merges:
        nodes.append(frozenset().union(*(nodes[c] for c in children)))
    root = len(nodes) - 1
    sets = {nodes[k] for k in range(len(labels), root + 1) if k == root or lengths[k] > tol}
    key = {lab: natural_key(lab) for lab in labels}     # one key per label
    ordered = sorted((sorted(c, key=key.__getitem__) for c in sets),
                     key=lambda c: (len(c), [key[x] for x in c]))
    return "|".join("{" + ",".join(c) + "}" for c in ordered)


def clade_table(root, labels=None):
    labels = leaf_labels(root) if labels is None else labels
    bit = {lab: 1 << k for k, lab in enumerate(reversed(labels))}
    rows = []

    def visit(node):
        slot = len(rows)
        rows.append(None)               # preorder slot, the last child first
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

    if root.children:
        visit(root)
    return dict(rows)


def speciation_times(root, tol):
    require_equidistant(root, tol)
    internal = sorted([h for h, _ in clade_table(root).values()])
    return tuple(h for h, up in zip(internal, internal[1:] + [float("inf")]) if up - h > tol)


def is_clade(root, leaves, tol):
    keep = set(leaves)
    labels, dists = pairwise_distances(root)
    full = set(labels)
    if len(keep) <= 1 or keep == full:
        return True
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

    return eq(a, b, True)


def runs(values, tol):
    """The runs of a list of values: sorted, split wherever consecutive
    values differ by more than tol.  The top (largest value) of each
    value's run, in the list's order, the width of the widest run (0 for
    no values) and the narrowest gap between consecutive runs (inf with
    fewer than two)."""
    groups = []
    for x in sorted(values):
        if groups and x - groups[-1][-1] <= tol:
            groups[-1].append(x)
        else:
            groups.append([x])
    top = {x: group[-1] for group in groups for x in group}
    width = max((group[-1] - group[0] for group in groups), default=0.0)
    gap = min((b[0] - a[-1] for a, b in zip(groups, groups[1:])), default=math.inf)
    return [top[x] for x in values], width, gap


def ball_clusters(n, entries):
    """The clusters of a condensed distance vector over n leaves, from the
    ball of radius d(i, j) around i, which is the cluster of the most recent
    common ancestor (lca) of i and j.  None unless it is the ball of that
    radius around j as well, for every pair: the three-point condition with
    no tolerance.  Otherwise each cluster's mask -> (its parent's mask, the
    full set's its own; its value, the entry of its first pair), and the lca
    mask of every pair, in pair order."""
    D = square_form(entries, n)
    left, right = np.triu_indices(n, k=1)
    radius = entries[:, None]
    ball = D[left] <= radius
    if (ball != (D[right] <= radius)).any():
        return None
    pad = 8 * ((n + 7) // 8) - n
    lca = [int.from_bytes(row, "big") >> pad for row in map(bytes, np.packbits(ball, axis=1))]
    value = {}
    for mask, entry in zip(lca, entries.tolist()):
        value.setdefault(mask, entry)
    masks = sorted(value, key=lambda m: (m.bit_count(), m))
    table = {}
    for k, mask in enumerate(masks):
        parent = next((up for up in masks[k + 1:] if up & mask == mask), mask)
        table[mask] = (parent, value[mask])
    return table, lca


def merge_runs(n: int, near: list[int], far: list[int],
               top_value: list[float]) -> list[tuple[float, list[int]]]:
    """The merge schedule of spanning-tree edges (near[k], far[k]) sorted by
    the top of their run, `top_value[k]`: the edges of one run, those with
    one top, join their components into one node each, at half that top."""
    parent = list(range(n))                 # union-find over components

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    top = list(range(n))                    # node of each component, by its root
    merges: list[tuple[float, list[int]]] = []
    first = 0
    while first < n - 1:
        height = top_value[first] / 2.0
        last = first + 1
        while last < n - 1 and top_value[last] == top_value[first]:
            last += 1
        if last == first + 1:
            # a run of one edge (no tie): a binary merge
            ra, rb = find(near[first]), find(far[first])
            parent[rb] = ra
            merges.append((height, [top[ra], top[rb]]))
            top[ra] = n + len(merges) - 1
            first = last
            continue
        ends = [(find(near[k]), find(far[k])) for k in range(first, last)]
        for ra, rb in ends:
            parent[find(rb)] = find(ra)
        merged: dict[int, list[int]] = {}
        for r in dict.fromkeys(itertools.chain.from_iterable(ends)):
            merged.setdefault(find(r), []).append(top[r])
        for root, children in merged.items():
            top[root] = n + len(merges)
            merges.append((height, children))
        first = last
    return merges


def single_linkage(dists, n, tol):
    """The merge schedule of one condensed distance vector over n leaves,
    one (height, children) per internal node in the order the nodes are
    made, leaves 0..n-1 and the m-th internal node n + m: its spanning-tree
    edges and run tops (`_linkages._spanning_edges`) merged by `merge_runs`."""
    edges = _linkages._spanning_edges(np.asarray(dists, dtype=float)[None], n, tol)[:3]
    return merge_runs(n, *(edge[0].tolist() for edge in edges))


def distances_of_merges(n, merges, lengths):
    """The condensed cophenetic distances of a merge schedule over n leaves
    with the branch `lengths` of its nodes, each leaf's depth added upward
    one branch per merge, the pair positions listed from a fresh
    `square_index(n)` on every call."""
    index = square_index(n).tolist()
    row = [0.0] * (n * (n - 1) // 2)
    depth = [0.0] * n
    members = [[k] for k in range(n)]
    for _, children in merges:
        below = []
        for c in children:
            group, step = members[c], lengths[c]
            for x in group:
                depth[x] += step
            for x in group:
                dx, at = depth[x], index[x]
                for y in below:
                    row[at[y]] = dx + depth[y]
            below += group
        members.append(below)
    return row


def newick_of_merges(labels, merges, lengths, precision):
    """The Newick string of a merge schedule over natural-sorted `labels`:
    every length by `format`, and every node's children, two or more, sorted
    by their smallest leaf rank."""
    fmt = f".{precision}g"
    lengths = [format(x, fmt) for x in lengths]
    first = list(range(len(labels)))
    text = list(labels)
    for _, children in merges:
        children = sorted(children, key=first.__getitem__)
        first.append(first[children[0]])
        text.append("(" + ",".join([text[c] + ":" + lengths[c] for c in children]) + ")")
    return text[-1] + ";"
