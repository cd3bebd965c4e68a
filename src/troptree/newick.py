"""Reading and writing rooted, edge-weighted trees in a strict Newick dialect.

Dialect rules:

* exactly one tree per string, terminated by ``;``;
* every non-root node carries ``:<length>`` with a non-negative decimal
  length; the root may omit it (a root length is parsed but stored as 0);
* leaf labels are non-empty, unique, and unquoted (any characters except
  ``( ) , : ;`` and whitespace);
* internal-node labels are tolerated and dropped;
* whitespace is insignificant.

Errors are reported as :class:`~troptree.errors.NewickParseError` with the
byte offset of the offending character.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import NewickParseError
from .util import sorted_labels

_SPECIAL = set("(),:;")


class TreeNode:
    """A node of a rooted tree.

    ``length`` is the length of the branch to the parent; it is 0.0 at the
    root.  Leaves carry a ``label``; internal nodes have ``label is None``
    and at least two children.
    """

    __slots__ = ("label", "length", "children")

    def __init__(self, label: str | None = None, length: float = 0.0,
                 children: list["TreeNode"] | None = None):
        self.label = label
        self.length = float(length)
        self.children = children if children is not None else []

    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:
        if self.is_leaf():
            return f"TreeNode({self.label!r}, length={self.length})"
        return f"TreeNode(<{len(self.children)} children>, length={self.length})"


class RootedTree:
    """A rooted phylogenetic tree with branch lengths and unique leaf labels.

    Instances are treated as immutable: all operations in this package build
    new trees instead of mutating inputs.  Every question about a tree (its
    Newick string, depths, distances, topology, cluster table) is answered
    from its merge schedule, which :func:`_read_tree` reads from the nodes
    on first use and keeps.
    """

    __slots__ = ("root", "leaf_labels", "_schedule")

    def __init__(self, root: TreeNode):
        self.root = root
        labels = [node.label for node in _walk(root) if node.is_leaf()]
        seen = set()
        for lab in labels:
            if not lab:
                raise ValueError("every leaf needs a non-empty label")
            if lab in seen:
                raise ValueError(f"duplicate leaf label {lab!r}")
            seen.add(lab)
        for node in _walk(root):
            if node is not root and node.length < 0:
                raise ValueError(f"negative branch length {node.length}")
            if not node.is_leaf() and len(node.children) < 2:
                raise ValueError("internal nodes need at least 2 children")
        self.leaf_labels = sorted_labels(labels)
        self._schedule = None

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_labels)

    def nodes(self) -> Iterator[TreeNode]:
        """Preorder iteration over all nodes."""
        return _walk(self.root)

    def leaf_depths(self) -> dict[str, float]:
        """Total branch length from the root down to each leaf, in
        :meth:`nodes` order."""
        labels = self.leaf_labels
        merges, lengths = _read_tree(self)
        depths = _node_depths(len(labels), merges, lengths)
        return {labels[k]: depths[k] for k in _preorder_leaves(len(labels), merges)}

    def height(self) -> float:
        """Largest root-to-leaf distance (the tree height when equidistant)."""
        return max(self.leaf_depths().values())

    def __repr__(self) -> str:
        return f"RootedTree({write_newick(self, precision=6)!r})"


def _walk(root: TreeNode) -> Iterator[TreeNode]:
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def _read_tree(tree: RootedTree) -> tuple[list[tuple[float, list[int]]], list[float]]:
    """The tree's merge schedule and the branch length of every node, by
    node number, read in one walk on first use and kept on the tree.

    Leaves are numbered by the natural rank of their labels
    (``tree.leaf_labels``).  Internal nodes are numbered in reverse
    :meth:`RootedTree.nodes` order, so that the preorder, and with it the
    order of :meth:`RootedTree.leaf_depths`, is the schedule's walked from
    the root, and each keeps its children in the tree's order.  The lengths
    are the nodes' own (the root's is 0); a node's height is the largest
    child height plus branch length."""
    if tree._schedule is None:
        rank = {lab: r for r, lab in enumerate(tree.leaf_labels)}
        internal = []                   # in preorder
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.children:
                internal.append(node)
                stack += node.children
        number: dict[int, int] = {}
        heights = [0.0] * len(rank)
        lengths = [0.0] * (len(rank) + len(internal))
        merges: list[tuple[float, list[int]]] = []
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
        tree._schedule = (merges, lengths)
    return tree._schedule


def _node_depths(n: int, merges: list[tuple[float, list[int]]],
                 lengths: list[float]) -> list[float]:
    """The root-to-node sum of `lengths` of every node of a schedule over n
    leaves, by node number, added from the root down."""
    depths = [0.0] * len(lengths)
    for m in range(len(merges) - 1, -1, -1):
        above = depths[n + m]
        for c in merges[m][1]:
            depths[c] = above + lengths[c]
    return depths


def _preorder_leaves(n: int, merges: list[tuple[float, list[int]]]) -> list[int]:
    """The leaves of a schedule over n leaves in the :meth:`RootedTree.nodes`
    order of its tree."""
    leaves = []
    stack = [n + len(merges) - 1]
    while stack:
        node = stack.pop()
        if node < n:
            leaves.append(node)
        else:
            stack += merges[node - n][1]
    return leaves


def _merge_masks(leaves: list[int], merges: list[tuple[float, list[int]]]) -> list[int]:
    """The clade mask of every node of a schedule, by node number, from the
    masks of its leaves."""
    masks = list(leaves)
    for _, children in merges:
        mask = 0
        for c in children:
            mask |= masks[c]
        masks.append(mask)
    return masks


class _Scanner:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_label(self) -> str:
        start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in _SPECIAL or ch.isspace():
                break
            self.pos += 1
        return self.text[start:self.pos]


def _parse_length(s: _Scanner) -> float:
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


def _parse_subtree(s: _Scanner, seen: dict[str, int], is_root: bool) -> TreeNode:
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
        s.take_label()  # internal label: tolerated, dropped
        node = TreeNode(children=children)
    else:
        label_pos = s.pos
        label = s.take_label()
        if not label:
            raise NewickParseError("expected a leaf label or '('", label_pos)
        if label in seen:
            raise NewickParseError(f"duplicate leaf label {label!r}", label_pos)
        seen[label] = label_pos
        node = TreeNode(label=label)

    s.skip_ws()
    if s.peek() == ":":
        s.pos += 1
        length = _parse_length(s)
        node.length = 0.0 if is_root else length
    elif not is_root:
        raise NewickParseError("missing branch length on a non-root node", s.pos)
    return node


def parse_newick(text: str) -> RootedTree:
    """Parse one Newick expression into a :class:`RootedTree`.

    Raises :class:`NewickParseError` (with a byte offset) on any input that
    violates the dialect.
    """
    s = _Scanner(text)
    root = _parse_subtree(s, seen={}, is_root=True)
    s.skip_ws()
    if s.peek() != ";":
        raise NewickParseError("expected ';' terminating the tree", s.pos)
    s.pos += 1
    s.skip_ws()
    if s.pos < len(s.text):
        raise NewickParseError("trailing content after ';'", s.pos)
    return RootedTree(root)


def write_newick(tree: RootedTree, precision: int = 10) -> str:
    """Serialize a tree deterministically.

    Children are ordered by the natural-order rank of the smallest leaf
    label in their clade, lengths are printed with `precision` significant
    digits and trailing zeros trimmed, and the root never carries a length,
    so equal trees produce byte-identical strings.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    return _newick_of_merges(tree.leaf_labels, *_read_tree(tree), precision)


def _newick_of_merges(labels: Sequence[str], merges: list[tuple[float, list[int]]],
                      lengths: list[float], precision: int) -> str:
    """The Newick string of a merge schedule over natural-sorted `labels`,
    so that a leaf's rank is its node number, with the branch `lengths` of
    its nodes: each node's children in the order of their smallest leaf
    rank, as :func:`write_newick` writes them."""
    fmt = f".{precision}g"
    return _newick_text(labels, merges, [format(x, fmt) for x in lengths])


def _newick_text(labels: Sequence[str], merges: list[tuple[float, list[int]]],
                 lengths: list[str]) -> str:
    """:func:`_newick_of_merges` with the branch `lengths` already written."""
    first = list(range(len(labels)))        # smallest leaf rank below each node
    text = list(labels)
    for _, children in merges:
        children = sorted(children, key=first.__getitem__)
        first.append(first[children[0]])
        text.append("(" + ",".join([text[c] + ":" + lengths[c] for c in children]) + ")")
    return text[-1] + ";"


def structurally_equal(a: RootedTree, b: RootedTree, tol: float = 0.0) -> bool:
    """Node-for-node equality up to `tol` on branch lengths, ignoring child
    order: the same leaf labels, the same clades and, clade by clade, the
    same non-root branch lengths within tol."""
    if a.leaf_labels != b.leaf_labels:
        return False
    leaves = [1 << k for k in range(a.n_leaves - 1, -1, -1)]

    def branches(tree: RootedTree) -> dict[int, float]:
        """Clade mask -> branch length, for every node but the root."""
        merges, lengths = _read_tree(tree)
        return dict(zip(_merge_masks(leaves, merges), lengths[:-1]))

    x, y = branches(a), branches(b)
    return x.keys() == y.keys() and all(abs(x[m] - y[m]) <= tol for m in x)
