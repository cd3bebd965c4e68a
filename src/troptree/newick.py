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

from typing import Iterator

from .errors import NewickParseError
from .util import natural_key, sorted_labels

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
    new trees instead of mutating inputs.
    """

    __slots__ = ("root", "leaf_labels")

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

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_labels)

    def nodes(self) -> Iterator[TreeNode]:
        """Preorder iteration over all nodes."""
        return _walk(self.root)

    def leaf_depths(self) -> dict[str, float]:
        """Total branch length from the root down to each leaf."""
        depths: dict[str, float] = {}
        stack = [(self.root, 0.0)]
        while stack:
            node, acc = stack.pop()
            if node.is_leaf():
                depths[node.label] = acc
            else:
                for child in node.children:
                    stack.append((child, acc + child.length))
        return depths

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
    rank = {lab: r for r, lab in enumerate(tree.leaf_labels)}
    fmt = f".{precision}g"

    def render(node: TreeNode) -> tuple[int, str]:
        """The smallest leaf rank below `node` and its Newick text."""
        if node.is_leaf():
            return rank[node.label], node.label
        parts = sorted((*render(c), format(c.length, fmt)) for c in node.children)
        return parts[0][0], "(" + ",".join(
            f"{text}:{length}" for _, text, length in parts) + ")"

    return render(tree.root)[1] + ";"


def structurally_equal(a: RootedTree, b: RootedTree, tol: float = 0.0) -> bool:
    """Node-for-node equality up to `tol` on branch lengths, ignoring child
    order (children are matched in canonical order)."""

    def smallest(node: TreeNode) -> str:
        if node.is_leaf():
            return node.label
        return min((smallest(c) for c in node.children), key=natural_key)

    def eq(x: TreeNode, y: TreeNode, at_root: bool) -> bool:
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
