"""Reading and writing rooted, edge-weighted trees in a strict Newick dialect.

Dialect rules:

* exactly one tree per string, terminated by ``;``;
* every non-root node carries ``:<length>`` with a non-negative decimal
  length that a float holds without overflow; the root may omit it (a root
  length is parsed but stored as 0);
* leaf labels are non-empty, unique, and unquoted (any characters except
  ``( ) , : ;`` and whitespace);
* internal-node labels are tolerated and dropped;
* whitespace is insignificant.

Errors are reported as :class:`~troptree.errors.NewickParseError` with the
offset of the offending character, an index into the string.
"""

from __future__ import annotations

import math
import re
from typing import Sequence

from .errors import NewickParseError
from .util import sorted_labels

# a node: the '(' before it, label, length, separator (\s is isspace, \d isdecimal)
_NODE = re.compile(r"((?:\(\s*)*)([^(),:;\s]*)\s*(?::\s*([\d+\-.eE]*))?\s*([,);]?)\s*")


class TreeNode:
    """A node of a rooted tree, used only as input to ``RootedTree(root)``.

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


class RootedTree:
    """A rooted phylogenetic tree with branch lengths and unique leaf labels,
    held as its merge schedule, and never changed.

    Leaf k is node k, the k-th of `leaf_labels` in natural order.  Internal
    node n + m is the m-th in the left-to-right postorder of the tree's
    child order (the root is the last), and ``merges[m]`` is its (height,
    children), the height the largest child height plus branch.  `lengths`
    holds every node's branch length as given (the root's is 0).  Every
    question about a tree is answered from this schedule.  ``RootedTree(root)``
    reads it from a graph of :class:`TreeNode` in one walk and keeps no
    reference to the nodes.
    """

    __slots__ = ("leaf_labels", "merges", "lengths")

    def __init__(self, root: TreeNode):
        labels = []
        internal = []                   # in preorder, the last child first
        number = {}                     # of each node, the leaves in walk order
        fault = None                    # a node's, raised after the labels' own
        stack = [root]
        while stack:
            node = stack.pop()
            if fault is None and node is not root and node.length < 0:
                fault = f"negative branch length {node.length}"
            if node.children:
                if fault is None and len(node.children) < 2:
                    fault = "internal nodes need at least 2 children"
                internal.append(node)
                stack += node.children
            else:
                number[id(node)] = len(labels)
                labels.append(node.label)
        internal.reverse()              # the root last
        number.update((id(node), len(labels) + m) for m, node in enumerate(internal))
        self._set(labels, [[number[id(c)] for c in node.children] for node in internal],
                  {number[id(c)]: c.length for node in internal for c in node.children})
        if fault is not None:
            raise ValueError(fault)

    @classmethod
    def _of_schedule(cls, labels: Sequence[str], children: list[list[int]],
                     lengths: Sequence[float], ranked: bool = False) -> "RootedTree":
        """The tree of a schedule whose internal nodes come in any order
        that puts each after those below it: :meth:`_set` of it in postorder."""
        n = len(labels)
        preorder = []                   # the internal nodes, the last child first
        stack = [n + len(children) - 1] if children else []
        while stack:
            node = stack.pop()
            preorder.append(node)
            stack += [c for c in children[node - n] if c >= n]
        number = list(range(n + len(children)))
        for m, node in enumerate(reversed(preorder), n):
            number[node] = m
        tree = object.__new__(cls)
        tree._set(labels, [[number[c] for c in children[node - n]] for node in reversed(preorder)],
                  {number[c]: length for c, length in enumerate(lengths)}, ranked)
        return tree

    def _set(self, labels: Sequence[str], children: list[list[int]],
             lengths: Sequence[float] | dict[int, float], ranked: bool = False) -> None:
        """Hold the tree in which leaf k is ``labels[k]``, internal node
        n + m, in postorder, has ``children[m]`` below it, and node c has
        branch ``lengths[c]``, in the form above: leaves renumbered by
        natural rank (unless `ranked` says `labels` are natural-sorted and
        unique already), heights derived."""
        n = len(labels)
        if ranked:
            self.leaf_labels = tuple(labels)
            number = range(n + len(children))
        else:
            seen = set()
            for lab in labels:
                if not lab:
                    raise ValueError("every leaf needs a non-empty label")
                if lab in seen:
                    raise ValueError(f"duplicate leaf label {lab!r}")
                seen.add(lab)
            self.leaf_labels = sorted_labels(labels)
            rank = {lab: r for r, lab in enumerate(self.leaf_labels)}
            number = [rank[lab] for lab in labels] + list(range(n, n + len(children)))
        heights = [0.0] * n             # by input number, as internal nodes keep theirs
        self.lengths = [0.0] * len(number)
        self.merges = []
        for below in children:
            height = 0.0
            for c in below:
                length = lengths[c]
                self.lengths[number[c]] = length
                h = heights[c] + length
                if h > height:
                    height = h
            heights.append(height)
            self.merges.append((height, [number[c] for c in below]))

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_labels)

    def leaf_depths(self) -> dict[str, float]:
        """Total branch length from the root down to each leaf, in the
        preorder of the schedule that takes the last child first."""
        labels = self.leaf_labels
        depths = _node_depths(len(labels), self.merges, self.lengths)
        return {labels[k]: depths[k] for k in _preorder_leaves(len(labels), self.merges)}

    def height(self) -> float:
        """Largest root-to-leaf distance (the tree height when equidistant)."""
        return max(self.leaf_depths().values())

    def __repr__(self) -> str:
        return f"RootedTree({write_newick(self, precision=6)!r})"


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
    """The leaves of a schedule over n leaves in its preorder from the root
    that takes the last child first."""
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


def parse_newick(text: str) -> RootedTree:
    """Parse one Newick expression into a :class:`RootedTree`.

    One match of ``_NODE`` reads each node.  Internal nodes close in
    left-to-right postorder, and n leaves have n - 1 commas, so the m-th to
    close is node n + m: the tree's form but for the leaves' ranks.  Raises
    :class:`NewickParseError`, its offset an index into `text`, on any
    input that violates the dialect.
    """
    n = text.count(",") + 1
    leaves = {}                         # label -> k, for the k-th leaf to appear
    children = []                       # of node n + m
    lengths = {}                        # of every node; the root's is read and dropped
    stack = []                          # per open node: its '(', its parent's children
    below = []                          # the children so far of the innermost open node
    node = None                         # None before a leaf, else the node a ')' closed
    for m in _NODE.finditer(text, len(text) - len(text.lstrip())):  # each where the last ends
        opens, label, token, sep = m.groups()
        if node is None:
            if opens:
                for at, ch in enumerate(opens, m.start()):
                    if ch == "(":
                        stack.append((at, below))
                        below = []
            if not label:
                raise NewickParseError("expected a leaf label or '('", m.start(2))
            if label in leaves:
                raise NewickParseError(f"duplicate leaf label {label!r}", m.start(2))
            node = leaves[label] = len(leaves)
        elif opens:                     # an internal label never starts with '('
            raise NewickParseError("missing branch length on a non-root node" if stack
                                   else "expected ';' terminating the tree", m.start())
        if token is not None:
            if not sep:                 # then any digits, like '²', that isdigit takes
                end = m.end(3)
                while end < len(text) and (text[end].isdigit() or text[end] in "+-.eE"):
                    end += 1
                token = text[m.start(3):end]
            if not token:
                raise NewickParseError("expected a branch length after ':'", m.start(3))
            try:
                length = float(token)
            except ValueError:
                raise NewickParseError(f"invalid branch length {token!r}", m.start(3)) from None
            if not 0 <= length < math.inf:
                raise NewickParseError(f"negative branch length {token}" if length < 0
                                       else f"branch length {token} overflows", m.start(3))
            lengths[node] = length
        elif stack:
            raise NewickParseError("missing branch length on a non-root node", m.start(4))
        if not stack:
            if sep != ";":
                raise NewickParseError("expected ';' terminating the tree", m.start(4))
            if m.end() < len(text):
                raise NewickParseError("trailing content after ';'", m.end())
            tree = object.__new__(RootedTree)
            tree._set(list(leaves), children, lengths)
            return tree
        below.append(node)
        if sep == ",":
            node = None
        elif sep == ")":
            if len(below) < 2:
                raise NewickParseError("internal node needs at least 2 children", stack[-1][0])
            node = n + len(children)
            children.append(below)
            below = stack.pop()[1]
        else:
            raise NewickParseError("expected ',' or ')' (unbalanced parentheses?)",
                                   m.start(4) if m.start(4) < len(text) else stack[-1][0])


def write_newick(tree: RootedTree, precision: int = 10) -> str:
    """Serialize a tree deterministically.

    Children are ordered by the natural-order rank of the smallest leaf
    label in their clade, lengths are printed with `precision` significant
    digits and trailing zeros trimmed, and the root never carries a length,
    so equal trees produce byte-identical strings.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    return _newick_of_merges(tree.leaf_labels, tree.merges, tree.lengths, precision)


def _newick_of_merges(labels: Sequence[str], merges: list[tuple[float, list[int]]],
                      lengths: list[float], precision: int) -> str:
    """The Newick string of a merge schedule over natural-sorted `labels`,
    so that a leaf's rank is its node number, with the branch `lengths` of
    its nodes: each node's children in the order of their smallest leaf
    rank, as :func:`write_newick` writes them."""
    fmt = f".{precision}g"
    lengths = [format(x, fmt) for x in lengths]
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
        return dict(zip(_merge_masks(leaves, tree.merges), tree.lengths[:-1]))

    x, y = branches(a), branches(b)
    return x.keys() == y.keys() and all(abs(x[m] - y[m]) <= tol for m in x)
