"""Exception types.  All inherit ValueError so callers can catch broadly."""

from __future__ import annotations


class TropTreeError(ValueError):
    """Base class for all errors raised by this package."""


class NewickParseError(TropTreeError):
    """Malformed Newick input.  `offset` is the index of the problem into
    the string parsed, its byte offset if the text is ASCII."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.message = message
        self.offset = offset


class NotEquidistantError(TropTreeError):
    """Tree whose root-to-leaf distances disagree.  `leaf` names a deviant leaf."""

    def __init__(self, message: str, leaf: str | None = None):
        super().__init__(message)
        self.leaf = leaf


class NotUltrametricError(TropTreeError):
    """Distance vector violating the three-point condition.  `triple` holds
    the offending leaf indices or labels."""

    def __init__(self, message: str, triple: tuple | None = None):
        super().__init__(message)
        self.triple = triple


class LeafSetMismatchError(TropTreeError):
    """Two trees that were expected to share a leaf set but do not."""
