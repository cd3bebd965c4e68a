"""Shared constants and small helpers used across the package."""

from __future__ import annotations

import functools
import re
from typing import Iterable

import numpy as np

#: Library-wide absolute tolerance.  Branch lengths and node heights are
#: compared with this value directly; pairwise-distance entries (which are
#: twice a height) are compared with it directly as well, so the two scales
#: meet only at exactly-zero edges in practice.
DEFAULT_TOL = 1e-9

_DIGIT_RUN = re.compile(r"(\d+)")


def natural_key(label: str) -> tuple:
    """Sort key that orders digit runs numerically, so 'S2' < 'S10', and labels
    tied but for leading zeros ('01', '1') by the raw label, not the input order."""
    if label.isdecimal():               # the key that the split below gives
        return ((1, ""), (0, int(label)), (1, "")), label
    parts = _DIGIT_RUN.split(label)     # digit runs at odd k
    return tuple([(0, int(part)) if k % 2 else (1, part) for k, part in enumerate(parts)]), label


def sorted_labels(labels: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(labels, key=natural_key))


@functools.lru_cache(maxsize=32)
def square_index(n: int) -> np.ndarray:
    """The n x n matrix of condensed pair indices (lexicographic pair
    order); the diagonal holds n(n-1)/2, one past the last pair."""
    e = n * (n - 1) // 2
    index = np.full((n, n), e)          # the diagonal reads entry e
    iu = np.triu_indices(n, k=1)
    index[iu] = np.arange(e)
    index.T[iu] = np.arange(e)
    index.setflags(write=False)         # shared by every caller of this n
    return index


def square_form(vec: np.ndarray, n: int, diagonal: float = 0.0) -> np.ndarray:
    """The symmetric n x n matrix of a condensed pair vector (lexicographic
    pair order), with `diagonal` on the diagonal."""
    return np.append(vec, diagonal)[square_index(n)]
