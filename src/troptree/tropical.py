"""Max-plus tropical primitives on the projective torus R^e / R(1,...,1).

Points are plain 1-D numpy arrays; two arrays represent the same torus point
when they differ by a constant vector.  ``canonicalize`` subtracts the
minimum entry, which makes equality and hashing well defined, and
``trop_dist`` is the quotient metric, so ``trop_dist(u, v) <= tol`` is the
tolerant equality test used throughout.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .util import DEFAULT_TOL, valid_tol


def as_torus_point(x) -> np.ndarray:
    """Validate and convert to a float64 coordinate vector (e >= 2)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D coordinate vector, got shape {arr.shape}")
    if arr.size < 2:
        raise ValueError("torus points need at least 2 coordinates")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    return arr


def canonicalize(x) -> np.ndarray:
    """The canonical representative: subtract the minimum entry (min = 0)."""
    arr = as_torus_point(x)
    return arr - arr.min()


def trop_dist(u, v) -> float:
    """Tropical metric: max_i(u_i - v_i) - min_i(u_i - v_i)."""
    u = as_torus_point(u)
    v = as_torus_point(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    d = u - v
    return float(d.max() - d.min())


def trop_combine(coeffs: Sequence[float], points: Sequence) -> np.ndarray:
    """Tropical linear combination: coordinate-wise max of coeff_i + point_i."""
    if len(points) == 0:
        raise ValueError("need at least one point")
    if len(coeffs) != len(points):
        raise ValueError(f"{len(coeffs)} coefficients for {len(points)} points")
    mat = np.stack([as_torus_point(p) for p in points])
    return (np.asarray(coeffs, dtype=float)[:, None] + mat).max(axis=0)


class TropicalSegment:
    """The tropical line segment between two torus points u and v.

    The segment is the polygonal path swept by the tropical combinations of
    {u, v}; its shape is fully determined by the sorted difference vector
    ``lambdas = sorted(v - u)``.  Construction costs O(e log e); the bend
    points themselves (one per distinct lambda value) are materialized
    lazily because there can be up to e of them.

    The path runs from v (parameter lambdas[0]) to u (parameter
    lambdas[-1]).  The point at parameter d is, coordinate-wise,

        max(u + min(d, 0), v - max(d, 0)),

    which equals max(u + d, v) up to a constant vector; the chosen
    representative keeps the largest coordinate of two equal-height
    ultrametrics fixed, so bend points of tree segments read directly as
    ultrametrics of the shared height.
    """

    __slots__ = ("u", "v", "lambdas", "tol", "__dict__")

    def __init__(self, u, v, tol: float = DEFAULT_TOL):
        # endpoints are stored as given (inputs are never mutated, matching
        # the package-wide convention); bend materialization copies them
        self.u = u = np.asarray(u, dtype=float)
        self.v = v = np.asarray(v, dtype=float)
        if u.ndim != 1 or u.size < 2:
            raise ValueError(f"expected a coordinate vector with e >= 2, "
                             f"got shape {u.shape}")
        if u.shape != v.shape:
            raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
        self.tol = valid_tol(tol)
        self.lambdas = _lambdas(u, v)

    @cached_property
    def bend_parameters(self) -> np.ndarray:
        """One parameter per run of lambda values separated by gaps > tol:
        the locations where the path changes direction."""
        return self.lambdas[_bend_starts(self.lambdas, self.tol)]

    @property
    def n_bends(self) -> int:
        return len(self.bend_parameters)

    def point_at(self, d: float) -> np.ndarray:
        """The point of the segment at parameter d in [lambdas[0], lambdas[-1]]."""
        return np.maximum(self.u + min(d, 0.0), self.v - max(d, 0.0))

    @cached_property
    def bend_points(self) -> list[np.ndarray]:
        """Vertices of the polygonal path, from v to u, consecutive
        duplicates removed: the rows of :func:`_shifted_max` at the shifts
        of the bend parameters (:func:`_bend_shifts`), :meth:`point_at`
        bit for bit.  The endpoints are v and u exactly."""
        return list(_shifted_max(self.u, self.v, *_bend_shifts(self.bend_parameters)))

    def piece_midpoint(self, k: int) -> np.ndarray:
        """Interior point of the k-th straight piece (between bends k, k+1)."""
        params = self.bend_parameters
        if not 0 <= k < len(params) - 1:
            raise IndexError(f"piece {k} of {len(params) - 1}")
        return self.point_at(0.5 * (params[k] + params[k + 1]))

    @property
    def length(self) -> float:
        """Tropical distance between the endpoints (the geodesic length)."""
        return float(self.lambdas[-1] - self.lambdas[0])

    def __repr__(self) -> str:
        return (f"TropicalSegment(e={self.u.size}, bends={self.n_bends}, "
                f"length={self.length:.6g})")


def _lambdas(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The sorted values of v - u, of each row if u and v are stacked."""
    lam = v - u
    # any non-finite coordinate in u or v leaves a non-finite difference
    if not np.isfinite(lam).all():
        raise ValueError("coordinates must be finite")
    lam.sort()
    return lam


def _bend_starts(lam: np.ndarray, tol: float) -> np.ndarray:
    """Whether each of the sorted lambda values of a segment (of each row,
    if stacked) starts a run, that is a bend: it is the first, or more
    than tol above the one before it."""
    starts = np.ones(lam.shape, dtype=bool)
    np.greater(np.diff(lam), tol, out=starts[..., 1:])
    return starts


def _bend_parameters(u: np.ndarray, v: np.ndarray, tol: float,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bends of the segments from the rows of v to those of u, from one
    sort of the stacked v - u: each bend's segment, its parameter, bit for
    bit as :attr:`TropicalSegment.bend_parameters` gives it, and whether it
    is its segment's last."""
    lam = _lambdas(u, v)
    segment, column = np.nonzero(_bend_starts(lam, tol))
    return segment, lam[segment, column], np.append(segment[1:] != segment[:-1], True)


def _shifted_max(u: np.ndarray, v: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max(u + a[k], v + b[k]) for every k, as rows, shape (len(a), e), with
    u and v one vector (or row) each, broadcast, or one row per k: at the
    shifts of d (:func:`_shifts`), the point at d, in :meth:`TropicalSegment.point_at`'s
    floats.  Every bend point of a tropical segment is made here."""
    out = u + a[:, None]
    return np.maximum(out, v + b[:, None], out=out)


def _shifts(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shifts (a, b) = (min(d, 0), -max(d, 0)) of each parameter d, with
    which the point at d is max(u + a, v + b) (:meth:`TropicalSegment.point_at`:
    u + a is u + d or u + 0, v + b is v - d or v - 0, bit for bit)."""
    return np.minimum(params, 0.0), -np.maximum(params, 0.0)


def _bend_shifts(params: np.ndarray, last: np.ndarray | None = None,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_shifts` of the bend parameters of a segment, or of segments
    laid end to end whose last bends `last` flags, with which the bend
    points of :attr:`TropicalSegment.bend_points` are max(u + a, v + b): the
    ends are v and u exactly, signed zeros too, so a is -inf and b is -0.0
    at the v end, and the other way round at the u end."""
    a, b = _shifts(params)
    if last is None:
        last = np.arange(len(params)) == len(params) - 1
    first = np.ones_like(last)
    first[1:] = last[:-1]
    a[first], b[first] = -np.inf, -0.0
    ends = last & ~first
    a[ends], b[ends] = -0.0, -np.inf
    return a, b


def tropical_segment(u, v, tol: float = DEFAULT_TOL) -> TropicalSegment:
    """Tropical line segment between u and v (path from v to u)."""
    return TropicalSegment(u, v, tol)


def point_type(generators: Sequence, x, tol: float = DEFAULT_TOL) -> tuple[frozenset[int], ...]:
    """The type of x relative to a generator list: for each coordinate j,
    the set of generator numbers i (1-based) whose shifted copy attains the
    coordinate-wise maximum there, i.e. u^i_j - x_j = max_l(u^i_l - x_l)
    within tol.  Raises ValueError for a tol below 0 or NaN."""
    tol = valid_tol(tol)
    if len(generators) == 0:
        raise ValueError("need at least one generator")
    x = as_torus_point(x)
    mat = np.stack([as_torus_point(g) for g in generators])
    if mat.shape[1] != x.size:
        raise ValueError(f"dimension mismatch: {mat.shape[1]} vs {x.size}")
    diff = mat - x[None, :]
    attains = diff >= diff.max(axis=1)[:, None] - tol
    return tuple(frozenset((np.flatnonzero(attains[:, j]) + 1).tolist())
                 for j in range(x.size))


def in_tropical_hull(generators: Sequence, x, tol: float = DEFAULT_TOL) -> bool:
    """True iff x lies in the tropical convex hull of the generators: every
    coordinate of its type is attained by at least one generator."""
    return all(len(q) > 0 for q in point_type(generators, x, tol))
