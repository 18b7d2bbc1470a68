"""Sup-norm geometry primitives.

Points are plain tuples of floats measured in the supremum norm
``max_i |x_i - y_i|``.  The empty tuple is a legal point: it is the single
point of the zero-dimensional space, at distance 0 from itself.  Axis
indices are 0-based throughout the package.

Coordinates of points are always finite: :func:`as_point` rejects ``nan``
and infinities.  A missing coordinate bound is an ``Infinite`` expression
of :mod:`hyperlip.lipfun`, never an infinite coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Point",
    "as_point",
    "sup_dist",
    "hat",
    "ConeDescriptor",
    "cone_contains",
    "cone_contains_general",
    "hausdorff_distance",
    "MetricViolation",
    "MetricCheckReport",
    "check_metric_axioms",
    "FiniteMetricSpace",
]

Point = tuple

DEFAULT_TOL = 1e-12


def as_point(coords: Sequence[float]) -> Point:
    """Coerce a coordinate sequence to a point tuple.

    Rejects non-finite coordinates; the empty sequence is allowed.
    """
    pt = tuple(float(c) for c in coords)
    for c in pt:
        if not math.isfinite(c):
            raise ValueError(f"point coordinates must be finite, got {c!r}")
    return pt


def sup_dist(x: Sequence[float], y: Sequence[float]) -> float:
    """Supremum-norm distance between two points of equal dimension."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    best = 0.0
    for a, b in zip(x, y):
        d = abs(a - b)
        if d > best:
            best = d
    return best


def hat(x: Sequence[float], i: int) -> Point:
    """Drop coordinate ``i`` from ``x``.

    The result lives one dimension down; for a 1-dimensional ``x`` it is the
    empty point.
    """
    n = len(x)
    if not 0 <= i < n:
        raise IndexError(f"axis {i} out of range for dimension {n}")
    return tuple(x[:i]) + tuple(x[i + 1:])


@dataclass(frozen=True)
class ConeDescriptor:
    """Axis-aligned sup-norm cone with tip ``apex``, opening along ``axis``.

    ``sign=+1`` opens toward increasing coordinate ``axis``, ``sign=-1``
    toward decreasing.  The cone contains exactly the points whose offset
    ``t = sign * (q[axis] - apex[axis])`` is nonnegative and dominates every
    off-axis deviation ``|q[j] - apex[j]|``.
    """

    apex: Point
    axis: int
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "apex", as_point(self.apex))
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        if not 0 <= self.axis < len(self.apex):
            raise IndexError(f"axis {self.axis} out of range for apex of dimension {len(self.apex)}")


def cone_contains(cone: ConeDescriptor, q: Sequence[float], strict: bool = False,
                  tol: float = DEFAULT_TOL) -> bool:
    """Membership of ``q`` in an axis cone, inclusive within ``tol``.

    With ``strict=True`` the test is for the interior instead, exclusive
    within ``tol``.
    """
    if len(q) != len(cone.apex):
        raise ValueError("dimension mismatch between cone apex and query point")
    t = cone.sign * (q[cone.axis] - cone.apex[cone.axis])
    off = 0.0
    for j, (qj, aj) in enumerate(zip(q, cone.apex)):
        if j == cone.axis:
            continue
        d = abs(qj - aj)
        if d > off:
            off = d
    if strict:
        return t > tol and off < t - tol
    return t >= -tol and off <= t + tol


def cone_contains_general(p: Sequence[float], x: Sequence[float], q: Sequence[float],
                          tol: float = DEFAULT_TOL) -> bool:
    """Membership in the geodesic cone of ``x`` as seen from ``p``.

    ``q`` belongs when ``x`` lies metrically between ``p`` and ``q``, i.e.
    ``d(p,q) = d(p,x) + d(x,q)`` within ``tol``.
    """
    return abs(sup_dist(p, q) - (sup_dist(p, x) + sup_dist(x, q))) <= tol


def hausdorff_distance(A, B) -> float:
    """Hausdorff distance between two finite nonempty sets of points."""
    pa = np.asarray([as_point(a) for a in A], dtype=float)
    pb = np.asarray([as_point(b) for b in B], dtype=float)
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError("hausdorff_distance requires nonempty sets")
    if pa.shape[1:] != pb.shape[1:]:
        raise ValueError("dimension mismatch between the two sets")
    if pa.shape[1] == 0:
        return 0.0
    diffs = np.abs(pa[:, None, :] - pb[None, :, :]).max(axis=2)
    forward = diffs.min(axis=1).max()
    backward = diffs.min(axis=0).max()
    return float(max(forward, backward))


@dataclass(frozen=True)
class MetricViolation:
    kind: str
    indices: tuple
    amount: float


@dataclass
class MetricCheckReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "metric axioms hold"
        lines = [f"{len(self.violations)} metric axiom violation(s):"]
        for v in self.violations[:20]:
            lines.append(f"  {v.kind} at {v.indices}: off by {v.amount:.6g}")
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


def check_metric_axioms(D, tol: float = DEFAULT_TOL) -> MetricCheckReport:
    """Audit a square matrix against the metric axioms.

    Reports every violated instance of symmetry, zero diagonal, positivity,
    separation (zero entries off the diagonal) and the triangle inequality,
    each with witness indices and the size of the violation.
    """
    M = np.asarray(D, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    m = M.shape[0]
    out = []
    for i in range(m):
        if abs(M[i, i]) > tol:
            out.append(MetricViolation("diagonal", (i,), float(abs(M[i, i]))))
    for i in range(m):
        for j in range(i + 1, m):
            gap = abs(M[i, j] - M[j, i])
            if gap > tol:
                out.append(MetricViolation("symmetry", (i, j), float(gap)))
            if M[i, j] < -tol:
                out.append(MetricViolation("positivity", (i, j), float(-M[i, j])))
            elif abs(M[i, j]) <= tol:
                out.append(MetricViolation("separation", (i, j), float(abs(M[i, j]))))
    for k in range(m):
        # excess[i, j] = d(i, j) - (d(i, k) + d(k, j))
        excess = M - np.add.outer(M[:, k], M[k, :])
        for i, j in zip(*np.nonzero(excess > tol)):
            if i != j and i != k and j != k:
                out.append(MetricViolation("triangle", (int(i), int(k), int(j)),
                                           float(excess[i, j])))
    return MetricCheckReport(out)


class FiniteMetricSpace:
    """A finite metric space given by its distance matrix.

    Points are the indices ``0 .. size-1``.  The matrix is validated against
    the metric axioms on construction and kept read-only afterwards.
    """

    def __init__(self, distances, tol: float = DEFAULT_TOL):
        M = np.array(distances, dtype=float)
        report = check_metric_axioms(M, tol=tol)
        if not report.ok:
            raise ValueError(str(report))
        M.setflags(write=False)
        self._d = M

    @classmethod
    def from_points(cls, points) -> "FiniteMetricSpace":
        """Metric space of sup-norm distances between the given points."""
        P = np.asarray([as_point(p) for p in points], dtype=float)
        if P.shape[0] == 0:
            raise ValueError("need at least one point")
        if P.shape[1] == 0:
            M = np.zeros((P.shape[0], P.shape[0]))
        else:
            M = np.abs(P[:, None, :] - P[None, :, :]).max(axis=2)
        return cls(M)

    @property
    def size(self) -> int:
        return self._d.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return self._d

    def d(self, i: int, j: int) -> float:
        return float(self._d[i, j])

    def row(self, i: int) -> Point:
        """Distance function of point ``i`` as a tuple over all points."""
        return tuple(float(v) for v in self._d[i])

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"FiniteMetricSpace(size={self.size})"
