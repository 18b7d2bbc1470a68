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


@np.errstate(over="ignore")
def check_metric_axioms(D, tol: float = DEFAULT_TOL) -> MetricCheckReport:
    """Audit a square matrix against the metric axioms.

    Reports every violated instance of symmetry, zero diagonal, positivity,
    separation (zero entries off the diagonal) and the triangle inequality,
    each with witness indices and the size of the violation.  A matrix with
    entries that are not finite numbers gets only one ``finite`` violation
    per such entry, of size ``inf``: the other axioms are not checked on it.
    Sums and differences too large for a float count as ``inf``.

    The order of the violations is part of the result: first the diagonal
    entries by index; then the pairs ``i < j`` in (i, j) order, each with its
    symmetry violation before its positivity or separation one; then the
    triangles ``(i, k, j)`` by ``k``, and for one ``k`` in (i, j) order.
    """
    M = np.asarray(D, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be a nonnegative number, got {tol!r}")
    bad = np.argwhere(~np.isfinite(M))
    if len(bad):
        return MetricCheckReport([MetricViolation("finite", (int(i), int(j)), math.inf)
                                  for i, j in bad])
    m = M.shape[0]
    out = []
    diag = np.abs(np.diagonal(M))
    for i in np.nonzero(diag > tol)[0]:
        out.append(MetricViolation("diagonal", (int(i),), float(diag[i])))
    gap = np.abs(M - M.T)
    asym = gap > tol
    negative, zero = M < -tol, np.abs(M) <= tol
    for i, j in zip(*np.nonzero(np.triu(asym | negative | zero, 1))):
        if asym[i, j]:
            out.append(MetricViolation("symmetry", (int(i), int(j)), float(gap[i, j])))
        if negative[i, j]:
            out.append(MetricViolation("positivity", (int(i), int(j)), float(-M[i, j])))
        elif zero[i, j]:
            out.append(MetricViolation("separation", (int(i), int(j)), float(abs(M[i, j]))))
    excess = np.empty((m, m))
    for k in range(m):
        # excess[i, j] = d(i, j) - (d(i, k) + d(k, j))
        np.add.outer(M[:, k], M[k, :], out=excess)
        np.subtract(M, excess, out=excess)
        if not excess.max() > tol:
            continue
        for i, j in zip(*np.nonzero(excess > tol)):
            if i != j and i != k and j != k:
                out.append(MetricViolation("triangle", (int(i), k, int(j)),
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
        """Metric space of sup-norm distances between the given points.

        The matrix is audited at ``DEFAULT_TOL + 4 * eps * S``, where ``S`` is
        the largest coordinate magnitude and ``eps`` the float epsilon, so
        that rounding in the distances is not taken for a broken triangle.
        With ``u = eps / 2``, each computed coordinate difference is the
        exact one times ``(1 + delta)``, ``|delta| <= u``, and the maximum is
        exact, so each computed distance ``a`` satisfies
        ``(1 - u) d <= a <= (1 + u) d`` for the true distance ``d <= 2 S``.
        The true distances obey ``d(x, z) <= d(x, y) + d(y, z)``, and the
        computed sum is at least ``(1 - u)`` times the sum of the computed
        terms, so ``fl|x - z| - fl(fl|x - y| + fl|y - z|)`` is at most
        ``((1 + u) - (1 - u)^2) d(x, z) < 3 u d(x, z) <= 3 eps S``.  Points
        closer than that tolerance are refused as coincident.
        """
        P = np.asarray([as_point(p) for p in points], dtype=float)
        if P.shape[0] == 0:
            raise ValueError("need at least one point")
        if P.shape[1] == 0:
            return cls(np.zeros((P.shape[0], P.shape[0])))
        M = np.abs(P[:, None, :] - P[None, :, :]).max(axis=2)
        S = float(np.abs(P).max())
        return cls(M, tol=DEFAULT_TOL + 4.0 * np.finfo(float).eps * S)

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
