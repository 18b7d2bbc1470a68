"""Sup-norm geometry primitives.

Points are plain tuples of floats measured in the supremum norm
``max_i |x_i - y_i|``.  The empty tuple is a legal point: it is the single
point of the zero-dimensional space, at distance 0 from itself.  Axis
indices are 0-based throughout the package.

Coordinates of points are always finite: :func:`as_point` rejects ``nan``
and infinities.  A missing coordinate bound is an ``Infinite`` expression
of :mod:`hyperlip.lipfun`, never an infinite coordinate.

A set of points enters the package once, through :func:`as_points`, as
one float ``(N, n)`` array, and leaves numpy again by one ``tolist()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

__all__ = [
    "Point",
    "as_point",
    "as_points",
    "sup_dist",
    "sup_dists",
    "hat",
    "ConeDescriptor",
    "cone_contains",
    "hausdorff_distance",
    "MetricViolation",
    "MetricCheckReport",
    "check_metric_axioms",
    "FiniteMetricSpace",
]

Point = tuple

DEFAULT_TOL = 1e-12
# bytes of scratch one block may hold, here, in lipfun's grid audit and in reconstruct
_SCRATCH_BYTES = 1 << 20
_WORDS = (str, bytes, bool, np.bool_)     # what float reads, though none is a number


def _first_of(obj, kind):
    """The first value of type ``kind`` in ``obj`` in reading order, inside
    lists, tuples, arrays and the values of dicts, else ``None``."""
    items = [obj]
    while items:
        x = items.pop()
        if isinstance(x, kind):
            return x
        x = x.tolist() if isinstance(x, np.ndarray) else x
        if isinstance(x, (dict, list, tuple)):
            items.extend(reversed(list(x.values()) if isinstance(x, dict) else x))
    return None


def _real(x, what) -> float:
    """``float(x)`` of a number taken on its own; one of ``_WORDS``, and what
    ``float`` cannot read, is refused."""
    try:
        if (v := float(x)) is x or not isinstance(x, _WORDS):
            return v
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{what} must be a number, got {x!r}")


def _integer(i, what, least=None) -> int:
    """``i`` as an ``int``: a Python or numpy integer, not a ``bool``, nor below ``least``."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {i!r}")
    if least is not None and i < least:
        raise ValueError(f"{what} must be at least {least}, got {i!r}")
    return int(i)


def _sign(s, what) -> int:
    """``s`` as the ``int`` 1 or -1, read by :func:`_integer`."""
    if (v := _integer(s, what)) not in (-1, 1):
        raise ValueError(f"{what} must be +1 or -1, got {s!r}")
    return v


def _nonnegative(x, what, kind="nonnegative") -> float:
    """``x``, a tolerance, grid step or radius, as a finite float at least 0,
    read by :func:`_real`; one of ``_WORDS`` gets this message too."""
    v = math.nan if isinstance(x, _WORDS) else _real(x, what)
    if not 0.0 <= v < math.inf or (v == 0.0 and kind == "positive"):
        raise ValueError(f"{what} must be finite and {kind}, got {x!r}")
    return v


def _positive(x, what) -> float:
    """``x`` as a finite float above 0, read as by :func:`_nonnegative`."""
    return _nonnegative(x, what, "positive")


def as_point(coords: Sequence[float]) -> Point:
    """Coerce a coordinate sequence to a point tuple.

    Rejects non-finite coordinates, and strings and bytes, which ``float``
    reads as numbers; the empty sequence is allowed.
    """
    raw = tuple(coords)
    pt = tuple(map(float, raw))
    if pt != raw and any(map(isinstance, raw, repeat((str, bytes)))):  # none equals a float
        raise ValueError(f"point coordinates must be numbers, got {raw!r}")
    if not all(map(math.isfinite, pt)):
        c = next(c for c in pt if not math.isfinite(c))
        raise ValueError(f"point coordinates must be finite, got {c!r}")
    return pt


def as_points(rows) -> np.ndarray:
    """Coerce a sequence of points to a new float ``(N, n)`` array.

    Rows that numpy reads as an ``(N, n)`` table of bools, integers or
    floats, all finite, take one conversion, and numeric values of any
    other shape are refused as not rows of points.  Any other rows go
    through :func:`as_point` one at a time, so a bad point raises its error,
    for the first bad point in order; then points of different dimensions
    raise one error that names them.  The array has the bytes of
    ``np.array([as_point(p) for p in rows], dtype=float)``, and no points
    give shape ``(0, 0)``.  Callers add only their own dimension checks.
    """
    try:
        A = np.asarray(rows)
    except (TypeError, ValueError, OverflowError):
        A = None
    if A is not None and A.dtype.kind in "biuf":
        if A.ndim == 2:
            A = A.astype(float)
            if np.isfinite(A).all():
                return A
        elif A.size:
            raise ValueError(f"expected rows of points, got shape {A.shape}")
    pts = [as_point(p) for p in rows]
    dims = {len(p) for p in pts}
    if len(dims) > 1:
        raise ValueError(f"mixed point dimensions {sorted(dims)}")
    return np.array(pts, dtype=float) if pts else np.empty((0, 0))


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


@np.errstate(over="ignore")
def sup_dists(A, B) -> np.ndarray:
    """``(len(A), len(B))`` table of sup-norm distances between the rows of
    two ``(N, n)`` arrays.

    Each block of rows starts from ``|a_0 - b_0|`` and folds in one
    coordinate at a time through a scratch table of at most
    ``_SCRATCH_BYTES`` (one row, when a row is larger), so the result is the
    only ``(N, M)`` table made and no ``(N, M, n)`` temporary is.  The block
    size does not change a bit of the result.  Every entry is a ``+0.0`` or
    above, and ``n = 0`` gives all zeros.  A difference too large for a
    float reads ``inf``, as in :func:`sup_dist`, and rows of different
    dimensions raise its ``ValueError``.
    """
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    if A.shape[1] == 0:
        return np.zeros((A.shape[0], B.shape[0]))
    D = np.empty((A.shape[0], B.shape[0]))
    rows = max(1, _SCRATCH_BYTES // (8 * max(1, B.shape[0])))
    T = np.empty((min(rows, A.shape[0]), B.shape[0]) if A.shape[1] > 1 else (0, 0))
    for r in range(0, A.shape[0], rows):
        Dr = D[r:r + rows]
        np.abs(np.subtract(A[r:r + rows, 0, None], B[None, :, 0], out=Dr), out=Dr)
        Tr = T[:Dr.shape[0]]
        for k in range(1, A.shape[1]):
            np.abs(np.subtract(A[r:r + rows, k, None], B[None, :, k], out=Tr), out=Tr)
            np.maximum(Dr, Tr, out=Dr)
    return D


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
        object.__setattr__(self, "axis", _integer(self.axis, "cone axis"))
        object.__setattr__(self, "sign", _sign(self.sign, "sign"))
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
    tol = _nonnegative(tol, "tol")
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


def hausdorff_distance(A, B) -> float:
    """Hausdorff distance between two finite nonempty sets of points.

    The distances are taken in blocks of rows of ``A`` of at most
    ``_SCRATCH_BYTES`` (one row, when a row is larger), folded into a running
    maximum of the row minima and a running minimum per point of ``B``, so
    no ``(len(A), len(B))`` table is made.  Min and max are exact, so the
    value does not depend on the blocks.
    """
    pa, pb = as_points(A), as_points(B)
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError("hausdorff_distance requires nonempty sets")
    if pa.shape[1] != pb.shape[1]:
        raise ValueError("dimension mismatch between the two sets")
    rows = max(1, _SCRATCH_BYTES // (8 * len(pb)))
    forward, backward = 0.0, np.full(len(pb), math.inf)
    for r in range(0, len(pa), rows):
        D = sup_dists(pa[r:r + rows], pb)
        forward = max(forward, D.min(axis=1).max())
        np.minimum(backward, D.min(axis=0), out=backward)
        del D                           # before the next block is made
    return float(max(forward, backward.max()))


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


def _matrix(D) -> np.ndarray:
    """``D`` as a float array; numpy reads ``"1"`` and ``b"1"``, so both are refused."""
    if not (isinstance(D, np.ndarray) and D.dtype.kind in "biuf"):
        s = _first_of(D, (str, bytes))
        if s is not None:
            raise ValueError(f"a metric must hold numbers, got {s!r}")
    return np.asarray(D, dtype=float)


@np.errstate(over="ignore")
def check_metric_axioms(D, tol: float = DEFAULT_TOL) -> MetricCheckReport:
    """Audit a square matrix against the metric axioms.

    Reports every violated instance of symmetry, zero diagonal, positivity,
    separation (zero entries off the diagonal) and the triangle inequality,
    each with witness indices and the size of the violation.  A matrix with
    entries that are not finite numbers gets only one ``finite`` violation
    per such entry, of size ``inf``: the other axioms are not checked on it.
    Sums and differences too large for a float count as ``inf``.  A string
    or bytes in ``D`` is refused, though numpy reads ``"1"`` as 1.0.

    The order of the violations is part of the result: first the diagonal
    entries by index; then the pairs ``i < j`` in (i, j) order, each with its
    symmetry violation before its positivity or separation one; then the
    triangles ``(i, k, j)`` by ``k``, and for one ``k`` in (i, j) order.
    """
    M = _matrix(D)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    tol = _nonnegative(tol, "tol")
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
        # excess[i, j] = d(i, j) - (d(i, k) + d(k, j)); the sum is each row
        # filled with d(i, k), plus row k: the bits of np.add.outer(M[:, k],
        # M[k]), in ~60% of its time at m = 300
        excess[:] = M[:, k, None]
        excess += M[k]
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
        M = np.array(_matrix(distances))
        report = check_metric_axioms(M, tol=tol)
        if not report.ok:
            raise ValueError(str(report))
        M.setflags(write=False)
        self._d = M

    @classmethod
    def from_points(cls, points) -> "FiniteMetricSpace":
        """Metric space of sup-norm distances between the given points.

        The matrix is :func:`sup_dists` of the points with themselves, so
        symmetry, the zero diagonal and positivity hold exactly.  The
        triangle inequality holds up to rounding: with ``u = eps / 2``, each
        computed coordinate difference is the exact one times
        ``(1 + delta)``, ``|delta| <= u``, and the maximum is exact, so each
        computed distance ``a`` satisfies ``(1 - u) d <= a <= (1 + u) d``
        for the true distance ``d <= 2 S``, where ``S`` is the largest
        coordinate magnitude.  The true distances obey
        ``d(x, z) <= d(x, y) + d(y, z)``, and the computed sum is at least
        ``(1 - u)`` times the sum of the computed terms, so
        ``fl|x - z| - fl(fl|x - y| + fl|y - z|)`` is at most
        ``((1 + u) - (1 - u)^2) d(x, z) < 3 u d(x, z) <= 3 eps S``.  The
        matrix is held to the axioms at ``DEFAULT_TOL + 4 * eps * S``, where
        no triangle can fail, so only the two remaining axioms are checked:
        every distance is finite (a difference may overflow), and points
        closer than that tolerance are refused as coincident.  A refusal
        carries the text of the full :func:`check_metric_axioms` report.
        """
        P = as_points(points)
        if len(P) == 0:
            raise ValueError("need at least one point")
        M = sup_dists(P, P)
        tol = DEFAULT_TOL + 4.0 * np.finfo(float).eps * float(np.abs(P).max(initial=0.0))
        # the diagonal's zeros are the only entries allowed within tol
        if not (np.isfinite(M).all() and np.count_nonzero(M <= tol) == len(M)):
            raise ValueError(str(check_metric_axioms(M, tol)))
        X = cls.__new__(cls)            # the checks above settle what __init__ audits
        M.setflags(write=False)
        X._d = M
        return X

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
