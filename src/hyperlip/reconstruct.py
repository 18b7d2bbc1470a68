"""Rebuilding coordinate bounds from samples of a set.

Given points sampled inside a set Q and points sampled outside it, each
exterior point x gets a separation margin eps(x) (how badly the distance
function to x fails minimality over the inside sample) together with an
inside witness p_x attaining it.  The coordinate of x - p_x with the largest
magnitude picks an axis and a direction, and x is covered by an open
axis-cone whose apex is pulled back from x by a * eps along that axis.  For
a below 1/4 the cone misses every inside point, so the cone's supporting
inequality is valid on the whole sample; collecting the inequalities of all
exterior points, grouped per axis and direction, yields a candidate set
Q_rec that contains the sample and excludes every exterior point used.

The constant a is kept below 1/8, the threshold under which the synthesized
lower bound stays below the synthesized upper bound on each axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxset import BoxLipschitzSet, violation_many
from .lipfun import DistCone, Infinite, Max, Min
from .metric import ConeDescriptor, Point, as_point, cone_contains, hat

__all__ = [
    "ConeOverlapError",
    "ReconstructionConfig",
    "ReconstructionReport",
    "epsilon_many",
    "choose_cone",
    "synthesize_bounds",
    "verify_reconstruction",
    "membership_from_samples",
]

A_MAX = 0.125


class ConeOverlapError(RuntimeError):
    """A chosen cone caught an inside sample point; carries the pair."""

    def __init__(self, message, exterior, inside):
        super().__init__(message)
        self.exterior = exterior
        self.inside = inside


@dataclass(frozen=True)
class ReconstructionConfig:
    """Sampled data for bound synthesis.

    ``a`` scales the apex pull-back; it must stay in (0, 1/8).  When a
    ``membership`` oracle is supplied, the two sample lists are validated
    against it up front.
    """

    inside: tuple
    outside: tuple
    a: float = 0.1
    membership: object = None

    def __post_init__(self):
        inside = tuple(as_point(p) for p in self.inside)
        outside = tuple(as_point(p) for p in self.outside)
        if not inside:
            raise ValueError("need at least one inside sample")
        dims = {len(p) for p in inside} | {len(p) for p in outside}
        if len(dims) != 1:
            raise ValueError(f"mixed sample dimensions {sorted(dims)}")
        if not 0.0 < self.a < A_MAX:
            raise ValueError(f"a must lie strictly between 0 and {A_MAX}, got {self.a!r}")
        if self.membership is not None:
            for p in inside:
                if not self.membership(p):
                    raise ValueError(f"inside sample {p} fails the membership oracle")
            for x in outside:
                if self.membership(x):
                    raise ValueError(f"outside sample {x} passes the membership oracle")
        object.__setattr__(self, "inside", inside)
        object.__setattr__(self, "outside", outside)

    @property
    def n(self) -> int:
        return len(self.inside[0])


def epsilon_many(inside, X, chunk: int = 64):
    """Vectorized margins for many exterior points at once.

    Returns ``(eps, witness_index)`` arrays where, for each row x of ``X``,
    ``eps = max_p min_q (||x-p|| + ||x-q|| - ||p-q||)`` over the inside
    sample and ``witness_index`` is an attaining p.
    """
    P = np.asarray(inside, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != P.shape[1]:
        raise ValueError(f"expected exterior shape (N, {P.shape[1]}), got {X.shape}")
    Dpq = np.abs(P[:, None, :] - P[None, :, :]).max(axis=2)
    eps = np.empty(X.shape[0])
    arg = np.empty(X.shape[0], dtype=int)
    for s in range(0, X.shape[0], chunk):
        block = X[s:s + chunk]
        dx = np.abs(block[:, None, :] - P[None, :, :]).max(axis=2)   # (c, S)
        # per p: ||x-p|| + min_q(||x-q|| - ||p-q||)
        scores = dx + (dx[:, None, :] - Dpq[None, :, :]).min(axis=2)
        arg[s:s + chunk] = scores.argmax(axis=1)
        eps[s:s + chunk] = scores.max(axis=1)
    return eps, arg


def choose_cone(x: Point, p_x: Point, eps: float, a: float) -> ConeDescriptor:
    """Axis cone covering ``x`` strictly, pointing away from the witness.

    The axis is the coordinate of ``x - p_x`` of maximal magnitude (ties go
    to the smallest index) and the apex retreats from ``x`` by ``a * eps``
    along it, which keeps ``x`` strictly interior to the cone.
    """
    x = as_point(x)
    p_x = as_point(p_x)
    if len(x) != len(p_x):
        raise ValueError("point dimensions differ")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if x == p_x:
        raise ValueError("witness coincides with the exterior point")
    diffs = [x[i] - p_x[i] for i in range(len(x))]
    axis = max(range(len(x)), key=lambda i: (abs(diffs[i]), -i))
    sign = 1 if diffs[axis] > 0 else -1
    apex = list(x)
    apex[axis] -= sign * a * eps
    cone = ConeDescriptor(tuple(apex), axis, sign)
    if not cone_contains(cone, x, strict=True, tol=0.0):
        raise ArithmeticError(f"{x} is not strictly interior to its own cone {cone}")
    return cone


def _cone_hits(cone: ConeDescriptor, P: np.ndarray) -> np.ndarray:
    apex = np.asarray(cone.apex)
    t = (P[:, cone.axis] - apex[cone.axis]) * cone.sign
    off = np.abs(np.delete(P, cone.axis, axis=1) - np.delete(apex, cone.axis)).max(
        axis=1, initial=0.0)
    return (t >= 0.0) & (off <= t)


def synthesize_bounds(cfg: ReconstructionConfig) -> BoxLipschitzSet:
    """Bounds whose solution set contains the inside sample and excludes
    every exterior sample.

    One distance cone per exterior point, grouped by (axis, direction) into
    a Min for upper bounds and a Max for lower bounds; directions with no
    exterior points stay unconstrained.  Every cone is checked against the
    whole inside sample; an overlap means the separation hypothesis failed
    (``a`` too large, or the sampled set is not of the representable kind).
    """
    n = cfg.n
    P = np.asarray(cfg.inside, dtype=float)
    uppers = [[] for _ in range(n)]
    lowers = [[] for _ in range(n)]
    if cfg.outside:
        eps, arg = epsilon_many(cfg.inside, cfg.outside)
        for j, x in enumerate(cfg.outside):
            e = float(eps[j])
            if e <= 0.0:
                raise ValueError(
                    f"margin of {x} is not positive; the point is metrically "
                    f"between inside samples")
            cone = choose_cone(x, cfg.inside[int(arg[j])], e, cfg.a)
            hits = _cone_hits(cone, P)
            if hits.any():
                q = tuple(P[int(np.argmax(hits))])
                raise ConeOverlapError(
                    f"cone of exterior point {x} contains inside sample {q}", x, q)
            i = cone.axis
            center = hat(x, i)
            if cone.sign > 0:
                uppers[i].append(DistCone(center, x[i] - cfg.a * e, 1.0, 1))
            else:
                lowers[i].append(DistCone(center, x[i] + cfg.a * e, 1.0, -1))
    lower = [Max(tuple(fam)) if fam else Infinite(-1) for fam in lowers]
    upper = [Min(tuple(fam)) if fam else Infinite(1) for fam in uppers]
    return BoxLipschitzSet(lower, upper)


@dataclass(frozen=True)
class ReconstructionReport:
    """Grid comparison of an oracle against a reconstructed set.

    ``false_inside`` lists grid points the oracle rejects but the set
    accepts (expected when the exterior is under-sampled); ``false_outside``
    lists oracle members the set rejects, which a sound synthesis never
    produces.
    """

    checked: int
    false_inside: tuple
    false_outside: tuple

    @property
    def ok(self) -> bool:
        return not self.false_inside and not self.false_outside

    def __str__(self):
        return (f"{self.checked} points checked, "
                f"{len(self.false_inside)} false inside, "
                f"{len(self.false_outside)} false outside")


def verify_reconstruction(membership, Q_rec: BoxLipschitzSet, grid,
                          tol: float = 1e-9) -> ReconstructionReport:
    """Compare an oracle with reconstructed membership on a point grid."""
    pts = [as_point(p) for p in grid]
    if not pts:
        return ReconstructionReport(0, (), ())
    v = violation_many(Q_rec, np.asarray(pts))
    false_inside = []
    false_outside = []
    for p, vi in zip(pts, v):
        truth = bool(membership(p))
        inside_rec = vi <= tol
        if inside_rec and not truth:
            false_inside.append(p)
        elif truth and not inside_rec:
            false_outside.append(p)
    return ReconstructionReport(len(pts), tuple(false_inside), tuple(false_outside))


def membership_from_samples(inside, tol: float = 1e-9):
    """Oracle that accepts exactly the points within ``tol`` of a sample."""
    P = np.asarray([as_point(p) for p in inside], dtype=float)

    def contains(x):
        x = np.asarray(as_point(x))
        return bool((np.abs(P - x).max(axis=1) <= tol).any())

    return contains
