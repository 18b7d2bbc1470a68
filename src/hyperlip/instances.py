"""Named example sets and seeded random instance generators.

The fixed instances here are the small planar sets the level-1 behavior of
the cyclic iteration is usually demonstrated on (an empty set whose iterates
drift off to infinity, a singleton whose iterates fall into a 4-cycle), plus
a few convergent sets at levels below 1.  Random instances are built from
McShane envelopes with repaired sample values, so their syntactic Lipschitz
level is exactly the requested one and the set is guaranteed nonempty with a
uniform gap between lower and upper bounds.

Affine bounds like ``y -> y`` or ``y -> 1 + y`` cannot be written globally
in the expression grammar (every node has slope-1 behavior toward both ends
of the line), so :func:`linear_window` realizes them as a distance cone that
is exact on the half line up to ``WINDOW_LIMIT``; all the fixed instances
keep their dynamics far below that limit.
"""

from __future__ import annotations

import numpy as np

from .boxset import BoxLipschitzSet, MaxSweepsExceededError, _scalar_sweeps, violation
from .lipfun import Const, DistCone, Infinite, LipExpr, McShane, Min, _box, _require_unit
from .metric import _integer, _real, as_point, sup_dists

__all__ = [
    "WINDOW_LIMIT",
    "linear_window",
    "empty_drift_instance",
    "origin_cycle_instance",
    "half_rate_instance",
    "box_instance",
    "vee_notch_instance",
    "diagonal_halfspace_instance",
    "random_mcshane_instance",
    "sample_members",
]

WINDOW_LIMIT = float(2 ** 20)


def linear_window(slope: float, intercept: float) -> LipExpr:
    """The affine map ``y -> slope * y + intercept`` on one coordinate,
    exact for every ``y <= WINDOW_LIMIT`` (a single distance cone with its
    kink parked at the limit).  Requires ``|slope| <= 1``; a slope or
    intercept that is no number is refused (:func:`~hyperlip.metric._real`).
    """
    slope, intercept = _real(slope, "slope"), _real(intercept, "intercept")
    if abs(slope) > 1.0:
        raise ValueError(f"|slope| must be at most 1, got {slope!r}")
    M = WINDOW_LIMIT
    if slope >= 0.0:
        # slope*M + c - slope*(M - y) == slope*y + c  on  y <= M
        return DistCone((M,), slope * M + intercept, slope, -1)
    return DistCone((M,), intercept - (-slope) * M, -slope, 1)


def empty_drift_instance() -> BoxLipschitzSet:
    """Level-1 set with no points at all: ``x1 = x2`` and ``x2 = 1 + x1``.

    Cyclic iteration from the origin never settles; each full sweep moves
    both coordinates up by 1 and the iterate escapes to infinity.
    """
    eq_second = linear_window(1.0, 0.0)
    eq_first_plus = linear_window(1.0, 1.0)
    return BoxLipschitzSet([eq_second, eq_first_plus], [eq_second, eq_first_plus])


def origin_cycle_instance() -> BoxLipschitzSet:
    """Level-1 set whose only point is the origin: ``x1 = x2``, ``x2 = -x1``.

    Cyclic iteration from (0, 1) enters the exact 4-cycle
    (1,1) -> (1,-1) -> (-1,-1) -> (-1,1); only the shrinking strategy
    reaches the origin.
    """
    eq_second = linear_window(1.0, 0.0)
    eq_neg_first = linear_window(-1.0, 0.0)
    return BoxLipschitzSet([eq_second, eq_neg_first], [eq_second, eq_neg_first])


def half_rate_instance() -> BoxLipschitzSet:
    """The contracting pair ``x1 = x2/2``, ``x2 = x1/2`` (level 1/2).

    The unique point is the origin and displacements halve every sweep.
    The half-identity is a McShane envelope of two samples, exact on
    [-8, 8], which the iterates never leave for starts in [-4, 4]^2.
    One and the same expression serves as lower and upper bound; a second,
    mathematically equal expression would round differently and make the
    degenerate interval invert by an ulp.
    """
    T = 8.0
    half = McShane((((-T,), -T / 2), ((T,), T / 2)), 0.5, "sup")
    return BoxLipschitzSet([half, half], [half, half])


def box_instance(intervals) -> BoxLipschitzSet:
    """Product of closed intervals: constant bounds, level 0."""
    intervals = _box(intervals)
    lower = [Const(a) for a, _ in intervals]
    upper = [Const(b) for _, b in intervals]
    return BoxLipschitzSet(lower, upper)


def vee_notch_instance() -> BoxLipschitzSet:
    """Level-1 set with interior: ``|x1| <= x2 <= 3`` inside ``x1 in [-3, 3]``.

    The vee-shaped lower bound on the second coordinate has slope exactly 1,
    so the plain cyclic iteration has no convergence certificate, but the set
    is fat enough for the shrinking strategy to land well inside.
    """
    # the cap keeps lower <= upper on the whole plane, not just over members
    vee = Min(DistCone((0.0,), 0.0, 1.0, 1), Const(3.0))
    return BoxLipschitzSet([Const(-3.0), vee], [Const(3.0), Const(3.0)])


def diagonal_halfspace_instance() -> BoxLipschitzSet:
    """Unbounded level-1 set ``x2 <= x1`` (exact below the window limit)."""
    return BoxLipschitzSet([Infinite(-1), Infinite(-1)],
                           [Infinite(1), linear_window(1.0, 0.0)])


@np.errstate(over="ignore")
def _mcshane_repair(points, raw, lam):
    """Smallest values at or above ``raw`` that are ``lam``-Lipschitz on
    ``points``: at each point, ``max_q (raw_q - lam * d(p, q))``, the first
    maximum as Python's ``max`` picks it.  A distance too large for a float
    counts as the largest float, so that ``lam = 0`` gives ``max(raw)``
    rather than ``0 * inf = NaN``; a difference that overflows reads
    ``-inf``, as in float arithmetic."""
    if not points:
        return []
    P = np.array(points, dtype=float)
    D = np.minimum(sup_dists(P, P), np.finfo(float).max)
    V = np.asarray(raw, dtype=float) - lam * D
    return np.take_along_axis(V, V.argmax(axis=1)[:, None], axis=1)[:, 0].tolist()


def random_mcshane_instance(n: int, lam: float, rng: np.random.Generator,
                            *, samples: int = 4) -> BoxLipschitzSet:
    """Random nonempty set of syntactic level exactly ``lam``.

    Each lower bound is a sup-mode McShane envelope of repaired random
    samples and the matching upper bound is the inf-mode envelope of the
    same samples lifted by 1; the lift guarantees upper - lower >= 1
    everywhere, so the set has a uniformly thick interior.  Sample sites are
    drawn from ``[-2, 2]^(n-1)`` and converted to Python floats once, so the
    two envelopes of an axis share their coordinates.  A count below 1 or
    no integer, and a ``lam`` outside [0, 1] or no number, are refused.
    """
    n, samples = _integer(n, "n", least=1), _integer(samples, "samples", least=1)
    lam = _require_unit(lam, "lam")
    lower = []
    upper = []
    for _ in range(n):
        pts = [tuple(rng.uniform(-2.0, 2.0, n - 1).tolist()) for _ in range(samples)]
        raw = rng.uniform(-1.0, 1.0, samples)
        vals = _mcshane_repair(pts, raw, lam)
        lower.append(McShane(tuple(zip(pts, vals)), lam, "sup"))
        upper.append(McShane(tuple((p, v + 1.0) for p, v in zip(pts, vals)),
                             lam, "inf"))
    return BoxLipschitzSet(lower, upper)


def sample_members(Q: BoxLipschitzSet, starts, max_sweeps: int = 200_000) -> list:
    """Exact members of a level<1 set, one per start point.

    Runs the cyclic iteration past its usual stopping rule, all the way to a
    floating-point fixed point (a full sweep with every displacement exactly
    zero).  Such a point has violation exactly 0.0, which is what tests that
    claim "retractions fix members bitwise" need.
    """
    if Q.lip_bound >= 1.0:
        raise ValueError("exact member sampling needs Lipschitz level < 1")
    max_sweeps = _integer(max_sweeps, "max_sweeps", least=1)
    out = []
    for s in starts:
        s = as_point(s)
        pos, _ = _scalar_sweeps(Q, s, 0.0, max_sweeps)
        member = tuple(pos)
        v = violation(Q, member)
        if v != 0.0:
            raise MaxSweepsExceededError(
                f"iteration from {s} settled at violation {v!r}, not an exact member")
        out.append(member)
    return out
