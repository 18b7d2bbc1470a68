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
Q_rec that contains the sample and excludes every exterior point used.  Only
the inequalities no other one of their group makes redundant are kept.

The constant a is kept below 1/8, the threshold under which the synthesized
lower bound stays below the synthesized upper bound on each axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metric
from .boxset import BoxLipschitzSet, violation_many
from .lipfun import Infinite, Max, Min, _cone_family
from .metric import ConeDescriptor, Point, _nonnegative, _positive, as_point, as_points, sup_dists

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
# inside samples nearest to an exterior point whose distances bound every
# candidate's margin score in the pruned witness search
_ANCHORS = 8


class ConeOverlapError(RuntimeError):
    """A chosen cone caught an inside sample point; carries the pair."""

    def __init__(self, message, exterior, inside):
        super().__init__(message)
        self.exterior = exterior
        self.inside = inside


def _point(row) -> Point:
    """A row of a float array as a point tuple."""
    return tuple(row.tolist())


class ReconstructionConfig:
    """Sampled data for bound synthesis.

    ``a`` scales the apex pull-back; it is read as by
    :func:`hyperlip.metric._positive` and must stay below 1/8.  Each sample
    set is converted once, to the read-only ``(N, n)`` array (``_inside``,
    ``_outside``) that synthesis reads; ``inside`` and ``outside`` build
    tuples of point tuples from those arrays when read, for messages and
    callers.
    """

    def __init__(self, inside, outside, a: float = 0.1):
        P, X = as_points(inside), as_points(outside)
        if not len(P):
            raise ValueError("need at least one inside sample")
        if len(X) and X.shape[1] != P.shape[1]:
            raise ValueError(f"mixed sample dimensions {sorted({P.shape[1], X.shape[1]})}")
        if not (value := _positive(a, "a")) < A_MAX:
            raise ValueError(f"a must lie strictly between 0 and {A_MAX}, got {a!r}")
        X = X.reshape(len(X), P.shape[1])       # no samples: (0, n)
        P.setflags(write=False)
        X.setflags(write=False)
        self._inside, self._outside, self.a = P, X, value

    inside = property(lambda self: tuple(map(tuple, self._inside.tolist())))
    outside = property(lambda self: tuple(map(tuple, self._outside.tolist())))

    @property
    def n(self) -> int:
        return self._inside.shape[1]


def epsilon_many(inside, X, chunk: int = 256):
    """Vectorized margins for many exterior points at once.

    Returns ``(eps, witness_index)`` arrays where, for each row x of ``X``,
    ``eps = max_p min_q (||x-p|| + ||x-q|| - ||p-q||)`` over the inside
    sample and ``witness_index`` is an attaining p (the first one on ties).

    The search is exact and pruned.  For any set A of inside samples,
    candidate p's score ``d(x,p) + min_q (d(x,q) - d(p,q))`` is bounded by
    ``UB_A(p) = d(x,p) + min_{q in A} (d(x,q) - d(p,q))``.  The two use the
    same float operations (the distance table is exactly symmetric) and a
    minimum over fewer q is no smaller, so ``UB_A >= score`` holds in
    floating point.

    A lead step settles most rows.  With A = {a, z}, the first and the last
    of the samples nearest to x (one ``argmin`` over the row and one over it
    reversed), ``UB_A(p)`` is taken as ``d(x,p) + (h - max(d(a,p),
    d(z,p)))``, with ``h`` the least distance: rounding is monotone and no
    distance is ``-0.0``, so that has the bits of the minimum of the two
    differences.  Let ``M`` be the largest ``UB_A`` and ``p0`` the first
    candidate reaching it; ``p0`` is scored, and when its score is
    ``M`` the row is done with margin ``M`` and witness ``p0``: no candidate
    scores above ``M``, and every earlier one has ``UB_A < M``, so ``p0`` is
    the first best candidate.  The other rows take A as the ``_ANCHORS``
    samples nearest to x, and score their candidates in order of (-UB,
    index), one per pass, until the next one has ``UB < best``, or ``UB ==
    best`` and an index above the witness's: no candidate left can then
    beat the witness or tie it with a lower index.

    Rows go in blocks of at most ``chunk`` rows, as large as
    ``metric._SCRATCH_BYTES`` allows for four ``(rows, S)`` tables, and the
    rows the lead leaves go in sub-blocks that fit the ``(rows, anchors,
    S)`` bound table; the result does not depend on the block sizes.  The
    ``(S, S)`` table of inside distances is held whole.  Non-finite
    coordinates raise ``ValueError``, and so do coordinates whose
    differences, doubled, overflow, and a ``chunk`` below 1 or no integer.
    Both point sets are read by :func:`~hyperlip.metric.as_points`.
    """
    chunk = metric._integer(chunk, "chunk", least=1)
    P, X = as_points(inside), as_points(X)
    if X.shape[1] != P.shape[1]:
        raise ValueError(f"expected exterior shape (N, {P.shape[1]}), got {X.shape}")
    S = P.shape[0]
    if S == 0:
        raise ValueError("need at least one inside sample")
    # margins and their search bounds reach twice the spread; finite, so
    # that none is inf or NaN
    with np.errstate(over="ignore"):
        spread = 2.0 * np.ptp(np.concatenate([P, X]), axis=0)
    if not np.isfinite(spread).all():
        raise ValueError("sample coordinates are too far apart for finite distances")
    D = sup_dists(P, P)
    rows = min(chunk, max(1, metric._SCRATCH_BYTES // (32 * S)))
    eps = np.empty(X.shape[0])
    arg = np.empty(X.shape[0], dtype=int)
    for r in range(0, X.shape[0], rows):
        _search(sup_dists(X[r:r + rows], P), D, eps[r:r + rows], arg[r:r + rows])
    return eps, arg


def _search(dx, D, eps, arg):
    """Witness search for one block of rows: ``dx`` holds the rows' ``(rows,
    S)`` distances to the inside sample, ``D`` the inside distances; the
    margins and witnesses go to ``eps`` and ``arg``.  The lead step settles
    what it can, and :func:`_pruned` takes the other rows."""
    b, S = dx.shape
    at = np.arange(b)
    first = dx.argmin(axis=1)
    last = S - 1 - dx[:, ::-1].argmin(axis=1)
    h = dx[at, first]
    # min(h - D[first], h - D[last]) as h - max(D[first], D[last]): rounding
    # is monotone, and every distance is +0.0 or above, so the bits agree
    ub = D[first]
    T = D[last]
    np.maximum(ub, T, out=ub)
    np.subtract(h[:, None], ub, out=ub)
    ub += dx
    p = ub.argmax(axis=1)
    np.take(D, p, axis=0, out=T)
    np.subtract(dx, T, out=T)
    score = dx[at, p] + T.min(axis=1)
    done = score == ub[at, p]
    eps[done] = score[done]
    arg[done] = p[done]
    rest = np.flatnonzero(~done)
    del ub, T                   # the pruned search's table takes their room
    step = max(1, metric._SCRATCH_BYTES // (8 * S * min(_ANCHORS, S)))
    for r in range(0, rest.size, step):
        live = rest[r:r + step]
        _pruned(dx[live], D, live, eps, arg)


def _pruned(dx, D, live, eps, arg):
    """Pruned witness search from the ``_ANCHORS`` nearest samples, for the
    rows ``live`` of a block, whose distances ``dx`` holds."""
    b, S = dx.shape
    k = min(_ANCHORS, S)
    at = np.arange(b)
    near = np.argpartition(dx, k - 1, axis=1)[:, :k]
    T = D[near]                                                   # (b, k, S)
    np.subtract(dx[at[:, None], near, None], T, out=T)
    ub = dx + T.min(axis=1)
    best = np.full(b, -np.inf)
    which = np.full(b, S)
    while live.size:
        # each row's next candidate in order of (-UB, index)
        p = ub.argmax(axis=1)
        at = np.arange(live.size)
        u = ub[at, p]
        go = (u > best) | ((u == best) & (p < which))
        if not go.all():
            eps[live[~go]] = best[~go]
            arg[live[~go]] = which[~go]
            live, dx, ub, best, which, p = live[go], dx[go], ub[go], best[go], which[go], p[go]
            at = at[:live.size]
        T = D[p]
        np.subtract(dx, T, out=T)
        score = dx[at, p] + T.min(axis=1)
        better = (score > best) | ((score == best) & (p < which))
        best = np.where(better, score, best)
        which = np.where(better, p, which)
        ub[at, p] = -np.inf


def _cones(X: np.ndarray, W: np.ndarray, eps: np.ndarray, a: float):
    """Cone of every exterior row ``x`` of ``X`` with witness row ``p`` of
    ``W`` and margin ``eps``: the axis of ``x - p``'s largest magnitude
    (ties to the smallest index), the sign of that coordinate, and the apex
    coordinate ``x_axis - sign * a * eps`` (the other apex coordinates are
    ``x``'s).  The last array says which rows have a usable cone: ``x != p``,
    a finite apex, and ``x`` strictly interior to its cone.
    """
    D = X - W
    rows = np.arange(X.shape[0])
    axis = np.abs(D).argmax(axis=1)
    sign = np.where(D[rows, axis] > 0.0, 1, -1)
    x_axis = X[rows, axis]
    apex = x_axis - sign * (a * eps)
    ok = (D != 0.0).any(axis=1) & np.isfinite(apex) & (sign * (x_axis - apex) > 0.0)
    return axis, sign, apex, ok


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
    eps, a = _positive(eps, "eps"), _positive(a, "a")
    if x == p_x:
        raise ValueError("witness coincides with the exterior point")
    axis, sign, apex, ok = _cones(np.array([x]), np.array([p_x]), np.array([eps]), a)
    i = int(axis[0])
    cone = ConeDescriptor(x[:i] + (float(apex[0]),) + x[i + 1:], i, int(sign[0]))
    if not ok[0]:
        raise ArithmeticError(f"{x} is not strictly interior to its own cone {cone}")
    return cone


def _first_overlap(P, X, axis, sign, apex):
    """First row (in order) whose cone contains an inside sample, with the
    index of the first such sample; ``None`` when no cone does.

    A sample ``q`` is in the cone of a row only if ``t = (q_axis - apex) *
    sign >= 0``.  The rounded difference has the sign of the exact one
    (also when it overflows), so a cone opening upward from above every
    sample's coordinate, or downward from below every one, holds none; the
    sample's per-axis maximum and minimum settle those rows, and only the
    others are tested against every sample, in blocks.
    """
    hit = np.zeros(X.shape[0], dtype=bool)
    first = np.zeros(X.shape[0], dtype=int)
    top, bottom = P.max(axis=0), P.min(axis=0)
    reach = np.where(sign > 0, apex <= top[axis], apex >= bottom[axis])
    # about four (rows, S) temporaries per block
    step = max(1, metric._SCRATCH_BYTES // (32 * P.shape[0]))
    for i in range(P.shape[1]):
        rows = np.flatnonzero(reach & (axis == i))
        if not rows.size:
            continue
        Xh, Ph = np.delete(X[rows], i, axis=1), np.delete(P, i, axis=1)
        for b in range(0, rows.size, step):
            r = rows[b:b + step]
            with np.errstate(over="ignore"):
                t = (P[None, :, i] - apex[r, None]) * sign[r, None]
            hits = (t >= 0.0) & (sup_dists(Xh[b:b + step], Ph) <= t)
            hit[r] = hits.any(axis=1)
            first[r] = hits.argmax(axis=1)
    if not hit.any():
        return None
    j = int(np.argmax(hit))
    return j, int(first[j])


def _two_diff(a, b):
    """``a - b`` as the exact unevaluated sum ``s + t`` of two doubles, with
    ``s`` the rounded difference (Knuth's TwoSum)."""
    s = a - b
    v = s - a
    return s, (a - (s - v)) - (b + v)


def _exact_le(s1, t1, s2, t2):
    """``s1 + t1 <= s2 + t2`` in real arithmetic, for pairs from
    :func:`_two_diff` (rounding is monotone, so the heads decide unless they
    are equal)."""
    return (s1 < s2) | ((s1 == s2) & (t1 <= t2))


def _dominates(Ci, oi, Cj, oj):
    """``(len(oi), len(oj))`` mask of ``oi + ||Ci - Cj|| <= oj``, decided in
    real arithmetic one coordinate at a time from error-free differences."""
    gap = _two_diff(oj[None, :], oi[:, None])
    le = _exact_le(0.0, 0.0, *gap)
    for k in range(Ci.shape[1]):
        s, t = _two_diff(Ci[:, None, k], Cj[None, :, k])
        le &= _exact_le(np.abs(s), np.where(s < 0.0, -t, t), *gap)
    return le


def _nondominated(C: np.ndarray, o: np.ndarray, sign: int) -> np.ndarray:
    """Mask of the cones of one axis and direction that no other cone makes
    redundant.

    Upper cones (``sign=+1``, joined by a Min) are ``y -> o + ||y - c||``;
    cone i makes cone j redundant when ``o_i + ||c_i - c_j|| <= o_j`` (the
    triangle inequality, tight at ``c_j``).  Lower cones (``sign=-1``,
    joined by a Max) use the mirror rule.  The inequality is decided in real
    arithmetic, so a dropped cone is nowhere tighter than the one that drops
    it, and cones that tie (as along a slope-1 edge) go too; of identical
    cones the first is kept.

    In hat dimension 1 the rule reads ``o_i - c_i <= o_j - c_j`` and ``o_i +
    c_i <= o_j + c_j`` (as ``|d| = max(d, -d)``), and :func:`_swept_mask`
    decides it for all pairs at once by one sort.  It runs while ``max|o| +
    max|c| < 2**1022``: then ``o - c``, ``o + c`` and their :func:`_two_diff`
    errors are exact, and both masks are the exact rule's.  Past that bound,
    and in other dimensions, :func:`_blocked_mask` decides it.
    """
    o = sign * o
    if C.shape[1] == 1:
        c = C[:, 0]
        if float(np.abs(o).max(initial=0.0)) + float(np.abs(c).max(initial=0.0)) < 2.0 ** 1022:
            return _swept_mask(c, o)
    return _blocked_mask(C, o)


def _swept_mask(c: np.ndarray, o: np.ndarray) -> np.ndarray:
    """:func:`_nondominated`'s mask in hat dimension 1, for centres ``c``
    and signed offsets ``o`` whose sums and differences are exact.

    Cone i drops cone j when ``u_i <= u_j`` and ``v_i <= v_j``, with ``u =
    o - c`` and ``v = o + c`` compared exactly as :func:`_two_diff` pairs.
    The cones are ordered by (``u``, ``v``, index), so the cones that can
    drop a cone are exactly the ones before it with no larger ``v``: a cone
    is kept when its ``v`` lies strictly below every earlier one's.  Equal
    pairs are equal cones, so of identical cones the first is kept and the
    rest drop, as do cones that tie.  ``v`` is compared by its dense rank.
    """
    us, ut = _two_diff(o, c)
    vs, vt = _two_diff(o, -c)
    by_v = np.lexsort((vt, vs))
    s, t = vs[by_v], vt[by_v]
    new = np.ones(o.size, dtype=bool)
    new[1:] = (s[1:] != s[:-1]) | (t[1:] != t[:-1])
    rank = np.empty(o.size, dtype=np.intp)
    rank[by_v] = np.cumsum(new)
    order = np.lexsort((rank, ut, us))
    r = rank[order]
    # the least rank before each cone; ranks run from 1 to o.size
    ahead = np.concatenate(([o.size + 1], np.minimum.accumulate(r)))[:-1]
    keep = np.zeros(o.size, dtype=bool)
    keep[order[r < ahead]] = True
    return keep


def _blocked_mask(C: np.ndarray, o: np.ndarray) -> np.ndarray:
    """:func:`_nondominated`'s mask by pairwise tests, for centres ``C`` and
    signed offsets ``o``, in any hat dimension.

    A cone can only be dropped by one of no larger offset, so the cones are
    visited by increasing offset (stable, so identical cones keep their
    order), in blocks.  Each block is first tested against the cones kept
    so far, and only its survivors against the earlier cones of the block.
    Exact dominance is transitive, so a cone dropped by a dropped cone is
    dropped by a kept one, and the mask is the one the pairwise rule gives.
    """
    order = np.argsort(o, kind="stable")
    kept = order[:0]
    # each test is of at most (side, side) pairs, with about eight float
    # temporaries per pair
    side = max(1, math.isqrt(metric._SCRATCH_BYTES // 64))
    for start in range(0, o.size, side):
        J = order[start:start + side]
        for k in range(0, kept.size, side):
            K = kept[k:k + side]
            J = J[~_dominates(C[K], o[K], C[J], o[J]).any(axis=0)]
        beats = _dominates(C[J], o[J], C[J], o[J])
        beats &= np.triu(np.ones((J.size, J.size), dtype=bool), k=1)
        kept = np.concatenate([kept, J[~beats.any(axis=0)]])
    keep = np.zeros(o.size, dtype=bool)
    keep[kept] = True
    return keep


def synthesize_bounds(cfg: ReconstructionConfig) -> BoxLipschitzSet:
    """Bounds whose solution set contains the inside sample and excludes
    every exterior sample.

    One distance cone per exterior point, grouped by (axis, direction) into
    a Min for upper bounds and a Max for lower bounds, keeping only the
    cones no other cone of the group makes redundant (in input order);
    directions with no exterior points stay unconstrained.  Every cone is
    checked against the whole inside sample; an overlap means the separation
    hypothesis failed (``a`` too large, or the sampled set is not of the
    representable kind).  Errors name the first offending exterior point in
    input order.
    """
    n = cfg.n
    lower = [Infinite(-1)] * n
    upper = [Infinite(1)] * n
    P, X = cfg._inside, cfg._outside
    if not len(X):
        return BoxLipschitzSet(lower, upper)
    eps, arg = epsilon_many(P, X)
    axis, sign, apex, ok = _cones(X, P[arg], eps, cfg.a)
    bad = (eps <= 0.0) | ~ok
    first_bad = int(np.argmax(bad)) if bad.any() else X.shape[0]
    head = slice(0, first_bad)
    overlap = _first_overlap(P, X[head], axis[head], sign[head], apex[head])
    if overlap is not None:
        j, q = overlap
        x, q = _point(X[j]), _point(P[q])
        raise ConeOverlapError(f"cone of exterior point {x} contains inside sample {q}", x, q)
    if first_bad < X.shape[0]:
        x, e = _point(X[first_bad]), float(eps[first_bad])
        if e <= 0.0:
            raise ValueError(
                f"margin of {x} is not positive; the point is metrically "
                f"between inside samples")
        # With eps > 0, x is no inside sample, so x != p; the apex moves from
        # x toward p by a * eps <= 2 a d(x, p) < d(x, p) / 4, so it is finite,
        # and x is strictly interior unless the apex rounds onto x.  When the
        # largest a below A_MAX would move it, a is what is too small;
        # otherwise the margin is a rounding residue of a zero one
        x_axis = float(X[first_bad, axis[first_bad]])
        if x_axis - int(sign[first_bad]) * (math.nextafter(A_MAX, 0.0) * e) != x_axis:
            raise ValueError(
                f"a = {cfg.a!r} is too small for the margin {e!r} of {x}: a * margin = "
                f"{cfg.a * e!r} vanishes against the point, so the apex of its cone rounds onto it")
        raise ValueError(
            f"margin {e!r} of {x} is not positive beyond rounding: the apex of its "
            f"cone rounds onto the point")
    for i in range(n):
        for s, bounds, family in ((1, upper, Min), (-1, lower, Max)):
            rows = np.flatnonzero((axis == i) & (sign == s))
            if rows.size == 0:
                continue
            C, o = np.delete(X[rows], i, axis=1), apex[rows]
            kept = _nondominated(C, o, s)
            bounds[i] = _cone_family(family, C[kept], o[kept], s)
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
    """Compare an oracle with reconstructed membership on a point grid.

    The grid is read by :func:`~hyperlip.metric.as_points`, and the oracle
    asked once, for the whole grid (see :func:`_batch`); it must answer one
    boolean per grid point, as a bool array or a list of bools (an answer
    of any other dtype is refused, not read as indices).  ``tol`` must be
    finite and nonnegative."""
    tol = _nonnegative(tol, "tol")
    G = as_points(grid)
    if not len(G):
        return ReconstructionReport(0, (), ())
    truth = np.asarray(_batch(membership)(G))
    if truth.shape != (len(G),):
        raise ValueError(f"the oracle answered shape {truth.shape} for {len(G)} grid points")
    if truth.dtype != bool:
        raise ValueError(f"the oracle answered dtype {truth.dtype}, not bool")
    inside_rec = violation_many(Q_rec, G) <= tol

    def points(mask):
        return tuple(map(tuple, G[mask].tolist()))

    return ReconstructionReport(G.shape[0], points(inside_rec & ~truth), points(truth & ~inside_rec))


class _SampleMembership:
    """Accepts exactly the points within ``tol`` of an inside sample: one
    point by calling the oracle, the rows of an ``(N, n)`` array with
    :meth:`many`.

    Rounding is monotone, so a point whose rounded difference from the
    sample's per-axis maximum exceeds ``tol`` on some axis (or from its
    minimum falls below ``-tol``) has such a difference from every sample
    too, and is rejected without a distance row; only the other points are
    measured against the whole sample, in blocks."""

    def __init__(self, inside, tol):
        self._P = as_points(inside)
        if not len(self._P):
            raise ValueError("need at least one inside sample")
        self._tol = tol
        self._top, self._bottom = self._P.max(axis=0), self._P.min(axis=0)

    def __call__(self, x) -> bool:
        return bool(self.many([as_point(x)])[0])

    def many(self, G) -> np.ndarray:
        G = as_points(G)
        P, tol = self._P, self._tol
        if not len(G):
            return np.zeros(0, dtype=bool)
        if G.shape[1] != P.shape[1]:
            raise ValueError(f"dimension mismatch: {G.shape[1]} vs {P.shape[1]}")
        with np.errstate(over="ignore"):
            far = ((G - self._top > tol) | (G - self._bottom < -tol)).any(axis=1)
        rows = np.flatnonzero(~far)
        out = np.zeros(G.shape[0], dtype=bool)
        step = max(1, metric._SCRATCH_BYTES // (8 * P.shape[0]))
        for r in range(0, rows.size, step):
            near = rows[r:r + step]
            out[near] = (sup_dists(G[near], P) <= tol).any(axis=1)
        return out


def _batch(membership):
    """The batch form of a membership oracle: its ``many`` method when it
    has one, else a loop that asks it about each row as a point tuple."""
    many = getattr(membership, "many", None)
    if many is not None:
        return many
    return lambda G: np.array([bool(membership(tuple(g))) for g in G.tolist()], dtype=bool)


def membership_from_samples(inside, tol: float = 1e-9):
    """Oracle that accepts exactly the points within ``tol`` of a sample.

    It answers for one point when called, and for the rows of an
    ``(N, n)`` array through its ``many`` method, with the same booleans.
    The sample must hold at least one point, all of one dimension, and
    ``tol`` must be finite and nonnegative, so that every sample passes."""
    return _SampleMembership(inside, _nonnegative(tol, "tol"))
