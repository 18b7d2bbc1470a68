"""Sets cut out by Lipschitz coordinate bounds, and their retractions.

A :class:`BoxLipschitzSet` in dimension ``n`` is the solution set of

    lower_i(x with coordinate i dropped)  <=  x_i  <=  upper_i(...),

one pair of bounds per axis, where each finite bound is a grammar expression
from :mod:`hyperlip.lipfun` on the (n-1)-dimensional hat space.  The maximal
syntactic Lipschitz constant of the bounds is the level ``lip_bound`` of the
set; the grammar keeps it in [0, 1].

Retraction onto such a set runs single-coordinate projections cyclically.
Below level 1 the displacement sequence decays geometrically sweep over
sweep, which both terminates the iteration and certifies the result; at
level exactly 1 the iteration can stall or drift, and one relaxation rule
(``_level_one``, behind :func:`retract_lambda_one_bounded`,
:func:`retract_lambda_one_general`, :func:`find_point` and the CLI) replaces
the set by a slightly shrunken or ball-truncated one whose level is strictly
below 1.

Every iterative routine here also has a ``*_many`` batch variant that runs
all inputs on one shared sweep schedule.  A shared schedule means the whole
batch is moved by one and the same finite composition of 1-Lipschitz
projection steps, so results for any two inputs of one call are themselves
1-Lipschitz related (up to float rounding); per-call adaptive stopping of
the scalar variants guarantees only the stated tolerance per point.

The batch engine stops evaluating a row once a full sweep moved it by
exactly 0.0.  This is exact, not an approximation: a row that does not move
over a whole sweep sees the same inputs on every later sweep, so each later
step would move it by 0.0 again.  Batch results therefore equal those of
running every row through every sweep, and the sweep count and stopping rule
are those of the whole batch.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

# ``_compile`` is no longer called here (the engines and ``violation`` read
# paired evaluators), but bench/tracing.py patches this binding.
from .lipfun import (
    Const,
    Infinite,
    LipExpr,
    Max,
    Min,
    _compile,
    _compile_grid_pair,
    _compile_pair,
    bounds_of,
    domain_dim,
    eval_grid,
    expr_from_obj,
    expr_to_obj,
    lip_bound,
    shrink,
)
from .metric import Point, as_point, hat

__all__ = [
    "BoxLipschitzSet",
    "IterationTrace",
    "InconsistentBoundsError",
    "MaxSweepsExceededError",
    "UnsupportedSetError",
    "DivergenceDetectedError",
    "violation",
    "violation_many",
    "cyclic_iterate",
    "cyclic_retract",
    "cyclic_retract_many",
    "enclosure_bounds",
    "relaxation_order",
    "shrink_set",
    "retract_lambda_one_bounded",
    "retract_lambda_one_bounded_many",
    "truncated_set",
    "retract_lambda_one_general",
    "retract_lambda_one_general_many",
    "find_point",
    "detect_noncontraction",
    "check_decay_certificate",
    "trace_to_csv",
    "set_to_obj",
    "set_from_obj",
]

STALL_RTOL = 1e-9


class InconsistentBoundsError(ValueError):
    """Raised when lower_i > upper_i at a queried hat point."""


class MaxSweepsExceededError(RuntimeError):
    """The sweep budget ran out before the stopping rule fired."""


class UnsupportedSetError(ValueError):
    """The set admits no retraction strategy with the given data."""


class DivergenceDetectedError(RuntimeError):
    """A level-1 relaxation failed to certify; carries the probe verdict."""

    def __init__(self, message, verdict, trace):
        super().__init__(message)
        self.verdict = verdict
        self.trace = trace


class BoxLipschitzSet:
    """Immutable pair of bound tuples with validated shape.

    ``lower[i]`` is either a finite grammar expression on the hat space of
    axis ``i`` or ``Infinite(-1)``; ``upper[i]`` likewise with
    ``Infinite(+1)``.  Whether the two bounds are consistent (lower <= upper)
    is a property of function values and is checked lazily: querying
    :func:`violation` at a point where they cross raises
    :class:`InconsistentBoundsError`.

    The set holds its compiled bounds: :attr:`_pairs` has one scalar
    evaluator per axis, which returns ``(lower_i, upper_i)`` at a hat point,
    built on first use and kept for the set's lifetime.  A missing bound
    evaluates to ``-inf`` (lower) or ``+inf`` (upper).  The batch
    evaluators (:func:`_grid_pairs`) are built per call.
    """

    def __init__(self, lower: Sequence[LipExpr], upper: Sequence[LipExpr]):
        lower = tuple(lower)
        upper = tuple(upper)
        if not lower or len(lower) != len(upper):
            raise ValueError("need one lower and one upper bound per axis")
        n = len(lower)
        lam = 0.0
        for side, sign, bounds in (("lower", -1, lower), ("upper", 1, upper)):
            for i, b in enumerate(bounds):
                if not isinstance(b, LipExpr):
                    raise TypeError(f"{side} bound {i} is not a LipExpr")
                if isinstance(b, Infinite):
                    if b.sign != sign:
                        raise ValueError(f"{side} bound {i} has the wrong infinity sign")
                    continue
                d = domain_dim(b)
                if d is not None and d != n - 1:
                    raise ValueError(
                        f"{side} bound {i} works in dimension {d}, expected {n - 1}")
                lam = max(lam, lip_bound(b))
        self._lower = lower
        self._upper = upper
        self._lam = lam

    @property
    def n(self) -> int:
        return len(self._lower)

    @property
    def lower(self) -> tuple:
        return self._lower

    @property
    def upper(self) -> tuple:
        return self._upper

    @property
    def lip_bound(self) -> float:
        """Maximal Lipschitz constant over all finite bounds (0 if none)."""
        return self._lam

    @cached_property
    def _pairs(self) -> tuple:
        """Per axis, ``y -> (lower_i(y), upper_i(y))`` at a hat point ``y``."""
        return tuple(_compile_pair(lo, up) for lo, up in zip(self._lower, self._upper))

    @property
    def all_finite(self) -> bool:
        return not any(isinstance(b, Infinite) for b in self._lower + self._upper)

    def __eq__(self, other):
        return (isinstance(other, BoxLipschitzSet)
                and self._lower == other._lower and self._upper == other._upper)

    def __repr__(self):
        return f"BoxLipschitzSet(n={self.n}, lip_bound={self._lam:g})"


@dataclass(frozen=True)
class IterationTrace:
    """Record of a cyclic projection run.

    ``displacements[k]`` is the signed move of coordinate ``k % dim`` at step
    ``k`` (0-based).  ``initial_block_max`` is the reference size ``D`` of the
    first sweep against which the geometric decay certificate is stated.
    """

    dim: int
    start: Point
    displacements: tuple
    final: Point

    @property
    def steps(self) -> int:
        return len(self.displacements)

    @property
    def initial_block_max(self) -> float:
        first = self.displacements[:self.dim]
        return max(abs(d) for d in first) if first else 0.0

    def points(self) -> list:
        """All iterates, starting point first, one per step thereafter."""
        pos = list(self.start)
        out = [tuple(pos)]
        for k, d in enumerate(self.displacements):
            pos[k % self.dim] += d
            out.append(tuple(pos))
        return out


def trace_to_csv(trace: IterationTrace) -> str:
    """Displacements as CSV with 0-based step and axis columns."""
    buf = io.StringIO()
    buf.write("step,axis,displacement\n")
    for k, d in enumerate(trace.displacements):
        buf.write(f"{k},{k % trace.dim},{d!r}\n")
    return buf.getvalue()


def check_decay_certificate(trace: IterationTrace, lam: float, slack: float = 1e-9) -> list:
    """Audit a trace against the two displacement decay bounds.

    For every step ``k >= dim`` the displacement must obey both

        |d_k| <= lam * max(|d_{k-dim+1}|, ..., |d_{k-1}|) + slack
        |d_k| <= D * lam ** (k // dim) + slack

    where ``D`` is the first-sweep maximum.  Returns the list of violating
    step indices (empty when the certificate holds).
    """
    n = trace.dim
    d = [abs(v) for v in trace.displacements]
    D = trace.initial_block_max
    bad = []
    for k in range(n, len(d)):
        recent = max(d[k - n + 1:k]) if n > 1 else 0.0
        if d[k] > lam * recent + slack:
            bad.append(k)
            continue
        if d[k] > D * lam ** (k // n) + slack:
            bad.append(k)
    return bad


def detect_noncontraction(trace: IterationTrace) -> str:
    """Classify the tail of a trace as ``'decaying'`` or ``'stalled'``.

    Compares the largest displacement magnitude over the last ``4 * dim``
    steps against the window before it; no decay (within a relative 1e-9)
    means the iteration is not contracting, which is how level-1 sets with
    empty or degenerate solution sets surface in practice.  A tail of exact
    zeros is a reached fixed point and reads ``'decaying'``.
    """
    window = 4 * trace.dim
    d = [abs(v) for v in trace.displacements]
    if len(d) < 2 * window:
        raise ValueError(f"trace too short: need at least {2 * window} steps, have {len(d)}")
    last = max(d[-window:])
    prev = max(d[-2 * window:-window])
    return "stalled" if last > 0.0 and last >= (1.0 - STALL_RTOL) * prev else "decaying"


# ---------------------------------------------------------------------------
# membership


def _grid_pairs(Q) -> list:
    """Per axis, ``YT -> (lower values, upper values)`` at the hat points
    held as the columns of ``YT``.  Built per call rather than kept on the
    set like :attr:`BoxLipschitzSet._pairs`: kept, the small row arrays of
    every set a batch workload touches stay allocated between the engine's
    large temporaries, which raised the benchmark's peak RSS by ~1 MB."""
    return [_compile_grid_pair(lo, up) for lo, up in zip(Q.lower, Q.upper)]


def _crossed(i, point, lo, up) -> InconsistentBoundsError:
    """The error for a lower bound above the upper one on axis ``i``."""
    point = tuple(float(c) for c in point)
    return InconsistentBoundsError(
        f"bounds cross on axis {i} at {point}: lower={float(lo)!r} > upper={float(up)!r}")


def _rows(Q, X) -> np.ndarray:
    """``X`` as an ``(N, Q.n)`` float array; like :func:`as_point`, rejects
    non-finite coordinates."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected rows of points, got shape {X.shape}")
    if X.shape[1] != Q.n:
        raise ValueError(f"points of dimension {X.shape[1]} in a set of dimension {Q.n}")
    if not np.isfinite(X).all():
        raise ValueError("point coordinates must be finite")
    return X


def violation(Q: BoxLipschitzSet, x) -> float:
    """Worst constraint deficit of ``x``; 0 exactly when ``x`` is a member."""
    x = as_point(x)
    if len(x) != Q.n:
        raise ValueError(f"point of dimension {len(x)} in a set of dimension {Q.n}")
    worst = 0.0
    for i, pair in enumerate(Q._pairs):
        lo, up = pair(hat(x, i))
        if lo > up:
            raise _crossed(i, x, lo, up)
        worst = max(worst, lo - x[i], x[i] - up)
    return worst


def violation_many(Q: BoxLipschitzSet, X) -> np.ndarray:
    """Vectorized :func:`violation` over the rows of ``X``."""
    X = _rows(Q, X)
    worst = np.zeros(X.shape[0])
    for i in range(Q.n):
        H = np.delete(X, i, axis=1)
        lo, up = eval_grid(Q.lower[i], H), eval_grid(Q.upper[i], H)
        crossed = lo > up
        if crossed.any():
            j = int(np.argmax(crossed))
            raise _crossed(i, X[j], lo[j], up[j])
        np.maximum(worst, lo - X[:, i], out=worst)
        np.maximum(worst, X[:, i] - up, out=worst)
    return worst


# ---------------------------------------------------------------------------
# cyclic projection engines


def _scalar_sweeps(Q, x, threshold, max_sweeps, fixed_steps=None):
    """Run cyclic projections; returns (final list, displacement list).

    Either iterate full sweeps until the largest displacement of a sweep is
    at most ``threshold`` (raising after ``max_sweeps``), or run exactly
    ``fixed_steps`` single steps with no stopping rule.
    """
    n = Q.n
    pairs = Q._pairs
    pos = list(x)
    disp = []

    def step(i):
        lo, up = pairs[i](pos[:i] + pos[i + 1:])
        if lo > up:
            raise _crossed(i, pos, lo, up)
        c = pos[i]
        # only a coordinate strictly outside moves, onto bound + 0.0, so a
        # member keeps its bits (a -0.0 too) and a moved zero is +0.0
        new = lo + 0.0 if c < lo else up + 0.0 if c > up else c
        d = new - c
        pos[i] = new
        disp.append(d)
        return d

    if fixed_steps is not None:
        for k in range(fixed_steps):
            step(k % n)
        return pos, disp

    for _ in range(max_sweeps):
        worst = 0.0
        for i in range(n):
            d = abs(step(i))
            if d > worst:
                worst = d
        if worst <= threshold:
            return pos, disp
    raise MaxSweepsExceededError(
        f"no convergence within {max_sweeps} sweeps (threshold {threshold:g})")


def _batch_sweeps(Q, X, threshold, max_sweeps, record):
    """Batch twin of :func:`_scalar_sweeps` on one shared sweep schedule.

    Each step reads its axis's paired evaluator, compiled once per call, and
    the rows are held as the columns of a transposed copy of ``X`` so that
    each step reads its hat points with one precomputed column-index list.
    A row whose full sweep moved it by exactly 0.0 leaves the active set and
    is never evaluated again: every step of that sweep saw the row's current
    point and left it in place, so a later sweep sees the same inputs at
    every step and moves it by 0.0 again.  The output therefore equals that
    of running every row through every sweep, and the whole batch still goes
    through one shared composition of projection steps.

    Stops after the first full sweep whose largest displacement over the
    batch is at most ``threshold``, raising after ``max_sweeps``.  With
    ``record``, the second result holds one displacement vector over all
    rows per step, with 0.0 for frozen rows; otherwise it is ``None``.
    """
    n = Q.n
    pairs = _grid_pairs(Q)
    others = [[j for j in range(n) if j != i] for i in range(n)]
    out = np.array(X, dtype=float)
    XT = out.T.copy()                   # active rows as columns
    rows = np.arange(len(out))          # their row numbers in ``out``
    disp = [] if record else None
    for _ in range(max_sweeps):
        worst = 0.0
        moved = np.zeros(len(rows), dtype=bool)
        for i in range(n):
            lo, up = pairs[i](XT[others[i]])
            crossed = lo > up
            if crossed.any():
                j = int(np.argmax(crossed))
                raise _crossed(i, XT[:, j], lo[j], up[j])
            c = XT[i]
            new = np.minimum(up, np.maximum(lo, c))
            # the scalar rule's bits: min and max match it except on zeros,
            # where a coordinate already zero stays and a moved one is +0.0
            zero = new == 0.0
            if zero.any():
                new[zero] = np.where(c[zero] == 0.0, c[zero], 0.0)
            d = new - c
            XT[i] = new
            moved |= d != 0.0
            if record:
                full = np.zeros(len(out))
                full[rows] = d
                disp.append(full)
            m = float(np.abs(d).max()) if len(d) else 0.0
            if m > worst:
                worst = m
        if worst <= threshold:
            out[rows] = XT.T
            return out, disp
        if not moved.all():
            out[rows[~moved]] = XT[:, ~moved].T
            XT, rows = XT.compress(moved, axis=1), rows[moved]
    raise MaxSweepsExceededError(
        f"no convergence within {max_sweeps} sweeps (threshold {threshold:g})")


def cyclic_iterate(Q: BoxLipschitzSet, x, steps: int) -> IterationTrace:
    """Run exactly ``steps`` single-coordinate projections, no stopping rule.

    This is the raw iteration, valid at any Lipschitz level; it is the
    diagnostic used to watch level-1 sets stall or drift.
    """
    x = as_point(x)
    if len(x) != Q.n:
        raise ValueError(f"point of dimension {len(x)} in a set of dimension {Q.n}")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    pos, disp = _scalar_sweeps(Q, x, None, None, fixed_steps=steps)
    return IterationTrace(Q.n, x, tuple(disp), tuple(pos))


def cyclic_retract(Q: BoxLipschitzSet, x, tol: float = 1e-6,
                   max_sweeps: int = 100_000):
    """Retract ``x`` onto a set of Lipschitz level strictly below 1.

    Sweeps stop once every displacement of a sweep is at most
    ``tol * (1 - lip_bound)``; summing the geometric tail, the returned point
    is then within ``tol`` of the true limit and its residual
    :func:`violation` is at most ``lip_bound * (1 - lip_bound) * tol``.

    Returns ``(point, trace)``.
    """
    x = as_point(x)
    if len(x) != Q.n:
        raise ValueError(f"point of dimension {len(x)} in a set of dimension {Q.n}")
    lam = Q.lip_bound
    if lam >= 1.0:
        raise UnsupportedSetError(
            f"cyclic retraction requires Lipschitz level < 1, set has {lam:g}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    threshold = tol * (1.0 - lam)
    pos, disp = _scalar_sweeps(Q, x, threshold, max_sweeps)
    return tuple(pos), IterationTrace(Q.n, x, tuple(disp), tuple(pos))


def cyclic_retract_many(Q: BoxLipschitzSet, X, tol: float = 1e-6,
                        max_sweeps: int = 100_000, record: bool = False):
    """Batch :func:`cyclic_retract` on one shared sweep schedule.

    Returns ``(points, traces)`` where ``traces`` is a list of per-row
    :class:`IterationTrace` objects when ``record`` is true, else ``None``.
    The shared schedule makes the realized map a single composition of
    projection steps, hence 1-Lipschitz across the whole batch.
    """
    X = _rows(Q, X)
    lam = Q.lip_bound
    if lam >= 1.0:
        raise UnsupportedSetError(
            f"cyclic retraction requires Lipschitz level < 1, set has {lam:g}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    threshold = tol * (1.0 - lam)
    final, disp = _batch_sweeps(Q, X, threshold, max_sweeps, record)
    traces = None
    if record:
        D = np.stack(disp, axis=0) if disp else np.zeros((0, X.shape[0]))
        traces = [IterationTrace(Q.n, tuple(X[j]), tuple(D[:, j]), tuple(final[j]))
                  for j in range(X.shape[0])]
    return final, traces


# ---------------------------------------------------------------------------
# level-1 strategies


def enclosure_bounds(Q: BoxLipschitzSet, box) -> tuple:
    """Common floor ``l`` and ceiling ``u`` of every bound function over an
    ambient working box (a pair per axis of the full space).

    Both enclosures range over all ``2 n`` bounds: the shrink guarantee needs
    ``l <= lower_i <= u`` and ``l <= upper_i <= u`` simultaneously, not the
    one-sided envelopes.  The relaxation guarantee of
    :func:`retract_lambda_one_bounded` is valid wherever these enclosures
    actually bound the functions, so the box should cover the region the
    iterates move through.
    """
    box = [(float(a), float(b)) for a, b in box]
    if len(box) != Q.n:
        raise ValueError(f"expected a box with {Q.n} sides, got {len(box)}")
    if not Q.all_finite:
        raise UnsupportedSetError("enclosures need all bounds finite")
    lows = []
    ups = []
    for i in range(Q.n):
        hat_box = box[:i] + box[i + 1:]
        for b in (Q.lower[i], Q.upper[i]):
            a, c = bounds_of(b, hat_box)
            lows.append(a)
            ups.append(c)
    l, u = min(lows), max(ups)
    if l > u:
        raise InconsistentBoundsError(f"enclosures cross: l={l!r} > u={u!r}")
    return l, u


def relaxation_order(span: float, tol: float) -> int:
    """Shrink index ``k`` making the relaxed-set defect ``span / k <= tol``.

    Refuses a ``tol`` so small that the shrink factor ``1 - 1/k`` of
    :func:`shrink_set` rounds to 1, which would leave the set at level 1.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if span < 0:
        raise ValueError("span must be nonnegative")
    ratio = span / tol
    if not math.isfinite(ratio):
        raise ValueError(f"span / tol overflows: span={span!r}, tol={tol!r}")
    k = int(math.ceil(ratio)) + 1
    if 1.0 - 1.0 / k == 1.0:
        raise ValueError(f"tol={tol!r} is below what the relaxation can represent: "
                         f"its shrink factor 1 - 1/k rounds to 1 at k={k} (span={span!r})")
    return k


def shrink_set(Q: BoxLipschitzSet, k: int, l, u) -> BoxLipschitzSet:
    """Shrink every bound by ``1 - 1/k`` toward the anchors ``l`` and ``u``.

    ``l`` and ``u`` are numbers, or one anchor per axis.  The upper bounds of
    axis ``i`` contract toward ``u_i`` and its lower bounds toward ``l_i``,
    so the result contains the original set wherever the anchors really
    enclose the bound values, and its Lipschitz level drops to
    ``(1-1/k) * lip_bound``.  The shrunken sets are nested over increasing
    ``k`` and their intersection recovers the original set.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if not Q.all_finite:
        raise UnsupportedSetError("shrinking needs all bounds finite")
    lows, ups = (np.broadcast_to(np.asarray(a, dtype=float), Q.n).tolist() for a in (l, u))
    for a, b in zip(lows, ups):
        if a > b:
            raise ValueError(f"anchors cross: l={a!r} > u={b!r}")
    lam_k = 1.0 - 1.0 / k
    lower = [shrink(b, lam_k, a) for b, a in zip(Q.lower, lows)]
    upper = [shrink(b, lam_k, a) for b, a in zip(Q.upper, ups)]
    return BoxLipschitzSet(lower, upper)


def truncated_set(Q: BoxLipschitzSet, witness, r: float) -> BoxLipschitzSet:
    """Intersect ``Q`` with the ball of radius ``r`` around a member ``w``.

    The result keeps ``Q``'s coordinates: every bound of axis ``i`` is
    clamped into ``[w_i - r, w_i + r]``, and a missing bound becomes the
    matching end of that interval.  All bounds of the truncated set are
    finite, so the anchors ``w_i - r`` and ``w_i + r`` enclose them
    globally, and a member of ``Q`` inside the ball stays a member.
    """
    w = as_point(witness)
    if len(w) != Q.n:
        raise ValueError(f"witness of dimension {len(w)} for a set of dimension {Q.n}")
    if r <= 0:
        raise ValueError("radius must be positive")
    lower = []
    upper = []
    for lo, up, c in zip(Q.lower, Q.upper, w):
        low_cut, high_cut = Const(c - r), Const(c + r)
        lower.append(low_cut if isinstance(lo, Infinite) else Min(Max(lo, low_cut), high_cut))
        upper.append(high_cut if isinstance(up, Infinite) else Min(Max(up, low_cut), high_cut))
    return BoxLipschitzSet(lower, upper)


def _auto_box(Q, X):
    """Working box of the shrink strategy for the starts ``X`` (one point or
    rows of points): the cube of half-width ``2 (1 + max |x_ij| + s)``, ``s``
    the largest bound magnitude at the hat origin."""
    zero_hat = (0.0,) * (Q.n - 1)
    scale = max(0.0, *(abs(v) for pair in Q._pairs for v in pair(zero_hat)))
    R = 2.0 * (1.0 + float(np.abs(np.asarray(X, dtype=float)).max(initial=0.0)) + scale)
    return [(-R, R)] * Q.n


def _level_one(Q, X, tol, box=None, witness=None):
    """The relaxation rule of every level-1 retraction of the starts ``X``.

    With all bounds finite, shrink toward the enclosures ``[l, u]`` over
    ``box`` (default: :func:`_auto_box` of ``X``).  Otherwise truncate to the
    ball of radius ``r = 2 max ||x - w|| + 1`` around the member ``witness``,
    which keeps every member the iteration could be asked to fix, and shrink
    the truncation toward the anchors ``w_i - r`` and ``w_i + r`` of each
    axis.  The relaxed set keeps ``Q``'s coordinates, so the starts go in
    as they are and members come back bit for bit.  Either way
    ``k = relaxation_order(span, tol)``, ``span`` the largest ``u_i - l_i``
    (``2 r`` when the anchors are exact).  Returns ``(target, engine_tol,
    max_sweeps, report)``: the relaxed set, of level below 1; the cyclic
    run's tolerance ``tol / 4`` and budget ``50 k + 1000``; and the
    ``strategy`` with ``k`` and the ``enclosure`` or ``radius``.
    """
    X = _rows(Q, X)
    if Q.all_finite:
        l, u = enclosure_bounds(Q, _auto_box(Q, X) if box is None else box)
        base, report = Q, {"strategy": "shrink", "enclosure": [l, u]}
    elif witness is None:
        raise UnsupportedSetError("a level-1 set with missing bounds needs a witness member")
    else:
        w = as_point(witness)
        v = violation(Q, w)
        if v != 0.0:
            raise ValueError(f"witness {w} is not a member (violation {v:g})")
        r = 2.0 * float(np.abs(X - np.asarray(w)).max(initial=0.0)) + 1.0
        l, u = [c - r for c in w], [c + r for c in w]
        base, report = truncated_set(Q, w, r), {"strategy": "truncate", "radius": r}
    k = report["k"] = relaxation_order(float(np.max(np.subtract(u, l))), tol)
    return shrink_set(base, k, l, u), tol / 4, 50 * k + 1000, report


def _retract_level_one(Q, x, tol, box=None, witness=None) -> Point:
    """Retract one point onto the relaxed set of :func:`_level_one`."""
    x = as_point(x)
    target, engine_tol, budget, _ = _level_one(Q, [x], tol, box, witness)
    return cyclic_retract(target, x, engine_tol, budget)[0]


def _retract_level_one_many(Q, X, tol, box=None, witness=None) -> np.ndarray:
    """Batch :func:`_retract_level_one` on one shared schedule."""
    target, engine_tol, budget, _ = _level_one(Q, X, tol, box, witness)
    return cyclic_retract_many(target, X, engine_tol, budget)[0]


def retract_lambda_one_bounded(Q: BoxLipschitzSet, x, tol: float, box) -> Point:
    """Approximate retraction onto a finite-bounded set at Lipschitz level 1.

    Shrinks the bounds by ``1 - 1/k`` toward their enclosures over ``box``
    (``None`` for the default box of :func:`_level_one`), with
    ``k = ceil((u - l)/tol) + 1``, and retracts onto the shrunken set, which
    is again of the same class but strictly below level 1.  Members of the
    original set inside the working box are also members of the shrunken
    set and are returned unchanged.  As long as the iterates stay where the
    enclosures are valid, the result violates the original bounds by at most
    ``(u - l + tol)/k <= tol``.  A set with missing bounds is truncated as in
    :func:`retract_lambda_one_general`, which needs a witness.
    """
    return _retract_level_one(Q, x, tol, box=box)


def retract_lambda_one_bounded_many(Q: BoxLipschitzSet, X, tol: float, box) -> np.ndarray:
    """Batch :func:`retract_lambda_one_bounded` on one shared schedule."""
    return _retract_level_one_many(Q, X, tol, box=box)


def retract_lambda_one_general(Q: BoxLipschitzSet, witness, x, tol: float) -> Point:
    """Retraction at level 1 with possibly unbounded or missing bounds.

    Needs one known member.  Truncates the set to the ball of radius
    ``r = 2 * sup_dist(x, witness) + 1`` around the witness and runs the
    shrinking strategy on the truncation, whose enclosures
    ``[w_i - r, w_i + r]`` hold globally (the rule of :func:`_level_one`).
    Members inside the ball come back bit for bit.  A set whose bounds are all
    finite is shrunk over the default box instead, like
    :func:`retract_lambda_one_bounded` with ``box=None``.
    """
    return _retract_level_one(Q, x, tol, witness=witness)


def retract_lambda_one_general_many(Q: BoxLipschitzSet, witness, X, tol: float) -> np.ndarray:
    """Batch :func:`retract_lambda_one_general` with one common radius."""
    return _retract_level_one_many(Q, X, tol, witness=witness)


def _probe_steps(n):
    """Length of the raw-iteration probe run after a failed relaxation."""
    return 40 * n


def _check_relaxed(Q, start, gap, tol):
    """Raise :class:`DivergenceDetectedError` when a level-1 relaxation from
    ``start`` missed ``Q`` by a ``gap`` above ``tol``; the error carries the
    verdict of the raw iteration probed from ``start``."""
    if gap <= tol:
        return
    probe = cyclic_iterate(Q, start, _probe_steps(Q.n))
    verdict = detect_noncontraction(probe)
    raise DivergenceDetectedError(
        f"relaxation missed the set by {gap:g} (> tol {tol:g}); "
        f"raw iteration verdict: {verdict}", verdict, probe)


def find_point(Q: BoxLipschitzSet, tol: float = 1e-9) -> Point:
    """Produce some member of ``Q`` (within ``tol``) by retracting the origin.

    Below level 1 the iteration converges outright.  At level 1 with all
    bounds finite the relaxation is tried; if the returned point still
    violates the bounds by more than ``tol`` the set is empty or degenerate
    at the working scale, and the raw iteration is probed to attach a
    ``'stalled'``/``'decaying'`` verdict to the failure.  At level 1 with
    missing bounds there is nothing to anchor the search and the call is
    unsupported (supply a witness and use the general retraction instead).
    """
    origin = (0.0,) * Q.n
    if Q.lip_bound < 1.0:
        return cyclic_retract(Q, origin, tol)[0]
    point = _retract_level_one(Q, origin, tol)
    _check_relaxed(Q, origin, violation(Q, point), tol)
    return point


# ---------------------------------------------------------------------------
# JSON form


def set_to_obj(Q: BoxLipschitzSet) -> dict:
    def encode(b):
        if isinstance(b, Infinite):
            return "-inf" if b.sign < 0 else "+inf"
        return expr_to_obj(b)

    return {"n": Q.n,
            "lower": [encode(b) for b in Q.lower],
            "upper": [encode(b) for b in Q.upper]}


def set_from_obj(obj) -> BoxLipschitzSet:
    if not isinstance(obj, dict):
        raise ValueError("malformed set object")
    try:
        n = obj["n"]
        raw_lower = obj["lower"]
        raw_upper = obj["upper"]
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in set object") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"set dimension n must be an integer, got {n!r}")
    if len(raw_lower) != n or len(raw_upper) != n:
        raise ValueError("bound lists do not match the declared dimension")

    def decode(entry):
        if entry == "-inf":
            return Infinite(-1)
        if entry == "+inf":
            return Infinite(1)
        return expr_from_obj(entry)

    lower = [decode(e) for e in raw_lower]
    upper = [decode(e) for e in raw_upper]
    return BoxLipschitzSet(lower, upper)
