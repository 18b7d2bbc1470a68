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
(``_level_one``) replaces the set by a slightly shrunken or ball-truncated
one whose level is strictly below 1.  :func:`retract` picks the strategy
(cyclic, shrink or truncate) from the set; the ``retract_lambda_one_*``
functions, :func:`hyperlip.extension.extend_into_Q` and the CLI at level 1
go through it, and the CLI below level 1 calls :func:`cyclic_retract`.

That relaxed set ``Q_k`` is the last term of a family nested decreasing in
``k`` whose intersection is the set, and one cyclic run on it contracts only
at the rate ``1 - 1/k``, with ``k`` of order ``span / tol``.  So a level-1
retraction walks the family instead: a short first run at the final ``k``,
and when that does not converge, warm-started runs at
``k / 10**j, ..., k / 10`` and a last run at ``k`` under the one-run stopping
rule.  Each run is again a composition of single-coordinate projections
onto a set containing the original inside the working box, so the guarantees
below hold for the whole walk, and the sweeps no longer grow like ``1/tol``.

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
from functools import cached_property, partial
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
    eval_grid,
    expr_from_obj,
    expr_to_obj,
    shrink,
)
from .metric import Point, as_point, hat, sup_dists

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
    "retract",
    "detect_noncontraction",
    "check_decay_certificate",
    "trace_to_csv",
    "set_to_obj",
    "set_from_obj",
]

STALL_RTOL = 1e-9
# level-1 continuation (:func:`retract`): sweeps of the first run at the
# final order k, the ratio of one stage's order to the next, and the least
# order of a stage
_FIRST_SWEEPS = 64
_STAGE_RATIO = 10
_STAGE_FLOOR = 10


class InconsistentBoundsError(ValueError):
    """Raised when lower_i > upper_i at a queried hat point."""


class MaxSweepsExceededError(RuntimeError):
    """The sweep budget ran out before the stopping rule fired.

    ``state`` holds what the call would have returned had its stopping rule
    fired after the last sweep, so that a caller can go on from there."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


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
                if b.dim is not None and b.dim != n - 1:
                    raise ValueError(
                        f"{side} bound {i} works in dimension {b.dim}, expected {n - 1}")
                lam = max(lam, b.lip)
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

    where ``D`` is the first-sweep maximum.  A power too large for a float
    reads ``inf``, and at ``D = 0`` the second bound is 0.  Returns the list
    of violating step indices (empty when the certificate holds).
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
        try:
            power = lam ** (k // n)
        except OverflowError:           # lam > 1, far into the trace
            power = math.inf
        if d[k] > (D * power if D else 0.0) + slack:
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
    """Per axis ``i``, ``XT -> (lower values, upper values)`` at the hat
    points of the whole points held as the columns of ``XT``: the bounds
    read every row of ``XT`` but ``i``.  Built per call rather than kept on
    the set like :attr:`BoxLipschitzSet._pairs`: kept, the small row arrays
    of every set a batch workload touches stay allocated between the
    engine's large temporaries, which raised the benchmark's peak RSS by
    ~1 MB."""
    n = Q.n
    return [_compile_grid_pair(lo, up, np.array([j for j in range(n) if j != i], dtype=np.intp))
            for i, (lo, up) in enumerate(zip(Q.lower, Q.upper))]


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
    at most ``threshold`` (raising after ``max_sweeps``, with those two lists
    as the error's ``state``), or run exactly ``fixed_steps`` single steps
    with no stopping rule.
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
        f"no convergence within {max_sweeps} sweeps (threshold {threshold:g})", (pos, disp))


@np.errstate(over="ignore")
def _batch_sweeps(Q, X, threshold, max_sweeps, record):
    """Batch twin of :func:`_scalar_sweeps` on one shared sweep schedule.

    Each step reads its axis's paired evaluator, compiled once per call.
    The rows are held as the columns of a transposed copy ``XT`` of ``X``;
    the evaluator reads the hat points from ``XT`` itself (a cone family
    gathers them into its distance table, :func:`_grid_pairs`), and the
    clipped coordinate is written straight back into ``XT``.  Each sweep
    starts from a copy of ``XT``.  Coordinate ``i`` moves only at step
    ``i``, from its value in that copy, so after the sweep ``|XT - start|``
    holds every step's ``|d|``: one reduction of it gives each row's largest
    displacement of the sweep, and so the rows it moved.  A row whose full
    sweep moved it by exactly 0.0 leaves the active set and is never
    evaluated again: every step of that sweep saw the row's current point
    and left it in place, so a later sweep sees the same inputs at every
    step and moves it by 0.0 again.  The output therefore equals that of
    running every row through every sweep, and the whole batch still goes
    through one shared composition of projection steps.

    Stops after the first full sweep whose largest displacement over the
    batch is at most ``threshold``, raising after ``max_sweeps`` with the
    points and displacements so far as the error's ``state``.  With
    ``record``, the second result holds one displacement vector over all
    rows per step, with 0.0 for frozen rows; otherwise it is ``None``.
    A distance or displacement too large for a float reads ``±inf``, as in
    the scalar engine, without a warning.
    """
    n = Q.n
    pairs = _grid_pairs(Q)
    out = np.array(X, dtype=float)
    XT = out.T.copy()                   # active rows as columns
    rows = np.arange(len(out))          # their row numbers in ``out``
    disp = [] if record else None
    for _ in range(max_sweeps):
        start = XT.copy()
        for i in range(n):
            lo, up = pairs[i](XT)
            crossed = lo > up
            if np.count_nonzero(crossed):
                j = int(np.argmax(crossed))
                raise _crossed(i, XT[:, j], lo[j], up[j])
            c = start[i]                # coordinate i has not moved yet this sweep
            new = np.minimum(up, np.maximum(lo, c), out=XT[i])
            # the scalar rule's bits: min and max match it except on zeros,
            # where a coordinate already zero stays and a moved one is +0.0
            if np.count_nonzero(new) < len(new):
                zero = new == 0.0
                new[zero] = np.where(c[zero] == 0.0, c[zero], 0.0)
            if record:
                full = np.zeros(len(out))
                full[rows] = new - c
                disp.append(full)
        size = XT - start
        np.abs(size, out=size)
        size = np.maximum.reduce(size, axis=0)  # per row, the sweep's largest |d|
        if size.max(initial=0.0) <= threshold:
            out[rows] = XT.T
            return out, disp
        moved = size != 0.0
        if not moved.all():
            out[rows[~moved]] = XT[:, ~moved].T
            XT, rows = XT.compress(moved, axis=1), rows[moved]
    out[rows] = XT.T
    raise MaxSweepsExceededError(
        f"no convergence within {max_sweeps} sweeps (threshold {threshold:g})", (out, disp))


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


def _threshold(Q, tol, max_sweeps):
    """The sweep stopping bound ``tol * (1 - lip_bound)`` of a cyclic
    retraction, after refusing a level of 1 or more, a ``tol`` that is not
    positive and a sweep budget below 1."""
    lam = Q.lip_bound
    if lam >= 1.0:
        raise UnsupportedSetError(
            f"cyclic retraction requires Lipschitz level < 1, set has {lam:g}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps!r}")
    return tol * (1.0 - lam)


def cyclic_retract(Q: BoxLipschitzSet, x, tol: float = 1e-6,
                   max_sweeps: int = 100_000):
    """Retract ``x`` onto a set of Lipschitz level strictly below 1.

    Sweeps stop once every displacement of a sweep is at most
    ``tol * (1 - lip_bound)``; summing the geometric tail, the returned point
    is then within ``tol`` of the true limit and its residual
    :func:`violation` is at most ``lip_bound * (1 - lip_bound) * tol``.

    Returns ``(point, trace)``; so does the ``state`` of the
    :class:`MaxSweepsExceededError` raised when the budget runs out.
    """
    x = as_point(x)
    if len(x) != Q.n:
        raise ValueError(f"point of dimension {len(x)} in a set of dimension {Q.n}")
    threshold = _threshold(Q, tol, max_sweeps)

    def result(pos, disp):
        return tuple(pos), IterationTrace(Q.n, x, tuple(disp), tuple(pos))

    try:
        return result(*_scalar_sweeps(Q, x, threshold, max_sweeps))
    except MaxSweepsExceededError as exc:
        exc.state = result(*exc.state)
        raise


def cyclic_retract_many(Q: BoxLipschitzSet, X, tol: float = 1e-6,
                        max_sweeps: int = 100_000, record: bool = False):
    """Batch :func:`cyclic_retract` on one shared sweep schedule.

    Returns ``(points, traces)`` where ``traces`` is a list of per-row
    :class:`IterationTrace` objects when ``record`` is true, else ``None``;
    so does the ``state`` of the :class:`MaxSweepsExceededError` raised when
    the budget runs out.  The shared schedule makes the realized map a
    single composition of projection steps, hence 1-Lipschitz across the
    whole batch.
    """
    X = _rows(Q, X)
    threshold = _threshold(Q, tol, max_sweeps)

    def result(final, disp):
        if not record:
            return final, None
        D = np.stack(disp, axis=1)      # (rows, steps)
        return final, [IterationTrace(Q.n, tuple(x), tuple(d), tuple(f))
                       for x, d, f in zip(X.tolist(), D.tolist(), final.tolist())]

    try:
        return result(*_batch_sweeps(Q, X, threshold, max_sweeps, record))
    except MaxSweepsExceededError as exc:
        exc.state = result(*exc.state)
        raise


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

    ``l`` and ``u`` are each one number, or a sequence of one anchor per
    axis.  The upper bounds of axis ``i`` contract toward ``u_i`` and its
    lower bounds toward ``l_i``, so the result contains the original set
    wherever the anchors really enclose the bound values, and its Lipschitz
    level drops to ``(1-1/k) * lip_bound``.  The shrunken sets are nested
    over increasing ``k`` and their intersection recovers the original set.
    Each new bound is a blend over ``Q``'s own, whose lowered form it shares.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if not Q.all_finite:
        raise UnsupportedSetError("shrinking needs all bounds finite")
    lows, ups = ([float(a)] * Q.n if np.isscalar(a) else [float(c) for c in a] for a in (l, u))
    if len(lows) != Q.n or len(ups) != Q.n or any(a > b for a, b in zip(lows, ups)):
        raise ValueError(f"anchors must be one number or {Q.n} per side, with l <= u: "
                         f"got l={l!r}, u={u!r}")
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
    """The relaxation family of every level-1 retraction of the starts ``X``.

    With all bounds finite, shrink toward the enclosures ``[l, u]`` over
    ``box`` (default: :func:`_auto_box` of ``X``).  Otherwise truncate to the
    ball of radius ``r = 2 max ||x - w|| + 1`` around the member ``witness``,
    which keeps every member the iteration could be asked to fix, and shrink
    the truncation toward the anchors ``w_i - r`` and ``w_i + r`` of each
    axis.  The relaxed sets keep ``Q``'s coordinates, so the starts go in
    as they are and members come back bit for bit.  Returns ``(base, l, u,
    report)``: ``Q`` or its truncation, the anchors, and the ``strategy``
    with ``k = relaxation_order(span, tol)`` and the ``enclosure`` or
    ``radius``, ``span`` the largest ``u_i - l_i`` (``2 r`` when the anchors
    are exact).  The relaxed set of order ``j`` is ``shrink_set(base, j, l,
    u)``, of level below 1; :func:`retract` builds those it runs on.
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
        r = 2.0 * float(sup_dists(X, np.asarray([w])).max(initial=0.0)) + 1.0
        if not math.isfinite(r):
            raise ValueError(f"the truncation radius around witness {w} overflows: r={r!r}")
        l, u = [c - r for c in w], [c + r for c in w]
        base, report = truncated_set(Q, w, r), {"strategy": "truncate", "radius": r}
    with np.errstate(over="ignore"):    # relaxation_order refuses an inf span
        report["k"] = relaxation_order(float(np.max(np.subtract(u, l))), tol)
    return base, l, u, report


def _sweep_budget(k):
    """Sweep budget of a cyclic run on a relaxed set of order ``k``."""
    return 50 * k + 1000


def _stage_orders(k):
    """The orders ``k // 10**j, ..., k // 10, k`` of the warm-started stages,
    none below the floor."""
    orders = [k]
    while orders[-1] // _STAGE_RATIO >= _STAGE_FLOOR:
        orders.append(orders[-1] // _STAGE_RATIO)
    return orders[::-1]


def _joined(a, b):
    """Trace ``a`` followed by trace ``b``, row by row for lists of traces;
    ``b`` when ``a`` is ``None``."""
    if a is None:
        return b
    if isinstance(a, list):
        return [_joined(s, t) for s, t in zip(a, b)]
    return IterationTrace(a.dim, a.start, a.displacements + b.displacements, b.final)


def retract(Q: BoxLipschitzSet, X, tol: float, box=None, witness=None, *, many: bool,
            record: bool = False, max_sweeps: int = None):
    """Retract the start ``X`` (a point, or rows of points with ``many``)
    onto ``Q`` with the strategy the set admits; returns ``(points, trace,
    report)``.  Below level 1 that is one :func:`cyclic_retract` (with
    ``many``, :func:`cyclic_retract_many`) run with the budget ``max_sweeps
    or 100_000``, and ``report`` is ``{"strategy": "cyclic"}``.

    At level 1 it walks the relaxed sets ``shrink_set(base, j, l, u)`` of
    the family :func:`_level_one` defines, nested, decreasing in ``j``, each
    run to the engine tolerance ``tol / 4``.  A first run at the final order
    ``k`` gets ``_FIRST_SWEEPS`` sweeps; when it converges, that is the whole
    run, the one-run result bit for bit.  Otherwise the points it reached go
    through the stages ``k // 10**j, ..., k // 10`` of :func:`_stage_orders`,
    each a cyclic run warm-started from the last, and then a last run at
    ``k``, whose exhaustion raises.  A run at order ``j`` gets
    ``_sweep_budget(j)`` sweeps; an intermediate stage that runs out of them
    hands its points on.
    Each run is a composition of single-coordinate projections onto a
    relaxation that contains ``Q`` inside the working box, so the whole run
    is too: 1-Lipschitz, on one schedule for the whole batch, and fixing
    members of ``Q`` inside the box bit for bit.  The last run stops by the
    one-run rule, so the violation bound ``(u - l + tol)/k`` is unchanged.
    ``max_sweeps``, unless ``None`` or 0, caps the sweeps of all runs
    together, counted on the trace, and running out of it raises.  The cap
    is for a single point: a batch (``many``) given one at level 1 raises
    ``ValueError`` before any run.

    ``trace`` joins the runs' traces: one :class:`IterationTrace` for a
    point, per-row traces with ``many`` and ``record``, else ``None``.  Every
    run ends on a whole sweep, so step ``s`` still moves axis ``s % n``.
    """
    engine = partial(cyclic_retract_many, record=record) if many else cyclic_retract
    if Q.lip_bound < 1.0:
        points, trace = engine(Q, X, tol, max_sweeps or 100_000)
        return points, trace, {"strategy": "cyclic"}
    if many and max_sweeps:
        raise ValueError("max_sweeps caps a single point's run at level 1, not a batch's")
    base, l, u, report = _level_one(Q, X if many else [as_point(X)], tol, box, witness)
    left = max_sweeps or None
    capped = f"no convergence within {max_sweeps} sweeps over all stages"
    trace = None

    def run(T, start, own, last=False):
        """One cyclic run on ``T`` with the budget ``own``, or what is left
        of ``max_sweeps``: its points, and whether it converged."""
        nonlocal left, trace
        if left == 0:
            raise MaxSweepsExceededError(capped)
        b = own if left is None else min(own, left)
        try:
            points, t = engine(T, start, tol / 4, b)
            done = True
        except MaxSweepsExceededError as exc:
            if b < own:
                raise MaxSweepsExceededError(capped) from None
            if last:
                raise
            (points, t), done = exc.state, False
        trace = _joined(trace, t)
        if left is not None:
            left -= t.steps // Q.n
        return points, done

    target = shrink_set(base, report["k"], l, u)
    points, done = run(target, X, _FIRST_SWEEPS)
    if not done:
        for j in _stage_orders(report["k"])[:-1]:
            points, _ = run(shrink_set(base, j, l, u), points, _sweep_budget(j))
        points, _ = run(target, points, _sweep_budget(report["k"]), last=True)
    return points, trace, report


def retract_lambda_one_bounded(Q: BoxLipschitzSet, x, tol: float, box) -> Point:
    """Approximate retraction onto a finite-bounded set at Lipschitz level 1.

    Shrinks the bounds by ``1 - 1/k`` toward their enclosures ``[l, u]`` over
    ``box`` (``None`` for the default box of :func:`_level_one`), with
    ``k = ceil((u - l)/tol) + 1``, and retracts onto the shrunken sets, all
    strictly below level 1, by :func:`retract`.  Members of the original set
    inside the box are returned unchanged.  As long as the iterates stay
    where the enclosures are valid, the result violates the original bounds
    by at most ``(u - l + tol)/k <= tol``.  A level-1 set with missing bounds
    raises :class:`UnsupportedSetError`: truncating it needs a witness
    (:func:`retract_lambda_one_general`).  Below level 1 the retraction is
    :func:`cyclic_retract`.
    """
    return retract(Q, x, tol, box, many=False)[0]


def retract_lambda_one_bounded_many(Q: BoxLipschitzSet, X, tol: float, box) -> np.ndarray:
    """Batch :func:`retract_lambda_one_bounded` on one shared schedule."""
    return retract(Q, X, tol, box, many=True)[0]


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
    return retract(Q, x, tol, witness=witness, many=False)[0]


def retract_lambda_one_general_many(Q: BoxLipschitzSet, witness, X, tol: float) -> np.ndarray:
    """Batch :func:`retract_lambda_one_general` with one common radius."""
    return retract(Q, X, tol, witness=witness, many=True)[0]


def _probe(Q, start):
    """The verdict and trace of the raw iteration run ``40 n`` steps from
    ``start``: the diagnosis of a level-1 relaxation that missed the set."""
    trace = cyclic_iterate(Q, start, 40 * Q.n)
    return detect_noncontraction(trace), trace


def _check_relaxed(Q, start, gap, tol):
    """Raise :class:`DivergenceDetectedError` when a level-1 relaxation from
    ``start`` missed ``Q`` by a ``gap`` above ``tol``; the error carries the
    verdict of the raw iteration probed from ``start``."""
    if gap <= tol:
        return
    verdict, probe = _probe(Q, start)
    raise DivergenceDetectedError(
        f"relaxation missed the set by {gap:g} (> tol {tol:g}); "
        f"raw iteration verdict: {verdict}", verdict, probe)


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
