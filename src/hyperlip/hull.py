"""Admissible and extremal functions on a finite metric space.

A function f on the points of a finite metric space is admissible when
f(x) + f(y) >= d(x, y) for every pair, and extremal when it is pointwise
minimal among admissible functions, which for finite spaces is the equality
condition f(x) = max_y (d(x, y) - f(y)).  The set of extremal functions,
under the sup norm, is the smallest injective space the metric space embeds
into; rows of the distance matrix are always extremal, and they are exactly
the extremal functions with a zero.

Everything here is desk scale: extremality is checked pairwise, and the
extremal set is enumerated by scanning a value grid, not by computing its
polyhedral structure.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .metric import FiniteMetricSpace

__all__ = [
    "ExtremalityError",
    "in_delta",
    "is_extremal",
    "extremal_zero_classification",
    "attach_point",
    "enumerate_extremal_grid",
    "GRID_CANDIDATE_CAP",
]

GRID_CANDIDATE_CAP = 10 ** 8
# candidates held in memory at once across all scan threads
_ROWS_IN_FLIGHT = 100_000


class ExtremalityError(RuntimeError):
    """An extremal function with a zero failed to match any distance row.

    Admissibility plus extremality force such a function to be a matrix row,
    so this error signals inconsistent input data or tolerances, not a state
    the mathematics allows.
    """


def _values(X, f):
    vals = [float(v) for v in f]
    if len(vals) != X.size:
        raise ValueError(f"need {X.size} values, got {len(vals)}")
    return vals


def in_delta(X: FiniteMetricSpace, f, tol: float = 1e-12) -> bool:
    """Whether ``f(x) + f(y) >= d(x, y) - tol`` for all pairs (x = y included,
    which forces nonnegative values)."""
    return bool(_admissible(X.matrix, np.array([_values(X, f)]), tol)[0])


def is_extremal(X: FiniteMetricSpace, f, tol: float = 1e-12) -> bool:
    """Whether an admissible ``f`` is pointwise minimal.

    Checks ``f(x) <= max_y (d(x, y) - f(y)) + tol`` for every ``x``; the
    reverse inequality is admissibility, which is a precondition here.
    """
    F = np.array([_values(X, f)])
    if not _admissible(X.matrix, F, tol)[0]:
        raise ValueError("function is not admissible on this space")
    return bool(_minimal(X.matrix, F, tol)[0])


def extremal_zero_classification(X: FiniteMetricSpace, f, tol: float = 1e-12):
    """Classify an extremal function by its zero set.

    Returns ``("is_dx", x)`` when the minimum value is within ``tol`` of 0,
    after confirming the whole vector matches row ``d_x``; returns
    ``("no_zero", None)`` otherwise.  An extremal function with a zero that
    matches no row raises :class:`ExtremalityError`.
    """
    vals = _values(X, f)
    if not is_extremal(X, vals, tol):
        raise ValueError("function is not extremal on this space")
    m = X.size
    low = min(range(m), key=lambda i: vals[i])
    if vals[low] > tol:
        return ("no_zero", None)
    row = X.row(low)
    worst = max(abs(vals[j] - row[j]) for j in range(m))
    # a function passing the admissibility and extremality checks at tol with
    # minimum eta deviates from the row by at most eta + 2*tol; more than
    # that cannot come from an extremal function, only from broken input
    if worst > vals[low] + 2.0 * tol:
        raise ExtremalityError(
            f"extremal function vanishes at {low} but differs from that distance "
            f"row by {worst:g}")
    return ("is_dx", low)


def attach_point(X: FiniteMetricSpace, f) -> FiniteMetricSpace:
    """Extend the space by one new point at distance ``f(x)`` from each ``x``.

    ``f`` must be admissible, 1-Lipschitz with respect to d, and strictly
    positive; those three facts make the extended matrix a metric, which the
    returned space re-validates.
    """
    vals = _values(X, f)
    m = X.size
    for i in range(m):
        if vals[i] <= 0.0:
            raise ValueError(f"attach distance at index {i} is not positive: {vals[i]!r}")
    for i in range(m):
        for j in range(i + 1, m):
            if vals[i] + vals[j] < X.d(i, j):
                raise ValueError(f"not admissible on pair ({i}, {j})")
            if abs(vals[i] - vals[j]) > X.d(i, j):
                raise ValueError(f"not 1-Lipschitz on pair ({i}, {j})")
    out = np.zeros((m + 1, m + 1))
    out[:m, :m] = X.matrix
    out[m, :m] = vals
    out[:m, m] = vals
    return FiniteMetricSpace(out)


def _admissible(D, F, tol):
    """Which rows of ``F`` satisfy ``F[i] + F[j] >= D[i, j] - tol`` for all
    ``i <= j``."""
    m = D.shape[0]
    ok = np.ones(F.shape[0], dtype=bool)
    for i in range(m):
        for j in range(i, m):
            np.logical_and(ok, F[:, i] + F[:, j] >= D[i, j] - tol, out=ok)
    return ok


def _minimal(D, F, tol):
    """Which rows of ``F`` satisfy ``F[i] <= max_j (D[i, j] - F[j]) + tol``
    for all ``i``."""
    ok = np.ones(F.shape[0], dtype=bool)
    for i in range(D.shape[0]):
        best = (D[i][None, :] - F).max(axis=1)
        np.logical_and(ok, F[:, i] <= best + tol, out=ok)
    return ok


def _scan_block(D, V, shape, start, stop, tol):
    """Extremality scan of candidates with flat indices [start, stop)."""
    idx = np.unravel_index(np.arange(start, stop), shape)
    F = np.column_stack([V[ix] for ix in idx])
    ok = _admissible(D, F, tol) & _minimal(D, F, tol)
    return [tuple(map(float, row)) for row in F[ok]]


def _cpus() -> int:
    """CPUs this process may run on (so ``taskset`` limits the scan)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def enumerate_extremal_grid(X: FiniteMetricSpace, resolution: float) -> list:
    """All grid points of ``[0, diam]^|X|`` passing the extremality test.

    The step is ``resolution`` and the test tolerance is ``resolution / 2``:
    the half-step keeps every grid point within reach of the true extremal
    set it approximates while rejecting the neighbors one step off it.
    Rows of the distance matrix, snapped to the grid, are always included.
    Spaces larger than 5 points or grids beyond 10^8 candidates are refused.
    The scan runs on one thread per CPU the process may run on, in blocks
    sized so that at most 100 000 candidates are held at once.
    """
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    m = X.size
    if m > 5:
        raise ValueError(f"grid enumeration supports at most 5 points, got {m}")
    D = X.matrix
    diam = float(D.max())
    steps = diam / resolution
    if not math.isfinite(steps):
        raise ValueError(f"diam / resolution overflows: diam={diam!r}, resolution={resolution!r}")
    count = int(math.floor(steps + 1e-9)) + 1
    if count ** m > GRID_CANDIDATE_CAP:
        raise ValueError(
            f"grid too large: {count}^{m} candidates exceed the cap {GRID_CANDIDATE_CAP}")
    V = np.array([j * resolution for j in range(count)])
    tol = resolution / 2.0
    shape = (count,) * m
    total = count ** m
    cpus = _cpus()
    block = _ROWS_IN_FLIGHT // cpus
    ranges = [(s, min(s + block, total)) for s in range(0, total, block)]
    with ThreadPoolExecutor(max_workers=min(cpus, len(ranges))) as pool:
        parts = list(pool.map(lambda r: _scan_block(D, V, shape, r[0], r[1], tol),
                              ranges))
    found = {pt for part in parts for pt in part}
    top = float(V[-1])
    for x in range(m):
        snapped = tuple(min(max(float(round(v / resolution) * resolution), 0.0), top)
                        for v in X.row(x))
        found.add(snapped)
    return sorted(found)
