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
# candidates held in memory at once
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


def _columns(X, f):
    """``f`` as one candidate: an ``(m, 1)`` table of one-element columns."""
    return np.array(_values(X, f))[:, None]


def in_delta(X: FiniteMetricSpace, f, tol: float = 1e-12) -> bool:
    """Whether ``f(x) + f(y) >= d(x, y) - tol`` for all pairs (x = y included,
    which forces nonnegative values)."""
    return bool(_admissible(X.matrix, _columns(X, f), tol)[0])


def is_extremal(X: FiniteMetricSpace, f, tol: float = 1e-12) -> bool:
    """Whether an admissible ``f`` is pointwise minimal.

    Checks ``f(x) <= max_y (d(x, y) - f(y)) + tol`` for every ``x``; the
    reverse inequality is admissibility, which is a precondition here.
    """
    C = _columns(X, f)
    if not _admissible(X.matrix, C, tol)[0]:
        raise ValueError("function is not admissible on this space")
    return bool(_minimal(X.matrix, C, tol)[0])


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

    ``f`` must be finite, admissible, 1-Lipschitz with respect to d, and
    strictly positive; those facts make the extended matrix a metric, which
    the returned space re-validates.
    """
    vals = _values(X, f)
    m = X.size
    v = np.array(vals)
    bad = ~(np.isfinite(v) & (v > 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"attach distance at index {i} is not finite and positive: "
                         f"{vals[i]!r}")
    D = X.matrix
    with np.errstate(over="ignore"):
        short = v[:, None] + v[None, :] < D
    stretch = np.abs(v[:, None] - v[None, :]) > D
    bad = np.triu(short | stretch, 1)
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), m)
        if short[i, j]:
            raise ValueError(f"not admissible on pair ({i}, {j})")
        raise ValueError(f"not 1-Lipschitz on pair ({i}, {j})")
    out = np.zeros((m + 1, m + 1))
    out[:m, :m] = D
    out[m, :m] = vals
    out[:m, m] = vals
    return FiniteMetricSpace(out)


def _admissible(D, C, tol):
    """Which candidates satisfy ``C[i] + C[j] >= D[i, j] - tol`` for all
    ``i <= j``; ``C`` holds one column of values per point."""
    m = D.shape[0]
    ok = np.ones(C.shape[1], dtype=bool)
    for i in range(m):
        for j in range(i, m):
            np.logical_and(ok, C[i] + C[j] >= D[i, j] - tol, out=ok)
    return ok


def _minimal(D, C, tol):
    """Which candidates satisfy ``C[i] <= max_j (D[i, j] - C[j]) + tol`` for
    all ``i``; the maximum is kept running over the columns, because numpy
    reduces a short last axis one row at a time."""
    m = D.shape[0]
    ok = np.ones(C.shape[1], dtype=bool)
    best = np.empty(C.shape[1])
    for i in range(m):
        np.subtract(D[i, 0], C[0], out=best)
        for j in range(1, m):
            np.maximum(best, D[i, j] - C[j], out=best)
        np.logical_and(ok, C[i] <= best + tol, out=ok)
    return ok


def _extremal(D, C, tol):
    """The candidates of the ``(m, N)`` table ``C`` that pass the
    extremality test, as tuples in table order."""
    # most candidates fail admissibility, so only the rest are tested further
    C = C[:, _admissible(D, C, tol)]
    return list(zip(*C[:, _minimal(D, C, tol)].tolist()))


def _prefixes(V, k, start, stop):
    """The grid points of ``k`` coordinates over the values ``V`` with flat
    (row-major) indices [start, stop), as a ``(k, N)`` table."""
    flat = np.arange(start, stop)
    idx = np.empty((k, len(flat)), dtype=np.intp)
    for j in range(k - 1, -1, -1):
        flat, idx[j] = np.divmod(flat, len(V))
    return V[idx]


def _scan_block(D, V, start, stop, tol, resolution):
    """Extremality scan of the candidates whose first m - 1 coordinates have
    flat prefix indices [start, stop), over the last-coordinate window
    minimality allows.

    A prefix f_0 .. f_{m-2} failing admissibility on its own pairs fails it
    on the full table.  Otherwise admissibility on the pairs (j, m - 1) and
    minimality of the last row confine the last value to
    ``[M - tol, max(M, 0) + tol]`` with ``M = max_j (D[m - 1, j] - f_j)``.
    Its index window is widened by one step on each side to cover rounding,
    and ``M`` is taken as ``max(M, 0)`` at both ends, which moves only a
    lower end that is clipped to 0 anyway.  The full test then runs on every
    candidate of each window, so the found list is that of the whole grid.
    """
    m = D.shape[0]
    k = m - 1
    P = _prefixes(V, k, start, stop)
    P = P[:, _admissible(D[:k, :k], P, tol)]
    top = np.zeros(P.shape[1])
    for j in range(k):
        np.maximum(top, D[k, j] - P[j], out=top)
    last = len(V) - 1
    lo = np.clip(np.floor((top - tol) / resolution).astype(np.intp) - 1, 0, last)
    hi = np.clip(np.ceil((top + tol) / resolution).astype(np.intp) + 1, 0, last)
    width = hi - lo + 1
    rep = np.repeat(np.arange(P.shape[1]), width)
    first = np.cumsum(width) - width
    C = np.empty((m, len(rep)))
    C[:k] = P[:, rep]
    C[k] = V[lo[rep] + np.arange(len(rep)) - first[rep]]
    return _extremal(D, C, tol)


def enumerate_extremal_grid(X: FiniteMetricSpace, resolution: float) -> list:
    """All grid points of ``[0, diam]^|X|`` passing the extremality test.

    The step is ``resolution`` and the test tolerance is ``resolution / 2``:
    the half-step keeps every grid point within reach of the true extremal
    set it approximates while rejecting the neighbors one step off it.
    Rows of the distance matrix, snapped to the grid, are always included.
    Spaces larger than 5 points or grids beyond 10^8 candidates are refused;
    the cap counts the whole grid, ``count^|X|``.

    Not every grid point is tested.  The scan enumerates the grid's prefixes
    of ``|X| - 1`` coordinates, drops those inadmissible on their own pairs,
    and gives each remaining one the window of last values that
    admissibility and minimality allow, one step wider on each side.  Every
    candidate outside the windows fails the test, so the found list is that
    of the full grid scan.  The scan runs in one thread, over blocks of
    prefixes sized so that at most 100 000 candidates are held at once.
    """
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError(f"resolution must be finite and positive, got {resolution!r}")
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
    total = count ** (m - 1)
    # a window [floor(b) - 1, ceil(a) + 1] with a - b = 2 tol / resolution,
    # up to rounding, holds at most ceil(a - b) + 4 <= int(2 tol / resolution)
    # + 5 grid values
    span = min(count, int(2.0 * tol / resolution) + 5)
    block = _ROWS_IN_FLIGHT // span
    found = set()
    for start in range(0, total, block):
        found.update(_scan_block(D, V, start, min(start + block, total), tol, resolution))
    top = float(V[-1])
    for x in range(m):
        snapped = tuple(min(max(float(round(v / resolution) * resolution), 0.0), top)
                        for v in X.row(x))
        found.add(snapped)
    return sorted(found)
