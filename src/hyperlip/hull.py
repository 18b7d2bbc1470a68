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

from .metric import FiniteMetricSpace, _nonnegative, _positive, as_point

__all__ = [
    "is_extremal",
    "enumerate_extremal_grid",
    "GRID_CANDIDATE_CAP",
]

GRID_CANDIDATE_CAP = 10 ** 8
# candidates in any one table of the scan; depth first, it holds one per
# coordinate at most
_ROWS_IN_FLIGHT = 100_000


def _columns(X, f):
    """The floats ``f`` as one candidate: an ``(m, 1)`` table of one-element columns."""
    if len(f) != X.size:
        raise ValueError(f"need {X.size} values, got {len(f)}")
    return np.array(f)[:, None]


@np.errstate(over="ignore")     # a sum past the largest float reads +inf
def is_extremal(X: FiniteMetricSpace, f, tol: float = 1e-12) -> bool:
    """Whether an admissible ``f`` is pointwise minimal.

    Checks ``f(x) <= max_y (d(x, y) - f(y)) + tol`` for every ``x``; the
    reverse inequality is admissibility, which is a precondition here.
    """
    C = _columns(X, as_point(f))
    tol = _nonnegative(tol, "tol")
    if not _admissible(X.matrix, C, tol)[0]:
        raise ValueError("function is not admissible on this space")
    return bool(_minimal(X.matrix, C, tol)[0])


def _admissible(D, C, tol):
    """Which candidates satisfy ``C[i] + C[j] >= D[i, j] - tol`` for all
    ``i <= j``; ``C`` holds one column of values per point."""
    m = D.shape[0]
    ok = np.ones(C.shape[1], dtype=bool)
    for i in range(m):
        for j in range(i, m):
            np.logical_and(ok, C[i] + C[j] >= D[i, j] - tol, out=ok)
    return ok


def _minimal(D, C, tol, floors=()):
    """Which candidates satisfy ``C[i] <= max_j (D[i, j] - C[j]) + tol`` for
    each row ``i`` of ``C``.  ``j`` runs over the rows of ``C``, then over
    the unknowns of ``floors``, pairs ``(u, L_u)`` whose floors ``L_u`` stand
    in for ``C[u]`` (:func:`_prune`).  The maximum is kept running over the
    columns, because numpy reduces a short last axis one row at a time."""
    k = C.shape[0]
    ok = np.ones(C.shape[1], dtype=bool)
    best = np.empty(C.shape[1])
    for i in range(k):
        np.subtract(D[i, 0], C[0], out=best)
        for j in range(1, k):
            np.maximum(best, D[i, j] - C[j], out=best)
        for u, L in floors:
            np.maximum(best, D[i, u] - L, out=best)
        np.logical_and(ok, C[i] <= best + tol, out=ok)
    return ok


def _extremal(D, C, tol):
    """The candidates of the ``(m, N)`` table ``C`` that pass the
    extremality test, as tuples in table order."""
    # most candidates fail admissibility, so only the rest are tested further
    C = C[:, _admissible(D, C, tol)]
    return list(zip(*C[:, _minimal(D, C, tol)].tolist()))


def _extend(V, P, base, ends, start, stop):
    """Candidates [start, stop) of the list that follows each column of the
    ``(k, N)`` table ``P`` by each value of its window of ``V``, in order,
    as a ``(k + 1, stop - start)`` table.

    Column ``c``'s window fills the places from ``ends[c - 1]`` (0 for the
    first column) up to ``ends[c]``, and place ``r`` takes ``V[base[c] +
    r]``.
    """
    flat = np.arange(start, stop)
    rep = np.searchsorted(ends, flat, side="right")
    C = np.empty((P.shape[0] + 1, len(flat)))
    C[:-1] = P[:, rep]
    C[-1] = V[base[rep] + flat]
    return C


def _prune(D, C, tol, slack):
    """The columns of the ``(k, N)`` table ``C`` of first coordinates that
    pass two necessary conditions of the extremality test.

    Admissibility: the last coordinate, new at this level, with each known
    one, in the float expression of :func:`_admissible`; the other pairs
    were tested a level up.

    Early minimality: each unknown ``f_u`` has the floor ``L_u = max(0,
    max_{j known}(D[u, j] - f_j) - tol)``, and each known ``f_l`` must pass
    minimality with every unknown at its floor, ``f_l <= max(max_{j
    known}(D[l, j] - f_j), max_{u unknown}(D[l, u] - L_u)) + slack``.  A
    candidate passing the full test has ``f_u >= L_u`` up to a few ulps of
    ``diam + tol``, because grid values are nonnegative and admissibility
    gives ``f_u >= D[u, j] - f_j - tol`` up to rounding.  So
    ``D[l, u] - f_u`` exceeds ``D[l, u] - L_u`` by no more than that, and
    the condition holds with ``slack = tol`` plus that rounding error.  The
    scan passes ``slack = tol + resolution``: the step is ``2 * tol``, and
    under the cap of 10^8 grid points at least ``diam * 1e-8``, so it is
    far more than a few ulps of ``diam + tol``.
    """
    m = D.shape[0]
    i = C.shape[0] - 1
    ok = C[0] + C[i] >= D[0, i] - tol
    for j in range(1, i + 1):
        np.logical_and(ok, C[j] + C[i] >= D[j, i] - tol, out=ok)
    C = C[:, ok]
    floors = []
    for u in range(i + 1, m):
        L = np.zeros(C.shape[1])
        for j in range(i + 1):
            np.maximum(L, D[u, j] - C[j], out=L)
        L -= tol
        floors.append((u, np.maximum(L, 0.0, out=L)))
    return C[:, _minimal(D, C, slack, floors)]


def _scan(D, V, P, tol, resolution, found):
    """Extend the ``(k, N)`` table ``P`` of first coordinates by coordinate
    ``k``, depth first: each table of at most ``_ROWS_IN_FLIGHT`` extended
    candidates is pruned and extended further before the next is built.
    Candidates of all ``m`` coordinates go through :func:`_extremal` into
    the set ``found``.

    With ``M = max(0, max_{j < k}(D[k, j] - f_j))``, admissibility puts
    ``f_k`` at or above ``M - tol``, and on the last coordinate minimality
    puts it at or below ``M + tol`` (the term ``-f_k`` of its own row only
    matters below ``tol / 2``).  Coordinate ``k`` runs over the grid values
    from one step below the first bound, to cover rounding, up to the top
    of the grid, or on the last coordinate up to one step above the second.
    """
    m, k = D.shape[0], P.shape[0]
    top = np.zeros(P.shape[1])
    for j in range(k):
        np.maximum(top, D[k, j] - P[j], out=top)
    last = len(V) - 1
    lo = np.clip(np.floor((top - tol) / resolution).astype(np.intp) - 1, 0, last)
    hi = last
    if k == m - 1:
        hi = np.clip(np.ceil((top + tol) / resolution).astype(np.intp) + 1, 0, last)
    width = hi - lo + 1
    ends = np.cumsum(width)
    base = lo + width - ends
    total = int(ends[-1])
    for start in range(0, total, _ROWS_IN_FLIGHT):
        C = _extend(V, P, base, ends, start, min(start + _ROWS_IN_FLIGHT, total))
        if k == m - 1:
            found.update(_extremal(D, C, tol))
        else:
            C = _prune(D, C, tol, tol + resolution)
            if C.shape[1]:
                _scan(D, V, C, tol, resolution, found)


@np.errstate(over="ignore")     # a sum past the largest float reads +inf
def enumerate_extremal_grid(X: FiniteMetricSpace, resolution: float) -> list:
    """All grid points of ``[0, diam]^|X|`` passing the extremality test.

    The step is ``resolution`` and the test tolerance is ``resolution / 2``:
    the half-step keeps every grid point within reach of the true extremal
    set it approximates while rejecting the neighbors one step off it.
    Rows of the distance matrix, snapped to the grid, are always included.
    Spaces larger than 5 points or grids beyond 10^8 candidates are refused;
    the cap counts the whole grid, ``count^|X|``.

    Not every grid point is tested.  The scan builds candidates one
    coordinate at a time, and each coordinate gets a window.  It starts one
    step below the floor that admissibility with the known coordinates
    allows; on the last coordinate it also ends one step above the cap that
    minimality allows.  After each coordinate is added, the prefixes are
    pruned by two necessary conditions of the test: admissibility of the
    new pairs, and minimality of every known coordinate with each unknown
    one at its floor.  The floors are exact up to a few ulps of ``diam +
    tol``, and this minimality check allows one step more than the test,
    which is at least ``diam * 1e-8`` under the cap.  So no candidate that
    passes the test is pruned, the full test runs on every candidate that
    is left, and the found list is that of the full grid scan.  The scan
    runs in one thread, depth first, and no table of candidates it holds has
    more than 100 000 columns, one per candidate.
    """
    resolution = _positive(resolution, "resolution")
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
    found = set()
    _scan(D, V, np.empty((0, 1)), tol, resolution, found)
    top = float(V[-1])
    for x in range(m):
        snapped = tuple(min(max(float(round(v / resolution) * resolution), 0.0), top)
                        for v in X.row(x))
        found.add(snapped)
    return sorted(found)
