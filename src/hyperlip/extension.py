"""1-Lipschitz extension of maps into a Lipschitz-bounded set.

Extending a 1-Lipschitz map defined on part of a finite metric space is a
two-step affair: each coordinate is extended by the inf-envelope formula
(the maximal 1-Lipschitz extension of scalar data), and the resulting points
are pushed into the target set by a retraction from :mod:`hyperlip.boxset`.
Because the retraction fixes the set pointwise, the composite still agrees
with the original map, and because both steps are 1-Lipschitz, so is the
composite.

The Kuratowski embedding lives here too: it turns any finite metric space
into a sup-norm point set, exactly, which is how abstract metric inputs
enter the coordinate world of the other modules.
"""

from __future__ import annotations

import numpy as np

from .boxset import (
    BoxLipschitzSet,
    _check_relaxed,
    cyclic_retract_many,
    retract_lambda_one_bounded_many,
    retract_lambda_one_general_many,
    violation,
    violation_many,
)
from .metric import FiniteMetricSpace, Point, as_point, sup_dist

__all__ = [
    "NotLipschitzError",
    "extend_into_Q",
    "kuratowski_embed",
]

# rounding slack allowed when checking that the input map is 1-Lipschitz
_LIP_TOL = 1e-9


class NotLipschitzError(ValueError):
    """Input data violate the required Lipschitz bound; carries a witness."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


def _check_subset(B: FiniteMetricSpace, A) -> list:
    A = [int(a) for a in A]
    if not A:
        raise ValueError("the subset must be nonempty")
    for a in A:
        if not 0 <= a < B.size:
            raise IndexError(f"index {a} out of range for a space of size {B.size}")
    if len(set(A)) != len(A):
        raise ValueError("duplicate indices in the subset")
    return A


def _extend_all_components(B, A, phi_rows):
    """Coordinate-wise inf-envelope extension to every point of B at once."""
    M = B.matrix
    rows_a = M[np.asarray(A), :]                     # (|A|, |B|)
    vals = np.asarray(phi_rows, dtype=float)         # (|A|, n)
    ext = (vals[:, None, :] + rows_a[:, :, None]).min(axis=0)  # (|B|, n)
    for j, a in enumerate(A):
        ext[a] = vals[j]
    return ext


def extend_into_Q(B: FiniteMetricSpace, A, phi, Q: BoxLipschitzSet,
                  tol: float = 1e-6, witness: Point = None, box=None) -> list:
    """Extend a 1-Lipschitz map ``A -> Q`` to all of ``B``, staying in ``Q``.

    ``phi`` lists one point of ``Q`` per index of ``A`` (violation must be
    exactly 0).  The coordinatewise extension is retracted with the strategy
    the set admits: plain cyclic iteration below level 1, the shrinking
    strategy for finite bounds at level 1 (``box`` optional, by default the
    library's working box around the extended points), and the
    witness-anchored strategy when bounds are missing (``witness``
    required).  All image points go through one shared retraction call, so
    the composite map is 1-Lipschitz on ``B`` and agrees with ``phi`` on
    ``A`` exactly.  At level 1 an image that still
    violates ``Q`` by more than ``tol`` raises
    :class:`~hyperlip.boxset.DivergenceDetectedError`, with the verdict of the
    raw iteration probed from the worst row's extended point.
    """
    A = _check_subset(B, A)
    phi_rows = [as_point(p) for p in phi]
    if len(phi_rows) != len(A):
        raise ValueError("need exactly one image point per subset index")
    n = Q.n
    for p in phi_rows:
        if len(p) != n:
            raise ValueError(f"image point of dimension {len(p)}, set has dimension {n}")
    for a, p in zip(A, phi_rows):
        v = violation(Q, p)
        if v != 0.0:
            raise ValueError(f"image of index {a} is not a member (violation {v:g})")
    for p, i in enumerate(A):
        for q in range(p + 1, len(A)):
            j = A[q]
            excess = sup_dist(phi_rows[p], phi_rows[q]) - B.d(i, j)
            if excess > _LIP_TOL:
                raise NotLipschitzError(
                    f"map stretches pair ({i}, {j}) by {excess:g}", (i, j))

    ext = _extend_all_components(B, A, phi_rows)

    if Q.lip_bound < 1.0:
        final, _ = cyclic_retract_many(Q, ext, tol)
    elif Q.all_finite:
        final = retract_lambda_one_bounded_many(Q, ext, tol, box)
    else:
        final = retract_lambda_one_general_many(Q, witness, ext, tol)
    if Q.lip_bound >= 1.0:
        gaps = violation_many(Q, final)
        worst = int(np.argmax(gaps))
        _check_relaxed(Q, tuple(ext[worst]), float(gaps[worst]), tol)
    return [tuple(row) for row in final]


def kuratowski_embed(X: FiniteMetricSpace, basepoint: int = 0) -> list:
    """Isometric embedding of a finite metric space into sup-norm coordinates.

    Point ``x`` maps to the vector of ``d(x, y) - d(basepoint, y)`` over all
    ``y``; pairwise sup distances reproduce the metric exactly.
    """
    m = X.size
    if not 0 <= basepoint < m:
        raise IndexError(f"basepoint {basepoint} out of range for size {m}")
    M = X.matrix
    return [tuple(r) for r in (M - M[basepoint]).tolist()]
