"""A closed grammar of Lipschitz functions with certified constants.

Every expression built from the constructors below denotes a real function
on some finite-dimensional sup-norm space, together with a syntactic
Lipschitz bound (:func:`lip_bound`) that is always an upper bound for the
true constant.  The grammar is closed under the operations the retraction
and reconstruction machinery needs: pointwise min/max, shrinking toward an
anchor, distance cones, and sampled upper/lower envelope extensions.

Infinite bounds (for one-sidedly unconstrained coordinates) are structural
values, never floating ``inf`` inside arithmetic: :class:`Infinite` may not
appear under any other constructor, and the set machinery treats it as the
absence of a constraint.

Expressions are immutable and hashable, compare by value, and round-trip
bit-exactly through the JSON form (:func:`expr_dumps` / :func:`expr_loads`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .metric import as_point, sup_dist

__all__ = [
    "LipExpr",
    "Const",
    "DistCone",
    "Min",
    "Max",
    "Blend",
    "McShane",
    "Infinite",
    "domain_dim",
    "eval_grid",
    "lip_bound",
    "verify_lipschitz_on_grid",
    "shrink",
    "bounds_of",
    "shifted",
    "translated",
    "expr_to_obj",
    "expr_from_obj",
    "expr_dumps",
    "expr_loads",
]

BOUNDS_SLACK = 1e-12
# bytes one block of the pairwise Lipschitz audit may hold per temporary
_PAIR_BLOCK_BYTES = 1 << 20


class LipExpr:
    """Base class for grammar nodes."""

    __slots__ = ()


def _require_finite(value, what):
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return v


def _require_unit(value, what):
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{what} must lie in [0, 1], got {value!r}")
    return v


def _require_inner(expr, what):
    if not isinstance(expr, LipExpr):
        raise TypeError(f"{what} must be a LipExpr, got {type(expr).__name__}")
    if isinstance(expr, Infinite):
        raise ValueError(f"{what} may not be Infinite; infinite bounds are only legal at the top level")
    return expr


@dataclass(frozen=True)
class Const(LipExpr):
    """The constant function ``y -> value``; 0-Lipschitz, any domain."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _require_finite(self.value, "Const value"))


@dataclass(frozen=True)
class DistCone(LipExpr):
    """``y -> orientation * scale * ||center - y|| + offset`` in the sup norm."""

    center: tuple
    offset: float
    scale: float
    orientation: int

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "offset", _require_finite(self.offset, "DistCone offset"))
        object.__setattr__(self, "scale", _require_unit(self.scale, "DistCone scale"))
        if self.orientation not in (-1, 1):
            raise ValueError(f"orientation must be +1 or -1, got {self.orientation!r}")


@dataclass(frozen=True, init=False)
class Min(LipExpr):
    """Pointwise minimum of a nonempty family."""

    children: tuple

    def __init__(self, *children):
        if len(children) == 1 and not isinstance(children[0], LipExpr):
            children = tuple(children[0])
        if not children:
            raise ValueError("Min needs at least one child")
        object.__setattr__(self, "children",
                           tuple(_require_inner(c, "Min child") for c in children))
        _common_dim(self.children)


@dataclass(frozen=True, init=False)
class Max(LipExpr):
    """Pointwise maximum of a nonempty family."""

    children: tuple

    def __init__(self, *children):
        if len(children) == 1 and not isinstance(children[0], LipExpr):
            children = tuple(children[0])
        if not children:
            raise ValueError("Max needs at least one child")
        object.__setattr__(self, "children",
                           tuple(_require_inner(c, "Max child") for c in children))
        _common_dim(self.children)


@dataclass(frozen=True)
class Blend(LipExpr):
    """``y -> factor * (inner(y) - anchor) + anchor``: shrink toward a level."""

    inner: LipExpr
    factor: float
    anchor: float

    def __post_init__(self):
        _require_inner(self.inner, "Blend inner")
        object.__setattr__(self, "factor", _require_unit(self.factor, "Blend factor"))
        object.__setattr__(self, "anchor", _require_finite(self.anchor, "Blend anchor"))


@dataclass(frozen=True)
class McShane(LipExpr):
    """Envelope extension of finitely many samples ``(point, value)``.

    ``mode='inf'`` is the upper envelope ``min_j (v_j + scale * ||y_j - y||)``,
    the largest scale-Lipschitz function lying below every sample spike;
    ``mode='sup'`` is the lower envelope ``max_j (v_j - scale * ||y_j - y||)``.
    """

    samples: tuple
    scale: float
    mode: str

    def __post_init__(self):
        if self.mode not in ("inf", "sup"):
            raise ValueError(f"mode must be 'inf' or 'sup', got {self.mode!r}")
        object.__setattr__(self, "scale", _require_unit(self.scale, "McShane scale"))
        raw = tuple(self.samples)
        if not raw:
            raise ValueError("McShane needs at least one sample")
        samples = []
        dim = None
        for entry in raw:
            pt, val = entry
            pt = as_point(pt)
            if dim is None:
                dim = len(pt)
            elif len(pt) != dim:
                raise ValueError("McShane sample points must share one dimension")
            samples.append((pt, _require_finite(val, "McShane sample value")))
        object.__setattr__(self, "samples", tuple(samples))


@dataclass(frozen=True)
class Infinite(LipExpr):
    """A missing constraint: ``-inf`` as a lower bound or ``+inf`` as an upper."""

    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")


def _common_dim(children) -> "int | None":
    dim = None
    for c in children:
        d = domain_dim(c)
        if d is None:
            continue
        if dim is None:
            dim = d
        elif d != dim:
            raise ValueError(f"mixed domain dimensions {dim} and {d} in one family")
    return dim


def domain_dim(f: LipExpr):
    """Dimension of the domain of ``f``, or ``None`` when any dimension fits."""
    if isinstance(f, (Const, Infinite)):
        return None
    if isinstance(f, DistCone):
        return len(f.center)
    if isinstance(f, McShane):
        return len(f.samples[0][0])
    if isinstance(f, (Min, Max)):
        return _common_dim(f.children)
    if isinstance(f, Blend):
        return domain_dim(f.inner)
    raise TypeError(f"not a LipExpr: {f!r}")


def _compile(f: LipExpr) -> Callable:
    """Build a plain-Python evaluator closure (hot path of the scalar engine)."""
    if isinstance(f, Const):
        v = f.value
        return lambda y: v
    if isinstance(f, Infinite):
        v = math.inf if f.sign > 0 else -math.inf
        return lambda y: v
    if isinstance(f, DistCone):
        c, off, s, o = f.center, f.offset, f.scale, f.orientation
        if len(c) == 0:
            return lambda y: off
        def cone(y, c=c, off=off, so=o * s):
            best = 0.0
            for a, b in zip(c, y):
                d = abs(a - b)
                if d > best:
                    best = d
            return so * best + off
        return cone
    if isinstance(f, Min):
        subs = [_compile(c) for c in f.children]
        return lambda y: min(g(y) for g in subs)
    if isinstance(f, Max):
        subs = [_compile(c) for c in f.children]
        return lambda y: max(g(y) for g in subs)
    if isinstance(f, Blend):
        g = _compile(f.inner)
        fac, anchor = f.factor, f.anchor
        return lambda y: fac * (g(y) - anchor) + anchor
    if isinstance(f, McShane):
        pts = [p for p, _ in f.samples]
        vals = [v for _, v in f.samples]
        s = f.scale
        agg = min if f.mode == "inf" else max
        sgn = 1.0 if f.mode == "inf" else -1.0
        def envelope(y, pts=pts, vals=vals, s=s, agg=agg, sgn=sgn):
            return agg(v + sgn * s * sup_dist(p, y) for p, v in zip(pts, vals))
        return envelope
    raise TypeError(f"not a LipExpr: {f!r}")


def _compile_grid(f: LipExpr) -> Callable:
    """Build a batch evaluator (hot path of the batch engine).

    The evaluator takes points as the columns of a ``(dim, N)`` array and
    returns the ``N`` values.  It does the per-element arithmetic of
    :func:`_compile` in the same order, so the two agree bit for bit.  Every
    reduction runs over the leading axis, one elementwise step per contiguous
    row of ``N`` values.  A McShane's sample arrays are built once, with the
    evaluator.
    """
    if isinstance(f, Const):
        v = f.value
        return lambda YT: np.full(YT.shape[1], v)
    if isinstance(f, Infinite):
        v = math.inf if f.sign > 0 else -math.inf
        return lambda YT: np.full(YT.shape[1], v)
    if isinstance(f, DistCone):
        off, so = f.offset, f.orientation * f.scale
        if len(f.center) == 0:
            return lambda YT: np.full(YT.shape[1], off)
        c = np.asarray(f.center)[:, None]
        return lambda YT: so * np.abs(c - YT).max(axis=0) + off
    if isinstance(f, Min):
        subs = [_compile_grid(c) for c in f.children]
        return lambda YT: np.minimum.reduce([g(YT) for g in subs])
    if isinstance(f, Max):
        subs = [_compile_grid(c) for c in f.children]
        return lambda YT: np.maximum.reduce([g(YT) for g in subs])
    if isinstance(f, Blend):
        g = _compile_grid(f.inner)
        fac, anchor = f.factor, f.anchor
        return lambda YT: fac * (g(YT) - anchor) + anchor
    if isinstance(f, McShane):
        P = np.asarray([p for p, _ in f.samples]).T[:, :, None]    # (dim, S, 1)
        vals = np.asarray([v for _, v in f.samples])[:, None]      # (S, 1)
        s = f.scale

        def dist(YT):                                              # (S, N)
            if len(P) == 0:
                return np.zeros((P.shape[1], YT.shape[1]))
            D = YT[:, None, :] - P
            return np.abs(D, out=D).max(axis=0)

        if f.mode == "inf":
            return lambda YT: (vals + s * dist(YT)).min(axis=0)
        return lambda YT: (vals - s * dist(YT)).max(axis=0)
    raise TypeError(f"not a LipExpr: {f!r}")


def eval_grid(f: LipExpr, Y: np.ndarray) -> np.ndarray:
    """Evaluate ``f`` at every row of ``Y`` (shape ``(N, dim)``) at once."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError(f"expected a (N, dim) array, got shape {Y.shape}")
    d = domain_dim(f)
    if d is not None and Y.shape[1] != d:
        raise ValueError(f"expression expects dimension {d}, got grid of dimension {Y.shape[1]}")
    return _compile_grid(f)(np.ascontiguousarray(Y.T))


def lip_bound(f: LipExpr) -> float:
    """Syntactic Lipschitz constant: an exact bound for the denoted function."""
    if isinstance(f, Infinite):
        raise ValueError("Infinite bounds carry no Lipschitz constant")
    if isinstance(f, Const):
        return 0.0
    if isinstance(f, (DistCone, McShane)):
        return f.scale
    if isinstance(f, (Min, Max)):
        return max(lip_bound(c) for c in f.children)
    if isinstance(f, Blend):
        return f.factor * lip_bound(f.inner)
    raise TypeError(f"not a LipExpr: {f!r}")


def verify_lipschitz_on_grid(f: LipExpr, grid, lam: float, tol: float = 1e-12):
    """Brute-force Lipschitz audit over all pairs of grid points.

    Returns ``None`` when ``|f(y) - f(y')| <= lam * ||y - y'|| + tol`` for
    every pair, otherwise the first offending pair ``(y, y')``.  This is the
    independent check the syntactic :func:`lip_bound` is tested against.
    ``lam`` and ``tol`` must be nonnegative (NaN is refused).
    """
    if not lam >= 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    pts = [as_point(y) for y in grid]
    if not pts:
        raise ValueError("empty grid")
    vals = eval_grid(f, pts)
    for y, v in zip(pts, vals.tolist()):
        if not math.isfinite(v):
            raise ValueError(f"expression is not finite at {y}")
    Y = np.asarray(pts)
    N = len(pts)
    # rows i in blocks against the columns j > r, each (rows, N) temporary
    # within _PAIR_BLOCK_BYTES.  The test is symmetric and never holds for
    # i == j, so the first offending (i, j) in row-major order has j > i.
    rows = max(1, _PAIR_BLOCK_BYTES // (8 * N))
    for r in range(0, N - 1, rows):
        i = np.arange(r, min(r + rows, N - 1))
        d = np.zeros((i.size, N - r - 1))
        for k in range(Y.shape[1]):
            np.maximum(d, np.abs(Y[i, k, None] - Y[None, r + 1:, k]), out=d)
        bad = np.abs(vals[i, None] - vals[None, r + 1:]) > lam * d + tol
        if bad.any():
            a, b = divmod(int(bad.argmax()), N - r - 1)
            return pts[r + a], pts[r + 1 + b]
    return None


def shrink(f: LipExpr, factor: float, anchor: float) -> Blend:
    """Contract ``f`` toward the level ``anchor`` by ``factor``.

    The result is ``factor * lip_bound(f)``-Lipschitz and moves every value
    of ``f`` toward ``anchor``; this is the basic step that turns a set with
    Lipschitz constant 1 into a nested family with constants below 1.
    """
    _require_inner(f, "shrink argument")
    return Blend(f, factor, anchor)


def _interval_dist(center, box):
    """Range of ``||center - y||`` over an axis-aligned box (sup norm)."""
    lo = 0.0
    hi = 0.0
    for c, (a, b) in zip(center, box):
        far = max(abs(c - a), abs(c - b))
        near = 0.0 if a <= c <= b else min(abs(c - a), abs(c - b))
        if near > lo:
            lo = near
        if far > hi:
            hi = far
    return lo, hi


def _interval(f, box):
    if isinstance(f, Const):
        return f.value, f.value
    if isinstance(f, DistCone):
        lo, hi = _interval_dist(f.center, box)
        a = f.orientation * f.scale * lo + f.offset
        b = f.orientation * f.scale * hi + f.offset
        return (a, b) if a <= b else (b, a)
    if isinstance(f, Min):
        parts = [_interval(c, box) for c in f.children]
        return min(p[0] for p in parts), min(p[1] for p in parts)
    if isinstance(f, Max):
        parts = [_interval(c, box) for c in f.children]
        return max(p[0] for p in parts), max(p[1] for p in parts)
    if isinstance(f, Blend):
        lo, hi = _interval(f.inner, box)
        return (f.factor * (lo - f.anchor) + f.anchor,
                f.factor * (hi - f.anchor) + f.anchor)
    if isinstance(f, McShane):
        los = []
        his = []
        for p, v in f.samples:
            lo, hi = _interval_dist(p, box)
            if f.mode == "inf":
                los.append(v + f.scale * lo)
                his.append(v + f.scale * hi)
            else:
                los.append(v - f.scale * hi)
                his.append(v - f.scale * lo)
        if f.mode == "inf":
            return min(los), min(his)
        return max(los), max(his)
    raise TypeError(f"interval evaluation undefined for {type(f).__name__}")


def bounds_of(f: LipExpr, box) -> tuple:
    """A sound enclosure of the range of ``f`` over an axis-aligned box.

    ``box`` is a sequence of ``(lo, hi)`` pairs, one per domain coordinate
    (possibly empty for the zero-dimensional domain).  The enclosure is
    widened outward by a fixed slack of 1e-12 so that downstream comparisons
    stay on the safe side of rounding.
    """
    if isinstance(f, Infinite):
        raise ValueError("Infinite bounds have no finite range")
    box = [(float(a), float(b)) for a, b in box]
    for a, b in box:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("box limits must be finite")
        if a > b:
            raise ValueError(f"empty box side ({a}, {b})")
    d = domain_dim(f)
    if d is not None and len(box) != d:
        raise ValueError(f"expression expects dimension {d}, got box of dimension {len(box)}")
    lo, hi = _interval(f, box)
    return lo - BOUNDS_SLACK, hi + BOUNDS_SLACK


def shifted(f: LipExpr, delta: float) -> LipExpr:
    """The function ``y -> f(y) + delta``, rebuilt inside the grammar."""
    delta = _require_finite(delta, "shift")
    if delta == 0.0:
        return f
    if isinstance(f, Infinite):
        return f
    if isinstance(f, Const):
        return Const(f.value + delta)
    if isinstance(f, DistCone):
        return DistCone(f.center, f.offset + delta, f.scale, f.orientation)
    if isinstance(f, Min):
        return Min(tuple(shifted(c, delta) for c in f.children))
    if isinstance(f, Max):
        return Max(tuple(shifted(c, delta) for c in f.children))
    if isinstance(f, Blend):
        # factor*(g - a) + a + delta == factor*((g+delta) - (a+delta)) + (a+delta)
        return Blend(shifted(f.inner, delta), f.factor, f.anchor + delta)
    if isinstance(f, McShane):
        return McShane(tuple((p, v + delta) for p, v in f.samples), f.scale, f.mode)
    raise TypeError(f"not a LipExpr: {f!r}")


def translated(f: LipExpr, v: Sequence[float]) -> LipExpr:
    """The function ``y -> f(y + v)``, rebuilt inside the grammar."""
    v = as_point(v)
    if isinstance(f, (Const, Infinite)):
        return f
    d = domain_dim(f)
    if d is not None and len(v) != d:
        raise ValueError(f"expression expects dimension {d}, got shift of dimension {len(v)}")
    if isinstance(f, DistCone):
        center = tuple(c - w for c, w in zip(f.center, v))
        return DistCone(center, f.offset, f.scale, f.orientation)
    if isinstance(f, Min):
        return Min(tuple(translated(c, v) for c in f.children))
    if isinstance(f, Max):
        return Max(tuple(translated(c, v) for c in f.children))
    if isinstance(f, Blend):
        return Blend(translated(f.inner, v), f.factor, f.anchor)
    if isinstance(f, McShane):
        samples = tuple((tuple(c - w for c, w in zip(p, v)), val) for p, val in f.samples)
        return McShane(samples, f.scale, f.mode)
    raise TypeError(f"not a LipExpr: {f!r}")


# ---------------------------------------------------------------------------
# JSON form

_SIGN_STR = {1: "+", -1: "-"}
_STR_SIGN = {"+": 1, "-": -1}


def _sign_from_obj(obj, field: str, kind: str) -> int:
    value = obj[field]
    if not isinstance(value, str) or value not in _STR_SIGN:
        raise ValueError(f"unknown {field} {value!r} in {kind!r} expression")
    return _STR_SIGN[value]


def expr_to_obj(f: LipExpr):
    if isinstance(f, Const):
        return {"type": "const", "value": f.value}
    if isinstance(f, DistCone):
        return {"type": "distcone", "center": list(f.center), "offset": f.offset,
                "scale": f.scale, "orientation": _SIGN_STR[f.orientation]}
    if isinstance(f, Min):
        return {"type": "min", "children": [expr_to_obj(c) for c in f.children]}
    if isinstance(f, Max):
        return {"type": "max", "children": [expr_to_obj(c) for c in f.children]}
    if isinstance(f, Blend):
        return {"type": "blend", "inner": expr_to_obj(f.inner), "factor": f.factor,
                "anchor": f.anchor}
    if isinstance(f, McShane):
        return {"type": "mcshane", "mode": f.mode, "scale": f.scale,
                "samples": [[list(p), v] for p, v in f.samples]}
    if isinstance(f, Infinite):
        return {"type": "inf", "sign": _SIGN_STR[f.sign]}
    raise TypeError(f"not a LipExpr: {f!r}")


def expr_from_obj(obj) -> LipExpr:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError(f"malformed expression object: {obj!r}")
    kind = obj["type"]
    try:
        if kind == "const":
            return Const(obj["value"])
        if kind == "distcone":
            return DistCone(tuple(obj["center"]), obj["offset"], obj["scale"],
                            _sign_from_obj(obj, "orientation", kind))
        if kind == "min":
            return Min(tuple(expr_from_obj(c) for c in obj["children"]))
        if kind == "max":
            return Max(tuple(expr_from_obj(c) for c in obj["children"]))
        if kind == "blend":
            return Blend(expr_from_obj(obj["inner"]), obj["factor"], obj["anchor"])
        if kind == "mcshane":
            return McShane(tuple((tuple(p), v) for p, v in obj["samples"]),
                           obj["scale"], obj["mode"])
        if kind == "inf":
            return Infinite(_sign_from_obj(obj, "sign", kind))
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in {kind!r} expression") from exc
    raise ValueError(f"unknown expression type {kind!r}")


def expr_dumps(f: LipExpr) -> str:
    """Canonical JSON text; serialize -> parse -> serialize is bit-exact."""
    return json.dumps(expr_to_obj(f), sort_keys=True, separators=(",", ":"))


def expr_loads(text: str) -> LipExpr:
    return expr_from_obj(json.loads(text))
