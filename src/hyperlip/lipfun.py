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

Expressions are immutable and hashable, and compare by value.  Each node
holds its ``dim`` (:func:`domain_dim`) and, but for :class:`Infinite`, its
``lip`` (:func:`lip_bound`) from construction, from its own fields and its
direct children's; they are not fields, so equality and ``repr`` ignore them.

The evaluators do not read the grammar.  :func:`_lower` rewrites an
expression into four kinds, and each kind holds its scalar closure (for
:func:`_compile`), batch closure (for :func:`_compile_grid`) and interval
enclosure (for :func:`bounds_of`) side by side:

- a constant: ``Const``; ``Infinite`` as ``+inf`` or ``-inf``; on the
  zero-dimensional domain, where every distance is 0, a ``DistCone`` as its
  offset and each ``McShane`` sample as ``slope * 0.0 + value`` under a node;
  and at scale 0 a ``DistCone`` as ``slope * 0.0 + offset`` and a
  ``McShane`` as on that domain.  ``slope * 0.0`` has the bits of ``slope *
  d`` at every finite distance ``d``, and is no NaN where ``d`` overflowed
  to ``inf``.  A ``Blend`` of factor 0 is ``factor * 0.0 + anchor``, its
  value at every finite inner value, and no NaN where the inner value
  overflowed; at anchor ``-0.0`` it stays a blend, of its inner value
  clamped into [-1, 1];
- a cone family: ``min`` or ``max`` over the cones ``y -> slope * ||center
  - y|| + offset`` of its rows ``(center, offset)``, with one slope.  A
  ``DistCone`` is one row of slope ``orientation * scale``; a ``McShane`` is
  its samples, a ``min`` of slope ``scale`` in mode ``inf`` and a ``max`` of
  slope ``-scale`` in mode ``sup``.  A ``Min``/``Max`` whose children all
  lower to one-row families of one slope is one family, rows in child order;
- a ``min``/``max`` node over the lowered children, in their order;
- a blend node.

Every row does the float operations of its grammar node's definition and
every reduction sees the same operands in the same order, so the values are
those of evaluating the grammar node by node, bit for bit.  That is why a
family with more than one row is not merged into its parent: numpy's 1-D
min/max over more than 8 values does not choose between ``0.0`` and ``-0.0``
by position.

A set's axis reads its two bounds at the same hat point, so the pair
``(lower_i, upper_i)`` lowers as one unit (:func:`_compile_pair`,
:func:`_compile_grid_pair`), whose evaluator returns ``(lo, up)``.  When
each side is a cone family under zero or more blends and the two families
have equal centres, as the lower and upper envelopes of one set of samples
and their shrunken blends do, one kernel takes the distances ``max_k |c_k -
y_k|`` once and each family reduces them with its own slope, offsets,
aggregate and blends.  Every value keeps its own float expression, so it
has the bits of evaluating its side alone.  Any other pair evaluates its
two sides apart.  A single family is the one-family case of the same
kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .metric import as_point, as_points, sup_dists

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
    "expr_to_obj",
    "expr_from_obj",
]

BOUNDS_SLACK = 1e-12
# bytes one block of the pairwise Lipschitz audit may hold per temporary
_PAIR_BLOCK_BYTES = 1 << 20
# bytes of the distance table one block of a cone family's batch kernel may
# hold; 1 MiB blocks made the 12,000-row batch retractions ~1.8x slower
_GRID_BLOCK_BYTES = 16 << 20
# deepest expression a constructor builds.  The walkers (``_lower``, the
# evaluators, ``bounds_of``, the JSON form) recurse, up to five Python frames
# per level (a ``Blend`` of factor 0 at anchor ``-0.0`` lowers to three
# nodes), so every one of them stays within the default recursion limit
_MAX_DEPTH = 128
# columns up to which a block of a cone family's batch kernel gathers its
# difference table with one ``take``; above it, broadcasting is faster
_TAKE_COLUMNS = 2000


class LipExpr:
    """Base class for grammar nodes.  A leaf is one level deep; a node with
    children holds its ``depth`` from construction."""

    __slots__ = ()
    depth = 1


def _too_deep(what, depth):
    return ValueError(f"{what} would be {depth} levels deep; expressions may be "
                      f"at most {_MAX_DEPTH} deep")


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

    dim = None
    lip = 0.0

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _require_finite(self.value, "Const value"))


@dataclass(frozen=True)
class DistCone(LipExpr):
    """``y -> orientation * scale * ||center - y|| + offset`` in the sup norm."""

    dim = property(lambda self: len(self.center))
    lip = property(lambda self: self.scale)

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
class _MinMax(LipExpr):
    """Pointwise minimum (:class:`Min`) or maximum (:class:`Max`) of a
    nonempty family."""

    children: tuple

    def __init__(self, *children):
        if len(children) == 1 and not isinstance(children[0], LipExpr):
            children = tuple(children[0])
        name = type(self).__name__
        if not children:
            raise ValueError(f"{name} needs at least one child")
        object.__setattr__(self, "children",
                           tuple(_require_inner(c, f"{name} child") for c in children))
        dims = [c.dim for c in self.children if c.dim is not None]
        for d in dims:
            if d != dims[0]:
                raise ValueError(f"mixed domain dimensions {dims[0]} and {d} in one family")
        object.__setattr__(self, "dim", dims[0] if dims else None)
        object.__setattr__(self, "lip", max(c.lip for c in self.children))
        depth = 1 + max(c.depth for c in self.children)
        if depth > _MAX_DEPTH:
            raise _too_deep(name, depth)
        object.__setattr__(self, "depth", depth)


class Min(_MinMax):
    """Pointwise minimum of a nonempty family."""

    agg = min


class Max(_MinMax):
    """Pointwise maximum of a nonempty family."""

    agg = max


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
        object.__setattr__(self, "dim", self.inner.dim)
        object.__setattr__(self, "lip", self.factor * self.inner.lip)
        depth = self.inner.depth + 1
        if depth > _MAX_DEPTH:
            raise _too_deep("Blend", depth)
        object.__setattr__(self, "depth", depth)


@dataclass(frozen=True)
class McShane(LipExpr):
    """Envelope extension of finitely many samples ``(point, value)``.

    ``mode='inf'`` is the upper envelope ``min_j (v_j + scale * ||y_j - y||)``,
    the largest scale-Lipschitz function lying below every sample spike;
    ``mode='sup'`` is the lower envelope ``max_j (v_j - scale * ||y_j - y||)``.
    """

    dim = property(lambda self: len(self.samples[0][0]))
    lip = property(lambda self: self.scale)

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

    dim = None

    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")


def _expr(f):
    if not isinstance(f, LipExpr):
        raise TypeError(f"not a LipExpr: {f!r}")
    return f


def domain_dim(f: LipExpr):
    """Dimension of the domain of ``f``, or ``None`` when any dimension fits."""
    return _expr(f).dim


# ---------------------------------------------------------------------------
# Lowering: the four kinds the evaluators read (module docstring)

_UFUNC = {min: np.minimum, max: np.maximum}


class _Const(NamedTuple):
    value: float

    def closure(self):
        v = self.value
        return lambda y: v

    def grid(self, hat=None):
        v = self.value
        return lambda YT: np.full(YT.shape[1], v)

    def interval(self, box):
        return self.value, self.value


class _Cones(NamedTuple):
    """``agg`` (``min`` or ``max``) over the cones ``y -> slope * ||center -
    y|| + offset``, one per row ``(center, offset)`` of ``rows``."""

    agg: Callable
    slope: float
    rows: tuple

    def closure(self):
        kernel = _cones_closure(((self, ()),))
        return lambda y: kernel(y)[0]

    def grid(self, hat=None):
        kernel = _cones_grid(((self, ()),), hat)
        return lambda YT: kernel(YT)[0]

    def interval(self, box):
        los, his = [], []
        for c, off in self.rows:
            lo, hi = _interval_dist(c, box)
            a, b = self.slope * lo + off, self.slope * hi + off
            if b < a:
                a, b = b, a
            los.append(a)
            his.append(b)
        return self.agg(los), self.agg(his)


def _heads(families):
    """Per ``(family, blends)``: its aggregate, slope, offsets and blends."""
    return [(k.agg, k.slope, [off for _, off in k.rows], blends) for k, blends in families]


def _centres(family):
    return [c for c, _ in family.rows]


def _cones_closure(families):
    """Scalar kernel of cone families with equal centres, each under its
    blends ``(factor, anchor)``, innermost first: ``y -> [value of each]``.
    Each centre's distance ``max_k |c_k - y_k|`` is taken once; each family
    reduces its own ``slope * best + offset`` over the rows, then applies
    its blends."""
    centres = _centres(families[0][0])
    heads = _heads(families)
    one = len(centres) == 1

    def cones(y):
        bests = []
        for c in centres:
            best = 0.0
            for a, b in zip(c, y):
                d = abs(a - b)
                if d > best:
                    best = d
            bests.append(best)
        out = []
        for agg, slope, offs, blends in heads:
            if one:         # agg of one value is that value
                v = slope * bests[0] + offs[0]
            else:
                v = agg([slope * best + off for best, off in zip(bests, offs)])
            for fac, anchor in blends:
                v = fac * (v - anchor) + anchor
            out.append(v)
        return out
    return cones


def _cones_grid(families, hat=None):
    """Batch kernel of :func:`_cones_closure`, points as the columns of
    ``YT``; with ``hat``, an index array, the points are the rows ``hat`` of
    ``YT``, so that a caller holding whole points does not gather them
    first.  The columns run in blocks whose difference table of ``dim * R *
    block`` floats stays within ``_GRID_BLOCK_BYTES``; when they fit in one
    block, as a batch engine step's usually do, the table is built once and
    each reduction allocates its own output, otherwise each block reduces
    into its slice of preallocated outputs.  The table has two layouts of
    the same differences.  A block of at most ``_TAKE_COLUMNS`` columns
    takes it as ``(dim * R, block)`` with one ``take`` of each point row
    repeated once per centre, then subtracts a column of the centres in
    place, which saves numpy calls on the few columns of an engine step; a
    wider block gathers its points and broadcasts them against the centres
    as ``(dim, R, block)``, which is faster there.  The centres are held
    C-contiguous, so that the table is too and the reduction over ``dim``
    reads whole ``(R, block)`` slabs; that reduction is of absolute values,
    whose zeros are all ``+0.0``, so its order does not change a bit.  A
    reduction over an axis of length 1 (a one-dimensional hat space, a
    one-row family) is skipped, since it would return that element.

    A block releases its difference table once its ``(R, block)`` distances
    are taken; each family but the last scales a copy of them, the last
    scales them in place.  So a block holds the difference table and the
    distances, or the distances and one copy, never all three.  Two
    families without blends (the bounds of a McShane set) in one block of
    at most ``_TAKE_COLUMNS`` columns are scaled together into one ``(2, R,
    block)`` array instead, each half reduced by its own aggregate: the same
    operations per element, in fewer calls.

    numpy reduces the rows of a one-column table as one 1-D run, which does
    not keep the same one of ``0.0`` and ``-0.0`` as its row-by-row
    reduction of a wider table.  So a one-column block is evaluated as two
    copies of its column, keeping the first, and a value does not depend on
    how the points fall into blocks."""
    C = np.asarray(_centres(families[0][0])).T.copy()           # (dim, R)
    dim, R = C.shape
    column, C = C.reshape(dim * R, 1), C[:, :, None]
    coords = np.arange(dim) if hat is None else np.asarray(hat, dtype=np.intp)
    repeated = coords.repeat(R)             # the row of YT behind each table row
    heads = [(slope, np.asarray(offs)[:, None], _UFUNC[agg], blends)
             for agg, slope, offs, blends in _heads(families)]
    block = max(1, _GRID_BLOCK_BYTES // (8 * dim * R))
    last = len(heads) - 1
    allocate = [None] * len(heads)
    plain = len(heads) == 2 and R > 1 and not any(blends for *_, blends in heads)
    if plain:
        slopes = np.array([slope for slope, *_ in heads])[:, None, None]     # (2, 1, 1)
        offsets = np.stack([off for _, off, *_ in heads])                    # (2, R, 1)
        lower, upper = (ufunc for _, _, ufunc, _ in heads)

    def table(YT, out):
        """Each family's values at the columns of ``YT``, reduced into its
        entry of ``out``, or into a new array where that entry is ``None``."""
        N = YT.shape[1]
        small = N <= _TAKE_COLUMNS
        if small:
            D = YT.take(repeated, axis=0)
            D -= column
            D = D.reshape(dim, R, N)
        else:
            D = (YT if hat is None else YT.take(coords, axis=0))[:, None, :] - C
        np.abs(D, out=D)
        best = D[0] if dim == 1 else np.maximum.reduce(D, axis=0)
        del D
        if small and plain and out is allocate:
            V = best * slopes                   # (2, R, N)
            V += offsets
            return [lower.reduce(V[0], axis=0), upper.reduce(V[1], axis=0)]
        vals = []
        for j, ((slope, off, ufunc, blends), o) in enumerate(zip(heads, out)):
            V = best * slope if j < last else np.multiply(best, slope, out=best)
            V += off
            v = V[0] if R == 1 and o is None else ufunc.reduce(V, axis=0, out=o)
            for fac, anchor in blends:          # fac * (v - anchor) + anchor
                v -= anchor
                v *= fac
                v += anchor
            vals.append(v)
        return vals

    def cones(YT):
        N = YT.shape[1]
        if N == 1:
            return [v[:1] for v in table(np.concatenate((YT, YT), axis=1), allocate)]
        if N <= block:
            return table(YT, allocate)
        out = [np.empty(N) for _ in heads]
        for s in range(0, N, block):
            cols = YT[:, s:s + block]
            if cols.shape[1] == 1:
                for o, v in zip(out, cones(cols)):
                    o[s] = v[0]
            else:
                table(cols, [o[s:s + block] for o in out])
        return out
    return cones


class _Node(NamedTuple):
    """``agg`` (``min`` or ``max``) over lowered children, in their order."""

    agg: Callable
    children: tuple

    def closure(self):
        subs, agg = [k.closure() for k in self.children], self.agg
        return lambda y: agg([h(y) for h in subs])

    def grid(self, hat=None):
        subs, ufunc = [k.grid(hat) for k in self.children], _UFUNC[self.agg]
        return lambda YT: ufunc.reduce([h(YT) for h in subs])

    def interval(self, box):
        parts = [k.interval(box) for k in self.children]
        return self.agg(p[0] for p in parts), self.agg(p[1] for p in parts)


class _Blend(NamedTuple):
    inner: tuple
    factor: float
    anchor: float

    def closure(self):
        g, fac, anchor = self.inner.closure(), self.factor, self.anchor
        return lambda y: fac * (g(y) - anchor) + anchor

    def grid(self, hat=None):
        g, fac, anchor = self.inner.grid(hat), self.factor, self.anchor
        return lambda YT: fac * (g(YT) - anchor) + anchor

    def interval(self, box):
        lo, hi = self.inner.interval(box)
        return (self.factor * (lo - self.anchor) + self.anchor,
                self.factor * (hi - self.anchor) + self.anchor)


def _lower(f: LipExpr):
    """Rewrite ``f`` into the four kinds the evaluators read."""
    if isinstance(f, Const):
        return _Const(f.value)
    if isinstance(f, Infinite):
        return _Const(f.sign * math.inf)
    if isinstance(f, DistCone):
        if not f.center:
            return _Const(f.offset)
        if f.scale == 0.0:
            return _Const(f.orientation * f.scale * 0.0 + f.offset)
        return _Cones(min, f.orientation * f.scale, ((f.center, f.offset),))
    if isinstance(f, McShane):
        agg, slope = (min, f.scale) if f.mode == "inf" else (max, -f.scale)
        if not f.samples[0][0] or slope == 0.0:
            return _Node(agg, tuple(_Const(slope * 0.0 + v) for _, v in f.samples))
        return _Cones(agg, slope, f.samples)
    if isinstance(f, Blend):
        inner = _lower(f.inner)
        if f.factor == 0.0:
            if f.anchor or math.copysign(1.0, f.anchor) > 0.0:
                return _Const(f.factor * 0.0 + f.anchor)
            # at anchor -0.0 the value is a zero whose sign follows the inner
            # value's sign, which clamping into [-1, 1] keeps
            inner = _Node(max, (_Node(min, (inner, _Const(1.0))), _Const(-1.0)))
        return _Blend(inner, f.factor, f.anchor)
    if isinstance(f, _MinMax):
        kids = tuple(_lower(c) for c in f.children)
        if all(isinstance(k, _Cones) and len(k.rows) == 1 for k in kids) and \
                len({k.slope.hex() for k in kids}) == 1:    # one slope, bit for bit
            return _Cones(f.agg, kids[0].slope, tuple(k.rows[0] for k in kids))
        return _Node(f.agg, kids)
    raise TypeError(f"not a LipExpr: {f!r}")


def _family(k):
    """``(family, blends)`` when the lowered ``k`` is a cone family under
    zero or more blends, as ``(factor, anchor)`` innermost first; else
    ``None``."""
    blends = ()
    while isinstance(k, _Blend):
        blends = ((k.factor, k.anchor),) + blends
        k = k.inner
    return (k, blends) if isinstance(k, _Cones) else None


def _paired(lower, upper, kernel, build):
    """One evaluator ``y -> (lo, up)`` of an axis's lowered bounds: ``kernel``
    over both families when they share centres, else each side's ``build``."""
    sides = _family(lower), _family(upper)
    if None in sides or _centres(sides[0][0]) != _centres(sides[1][0]):
        f, g = build(lower), build(upper)
        return lambda y: (f(y), g(y))
    # equal centres give equal distances bit for bit, 0.0 against -0.0 too,
    # since |a - b| drops the sign of a zero difference
    return kernel(sides)


def _compile(f: LipExpr) -> Callable:
    """Build a plain-Python evaluator closure (hot path of the scalar engine)."""
    return _lower(f).closure()


def _compile_grid(f: LipExpr) -> Callable:
    """Build a batch evaluator (hot path of the batch engine).

    The evaluator takes points as the columns of a ``(dim, N)`` array and
    returns the ``N`` values.  It does the per-element arithmetic of
    :func:`_compile` in the same order, so the two agree bit for bit.  Every
    reduction runs over the leading axis, one elementwise step per contiguous
    row of ``N`` values.  A family's row arrays are built once, with the
    evaluator, and its ``(dim, R, N)`` difference table is cut into blocks of
    columns of at most ``_GRID_BLOCK_BYTES``, so a large grid costs no more
    scratch than one block.
    """
    return _lower(f).grid()


def _compile_pair(lower: LipExpr, upper: LipExpr) -> Callable:
    """Scalar evaluator ``y -> (lower(y), upper(y))`` of one axis's bounds,
    equal to :func:`_compile` of each side bit for bit."""
    return _paired(_lower(lower), _lower(upper), _cones_closure, lambda k: k.closure())


def _compile_grid_pair(lower: LipExpr, upper: LipExpr, hat=None) -> Callable:
    """Batch evaluator ``YT -> (lower values, upper values)`` of one axis's
    bounds, equal to :func:`_compile_grid` of each side bit for bit.  With
    ``hat``, an index array, ``YT`` holds whole points as its columns and
    the bounds read their rows ``hat``; every cone family takes them from
    ``YT`` itself, inside its kernel (:func:`_cones_grid`)."""
    return _paired(_lower(lower), _lower(upper), lambda sides: _cones_grid(sides, hat),
                   lambda k: k.grid(hat))


@np.errstate(over="ignore")
def eval_grid(f: LipExpr, Y: np.ndarray) -> np.ndarray:
    """Evaluate ``f`` at every row of ``Y`` (shape ``(N, dim)``) at once.

    A value too large for a float reads ``±inf``, as in :func:`_compile`,
    without a warning.
    """
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
    return _expr(f).lip


def verify_lipschitz_on_grid(f: LipExpr, grid, lam: float, tol: float = 1e-12):
    """Brute-force Lipschitz audit over all pairs of grid points.

    Returns ``None`` when ``|f(y) - f(y')| <= lam * ||y - y'|| + tol`` for
    every pair, otherwise the first offending pair ``(y, y')``.  This is the
    independent check the syntactic :func:`lip_bound` is tested against.
    ``lam`` and ``tol`` must be finite and nonnegative, and the differences
    of grid coordinates and of values finite.
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and nonnegative, got {lam!r}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    Y = as_points(grid)
    if not len(Y):
        raise ValueError("empty grid")
    with np.errstate(over="ignore", invalid="ignore"):
        vals = eval_grid(f, Y)

    def point(i):
        return tuple(Y[i].tolist())

    finite = np.isfinite(vals)
    if not finite.all():
        raise ValueError(f"expression is not finite at {point(int(finite.argmin()))}")
    N = len(Y)
    with np.errstate(over="ignore"):
        spread = np.ptp(np.column_stack([Y, vals]), axis=0)
    if not np.isfinite(spread).all():
        raise ValueError("grid points or values are too far apart for finite differences")
    # rows i in blocks against the columns j > r, each (rows, N) temporary
    # within _PAIR_BLOCK_BYTES.  The test is symmetric and never holds for
    # i == j, so the first offending (i, j) in row-major order has j > i.
    rows = max(1, _PAIR_BLOCK_BYTES // (8 * N))
    for r in range(0, N - 1, rows):
        i = np.arange(r, min(r + rows, N - 1))
        d = sup_dists(Y[i], Y[r + 1:])
        with np.errstate(over="ignore"):    # a huge lam * d rounds up to inf
            bad = np.abs(vals[i, None] - vals[None, r + 1:]) > lam * d + tol
        if bad.any():
            a, b = divmod(int(bad.argmax()), N - r - 1)
            return point(r + a), point(r + 1 + b)
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
    lo = hi = 0.0
    for c, (a, b) in zip(center, box):
        far = max(abs(c - a), abs(c - b))
        near = 0.0 if a <= c <= b else min(abs(c - a), abs(c - b))
        if near > lo:
            lo = near
        if far > hi:
            hi = far
    return lo, hi


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
    lo, hi = _lower(f).interval(box)
    return lo - BOUNDS_SLACK, hi + BOUNDS_SLACK


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
    if isinstance(f, _MinMax):
        return {"type": f.agg.__name__, "children": [expr_to_obj(c) for c in f.children]}
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
        if kind in ("min", "max"):
            return (Min if kind == "min" else Max)(tuple(expr_from_obj(c) for c in obj["children"]))
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
