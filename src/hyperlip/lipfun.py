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
holds its ``dim`` (:func:`domain_dim`), its ``lip`` (:func:`lip_bound`; not
:class:`Infinite`) and its lowered ``form`` from construction, from its own
fields and its direct children's forms; they are not fields, so equality and
``repr`` ignore them.  The evaluators read only the ``form``, one of four
kinds, each with its scalar closure (for :func:`_compile`), batch closure
(for :func:`_compile_grid`) and interval enclosure (for :func:`bounds_of`):

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
``(lower_i, upper_i)`` lowers as one unit, a :class:`_Pair`, which
:func:`_compile_pair` and :func:`_compile_grid_pair` turn into an evaluator
that returns ``(lo, up)``.  When each side is a cone family under zero or
more blends and the two families have equal centres, as the lower and upper
envelopes of one set of samples and their shrunken blends do, the pair holds
the centres once, as per-coordinate tuples, and each family's aggregate,
slope, offsets and blends; one kernel takes the distances ``max_k |c_k -
y_k|`` once and each family reduces them with its own.  Every value keeps
its own float expression, so it has the bits of evaluating its side alone.
Any other pair evaluates its two sides apart.  A single family is the
one-family case of the same kernels.  The scalar kernel of families of at
most ``_STRAIGHT_ROWS`` rows is straight-line code, generated once per shape
(hat coordinates, rows, each family's aggregate and blend count) and given
the numbers as default arguments, so a new set of a known shape compiles
nothing.  It calls nothing: its compares and branches choose as ``abs``,
``max`` and ``min`` do, with their bits.  Blending both sides of a pair by
one factor (:func:`_blend_pair`, what a relaxed set of :mod:`hyperlip.boxset`
does to its base's pairs) keeps its centres and offsets and adds one blend
to each side; clamping both into an interval (:func:`_clamp_pair`, what a
truncated set does) builds the clamp's lowered form.  Neither builds a
grammar node.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import types
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import metric
from .metric import _WORDS, _first_of, _nonnegative, _real, _sign, as_point, as_points, sup_dists

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
# bytes of the tables one block of a cone family's batch kernel may hold: two
# (R, block) tables, or a (dim * R, block) table and its distances.  1 MiB
# blocks made the 12,000-row batch retractions ~13% faster (2-vCPU Xeon,
# numpy 2.4), but cut the 4225-point grids of a reconstruction's check into
# blocks, ~7% slower there
_GRID_BLOCK_BYTES = 16 << 20
# deepest expression a constructor builds.  The walkers (the evaluators,
# ``bounds_of``, the JSON form) recurse, up to five Python frames per level
# (a ``Blend`` of factor 0 at anchor ``-0.0`` lowers to three nodes), so
# every one of them stays within the default recursion limit
_MAX_DEPTH = 128
# columns up to which a block of a cone family's batch kernel over two or more
# hat coordinates takes its difference table with one ``take``, in fewer
# numpy calls than the coordinate fold.  Up to here the fold took 1.0-2.0x
# the take's time at 4-16 rows, and past ~2700 columns the take was the
# slower one by 1.3-2x; at 64 rows the fold won from ~1000 columns
_TAKE_COLUMNS = 2000
# rows up to which a scalar cone kernel is straight-line code, and of how
# many shapes the code is kept.  A compile costs 1.4-3 ms at 16 rows and grows
# with the rows, while the gain over the column loop shrinks: at 32 rows and
# 2 hat coordinates it is gone, so a wider family keeps the loop
_STRAIGHT_ROWS = 16
_KERNEL_SHAPES = 64


class LipExpr:
    """Base class for grammar nodes.  A leaf is one level deep; a node with
    children holds its ``depth`` from construction."""

    __slots__ = ()
    depth = 1


def _depth(what, children):
    depth = 1 + max(c.depth for c in children)
    if depth > _MAX_DEPTH:
        raise ValueError(f"{what} would be {depth} levels deep; expressions may be "
                         f"at most {_MAX_DEPTH} deep")
    return depth


def _require_finite(value, what):
    v = _real(value, what)
    if not math.isfinite(v):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return v


def _require_unit(value, what):
    v = _real(value, what)
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
        object.__setattr__(self, "form", _Const(self.value))


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
        object.__setattr__(self, "orientation", _sign(self.orientation, "orientation"))
        object.__setattr__(self, "form", _cone_form(self.center, self.offset,
                                                    self.orientation * self.scale))


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
        object.__setattr__(self, "depth", _depth(name, self.children))
        object.__setattr__(self, "form", _family_form(self.agg, self.children))


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
        object.__setattr__(self, "depth", _depth("Blend", (self.inner,)))
        object.__setattr__(self, "form", _blend_form(self.inner.form, self.factor, self.anchor))


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
        samples = []
        for pt, val in self.samples:
            pt = as_point(pt)
            if samples and len(pt) != len(samples[0][0]):
                raise ValueError("McShane sample points must share one dimension")
            samples.append((pt, _require_finite(val, "McShane sample value")))
        if not samples:
            raise ValueError("McShane needs at least one sample")
        object.__setattr__(self, "samples", tuple(samples))
        agg, slope = (min, self.scale) if self.mode == "inf" else (max, -self.scale)
        if not samples[0][0] or slope == 0.0:
            form = _Node(agg, tuple(_Const(slope * 0.0 + v) for _, v in self.samples))
        else:
            form = _Cones(agg, slope, self.samples)
        object.__setattr__(self, "form", form)


@dataclass(frozen=True)
class Infinite(LipExpr):
    """A missing constraint: ``-inf`` as a lower bound or ``+inf`` as an upper."""

    dim = None

    sign: int

    def __post_init__(self):
        object.__setattr__(self, "sign", _sign(self.sign, "sign"))
        object.__setattr__(self, "form", _Const(self.sign * math.inf))


def _expr(f):
    if not isinstance(f, LipExpr):
        raise TypeError(f"not a LipExpr: {f!r}")
    return f


def domain_dim(f: LipExpr):
    """Dimension of the domain of ``f``, or ``None`` when any dimension fits."""
    return _expr(f).dim


# ---------------------------------------------------------------------------
# The four kinds of lowered form the evaluators read (module docstring)

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
        kernel = _cones_closure((_head(self),), _columns(self))
        return lambda y: kernel(y)[0]

    def grid(self, hat=None):
        kernel = _cones_grid((_head(self),), _columns(self), hat)
        return lambda YT: kernel(YT)[0]

    def interval(self, box):
        # each row's distance range (near, far) over the box, as running
        # maxima from 0.0 that take only a larger term: the bits of max
        # over abs, with compares and branches in place of calls
        slope, los, his = self.slope, [], []
        for center, off in self.rows:
            near = far = 0.0
            for c, (a, b) in zip(center, box):
                near = t if (t := a - c if c < a else c - b) > near else near
                far = t if (t := c - a if c - a > b - c else b - c) > far else far
            lo, hi = slope * near + off, slope * far + off
            los.append(hi if hi < lo else lo)
            his.append(lo if hi < lo else hi)
        return self.agg(los), self.agg(his)


def _head(family, blends=()):
    """What a kernel reduces a cone family with: its aggregate, slope and
    offsets, and the blends ``(factor, anchor)`` over it, innermost first."""
    return family.agg, family.slope, tuple(off for _, off in family.rows), blends


def _columns(family):
    """A cone family's centres as per-coordinate tuples."""
    return tuple(zip(*(c for c, _ in family.rows)))


def _cones_closure(heads, cols):
    """Scalar kernel of cone families with equal centres ``cols`` (as
    :func:`_columns`), one :func:`_head` each: ``y ->`` each one's value.
    Each row's distance ``max_k |c_k - y_k|`` is a running maximum from 0.0
    that takes ``|c_k - y_k|`` when it is larger, in coordinate order, so a
    NaN or a zero leaves the same bits as a loop over each centre's
    coordinates; it is taken once for all families.  Each family reduces
    its own ``slope * distance + offset`` over the rows (one row is its own
    value), then applies its blends.  Up to ``_STRAIGHT_ROWS`` rows this is
    the call-free code of :func:`_kernel_code` with the numbers as its
    default arguments: compares and branches in place of ``abs`` and the
    aggregate, with the same bits.  A wider family runs the same operations
    column by column."""
    R = len(cols[0])
    if R <= _STRAIGHT_ROWS:
        numbers = [*itertools.chain(*cols)]
        for _, slope, offs, blends in heads:
            numbers += [slope, *offs, *itertools.chain(*blends)]
        code = _kernel_code(len(cols), R, tuple((agg, len(b)) for agg, _, _, b in heads))
        return types.FunctionType(code, _KERNEL_GLOBALS, None, tuple(numbers))
    zeros = (0.0,) * R

    def cones(y):
        bests = zeros
        for col, b in zip(cols, y):
            bests = [d if (d := abs(a - b)) > best else best for a, best in zip(col, bests)]
        out = []
        for agg, slope, offs, blends in heads:
            v = agg([slope * best + off for best, off in zip(bests, offs)])
            for fac, anchor in blends:
                v = fac * (v - anchor) + anchor
            out.append(v)
        return out
    return cones


_KERNEL_GLOBALS = {"__builtins__": {}}


@functools.lru_cache(maxsize=_KERNEL_SHAPES)
def _kernel_code(m, R, shape):
    """Code of :func:`_cones_closure`'s kernel ``(y, centres, then per family
    its slope, offsets and blends' (factor, anchor))`` for ``m`` hat
    coordinates, ``R`` rows and per family its ``(aggregate, blend count)``.
    Its source holds names built from integers and the constant 0.0, never
    a number of the families, and it calls nothing.  A row's distance starts
    at 0.0 and takes each ``|c - y|``, written ``c - y if c >= y else y -
    c``, when it is larger: rounding is symmetric, so ``y - c`` is ``-(c -
    y)`` and has the bits of ``abs``, and a NaN or a zero never replaces the
    distance.  A family's value starts at its first term and takes each
    later one when it compares larger (``max``) or smaller (``min``), which
    is what ``max`` and ``min`` do: they keep the first of equal values and
    never move onto a NaN."""
    params = [f"c{k}_{r}" for k in range(m) for r in range(R)]
    body = [f"{''.join(f'y{k}, ' for k in range(m))}= y"]
    for r in range(R):
        body.append(f"d{r} = 0.0")
        for k in range(m):
            body += [f"t0 = c{k}_{r} - y{k} if c{k}_{r} >= y{k} else y{k} - c{k}_{r}",
                     f"if t0 > d{r}: d{r} = t0"]
    for f, (agg, blends) in enumerate(shape):
        params += [f"s{f}", *(f"o{f}_{r}" for r in range(R))]
        body.append(f"v{f} = s{f} * d0 + o{f}_0")
        for r in range(1, R):
            body += [f"t0 = s{f} * d{r} + o{f}_{r}",
                     f"if t0 {'>' if agg is max else '<'} v{f}: v{f} = t0"]
        for b in range(blends):
            params += [f"p{f}_{b}", f"q{f}_{b}"]
            body.append(f"v{f} = p{f}_{b} * (v{f} - q{f}_{b}) + q{f}_{b}")
    body.append(f"return {''.join(f'v{f}, ' for f in range(len(shape)))}")
    namespace = {}
    exec(f"def cones(y, {', '.join(params)}):\n " + "\n ".join(body), _KERNEL_GLOBALS, namespace)
    return namespace["cones"].__code__


def _cones_grid(heads, cols, hat=None):
    """Batch kernel of :func:`_cones_closure`, points as the columns of
    ``YT``; with ``hat``, an index array, the points are the rows ``hat`` of
    ``YT``, so that a caller holding whole points does not gather them
    first.  The columns run in blocks whose tables stay within
    ``_GRID_BLOCK_BYTES``; when they fit in one block, as a batch engine
    step's usually do, each reduction allocates its own output, otherwise
    each block reduces into its slice of preallocated outputs.

    A block takes its ``(R, block)`` distances in one of two layouts of the
    same operations.  It folds them coordinate by coordinate: from
    ``|y_0 - c_0|``, each further hat row of ``YT`` is subtracted from its
    centres into one ``(R, block)`` scratch, made absolute, and folded in by
    ``maximum``; so a block holds two ``(R, block)`` tables, and nothing of
    the size of ``dim * R * block``.  A block of at most ``_TAKE_COLUMNS``
    columns in a hat space of two or more dimensions, whose ``(dim * R,
    block)`` table and distances fit the budget, instead takes that table
    with one ``take`` of each point row repeated once per centre, subtracts
    a column of the centres in place and reduces it over ``dim``: fewer
    numpy calls on the few columns of an engine step.  Either way the
    maximum is over absolute values, whose zeros are all ``+0.0``, so the
    layout and the order do not change a bit.

    Each family but the last scales a copy of the distances, the last
    scales them in place, so a block holds the distances and one more
    table at a time.  Two families without blends (the bounds of a McShane
    set) over at most ``_TAKE_COLUMNS`` columns in one block are scaled
    together into one ``(2, R, block)`` array instead, each half reduced by
    its own aggregate: the same operations per element, in fewer calls.  A
    reduction over an axis of length 1 (a one-row family) is skipped, since
    it would return that element.

    numpy reduces the rows of a one-column table as one 1-D run, which does
    not keep the same one of ``0.0`` and ``-0.0`` as its row-by-row
    reduction of a wider table.  So a one-column block is evaluated as two
    copies of its column, keeping the first, and a value does not depend on
    how the points fall into blocks."""
    C = np.array(cols)                      # (dim, R)
    dim, R = C.shape
    column, C = C.reshape(dim * R, 1), C[:, :, None]
    coords = np.arange(dim) if hat is None else np.asarray(hat, dtype=np.intp)
    repeated = coords.repeat(R)             # the row of YT behind each taken row
    first, *rest = coords.tolist()
    heads = [(slope, np.asarray(offs)[:, None], _UFUNC[agg], blends)
             for agg, slope, offs, blends in heads]
    block = max(1, _GRID_BLOCK_BYTES // (16 * R))
    take = min(_TAKE_COLUMNS, 2 * block // (dim + 1)) if dim > 1 else 0
    last = len(heads) - 1
    allocate = [None] * len(heads)
    plain = len(heads) == 2 and R > 1 and not any(blends for *_, blends in heads)
    if plain:
        slopes = np.array([slope for slope, *_ in heads])[:, None, None]     # (2, 1, 1)
        offsets = np.stack([off for _, off, *_ in heads])                    # (2, R, 1)
        lower, upper = (ufunc for _, _, ufunc, _ in heads)

    def distances(YT):
        """The ``(R, N)`` distances from the centres to the columns of ``YT``."""
        N = YT.shape[1]
        if N <= take:
            D = YT.take(repeated, axis=0)
            D -= column
            np.abs(D, out=D)
            return np.maximum.reduce(D.reshape(dim, R, N), axis=0)
        best = YT[first] - C[0]
        np.abs(best, out=best)
        T = np.empty_like(best) if rest else None
        for h, c in zip(rest, C[1:]):
            np.abs(np.subtract(YT[h], c, out=T), out=T)
            np.maximum(best, T, out=best)
        return best

    def table(YT, out):
        """Each family's values at the columns of ``YT``, reduced into its
        entry of ``out``, or into a new array where that entry is ``None``."""
        best = distances(YT)
        if plain and YT.shape[1] <= _TAKE_COLUMNS and out is allocate:
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


def _blend_form(inner, factor, anchor):
    """The lowered form of ``Blend`` over the lowered ``inner``."""
    if factor == 0.0 and (anchor or math.copysign(1.0, anchor) > 0.0):
        return _Const(factor * 0.0 + anchor)
    if factor == 0.0:
        # at anchor -0.0 the value is a zero whose sign follows the inner
        # value's sign, which clamping into [-1, 1] keeps
        inner = _Node(max, (_Node(min, (inner, _Const(1.0))), _Const(-1.0)))
    return _Blend(inner, factor, anchor)


def _cone_form(center, offset, slope):
    """The lowered form of a ``DistCone`` of centre ``center``, ``offset``
    and slope ``orientation * scale``."""
    if center and slope:
        return _Cones(min, slope, ((center, offset),))
    return _Const(slope * 0.0 + offset if center else offset)


def _family_form(agg, children):
    """The lowered form of a ``Min`` (``agg`` is ``min``) or ``Max`` of
    ``children``: one cone family when every child lowers to a one-row
    family and their slopes agree bit for bit, else a node."""
    kids = tuple(c.form for c in children)
    if all(isinstance(k, _Cones) and len(k.rows) == 1 for k in kids) and \
            len({k.slope.hex() for k in kids}) == 1:
        return _Cones(agg, kids[0].slope, tuple(k.rows[0] for k in kids))
    return _Node(agg, kids)


def _cone_family(family, C, offsets, orientation):
    """``family(DistCone(c, o, 1.0, orientation) for c, o in zip(C,
    offsets))``, with ``family`` ``Min`` or ``Max``, built from a ``(k, m)``
    array ``C`` of centres and ``k`` offsets, all finite floats, with ``k >=
    1``.  Every node holds the fields and the ``dim``, ``lip``, ``depth`` and
    ``form`` its constructor gives; the constructors' checks are skipped,
    since the arrays already pass them."""
    slope = orientation * 1.0
    cones = []
    for center, offset in zip(map(tuple, C.tolist()), offsets.tolist()):
        cone = object.__new__(DistCone)
        vars(cone).update(center=center, offset=offset, scale=1.0, orientation=orientation,
                          form=_cone_form(center, offset, slope))
        cones.append(cone)
    node = object.__new__(family)
    vars(node).update(children=tuple(cones), dim=C.shape[1], lip=1.0, depth=2,
                      form=_family_form(family.agg, cones))
    return node


def _family(k):
    """``(family, blends)`` when the lowered ``k`` is a cone family under
    zero or more blends, as ``(factor, anchor)`` innermost first; else
    ``None``."""
    blends = ()
    while isinstance(k, _Blend):
        blends = ((k.factor, k.anchor),) + blends
        k = k.inner
    return (k, blends) if isinstance(k, _Cones) else None


class _Pair(NamedTuple):
    """One axis's lowered bounds, read at one hat point.  When both are cone
    families under blends with equal centres, ``heads`` holds their two
    :func:`_head` and ``cols`` the centres (:func:`_columns`), and one
    kernel evaluates both; otherwise both are ``None``."""

    lower: tuple
    upper: tuple
    heads: tuple = None
    cols: tuple = None


def _pair(lower, upper) -> _Pair:
    """The :class:`_Pair` of the lowered bounds ``lower`` and ``upper``."""
    sides = _family(lower), _family(upper)
    # equal centres give equal distances bit for bit, 0.0 against -0.0 too,
    # since |a - b| drops the sign of a zero difference
    if None in sides or (cols := _columns(sides[0][0])) != _columns(sides[1][0]):
        return _Pair(lower, upper)
    return _Pair(lower, upper, tuple(_head(*side) for side in sides), cols)


def _blend_pair(p: _Pair, factor, low, high) -> _Pair:
    """``_pair`` of the blends of ``p``'s lower bound toward ``low`` and of
    its upper bound toward ``high`` by ``factor``: ``p``'s centres and
    offsets, and one more blend on each side."""
    lower, upper = _blend_form(p.lower, factor, low), _blend_form(p.upper, factor, high)
    if p.heads is None or factor == 0.0:        # factor 0 is no blend over a family
        return _Pair(lower, upper)
    (*lo, lo_blends), (*up, up_blends) = p.heads
    return _Pair(lower, upper, ((*lo, lo_blends + ((factor, low),)),
                                (*up, up_blends + ((factor, high),))), p.cols)


def _clamp_pair(p: _Pair, low, high) -> _Pair:
    """``p``'s bounds clamped into ``[low, high]`` as ``Min(Max(b,
    Const(low)), Const(high))`` lowers; a missing bound (the only infinite
    constant form) becomes the cut of its side."""
    def clamp(form, cut):
        if isinstance(form, _Const) and math.isinf(form.value):
            return _Const(cut)
        return _Node(min, (_Node(max, (form, _Const(low))), _Const(high)))
    return _Pair(clamp(p.lower, low), clamp(p.upper, high))


def _compile(f: LipExpr) -> Callable:
    """Build a plain-Python evaluator closure of one expression; the scalar
    engine reads an axis's two bounds through :func:`_compile_pair`."""
    return f.form.closure()


def _compile_grid(f: LipExpr) -> Callable:
    """Build a batch evaluator of one expression: points as the columns of a
    ``(dim, N)`` array in, their ``N`` values out, equal to :func:`_compile`'s
    bit for bit.  The batch engine reads an axis's two bounds through
    :func:`_compile_grid_pair`."""
    return f.form.grid()


def _compile_pair(p: _Pair) -> Callable:
    """Scalar evaluator ``y -> (lower(y), upper(y))`` of one axis's lowered
    bounds, equal to :func:`_compile` of each side bit for bit."""
    if p.heads is None:
        f, g = p.lower.closure(), p.upper.closure()
        return lambda y: (f(y), g(y))
    return _cones_closure(p.heads, p.cols)


def _compile_grid_pair(p: _Pair, hat=None) -> Callable:
    """Batch evaluator ``YT -> (lower values, upper values)`` of one axis's
    lowered bounds, equal to :func:`_compile_grid` of each side bit for bit.
    With ``hat``, an index array, ``YT`` holds whole points as its columns
    and the bounds read their rows ``hat``; every cone family takes them
    from ``YT`` itself, inside its kernel (:func:`_cones_grid`)."""
    if p.heads is None:
        f, g = p.lower.grid(hat), p.upper.grid(hat)
        return lambda YT: (f(YT), g(YT))
    return _cones_grid(p.heads, p.cols, hat)


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
    lam, tol = _nonnegative(lam, "lam"), _nonnegative(tol, "tol")
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
    # within metric._SCRATCH_BYTES.  The test is symmetric and never holds for
    # i == j, so the first offending (i, j) in row-major order has j > i.
    rows = max(1, metric._SCRATCH_BYTES // (8 * N))
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


_SEQUENCES = (list, tuple, np.ndarray)


def _refused(x, shape) -> ValueError:
    """The error for a part ``x`` of a box that breaks ``shape``, shown as JSON
    text with arrays as lists; a string, bytes or boolean is no number."""
    if isinstance(x, _WORDS):
        return ValueError(f"a box must hold numbers, got {str(x) if isinstance(x, str) else x!r}")
    shown = json.dumps(x, default=lambda v: v.tolist() if hasattr(v, "tolist") else repr(v))
    return ValueError(f"{shape}, got {shown}")


def _pairs(box) -> list:
    """``box`` as float pairs ``(lo, hi)``.  The box and its sides may be lists,
    tuples or arrays; a string, bytes or boolean in it is refused."""
    if not isinstance(box, _SEQUENCES):
        raise _refused(box, "a box must be a list of [lo, hi] sides")
    pairs = []
    for i, side in enumerate(box):
        if not isinstance(side, _SEQUENCES) or len(side) != 2:
            raise _refused(side, f"box side {i} must be a [lo, hi] pair")
        lo, hi = side
        if (type(lo) is not float or type(hi) is not float) and \
                (isinstance(lo, _WORDS) or isinstance(hi, _WORDS)):
            raise _refused(lo if isinstance(lo, _WORDS) else hi, f"box side {i} must hold numbers")
        pairs.append((float(lo), float(hi)))
    return pairs


def _box(box, sides=None) -> list:
    """``box`` read by :func:`_pairs`, ``sides`` pairs when given, each
    finite and nonempty."""
    box = _pairs(box)
    if sides is not None and len(box) != sides:
        raise ValueError(f"expected a box with {sides} sides, got {len(box)}")
    for a, b in box:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("box limits must be finite")
        if a > b:
            raise ValueError(f"empty box side ({a}, {b})")
    return box


def bounds_of(f: LipExpr, box) -> tuple:
    """A sound enclosure of the range of ``f`` over an axis-aligned box.

    ``box`` is a sequence of ``(lo, hi)`` pairs, one per domain coordinate
    (possibly empty for the zero-dimensional domain).  The enclosure is
    widened outward by a fixed slack of 1e-12 so that downstream comparisons
    stay on the safe side of rounding.
    """
    if isinstance(f, Infinite):
        raise ValueError("Infinite bounds have no finite range")
    box = _box(box)
    d = domain_dim(f)
    if d is not None and len(box) != d:
        raise ValueError(f"expression expects dimension {d}, got box of dimension {len(box)}")
    lo, hi = f.form.interval(box)
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
    """The expression of the JSON form ``obj``.  No field of it holds a
    boolean, and ``float`` reads ``true`` as 1.0, so a boolean anywhere in
    it is refused."""
    b = _first_of(obj, bool)
    if b is not None:
        raise ValueError(f"expression holds the boolean {str(b).lower()}, which is no number")
    return _from_obj(obj)


def _from_obj(obj) -> LipExpr:
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
            return (Min if kind == "min" else Max)(tuple(_from_obj(c) for c in obj["children"]))
        if kind == "blend":
            return Blend(_from_obj(obj["inner"]), obj["factor"], obj["anchor"])
        if kind == "mcshane":
            return McShane(tuple((tuple(p), v) for p, v in obj["samples"]),
                           obj["scale"], obj["mode"])
        if kind == "inf":
            return Infinite(_sign_from_obj(obj, "sign", kind))
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in {kind!r} expression") from exc
    raise ValueError(f"unknown expression type {kind!r}")
