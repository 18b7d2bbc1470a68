"""Tests for the Lipschitz expression grammar.

The central property: the syntactic constant of every expression the
strategy can build is honored by the denoted function, checked by brute
force over all pairs of a sample grid.  Everything else (serialization,
interval enclosures, structural rewrites) hangs off the same strategy.
"""

import dataclasses
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hyperlip import boxset, lipfun, metric, svgplot
from hyperlip.boxset import (
    BoxLipschitzSet,
    cyclic_retract,
    cyclic_retract_many,
    enclosure_bounds,
    set_to_obj,
)
from hyperlip.lipfun import (
    Blend,
    Const,
    DistCone,
    Infinite,
    LipExpr,
    Max,
    McShane,
    Min,
    bounds_of,
    domain_dim,
    eval_grid,
    expr_from_obj,
    expr_to_obj,
    lip_bound,
    shrink,
    verify_lipschitz_on_grid,
    _compile,
    _compile_grid,
    _compile_grid_pair,
    _compile_pair,
)
from hyperlip.instances import _mcshane_repair, linear_window, vee_notch_instance
from hyperlip.metric import sup_dist

DIM = 2

coord = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
signed = st.one_of(st.sampled_from((0.0, -0.0)), coord)


def _exprs(values, dim):
    """Expressions on dimension ``dim`` whose coordinates, offsets, sample
    values and anchors are drawn from ``values``."""
    point = st.lists(values, min_size=dim, max_size=dim).map(tuple)
    samples = st.lists(st.tuples(point, values), min_size=1, max_size=3).map(tuple)
    leaves = st.one_of(
        st.builds(Const, values),
        st.builds(DistCone, point, values, unit, st.sampled_from((-1, 1))),
        st.builds(McShane, samples, unit, st.sampled_from(("inf", "sup"))),
    )

    def combine(children):
        return st.one_of(
            st.lists(children, min_size=1, max_size=3).map(lambda cs: Min(*cs)),
            st.lists(children, min_size=1, max_size=3).map(lambda cs: Max(*cs)),
            st.builds(Blend, children, unit, values),
        )
    return st.recursive(leaves, combine, max_leaves=6)


exprs = _exprs(coord, DIM)


def _dumps(f):
    return json.dumps(expr_to_obj(f), sort_keys=True, separators=(",", ":"))

GRID = [(a * 1.25, b * 1.25) for a in range(-2, 3) for b in range(-2, 3)]


@given(exprs)
@settings(max_examples=300, deadline=None)
def test_syntactic_constant_holds_on_grid(f):
    assert verify_lipschitz_on_grid(f, GRID, lip_bound(f), tol=1e-9) is None


@given(exprs)
@settings(deadline=None)
def test_grid_evaluation_matches_pointwise(f):
    Y = np.array(GRID)
    vals = eval_grid(f, Y)
    for y, v in zip(GRID, vals):
        assert _compile(f)(y) == v


@given(exprs)
@settings(deadline=None)
def test_json_round_trip_is_bit_exact(f):
    text = _dumps(f)
    g = expr_from_obj(json.loads(text))
    assert g == f
    assert _dumps(g) == text


@given(exprs)
@settings(deadline=None)
def test_bounds_enclose_sampled_values(f):
    box = [(-2.5, 2.5)] * DIM
    lo, hi = bounds_of(f, box)
    Y = np.array(GRID)
    inside = Y[(np.abs(Y) <= 2.5).all(axis=1)]
    vals = eval_grid(f, inside)
    assert (vals >= lo).all()
    assert (vals <= hi).all()


@given(exprs, unit, coord)
@settings(deadline=None)
def test_shrink_scales_the_constant_and_pulls_toward_the_anchor(f, factor, anchor):
    g = shrink(f, factor, anchor)
    assert lip_bound(g) == pytest.approx(factor * lip_bound(f), abs=1e-12)
    for y in GRID[::5]:
        v = _compile(f)(y)
        w = _compile(g)(y)
        assert w == pytest.approx(factor * (v - anchor) + anchor, abs=1e-9)
        assert abs(w - anchor) <= abs(v - anchor) + 1e-12


# ---------------------------------------------------------------------------
# Reference evaluators with one branch per grammar node, each the node's
# definition evaluated directly; the lowered evaluators must match them bit
# for bit.


def _ref_compile(f):
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
        subs = [_ref_compile(c) for c in f.children]
        return lambda y: min(g(y) for g in subs)
    if isinstance(f, Max):
        subs = [_ref_compile(c) for c in f.children]
        return lambda y: max(g(y) for g in subs)
    if isinstance(f, Blend):
        g = _ref_compile(f.inner)
        fac, anchor = f.factor, f.anchor
        return lambda y: fac * (g(y) - anchor) + anchor
    pts = [p for p, _ in f.samples]
    vals = [v for _, v in f.samples]
    s = f.scale
    agg = min if f.mode == "inf" else max
    sgn = 1.0 if f.mode == "inf" else -1.0
    return lambda y: agg(v + sgn * s * sup_dist(p, y) for p, v in zip(pts, vals))


def _ref_compile_grid(f):
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
        subs = [_ref_compile_grid(c) for c in f.children]
        return lambda YT: np.minimum.reduce([g(YT) for g in subs])
    if isinstance(f, Max):
        subs = [_ref_compile_grid(c) for c in f.children]
        return lambda YT: np.maximum.reduce([g(YT) for g in subs])
    if isinstance(f, Blend):
        g = _ref_compile_grid(f.inner)
        fac, anchor = f.factor, f.anchor
        return lambda YT: fac * (g(YT) - anchor) + anchor
    P = np.asarray([p for p, _ in f.samples]).T[:, :, None]
    vals = np.asarray([v for _, v in f.samples])[:, None]
    s = f.scale

    def dist(YT):
        if len(P) == 0:
            return np.zeros((P.shape[1], YT.shape[1]))
        D = YT[:, None, :] - P
        return np.abs(D, out=D).max(axis=0)

    if f.mode == "inf":
        return lambda YT: (vals + s * dist(YT)).min(axis=0)
    return lambda YT: (vals - s * dist(YT)).max(axis=0)


def _ref_interval_dist(center, box):
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


def _ref_interval(f, box):
    if isinstance(f, Const):
        return f.value, f.value
    if isinstance(f, DistCone):
        lo, hi = _ref_interval_dist(f.center, box)
        a = f.orientation * f.scale * lo + f.offset
        b = f.orientation * f.scale * hi + f.offset
        return (a, b) if a <= b else (b, a)
    if isinstance(f, (Min, Max)):
        agg = min if isinstance(f, Min) else max
        parts = [_ref_interval(c, box) for c in f.children]
        return agg(p[0] for p in parts), agg(p[1] for p in parts)
    if isinstance(f, Blend):
        lo, hi = _ref_interval(f.inner, box)
        return (f.factor * (lo - f.anchor) + f.anchor,
                f.factor * (hi - f.anchor) + f.anchor)
    los, his = [], []
    for p, v in f.samples:
        lo, hi = _ref_interval_dist(p, box)
        if f.mode == "inf":
            los.append(v + f.scale * lo)
            his.append(v + f.scale * hi)
        else:
            los.append(v - f.scale * hi)
            his.append(v - f.scale * lo)
    if f.mode == "inf":
        return min(los), min(his)
    return max(los), max(his)


def _hex(values):
    return [float(v).hex() for v in values]


VALUES = (-1.25, -0.0, 0.0, 2.5)
BOXES = ([(-0.0, 0.0)] * 3, [(-2.5, 1.25)] * 3, [(-2.5, -0.0), (0.0, 1.25), (-1.25, 2.5)])


@st.composite
def _signed_exprs(draw):
    dim = draw(st.integers(0, 3))
    return dim, draw(_exprs(signed, dim))


@given(_signed_exprs())
@settings(max_examples=400, deadline=None)
@example((2, Min(Const(0.0), DistCone((1.0, 1.0), -0.0, 0.0, -1))))
@example((1, Max(Const(-0.0), McShane((((0.0,), 0.0), ((1.0,), -0.0)), 0.0, "inf"))))
# slopes 0.0 and -0.0 are two slopes
@example((1, Min(DistCone((0.0,), 0.0, 0.0, 1), DistCone((1.0,), -0.0, 0.0, -1))))
# factor 0 at anchor -0.0: a zero whose sign follows the inner value's
@example((1, Blend(DistCone((0.0,), 0.0, 1.0, -1), 0.0, -0.0)))
# the zero-dimensional domain: a cone is its offset, a sample slope * 0.0 + value
@example((0, DistCone((), -0.0, 0.5, 1)))
@example((0, McShane((((), -0.0), ((), 1.0)), 0.5, "inf")))
# a one-row family beside an 8-row one of the same slope (-0.0): merged into
# 9 rows, the 1-D column reduction picks 0.0 where the nested ones pick -0.0
@example((1, Max(DistCone((0.0,), 0.0, 0.0, -1),
                 McShane(tuple(((float(i),), 0.0) for i in range(7)) + (((7.0,), -0.0),),
                         0.0, "sup"))))
def test_evaluators_match_the_per_node_reference(case):
    """Scalar and batch values and bounds_of, compared as float bits (so
    ``0.0`` against ``-0.0`` counts), at points and boxes with signed zeros;
    the batch closure also at a single column, where numpy reduces in 1-D,
    and with a family's columns cut into blocks of one and of a few."""
    dim, f = case
    Y = list(itertools.product(VALUES, repeat=dim))
    scalar, ref = _compile(f), _ref_compile(f)
    assert _hex(scalar(y) for y in Y) == _hex(ref(y) for y in Y)
    YT = np.ascontiguousarray(np.asarray(Y, dtype=float).reshape(len(Y), dim).T)
    grid, ref_grid = _compile_grid(f), _ref_compile_grid(f)
    for cols in (YT, YT[:, :1].copy()):
        assert grid(cols).tobytes() == ref_grid(cols).tobytes()
    for block_bytes in (1, 56):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lipfun, "_GRID_BLOCK_BYTES", block_bytes)
            assert _compile_grid(f)(YT).tobytes() == ref_grid(YT).tobytes()
    for box in BOXES:
        lo, hi = _ref_interval(f, box[:dim])
        want = (lo - lipfun.BOUNDS_SLACK, hi + lipfun.BOUNDS_SLACK)
        assert _hex(bounds_of(f, box[:dim])) == _hex(want)


def test_family_kernel_scratch_is_capped(monkeypatch):
    """A family of R cones over N points never holds its whole (dim, R, N)
    distance table: numpy's allocations stay within a few blocks."""
    monkeypatch.setattr(lipfun, "_GRID_BLOCK_BYTES", 1 << 20)
    rng = np.random.default_rng(3)
    dim, R, N = 3, 100, 10_000                   # table: 24 MB, 24 blocks
    f = McShane(tuple((tuple(rng.uniform(-1, 1, dim)), float(rng.uniform()))
                      for _ in range(R)), 1.0, "inf")
    YT = rng.uniform(-2, 2, (dim, N))
    grid = _compile_grid(f)
    tracemalloc.start()
    try:
        got = grid(YT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * lipfun._GRID_BLOCK_BYTES
    assert got.tobytes() == _ref_compile_grid(f)(YT).tobytes()


# ---------------------------------------------------------------------------
# One axis's bounds as one unit: the paired evaluators must give each side's
# own bits, whether or not the two sides share their distances.


def _assert_pair_matches_sides(lower, upper, Y):
    """``_compile_pair`` and ``_compile_grid_pair`` of ``(lower, upper)``
    against ``_compile`` and ``_compile_grid`` of each side at the points
    ``Y``, as float bits; the batch pair also at one column and with its
    columns cut into blocks of one and of a few, against each side cut
    alike (a numpy reduction over one column of more than 8 rows may pick
    another zero than over several, pair or not)."""
    f, g = _compile(lower), _compile(upper)
    pair = _compile_pair(_pair(lower, upper))
    assert [_hex(pair(y)) for y in Y] == [_hex((f(y), g(y))) for y in Y]
    YT = np.ascontiguousarray(np.asarray(Y, dtype=float).reshape(len(Y), -1).T)
    for block_bytes in (None, 1, 56):
        with pytest.MonkeyPatch.context() as mp:
            if block_bytes is not None:
                mp.setattr(lipfun, "_GRID_BLOCK_BYTES", block_bytes)
            grid = _compile_grid_pair(_pair(lower, upper))
            want = [_compile_grid(b) for b in (lower, upper)]
            for cols in (YT, YT[:, :1].copy()):
                lo, up = grid(cols)
                assert lo.tobytes() == want[0](cols).tobytes()
                assert up.tobytes() == want[1](cols).tobytes()


def _pair(lower, upper):
    """The lowered pair of the bounds ``lower`` and ``upper``."""
    return lipfun._pair(lower.form, upper.form)


def _blended(f, blends):
    for factor, anchor in blends:
        f = Blend(f, factor, anchor)
    return f


@st.composite
def _shared_pairs(draw):
    """Envelope pairs on one set of sample sites (the pairs that share
    distances), each side under zero to two blends, with signed zeros."""
    dim = draw(st.integers(1, 3))
    point = st.lists(signed, min_size=dim, max_size=dim).map(tuple)
    sites = draw(st.lists(point, min_size=1, max_size=10))
    blends = st.lists(st.tuples(unit, signed), max_size=2)
    sides = []
    for _ in range(2):
        vals = draw(st.lists(signed, min_size=len(sites), max_size=len(sites)))
        env = McShane(tuple(zip(sites, vals)), draw(unit), draw(st.sampled_from(("inf", "sup"))))
        sides.append(_blended(env, draw(blends)))
    return dim, sides[0], sides[1]


@given(_shared_pairs())
@settings(max_examples=200, deadline=None)
# ten rows with a -0.0 among equal 0.0 values: a one-column block reduces
# them in 1-D and picks another zero than the full table
@example((1, McShane(((((0.0,), 0.0),) * 8 + (((1.0,), 0.0),) * 2), 0.0, "inf"),
          McShane(((((0.0,), 0.0),) * 7 + (((0.0,), -0.0),) + (((1.0,), 0.0),) * 2),
                  1.0, "sup")))
def test_shared_pairs_give_each_sides_bits(case):
    dim, lower, upper = case
    _assert_pair_matches_sides(lower, upper, list(itertools.product(VALUES, repeat=dim)))


def test_batch_values_do_not_depend_on_the_block_layout():
    """Ten rows with a -0.0 among equal 0.0 values: numpy reduces the rows
    of a one-column block in 1-D, which keeps another zero than the
    row-by-row reduction of a wider block, unless the kernel pads it."""
    f = McShane(((((0.0,), 0.0),) * 7 + (((0.0,), -0.0),) + (((1.0,), 0.0),) * 2),
                1.0, "sup")
    g = McShane(tuple((p, v + 1.0) for p, v in f.samples), 1.0, "inf")
    YT = np.array([VALUES])
    want = _compile_grid(f)(YT)
    want_pair = [v.tobytes() for v in _compile_grid_pair(_pair(f, g))(YT)]
    for block_bytes in (None, 1):
        with pytest.MonkeyPatch.context() as mp:
            if block_bytes is not None:
                mp.setattr(lipfun, "_GRID_BLOCK_BYTES", block_bytes)
            grid, pair = _compile_grid(f), _compile_grid_pair(_pair(f, g))
            assert grid(YT).tobytes() == want.tobytes()
            assert [v.tobytes() for v in pair(YT)] == want_pair
            for j in range(YT.shape[1]):
                assert grid(YT[:, j:j + 1]).tobytes() == want[j:j + 1].tobytes()


# ---------------------------------------------------------------------------
# Each side of a pair encloses its range over a box (``interval`` of its
# lowered form, which ``bounds_of`` widens by the slack) with the bits of the
# per-node reference, whose distance ranges call ``abs``, ``min`` and ``max``.

HUGE = (1e308, -1e308, 1.7e308, -1.7e308)


def _sides(values, dim):
    """Box sides of ``dim`` coordinates with both limits drawn from
    ``values``: centres fall on edges, and a side may be one point."""
    side = st.tuples(values, values).map(lambda s: s if s[0] <= s[1] else s[::-1])
    return st.lists(side, min_size=dim, max_size=dim)


def _sites(f):
    while isinstance(f, Blend):
        f = f.inner
    return [p for p, _ in f.samples]


def _assert_enclosures_match(p, lower, upper, box):
    slack = lipfun.BOUNDS_SLACK
    for form, f in ((p.lower, lower), (p.upper, upper)):
        lo, hi = _ref_interval(f, box)
        assert _hex(form.interval(box)) == _hex((lo, hi))
        assert _hex(bounds_of(f, box)) == _hex((lo - slack, hi + slack))


@st.composite
def _shared_pairs_in_boxes(draw):
    """Shared pairs under blends (a blend of factor 0 leaves its pair
    unshared) and boxes whose limits include the sites' coordinates and
    signed zeros."""
    dim, lower, upper = draw(_shared_pairs())
    coords = st.sampled_from(sorted({c for p in _sites(lower) for c in p}) + list(VALUES))
    return lower, upper, draw(_sides(coords, dim))


@given(_shared_pairs_in_boxes())
@settings(max_examples=300, deadline=None)
# a side of one point on a centre, where each distance range is (0.0, 0.0)
@example((McShane((((0.0,), -0.0), ((0.0,), 1.0)), 1.0, "sup"),
          McShane((((0.0,), 0.0), ((0.0,), 1.0)), 1.0, "inf"), [(-0.0, 0.0)]))
# a centre -0.0 on the side (0.0, 0.0): both differences from it are zeros
# of either sign, and a range that took -0.0 would give slope * -0.0 + -0.0
@example((McShane((((-0.0,), -0.0),), 1.0, "sup"), McShane((((-0.0,), -0.0),), 1.0, "inf"),
          [(0.0, 0.0)]))
@example((McShane((((2.5, -0.0), -0.0),), 0.5, "sup"),
          McShane((((2.5, -0.0), -0.0),), 0.5, "inf"), [(2.5, 2.5), (0.0, 0.0)]))
# a centre 0.0 on the side (-0.0, -0.0): b - c is -0.0, which a range that
# took an equal term would keep, and slope * -0.0 + -0.0 keeps its sign
@example((McShane((((0.0,), -0.0),), 1.0, "sup"), McShane((((0.0,), -0.0),), 1.0, "inf"),
          [(-0.0, -0.0)]))
def test_enclosures_match_the_per_node_reference(case):
    lower, upper, box = case
    _assert_enclosures_match(_pair(lower, upper), lower, upper, box)


@st.composite
def _huge_pairs(draw):
    """Envelope pairs with coordinates, values and box limits near the
    largest float, where ``c - a`` and ``slope * far`` overflow, blended by
    common nonzero factors as a relaxed set does."""
    dim = draw(st.integers(1, 3))
    pool = st.sampled_from(HUGE + VALUES)
    sites = draw(st.lists(st.lists(pool, min_size=dim, max_size=dim).map(tuple),
                          min_size=1, max_size=4))
    scale = draw(st.sampled_from((1.0, 0.5)))
    lower, upper = (McShane(tuple(zip(sites, draw(st.lists(pool, min_size=len(sites),
                                                             max_size=len(sites))))),
                            scale, mode) for mode in ("sup", "inf"))
    blends = draw(st.lists(st.tuples(st.sampled_from((0.5, 1.0 - 1.0 / 7, 1.0)), pool, pool),
                           max_size=2))
    return lower, upper, blends, draw(_sides(pool, dim))


@given(_huge_pairs())
@settings(max_examples=300, deadline=None)
@example((McShane((((1.7e308,), 1e308),), 1.0, "sup"),
          McShane((((1.7e308,), 1.7e308),), 1.0, "inf"), [(0.5, -1e308, 1e308)],
          [(-1.7e308, 1.7e308)]))
def test_enclosures_near_the_largest_float(case):
    lower, upper, blends, box = case
    p = _pair(lower, upper)
    for factor, low, high in blends:
        p = lipfun._blend_pair(p, factor, low, high)
        lower, upper = Blend(lower, factor, low), Blend(upper, factor, high)
    assert p.heads is not None
    _assert_enclosures_match(p, lower, upper, box)


@st.composite
def _sets_and_boxes(draw):
    """Sets of dimension 3 whose axes are shared envelope pairs or two
    arbitrary expressions, boxes in [-5, 5], and points in each box."""
    lower, upper = [], []
    for _ in range(3):
        if draw(st.booleans()):
            _, lo, up = draw(_shared_pairs().filter(lambda c: c[0] == DIM))
        else:
            lo, up = draw(exprs), draw(exprs)
        lower.append(lo)
        upper.append(up)
    box = draw(_sides(st.floats(-5.0, 5.0), 3))
    t = st.floats(0.0, 1.0)
    points = draw(st.lists(st.lists(t, min_size=3, max_size=3), min_size=1, max_size=8))
    points = [[min(max(a + s * (b - a), a), b) for s, (a, b) in zip(x, box)] for x in points]
    return BoxLipschitzSet(lower, upper), box, points + [[a for a, _ in box], [b for _, b in box]]


@given(_sets_and_boxes())
@settings(max_examples=200, deadline=None)
def test_enclosure_bounds_hold_every_bound_in_the_box(case):
    """``enclosure_bounds`` has the bits of the least and greatest ends of
    every bound's ``bounds_of``, and every bound's value at points of the
    box lies in it: each row's distance lies in its range, and every later
    operation rounds monotonically."""
    Q, box, points = case
    l, u = enclosure_bounds(Q, box)
    ends = [bounds_of(b, box[:i] + box[i + 1:])
            for i in range(Q.n) for b in (Q.lower[i], Q.upper[i])]
    assert _hex((l, u)) == _hex((min(e[0] for e in ends), max(e[1] for e in ends)))
    for x in points:
        for i, pair in enumerate(Q._pairs):
            for v in pair(x[:i] + x[i + 1:]):
                assert l <= v <= u


SITES = ((0.5, -1.25), (2.5, 0.0), (-1.25, -0.0))


def _envelopes(sites, lift=1.0, scale=0.75):
    vals = [0.25, -0.5, 1.0]
    return (McShane(tuple(zip(sites, vals)), scale, "sup"),
            McShane(tuple((p, v + lift) for p, v in zip(sites, vals)), scale, "inf"))


PAIRS = {
    "shared envelopes": _envelopes(SITES),
    "shared under different blends": (shrink(_envelopes(SITES)[0], 0.5, -3.0),
                                      shrink(shrink(_envelopes(SITES)[1], 0.25, 3.0), 0.5, 1.0)),
    "blend on one side only": (_envelopes(SITES)[0], shrink(_envelopes(SITES)[1], 0.5, 2.0)),
    "one centre differs": (_envelopes(SITES)[0],
                           _envelopes(SITES[:2] + ((-1.25, 0.5),))[1]),
    "one centre fewer": (_envelopes(SITES)[0], _envelopes(SITES[:2])[1]),
    "centres 0.0 against -0.0": (_envelopes(((0.0, 0.0), (1.0, -0.0), (-0.0, 2.5)))[0],
                                 _envelopes(((-0.0, -0.0), (1.0, 0.0), (0.0, 2.5)))[1]),
    "equal cones": (DistCone((1.0, -1.0), 0.5, 0.5, -1), DistCone((1.0, -1.0), 2.0, 0.25, 1)),
    "a cone family against a node": (_envelopes(SITES)[0],
                                     Min(Max(_envelopes(SITES)[1], Const(-1.0)), Const(2.0))),
    "a constant side": (Const(-0.0), _envelopes(SITES)[1]),
    "missing lower": (Infinite(-1), _envelopes(SITES)[1]),
    "missing upper": (_envelopes(SITES)[0], Infinite(1)),
    "both missing": (Infinite(-1), Infinite(1)),
}


@pytest.mark.parametrize("name", PAIRS)
def test_paired_evaluators_give_each_sides_bits(name):
    lower, upper = PAIRS[name]
    _assert_pair_matches_sides(lower, upper, list(itertools.product(VALUES + (-2.0,), repeat=2)))


def test_zero_dimensional_pairs_give_each_sides_bits():
    """On the hat space of a one-dimensional set every bound is a constant
    or a node of constants; the batch pair still sees the number of points."""
    for lower, upper in [(McShane((((), -0.0), ((), 1.0)), 0.5, "sup"),
                          McShane((((), 1.0), ((), 2.0)), 0.5, "inf")),
                         (DistCone((), -0.0, 0.5, 1), Infinite(1)),
                         (Infinite(-1), shrink(DistCone((), 2.0, 1.0, -1), 0.5, 0.0))]:
        _assert_pair_matches_sides(lower, upper, [()] * 3)


@pytest.mark.parametrize("dim", [1, 3])
def test_paired_kernel_scratch_is_one_block(monkeypatch, dim):
    """A paired evaluation over 100k points allocates the two outputs and,
    per block, two ``(R, block)`` tables within the block budget: the
    distances and the fold's scratch, or the distances and one family's
    scaled copy, the last family scaling them in place; never a ``(dim, R,
    block)`` table.  Beside them numpy holds its two ufunc buffers of
    ``np.getbufsize()`` doubles."""
    monkeypatch.setattr(lipfun, "_GRID_BLOCK_BYTES", 1 << 20)
    rng = np.random.default_rng(4)
    R, N = 16, 100_000
    sites = [tuple(rng.uniform(-1, 1, dim)) for _ in range(R)]
    vals = rng.uniform(-1, 1, R)
    lower = shrink(McShane(tuple(zip(sites, vals)), 0.9, "sup"), 0.5, -2.0)
    upper = McShane(tuple((p, v + 1.0) for p, v in zip(sites, vals)), 0.9, "inf")
    YT = rng.uniform(-2, 2, (dim, N))
    grid = _compile_grid_pair(_pair(lower, upper))
    tracemalloc.start()
    try:
        lo, up = grid(YT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= lipfun._GRID_BLOCK_BYTES + 2 * 8 * N + 2 * 8 * np.getbufsize()
    assert lo.tobytes() == _compile_grid(lower)(YT).tobytes()
    assert up.tobytes() == _compile_grid(upper)(YT).tobytes()


# coordinates of the fold tests: signed zeros, and magnitudes whose
# differences overflow to inf
FOLD_COORDS = (0.0, -0.0, 1.25, -2.5, 1e308, -1e308)


def _fold_case(dim, columns, R=6):
    """An axis's two bounds over ``dim`` hat coordinates, on ``R`` shared
    sites with signed zeros and ±1e308 among their coordinates: the plain
    envelope pair, and the pair under blends; and ``columns`` whole points
    of ``dim + 1`` coordinates drawn the same way, as the columns of ``XT``."""
    rng = np.random.default_rng(10 * dim + columns)
    draw = lambda *shape: np.where(rng.uniform(size=shape) < 0.5, rng.choice(FOLD_COORDS, shape),
                                   rng.uniform(-3.0, 3.0, shape))
    sites = [tuple(p) for p in draw(R, dim).tolist()]
    vals = rng.uniform(-1.0, 1.0, R).tolist()
    lower = McShane(tuple(zip(sites, vals)), 0.5, "sup")
    upper = McShane(tuple((p, v + 1.0) for p, v in zip(sites, vals)), 0.75, "inf")
    pairs = [(lower, upper), (shrink(lower, 0.5, -2.0), shrink(upper, 0.25, 2.0))]
    return pairs, np.ascontiguousarray(draw(columns, dim + 1).T)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("columns, block_columns", [
    # one block on both sides of the take threshold, and past it
    (lipfun._TAKE_COLUMNS, None), (lipfun._TAKE_COLUMNS + 1, None),
    (2 * lipfun._TAKE_COLUMNS + 3, None),
    # blocks of seven columns, and of one
    (lipfun._TAKE_COLUMNS + 1, 7), (45, 1),
])
@np.errstate(over="ignore")
def test_folded_layout_gives_the_reference_bits(dim, columns, block_columns, monkeypatch):
    """Each family and each pair, read from whole points through a ``hat``
    index array (every axis but the first, or but the last) or given its hat
    points, against the broadcast reference ``_ref_compile_grid`` as bytes:
    hat dimensions 1-4, distances that overflow to ``inf``, in blocks of the
    default size, of seven columns and of one, at widths where a block takes
    its table and where it folds."""
    R = 6
    if block_columns is not None:
        monkeypatch.setattr(lipfun, "_GRID_BLOCK_BYTES", 2 * 8 * R * block_columns)
    pairs, XT = _fold_case(dim, columns, R)
    for pair, i in itertools.product(pairs, (0, dim)):      # the first or last axis
        hat = np.array([j for j in range(dim + 1) if j != i], dtype=np.intp)
        H = np.ascontiguousarray(XT[hat])
        want = [_ref_compile_grid(side)(H).tobytes() for side in pair]
        assert [_compile_grid(side)(H).tobytes() for side in pair] == want
        lowered = lipfun._pair(*(side.form for side in pair))
        assert lowered.heads is not None
        assert [v.tobytes() for v in _compile_grid_pair(lowered)(H)] == want
        assert [v.tobytes() for v in _compile_grid_pair(lowered, hat)(XT)] == want


# ---------------------------------------------------------------------------
# The whole float range: magnitudes near the largest float, where distances
# overflow to inf, subnormals and signed zeros.  The scalar and batch
# evaluators give equal values and no NaN, and so do the two engines.

HOSTILE = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e308, 1e308,
           -1.7976931348623157e308, 1.7976931348623157e308)
wide = st.one_of(st.sampled_from(HOSTILE), st.floats(allow_nan=False, allow_infinity=False),
                 coord)


@st.composite
def _wide_pairs(draw):
    dim = draw(st.integers(0, 3))
    point = st.lists(wide, min_size=dim, max_size=dim).map(tuple)
    return (dim, draw(_exprs(wide, dim)), draw(_exprs(wide, dim)),
            draw(st.lists(point, min_size=1, max_size=4)))


@given(_wide_pairs())
@settings(max_examples=200, deadline=None)
def test_evaluators_agree_over_the_whole_float_range(case):
    """``==`` treats ``0.0`` and ``-0.0`` as equal: the sign of a zero at a
    tie is left to the engines' pin ``TestZeroSignsOfBounds``."""
    dim, lower, upper, Y = case
    scalar = [tuple(_compile_pair(_pair(lower, upper))(y)) for y in Y]
    assert not any(math.isnan(v) for pair in scalar for v in pair)
    YT = np.asarray(Y, dtype=float).reshape(len(Y), dim).T.copy()
    with np.errstate(over="ignore"):    # the callers' policy, as in eval_grid
        lo, up = _compile_grid_pair(_pair(lower, upper))(YT)
    assert list(zip(lo.tolist(), up.tolist())) == scalar
    for side, f in enumerate((lower, upper)):
        assert eval_grid(f, YT.T).tolist() == [pair[side] for pair in scalar]


@st.composite
def _wide_sets(draw):
    """A McShane set of level below 1 on whole-range sites, with values made
    Lipschitz as in ``random_mcshane_instance``, and three starts."""
    n = draw(st.integers(1, 3))
    site = st.lists(wide, min_size=n - 1, max_size=n - 1).map(tuple)
    lam = draw(st.sampled_from((0.0, 0.25, 0.5)))
    lower, upper = [], []
    for _ in range(n):
        sites = draw(st.lists(site, min_size=1, max_size=3))
        raw = draw(st.lists(wide, min_size=len(sites), max_size=len(sites)))
        vals = _mcshane_repair(sites, raw, lam)
        lift = draw(st.sampled_from((0.0, 1.0, 1e300)))
        lower.append(McShane(tuple(zip(sites, vals)), lam, "sup"))
        upper.append(McShane(tuple((p, min(v + lift, HOSTILE[-1])) for p, v in zip(sites, vals)),
                             lam, "inf"))
    starts = draw(st.lists(st.lists(wide, min_size=n, max_size=n), min_size=3, max_size=3))
    return BoxLipschitzSet(lower, upper), starts


def _outcome(run):
    try:
        return np.asarray(run(), dtype=float).tobytes()
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return type(exc)


@given(_wide_sets())
@settings(max_examples=100, deadline=None)
def test_engines_agree_over_the_whole_float_range(case):
    """One row through the batch engine gives the scalar engine's bytes, or
    the same error."""
    Q, starts = case
    for x in starts:
        assert _outcome(lambda: cyclic_retract(Q, x, 1e-6, max_sweeps=100)[0]) == \
            _outcome(lambda: cyclic_retract_many(Q, [x], 1e-6, max_sweeps=100)[0][0])


class TestNodeSemantics:
    def test_const(self):
        assert _compile(Const(2.5))((9.0, 9.0)) == 2.5
        assert lip_bound(Const(2.5)) == 0.0

    def test_distcone_value(self):
        f = DistCone((1.0, -1.0), 0.5, 0.5, 1)
        assert _compile(f)((1.0, -1.0)) == 0.5
        assert _compile(f)((3.0, 0.0)) == 0.5 + 0.5 * 2.0

    def test_distcone_downward(self):
        f = DistCone((0.0,), 1.0, 1.0, -1)
        assert _compile(f)((3.0,)) == -2.0

    def test_min_max(self):
        f = Min(Const(1.0), Const(2.0))
        g = Max(Const(1.0), Const(2.0))
        assert _compile(f)((0.0, 0.0)) == 1.0
        assert _compile(g)((0.0, 0.0)) == 2.0

    def test_blend_midpoint(self):
        f = Blend(Const(4.0), 0.5, 0.0)
        assert _compile(f)((0.0,)) == 2.0

    def test_mcshane_envelopes_bracket_the_data(self):
        samples = (((0.0,), 0.0), ((4.0,), 1.0))
        upper = McShane(samples, 0.5, "inf")
        lower = McShane(samples, 0.5, "sup")
        for t in (-1.0, 0.0, 1.0, 2.0, 3.0, 5.0):
            assert _compile(lower)((t,)) <= _compile(upper)((t,)) + 1e-12

    def test_mcshane_interpolates_consistent_data(self):
        # values with slopes within the scale are reproduced exactly
        samples = (((0.0,), 0.0), ((2.0,), 1.0), ((4.0,), 0.0))
        for mode in ("inf", "sup"):
            f = McShane(samples, 0.5, mode)
            for p, v in samples:
                assert _compile(f)(p) == v

    def test_mcshane_flattens_inconsistent_data(self):
        # a jump steeper than the scale cannot be interpolated; the upper
        # envelope dips below the too-high sample
        samples = (((0.0,), 0.0), ((1.0,), 5.0))
        f = McShane(samples, 1.0, "inf")
        assert _compile(f)((1.0,)) == 1.0

    def test_zero_dimensional_domain(self):
        f = McShane((((), 1.5),), 1.0, "inf")
        assert _compile(f)(()) == 1.5
        g = DistCone((), 2.0, 1.0, 1)
        assert _compile(g)(()) == 2.0
        assert bounds_of(g, []) == (2.0 - 1e-12, 2.0 + 1e-12)

    def test_infinite_evaluates_to_signed_inf(self):
        assert _compile(Infinite(1))((0.0,)) == math.inf
        assert _compile(Infinite(-1))((0.0,)) == -math.inf


class TestValidation:
    def test_scale_outside_unit_interval(self):
        with pytest.raises(ValueError):
            DistCone((0.0,), 0.0, 1.5, 1)
        with pytest.raises(ValueError):
            McShane((((0.0,), 0.0),), -0.1, "inf")

    def test_blend_factor_outside_unit_interval(self):
        with pytest.raises(ValueError):
            Blend(Const(0.0), 2.0, 0.0)

    def test_infinite_may_not_nest(self):
        with pytest.raises(ValueError):
            Min(Infinite(-1), Const(0.0))
        with pytest.raises(ValueError):
            Blend(Infinite(1), 0.5, 0.0)

    def test_empty_families_rejected(self):
        with pytest.raises(ValueError):
            Min()
        with pytest.raises(ValueError):
            McShane((), 1.0, "inf")

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Min(DistCone((0.0,), 0.0, 1.0, 1), DistCone((0.0, 0.0), 0.0, 1.0, 1))

    def test_bad_mcshane_mode(self):
        with pytest.raises(ValueError):
            McShane((((0.0,), 0.0),), 1.0, "sup_inf")

    def test_domain_dim(self):
        assert domain_dim(Const(1.0)) is None
        assert domain_dim(DistCone((0.0, 0.0), 0.0, 1.0, 1)) == 2
        assert domain_dim(Min(Const(0.0), DistCone((1.0,), 0.0, 1.0, 1))) == 1


# ---------------------------------------------------------------------------
# Every node holds ``dim``, ``lip`` and its lowered ``form`` from construction.
# The references are the walks over the whole tree that computed them on each
# call before.


def _ref_dim(f):
    if isinstance(f, (Const, Infinite)):
        return None
    if isinstance(f, DistCone):
        return len(f.center)
    if isinstance(f, McShane):
        return len(f.samples[0][0])
    if isinstance(f, Blend):
        return _ref_dim(f.inner)
    return _ref_common_dim(f.children)


def _ref_common_dim(children):
    dim = None
    for c in children:
        d = _ref_dim(c)
        if d is None:
            continue
        if dim is None:
            dim = d
        elif d != dim:
            raise ValueError(f"mixed domain dimensions {dim} and {d} in one family")
    return dim


def _ref_depth(f):
    kids = f.children if isinstance(f, (Min, Max)) else (f.inner,) if isinstance(f, Blend) else ()
    return 1 + max(map(_ref_depth, kids), default=0)


def _ref_lip(f):
    if isinstance(f, Const):
        return 0.0
    if isinstance(f, (DistCone, McShane)):
        return f.scale
    if isinstance(f, Blend):
        return f.factor * _ref_lip(f.inner)
    return max(_ref_lip(c) for c in f.children)


def _ref_repr(v):
    """The dataclass ``repr``: the class name and the fields, nothing more."""
    if isinstance(v, LipExpr):
        fields = ", ".join(f"{x.name}={_ref_repr(getattr(v, x.name))}"
                           for x in dataclasses.fields(v))
        return f"{type(v).__qualname__}({fields})"
    if isinstance(v, tuple):
        inner = ", ".join(_ref_repr(x) for x in v)
        return f"({inner},)" if len(v) == 1 else f"({inner})"
    return repr(v)


FIELDS = {Const: ("value",), DistCone: ("center", "offset", "scale", "orientation"),
          Min: ("children",), Max: ("children",), Blend: ("inner", "factor", "anchor"),
          McShane: ("samples", "scale", "mode")}
zero_or_unit = st.one_of(st.just(0.0), unit)


def _leaves(dim):
    point = st.lists(signed, min_size=dim, max_size=dim).map(tuple)
    samples = st.lists(st.tuples(point, signed), min_size=1, max_size=3).map(tuple)
    return st.one_of(
        st.builds(Const, signed),
        st.builds(DistCone, point, signed, zero_or_unit, st.sampled_from((-1, 1))),
        st.builds(McShane, samples, zero_or_unit, st.sampled_from(("inf", "sup"))))


def _deep(leaves, depth):
    """Trees over ``leaves`` with a path of ``depth`` Min, Max and Blend
    nodes from the root down."""
    if depth == 0:
        return leaves
    sub = _deep(leaves, depth - 1)
    # the deep child, up to two others, and the deep child's place among them
    parts = st.tuples(sub, st.lists(st.one_of(leaves, sub), max_size=2), st.integers(0, 2))

    def family(kind):
        return parts.map(lambda t: kind(*t[1][:t[2]], t[0], *t[1][t[2]:]))
    anchor = st.one_of(st.just(-0.0), signed)
    return st.one_of(family(Min), family(Max), st.builds(Blend, sub, zero_or_unit, anchor))


def _nodes(f):
    yield f
    for c in f.children if isinstance(f, (Min, Max)) else \
            (f.inner,) if isinstance(f, Blend) else ():
        yield from _nodes(c)


@given(st.integers(0, 3).flatmap(lambda dim: _deep(_leaves(dim), 3)))
@settings(max_examples=200, deadline=None)
@example(Blend(Max(Min(Const(0.0)), DistCone((), -0.0, 0.0, 1)), 0.0, -0.0))
def test_nodes_hold_the_walkers_dimension_and_constant(f):
    for g in _nodes(f):
        assert domain_dim(g) == g.dim == _ref_dim(g)
        assert lip_bound(g).hex() == g.lip.hex() == _ref_lip(g).hex()
        assert g.depth == _ref_depth(g)
        names = FIELDS[type(g)]
        assert tuple(x.name for x in dataclasses.fields(g)) == names
        # every node stores its form; only nodes with children store the rest
        held = ("dim", "lip", "depth", "form") if isinstance(g, (Min, Max, Blend)) else ("form",)
        assert tuple(vars(g)) == names + held
        assert hash(g) == hash(tuple(getattr(g, name) for name in names))
        assert repr(g) == _ref_repr(g)
        again = expr_from_obj(json.loads(_dumps(g)))
        assert again == g and hash(again) == hash(g)
        if isinstance(g, Blend):
            for factor in (0.0, 0.25, 1.0):
                h = dataclasses.replace(g, factor=factor)
                assert h.lip.hex() == (factor * g.inner.lip).hex() == _ref_lip(h).hex()
                assert h.dim == g.dim


def _ref_lower(f):
    """The lowering as one walk over the tree, rebuilding every form."""
    if isinstance(f, Const):
        return lipfun._Const(f.value)
    if isinstance(f, Infinite):
        return lipfun._Const(f.sign * math.inf)
    if isinstance(f, DistCone):
        if not f.center:
            return lipfun._Const(f.offset)
        if f.scale == 0.0:
            return lipfun._Const(f.orientation * f.scale * 0.0 + f.offset)
        return lipfun._Cones(min, f.orientation * f.scale, ((f.center, f.offset),))
    if isinstance(f, McShane):
        agg, slope = (min, f.scale) if f.mode == "inf" else (max, -f.scale)
        if not f.samples[0][0] or slope == 0.0:
            return lipfun._Node(agg, tuple(lipfun._Const(slope * 0.0 + v) for _, v in f.samples))
        return lipfun._Cones(agg, slope, f.samples)
    if isinstance(f, Blend):
        inner = _ref_lower(f.inner)
        if f.factor == 0.0:
            if f.anchor or math.copysign(1.0, f.anchor) > 0.0:
                return lipfun._Const(f.factor * 0.0 + f.anchor)
            inner = lipfun._Node(max, (lipfun._Node(min, (inner, lipfun._Const(1.0))),
                                       lipfun._Const(-1.0)))
        return lipfun._Blend(inner, f.factor, f.anchor)
    kids = tuple(_ref_lower(c) for c in f.children)
    if all(isinstance(k, lipfun._Cones) and len(k.rows) == 1 for k in kids) and \
            len({k.slope.hex() for k in kids}) == 1:
        return lipfun._Cones(f.agg, kids[0].slope, tuple(k.rows[0] for k in kids))
    return lipfun._Node(f.agg, kids)


def _same_form(a, b):
    """``a`` and ``b`` alike field by field, of the same types, with floats
    compared by their bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same_form, a, b))
    return a is b or a == b


_EDGE_NODES = [
    DistCone((), -0.0, 0.5, -1), DistCone((), 1.5, 0.0, 1),
    DistCone((1.0, -0.0), -0.0, 0.0, -1), DistCone((1.0,), -0.0, 0.0, 1),
    McShane((((), -0.0), ((), 1.0)), 0.5, "inf"), McShane((((), 2.0),), 0.0, "sup"),
    McShane((((1.0,), -0.0), ((2.0,), 1.0)), 0.0, "sup"),
    Blend(DistCone((1.0,), 0.5, 1.0, 1), 0.0, 0.0),
    Blend(DistCone((1.0,), 0.5, 1.0, 1), 0.0, -0.0),
    Blend(Min(DistCone((1.0,), 0.5, 1.0, 1), Const(-0.0)), -0.0, -0.0),
    Min(DistCone((1.0,), 0.5, 1.0, 1), DistCone((2.0,), -0.0, 1.0, 1)),
    Max(DistCone((1.0,), 0.5, 1.0, 1), DistCone((2.0,), -0.0, 1.0, -1)),
]


def _check_form(g):
    assert _same_form(g.form, _ref_lower(g))
    if isinstance(g, Blend):
        for factor in (0.0, -0.0, 0.25, 1.0):
            h = dataclasses.replace(g, factor=factor)
            assert _same_form(h.form, _ref_lower(h))
            if isinstance(h.form, lipfun._Const):
                continue
            # only the blend is lowered anew, over the very inner form it holds
            assert h.form.factor.hex() == factor.hex()
            inner = h.form.inner if factor else h.form.inner.children[0].children[0]
            assert inner is g.inner.form


@given(st.integers(0, 3).flatmap(lambda dim: _deep(_leaves(dim), 3)))
@settings(max_examples=200, deadline=None)
def test_every_node_holds_the_walkers_form(f):
    for g in _nodes(f):
        _check_form(g)


@pytest.mark.parametrize("g", [Infinite(1), Infinite(-1)] + _EDGE_NODES, ids=repr)
def test_edge_nodes_hold_the_walkers_form(g):
    _check_form(g)


@pytest.mark.parametrize("centres, offsets", [
    ([[]], [0.5]),                                      # n = 1, one cone
    ([[], [], []], [-0.0, 2.0, 0.0]),                   # n = 1
    ([[-0.0]], [-0.0]),                                 # n = 2, one cone
    ([[1.0], [-0.0], [0.0], [-2.5]], [0.25, -0.0, 0.0, 3.0]),
    ([[-0.0, 1.0], [2.0, -0.0], [-1e308, 0.75]], [1.5, -0.0, -1.7e308]),   # n = 3
], ids=["n1-one", "n1", "n2-one", "n2", "n3"])
@pytest.mark.parametrize("family, orientation", [(Min, 1), (Max, -1)])
def test_families_built_from_arrays_are_the_constructed_ones(centres, offsets, family,
                                                              orientation):
    """``_cone_family`` from a centre array and offsets gives the node the
    constructors give: equal, of equal hash, fields, held values, form and
    JSON bytes, signed zeros included; in hat dimension 0 every cone is a
    constant."""
    C = np.array(centres, dtype=float).reshape(len(offsets), -1)
    built = lipfun._cone_family(family, C, np.array(offsets), orientation)
    made = family(tuple(DistCone(tuple(c), o, 1.0, orientation) for c, o in zip(centres, offsets)))
    assert type(built) is family and built == made and hash(built) == hash(made)
    assert repr(built) == repr(made)
    for g, h in zip((built,) + built.children, (made,) + made.children):
        assert type(g) is type(h) and tuple(vars(g)) == tuple(vars(h))
        assert _same_form(g.form, h.form) and _same_form(g.form, _ref_lower(h))
        assert (g.dim, g.lip.hex(), g.depth) == (h.dim, h.lip.hex(), h.depth)
    if not C.shape[1]:
        assert all(isinstance(c.form, lipfun._Const) for c in built.children)
    n = C.shape[1] + 1
    a, b = (json.dumps(set_to_obj(BoxLipschitzSet([Infinite(-1)] * n, [f] + [Infinite(1)] * (n - 1))))
            for f in (built, made))
    assert a == b


def _ref_cones_closure(heads, cols):
    """The scalar cone kernel as it was before it took its distances column
    by column: a loop over the centres, each with an inner ``zip`` over its
    coordinates, and a list of the distances even for one row."""
    centres = list(zip(*cols))
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


# hat coordinates: signed zeros, infinities, a NaN, and magnitudes whose
# differences from the centres overflow to inf
EDGE_HAT = (0.0, -0.0, 1.25, -2.5, math.inf, -math.inf, math.nan, 1e308, -1.7976931348623157e308)
OVERFLOWING = st.lists(st.sampled_from((0.0, -0.0, 1e308, -1e308)), min_size=1, max_size=3)


def _kernel_bits(build, hats):
    """``float.hex`` of ``build()``'s values at ``hats``, with the reference
    kernel and with the module's own."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lipfun, "_cones_closure", _ref_cones_closure)
        f = build()
        want = [_hex(np.ravel(f(y))) for y in hats]
    f = build()
    return [_hex(np.ravel(f(y))) for y in hats], want


def _hats(dim):
    return st.lists(st.lists(st.sampled_from(EDGE_HAT), min_size=dim, max_size=dim).map(tuple),
                    min_size=1, max_size=8)


@given(st.integers(0, 3).flatmap(lambda dim: st.tuples(_deep(_leaves(dim), 3), _hats(dim))))
@settings(max_examples=200, deadline=None)
@example((Blend(DistCone((1.0,), 0.5, 1.0, 1), 0.0, -0.0), [(-0.0,), (math.inf,), (0.0,)]))
@example((Blend(Min(DistCone((1.0,), 0.5, 1.0, 1), DistCone((2.0,), -0.0, 1.0, 1)), 0.0, -0.0),
          [(-0.0,), (math.nan,), (2.0,)]))
@example((Blend(DistCone((1.0,), -0.0, 0.5, -1), 0.0, 0.0), [(1.0,)]))
@example((McShane((((), -0.0), ((), 1.0)), 0.5, "inf"), [()]))
def test_the_kernel_gives_the_reference_bits(case):
    """Trees of every node kind, one-row families among them, factor-0
    blends at anchors 0.0 and -0.0 and zero-dimensional domains."""
    f, hats = case
    got, want = _kernel_bits(lambda: _compile(f), hats)
    assert got == want


@given(_shared_pairs(), st.lists(st.tuples(unit, st.sampled_from((0.0, -0.0, -3.0, 1e308)),
                                           st.sampled_from((0.0, -0.0, 3.0, -1e308))),
                                 max_size=2))
@settings(max_examples=200, deadline=None)
def test_the_paired_kernel_gives_the_reference_bits(case, blends):
    """Pairs that share their centres, under the blends of their own and
    those a relaxed set adds (:func:`lipfun._blend_pair`), factor 0 too."""
    dim, lower, upper = case
    p = _pair(lower, upper)
    for factor, low, high in blends:
        p = lipfun._blend_pair(p, factor, low, high)
    hats = list(itertools.product(EDGE_HAT, repeat=dim)) if dim < 3 else \
        list(itertools.product(EDGE_HAT[:4] + EDGE_HAT[6:7], repeat=dim))
    got, want = _kernel_bits(lambda: _compile_pair(p), hats)
    assert got == want


@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(
    st.lists(OVERFLOWING.map(lambda c: tuple((c * dim)[:dim])), min_size=1, max_size=3),
    st.lists(st.sampled_from((0.0, -0.0, 1e308, -1e308)), min_size=3, max_size=3),
    _hats(dim))))
@settings(deadline=None)
def test_distances_that_overflow_give_the_reference_bits(case):
    """Centres and hats near the largest float, whose differences overflow
    to inf, on one-row and several-row families of both slopes' signs."""
    centres, values, hats = case
    for mode, blend in (("inf", None), ("sup", (0.5, -0.0))):
        f = McShane(tuple(zip(centres, values)), 1.0, mode)
        if blend is not None:
            f = Blend(f, *blend)
        got, want = _kernel_bits(lambda: _compile(f), hats)
        assert got == want


# kernel numbers: signed zeros and magnitudes whose sums overflow
KERNEL_NUMBERS = st.sampled_from((0.0, -0.0, 1e308, -1e308, 0.75, -2.5))


@st.composite
def _kernel_cases(draw, R):
    """``(heads, cols, hats)`` of one or two families of ``R`` rows over
    1-6 hat coordinates, each under 0-3 blends."""
    m = draw(st.integers(1, 6))
    cols = tuple(tuple(draw(st.lists(KERNEL_NUMBERS, min_size=R, max_size=R)))
                 for _ in range(m))
    heads = tuple((draw(st.sampled_from((min, max))),
                   draw(st.sampled_from((1.0, -1.0, 0.5, -0.5, 0.0))),
                   tuple(draw(st.lists(KERNEL_NUMBERS, min_size=R, max_size=R))),
                   tuple(draw(st.lists(st.tuples(st.sampled_from((0.0, 0.5, 1.0)), KERNEL_NUMBERS),
                                       max_size=3))))
                  for _ in range(draw(st.integers(1, 2))))
    hats = draw(st.lists(st.tuples(*[st.sampled_from(EDGE_HAT)] * m), min_size=1, max_size=6))
    return heads, cols, hats


@pytest.mark.parametrize("R", sorted({1, 2, 16, lipfun._STRAIGHT_ROWS,
                                      lipfun._STRAIGHT_ROWS + 1}))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_the_generated_kernel_gives_the_reference_bits(R, data):
    """The straight-line kernels up to the row cap, and the column loop
    above it, at hats of signed zeros, infinities, NaN and overflow."""
    heads, cols, hats = data.draw(_kernel_cases(R))
    kernel, ref = lipfun._cones_closure(heads, cols), _ref_cones_closure(heads, cols)
    for y in hats:
        assert _hex(kernel(y)) == _hex(ref(y))


def _misses():
    return lipfun._kernel_code.cache_info().misses


def test_a_family_wider_than_the_cap_compiles_nothing():
    rng = np.random.default_rng(2000)
    f = McShane(tuple((tuple(c), v) for c, v in zip(rng.uniform(-3.0, 3.0, (2000, 2)),
                                                     rng.uniform(-1.0, 1.0, 2000))), 1.0, "inf")
    before = _misses()
    got, want = _kernel_bits(lambda: _compile(f), [(0.0, -0.0), (1.25, math.nan), (2.5, -1e308)])
    assert got == want and _misses() == before


def test_families_of_one_shape_share_one_kernel_code():
    rng = np.random.default_rng(29)
    sets = [McShane(tuple((tuple(c), v) for c, v in zip(rng.uniform(-3.0, 3.0, (5, 3)),
                                                         rng.uniform(-1.0, 1.0, 5))), 0.5, "sup")
            for _ in range(3)]
    before = _misses()
    kernels = [lipfun._cones_closure((lipfun._head(f.form),), lipfun._columns(f.form))
               for f in sets]
    assert _misses() - before <= 1 and len({k.__code__ for k in kernels}) == 1
    for f in sets:
        got, want = _kernel_bits(lambda: _compile(f), [(0.0, 1.25, -2.5), (-0.0, 0.0, 1.25)])
        assert got == want


def test_the_kernel_code_holds_no_number():
    """Every number reaches a kernel as a default argument, and a kernel
    calls nothing: its code holds no constant but 0.0 and None, no global
    name, and only local names built from integers besides ``y``, and its
    globals reach no builtin."""
    for m, R, shape in ((1, 1, ((min, 0),)), (3, 5, ((max, 2), (min, 3))), (6, 16, ((min, 1),))):
        code = lipfun._kernel_code(m, R, shape)
        assert {repr(c) for c in code.co_consts} <= {"0.0", "None"}
        assert code.co_names == ()
        assert not code.co_freevars and not code.co_cellvars
        assert [n for n in code.co_varnames if not re.fullmatch(r"[a-z]\d+(_\d+)?", n)] == ["y"]
    assert lipfun._KERNEL_GLOBALS == {"__builtins__": {}}
    kernel = lipfun._cones_closure(((max, 1.0, (0.0, 0.5), ()),), ((1.0, 2.0),))
    assert kernel.__globals__ is lipfun._KERNEL_GLOBALS and kernel.__builtins__ == {}


@pytest.mark.parametrize("R", [2, 16])
def test_ties_and_nans_keep_the_reference_order(R):
    """The orders the hypothesis cases reach only by chance: terms equal as
    0.0 and -0.0 in both orders, under ``min`` and under ``max``; a NaN term
    first and later (slope 0.0 at an infinite distance); and a NaN hat
    coordinate first and last."""
    def check(cols, slope, offs, hats):
        heads = ((min, slope, offs, ()), (max, slope, offs, ((0.5, -0.0),)))
        kernel, ref = lipfun._cones_closure(heads, cols), _ref_cones_closure(heads, cols)
        assert kernel.__code__ is lipfun._kernel_code(len(cols), R, ((min, 0), (max, 1)))
        for y in hats:
            assert _hex(kernel(y)) == _hex(ref(y)), y

    # slope -0.0 at finite distances: each term is its offset, 0.0 or -0.0
    near = (tuple(0.5 * r for r in range(R)), (0.0,) * R)
    for zeros in ((0.0, -0.0), (-0.0, 0.0)):
        check(near, -0.0, zeros * (R // 2), [(0.25, 0.0), (0.0, -0.0), (-0.0, 0.0)])
    # a hat at x = inf is infinitely far from the row centred at x = 1.0 and
    # a finite distance from those centred at x = inf, so at slope 0.0 that
    # row's term is the only NaN: first, then last
    far = ((1.0,) + (math.inf,) * (R - 1), (0.0,) + tuple(0.25 * r for r in range(1, R)))
    offs = tuple(0.5 * (-1) ** r for r in range(R))
    for cols in (far, tuple(c[::-1] for c in far)):
        check(cols, 0.0, offs, [(math.inf, 0.5), (math.nan, 0.5), (0.5, math.nan),
                                (math.nan, math.nan)])
        check(cols, 1.0, offs, [(math.inf, 0.5), (math.nan, 0.5), (0.5, math.nan)])


def test_the_kernel_code_cache_stays_within_its_size():
    shapes = [(m, R) for m in range(1, 7) for R in range(1, lipfun._STRAIGHT_ROWS + 1)]
    assert len(shapes) > lipfun._KERNEL_SHAPES
    lipfun._kernel_code.cache_clear()
    for m, R in shapes:
        lipfun._cones_closure(((max, 1.0, (0.0,) * R, ((0.5, 1.0),) * 3),), ((0.0,) * R,) * m)
    info = lipfun._kernel_code.cache_info()
    assert info.misses == len(shapes)
    assert info.currsize == info.maxsize == lipfun._KERNEL_SHAPES


@given(st.lists(st.integers(0, 3).flatmap(lambda dim: _deep(_leaves(dim), 2)),
                min_size=1, max_size=4),
       st.sampled_from((Min, Max)))
@settings(deadline=None)
def test_mixed_dimensions_give_the_walkers_message(children, kind):
    try:
        want = _ref_common_dim(children)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            kind(*children)
        assert str(err.value) == str(exc)
    else:
        assert kind(*children).dim == want


def _chains(depth):
    """Expressions ``depth`` levels deep on the line: a chain of ``Min`` and
    ``Max`` nodes, each with a constant beside the deeper child, and a chain
    of blends of factor 0 at anchor ``-0.0``, which lower to three nodes
    each, the most Python frames per level of any walker."""
    nodes = DistCone((0.0,), 0.0, 1.0, 1)
    for i in range(depth - 1):
        nodes = (Min if i % 2 else Max)(nodes, Const(i + 0.5))
    blends = McShane((((0.0,), 0.0), ((1.0,), 1.0)), 0.5, "inf")
    for _ in range(depth - 1):
        blends = Blend(blends, 0.0, -0.0)
    return {"nodes": nodes, "blends": blends}


@pytest.mark.parametrize("name", ["nodes", "blends"])
def test_every_walker_passes_at_the_depth_limit(name):
    f = _chains(lipfun._MAX_DEPTH)[name]
    assert f.depth == lipfun._MAX_DEPTH
    value = _compile(f)((0.25,))
    assert eval_grid(f, [[0.25], [3.0]])[0] == value
    lo, hi = bounds_of(f, [(0.0, 1.0)])
    assert lo <= value <= hi
    again = expr_from_obj(json.loads(json.dumps(expr_to_obj(f))))
    assert again == f and again.depth == f.depth


def test_a_node_above_the_depth_limit_is_refused():
    limit = lipfun._MAX_DEPTH
    chains = _chains(limit)
    for build in (lambda: Min(chains["nodes"], Const(0.0)), lambda: Max(chains["nodes"]),
                  lambda: Blend(chains["blends"], 0.5, 0.0),
                  lambda: shrink(chains["blends"], 0.5, 0.0)):
        with pytest.raises(ValueError, match=f"would be {limit + 1} levels deep"):
            build()
    obj = {"type": "min", "children": [expr_to_obj(chains["nodes"])]}
    with pytest.raises(ValueError, match=f"would be {limit + 1} levels deep"):
        expr_from_obj(json.loads(json.dumps(obj)))


def test_the_readers_keep_their_errors():
    for read in (domain_dim, lip_bound):
        with pytest.raises(TypeError, match="not a LipExpr: 1.5"):
            read(1.5)
    assert domain_dim(Infinite(1)) is None
    with pytest.raises(ValueError, match="carry no Lipschitz constant"):
        lip_bound(Infinite(-1))


class TestAudit:
    def test_witness_for_a_false_claim(self):
        f = DistCone((0.0,), 0.0, 0.5, 1)
        grid = [(t,) for t in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        assert verify_lipschitz_on_grid(f, grid, 0.5) is None
        witness = verify_lipschitz_on_grid(f, grid, 0.4)
        assert witness is not None
        y, z = witness
        assert abs(_compile(f)(y) - _compile(f)(z)) > 0.4 * abs(y[0] - z[0])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            verify_lipschitz_on_grid(Const(0.0), [], 1.0)

    def test_a_grid_of_mixed_dimensions_gets_the_point_set_message(self):
        with pytest.raises(ValueError) as err:
            verify_lipschitz_on_grid(DistCone((0.0,), 0.0, 1.0, 1), [(0.0,), (1.0, 2.0)], 1.0)
        assert str(err.value) == "mixed point dimensions [1, 2]"

    def test_infinite_values_rejected(self):
        with pytest.raises(ValueError):
            verify_lipschitz_on_grid(Infinite(1), [(0.0,)], 1.0)

    def test_the_first_point_with_an_infinite_value_is_named(self):
        f = DistCone((0.0,), 1e308, 1.0, 1)
        with pytest.raises(ValueError) as err:
            verify_lipschitz_on_grid(f, np.array([[0.0], [1e308], [-1e308]]), 1.0)
        assert str(err.value) == "expression is not finite at (1e+308,)"

    def test_the_witness_is_a_pair_of_float_tuples(self):
        witness = verify_lipschitz_on_grid(DistCone((0.0,), 0.0, 1.0, 1),
                                           np.array([[0.0], [1.0]]), 0.5)
        assert witness == ((0.0,), (1.0,))
        assert all(type(c) is float for y in witness for c in y)

    @pytest.mark.parametrize("lam, tol", [
        (math.nan, 0.0), (-1.0, 0.0), (1.0, math.nan), (1.0, -1e-12)])
    def test_bad_lam_or_tol_rejected(self, lam, tol):
        f = DistCone((0.0,), 0.0, 1.0, 1)
        with pytest.raises(ValueError, match="lam" if lam != 1.0 else "tol"):
            verify_lipschitz_on_grid(f, [(0.0,), (1.0,)], lam, tol)

    @pytest.mark.parametrize("n, planted", [(1, 0), (2, 3), (3, 1), (4, 6)])
    @pytest.mark.parametrize("rows", [None, 1, 7])
    def test_first_pair_matches_the_pair_loop(self, n, planted, rows, rng, monkeypatch):
        """Grid points on the unit sphere around the origin, where
        ``||y||`` is constant, plus ``planted`` points at radius 1.5 that
        break the claim ``lam = 0.5`` against nearby sphere points; blocks
        of the default size, or of 1 and 7 rows."""
        def reference(f, grid, lam, tol):
            vals = eval_grid(f, grid).tolist()
            for i in range(len(grid)):
                for j in range(i + 1, len(grid)):
                    if abs(vals[i] - vals[j]) > lam * sup_dist(grid[i], grid[j]) + tol:
                        return grid[i], grid[j]
            return None

        U = rng.uniform(-1.0, 1.0, (300, n))
        U[np.arange(300), rng.integers(0, n, 300)] = rng.choice([-1.0, 1.0], 300)
        spots = rng.choice(300, planted, replace=False)
        U[spots] *= 1.5
        grid = [tuple(u) for u in U]
        f = DistCone((0.0,) * n, 0.0, 1.0, 1)
        if rows is not None:
            monkeypatch.setattr(metric, "_SCRATCH_BYTES", 8 * len(grid) * rows)
        want = reference(f, grid, 0.5, 1e-12)
        assert (want is None) == (planted == 0)
        assert verify_lipschitz_on_grid(f, grid, 0.5, tol=1e-12) == want


class TestJSONForm:
    def test_known_object_shape(self):
        f = DistCone((1.0, 2.0), 0.25, 0.5, -1)
        obj = expr_to_obj(f)
        assert obj == {"type": "distcone", "center": [1.0, 2.0], "offset": 0.25,
                       "scale": 0.5, "orientation": "-"}
        assert expr_from_obj(obj) == f

    def test_malformed_objects_rejected(self):
        with pytest.raises(ValueError):
            expr_from_obj({"type": "warp", "value": 0.0})
        with pytest.raises(ValueError):
            expr_from_obj({"value": 0.0})
        with pytest.raises(ValueError):
            expr_from_obj({"type": "const"})

    @pytest.mark.parametrize("text", [
        '{"type": "const", "value": true}',
        '{"type": "distcone", "center": [false], "offset": true, "scale": 1.0, '
        '"orientation": "+"}',
        '{"type": "min", "children": [{"type": "blend", "factor": false, "anchor": 0.0, '
        '"inner": {"type": "const", "value": 1.0}}]}',
        '{"type": "mcshane", "mode": "inf", "scale": 0.5, "samples": [[[0.0], true]]}',
    ])
    def test_a_boolean_is_no_number(self, text):
        """``float`` reads ``true`` as 1.0: decoded JSON with a boolean in
        it is refused, at any depth."""
        with pytest.raises(ValueError, match="expression holds the boolean"):
            expr_from_obj(json.loads(text))

    @pytest.mark.parametrize("obj, field", [
        ({"type": "distcone", "center": [0.0], "offset": 0.0, "scale": 1.0,
          "orientation": "?"}, "orientation"),
        ({"type": "inf", "sign": "?"}, "sign"),
        ({"type": "inf", "sign": ["+"]}, "sign"),
    ])
    def test_unknown_sign_is_not_a_missing_field(self, obj, field):
        with pytest.raises(ValueError, match=f"unknown {field} .* in '{obj['type']}'"):
            expr_from_obj(obj)
        del obj[field]
        with pytest.raises(ValueError, match=f"missing field '{field}'"):
            expr_from_obj(obj)


class TestLinearWindow:
    """Affine functions realized as single cones on a huge window."""

    def test_identity_on_dyadic_points(self):
        f = linear_window(1.0, 0.0)
        for t in (-8.0, -0.5, 0.0, 0.25, 7.0):
            assert _compile(f)((t,)) == t

    def test_negative_slope(self):
        f = linear_window(-1.0, 1.0)
        for t in (-4.0, 0.0, 2.0):
            assert _compile(f)((t,)) == 1.0 - t

    def test_half_slope(self):
        f = linear_window(0.5, -1.0)
        for t in (-6.0, 0.0, 3.0):
            assert _compile(f)((t,)) == 0.5 * t - 1.0

    def test_slope_beyond_one_rejected(self):
        with pytest.raises(ValueError):
            linear_window(1.5, 0.0)

    def test_constant_is_one_lipschitz_certified(self):
        assert lip_bound(linear_window(1.0, 2.0)) == 1.0
        assert lip_bound(linear_window(0.25, 0.0)) == 0.25


class TestBoxIntake:
    """Every reader of a working box refuses, with one message, a string
    limit (``float`` reads ``"4"`` as 4.0) and a side that is not a
    ``[lo, hi]`` pair, whether the box and its sides are lists, tuples or
    arrays."""

    READERS = {
        "bounds_of": lambda box: bounds_of(Const(1.0), box),
        "enclosure_bounds": lambda box: enclosure_bounds(vee_notch_instance(), box),
        "retract": lambda box: boxset.retract(vee_notch_instance(), (0.0, -3.0), 1e-3,
                                              box=box, many=False),
        "render_scene": lambda box: svgplot.render_scene(box),
    }

    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("box, message", [
        ([("-4", "4"), (-4, 4)], "a box must hold numbers, got '-4'"),
        ([[-4, 4], [-4, "4"]], "a box must hold numbers, got '4'"),
        (np.array([["-4", "4"], ["-4", "4"]]), "a box must hold numbers, got '-4'"),
        ("12", "a box must hold numbers, got '12'"),
        ([(-4, 4, 5), (-4, 4)], "box side 0 must be a [lo, hi] pair, got [-4, 4, 5]"),
        (np.full((2, 3), 4.0), "box side 0 must be a [lo, hi] pair, got [4.0, 4.0, 4.0]"),
        ([(-4, 4), 4], "box side 1 must be a [lo, hi] pair, got 4"),
        ([(-4, 4), np.array([4])], "box side 1 must be a [lo, hi] pair, got [4]"),
        (np.array([-4.0, 4.0]), "box side 0 must be a [lo, hi] pair, got -4.0"),
        ({"lo": -4, "hi": 4}, 'a box must be a list of [lo, hi] sides, got {"lo": -4, "hi": 4}'),
        (4, "a box must be a list of [lo, hi] sides, got 4"),
    ])
    def test_refusals(self, reader, box, message):
        with pytest.raises(ValueError) as err:
            self.READERS[reader](box)
        assert str(err.value) == message

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_lists_tuples_and_arrays_read_alike(self, reader):
        def read(box):
            out = self.READERS[reader](box)
            return (out[0], out[2]) if reader == "retract" else out   # no trace

        want = read([[-4, 4], [-4, 4]])
        for box in (((-4.0, 4.0), (-4.0, 4.0)), [np.array([-4, 4])] * 2,
                    np.array([[-4.0, 4.0], [-4.0, 4.0]])):
            assert read(box) == want

    @pytest.mark.parametrize("sides", [1, 3])
    def test_a_scene_box_has_two_sides(self, sides):
        with pytest.raises(ValueError) as err:
            svgplot.render_scene([(0.0, 1.0)] * sides)
        assert str(err.value) == f"expected a box with 2 sides, got {sides}"
