"""Tests for the Lipschitz expression grammar.

The central property: the syntactic constant of every expression the
strategy can build is honored by the denoted function, checked by brute
force over all pairs of a sample grid.  Everything else (serialization,
interval enclosures, structural rewrites) hangs off the same strategy.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperlip.lipfun import (
    Blend,
    Const,
    DistCone,
    Infinite,
    Max,
    McShane,
    Min,
    bounds_of,
    domain_dim,
    eval_grid,
    expr_dumps,
    expr_from_obj,
    expr_loads,
    expr_to_obj,
    lip_bound,
    shifted,
    shrink,
    translated,
    verify_lipschitz_on_grid,
    _compile,
)
from hyperlip.instances import linear_window

DIM = 2

coord = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
point2 = st.lists(coord, min_size=DIM, max_size=DIM).map(tuple)


def _leaf():
    consts = st.builds(Const, coord)
    cones = st.builds(DistCone, point2, coord, unit, st.sampled_from((-1, 1)))
    samples = st.lists(st.tuples(point2, coord), min_size=1, max_size=3).map(tuple)
    envelopes = st.builds(McShane, samples, unit, st.sampled_from(("inf", "sup")))
    return st.one_of(consts, cones, envelopes)


def _combine(children):
    return st.one_of(
        st.lists(children, min_size=1, max_size=3).map(lambda cs: Min(*cs)),
        st.lists(children, min_size=1, max_size=3).map(lambda cs: Max(*cs)),
        st.builds(Blend, children, unit, coord),
    )


exprs = st.recursive(_leaf(), _combine, max_leaves=6)

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
    text = expr_dumps(f)
    g = expr_loads(text)
    assert g == f
    assert expr_dumps(g) == text


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


@given(exprs, st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
@settings(deadline=None)
def test_shifted_adds_a_constant(f, delta):
    g = shifted(f, delta)
    assert lip_bound(g) == pytest.approx(lip_bound(f), abs=1e-12)
    for y in GRID[::5]:
        assert _compile(g)(y) == pytest.approx(_compile(f)(y) + delta, abs=1e-9)


@given(exprs, point2)
@settings(deadline=None)
def test_translated_composes_with_a_shift_of_the_argument(f, v):
    g = translated(f, v)
    for y in GRID[::5]:
        moved = tuple(a + b for a, b in zip(y, v))
        assert _compile(g)(y) == pytest.approx(_compile(f)(moved), abs=1e-9)


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

    def test_infinite_values_rejected(self):
        with pytest.raises(ValueError):
            verify_lipschitz_on_grid(Infinite(1), [(0.0,)], 1.0)


class TestJSONForm:
    def test_known_object_shape(self):
        f = DistCone((1.0, 2.0), 0.25, 0.5, -1)
        obj = expr_to_obj(f)
        assert obj == {"type": "distcone", "center": [1.0, 2.0], "offset": 0.25,
                       "scale": 0.5, "orientation": "-"}
        assert expr_from_obj(obj) == f

    def test_canonical_text_is_sorted_and_compact(self):
        f = Max(Const(1.0), Blend(DistCone((0.5,), 0.0, 1.0, 1), 0.5, 2.0))
        text = expr_dumps(f)
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))

    def test_malformed_objects_rejected(self):
        with pytest.raises(ValueError):
            expr_from_obj({"type": "warp", "value": 0.0})
        with pytest.raises(ValueError):
            expr_from_obj({"value": 0.0})
        with pytest.raises(ValueError):
            expr_from_obj({"type": "const"})


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
