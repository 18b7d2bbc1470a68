"""Tests for the sup-norm primitives and finite metric spaces."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hyperlip.boxset import BoxLipschitzSet, cyclic_iterate
from hyperlip.lipfun import Const, Infinite
from hyperlip.metric import (
    ConeDescriptor,
    FiniteMetricSpace,
    as_point,
    check_metric_axioms,
    cone_contains,
    cone_contains_general,
    hat,
    hausdorff_distance,
    sup_dist,
)

from conftest import random_metric

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
small = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


def vectors(n):
    return st.lists(finite, min_size=n, max_size=n).map(tuple)


def small_vectors(n):
    return st.lists(small, min_size=n, max_size=n).map(tuple)


class TestPoints:
    def test_as_point_accepts_empty(self):
        assert as_point(()) == ()
        assert as_point([]) == ()

    def test_as_point_rejects_nan(self):
        with pytest.raises(ValueError):
            as_point((1.0, float("nan")))
        with pytest.raises(ValueError):
            as_point((math.inf,))

    def test_sup_dist_basic(self):
        assert sup_dist((1.0, 2.0), (3.0, 1.0)) == 2.0
        assert sup_dist((), ()) == 0.0

    def test_hat_drops_the_right_coordinate(self):
        assert hat((10.0, 20.0, 30.0), 0) == (20.0, 30.0)
        assert hat((10.0, 20.0, 30.0), 1) == (10.0, 30.0)
        assert hat((10.0, 20.0, 30.0), 2) == (10.0, 20.0)

    def test_hat_of_a_one_dimensional_point_is_empty(self):
        assert hat((5.0,), 0) == ()

    @given(vectors(3), vectors(3), vectors(3))
    def test_sup_dist_triangle(self, x, y, z):
        assert sup_dist(x, z) <= sup_dist(x, y) + sup_dist(y, z) + 1e-9


def clamp(lo, hi, x):
    """The single-axis projection step of the retraction engines, run on the
    one-dimensional set ``[lo, hi]``."""
    lower = Infinite(-1) if lo == -math.inf else Const(lo)
    upper = Infinite(1) if hi == math.inf else Const(hi)
    return cyclic_iterate(BoxLipschitzSet([lower], [upper]), (x,), 1).final[0]


class TestClamp:
    def test_interior_point_is_fixed(self):
        assert clamp(0.0, 1.0, 0.5) == 0.5

    def test_sides(self):
        assert clamp(0.0, 1.0, -3.0) == 0.0
        assert clamp(0.0, 1.0, 7.0) == 1.0

    def test_infinite_ends(self):
        assert clamp(-math.inf, 1.0, 7.0) == 1.0
        assert clamp(0.0, math.inf, -7.0) == 0.0
        assert clamp(-math.inf, math.inf, 42.0) == 42.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            clamp(2.0, 1.0, 0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            clamp(0.0, 1.0, float("nan"))

    @given(finite, finite, finite, finite, finite, finite)
    def test_jointly_one_lipschitz(self, a, b, c, d, x, y):
        """|clamp(l,h,x) - clamp(l',h',x')| <= max of the three deltas."""
        lo1, hi1 = min(a, b), max(a, b)
        lo2, hi2 = min(c, d), max(c, d)
        bound = max(abs(lo1 - lo2), abs(hi1 - hi2), abs(x - y))
        assert abs(clamp(lo1, hi1, x) - clamp(lo2, hi2, y)) <= bound + 1e-9


class TestCones:
    def test_contains_apex_and_ray(self):
        cone = ConeDescriptor((1.0, 1.0), 1, 1)
        assert cone_contains(cone, (1.0, 1.0))
        assert cone_contains(cone, (1.0, 3.0))
        assert cone_contains(cone, (2.0, 3.0))

    def test_rejects_points_off_axis(self):
        cone = ConeDescriptor((1.0, 1.0), 1, 1)
        assert not cone_contains(cone, (4.0, 3.0))
        assert not cone_contains(cone, (1.0, 0.0))

    def test_downward_cone(self):
        cone = ConeDescriptor((0.0, 0.0), 0, -1)
        assert cone_contains(cone, (-2.0, 1.0))
        assert not cone_contains(cone, (2.0, 1.0))

    def test_strict_excludes_the_boundary(self):
        cone = ConeDescriptor((0.0, 0.0), 1, 1)
        assert cone_contains(cone, (1.0, 1.0))
        assert not cone_contains(cone, (1.0, 1.0), strict=True, tol=0.0)
        assert cone_contains(cone, (0.5, 1.0), strict=True, tol=0.0)

    @given(small_vectors(3), small_vectors(3))
    def test_general_form_matches_descriptor(self, p, q):
        """The two-point cone test agrees with the axis-aligned descriptor.

        The set of points q with x metrically between p and q is the cone at
        x opening away from p along the coordinate where p - x peaks, as long
        as that peak is unique.  Queries near the cone boundary are skipped;
        there the two formulations differ only by tolerance bookkeeping.
        """
        x = (0.0, 0.0, 0.0)
        diffs = [abs(c) for c in p]
        i = max(range(3), key=lambda j: diffs[j])
        rest = max(diffs[j] for j in range(3) if j != i)
        if diffs[i] <= rest + 1e-6:
            return
        sign = -1 if p[i] > 0.0 else 1
        cone = ConeDescriptor(x, i, sign)
        t = sign * q[i]
        off = max(abs(q[j]) for j in range(3) if j != i)
        if abs(t) < 1e-6 or abs(off - t) < 1e-6:
            return
        assert cone_contains(cone, q, tol=0.0) == cone_contains_general(p, x, q, tol=1e-9)


class TestHausdorff:
    def test_identical_sets(self):
        A = [(0.0, 0.0), (1.0, 1.0)]
        assert hausdorff_distance(A, A) == 0.0

    def test_known_value(self):
        A = [(0.0, 0.0)]
        B = [(1.0, 0.5), (0.25, 0.25)]
        # directed A->B is 0.25, directed B->A is 1.0
        assert hausdorff_distance(A, B) == 1.0

    def test_symmetry(self, rng):
        A = [tuple(v) for v in rng.uniform(-1, 1, (5, 2))]
        B = [tuple(v) for v in rng.uniform(-1, 1, (7, 2))]
        assert hausdorff_distance(A, B) == hausdorff_distance(B, A)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hausdorff_distance([], [(0.0,)])


class TestMetricAxioms:
    def test_valid_matrix_passes(self, rng):
        X = random_metric(rng, 6)
        report = check_metric_axioms(X.matrix)
        assert report.ok
        assert report.violations == []

    def test_triangle_violation_is_reported(self):
        D = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        report = check_metric_axioms(D)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert kinds == {"triangle"}
        worst = max(v.amount for v in report.violations)
        assert worst == pytest.approx(1.0)

    def test_asymmetry_is_reported(self):
        D = np.array([[0.0, 1.0], [2.0, 0.0]])
        report = check_metric_axioms(D)
        assert any(v.kind == "symmetry" for v in report.violations)

    def test_nonzero_diagonal_is_reported(self):
        D = np.array([[0.5, 1.0], [1.0, 0.0]])
        report = check_metric_axioms(D)
        assert any(v.kind == "diagonal" for v in report.violations)


class TestFiniteMetricSpace:
    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace(np.array([[0.0, 1.0, 3.0],
                                        [1.0, 0.0, 1.0],
                                        [3.0, 1.0, 0.0]]))

    def test_from_points_uses_sup_norm(self):
        X = FiniteMetricSpace.from_points([(0.0, 0.0), (1.0, 3.0), (2.0, 2.0)])
        assert X.d(0, 1) == 3.0
        assert X.d(1, 2) == 1.0
        assert X.row(0) == (0.0, 3.0, 2.0)

    def test_matrix_is_read_only(self, rng):
        X = random_metric(rng, 4)
        with pytest.raises(ValueError):
            X.matrix[0, 1] = 5.0
