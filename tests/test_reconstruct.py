"""Tests for margin computation, cone choice, and bound synthesis."""

import numpy as np
import pytest

from hyperlip.boxset import violation, violation_many
from hyperlip.metric import cone_contains
from hyperlip.reconstruct import (
    ConeOverlapError,
    ReconstructionConfig,
    choose_cone,
    epsilon_many,
    membership_from_samples,
    synthesize_bounds,
    verify_reconstruction,
)


def _grid(lo, hi, step):
    k = int(round((hi - lo) / step))
    return [(lo + i * step, lo + j * step)
            for i in range(k + 1) for j in range(k + 1)]


def _square_samples(step=0.25):
    inside = [p for p in _grid(0.0, 1.0, step)]
    every = _grid(-1.0, 2.0, step)
    mem = set(inside)
    outside = [p for p in every if p not in mem]
    return inside, outside, every


class TestMargin:
    def test_singleton_sample(self):
        # with one inside point the margin is twice the distance
        eps, arg = epsilon_many([(0.0, 0.0)], [(3.0, 1.0)])
        assert eps[0] == 6.0
        assert arg[0] == 0

    def test_point_beside_a_segment(self):
        inside = [(t * 0.1, 0.0) for t in range(11)]
        eps, arg = epsilon_many(inside, [(0.5, 1.0)])
        # the midpoint wins the max: from p = (0.5, 0) the cheapest detour
        # through any q costs 1.0 + 1.0 - 0.5
        assert eps[0] == pytest.approx(1.5)
        assert inside[arg[0]] == (0.5, 0.0)

    def test_collinear_exterior_point_has_no_margin(self):
        # x between two samples on a line is metrically between them
        inside = [(0.0, 0.0), (2.0, 0.0)]
        eps, _ = epsilon_many(inside, [(1.0, 0.0)])
        assert eps[0] == 0.0
        with pytest.raises(ValueError, match="not positive"):
            synthesize_bounds(ReconstructionConfig(tuple(inside), ((1.0, 0.0),)))

    def test_sample_point_rejected(self):
        eps, _ = epsilon_many([(0.0, 0.0)], [(0.0, 0.0)])
        assert eps[0] == 0.0
        with pytest.raises(ValueError, match="not positive"):
            synthesize_bounds(ReconstructionConfig(((0.0, 0.0),), ((0.0, 0.0),)))

    def test_batch_matches_scalar(self, rng):
        """Margins do not depend on the batch or chunk a point is computed in."""
        inside = [tuple(v) for v in rng.uniform(-1, 1, (6, 3))]
        X = rng.uniform(-3, 3, (20, 3))
        eps, arg = epsilon_many(inside, X, chunk=7)
        for row, e, a in zip(X, eps, arg):
            one, one_arg = epsilon_many(inside, [row])
            assert one[0] == e
            assert one_arg[0] == a

    def test_margin_capped_by_twice_the_distance(self, rng):
        inside = [tuple(v) for v in rng.uniform(-1, 1, (8, 2))]
        X = rng.uniform(-4, 4, (30, 2))
        eps, _ = epsilon_many(inside, X)
        for row, e in zip(X, eps):
            dmin = min(abs(row - np.asarray(p)).max() for p in inside)
            assert e <= 2 * dmin + 1e-12


class TestConeChoice:
    def test_axis_is_the_dominant_coordinate(self):
        cone = choose_cone((3.0, 1.0), (0.0, 0.0), 2.0, 0.1)
        assert cone.axis == 0
        assert cone.sign == 1
        assert cone.apex == (3.0 - 0.2, 1.0)

    def test_downward_direction(self):
        cone = choose_cone((0.0, -2.0), (0.0, 0.0), 1.0, 0.1)
        assert cone.axis == 1
        assert cone.sign == -1
        assert cone.apex == (0.0, -2.0 + 0.1)

    def test_tie_goes_to_the_smallest_axis(self):
        cone = choose_cone((1.0, 1.0), (0.0, 0.0), 0.5, 0.1)
        assert cone.axis == 0

    def test_exterior_point_is_strictly_interior(self, rng):
        for _ in range(25):
            x = tuple(rng.uniform(-2, 2, 3))
            p = tuple(rng.uniform(-2, 2, 3))
            if x == p:
                continue
            cone = choose_cone(x, p, float(rng.uniform(0.1, 1.0)), 0.05)
            assert cone_contains(cone, x, strict=True, tol=0.0)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            choose_cone((1.0, 0.0), (1.0, 0.0), 1.0, 0.1)
        with pytest.raises(ValueError):
            choose_cone((1.0, 0.0), (0.0, 0.0), 0.0, 0.1)


class TestConfig:
    def test_a_range_enforced(self):
        inside = ((0.0, 0.0),)
        outside = ((2.0, 0.0),)
        ReconstructionConfig(inside, outside, a=0.1)
        for bad in (0.0, 0.125, 0.2, -0.05):
            with pytest.raises(ValueError):
                ReconstructionConfig(inside, outside, a=bad)

    def test_oracle_validation(self):
        mem = membership_from_samples([(0.0, 0.0)])
        with pytest.raises(ValueError):
            ReconstructionConfig(((0.0, 0.0), (5.0, 5.0)), (), membership=mem)
        with pytest.raises(ValueError):
            ReconstructionConfig(((0.0, 0.0),), ((0.0, 0.0),), membership=mem)

    def test_dimension_consistency(self):
        with pytest.raises(ValueError):
            ReconstructionConfig(((0.0, 0.0), (1.0,)), ())


class TestSynthesis:
    def test_square_is_recovered_on_its_own_grid(self):
        inside, outside, every = _square_samples(0.25)
        cfg = ReconstructionConfig(tuple(inside), tuple(outside), a=0.1)
        Q = synthesize_bounds(cfg)
        report = verify_reconstruction(membership_from_samples(inside), Q, every)
        assert report.ok
        assert report.checked == len(every)

    def test_inside_samples_are_members(self):
        inside, outside, _ = _square_samples(0.25)
        cfg = ReconstructionConfig(tuple(inside), tuple(outside), a=0.1)
        Q = synthesize_bounds(cfg)
        assert (violation_many(Q, np.asarray(inside)) == 0.0).all()

    def test_exterior_samples_are_excluded(self):
        inside, outside, _ = _square_samples(0.25)
        cfg = ReconstructionConfig(tuple(inside), tuple(outside), a=0.1)
        Q = synthesize_bounds(cfg)
        assert (violation_many(Q, np.asarray(outside)) > 0.0).all()

    def test_no_exterior_means_no_constraints(self):
        cfg = ReconstructionConfig(((0.0, 0.0),), ())
        Q = synthesize_bounds(cfg)
        assert not Q.all_finite
        assert violation(Q, (100.0, -100.0)) == 0.0

    def test_refinement_is_monotone(self):
        """More exterior points only carve the candidate set down."""
        inside, outside, every = _square_samples(0.25)
        cfg_few = ReconstructionConfig(tuple(inside), tuple(outside[::3]), a=0.1)
        cfg_all = ReconstructionConfig(tuple(inside), tuple(outside), a=0.1)
        Q_few = synthesize_bounds(cfg_few)
        Q_all = synthesize_bounds(cfg_all)
        v_few = violation_many(Q_few, np.asarray(every))
        v_all = violation_many(Q_all, np.asarray(every))
        assert (v_few <= v_all + 1e-12).all()

    def test_nonconvex_step_shape(self):
        """x1 <= 1 + min(x2, 1) inside [0, 2]^2 at step 0.25."""
        step = 0.25
        every = _grid(-1.0, 3.0, step)
        def truth(p):
            x1, x2 = p
            return (0.0 <= x1 <= 2.0 and 0.0 <= x2 <= 2.0
                    and x1 <= 1.0 + min(x2, 1.0) + 1e-12)
        sample_region = _grid(0.0, 2.0, step)
        inside = [p for p in sample_region if truth(p)]
        outside = [p for p in every if not truth(p)]
        cfg = ReconstructionConfig(tuple(inside), tuple(outside), a=0.1)
        Q = synthesize_bounds(cfg)
        report = verify_reconstruction(membership_from_samples(inside), Q, every)
        assert report.false_outside == ()
        assert report.false_inside == ()

    def test_overlap_is_detected(self):
        # two inside points bracketing an exterior point horizontally leave
        # it no separating cone: epsilon degenerates instead of overlapping
        inside = ((0.0, 0.0), (0.0, 2.0))
        outside = ((0.0, 1.0),)
        with pytest.raises((ValueError, ConeOverlapError)):
            synthesize_bounds(ReconstructionConfig(inside, outside, a=0.1))


class TestVerification:
    def test_report_counts(self):
        inside, outside, every = _square_samples(0.5)
        cfg = ReconstructionConfig(tuple(inside), tuple(outside), a=0.1)
        Q = synthesize_bounds(cfg)
        # an oracle that accepts everything marks all exterior as missing
        report = verify_reconstruction(lambda p: True, Q, every)
        assert len(report.false_outside) == len(outside)
        assert report.false_inside == ()
        assert not report.ok
        assert "false outside" in str(report)

    def test_empty_grid(self):
        report = verify_reconstruction(lambda p: True, synthesize_bounds(
            ReconstructionConfig(((0.0, 0.0),), ())), [])
        assert report.checked == 0
        assert report.ok
