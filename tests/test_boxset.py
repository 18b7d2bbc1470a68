"""Tests for bounded-by-Lipschitz-functions sets and their retractions."""

import json
import math

import numpy as np
import pytest

from hyperlip import boxset, lipfun
from hyperlip.boxset import (
    BoxLipschitzSet,
    DivergenceDetectedError,
    InconsistentBoundsError,
    IterationTrace,
    MaxSweepsExceededError,
    UnsupportedSetError,
    check_decay_certificate,
    cyclic_iterate,
    cyclic_retract,
    cyclic_retract_many,
    detect_noncontraction,
    enclosure_bounds,
    find_point,
    relaxation_order,
    retract_lambda_one_bounded,
    retract_lambda_one_bounded_many,
    retract_lambda_one_general,
    retract_lambda_one_general_many,
    set_from_obj,
    set_to_obj,
    shrink_set,
    trace_to_csv,
    truncated_set,
    violation,
    violation_many,
)
from hyperlip.instances import (
    box_instance,
    diagonal_halfspace_instance,
    empty_drift_instance,
    half_rate_instance,
    halfspace_instance,
    origin_cycle_instance,
    random_mcshane_instance,
    sample_members,
    vee_notch_instance,
)
from hyperlip.lipfun import Const, DistCone, Infinite, _compile, _compile_grid, eval_grid
from hyperlip.metric import sup_dist


def _all_rows_sweeps(Q, X, threshold, max_sweeps, record):
    """Reference batch engine: every row goes through every sweep, each bound
    is evaluated by ``eval_grid`` on hat points cut out with ``np.delete``."""
    X = np.array(X, dtype=float)
    disp = [] if record else None
    for _ in range(max_sweeps):
        worst = 0.0
        for i in range(Q.n):
            H = np.delete(X, i, axis=1)
            lo = None if isinstance(Q.lower[i], Infinite) else eval_grid(Q.lower[i], H)
            up = None if isinstance(Q.upper[i], Infinite) else eval_grid(Q.upper[i], H)
            if lo is not None and up is not None:
                crossed = lo > up
                if crossed.any():
                    j = int(np.argmax(crossed))
                    raise InconsistentBoundsError(
                        f"bounds cross on axis {i} at {tuple(X[j].tolist())}: "
                        f"lower={float(lo[j])!r} > upper={float(up[j])!r}")
            # a coordinate moves only when strictly outside, onto bound + 0.0
            new = X[:, i]
            if lo is not None:
                new = np.where(new < lo, lo + 0.0, new)
            if up is not None:
                new = np.where(new > up, up + 0.0, new)
            d = new - X[:, i]
            X[:, i] = new
            if record:
                disp.append(d)
            m = float(np.abs(d).max()) if len(d) else 0.0
            if m > worst:
                worst = m
        if worst <= threshold:
            return X, disp
    raise MaxSweepsExceededError(f"no convergence within {max_sweeps} sweeps")


def _assert_engine_matches_reference(Q, X, tol, monkeypatch):
    """``cyclic_retract_many`` gives the same points and displacements with
    the shipped engine as with the reference engine."""
    with monkeypatch.context() as m:
        m.setattr(boxset, "_batch_sweeps", _all_rows_sweeps)
        want, want_traces = cyclic_retract_many(Q, X, tol, record=True)
    got, traces = cyclic_retract_many(Q, X, tol, record=True)
    assert np.array_equal(got, want)
    D = np.array([t.displacements for t in traces])
    assert np.array_equal(D, np.array([t.displacements for t in want_traces]))
    # the comparison covers frozen rows: some row sits still for a whole
    # sweep before the last one
    sweeps = D.reshape(len(X), -1, Q.n)
    assert (sweeps[:, :-1] == 0.0).all(axis=2).any()
    return got


class TestConstruction:
    def test_lip_bound_is_the_worst_bound(self):
        Q = vee_notch_instance()
        assert Q.lip_bound == 1.0
        assert half_rate_instance().lip_bound == 0.5
        assert box_instance([(0.0, 1.0), (0.0, 1.0)]).lip_bound == 0.0

    def test_wrong_infinity_sign_rejected(self):
        with pytest.raises(ValueError):
            BoxLipschitzSet([Infinite(1)], [Infinite(1)])
        with pytest.raises(ValueError):
            BoxLipschitzSet([Infinite(-1)], [Infinite(-1)])

    def test_dimension_mismatch_rejected(self):
        # a bound on a 2-dimensional hat space inside a 2-dimensional set
        bad = DistCone((0.0, 0.0), 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            BoxLipschitzSet([bad, Const(0.0)], [Const(1.0), Const(1.0)])

    def test_all_finite(self):
        assert vee_notch_instance().all_finite
        assert not halfspace_instance().all_finite


class TestViolation:
    def test_members_have_zero_violation(self):
        Q = box_instance([(0.0, 1.0), (0.0, 1.0)])
        assert violation(Q, (0.5, 0.5)) == 0.0
        assert violation(Q, (0.0, 1.0)) == 0.0

    def test_outside_point_measures_the_deficit(self):
        Q = box_instance([(0.0, 1.0), (0.0, 1.0)])
        assert violation(Q, (2.0, 0.5)) == 1.0
        assert violation(Q, (-0.25, 3.0)) == 2.0

    def test_crossing_bounds_raise(self):
        Q = BoxLipschitzSet([Const(1.0)], [Const(0.0)])
        with pytest.raises(InconsistentBoundsError):
            violation(Q, (0.5,))

    def test_crossing_message_is_the_same_on_both_paths(self):
        Q = BoxLipschitzSet([Const(1.0), Const(0.0)], [Const(0.0), Const(1.0)])
        with pytest.raises(InconsistentBoundsError) as one:
            violation(Q, (0.5, 0.5))
        with pytest.raises(InconsistentBoundsError) as many:
            violation_many(Q, [[0.5, 0.5]])
        assert str(one.value) == str(many.value) == \
            "bounds cross on axis 0 at (0.5, 0.5): lower=1.0 > upper=0.0"

    def test_batch_matches_scalar(self, rng):
        Q = random_mcshane_instance(3, 0.5, rng)
        X = rng.uniform(-3, 3, (40, 3))
        batch = violation_many(Q, X)
        for row, v in zip(X, batch):
            assert violation(Q, tuple(row)) == v

    def test_dimension_checked(self):
        Q = box_instance([(0.0, 1.0)])
        with pytest.raises(ValueError):
            violation(Q, (0.0, 0.0))


class TestPairedEvaluators:
    """A set's per-axis evaluators give each bound's own bits: the scalar
    pairs against ``_compile`` and the batch pairs against ``_compile_grid``
    of each side, as ``float.hex`` and ``tobytes`` so that signed zeros
    count, the batch pairs also cut into several blocks."""

    @staticmethod
    def _sets(n):
        rng = np.random.default_rng(40 + n)
        Q = random_mcshane_instance(n, 1.0, rng, samples=6)
        l, u = enclosure_bounds(Q, [(-3.0, 3.0)] * n)
        w = sample_members(random_mcshane_instance(n, 0.5, rng), [(0.0,) * n])[0]
        return {"envelopes": Q,                                  # shared centres
                "shrunk": shrink_set(Q, 7, l, u),                # shared under blends
                "truncated": truncated_set(Q, w, 2.0)}           # nodes: apart

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pairs_give_each_bounds_bits(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        X = rng.uniform(-3.0, 3.0, (40, n))
        X[:5] = np.where(rng.uniform(size=(5, n)) < 0.5, 0.0, -0.0)
        hexes = lambda values: [float(v).hex() for v in values]
        for Q in self._sets(n).values():
            assert Q._pairs is Q._pairs                          # built once
            XT = np.ascontiguousarray(X.T)
            # the default, and blocks of 7 of the 40 columns
            for block_bytes in (lipfun._GRID_BLOCK_BYTES, 8 * (n - 1) * 6 * 7):
                monkeypatch.setattr(lipfun, "_GRID_BLOCK_BYTES", block_bytes)
                for i, grid in enumerate(boxset._grid_pairs(Q)):
                    H = np.delete(XT, i, axis=0)
                    for got, bound in zip(grid(H), (Q.lower[i], Q.upper[i])):
                        assert got.tobytes() == _compile_grid(bound)(H).tobytes()
            for i, pair in enumerate(Q._pairs):
                lower, upper = _compile(Q.lower[i]), _compile(Q.upper[i])
                for x in X:
                    y = tuple(np.delete(x, i).tolist())
                    assert hexes(pair(y)) == hexes((lower(y), upper(y)))

    def test_shared_centres_are_found_where_expected(self, monkeypatch):
        """Each axis of the envelope and shrunk sets builds one scalar kernel
        over both families; the truncated sets build none."""
        kernel = lipfun._cones_closure
        built = []
        monkeypatch.setattr(lipfun, "_cones_closure",
                            lambda families: built.append(len(families)) or kernel(families))
        for name, Q in self._sets(3).items():
            built.clear()
            Q._pairs
            assert built == ([2] * 3 if name != "truncated" else [1] * 6), name


class TestCoordRetract:
    """Single-axis projection steps, run through :func:`cyclic_iterate`."""

    def test_projects_one_coordinate_only(self):
        Q = vee_notch_instance()
        # x2 must be at least |x1|: step 0 leaves (2, 0) alone, step 1 lifts x2
        trace = cyclic_iterate(Q, (2.0, 0.0), 2)
        assert trace.displacements == (0.0, 2.0)
        assert trace.final == (2.0, 2.0)
        # x1 must lie in [-3, 3]; the step on axis 0 leaves x2 below its bound
        assert cyclic_iterate(Q, (5.0, 0.0), 1).final == (3.0, 0.0)

    def test_member_is_fixed_exactly(self):
        Q = vee_notch_instance()
        trace = cyclic_iterate(Q, (1.0, 2.0), 2)
        assert trace.displacements == (0.0, 0.0)
        assert trace.final == (1.0, 2.0)


class TestExactDynamics:
    """The two closed-form level-1 instances drive the iteration by hand."""

    def test_drift_instance_never_settles(self):
        Q = empty_drift_instance()
        trace = cyclic_iterate(Q, (0.0, 0.0), 12)
        assert trace.displacements[0] == 0.0
        assert all(d == 1.0 for d in trace.displacements[1:])
        # the iterate escapes to infinity at unit speed per two steps
        final = trace.points()[-1]
        assert max(abs(c) for c in final) >= 12 / 4

    def test_cycle_instance_is_a_four_cycle(self):
        Q = origin_cycle_instance()
        trace = cyclic_iterate(Q, (0.0, 1.0), 9)
        pts = trace.points()
        assert pts[1] == (1.0, 1.0)
        assert pts[2] == (1.0, -1.0)
        assert pts[3] == (-1.0, -1.0)
        assert pts[4] == (-1.0, 1.0)
        assert pts[5] == (1.0, 1.0)
        assert pts[1:5] == pts[5:9]

    def test_both_stall(self):
        for Q, start in ((empty_drift_instance(), (0.0, 0.0)),
                         (origin_cycle_instance(), (0.0, 1.0))):
            trace = cyclic_iterate(Q, start, 16)
            assert detect_noncontraction(trace) == "stalled"

    def test_reached_fixed_point_is_decaying(self):
        # the first sweep lands in the set; every later move is exactly 0
        for Q, start in ((vee_notch_instance(), (0.0, -3.0)),
                         (box_instance([(0, 1), (0, 1)]), (5.0, 5.0))):
            trace = cyclic_iterate(Q, start, 80)
            assert any(trace.displacements[:2])
            assert not any(trace.displacements[2:])
            assert detect_noncontraction(trace) == "decaying"


class TestCyclicRetract:
    def test_stops_within_tolerance(self, rng):
        Q = half_rate_instance()
        for _ in range(5):
            start = tuple(rng.uniform(-6, 6, 2))
            point, trace = cyclic_retract(Q, start, 1e-8)
            lam = Q.lip_bound
            assert violation(Q, point) <= lam * (1 - lam) * 1e-8
            # the returned point is within tol of the true limit, so two
            # different tolerances land within their sum of each other
            fine, _ = cyclic_retract(Q, start, 1e-12)
            assert sup_dist(point, fine) <= 1e-8 + 1e-12

    def test_members_are_fixed_exactly(self, rng):
        Q = random_mcshane_instance(2, 0.5, rng)
        members = sample_members(Q, [tuple(rng.uniform(-2, 2, 2)) for _ in range(3)])
        for m in members:
            point, trace = cyclic_retract(Q, m, 1e-6)
            assert point == m
            assert all(d == 0.0 for d in trace.displacements)

    def test_level_one_is_refused(self):
        with pytest.raises(UnsupportedSetError):
            cyclic_retract(vee_notch_instance(), (0.0, 0.0))

    def test_nan_tolerance_is_refused(self):
        Q = half_rate_instance()
        with pytest.raises(ValueError, match="tol"):
            cyclic_retract(Q, (3.0, -2.0), math.nan)
        with pytest.raises(ValueError, match="tol"):
            cyclic_retract_many(Q, np.array([[3.0, -2.0]]), math.nan)

    def test_non_finite_rows_are_refused(self):
        # a NaN row would make every sweep maximum NaN and stop the batch
        # after one sweep with the other rows far outside the set
        with pytest.raises(ValueError, match="finite"):
            cyclic_retract_many(half_rate_instance(), [[math.nan, 0.0], [100.0, -100.0]], 1e-6)

    def test_budget_exhaustion_raises(self):
        Q = half_rate_instance()
        with pytest.raises(MaxSweepsExceededError):
            cyclic_retract(Q, (100.0, -100.0), 1e-12, max_sweeps=1)

    def test_one_dimensional_set(self):
        Q = box_instance([(-1.0, 2.5)])
        point, trace = cyclic_retract(Q, (7.0,), 1e-9)
        assert point == (2.5,)
        assert check_decay_certificate(trace, Q.lip_bound) == []

    def test_certificate_holds_on_random_instances(self, rng):
        for n, lam in ((2, 0.3), (3, 0.9), (4, 0.5)):
            Q = random_mcshane_instance(n, lam, rng)
            start = tuple(rng.uniform(-4, 4, n))
            _, trace = cyclic_retract(Q, start, 1e-9)
            assert check_decay_certificate(trace, lam) == []

    def test_certificate_flags_a_doctored_trace(self):
        Q = half_rate_instance()
        _, trace = cyclic_retract(Q, (5.0, -3.0), 1e-9)
        if len(trace.displacements) <= Q.n:
            pytest.skip("trace settled within one sweep")
        doctored = list(trace.displacements)
        doctored[-1] = 10.0
        fake = IterationTrace(trace.dim, trace.start, tuple(doctored), trace.final)
        bad = check_decay_certificate(fake, Q.lip_bound)
        assert bad == [len(doctored) - 1]


class TestBatchEngine:
    def test_single_row_batch_matches_scalar_exactly(self, rng):
        """Same bits on both engines, signed zeros included: starts with -0.0
        coordinates on sets whose bounds evaluate to +0.0 and -0.0."""
        cases = [(random_mcshane_instance(3, 0.9, rng), tuple(rng.uniform(-3, 3, 3)))]
        for bounds in ([(0.0, 1.0), (-1.0, 1.0)], [(-0.0, 1.0), (-1.0, -0.0)]):
            for start in ((-0.0, 0.5), (0.0, -0.0), (-0.0, -0.0), (-1.0, 2.0)):
                cases.append((box_instance(bounds), start))
        hexes = lambda values: [float(v).hex() for v in values]
        for Q, start in cases:
            point, trace = cyclic_retract(Q, start, 1e-7)
            batch, traces = cyclic_retract_many(Q, np.array([start]), 1e-7, record=True)
            assert hexes(batch[0]) == hexes(point)
            assert hexes(traces[0].displacements) == hexes(trace.displacements)

    def test_shared_schedule_is_one_lipschitz(self, rng):
        Q = random_mcshane_instance(2, 0.9, rng)
        X = rng.uniform(-3, 3, (30, 2))
        out, _ = cyclic_retract_many(Q, X, 1e-8)
        for _ in range(200):
            i, j = rng.integers(0, 30, 2)
            din = sup_dist(tuple(X[i]), tuple(X[j]))
            dout = sup_dist(tuple(out[i]), tuple(out[j]))
            assert dout <= din + 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("lam", [0.3, 0.9])
    def test_engine_matches_the_all_rows_loop(self, n, lam, monkeypatch):
        rng = np.random.default_rng(100 * n + int(10 * lam))
        Q = random_mcshane_instance(n, lam, rng, samples=8)
        members = sample_members(Q, rng.uniform(-0.5, 0.5, (3, n)))
        X = np.vstack([members, rng.uniform(-3, 3, (40, n))])
        # a tolerance this fine drives rows through sweeps with moves of a
        # few ulps, which must not freeze them
        out = _assert_engine_matches_reference(Q, X, 1e-12, monkeypatch)
        assert np.array_equal(out[:3], np.array(members))

    def test_engine_matches_on_a_truncated_set(self, monkeypatch):
        rng = np.random.default_rng(7)
        Q = random_mcshane_instance(3, 0.9, rng)
        w = sample_members(Q, [(0.0, 0.0, 0.0)])[0]
        Qt = truncated_set(Q, w, 2.0)
        X = np.vstack([np.zeros(3), rng.uniform(-3, 3, (30, 3))])
        out = _assert_engine_matches_reference(Qt, X, 1e-6, monkeypatch)
        assert np.array_equal(out[0], np.zeros(3))

    def test_engine_matches_on_a_shrunk_set(self, monkeypatch):
        rng = np.random.default_rng(8)
        Q = random_mcshane_instance(3, 1.0, rng)
        l, u = enclosure_bounds(Q, [(-4.0, 4.0)] * 3)
        Qk = shrink_set(Q, relaxation_order(u - l, 0.5), l, u)
        members = sample_members(Qk, rng.uniform(-0.5, 0.5, (2, 3)))
        X = np.vstack([members, rng.uniform(-3, 3, (30, 3))])
        out = _assert_engine_matches_reference(Qk, X, 0.1, monkeypatch)
        assert np.array_equal(out[:2], np.array(members))

    def test_crossing_bounds_raise_after_rows_froze(self, monkeypatch):
        # upper_0 dips below lower_0 where |x_1| > 4; lower_1 pushes the
        # second row there in its first sweep, while the first row, a member,
        # is frozen after that sweep
        Q = BoxLipschitzSet([Const(0.0), DistCone((0.0,), 3.0, 0.9, 1)],
                            [DistCone((0.0,), 2.0, 0.5, -1), Const(10.0)])
        X = np.array([[0.1, 3.2], [10.0, 0.0]])
        with monkeypatch.context() as m:
            m.setattr(boxset, "_batch_sweeps", _all_rows_sweeps)
            with pytest.raises(InconsistentBoundsError) as want:
                cyclic_retract_many(Q, X, 1e-6)
        with pytest.raises(InconsistentBoundsError) as got:
            cyclic_retract_many(Q, X, 1e-6)
        assert str(got.value) == str(want.value)

    def test_every_row_meets_the_tolerance(self, rng):
        Q = random_mcshane_instance(3, 0.5, rng)
        X = rng.uniform(-3, 3, (25, 3))
        out, _ = cyclic_retract_many(Q, X, 1e-8)
        lam = Q.lip_bound
        assert (violation_many(Q, out) <= lam * (1 - lam) * 1e-8).all()


class TestEnclosure:
    def test_plain_box(self):
        Q = box_instance([(0.0, 1.0), (0.25, 0.75)])
        l, u = enclosure_bounds(Q, [(-5.0, 5.0), (-5.0, 5.0)])
        assert l == pytest.approx(0.0, abs=1e-9)
        assert u == pytest.approx(1.0, abs=1e-9)

    def test_covers_both_sides_of_every_bound(self):
        # an upper bound whose values dip below every lower bound's minimum
        # must still be inside [l, u]
        Q = BoxLipschitzSet(
            [Const(0.0), Const(-4.0)],
            [Const(5.0), DistCone((0.0,), -6.0, 1.0, 1)])
        l, u = enclosure_bounds(Q, [(-1.0, 1.0), (-1.0, 1.0)])
        assert l <= -6.0
        assert u >= 5.0

    def test_missing_bounds_are_refused(self):
        with pytest.raises(UnsupportedSetError):
            enclosure_bounds(halfspace_instance(), [(-1.0, 1.0), (-1.0, 1.0)])

    def test_relaxation_order_known_values(self):
        assert relaxation_order(1.0, 0.25) == 5
        assert relaxation_order(0.0, 0.5) == 1
        for tol in (0.0, math.nan):
            with pytest.raises(ValueError):
                relaxation_order(1.0, tol)

    def test_relaxation_order_refuses_a_factor_that_rounds_to_one(self):
        # k = 2**53 + 1 still shrinks; from k = 2**54 on, 1 - 1/k == 1.0
        assert relaxation_order(1.0, 2.0 ** -53) == 2 ** 53 + 1
        for tol in (2.0 ** -54, 1e-17):
            with pytest.raises(ValueError, match=f"tol={tol!r}"):
                relaxation_order(1.0, tol)

    def test_relaxation_order_refuses_overflow(self):
        for span, tol in ((6.0, 1e-320), (math.inf, 1.0)):
            with pytest.raises(ValueError, match="overflows"):
                relaxation_order(span, tol)


class TestShrinkFamily:
    def test_family_is_nested_and_contains_the_set(self, rng):
        Q = vee_notch_instance()
        box = [(-4.0, 4.0), (-4.0, 4.0)]
        l, u = enclosure_bounds(Q, box)
        grid = [tuple(v) for v in rng.uniform(-4, 4, (60, 2))]
        prev = None
        for k in (2, 4, 8, 16):
            Qk = shrink_set(Q, k, l, u)
            assert Qk.lip_bound == pytest.approx(1.0 - 1.0 / k)
            deficits = [violation(Qk, g) for g in grid]
            if prev is not None:
                # larger k means a smaller set, so deficits only grow
                assert all(a <= b + 1e-12 for a, b in zip(prev, deficits))
            prev = deficits
        for g in grid:
            if violation(Q, g) == 0.0:
                assert violation(shrink_set(Q, 16, l, u), g) == 0.0

    def test_members_of_the_relaxed_set_almost_satisfy_the_original(self, rng):
        Q = vee_notch_instance()
        box = [(-4.0, 4.0), (-4.0, 4.0)]
        l, u = enclosure_bounds(Q, box)
        k = relaxation_order(u - l, 1e-2)
        Qk = shrink_set(Q, k, l, u)
        for _ in range(10):
            point, _ = cyclic_retract(Qk, tuple(rng.uniform(-4, 4, 2)), 1e-4)
            assert violation(Q, point) <= 1e-2


class TestLevelOneBounded:
    def test_vee_notch_tip(self):
        Q = vee_notch_instance()
        box = [(-4.0, 4.0), (-4.0, 4.0)]
        point = retract_lambda_one_bounded(Q, (0.0, -3.0), 1e-6, box)
        assert violation(Q, point) <= 1e-6
        assert sup_dist(point, (0.0, 0.0)) <= 0.01

    def test_members_inside_the_box_are_fixed_exactly(self):
        Q = vee_notch_instance()
        box = [(-4.0, 4.0), (-4.0, 4.0)]
        for m in ((0.0, 0.0), (1.0, 2.0), (-2.0, 3.0)):
            assert violation(Q, m) == 0.0
            assert retract_lambda_one_bounded(Q, m, 1e-6, box) == m

    def test_batch_refuses_non_finite_rows(self):
        Q = vee_notch_instance()
        box = [(-4.0, 4.0), (-4.0, 4.0)]
        with pytest.raises(ValueError, match="finite"):
            retract_lambda_one_bounded_many(Q, [[0.0, -3.0], [math.nan, 0.0]], 1e-3, box)

    def test_cycle_instance_lands_near_the_origin(self):
        Q = origin_cycle_instance()
        box = [(-2.0, 2.0), (-2.0, 2.0)]
        point = retract_lambda_one_bounded(Q, (0.0, 1.0), 1e-3, box)
        assert violation(Q, point) <= 1e-3
        assert sup_dist(point, (0.0, 0.0)) <= 2e-3 + 1e-9


class TestTruncation:
    def test_bounds_become_finite_and_member_stays(self):
        Q = diagonal_halfspace_instance()
        w = (1.0, 1.0)
        assert violation(Q, w) == 0.0
        Qt = truncated_set(Q, w, 3.0)
        assert Qt.all_finite
        assert Qt.lip_bound <= 1.0
        # the truncation keeps the set's coordinates: missing bounds become
        # the ends of [w_i - r, w_i + r], and members inside the ball stay
        # members as they are
        assert Qt.lower == (Const(-2.0), Const(-2.0))
        assert Qt.upper[0] == Const(4.0)
        for m in ((2.0, 1.0), (0.0, -1.0), (1.0, 1.0), (3.9, 0.1)):
            assert violation(Q, m) == 0.0
            assert violation(Qt, m) == 0.0
        assert violation(Qt, (4.5, 0.0)) == pytest.approx(0.5)

    def test_general_retraction_meets_tolerance(self):
        Q = diagonal_halfspace_instance()
        point = retract_lambda_one_general(Q, (1.0, 1.0), (0.0, 4.0), 1e-4)
        assert violation(Q, point) <= 1e-4

    def test_general_retraction_fixes_members_exactly(self):
        Q = diagonal_halfspace_instance()
        for m in ((2.1, 1.3), (0.7, 0.7), (-1.0 / 3.0, -2.9)):
            point = retract_lambda_one_general(Q, (1.1, 0.3), m, 1e-4)
            assert point == m

    def test_batch_variant_agrees_with_tolerance(self, rng):
        Q = diagonal_halfspace_instance()
        X = rng.uniform(-3, 3, (12, 2))
        out = retract_lambda_one_general_many(Q, (0.0, 0.0), X, 1e-4)
        assert (violation_many(Q, out) <= 1e-4).all()

    def test_non_member_witness_rejected(self):
        Q = diagonal_halfspace_instance()
        with pytest.raises(ValueError):
            retract_lambda_one_general(Q, (0.0, 1.0), (4.0, 4.0), 1e-4)


class TestLevelOneRule:
    """``boxset._level_one``, the one relaxation rule of every level-1 path."""

    def test_shrink_over_a_given_box(self):
        Q = vee_notch_instance()
        box = [(-4.0, 4.0), (-4.0, 4.0)]
        target, engine_tol, budget, report = boxset._level_one(Q, [(0.0, -3.0)], 1e-2, box)
        l, u = enclosure_bounds(Q, box)
        k = relaxation_order(u - l, 1e-2)
        assert report == {"strategy": "shrink", "enclosure": [l, u], "k": k}
        assert (engine_tol, budget) == (1e-2 / 4, 50 * k + 1000)
        assert target == shrink_set(Q, k, l, u) == shrink_set(Q, k, [l, l], [u, u])

    def test_default_box_covers_every_row(self):
        Q = vee_notch_instance()
        X = [(0.0, 1.0), (-6.0, 2.0), (1.0, 3.0)]
        box = boxset._auto_box(Q, X)
        assert box == boxset._auto_box(Q, X[1])
        *_, report = boxset._level_one(Q, X, 1e-2)
        assert report["enclosure"] == list(enclosure_bounds(Q, box))

    def test_truncate_around_the_witness(self):
        Q = diagonal_halfspace_instance()
        X = [(0.0, 4.0), (3.0, -2.0)]
        w = (2.0, 0.5)
        target, engine_tol, budget, report = boxset._level_one(Q, X, 1e-2, witness=w)
        # r = 2 * 3.5 + 1; each axis is anchored at w_i -/+ r
        k = relaxation_order(16.0, 1e-2)
        assert report == {"strategy": "truncate", "radius": 8.0, "k": k}
        assert (engine_tol, budget) == (1e-2 / 4, 50 * k + 1000)
        assert target == shrink_set(truncated_set(Q, w, 8.0), k, [-6.0, -7.5], [10.0, 8.5])

    def test_one_missing_witness_error(self):
        Q = diagonal_halfspace_instance()
        box = [(-4.0, 4.0), (-4.0, 4.0)]
        calls = [lambda: find_point(Q),
                 lambda: retract_lambda_one_bounded(Q, (0.0, 4.0), 1e-3, box),
                 lambda: retract_lambda_one_general_many(Q, None, [(0.0, 4.0)], 1e-3)]
        messages = set()
        for call in calls:
            with pytest.raises(UnsupportedSetError) as err:
                call()
            messages.add(str(err.value))
        assert messages == {"a level-1 set with missing bounds needs a witness member"}


class TestFindPoint:
    def test_contractive_set(self, rng):
        Q = random_mcshane_instance(3, 0.5, rng)
        point = find_point(Q)
        assert violation(Q, point) <= 1e-9

    def test_level_one_nonempty(self):
        point = find_point(vee_notch_instance(), tol=1e-6)
        assert violation(vee_notch_instance(), point) <= 1e-6

    def test_empty_set_diverges_with_verdict(self):
        with pytest.raises(DivergenceDetectedError) as err:
            find_point(empty_drift_instance(), tol=1e-3)
        assert err.value.verdict == "stalled"
        assert err.value.trace.steps > 0

    def test_working_box(self):
        # bound magnitudes at the hat origin: 3 (both x1 bounds, x2's cap)
        Q = vee_notch_instance()
        assert boxset._auto_box(Q, (0.0, 0.0)) == [(-8.0, 8.0)] * 2
        assert boxset._auto_box(Q, (1.0, -5.0)) == [(-18.0, 18.0)] * 2

    def test_unbounded_level_one_is_unsupported(self):
        with pytest.raises(UnsupportedSetError):
            find_point(diagonal_halfspace_instance())


class TestTraceOutput:
    def test_csv_shape_and_round_trip(self):
        Q = half_rate_instance()
        _, trace = cyclic_retract(Q, (3.0, -2.0), 1e-6)
        text = trace_to_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "step,axis,displacement"
        assert len(lines) == trace.steps + 1
        for k, line in enumerate(lines[1:]):
            step, axis, disp = line.split(",")
            assert int(step) == k
            assert int(axis) == k % Q.n
            assert float(disp) == trace.displacements[k]

    def test_points_replay_the_displacements(self):
        Q = origin_cycle_instance()
        trace = cyclic_iterate(Q, (0.0, 1.0), 6)
        pts = trace.points()
        assert pts[0] == (0.0, 1.0)
        assert pts[-1] == trace.final
        assert len(pts) == trace.steps + 1


class TestSetJSON:
    def test_round_trip(self, rng):
        for Q in (vee_notch_instance(), halfspace_instance(),
                  random_mcshane_instance(3, 0.9, rng)):
            obj = set_to_obj(Q)
            again = set_from_obj(obj)
            assert again == Q
            assert json.dumps(set_to_obj(again), sort_keys=True) == \
                json.dumps(obj, sort_keys=True)

    def test_infinite_bounds_encode_as_strings(self):
        obj = set_to_obj(halfspace_instance())
        assert obj["upper"][0] == "+inf"
        assert obj["lower"][1] == "-inf"

    def test_malformed_objects_rejected(self):
        with pytest.raises(ValueError):
            set_from_obj({"n": 2, "lower": ["-inf"], "upper": ["+inf", "+inf"]})
        with pytest.raises(ValueError):
            set_from_obj([1, 2, 3])
