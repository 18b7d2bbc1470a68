"""Tests for bounded-by-Lipschitz-functions sets and their retractions."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    _mcshane_repair,
    box_instance,
    diagonal_halfspace_instance,
    empty_drift_instance,
    half_rate_instance,
    origin_cycle_instance,
    random_mcshane_instance,
    sample_members,
    vee_notch_instance,
)
from hyperlip.lipfun import (
    Blend,
    Const,
    DistCone,
    Infinite,
    Max,
    McShane,
    Min,
    _compile,
    _compile_grid,
    eval_grid,
)
from hyperlip.metric import sup_dist, sup_dists
from hyperlip.reconstruct import ReconstructionConfig, synthesize_bounds


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


def _assert_engine_matches_reference(Q, X, tol, monkeypatch, block_bytes=None):
    """``cyclic_retract_many`` gives the same points and displacements, bit
    for bit, with the shipped engine as with the reference engine; with
    ``block_bytes``, the shipped engine's kernels run in blocks that small."""
    with monkeypatch.context() as m:
        m.setattr(boxset, "_batch_sweeps", _all_rows_sweeps)
        want, want_traces = cyclic_retract_many(Q, X, tol, record=True)
    with monkeypatch.context() as m:
        if block_bytes is not None:
            m.setattr(lipfun, "_GRID_BLOCK_BYTES", block_bytes)
        got, traces = cyclic_retract_many(Q, X, tol, record=True)
    assert got.tobytes() == want.tobytes()
    D = np.array([t.displacements for t in traces])
    assert D.tobytes() == np.array([t.displacements for t in want_traces]).tobytes()
    # the comparison covers frozen rows: some row sits still for a whole
    # sweep before the last one
    sweeps = D.reshape(len(X), -1, Q.n)
    assert (sweeps[:, :-1] == 0.0).all(axis=2).any()
    return got, sweeps


def _engine_digest(case):
    """sha256 of the points and the recorded displacements of a seeded batch
    shaped like one of the benchmark's: a level-0.9 set in dimension 8, or
    the shrink of the level-1 origin cycle, whose traces are those of all
    its stages."""
    rng = np.random.default_rng(1515)
    if case == "n=8 lam=0.9":
        Q = random_mcshane_instance(8, 0.9, rng, samples=16)
        members = sample_members(Q, rng.uniform(-0.5, 0.5, (4, 8)))
        X = np.vstack([members, rng.uniform(-3.0, 3.0, (36, 8))])
        out, traces = cyclic_retract_many(Q, X, 1e-6, record=True)
    else:
        Q, box = origin_cycle_instance(), [(-2.0, 2.0)] * 2
        X = np.vstack([np.zeros((1, 2)), rng.uniform(-2.0, 2.0, (49, 2))])
        out = retract_lambda_one_bounded_many(Q, X, 1e-3, box)
        again, traces, _ = boxset.retract(Q, X, 1e-3, box, many=True, record=True)
        assert again.tobytes() == out.tobytes()
    digest = hashlib.sha256(out.tobytes())
    digest.update(np.array([t.displacements for t in traces]).tobytes())
    return digest.hexdigest()


class TestConstruction:
    def test_lip_bound_is_the_worst_bound(self):
        Q = vee_notch_instance()
        assert Q.lip_bound == 1.0
        assert half_rate_instance().lip_bound == 0.5
        assert box_instance([(0.0, 1.0), (0.0, 1.0)]).lip_bound == 0.0

    @pytest.mark.parametrize("intervals, message", [
        ([("0", "1")], "a box must hold numbers, got '0'"),
        ([(0.0, 1.0), (0.0, "1")], "a box must hold numbers, got '1'"),
        ([(1.0, 0.0)], "empty box side (1.0, 0.0)"),
        ([(0.0, math.inf)], "box limits must be finite"),
        ([(0.0, 1.0, 2.0)], "box side 0 must be a [lo, hi] pair, got [0.0, 1.0, 2.0]"),
    ])
    def test_box_instance_reads_its_intervals_as_a_box(self, intervals, message):
        with pytest.raises(ValueError) as err:
            box_instance(intervals)
        assert str(err.value) == message

    def test_box_instance_keeps_its_bounds(self):
        Q = box_instance(np.array([[-1, 2], [0.5, 0.5]]))
        assert Q.lower == (Const(-1.0), Const(0.5)) and Q.upper == (Const(2.0), Const(0.5))

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
        assert not diagonal_halfspace_instance().all_finite


def _planar_sets():
    """Planar sets of every kind of bound: McShane envelopes, a vee under a
    cap, a half-space with infinite bounds, and a synthesized set."""
    side = [i / 4 for i in range(-4, 13)]
    grid = [(x, y) for x in side for y in side]
    inside = [p for p in grid if 0.0 <= p[0] <= 2.0 and 0.0 <= p[1] <= 2.0]
    outside = [p for p in grid if p not in inside]
    return (random_mcshane_instance(2, 0.5, np.random.default_rng(3)),
            random_mcshane_instance(2, 1.0, np.random.default_rng(4), samples=16),
            vee_notch_instance(), diagonal_halfspace_instance(),
            synthesize_bounds(ReconstructionConfig(inside, outside, a=0.1)))


_PLANAR_SETS = _planar_sets()


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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_planar_batch_has_the_scalar_bytes(self, data):
        """A planar set reads each distinct hat value once: rows drawn from a
        few values, so that hat values and whole rows repeat, with ``0.0``
        and ``-0.0`` in one column and coordinates of ±1e300.  A member reads
        ``+0.0`` on both paths, also where a deficit is ``-0.0`` (the
        half-space at ``(0.0, -0.0)``), which ``np.maximum`` would keep."""
        Q = data.draw(st.sampled_from(_PLANAR_SETS))
        value = st.sampled_from((0.0, -0.0, 0.5, -1.25, 2.0, 3.5, 1e300, -1e300))
        X = data.draw(st.lists(st.tuples(value, value), max_size=30))
        X += data.draw(st.lists(st.sampled_from(X), max_size=5)) if X else []
        batch = violation_many(Q, np.array(X).reshape(len(X), 2))
        assert batch.tobytes() == np.array([violation(Q, x) for x in X]).tobytes()

    def test_first_crossing_row_is_named_in_the_order_of_the_rows(self):
        """Axis 1's bounds cross only where ``|x0| < 0.5``; the crossing rows
        are not in sorted order of their hat values, and the error names the
        first of them in ``X``, with the message of the scalar check."""
        Q = BoxLipschitzSet([Const(-3.0), Const(0.0)],
                            [Const(3.0), DistCone((0.0,), -0.5, 1.0, 1)])
        X = [(2.0, 0.0), (0.25, 0.0), (-0.25, 1.0), (0.0, -1.0), (0.25, 0.0)]
        with pytest.raises(InconsistentBoundsError) as one:
            violation(Q, X[1])
        with pytest.raises(InconsistentBoundsError) as many:
            violation_many(Q, X)
        assert str(many.value) == str(one.value) == \
            "bounds cross on axis 1 at (0.25, 0.0): lower=0.0 > upper=-0.25"
        assert violation_many(Q, [X[0], (-0.5, 0.0)]).tolist() == [0.0, 0.0]

    def test_planar_grid_reads_each_bound_at_its_distinct_hat_values(self, rng, monkeypatch):
        """On a 65 x 65 grid each bound is passed 65 rows, not 4225."""
        Q = random_mcshane_instance(2, 0.5, rng)
        side = np.linspace(-1.0, 3.0, 65)
        G = np.array([(x, y) for x in side for y in side])
        rows = []
        grid = boxset.eval_grid

        def spy(f, H):
            rows.append(H.shape)
            return grid(f, H)

        monkeypatch.setattr(boxset, "eval_grid", spy)
        got = violation_many(Q, G)
        assert rows == [(65, 1)] * 4
        assert got.tobytes() == np.array([violation(Q, g) for g in G]).tobytes()


class TestPointSetIntake:
    """Every batch entry point reads its rows through ``as_points``, and
    adds only its own dimension check."""

    RUNS = {
        "violation_many": lambda X: violation_many(half_rate_instance(), X),
        "cyclic_retract_many": lambda X: cyclic_retract_many(half_rate_instance(), X),
        "retract many, shrink": lambda X: boxset.retract(vee_notch_instance(), X, 1e-3,
                                                         many=True),
        "retract many, truncate": lambda X: retract_lambda_one_general_many(
            diagonal_halfspace_instance(), (0.0, 0.0), X, 1e-3),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    @pytest.mark.parametrize("X, message", [
        ([["1", "2"]], "point coordinates must be numbers, got ('1', '2')"),
        ([[0.0, 1.0], [2.0]], "mixed point dimensions [1, 2]"),
        ([[0.0, 1.0], [math.inf, 2.0]], "point coordinates must be finite, got inf"),
        ([0.0, 1.0], "expected rows of points, got shape (2,)"),
        ([[0.0, 1.0, 2.0]], "points of dimension 3 in a set of dimension 2"),
    ])
    def test_bad_rows_get_the_point_set_messages(self, name, X, message):
        with pytest.raises(ValueError) as err:
            self.RUNS[name](X)
        assert str(err.value) == message

    @pytest.mark.parametrize("name", sorted(RUNS))
    @pytest.mark.parametrize("X", [[], (), np.empty((0, 3))])
    def test_no_points_are_a_batch_of_no_rows(self, name, X):
        out = self.RUNS[name](X)
        out = out if isinstance(out, np.ndarray) else out[0]
        assert out.shape == ((0,) if name == "violation_many" else (0, 2))

    def test_single_points_keep_their_messages(self):
        Q = half_rate_instance()
        for run in (lambda x: violation(Q, x), lambda x: cyclic_retract(Q, x),
                    lambda x: cyclic_iterate(Q, x, 1)):
            with pytest.raises(ValueError) as err:
                run((0.0, 1.0, 2.0))
            assert str(err.value) == "point of dimension 3 in a set of dimension 2"
        with pytest.raises(ValueError) as err:
            truncated_set(Q, (0.0,), 1.0)
        assert str(err.value) == "witness of dimension 1 for a set of dimension 2"


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
            # the default, and blocks of 7 of the 40 columns: two (6, 7) tables
            for block_bytes in (lipfun._GRID_BLOCK_BYTES, 2 * 8 * 6 * 7):
                monkeypatch.setattr(lipfun, "_GRID_BLOCK_BYTES", block_bytes)
                for i, grid in enumerate(boxset._grid_pairs(Q)):
                    H = np.delete(XT, i, axis=0)
                    for got, bound in zip(grid(XT), (Q.lower[i], Q.upper[i])):
                        assert got.tobytes() == _compile_grid(bound)(H).tobytes()
            for i, pair in enumerate(Q._pairs):
                lower, upper = _compile(Q.lower[i]), _compile(Q.upper[i])
                for x in X:
                    y = tuple(np.delete(x, i).tolist())
                    assert hexes(pair(y)) == hexes((lower(y), upper(y)))

    @pytest.mark.parametrize("columns, block_columns", [
        (1, None), (2, None), (lipfun._TAKE_COLUMNS, None), (lipfun._TAKE_COLUMNS + 1, None),
        # above one block: folded blocks and a last block of one column, and
        # folded blocks of seven columns
        (2 * lipfun._TAKE_COLUMNS + 3, lipfun._TAKE_COLUMNS + 1),
        (lipfun._TAKE_COLUMNS + 1, 7),
    ])
    def test_engine_evaluators_give_each_bounds_bits(self, columns, block_columns,
                                                     monkeypatch):
        """The evaluators the batch engine steps with read the hat points
        from whole points, at widths on both sides of the layout threshold,
        and give each bound's ``_compile_grid`` bits at those hat points."""
        n, R = 4, 6
        rng = np.random.default_rng(columns)
        X = rng.uniform(-3.0, 3.0, (columns, n))
        zeros = columns // 8                    # points of signed zeros
        X[:zeros] = np.where(rng.uniform(size=(zeros, n)) < 0.5, 0.0, -0.0)
        XT = np.ascontiguousarray(X.T)
        if block_columns is not None:
            monkeypatch.setattr(lipfun, "_GRID_BLOCK_BYTES", 2 * 8 * R * block_columns)
        for name, Q in self._sets(n).items():
            for i, grid in enumerate(boxset._grid_pairs(Q)):
                H = np.delete(XT, i, axis=0)
                for got, bound in zip(grid(XT), (Q.lower[i], Q.upper[i])):
                    assert got.tobytes() == _compile_grid(bound)(H).tobytes(), (name, i)

    def test_shared_centres_are_found_where_expected(self, monkeypatch):
        """Each axis of the envelope and shrunk sets builds one scalar kernel
        over both families; the truncated sets build none."""
        kernel = lipfun._cones_closure
        built = []
        monkeypatch.setattr(lipfun, "_cones_closure",
                            lambda heads, cols: built.append(len(heads)) or kernel(heads, cols))
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

    @pytest.mark.parametrize("budget", [0, -3])
    def test_sweep_budget_below_one_is_refused(self, budget):
        Q = half_rate_instance()
        with pytest.raises(ValueError, match="max_sweeps must be at least 1"):
            cyclic_retract(Q, (3.0, -2.0), 1e-6, budget)
        with pytest.raises(ValueError, match="max_sweeps must be at least 1"):
            cyclic_retract_many(Q, np.array([[3.0, -2.0]]), 1e-6, budget)

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

    def test_certificate_above_level_one_outlives_the_float_power(self):
        """At ``lam = 2`` the power ``lam ** (k // n)`` leaves the float range
        after step 2048 of a two-dimensional trace; it reads ``inf``, so the
        audit still returns the step the first bound flags."""
        disp = [1.0] * 3000
        disp[2500] = 3.0
        trace = IterationTrace(2, (0.0, 0.0), tuple(disp), (0.0, 0.0))
        assert check_decay_certificate(trace, 2.0) == [2500]

    def test_certificate_with_a_still_first_sweep(self):
        """``D = 0``: the second bound is 0 at every step, also where the
        power overflowed, so every later move is flagged."""
        trace = IterationTrace(2, (0.0, 0.0), (0.0, 0.0) + (1.0,) * 2998, (0.0, 0.0))
        assert check_decay_certificate(trace, 2.0) == list(range(2, 3000))


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
        out, _ = _assert_engine_matches_reference(Q, X, 1e-12, monkeypatch)
        assert np.array_equal(out[:3], np.array(members))

    def test_engine_matches_on_a_truncated_set(self, monkeypatch):
        rng = np.random.default_rng(7)
        Q = random_mcshane_instance(3, 0.9, rng)
        w = sample_members(Q, [(0.0, 0.0, 0.0)])[0]
        Qt = truncated_set(Q, w, 2.0)
        X = np.vstack([np.zeros(3), rng.uniform(-3, 3, (30, 3))])
        out, _ = _assert_engine_matches_reference(Qt, X, 1e-6, monkeypatch)
        assert np.array_equal(out[0], np.zeros(3))

    def test_engine_matches_on_a_shrunk_set(self, monkeypatch):
        rng = np.random.default_rng(8)
        Q = random_mcshane_instance(3, 1.0, rng)
        l, u = enclosure_bounds(Q, [(-4.0, 4.0)] * 3)
        Qk = shrink_set(Q, relaxation_order(u - l, 0.5), l, u)
        members = sample_members(Qk, rng.uniform(-0.5, 0.5, (2, 3)))
        X = np.vstack([members, rng.uniform(-3, 3, (30, 3))])
        out, _ = _assert_engine_matches_reference(Qk, X, 0.1, monkeypatch)
        assert np.array_equal(out[:2], np.array(members))

    @pytest.mark.parametrize("columns", [1, 3])
    def test_engine_matches_with_kernels_in_blocks(self, columns, monkeypatch):
        """Kernels cut into blocks of one and of three columns, 43 rows: the
        last block of every step that holds all rows is one column wide."""
        rng = np.random.default_rng(9)
        Q = random_mcshane_instance(4, 0.9, rng, samples=16)
        members = sample_members(Q, rng.uniform(-0.5, 0.5, (3, 4)))
        X = np.vstack([members, rng.uniform(-3, 3, (40, 4))])
        _assert_engine_matches_reference(Q, X, 1e-9, monkeypatch,
                                         block_bytes=2 * 8 * 16 * columns)

    def test_engine_matches_once_one_row_is_left(self, monkeypatch):
        """Members freeze after the first sweep; the one row left moves on
        alone for several sweeps."""
        rng = np.random.default_rng(10)
        Q = random_mcshane_instance(3, 0.9, rng, samples=12)
        members = sample_members(Q, rng.uniform(-0.5, 0.5, (5, 3)))
        X = np.vstack([members, [[3.0, -3.0, 3.0]]])
        out, sweeps = _assert_engine_matches_reference(Q, X, 1e-12, monkeypatch)
        assert np.array_equal(out[:5], np.array(members))
        moving = (sweeps != 0.0).any(axis=2).sum(axis=0)
        assert moving[0] == 1 and len(moving) > 3

    @pytest.mark.parametrize("name, digest", [
        ("n=8 lam=0.9", "8eab8e8a4ee30319955651341f86e1d2349c891af1f8e45d096e61811c032fc9"),
        ("origin-cycle shrink", "d847c8f5b73fe15a4ef69e28b412755789d751ff637dd4be94535ae2af69a236"),
    ])
    def test_output_bytes_are_pinned(self, name, digest):
        """A change that only restructures the engine or its kernels keeps
        these bytes; one that means to change them updates the digests."""
        assert _engine_digest(name) == digest

    def test_zero_row_batches(self):
        """Every batch entry point answers an empty batch with empty rows."""
        rng = np.random.default_rng(11)
        Q = random_mcshane_instance(3, 0.9, rng)
        out, traces = cyclic_retract_many(Q, np.zeros((0, 3)), 1e-6, record=True)
        assert out.shape == (0, 3) and traces == []
        assert cyclic_retract_many(Q, np.zeros((0, 3)), 1e-6)[0].shape == (0, 3)
        assert violation_many(Q, np.zeros((0, 3))).shape == (0,)
        V, H = vee_notch_instance(), diagonal_halfspace_instance()
        assert retract_lambda_one_bounded_many(V, np.zeros((0, 2)), 1e-3,
                                               [(-4.0, 4.0)] * 2).shape == (0, 2)
        assert retract_lambda_one_general_many(H, (0.0, 0.0), np.zeros((0, 2)),
                                               1e-3).shape == (0, 2)

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

    def test_crossing_bounds_mid_sweep_raise_after_rows_froze(self, monkeypatch):
        """Axis 1 of 3 crosses in the second sweep, where ``|x_2| > 4``, at
        the row that started at ``(-0.0, 10, 0)``; the two members froze
        after the first sweep."""
        Q = BoxLipschitzSet([Const(-10.0), Const(0.0), DistCone((0.0, 0.0), 3.0, 0.9, 1)],
                            [Const(10.0), DistCone((0.0, 0.0), 2.0, 0.5, -1), Const(10.0)])
        X = np.array([[0.0, 0.1, 3.2], [0.5, 0.2, 3.5], [-0.0, 10.0, 0.0], [0.25, 0.0, 3.0]])
        with monkeypatch.context() as m:
            m.setattr(boxset, "_batch_sweeps", _all_rows_sweeps)
            with pytest.raises(InconsistentBoundsError) as want:
                cyclic_retract_many(Q, X, 1e-6)
        with pytest.raises(InconsistentBoundsError) as got:
            cyclic_retract_many(Q, X, 1e-6)
        assert str(got.value) == str(want.value) == (
            "bounds cross on axis 1 at (-0.0, 2.0, 4.8): lower=0.0 > upper=-0.3999999999999999")

    def test_large_batch_memory_is_pinned(self):
        """12,000 rows in dimension 4 on 16 samples, as the benchmark's large
        op: the rows, their transposed copy and the sweep's start, then per
        step two (16, 12000) tables of the kernel's fold; 5.6 MiB in all.
        When the kernel broadcast a (3, 16, 12000) difference table and the
        sweep's displacement took a new array, this read 8.45 MiB."""
        rng = np.random.default_rng(7)
        Q = random_mcshane_instance(4, 0.5, rng, samples=16)
        X = rng.uniform(-3.0, 3.0, (12_000, 4))
        tracemalloc.start()
        try:
            cyclic_retract_many(Q, X, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20

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
            enclosure_bounds(diagonal_halfspace_instance(), [(-1.0, 1.0), (-1.0, 1.0)])

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


    def test_anchors_are_one_number_or_one_per_axis(self):
        Q = vee_notch_instance()
        l, u = enclosure_bounds(Q, [(-4.0, 4.0)] * 2)
        assert shrink_set(Q, 7, l, u) == shrink_set(Q, 7, [l, l], (u, u)) == \
            shrink_set(Q, 7, np.float64(l), np.array([u, u]))
        for lo, up in ((l, [u]), ([l, l, l], u), ([l, l], [u, l - 1.0]), (u + 1.0, u)):
            with pytest.raises(ValueError, match="anchors must be one number or 2 per side"):
                shrink_set(Q, 7, lo, up)

    @pytest.mark.parametrize("j", [2, 37, 40002])
    def test_a_relaxed_set_blends_the_base_bounds(self, j):
        """Every bound of ``shrink_set(base, j, l, u)`` is a blend over the
        base's own bound and its lowered form: nothing is lowered again."""
        Q, w = diagonal_halfspace_instance(), (2.0, 0.5)
        for base, l, u in ((vee_notch_instance(), -2.5, 4.5),
                           (truncated_set(Q, w, 8.0), [-6.0, -7.5], [10.0, 8.5])):
            R = shrink_set(base, j, l, u)
            for b, c in zip(R.lower + R.upper, base.lower + base.upper):
                assert type(b) is Blend and b.factor == 1.0 - 1.0 / j
                assert b.inner is c and b.form.inner is c.form


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

    @staticmethod
    def _eager(Q, w, r):
        """The truncation built node by node, as the grammar defines it."""
        lower, upper = [], []
        for lo, up, c in zip(Q.lower, Q.upper, w):
            low_cut, high_cut = Const(c - r), Const(c + r)
            lower.append(low_cut if isinstance(lo, Infinite) else Min(Max(lo, low_cut), high_cut))
            upper.append(high_cut if isinstance(up, Infinite) else Min(Max(up, low_cut), high_cut))
        return BoxLipschitzSet(lower, upper)

    def test_built_from_pairs_it_means_the_grammar_truncation(self):
        """The truncation evaluates from clamped pairs and builds its bounds
        only when read; those equal the grammar's, as sets, bounds, lowered
        pairs and values, also over a shrunk base that holds no bounds."""
        rng = np.random.default_rng(31)
        M = random_mcshane_instance(3, 1.0, rng, samples=5)
        l, u = enclosure_bounds(M, [(-3.0, 3.0)] * 3)
        cases = [(diagonal_halfspace_instance(), (2.0, 0.5), 8.0),
                 (BoxLipschitzSet([Infinite(-1), Const(-1.0)], [DistCone((0.5,), 1.0, 1.0, 1),
                                                                Infinite(1)]), (0.0, 0.0), 2.5),
                 (M, (0.25, -0.5, 0.0), 3.0),
                 (shrink_set(M, 9, l, u), (0.0, 0.0, -0.0), 1.5)]
        X = rng.uniform(-4.0, 4.0, (30, 3))
        for Q, w, r in cases:
            T, want = truncated_set(Q, w, r), self._eager(Q, w, r)
            assert T._lower is None                         # nothing built yet
            assert T._axes == want._axes
            hats = [tuple(x[:Q.n - 1]) for x in X]
            assert [[v.hex() for v in pair(y)] for pair in T._pairs for y in hats] == \
                [[v.hex() for v in pair(y)] for pair in want._pairs for y in hats]
            box = [(-2.5, 1.0)] * Q.n
            assert [v.hex() for v in enclosure_bounds(T, box)] == \
                [v.hex() for v in enclosure_bounds(want, box)]
            assert (T.lower, T.upper) == (want.lower, want.upper)
            assert T == want and T.lip_bound == want.lip_bound and T.all_finite

    @pytest.mark.parametrize("depth", [lipfun._MAX_DEPTH - 2, lipfun._MAX_DEPTH - 1,
                                       lipfun._MAX_DEPTH])
    def test_a_base_at_the_depth_limit_is_refused_as_before(self, depth):
        bound = DistCone((0.0,), 0.0, 1.0, -1)
        for _ in range(depth - 1):
            bound = Blend(bound, 1.0, 0.0)
        Q = BoxLipschitzSet([bound, Infinite(-1)], [Infinite(1), Infinite(1)])
        assert Q._depth == depth
        if depth + 2 <= lipfun._MAX_DEPTH:
            assert truncated_set(Q, (-1.0, 0.0), 2.0) == self._eager(Q, (-1.0, 0.0), 2.0)
            return
        with pytest.raises(ValueError) as want:
            self._eager(Q, (-1.0, 0.0), 2.0)
        with pytest.raises(ValueError) as got:
            truncated_set(Q, (-1.0, 0.0), 2.0)
        assert str(got.value) == str(want.value)
        assert f"would be {lipfun._MAX_DEPTH + 1} levels deep" in str(got.value)

    def test_a_cut_past_the_largest_float_is_refused_as_before(self):
        Q = diagonal_halfspace_instance()
        with pytest.raises(ValueError, match="Const value must be finite, got inf"):
            truncated_set(Q, (1e308, 0.0), 1e308)


class TestLevelOneRule:
    """``boxset._level_one``, the one relaxation rule of every level-1 path."""

    def test_shrink_over_a_given_box(self):
        Q = vee_notch_instance()
        box = [(-4.0, 4.0), (-4.0, 4.0)]
        base, lo, up, report = boxset._level_one(Q, [(0.0, -3.0)], 1e-2, box)
        l, u = enclosure_bounds(Q, box)
        k = relaxation_order(u - l, 1e-2)
        assert report == {"strategy": "shrink", "enclosure": [l, u], "k": k}
        assert base is Q and (lo, up) == (l, u)

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
        base, l, u, report = boxset._level_one(Q, X, 1e-2, witness=w)
        # r = 2 * 3.5 + 1; each axis is anchored at w_i -/+ r
        k = relaxation_order(16.0, 1e-2)
        assert report == {"strategy": "truncate", "radius": 8.0, "k": k}
        assert base == truncated_set(Q, w, 8.0)
        assert (l, u) == ([-6.0, -7.5], [10.0, 8.5])

    def test_one_missing_witness_error(self):
        Q = diagonal_halfspace_instance()
        box = [(-4.0, 4.0), (-4.0, 4.0)]
        calls = [lambda: boxset.retract(Q, (0.0, 4.0), 1e-3, many=False),
                 lambda: retract_lambda_one_bounded(Q, (0.0, 4.0), 1e-3, box),
                 lambda: retract_lambda_one_general_many(Q, None, [(0.0, 4.0)], 1e-3)]
        messages = set()
        for call in calls:
            with pytest.raises(UnsupportedSetError) as err:
                call()
            messages.add(str(err.value))
        assert messages == {"a level-1 set with missing bounds needs a witness member"}

    @pytest.mark.parametrize("witness, box, message", [
        ((0.0, 0.0, 0.0), None, "witness of dimension 3 for a set of dimension 2"),
        ((0.0, 0.0), [(1.0, -1.0), (-1.0, 1.0)], "empty box side (1.0, -1.0)"),
        ((0.0, 0.0), [(-1.0, 1.0)], "expected a box with 2 sides, got 1"),
        ((0.0, 0.0), [(-1.0, 1.0), (0.0, math.inf)], "box limits must be finite"),
    ])
    def test_box_and_witness_are_checked_whatever_the_strategy(self, witness, box, message):
        for Q in (vee_notch_instance(), diagonal_halfspace_instance()):
            with pytest.raises(ValueError) as err:
                boxset._level_one(Q, [(0.5, 0.5)], 1e-3, box, witness)
            assert str(err.value) == message

    def test_unused_inputs_that_are_well_formed_are_accepted(self):
        X, box = [(0.0, -3.0)], [(-4.0, 4.0)] * 2
        Q = vee_notch_instance()
        assert boxset._level_one(Q, X, 1e-3, box, (5.0, 5.0)) == \
            boxset._level_one(Q, X, 1e-3, box)
        Q = diagonal_halfspace_instance()
        assert boxset._level_one(Q, X, 1e-3, box, (0.0, 0.0))[1:] == \
            boxset._level_one(Q, X, 1e-3, None, (0.0, 0.0))[1:]

    def test_a_working_box_past_the_largest_float_names_the_start(self):
        Q = vee_notch_instance()
        for X in ([(1e308, 0.5)], [(0.0, 1.0), (2.0, -1.7e308)]):
            with pytest.raises(ValueError) as err:
                boxset._level_one(Q, X, 1e-3)
            far = max(X, key=lambda x: max(map(abs, x)))
            assert str(err.value) == f"the working box around start {far} overflows: half-width inf"

    def test_a_working_box_past_the_largest_float_from_the_bounds_names_them(self):
        """Bounds of about 1e308 at the hat origin overflow the working box
        whatever the start: the error names the bounds, not the start."""
        cone = DistCone((0.0,), 1e308, 1.0, 1)
        Q = BoxLipschitzSet([DistCone((0.0,), 1e308, 1.0, -1)] * 2, [cone] * 2)
        with pytest.raises(UnsupportedSetError) as err:
            boxset._level_one(Q, [(0.5, 0.5)], 1e-3)
        assert str(err.value) == \
            "the working box overflows: the bounds reach 1e+308 at the hat origin"
        assert boxset._level_one(Q, [(0.5, 0.5)], 1e-3, [(-1.0, 1.0)] * 2)[3]["strategy"] == \
            "shrink"

    def test_the_bound_scale_is_taken_once_per_set(self, monkeypatch):
        Q = random_mcshane_instance(3, 1.0, np.random.default_rng(5), samples=8)
        box = boxset._auto_box(Q, [(1.0, 2.0, 3.0)])
        monkeypatch.setitem(Q.__dict__, "_pairs", None)   # no evaluation from here on
        assert boxset._auto_box(Q, [(1.0, 2.0, 3.0)]) == box

    def test_a_level_one_request_builds_no_grammar_node(self, monkeypatch):
        """Relaxing a parsed set, shrunk or truncated, reads its lowered pairs
        and builds no expression: each bound is built only when read."""
        cases = [(random_mcshane_instance(3, 1.0, np.random.default_rng(6), samples=8),
                  (2.0, -1.0, 0.5), None),
                 (diagonal_halfspace_instance(), (0.0, 4.0), (0.0, 0.0))]
        built = []
        for cls in (Const, DistCone, Min, Max, Blend, McShane, Infinite):
            def init(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", init)
        for Q, x, witness in cases:
            for tol in (1e-3, 1e-6):
                point, _, _ = boxset.retract(Q, x, tol, witness=witness, many=False)
                assert violation(Q, point) <= tol
        assert built == []
        Const(0.0)                                          # the spy sees a node
        assert built == ["Const"]


def _level_one_cases():
    """Level-1 batches by strategy: ``(Q, X, tol, box, witness)``."""
    rng = np.random.default_rng(1616)
    mcshane = random_mcshane_instance(3, 1.0, rng, samples=8)
    return {
        "origin cycle": (origin_cycle_instance(),
                         np.vstack([np.zeros((1, 2)), rng.uniform(-2.0, 2.0, (39, 2))]),
                         1e-4, [(-2.0, 2.0)] * 2, None),
        "vee notch": (vee_notch_instance(), rng.uniform(-4.0, 4.0, (40, 2)), 1e-4,
                      [(-4.0, 4.0)] * 2, None),
        "diagonal half-plane": (diagonal_halfspace_instance(), rng.uniform(-5.0, 5.0, (40, 2)),
                                1e-4, None, (0.0, 0.0)),
        "McShane lam=1": (mcshane, rng.uniform(-3.0, 3.0, (40, 3)), 1e-4, None, None),
    }


def _target(Q, X, tol, box=None, witness=None):
    """The relaxed set of the final order of a level-1 retraction, and ``k``."""
    base, l, u, report = boxset._level_one(Q, X, tol, box, witness)
    return shrink_set(base, report["k"], l, u), report["k"]


def _shrinks_run(monkeypatch):
    """Spy on ``boxset.shrink_set``: the orders of the relaxed sets built."""
    orders = []
    shrink = boxset.shrink_set
    monkeypatch.setattr(boxset, "shrink_set",
                        lambda base, k, l, u: orders.append(k) or shrink(base, k, l, u))
    return orders


class TestStagedLevelOne:
    """Level-1 retraction by continuation in ``k`` (``boxset.retract``)."""

    def test_stage_orders(self):
        assert boxset._stage_orders(4002) == [40, 400, 4002]
        assert boxset._stage_orders(12002) == [12, 120, 1200, 12002]
        assert boxset._stage_orders(99) == [99]
        assert boxset._stage_orders(1) == [1]

    def test_every_run_iterates_on_a_shrink(self, monkeypatch):
        """The sets the engine runs on are the ones ``shrink_set`` built:
        the target, each stage in turn, and the target again."""
        built, ran = [], []
        shrink, engine = boxset.shrink_set, boxset.cyclic_retract_many
        monkeypatch.setattr(boxset, "shrink_set",
                            lambda *args: built.append(shrink(*args)) or built[-1])
        monkeypatch.setattr(boxset, "cyclic_retract_many",
                            lambda T, *args, **kw: ran.append(T) or engine(T, *args, **kw))
        Q, X, tol, box, _ = _level_one_cases()["origin cycle"]
        boxset.retract(Q, X, tol, box, many=True)
        assert len(built) >= 3 and list(map(id, ran)) == list(map(id, built + built[:1]))
        levels = [R.lip_bound for R in built]
        assert levels[1:] == sorted(levels[1:]) and max(levels[1:]) < levels[0] < 1.0

    @pytest.mark.parametrize("name", ["vee notch", "diagonal half-plane", "McShane lam=1"])
    def test_a_first_run_that_converges_is_the_one_run_result(self, name, monkeypatch):
        Q, X, tol, box, witness = _level_one_cases()[name]
        orders = _shrinks_run(monkeypatch)
        out, traces, report = boxset.retract(Q, X, tol, box, witness, many=True, record=True)
        assert orders == [report["k"]]
        target, k = _target(Q, X, tol, box, witness)
        want, want_traces = cyclic_retract_many(target, X, tol / 4, 50 * k + 1000, record=True)
        assert out.tobytes() == want.tobytes()
        assert np.array([t.displacements for t in traces]).tobytes() == \
            np.array([t.displacements for t in want_traces]).tobytes()

    def test_the_origin_cycle_goes_through_the_stages(self, monkeypatch):
        Q, X, tol, box, _ = _level_one_cases()["origin cycle"]
        orders = _shrinks_run(monkeypatch)
        out, traces, report = boxset.retract(Q, X, tol, box, many=True, record=True)
        k = report["k"]
        assert orders == [k] + boxset._stage_orders(k)[:-1] and len(orders) >= 3
        # far fewer sweeps than the one run at k, which takes ~0.11 k
        sweeps = len(traces[0].displacements) // Q.n
        assert boxset._FIRST_SWEEPS < sweeps < 200 < k // 100
        assert (violation_many(Q, out) <= tol).all()
        assert out[0].tobytes() == X[0].tobytes()           # the member
        # each row's joined trace ends on its point, and its displacements
        # add up to it (up to the rounding of the running sums)
        for x, row, t in zip(X, out, traces):
            assert t.start == tuple(x) and np.array(t.final).tobytes() == row.tobytes()
            assert np.abs(np.array(t.points()[-1]) - row).max() <= 1e-12

    @pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-6])
    def test_one_point_and_one_row_agree(self, tol):
        """The scalar and batch engines give one row the same bits, and the
        stage decisions of a one-row batch are that row's."""
        Q = origin_cycle_instance()
        for x in [(2.0, -1.5), (0.3, 1.7), (-0.25, 0.0)]:
            point, trace, report = boxset.retract(Q, x, tol, many=False)
            rows, traces, again = boxset.retract(Q, [x], tol, many=True, record=True)
            assert np.array(point).tobytes() == rows[0].tobytes()
            assert np.array(trace.displacements).tobytes() == \
                np.array(traces[0].displacements).tobytes()
            assert report == again
            assert violation(Q, point) <= tol

    @pytest.mark.parametrize("name", list(_level_one_cases()))
    @pytest.mark.parametrize("first", [None, 1])
    def test_every_stage_stays_in_the_working_box(self, name, first, monkeypatch):
        """The small-``k`` stages pull the bounds hard toward anchors that
        enclose them only inside the working box; every iterate of every
        stage stays there.  With a first run of one sweep, every case goes
        through the stages."""
        if first is not None:
            monkeypatch.setattr(boxset, "_FIRST_SWEEPS", first)
        Q, X, tol, box, witness = _level_one_cases()[name]
        _, traces, report = boxset.retract(Q, X, tol, box, witness, many=True, record=True)
        if witness is not None:
            r = report["radius"]
            box = [(c - r, c + r) for c in witness]
        elif box is None:
            box = boxset._auto_box(Q, X)
        # the replay sums displacements, which may round by an ulp or so
        lo, hi = np.array(box).T + [[-1e-12], [1e-12]]
        for t in traces:
            P = np.array(t.points())
            assert ((lo <= P) & (P <= hi)).all()

    @pytest.mark.parametrize("strategy", ["cyclic", "origin cycle", "vee notch",
                                          "diagonal half-plane", "McShane lam=1"])
    def test_pairwise_sup_distances_do_not_grow(self, strategy, monkeypatch):
        orders = _shrinks_run(monkeypatch)
        if strategy == "cyclic":
            rng = np.random.default_rng(1617)
            Q = random_mcshane_instance(3, 0.9, rng, samples=8)
            X = rng.uniform(-3.0, 3.0, (40, 3))
            out, _ = cyclic_retract_many(Q, X, 1e-6)
        else:
            Q, X, tol, box, witness = _level_one_cases()[strategy]
            out = boxset.retract(Q, X, tol, box, witness, many=True)[0]
            assert (len(orders) > 1) == (strategy == "origin cycle")
        assert (sup_dists(out, out) <= sup_dists(X, X)).all()

    def test_the_sweep_cap_counts_every_run(self):
        Q, x = origin_cycle_instance(), (2.0, -1.5)
        point, trace, _ = boxset.retract(Q, x, 1e-3, many=False)
        sweeps = trace.steps // Q.n
        again, same, _ = boxset.retract(Q, x, 1e-3, many=False, max_sweeps=sweeps)
        assert again == point and same.displacements == trace.displacements
        assert boxset.retract(Q, x, 1e-3, many=False, max_sweeps=0)[0] == point   # no cap
        for cap in (sweeps - 1, boxset._FIRST_SWEEPS + 1, 3):
            with pytest.raises(MaxSweepsExceededError, match=f"within {cap} sweeps over all"):
                boxset.retract(Q, x, 1e-3, many=False, max_sweeps=cap)


    @pytest.mark.parametrize("record", [False, True])
    def test_a_batch_takes_no_sweep_cap_at_level_one(self, monkeypatch, record):
        def no_work(*args):
            raise AssertionError("a relaxation was built")

        monkeypatch.setattr(boxset, "_level_one", no_work)
        with pytest.raises(ValueError, match="not a batch's"):
            boxset.retract(origin_cycle_instance(), [[2, -1.5], [0.5, 0.5]], 1e-3,
                           [(-3, 3)] * 2, many=True, record=record, max_sweeps=5000)

    def test_a_batch_takes_a_sweep_cap_below_level_one(self):
        Q, X = half_rate_instance(), np.array([[3.0, -2.0], [0.5, 0.5]])
        want, _ = cyclic_retract_many(Q, X, 1e-6, 5000)
        out, _, report = boxset.retract(Q, X, 1e-6, many=True, max_sweeps=5000)
        assert report == {"strategy": "cyclic"} and out.tobytes() == want.tobytes()


class TestStagedWalkBytes:
    """sha256 of the points and displacements of two level-1 walks that go
    through the stages: a batch with records, and one point."""

    def test_origin_cycle_batch(self, monkeypatch):
        orders = _shrinks_run(monkeypatch)
        Q, X, tol, box, _ = _level_one_cases()["origin cycle"]
        out, traces, _ = boxset.retract(Q, X, tol, box, many=True, record=True)
        assert len(orders) > 1
        digest = hashlib.sha256(out.tobytes())
        digest.update(np.array([t.displacements for t in traces]).tobytes())
        assert digest.hexdigest() == \
            "411cc72c1d494874c9cc457f3020fa405ac342328f8521c512c6e712fb6953e9"

    def test_mcshane_point(self, monkeypatch):
        orders = _shrinks_run(monkeypatch)
        Q = random_mcshane_instance(3, 1.0, np.random.default_rng(21), samples=8)
        x = (-0.9407723888321202, -2.9295397312213334, 3.1190437764806624)
        point, trace, report = boxset.retract(Q, x, 1e-6, many=False)
        assert orders == [report["k"]] + boxset._stage_orders(report["k"])[:-1]
        assert len(orders) > 1 and trace.steps == 300
        digest = hashlib.sha256(np.array(point).tobytes())
        digest.update(np.array(trace.displacements).tobytes())
        assert digest.hexdigest() == \
            "db36d658e0ac53493a01da4b91f68d22a754bc67b23c13839a0c2cbc0fd785db"


def _nodes_built(monkeypatch):
    """Spy on every grammar constructor: the types of the nodes built."""
    built = []
    for cls in (Const, DistCone, Min, Max, Blend, McShane, Infinite):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, _init=init, **kw:
                            built.append(type(self)) or _init(self, *args, **kw))
    return built


class TestRelaxedSets:
    """A set ``shrink_set`` builds evaluates from its base's lowered pairs
    and the new blend factor and anchors; its ``Blend`` bounds are built
    only when ``lower``, ``upper`` or ``==`` reads them."""

    @staticmethod
    def _bases():
        Q, w = diagonal_halfspace_instance(), (2.0, 0.5)
        rng = np.random.default_rng(28)
        return [(origin_cycle_instance(), -2.5, 2.5), (vee_notch_instance(), -2.5, 4.5),
                (truncated_set(Q, w, 8.0), [-6.0, -7.5], [10.0, 8.5]),
                (random_mcshane_instance(4, 1.0, rng, samples=8), -4.0, [4.0, 5.0, 6.0, 7.0])]

    @pytest.mark.parametrize("j", [1, 2, 37, 40002])
    def test_a_relaxed_set_evaluates_as_its_blends(self, j, monkeypatch):
        rng = np.random.default_rng(j)
        for base, l, u in self._bases():
            X = rng.uniform(-3.0, 3.0, (20, base.n))
            X[:4] = np.where(rng.uniform(size=(4, base.n)) < 0.5, 0.0, -0.0)
            base._pairs
            built = _nodes_built(monkeypatch)
            R = shrink_set(base, j, l, u)
            again = shrink_set(R, 3, -9.0, 9.0)             # a relaxation of a relaxation
            for T in (R, again):
                T._pairs, boxset._grid_pairs(T)
            assert built == []
            monkeypatch.undo()
            # the same sets, their bounds built as blends first
            eager = [BoxLipschitzSet(T.lower, T.upper) for T in (R, again)]
            assert eager == [R, again]
            for T, E in zip((R, again), eager):
                assert T.lip_bound.hex() == E.lip_bound.hex() and T.all_finite
                assert T._axes == E._axes
                for x in X:
                    assert violation(T, x).hex() == violation(E, x).hex()
                    for i, (a, b) in enumerate(zip(T._pairs, E._pairs)):
                        y = tuple(np.delete(x, i).tolist())
                        assert [v.hex() for v in a(y)] == [v.hex() for v in b(y)]
                assert cyclic_retract_many(T, X, 1e-3)[0].tobytes() == \
                    cyclic_retract_many(E, X, 1e-3)[0].tobytes()

    def test_refusals_are_the_blends(self):
        """What a blend refuses, ``shrink_set`` refuses with its message; a
        ``k`` that is no integer is refused before any blend is made, so the
        blend's refusal of a NaN factor is asserted on the blend itself."""
        Q = vee_notch_instance()
        for k, l, message in ((7, -math.inf, "Blend anchor must be finite, got -inf"),
                              (7, math.nan, "Blend anchor must be finite, got nan"),
                              (math.nan, -3.0, "k must be an integer, got nan")):
            with pytest.raises(ValueError, match=message):
                shrink_set(Q, k, l, 3.0)
        with pytest.raises(ValueError) as err:
            Blend(Const(0.0), math.nan, 0.0)
        assert str(err.value) == "Blend factor must lie in [0, 1], got nan"
        deep = DistCone((0.0,), 0.0, 0.5, 1)
        while deep.depth < lipfun._MAX_DEPTH:
            deep = Min(deep)
        for R in (BoxLipschitzSet([deep, Const(-1.0)], [Const(1.0), Const(2.0)]),
                  shrink_set(BoxLipschitzSet([deep.children[0], Const(-1.0)],
                                             [Const(1.0), Const(2.0)]), 2, -1.0, 2.0)):
            with pytest.raises(ValueError, match=f"would be {lipfun._MAX_DEPTH + 1} levels"):
                shrink_set(R, 2, -1.0, 2.0)

    def test_a_staged_walk_builds_no_node_and_one_pair_per_axis_and_set(self, monkeypatch):
        """The walk of ``TestStagedWalkBytes.test_mcshane_point``: its
        target and every stage compile one scalar pair per axis from the
        base's pairs, and the whole retraction builds no grammar node."""
        Q = random_mcshane_instance(3, 1.0, np.random.default_rng(21), samples=8)
        x = (-0.9407723888321202, -2.9295397312213334, 3.1190437764806624)
        Q._pairs
        built, compiled = _nodes_built(monkeypatch), []
        pair = boxset._compile_pair
        monkeypatch.setattr(boxset, "_compile_pair", lambda p: compiled.append(p) or pair(p))
        orders = _shrinks_run(monkeypatch)
        boxset.retract(Q, x, 1e-6, many=False)
        assert len(orders) > 1 and built == []
        assert len(compiled) == Q.n * len(orders)

    def test_a_staged_walk_compiles_no_kernel_after_the_first_request(self, monkeypatch):
        """The walk above, then walks at other tolerances, so other orders
        and blend factors, on fresh copies of its set: their targets and
        stages reuse the kernel code of the first request's shapes."""
        x = (-0.9407723888321202, -2.9295397312213334, 3.1190437764806624)
        orders = _shrinks_run(monkeypatch)
        misses = []
        for tol in (1e-6, 1e-5, 1e-3):
            orders.clear()
            Q = random_mcshane_instance(3, 1.0, np.random.default_rng(21), samples=8)
            boxset.retract(Q, x, tol, many=False)
            assert len(orders) > 2
            misses.append(lipfun._kernel_code.cache_info().misses)
        assert misses[1:] == misses[:1] * 2


class TestExhaustedState:
    """``MaxSweepsExceededError.state`` is the result after the last sweep."""

    def test_scalar(self):
        Q, x = origin_cycle_instance(), (0.0, 1.0)
        target, _ = _target(Q, [x], 1e-3)
        with pytest.raises(MaxSweepsExceededError) as err:
            cyclic_retract(target, x, 1e-3, max_sweeps=3)
        point, trace = err.value.state
        want = cyclic_iterate(target, x, 3 * Q.n)
        assert point == want.final == trace.final
        assert trace.displacements == want.displacements and trace.start == x

    @pytest.mark.parametrize("record", [False, True])
    def test_batch(self, record):
        Q = origin_cycle_instance()
        X = np.array([[0.0, 1.0], [0.0, 0.0], [2.0, -1.5]])
        target, _ = _target(Q, X, 1e-3)
        with pytest.raises(MaxSweepsExceededError) as err:
            cyclic_retract_many(target, X, 1e-3, max_sweeps=3, record=record)
        out, traces = err.value.state
        for j, x in enumerate(X):
            want = cyclic_iterate(target, tuple(x), 3 * Q.n)
            assert tuple(out[j]) == want.final
            if record:
                assert traces[j].displacements == want.displacements
        assert traces is None or len(traces) == len(X)

    @pytest.mark.parametrize("record, digest", [
        (False, "b9883125b423d920fe2aa3fe8d721f3023352d8c4d56adff0de5c34a55e7be8a"),
        (True, "804123bff58095dcfe5b0c09bbb29dec73f600f4cb88a1f7c71cbd743066b9e3"),
    ])
    def test_batch_state_bytes_are_pinned(self, record, digest):
        """Six sweeps of a level-0.9 batch in dimension 8: 35 of its 40 rows
        froze before the last sweep.  The state's points, and with
        ``record`` its displacements, keep these bytes."""
        rng = np.random.default_rng(1515)
        Q = random_mcshane_instance(8, 0.9, rng, samples=16)
        members = sample_members(Q, rng.uniform(-0.5, 0.5, (4, 8)))
        X = np.vstack([members, rng.uniform(-3.0, 3.0, (36, 8))])
        with pytest.raises(MaxSweepsExceededError, match="within 6 sweeps") as err:
            cyclic_retract_many(Q, X, 1e-6, max_sweeps=6, record=record)
        out, traces = err.value.state
        got = hashlib.sha256(out.tobytes())
        if record:
            got.update(np.array([t.displacements for t in traces]).tobytes())
        assert got.hexdigest() == digest


class TestScaleZeroFamilies:
    """A cone family of scale 0 is its offsets, also where a distance
    overflows to ``inf`` (``0.0 * inf`` would be NaN)."""

    Q = BoxLipschitzSet([McShane((((1e308,), -1.0), ((-1.0,), -2.0)), 0.0, "sup"),
                         Const(-5.0)],
                        [Const(1.0), Const(5.0)])
    x = (0.0, -1e308)

    def test_both_engines_agree(self):
        point, _ = cyclic_retract(self.Q, self.x, 1e-6)
        rows, _ = cyclic_retract_many(self.Q, [self.x], 1e-6)
        assert point == (0.0, -5.0)
        assert np.array(point).tobytes() == rows[0].tobytes()

    def test_violations_are_finite_and_equal(self):
        one, many = violation(self.Q, self.x), violation_many(self.Q, [self.x])
        assert math.isfinite(one) and np.isfinite(many).all()
        assert np.array([one]).tobytes() == many.tobytes()

    @pytest.mark.parametrize("bound", [
        McShane((((1e308,), -1.0), ((-1.0,), -2.0)), 0.0, "sup"),
        McShane((((1e308,), -1.0), ((-1.0,), -2.0)), 0.0, "inf"),
        DistCone((1e308,), -0.0, 0.0, 1),
        DistCone((1e308,), 3.0, 0.0, -1),
    ])
    def test_evaluators_give_the_offsets(self, bound):
        far = _compile(bound)((-1e308,))
        assert far == _compile(bound)((0.5,))
        assert math.isfinite(far)
        grid = eval_grid(bound, [[-1e308], [0.5]])
        assert grid.tobytes() == np.array([far, far]).tobytes()


class TestMcShaneRepair:
    """The sample values of the random McShane sets: one table expression,
    with the bytes of the per-pair ``max`` it replaced."""

    @staticmethod
    def _per_pair(points, raw, lam):
        return [max(r - lam * sup_dist(p, q) for q, r in zip(points, raw)) for p in points]

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.9, 1.0])
    def test_bytes_of_the_per_pair_max(self, lam):
        """Random sites and values, and integer sites with values from
        {±0, ±0.5, 1}, where maxima tie and zeros carry a sign."""
        rng = np.random.default_rng(1919)
        for draw in range(60):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 12))
            if draw % 3:
                points = [tuple(rng.uniform(-2.0, 2.0, n - 1)) for _ in range(m)]
                raw = rng.uniform(-1.0, 1.0, m)
            else:
                points = [tuple(map(float, rng.integers(-2, 3, n - 1))) for _ in range(m)]
                raw = rng.choice([-0.0, 0.0, 0.5, -0.5, 1.0], m)
            got = _mcshane_repair(points, raw, lam)
            assert np.array(got).tobytes() == np.array(self._per_pair(points, raw, lam)).tobytes()
            assert {type(v) for v in got} == {float}

    def test_an_overflowing_distance_at_level_zero_is_not_nan(self):
        # 0 * inf would be NaN; the distance counts as the largest float
        assert _mcshane_repair([(1e308,), (-1e308,)], [0.0, 0.5], 0.0) == [0.5, 0.5]
        assert _mcshane_repair([(1.7976931348623157e308,), (-1e308,)], [-1e308, 1e308], 0.5) \
            == [1e308 - 0.5 * 1.7976931348623157e308, 1e308]


class TestFactorZeroBlends:
    """A blend of factor 0 is its anchor, also where its inner value
    overflows to ``inf`` (``0.0 * (inf - anchor)`` would be NaN).
    ``shrink_set`` makes such blends at ``k = 1``."""

    blend = Blend(DistCone((1e308,), 0.0, 1.0, 1), 0.0, 2.0)
    far = (-1e308,)

    def test_evaluators_give_the_anchor(self):
        assert _compile(self.blend)(self.far) == 2.0
        assert eval_grid(self.blend, [self.far, (0.5,)]).tolist() == [2.0, 2.0]

    @pytest.mark.parametrize("other", [
        Const(5.0),
        Blend(DistCone((1e308,), 1.0, 1.0, 1), 0.0, 3.0),
        DistCone((0.0,), 1.0, 1.0, -1),
    ])
    def test_paired_evaluators_give_the_anchor(self, other):
        pair = lipfun._pair(self.blend.form, other.form)
        lo, up = lipfun._compile_pair(pair)(self.far)
        los, ups = lipfun._compile_grid_pair(pair)(np.array([self.far]).T)
        assert lo == 2.0 and los.tolist() == [2.0]
        assert up == _compile(other)(self.far)
        assert ups.tobytes() == eval_grid(other, [self.far]).tobytes()

    @pytest.mark.parametrize("orientation", [1, -1])
    def test_a_negative_zero_anchor_keeps_the_inner_sign(self, orientation):
        """At anchor -0.0 the value is a zero signed by the inner value, as
        at a finite point where the inner value has the same sign."""
        f = Blend(DistCone((1e308,), 0.0, 1.0, orientation), 0.0, -0.0)
        want = _compile(f)((0.5,))
        assert want == 0.0 and math.copysign(1.0, want) == (1.0 if orientation > 0 else -1.0)
        assert _compile(f)(self.far).hex() == want.hex()
        with np.errstate(over="ignore"):        # the distance overflows
            grid = eval_grid(f, [self.far, (0.5,)])
        assert grid.tobytes() == np.array([want, want]).tobytes()

    def test_order_one_relaxation_through_both_engines(self):
        Q = BoxLipschitzSet([DistCone((1e308,), 0.0, 1.0, -1), Const(-1.0)],
                            [DistCone((1e308,), 0.0, 1.0, 1), Const(1.0)])
        R = shrink_set(Q, 1, -2.0, 2.0)
        rows = [(0.5, -1e308), (3.0, 0.0), (-1.0, 1e308), (0.0, 0.0)]
        points, _ = cyclic_retract_many(R, rows, 1e-6)
        assert np.isfinite(points).all()
        for x, got in zip(rows, points):
            point, _ = cyclic_retract(R, x, 1e-6)
            assert np.array(point).tobytes() == got.tobytes()
        assert points.tolist() == [[0.5, -2.0], [2.0, 0.0], [-1.0, 2.0], [0.0, 0.0]]


def _zero_tie_set(rng, n, pinned):
    """A contractive set whose bounds take exact zeros of both signs at
    dyadic hat points: McShane envelopes of scale 1/2 over dyadic samples
    valued 0.0, -0.0 or -1 (lower) and 0.0, -0.0 or 1 (upper).  With
    ``pinned``, axis 0's bounds are the ``Max`` and the ``Min`` of their
    envelope and a zero of either sign, so that axis is pinned to a tie of
    zeros."""
    sides = {"sup": [], "inf": []}
    for i in range(n):
        for mode, values, node in (("sup", (0.0, -0.0, -1.0), Max), ("inf", (0.0, -0.0, 1.0), Min)):
            pts = [tuple(p) for p in rng.integers(-2, 3, (4, n - 1)) / 2.0]
            env = McShane(tuple(zip(pts, map(float, rng.choice(values, 4)))), 0.5, mode)
            if pinned and i == 0:
                env = node(env, Const(float(rng.choice((0.0, -0.0)))))
            sides[mode].append(env)
    return BoxLipschitzSet(sides["sup"], sides["inf"])


class TestZeroSignsOfBounds:
    """The scalar and batch evaluators may give a zero bound value opposite
    signs at a ``Min``/``Max``/``McShane`` tie.  The engines cannot see it:
    they compare with ``<`` and ``>``, which treat the two zeros as equal,
    and move a coordinate onto ``bound + 0.0``, which is ``+0.0`` for both.
    So flipping the sign of every zero bound value leaves every output byte
    of both engines as it is."""

    @staticmethod
    def _flipping(monkeypatch, flips):
        pair, grid_pair = boxset._compile_pair, boxset._compile_grid_pair

        def flip(v):
            if v == 0.0:
                flips.append(1)
                return -v
            return v

        def flip_all(v):
            zero = v == 0.0
            flips.append(int(zero.sum()))
            return np.where(zero, -v, v)

        def scalar(p):
            f = pair(p)
            return lambda y: tuple(flip(v) for v in f(y))

        def batch(p, hat=None):
            f = grid_pair(p, hat)
            return lambda YT: tuple(flip_all(v) for v in f(YT))

        monkeypatch.setattr(boxset, "_compile_pair", scalar)
        monkeypatch.setattr(boxset, "_compile_grid_pair", batch)

    @staticmethod
    def _outputs(Q, rows):
        out = []
        for x in rows:
            point, trace = cyclic_retract(Q, x, 1e-9)
            out.append(np.array(point).tobytes() + np.array(trace.displacements).tobytes())
        points, traces = cyclic_retract_many(Q, rows, 1e-9, record=True)
        out.append(points.tobytes())
        out += [np.array(t.displacements).tobytes() for t in traces]
        return out

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_flipped_zero_bounds_leave_the_bytes(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        cases = []
        for n, pinned in ((2, False), (2, True), (3, False), (3, True), (4, True)):
            rows = rng.integers(-4, 5, (12, n)) / 4.0
            rows[rng.random(rows.shape) < 0.2] = -0.0
            cases.append((n, pinned, int(rng.integers(1 << 30)),
                          [tuple(map(float, r)) for r in rows]))

        def outputs():
            return [self._outputs(_zero_tie_set(np.random.default_rng(s), n, pinned), rows)
                    for n, pinned, s, rows in cases]

        want = outputs()
        flips = []
        self._flipping(monkeypatch, flips)
        got = outputs()
        assert got == want
        assert sum(flips) > 0


class TestFindPoint:
    """Retracting the origin finds a member, or says why it cannot."""

    def test_contractive_set(self, rng):
        Q = random_mcshane_instance(3, 0.5, rng)
        point = boxset.retract(Q, (0.0,) * 3, 1e-9, many=False)[0]
        assert violation(Q, point) <= 1e-9

    def test_level_one_nonempty(self):
        point = boxset.retract(vee_notch_instance(), (0.0, 0.0), 1e-6, many=False)[0]
        assert violation(vee_notch_instance(), point) <= 1e-6

    def test_empty_set_diverges_with_verdict(self):
        Q, origin = empty_drift_instance(), (0.0, 0.0)
        point = boxset.retract(Q, origin, 1e-3, many=False)[0]
        with pytest.raises(DivergenceDetectedError) as err:
            boxset._check_relaxed(Q, origin, violation(Q, point), 1e-3)
        assert err.value.verdict == "stalled"
        assert err.value.trace.steps > 0

    def test_working_box(self):
        # bound magnitudes at the hat origin: 3 (both x1 bounds, x2's cap)
        Q = vee_notch_instance()
        assert boxset._auto_box(Q, (0.0, 0.0)) == [(-8.0, 8.0)] * 2
        assert boxset._auto_box(Q, (1.0, -5.0)) == [(-18.0, 18.0)] * 2

    def test_unbounded_level_one_is_unsupported(self):
        with pytest.raises(UnsupportedSetError):
            boxset.retract(diagonal_halfspace_instance(), (0.0, 0.0), 1e-9, many=False)


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

    @staticmethod
    def _fields(trace):
        return [trace.start, trace.displacements, trace.final]

    def test_a_one_row_batch_trace_is_the_scalar_trace(self):
        """Batch traces hold Python floats, so a one-row batch writes the
        scalar engine's CSV byte for byte, through the engine and through
        ``retract``."""
        Q = random_mcshane_instance(2, 0.5, np.random.default_rng(0), samples=4)
        point, want = cyclic_retract(Q, (2.0, -2.0), 1e-3)
        out, traces = cyclic_retract_many(Q, np.array([[2.0, -2.0]]), 1e-3, record=True)
        again, more, _ = boxset.retract(Q, [(2, -2)], 1e-3, many=True, record=True)
        assert out.tolist() == again.tolist() == [list(point)]
        for trace in traces + more:
            assert trace_to_csv(trace) == trace_to_csv(want)
            assert self._fields(trace) == self._fields(want)
            assert all(type(v) is float for field in self._fields(trace) for v in field)

    def test_batch_trace_fields_are_floats(self):
        Q = random_mcshane_instance(3, 0.5, np.random.default_rng(4), samples=8)
        X = np.random.default_rng(5).uniform(-3.0, 3.0, (7, 3))
        out, traces = cyclic_retract_many(Q, X, 1e-6, record=True)
        for x, y, trace in zip(X.tolist(), out.tolist(), traces):
            assert trace.start == tuple(x) and trace.final == tuple(y)
            assert all(type(v) is float for field in self._fields(trace) for v in field)
            assert "np." not in trace_to_csv(trace)

    def test_points_replay_the_displacements(self):
        Q = origin_cycle_instance()
        trace = cyclic_iterate(Q, (0.0, 1.0), 6)
        pts = trace.points()
        assert pts[0] == (0.0, 1.0)
        assert pts[-1] == trace.final
        assert len(pts) == trace.steps + 1


class TestSetJSON:
    def test_round_trip(self, rng):
        for Q in (vee_notch_instance(), diagonal_halfspace_instance(),
                  random_mcshane_instance(3, 0.9, rng)):
            obj = set_to_obj(Q)
            again = set_from_obj(obj)
            assert again == Q
            assert json.dumps(set_to_obj(again), sort_keys=True) == \
                json.dumps(obj, sort_keys=True)

    def test_infinite_bounds_encode_as_strings(self):
        obj = set_to_obj(diagonal_halfspace_instance())
        assert obj["upper"][0] == "+inf"
        assert obj["lower"][1] == "-inf"

    @pytest.mark.parametrize("bound", ['{"type": "const", "value": true}', "false"])
    def test_a_boolean_is_no_number(self, bound):
        text = '{"n": 2, "lower": [%s, "-inf"], "upper": ["+inf", "+inf"]}' % bound
        with pytest.raises(ValueError, match="expression holds the boolean"):
            set_from_obj(json.loads(text))

    @pytest.mark.parametrize("field", ["lower", "upper"])
    @pytest.mark.parametrize("value", [5, None, "-inf", {"type": "const", "value": 0.0}])
    def test_bounds_that_are_no_list_name_their_field(self, field, value):
        obj = dict({"lower": ["-inf", "-inf"], "upper": ["+inf", "+inf"]}, n=2)
        obj[field] = value
        with pytest.raises(ValueError) as err:
            set_from_obj(obj)
        assert str(err.value) == f"set field {field} must be a list of bounds, got {value!r}"

    def test_malformed_objects_rejected(self):
        with pytest.raises(ValueError):
            set_from_obj({"n": 2, "lower": ["-inf"], "upper": ["+inf", "+inf"]})
        with pytest.raises(ValueError):
            set_from_obj([1, 2, 3])
