"""Tests for margin computation, cone choice, and bound synthesis."""

import hashlib
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperlip import metric, reconstruct
from hyperlip.boxset import BoxLipschitzSet, set_to_obj, violation, violation_many
from hyperlip.lipfun import DistCone, Infinite, Max, Min, expr_to_obj
from hyperlip.metric import ConeDescriptor, cone_contains, hat, sup_dists
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


def _reference_margins(inside, X, chunk=64):
    """Reference margins: whole ``(chunk, S, S)`` blocks of
    ``||x-p|| + ||x-q|| - ||p-q||``."""
    P = np.asarray(inside, dtype=float)
    X = np.asarray(X, dtype=float)
    Dpq = np.abs(P[:, None, :] - P[None, :, :]).max(axis=2)
    eps = np.empty(X.shape[0])
    arg = np.empty(X.shape[0], dtype=int)
    for s in range(0, X.shape[0], chunk):
        dx = np.abs(X[s:s + chunk, None, :] - P[None, :, :]).max(axis=2)
        scores = dx + (dx[:, None, :] - Dpq[None, :, :]).min(axis=2)
        arg[s:s + chunk] = scores.argmax(axis=1)
        eps[s:s + chunk] = scores.max(axis=1)
    return eps, arg


def _reference_cone(x, p_x, eps, a):
    """Reference cone choice, one exterior point at a time."""
    diffs = [x[i] - p_x[i] for i in range(len(x))]
    axis = max(range(len(x)), key=lambda i: (abs(diffs[i]), -i))
    sign = 1 if diffs[axis] > 0 else -1
    apex = list(x)
    apex[axis] -= sign * a * eps
    cone = ConeDescriptor(tuple(apex), axis, sign)
    if not cone_contains(cone, x, strict=True, tol=0.0):
        raise ArithmeticError(f"{x} is not strictly interior to its own cone {cone}")
    return cone


def _reference_hits(cone, P):
    apex = np.asarray(cone.apex)
    t = (P[:, cone.axis] - apex[cone.axis]) * cone.sign
    off = np.abs(np.delete(P, cone.axis, axis=1) - np.delete(apex, cone.axis)).max(
        axis=1, initial=0.0)
    return (t >= 0.0) & (off <= t)


def _reference_synthesis(cfg):
    """Reference synthesis: the per-exterior-point loop, one cone per
    exterior point checked against the whole inside sample, no pruning.
    Margins come from ``reconstruct.epsilon_many`` as bound at call time."""
    P = np.asarray(cfg.inside, dtype=float)
    uppers = [[] for _ in range(cfg.n)]
    lowers = [[] for _ in range(cfg.n)]
    if cfg.outside:
        eps, arg = reconstruct.epsilon_many(cfg.inside, cfg.outside)
        for j, x in enumerate(cfg.outside):
            e = float(eps[j])
            if e <= 0.0:
                raise ValueError(
                    f"margin of {x} is not positive; the point is metrically "
                    f"between inside samples")
            try:
                cone = _reference_cone(x, cfg.inside[int(arg[j])], e, cfg.a)
            except ArithmeticError:
                # the apex rounds onto x: the margin is lost in rounding
                raise ValueError(
                    f"margin {e!r} of {x} is not positive beyond rounding: the apex of "
                    f"its cone rounds onto the point") from None
            hits = _reference_hits(cone, P)
            if hits.any():
                q = cfg.inside[int(np.argmax(hits))]
                raise ConeOverlapError(
                    f"cone of exterior point {x} contains inside sample {q}", x, q)
            i = cone.axis
            if cone.sign > 0:
                uppers[i].append(DistCone(hat(x, i), x[i] - cfg.a * e, 1.0, 1))
            else:
                lowers[i].append(DistCone(hat(x, i), x[i] + cfg.a * e, 1.0, -1))
    lower = [Max(tuple(fam)) if fam else Infinite(-1) for fam in lowers]
    upper = [Min(tuple(fam)) if fam else Infinite(1) for fam in uppers]
    return BoxLipschitzSet(lower, upper)


def _exact_nondominated(cones, sign):
    """The cones no other cone makes redundant, by the rule of the
    benchmark's ``cone_counts``: upper cone i makes upper cone j redundant
    when ``o_i + ||a_i - a_j|| <= o_j`` (lower cones: the mirror rule), and
    of two identical cones the first is kept.  The inequality is evaluated
    exactly, on integers over a common power-of-two denominator."""
    values = [Fraction(v) for c in cones for v in (c.offset, *c.center)]
    den = max(v.denominator for v in values)
    ints = np.array([int(v * den) for v in values], dtype=object).reshape(len(cones), -1)
    o, A = sign * ints[:, 0], ints[:, 1:]
    K = len(cones)
    d = np.abs(A[:, None, :] - A[None, :, :]).max(axis=2, initial=0)
    le = (o[:, None] + d <= o[None, :]).astype(bool) & ~np.eye(K, dtype=bool)
    beats = le & (~le.T | np.triu(np.ones((K, K), dtype=bool), k=1))
    return tuple(c for c, beaten in zip(cones, beats.any(axis=0)) if not beaten)


@st.composite
def _cone_groups(draw):
    """One axis and direction's cones in hat dimension 1-3: dyadic centres
    on a coarse grid, offsets either free or on a slope-1 edge of an
    earlier cone (so that cones tie exactly), and repeated cones."""
    dim = draw(st.integers(1, 3))
    sign = draw(st.sampled_from((1, -1)))
    quarter = st.integers(-8, 8).map(lambda v: v / 4)
    cones = []
    for _ in range(draw(st.integers(1, 40))):
        c = tuple(draw(st.lists(quarter, min_size=dim, max_size=dim)))
        kind = draw(st.sampled_from(("free", "edge", "repeat"))) if cones else "free"
        if kind == "free":
            cones.append(DistCone(c, draw(quarter), 1.0, sign))
            continue
        base = draw(st.sampled_from(cones))
        if kind == "repeat":
            cones.append(DistCone(base.center, base.offset, 1.0, sign))
            continue
        slack = draw(st.sampled_from((0.0, 0.25, -0.25)))
        d = max(abs(a - b) for a, b in zip(c, base.center))
        cones.append(DistCone(c, base.offset + sign * (d + slack), 1.0, sign))
    return cones, sign, draw(st.sampled_from((64, 256, 1024, metric._SCRATCH_BYTES)))


# cluster bases of the hat-dimension-1 groups: small, both sides of the
# sweep's bound (2**1022 on max|o| + max|c|), and the largest floats
_BASES = (0.0, 1.0, 2.0 ** 1021, 4e307, 1e308, 1.7976931348623157e308)


@st.composite
def _line_groups(draw):
    """One axis and direction's cones in hat dimension 1.  Centres cluster
    around one base and offsets around another (either sign, signed zeros
    kept), in steps of a subnormal, a quarter or the base's ulp; offsets
    are free, on a slope-1 edge of an earlier cone (exact ties where the
    sum rounds exactly), or repeat a cone.  Each cluster is narrow, so the
    blocked filter's differences stay finite."""
    sign = draw(st.sampled_from((1, -1)))

    def cluster():
        base = draw(st.sampled_from(_BASES)) * draw(st.sampled_from((1.0, -1.0)))
        unit = draw(st.sampled_from((5e-324, 0.25, math.ulp(base))))
        return base, unit

    def near(base, unit):
        k = draw(st.integers(-4, 4))
        v = base + k * unit if k else base
        return v if math.isfinite(v) else base

    c_at, o_at = cluster(), cluster()
    cones = []
    for _ in range(draw(st.integers(1, 40))):
        c = (near(*c_at),)
        kind = draw(st.sampled_from(("free", "edge", "repeat"))) if cones else "free"
        if kind == "repeat":
            base = draw(st.sampled_from(cones))
            cones.append(DistCone(base.center, base.offset, 1.0, sign))
            continue
        o = near(*o_at)
        if kind == "edge":
            base = draw(st.sampled_from(cones))
            slack = draw(st.sampled_from((0.0, o_at[1], -o_at[1])))
            o = base.offset + sign * (abs(c[0] - base.center[0]) + slack)
        if math.isfinite(o):
            cones.append(DistCone(c, o, 1.0, sign))
    return cones, sign


def _families(Q):
    """Each bound's cones (upper bounds first), or the bound itself."""
    return [b.children if isinstance(b, (Min, Max)) else b for b in Q.upper + Q.lower]


def _keep_all(C, o, sign):
    return np.ones(o.size, dtype=bool)


def _bench_grid(per_unit, shape):
    """Inside and outside samples, and the grid, of a shape on the grid of
    step ``1/per_unit`` over [-1, 3]^2 (as the benchmark builds them)."""
    count = 4 * per_unit
    idx = [(i, j) for i in range(count + 1) for j in range(count + 1)]
    grid = tuple((-1.0 + i / per_unit, -1.0 + j / per_unit) for i, j in idx)
    inside = tuple(p for p, ij in zip(grid, idx) if shape(*ij))
    outside = tuple(p for p, ij in zip(grid, idx) if not shape(*ij))
    return inside, outside, grid


def _square_shape(s):
    return lambda i, j: s <= i <= 2 * s and s <= j <= 2 * s


def _step_shape(s):
    def inside(i, j):
        a, b = i - s, j - s
        return 0 <= a <= 2 * s and 0 <= b <= 2 * s and a <= s + min(b, s)
    return inside


def _ell_shape(i0, j0, W, t, flip_a, flip_b, swap):
    """An L with its inner corner cut at slope 1, as in the benchmark."""
    def inside(i, j):
        a, b = i - i0, j - j0
        if swap:
            a, b = b, a
        if flip_a:
            a = W - a
        if flip_b:
            b = W - b
        return 0 <= a <= W and 0 <= b <= W and a <= t + min(b, W - t)
    return inside


_SHAPES = {
    "square": _square_shape(8),
    "step": _step_shape(8),
    "ell": _ell_shape(5, 9, 13, 4, True, False, False),
    "ell-swapped": _ell_shape(10, 4, 14, 5, False, True, True),
}


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

    def test_rounding_residue_margin_is_an_input_error(self):
        # a 3-D L on the step-1/3 grid: (5/3, 1/3, 1/3) is metrically between
        # inside samples, but its margin reads 2.2e-16 instead of 0, and
        # 0.1 * eps vanishes against the point's coordinate
        side = [(i - 3) / 3 for i in range(13)]
        pts = [(u, v, w) for u in side for v in side for w in side]
        inside = [p for p in pts if min(p) >= 0.0 and max(p) <= 2.0
                  and not (p[0] > 1.5 and p[1] < 0.5)]
        outside = [p for p in pts if p not in set(inside)]
        x = (5 / 3, 1 / 3, 1 / 3)
        eps, _ = epsilon_many(inside, [x])
        assert 0.0 < eps[0] < 1e-15
        with pytest.raises(ValueError) as err:
            synthesize_bounds(ReconstructionConfig(inside, outside, a=0.1))
        assert str(err.value) == (f"margin {float(eps[0])!r} of {x} is not positive beyond "
                                  f"rounding: the apex of its cone rounds onto the point")

    @pytest.mark.parametrize("a", [1e-17, 1e-320])
    def test_a_pullback_that_vanishes_names_a(self, a):
        """The margin 4.0 is positive; what rounds away is a * margin."""
        inside = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
        assert epsilon_many(inside, [(3.0, 3.0)])[0].tolist() == [4.0]
        with pytest.raises(ValueError) as err:
            synthesize_bounds(ReconstructionConfig(inside, ((3.0, 3.0),), a=a))
        assert str(err.value) == (
            f"a = {a!r} is too small for the margin 4.0 of (3.0, 3.0): a * margin = "
            f"{a * 4.0!r} vanishes against the point, so the apex of its cone rounds onto it")

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

    @pytest.mark.parametrize("bad", ["0.1", b"1", True, np.True_, math.nan], ids=repr)
    def test_a_that_is_no_number_is_refused_by_the_number_reader(self, bad):
        """A string, bytes or a boolean ``a`` is no number and a NaN is not
        finite: the config and ``choose_cone`` refuse each with the one
        message of ``metric._positive``, where the config raised Python's
        ``TypeError`` on a string and ``choose_cone`` numpy's, and both read
        a boolean as 0 or 1."""
        calls = (lambda: ReconstructionConfig(((0.0, 0.0),), ((2.0, 0.0),), a=bad),
                 lambda: choose_cone((1.0, 0.0), (0.0, 0.0), 1.0, bad))
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"a must be finite and positive, got {bad!r}"

    def test_a_above_its_range_keeps_the_range_message(self):
        for bad in (0.125, 0.2, np.float32(0.5), Fraction(1, 2)):
            with pytest.raises(ValueError) as err:
                ReconstructionConfig(((0.0, 0.0),), ((2.0, 0.0),), a=bad)
            assert str(err.value) == f"a must lie strictly between 0 and 0.125, got {bad!r}"

    def test_a_of_any_number_type_is_kept_as_a_float(self):
        for a in (np.float32(0.0625), Fraction(1, 16), np.float64(0.0625)):
            cfg = ReconstructionConfig(((0.0, 0.0),), ((2.0, 0.0),), a=a)
            assert type(cfg.a) is float and cfg.a == 0.0625

    def test_dimension_consistency(self):
        with pytest.raises(ValueError):
            ReconstructionConfig(((0.0, 0.0), (1.0,)), ())

    # each bad sample, alone or after a non-finite earlier one: the message
    # names the first offender in inside-then-outside order, and an inside
    # sample of mixed dimensions is refused before the outside one is read
    @pytest.mark.parametrize("inside, outside, exc, message", [
        (((0.0, float("inf")),), (), ValueError, "point coordinates must be finite, got inf"),
        (((0.0, 0.0),), ((1.0, 2.0), (float("nan"), 0.0)), ValueError,
         "point coordinates must be finite, got nan"),
        (((0.0, 0.0), (1.0,)), ((0.0, -np.inf),), ValueError, "mixed point dimensions [1, 2]"),
        (((0.0, 0.0), (1.0,)), (), ValueError, "mixed point dimensions [1, 2]"),
        (((0.0, 0.0),), ((1.0, 2.0, 3.0),), ValueError, "mixed sample dimensions [2, 3]"),
        (((0.0, "x"),), (), ValueError, "could not convert string to float: 'x'"),
        (((0.0, 0.0),), ((None, 1.0),), TypeError,
         "float() argument must be a string or a real number, not 'NoneType'"),
        (((0.0, 0.0), 5), (), TypeError, "'int' object is not iterable"),
        (((10 ** 400, 0.0),), (), OverflowError, "int too large to convert to float"),
        ((), ((0.0, 0.0),), ValueError, "need at least one inside sample"),
    ])
    def test_bad_samples_keep_the_point_messages(self, inside, outside, exc, message):
        with pytest.raises(exc) as err:
            ReconstructionConfig(inside, outside)
        assert str(err.value) == message

    def test_samples_are_stored_as_tuples_of_floats(self):
        cfg = ReconstructionConfig(np.array([[0, 1], [-0.0, 2.5]]), [[True, 3]])
        assert cfg.inside == ((0.0, 1.0), (-0.0, 2.5))
        assert cfg.outside == ((1.0, 3.0),)
        for p in cfg.inside + cfg.outside:
            assert type(p) is tuple and all(type(c) is float for c in p)
        assert str(cfg.inside[1][0]) == "-0.0"

    def test_no_exterior_samples_add_no_dimension(self):
        for outside in ((), [], np.empty((0, 3))):
            cfg = ReconstructionConfig([[0.0, 1.0]], outside)
            assert cfg.outside == () and cfg._outside.shape == (0, 2)

    def test_the_converted_arrays_are_kept_read_only(self):
        """The arrays the samples were converted to once are what synthesis
        reads; the tuples read back hold their bits."""
        cfg = ReconstructionConfig([[0, 1], [-0.0, 2.5]], ())
        for name in ("inside", "outside"):
            S = getattr(cfg, f"_{name}")
            assert S.shape == (len(getattr(cfg, name)), 2) and not S.flags.writeable
            assert S.tobytes() == np.array(getattr(cfg, name), dtype=float).tobytes()


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_synthesis_reads_no_sample_tuples(self, n, rng, monkeypatch):
        """The config holds only its arrays, and a synthesis that succeeds
        reads them alone: it builds no tuple of sample points, and its
        cones are the reference's, bit for bit."""
        inside = rng.uniform(-1, 1, (12, n))
        outside = rng.uniform(-4, 4, (40, n))
        cfg = ReconstructionConfig(inside, outside[np.abs(outside).max(axis=1) > 1.5], a=0.05)
        assert not {"inside", "outside"} & set(vars(cfg))
        monkeypatch.setattr(reconstruct, "_nondominated", _keep_all)
        expected = json.dumps(set_to_obj(_reference_synthesis(cfg)))
        reads = []
        for name in ("inside", "outside"):
            monkeypatch.setattr(ReconstructionConfig, name,
                                property(lambda cfg, name=name: reads.append(name)))
        assert json.dumps(set_to_obj(synthesize_bounds(cfg))) == expected
        assert reads == []

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

    @pytest.mark.parametrize("tol", [math.nan, -1e-9, -math.inf, math.inf])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        """A NaN or negative ``tol`` would have the oracle reject the
        samples themselves, and the report list members as false outside;
        an infinite one would accept every point."""
        inside, outside, every = _square_samples(0.5)
        Q = synthesize_bounds(ReconstructionConfig(tuple(inside), tuple(outside)))
        message = f"tol must be finite and nonnegative, got {tol!r}"
        with pytest.raises(ValueError) as err:
            membership_from_samples(inside, tol=tol)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            verify_reconstruction(membership_from_samples(inside), Q, every, tol=tol)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            verify_reconstruction(lambda p: True, Q, [], tol=tol)
        assert str(err.value) == message

    def test_an_integer_answer_is_refused_not_read_as_indices(self):
        """Ones and zeros would index the grid: four false inside and four
        false outside, with repeated points."""
        class Numbers:
            def many(self, G):
                return np.array([1, 0, 1, 0])

        Q = synthesize_bounds(ReconstructionConfig(((0.0, 0.0),), ((2.0, 2.0),)))
        with pytest.raises(ValueError) as err:
            verify_reconstruction(Numbers(), Q, [[0, 0], [5, 5], [0, 0], [2, 2]])
        assert str(err.value) == f"the oracle answered dtype {np.array([1]).dtype}, not bool"

    def test_a_list_of_bools_is_read_as_a_mask(self):
        inside, outside, every = _square_samples(0.5)
        Q = synthesize_bounds(ReconstructionConfig(tuple(inside), tuple(outside)))
        truth = membership_from_samples(inside)

        class Listing:
            def many(self, G):
                return truth.many(G).tolist()

        report = verify_reconstruction(Listing(), Q, every)
        assert report == verify_reconstruction(truth, Q, every)
        assert report.ok and report.checked == len(every)

    def test_square16_check_builds_no_grid_wide_bound_table(self):
        """The benchmark's square at step 1/16: a bound is read at the 65
        distinct hat values of its axis, so no ``(cones, 4225)`` table is
        built (the largest bound's alone is 65 x 4225 floats, 2.2 MB).  The
        traced peak measured 1.62 MB, against 2.53 MB evaluating every row."""
        inside, outside, grid = _bench_grid(16, _square_shape(16))
        Q = synthesize_bounds(ReconstructionConfig(inside, outside, a=0.1))
        oracle = membership_from_samples(inside)
        report = verify_reconstruction(oracle, Q, grid)     # compiles the kernels
        tracemalloc.start()
        try:
            assert verify_reconstruction(oracle, Q, grid) == report
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and report.checked == len(grid)
        assert peak < 2_000_000


class TestPointSetIntake:
    """Samples, exterior rows, grids and oracle queries are all read by
    ``as_points``: ``as_point``'s refusals and one for mixed dimensions."""

    @pytest.mark.parametrize("rows, message", [
        ([["1", "2"]], "point coordinates must be numbers, got ('1', '2')"),
        ([(0.0, 0.0), (1.0,)], "mixed point dimensions [1, 2]"),
    ])
    def test_every_reader_refuses_bad_rows(self, rows, message):
        oracle = membership_from_samples([(0.0, 0.0)])
        Q = synthesize_bounds(ReconstructionConfig(((0.0, 0.0),), ((2.0, 2.0),)))
        for read in (lambda: epsilon_many([(0.0, 0.0)], rows),
                     lambda: epsilon_many(rows, [(3.0, 3.0)]),
                     lambda: verify_reconstruction(oracle, Q, rows),
                     lambda: verify_reconstruction(lambda p: True, Q, rows),
                     lambda: oracle.many(rows),
                     lambda: membership_from_samples(rows)):
            with pytest.raises(ValueError) as err:
                read()
            assert str(err.value) == message

    @pytest.mark.parametrize("inside, message", [
        ([], "need at least one inside sample"),
        (np.empty((0, 2)), "need at least one inside sample"),
        ([(0.0, 0.0), (1.0,)], "mixed point dimensions [1, 2]"),
    ])
    def test_an_oracle_needs_one_nonempty_sample(self, inside, message):
        """Refused when the oracle is made, so neither a call nor ``many``
        meets an empty or mixed sample."""
        for ask in (lambda: membership_from_samples(inside)((0.0, 0.0)),
                    lambda: membership_from_samples(inside).many([(0.0, 0.0)])):
            with pytest.raises(ValueError) as err:
                ask()
            assert str(err.value) == message

    def test_an_oracle_must_answer_once_per_grid_point(self):
        class OneAnswer:
            def many(self, G):
                return np.array([True])

        Q = synthesize_bounds(ReconstructionConfig(((0.0, 0.0),), ((2.0, 2.0),)))
        with pytest.raises(ValueError) as err:
            verify_reconstruction(OneAnswer(), Q, [[0, 0], [5, 5], [1, 1]])
        assert str(err.value) == "the oracle answered shape (1,) for 3 grid points"


class TestArrayPasses:
    """The array passes against the per-exterior-point reference."""

    @pytest.mark.parametrize("name", sorted(_SHAPES))
    def test_unpruned_cones_equal_the_reference(self, name, monkeypatch):
        inside, outside, _ = _bench_grid(8, _SHAPES[name])
        cfg = ReconstructionConfig(inside, outside, a=0.1)
        monkeypatch.setattr(reconstruct, "_nondominated", _keep_all)
        Q = synthesize_bounds(cfg)
        ref = _reference_synthesis(cfg)
        assert Q == ref
        # same offset bits, signed zeros included, in the same order
        assert [json.dumps(expr_to_obj(b)) for b in Q.upper + Q.lower] == \
            [json.dumps(expr_to_obj(b)) for b in ref.upper + ref.lower]

    @pytest.mark.parametrize("n", [1, 3])
    def test_unpruned_cones_in_other_dimensions(self, n, rng, monkeypatch):
        inside = tuple(tuple(v) for v in rng.uniform(-1, 1, (12, n)))
        outside = tuple(tuple(v) for v in rng.uniform(-4, 4, (40, n))
                        if np.abs(v).max() > 1.5)
        cfg = ReconstructionConfig(inside, outside, a=0.05)
        monkeypatch.setattr(reconstruct, "_nondominated", _keep_all)
        assert synthesize_bounds(cfg) == _reference_synthesis(cfg)

    def test_kernel_matches_the_reference_cone(self, rng):
        X = rng.uniform(-2, 2, (200, 3))
        W = rng.uniform(-2, 2, (200, 3))
        X[:20, 1] = X[:20, 0] + W[:20, 1] - W[:20, 0]   # ties between axes
        eps = rng.uniform(0.1, 1.0, 200)
        axis, sign, apex, ok = reconstruct._cones(X, W, eps, 0.05)
        assert ok.all()
        for j in range(200):
            cone = _reference_cone(tuple(X[j]), tuple(W[j]), float(eps[j]), 0.05)
            assert (cone.axis, cone.sign) == (axis[j], sign[j])
            assert cone.apex[cone.axis] == apex[j]
            assert cone == choose_cone(tuple(X[j]), tuple(W[j]), float(eps[j]), 0.05)

    @pytest.mark.parametrize("name", sorted(_SHAPES))
    def test_pruned_set_is_the_nondominated_subset(self, name):
        inside, outside, grid = _bench_grid(8, _SHAPES[name])
        cfg = ReconstructionConfig(inside, outside, a=0.1)
        Q = synthesize_bounds(cfg)
        ref = _reference_synthesis(cfg)
        signs = [1] * cfg.n + [-1] * cfg.n
        assert _families(Q) == [
            _exact_nondominated(f, s) if isinstance(f, tuple) else f
            for f, s in zip(_families(ref), signs)]
        assert sum(map(len, _families(Q))) < sum(map(len, _families(ref))) / 4
        G = np.asarray(grid)
        assert ((violation_many(Q, G) <= 1e-9) == (violation_many(ref, G) <= 1e-9)).all()

    def test_a_cone_ahead_only_after_rounding_is_kept(self):
        # 0.05625 + 0.0625 rounds to 0.11875, but exceeds it by ~7e-18 in
        # real arithmetic: the second cone is tighter at its centre
        C = np.array([[0.0], [0.0625], [0.125]])
        o = np.array([0.05625, 0.11875, 0.18125])
        assert 0.05625 + 0.0625 <= 0.11875
        assert Fraction(0.05625) + Fraction(0.0625) > Fraction(0.11875)
        assert reconstruct._nondominated(C, o, 1).tolist() == [True, True, False]
        assert reconstruct._nondominated(C, -o, -1).tolist() == [True, True, False]

    def test_identical_cones_keep_the_first(self):
        C = np.array([[1.0], [0.0], [1.0], [1.0]])
        o = np.array([2.0, 5.0, 2.0, 2.0])
        assert reconstruct._nondominated(C, o, 1).tolist() == [True, False, False, False]
        assert reconstruct._nondominated(C, o, -1).tolist() == [False, True, False, False]

    @given(_cone_groups())
    @settings(max_examples=300, deadline=None)
    def test_blocked_mask_equals_the_exact_rule(self, case):
        """With blocks of 1, 2, 4 or 128 cones the kept set spans many
        blocks; the mask is the exact pairwise rule's, duplicates and ties
        included.  The blocked filter is called directly, as hat dimension
        1 reaches it through ``_nondominated`` only past the sweep's bound."""
        cones, sign, block_bytes = case
        C = np.array([c.center for c in cones], dtype=float).reshape(len(cones), -1)
        o = np.array([c.offset for c in cones])
        with pytest.MonkeyPatch.context() as m:
            m.setattr(metric, "_SCRATCH_BYTES", block_bytes)
            keep = reconstruct._blocked_mask(C, sign * o)
        want = {id(c) for c in _exact_nondominated(cones, sign)}
        assert keep.tolist() == [id(c) in want for c in cones]

    @given(_line_groups())
    @settings(max_examples=400, deadline=None)
    def test_planar_mask_equals_the_exact_rule_and_the_blocked_filter(self, case):
        """In hat dimension 1 the mask is the exact pairwise rule's and the
        blocked filter's, whichever side of the sweep's bound the group
        lies on: ties, repeats, signed zeros, subnormals and the largest
        floats included."""
        cones, sign = case
        C = np.array([c.center for c in cones], dtype=float)
        o = np.array([c.offset for c in cones])
        keep = reconstruct._nondominated(C, o, sign).tolist()
        want = {id(c) for c in _exact_nondominated(cones, sign)}
        assert keep == [id(c) in want for c in cones]
        assert keep == reconstruct._blocked_mask(C, sign * o).tolist()

    @pytest.mark.parametrize("o, c", [
        ([0.0, -0.0, 5e-324, -5e-324], [-0.0, 0.0, 0.0, 5e-324]),
        ([2.0 ** 1021, 2.0 ** 1021 - 2.0 ** 969], [2.0 ** 1021 - 2.0 ** 969, 0.0]),
        ([-1.7976931348623157e308, -1e308], [1e308, 1e308]),
        ([1.0, 1.0], [1.7976931348623157e308, 1.7976931348623157e308]),
    ])
    def test_planar_edge_values(self, o, c):
        """Signed zeros and subnormals; a group just below the sweep's bound
        and groups at the largest floats, past it."""
        cones = [DistCone((ci,), oi, 1.0, 1) for oi, ci in zip(o, c)]
        for sign in (1, -1):
            C, O = np.array([c]).T, sign * np.array(o)
            want = {id(k) for k in _exact_nondominated(cones, 1)}
            assert reconstruct._nondominated(C, O, sign).tolist() == \
                [id(k) in want for k in cones]

    def test_planar_groups_skip_the_pairwise_filter(self, monkeypatch):
        """The step-1/16 square's synthesis makes no pairwise dominance
        test; a hat-dimension-1 group past the sweep's bound and a
        hat-dimension-2 group go through the blocked filter."""
        calls = []
        dominates = reconstruct._dominates

        def spy(*args):
            calls.append(args[0].shape)
            return dominates(*args)

        monkeypatch.setattr(reconstruct, "_dominates", spy)
        inside, outside, _ = _bench_grid(16, _square_shape(16))
        synthesize_bounds(ReconstructionConfig(inside, outside, a=0.1))
        assert calls == []
        o = np.array([1.0, 2.0, 1.2])
        assert reconstruct._nondominated(np.array([[0.0], [1.0], [0.25]]), o, 1).tolist() == \
            [True, False, True]
        assert calls == []
        assert reconstruct._nondominated(np.array([[1e308], [1e308], [1e308]]), o, 1).tolist() == \
            [True, False, False]
        assert calls and {shape[1] for shape in calls} == {1}
        calls.clear()
        C = np.array([[0.0, 0.0], [1.0, 0.0], [0.25, 3.0]])
        assert reconstruct._nondominated(C, o, 1).tolist() == [True, False, True]
        assert calls and {shape[1] for shape in calls} == {2}

    @pytest.mark.parametrize("inside, outside", [
        # margins: (1, 0) and (0.5, 0) lie between the two samples
        (((0.0, 0.0), (2.0, 0.0)),
         ((5.0, 5.0), (1.0, 0.0), (-3.0, 1.0), (0.5, 0.0))),
        # rounding: a * eps vanishes next to 1e17 for the middle two points
        (((1e17, 0.0),),
         ((1e17 + 64, 0.0), (1e17 + 16, 0.0), (1e17 + 32, 0.0), (1e17, 9.0))),
        # a margin lost in rounding ahead of a zero margin
        (((1e17, 0.0), (1e17 + 256, 0.0)),
         ((1e17 + 512, 4.0), (1e17 + 272, 0.0), (1e17 + 128, 0.0))),
    ])
    def test_errors_name_the_first_offender(self, inside, outside):
        cfg = ReconstructionConfig(inside, outside, a=0.1)
        with pytest.raises((ValueError, ArithmeticError)) as ref:
            _reference_synthesis(cfg)
        with pytest.raises(type(ref.value)) as got:
            synthesize_bounds(cfg)
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("outside", [
        ((3.0, 3.0), (-2.0, 0.5), (0.5, -2.5), (2.5, 0.5)),
        ((1.0, 1.0), (3.0, 3.0), (-2.0, 0.5), (0.0, 0.0)),
        ((-2.0, 0.5), (1.0, 1.0), (3.0, 3.0), (0.0, 0.0)),
    ])
    def test_overlaps_name_the_first_offender(self, outside, monkeypatch):
        """Margins inflated tenfold push every cone onto inside samples; an
        exterior point that is also a sample still fails on its margin."""
        inside = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
        margins = reconstruct.epsilon_many

        def inflated(inside, X, chunk=64):
            eps, arg = margins(inside, X, chunk)
            return 10.0 * eps, arg

        monkeypatch.setattr(reconstruct, "epsilon_many", inflated)
        cfg = ReconstructionConfig(inside, outside, a=0.1)
        with pytest.raises((ValueError, ConeOverlapError)) as ref:
            _reference_synthesis(cfg)
        with pytest.raises(type(ref.value)) as got:
            synthesize_bounds(cfg)
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value)
        if isinstance(ref.value, ConeOverlapError):
            assert got.value.exterior == ref.value.exterior
            assert got.value.inside == ref.value.inside

    def test_overlap_error_carries_plain_floats(self, monkeypatch):
        """The overlap error names both points as tuples of Python floats,
        in its message and in its attributes."""
        margins = reconstruct.epsilon_many

        def inflated(inside, X, chunk=64):
            eps, arg = margins(inside, X, chunk)
            return 10.0 * eps, arg

        monkeypatch.setattr(reconstruct, "epsilon_many", inflated)
        inside = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
        with pytest.raises(ConeOverlapError) as got:
            synthesize_bounds(ReconstructionConfig(inside, ((3.0, 3.0),), a=0.1))
        assert str(got.value) == \
            "cone of exterior point (3.0, 3.0) contains inside sample (1.0, 1.0)"
        assert got.value.exterior == (3.0, 3.0)
        assert got.value.inside == (1.0, 1.0)
        assert {type(c) for c in got.value.exterior + got.value.inside} == {float}

    @pytest.mark.parametrize("name", ["square", "step"])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_margins_do_not_depend_on_the_block_size(self, name, rows, monkeypatch):
        """Blocks of 1 or 7 exterior rows give the reference's bits.  A
        row's candidates p are never split: every block holds whole rows
        of distances to the whole sample."""
        inside, outside, _ = _bench_grid(8, _SHAPES[name])
        outside = outside[::3]
        eps, arg = epsilon_many(inside, outside)
        ref_eps, ref_arg = _reference_margins(inside, outside)
        seen = []
        search = reconstruct._search

        def spy(dx, *args):
            seen.append(dx.shape)
            return search(dx, *args)

        monkeypatch.setattr(reconstruct, "_search", spy)
        monkeypatch.setattr(metric, "_SCRATCH_BYTES", 32 * len(inside) * rows)
        block_eps, block_arg = epsilon_many(inside, outside)
        assert seen == [(min(rows, len(outside) - r), len(inside))
                        for r in range(0, len(outside), rows)]
        for e, a in ((eps, arg), (block_eps, block_arg)):
            assert e.tobytes() == ref_eps.tobytes()
            assert (a == ref_arg).all()


def _spy_fallback(monkeypatch):
    """The row counts of the blocks the lead step leaves to the pruned
    search, one per call."""
    seen = []
    pruned = reconstruct._pruned

    def spy(dx, *args):
        seen.append(dx.shape[0])
        return pruned(dx, *args)

    monkeypatch.setattr(reconstruct, "_pruned", spy)
    return seen


def _assert_reference_margins(inside, outside):
    eps, arg = epsilon_many(inside, outside)
    ref_eps, ref_arg = _reference_margins(inside, outside, chunk=8)
    assert eps.tobytes() == ref_eps.tobytes()
    assert (arg == ref_arg).all()


class TestPrunedSearch:
    """The witness search (the lead step and the pruned search behind it)
    against the all-candidates reference, and the batch membership oracle
    against the per-point test."""

    def test_square_at_step_one_sixteenth(self, monkeypatch):
        """The benchmark's shape: the lead step settles every row."""
        fallback = _spy_fallback(monkeypatch)
        inside, outside, _ = _bench_grid(16, _square_shape(16))
        eps, arg = epsilon_many(inside, outside)
        ref_eps, ref_arg = _reference_margins(inside, outside, chunk=4)
        assert eps.tobytes() == ref_eps.tobytes()
        assert (arg == ref_arg).all()
        assert fallback == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_samples_settled_or_passed_on(self, n, rng, monkeypatch):
        """Samples off any grid: the lead step settles some rows and passes
        the others on, and both give the reference's bits."""
        fallback = _spy_fallback(monkeypatch)
        sizes = (1, 2, 30, 150)
        for S in sizes:
            inside = rng.normal(size=(S, n))
            outside = rng.normal(scale=2.0, size=(200, n))
            _assert_reference_margins(inside, outside)
        assert 0 < sum(fallback) < 200 * len(sizes)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_samples_listed_twice(self, n, rng):
        """Every nearest distance is taken twice, so the lead's first and
        last anchors differ."""
        for S in (1, 30, 150):
            inside = rng.normal(size=(S, n))
            inside = np.concatenate([inside, inside])[rng.permutation(2 * S)]
            outside = np.concatenate([rng.normal(scale=2.0, size=(200, n)), inside[:5]])
            _assert_reference_margins(inside, outside)

    def test_one_row_blocks(self, rng, monkeypatch):
        """One row per block, in the lead step and in the pruned search."""
        inside = rng.normal(size=(40, 3))
        outside = rng.normal(scale=2.0, size=(60, 3))
        monkeypatch.setattr(metric, "_SCRATCH_BYTES", 1)
        fallback = _spy_fallback(monkeypatch)
        _assert_reference_margins(inside, outside)
        assert fallback and set(fallback) == {1}

    def test_scratch_stays_within_two_blocks(self, rng):
        """Past the table of inside distances, the search holds at most two
        blocks of scratch, also when most rows fall through: the lead's
        tables are freed before the pruned search's table is made."""
        inside = rng.normal(size=(300, 3))
        outside = rng.normal(scale=2.0, size=(2000, 3))
        tracemalloc.start()
        try:
            epsilon_many(inside, outside)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 300 ** 2 + 2 * metric._SCRATCH_BYTES

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_integer_lattice_with_duplicate_samples(self, n, rng):
        """Ties everywhere: integer points, each inside sample listed
        twice in a shuffled order, exterior points on the same lattice
        (some of them samples, with margin 0); eight draws per dimension."""
        side = {1: 12, 2: 6, 3: 4, 4: 3}[n]
        for _ in range(8):
            inside = rng.integers(0, side, (40, n)).astype(float)
            inside = np.concatenate([inside, inside])[rng.permutation(80)]
            outside = rng.integers(-2, side + 2, (300, n)).astype(float)
            eps, arg = epsilon_many(inside, outside)
            ref_eps, ref_arg = _reference_margins(inside, outside, chunk=8)
            assert eps.tobytes() == ref_eps.tobytes()
            assert (arg == ref_arg).all()
            assert (eps == 0.0).any() and (eps > 0.0).any()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lattice_rows_with_many_tied_nearest_samples(self, n, monkeypatch):
        """The lattice {-0.0, 1, 2, 3}^n inside, and the exterior points of
        {-2, ..., 5}^n (0 as -0.0) that have three or more inside samples
        at their least distance: the lead step settles every row, with the
        reference's margins and witnesses.  They stay the reference's when
        each sample is listed again, with +0.0 for -0.0, in a shuffled
        order, so that the first and last nearest samples differ."""
        lattice = np.array(list(itertools.product([-0.0, 1.0, 2.0, 3.0], repeat=n)))
        span = np.array(list(itertools.product([-2.0, -1.0, -0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                                               repeat=n)))
        dx = sup_dists(span, lattice)
        ties = (dx == dx.min(axis=1, keepdims=True)).sum(axis=1)
        outside = span[(dx.min(axis=1) > 0.0) & (ties >= 3)]
        assert outside.shape[0] >= 24 and ties.max() >= 4
        assert np.signbit(lattice).any() and np.signbit(outside).any()
        fallback = _spy_fallback(monkeypatch)
        _assert_reference_margins(lattice, outside)
        assert fallback == []
        twice = np.concatenate([lattice, lattice + 0.0])
        assert not np.signbit(twice[len(lattice):]).any()
        _assert_reference_margins(twice[np.random.default_rng(n).permutation(len(twice))],
                                  outside)

    @pytest.mark.parametrize("inside, outside, message", [
        ([(0.0, np.nan)], [(1.0, 1.0)], "must be finite"),
        ([(0.0, 0.0)], [(np.inf, 1.0)], "must be finite"),
        ([(0.0, 0.0), (1.0, 1.0)], [(1.0, 1.0), (-np.inf, np.nan)], "must be finite"),
        ([(-1e308, 0.0)], [(1e308, 0.0)], "too far apart"),
    ])
    def test_non_finite_input_is_refused(self, inside, outside, message):
        with pytest.raises(ValueError, match=message):
            epsilon_many(inside, outside)

    @pytest.mark.parametrize("chunk", [0, -5])
    def test_chunk_below_one_is_refused(self, chunk):
        """Not left to ``range`` (a zero step) or to unwritten rows (a
        negative one)."""
        P, X = [[0.0, 0.0], [1.0, 0.0]], [[3.0, 3.0], [5.0, 1.0]]
        eps, arg = epsilon_many(P, X, chunk=1)
        assert (eps.tolist(), arg.tolist()) == ([5.0, 8.0], [0, 0])
        with pytest.raises(ValueError) as err:
            epsilon_many(P, X, chunk=chunk)
        assert str(err.value) == f"chunk must be at least 1, got {chunk}"

    @pytest.mark.parametrize("tol", [1e-9, 0.25, 0.0])
    def test_batch_oracle_matches_the_per_point_test(self, tol):
        """On a grid of step 1/8 around samples on a grid of step 1/4, and
        on points placed exactly ``tol`` (and one ulp beyond) from a sample."""
        def per_point(x):
            return bool((np.abs(P - np.asarray(x)).max(axis=1) <= tol).any())

        inside = [(i / 4, j / 4) for i in range(5) for j in range(5) if (i + j) % 3]
        P = np.asarray(inside)
        grid = [(i / 8, j / 8) for i in range(-3, 12) for j in range(-3, 12)]
        for x, y in inside[::4]:
            grid += [(x + tol, y), (x, y - tol), (x + tol, y + tol),
                     (np.nextafter(x + tol, np.inf), y)]
        oracle = membership_from_samples(inside, tol=tol)
        want = [per_point(g) for g in grid]
        assert oracle.many(np.asarray(grid)).tolist() == want
        assert [oracle(g) for g in grid] == want
        assert any(want) and not all(want)

    @pytest.mark.parametrize("inside, point, n, m", [
        ([(0, 0)], (0.0,), 1, 2),
        ([(0,)], (0.0, 5.0), 2, 1),
        ([(0, 0), (1, 1)], (0.0, 0.0, 0.0), 3, 2),
    ])
    def test_points_of_another_dimension_are_refused(self, inside, point, n, m):
        """Not answered from the shared coordinates, nor by an
        ``IndexError``: by one call and by ``many``."""
        oracle = membership_from_samples(inside)
        for ask in (lambda: oracle(point), lambda: oracle.many(np.array([point]))):
            with pytest.raises(ValueError) as err:
                ask()
            assert str(err.value) == f"dimension mismatch: {n} vs {m}"

    def test_oracles_are_asked_once_per_batch(self):
        """A batch oracle is asked once by the verification; a plain
        callable is asked about every point."""
        inside, outside, every = _square_samples(0.25)
        truth = membership_from_samples(inside)

        class Counting:
            calls = 0

            def __call__(self, x):
                raise AssertionError("asked about one point")

            def many(self, G):
                self.calls += 1
                return truth.many(G)

        oracle = Counting()
        cfg = ReconstructionConfig(tuple(inside), tuple(outside))
        report = verify_reconstruction(oracle, synthesize_bounds(cfg), every)
        assert oracle.calls == 1
        assert report.ok and report.checked == len(every)
        asked = []
        plain = verify_reconstruction(lambda p: asked.append(p) or truth(p),
                                      synthesize_bounds(cfg), every)
        assert plain == report
        assert asked == [tuple(map(float, p)) for p in every]


def _unfiltered_overlap(P, X, axis, sign, apex):
    """``_first_overlap`` without the sample's box: every cone against every
    sample, one exterior row at a time."""
    with np.errstate(over="ignore"):
        for j in range(len(X)):
            c = X[j].copy()
            c[axis[j]] = apex[j]
            hits = _reference_hits(ConeDescriptor(tuple(c), int(axis[j]), int(sign[j])), P)
            if hits.any():
                return j, int(np.argmax(hits))
    return None


def _unfiltered_membership(P, G, tol):
    """The oracle's mask without the sample's box: a distance row for
    every point."""
    return (sup_dists(G, P) <= tol).any(axis=1)


# coordinates on a coarse grid, signed zeros, a subnormal and the largest
# floats, whose differences overflow
_FILTER_VALUES = st.one_of(
    st.integers(-8, 8).map(lambda v: v / 4),
    st.sampled_from((0.0, -0.0, 5e-324, 1e308, -1e308,
                     1.7976931348623157e308, -1.7976931348623157e308)))


def _rows(draw, count, n):
    return np.array(draw(st.lists(st.lists(_FILTER_VALUES, min_size=n, max_size=n),
                                  min_size=count, max_size=count)), dtype=float).reshape(count, n)


def _near(draw, v, step):
    """``v``, or ``v`` one ulp (or ``step``) to either side, kept finite."""
    v = float(v)
    w = draw(st.sampled_from((v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf),
                              v + step, v - step)))
    return w if math.isfinite(w) else v


@st.composite
def _overlap_cases(draw):
    """A sample and cones in dimension 1-4, with apexes on, or one ulp
    beside, the sample's largest and smallest coordinate of their axis."""
    n = draw(st.integers(1, 4))
    P = _rows(draw, draw(st.integers(1, 6)), n)
    count = draw(st.integers(1, 8))
    X = _rows(draw, count, n)
    axis = np.array(draw(st.lists(st.integers(0, n - 1), min_size=count, max_size=count)))
    sign = np.array(draw(st.lists(st.sampled_from((1, -1)), min_size=count, max_size=count)))
    apex = np.empty(count)
    for j in range(count):
        col = P[:, axis[j]]
        edge = draw(st.sampled_from((col.max(), col.min(), -col.max(), -col.min())))
        apex[j] = draw(st.one_of(_FILTER_VALUES, st.just(_near(draw, edge, 0.25))))
    return P, X, axis, sign, apex


@st.composite
def _membership_cases(draw):
    """A sample in dimension 1-4 and points that sit, on one axis, at or
    one ulp beside ``tol`` past the sample's box."""
    n = draw(st.integers(1, 4))
    P = _rows(draw, draw(st.integers(1, 6)), n)
    tol = draw(st.sampled_from((0.0, 1e-9, 0.25, 1.0, 1e308)))
    G = np.concatenate([_rows(draw, draw(st.integers(0, 6)), n), P[:draw(st.integers(0, 2))]])
    for g in G:
        k = draw(st.integers(0, n - 1))
        top, bottom = float(P[:, k].max()), float(P[:, k].min())
        edge = draw(st.sampled_from((top + tol, bottom - tol, top, bottom, g[k])))
        g[k] = _near(draw, edge if math.isfinite(edge) else g[k], tol)
    return P, G, tol


class TestBoxFilters:
    """The sample's box settles cones and oracle rows exactly: the
    filtered passes against their unfiltered forms."""

    @given(_overlap_cases())
    @settings(max_examples=400, deadline=None)
    def test_first_overlap_equals_the_unfiltered_test(self, case):
        P, X, axis, sign, apex = case
        assert reconstruct._first_overlap(P, X, axis, sign, apex) == \
            _unfiltered_overlap(P, X, axis, sign, apex)

    @given(_membership_cases())
    @settings(max_examples=400, deadline=None)
    def test_oracle_mask_equals_the_unfiltered_mask(self, case):
        P, G, tol = case
        oracle = membership_from_samples(P, tol=tol)
        assert oracle.many(G).tolist() == _unfiltered_membership(P, G, tol).tolist()

    @pytest.mark.parametrize("tol", [0.0, 0.25])
    def test_apex_and_points_on_the_box(self, tol):
        """A cone whose apex is the sample's top (or bottom) coordinate
        holds the sample point there, signed zeros included; one ulp
        beyond, none.  A point exactly ``tol`` past the box is a member;
        one ulp beyond, not."""
        P = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, -0.0]])
        # per cone: its axis, sign, apex coordinate, the exterior point's
        # other coordinate, and the sample it holds
        for i, s, a, other, q in ((0, 1, 1.0, 1.0, 1), (0, -1, 0.0, 0.0, 0),
                                  (1, 1, 1.0, 1.0, 1), (1, -1, -0.0, 0.5, 2)):
            X = np.array([[other, other]])
            for apex, want in ((a, (0, q)), (math.nextafter(a, s * math.inf), None)):
                cone = (np.array([i]), np.array([s]), np.array([apex]))
                assert reconstruct._first_overlap(P, X, *cone) == want == \
                    _unfiltered_overlap(P, X, *cone)
        G = np.array([[1.0 + tol, 1.0], [math.nextafter(1.0 + tol, 2.0), 1.0],
                      [0.5, -tol], [0.5, math.nextafter(-tol, -1.0)]])
        oracle = membership_from_samples(P, tol=tol)
        assert oracle.many(G).tolist() == [True, False, True, False] == \
            _unfiltered_membership(P, G, tol).tolist()

    @pytest.mark.parametrize("shape", ["square16", "box16", "ell16"])
    def test_rows_the_box_leaves(self, shape, monkeypatch):
        """On a box sampled at every grid point every cone lies past the
        sample's box, so the overlap check takes no distance row, and the
        oracle takes one for each grid point within ``tol`` of the box:
        the inside samples.  An L's check tests some of its cones, and its
        oracle also measures the grid points of its notch."""
        box, ell = _seeded_pin_shapes()
        shapes = {"square16": _square_shape(16), "box16": box, "ell16": ell}
        inside, outside, grid = _bench_grid(16, shapes[shape])
        cfg = ReconstructionConfig(inside, outside, a=0.1)
        P, X = cfg._inside, cfg._outside
        eps, arg = epsilon_many(P, X)
        cones = reconstruct._cones(X, P[arg], eps, cfg.a)[:3]
        asked = []
        dists = reconstruct.sup_dists

        def spy(A, B):
            asked.append(A.copy())
            return dists(A, B)

        monkeypatch.setattr(reconstruct, "sup_dists", spy)
        assert reconstruct._first_overlap(P, X, *cones) is None
        tested = sum(map(len, asked))
        asked.clear()
        members = set(inside)
        mask = membership_from_samples(inside).many(np.asarray(grid))
        assert mask.tolist() == [g in members for g in grid]
        measured = sorted(map(tuple, np.concatenate(asked).tolist()))
        if shape == "ell16":
            assert 0 < tested < len(X)
            assert members < set(measured) and len(measured) < len(grid) / 10
        else:
            assert tested == 0
            assert measured == sorted(inside)


def _seeded_pin_shapes():
    """A box and a cut L on the step-1/16 grid, placed by a fixed seed as
    the benchmark places its shapes."""
    rng = np.random.default_rng(2020)
    w, h = (int(v) for v in rng.integers(6, 12, 2))
    i0, j0 = (int(v) for v in rng.integers(4, 60 - max(w, h), 2))
    W = int(rng.integers(8, 12))
    t = W // 3
    l0, m0 = (int(v) for v in rng.integers(4, 60 - W, 2))
    flips = [bool(v) for v in rng.integers(0, 2, 3)]
    return ((lambda i, j: i0 <= i <= i0 + w and j0 <= j <= j0 + h),
            _ell_shape(l0, m0, W, t, *flips))


def _synthesis_digest(case):
    """sha256 of the synthesized set's JSON form and of its verification
    report on the whole grid."""
    box, ell = _seeded_pin_shapes()
    per_unit, shape = {"square16": (16, _square_shape(16)), "box16": (16, box),
                       "ell16": (16, ell), "step8": (8, _step_shape(8))}[case]
    inside, outside, grid = _bench_grid(per_unit, shape)
    Q = synthesize_bounds(ReconstructionConfig(inside, outside, a=0.1))
    report = verify_reconstruction(membership_from_samples(inside), Q, grid)
    blob = json.dumps([set_to_obj(Q), report.checked, report.false_inside,
                       report.false_outside], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class TestOutputPins:
    """The bytes of the synthesized sets and their reports are pinned: a
    faster synthesis must give exactly these."""

    @pytest.mark.parametrize("case, digest", [
        ("square16", "78633891dd892a4102d1d8da3c10fa1cf7e0294dab09058855c5d73c4120a323"),
        ("box16", "b3a27dd5cc13bd07efc1e9cdbe622277d10347a71deaf8a5dc5ad1b12c971334"),
        ("ell16", "fea6c76c6e9bde30f920c0ce0f83a340fb425d549fde6af5d9c757481c7a92a5"),
        ("step8", "074aa8c4387da16753692b0979ef5198b67b4112c471418b8d40ffb278b37382"),
    ])
    def test_synthesis_bytes(self, case, digest):
        assert _synthesis_digest(case) == digest
