"""Tests for the sup-norm primitives and finite metric spaces."""

import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hyperlip.boxset import BoxLipschitzSet, cyclic_iterate
from hyperlip import metric
from hyperlip.lipfun import Const, Infinite
from hyperlip.metric import (
    ConeDescriptor,
    FiniteMetricSpace,
    as_point,
    as_points,
    check_metric_axioms,
    cone_contains,
    hat,
    hausdorff_distance,
    sup_dist,
    sup_dists,
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


def _table(rows):
    return np.array(rows, dtype=float)


_GRID = np.random.default_rng(7).uniform(-5.0, 5.0, (5, 3))
# rows a conversion could get wrong, each as a maker of fresh input, so that
# generators are consumed once per use
HOSTILE = {
    "floats": lambda: [[1.0, 2.0], [3.0, 4.5]],
    "tuples": lambda: ((0.5,), (-0.25,)),
    "ragged": lambda: [(1.0,), (1.0, 2.0)],
    "ragged after a point": lambda: [[1.0, 2.0], [3.0]],
    "ragged with an empty point": lambda: [(), (1.0,)],
    "ragged three ways": lambda: [[0.0, 1.0, 2.0], [3.0], []],
    "ragged generator": lambda: (p for p in ((), (1.0,))),
    "scalar row": lambda: [[1.0], 5],
    "scalar rows": lambda: [1.0, 2.0],
    "one scalar": lambda: 3.0,
    "nested too deep": lambda: [[[1.0]], [[2.0]]],
    "zero-dimensional points": lambda: [(), ()],
    "one zero-dimensional point": lambda: [[]],
    "zero-dimensional array": lambda: np.empty((3, 0)),
    "empty list": lambda: [],
    "empty tuple": lambda: (),
    "empty array": lambda: np.empty((0, 2)),
    "ints above 2**53": lambda: [[2 ** 53 + 1, 2 ** 63 - 1], [-(2 ** 63), 3]],
    "ints above 2**64": lambda: [[2 ** 64 + 1, 1.0], [2 ** 63, -(2 ** 63) - 1]],
    "int too large": lambda: [[1.0, 10 ** 400]],
    "int array": lambda: np.arange(6, dtype=np.int64).reshape(3, 2) - 2 ** 62,
    "uint array": lambda: np.array([[2 ** 64 - 1, 2 ** 53 + 1]], dtype=np.uint64),
    "bools": lambda: [[True, False], [False, 2]],
    "bool array": lambda: np.array([[True], [False]]),
    "numeric strings": lambda: [["1.5", "-2"], [" 1e3 ", "1_0"]],
    "string points": lambda: ["12", "34"],
    "bytes": lambda: [[b"1.5", b"2"]],
    "string array": lambda: np.array([["0.1", "-0.0"]]),
    "bad string": lambda: [[0.0, "x"]],
    "hex string": lambda: [["0x10"]],
    "inf string": lambda: [["1.0", "-inf"]],
    "signed zeros": lambda: [[0.0, -0.0], [-0.0, 0.0]],
    "signed zero array": lambda: np.array([[-0.0, 0.0]]),
    "largest floats": lambda: [[1e308, -1e308], [1.7976931348623157e308, -5e-324]],
    "fractions and decimals": lambda: [[Fraction(1, 3), Decimal("0.1")], [Fraction(-2, 7), 1]],
    "None": lambda: [[None, 1.0]],
    "complex": lambda: [[1 + 1j, 0.0]],
    "complex array": lambda: np.array([[1 + 0j, 2 + 0j]]),
    "datetime array": lambda: np.array([["2020-01-01"]], dtype="datetime64[D]"),
    "timedelta array": lambda: np.array([[1, 2]], dtype="timedelta64[s]"),
    "float32 array": lambda: np.array([[0.1, 1e30], [-2.5, 3.0]], dtype=np.float32),
    "float16 array": lambda: np.array([[0.1, 65504.0]], dtype=np.float16),
    "longdouble array": lambda: np.array([[1.0, 3.0]], dtype=np.longdouble) / 7,
    "C array": lambda: np.ascontiguousarray(_GRID),
    "Fortran array": lambda: np.asfortranarray(_GRID),
    "strided array": lambda: np.repeat(_GRID, 2, axis=0)[::2, ::-1],
    "transposed array": lambda: _GRID.T.copy().T,
    "rows of arrays": lambda: list(_GRID),
    "generator of tuples": lambda: (tuple(r) for r in _GRID.tolist()),
    "generator of generators": lambda: ((c for c in r) for r in _GRID.tolist()),
    "list of generators": lambda: [(c for c in r) for r in _GRID.tolist()],
    "map object": lambda: map(tuple, _GRID.tolist()),
    "dict point": lambda: [{"a": 1}],
}
# a nan, inf or -inf at every position of a 3 x 2 table, as lists and arrays
for _bad in (math.nan, math.inf, -math.inf):
    for _i in range(3):
        for _j in range(2):
            def _make(bad=_bad, i=_i, j=_j, wrap=list):
                rows = [[0.5, -1.0], [2.0, 3.0], [-0.0, 4.0]]
                rows[i][j] = bad
                return wrap(rows)
            HOSTILE[f"{_bad} at {_i},{_j}"] = _make
            HOSTILE[f"{_bad} at {_i},{_j} in an array"] = lambda m=_make: m(wrap=_table)


# numbers that numpy reads in a shape other than rows of points
NOT_ROWS = {"scalar rows": (2,), "one scalar": (), "nested too deep": (2, 1, 1)}


def _per_point(rows):
    """The per-point loop ``as_points`` stands for: every point through
    ``as_point``, then one refusal of mixed dimensions, or one table."""
    pts = [as_point(p) for p in rows]
    dims = sorted({len(p) for p in pts})
    if len(dims) > 1:
        raise ValueError(f"mixed point dimensions {dims}")
    return _table(pts)


def _outcome(f, rows):
    """What ``f(rows)`` returns, or the type and text of what it raises."""
    try:
        return f(rows)
    except Exception as exc:        # noqa: BLE001 - the refusal is the result
        return type(exc), str(exc)


def _old_as_point(coords):
    """``as_point`` as it was first written, the reference for its faster
    form, with the refusal of strings and bytes that ``float`` reads as
    numbers."""
    raw = tuple(coords)
    pt = tuple(float(c) for c in raw)
    if any(isinstance(c, (str, bytes)) for c in raw):
        raise ValueError(f"point coordinates must be numbers, got {raw!r}")
    for c in pt:
        if not math.isfinite(c):
            raise ValueError(f"point coordinates must be finite, got {c!r}")
    return pt


class TestAsPoints:
    """``as_points`` against the per-point loop it replaces, on rows chosen
    to break a one-shot conversion."""

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_same_bytes_and_refusals_as_the_per_point_loop(self, name):
        make = HOSTILE[name]
        want = _outcome(_per_point, make())
        if name in NOT_ROWS:
            want = ValueError, f"expected rows of points, got shape {NOT_ROWS[name]}"
        got = _outcome(as_points, make())
        if isinstance(got, np.ndarray):
            assert got.dtype == np.float64 and got.ndim == 2
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray), got
            assert got.tobytes() == want.tobytes()
            assert got.shape == want.shape or got.size == want.size == 0
        else:
            assert not isinstance(got, np.ndarray) and got == want, got

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_as_point_matches_its_first_form(self, name):
        """Each point of the corpus, and each corpus taken as one point: the
        same tuple of floats, or the same refusal."""
        make = HOSTILE[name]
        pairs = [(make(), make())]
        if not isinstance(_outcome(iter, make()), tuple):
            pairs += zip(make(), make())
        for p, q in pairs:
            want, got = _outcome(_old_as_point, p), _outcome(as_point, q)
            assert got == want
            if not (got and isinstance(got[0], type)):
                assert all(type(c) is float for c in got)

    def test_an_array_is_converted_without_the_per_point_loop(self, monkeypatch):
        calls = []
        monkeypatch.setattr(metric, "as_point", lambda p: calls.append(p) or as_point(p))
        for rows in (_GRID, _GRID.tolist(), list(map(tuple, _GRID.tolist()))):
            A = as_points(rows)
            assert calls == [] and A.tobytes() == _GRID.tobytes()
            assert A is not rows and A.flags.writeable

    def test_the_first_bad_point_is_named(self):
        with pytest.raises(ValueError, match="got nan"):
            as_points([[0.0, 1.0], [math.nan, math.inf]])
        with pytest.raises(TypeError, match="'int' object is not iterable"):
            as_points([[0.0, 1.0], 5, [math.nan]])
        # a bad point is named before the dimensions are compared
        with pytest.raises(ValueError, match="got nan"):
            as_points([[0.0], [1.0, 2.0], [math.nan]])

    @pytest.mark.parametrize("rows", [[], (), iter(()), np.empty(0), np.empty((0, 3, 4))])
    def test_no_points_give_an_empty_table(self, rows):
        A = as_points(rows)
        assert type(A) is np.ndarray and A.dtype == np.float64 and A.shape == (0, 0)

    def test_mixed_dimensions_are_refused_by_every_reader(self):
        rows = [(0.0, 0.0), (1.0,)]
        for read in (lambda: hausdorff_distance(rows, [(0.0, 0.0)]),
                     lambda: hausdorff_distance([(0.0, 0.0)], rows),
                     lambda: FiniteMetricSpace.from_points(rows)):
            with pytest.raises(ValueError) as err:
                read()
            assert str(err.value) == "mixed point dimensions [1, 2]"


def row_lists(n, extra=()):
    """Up to five rows of ``n`` coordinates, signed zeros and ``extra``
    among them."""
    coord = st.one_of(st.sampled_from((0.0, -0.0) + extra), finite)
    return st.lists(st.lists(coord, min_size=n, max_size=n), max_size=5).map(
        lambda rows: np.array(rows, dtype=float).reshape(len(rows), n))


HUGE = (1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308)

# the same rows as a C-ordered copy, a Fortran-ordered copy, every other
# row of a larger array, and the transpose of a transposed copy
LAYOUTS = (np.ascontiguousarray, np.asfortranarray,
           lambda A: np.repeat(A, 2, axis=0)[::2], lambda A: A.T.copy().T)


class TestSupDists:
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(row_lists(n), row_lists(n))))
    def test_matches_the_broadcast_table_to_the_bit(self, AB):
        A, B = AB
        want = np.abs(A[:, None] - B[None]).max(axis=2)
        got = sup_dists(A, B)
        assert got.shape == (len(A), len(B))
        assert got.tobytes() == want.tobytes()

    @given(st.integers(0, 3).flatmap(lambda n: st.tuples(
        row_lists(n, HUGE), row_lists(n, HUGE), st.sampled_from(LAYOUTS), st.sampled_from(LAYOUTS))))
    def test_matches_the_scalar_distance_to_the_bit(self, case):
        """Every entry is ``sup_dist`` of its two rows, with ±0 coordinates,
        differences that overflow to ``inf``, and rows given as sliced or
        transposed views; no entry is below ``+0.0``."""
        A, B, lay_a, lay_b = case
        want = np.array([[sup_dist(a, b) for b in B.tolist()] for a in A.tolist()])
        got = sup_dists(lay_a(A), lay_b(B))
        assert got.tobytes() == want.reshape(len(A), len(B)).tobytes()
        assert not np.signbit(got).any()

    @given(st.integers(0, 3).flatmap(lambda n: st.tuples(
        row_lists(n, HUGE), row_lists(n, HUGE), st.sampled_from(LAYOUTS))))
    def test_swapping_the_sides_transposes_the_table_to_the_bit(self, case):
        """``sup_dists(P, P)`` is its own transpose and ``sup_dists(A, B)``
        is ``sup_dists(B, A).T``, with ±0 coordinates and differences that
        overflow to ``inf``; the margin search's bounds rely on both."""
        A, B, lay = case
        P = np.concatenate([A, B])
        D = sup_dists(lay(P), P)
        assert D.tobytes() == np.ascontiguousarray(D.T).tobytes()
        assert sup_dists(A, lay(B)).tobytes() == np.ascontiguousarray(sup_dists(B, A).T).tobytes()

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        row_lists(n, HUGE), row_lists(n, HUGE), st.sampled_from((1, 8, 24, 100)))))
    def test_row_blocks_do_not_change_a_bit(self, case):
        """Scratch blocks of one row, or of a few rows, give the bits of the
        broadcast table."""
        A, B, scratch_bytes = case
        with np.errstate(over="ignore"):
            want = np.abs(A[:, None] - B[None]).max(axis=2, initial=0.0)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(metric, "_SCRATCH_BYTES", scratch_bytes)
            got = sup_dists(A, B)
        assert got.tobytes() == want.reshape(len(A), len(B)).tobytes()

    def test_scratch_stays_within_its_bound(self):
        """Past the result, the fold holds one scratch block of at most
        ``_SCRATCH_BYTES`` (65 rows of 2000 here), not a second table, and
        numpy's two ufunc buffers of ``np.getbufsize()`` doubles."""
        P = np.random.default_rng(5).normal(size=(2000, 3))
        tracemalloc.start()
        try:
            D = sup_dists(P, P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert D.shape == (2000, 2000)
        assert peak - D.nbytes <= metric._SCRATCH_BYTES + 2 * 8 * np.getbufsize()

    def test_zero_dimensional_rows_are_at_distance_zero(self):
        D = sup_dists(np.empty((3, 0)), np.empty((2, 0)))
        assert D.tobytes() == np.zeros((3, 2)).tobytes()

    def test_empty_sides(self):
        B = np.ones((4, 2))
        assert sup_dists(np.empty((0, 2)), B).shape == (0, 4)
        assert sup_dists(B, np.empty((0, 2))).shape == (4, 0)

    @pytest.mark.parametrize("na, nb", [(1, 2), (2, 1), (0, 3), (3, 0)])
    def test_rows_of_different_dimensions_are_refused(self, na, nb):
        """With the message of ``sup_dist``, not a table of the shared
        coordinates or an ``IndexError``."""
        with pytest.raises(ValueError) as err:
            sup_dists(np.zeros((2, na)), np.zeros((3, nb)))
        with pytest.raises(ValueError) as scalar:
            sup_dist((0.0,) * na, (0.0,) * nb)
        assert str(err.value) == str(scalar.value) == f"dimension mismatch: {na} vs {nb}"

    def test_an_overflowing_difference_reads_inf_without_a_warning(self):
        D = sup_dists(np.array([[1e308, 0.0]]), np.array([[-1e308, 1.0]]))
        assert D.tolist() == [[math.inf]] == [[sup_dist((1e308, 0.0), (-1e308, 1.0))]]


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

    @pytest.mark.parametrize("axis", [1.5, 1.0, True, "1", None, np.float64(1.0)])
    def test_axis_must_be_an_integer(self, axis):
        with pytest.raises(ValueError) as err:
            ConeDescriptor((0.0, 0.0), axis, 1)
        assert str(err.value) == f"cone axis must be an integer, got {axis!r}"

    def test_a_numpy_integer_axis_is_kept_as_an_int(self):
        cone = ConeDescriptor((0.0, 0.0), np.int64(1), 1)
        assert cone == ConeDescriptor((0.0, 0.0), 1, 1) and type(cone.axis) is int
        assert cone_contains(cone, (1.0, 3.0))

    def test_strict_excludes_the_boundary(self):
        cone = ConeDescriptor((0.0, 0.0), 1, 1)
        assert cone_contains(cone, (1.0, 1.0))
        assert not cone_contains(cone, (1.0, 1.0), strict=True, tol=0.0)
        assert cone_contains(cone, (0.5, 1.0), strict=True, tol=0.0)

    @given(small_vectors(3), small_vectors(3))
    def test_general_form_matches_descriptor(self, p, q):
        """The geodesic cone agrees with the axis-aligned descriptor.

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
        between = abs(sup_dist(p, q) - (sup_dist(p, x) + sup_dist(x, q))) <= 1e-9
        assert cone_contains(cone, q, tol=0.0) == between


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

    def test_zero_dimensional_sets_are_at_distance_zero(self):
        assert hausdorff_distance([(), ()], [()]) == 0.0

    @pytest.mark.parametrize("k, l, n", [(1, 1, 1), (5, 7, 2), (9, 4, 3), (12, 12, 5)])
    def test_matches_the_pairwise_loop(self, rng, k, l, n):
        A = [tuple(v) for v in rng.uniform(-1, 1, (k, n))]
        B = [tuple(v) for v in rng.uniform(-1, 1, (l, n))]
        forward = max(min(sup_dist(a, b) for b in B) for a in A)
        backward = max(min(sup_dist(a, b) for a in A) for b in B)
        assert hausdorff_distance(A, B) == max(forward, backward)

    @given(st.integers(0, 3).flatmap(lambda n: st.tuples(
        row_lists(n, HUGE).filter(len), row_lists(n, HUGE).filter(len),
        st.sampled_from((1, 8, 24, 100, metric._SCRATCH_BYTES)))))
    def test_row_blocks_give_the_whole_tables_value(self, case):
        """Row blocks of one row, of a few and of the default size give the
        value read off the whole table, bit for bit, with ±0 coordinates and
        distances that overflow to ``inf``."""
        A, B, scratch_bytes = case
        D = sup_dists(A, B)
        want = float(max(D.min(axis=1).max(), D.min(axis=0).max()))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(metric, "_SCRATCH_BYTES", scratch_bytes)
            got = hausdorff_distance(A, B)
        assert type(got) is float and got.hex() == want.hex()

    def test_memory_does_not_grow_with_the_table(self):
        """6000 points against 6000, whose table would take 275 MiB: past
        the two point arrays, one block of rows, the ``sup_dists`` scratch,
        a running minimum per column and numpy's ufunc buffers."""
        rng = np.random.default_rng(6)
        A, B = rng.uniform(-1, 1, (6000, 2)), rng.uniform(-1, 1, (6000, 2))
        tracemalloc.start()
        try:
            hausdorff_distance(A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * metric._SCRATCH_BYTES + 2 * A.nbytes + 8 * len(B) + 2 * 8 * np.getbufsize()


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

    def test_non_finite_entries_are_reported_alone(self):
        # every comparison with NaN is False, so no other check would fire
        report = check_metric_axioms([[0.0, math.nan], [math.nan, 0.0]])
        assert [(v.kind, v.indices, v.amount) for v in report.violations] == [
            ("finite", (0, 1), math.inf), ("finite", (1, 0), math.inf)]
        report = check_metric_axioms([[0.0, math.inf, 1.0], [math.inf, 0.0, 1.0],
                                      [1.0, 1.0, 5.0]])
        assert {v.kind for v in report.violations} == {"finite"}

    @pytest.mark.filterwarnings("error")
    def test_no_arithmetic_warnings(self):
        assert not check_metric_axioms(np.full((3, 3), math.inf)).ok
        # finite entries whose sums overflow count as inf
        D = [[0.0, 1e308, 1e308], [1e308, 0.0, -1e308], [1e308, 1e308, 0.0]]
        kinds = {v.kind for v in check_metric_axioms(D).violations}
        assert kinds == {"symmetry", "positivity", "triangle"}
        assert check_metric_axioms([[0.0, 1e308], [1e308, 0.0]]).ok


def _reference_axioms(D, tol):
    """The pair-by-pair audit that ``check_metric_axioms`` replaced, kept as
    the reference for its violations, their order and their amounts."""
    M = np.asarray(D, dtype=float)
    bad = np.argwhere(~np.isfinite(M))
    if len(bad):
        return [("finite", (int(i), int(j)), math.inf) for i, j in bad]
    m = M.shape[0]
    out = []
    with np.errstate(over="ignore"):
        for i in range(m):
            if abs(M[i, i]) > tol:
                out.append(("diagonal", (i,), float(abs(M[i, i]))))
        for i in range(m):
            for j in range(i + 1, m):
                gap = abs(M[i, j] - M[j, i])
                if gap > tol:
                    out.append(("symmetry", (i, j), float(gap)))
                if M[i, j] < -tol:
                    out.append(("positivity", (i, j), float(-M[i, j])))
                elif abs(M[i, j]) <= tol:
                    out.append(("separation", (i, j), float(abs(M[i, j]))))
        for k in range(m):
            excess = M - np.add.outer(M[:, k], M[k, :])
            for i, j in zip(*np.nonzero(excess > tol)):
                if i != j and i != k and j != k:
                    out.append(("triangle", (int(i), int(k), int(j)), float(excess[i, j])))
    return [(kind, idx, float.hex(amount)) for kind, idx, amount in out]


def _hostile_matrix(rng, m):
    """A seeded matrix breaking the axioms in one of several ways."""
    kind = int(rng.integers(6))
    D = rng.uniform(0.5, 2.0, (m, m))
    if kind != 0:
        D = (D + D.T) / 2.0
    np.fill_diagonal(D, 0.0)
    if kind == 1:
        D[rng.random((m, m)) < 0.1] *= -1.0
    elif kind == 2:
        D[rng.random((m, m)) < 0.1] = 0.0
    elif kind == 3:
        D[rng.random((m, m)) < 0.2] = 1e308 * rng.choice([-1.0, 1.0])
    elif kind == 4:
        P = rng.uniform(-1e6, 1e6, (m, 3))
        D = np.abs(P[:, None, :] - P[None, :, :]).max(axis=2)
    else:
        D[rng.random((m, m)) < 0.05] = rng.uniform(-3.0, 5.0)
    if rng.random() < 0.2:
        np.fill_diagonal(D, rng.uniform(-1e-11, 1e-11, m))
    return D


class TestAxiomAudit:
    def test_matches_the_pairwise_reference(self):
        """Same violations, same order, same amounts to the bit, on asymmetric,
        negative, zero, overflowing and sup-norm matrices of 1-30 points."""
        rng = np.random.default_rng(1510)
        kinds = set()
        for _ in range(150):
            D = _hostile_matrix(rng, int(rng.integers(1, 31)))
            for tol in (0.0, 1e-12, 0.3):
                got = [(v.kind, v.indices, float.hex(v.amount))
                       for v in check_metric_axioms(D, tol).violations]
                assert got == _reference_axioms(D, tol)
                kinds.update(v[0] for v in got)
        assert kinds == {"diagonal", "symmetry", "positivity", "separation", "triangle"}

    def test_triangle_screen_matches_the_outer_sum(self):
        """The screen forms ``d(i, k) + d(k, j)`` row by row; on random and
        sup-norm metrics of 40-90 points, as they are and with entries
        raised to break triangles, it reports what ``np.add.outer`` does."""
        rng = np.random.default_rng(1515)
        broken = 0
        for m in (40, 61, 90):
            P = rng.uniform(-1.0, 1.0, (m, 3))
            for D in (random_metric(rng, m).matrix.copy(), sup_dists(P, P)):
                i, j = rng.choice(m, (2, m // 10), replace=False)
                D[i, j] = D[j, i] = D[i, j] + rng.uniform(0.5, 3.0, m // 10)
                for tol in (0.0, 1e-12, 0.5):
                    got = [(v.kind, v.indices, float.hex(v.amount))
                           for v in check_metric_axioms(D, tol).violations]
                    assert got == _reference_axioms(D, tol)
                    broken += any(v[0] == "triangle" for v in got)
            clean = sup_dists(P, P)
            assert check_metric_axioms(clean).ok and _reference_axioms(clean, 0.0) == []
        assert broken >= 12

    def test_order_is_diagonal_then_pairs_then_triangles(self):
        D = np.array([[0.5, 1.0, 9.0], [2.0, 0.0, 0.0], [9.0, 0.0, 0.0]])
        got = [(v.kind, v.indices) for v in check_metric_axioms(D).violations]
        assert got == [("diagonal", (0,)), ("symmetry", (0, 1)), ("separation", (1, 2)),
                       ("triangle", (0, 1, 2)), ("triangle", (2, 1, 0))]


class TestMatrixIntake:
    """``check_metric_axioms`` and ``FiniteMetricSpace`` read a matrix
    through one intake, which refuses strings: numpy and ``float`` read
    ``"1"`` as 1.0."""

    @pytest.mark.parametrize("read", [check_metric_axioms, FiniteMetricSpace])
    @pytest.mark.parametrize("D, s", [
        ([["0", "1"], ["1", "0"]], "0"),
        ([[0, "1"], [1, 0]], "1"),
        (((0, 1), (1, "0")), "0"),
        ([[0, 1, 2], [1, 0, 1], [2, "1", "0"]], "1"),
        (np.array([["0", "1"], ["1", "0"]]), "0"),
        ("1", "1"),
    ])
    def test_strings_are_refused(self, read, D, s):
        with pytest.raises(ValueError) as err:
            read(D)
        assert str(err.value) == f"a metric must hold numbers, got {s!r}"

    def test_numbers_read_as_before(self):
        rows = [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]]
        want = np.array(rows, dtype=float)
        for D in (rows, tuple(map(tuple, rows)), want, want.astype(np.float32)):
            X = FiniteMetricSpace(D)
            assert X.matrix.tobytes() == want.tobytes() and not X.matrix.flags.writeable
            assert check_metric_axioms(D).ok
        B = np.array([[False, True], [True, False]])
        assert FiniteMetricSpace(B).matrix.tobytes() == B.astype(float).tobytes()

    def test_the_space_keeps_its_own_copy(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        X = FiniteMetricSpace(D)
        D[0, 1] = 5.0
        assert X.d(0, 1) == 1.0


class TestFirstOf:
    """``metric._first_of``: the one walker over decoded JSON."""

    @pytest.mark.parametrize("obj, kind, want", [
        ([[1, "a"], ["b"]], str, "a"),
        ({"x": [0, ["s"]], "y": "t"}, str, "s"),
        (((0, "u"), "v"), str, "u"),
        ([np.array(["w", "z"])], str, "w"),
        ([0, [1.5, {"k": [None, False]}], True], bool, False),
        ([1, 0, 1.0, {"true": 1}], bool, None),
        ([np.array([1, 0])], bool, None),
        ("x", str, "x"),
        (3, str, None),
    ])
    def test_first_in_reading_order(self, obj, kind, want):
        got = metric._first_of(obj, kind)
        assert got == want and type(got) is type(want)


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

    @pytest.mark.parametrize("scale", [1e4, 1e5, 1e6, 1e300])
    def test_from_points_allows_rounding_at_large_coordinates(self, scale):
        """Sup-norm distances of far-out points carry rounding of a few ulps
        of the coordinates, which must not read as a broken triangle."""
        P = np.random.default_rng(0).uniform(-scale, scale, (60, 3))
        X = FiniteMetricSpace.from_points(P)
        assert X.size == 60
        assert X.d(3, 7) == float(np.abs(P[3] - P[7]).max())

    def test_from_points_converts_an_array_without_the_per_point_loop(self, monkeypatch):
        calls = []
        monkeypatch.setattr(metric, "as_point", lambda p: calls.append(p) or as_point(p))
        P = np.random.default_rng(3).uniform(-1.0, 1.0, (40, 3))
        X = FiniteMetricSpace.from_points(P)
        assert calls == []
        assert X.matrix.tobytes() == np.abs(P[:, None] - P[None]).max(axis=2).tobytes()

    def test_from_points_refuses_a_duplicate_point(self):
        P = np.random.default_rng(0).uniform(-1e4, 1e4, (60, 3))
        P[17] = P[4]
        with pytest.raises(ValueError, match=r"separation at \(4, 17\)"):
            FiniteMetricSpace.from_points(P)

    @staticmethod
    def _reference(P):
        """The sup-norm matrix of ``P`` built as one ``(m, m, n)`` array, and
        the tolerance ``from_points`` holds it to."""
        P = np.asarray(P, dtype=float)
        with np.errstate(over="ignore"):
            M = np.abs(P[:, None, :] - P[None, :, :]).max(axis=2)
        return M, 1e-12 + 4.0 * np.finfo(float).eps * float(np.abs(P).max())

    def test_from_points_passes_the_full_audit(self):
        """The axioms ``from_points`` leaves unchecked hold: the full audit of
        each matrix at its own tolerance is empty, at scales 1 to 1e300."""
        rng = np.random.default_rng(44)
        for scale in (1.0, 1e4, 1e8, 1e100, 1e300):
            for _ in range(8):
                m, n = int(rng.integers(1, 50)), int(rng.integers(1, 5))
                # rows of magnitudes down to 1e-6 of the scale
                P = rng.uniform(-scale, scale, (m, n)) * 10.0 ** -rng.uniform(0, 6, (m, 1))
                X = FiniteMetricSpace.from_points(P)
                M, tol = self._reference(P)
                assert X.matrix.tobytes() == M.tobytes()
                assert check_metric_axioms(X.matrix, tol).ok

    @pytest.mark.parametrize("points", [
        [(0.0, 1.0), (2.0, 3.0), (0.0, 1.0), (2.0, 3.0 + 1e-13)],
        [(1e308,), (-1e308,)],
        [(1e308, 0.0), (5.0, 1.0), (-1e308, 1.0), (5.0, 1.0)],
    ])
    def test_from_points_refusals_carry_the_full_audit_text(self, points):
        M, tol = self._reference(points)
        with pytest.raises(ValueError) as err:
            FiniteMetricSpace.from_points(points)
        assert str(err.value) == str(check_metric_axioms(M, tol))

    def test_from_points_overflow_is_refused_without_a_warning(self):
        """Coordinates farther apart than the float range give an infinite
        distance: a plain input error, with no numpy overflow warning (which
        the suite turns into an error)."""
        with pytest.raises(ValueError, match=r"finite at \(0, 1\)"):
            FiniteMetricSpace.from_points([(1e308,), (-1e308,)])

    def test_matrices_keep_the_absolute_tolerance(self):
        D = np.array([[0.0, 1.0, 2.0 + 1e-11], [1.0, 0.0, 1.0], [2.0 + 1e-11, 1.0, 0.0]])
        with pytest.raises(ValueError, match="triangle"):
            FiniteMetricSpace(D)

    def test_nan_distances_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            FiniteMetricSpace([[0.0, math.nan], [math.nan, 0.0]])

    def test_matrix_is_read_only(self, rng):
        X = random_metric(rng, 4)
        with pytest.raises(ValueError):
            X.matrix[0, 1] = 5.0


def _number_intakes():
    """Every public intake of a tolerance, grid step, radius or slack: name
    -> (what the message calls it, ``"positive"`` or ``"nonnegative"``, a call
    that reads the value)."""
    from hyperlip import boxset, hull, lipfun, reconstruct, svgplot
    from hyperlip.instances import (diagonal_halfspace_instance, half_rate_instance,
                                    vee_notch_instance)

    Q, x = half_rate_instance(), (3.0, -2.0)
    X = FiniteMetricSpace([[0.0, 1.0], [1.0, 0.0]])
    D = 4.0 * X.matrix
    trace = cyclic_iterate(Q, x, 8)
    grid = [[0.0], [1.0]]
    inside, outside = ((0.0, 0.0),), ((1.0, 0.0),)
    Q_rec = reconstruct.synthesize_bounds(reconstruct.ReconstructionConfig(inside, outside))
    cone = ConeDescriptor((0.0, 0.0), 0, 1)
    return {
        "cyclic_retract": ("tol", "positive", lambda v: boxset.cyclic_retract(Q, x, v)),
        "cyclic_retract_many": ("tol", "positive",
                                lambda v: boxset.cyclic_retract_many(Q, [x], v)),
        "retract": ("tol", "positive", lambda v: boxset.retract(Q, x, v, many=False)),
        "retract at level 1": ("tol", "positive", lambda v: boxset.retract(
            vee_notch_instance(), (0.0, -3.0), v, many=False)),
        "relaxation_order": ("tol", "positive", lambda v: boxset.relaxation_order(1.0, v)),
        "truncated_set": ("radius", "positive", lambda v: boxset.truncated_set(
            diagonal_halfspace_instance(), (0.0, 0.0), v)),
        "check_decay_certificate": ("slack", "nonnegative",
                                    lambda v: boxset.check_decay_certificate(trace, 0.5, v)),
        "check_decay_certificate lam": ("lam", "nonnegative",
                                        lambda v: boxset.check_decay_certificate(trace, v)),
        "check_metric_axioms": ("tol", "nonnegative",
                                lambda v: check_metric_axioms(D, v)),
        "FiniteMetricSpace": ("tol", "nonnegative",
                              lambda v: FiniteMetricSpace(D, v).matrix.tolist()),
        "cone_contains": ("tol", "nonnegative", lambda v: cone_contains(cone, (1.0, 0.0), tol=v)),
        "is_extremal": ("tol", "nonnegative", lambda v: hull.is_extremal(X, [0.5, 0.5], v)),
        "enumerate_extremal_grid": ("resolution", "positive",
                                    lambda v: hull.enumerate_extremal_grid(X, v)),
        "verify_lipschitz_on_grid lam": ("lam", "nonnegative", lambda v: (
            lipfun.verify_lipschitz_on_grid(Const(0.0), grid, v))),
        "verify_lipschitz_on_grid tol": ("tol", "nonnegative", lambda v: (
            lipfun.verify_lipschitz_on_grid(Const(0.0), grid, 1.0, v))),
        "membership_from_samples": ("tol", "nonnegative", lambda v: (
            reconstruct.membership_from_samples(inside, v).many(np.array(outside)).tolist())),
        "verify_reconstruction": ("tol", "nonnegative", lambda v: (
            reconstruct.verify_reconstruction(lambda p: True, Q_rec, inside, v))),
        "render_scene": ("resolution", "positive", lambda v: svgplot.render_scene(
            [(0.0, 1.0), (0.0, 1.0)], Q=Q, resolution=v)),
        "choose_cone": ("eps", "positive",
                        lambda v: reconstruct.choose_cone((1.0, 0.0), (0.0, 0.0), v, 0.1)),
        "choose_cone a": ("a", "positive",
                          lambda v: reconstruct.choose_cone((1.0, 0.0), (0.0, 0.0), 1.0, v)),
    }


def _moved_intakes():
    """Every intake of a lone number or a count read by ``metric._real`` or
    ``metric._integer``: name -> (what the message calls it, ``None`` for a
    number or the least value of a count, a call that reads the value)."""
    from hyperlip import boxset, instances, reconstruct
    from hyperlip.lipfun import Blend, DistCone, McShane

    Q, Q_half, x = instances.vee_notch_instance(), instances.half_rate_instance(), (3.0, -2.0)
    rng = np.random.default_rng(0)
    return {
        "Const value": ("Const value", None, lambda v: Const(v)),
        "DistCone offset": ("DistCone offset", None, lambda v: DistCone((0.0,), v, 0.5, 1)),
        "DistCone scale": ("DistCone scale", None, lambda v: DistCone((0.0,), 0.0, v, 1)),
        "Blend factor": ("Blend factor", None, lambda v: Blend(Const(0.0), v, 0.0)),
        "Blend anchor": ("Blend anchor", None, lambda v: Blend(Const(0.0), 0.5, v)),
        "McShane scale": ("McShane scale", None, lambda v: McShane((((0.0,), 0.0),), v, "inf")),
        "McShane sample value": ("McShane sample value", None,
                                 lambda v: McShane((((0.0,), v),), 0.5, "inf")),
        "shrink_set l": ("anchor l", None, lambda v: boxset.shrink_set(Q, 7, v, 3.0)),
        "shrink_set l per axis": ("anchor l", None,
                                  lambda v: boxset.shrink_set(Q, 7, [-3.0, v], 3.0)),
        "shrink_set u": ("anchor u", None, lambda v: boxset.shrink_set(Q, 7, -3.0, v)),
        "relaxation_order span": ("span", None, lambda v: boxset.relaxation_order(v, 0.5)),
        "linear_window slope": ("slope", None, lambda v: instances.linear_window(v, 0.0)),
        "linear_window intercept": ("intercept", None,
                                    lambda v: instances.linear_window(0.5, v)),
        "random_mcshane_instance lam": ("lam", None,
                                        lambda v: instances.random_mcshane_instance(2, v, rng)),
        "shrink_set k": ("k", 1, lambda v: boxset.shrink_set(Q, v, -3.0, 3.0)),
        "random_mcshane_instance n": ("n", 1,
                                      lambda v: instances.random_mcshane_instance(v, 0.5, rng)),
        "random_mcshane_instance samples": ("samples", 1, lambda v: (
            instances.random_mcshane_instance(2, 0.5, rng, samples=v))),
        "cyclic_iterate steps": ("steps", 0, lambda v: cyclic_iterate(Q_half, x, v)),
        "cyclic_retract max_sweeps": ("max_sweeps", 1,
                                      lambda v: boxset.cyclic_retract(Q_half, x, 1e-6, v)),
        "cyclic_retract_many max_sweeps": ("max_sweeps", 1, lambda v: (
            boxset.cyclic_retract_many(Q_half, [x], 1e-6, v))),
        "retract max_sweeps": ("max_sweeps", 1, lambda v: (
            boxset.retract(Q_half, x, 1e-6, many=False, max_sweeps=v))),
        "retract at level 1 max_sweeps": ("max_sweeps", 1, lambda v: (
            boxset.retract(Q, (0.0, -3.0), 1e-3, many=False, max_sweeps=v))),
        "sample_members max_sweeps": ("max_sweeps", 1,
                                      lambda v: instances.sample_members(Q_half, [x], v)),
        "epsilon_many chunk": ("chunk", 1, lambda v: (
            reconstruct.epsilon_many([[0.0, 0.0]], [[1.0, 1.0]], v))),
    }


_NO_NUMBERS = ["1", b"1", True, np.True_, None, 1 + 1j]


def _moved_refusals(moved):
    """``(name, value)`` for each refusal of the table: ``_NO_NUMBERS`` for
    every intake, and for a count also ``2.5`` and ``"below"``, which stands
    for a value below its least; a retraction's ``max_sweeps`` of ``None``
    means no cap, so it is no refusal."""
    return [(name, value) for name, (_, least, _) in sorted(moved.items())
            for value in _NO_NUMBERS + ([] if least is None else [2.5, "below"])
            if not (value is None and name.startswith("retract"))]


class TestNumberReaders:
    """``metric._nonnegative`` and ``metric._positive`` read every
    tolerance, grid step, radius and slack of the library, with one message:
    a value that is infinite, NaN, below 0 (or 0, where it must be
    positive), a string or a boolean is refused.  They read through
    ``metric._real``, whose own message is given to what ``float`` cannot
    read, and which with ``metric._integer`` reads every other lone
    number and count: the grammar's fields, ``shrink_set``'s anchors and
    ``k``, and every count, each refused with its own message."""

    INTAKES = _number_intakes()
    BAD = [math.inf, -math.inf, math.nan, -1.0, -1e-300, "1e-3", "0.5", b"1", True, False,
           np.True_, np.float64(math.inf), np.float32(math.nan)]

    @pytest.mark.parametrize("name", sorted(INTAKES))
    @pytest.mark.parametrize("value", BAD, ids=repr)
    def test_every_intake_refuses_with_one_message(self, name, value):
        what, kind, call = self.INTAKES[name]
        with pytest.raises(ValueError) as err:
            call(value)
        assert str(err.value) == f"{what} must be finite and {kind}, got {value!r}"

    @pytest.mark.parametrize("name", sorted(INTAKES))
    def test_zero_is_refused_only_where_the_value_must_be_positive(self, name):
        what, kind, call = self.INTAKES[name]
        for zero in (0, 0.0, -0.0):
            if kind == "nonnegative":
                call(zero)
                continue
            with pytest.raises(ValueError) as err:
                call(zero)
            assert str(err.value) == f"{what} must be finite and positive, got {zero!r}"

    @pytest.mark.parametrize("name", sorted(INTAKES))
    def test_numbers_of_any_type_read_alike(self, name):
        call = self.INTAKES[name][2]
        for value in (1, np.int64(1), np.float32(1.0), Fraction(1), Decimal(1)):
            assert repr(call(value)) == repr(call(1.0))

    @pytest.mark.parametrize("name", ["_nonnegative", "_positive"])
    def test_a_reader_returns_a_python_float(self, name):
        read = getattr(metric, name)
        for value in (2, np.float32(0.5), np.int8(3), Fraction(1, 4), 1e-300, 1.7e308):
            got = read(value, "tol")
            assert type(got) is float and got == float(value)
        assert metric._nonnegative(0, "tol") == 0.0

    @pytest.mark.parametrize("name", sorted(INTAKES))
    @pytest.mark.parametrize("value", [None, 1 + 1j], ids=repr)
    def test_what_float_cannot_read_gets_the_number_message(self, name, value):
        what, _, call = self.INTAKES[name]
        with pytest.raises(ValueError) as err:
            call(value)
        assert str(err.value) == f"{what} must be a number, got {value!r}"

    MOVED = _moved_intakes()

    @pytest.mark.parametrize("name, value", _moved_refusals(MOVED), ids=repr)
    def test_every_moved_intake_refuses_with_its_message(self, name, value):
        what, least, call = self.MOVED[name]
        if value == "below":
            value, message = least - 2, f"{what} must be at least {least}, got {least - 2}"
        else:
            kind = "a number" if least is None else "an integer"
            message = f"{what} must be {kind}, got {value!r}"
        with pytest.raises(ValueError) as err:
            call(value)
        assert str(err.value) == message

    @pytest.mark.parametrize("name", sorted(MOVED))
    def test_numbers_of_any_type_pass_every_moved_intake(self, name):
        what, least, call = self.MOVED[name]
        if least is None:
            values = (0.5, np.float32(0.5), Fraction(1, 2))
        else:
            count = 5000 if what == "max_sweeps" else least + 2     # sweeps enough to converge
            values = (count, np.int64(count))
        for value in values:
            call(value)

    @pytest.mark.parametrize("name", ["DistCone", "Infinite", "ConeDescriptor"])
    def test_a_sign_is_kept_as_the_int_one_or_minus_one(self, name):
        from hyperlip.lipfun import DistCone

        what, make = {
            "DistCone": ("orientation", lambda s: DistCone((0.0,), 0.0, 0.5, s).orientation),
            "Infinite": ("sign", lambda s: Infinite(s).sign),
            "ConeDescriptor": ("sign", lambda s: ConeDescriptor((0.0,), 0, s).sign),
        }[name]
        for s in (1, -1, np.int64(1), np.int8(-1)):
            got = make(s)
            assert type(got) is int and got == s
        for value in _NO_NUMBERS + [1.0, -1.0, np.float64(1.0)]:
            with pytest.raises(ValueError) as err:
                make(value)
            assert str(err.value) == f"{what} must be an integer, got {value!r}"
        for value in (0, 2, -2):
            with pytest.raises(ValueError) as err:
                make(value)
            assert str(err.value) == f"{what} must be +1 or -1, got {value!r}"

    def test_containers_refuse_bytes_and_keep_their_messages(self):
        from hyperlip.lipfun import _box

        for raw in ([b"1", 2.0], (2.0, np.bytes_(b"1"))):
            with pytest.raises(ValueError) as err:
                as_point(raw)
            assert str(err.value) == f"point coordinates must be numbers, got {tuple(raw)!r}"
        assert as_point([True, np.True_, 2]) == (1.0, 1.0, 2.0)
        for limit in (b"0", True, np.True_, False):
            for box in ([[limit, 1.0]], [(-1.0, 0.0), (0.0, limit)]):
                with pytest.raises(ValueError) as err:
                    _box(box)
                assert str(err.value) == f"a box must hold numbers, got {limit!r}"
        for one in (b"1", np.bytes_(b"1")):
            for read in (check_metric_axioms, FiniteMetricSpace):
                with pytest.raises(ValueError) as err:
                    read([[0.0, one], [1.0, 0.0]])
                assert str(err.value) == f"a metric must hold numbers, got {one!r}"
        assert check_metric_axioms([[False, True], [True, False]]).ok

    def test_real_reads_every_number_as_a_python_float(self):
        for value in (2, np.float32(0.5), np.int8(3), Fraction(1, 4), Decimal("0.5"), math.inf,
                      -0.0):
            got = metric._real(value, "x")
            assert type(got) is float and repr(got) == repr(float(value))
        with pytest.raises(OverflowError):
            metric._real(10 ** 400, "x")
