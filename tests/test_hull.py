"""Tests for admissible/extremal functions and the grid enumeration."""

import math
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from hyperlip import hull
from hyperlip.hull import enumerate_extremal_grid, is_extremal
from hyperlip.metric import FiniteMetricSpace, sup_dist

from conftest import random_metric


def _two_point(d=1.0):
    return FiniteMetricSpace(np.array([[0.0, d], [d, 0.0]]))


def _in_delta(X, f, tol=1e-12):
    """Whether ``f(x) + f(y) >= d(x, y) - tol`` for all pairs (x = y
    included, which forces nonnegative values)."""
    return bool(hull._admissible(X.matrix, hull._columns(X, f), tol)[0])


def _tripod():
    return FiniteMetricSpace(np.array([[0.0, 2.0, 2.0],
                                       [2.0, 0.0, 2.0],
                                       [2.0, 2.0, 0.0]]))


class TestAdmissibility:
    def test_rows_are_admissible(self, rng):
        X = random_metric(rng, 6)
        for x in range(6):
            assert _in_delta(X, X.row(x))

    def test_diagonal_pairs_force_nonnegativity(self):
        X = _two_point()
        assert not _in_delta(X, (-0.5, 2.0))

    def test_too_small_values_fail(self):
        X = _two_point()
        assert not _in_delta(X, (0.25, 0.25))
        assert _in_delta(X, (0.25, 0.75))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            _in_delta(_two_point(), (1.0,))

    def test_nan_values_are_not_admissible(self):
        X = _two_point()
        assert not _in_delta(X, (float("nan"), 1.0))
        with pytest.raises(ValueError):
            is_extremal(X, (float("nan"), 1.0))


class TestExtremality:
    def test_rows_are_extremal(self, rng):
        for m in (2, 5, 10):
            X = random_metric(rng, m)
            for x in range(m):
                assert is_extremal(X, X.row(x), tol=1e-12)

    def test_padded_functions_are_not(self):
        X = _two_point()
        assert is_extremal(X, (0.5, 0.5))
        assert not is_extremal(X, (0.8, 0.5))
        assert not is_extremal(X, (2.0, 2.0))

    def test_sums_past_the_largest_float_warn_nothing(self):
        """``f(x) + f(x)`` overflows to +inf at a row of a space of diameter
        1e308; +inf exceeds every distance, so the row is admissible, and
        no numpy warning is raised on the way."""
        X = _two_point(1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_extremal(X, [0.0, 1e308])
            assert not is_extremal(X, [1e308, 1e308])

    @pytest.mark.parametrize("f, message", [
        (["0.5", "0.5"], "point coordinates must be numbers, got ('0.5', '0.5')"),
        ([0.5, "0.5"], "point coordinates must be numbers, got (0.5, '0.5')"),
        ([math.inf, 1.0], "point coordinates must be finite, got inf"),
        ([math.nan, 1.0], "point coordinates must be finite, got nan"),
    ])
    def test_values_are_read_as_a_point(self, f, message):
        """``float`` reads ``"0.5"`` as a number, and an infinite value is
        admissible and passes the test within any tolerance."""
        with pytest.raises(ValueError) as err:
            is_extremal(_two_point(), f)
        assert str(err.value) == message

    def test_an_infinite_tolerance_is_refused(self):
        with pytest.raises(ValueError) as err:
            is_extremal(_two_point(), [5.0, 5.0], tol=math.inf)
        assert str(err.value) == "tol must be finite and nonnegative, got inf"

    def test_inadmissible_input_is_an_error(self):
        with pytest.raises(ValueError):
            is_extremal(_two_point(), (0.1, 0.1))

    def test_segment_parametrization(self):
        # on two points the extremal set is exactly f = (t, d - t)
        X = _two_point(d=2.0)
        for t in (0.0, 0.5, 1.0, 1.5, 2.0):
            assert is_extremal(X, (t, 2.0 - t))


def _table(V, shape, start, stop):
    """Grid candidates with flat indices [start, stop) as an ``(m, N)`` table."""
    return V[np.asarray(np.unravel_index(np.arange(start, stop), shape))]


def _grid(X, resolution):
    count = int(np.floor(X.matrix.max() / resolution + 1e-9)) + 1
    return count, np.array([j * resolution for j in range(count)])


def _reference_scan(D, V, shape, start, stop, tol):
    """The extremality scan over an ``(N, m)`` row table that the column scan
    replaced, kept as the reference for its found list; over the whole grid
    it is the full-grid scan the window scan replaced."""
    idx = np.unravel_index(np.arange(start, stop), shape)
    F = np.column_stack([V[ix] for ix in idx])
    m = D.shape[0]
    ok = np.ones(F.shape[0], dtype=bool)
    for i in range(m):
        for j in range(i, m):
            np.logical_and(ok, F[:, i] + F[:, j] >= D[i, j] - tol, out=ok)
    for i in range(m):
        best = (D[i][None, :] - F).max(axis=1)
        np.logical_and(ok, F[:, i] <= best + tol, out=ok)
    return [tuple(map(float, row)) for row in F[ok]]


def _full_grid(X, res):
    """The enumeration's list from the full-grid scan: every grid point that
    passes the test, and the snapped distance rows."""
    count, V = _grid(X, res)
    m = X.size
    found = _reference_scan(X.matrix, V, (count,) * m, 0, count ** m, res / 2.0)
    rows = {tuple(min(max(float(round(v / res) * res), 0.0), float(V[-1]))
                  for v in X.row(x)) for x in range(m)}
    return sorted(set(found) | rows)


def _five_point():
    """A seeded 5-point space of diameter 1.5, built as the benchmark's hull
    workload builds its spaces."""
    D = np.random.default_rng(0).uniform(1.0, 2.0, (5, 5))
    D = (D + D.T) / 2.0
    np.fill_diagonal(D, 0.0)
    return FiniteMetricSpace(D * (1.5 / D.max()))


class TestEnumeration:
    def test_two_point_segment_at_fine_resolution(self):
        X = _two_point(d=1.0)
        found = enumerate_extremal_grid(X, 0.05)
        expected = sorted((round(j * 0.05, 10), round((20 - j) * 0.05, 10))
                          for j in range(21))
        assert len(found) == 21
        for got, want in zip(found, expected):
            assert got == pytest.approx(want, abs=1e-12)
        # the grid segment is the injective hull: every function is a
        # nonexpansive image of the metric, here visible as 1-Lipschitz rows
        for f in found:
            assert is_extremal(X, f, tol=0.025)

    def test_tripod_at_coarse_resolution(self):
        found = enumerate_extremal_grid(_tripod(), 0.5)
        expected = sorted([
            (0.0, 2.0, 2.0), (2.0, 0.0, 2.0), (2.0, 2.0, 0.0),
            (0.5, 1.5, 1.5), (1.5, 0.5, 1.5), (1.5, 1.5, 0.5),
            (1.0, 1.0, 1.0),
        ])
        assert found == expected

    def test_rows_always_present_even_off_grid(self):
        # diameter 1.1 with resolution 0.25: rows are snapped in
        X = FiniteMetricSpace(np.array([[0.0, 1.1], [1.1, 0.0]]))
        found = enumerate_extremal_grid(X, 0.25)
        assert (0.0, 1.0) in found

    def test_blocks_give_the_same_answer(self, monkeypatch):
        # a smaller budget splits the tables of the 41^3 grid into several
        monkeypatch.setattr(hull, "_ROWS_IN_FLIGHT", 5000)
        X = _tripod()
        count, V = _grid(X, 0.05)
        whole = _reference_scan(X.matrix, V, (count,) * 3, 0, count ** 3, 0.025)
        rows = {tuple(float(v) for v in X.row(x)) for x in range(3)}
        assert enumerate_extremal_grid(X, 0.05) == sorted(set(whole) | rows)

    def test_block_size_and_rows_in_flight(self, monkeypatch):
        """Every table the scan builds, at every coordinate, and every table
        it prunes or tests holds at most ``_ROWS_IN_FLIGHT`` candidates."""
        tables = []
        extend, prune, extremal = hull._extend, hull._prune, hull._extremal

        def recording_extend(V, P, base, ends, start, stop):
            C = extend(V, P, base, ends, start, stop)
            tables.append(("extend", C.shape[0], C.shape[1]))
            return C

        def recording_prune(D, C, tol, slack):
            tables.append(("prune", C.shape[0], C.shape[1]))
            return prune(D, C, tol, slack)

        def recording_extremal(D, C, tol):
            tables.append(("extremal", C.shape[0], C.shape[1]))
            return extremal(D, C, tol)

        monkeypatch.setattr(hull, "_extend", recording_extend)
        monkeypatch.setattr(hull, "_prune", recording_prune)
        monkeypatch.setattr(hull, "_extremal", recording_extremal)
        spaces = ((_tripod(), 0.05), (_five_point(), 0.1))
        want = [enumerate_extremal_grid(X, res) for X, res in spaces]
        for budget in (100_000, 700):
            monkeypatch.setattr(hull, "_ROWS_IN_FLIGHT", budget)
            for (X, res), found in zip(spaces, want):
                tables.clear()
                assert enumerate_extremal_grid(X, res) == found
                assert {k for _, k, _ in tables} == set(range(1, X.size + 1))
                assert max(n for _, _, n in tables) <= budget
                # the windows hold far fewer candidates than the grid
                held = sum(n for kind, _, n in tables if kind == "extremal")
                assert held < (round(X.matrix.max() / res) + 1) ** X.size / 10
        # a budget of 700 splits some of the 5-point space's tables
        assert any(kind == "extend" and n == 700 for kind, _, n in tables)

    def test_extremal_tests_few_candidates(self, monkeypatch):
        """A work count, not a timing: the candidates that reach the full
        test.  The last-coordinate windows alone passed 4 292 on the tripod
        at 0.05 and 75 051 on the seeded 5-point space at 0.1; pruning every
        coordinate must keep each under a quarter of that."""
        held = []
        extremal = hull._extremal

        def counting_extremal(D, C, tol):
            held.append(C.shape[1])
            return extremal(D, C, tol)

        monkeypatch.setattr(hull, "_extremal", counting_extremal)
        for X, res, before in ((_tripod(), 0.05, 4292), (_five_point(), 0.1, 75051)):
            held.clear()
            enumerate_extremal_grid(X, res)
            assert 0 < sum(held) < before / 4

    def test_scan_starts_no_thread(self, monkeypatch):
        want = enumerate_extremal_grid(_tripod(), 0.05)

        def refuse(self):
            raise AssertionError("the scan started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert enumerate_extremal_grid(_tripod(), 0.05) == want

    def test_importing_the_cli_loads_no_thread_pool(self):
        code = ("import hyperlip.cli, sys; "
                "print('concurrent.futures' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "False"

    @pytest.mark.parametrize("resolution", [math.inf, math.nan, -1.0, 0.0])
    def test_resolution_must_be_finite_and_positive(self, resolution):
        with pytest.raises(ValueError, match="finite and positive"):
            enumerate_extremal_grid(_tripod(), resolution)

    def test_one_row_checks_match_the_scan(self, rng):
        for m, res in ((2, 0.25), (3, 0.25), (4, 0.5)):
            X = random_metric(rng, m)
            count, V = _grid(X, res)
            tol = res / 2.0
            found = set(hull._extremal(X.matrix, _table(V, (count,) * m, 0, count ** m), tol))
            for ix in np.ndindex(*(count,) * m):
                f = tuple(float(V[k]) for k in ix)
                extremal = _in_delta(X, f, tol) and is_extremal(X, f, tol)
                assert extremal == (f in found)

    def test_scan_matches_the_row_table_reference(self, rng):
        """The column scan finds the same candidates, in the same order, as
        the reference row-table checks it replaced, for 1 to 5 points; a
        negative and a NaN grid value are among the candidates."""
        for m in range(1, 6):
            for _ in range(3):
                X = random_metric(rng, m)
                count = {1: 40, 2: 30, 3: 14, 4: 9, 5: 6}[m]
                V = rng.uniform(-0.1, 2.0, count)
                V[int(rng.integers(count))] = math.nan
                shape = (count,) * m
                total = count ** m
                start = int(rng.integers(total // 2))
                for tol in (0.0, 0.1, 0.3):
                    want = _reference_scan(X.matrix, V, shape, start, total, tol)
                    got = hull._extremal(X.matrix, _table(V, shape, start, total), tol)
                    assert got == want
                    assert all(type(v) is float for f in got for v in f)

    def test_window_scan_matches_the_full_grid_scan(self, monkeypatch):
        """The window scan finds the full-grid scan's candidates on 200
        seeded spaces of 1 to 5 points whose diameter is not a whole number
        of steps, also with tables of at most 50 candidates; the
        enumeration's list is then the same."""
        rng = np.random.default_rng(11)
        cases = []
        for t in range(200):
            m = t % 5 + 1
            D = rng.uniform(0.2, 2.0, (m, m))
            D = (D + D.T) / 2.0
            np.fill_diagonal(D, 0.0)
            for k in range(m):
                D = np.minimum(D, D[:, k, None] + D[None, k, :])
            steps = {1: 1, 2: 40, 3: 16, 4: 9, 5: 6}[m] + rng.uniform(0.1, 0.9)
            cases.append((FiniteMetricSpace(D), max(float(D.max()), 1.0) / steps))
        for budget in (100_000, 50):
            monkeypatch.setattr(hull, "_ROWS_IN_FLIGHT", budget)
            for X, res in cases:
                assert enumerate_extremal_grid(X, res) == _full_grid(X, res)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["equilateral", "line", "tripod"])
    def test_special_metrics_match_the_full_grid_scan(self, monkeypatch, kind, m):
        """Metrics whose hulls have flat faces and ties, where a window end
        meets a grid value: all distances equal, points on a line, and the
        ends of a tripod's legs (d(x, y) = a_x + a_y), at a resolution that
        divides every distance and at two that do not."""
        if kind == "equilateral":
            D = np.ones((m, m)) - np.eye(m)
        else:
            a = np.array([0.5, 1.0, 0.75, 0.25, 1.25][:m])
            D = np.abs(np.cumsum(a)[:, None] - np.cumsum(a)[None, :])
            if kind == "tripod":
                D = (a[:, None] + a[None, :]) * (1.0 - np.eye(m))
        X = FiniteMetricSpace(D)
        coarse = {2: 1, 3: 1, 4: 2, 5: 4}[m]
        for res in (0.125 * coarse, 0.13 * coarse, 0.1 * coarse):
            want = _full_grid(X, res)
            for budget in (100_000, 50):
                monkeypatch.setattr(hull, "_ROWS_IN_FLIGHT", budget)
                assert enumerate_extremal_grid(X, res) == want

    def test_size_limits(self, rng):
        X = random_metric(rng, 6)
        with pytest.raises(ValueError):
            enumerate_extremal_grid(X, 0.5)
        with pytest.raises(ValueError):
            enumerate_extremal_grid(random_metric(rng, 5), 1e-4)

    def test_enumerated_functions_are_mutually_one_lipschitz(self):
        """Pairwise sup distances between enumerated functions never exceed
        what the two functions themselves prescribe: the hull is geodesic at
        grid scale."""
        found = enumerate_extremal_grid(_tripod(), 0.5)
        for f in found:
            for g in found:
                # extremal functions of a hull satisfy |f - g|_sup <= f(x)+g(x)
                assert sup_dist(f, g) <= min(a + b for a, b in zip(f, g)) + 1e-12
