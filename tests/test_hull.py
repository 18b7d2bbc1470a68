"""Tests for admissible/extremal functions and the grid enumeration."""

import math
import os

import numpy as np
import pytest

from hyperlip import hull
from hyperlip.hull import (
    attach_point,
    enumerate_extremal_grid,
    extremal_zero_classification,
    in_delta,
    is_extremal,
)
from hyperlip.metric import FiniteMetricSpace, sup_dist

from conftest import random_metric


def _two_point(d=1.0):
    return FiniteMetricSpace(np.array([[0.0, d], [d, 0.0]]))


def _tripod():
    return FiniteMetricSpace(np.array([[0.0, 2.0, 2.0],
                                       [2.0, 0.0, 2.0],
                                       [2.0, 2.0, 0.0]]))


class TestAdmissibility:
    def test_rows_are_admissible(self, rng):
        X = random_metric(rng, 6)
        for x in range(6):
            assert in_delta(X, X.row(x))

    def test_diagonal_pairs_force_nonnegativity(self):
        X = _two_point()
        assert not in_delta(X, (-0.5, 2.0))

    def test_too_small_values_fail(self):
        X = _two_point()
        assert not in_delta(X, (0.25, 0.25))
        assert in_delta(X, (0.25, 0.75))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            in_delta(_two_point(), (1.0,))

    def test_nan_values_are_not_admissible(self):
        X = _two_point()
        assert not in_delta(X, (float("nan"), 1.0))
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

    def test_inadmissible_input_is_an_error(self):
        with pytest.raises(ValueError):
            is_extremal(_two_point(), (0.1, 0.1))

    def test_segment_parametrization(self):
        # on two points the extremal set is exactly f = (t, d - t)
        X = _two_point(d=2.0)
        for t in (0.0, 0.5, 1.0, 1.5, 2.0):
            assert is_extremal(X, (t, 2.0 - t))


class TestZeroClassification:
    def test_rows_classify_as_themselves(self, rng):
        X = random_metric(rng, 7)
        for x in range(7):
            kind, idx = extremal_zero_classification(X, X.row(x))
            assert kind == "is_dx"
            assert idx == x

    def test_interior_functions_have_no_zero(self):
        kind, idx = extremal_zero_classification(_two_point(), (0.5, 0.5))
        assert kind == "no_zero"
        assert idx is None

    def test_zero_bearing_functions_match_their_row_within_the_bound(self, rng):
        """Whatever passes the extremality check with a near-zero entry sits
        within eta + 2*tol of the matching distance row; the classification
        must accept the whole band rather than crying foul inside it."""
        X = _tripod()
        f = (0.05, 1.9, 2.1)
        assert is_extremal(X, f, tol=0.2)
        kind, idx = extremal_zero_classification(X, f, tol=0.2)
        assert (kind, idx) == ("is_dx", 0)
        for m in (3, 6):
            Y = random_metric(rng, m)
            for x in range(m):
                tol = 0.05
                noisy = tuple(v + rng.uniform(0.0, tol) for v in Y.row(x))
                if not is_extremal(Y, noisy, tol=tol):
                    continue
                kind, idx = extremal_zero_classification(Y, noisy, tol=tol)
                assert kind == "is_dx"



def _reference_attach_fault(X, vals):
    """The first fault the pair-by-pair loop of ``attach_point`` reported."""
    m = X.size
    for i in range(m):
        if not (math.isfinite(vals[i]) and vals[i] > 0.0):
            return (f"attach distance at index {i} is not finite and positive: "
                    f"{vals[i]!r}")
    for i in range(m):
        for j in range(i + 1, m):
            if vals[i] + vals[j] < X.d(i, j):
                return f"not admissible on pair ({i}, {j})"
            if abs(vals[i] - vals[j]) > X.d(i, j):
                return f"not 1-Lipschitz on pair ({i}, {j})"
    return None


class TestAttach:
    def test_attaching_an_extremal_function_gives_a_metric(self, rng):
        X = random_metric(rng, 5)
        f = tuple(v + 0.1 for v in X.row(2))
        Y = attach_point(X, f)
        assert Y.size == 6
        assert Y.matrix[5, 2] == f[2]
        assert (Y.matrix[:5, :5] == X.matrix).all()

    def test_rejects_nonpositive_distances(self):
        X = _two_point()
        with pytest.raises(ValueError):
            attach_point(X, (0.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_distances(self, bad):
        with pytest.raises(ValueError, match="finite"):
            attach_point(_two_point(), (bad, 1.0))

    def test_rejects_expanding_functions(self):
        X = _two_point(d=1.0)
        with pytest.raises(ValueError):
            attach_point(X, (0.25, 3.0))

    @pytest.mark.parametrize("f, message", [
        ((0.2, 0.3, 5.0), "not admissible on pair (0, 1)"),
        ((0.2, 5.0, 0.3), "not 1-Lipschitz on pair (0, 1)"),
        ((5.0, 0.2, 0.3), "not 1-Lipschitz on pair (0, 1)"),
        ((1.0, 1.5, 0.2), "not 1-Lipschitz on pair (1, 2)"),
        ((0.9, 0.5, 0.4), "not admissible on pair (1, 2)"),
        ((1.0, math.nan, -1.0), "attach distance at index 1 is not finite and positive: nan"),
        ((1.0, 0.5, -0.0), "attach distance at index 2 is not finite and positive: -0.0"),
    ])
    def test_first_fault_is_reported(self, f, message):
        X = FiniteMetricSpace(np.ones((3, 3)) - np.eye(3))
        with pytest.raises(ValueError) as err:
            attach_point(X, f)
        assert str(err.value) == message

    def test_first_fault_matches_the_pairwise_reference(self):
        """Seeded inputs with admissibility and Lipschitz faults at different
        pairs report the fault the pair-by-pair loop met first."""
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(200):
            m = int(rng.integers(2, 9))
            X = random_metric(rng, m)
            f = rng.uniform(0.05, 2.5, m)
            f[rng.random(m) < 0.05] = rng.choice([0.0, -1.0, math.inf, math.nan])
            want = _reference_attach_fault(X, [float(v) for v in f])
            if want is None:
                assert attach_point(X, f).size == m + 1
                continue
            with pytest.raises(ValueError) as err:
                attach_point(X, f)
            assert str(err.value) == want
            seen.add(want.split(" on ")[0].split(" at ")[0])
        assert seen == {"not admissible", "not 1-Lipschitz", "attach distance"}


def _reference_scan(D, V, shape, start, stop, tol):
    """The extremality scan over an ``(N, m)`` row table that the column scan
    replaced, kept as the reference for its found list."""
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

    def test_workers_give_the_same_answer(self, monkeypatch):
        # three CPUs split the 41^3 candidates into three blocks
        monkeypatch.setattr(hull, "_cpus", lambda: 3)
        X = _tripod()
        V = np.array([j * 0.05 for j in range(41)])
        whole = hull._scan_block(X.matrix, V, (41,) * 3, 0, 41 ** 3, 0.025)
        rows = {tuple(float(v) for v in X.row(x)) for x in range(3)}
        assert enumerate_extremal_grid(X, 0.05) == sorted(set(whole) | rows)

    def test_pool_size_and_rows_in_flight(self, monkeypatch):
        asked, sizes = [], []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        scan = hull._scan_block

        def recording_scan(D, V, shape, start, stop, tol):
            sizes.append(stop - start)
            return scan(D, V, shape, start, stop, tol)

        want = enumerate_extremal_grid(_tripod(), 0.05)
        monkeypatch.setattr(hull, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(hull, "_scan_block", recording_scan)
        for cpus in (1, 2, 3, 64):
            asked.clear()
            sizes.clear()
            monkeypatch.setattr(hull, "_cpus", lambda: cpus)
            assert enumerate_extremal_grid(_tripod(), 0.05) == want
            assert sum(sizes) == 41 ** 3
            assert asked == [min(cpus, len(sizes))]
            assert asked[0] * max(sizes) <= hull._ROWS_IN_FLIGHT

    def test_cpu_count_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert hull._cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert hull._cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert hull._cpus() == 1

    def test_one_row_checks_match_the_scan(self, rng):
        for m, res in ((2, 0.25), (3, 0.25), (4, 0.5)):
            X = random_metric(rng, m)
            count = int(np.floor(X.matrix.max() / res + 1e-9)) + 1
            V = np.array([j * res for j in range(count)])
            tol = res / 2.0
            found = set(hull._scan_block(X.matrix, V, (count,) * m, 0, count ** m, tol))
            for ix in np.ndindex(*(count,) * m):
                f = tuple(float(V[k]) for k in ix)
                extremal = in_delta(X, f, tol) and is_extremal(X, f, tol)
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
                    got = hull._scan_block(X.matrix, V, shape, start, total, tol)
                    assert got == want
                    assert all(type(v) is float for f in got for v in f)

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
