"""Tests for Lipschitz extension and the isometric sup-norm embedding."""

import hashlib

import numpy as np
import pytest

from hyperlip import boxset, extension
from hyperlip.boxset import (
    DivergenceDetectedError,
    UnsupportedSetError,
    violation,
    violation_many,
)
from hyperlip.extension import (
    NotLipschitzError,
    _extend_all_components,
    extend_into_Q,
    kuratowski_embed,
)
from hyperlip.instances import (
    box_instance,
    diagonal_halfspace_instance,
    random_mcshane_instance,
    sample_members,
    vee_notch_instance,
)
from hyperlip.metric import FiniteMetricSpace, sup_dist

from conftest import embedded_metric, random_metric


def _three_point_space():
    D = np.array([[0.0, 2.0, 1.0],
                  [2.0, 0.0, 1.5],
                  [1.0, 1.5, 0.0]])
    return FiniteMetricSpace(D)


def _envelope(B, A, values):
    """Inf-envelope extension of scalar data, one value per point of ``B``."""
    return list(_extend_all_components(B, A, [[v] for v in values])[:, 0])


class TestScalarExtension:
    """The coordinatewise inf-envelope, and the input checks of
    :func:`extend_into_Q` that guard it."""

    def test_worked_example(self):
        B = _three_point_space()
        # data 0 at point 0 and 1 at point 1; at point 2 the envelope takes
        # min(0 + d(0,2), 1 + d(1,2)) = min(1.0, 2.5)
        assert _envelope(B, [0, 1], [0.0, 1.0])[2] == 1.0

    def test_agreement_on_the_subset_is_exact(self):
        B = _three_point_space()
        assert _envelope(B, [0, 1], [0.125, 1.375])[1] == 1.375

    def test_extension_is_one_lipschitz(self, rng):
        B = random_metric(rng, 9)
        A = [0, 2, 5]
        base = rng.uniform(-1, 1)
        ext = _envelope(B, A, [base, base + 0.5, base - 0.5])
        for i in range(9):
            for j in range(9):
                assert abs(ext[i] - ext[j]) <= B.d(i, j) + 1e-12

    def test_extension_is_the_largest_one(self, rng):
        """Every 1-Lipschitz extension of the data sits below the envelope."""
        B = random_metric(rng, 7)
        A = [1, 4]
        values = [0.0, 0.75]
        ext = _envelope(B, A, values)
        # the lower envelope max(v_a - d(a, b)) is another extension
        lower = [max(v - B.d(a, b) for a, v in zip(A, values)) for b in range(7)]
        for lo, hi in zip(lower, ext):
            assert lo <= hi + 1e-12

    def test_non_lipschitz_data_rejected_with_witness(self):
        B = _three_point_space()
        Q = box_instance([(-10.0, 10.0)])
        with pytest.raises(NotLipschitzError) as err:
            extend_into_Q(B, [0, 2], [(0.0,), (9.0,)], Q)
        assert err.value.witness == (0, 2)

    def test_subset_validation(self):
        B = _three_point_space()
        Q = box_instance([(-10.0, 10.0)])
        with pytest.raises(ValueError):
            extend_into_Q(B, [], [], Q)
        with pytest.raises(ValueError):
            extend_into_Q(B, [0, 0], [(1.0,), (1.0,)], Q)
        with pytest.raises(IndexError):
            extend_into_Q(B, [0, 7], [(1.0,), (1.0,)], Q)
        with pytest.raises(ValueError):
            extend_into_Q(B, [0, 1], [(1.0,)], Q)

    @pytest.mark.parametrize("A, bad", [
        ([0.9, 2.7], "0.9"), (["0", True], "'0'"), ([0, True], "True"), ([0, 2.0], "2.0"),
        (np.array([0.0, 2.0]), "np.float64(0.0)"),
    ])
    def test_subset_indices_must_be_integers(self, A, bad):
        B = _three_point_space()
        Q = box_instance([(-10.0, 10.0)])
        with pytest.raises(ValueError) as err:
            extend_into_Q(B, A, [(0.5,), (-0.25,)], Q)
        assert str(err.value) == f"subset index must be an integer, got {bad}"

    def test_numpy_integer_indices_are_accepted(self):
        B = _three_point_space()
        Q = box_instance([(-10.0, 10.0)])
        assert extend_into_Q(B, np.array([0, 2]), [(0.5,), (-0.25,)], Q) == \
            extend_into_Q(B, [0, 2], [(0.5,), (-0.25,)], Q)

    @pytest.mark.parametrize("phi, exc, message", [
        ([(1.0,), (1.0, 2.0)], ValueError, "mixed point dimensions [1, 2]"),
        ([(1.0, 2.0), (1.0, 2.0)], ValueError, "image point of dimension 2, set has dimension 1"),
        ([(), ()], ValueError, "image point of dimension 0, set has dimension 1"),
        ([(1.0,)], ValueError, "need exactly one image point per subset index"),
        ([(1.0,), (float("nan"),)], ValueError, "point coordinates must be finite, got nan"),
        ([(1.0,), 2.0], TypeError, "'float' object is not iterable"),
        ([(1.0,), (20.0,)], ValueError, "image of index 1 is not a member (violation 10)"),
    ])
    def test_image_refusals_keep_their_messages(self, phi, exc, message):
        B = _three_point_space()
        Q = box_instance([(-10.0, 10.0)])
        for images in (phi, iter(phi)):
            with pytest.raises(exc) as err:
                extend_into_Q(B, [0, 1], images, Q)
            assert str(err.value) == message

    def test_images_may_be_an_array(self):
        B = _three_point_space()
        Q = box_instance([(-10.0, 10.0)])
        want = extend_into_Q(B, [0, 2], [(0.5,), (-0.25,)], Q)
        assert extend_into_Q(B, [0, 2], np.array([[0.5], [-0.25]]), Q) == want
        assert want[0] == (0.5,) and want[2] == (-0.25,)


class TestExtendIntoSet:
    def _instance(self, rng, n=2, lam=0.5, extras=4):
        Q = random_mcshane_instance(n, lam, rng)
        starts = [tuple(rng.uniform(-2, 2, n)) for _ in range(3)]
        members = sample_members(Q, starts)
        pts = members + [tuple(rng.uniform(-2, 2, n)) for _ in range(extras)]
        return Q, members, embedded_metric(pts)

    def test_agrees_exactly_and_stays_nonexpansive(self, rng):
        Q, members, B = self._instance(rng)
        A = list(range(len(members)))
        ext = extend_into_Q(B, A, members, Q, tol=1e-8)
        assert len(ext) == B.size
        for a in A:
            assert ext[a] == members[a]
        for i in range(B.size):
            for j in range(B.size):
                assert sup_dist(ext[i], ext[j]) <= B.d(i, j) + 1e-12

    def test_images_land_in_the_set(self, rng):
        Q, members, B = self._instance(rng, n=3, lam=0.9)
        A = list(range(len(members)))
        ext = extend_into_Q(B, A, members, Q, tol=1e-8)
        lam = Q.lip_bound
        assert (violation_many(Q, np.array(ext)) <= 1e-8 * lam * (1 - lam)).all()

    def test_level_one_finite_bounds_path(self, rng):
        Q = vee_notch_instance()
        members = [(0.0, 0.0), (1.0, 2.0), (-1.0, 1.5)]
        pts = members + [tuple(rng.uniform(-3, 3, 2)) for _ in range(3)]
        B = embedded_metric(pts)
        ext = extend_into_Q(B, [0, 1, 2], members, Q, tol=1e-5)
        for a in (0, 1, 2):
            assert ext[a] == members[a]
        assert (violation_many(Q, np.array(ext)) <= 1e-5).all()
        for i in range(B.size):
            for j in range(B.size):
                assert sup_dist(ext[i], ext[j]) <= B.d(i, j) + 1e-12

    def test_missing_bounds_need_a_witness(self, rng):
        Q = diagonal_halfspace_instance()
        members = [(1.0, 0.0), (3.0, 2.0)]
        pts = members + [tuple(rng.uniform(-2, 4, 2)) for _ in range(2)]
        B = embedded_metric(pts)
        with pytest.raises(UnsupportedSetError, match="witness"):
            extend_into_Q(B, [0, 1], members, Q, tol=1e-4)
        ext = extend_into_Q(B, [0, 1], members, Q, tol=1e-4, witness=(0.0, 0.0))
        assert ext[0] == members[0]
        assert ext[1] == members[1]
        assert (violation_many(Q, np.array(ext)) <= 1e-4).all()

    def test_non_member_images_rejected(self, rng):
        Q, members, B = self._instance(rng)
        bad = [tuple(c + 50.0 for c in m) for m in members]
        with pytest.raises(ValueError):
            extend_into_Q(B, [0, 1, 2], bad, Q)

    def test_expanding_map_rejected_with_witness(self, rng):
        Q, members, B = self._instance(rng)
        # map two close points of B to far-apart members
        far = sample_members(Q, [(40.0, 40.0)])[0]
        with pytest.raises(NotLipschitzError) as err:
            extend_into_Q(B, [0, 1], [members[0], far], Q)
        assert err.value.witness == (0, 1)

    def test_first_stretched_pair_in_the_subsets_order_is_named(self):
        # every pair is 1 apart; in A's order the pairs stretch by 0.5, 1
        # and 1, so neither index order nor the largest stretch names (3, 0)
        B = FiniteMetricSpace(np.ones((4, 4)) - np.eye(4))
        Q = box_instance([(0.0, 4.0), (0.0, 4.0)])
        with pytest.raises(NotLipschitzError) as err:
            extend_into_Q(B, [3, 0, 2], [(0.0, 0.0), (1.5, 0.0), (0.0, 2.0)], Q)
        assert str(err.value) == "map stretches pair (3, 0) by 0.5"
        assert err.value.witness == (3, 0)

    @pytest.mark.parametrize("make, members, witness, box, message", [
        (vee_notch_instance, [(0.0, 0.0), (1.0, 2.0)], (0.0, 0.0, 0.0), None,
         "witness of dimension 3 for a set of dimension 2"),
        (diagonal_halfspace_instance, [(1.0, 0.0), (3.0, 2.0)], (0.0, 0.0),
         [(1.0, -1.0), (-1.0, 1.0)], "empty box side (1.0, -1.0)"),
        (diagonal_halfspace_instance, [(1.0, 0.0), (3.0, 2.0)], (0.0, 0.0),
         [(-9.0, 9.0)], "expected a box with 2 sides, got 1"),
    ])
    def test_level_one_box_and_witness_are_checked(self, make, members, witness, box,
                                                   message):
        B = embedded_metric(members + [(2.0, -1.0)])
        with pytest.raises(ValueError) as err:
            extend_into_Q(B, [0, 1], members, make(), tol=1e-3, witness=witness, box=box)
        assert str(err.value) == message

    def test_level_one_unused_well_formed_inputs_are_accepted(self):
        cases = [(vee_notch_instance(), [(0.0, 0.0), (1.0, 2.0)], {"witness": (5.0, 5.0)}, {}),
                 (diagonal_halfspace_instance(), [(1.0, 0.0), (3.0, 2.0)],
                  {"witness": (0.0, 0.0), "box": [(-1.0, 1.0)] * 2}, {"witness": (0.0, 0.0)})]
        for Q, members, given, needed in cases:
            B = embedded_metric(members + [(2.0, -1.0)])
            assert extend_into_Q(B, [0, 1], members, Q, tol=1e-3, **given) == \
                extend_into_Q(B, [0, 1], members, Q, tol=1e-3, **needed)

    def test_level_one_default_box_is_the_library_box(self, rng):
        Q = vee_notch_instance()
        members = [(0.0, 0.0), (1.0, 2.0)]
        B = embedded_metric(members + [tuple(rng.uniform(-3, 3, 2)) for _ in range(3)])
        ext = _extend_all_components(B, [0, 1], members)
        box = boxset._auto_box(Q, ext)
        assert extend_into_Q(B, [0, 1], members, Q, tol=1e-3) == \
            extend_into_Q(B, [0, 1], members, Q, tol=1e-3, box=box)

    @pytest.mark.parametrize("make, members, witness, shift", [
        (vee_notch_instance, [(0.0, 0.0), (1.0, 2.0)], None, (0.0, -1.0)),
        (diagonal_halfspace_instance, [(1.0, 0.0), (3.0, 2.0)], (0.0, 0.0), (-1.0, 1.0)),
    ])
    def test_level_one_residual_is_checked(self, monkeypatch, make, members, witness, shift):
        """A level-1 result that misses the set raises with a probe verdict."""
        original = extension.retract

        def moved(*args, **kwargs):
            points, trace, report = original(*args, **kwargs)
            return points + np.asarray(shift), trace, report

        monkeypatch.setattr(extension, "retract", moved)
        B = embedded_metric(members + [(2.0, -1.0)])
        with pytest.raises(DivergenceDetectedError) as err:
            extend_into_Q(B, [0, 1], members, make(), tol=1e-4, witness=witness)
        assert err.value.verdict in ("stalled", "decaying")
        assert err.value.trace.steps == 40 * 2


def _extension_case(kind):
    """One seeded extension per retraction strategy: 60 points in ``[-3,
    3]^n``, some of them members of ``Q`` mapped to themselves."""
    rng = np.random.default_rng(2222)
    box = witness = None
    if kind == "cyclic":
        Q = random_mcshane_instance(3, 0.5, rng, samples=16)
        members = sample_members(Q, rng.uniform(-2.0, 2.0, (5, 3)))
        tol = 1e-6
    elif kind == "shrink":
        Q, box = vee_notch_instance(), [(-10.0, 10.0)] * 2
        members = [(0.0, 0.5), (1.0, 2.0), (-1.5, 2.25), (0.25, 3.0)]
        tol = 1e-3
    else:
        Q, witness = diagonal_halfspace_instance(), (0.0, 0.0)
        members = [(0.5, 0.0), (2.0, -1.0), (-1.0, -2.5), (3.0, 3.0)]
        tol = 1e-3
    P = rng.uniform(-3.0, 3.0, (60, Q.n))
    A = sorted(rng.choice(60, size=len(members), replace=False).tolist())
    P[A] = members
    B = FiniteMetricSpace.from_points(P)
    return B, extend_into_Q(B, A, members, Q, tol=tol, witness=witness, box=box)


class TestOutputs:
    """Extension and embedding return tuples of Python floats, with the bits
    they had when they returned numpy scalars."""

    # sha256 of the extension, the distance matrix and the embedding,
    # computed before the points left numpy through ``tolist()``
    DIGESTS = {
        "cyclic": "42f5e0d57886e545fd2267dc539abc044a66d97b42cf2dc40994dcfdc17564ab",
        "shrink": "aaea077f22424b4fec0e3d660a77d9979b4620af4d7be29ee0e6e931dd5eefde",
        "witness": "e6c48f5fddcf617c55fb2277ef1062c9ca9a0356736aee918909a42452f35856",
    }

    @pytest.mark.parametrize("kind", sorted(DIGESTS))
    def test_extension_bytes_and_types(self, kind):
        B, ext = _extension_case(kind)
        emb = kuratowski_embed(B)
        for points in (ext, emb):
            assert type(points) is list and len(points) == B.size
            assert all(type(p) is tuple and all(type(c) is float for c in p) for p in points)
        digest = hashlib.sha256(np.asarray(ext, dtype=float).tobytes())
        digest.update(B.matrix.tobytes())
        digest.update(np.asarray(emb, dtype=float).tobytes())
        assert digest.hexdigest() == self.DIGESTS[kind]


class TestKuratowski:
    def test_exact_isometry(self, rng):
        for m in (2, 5, 12):
            X = random_metric(rng, m)
            emb = kuratowski_embed(X)
            for i in range(m):
                for j in range(m):
                    assert abs(sup_dist(emb[i], emb[j]) - X.d(i, j)) <= 1e-12

    def test_row_formula(self):
        X = _three_point_space()
        emb = kuratowski_embed(X, basepoint=1)
        base = X.row(1)
        for x in range(3):
            assert emb[x] == tuple(X.d(x, y) - base[y] for y in range(3))
        # the basepoint maps to the origin
        assert emb[1] == (0.0, 0.0, 0.0)

    def test_any_basepoint_is_isometric(self, rng):
        X = random_metric(rng, 6)
        for b in range(6):
            emb = kuratowski_embed(X, basepoint=b)
            worst = max(abs(sup_dist(emb[i], emb[j]) - X.d(i, j))
                        for i in range(6) for j in range(6))
            assert worst <= 1e-12

    def test_entries_match_the_per_entry_formula_to_the_bit(self, rng):
        for m in (1, 2, 7, 30):
            X = embedded_metric([tuple(p) for p in rng.uniform(-1e3, 1e3, (m, 3))])
            for b in range(m):
                emb = kuratowski_embed(X, basepoint=b)
                assert [[float.hex(v) for v in row] for row in emb] == [
                    [float.hex(X.d(x, y) - X.d(b, y)) for y in range(m)] for x in range(m)]
                assert all(type(v) is float for row in emb for v in row)

    @pytest.mark.parametrize("basepoint", [1.9, 1.0, True, "1", None])
    def test_basepoint_must_be_an_integer(self, basepoint):
        with pytest.raises(ValueError) as err:
            kuratowski_embed(_three_point_space(), basepoint)
        assert str(err.value) == f"basepoint must be an integer, got {basepoint!r}"

    def test_a_numpy_integer_basepoint_is_accepted(self):
        X = _three_point_space()
        assert kuratowski_embed(X, np.int64(1)) == kuratowski_embed(X, 1)

    def test_basepoint_range_checked(self):
        X = _three_point_space()
        with pytest.raises(IndexError):
            kuratowski_embed(X, basepoint=3)
