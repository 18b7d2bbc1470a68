"""Retractions fix members bit for bit, for any witness and signed zeros.

The truncate strategy relaxes the diagonal half-plane ``x2 <= x1`` around a
witness member.  Members and witnesses here are random doubles, so any
change of coordinates around the witness (subtracting it from the start and
adding it back) would round and move some members by an ulp.  Members are
compared by their bits, so a member coordinate ``-0.0`` must come back as
``-0.0`` on both engines, also where a bound evaluates to ``+0.0`` or
``-0.0``.
"""

import json

import numpy as np
import pytest

from hyperlip.boxset import (
    cyclic_retract,
    cyclic_retract_many,
    retract_lambda_one_bounded,
    retract_lambda_one_bounded_many,
    retract_lambda_one_general,
    retract_lambda_one_general_many,
    set_to_obj,
    violation,
    violation_many,
)
from hyperlip.cli import main
from hyperlip.extension import extend_into_Q
from hyperlip.instances import (
    box_instance,
    diagonal_halfspace_instance,
    vee_notch_instance,
)

from conftest import embedded_metric

TOL = 1e-4


def _hex(point):
    return [float(v).hex() for v in point]


def _members(rng, count):
    """Random members of the diagonal half-plane: each row sorted so that
    ``x2 <= x1``."""
    P = np.sort(rng.uniform(-3.0, 3.0, (count, 2)), axis=1)[:, ::-1]
    return [tuple(map(float, p)) for p in P]


@pytest.fixture
def data():
    """The set, 40 witnesses and 40 groups of 8 members, all members of the
    set by an exact violation of 0.0."""
    rng = np.random.default_rng(9)
    Q = diagonal_halfspace_instance()
    witnesses = _members(rng, 40)
    groups = [_members(rng, 8) for _ in witnesses]
    assert all(violation(Q, m) == 0.0 for g in groups for m in g)
    return Q, witnesses, groups


def test_scalar_retraction(data):
    Q, witnesses, groups = data
    for w, group in zip(witnesses, groups):
        for m in group:
            assert _hex(retract_lambda_one_general(Q, w, m, TOL)) == _hex(m)


def test_batch_retraction(data):
    Q, witnesses, groups = data
    rng = np.random.default_rng(10)
    for w, group in zip(witnesses, groups):
        X = np.vstack([group, rng.uniform(-3.0, 3.0, (8, 2))])
        out = retract_lambda_one_general_many(Q, w, X, TOL)
        assert out[:len(group)].tobytes() == np.array(group).tobytes()
        assert (violation_many(Q, out) <= TOL).all()


def test_extension(data):
    Q, witnesses, groups = data
    rng = np.random.default_rng(11)
    for w, group in zip(witnesses[:10], groups):
        others = [tuple(rng.uniform(-3.0, 3.0, 2)) for _ in range(4)]
        B = embedded_metric(group + others)
        A = list(range(len(group)))
        ext = extend_into_Q(B, A, group, Q, tol=TOL, witness=w)
        assert [_hex(p) for p in ext[:len(group)]] == [_hex(p) for p in group]


def test_cli_retract(data, capsys, tmp_path):
    Q, witnesses, groups = data
    path = tmp_path / "set.json"
    path.write_text(json.dumps(set_to_obj(Q)))
    for k, (w, group) in enumerate(zip(witnesses[:10], groups)):
        for j, m in enumerate(group[:3]):
            x, wf = tmp_path / f"x{k}_{j}.json", tmp_path / f"w{k}_{j}.json"
            x.write_text(json.dumps(list(m)))
            wf.write_text(json.dumps(list(w)))
            code = main(["retract", "--set", str(path), "--point", str(x),
                         "--witness", str(wf), "--tol", str(TOL)])
            out = json.loads(capsys.readouterr().out)
            assert code == 0
            assert out["strategy"] == "truncate"
            assert _hex(out["point"]) == _hex(m)


# sets whose bounds evaluate to +0.0 or -0.0 on their members, each with
# members holding -0.0 and +0.0 coordinates
_ZERO_SETS = [
    (box_instance([(0.0, 1.0), (-1.0, 1.0)]),
     [(-0.0, 0.5), (0.0, -0.0), (-0.0, -0.0), (-0.0, 1.0)]),
    (box_instance([(-0.0, 1.0), (-1.0, -0.0)]),
     [(-0.0, -0.0), (0.0, 0.0), (0.5, -0.0), (0.0, -1.0)]),
    # |x1| <= x2: the lower bound of x2 is +0.0 at x1 = -0.0
    (vee_notch_instance(), [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (-0.0, 2.0)]),
    # x2 <= x1: the upper bound of x2 is the member's own x1
    (diagonal_halfspace_instance(), [(-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (1.0, -0.0)]),
]


@pytest.mark.parametrize("k", range(len(_ZERO_SETS)))
def test_signed_zero_members_keep_their_bits(k):
    Q, members = _ZERO_SETS[k]
    assert all(violation(Q, m) == 0.0 for m in members)
    X = np.array(members)
    if Q.lip_bound < 1.0:
        one = lambda m: cyclic_retract(Q, m, TOL)[0]
        many = cyclic_retract_many(Q, X, TOL)[0]
    elif Q.all_finite:
        box = [(-5.0, 5.0)] * 2
        one = lambda m: retract_lambda_one_bounded(Q, m, TOL, box)
        many = retract_lambda_one_bounded_many(Q, X, TOL, box)
    else:
        w = (0.0, -0.0)
        one = lambda m: retract_lambda_one_general(Q, w, m, TOL)
        many = retract_lambda_one_general_many(Q, w, X, TOL)
    assert [_hex(one(m)) for m in members] == [_hex(m) for m in members]
    assert many.tobytes() == X.tobytes()


@pytest.mark.parametrize("k", range(2))
def test_a_coordinate_moved_onto_a_zero_bound_is_positive_zero(k):
    """Both engines give the moved coordinate ``bound + 0.0``, whatever the
    sign of the zero bound or of the start."""
    Q, _ = _ZERO_SETS[k]
    starts = [(-2.0, 0.5), (0.5, 3.0), (-0.0, -3.0), (2.0, 2.0)]
    batch = cyclic_retract_many(Q, np.array(starts), TOL)[0]
    for start, row in zip(starts, batch):
        point = cyclic_retract(Q, start, TOL)[0]
        assert _hex(point) == _hex(row)
        for was, now in zip(start, point):
            if now == 0.0 and was != 0.0:
                assert now.hex() == "0x0.0p+0"


def test_cli_retract_keeps_a_negative_zero(capsys, tmp_path):
    path, x = tmp_path / "set.json", tmp_path / "x.json"
    path.write_text(json.dumps(set_to_obj(box_instance([(0.0, 1.0), (-1.0, 1.0)]))))
    x.write_text("[-0.0, 0.5]")
    assert main(["retract", "--set", str(path), "--point", str(x)]) == 0
    assert _hex(json.loads(capsys.readouterr().out)["point"]) == _hex((-0.0, 0.5))
