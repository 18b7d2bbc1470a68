"""Level-1 retractions fix members bit for bit, for any witness.

The truncate strategy relaxes the diagonal half-plane ``x2 <= x1`` around a
witness member.  Members and witnesses here are random doubles, so any
change of coordinates around the witness (subtracting it from the start and
adding it back) would round and move some members by an ulp.
"""

import json

import numpy as np
import pytest

from hyperlip.boxset import (
    retract_lambda_one_general,
    retract_lambda_one_general_many,
    set_to_obj,
    violation,
    violation_many,
)
from hyperlip.cli import main
from hyperlip.extension import extend_into_Q
from hyperlip.instances import diagonal_halfspace_instance

from conftest import embedded_metric

TOL = 1e-4


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
            assert retract_lambda_one_general(Q, w, m, TOL) == m


def test_batch_retraction(data):
    Q, witnesses, groups = data
    rng = np.random.default_rng(10)
    for w, group in zip(witnesses, groups):
        X = np.vstack([group, rng.uniform(-3.0, 3.0, (8, 2))])
        out = retract_lambda_one_general_many(Q, w, X, TOL)
        assert np.array_equal(out[:len(group)], np.array(group))
        assert (violation_many(Q, out) <= TOL).all()


def test_extension(data):
    Q, witnesses, groups = data
    rng = np.random.default_rng(11)
    for w, group in zip(witnesses[:10], groups):
        others = [tuple(rng.uniform(-3.0, 3.0, 2)) for _ in range(4)]
        B = embedded_metric(group + others)
        A = list(range(len(group)))
        ext = extend_into_Q(B, A, group, Q, tol=TOL, witness=w)
        assert ext[:len(group)] == group


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
            assert tuple(out["point"]) == m
