"""The CLI's exit-code contract on malformed JSON input.

Each case is a well-formed ``retract``, ``extend``, ``hull enumerate`` or
``verify metric`` request in which at most one input file (set, point,
witness, box, map or metric) is replaced by a hypothesis-built malformed
value.  Every run exits 0, 1 or 2, with numpy warnings turned into errors.
A nonzero exit leaves exactly one JSON-object line: on stderr for an error,
or on stdout for a report (``"verdict"`` from a level-1 retraction that
missed the set, ``"ok": false`` from ``verify``), never on both.
"""

import contextlib
import io
import itertools
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from hyperlip.boxset import set_to_obj, violation
from hyperlip.cli import main
from hyperlip.instances import (
    diagonal_halfspace_instance,
    empty_drift_instance,
    half_rate_instance,
    vee_notch_instance,
)

INF, NAN = math.inf, math.nan

small = st.one_of(st.integers(-3, 3), st.floats(min_value=-4.0, max_value=4.0))
numbers = st.one_of(small, st.sampled_from([1e308, -1e308, 1e-320, INF, -INF, NAN]))
scalars = st.one_of(numbers, st.none(), st.booleans(), st.sampled_from(["", "x", "+inf", "-inf"]))
anything = st.recursive(
    scalars,
    lambda c: st.one_of(st.lists(c, max_size=3),
                        st.dictionaries(st.sampled_from(["n", "type", "value", "lower"]), c,
                                        max_size=2)),
    max_leaves=6)
points = st.one_of(st.lists(numbers, min_size=1, max_size=3), anything)
boxes = st.one_of(st.lists(st.lists(numbers, min_size=2, max_size=2), min_size=1, max_size=3),
                  anything)
matrices = st.one_of(
    st.integers(1, 4).flatmap(
        lambda m: st.lists(st.lists(numbers, min_size=m, max_size=m), min_size=m, max_size=m)),
    anything,
)


def _bound(d, infinity):
    return st.one_of(
        st.builds(lambda v: {"type": "const", "value": v}, numbers),
        st.builds(lambda c, o, s, r: {"type": "distcone", "center": c, "offset": o,
                                      "scale": s, "orientation": r},
                  st.lists(numbers, min_size=d, max_size=d), numbers,
                  st.sampled_from([0.5, 1.0, 1.5, NAN]), st.sampled_from(["+", "-", "?"])),
        st.just(infinity),
        anything,
    )


def _set(n):
    return st.builds(lambda lo, up: {"n": n, "lower": lo, "upper": up},
                     st.lists(_bound(n - 1, "-inf"), min_size=n, max_size=n),
                     st.lists(_bound(n - 1, "+inf"), min_size=n, max_size=n))


sets = st.one_of(
    st.integers(1, 3).flatmap(_set),
    st.builds(lambda n, obj: dict(obj, n=n), scalars, _set(1)),
    anything,
)
MALFORMED = {"set": sets, "point": points, "witness": points, "box": boxes,
             "map": anything, "metric": matrices}

# the sets of the well-formed requests, with their members among small
# integer points (the empty drift set has none)
SETS = [vee_notch_instance(), diagonal_halfspace_instance(), half_rate_instance(),
        empty_drift_instance()]
MEMBERS = [[list(map(float, p)) for p in itertools.product(range(-3, 4), repeat=2)
            if violation(Q, p) == 0.0] or [[0.0, 0.0]] for Q in SETS]
grids = st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2), min_size=2, max_size=4,
                 unique_by=tuple)


def _sup_matrix(P):
    return [[float(max(abs(a - b) for a, b in zip(p, q))) for q in P] for p in P]


def _mutate(draw, files):
    """Replace at most one of ``files`` by a malformed value."""
    key = draw(st.sampled_from([None] + sorted(files)))
    if key is not None:
        files[key] = draw(MALFORMED[key])
    return files


@st.composite
def retract_requests(draw):
    i = draw(st.integers(0, len(SETS) - 1))
    files = {"set": set_to_obj(SETS[i]), "point": draw(st.lists(small, min_size=2, max_size=2))}
    if draw(st.booleans()):
        files["box"] = draw(st.lists(st.tuples(small, small).map(sorted), min_size=2,
                                     max_size=2))
    if draw(st.booleans()):
        files["witness"] = draw(st.sampled_from(MEMBERS[i]))
    return _mutate(draw, files)


@st.composite
def extend_requests(draw):
    i = draw(st.integers(0, len(SETS) - 1))
    files = {"set": set_to_obj(SETS[i]), "metric": _sup_matrix(draw(grids)),
             "map": draw(st.lists(st.sampled_from(MEMBERS[i]), min_size=2, max_size=2))}
    if draw(st.booleans()):
        files["box"] = [[-8.0, 8.0], [-8.0, 8.0]]
    if draw(st.booleans()):
        files["witness"] = draw(st.sampled_from(MEMBERS[i]))
    return _mutate(draw, files)


@st.composite
def metric_requests(draw):
    return _mutate(draw, {"metric": _sup_matrix(draw(grids))})


def _json_line(text):
    """The object of a text that is exactly one JSON-object line, else None."""
    lines = text.splitlines()
    if len(lines) != 1 or not text.endswith("\n"):
        return None
    obj = json.loads(lines[0])
    return obj if isinstance(obj, dict) else None


def _run(argv, files):
    """Write ``files`` (name -> JSON value) to a temporary directory, run
    ``main`` on ``argv`` plus one ``--<name> <path>`` pair per file, and
    check the exit-code contract.  Returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in files.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(obj))
            argv = argv + [f"--{name}", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (code, out, err)
    if code == 0:
        assert err == "" and _json_line(out) is not None, (out, err)
    elif err:
        assert out == "" and "error" in (_json_line(err) or {}), (code, out, err)
    else:
        report = _json_line(out)
        assert code == 2 and report is not None, (code, out, err)
        assert "verdict" in report or report.get("ok") is False, report
    return code


SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(retract_requests())
@example({"set": {"n": 1e400, "lower": [], "upper": []}, "point": [0.0]})
@example({"set": {"n": 1.5, "lower": ["-inf"], "upper": ["+inf"]}, "point": [0.0]})
@example({"set": set_to_obj(vee_notch_instance()), "point": [1e308, -1e308]})
@example({"set": set_to_obj(vee_notch_instance()), "point": [0.0, -3.0],
          "box": [[1e308, -1e308], [0.0, 1.0]]})
def test_retract(files):
    _run(["retract", "--tol", "0.1", "--max-sweeps", "200"], files)


@SETTINGS
@given(extend_requests())
@example({"set": set_to_obj(vee_notch_instance()), "metric": [[0, 1e400], [1e400, 0]],
          "map": [[0.0, 0.0], [1.0, 1.0]]})
@example({"set": set_to_obj(vee_notch_instance()), "map": [[0.0, 0.0], [1e308, 3.0]],
          "metric": [[0, 1e308, 0.5], [1e308, 0, 1e308], [0.5, 1e308, 0]]})
def test_extend(files):
    _run(["extend", "--subset", "0,1", "--tol", "0.1"],
         {"space" if k == "metric" else k: v for k, v in files.items()})


@SETTINGS
@given(metric_requests())
@example({"metric": [[0, NAN], [NAN, 0]]})
@example({"metric": [[0, 1e400], [1e400, 0]]})
@example({"metric": [[0, 1e308, 1e308], [1e308, 0, -1e308], [1e308, 1e308, 0]]})
def test_hull_and_verify_metric(files):
    _run(["hull", "enumerate", "--resolution", "0.5"], files)
    _run(["verify", "metric"], {"matrix": files["metric"]})
