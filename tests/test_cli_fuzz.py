"""The CLI's exit-code contract on malformed input.

Each case is a well-formed ``retract``, ``extend``, ``hull enumerate``,
``verify metric``, ``reconstruct``, ``verify lipschitz`` or ``plot`` request
in which at most one input file is replaced by a hypothesis-built malformed
value, and whose numeric flags (``--a``, ``--lam``, ``--tol``,
``--resolution``) and ``--subset`` words are drawn from hostile values too.
Every run exits 0, 1 or 2, with numpy warnings turned into errors.  A
nonzero exit leaves exactly one JSON-object line: on stderr for an error,
or on stdout for a report (``"verdict"`` from a level-1 retraction that
missed the set, ``"ok": false`` from ``verify``), never on both.  Every line
is strict JSON: ``NaN`` and ``Infinity`` fail the parse.
"""

import contextlib
import io
import itertools
import json
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from hyperlip import cli
from hyperlip.boxset import set_to_obj, violation
from hyperlip.cli import main
from hyperlip.instances import (
    diagonal_halfspace_instance,
    empty_drift_instance,
    half_rate_instance,
    origin_cycle_instance,
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
point_lists = st.one_of(st.lists(points, max_size=4), anything)
cone_lists = st.one_of(
    st.lists(st.fixed_dictionaries({"apex": points, "axis": small, "sign": scalars}), max_size=2),
    anything)
MALFORMED = {"set": sets, "point": points, "witness": points, "box": boxes,
             "map": anything, "metric": matrices, "inside": point_lists,
             "outside": point_lists, "verify-grid": point_lists, "grid": point_lists,
             "orbit": point_lists, "cones": cone_lists,
             "expr": st.one_of(_bound(2, "+inf"), anything)}
# numeric flag values as typed on a command line
flags = st.one_of(st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1", "1e-320", "1e308",
                                   "x", ""]),
                  st.floats(min_value=1e-3, max_value=4.0).map(repr))

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
    return draw(st.one_of(st.just("0.1"), flags)), _mutate(draw, files)


@st.composite
def extend_requests(draw):
    i = draw(st.integers(0, len(SETS) - 1))
    files = {"set": set_to_obj(SETS[i]), "metric": _sup_matrix(draw(grids)),
             "map": draw(st.lists(st.sampled_from(MEMBERS[i]), min_size=2, max_size=2))}
    if draw(st.booleans()):
        files["box"] = [[-8.0, 8.0], [-8.0, 8.0]]
    if draw(st.booleans()):
        files["witness"] = draw(st.sampled_from(MEMBERS[i]))
    subset = draw(st.one_of(st.just("0,1"), st.sampled_from(
        ["1,0", "0", "0,0", "0,5", "0,-1", "", "0,,", "0,x", "0,1.0", "0,1e400", "0,true"])))
    return subset, _mutate(draw, files)


@st.composite
def metric_requests(draw):
    """A ``--resolution``, a ``verify metric --tol`` and a metric file.  The
    well-formed metric is sometimes scaled near the largest float, and the
    resolution is a hostile flag or a value near that scale, at which the
    grid stays small while its sums overflow."""
    scale = draw(st.sampled_from([1.0, 1e307]))
    metric = [[scale * d for d in row] for row in _sup_matrix(draw(grids))]
    resolution = draw(st.one_of(flags, st.sampled_from(["1e307", "2.5e307", "1e308"])))
    tol = draw(st.one_of(st.just("1e-12"), flags))
    return resolution, tol, _mutate(draw, {"metric": metric})


@st.composite
def reconstruct_requests(draw):
    cells = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=2,
                          max_size=12, unique=True))
    k = draw(st.integers(1, len(cells) - 1))
    files = {"inside": cells[:k], "outside": cells[k:]}
    if draw(st.booleans()):
        files["verify-grid"] = cells
    return draw(flags), _mutate(draw, files)


@st.composite
def lipschitz_requests(draw):
    files = {"expr": draw(_bound(2, "+inf")), "grid": draw(grids)}
    return draw(flags), draw(flags), _mutate(draw, files)


@st.composite
def plot_requests(draw):
    files = {"box": [[-3, 3], [-3, 3]]}
    if draw(st.booleans()):
        files["set"] = set_to_obj(SETS[draw(st.integers(0, len(SETS) - 1))])
    if draw(st.booleans()):
        files["orbit"] = draw(grids)
    if draw(st.booleans()):
        files["cones"] = [{"apex": p, "axis": draw(st.integers(0, 1)), "sign": "+"}
                          for p in draw(grids)]
    return draw(flags), _mutate(draw, files)


def _refuse(constant):
    raise ValueError(f"{constant} is not strict JSON")


def _json_line(text):
    """The object of a text that is exactly one strict JSON-object line,
    else None."""
    lines = text.splitlines()
    if len(lines) != 1 or not text.endswith("\n"):
        return None
    obj = json.loads(lines[0], parse_constant=_refuse)
    return obj if isinstance(obj, dict) else None


def _run(argv, files, out_name=None, times=1):
    """Write ``files`` (name -> JSON value) to a temporary directory, run
    ``main`` ``times`` times on ``argv`` plus one ``--<name> <path>`` pair
    per file (and ``--out`` to the file ``out_name`` there, when given), and
    check the exit-code contract of each run, and that an output file
    written at exit 0 holds no ``nan`` or ``inf``.  Returns the
    ``(code, stdout, stderr)`` of each run."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in files.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(obj))
            argv = argv + [f"--{name}", str(path)]
        if out_name is not None:
            argv = argv + ["--out", str(Path(tmp) / out_name)]
        for _ in range(times):
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = main(argv)
            if out_name is not None and code == 0:
                written = (Path(tmp) / out_name).read_text()
                assert "nan" not in written and "inf" not in written, written
            results.append((code, out.getvalue(), err.getvalue()))
    for code, out, err in results:
        assert code in (0, 1, 2), (code, out, err)
        if code == 0:
            assert err == "" and _json_line(out) is not None, (out, err)
        elif err:
            assert out == "" and "error" in (_json_line(err) or {}), (code, out, err)
        else:
            report = _json_line(out)
            assert code == 2 and report is not None, (code, out, err)
            assert "verdict" in report or report.get("ok") is False, report
    return results


SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(retract_requests())
@example(("0.1", {"set": {"n": 1e400, "lower": [], "upper": []}, "point": [0.0]}))
@example(("0.1", {"set": {"n": 1.5, "lower": ["-inf"], "upper": ["+inf"]}, "point": [0.0]}))
@example(("0.1", {"set": {"n": 2, "lower": 5, "upper": ["+inf", "+inf"]}, "point": [0.0, 0.0]}))
@example(("0.1", {"set": set_to_obj(vee_notch_instance()), "point": [1e308, -1e308]}))
@example(("0.1", {"set": set_to_obj(vee_notch_instance()), "point": [0.0, -3.0],
                  "box": [[1e308, -1e308], [0.0, 1.0]]}))
@example(("0.1", {"set": set_to_obj(origin_cycle_instance()), "point": [0.0, 1.0],
                  "box": [[-1e308, 1e308], [-1e308, 1e308]]}))
@example(("0.1", {"set": set_to_obj(diagonal_halfspace_instance()), "point": [1e308, -1e308],
                  "witness": [-1e308, -1e308]}))
@example(("0.1", {"set": {"n": 2, "lower": [{"type": "const", "value": -1e308}, "-inf"],
                          "upper": [{"type": "const", "value": 1e308}, "+inf"]},
                  "point": [-1e308, 1e308]}))
# an infinite tolerance would relax a level-1 set by k = 1 and accept any violation
@example(("inf", {"set": set_to_obj(vee_notch_instance()), "point": [0.0, -3.0]}))
def test_retract(request):
    """Each request runs twice, first with an empty set cache and then
    through the set the first run kept: both give the same bytes."""
    tol, files = request
    with mock.patch.object(cli, "_SETS", cli._SetCache()):
        first, second = _run(["retract", f"--tol={tol}", "--max-sweeps", "200"], files,
                             times=2)
    assert first == second


@SETTINGS
@given(extend_requests())
@example(("0,1", {"set": set_to_obj(vee_notch_instance()), "metric": [[0, 1e400], [1e400, 0]],
                  "map": [[0.0, 0.0], [1.0, 1.0]]}))
@example(("0,1", {"set": set_to_obj(vee_notch_instance()), "map": [[0.0, 0.0], [1e308, 3.0]],
                  "metric": [[0, 1e308, 0.5], [1e308, 0, 1e308], [0.5, 1e308, 0]]}))
@example(("0,1", {"set": set_to_obj(origin_cycle_instance()), "map": [[0.0, 0.0], [0.0, 0.0]],
                  "metric": [[0, 1], [1, 0]], "box": [[-1e308, 1e308], [-1e308, 1e308]]}))
# the batch engine's distances to a far cone centre overflow to inf
@example(("0,1", {"set": {"n": 2,
                          "lower": [{"type": "distcone", "center": [-1e308], "offset": 0.0,
                                     "scale": 0.5, "orientation": "-"},
                                    {"type": "const", "value": -5.0}],
                          "upper": [{"type": "const", "value": 5.0},
                                    {"type": "const", "value": 5.0}]},
                  "metric": [[0, 1, 1e308], [1, 0, 1e308], [1e308, 1e308, 0]],
                  "map": [[0.0, 0.0], [0.0, 0.0]]}))
# point lists that numpy cannot read as one table, or reads differently from
# the per-point conversion
@example(("0,1", {"set": set_to_obj(vee_notch_instance()), "metric": [[0, 1], [1, 0]],
                  "map": [[0.0, 0.0], [1.0]]}))
@example(("0,1", {"set": set_to_obj(vee_notch_instance()), "metric": [[0, 1], [1, 0]],
                  "map": [[], []]}))
@example(("0,1", {"set": set_to_obj(vee_notch_instance()), "metric": [[0, 1], [1, 0]],
                  "map": [[0, 2 ** 64 + 1], [True, 1]]}))
@example(("0,1", {"set": set_to_obj(vee_notch_instance()), "metric": [[0, 1], [1, 0]],
                  "map": [["0", "1"], [0.0, 1.0]]}))
@example(("0,1", {"set": set_to_obj(vee_notch_instance()), "metric": [[0, 1], [1, 0]],
                  "map": [[0.0, 1.0], [0.0, INF]]}))
@example(("0,x", {"set": set_to_obj(vee_notch_instance()), "metric": [[0, 1], [1, 0]],
                          "map": [[0.0, 0.0], [1.0, 1.0]]}))
def test_extend(request):
    subset, files = request
    _run(["extend", f"--subset={subset}", "--tol", "0.1"],
         {"space" if k == "metric" else k: v for k, v in files.items()})


@SETTINGS
@given(metric_requests())
@example(("0.5", "1e-12", {"metric": [[0, NAN], [NAN, 0]]}))
@example(("0.5", "1e-12", {"metric": [[0, 1e400], [1e400, 0]]}))
@example(("0.5", "1e-12", {"metric": [[0, 1e308, 1e308], [1e308, 0, -1e308], [1e308, 1e308, 0]]}))
# candidate sums past the largest float
@example(("1e307", "1e-12", {"metric": [[0, 1e308], [1e308, 0]]}))
# an infinite tolerance would read a valid metric's distances as zeros
@example(("0.5", "inf", {"metric": [[0, 1], [1, 0]]}))
@example(("0.5", "1e-12", {}))
def test_hull_and_verify_metric(request):
    resolution, tol, files = request
    _run(["hull", "enumerate", f"--resolution={resolution}"], files)
    _run(["verify", "metric", f"--tol={tol}"],
         {"matrix": files["metric"]} if "metric" in files else {})


@SETTINGS
@given(reconstruct_requests())
@example(("0.1", {"inside": [[0, 0]], "outside": [[1, 0]], "verify-grid": [[0, 0], [1e308, 0]]}))
@example(("0.1", {"inside": [[0, 0]], "outside": [[8e307, 8.5e307]],
                  "verify-grid": [[0, 0], [-1e308, 0]]}))
# finite distances whose margins, up to twice as large, overflow
@example(("0.1", {"inside": [[0, 0]], "outside": [[-1e308, -1e308]]}))
@example(("0.1", {"inside": [[0, 0]], "outside": [[1, 0]], "verify-grid": [[0, 0, 0], [1, 0, 0]]}))
@example(("0.1", {"inside": [[0, 0]], "outside": [[1, 0]], "verify-grid": [[0.0], [1.0]]}))
@example(("0.1", {"inside": [[0, 0]], "outside": [[1, 0]], "verify-grid": [[0, 0], [1]]}))
@example(("0.1", {"inside": [[0, 0]], "outside": [[1, 0]], "verify-grid": [[], []]}))
@example(("0.1", {"inside": [[0, 0]], "outside": [[1, 0]], "verify-grid": []}))
@example(("0.1", {"inside": [[0, 0]], "outside": [[1, 0]],
                  "verify-grid": [[2 ** 64 + 1, False], ["1", 0], [0, NAN]]}))
def test_reconstruct(request):
    a, files = request
    _run(["reconstruct", f"--a={a}"], files)


@SETTINGS
@given(lipschitz_requests())
@example(("inf", "0", {"expr": {"type": "const", "value": 0.0}, "grid": [[0, 0], [1, 1]]}))
@example(("1", "1e-12", {"expr": {"type": "distcone", "center": [0, 0], "offset": 1e308,
                                  "scale": 1.0, "orientation": "+"},
                         "grid": [[0, 0], [1e308, 1e308]]}))
@example(("1", "0", {"expr": {"type": "const", "value": 0.0}, "grid": [[0, 0], [1]]}))
@example(("1", "0", {"expr": {"type": "const", "value": 0.0}, "grid": [[], []]}))
@example(("1", "0", {"expr": {"type": "const", "value": 0.0}, "grid": []}))
@example(("1", "0", {"expr": {"type": "const", "value": 0.0},
                     "grid": [[2 ** 64 + 1, True], [-(2 ** 63), 0]]}))
@example(("1", "0", {"expr": {"type": "const", "value": 0.0}, "grid": [[0, 0], [-INF, 0]]}))
@example(("1", "0", {"grid": [[0, 0], [1, 1]]}))
def test_verify_lipschitz(request):
    lam, tol, files = request
    _run(["verify", "lipschitz", f"--lam={lam}", f"--tol={tol}"], files)


@SETTINGS
@given(plot_requests())
@example(("0.5", {"box": [[-3, 3], [-3, 3]], "cones": [{"apex": [0, 0], "axis": 1e400,
                                                      "sign": "+"}]}))
@example(("0.5", {"box": [[-1e308, 1e308], [-1e308, 1e308]], "orbit": [[0, 0], [1, 1]]}))
@example(("0.5", {"box": [[-3, 3], [-3, 3]], "orbit": [[1e308, 0], [0, 0]]}))
@example(("0.5", {"box": [[-1e308, 1e308], [0, 1]],
                  "cones": [{"apex": [1e308, 0], "axis": 1, "sign": "+"}]}))
@example(("0.5", {"box": [[-3, 3], [-3, 3]], "orbit": [[0, 0], [1]]}))
@example(("0.5", {"box": [[-3, 3], [-3, 3]], "orbit": [[0, 0, 0], [1, 1, 1]]}))
@example(("0.5", {"box": [[-3, 3], [-3, 3]], "orbit": []}))
@example(("0.5", {"box": [[-3, 3], [-3, 3]], "orbit": [[2 ** 64 + 1, True], [0, "1"]]}))
@example(("0.5", {"box": [[-3, 3], [-3, 3]], "orbit": [[0, 0], [NAN, 0]]}))
@example(("0.5", {"box": [[-3, 3]]}))
@example(("0.5", {"box": [[-3, 3], [-3, 3], [-3, 3]]}))
@example(("0.5", {"box": {"lo": -3, "hi": 3}}))
@example(("0.5", {"box": [[-3, 3], [-3, 3]], "cones": [{"apex": [0, 0], "sign": "+"}]}))
@example(("0.5", {"box": [[-3, 3], [-3, 3]], "cones": [[0, 0]]}))
@example(("0.5", {"box": [[-3, 3], [-3, 3]], "cones": {"apex": [0, 0], "axis": 0, "sign": "+"}}))
# an infinite resolution would raster one cell and draw no region
@example(("inf", {"box": [[-3, 3], [-3, 3]], "set": set_to_obj(vee_notch_instance())}))
def test_plot(request):
    resolution, files = request
    _run(["plot", f"--resolution={resolution}"], files, out_name="scene.svg")
