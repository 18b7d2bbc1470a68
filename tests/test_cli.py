"""End-to-end checks of the command-line front end.

Commands run in process through main(argv); one test goes through the
``python3 -m hyperlip`` entry point to pin byte-level determinism.
"""

import hashlib
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hyperlip import boxset, cli, lipfun, svgplot
from hyperlip.boxset import BoxLipschitzSet, UnsupportedSetError, retract, set_to_obj
from hyperlip.cli import main
from hyperlip.instances import (
    box_instance,
    diagonal_halfspace_instance,
    empty_drift_instance,
    half_rate_instance,
    origin_cycle_instance,
    random_mcshane_instance,
    sample_members,
    vee_notch_instance,
)
from hyperlip.lipfun import Const, DistCone, expr_to_obj
from hyperlip.metric import sup_dist


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err_text = captured.err.strip()
    err = json.loads(err_text) if err_text else None
    return code, out, err


def input_error(capsys, argv):
    """Run ``argv`` expecting exit 1, no stdout and one JSON line on stderr;
    returns that line's object."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def dump(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def set_file(tmp_path):
    def _write(Q, name="set.json"):
        return dump(tmp_path, name, set_to_obj(Q))
    return _write


class TestRetract:
    def test_contractive_set(self, capsys, set_file, tmp_path):
        path = set_file(half_rate_instance())
        code, out, err = run(capsys, [
            "retract", "--set", path, "--point", dump(tmp_path, "x.json", [3.0, -2.0]),
            "--tol", "1e-6"])
        assert code == 0
        assert out["strategy"] == "cyclic"
        assert out["violation"] <= 1e-6
        assert err is None

    def test_bounded_level_one_set(self, capsys, set_file, tmp_path):
        path = set_file(vee_notch_instance())
        code, out, _ = run(capsys, [
            "retract", "--set", path, "--point", dump(tmp_path, "x.json", [0.0, -3.0]),
            "--tol", "1e-3"])
        assert code == 0
        assert out["strategy"] == "shrink"
        assert out["violation"] <= 1e-3
        assert out["k"] >= 2

    @pytest.mark.parametrize("make", [half_rate_instance, vee_notch_instance])
    def test_nan_tolerance_is_an_input_error(self, capsys, set_file, tmp_path, make):
        path = set_file(make())
        err = input_error(capsys, ["retract", "--set", path, "--point",
                                   dump(tmp_path, "x.json", [0.0, -3.0]), "--tol", "nan"])
        assert "tol" in err["error"]

    @pytest.mark.parametrize("make", [half_rate_instance, vee_notch_instance])
    def test_infinite_tolerance_is_an_input_error(self, capsys, set_file, tmp_path, make):
        """At level 1 an infinite ``--tol`` would relax by ``k = 1`` and
        accept any violation."""
        path = set_file(make())
        err = input_error(capsys, ["retract", "--set", path, "--point",
                                   dump(tmp_path, "x.json", [0.0, -3.0]), "--tol", "inf"])
        assert err == {"error": "tol must be finite and positive, got inf"}

    @pytest.mark.parametrize("make", [half_rate_instance, vee_notch_instance])
    @pytest.mark.parametrize("budget", ["-3", "-1"])
    def test_negative_sweep_budget_is_an_input_error(self, capsys, set_file, tmp_path,
                                                     make, budget):
        path = set_file(make())
        err = input_error(capsys, ["retract", "--set", path, "--point",
                                   dump(tmp_path, "x.json", [0.0, -3.0]),
                                   "--max-sweeps", budget])
        assert f"max_sweeps must be at least 1, got {budget}" in err["error"]

    def test_zero_sweep_budget_means_the_default(self, capsys, set_file, tmp_path):
        path = set_file(half_rate_instance())
        x = dump(tmp_path, "x.json", [3.0, -2.0])
        _, want, _ = run(capsys, ["retract", "--set", path, "--point", x])
        code, out, _ = run(capsys, ["retract", "--set", path, "--point", x,
                                    "--max-sweeps", "0"])
        assert code == 0
        assert out == want

    def test_tolerance_below_the_shrink_factor_is_an_input_error(
            self, capsys, set_file, tmp_path):
        path = set_file(vee_notch_instance())
        x = dump(tmp_path, "x.json", [0.0, -3.0])
        code, _, _ = run(capsys, ["retract", "--set", path, "--point", x, "--tol", "1e-15"])
        assert code == 0
        for tol in ("1e-16", "1e-17"):
            err = input_error(capsys, ["retract", "--set", path, "--point", x, "--tol", tol])
            assert f"tol={float(tol)!r}" in err["error"]
            assert "Lipschitz level" not in err["error"]

    def test_unbounded_set_needs_witness(self, capsys, set_file, tmp_path):
        path = set_file(diagonal_halfspace_instance())
        x = dump(tmp_path, "x.json", [2.0, 5.0])
        code, out, err = run(capsys, ["retract", "--set", path, "--point", x])
        assert code == 1
        assert out is None
        assert "witness" in err["error"]

    def test_unbounded_set_with_witness(self, capsys, set_file, tmp_path):
        path = set_file(diagonal_halfspace_instance())
        x = dump(tmp_path, "x.json", [2.0, 5.0])
        w = dump(tmp_path, "w.json", [0.0, 0.0])
        code, out, _ = run(capsys, [
            "retract", "--set", path, "--point", x, "--witness", w,
            "--tol", "1e-3"])
        assert code == 0
        assert out["strategy"] == "truncate"
        assert out["violation"] <= 1e-3

    def test_nonmember_witness_rejected(self, capsys, set_file, tmp_path):
        path = set_file(diagonal_halfspace_instance())
        x = dump(tmp_path, "x.json", [2.0, 5.0])
        w = dump(tmp_path, "w.json", [0.0, 7.0])
        code, out, err = run(capsys, [
            "retract", "--set", path, "--point", x, "--witness", w])
        assert code == 1
        assert "not a member" in err["error"]

    def test_empty_set_reports_a_verdict(self, capsys, set_file, tmp_path):
        path = set_file(empty_drift_instance())
        x = dump(tmp_path, "x.json", [0.0, 0.0])
        code, out, _ = run(capsys, [
            "retract", "--set", path, "--point", x, "--tol", "1e-2",
            "--box", dump(tmp_path, "b.json", [[-2.0, 2.0], [-2.0, 2.0]])])
        assert code == 2
        assert out["verdict"] == "stalled"
        assert out["violation"] > 1e-2

    def test_truncate_residual_is_checked(self, capsys, set_file, tmp_path, monkeypatch):
        """A truncate result that misses the set exits 2 with a probe verdict."""
        original = boxset.cyclic_retract

        def moved(*args, **kwargs):
            (a, b), trace = original(*args, **kwargs)
            return (a - 1e-3, b + 1e-3), trace   # off the diagonal x2 = x1

        monkeypatch.setattr(boxset, "cyclic_retract", moved)
        path = set_file(diagonal_halfspace_instance())
        code, out, _ = run(capsys, [
            "retract", "--set", path, "--point", dump(tmp_path, "x.json", [2.0, 5.0]),
            "--witness", dump(tmp_path, "w.json", [0.0, 0.0]), "--tol", "1e-6"])
        assert code == 2
        assert out["strategy"] == "truncate"
        assert out["violation"] > 1e-6
        assert out["verdict"] in ("stalled", "decaying")

    def test_origin_cycle_at_a_tiny_tolerance(self, capsys, set_file, tmp_path):
        """The stages keep a level-1 run from growing like 1/tol: one run at
        this tolerance's k would take ~1e9 sweeps and a trace to match."""
        path = set_file(origin_cycle_instance())
        trace = tmp_path / "t.csv"
        code, out, err = run(capsys, [
            "retract", "--set", path, "--point", dump(tmp_path, "x.json", [2.0, -1.5]),
            "--tol", "1e-9", "--trace-out", str(trace)])
        assert code == 0 and err is None
        assert out["strategy"] == "shrink" and out["k"] > 10 ** 10
        assert out["sweeps"] < 200 and out["violation"] <= 1e-9
        # the trace joins every stage's whole sweeps: step % 2 is the axis
        assert out["trace_summary"]["steps"] == 2 * out["sweeps"]
        lines = trace.read_text().splitlines()[1:]
        assert len(lines) == 2 * out["sweeps"]
        assert [int(line.split(",")[1]) for line in lines] == [k % 2 for k in range(len(lines))]

    def test_sweep_cap_counts_every_stage(self, capsys, set_file, tmp_path):
        path = set_file(origin_cycle_instance())
        argv = ["retract", "--set", path, "--point", dump(tmp_path, "x.json", [2.0, -1.5]),
                "--tol", "1e-3"]
        _, want, _ = run(capsys, argv)
        sweeps = want["sweeps"]
        code, out, _ = run(capsys, argv + ["--max-sweeps", str(sweeps)])
        assert code == 0 and out == want
        code, out, err = run(capsys, argv + ["--max-sweeps", str(sweeps - 1)])
        assert code == 2 and out is None
        assert err == {"error": f"no convergence within {sweeps - 1} sweeps over all stages"}

    def test_overflowing_tolerance_is_an_input_error(self, capsys, set_file, tmp_path):
        path = set_file(vee_notch_instance())
        err = input_error(capsys, ["retract", "--set", path, "--point",
                                   dump(tmp_path, "x.json", [0.0, -3.0]), "--tol", "1e-320"])
        assert "overflows" in err["error"]

    def test_overflowing_truncation_radius_is_an_input_error(self, capsys, set_file,
                                                             tmp_path):
        path = set_file(diagonal_halfspace_instance())
        err = input_error(capsys, ["retract", "--set", path,
                                   "--point", dump(tmp_path, "x.json", [1e308, -1e308]),
                                   "--witness", dump(tmp_path, "w.json", [-1e308, -1e308])])
        assert "truncation radius" in err["error"] and "r=inf" in err["error"]

    def test_overflowing_working_box_names_the_start(self, capsys, set_file, tmp_path):
        """With no ``--box``, the working box around a start near the largest
        float overflows; the error names that start, not a box."""
        path = set_file(vee_notch_instance())
        err = input_error(capsys, ["retract", "--set", path,
                                   "--point", dump(tmp_path, "x.json", [1e308, 0.5])])
        assert err == {"error": "the working box around start (1e+308, 0.5) overflows: "
                                "half-width inf"}

    def test_overflowing_working_box_from_the_bounds_names_them(self, capsys, set_file,
                                                                 tmp_path):
        cone = DistCone((0.0,), 1e308, 1.0, 1)
        path = set_file(BoxLipschitzSet([DistCone((0.0,), 1e308, 1.0, -1)] * 2, [cone] * 2))
        err = input_error(capsys, ["retract", "--set", path,
                                   "--point", dump(tmp_path, "x.json", [0.5, 0.5])])
        assert err == {"error": "the working box overflows: the bounds reach 1e+308 "
                                "at the hat origin"}

    @pytest.mark.parametrize("make", [vee_notch_instance, diagonal_halfspace_instance])
    @pytest.mark.parametrize("witness, box, message", [
        ([0.0, 0.0, 0.0], None, "witness of dimension 3 for a set of dimension 2"),
        ([0.0, 0.0], [[1, -1], [-1, 1]], "empty box side (1.0, -1.0)"),
        ([0.0, 0.0], [[-1, 1]], "expected a box with 2 sides, got 1"),
        ([0.0, 0.0], [[-1, 1], [0, 1e400]], "box limits must be finite"),
        ([0.0, 0.0], [[-1, 1], [0, 1e400], [0, 1]], "expected a box with 2 sides, got 3"),
    ])
    def test_level_one_box_and_witness_are_checked_whatever_the_strategy(
            self, capsys, set_file, tmp_path, make, witness, box, message):
        argv = ["retract", "--set", set_file(make()),
                "--point", dump(tmp_path, "x.json", [0.5, 0.5]),
                "--witness", dump(tmp_path, "w.json", witness)]
        if box is not None:
            argv += ["--box", dump(tmp_path, "b.json", box)]
        assert input_error(capsys, argv) == {"error": message}

    @pytest.mark.parametrize("make, needed, unused", [
        (vee_notch_instance, [], ["--witness", [5.0, 5.0]]),
        (diagonal_halfspace_instance, ["--witness", [0.0, 0.0]], ["--box", [[-1, 1], [-1, 1]]]),
    ])
    def test_unused_well_formed_inputs_are_accepted(self, capsys, set_file, tmp_path, make,
                                                    needed, unused):
        """A witness the shrink strategy does not read, and a box the truncate
        strategy does not read, change nothing."""
        argv = ["retract", "--set", set_file(make()),
                "--point", dump(tmp_path, "x.json", [0.0, 4.0]), "--tol", "1e-4"]
        if needed:
            argv += [needed[0], dump(tmp_path, "needed.json", needed[1])]
        code, want, err = run(capsys, argv)
        assert (code, err) == (0, None)
        argv += [unused[0], dump(tmp_path, "unused.json", unused[1])]
        assert run(capsys, argv) == (0, want, None)

    def test_deeply_nested_set_is_an_input_error(self, capsys, tmp_path):
        # written as text: json.dump itself overflows the stack at this depth
        depth = 600
        bound = ('{"type":"min","children":[' * depth + '{"type":"const","value":3.0}'
                 + "]}" * depth)
        deep = tmp_path / "deep.json"
        deep.write_text('{"n":1,"lower":[{"type":"const","value":0.0}],"upper":[%s]}' % bound)
        err = input_error(capsys, ["retract", "--set", str(deep),
                                   "--point", dump(tmp_path, "x.json", [5.0])])
        assert "error" in err

    @staticmethod
    def _blend_chain_set(tmp_path, depth):
        """A level-0 set whose axis-0 lower bound is a chain of ``depth`` - 1
        blends of factor 0 at anchor -0.0 over a cone, written as text."""
        cone = '{"type":"distcone","center":[0.0],"offset":-1.0,"scale":0.5,"orientation":"+"}'
        bound = '{"type":"blend","inner":' * (depth - 1) + cone \
            + ',"factor":0.0,"anchor":-0.0}' * (depth - 1)
        path = tmp_path / "chain.json"
        path.write_text('{"n":2,"lower":[%s,"-inf"],"upper":["+inf","+inf"]}' % bound)
        return str(path)

    def test_a_set_at_the_depth_limit_retracts(self, capsys, tmp_path):
        path = self._blend_chain_set(tmp_path, lipfun._MAX_DEPTH)
        code, out, err = run(capsys, ["retract", "--set", path,
                                      "--point", dump(tmp_path, "x.json", [-3.0, 2.0])])
        assert (code, err) == (0, None)
        assert out["point"] == [0.0, 2.0]

    def test_a_set_above_the_depth_limit_is_an_input_error(self, capsys, tmp_path):
        path = self._blend_chain_set(tmp_path, lipfun._MAX_DEPTH + 1)
        err = input_error(capsys, ["retract", "--set", path,
                                   "--point", dump(tmp_path, "x.json", [-3.0, 2.0])])
        assert f"would be {lipfun._MAX_DEPTH + 1} levels deep" in err["error"]

    @pytest.mark.parametrize("n", ["1e400", "1.5", "true"])
    def test_non_integer_dimension_is_an_input_error(self, capsys, tmp_path, n):
        bad = tmp_path / "set.json"
        bad.write_text('{"n": %s, "lower": ["-inf"], "upper": ["+inf"]}' % n)
        err = input_error(capsys, ["retract", "--set", str(bad),
                                   "--point", dump(tmp_path, "x.json", [0.0])])
        assert "integer" in err["error"]

    def test_missing_witness_message_is_the_library_one(self, capsys, set_file, tmp_path):
        path = set_file(diagonal_halfspace_instance())
        err = input_error(capsys, ["retract", "--set", path,
                                   "--point", dump(tmp_path, "x.json", [2.0, 5.0])])
        with pytest.raises(UnsupportedSetError) as lib:
            retract(diagonal_halfspace_instance(), (2.0, 5.0), 1e-6, many=False)
        assert err["error"] == str(lib.value)

    def test_crossing_bounds_are_an_input_error(self, capsys, set_file, tmp_path):
        path = set_file(BoxLipschitzSet([Const(1.0), Const(0.0)], [Const(0.0), Const(1.0)]))
        err = input_error(capsys, ["retract", "--set", path, "--point",
                                   dump(tmp_path, "x.json", [0.5, 0.5])])
        assert err["error"].startswith("bounds cross on axis 0")

    def test_trace_file(self, capsys, set_file, tmp_path):
        path = set_file(half_rate_instance())
        trace = tmp_path / "trace.csv"
        code, _, _ = run(capsys, [
            "retract", "--set", path, "--point", dump(tmp_path, "x.json", [1.0, 1.0]),
            "--trace-out", str(trace)])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "step,axis,displacement"
        assert len(lines) > 1
        step, axis, disp = lines[1].split(",")
        assert step == "0"
        float(disp)

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, [
            "retract", "--set", str(tmp_path / "absent.json"),
            "--point", dump(tmp_path, "x.json", [0.0, 0.0])])
        assert code == 1
        assert err is not None

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, [
            "retract", "--set", str(bad),
            "--point", dump(tmp_path, "x.json", [0.0, 0.0])])
        assert code == 1
        assert err is not None

    def test_usage_error(self, capsys):
        err = input_error(capsys, ["retract", "--point", "x.json"])
        assert "--set" in err["error"]

    def test_unwritable_trace_file(self, capsys, set_file, tmp_path):
        err = input_error(capsys, [
            "retract", "--set", set_file(half_rate_instance()),
            "--point", dump(tmp_path, "x.json", [1.0, 1.0]), "--trace-out", str(tmp_path)])
        assert str(tmp_path) in err["error"]


class TestExtend:
    def _files(self, tmp_path, images):
        b = [(0.0, 0.0), (1.0, 0.0), (0.3, 0.4)]
        matrix = [[max(abs(p[0] - q[0]), abs(p[1] - q[1])) for q in b] for p in b]
        return (dump(tmp_path, "space.json", matrix),
                dump(tmp_path, "map.json", images),
                dump(tmp_path, "set.json",
                     set_to_obj(box_instance([(0.0, 1.0), (0.0, 1.0)]))))

    def test_happy_path(self, capsys, tmp_path):
        space, phi, Q = self._files(tmp_path, [[0.2, 0.3], [0.9, 0.1]])
        code, out, _ = run(capsys, [
            "extend", "--space", space, "--subset", "0,1", "--map", phi,
            "--set", Q])
        assert code == 0
        assert len(out["map"]) == 3
        assert out["map"][0] == [0.2, 0.3]
        assert out["map"][1] == [0.9, 0.1]
        assert max(out["violations"]) <= 1e-6
        assert out["lipschitz_check"]["ok"]

    @pytest.mark.parametrize("box", [[[1, -1], [0, 1]], [[0, 1e400], [0, 1]]])
    def test_a_level_zero_set_accepts_a_well_formed_box(self, capsys, tmp_path, box):
        """A level-0 retraction reads no box, so one with an empty or an
        infinite side changes nothing: only its form is checked."""
        space, phi, Q = self._files(tmp_path, [[0.2, 0.3], [0.9, 0.1]])
        argv = ["extend", "--space", space, "--subset", "0,1", "--map", phi, "--set", Q]
        code, want, err = run(capsys, argv)
        assert (code, err) == (0, None)
        assert run(capsys, argv + ["--box", dump(tmp_path, "b.json", box)]) == (0, want, None)

    @pytest.mark.parametrize("subset, message", [
        ("0,x", "malformed JSON in --subset [0,x]: Expecting value: line 1 column 4 (char 3)"),
        ("0,,", "malformed JSON in --subset [0,,]: Expecting value: line 1 column 4 (char 3)"),
        ("0,1.0", "subset index must be an integer, got 1.0"),
        ("0,1e400", "subset index must be an integer, got inf"),
        ("0,\"1\"", "subset index must be an integer, got '1'"),
        ("0,true", "--subset [0,true] holds the boolean true, which no input takes"),
        ("", "the subset must be nonempty"),
        ("0,3", "index 3 out of range for a space of size 3"),
    ])
    def test_subset_words_are_read_as_json_indices(self, capsys, tmp_path, subset, message):
        space, phi, Q = self._files(tmp_path, [[0.2, 0.3], [0.9, 0.1]])
        err = input_error(capsys, ["extend", "--space", space, f"--subset={subset}",
                                   "--map", phi, "--set", Q])
        assert err == {"error": message}

    def test_subset_words_may_be_spaced(self, capsys, tmp_path):
        space, phi, Q = self._files(tmp_path, [[0.2, 0.3], [0.9, 0.1]])
        argv = ["extend", "--space", space, "--map", phi, "--set", Q]
        code, want, _ = run(capsys, argv + ["--subset", "0,1"])
        assert code == 0
        assert run(capsys, argv + ["--subset", " 0 , 1 "]) == (0, want, None)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_space_is_an_input_error(self, capsys, tmp_path):
        _, phi, Q = self._files(tmp_path, [[0.2, 0.3], [0.9, 0.1]])
        space = tmp_path / "space.json"
        space.write_text("[[0, 1e400, 1], [1e400, 0, 1], [1, 1, 0]]")
        err = input_error(capsys, ["extend", "--space", str(space), "--subset", "0,1",
                                   "--map", phi, "--set", Q])
        assert "finite" in err["error"]

    def test_expanding_map_rejected(self, capsys, tmp_path):
        space, phi, Q = self._files(tmp_path, [[0.0, 0.0], [0.0, 1.0]])
        # d(b0, b1) = 1 but the images sit 1 apart only in coordinate 1;
        # stretch via a doctored metric instead: shrink d(b0, b1)
        matrix = [[0.0, 0.25, 0.5], [0.25, 0.0, 0.5], [0.5, 0.5, 0.0]]
        space = dump(tmp_path, "space2.json", matrix)
        code, out, err = run(capsys, [
            "extend", "--space", space, "--subset", "0,1", "--map", phi,
            "--set", Q])
        assert code == 1
        assert err["witness"] == [0, 1]

    @staticmethod
    def _case(name):
        """Space matrix, subset, images and set of one ``extend`` run."""
        box = set_to_obj(box_instance([(0.0, 1.0), (0.0, 1.0)]))
        if name == "one":
            return [[0.0]], "0", [[0.5, 0.5]], box
        if name == "four":        # max_excess is 5.55e-17, at the pair (1, 3)
            b = [(0.5, 0.5), (0.0, 0.0), (1.0, 0.0), (0.3, 0.4)]
            return [[sup_dist(p, q) for q in b] for p in b], "1,2", [[0.2, 0.3], [0.9, 0.1]], box
        rng = np.random.default_rng(7)
        Q = random_mcshane_instance(2, 0.5, rng)
        pts = [tuple(p) for p in rng.uniform(-2.0, 2.0, (12, 2))]
        return ([[sup_dist(p, q) for q in pts] for p in pts], "0,1,2,3",
                [list(m) for m in sample_members(Q, pts[:4])], set_to_obj(Q))

    @pytest.mark.parametrize("case", ["four", "one", "random"])
    def test_lipschitz_check_matches_the_pairwise_loop(self, capsys, tmp_path, case):
        matrix, subset, images, Q = self._case(case)
        code, out, _ = run(capsys, [
            "extend", "--space", dump(tmp_path, "d.json", matrix), "--subset", subset,
            "--map", dump(tmp_path, "phi.json", images),
            "--set", dump(tmp_path, "q.json", Q)])
        assert code == 0
        m, ext = len(matrix), out["map"]
        worst = 0.0
        for i in range(m):
            for j in range(i + 1, m):
                worst = max(worst, sup_dist(ext[i], ext[j]) - matrix[i][j])
        check = out["lipschitz_check"]
        assert check["pairs"] == m * (m - 1) // 2
        assert check["max_excess"] == worst
        assert check["ok"] == (worst <= 1e-12)


def _sup_matrix(points):
    return [[sup_dist(p, q) for q in points] for p in points]


_MCSHANE = random_mcshane_instance(2, 0.5, np.random.default_rng(1818))
_MEMBERS = [list(m) for m in sample_members(_MCSHANE, [(2.0, -1.0), (-1.0, 0.5)])]
_HALF = set_to_obj(half_rate_instance())
_VEE = set_to_obj(vee_notch_instance())
_CYCLE = set_to_obj(origin_cycle_instance())
_DIAGONAL = set_to_obj(diagonal_halfspace_instance())
# per case: the command and flags, the input files, and whether a
# --trace-out file is written
RETRACTION_CORPUS = {
    "retract cyclic": (["retract", "--tol", "1e-6"],
                       {"set": _HALF, "point": [3.0, -2.0]}, True),
    "retract cyclic capped": (["retract", "--tol", "1e-6", "--max-sweeps", "2"],
                              {"set": _HALF, "point": [3.0, -2.0]}, False),
    "retract shrink vee notch": (["retract", "--tol", "1e-3"],
                                 {"set": _VEE, "point": [0.0, -3.0],
                                  "box": [[-4.0, 4.0], [-4.0, 4.0]]}, True),
    "retract shrink origin cycle": (["retract", "--tol", "1e-3"],
                                    {"set": _CYCLE, "point": [2.0, -1.5]}, True),
    "retract shrink capped": (["retract", "--tol", "1e-3", "--max-sweeps", "70"],
                              {"set": _CYCLE, "point": [2.0, -1.5]}, False),
    "retract truncate": (["retract", "--tol", "1e-4"],
                         {"set": _DIAGONAL, "point": [2.0, 5.0], "witness": [0.0, 0.0]}, True),
    "retract empty drift": (["retract", "--tol", "1e-2"],
                            {"set": set_to_obj(empty_drift_instance()), "point": [0.0, 0.0],
                             "box": [[-2.0, 2.0], [-2.0, 2.0]]}, True),
    "extend cyclic": (["extend", "--subset", "0,1", "--tol", "1e-6"],
                      {"set": set_to_obj(_MCSHANE), "map": _MEMBERS,
                       "space": _sup_matrix(_MEMBERS + [[2.0, 2.0], [-3.0, 2.5]])},
                      False),
    "extend box": (["extend", "--subset", "0,1", "--tol", "1e-3"],
                   {"set": _VEE, "map": [[0.0, 0.0], [1.0, 2.0]],
                    "space": _sup_matrix([(0.0, 0.0), (1.0, 2.0), (2.0, -1.0), (-1.5, 0.5)]),
                    "box": [[-4.0, 4.0], [-4.0, 4.0]]}, False),
    "extend witness": (["extend", "--subset", "0,1", "--tol", "1e-4"],
                       {"set": _DIAGONAL, "map": [[1.0, 0.0], [3.0, 2.0]],
                        "space": _sup_matrix([(1.0, 0.0), (3.0, 2.0), (2.0, -1.0), (-2.0, 4.0)]),
                        "witness": [0.0, 0.0]}, False),
}


# sha256 of the exit code, stdout, stderr and trace file of each case
RETRACTION_DIGESTS = {
    "retract cyclic": "076f33c0ebf6af5820ab157026ce10aa47bc4336fc4c9f0493e62b10c384a7de",
    "retract cyclic capped": "b231ddd52a74ba40d387a8d77538a934f06033df1813f1c2a5170c22fd0da763",
    "retract shrink vee notch":
        "ad51034b988e85d13bbe98c1c6f9adaae3b16223cf471e19ff2abb5eeab696f1",
    "retract shrink origin cycle":
        "851d5cffe41680d3c350b161819a50df6ce6b461dfa550cfc21478c23db1eae5",
    "retract shrink capped": "aaea4f746b4cbc018e2fd444d1be5dfbb6db150574ec1d8d930ca8df7c9b1f78",
    "retract truncate": "8270696d67adb0b08b8f7b4bc894ded3ed8f54b8980246cf3b51b8219183512b",
    "retract empty drift": "ca36ac5e263fb3a73fb2b7b0f1dc2e9bebaaf49cc585677070b3465884eed749",
    "extend cyclic": "2fbabab5bf074525eed1db18fd2cf3fd373159a8bad2c5f5690816f7da22d836",
    "extend box": "fb2b28bf5f5476edf0b6afdab247bbdc038b74310fdee90a25d639bb2b137e0c",
    "extend witness": "7860a851f734feba5d846b8549a6f84f96557d8c5de19bdf61befab17f62e077",
}


def corpus_digest(capsys, tmp_path, name):
    """Run corpus case ``name`` with its files written to ``tmp_path``;
    returns the sha256 of its exit code, stdout, stderr and trace file."""
    argv, files, traced = RETRACTION_CORPUS[name]
    for key, obj in files.items():
        argv = argv + [f"--{key}", dump(tmp_path, f"{key}.json", obj)]
    trace = tmp_path / "trace.csv"
    if traced:
        argv = argv + ["--trace-out", str(trace)]
    code = main(argv)
    got = capsys.readouterr()
    csv = trace.read_text() if traced else None
    return hashlib.sha256(json.dumps([code, got.out, got.err, csv]).encode()).hexdigest()


class TestRetractionBytes:
    """Exit code, stdout, stderr and trace file of the ``retract`` and
    ``extend`` corpus, pinned by sha256: each strategy (cyclic, shrink with
    and without stages, truncate), the empty-drift verdict, both kinds of
    sweep cap, and a level-1 ``extend`` with ``--box`` and with
    ``--witness``.  A change that only restructures code keeps these bytes;
    one that means to change an output updates the digests with it."""

    @pytest.mark.parametrize("name, digest", RETRACTION_DIGESTS.items())
    def test_output_bytes_are_pinned(self, capsys, tmp_path, name, digest):
        assert corpus_digest(capsys, tmp_path, name) == digest


class TestHull:
    def test_segment_enumeration(self, capsys, tmp_path):
        metric = dump(tmp_path, "d.json", [[0.0, 1.0], [1.0, 0.0]])
        code, out, _ = run(capsys, [
            "hull", "enumerate", "--metric", metric, "--resolution", "0.25"])
        assert code == 0
        assert out["count"] == 5
        assert [0.0, 1.0] in out["functions"]
        assert [0.5, 0.5] in out["functions"]
        assert out["functions"] == sorted(out["functions"])

    def test_sums_past_the_largest_float_warn_nothing(self, capsys, tmp_path):
        """Candidate sums on a space of diameter 1e308 overflow to +inf,
        which exceeds every distance: the answer holds, and with numpy's
        warnings as errors the run still exits 0 with nothing on stderr."""
        metric = dump(tmp_path, "d.json", [[0.0, 1e308], [1e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["hull", "enumerate", "--metric", metric, "--resolution", "1e307"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out)["functions"] == \
            [[float(f"{j}e307"), float(f"{10 - j}e307")] for j in range(11)]

    def test_overflowing_resolution_is_an_input_error(self, capsys, tmp_path):
        metric = dump(tmp_path, "d.json", [[0.0, 1.0], [1.0, 0.0]])
        err = input_error(capsys, ["hull", "enumerate", "--metric", metric,
                                   "--resolution", "1e-320"])
        assert "overflows" in err["error"]

    def test_unknown_action_is_an_input_error(self, capsys, tmp_path):
        metric = dump(tmp_path, "d.json", [[0.0, 1.0], [1.0, 0.0]])
        err = input_error(capsys, ["hull", "bogus", "--metric", metric,
                                   "--resolution", "0.25"])
        assert "invalid choice: 'bogus'" in err["error"]

    def test_a_matrix_file_holds_the_matrix_alone(self, capsys, tmp_path):
        """Every matrix flag reads one form: a wrapping object is refused
        alike by ``hull --metric``, ``extend --space`` and ``verify metric``."""
        wrapped = dump(tmp_path, "d.json", {"metric": [[0.0, 1.0], [1.0, 0.0]]})
        phi = dump(tmp_path, "phi.json", [[0.5, 0.5]])
        Q = dump(tmp_path, "q.json", set_to_obj(half_rate_instance()))
        errors = [input_error(capsys, argv) for argv in (
            ["hull", "enumerate", "--metric", wrapped, "--resolution", "0.5"],
            ["extend", "--space", wrapped, "--subset", "0", "--map", phi, "--set", Q],
            ["verify", "metric", "--matrix", wrapped])]
        assert errors == [{"error": "float() argument must be a string or a real number, "
                                    "not 'dict'"}] * 3

    def test_infinite_resolution_is_an_input_error(self, capsys, tmp_path):
        metric = dump(tmp_path, "d.json", [[0.0, 1.0], [1.0, 0.0]])
        err = input_error(capsys, ["hull", "enumerate", "--metric", metric,
                                   "--resolution", "inf"])
        assert "resolution must be finite and positive" in err["error"]

    @pytest.mark.filterwarnings("error")
    def test_non_finite_metric_is_an_input_error(self, capsys, tmp_path):
        metric = tmp_path / "d.json"
        metric.write_text("[[0, 1e400], [1e400, 0]]")
        err = input_error(capsys, ["hull", "enumerate", "--metric", str(metric),
                                   "--resolution", "0.25"])
        assert "finite" in err["error"]


class TestReconstruct:
    def _square(self, tmp_path, step=0.5):
        k = int(round(1.0 / step))
        inside = [[i * step, j * step] for i in range(k + 1) for j in range(k + 1)]
        mem = {tuple(p) for p in inside}
        every = [[-1.0 + i * step, -1.0 + j * step]
                 for i in range(int(round(3.0 / step)) + 1)
                 for j in range(int(round(3.0 / step)) + 1)]
        outside = [p for p in every if tuple(p) not in mem]
        return (dump(tmp_path, "in.json", inside),
                dump(tmp_path, "out.json", outside),
                dump(tmp_path, "grid.json", every))

    def test_round_trip_with_verification(self, capsys, tmp_path):
        inside, outside, grid = self._square(tmp_path)
        code, out, _ = run(capsys, [
            "reconstruct", "--inside", inside, "--outside", outside,
            "--verify-grid", grid])
        assert code == 0
        assert out["report"]["false_inside"] == []
        assert out["report"]["false_outside"] == []
        assert out["set"]["lower"]

    def test_without_verification(self, capsys, tmp_path):
        inside, outside, _ = self._square(tmp_path)
        code, out, _ = run(capsys, [
            "reconstruct", "--inside", inside, "--outside", outside])
        assert code == 0
        assert out["report"] is None

    @pytest.mark.parametrize("grid, n", [([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], 3), ([[0.0]], 1)])
    def test_a_grid_of_another_dimension_is_an_input_error(self, capsys, tmp_path, grid, n):
        inside, outside, _ = self._square(tmp_path)
        err = input_error(capsys, [
            "reconstruct", "--inside", inside, "--outside", outside,
            "--verify-grid", dump(tmp_path, "g.json", grid)])
        assert err == {"error": f"dimension mismatch: {n} vs 2"}

    def test_a_grid_of_mixed_dimensions_is_an_input_error(self, capsys, tmp_path):
        inside, outside, _ = self._square(tmp_path)
        err = input_error(capsys, [
            "reconstruct", "--inside", inside, "--outside", outside,
            "--verify-grid", dump(tmp_path, "g.json", [[0.0, 0.0], [1.0]])])
        assert err == {"error": "mixed point dimensions [1, 2]"}

    def test_a_pullback_too_small_for_the_margin_is_an_input_error(self, capsys, tmp_path):
        err = input_error(capsys, [
            "reconstruct", "--inside", dump(tmp_path, "in.json", [[0, 0], [1, 0], [0, 1], [1, 1]]),
            "--outside", dump(tmp_path, "out.json", [[3, 3]]), "--a", "1e-320"])
        assert err == {"error": "a = 1e-320 is too small for the margin 4.0 of (3.0, 3.0): "
                                "a * margin = 4e-320 vanishes against the point, so the apex "
                                "of its cone rounds onto it"}

    def test_bad_pullback_rejected(self, capsys, tmp_path):
        inside, outside, _ = self._square(tmp_path)
        code, _, err = run(capsys, [
            "reconstruct", "--inside", inside, "--outside", outside,
            "--a", "0.5"])
        assert code == 1
        assert err is not None

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 1.07 GiB for an array with shape (12000, 12000) "
                     "and data type float64"),
         "out of memory: Unable to allocate 1.07 GiB for an array with shape (12000, 12000) "
         "and data type float64"),
        (MemoryError(), "out of memory"),
    ])
    def test_running_out_of_memory_is_one_json_line(self, capsys, tmp_path, monkeypatch,
                                                    exc, message):
        """A failed allocation exits 3 with one JSON line on stderr and
        nothing on stdout; the synthesis raises it here, with no real
        allocation."""
        def synthesize_bounds(cfg):
            raise exc

        monkeypatch.setattr(cli, "synthesize_bounds", synthesize_bounds)
        inside, outside, _ = self._square(tmp_path)
        code = main(["reconstruct", "--inside", inside, "--outside", outside])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0]) == {"error": message}


class TestVerify:
    def test_lipschitz_pass(self, capsys, tmp_path):
        expr = dump(tmp_path, "f.json", expr_to_obj(Const(2.0)))
        grid = dump(tmp_path, "g.json", [[0.0], [1.0], [2.0]])
        code, out, _ = run(capsys, [
            "verify", "lipschitz", "--expr", expr, "--grid", grid,
            "--lam", "0.5"])
        assert code == 0
        assert out["ok"]

    def test_lipschitz_fail_reports_witness(self, capsys, tmp_path):
        expr = dump(tmp_path, "f.json", {
            "type": "distcone", "center": [0.0], "offset": 0.0,
            "scale": 1.0, "orientation": "+"})
        grid = dump(tmp_path, "g.json", [[0.0], [1.0]])
        code, out, _ = run(capsys, [
            "verify", "lipschitz", "--expr", expr, "--grid", grid,
            "--lam", "0.5"])
        assert code == 2
        assert not out["ok"]
        assert out["witness"] is not None

    @pytest.mark.parametrize("flag, value", [
        ("--lam", "nan"), ("--lam", "-1"), ("--tol", "nan"), ("--tol", "-1")])
    def test_lipschitz_bad_numbers_are_input_errors(self, capsys, tmp_path, flag, value):
        expr = dump(tmp_path, "f.json", {
            "type": "distcone", "center": [0.0], "offset": 0.0,
            "scale": 1.0, "orientation": "+"})
        grid = dump(tmp_path, "g.json", [[0.0], [1.0]])
        argv = ["verify", "lipschitz", "--expr", expr, "--grid", grid, "--lam", "0.5"]
        err = input_error(capsys, argv + [flag, value])
        assert flag[2:] in err["error"]

    def test_lipschitz_grid_of_mixed_dimensions_is_an_input_error(self, capsys, tmp_path):
        expr = dump(tmp_path, "f.json", expr_to_obj(Const(2.0)))
        grid = dump(tmp_path, "g.json", [[0.0], [1.0, 2.0]])
        err = input_error(capsys, ["verify", "lipschitz", "--expr", expr, "--grid", grid])
        assert err == {"error": "mixed point dimensions [1, 2]"}

    def test_unknown_target_is_an_input_error(self, capsys):
        err = input_error(capsys, ["verify", "bogus"])
        assert "invalid choice: 'bogus'" in err["error"]

    def test_metric_pass(self, capsys, tmp_path):
        matrix = dump(tmp_path, "d.json", [[0.0, 1.0], [1.0, 0.0]])
        code, out, _ = run(capsys, ["verify", "metric", "--matrix", matrix])
        assert code == 0
        assert out["ok"]

    def test_metric_fail(self, capsys, tmp_path):
        matrix = dump(tmp_path, "d.json",
                      [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        code, out, _ = run(capsys, ["verify", "metric", "--matrix", matrix])
        assert code == 2
        assert not out["ok"]
        assert any(v["kind"] == "triangle" for v in out["violations"])

    def test_metric_nan_tolerance_is_an_input_error(self, capsys, tmp_path):
        matrix = dump(tmp_path, "d.json",
                      [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        err = input_error(capsys, ["verify", "metric", "--matrix", matrix, "--tol", "nan"])
        assert "tol" in err["error"]

    def test_metric_infinite_tolerance_is_an_input_error(self, capsys, tmp_path):
        """At an infinite ``--tol`` every entry would be within it of 0, and a
        valid metric would be reported as a ``separation`` failure."""
        matrix = dump(tmp_path, "d.json", [[0.0, 1.0], [1.0, 0.0]])
        err = input_error(capsys, ["verify", "metric", "--matrix", matrix, "--tol", "inf"])
        assert err == {"error": "tol must be finite and nonnegative, got inf"}

    @pytest.mark.parametrize("argv, missing", [
        (["verify", "metric"], "--matrix"),
        (["verify", "metric", "--tol", "0.5"], "--matrix"),
        (["verify", "lipschitz"], "--expr, --grid"),
        (["verify", "lipschitz", "--grid", "g.json", "--lam", "0.5"], "--expr"),
        (["verify", "lipschitz", "--expr", "f.json"], "--grid"),
        (["verify"], "target"),
    ])
    def test_missing_files_are_usage_errors(self, capsys, argv, missing):
        err = input_error(capsys, argv)
        assert err == {"error": f"the following arguments are required: {missing}"}

    def test_flags_of_the_other_target_are_usage_errors(self, capsys, tmp_path):
        matrix = dump(tmp_path, "d.json", [[0.0, 1.0], [1.0, 0.0]])
        err = input_error(capsys, ["verify", "metric", "--matrix", matrix, "--lam", "0.5"])
        assert err == {"error": "unrecognized arguments: --lam 0.5"}

    def test_metric_with_nan_entries_fails(self, capsys, tmp_path):
        matrix = tmp_path / "d.json"
        matrix.write_text("[[0, NaN], [NaN, 0]]")
        code, out, err = run(capsys, ["verify", "metric", "--matrix", str(matrix)])
        assert code == 2
        assert err is None
        assert not out["ok"]
        assert {v["kind"] for v in out["violations"]} == {"finite"}

    @pytest.mark.parametrize("text, kinds", [
        ("[[0, NaN], [NaN, 0]]", {"finite"}),
        ("[[0, Infinity], [1, -Infinity]]", {"finite"}),
        ("[[0, 1e308], [-1e308, 0]]", {"symmetry"}),
    ])
    def test_metric_output_is_strict_json(self, capsys, tmp_path, text, kinds):
        """Infinite amounts are written "+inf", never as a bare JSON
        constant (NaN, Infinity), on every line the command prints."""
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        matrix = tmp_path / "d.json"
        matrix.write_text(text)
        code = main(["verify", "metric", "--matrix", str(matrix)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 1
        out = json.loads(lines[0], parse_constant=refuse)
        assert {v["kind"] for v in out["violations"]} == kinds
        assert {v["amount"] for v in out["violations"] if v["kind"] in kinds} == {"+inf"}


class TestPlot:
    def test_writes_svg(self, capsys, tmp_path, set_file):
        path = set_file(vee_notch_instance())
        out_path = tmp_path / "scene.svg"
        code, out, _ = run(capsys, [
            "plot", "--set", path,
            "--box", dump(tmp_path, "b.json", [[-3.0, 3.0], [-3.0, 3.0]]),
            "--resolution", "0.25", "--out", str(out_path)])
        assert code == 0
        assert out["out"] == str(out_path)
        text = out_path.read_text()
        assert text.startswith("<svg")
        assert out["bytes"] == len(text.encode())

    def test_an_orbit_may_be_an_array(self):
        box = [(-3.0, 3.0), (-3.0, 3.0)]
        orbit = [(0.0, 0.0), (1.5, -2.0), (2.0, 2.0)]
        want = svgplot.render_scene(box, orbit=orbit)
        assert "<polyline" in want
        assert svgplot.render_scene(box, orbit=np.array(orbit)) == want
        assert svgplot.render_scene(box, orbit=np.empty((0, 2))) == \
            svgplot.render_scene(box, orbit=[]) == svgplot.render_scene(box)

    @pytest.mark.parametrize("orbit, message", [
        ([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], "need planar orbit points, got dimension 3"),
        ([[0.0, 0.0], [1.0]], "mixed point dimensions [1, 2]"),
    ])
    def test_an_orbit_that_is_not_planar_is_an_input_error(self, capsys, tmp_path,
                                                           orbit, message):
        err = input_error(capsys, [
            "plot", "--box", dump(tmp_path, "b.json", [[-3.0, 3.0], [-3.0, 3.0]]),
            "--orbit", dump(tmp_path, "o.json", orbit), "--resolution", "0.5",
            "--out", str(tmp_path / "scene.svg")])
        assert err == {"error": message}
        assert not (tmp_path / "scene.svg").exists()

    @pytest.mark.parametrize("resolution, words", [
        ("1e-320", "overflows"), ("3e-4", "cells"), ("nan", "positive")])
    def test_tiny_resolution_is_an_input_error(self, capsys, tmp_path, set_file,
                                               monkeypatch, resolution, words):
        def no_raster(*args):
            raise AssertionError("the membership raster was built")

        monkeypatch.setattr(svgplot, "violation_many", no_raster)
        err = input_error(capsys, [
            "plot", "--set", set_file(vee_notch_instance()),
            "--box", dump(tmp_path, "b.json", [[0.0, 1.0], [0.0, 1.0]]),
            "--resolution", resolution, "--out", str(tmp_path / "scene.svg")])
        assert words in err["error"]
        assert not (tmp_path / "scene.svg").exists()

    def test_infinite_resolution_is_an_input_error(self, capsys, tmp_path, set_file):
        """An infinite ``--resolution`` would raster one cell and draw no
        region."""
        err = input_error(capsys, [
            "plot", "--set", set_file(vee_notch_instance()),
            "--box", dump(tmp_path, "b.json", [[-3.0, 3.0], [-3.0, 3.0]]),
            "--resolution", "inf", "--out", str(tmp_path / "scene.svg")])
        assert err == {"error": "resolution must be finite and positive, got inf"}
        assert not (tmp_path / "scene.svg").exists()

    def test_render_scene_refuses_an_infinite_resolution(self):
        with pytest.raises(ValueError) as err:
            svgplot.render_scene([(-3.0, 3.0), (-3.0, 3.0)], Q=vee_notch_instance(),
                                 resolution=float("inf"))
        assert str(err.value) == "resolution must be finite and positive, got inf"

    @pytest.mark.parametrize("cones, message", [
        ([[0, 0]], "a cone must be an object, got [0, 0]"),
        ([{"apex": [0, 0], "axis": 0, "sign": "+"}, "+"], 'a cone must be an object, got "+"'),
        ({"apex": [0, 0], "axis": 0, "sign": "+"},
         '--cones must be a list of cone objects, got {"apex": [0, 0], "axis": 0, "sign": "+"}'),
        (3, "--cones must be a list of cone objects, got 3"),
    ])
    def test_a_cones_file_is_a_list_of_cone_objects(self, capsys, tmp_path, cones, message):
        err = input_error(capsys, [
            "plot", "--box", dump(tmp_path, "b.json", [[-3.0, 3.0], [-3.0, 3.0]]),
            "--cones", dump(tmp_path, "c.json", cones), "--resolution", "0.5",
            "--out", str(tmp_path / "scene.svg")])
        assert err == {"error": message}
        assert not (tmp_path / "scene.svg").exists()

    @pytest.mark.parametrize("axis, sign, field", [
        ("1e400", '"+"', "axis"), ("1.5", '"+"', "axis"), ("true", '"+"', "axis"),
        ("1", '"?"', "sign")])
    def test_malformed_cone_is_an_input_error(self, capsys, tmp_path, axis, sign, field):
        cones = tmp_path / "c.json"
        cones.write_text(f'[{{"apex": [0, 0], "axis": {axis}, "sign": {sign}}}]')
        err = input_error(capsys, [
            "plot", "--box", dump(tmp_path, "b.json", [[-3.0, 3.0], [-3.0, 3.0]]),
            "--cones", str(cones), "--resolution", "0.5",
            "--out", str(tmp_path / "scene.svg")])
        # a boolean is refused on reading the file, before any cone is read
        want = f"{cones} holds the boolean" if axis == "true" else f"cone {field} must be"
        assert err["error"].startswith(want)
        assert not (tmp_path / "scene.svg").exists()

    def test_cone_signs(self, capsys, tmp_path):
        obj = [{"apex": [0, 0], "axis": a, "sign": s}
               for a, s in ((0, "+"), (1, "-"), (0, 1), (1, -1))]
        code, _, _ = run(capsys, [
            "plot", "--box", dump(tmp_path, "b.json", [[-3.0, 3.0], [-3.0, 3.0]]),
            "--cones", dump(tmp_path, "c.json", obj), "--resolution", "0.5",
            "--out", str(tmp_path / "scene.svg")])
        assert code == 0
        assert [c.sign for c in (cli._load_cone(c) for c in obj)] == [1, -1, 1, -1]

    @pytest.mark.parametrize("field", ["apex", "axis", "sign"])
    def test_a_cone_without_a_field_names_it(self, capsys, tmp_path, field):
        cone = {k: v for k, v in {"apex": [0, 0], "axis": 1, "sign": "+"}.items() if k != field}
        err = input_error(capsys, [
            "plot", "--box", dump(tmp_path, "b.json", [[-3.0, 3.0], [-3.0, 3.0]]),
            "--cones", dump(tmp_path, "c.json", [cone]), "--resolution", "0.5",
            "--out", str(tmp_path / "scene.svg")])
        assert err == {"error": f"missing field '{field}' in cone object"}
        assert not (tmp_path / "scene.svg").exists()

    @staticmethod
    def _cell_runs(box, Q, resolution):
        """The region rectangles of ``render_scene``, merged from the member
        mask one cell at a time."""
        (x0, x1), (y0, y1) = box
        span_x, span_y = x1 - x0, y1 - y0
        height = svgplot.WIDTH * span_y / span_x
        nx, ny = max(1, round(span_x / resolution)), max(1, round(span_y / resolution))
        cx = x0 + (np.arange(nx) + 0.5) * span_x / nx
        cy = y0 + (np.arange(ny) + 0.5) * span_y / ny
        cell_w, cell_h, fmt = svgplot.WIDTH / nx, height / ny, svgplot._fmt
        rects = []
        for iy in range(ny):
            member = boxset.violation_many(Q, np.column_stack([cx, np.full(nx, cy[iy])]))
            member = member <= svgplot.MEMBER_TOL
            ix = 0
            while ix < nx:
                if not member[ix]:
                    ix += 1
                    continue
                run = ix
                while run < nx and member[run]:
                    run += 1
                y = height - (cy[iy] - y0) / span_y * height - cell_h / 2
                rects.append(f'<rect x="{fmt(ix * cell_w)}" y="{fmt(y)}" '
                             f'width="{fmt((run - ix) * cell_w)}" height="{fmt(cell_h)}" '
                             f'fill="{svgplot.REGION_FILL}"/>')
                ix = run
        return rects

    @pytest.mark.parametrize("make, box", [
        (vee_notch_instance, [(-3.0, 3.0), (-3.0, 3.0)]),
        (diagonal_halfspace_instance, [(-2.0, 1.0), (-1.5, 2.5)]),
        (lambda: random_mcshane_instance(2, 0.9, np.random.default_rng(5)),
         [(-4.0, 4.0), (-1.0, 1.0)]),
    ])
    @pytest.mark.parametrize("resolution", [0.1, 0.037, 0.01])
    def test_region_runs_are_the_cell_by_cell_runs(self, make, box, resolution):
        Q = make()
        lines = svgplot.render_scene(box, Q=Q, resolution=resolution).splitlines()
        rects = [line for line in lines if svgplot.REGION_FILL in line]
        assert rects and rects == self._cell_runs(box, Q, resolution)

    def test_unwritable_output(self, capsys, tmp_path, set_file):
        out_path = tmp_path / "missing" / "scene.svg"
        err = input_error(capsys, [
            "plot", "--set", set_file(vee_notch_instance()),
            "--box", dump(tmp_path, "b.json", [[0.0, 1.0], [0.0, 1.0]]),
            "--resolution", "0.25", "--out", str(out_path)])
        assert "No such file or directory" in err["error"] and str(out_path) in err["error"]


class TestOverlargeIntegers:
    """A JSON integer too large for a float is an input error (exit 1) in
    every loader, though Python raises it as an ``ArithmeticError``."""

    BIG = "1" + "0" * 400

    def _text(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def _refused(self, capsys, argv):
        assert input_error(capsys, argv) == {"error": "int too large to convert to float"}

    def test_retract_point(self, capsys, tmp_path, set_file):
        self._refused(capsys, ["retract", "--set", set_file(half_rate_instance()),
                               "--point", self._text(tmp_path, "x.json", f"[{self.BIG}, 0]")])

    def test_set_const_value(self, capsys, tmp_path):
        text = ('{"n": 2, "lower": [{"type": "const", "value": %s}, "-inf"], '
                '"upper": ["+inf", "+inf"]}' % self.BIG)
        self._refused(capsys, ["retract", "--set", self._text(tmp_path, "s.json", text),
                               "--point", dump(tmp_path, "x.json", [0.0, 0.0])])

    def test_verify_metric_matrix(self, capsys, tmp_path):
        matrix = self._text(tmp_path, "d.json", f"[[0, {self.BIG}], [{self.BIG}, 0]]")
        self._refused(capsys, ["verify", "metric", "--matrix", matrix])

    def test_hull_metric(self, capsys, tmp_path):
        metric = self._text(tmp_path, "d.json", f"[[0, {self.BIG}], [{self.BIG}, 0]]")
        self._refused(capsys, ["hull", "enumerate", "--metric", metric,
                               "--resolution", "0.25"])

    def test_plot_box(self, capsys, tmp_path):
        box = self._text(tmp_path, "b.json", f"[[0, {self.BIG}], [0, 1]]")
        self._refused(capsys, ["plot", "--box", box, "--resolution", "0.5",
                               "--out", str(tmp_path / "scene.svg")])
        assert not (tmp_path / "scene.svg").exists()


class TestStringsAreNoNumbers:
    """A JSON string is an input error (exit 1) in every loader, though
    ``float`` and numpy read ``"12"`` as 12 and split it into ``"1"`` and
    ``"2"`` where a sequence is due."""

    @pytest.mark.parametrize("point", ["12", ["3", 1]])
    def test_retract_point(self, capsys, tmp_path, set_file, point):
        err = input_error(capsys, ["retract", "--set", set_file(half_rate_instance()),
                                   "--point", dump(tmp_path, "x.json", point)])
        assert "point coordinates must be numbers" in err["error"]

    def test_retract_box(self, capsys, tmp_path, set_file):
        err = input_error(capsys, ["retract", "--set", set_file(vee_notch_instance()),
                                   "--point", dump(tmp_path, "x.json", [0.5, 0.5]),
                                   "--box", dump(tmp_path, "b.json", ["03", "03"])])
        assert err == {"error": "a box must hold numbers, got '03'"}

    @pytest.mark.parametrize("bound, message", [
        ({"type": "const", "value": "-1"}, "Const value must be a number, got '-1'"),
        ({"type": "distcone", "center": "12", "offset": -1.0, "scale": 0.5,
          "orientation": "+"}, "point coordinates must be numbers"),
    ])
    def test_set_file(self, capsys, tmp_path, bound, message):
        Q = {"n": 3, "lower": [bound, "-inf", "-inf"], "upper": ["+inf"] * 3}
        err = input_error(capsys, ["retract", "--set", dump(tmp_path, "s.json", Q),
                                   "--point", dump(tmp_path, "x.json", [0.5, 0.5, 0.5])])
        assert message in err["error"]

    def test_hull_metric(self, capsys, tmp_path):
        metric = dump(tmp_path, "d.json", [["0", "1"], ["1", "0"]])
        err = input_error(capsys, ["hull", "enumerate", "--metric", metric,
                                   "--resolution", "0.25"])
        assert err == {"error": "a metric must hold numbers, got '0'"}

    def test_verify_metric(self, capsys, tmp_path):
        matrix = dump(tmp_path, "d.json", [[0, "1"], [1, 0]])
        err = input_error(capsys, ["verify", "metric", "--matrix", matrix])
        assert err == {"error": "a metric must hold numbers, got '1'"}


class TestBooleansAreNoNumbers:
    """A JSON ``true`` or ``false`` is an input error (exit 1) in every
    loader, though ``float`` reads it as 1.0 or 0.0: no input format holds
    a boolean."""

    def _refused(self, capsys, argv, name, value="true"):
        err = input_error(capsys, argv)
        assert err == {"error": f"{name} holds the boolean {value}, which no input takes"}

    def test_retract_point(self, capsys, tmp_path, set_file):
        point = dump(tmp_path, "x.json", [3, True])
        self._refused(capsys, ["retract", "--set", set_file(half_rate_instance()),
                               "--point", point], point)

    def test_set_file(self, capsys, tmp_path):
        Q = {"n": 2, "lower": [{"type": "const", "value": True}, "-inf"],
             "upper": ["+inf", "+inf"]}
        path = dump(tmp_path, "s.json", Q)
        self._refused(capsys, ["retract", "--set", path,
                               "--point", dump(tmp_path, "x.json", [0.0, 0.0])], path)

    def test_extend_map(self, capsys, tmp_path):
        space = dump(tmp_path, "d.json", [[0, 1], [1, 0]])
        phi = dump(tmp_path, "map.json", [[0.5, True]])
        self._refused(capsys, ["extend", "--space", space, "--subset", "0", "--map", phi,
                               "--set", dump(tmp_path, "s.json", set_to_obj(
                                   box_instance([(0.0, 1.0), (0.0, 1.0)])))], phi)

    def test_hull_metric(self, capsys, tmp_path):
        metric = dump(tmp_path, "d.json", [[False, 1], [1, False]])
        self._refused(capsys, ["hull", "enumerate", "--metric", metric,
                               "--resolution", "0.5"], metric, "false")

    def test_retract_box(self, capsys, tmp_path, set_file):
        box = dump(tmp_path, "b.json", [[-4, True], [-4, 4]])
        self._refused(capsys, ["retract", "--set", set_file(vee_notch_instance()),
                               "--point", dump(tmp_path, "x.json", [0.5, 0.5]),
                               "--box", box], box)

    def test_reconstruct_samples(self, capsys, tmp_path):
        inside = dump(tmp_path, "in.json", [[0, 0], [0, True]])
        self._refused(capsys, ["reconstruct", "--inside", inside,
                               "--outside", dump(tmp_path, "out.json", [[2, 2]])], inside)


class TestSelftest:
    def test_same_seed_is_byte_identical(self, capsys):
        code = main(["selftest", "--seed", "5"])
        first = capsys.readouterr().out
        assert code == 0
        assert main(["selftest", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first

    def test_different_seeds_differ(self, capsys):
        main(["selftest", "--seed", "0"])
        a = capsys.readouterr().out
        main(["selftest", "--seed", "1"])
        b = capsys.readouterr().out
        assert a != b

    @pytest.mark.parametrize("seed, digest", [
        (0, "2770770bf89ad1e7d73a1e2b22a33910cdcd7daea0cea6ef38007c2d579202ee"),
        (3, "4f011aa535496fa4e03726af50a203b894e110a1b3f5822d3636c20ff5c71309"),
    ])
    def test_report_bytes_are_pinned(self, capsys, seed, digest):
        """A change that only restructures code keeps these bytes; one that
        means to change the report updates the digests with it."""
        assert main(["selftest", "--seed", str(seed)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_module_entry_point(self):
        cmd = [sys.executable, "-m", "hyperlip", "selftest", "--seed", "2"]
        runs = [subprocess.run(cmd, capture_output=True, text=True)
                for _ in range(2)]
        assert all(r.returncode == 0 for r in runs)
        assert runs[0].stdout == runs[1].stdout
        payload = json.loads(runs[0].stdout)
        assert payload["seed"] == 2
        assert set(payload) >= {"retract", "extension", "hull", "kuratowski"}


class TestOneParser:
    def test_reused_parser_answers_like_a_fresh_process(self, capsys, tmp_path):
        """The parser is built once per process; invalid commands, then valid
        ones, through that one parser give a fresh process's exit code,
        stdout and stderr."""
        metric = dump(tmp_path, "m.json", [[0.0, 2.0, 2.0], [2.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
        commands = [
            ["hull", "enumerate", "--metric", metric],
            ["hull", "enumerate", "--metric", metric, "--resolution", "0.5"],
            ["bogus"],
            ["verify", "metric", "--matrix", metric, "--tol", "x"],
            ["verify", "metric", "--matrix", metric],
        ]
        assert cli._build_parser() is cli._build_parser()
        for argv in commands:
            code = main(argv)
            got = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "hyperlip", *argv],
                                   capture_output=True, text=True)
            assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr)


class TestDispatch:
    """An argv that starts with a subcommand's name goes straight to that
    subcommand's parser.  Every argv gives the exit code, stdout and stderr
    it gives through the top-level parser, which the reference reaches by
    hiding the subcommands' parsers from ``main``."""

    @staticmethod
    def _table(tmp_path):
        Q = dump(tmp_path, "q.json", set_to_obj(vee_notch_instance()))
        half = dump(tmp_path, "h.json", set_to_obj(half_rate_instance()))
        x = dump(tmp_path, "x.json", [0.5, -1.0])
        box = dump(tmp_path, "b.json", [[-4.0, 4.0], [-4.0, 4.0]])
        metric = dump(tmp_path, "m.json", [[0.0, 1.0], [1.0, 0.0]])
        phi = dump(tmp_path, "phi.json", [[0.5, 0.5]])
        expr = dump(tmp_path, "f.json", expr_to_obj(Const(2.0)))
        grid = dump(tmp_path, "g.json", [[0.0], [1.0]])
        inside = dump(tmp_path, "in.json", [[0.0, 0.0], [0.0, 0.5], [0.5, 0.0], [0.5, 0.5]])
        outside = dump(tmp_path, "out.json", [[1.5, 1.5], [-1.0, -1.0]])
        svg = str(tmp_path / "scene.svg")
        retract = ["retract", "--set", Q, "--point", x]
        valid = [
            retract + ["--tol", "1e-3", "--box", box],
            ["retract", "--point", x, "--set", half, "--max-sweeps", "50"],
            ["extend", "--space", metric, "--subset", "0", "--map", phi, "--set", half],
            ["hull", "enumerate", "--metric", metric, "--resolution", "0.5"],
            ["reconstruct", "--inside", inside, "--outside", outside, "--a", "0.1"],
            ["verify", "lipschitz", "--expr", expr, "--grid", grid, "--lam", "0.5"],
            ["verify", "metric", "--matrix", metric],
            ["plot", "--set", Q, "--box", box, "--resolution", "0.5", "--out", svg],
            ["selftest", "--seed", "1"],
        ]
        helps = [["-h"], ["--help"], ["retract", "--set", Q, "-h"]] + \
            [[name, "--help"] for name in cli._build_parser().commands]
        usage = [
            [], ["warp"], ["retr"] + retract[1:], ["--", "retract"], ["-x"], ["retract"],
            retract + ["--bogus"], retract + ["extra"], ["retract", "--set", Q, "--po", x],
            retract + ["--tol=1e-3"], retract + ["--tol", "-1e-3"], retract + ["--tol"],
            ["retract", "--set", Q], ["retract", "--set", Q, "--set", half, "--point", x],
            retract + ["--", "--tol"], ["hull"], ["hull", "warp", "--metric", metric],
            ["verify", "--matrix", metric], ["selftest", "--seed", "one"],
        ]
        return valid + helps + usage

    def test_every_argv_answers_as_through_the_top_level_parser(self, capsys, tmp_path,
                                                               monkeypatch):
        table = self._table(tmp_path)
        got = []
        for argv in table:
            got.append((main(argv), *capsys.readouterr()))
        monkeypatch.setattr(cli._build_parser(), "commands", {})
        for argv, answer in zip(table, got):
            assert (main(argv), *capsys.readouterr()) == answer, argv
        # the table holds successes, help and every kind of usage error
        assert {code for code, *_ in got} == {0, 1}
        assert sum(out.startswith("usage: hyperlip") for _, out, _ in got) >= 10

    def test_argv_none_reads_the_process_arguments(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["hyperlip", "hull"])
        assert main() == 1
        assert json.loads(capsys.readouterr().err) == \
            {"error": "the following arguments are required: action, --metric, --resolution"}


class TestBoxSides:
    """Each side of a box file is a ``[lo, hi]`` pair; any other side is an
    input error that names it."""

    @pytest.mark.parametrize("box, message", [
        ([[-3, 3, 4], [-3, 3]], "box side 0 must be a [lo, hi] pair, got [-3, 3, 4]"),
        ([[-3, 3], 4], "box side 1 must be a [lo, hi] pair, got 4"),
        ([3, 4], "box side 0 must be a [lo, hi] pair, got 3"),
        ({"lo": -3, "hi": 3}, 'a box must be a list of [lo, hi] sides, got {"lo": -3, "hi": 3}'),
    ])
    def test_retract_box(self, capsys, tmp_path, set_file, box, message):
        err = input_error(capsys, ["retract", "--set", set_file(vee_notch_instance()),
                                   "--point", dump(tmp_path, "x.json", [0.5, 0.5]),
                                   "--box", dump(tmp_path, "b.json", box)])
        assert err == {"error": message}

    def test_plot_box(self, capsys, tmp_path):
        err = input_error(capsys, ["plot", "--box", dump(tmp_path, "b.json", [[0, 1], [2]]),
                                   "--out", str(tmp_path / "scene.svg")])
        assert err == {"error": "box side 1 must be a [lo, hi] pair, got [2]"}

    @pytest.mark.parametrize("sides", [1, 3])
    def test_plot_box_of_another_dimension(self, capsys, tmp_path, sides):
        err = input_error(capsys, ["plot", "--box", dump(tmp_path, "b.json", [[0, 1]] * sides),
                                   "--out", str(tmp_path / "scene.svg")])
        assert err == {"error": f"expected a box with 2 sides, got {sides}"}
        assert not (tmp_path / "scene.svg").exists()

    @pytest.mark.parametrize("text", ["[[-1e400, 1], [0, 1]]", "[[0, 1], [0, 1e400]]"])
    def test_plot_box_with_an_infinite_limit(self, capsys, tmp_path, text):
        box = tmp_path / "b.json"
        box.write_text(text)
        err = input_error(capsys, ["plot", "--box", str(box), "--out", str(tmp_path / "scene.svg")])
        assert err == {"error": "box limits must be finite"}
        assert not (tmp_path / "scene.svg").exists()


def _const_set(value):
    """A two-axis level-0 set whose JSON text has the same length for every
    one-digit ``value``: axis 0 lies in ``[-value, value]``."""
    return {"n": 2, "lower": [{"type": "const", "value": -value}, "-inf"],
            "upper": [{"type": "const", "value": value}, "+inf"]}


@pytest.fixture
def fresh_sets(monkeypatch):
    """An empty set cache for one test; returns it."""
    cache = cli._SetCache()
    monkeypatch.setattr(cli, "_SETS", cache)
    return cache


def _fresh_process(argv):
    done = subprocess.run([sys.executable, "-m", "hyperlip", *argv],
                          capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


class TestOneSetParse:
    """A process parses each distinct set text once and answers later
    requests with the set it built then."""

    def test_reused_sets_answer_like_fresh_ones(self, capsys, tmp_path, monkeypatch,
                                                fresh_sets):
        """The corpus forward, then in reverse order through the sets the
        first pass built: every case keeps its pinned bytes both times."""
        for name in RETRACTION_CORPUS:
            assert corpus_digest(capsys, tmp_path, name) == RETRACTION_DIGESTS[name], name
        assert len(fresh_sets) == 6
        calls = []
        monkeypatch.setattr(cli, "set_from_obj", lambda obj: calls.append(obj))
        for name in reversed(RETRACTION_CORPUS):
            assert corpus_digest(capsys, tmp_path, name) == RETRACTION_DIGESTS[name], name
        assert calls == []

    def test_a_rewritten_file_is_read_again(self, capsys, tmp_path, fresh_sets):
        path = tmp_path / "set.json"
        point = dump(tmp_path, "x.json", [3.0, -2.0])
        argv = ["retract", "--set", str(path), "--point", point]
        for value in (1.0, 2.0, 1.0):
            path.write_text(json.dumps(_const_set(value)))
            code, out, _ = run(capsys, argv)
            assert code == 0 and out["point"][0] == value
        assert path.stat().st_size == len(json.dumps(_const_set(2.0)))
        assert len(fresh_sets) == 2

    def test_a_failing_file_fails_every_time(self, capsys, tmp_path, fresh_sets):
        """A good set, malformed JSON, a set the grammar refuses and no file
        at one path, then the malformed JSON at another path: each request,
        made twice, exits as a fresh process does."""
        path, other = tmp_path / "set.json", tmp_path / "other.json"
        point = dump(tmp_path, "x.json", [3.0, -2.0])
        good = json.dumps(_const_set(1.0))
        steps = [(path, good), (path, '{"n": 2,'), (path, json.dumps(dict(_const_set(1.0), n=3))),
                 (path, None), (other, '{"n": 2,')]
        for at, text in steps:
            if text is None:
                at.unlink()
            else:
                at.write_text(text)
            argv = ["retract", "--set", str(at), "--point", point]
            fresh = _fresh_process(argv)
            assert fresh[0] == (0 if text == good else 1)
            for _ in range(2):
                code = main(argv)
                got = capsys.readouterr()
                assert (code, got.out, got.err) == fresh
        assert list(fresh_sets) == [good]

    def test_a_repeated_plot_writes_the_same_bytes(self, capsys, tmp_path, fresh_sets):
        argv = ["plot", "--set", dump(tmp_path, "set.json", _VEE),
                "--box", dump(tmp_path, "b.json", [[-3.0, 3.0], [-3.0, 3.0]]),
                "--resolution", "0.25", "--out", str(tmp_path / "scene.svg")]
        runs = []
        for _ in range(2):
            code = main(argv)
            runs.append((code, capsys.readouterr(), (tmp_path / "scene.svg").read_bytes()))
        assert runs[0][0] == 0 and runs[0] == runs[1]
        assert len(fresh_sets) == 1


class TestSetCacheBound:
    """The set cache holds at most ``_SET_CACHE_CHARS`` characters of set
    text, drops the least recently used sets first, and keys by text only.
    The budget is patched small, so no large file is written."""

    @staticmethod
    def _texts(tmp_path, count):
        """``count`` distinct set files of equal length; returns their paths."""
        paths = []
        for k in range(count):
            obj = _const_set(1.0)
            obj["upper"][0]["value"] = 10.0 + k
            paths.append(dump(tmp_path, f"s{k}.json", obj))
        return paths

    def test_the_texts_kept_never_exceed_the_budget(self, tmp_path, monkeypatch, fresh_sets):
        paths = self._texts(tmp_path, 12)
        size = len(Path(paths[0]).read_text())
        assert all(len(Path(p).read_text()) == size for p in paths)
        monkeypatch.setattr(cli, "_SET_CACHE_CHARS", 4 * size + size // 2)
        for k, path in enumerate(paths):
            Q = cli._load_set(path)
            assert fresh_sets.chars == sum(map(len, fresh_sets)) <= cli._SET_CACHE_CHARS
            assert len(fresh_sets) == min(k + 1, 4)
            assert cli._load_set(path) is Q
        assert list(fresh_sets) == [Path(p).read_text() for p in paths[-4:]]

    def test_the_least_recently_used_set_goes_first(self, tmp_path, monkeypatch, fresh_sets):
        paths = self._texts(tmp_path, 4)
        monkeypatch.setattr(cli, "_SET_CACHE_CHARS", 3 * len(Path(paths[0]).read_text()))
        first = [cli._load_set(p) for p in paths[:3]]
        assert cli._load_set(paths[0]) is first[0]      # a hit: now the most recent
        cli._load_set(paths[3])                         # evicts paths[1]
        assert cli._load_set(paths[0]) is first[0]
        assert cli._load_set(paths[2]) is first[2]
        assert cli._load_set(paths[1]) is not first[1]

    def test_a_text_over_the_budget_is_parsed_and_not_kept(self, tmp_path, monkeypatch,
                                                          fresh_sets):
        """A set text longer than the whole budget is parsed and not kept,
        and no other set is evicted for it."""
        small = dump(tmp_path, "small.json", _const_set(1.0))
        path = dump(tmp_path, "set.json", _VEE)
        monkeypatch.setattr(cli, "_SET_CACHE_CHARS", len(Path(path).read_text()) - 1)
        kept = cli._load_set(small)
        Q = cli._load_set(path)
        assert Q == vee_notch_instance()
        assert list(fresh_sets) == [Path(small).read_text()]
        assert fresh_sets.chars == len(Path(small).read_text())
        assert cli._load_set(path) is not Q
        assert cli._load_set(small) is kept

    def test_nothing_is_keyed_by_path(self, tmp_path, fresh_sets):
        text = json.dumps(_VEE)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(text)
        b.write_text(text)
        Q = cli._load_set(str(a))
        assert cli._load_set(str(b)) is Q
        assert list(fresh_sets) == [text]
        assert fresh_sets.chars == len(text)
