"""End-to-end checks of the command-line front end.

Commands run in process through main(argv); one test goes through the
``python3 -m hyperlip`` entry point to pin byte-level determinism.
"""

import json
import subprocess
import sys

import pytest

from hyperlip import cli
from hyperlip.boxset import UnsupportedSetError, find_point, set_to_obj
from hyperlip.cli import main
from hyperlip.instances import (
    box_instance,
    diagonal_halfspace_instance,
    empty_drift_instance,
    half_rate_instance,
    vee_notch_instance,
)
from hyperlip.lipfun import Const, expr_to_obj


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    # stderr carries one JSON object on its last line (argparse may print a
    # usage line above it)
    err_text = captured.err.strip()
    err = json.loads(err_text.splitlines()[-1]) if err_text else None
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
        original = cli.cyclic_retract

        def moved(*args, **kwargs):
            (a, b), trace = original(*args, **kwargs)
            return (a - 1e-3, b + 1e-3), trace   # off the diagonal x2 = x1

        monkeypatch.setattr(cli, "cyclic_retract", moved)
        path = set_file(diagonal_halfspace_instance())
        code, out, _ = run(capsys, [
            "retract", "--set", path, "--point", dump(tmp_path, "x.json", [2.0, 5.0]),
            "--witness", dump(tmp_path, "w.json", [0.0, 0.0]), "--tol", "1e-6"])
        assert code == 2
        assert out["strategy"] == "truncate"
        assert out["violation"] > 1e-6
        assert out["verdict"] in ("stalled", "decaying")

    def test_overflowing_tolerance_is_an_input_error(self, capsys, set_file, tmp_path):
        path = set_file(vee_notch_instance())
        err = input_error(capsys, ["retract", "--set", path, "--point",
                                   dump(tmp_path, "x.json", [0.0, -3.0]), "--tol", "1e-320"])
        assert "overflows" in err["error"]

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
            find_point(diagonal_halfspace_instance())
        assert err["error"] == str(lib.value)

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
        code, _, err = run(capsys, ["retract", "--point", "x.json"])
        assert code == 1


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

    def test_overflowing_resolution_is_an_input_error(self, capsys, tmp_path):
        metric = dump(tmp_path, "d.json", [[0.0, 1.0], [1.0, 0.0]])
        err = input_error(capsys, ["hull", "enumerate", "--metric", metric,
                                   "--resolution", "1e-320"])
        assert "overflows" in err["error"]

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

    def test_bad_pullback_rejected(self, capsys, tmp_path):
        inside, outside, _ = self._square(tmp_path)
        code, _, err = run(capsys, [
            "reconstruct", "--inside", inside, "--outside", outside,
            "--a", "0.5"])
        assert code == 1
        assert err is not None


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

    def test_metric_with_nan_entries_fails(self, capsys, tmp_path):
        matrix = tmp_path / "d.json"
        matrix.write_text("[[0, NaN], [NaN, 0]]")
        code, out, err = run(capsys, ["verify", "metric", "--matrix", str(matrix)])
        assert code == 2
        assert err is None
        assert not out["ok"]
        assert {v["kind"] for v in out["violations"]} == {"finite"}


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

    def test_module_entry_point(self):
        cmd = [sys.executable, "-m", "hyperlip", "selftest", "--seed", "2"]
        runs = [subprocess.run(cmd, capture_output=True, text=True)
                for _ in range(2)]
        assert all(r.returncode == 0 for r in runs)
        assert runs[0].stdout == runs[1].stdout
        payload = json.loads(runs[0].stdout)
        assert payload["seed"] == 2
        assert set(payload) >= {"retract", "extension", "hull", "kuratowski"}
