"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest bench/test_bench.py -q

They check that every metric named in BENCHMARK.json is printed with its
unit, that the traced run emits every per-layer metric and repeats its
deterministic counters exactly, that a corrupted output (a point moved by
1e-3, a reconstruction missing a bound) is counted as a failure, and that
the benchmark refuses to run without the checkout's own hyperlip sources.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import env

env.require_checkout_hyperlip()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hyperlip import boxset, cli, extension, lipfun, reconstruct  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# the per-layer metrics the benchmark was specified with
LAYER_TABLE = [
    "lipfun.eval_grid.calls", "lipfun.eval_grid.rows", "lipfun.eval_grid.self_s",
    "lipfun.compile.calls", "lipfun.scalar_eval.calls",
    "lipfun.bounds_of.calls", "lipfun.bounds_of.self_s",
    "boxset.sweeps", "boxset.row_sweeps", "boxset.moving_row_sweep_ratio",
    "boxset.engine.self_s", "boxset.cyclic.calls", "boxset.shrink.calls",
    "boxset.truncate.calls", "boxset.relax_k.max",
    "boxset.violation.calls", "boxset.violation.self_s", "boxset.violation_many.self_s",
    "boxset.enclosure_bounds.self_s",
    "extension.extend_into_Q.self_s", "extension.kuratowski_embed.self_s",
    "metric.FiniteMetricSpace.calls", "metric.FiniteMetricSpace.self_s",
    "hull.enumerate_extremal_grid.self_s", "hull.candidates", "hull.found_ratio",
    "reconstruct.epsilon_many.self_s", "reconstruct.epsilon_many.chunk_bytes",
    "reconstruct.synthesize_bounds.self_s", "reconstruct.choose_cone.calls",
    "reconstruct.cones", "reconstruct.nondominated_cone_ratio",
    "reconstruct.verify_reconstruction.self_s",
    "cli.main.calls", "cli.main.self_s", "cli.exit_nonzero",
    "trace.overhead_s",
    "pin.l1_waste.shared_sweeps", "pin.l1_waste.moving_row_sweep_ratio",
    "pin.square16.cones", "pin.square16.nondominated_cones",
]


def bench(workload, trace, seed=1, cwd=env.ROOT, extra_env=None):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"]
    child_env = dict(os.environ, **(extra_env or {}))
    return subprocess.run(cmd, cwd=cwd, env=child_env, capture_output=True, text=True,
                          timeout=170)


def result_of(done):
    assert done.returncode == 0, done.stderr
    res = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1
    assert res["correct"] and res["failed"] == 0, done.stderr
    return res


def units(res):
    return {name: m["unit"] for name, m in res["metrics"].items()}


def test_spec_matches_the_code():
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _, _ in tracing.PER_LAYER]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert WORKLOADS == list(workloads.NAMES)
    assert set(LAYER_TABLE) <= set(tracing.UNITS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    res = result_of(bench(workload, 0))
    assert units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_repeats_its_counters(workload):
    first = result_of(bench(workload, 1))
    second = result_of(bench(workload, 1))
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(LAYER_TABLE) <= set(first["metrics"])
    counters = [n for n in first["metrics"] if tracing.is_counter(n)]
    assert {n: first["metrics"][n]["value"] for n in counters} == \
           {n: second["metrics"][n]["value"] for n in counters}
    # the selftest reference op gives every layer a span on every workload
    times = [n for n, u in units(first).items() if u == "s" and n != "trace.overhead_s"]
    assert all(first["metrics"][n]["value"] > 0 for n in times)


def _shift_batch(original):
    def moved(*args, **kwargs):
        out, traces = original(*args, **kwargs)
        return out + 1e-3, traces
    return moved


def _shift_point(original):
    def moved(*args, **kwargs):
        point, trace = original(*args, **kwargs)
        return tuple(c + 1e-3 for c in point), trace
    return moved


def _shift_extension(original):
    def moved(*args, **kwargs):
        return [tuple(c + 1e-3 for c in p) for p in original(*args, **kwargs)]
    return moved


def _drop_upper_bound(original):
    def dropped(*args, **kwargs):
        Q = original(*args, **kwargs)
        upper = (lipfun.Infinite(1),) + tuple(Q.upper[1:])
        return boxset.BoxLipschitzSet(Q.lower, upper)
    return dropped


@pytest.mark.parametrize("workload, owner, attr, corrupt", [
    ("retract_batch", boxset, "cyclic_retract_many", _shift_batch),
    ("retract_stream", cli, "cyclic_retract", _shift_point),
    ("reconstruct", reconstruct, "synthesize_bounds", _drop_upper_bound),
    ("metric_spaces", extension, "extend_into_Q", _shift_extension),
])
def test_a_corrupted_output_is_counted_as_failed(workload, owner, attr, corrupt,
                                                 monkeypatch, tmp_path):
    """Retraction outputs are moved by 1e-3; a reconstruction loses a bound."""
    wl = workloads.build(workload, 1, "tiny", tmp_path)
    clean = run.Tally()
    for op in wl.cycle(0):
        clean.execute(op)
    assert clean.failed == 0, clean.reasons
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    tally = run.Tally()
    for op in wl.cycle(0):
        tally.execute(op)
    assert tally.attempted == len(wl.cycle(0))
    assert tally.failed >= 1


def _bare_checkout(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


@pytest.mark.parametrize("pythonpath", [None, str(env.SRC)])
def test_refuses_to_run_without_the_checkouts_sources(tmp_path, pythonpath):
    root = _bare_checkout(tmp_path)
    extra = {"PYTHONPATH": pythonpath} if pythonpath else {}
    done = bench("retract_batch", 0, cwd=root, extra_env=extra)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
    assert "hyperlip" in done.stderr
