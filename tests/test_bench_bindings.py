"""The library bindings the benchmark's tracer patches.

``bench/tracing.py`` wraps every ``(owner, attribute)`` of its ``_SPANS``
table, plus ``boxset._compile`` and ``reconstruct.choose_cone``, with a
``getattr`` that has no default, and re-runs ``boxset._batch_sweeps`` with
its leading positional arguments.  ``bench/test_bench.py`` corrupts outputs
through ``cli.cyclic_retract`` and ``boxset.cyclic_retract_many``, so a
retraction that stops calling one of them escapes it.  Dropping or renaming
one of them breaks the benchmark; these tests make that fail here first.
"""

import importlib.util
import inspect
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hyperlip import boxset, cli, reconstruct
from hyperlip.instances import (
    diagonal_halfspace_instance,
    half_rate_instance,
    origin_cycle_instance,
    random_mcshane_instance,
    vee_notch_instance,
)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists(tracing):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracing._SPANS
               if not callable(getattr(owner, attr, None))]
    assert missing == []
    assert callable(boxset._compile)
    assert callable(reconstruct.choose_cone)


def test_batch_engine_leading_parameters():
    params = list(inspect.signature(boxset._batch_sweeps).parameters)
    assert params[:5] == ["Q", "X", "threshold", "max_sweeps", "record"]


def _spy(monkeypatch, owner, attr):
    """Patch ``owner.attr`` with a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, attr)

    def spy(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, spy)
    return calls


def _counting(calls, name, original):
    def spy(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    return spy


def test_selftest_calls_every_layer_with_a_traced_time(monkeypatch, capsys, tracing):
    """Each ``*.self_s`` metric of ``PER_LAYER`` times the spans of one
    layer; the selftest calls every one of them through the bindings the
    tracer wraps, so none of those metrics reads 0.0 on every workload."""
    calls = Counter()
    for owner, attr, name, *_ in tracing._SPANS:
        monkeypatch.setattr(owner, attr, _counting(calls, name, getattr(owner, attr)))
    assert cli.main(["selftest", "--seed", "0"]) == 0
    capsys.readouterr()
    timed = {name.removesuffix(".self_s") for name, *_ in tracing.PER_LAYER
             if name.endswith(".self_s")}
    assert len(timed) == 14
    assert sorted(layer for layer in timed if not calls[layer]) == []


def test_cli_retract_below_level_one_calls_its_cyclic_binding(monkeypatch, capsys, tmp_path):
    calls = _spy(monkeypatch, cli, "cyclic_retract")
    path = tmp_path / "set.json"
    path.write_text(json.dumps(boxset.set_to_obj(half_rate_instance())))
    point = tmp_path / "x.json"
    point.write_text("[3.0, -2.0]")
    assert cli.main(["retract", "--set", str(path), "--point", str(point)]) == 0
    assert json.loads(capsys.readouterr().out)["strategy"] == "cyclic"
    assert calls == ["cyclic_retract"]


def test_level_one_batch_wrapper_calls_the_batch_engine(monkeypatch):
    calls = _spy(monkeypatch, boxset, "cyclic_retract_many")
    X = np.array([[0.0, -3.0], [1.0, 2.0]])
    boxset.retract_lambda_one_bounded_many(vee_notch_instance(), X, 1e-3, [(-4.0, 4.0)] * 2)
    assert calls


@pytest.mark.parametrize("tol", [1e-3, 1e-6])
def test_level_one_relaxes_through_the_traced_bindings(monkeypatch, tol):
    """``boxset.truncate.calls`` and ``boxset.shrink.calls`` count the calls
    of ``boxset.truncated_set`` and ``boxset.shrink_set``: one per
    truncation and one per relaxed set a level-1 retraction runs on (the
    final order first, then each intermediate stage's)."""
    cases = [(random_mcshane_instance(3, 1.0, np.random.default_rng(3), samples=8),
              (2.0, -1.0, 0.5), None, False),
             (diagonal_halfspace_instance(), (0.0, 4.0), (0.0, 0.0), True),
             (origin_cycle_instance(), (0.0, 1.5), None, False)]     # staged
    for Q, x, witness, truncates in cases:
        truncations = _spy(monkeypatch, boxset, "truncated_set")
        orders = []
        shrink = boxset.shrink_set
        monkeypatch.setattr(boxset, "shrink_set",
                            lambda base, k, l, u: orders.append(k) or shrink(base, k, l, u))
        _, trace, report = boxset.retract(Q, x, tol, witness=witness, many=False)
        assert len(truncations) == truncates
        k = report["k"]
        staged = trace.steps // Q.n > boxset._FIRST_SWEEPS
        assert orders == [k] + (boxset._stage_orders(k)[:-1] if staged else [])
        monkeypatch.undo()


def test_enclosure_bounds_encloses_through_the_traced_bounds_of(monkeypatch):
    """``lipfun.bounds_of.calls`` counts the calls of ``boxset.bounds_of``:
    one per bound of a shrunk set, as in the selftest's origin-cycle run,
    which gives that layer a span on every workload."""
    calls = _spy(monkeypatch, boxset, "bounds_of")
    boxset.retract_lambda_one_bounded(origin_cycle_instance(), (0.0, 1.0), 1e-3,
                                      [(-2.0, 2.0)] * 2)
    assert calls == ["bounds_of"] * 4
