"""The library bindings the benchmark's tracer patches.

``bench/tracing.py`` wraps every ``(owner, attribute)`` of its ``_SPANS``
table, plus ``boxset._compile`` and ``reconstruct.choose_cone``, with a
``getattr`` that has no default, and re-runs ``boxset._batch_sweeps`` with
its leading positional arguments.  Dropping or renaming one of them breaks
the benchmark; these tests make that fail here first.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from hyperlip import boxset, reconstruct

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
