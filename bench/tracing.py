"""Per-layer tracing of hyperlip from the outside.

:class:`Tracer` wraps public functions at the binding of the module that
imports them (``cli.violation``, ``boxset.eval_grid``, ...), so a count is a
top-level call into a layer, never a recursive call inside it.  Each wrapped
call records a span ``(name, start, end, parent, op)``; spans stay in memory
and are written out once at the end.  A layer's self time is the length of
its spans minus the spans nested directly inside them.  High-frequency calls
(compiled scalar evaluators, ``choose_cone``) are counted without spans.

Everything here runs in one thread: no layer waits on a queue, lock or other
thread, so there is no wait time to report.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from collections import defaultdict
from time import perf_counter

import numpy as np

from hyperlip import boxset, cli, extension, hull, reconstruct
from hyperlip.lipfun import Max, Min
from hyperlip.metric import FiniteMetricSpace

REF_OP = "selftest"
_EPSILON_CHUNK = inspect.signature(reconstruct.epsilon_many).parameters["chunk"].default

# (module, attribute, span name[, hook key]).  Every binding through which a
# layer function is reached gets its own wrapper around the original function;
# the hook reads counters off the call's arguments and result.
_SPANS = [
    (boxset, "eval_grid", "lipfun.eval_grid"),
    (boxset, "bounds_of", "lipfun.bounds_of"),
    (boxset, "_scalar_sweeps", "boxset.engine", "scalar"),
    (boxset, "_batch_sweeps", "boxset.engine", "batch"),
    (boxset, "violation", "boxset.violation"),
    (cli, "violation", "boxset.violation"),
    (extension, "violation", "boxset.violation"),
    (boxset, "violation_many", "boxset.violation_many"),
    (reconstruct, "violation_many", "boxset.violation_many"),
    (boxset, "enclosure_bounds", "boxset.enclosure_bounds"),
    (cli, "enclosure_bounds", "boxset.enclosure_bounds"),
    (boxset, "cyclic_retract", "boxset.cyclic_retract"),
    (cli, "cyclic_retract", "boxset.cyclic_retract"),
    (boxset, "cyclic_retract_many", "boxset.cyclic_retract_many"),
    (extension, "cyclic_retract_many", "boxset.cyclic_retract_many"),
    (boxset, "cyclic_iterate", "boxset.cyclic_iterate"),
    (cli, "cyclic_iterate", "boxset.cyclic_iterate"),
    (boxset, "shrink_set", "boxset.shrink_set"),
    (cli, "shrink_set", "boxset.shrink_set"),
    (boxset, "truncated_set", "boxset.truncated_set"),
    (cli, "truncated_set", "boxset.truncated_set"),
    (boxset, "relaxation_order", "boxset.relaxation_order"),
    (cli, "relaxation_order", "boxset.relaxation_order"),
    (boxset, "retract_lambda_one_bounded", "boxset.retract_lambda_one_bounded"),
    (boxset, "retract_lambda_one_bounded_many", "boxset.retract_lambda_one_bounded_many"),
    (extension, "retract_lambda_one_bounded_many", "boxset.retract_lambda_one_bounded_many"),
    (boxset, "retract_lambda_one_general", "boxset.retract_lambda_one_general"),
    (boxset, "retract_lambda_one_general_many", "boxset.retract_lambda_one_general_many"),
    (extension, "retract_lambda_one_general_many", "boxset.retract_lambda_one_general_many"),
    (extension, "extend_into_Q", "extension.extend_into_Q"),
    (cli, "extend_into_Q", "extension.extend_into_Q"),
    (extension, "kuratowski_embed", "extension.kuratowski_embed"),
    (cli, "kuratowski_embed", "extension.kuratowski_embed"),
    (FiniteMetricSpace, "__init__", "metric.FiniteMetricSpace"),
    (hull, "enumerate_extremal_grid", "hull.enumerate_extremal_grid"),
    (reconstruct, "epsilon_many", "reconstruct.epsilon_many"),
    (reconstruct, "synthesize_bounds", "reconstruct.synthesize_bounds"),
    (cli, "synthesize_bounds", "reconstruct.synthesize_bounds"),
    (reconstruct, "verify_reconstruction", "reconstruct.verify_reconstruction"),
    (cli, "verify_reconstruction", "reconstruct.verify_reconstruction"),
    (cli, "main", "cli.main"),
]

# per-layer metrics: (name, unit, better)
PER_LAYER = [
    ("lipfun.eval_grid.calls", "count", "lower"),
    ("lipfun.eval_grid.rows", "count", "lower"),
    ("lipfun.eval_grid.self_s", "s", "lower"),
    ("lipfun.compile.calls", "count", "lower"),
    ("lipfun.scalar_eval.calls", "count", "lower"),
    ("lipfun.bounds_of.calls", "count", "lower"),
    ("lipfun.bounds_of.self_s", "s", "lower"),
    ("boxset.sweeps", "count", "lower"),
    ("boxset.row_sweeps", "count", "lower"),
    ("boxset.moving_row_sweep_ratio", "ratio", "higher"),
    ("boxset.engine.self_s", "s", "lower"),
    ("boxset.cyclic.calls", "count", "lower"),
    ("boxset.shrink.calls", "count", "lower"),
    ("boxset.truncate.calls", "count", "lower"),
    ("boxset.relax_k.max", "count", "lower"),
    ("boxset.violation.calls", "count", "lower"),
    ("boxset.violation.self_s", "s", "lower"),
    ("boxset.violation_many.self_s", "s", "lower"),
    ("boxset.enclosure_bounds.self_s", "s", "lower"),
    ("extension.extend_into_Q.self_s", "s", "lower"),
    ("extension.kuratowski_embed.self_s", "s", "lower"),
    ("metric.FiniteMetricSpace.calls", "count", "lower"),
    ("metric.FiniteMetricSpace.self_s", "s", "lower"),
    ("hull.enumerate_extremal_grid.self_s", "s", "lower"),
    ("hull.candidates", "count", "lower"),
    ("hull.found_ratio", "ratio", "higher"),
    ("reconstruct.epsilon_many.self_s", "s", "lower"),
    ("reconstruct.epsilon_many.chunk_bytes", "bytes", "lower"),
    ("reconstruct.synthesize_bounds.self_s", "s", "lower"),
    ("reconstruct.choose_cone.calls", "count", "lower"),
    ("reconstruct.cones", "count", "lower"),
    ("reconstruct.nondominated_cone_ratio", "ratio", "higher"),
    ("reconstruct.verify_reconstruction.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.exit_nonzero", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("pin.l1_waste.shared_sweeps", "count", "lower"),
    ("pin.l1_waste.moving_row_sweep_ratio", "ratio", "higher"),
    ("pin.square16.cones", "count", "lower"),
    ("pin.square16.nondominated_cones", "count", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def is_counter(name):
    """Deterministic per-layer metrics: everything that is not a time."""
    return UNITS[name] != "s" and not name.startswith("trace.")


class Tracer:
    """Spans and counters of the calls made while an op is current."""

    def __init__(self):
        self.op = None
        self.spans = []            # (name, start, end, parent, op)
        self._stack = []
        self.counts = defaultdict(float)   # (op, name) -> value
        self.maxes = defaultdict(float)    # (op, name) -> value
        self.batch_runs = []       # (op, Q, X, threshold, max_sweeps)
        self.scalar_runs = []      # (op, n, displacements)
        self.synthesized = []      # (op, reconstructed set)
        self._undo = []

    # -- recording -------------------------------------------------------

    def count(self, name, k=1):
        self.counts[(self.op, name)] += k

    def note_max(self, name, value):
        key = (self.op, name)
        self.maxes[key] = max(self.maxes[key], value)

    def run_op(self, op_id, fn):
        """Run ``fn`` as op ``op_id`` under a root span ``bench.op``."""
        self.op = op_id
        try:
            return self._span_call("bench.op", fn, (), {})
        finally:
            self.op = None

    def _span_call(self, name, fn, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.op)

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            result = tracer._span_call(name, fn, args, kwargs)
            tracer.count(name + ".calls")
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        return wrapper

    def _wrap_compile(self, fn):
        tracer = self

        @functools.wraps(fn)
        def compile_(f):
            g = fn(f)
            if tracer.op is None:
                return g
            tracer.count("lipfun.compile.calls")

            def scalar_eval(y):
                tracer.counts[(tracer.op, "lipfun.scalar_eval.calls")] += 1
                return g(y)
            return scalar_eval
        return compile_

    def _wrap_counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.op is not None:
                tracer.count(name)
            return fn(*args, **kwargs)
        return counted

    def install(self):
        for owner, attr, name, *key in _SPANS:
            hook = _HOOKS.get(key[0] if key else name)
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr), hook))
        self._patch(boxset, "_compile", self._wrap_compile(boxset._compile))
        self._patch(reconstruct, "choose_cone",
                    self._wrap_counted("reconstruct.choose_cone.calls", reconstruct.choose_cone))

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results ---------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def self_times(self, keep):
        """Self time per span name over the ops accepted by ``keep``."""
        child = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, (name, start, end, parent, op) in enumerate(self.spans):
            if keep(op):
                out[name] += (end - start) - child[sid]
        return out

    def derive_counts(self):
        """Counts that need work outside the timed path: full sweeps,
        row-sweeps and moving row-sweeps of every engine run (each traced
        batch engine call is re-run with ``record=True``), and the emitted
        and non-dominated cones of every synthesized set.  Call after
        :meth:`uninstall`."""
        for op, Q, X, threshold, max_sweeps in self.batch_runs:
            _, disp = boxset._batch_sweeps(Q, X, threshold, max_sweeps, True)
            sweeps, moving = sweep_stats(disp, Q.n, len(X))
            self.counts[(op, "boxset.sweeps")] += sweeps
            self.counts[(op, "boxset.row_sweeps")] += sweeps * len(X)
            self.counts[(op, "boxset.moving_row_sweeps")] += moving
        for op, n, disp in self.scalar_runs:
            steps = len(disp)
            sweeps = math.ceil(steps / n)
            padded = np.zeros(sweeps * n)
            padded[:steps] = disp
            moving = int((padded.reshape(sweeps, n) != 0.0).any(axis=1).sum())
            self.counts[(op, "boxset.sweeps")] += sweeps
            self.counts[(op, "boxset.row_sweeps")] += sweeps
            self.counts[(op, "boxset.moving_row_sweeps")] += moving
        for op, Q_rec in self.synthesized:
            cones, kept = cone_counts(Q_rec)
            self.counts[(op, "reconstruct.cones")] += cones
            self.counts[(op, "reconstruct.nondominated_cones")] += kept

    def layer_metrics(self, keep):
        """Per-layer values (``trace.*`` and ``pin.*`` excluded) over the ops
        accepted by ``keep``."""
        c = defaultdict(float)
        for (op, name), v in self.counts.items():
            if keep(op):
                c[name] += v
        mx = defaultdict(float)
        for (op, name), v in self.maxes.items():
            if keep(op):
                mx[name] = max(mx[name], v)
        st = self.self_times(keep)

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        engine_entries = c["boxset.cyclic_retract.calls"] + c["boxset.cyclic_retract_many.calls"]
        shrinks = c["boxset.shrink_set.calls"]
        truncations = c["boxset.truncated_set.calls"]
        return {
            "lipfun.eval_grid.calls": c["lipfun.eval_grid.calls"],
            "lipfun.eval_grid.rows": c["lipfun.eval_grid.rows"],
            "lipfun.eval_grid.self_s": st["lipfun.eval_grid"],
            "lipfun.compile.calls": c["lipfun.compile.calls"],
            "lipfun.scalar_eval.calls": c["lipfun.scalar_eval.calls"],
            "lipfun.bounds_of.calls": c["lipfun.bounds_of.calls"],
            "lipfun.bounds_of.self_s": st["lipfun.bounds_of"],
            "boxset.sweeps": c["boxset.sweeps"],
            "boxset.row_sweeps": c["boxset.row_sweeps"],
            "boxset.moving_row_sweep_ratio": ratio("boxset.moving_row_sweeps",
                                                   "boxset.row_sweeps"),
            "boxset.engine.self_s": st["boxset.engine"],
            # every shrink or truncate path runs the engine once on a relaxed
            # set, and every truncation path shrinks once
            "boxset.cyclic.calls": engine_entries - shrinks,
            "boxset.shrink.calls": shrinks - truncations,
            "boxset.truncate.calls": truncations,
            "boxset.relax_k.max": mx["boxset.relax_k"],
            "boxset.violation.calls": c["boxset.violation.calls"],
            "boxset.violation.self_s": st["boxset.violation"],
            "boxset.violation_many.self_s": st["boxset.violation_many"],
            "boxset.enclosure_bounds.self_s": st["boxset.enclosure_bounds"],
            "extension.extend_into_Q.self_s": st["extension.extend_into_Q"],
            "extension.kuratowski_embed.self_s": st["extension.kuratowski_embed"],
            "metric.FiniteMetricSpace.calls": c["metric.FiniteMetricSpace.calls"],
            "metric.FiniteMetricSpace.self_s": st["metric.FiniteMetricSpace"],
            "hull.enumerate_extremal_grid.self_s": st["hull.enumerate_extremal_grid"],
            "hull.candidates": c["hull.candidates"],
            "hull.found_ratio": ratio("hull.found", "hull.candidates"),
            "reconstruct.epsilon_many.self_s": st["reconstruct.epsilon_many"],
            "reconstruct.epsilon_many.chunk_bytes": mx["reconstruct.epsilon_many.chunk_bytes"],
            "reconstruct.synthesize_bounds.self_s": st["reconstruct.synthesize_bounds"],
            "reconstruct.choose_cone.calls": c["reconstruct.choose_cone.calls"],
            "reconstruct.cones": c["reconstruct.cones"],
            "reconstruct.nondominated_cone_ratio": ratio("reconstruct.nondominated_cones",
                                                         "reconstruct.cones"),
            "reconstruct.verify_reconstruction.self_s": st["reconstruct.verify_reconstruction"],
            "cli.main.calls": c["cli.main.calls"],
            "cli.main.self_s": st["cli.main"],
            "cli.exit_nonzero": c["cli.exit_nonzero"],
        }


# -- hooks: counters read off a call's arguments and result ----------------


def _eval_grid_hook(tracer, args, kwargs, result):
    tracer.count("lipfun.eval_grid.rows", len(result))


def _scalar_engine_hook(tracer, args, kwargs, result):
    tracer.scalar_runs.append((tracer.op, args[0].n, result[1]))


def _batch_engine_hook(tracer, args, kwargs, result):
    Q, X, threshold, max_sweeps = args[:4]
    tracer.batch_runs.append((tracer.op, Q, X, threshold, max_sweeps))


def _relax_hook(tracer, args, kwargs, result):
    tracer.note_max("boxset.relax_k", result)


def _hull_hook(tracer, args, kwargs, result):
    X, resolution = args[0], args[1]
    count = int(math.floor(float(X.matrix.max()) / resolution + 1e-9)) + 1
    tracer.count("hull.candidates", count ** X.size)
    tracer.count("hull.found", len(result))


def _epsilon_hook(tracer, args, kwargs, result):
    inside, X = args[0], args[1]
    chunk = kwargs.get("chunk", args[2] if len(args) > 2 else _EPSILON_CHUNK)
    S = len(inside)
    rows = min(chunk, len(X))
    tracer.note_max("reconstruct.epsilon_many.chunk_bytes", rows * S * S * 8)


def _synth_hook(tracer, args, kwargs, result):
    tracer.synthesized.append((tracer.op, result))


def _main_hook(tracer, args, kwargs, result):
    if result != 0:
        tracer.count("cli.exit_nonzero")


_HOOKS = {
    "lipfun.eval_grid": _eval_grid_hook,
    "scalar": _scalar_engine_hook,
    "batch": _batch_engine_hook,
    "boxset.relaxation_order": _relax_hook,
    "hull.enumerate_extremal_grid": _hull_hook,
    "reconstruct.epsilon_many": _epsilon_hook,
    "reconstruct.synthesize_bounds": _synth_hook,
    "cli.main": _main_hook,
}


# -- derived counts computed outside the timed path ------------------------


def sweep_stats(disp, n, rows):
    """Full sweeps, and row-sweeps in which a row moved, of a recorded batch run."""
    if not disp:
        return 0, 0
    D = np.stack(disp)                       # (steps, rows)
    sweeps = D.shape[0] // n
    moving = (D[:sweeps * n].reshape(sweeps, n, rows) != 0.0).any(axis=1)
    return sweeps, int(moving.sum())


def cone_counts(Q_rec):
    """Emitted cones, and cones no other cone of the same axis and direction
    makes redundant.  Upper cone i makes upper cone j redundant when
    ``o_i + ||a_i - a_j|| <= o_j`` (lower cones: ``o_i - ||a_i - a_j|| >= o_j``);
    of two identical cones the first one is kept."""
    total = kept = 0
    for bound, sign in [(b, 1) for b in Q_rec.upper] + [(b, -1) for b in Q_rec.lower]:
        if not isinstance(bound, (Min, Max)):
            continue
        cones = bound.children
        total += len(cones)
        A = np.asarray([c.center for c in cones], dtype=float)
        o = sign * np.asarray([c.offset for c in cones])
        if A.shape[1] == 0:
            d = np.zeros((len(cones), len(cones)))
        else:
            d = np.abs(A[:, None, :] - A[None, :, :]).max(axis=2)
        K = len(cones)
        # le[i, j]: cone i is nowhere worse than cone j
        le = (o[:, None] + d <= o[None, :]) & ~np.eye(K, dtype=bool)
        # two cones that make each other redundant are identical: keep the first
        beats = le & (~le.T | np.triu(np.ones((K, K), dtype=bool), k=1))
        kept += int((~beats.any(axis=0)).sum())
    return total, kept

