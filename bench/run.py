"""Layered benchmark of hyperlip.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark measures ``<checkout>/src``
and refuses to run against any other copy of hyperlip.  Workloads (see
``workloads.py`` and ``BENCHMARK.json``): retract_batch, retract_stream,
reconstruct, metric_spaces.  Each is a closed loop with one client in one
process and thread, with ``HYPERLIP_THREADS`` unset.

``--trace 0`` measures the end-to-end metrics: it runs as many whole cycles
of ops as take ``--seconds`` on the machine the bounds were set on (the
workload's ``cycle_s``), so that every run at one seed does the same ops
whatever the machine's speed.  It checks every output outside its timed
interval, and reports throughput and latency percentiles over the ops, peak
resident memory, and set-up time as the median of several fresh interpreters
(``setup_probe.py``).  Set-up time, throughput and latencies are wall-clock
figures scaled by the slowdown against a fixed calibration kernel (see
:class:`Calibration`), so that they read as times on the machine the bounds
were set on; the unscaled figures are printed on ``#`` lines.

``--trace 1`` runs the workload's fixed traced op list once untraced and once
traced, then one in-process ``hyperlip selftest`` as a reference op so that
every layer has spans on every workload, and reports the per-layer metrics of
``tracing.py``; the spans go to ``.bench_work/spans-<workload>-<seed>.jsonl``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it start with ``#``
and record the machine, the code under test and run details.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import env

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
# typical calibration kernel time on the machine the bounds were set on (a
# 2-vCPU KVM guest on an Intel Xeon host, Python 3.11, numpy 2.4)
REF_NOMINAL_S = 4.5e-3
REF_EVERY_S = 0.05
MAX_REASONS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input; used by the benchmark's own tests")
    return p.parse_args(argv)


class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def execute(self, op, run=None):
        """Prepare ``op`` untimed, run it (through ``run`` when given) timed,
        then check it untimed.

        Returns the op's latency in seconds.  An op fails when it raises or
        its output check fails.
        """
        self.attempted += 1
        if op.prepare is not None:
            op.prepare()
        t0 = perf_counter()
        try:
            out = op.run() if run is None else run(op.run)
        except Exception as exc:  # a raising op is a failed op, not a crash
            dt = perf_counter() - t0
            self._fail(op, f"raised {type(exc).__name__}: {exc}")
            return dt
        dt = perf_counter() - t0
        reason = op.check(out)
        if reason is not None:
            self._fail(op, reason)
        return dt

    def _fail(self, op, reason):
        self.failed += 1
        if len(self.reasons) < MAX_REASONS:
            self.reasons.append(f"{op.kind}: {reason}")


class Calibration:
    """A fixed kernel of numpy and interpreter work, timed between ops.

    A virtual machine that shares its host's cores with other guests runs
    up to ~40% faster or slower from one minute to the next (measured on a
    2-vCPU KVM guest), for every op kind at once.  The kernel runs after
    every op that crosses another ``REF_EVERY_S`` of measured time, outside
    the ops' timed intervals, once to warm up and once timed.  Each op's
    latency is divided by the slowdown around it: the median kernel time of
    the ``NEAR`` samples before the op and the ``NEAR`` after it, against
    ``REF_NOMINAL_S``.  Local rather than run-wide, because the machine's
    speed changes within a second: on retract_stream, sampling every 0.05 s
    rather than every 0.25 s of measured time halved the spread of the scaled
    figures over five seeds.  The kernel touches no hyperlip code, so a
    change to the library cannot move it.
    """

    NEAR = 2

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.uniform(-1.0, 1.0, (64, 6))
        self._b = rng.uniform(-1.0, 1.0, (64, 6))
        self.samples = []

    def _kernel(self):
        acc = 0.0
        for i in range(2000):
            acc += abs((i % 7) - 3.0)
        a, b = self._a, self._b
        for _ in range(6):
            d = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
            acc += float(np.minimum.reduce([d.min(axis=0), d.min(axis=1)]).sum())
        # interpreter-bound work like a CLI request's: argument parsing and JSON
        for _ in range(4):
            parser = argparse.ArgumentParser(prog="calibration")
            sub = parser.add_subparsers(dest="command")
            cmd = sub.add_parser("run")
            cmd.add_argument("--path")
            cmd.add_argument("--tol", type=float)
            args = parser.parse_args(["run", "--path", "p.json", "--tol", "1e-3"])
            acc += len(json.loads(json.dumps({"point": a[0].tolist(), "tol": args.tol}))["point"])
        return acc

    def sample(self):
        self._kernel()
        t0 = perf_counter()
        self._kernel()
        self.samples.append(perf_counter() - t0)

    def slowdown(self, at=None):
        """Slowdown over all samples, or around sample index ``at`` (an op
        that ran after ``at`` samples had been taken)."""
        near = self.samples if at is None else self.samples[max(0, at - self.NEAR):at + self.NEAR]
        return statistics.median(near) / REF_NOMINAL_S


def _setup_seconds(name, seed, size):
    """Median set-up time over fresh interpreters, each scaled by the slowdown
    its own interpreter measured right after set-up; also the unscaled times."""
    scaled, times = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name, str(seed), size],
                              capture_output=True, text=True, timeout=170, check=True)
        elapsed, slowdown = map(float, done.stdout.strip().splitlines()[-1].split())
        scaled.append(elapsed / slowdown)
        times.append(elapsed)
    return statistics.median(scaled), times


def timed_run(name, seed, seconds, size, workdir):
    import workloads

    setup_s, probes = _setup_seconds(name, seed, size)
    wl = workloads.build(name, seed, size, workdir)
    wl.cycle(0)[0].untimed()        # warm-up, untimed and unchecked
    tally = Tally()
    latencies = []
    marks = []                      # calibration samples taken before each op
    by_kind = {}
    busy = 0.0
    cycles = max(1, round(seconds / wl.cycle_s))
    calibration = Calibration()
    next_sample = 0.0
    for j in range(cycles):
        for op in wl.cycle(j):
            marks.append(len(calibration.samples))
            dt = tally.execute(op)
            latencies.append(dt)
            by_kind.setdefault(op.kind, []).append(dt)
            busy += dt
            if busy >= next_sample:
                calibration.sample()
                next_sample = busy + REF_EVERY_S
    for _ in range(Calibration.NEAR):
        calibration.sample()        # so that the last ops have samples after them
    scaled = np.array([dt / calibration.slowdown(m) for dt, m in zip(latencies, marks)])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    beyond = len(latencies) * (1.0 - wl.tail_pct / 100.0)
    print(f"# timed workload={name} seed={seed} cycles={cycles} ops={len(latencies)} "
          f"busy_s={busy:.3f} tail=p{wl.tail_pct:g} samples_beyond_tail={beyond:.1f} "
          f"setup_probes_unscaled_s={[round(t, 4) for t in probes]}")
    print("# unscaled median ms by op kind " + json.dumps(
        {k: [len(v), round(statistics.median(v) * 1e3, 3)] for k, v in sorted(by_kind.items())}))
    raw = {
        "ops_per_s": (tally.attempted - tally.failed) / busy,
        "latency_p50_ms": float(np.percentile(latencies, 50.0)) * 1e3,
        "latency_tail_ms": float(np.percentile(latencies, wl.tail_pct)) * 1e3,
    }
    print(f"# calibration median slowdown={calibration.slowdown():.4f} "
          f"samples={len(calibration.samples)} unscaled={json.dumps(raw)}")
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": (tally.attempted - tally.failed) / float(scaled.sum()),
        "latency_p50_ms": float(np.percentile(scaled, 50.0)) * 1e3,
        "latency_tail_ms": float(np.percentile(scaled, wl.tail_pct)) * 1e3,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return tally, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def _pins(name, wl, tracer):
    """The ROADMAP baseline figures under this benchmark's definitions."""
    import tracing
    from hyperlip import boxset, instances

    out = {"pin.l1_waste.shared_sweeps": 0, "pin.l1_waste.moving_row_sweep_ratio": 0.0,
           "pin.square16.cones": 0, "pin.square16.nondominated_cones": 0}
    if name == "retract_batch":
        # n=8, lam=0.9, rows from U(-3,3)^8, seed 0, tol 1e-6, shared schedule
        rng = np.random.default_rng(0)
        Q = instances.random_mcshane_instance(8, 0.9, rng, samples=16)
        rows = wl.pins["l1_rows"]
        X = rng.uniform(-3.0, 3.0, (rows, 8))
        _, disp = boxset._batch_sweeps(Q, X, 1e-6 * (1.0 - Q.lip_bound), 100_000, True)
        sweeps, moving = tracing.sweep_stats(disp, 8, rows)
        out["pin.l1_waste.shared_sweeps"] = sweeps
        out["pin.l1_waste.moving_row_sweep_ratio"] = moving / (sweeps * rows)
    if name == "reconstruct":
        # op 0 of the traced list is the grid-step-1/16 square
        Q_rec = next(q for op, q in tracer.synthesized if op == "0")
        cones, kept = tracing.cone_counts(Q_rec)
        out["pin.square16.cones"] = cones
        out["pin.square16.nondominated_cones"] = kept
    return out


def traced_run(name, seed, size, workdir):
    import tracing
    import workloads

    wl = workloads.build(name, seed, size, workdir)
    ops = wl.trace_ops
    ops[0].untimed()                # warm-up, untimed and unchecked
    tally = Tally()
    untraced = sum(tally.execute(op) for op in ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = sum(tally.execute(op, lambda fn, k=k: tracer.run_op(str(k), fn))
                     for k, op in enumerate(ops))
        ref = workloads.Op("selftest", lambda: workloads.run_cli(["selftest"]),
                           lambda r: None if r[0] == 0 else f"exit {r[0]}: {r[2].strip()}")
        tally.execute(ref, lambda fn: tracer.run_op(tracing.REF_OP, fn))
    finally:
        tracer.uninstall()
    tracer.derive_counts()
    metrics = tracer.layer_metrics(lambda op: op is not None)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_ratio"] = (traced - untraced) / untraced
    metrics.update(_pins(name, wl, tracer))
    own = tracer.layer_metrics(lambda op: op is not None and op != tracing.REF_OP)
    env.WORK.mkdir(exist_ok=True)
    spans_path = env.WORK / f"spans-{name}-{seed}.jsonl"
    tracer.write_spans(spans_path)
    print(f"# traced workload={name} seed={seed} ops={len(ops)} untraced_s={untraced:.4f} "
          f"traced_s={traced:.4f} spans={len(tracer.spans)} -> {spans_path.name}")
    print("# layers without the selftest reference op " + json.dumps(own, sort_keys=True))
    out = {}
    for metric, unit, _ in tracing.PER_LAYER:
        v = metrics[metric]
        out[metric] = {"value": int(v) if unit in ("count", "bytes") else float(v), "unit": unit}
    return tally, out


def main(argv=None):
    args = _parse(argv)
    os.environ.pop("HYPERLIP_THREADS", None)
    try:
        hyperlip = env.require_checkout_hyperlip()
    except env.ForeignCodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print("# machine " + json.dumps(env.machine_facts(hyperlip), sort_keys=True), flush=True)
    workdir = env.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            tally, metrics = traced_run(args.workload, args.seed, args.size, workdir)
        else:
            tally, metrics = timed_run(args.workload, args.seed, args.seconds, args.size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in tally.reasons:
        print(f"failed op: {reason}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
