"""Command-line front end.

Subcommands: retract, extend, hull, reconstruct, verify, plot, selftest.
All results go to stdout as canonical JSON (sorted keys, compact separators,
shortest-round-trip floats); errors go to stderr as one JSON object.  Exit
codes: 0 success, 1 input problems (malformed files, inconsistent or
unsupported instances, missing witnesses), 2 mathematical contract failures
(stalled iterations, sweep budgets, cone overlaps, failed verifications).

The selftest subcommand runs a fixed battery of seeded computations and
prints a report that is byte-identical across runs with the same seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import boxset, hull, instances, svgplot
# ``enclosure_bounds``, ``relaxation_order``, ``shrink_set`` and
# ``truncated_set`` are no longer called here (``boxset._level_one`` is the
# relaxation rule), but bench/tracing.py patches these bindings.
from .boxset import (
    BoxLipschitzSet,
    DivergenceDetectedError,
    InconsistentBoundsError,
    MaxSweepsExceededError,
    UnsupportedSetError,
    check_decay_certificate,
    cyclic_iterate,
    cyclic_retract,
    detect_noncontraction,
    enclosure_bounds,
    relaxation_order,
    set_from_obj,
    set_to_obj,
    shrink_set,
    trace_to_csv,
    truncated_set,
    violation,
)
from .extension import NotLipschitzError, extend_into_Q, kuratowski_embed
from .lipfun import expr_from_obj, verify_lipschitz_on_grid
from .metric import (
    ConeDescriptor,
    FiniteMetricSpace,
    as_point,
    check_metric_axioms,
    sup_dist,
)
from .reconstruct import (
    ConeOverlapError,
    ReconstructionConfig,
    membership_from_samples,
    synthesize_bounds,
    verify_reconstruction,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse with usage problems reported as input errors (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _err({"error": message})
        raise SystemExit(1)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(obj):
    sys.stdout.write(_dumps(obj) + "\n")


def _err(obj):
    sys.stderr.write(_dumps(obj) + "\n")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc


def _load_set(path) -> BoxLipschitzSet:
    return set_from_obj(_load_json(path))


def _load_point(path):
    return as_point(_load_json(path))


def _load_matrix(path) -> FiniteMetricSpace:
    obj = _load_json(path)
    if isinstance(obj, dict) and "metric" in obj:
        obj = obj["metric"]
    return FiniteMetricSpace(np.asarray(obj, dtype=float))


def _load_box(path):
    obj = _load_json(path)
    return [(float(a), float(b)) for a, b in obj]


def _trace_summary(trace):
    n = trace.dim
    tail = [abs(d) for d in trace.displacements[-n:]]
    return {
        "steps": trace.steps,
        "first_sweep_max": trace.initial_block_max,
        "last_sweep_max": max(tail) if tail else 0.0,
    }


# ---------------------------------------------------------------------------
# retract


def cmd_retract(args) -> int:
    Q = _load_set(args.set)
    x = _load_point(args.point)
    level_one = Q.lip_bound >= 1.0
    w = None
    if level_one:
        box = _load_box(args.box) if args.box else None
        witness = _load_point(args.witness) if args.witness else None
        target, w, tol, budget, result = boxset._level_one(Q, [x], args.tol, box, witness)
    else:
        target, tol, budget, result = Q, args.tol, 100_000, {"strategy": "cyclic"}
    start = x if w is None else tuple(a - b for a, b in zip(x, w))
    moved, trace = cyclic_retract(target, start, tol, args.max_sweeps or budget)
    point = moved if w is None else tuple(a + b for a, b in zip(moved, w))
    result.update(point=list(point), violation=violation(Q, point),
                  sweeps=trace.steps // Q.n, trace_summary=_trace_summary(trace))
    _write_trace(args, trace)
    code = 0
    if level_one and result["violation"] > args.tol:
        probe = cyclic_iterate(Q, x, boxset._probe_steps(Q.n))
        result["verdict"] = detect_noncontraction(probe)
        code = 2
    _emit(result)
    return code


def _write_trace(args, trace):
    if getattr(args, "trace_out", None):
        with open(args.trace_out, "w") as fh:
            fh.write(trace_to_csv(trace))


# ---------------------------------------------------------------------------
# extend


def cmd_extend(args) -> int:
    B = _load_matrix(args.space)
    A = [int(s) for s in args.subset.split(",") if s != ""]
    phi = [as_point(p) for p in _load_json(args.map)]
    Q = _load_set(args.set)
    witness = _load_point(args.witness) if args.witness else None
    box = _load_box(args.box) if args.box else None
    ext = extend_into_Q(B, A, phi, Q, tol=args.tol, witness=witness, box=box)
    worst = 0.0
    pairs = 0
    for i in range(B.size):
        for j in range(i + 1, B.size):
            pairs += 1
            worst = max(worst, sup_dist(ext[i], ext[j]) - B.d(i, j))
    _emit({
        "map": [[float(c) for c in p] for p in ext],
        "violations": [float(violation(Q, p)) for p in ext],
        "lipschitz_check": {"ok": bool(worst <= 1e-12), "pairs": pairs,
                            "max_excess": float(max(worst, 0.0))},
    })
    return 0


# ---------------------------------------------------------------------------
# hull


def cmd_hull(args) -> int:
    if args.action != "enumerate":
        _err({"error": f"unknown hull action {args.action!r}"})
        return 1
    X = _load_matrix(args.metric)
    found = hull.enumerate_extremal_grid(X, args.resolution)
    _emit({"count": len(found), "functions": [list(f) for f in found]})
    return 0


# ---------------------------------------------------------------------------
# reconstruct


def cmd_reconstruct(args) -> int:
    inside = [as_point(p) for p in _load_json(args.inside)]
    outside = [as_point(p) for p in _load_json(args.outside)]
    cfg = ReconstructionConfig(tuple(inside), tuple(outside), a=args.a)
    Q_rec = synthesize_bounds(cfg)
    out = {"set": set_to_obj(Q_rec), "report": None}
    if args.verify_grid:
        grid = [as_point(p) for p in _load_json(args.verify_grid)]
        oracle = membership_from_samples(inside)
        report = verify_reconstruction(oracle, Q_rec, grid)
        out["report"] = {
            "checked": report.checked,
            "false_inside": sorted([list(p) for p in report.false_inside]),
            "false_outside": sorted([list(p) for p in report.false_outside]),
        }
    _emit(out)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    if args.target == "lipschitz":
        f = expr_from_obj(_load_json(args.expr))
        grid = [as_point(p) for p in _load_json(args.grid)]
        witness = verify_lipschitz_on_grid(f, grid, args.lam, tol=args.tol)
        if witness is None:
            _emit({"ok": True, "pairs": len(grid) * (len(grid) - 1) // 2})
            return 0
        _emit({"ok": False, "witness": [list(witness[0]), list(witness[1])]})
        return 2
    if args.target == "metric":
        M = np.asarray(_load_json(args.matrix), dtype=float)
        report = check_metric_axioms(M, tol=args.tol)
        _emit({"ok": report.ok,
               "violations": [{"kind": v.kind, "indices": list(v.indices),
                               "amount": v.amount} for v in report.violations]})
        return 0 if report.ok else 2
    _err({"error": f"unknown verify target {args.target!r}"})
    return 1


# ---------------------------------------------------------------------------
# plot


def cmd_plot(args) -> int:
    Q = _load_set(args.set) if args.set else None
    box = _load_box(args.box)
    orbit = [as_point(p) for p in _load_json(args.orbit)] if args.orbit else None
    cones = None
    if args.cones:
        cones = [ConeDescriptor(as_point(c["apex"]), int(c["axis"]),
                                1 if c["sign"] in ("+", 1) else -1)
                 for c in _load_json(args.cones)]
    svg = svgplot.render_scene(box, Q=Q, orbit=orbit, cones=cones,
                               resolution=args.resolution)
    with open(args.out, "w") as fh:
        fh.write(svg)
    _emit({"out": args.out, "bytes": len(svg)})
    return 0


# ---------------------------------------------------------------------------
# selftest


def _selftest_random_metric(rng, m):
    D = rng.uniform(1.0, 2.0, (m, m))
    D = (D + D.T) / 2.0
    np.fill_diagonal(D, 0.0)
    return FiniteMetricSpace(D)


def _selftest_retract_section(rng):
    out = []
    for n, lam in ((2, 0.5), (3, 0.9), (4, 0.3)):
        Q = instances.random_mcshane_instance(n, lam, rng)
        start = tuple(rng.uniform(-3.0, 3.0, n))
        point, trace = cyclic_retract(Q, start, 1e-8)
        bad = check_decay_certificate(trace, lam)
        out.append({"n": n, "lam": lam, "steps": trace.steps,
                    "violation": violation(Q, point),
                    "certificate_violations": len(bad)})
    return out


def _selftest_counterexample_section():
    drift = cyclic_iterate(instances.empty_drift_instance(), (0.0, 0.0), 12)
    cycle = cyclic_iterate(instances.origin_cycle_instance(), (0.0, 1.0), 12)
    Q = instances.origin_cycle_instance()
    box = [(-2.0, 2.0), (-2.0, 2.0)]
    point = boxset.retract_lambda_one_bounded(Q, (0.0, 1.0), 1e-3, box)
    return {
        "drift_displacements": list(drift.displacements),
        "cycle_displacements": list(cycle.displacements),
        "cycle_verdicts": [detect_noncontraction(cyclic_iterate(Q, (0.0, 1.0), 16))],
        "shrink_point": list(point),
        "shrink_violation": violation(Q, point),
    }


def _selftest_extension_section(rng):
    Q = instances.random_mcshane_instance(2, 0.5, rng)
    starts = [tuple(rng.uniform(-2.0, 2.0, 2)) for _ in range(3)]
    members = instances.sample_members(Q, starts)
    extras = [tuple(rng.uniform(-2.0, 2.0, 2)) for _ in range(4)]
    pts = members + extras
    m = len(pts)
    D = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            D[i, j] = sup_dist(pts[i], pts[j])
    B = FiniteMetricSpace(D)
    A = list(range(len(members)))
    ext = extend_into_Q(B, A, members, Q, tol=1e-8)
    agrees = all(ext[a] == members[a] for a in A)
    worst = max((sup_dist(ext[i], ext[j]) - B.d(i, j)
                 for i in range(m) for j in range(i + 1, m)), default=0.0)
    return {"agrees_on_subset": agrees, "max_excess": max(worst, 0.0),
            "violations": [violation(Q, p) for p in ext]}


def _selftest_reconstruct_section():
    step = 0.5
    inside = [(i * step, j * step) for i in range(3) for j in range(3)]
    grid = [(-1.0 + i * step, -1.0 + j * step) for i in range(7) for j in range(7)]
    inside_set = set(inside)
    outside = [p for p in grid if p not in inside_set]
    cfg = ReconstructionConfig(tuple(inside), tuple(outside), a=0.1)
    Q_rec = synthesize_bounds(cfg)
    oracle = membership_from_samples(inside)
    report = verify_reconstruction(oracle, Q_rec, grid)
    blob = _dumps(set_to_obj(Q_rec)).encode()
    return {"set_sha256": hashlib.sha256(blob).hexdigest(),
            "checked": report.checked,
            "false_inside": len(report.false_inside),
            "false_outside": len(report.false_outside)}


def _selftest_hull_section():
    X = FiniteMetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    found = hull.enumerate_extremal_grid(X, 0.1)
    return {"segment": [list(f) for f in found]}


def _selftest_kuratowski_section(rng):
    X = _selftest_random_metric(rng, 8)
    emb = kuratowski_embed(X)
    worst = max(abs(sup_dist(emb[i], emb[j]) - X.d(i, j))
                for i in range(8) for j in range(8))
    return {"max_isometry_error": worst}


def selftest_report(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "seed": seed,
        "retract": _selftest_retract_section(rng),
        "counterexamples": _selftest_counterexample_section(),
        "extension": _selftest_extension_section(rng),
        "reconstruction": _selftest_reconstruct_section(),
        "hull": _selftest_hull_section(),
        "kuratowski": _selftest_kuratowski_section(rng),
    }


def cmd_selftest(args) -> int:
    _emit(selftest_report(args.seed))
    return 0


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="hyperlip",
                     description="Lipschitz-bounded sets in the sup norm: "
                                 "retraction, extension, hulls, reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("retract", help="retract a point onto a set")
    p.add_argument("--set", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--witness")
    p.add_argument("--box")
    p.add_argument("--max-sweeps", type=int, default=0)
    p.add_argument("--trace-out")
    p.set_defaults(func=cmd_retract)

    p = sub.add_parser("extend", help="extend a partial map into a set")
    p.add_argument("--space", required=True)
    p.add_argument("--subset", required=True, help="comma-separated indices")
    p.add_argument("--map", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--witness")
    p.add_argument("--box")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("hull", help="extremal-function computations")
    p.add_argument("action", choices=["enumerate"])
    p.add_argument("--metric", required=True)
    p.add_argument("--resolution", type=float, required=True)
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("reconstruct", help="synthesize bounds from samples")
    p.add_argument("--inside", required=True)
    p.add_argument("--outside", required=True)
    p.add_argument("--a", type=float, default=0.1)
    p.add_argument("--verify-grid")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify", help="grid checks of math contracts")
    p.add_argument("target", choices=["lipschitz", "metric"])
    p.add_argument("--expr")
    p.add_argument("--grid")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--matrix")
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plot", help="render a planar scene to SVG")
    p.add_argument("--set")
    p.add_argument("--box", required=True)
    p.add_argument("--orbit")
    p.add_argument("--cones")
    p.add_argument("--resolution", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("selftest", help="deterministic seeded battery")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NotLipschitzError as exc:
        _err({"error": str(exc), "witness": list(exc.witness)})
        return 1
    except (InconsistentBoundsError, UnsupportedSetError) as exc:
        _err({"error": str(exc)})
        return 1
    except (ValueError, IndexError, TypeError, KeyError, RecursionError) as exc:
        _err({"error": str(exc)})
        return 1
    except DivergenceDetectedError as exc:
        _err({"error": str(exc), "verdict": exc.verdict})
        return 2
    except ConeOverlapError as exc:
        _err({"error": str(exc), "exterior": list(exc.exterior),
              "inside": list(exc.inside)})
        return 2
    except (MaxSweepsExceededError, ArithmeticError) as exc:
        _err({"error": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
