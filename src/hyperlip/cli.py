"""Command-line front end.

Subcommands: retract, extend, hull, reconstruct, verify, plot, selftest.
All results go to stdout as canonical JSON (sorted keys, compact separators,
shortest-round-trip floats); errors go to stderr as one JSON object.  Exit
codes: 0 success, 1 input problems (malformed files, JSON integers too
large for a float, inconsistent or unsupported instances, missing
witnesses), 2 mathematical contract failures
(stalled iterations, sweep budgets, cone overlaps, failed verifications),
3 out of memory.

The selftest subcommand runs a fixed battery of seeded computations and
prints a report that is byte-identical across runs with the same seed.

An argv whose first word names a subcommand is parsed by that subcommand's
parser alone; the top-level parser, which would hand it all the same words,
parses only an argv that names none (help, no arguments, an unknown
command).  Exit codes, stdout and stderr are those of the top-level parse.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from collections import OrderedDict

import numpy as np

from . import boxset, hull, instances, svgplot
# ``enclosure_bounds``, ``relaxation_order``, ``shrink_set`` and
# ``truncated_set`` are no longer called here (``boxset.retract`` relaxes a
# level-1 set), but bench/tracing.py patches these bindings.
from .boxset import (
    BoxLipschitzSet,
    DivergenceDetectedError,
    MaxSweepsExceededError,
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
from .lipfun import _pairs, expr_from_obj, verify_lipschitz_on_grid
from .metric import (
    ConeDescriptor,
    FiniteMetricSpace,
    _first_of,
    as_point,
    as_points,
    check_metric_axioms,
    sup_dists,
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
    """argparse with usage problems reported as input errors (exit 1).  The
    top-level parser holds its subcommands' parsers by name in
    ``commands``."""

    commands = None

    def error(self, message):
        _err({"error": message})
        raise SystemExit(1)


def _dumps(obj) -> str:
    """Canonical strict JSON: a NaN or infinite float raises ValueError."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _emit(obj):
    sys.stdout.write(_dumps(obj) + "\n")


def _amount(v):
    """An amount for strict JSON: an infinite one is written ``"+inf"`` or
    ``"-inf"``, as set files write missing bounds."""
    return {math.inf: "+inf", -math.inf: "-inf"}.get(v, v)


def _err(obj):
    sys.stderr.write(_dumps(obj) + "\n")


def _read(path) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _decode(text, path):
    """The value of the JSON ``text``.  No input format holds a boolean, and
    ``float`` reads ``true`` as 1.0, so a boolean anywhere is refused."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    b = _first_of(obj, bool) if "true" in text or "false" in text else None
    if b is not None:
        raise ValueError(f"{path} holds the boolean {json.dumps(b)}, which no input takes")
    return obj


def _load_json(path):
    return _decode(_read(path), path)


# The sets of set files are kept by the file's full text, so one process
# parses each distinct text once: a set is immutable and holds its compiled
# evaluators.  The texts kept total at most this many characters (2 MiB of
# ASCII JSON, which is what set files are); the least recently used go first.
_SET_CACHE_CHARS = 2 << 20


class _SetCache(OrderedDict):
    """Set by file text, least recently used first; ``chars`` is the total
    length of the texts."""

    chars = 0

    def keep(self, text, Q):
        if len(text) > _SET_CACHE_CHARS:
            return
        self[text] = Q
        self.chars += len(text)
        while self.chars > _SET_CACHE_CHARS:
            self.chars -= len(self.popitem(last=False)[0])


_SETS = _SetCache()


def _load_set(path) -> BoxLipschitzSet:
    """The set in a set file.  The file is read on every call; a text seen
    before gives the set built from it then, and a file that fails gives its
    error again."""
    text = _read(path)
    Q = _SETS.get(text)
    if Q is None:
        Q = set_from_obj(_decode(text, path))
        _SETS.keep(text, Q)
    else:
        _SETS.move_to_end(text)
    return Q


def _load_point(path):
    return as_point(_load_json(path))


def _stretch(points, X: FiniteMetricSpace) -> float:
    """The largest ``sup_dist(points[i], points[j]) - X.d(i, j)`` over the
    pairs ``i < j``, or 0.0 when none is larger."""
    P = np.asarray(points)
    return float(np.triu(sup_dists(P, P) - X.matrix, 1).max())


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
    if level_one:
        box = _pairs(_load_json(args.box)) if args.box else None
        witness = _load_point(args.witness) if args.witness else None
        point, trace, result = boxset.retract(
            Q, x, args.tol, box, witness, many=False, max_sweeps=args.max_sweeps)
    else:   # through this module's binding, which bench/test_bench.py patches
        point, trace = cyclic_retract(Q, x, args.tol, args.max_sweeps or 100_000)
        result = {"strategy": "cyclic"}
    result.update(point=list(point), violation=violation(Q, point),
                  sweeps=trace.steps // Q.n, trace_summary=_trace_summary(trace))
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write(trace_to_csv(trace))
    code = 0
    if level_one and result["violation"] > args.tol:
        result["verdict"] = boxset._probe(Q, x)[0]
        code = 2
    _emit(result)
    return code


# ---------------------------------------------------------------------------
# extend


def cmd_extend(args) -> int:
    B = FiniteMetricSpace(_load_json(args.space))
    # the words as JSON values, which extend_into_Q checks as indices
    A = _decode(f"[{args.subset}]", f"--subset [{args.subset}]")
    phi = as_points(_load_json(args.map))
    Q = _load_set(args.set)
    witness = _load_point(args.witness) if args.witness else None
    box = _pairs(_load_json(args.box)) if args.box else None
    ext = extend_into_Q(B, A, phi, Q, tol=args.tol, witness=witness, box=box)
    worst = _stretch(ext, B)
    _emit({
        "map": [list(p) for p in ext],
        "violations": [float(violation(Q, p)) for p in ext],
        "lipschitz_check": {"ok": worst <= 1e-12, "pairs": B.size * (B.size - 1) // 2,
                            "max_excess": worst},
    })
    return 0


# ---------------------------------------------------------------------------
# hull


def cmd_hull(args) -> int:
    X = FiniteMetricSpace(_load_json(args.metric))
    found = hull.enumerate_extremal_grid(X, args.resolution)
    _emit({"count": len(found), "functions": [list(f) for f in found]})
    return 0


# ---------------------------------------------------------------------------
# reconstruct


def cmd_reconstruct(args) -> int:
    cfg = ReconstructionConfig(_load_json(args.inside), _load_json(args.outside), a=args.a)
    Q_rec = synthesize_bounds(cfg)
    out = {"set": set_to_obj(Q_rec), "report": None}
    if args.verify_grid:
        grid = as_points(_load_json(args.verify_grid))
        oracle = membership_from_samples(cfg._inside)
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
        grid = as_points(_load_json(args.grid))
        witness = verify_lipschitz_on_grid(f, grid, args.lam, tol=args.tol)
        if witness is None:
            _emit({"ok": True, "pairs": len(grid) * (len(grid) - 1) // 2})
            return 0
        _emit({"ok": False, "witness": [list(witness[0]), list(witness[1])]})
        return 2
    report = check_metric_axioms(_load_json(args.matrix), tol=args.tol)
    _emit({"ok": report.ok,
           "violations": [{"kind": v.kind, "indices": list(v.indices),
                           "amount": _amount(v.amount)} for v in report.violations]})
    return 0 if report.ok else 2


# ---------------------------------------------------------------------------
# plot


_CONE_SIGNS = {"+": 1, "-": -1, 1: 1, -1: -1}


def _load_cone(obj) -> ConeDescriptor:
    """One cone of ``plot --cones``: an object with an ``apex``, an integer
    ``axis`` and a ``sign`` of ``"+"``, ``"-"``, 1 or -1."""
    if not isinstance(obj, dict):
        raise ValueError(f"a cone must be an object, got {json.dumps(obj)}")
    try:
        apex, axis, sign = as_point(obj["apex"]), obj["axis"], obj["sign"]
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in cone object") from exc
    if not isinstance(sign, (str, int)) or sign not in _CONE_SIGNS:
        raise ValueError(f"cone sign must be \"+\", \"-\", 1 or -1, got {sign!r}")
    return ConeDescriptor(apex, axis, _CONE_SIGNS[sign])


def cmd_plot(args) -> int:
    Q = _load_set(args.set) if args.set else None
    box = _pairs(_load_json(args.box))
    orbit = as_points(_load_json(args.orbit)) if args.orbit else None
    cones = _load_json(args.cones) if args.cones else []
    if not isinstance(cones, list):
        raise ValueError(f"--cones must be a list of cone objects, got {json.dumps(cones)}")
    svg = svgplot.render_scene(box, Q=Q, orbit=orbit, cones=list(map(_load_cone, cones)),
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
    P = np.asarray(members + extras)
    B = FiniteMetricSpace(sup_dists(P, P))
    A = list(range(len(members)))
    ext = extend_into_Q(B, A, members, Q, tol=1e-8)
    agrees = all(ext[a] == members[a] for a in A)
    return {"agrees_on_subset": agrees, "max_excess": _stretch(ext, B),
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
    E = np.asarray(kuratowski_embed(X))
    return {"max_isometry_error": float(np.abs(sup_dists(E, E) - X.matrix).max())}


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


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged."""
    parser = _Parser(prog="hyperlip",
                     description="Lipschitz-bounded sets in the sup norm: "
                                 "retraction, extension, hulls, reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

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
    targets = p.add_subparsers(dest="target", required=True)
    lipschitz, metric = targets.add_parser("lipschitz"), targets.add_parser("metric")
    lipschitz.add_argument("--expr", required=True)
    lipschitz.add_argument("--grid", required=True)
    lipschitz.add_argument("--lam", type=float, default=1.0)
    metric.add_argument("--matrix", required=True)
    for p in (lipschitz, metric):
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    # the top-level parser hands every word after a subcommand's name to that
    # subcommand's parser, so a request that starts with one goes there
    # directly; the top-level parser answers only an argv that names none
    command = parser.commands.get(argv[0]) if argv else None
    try:
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NotLipschitzError as exc:
        _err({"error": str(exc), "witness": list(exc.witness)})
        return 1
    # an OverflowError is an ArithmeticError, but the only ones raised here
    # are JSON integers too large for a float
    except (ValueError, IndexError, TypeError, KeyError, RecursionError, OSError,
            OverflowError) as exc:
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
    # numpy's refusal names the table it could not allocate; a bare
    # MemoryError says nothing
    except MemoryError as exc:
        _err({"error": f"out of memory: {exc}" if str(exc) else "out of memory"})
        return 3


if __name__ == "__main__":
    sys.exit(main())
