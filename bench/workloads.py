"""The four benchmark workloads: seeded inputs, the ops run on them, and the
contract check of every op's output.

Every workload is a closed loop with one client: an op is issued only after
the previous one returned, because every hyperlip call is synchronous and its
caller waits for the answer.  Ops come in cycles with a fixed sequence of
op kinds, and a run executes whole cycles, so every run sees the same mix of
op kinds and the seed changes only the data.  The library receives only inputs generated here from
the seed; it is called through module attributes (``boxset.violation``, not a
local binding) so that the traced run sees every call.

An op's ``run`` is what is timed.  Its ``prepare``, when given, stages the
op's input files just before it, and its ``check`` runs after it; both are
outside the timed interval.  ``check`` returns ``None`` when the output
honours the contract that output promises, else a one-line reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from hyperlip import boxset, cli, extension, hull, instances, reconstruct
from hyperlip.metric import FiniteMetricSpace

NAMES = ("retract_batch", "retract_stream", "reconstruct", "metric_spaces")
SIZES = ("full", "tiny")
STREAM_TOLS = (1e-3, 1e-4, 1e-6)
# exact members of the random McShane sets are iterated from starts in
# U(-MEMBER_SPAN, MEMBER_SPAN)^n, near the middle of the set, where they reach
# a fixed point in 2-3 sweeps; from U(-3, 3)^n a few sets per seed took up to
# ~200 sweeps at level 0.9, and set-up time swung 2x from seed to seed
MEMBER_SPAN = 0.5


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    prepare: "Callable[[], None] | None" = None

    def untimed(self):
        """Prepare and run the op, as a warm-up: no timing, no check."""
        if self.prepare is not None:
            self.prepare()
        return self.run()


@dataclass
class Workload:
    """``cycle(j)`` gives the ops of cycle ``j``; ``trace_ops`` is the fixed op
    list of the traced run; ``tail_pct`` is the percentile reported as
    ``latency_tail_ms`` (chosen so a full-size run has at least ten ops
    beyond it); ``cycle_s`` is the time of one full-size cycle on the machine
    the bounds were set on, from which a timed run's cycle count is set."""

    name: str
    cycle: Callable[[int], list]
    trace_ops: list
    tail_pct: float
    cycle_s: float
    pins: dict = field(default_factory=dict)


def build(name: str, seed: int, size: str, workdir: Path) -> Workload:
    """Generate every input of workload ``name`` from ``seed``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = np.random.default_rng(seed)
    if name == "retract_batch":
        return _retract_batch(rng, size)
    if name == "retract_stream":
        return _retract_stream(rng, size, workdir)
    if name == "reconstruct":
        return _reconstruct(rng, size)
    return _metric_spaces(rng, size)


# ---------------------------------------------------------------------------
# shared checks


def _members_fixed(out, rows, members):
    """Exact members must come back bit for bit."""
    got = np.asarray(out)[rows]
    if not np.array_equal(got, members):
        bad = int(np.argmax((got != members).any(axis=1)))
        return f"member {tuple(members[bad])} came back as {tuple(got[bad])}"
    return None


def _residual_ok(Q, out, bound):
    worst = float(boxset.violation_many(Q, np.asarray(out)).max(initial=0.0))
    if not worst <= bound:
        return f"final violation {worst!r} exceeds the promised {bound!r}"
    return None


def _first_failure(*reasons):
    return next((r for r in reasons if r is not None), None)


def _cyclic_bound(lam, tol):
    """Residual bound of the cyclic strategy below level 1 (see cyclic_retract)."""
    return lam * (1.0 - lam) * tol


def _dyadic_members(rng, count, accept, lo, hi, step=0.25):
    """Distinct grid points of ``[lo, hi]^2`` on which ``accept`` holds."""
    axis = np.arange(lo, hi + step / 2, step)
    cands = [(float(a), float(b)) for a in axis for b in axis if accept(a, b)]
    pick = rng.choice(len(cands), size=count, replace=False)
    return np.asarray([cands[i] for i in sorted(pick)])


def _vee_member(a, b):
    return abs(a) <= b <= 3.0


def _diag_member(a, b):
    return b <= a


# ---------------------------------------------------------------------------
# retract_batch: shared-schedule batch retractions


_BATCH = {
    # large contractive: its (rows, 16 samples, 3) McShane temporary is above
    # a 4 MiB L2; small slow: ~70 shared sweeps at level 0.9, one fresh set
    # per op so that a run's median covers many random sets
    "full": {"large_rows": 12_000, "slow_rows": 100, "slow_sets": 48, "l1_rows": 2_000,
             "vee_rows": 4_000, "cycle_rows": 500, "diag_rows": 4_000, "members": 4},
    "tiny": {"large_rows": 300, "slow_rows": 40, "slow_sets": 12, "l1_rows": 60,
             "vee_rows": 200, "cycle_rows": 50, "diag_rows": 200, "members": 4},
}


def _seeded_rows(rng, rows, n, span, members):
    X = rng.uniform(-span, span, (rows, n))
    idx = np.sort(rng.choice(rows, size=len(members), replace=False))
    X[idx] = members
    return X, idx


def _batch_cyclic(rng, n, lam, rows, members, tol=1e-6):
    Q = instances.random_mcshane_instance(n, lam, rng, samples=16)
    mem = np.asarray(instances.sample_members(Q, rng.uniform(-MEMBER_SPAN, MEMBER_SPAN, (members, n))))
    X, idx = _seeded_rows(rng, rows, n, 3.0, mem)
    bound = _cyclic_bound(Q.lip_bound, tol)

    def run():
        return boxset.cyclic_retract_many(Q, X, tol)[0]

    def check(out):
        return _first_failure(_members_fixed(out, idx, mem), _residual_ok(Q, out, bound))

    return Op(f"cyclic n={n} lam={lam} rows={rows}", run, check)


def _batch_bounded(rng, Q, rows, span, box, mem, tol=1e-3):
    X, idx = _seeded_rows(rng, rows, Q.n, span, mem)

    def run():
        return boxset.retract_lambda_one_bounded_many(Q, X, tol, box)

    def check(out):
        return _first_failure(_members_fixed(out, idx, mem), _residual_ok(Q, out, tol))

    return Op(f"shrink rows={rows}", run, check)


def _batch_general(rng, rows, mem, tol=1e-3):
    Q = instances.diagonal_halfspace_instance()
    witness = (0.0, 0.0)
    X, idx = _seeded_rows(rng, rows, 2, 5.0, mem)

    def run():
        return boxset.retract_lambda_one_general_many(Q, witness, X, tol)

    def check(out):
        return _first_failure(_members_fixed(out, idx, mem), _residual_ok(Q, out, tol))

    return Op(f"truncate rows={rows}", run, check)


def _retract_batch(rng, size):
    s = _BATCH[size]
    k = s["members"]
    large = [_batch_cyclic(rng, 4, 0.5, s["large_rows"], k) for _ in range(4)]
    slow = [_batch_cyclic(rng, 8, 0.9, s["slow_rows"], k) for _ in range(s["slow_sets"])]
    vee = [_batch_bounded(rng, instances.vee_notch_instance(), s["vee_rows"], 4.0,
                          [(-4.0, 4.0)] * 2, _dyadic_members(rng, k, _vee_member, -2.0, 3.0))
           for _ in range(2)]
    origin = [_batch_bounded(rng, instances.origin_cycle_instance(), s["cycle_rows"], 2.0,
                             [(-2.0, 2.0)] * 2, np.zeros((1, 2)))
              for _ in range(2)]
    diag = [_batch_general(rng, s["diag_rows"], _dyadic_members(rng, k, _diag_member, -4.0, 4.0))
            for _ in range(2)]

    def cycle(j):
        sl = [slow[(12 * j + t) % len(slow)] for t in range(12)]
        return ([large[j % len(large)]] + sl[:4] + [vee[j % 2]] + sl[4:8] + [origin[j % 2]]
                + sl[8:] + [diag[j % 2]])

    return Workload("retract_batch", cycle, cycle(0), tail_pct=80.0, cycle_s=5.0,
                    pins={"l1_rows": s["l1_rows"]})


# ---------------------------------------------------------------------------
# retract_stream: single-point requests through the CLI, in process


def run_cli(argv):
    """``hyperlip.cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _write(path: Path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


class _PointFile:
    """A start point and the JSON file the CLI reads it from.  The file is
    written by the first op that uses it, in that op's untimed ``prepare``:
    thousands of small files written up front made set-up time a measure of
    the file system rather than of hyperlip."""

    def __init__(self, path: Path, point):
        self.path = str(path)
        self.point = tuple(map(float, point))
        self._written = False

    def write(self):
        if not self._written:
            _write(Path(self.path), list(self.point))
            self._written = True


@dataclass
class _StreamSet:
    Q: object
    path: str
    strategy: str
    points: list          # _PointFile of seeded non-members
    members: list         # _PointFile of exact members
    witness: str = None


def _stream_set(workdir, tag, Q, strategy, points, members, witness=None):
    path = _write(workdir / f"{tag}.json", boxset.set_to_obj(Q))
    pts = [_PointFile(workdir / f"{tag}_p{i}.json", p) for i, p in enumerate(points)]
    mem = [_PointFile(workdir / f"{tag}_m{i}.json", p) for i, p in enumerate(members)]
    wpath = _write(workdir / f"{tag}_w.json", list(witness)) if witness is not None else None
    return _StreamSet(Q, path, strategy, pts, mem, wpath)


def _stream_op(entry: _StreamSet, point: _PointFile, tol, member):
    x = point.point
    argv = ["retract", "--set", entry.path, "--point", point.path, "--tol", repr(tol)]
    if entry.witness:
        argv += ["--witness", entry.witness]
    Q = entry.Q
    if entry.strategy == "cyclic":
        bound = _cyclic_bound(Q.lip_bound, tol)
    else:
        bound = tol

    def run():
        return run_cli(argv)

    def check(result):
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        got = json.loads(out)
        if got["strategy"] != entry.strategy:
            return f"strategy {got['strategy']!r}, expected {entry.strategy!r}"
        point = tuple(got["point"])
        if member and point != x:
            return f"member {x} came back as {point}"
        v = boxset.violation(Q, point)
        if not v <= bound:
            return f"final violation {v!r} exceeds the promised {bound!r}"
        return None

    kind = f"{entry.strategy} n={Q.n} tol={tol:g}{' member' if member else ''}"
    return Op(kind, run, check, point.write)


def _origin_starts(rng, count, strata=16):
    """Start points for the origin cycle.  Its relaxation sweeps depend on the
    start's distance from the origin and on its direction, so both are spread
    evenly over every prefix of the list, which is what a run uses: the
    sup-norm radius of point ``i`` is in stratum ``i % strata`` of [0.25, 2],
    and its angle follows a golden-ratio sequence from a seeded offset."""
    i = np.arange(count)
    radius = 0.25 + 1.75 * (i % strata + 0.5) / strata
    angle = 2.0 * math.pi * ((rng.uniform() + i * (math.sqrt(5.0) - 1.0) / 2.0) % 1.0)
    direction = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    direction /= np.abs(direction).max(axis=1, keepdims=True)
    return direction * radius[:, None]


def _retract_stream(rng, size, workdir: Path):
    # pools large enough that one run draws from many sets and points, so a
    # run's percentiles do not hinge on a few seeded inputs
    workdir.mkdir(parents=True, exist_ok=True)
    lams = (0.3, 0.5, 0.9)
    contractive = []
    for c in range(48):
        n = 2 + c % 5
        Q = instances.random_mcshane_instance(n, lams[c % 3], rng, samples=16)
        members = instances.sample_members(Q, rng.uniform(-MEMBER_SPAN, MEMBER_SPAN, (2, n)))
        contractive.append(_stream_set(workdir, f"c{c}", Q, "cyclic",
                                       rng.uniform(-3.0, 3.0, (8, n)), members))
    level_one = []
    for c in range(16):
        n = 2 + c % 3
        Q = instances.random_mcshane_instance(n, 1.0, rng, samples=8)
        level_one.append(_stream_set(workdir, f"l{c}", Q, "shrink",
                                     rng.uniform(-3.0, 3.0, (8, n)), []))
    vee = _stream_set(workdir, "vee", instances.vee_notch_instance(), "shrink",
                      rng.uniform(-4.0, 4.0, (64, 2)),
                      _dyadic_members(rng, 16, _vee_member, -2.0, 3.0))
    origin = [_stream_set(workdir, f"origin{c}", instances.origin_cycle_instance(), "shrink",
                          _origin_starts(rng, 512), []) for c in range(2)]
    diag = _stream_set(workdir, "diag", instances.diagonal_halfspace_instance(), "truncate",
                       rng.uniform(-5.0, 5.0, (64, 2)),
                       _dyadic_members(rng, 16, _diag_member, -4.0, 4.0), witness=(0.0, 0.0))

    def tol(i):
        return STREAM_TOLS[i % 3]

    def nth(seq, i):
        return seq[i % len(seq)]

    def spread(pool, i, attr):
        """Input ``i`` of a pool of sets: walks every set before reusing one."""
        e = nth(pool, i)
        return e, nth(getattr(e, attr), i // len(pool))

    def cycle(j):
        ops = []
        for s in range(6):
            e, x = spread(contractive, 6 * j + s, "points")
            ops.append(_stream_op(e, x, tol(j + s), False))
        for s in range(2):
            e, x = spread(contractive, 2 * j + s, "members")
            ops.append(_stream_op(e, x, tol(j + s + 1), True))
        for s in range(2):
            e, x = spread(level_one, 2 * j + s, "points")
            ops.append(_stream_op(e, x, tol(j + s + 2), False))
        ops.append(_stream_op(vee, nth(vee.points, j), tol(j), False))
        ops.append(_stream_op(vee, nth(vee.members, j), tol(j + 1), True))
        # relaxation sweeps of the origin cycle grow like 1/tol, so 1e-6 is out
        ops.append(_stream_op(origin[0], nth(origin[0].points, j), 1e-3, False))
        ops.append(_stream_op(origin[1], nth(origin[1].points, j // 2), 1e-4 if j % 2 else 1e-3,
                              False))
        ops.append(_stream_op(diag, nth(diag.points, j), tol(j), False))
        ops.append(_stream_op(diag, nth(diag.members, j), tol(j + 2), True))
        return ops

    trace_cycles = 8 if size == "full" else 2
    trace_ops = [op for j in range(trace_cycles) for op in cycle(j)]
    return Workload("retract_stream", cycle, trace_ops, tail_pct=99.0, cycle_s=0.072)


# ---------------------------------------------------------------------------
# reconstruct: bound synthesis plus grid verification


def _grid(spu):
    """Grid of step ``1/spu`` over [-1, 3]^2, as index pairs and points."""
    count = 4 * spu
    idx = [(i, j) for i in range(count + 1) for j in range(count + 1)]
    pts = tuple((-1.0 + i / spu, -1.0 + j / spu) for i, j in idx)
    return idx, pts


def _square(spu):
    def inside(i, j):
        return spu <= i <= 2 * spu and spu <= j <= 2 * spu
    return inside


def _step_shape(spu):
    """Criterion 08's step shape: 0<=x<=2, 0<=y<=2, x <= 1 + min(y, 1)."""
    def inside(i, j):
        a, b = i - spu, j - spu
        return 0 <= a <= 2 * spu and 0 <= b <= 2 * spu and a <= spu + min(b, spu)
    return inside


def _seeded_box(rng, spu, k):
    """Box number ``k``: its size comes from ``k % 6`` (so every cycle sees
    the same sizes), its position from the seed."""
    count = 4 * spu
    w = max(1, (6 + k % 4) * spu // 16)
    h = max(1, (6 + (k % 6 + 2) % 4) * spu // 16)
    margin = max(1, spu // 4)
    i0 = int(rng.integers(margin, count - w - margin + 1))
    j0 = int(rng.integers(margin, count - h - margin + 1))

    def inside(i, j):
        return i0 <= i <= i0 + w and j0 <= j <= j0 + h
    return inside


def _seeded_l(rng, spu, k):
    """L number ``k``, its inner corner cut at slope 1 like criterion 08's
    step shape (an axis-aligned notch has no 1-Lipschitz bounds).  Its size
    comes from ``k % 6``; position and one of eight orientations from the
    seed."""
    count = 4 * spu
    W = max(2, (8 + k % 4) * spu // 16)
    t = max(1, W // 3 + k % 6 // 4)
    H = W
    margin = max(1, spu // 4)
    i0 = int(rng.integers(margin, count - W - margin + 1))
    j0 = int(rng.integers(margin, count - H - margin + 1))
    flip_a, flip_b, swap = (bool(v) for v in rng.integers(0, 2, 3))

    def inside(i, j):
        a, b = i - i0, j - j0
        if swap:
            a, b = b, a
        if flip_a:
            a = W - a
        if flip_b:
            b = H - b
        return 0 <= a <= W and 0 <= b <= H and a <= t + min(b, W - t)
    return inside


def _reconstruct_op(kind, shape, idx, grid, a=0.1):
    inside = tuple(p for p, ij in zip(grid, idx) if shape(*ij))
    outside = tuple(p for p, ij in zip(grid, idx) if not shape(*ij))

    def run():
        cfg = reconstruct.ReconstructionConfig(inside, outside, a=a)
        Q_rec = reconstruct.synthesize_bounds(cfg)
        oracle = reconstruct.membership_from_samples(inside)
        return reconstruct.verify_reconstruction(oracle, Q_rec, grid)

    def check(report):
        if report.checked != len(grid):
            return f"checked {report.checked} of {len(grid)} grid points"
        if report.false_inside or report.false_outside:
            return (f"{len(report.false_inside)} false inside, "
                    f"{len(report.false_outside)} false outside")
        return None

    return Op(kind, run, check)


def _reconstruct(rng, size):
    spu = 16 if size == "full" else 4
    idx, grid = _grid(spu)
    square = _reconstruct_op("square", _square(spu), idx, grid)
    boxes = [_reconstruct_op("box", _seeded_box(rng, spu, k), idx, grid) for k in range(24)]
    ells = [_reconstruct_op("ell", _seeded_l(rng, spu, k), idx, grid) for k in range(24)]
    # the step shape takes ~12 s at step 1/16, too long for a timed cycle;
    # it runs in the traced run only
    step = _reconstruct_op("step", _step_shape(spu), idx, grid)

    def cycle(j):
        ops = [square]
        for t in range(6):
            ops += [boxes[(6 * j + t) % 24], ells[(6 * j + t) % 24]]
        return ops

    return Workload("reconstruct", cycle, cycle(0) + [step], tail_pct=70.0, cycle_s=7.0)


# ---------------------------------------------------------------------------
# metric_spaces: hull enumeration, and extension plus embedding


_METRIC = {
    # hull grids of 31^4 ~ 9.2e5 and 16^5 ~ 1.0e6 candidates
    "full": {"hull": ((4, 0.05), (5, 0.1)), "diam": 1.5, "points": 300},
    "tiny": {"hull": ((3, 0.25), (3, 0.25)), "diam": 1.5, "points": 30},
}


def _hull_op(rng, m, resolution, diam):
    D = rng.uniform(1.0, 2.0, (m, m))
    D = (D + D.T) / 2.0
    np.fill_diagonal(D, 0.0)
    # fixing the diameter fixes the candidate count at (diam/res + 1)^m
    X = FiniteMetricSpace(D * (diam / D.max()))
    M = X.matrix
    count = int(math.floor(float(M.max()) / resolution + 1e-9)) + 1
    top = (count - 1) * resolution
    snapped = [tuple(min(max(float(round(v / resolution) * resolution), 0.0), top)
                     for v in X.row(x)) for x in range(m)]
    half = resolution / 2.0

    def run():
        return hull.enumerate_extremal_grid(X, resolution)

    def check(found):
        have = set(found)
        for x, row in enumerate(snapped):
            if row not in have:
                return f"snapped distance row {x} missing"
        F = np.asarray(found)
        for i in range(m):
            for j in range(i, m):
                short = F[:, i] + F[:, j] < M[i, j] - half
                if short.any():
                    f = tuple(F[int(np.argmax(short))])
                    return f"{f} is not admissible at resolution/2 on pair ({i}, {j})"
        return None

    return Op(f"hull m={m} res={resolution:g}", run, check)


def _extension_op(rng, kind, m):
    box = witness = None
    if kind == "below":
        Q = instances.random_mcshane_instance(3, 0.5, rng, samples=16)
        starts = rng.uniform(-2.0, 2.0, (8, 3))
        members = np.asarray(list(dict.fromkeys(instances.sample_members(Q, starts))))
        tol = 1e-6
        bound = _cyclic_bound(Q.lip_bound, tol)
    elif kind == "box":
        Q = instances.vee_notch_instance()
        members = _dyadic_members(rng, 6, _vee_member, -2.0, 3.0)
        box = [(-10.0, 10.0)] * 2
        tol = bound = 1e-3
    else:
        Q = instances.diagonal_halfspace_instance()
        members = _dyadic_members(rng, 6, _diag_member, -3.0, 3.0)
        witness = (0.0, 0.0)
        tol = bound = 1e-3
    P, A = _seeded_rows(rng, m, Q.n, 3.0, members)
    A = [int(a) for a in A]
    phi = [tuple(map(float, p)) for p in members]

    def run():
        B = FiniteMetricSpace.from_points(P)
        ext = extension.extend_into_Q(B, A, phi, Q, tol=tol, witness=witness, box=box)
        return B.matrix, ext, extension.kuratowski_embed(B)

    def check(out):
        D, ext, emb = out
        for a, p in zip(A, phi):
            if ext[a] != p:
                return f"extension moved {p} (index {a}) to {ext[a]}"
        E = np.asarray(ext)
        stretch = (np.abs(E[:, None, :] - E[None, :, :]).max(axis=2) - D).max()
        if not stretch <= 1e-12:
            return f"extension stretches a pair by {stretch!r}"
        reason = _residual_ok(Q, E, bound)
        if reason:
            return reason
        K = np.asarray(emb)
        for i in range(len(K)):
            err = np.abs(np.abs(K - K[i]).max(axis=1) - D[i]).max()
            if not err <= 1e-12:
                return f"embedding distorts row {i} by {err!r}"
        return None

    return Op(f"extend {kind} m={m}", run, check)


def _metric_spaces(rng, size):
    s = _METRIC[size]
    (m4, r4), (m5, r5) = s["hull"]
    small = [_hull_op(rng, m4, r4, s["diam"]) for _ in range(8)]
    large = [_hull_op(rng, m5, r5, s["diam"]) for _ in range(8)]
    kinds = ("below", "box", "witness")
    ext = [_extension_op(rng, kinds[c % 3], s["points"]) for c in range(6)]

    def cycle(j):
        # two hull ops per extension keeps the median inside one op kind
        return [small[j % 8], large[j % 8], ext[j % 6]]

    trace_ops = [op for j in range(3) for op in cycle(j)]
    return Workload("metric_spaces", cycle, trace_ops, tail_pct=80.0, cycle_s=1.2)
