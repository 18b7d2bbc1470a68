"""Where the code under test lives, and what machine runs it.

The benchmark measures the hyperlip sources of the checkout it sits in
(``<checkout>/src``), never an installed copy: :func:`require_checkout_hyperlip`
puts ``src`` first on ``sys.path`` and refuses to go on if the import
resolves anywhere else.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


class ForeignCodeError(RuntimeError):
    """hyperlip is missing from the checkout or resolves outside it."""


def require_checkout_hyperlip():
    """Import hyperlip from ``<checkout>/src`` or raise :class:`ForeignCodeError`."""
    if not (SRC / "hyperlip" / "__init__.py").is_file():
        raise ForeignCodeError(f"no hyperlip sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hyperlip

    where = Path(hyperlip.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ForeignCodeError(f"hyperlip resolves to {where}, not under {SRC}")
    return hyperlip


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes():
    """Unified/data cache sizes by level, as the kernel reports them for cpu0."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _git_commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """sha256 over the package sources, so runs of a non-git checkout stay traceable."""
    h = hashlib.sha256()
    for path in sorted((SRC / "hyperlip").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_facts(hyperlip) -> dict:
    import numpy

    caches = _cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": source_digest(),
        "hyperlip_file": str(Path(hyperlip.__file__).resolve()),
    }
