"""Order statistics, peak memory and the environment stamp.

The quantiles here are the benchmark's own: linear interpolation between
closest ranks (type 7), clamped to the two ranks it interpolates, so a
reported median or p90 always lies inside [min, max] of its samples.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
from pathlib import Path


def quantile(values, q: float) -> float:
    """The q-quantile (0 <= q <= 1) of a nonempty sequence."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("quantile of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level {q} outside [0, 1]")
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    v = xs[lo] + (h - lo) * (xs[hi] - xs[lo])
    return min(max(v, xs[lo]), xs[hi])


def median(values) -> float:
    return quantile(values, 0.5)


def summary(values) -> dict:
    """Median, quartiles, p90 and the sample count, for the artifacts."""
    return {
        "count": len(values),
        "p25": quantile(values, 0.25),
        "p50": quantile(values, 0.5),
        "p75": quantile(values, 0.75),
        "p90": quantile(values, 0.9),
    }


def self_peak_rss_mb() -> float:
    """Peak resident set of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and kind and size:
            out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def _git(root: Path) -> dict:
    """Commit and dirty flag, only when ``root`` is itself a git work tree."""
    # the ceiling keeps git from looking for a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.resolve().parent)}

    def run(*args):
        return subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True, timeout=30, env=env
        )
    try:
        top = run("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != root.resolve():
            return {"commit": None, "dirty": None}
        head = run("rev-parse", "HEAD").stdout.strip() or None
        dirty = bool(run("status", "--porcelain", "--untracked-files=no").stdout.strip())
        return {"commit": head, "dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def environment_stamp(root: Path, hxkit) -> dict:
    """Versions, hardware and commit to print beside every result."""
    import numpy

    package = Path(hxkit.__file__).resolve().parent
    if package.is_relative_to(root.resolve()):
        package = package.relative_to(root.resolve())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hxkit": getattr(hxkit, "__version__", None),
        "hxkit_path": str(package),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        **_git(root),
    }
