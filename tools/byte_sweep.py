"""Compare the bytes of every public output between a base revision and
this checkout.

    python tools/byte_sweep.py BASE_REV

exports BASE_REV's ``src/`` with ``git archive`` into a temporary
directory, removed at exit, so it needs no network.  For each tree (the
base and this checkout's working ``src/``) and for OPENBLAS_NUM_THREADS = 1
and 2, one child process imports that tree's hxkit and takes the sha256 of
every public route's output (:func:`cases`):

- ``hilbert_first``, ``analytic_signal``, ``hilbert_second`` on both
  branches, on the default route and (even N) the half-band route;
- ``hilbert_second_via_log_image`` on both branches;
- ``dft_forward``, ``dft_inverse`` and (even N) ``dft_inverse_halfband``;

of random, constant, alternating, zero and impulse signals at peaks 1 and
2^+-997, at sizes from 2 to 2^18 (:data:`SIZES`).  On the first thread
count it also hashes the csv file ``sigio.write_values`` writes for the
``hilbert_first`` (real) and ``analytic_signal`` (complex) outputs
(:data:`CSV_ROUTES`); the peaks 2^+-997 reach the exponent form.  It
prints the totals and the differing outputs grouped by size and route,
and exits 1 if any output or csv file differs, else 0.

Hashes are compared tree against tree on one machine, never against a
committed file: another BLAS compute kernel may round the last ulp
differently.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# 5-smooth odd and even sizes (Stockham plans, one to four stages),
# Bluestein sizes with a power-of-2 pad (127 -> 256) and with another pad,
# and even sizes whose half plan is Bluestein (14, 254, 2018, 5794)
SIZES = (2, 3, 4, 7, 8, 14, 15, 63, 64, 127, 243, 254, 1000, 1009, 2018, 2187,
         4096, 5793, 5794, 5**7, 100_000, 100_003, 1 << 16, 3**11, 1 << 18)
SIGNALS = ("random", "constant", "alternating", "zero", "impulse")
PEAKS = (0, 997, -997)  # the signal at peak 1 or below it, times 2^k
THREADS = (1, 2)
CSV_ROUTES = ("hilbert_first", "analytic_signal")  # a real and a complex output


def route_names(n: int) -> list[str]:
    names = ["hilbert_first", "analytic_signal", "second plus", "second minus",
             "log image plus", "log image minus", "dft_forward", "dft_inverse"]
    if n % 2 == 0:
        names += ["half-band plus", "half-band minus", "dft_inverse_halfband"]
    return names


def cases(sizes=SIZES, csv=False):
    """(n, route, signal, k) for every output the sweep hashes, and with
    ``csv`` the csv files, as routes "csv <route>"; the zero signal runs at
    k = 0 only, since scaling changes none of its bits."""
    for n in sizes:
        for kind in SIGNALS:
            for k in PEAKS if kind != "zero" else (0,):
                for route in route_names(n) + [f"csv {r}" for r in CSV_ROUTES if csv]:
                    yield n, route, kind, k


def _signal(kind: str, n: int):
    if kind == "random":
        x = np.random.default_rng(n).standard_normal(n)
        return x * (0.75 / np.abs(x).max())
    return {"constant": lambda: np.full(n, 0.5),
            "alternating": lambda: 0.5 * (-1.0) ** np.arange(n),
            "zero": lambda: np.zeros(n),
            "impulse": lambda: np.eye(1, n, n // 3)[0]}[kind]()


def _outputs(n: int, x, plan):
    """route -> a function of no arguments giving its output on x, its
    transforms' plans from ``plan``."""
    from hxkit import (Signal, analytic_signal, hilbert_first, hilbert_second,
                       hilbert_second_via_log_image)
    from hxkit.dft import dft_forward, dft_inverse, dft_inverse_halfband

    f = Signal(x)
    z = x + 1j * np.roll(x, 1)  # complex input for the transforms
    out = {"hilbert_first": lambda: hilbert_first(f).samples,
           "analytic_signal": lambda: analytic_signal(f).samples,
           "dft_forward": lambda: dft_forward(plan(n), z),
           "dft_inverse": lambda: dft_inverse(plan(n), z),
           "dft_inverse_halfband": lambda: dft_inverse_halfband(plan(n // 2), z[:n // 2 + 1])}
    for b in ("plus", "minus"):
        out[f"second {b}"] = lambda b=b: hilbert_second(f, b).samples
        out[f"log image {b}"] = lambda b=b: hilbert_second_via_log_image(f, b).samples
        out[f"half-band {b}"] = lambda b=b: hilbert_second(f, b, halfband=True).samples
    return out


def collect(sizes=SIZES, csv=False) -> dict[str, str]:
    """"n route signal k" -> sha256 of that output's bytes, or of its csv
    file, one per case (:func:`cases`), from the hxkit this process
    imports.  A route that raises gives the exception's name in place of a
    hash; floating-point warnings are silenced, since a non-finite output
    is hashed like any other."""
    from hxkit.dft import plan
    from hxkit.sigio import write_values

    plan = functools.lru_cache(maxsize=2)(plan)  # n and n/2
    hashes, last = {}, None
    with np.errstate(all="ignore"), tempfile.TemporaryDirectory(prefix="byte_sweep_") as tmp:
        csv_file = Path(tmp) / "out.csv"
        for n, route, kind, k in cases(sizes, csv):
            if last != (n, kind, k):
                last = n, kind, k
                outputs = _outputs(n, np.ldexp(_signal(kind, n), k), plan)
            key = f"{n} {route} {kind} {k}"
            try:
                if route.startswith("csv "):
                    write_values(csv_file, "csv", outputs[route[4:]]())
                    got = csv_file.read_bytes()
                else:
                    got = outputs[route]().tobytes()
                hashes[key] = hashlib.sha256(got).hexdigest()
            except (ValueError, RuntimeError) as exc:  # hxkit's typed errors: behaviour too
                hashes[key] = f"raises {type(exc).__name__}"
    return hashes


def _child(src: Path, threads: int, csv: bool) -> dict[str, str]:
    """:func:`collect` in a child that imports hxkit from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=str(threads))
    run = subprocess.run([sys.executable, __file__, "--collect", *["--csv"] * csv], env=env,
                         capture_output=True, text=True, check=True)
    result = json.loads(run.stdout)
    if not Path(result["module"]).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"child imported hxkit from {result['module']}, not from {src}")
    return result["hashes"]


def main(argv: list[str]) -> int:
    if argv[:1] == ["--collect"]:
        import hxkit

        print(json.dumps({"module": hxkit.__file__, "hashes": collect(csv=argv[1:] == ["--csv"])}))
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    base = argv[0]
    with tempfile.TemporaryDirectory(prefix="byte_sweep_") as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", base, "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        groups: dict[tuple[int, str], dict[int, int]] = defaultdict(dict)
        differ = 0
        for threads in THREADS:
            csv = threads == THREADS[0]
            old = _child(Path(tmp) / "src", threads, csv)
            new = _child(ROOT / "src", threads, csv)
            keys = [k for k in old if old[k] != new.get(k)]
            differ += len(keys)
            files = [k for k in old if " csv " in k]
            print(f"{threads} BLAS thread(s): {len(old) - len(files)} outputs, "
                  f"{len([k for k in keys if k not in files])} differ")
            if csv:
                print(f"  csv files: {len(files)}, {len([k for k in keys if k in files])} differ")
            for key in keys:
                n, route = key.split(" ", 1)[0], key.split(" ", 1)[1].rsplit(" ", 2)[0]
                group = groups[int(n), route]
                group[threads] = group.get(threads, 0) + 1
    if differ:
        print(f"differing outputs by size and route, against {base}:")
        for (n, route), counts in sorted(groups.items()):
            per = ", ".join(f"{c} on {t} thread(s)" for t, c in sorted(counts.items()))
            print(f"  {n:>7}  {route:<21} {per}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
