import os
import subprocess
import sys
import textwrap
import tracemalloc
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from hxkit import dft


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty per-size table cache for one test; the shared one is put
    back, with its byte total, when the test ends."""
    monkeypatch.setattr(dft, "_TABLES", OrderedDict())
    monkeypatch.setattr(dft, "_table_bytes", 0)
    return dft._TABLES


@pytest.fixture
def cold(fresh_tables, monkeypatch):
    """An empty table cache and no workspace in the calling thread, so that
    the test's first call at any size is a true first call; returns the
    cache."""
    monkeypatch.setattr(dft._WORKSPACE, "buffers", {}, raising=False)
    return fresh_tables


def cached_bytes():
    """The bytes the table cache and the calling thread's workspaces hold."""
    rows = getattr(dft._WORKSPACE, "buffers", {}).values()
    return dft._table_bytes + sum(w.nbytes for w in rows)


def traced_peak(call, warm=True):
    """call()'s result and the peak of the bytes it allocates beyond those
    allocated before it, under tracemalloc.  ``warm`` runs the call once
    first, so that the traced one finds its tables and workspace built."""
    if warm:
        call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return out, peak


def _fresh_process_delta(measure, snippet, setup, blas_threads, env=None):
    """measure() after ``snippet`` less measure() before it, ``snippet`` run
    after ``setup`` in a fresh interpreter with this checkout's src first
    on sys.path, OPENBLAS_NUM_THREADS=blas_threads and the variables in
    ``env``; ``measure`` names one of the script's counters, peak() or
    faults()."""
    src = str(Path(dft.__file__).resolve().parents[1])
    script = textwrap.dedent(f"""
        import os, resource, sys
        sys.path.insert(0, {src!r})

        def peak():
            if os.path.exists("/proc/self/status"):
                with open("/proc/self/status") as status:
                    hwm = next(line for line in status if line.startswith("VmHWM:"))
                return int(hwm.split()[1]) * 1024
            # ru_maxrss counts KiB on Linux, bytes on macOS
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * (
                1 if sys.platform == "darwin" else 1024)

        def faults():
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    """) + textwrap.dedent(setup) + f"\nbefore = {measure}()\n" + textwrap.dedent(snippet) + \
        f"\nprint({measure}() - before)\n"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads), **(env or {})}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def rss_growth_mb(snippet, setup="", blas_threads=1):
    """The growth of the peak resident set, in MB, across ``snippet`` run
    after ``setup`` in a fresh interpreter (:func:`_fresh_process_delta`).

    Unlike :func:`traced_peak` it sees every allocation of the process,
    BLAS's own buffers included.  The peak is VmHWM where /proc has it:
    Linux carries a parent's peak over fork and exec into the child's
    ru_maxrss, so under a large test process the child's ru_maxrss starts
    above anything the snippet touches.  Elsewhere it is ru_maxrss.

    glibc's mmap threshold is held at its initial 128 KiB
    (MALLOC_MMAP_THRESHOLD_=131072), so every large block goes back to the
    system when it is freed and the peak is the arrays alive at once.  By
    default glibc raises the threshold to the largest block freed so far
    and keeps freed blocks for reuse, and whether it kept one moved the
    same reading by a whole 8.4 MB block between runs of one tree."""
    env = {"MALLOC_MMAP_THRESHOLD_": "131072"}
    return _fresh_process_delta("peak", snippet, setup, blas_threads, env) / 1e6


def minor_faults(snippet, setup="", blas_threads=1):
    """The minor page faults (ru_minflt) taken across ``snippet`` run after
    ``setup`` in a fresh interpreter (:func:`_fresh_process_delta`): each
    is a page the process touched for the first time, as an array in
    freshly mapped memory does."""
    return _fresh_process_delta("faults", snippet, setup, blas_threads)


def table_arrays(table):
    """Every array of a cached table: the array itself, or a plan's stage
    and chirp tables and its pad plan's."""
    if isinstance(table, np.ndarray):
        return [table]
    arrays = [t for t in (*table.stages_fwd, table.chirp, table.chirp_spectrum) if t is not None]
    return arrays + (table_arrays(table.pad_plan) if table.pad_plan is not None else [])
