import tracemalloc

import numpy as np
import pytest

from hxkit import dft


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty per-size table cache for one test; the shared one is put
    back, with its byte total, when the test ends."""
    monkeypatch.setattr(dft, "_TABLES", {})
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


def table_arrays(table):
    """Every array of a cached table: the array itself, or a plan's stage
    and chirp tables and its pad plan's."""
    if isinstance(table, np.ndarray):
        return [table]
    arrays = [t for t in (*table.stages_fwd, table.chirp, table.chirp_spectrum) if t is not None]
    return arrays + (table_arrays(table.pad_plan) if table.pad_plan is not None else [])
