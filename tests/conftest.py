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


def table_arrays(table):
    """Every array of a cached table: the array itself, or a plan's stage
    and chirp tables and its pad plan's."""
    if isinstance(table, np.ndarray):
        return [table]
    arrays = [t for t in (*table.stages_fwd, table.chirp, table.chirp_spectrum) if t is not None]
    return arrays + (table_arrays(table.pad_plan) if table.pad_plan is not None else [])
