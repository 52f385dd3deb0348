"""In-memory spans recorded at hxkit's layer boundaries.

A span is (name, start_ns, end_ns, parent, op, cycle, source, n): ``parent``
is the index of the enclosing span (-1 for none), ``op`` the operation id
shared by every span of one timed operation, ``cycle`` the rotation cycle,
``source`` "loop" for the workload's own operations or another label for
the extra calls a traced run makes into layers the loop bypasses (see
``workloads.run_probes``), and ``n`` the transform or signal length.  The
name's first component is its layer: dft, hilbert, sigio, cli or bench.

The benchmark opens spans around its own calls into a layer.  Calls from
one hxkit module into another are traced by rebinding the imported name in
the calling module (``hxkit.hilbert.dft_forward`` and so on) for the
duration of a traced cycle and restoring it after, so the package's source
is never edited.  Spans stay in memory and are written out when the run
ends.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

from measure import median


def _len(obj) -> int | None:
    size = getattr(obj, "size", None)
    if isinstance(size, int):
        return size
    try:
        return len(obj)
    except TypeError:
        return None


def _dft(kind):
    return lambda a, kw: (f"dft.{kind}", _len(a[0]))


def _plan(a, kw):
    return "dft.plan", int(a[0])


def _halfband(a, kw):
    return "dft.inverse_halfband", _len(a[1])


def _second(a, kw):
    half = kw.get("halfband", a[2] if len(a) > 2 else False)
    return ("hilbert.second_halfband" if half else "hilbert.second"), _len(a[0])


def _read(a, kw):
    return f"sigio.read.{a[1]}", None


def _write(a, kw):
    return f"sigio.write.{a[1]}", _len(a[2])


_TO_DFT = [
    ("plan", _plan),
    ("dft_forward", _dft("forward")),
    ("dft_inverse", _dft("inverse")),
    ("dft_inverse_halfband", _halfband),
]

# (calling module, imported name, span namer) at each traced layer boundary
IN_PROCESS = [("hxkit.hilbert", a, f) for a, f in _TO_DFT] + [
    ("hxkit.bench", a, f) for a, f in _TO_DFT
]
CLI_CHILD = IN_PROCESS + [
    ("hxkit.cli", "read_signal", _read),
    ("hxkit.cli", "write_values", _write),
    ("hxkit.cli", "hilbert_first", lambda a, kw: ("hilbert.first", _len(a[0]))),
    ("hxkit.cli", "hilbert_second", _second),
    ("hxkit.cli", "analytic_signal", lambda a, kw: ("hilbert.analytic", _len(a[0]))),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.op = -1
        self.cycle = -1
        self.source = "loop"

    @contextmanager
    def span(self, name: str, n: int | None = None):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), 0, parent, self.op, self.cycle, self.source, n]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, namer):
        def traced(*args, **kwargs):
            name, n = namer(args, kwargs)
            with self.span(name, n):
                return fn(*args, **kwargs)
        return traced

    def install(self, boundaries) -> None:
        for module_name, attr, namer in boundaries:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, namer))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def adopt(self, child_spans, parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        offset = len(self.spans)
        for name, start, end, local_parent, n in child_spans:
            up = parent if local_parent < 0 else local_parent + offset
            self.spans.append([name, start, end, up, self.op, self.cycle, self.source, n])

    def dump_child(self, path: Path) -> None:
        rows = [[s[0], s[1], s[2], s[3], s[7]] for s in self.spans]
        path.write_text(json.dumps(rows))


def duration_ms(span) -> float:
    return (span[2] - span[1]) * 1e-6


def self_times_ms(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [duration_ms(s) for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= duration_ms(s)
    return out


def cycle_median(spans, values, match, source: str) -> float | None:
    """Median over cycles of the per-cycle mean of ``values`` of matching spans.

    Rotations mix call kinds and sizes in fixed proportions; averaging
    inside a cycle first keeps the median off the gap between two kinds.
    """
    per_cycle: dict[int, list[float]] = {}
    for s, v in zip(spans, values):
        if s[6] == source and v is not None and match(s[0]):
            per_cycle.setdefault(s[5], []).append(v)
    if not per_cycle:
        return None
    return median([sum(v) / len(v) for v in per_cycle.values()])


def layer_self_totals_ms(spans, source: str = "loop") -> dict:
    """Summed self time per layer over one source's spans."""
    totals: dict[str, float] = {}
    for s, v in zip(spans, self_times_ms(spans)):
        if s[6] == source:
            layer = s[0].split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + v
    return totals
