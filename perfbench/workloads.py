"""The workloads: set-up, one rotation cycle of timed operations, and probes.

Every workload is a closed loop with one caller in one process and no
threads; ``cli-files`` runs one ``hx`` child at a time.  Inputs come from
``numpy.random.default_rng(seed)``; hxkit only ever sees the generated
signals or the files written from them.

api-radix2     n = 2^18, four standard-normal signals rotated per cycle.
               Each cycle calls hilbert_first, hilbert_second(PLUS),
               hilbert_second(PLUS, halfband=True) and analytic_signal with
               warm plans.  The radix-2 butterflies and the bit-reversal
               gather do the work; 2^18 complex doubles are 4 MiB, twice
               the 2 MiB per-core L2 of the machine the bounds were set on.
api-bluestein  n = 100 000 = 2^5 * 5^5, same rotation.  Bluestein does the
               work (two padded 2^18 transforms per DFT; the half-length
               plan of 50 000 is Bluestein too).
cli-files      one ``python -m hxkit`` process per operation, rotating
               transform --form first on a 2^16-sample csv, analytic
               --envelope on a 2^18-sample f64le, and transform --form
               second-plus on a 100 000-sample f64le.  Each process pays
               start-up, a cold plan build and sigio parse/format, which
               the API workloads bypass.
"""

from __future__ import annotations

import importlib
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

POOL = 4
PROBE_CYCLES = 3
STARTUP_PROBES = 5
BENCH_POWER = 18.0
BENCH_TRIALS = 20
CHILD_TIMEOUT_S = 120

API_SIZES = {"api-radix2": 1 << 18, "api-bluestein": 100_000}

# (span name of the public call, oracle kind of its output)
ROTATION = (
    ("hilbert.first", "first"),
    ("hilbert.second", "second"),
    ("hilbert.second_halfband", "second"),
    ("hilbert.analytic", "analytic"),
)


@dataclass(frozen=True)
class CliOp:
    key: str
    n: int
    fmt: str
    args: tuple
    kind: str


CLI_OPS = (
    CliOp("first", 1 << 16, "csv", ("transform", "--form", "first"), "first"),
    CliOp("envelope", 1 << 18, "f64le", ("analytic", "--envelope"), "envelope"),
    CliOp("second", 100_000, "f64le", ("transform", "--form", "second-plus"), "second"),
)

WORKLOADS = (*API_SIZES, "cli-files")


def import_hxkit():
    """Import hxkit from this checkout's src/, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hxkit

    if Path(hxkit.__file__).resolve().parent != (SRC / "hxkit").resolve():
        raise RuntimeError(f"hxkit was imported from {hxkit.__file__}, not from {SRC}")
    return hxkit


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def check_child_import() -> None:
    """Fail unless ``python -m hxkit`` children import this checkout's hxkit."""
    done = subprocess.run(
        [sys.executable, "-c", "import hxkit; print(hxkit.__file__)"],
        env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    got = Path(done.stdout.strip()).resolve().parent if done.returncode == 0 else None
    if got != (SRC / "hxkit").resolve():
        raise RuntimeError(f"hx children import hxkit from {got}: {done.stderr.strip()}")


@dataclass
class Inputs:
    hx: object
    xs: list
    signals: list
    paths: list
    refs: dict = field(default_factory=dict)

    def h(self, i: int) -> np.ndarray:
        """Reference H x for input i, computed on first use outside any timer."""
        if i not in self.refs:
            self.refs[i] = oracle.hilbert_reference(self.xs[i])
        return self.refs[i]


def api_call(hx, name: str, sig):
    if name == "hilbert.first":
        return hx.hilbert_first(sig).samples
    if name == "hilbert.second":
        return hx.hilbert_second(sig, hx.Branch.PLUS).samples
    if name == "hilbert.second_halfband":
        return hx.hilbert_second(sig, hx.Branch.PLUS, halfband=True).samples
    return hx.analytic_signal(sig).samples


def setup(workload: str, seed: int, workdir: Path) -> Inputs:
    """Import hxkit, make the inputs, and (API) make the first call of each kind."""
    hx = import_hxkit()
    rng = np.random.default_rng(seed)
    if workload in API_SIZES:
        xs = [rng.standard_normal(API_SIZES[workload]) for _ in range(POOL)]
        signals = [hx.Signal(x) for x in xs]
        for name, _ in ROTATION:
            api_call(hx, name, signals[0])
        return Inputs(hx, xs, signals, [])
    if workload == "cli-files":
        xs = [rng.standard_normal(op.n) for op in CLI_OPS]
        paths = [workdir / f"in-{op.key}.{op.fmt}" for op in CLI_OPS]
        for op, x, path in zip(CLI_OPS, xs, paths):
            oracle.write_signal(path, op.fmt, x)
        return Inputs(hx, xs, [], paths)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


@dataclass
class Tally:
    """Outcomes of the timed operations of one kind of cycle."""

    latencies_s: list = field(default_factory=list)
    samples: int = 0
    digits: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    peak_child_rss_mb: float = 0.0

    def record(self, n: int, seconds: float, digits, reason) -> None:
        self.attempted += 1
        if digits is not None:
            self.digits.append(digits)
        if reason is not None:
            self.failures.append(reason)
            return
        self.latencies_s.append(seconds)
        self.samples += n

    def throughput_msps(self) -> float:
        return self.samples / sum(self.latencies_s) / 1e6


def _alarm(signum, frame):
    raise TimeoutError(f"child process ran longer than {CHILD_TIMEOUT_S} s")


def spawn(args: list, stderr_path: Path) -> tuple[int, float]:
    """Run ``python ARGS`` to completion; (exit code, peak RSS in MB)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    previous = signal.signal(signal.SIGALRM, _alarm)
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], child_env(), file_actions=actions)
    reaped = False
    try:
        signal.alarm(CHILD_TIMEOUT_S)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss * 1024 / 1e6


def api_op(hx, name, kind, sig, x, h, tally: Tally, tracer=None) -> None:
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = api_call(hx, name, sig)
        else:
            tracer.op += 1
            with tracer.span(name, x.shape[0]):
                out = api_call(hx, name, sig)
    except Exception as exc:  # a raising call is a failed operation, not a crash
        tally.record(x.shape[0], time.perf_counter() - t0, None, f"{name}: {exc!r}")
        return
    seconds = time.perf_counter() - t0
    tally.record(x.shape[0], seconds, *oracle.check(kind, out, x, h))


def cli_op(op: CliOp, in_path: Path, x, h, workdir: Path, tally: Tally, tracer=None) -> None:
    out = workdir / f"out-{op.key}.{op.fmt}"
    out.unlink(missing_ok=True)
    err = workdir / "stderr.txt"
    hx_args = [*op.args, "--in", str(in_path), "--out", str(out)]
    if tracer is None:
        args = ["-m", "hxkit", *hx_args]
    else:
        tracer.op += 1
        span_file = workdir / "spans.json"
        span_file.unlink(missing_ok=True)
        args = [str(HERE / "hx_traced.py"), str(span_file), *hx_args]
    with tracer.span("cli.process", op.n) if tracer else nullcontext() as index:
        t0 = time.perf_counter()
        code, rss_mb = spawn(args, err)
        seconds = time.perf_counter() - t0
    tally.peak_child_rss_mb = max(tally.peak_child_rss_mb, rss_mb)
    if code != 0:
        tail = err.read_text(errors="replace").strip()[-300:]
        tally.record(op.n, seconds, None, f"hx {op.key} exited {code}: {tail}")
        return
    if tracer is not None:
        tracer.adopt(json.loads(span_file.read_text()), index)
    tally.record(op.n, seconds, *oracle.check_file(out, op.fmt, op.kind, x, h))


def run_cycle(workload: str, inputs: Inputs, cycle: int, workdir: Path, tally, tracer=None):
    if workload in API_SIZES:
        i = cycle % POOL
        for name, kind in ROTATION:
            api_op(inputs.hx, name, kind, inputs.signals[i], inputs.xs[i], inputs.h(i), tally, tracer)
        return
    for i, op in enumerate(CLI_OPS):
        cli_op(op, inputs.paths[i], inputs.xs[i], inputs.h(i), workdir, tally, tracer)


def timed_loop(workload, inputs, seconds, workdir, tracer=None) -> dict:
    """Run whole cycles for ``seconds``; returns {traced: Tally}.

    With a tracer, even cycles are traced and odd cycles are not, so the
    two tallies give the tracing overhead under the same conditions.
    """
    tallies = {False: Tally(), True: Tally()}
    boundaries = spans.IN_PROCESS if workload in API_SIZES else []
    deadline = time.perf_counter() + seconds
    cycle = 0
    while time.perf_counter() < deadline or (tracer is not None and cycle % 2):
        traced = tracer is not None and cycle % 2 == 0
        if traced:
            tracer.cycle = cycle
            tracer.install(boundaries)
        try:
            run_cycle(workload, inputs, cycle, workdir, tallies[traced], tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        cycle += 1
    return tallies


def _new_cycle(tracer, source: str) -> None:
    tracer.cycle += 1
    tracer.source = source


def run_probes(workload, inputs, seed, workdir, tracer, tally: Tally) -> dict:
    """Traced calls into the layers this workload's loop bypasses.

    Sources: "probe" for in-process calls at the workload's size (the
    rotation at 2^18 for cli-files; plan, sigio for the API workloads) and
    for start-up-only children; "cli-probe" for hx children on a file of the
    API workload's size; "bench" for run_bench at 2^18.
    """
    hx = inputs.hx
    sigio = importlib.import_module("hxkit.sigio")
    err = workdir / "stderr.txt"
    if workload not in API_SIZES:
        i = next(k for k, op in enumerate(CLI_OPS) if op.n == 1 << 18)
        x, h = inputs.xs[i], inputs.h(i)
        sig = hx.Signal(x)
        for name, _ in ROTATION:  # build the 2^18 plans before tracing starts
            api_call(hx, name, sig)
    tracer.install(spans.IN_PROCESS)
    try:
        if workload in API_SIZES:
            n, x, h = API_SIZES[workload], inputs.xs[0], inputs.h(0)
            for _ in range(PROBE_CYCLES):
                _new_cycle(tracer, "probe")
                with tracer.span("dft.plan", n):
                    hx.plan(n)
            for _ in range(PROBE_CYCLES):
                _new_cycle(tracer, "probe")
                for fmt in sigio.FORMATS:
                    path = workdir / f"probe.{fmt}"
                    with tracer.span(f"sigio.write.{fmt}", n):
                        sigio.write_values(path, fmt, x)
                    with tracer.span(f"sigio.read.{fmt}", n):
                        back = sigio.read_signal(path, fmt).samples
                    same = np.array_equal(back, x)
                    tally.record(n, 0.0, None, None if same else f"sigio {fmt} round trip changed values")
            op = CliOp("probe", n, "f64le", ("transform", "--form", "first"), "first")
            in_path = workdir / "probe-in.f64le"
            oracle.write_signal(in_path, "f64le", x)
            for _ in range(PROBE_CYCLES):
                _new_cycle(tracer, "cli-probe")
                cli_op(op, in_path, x, h, workdir, tally, tracer)
        else:
            for _ in range(PROBE_CYCLES):
                _new_cycle(tracer, "probe")
                for name, kind in ROTATION:
                    api_op(hx, name, kind, sig, x, h, tally, tracer)
        for _ in range(STARTUP_PROBES):
            _new_cycle(tracer, "probe")
            with tracer.span("cli.startup"):
                code, _ = spawn(["-c", "import hxkit.cli"], err)
            if code != 0:
                tally.record(0, 0.0, None, f"importing hxkit.cli exited {code}")
        _new_cycle(tracer, "bench")
        with tracer.span("bench.run"):
            records = hx.run_bench(
                hx.BenchConfig(powers=(BENCH_POWER,), trials=BENCH_TRIALS, warmup=2, seed=seed)
            )
    finally:
        tracer.uninstall()
    second = next(r for r in records if r.percent_increase is not None)
    return {"bench.percent_increase": second.percent_increase}


def _table_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_table_bytes(v) for v in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return sum(_table_bytes(getattr(obj, f)) for f in obj.__dataclass_fields__)
    return 0


def plan_counts(hx, workload: str) -> dict:
    """Computed counts from the plans the workload uses (not measured).

    Passes are full-array passes of one forward transform: the radix-2
    stages, the bit-reversal gather, and for Bluestein two padded
    transforms plus three chirp passes.  Bytes are passes x 16 B x the
    transformed (padded) length.  For the API workloads the counts are for
    size n and the table bytes cover the n and n/2 plans; for cli-files all
    are summed over the three file sizes.
    """
    if workload in API_SIZES:
        n = API_SIZES[workload]
        sizes, table_sizes = [n], [n, n // 2]
    else:
        sizes = table_sizes = [op.n for op in CLI_OPS]
    passes = moved = padded = 0
    for n in sizes:
        p = hx.plan(n)
        core = getattr(p, "pad_plan", None) or p
        core_passes = len(core.stages_fwd) + int(core.bitrev is not None)
        k = core_passes if core is p else 2 * core_passes + 3
        passes += k
        moved += k * 16 * core.size
        padded += core.size
    return {
        "dft.passes_computed": passes,
        "dft.pad_ratio": padded / sum(sizes),
        "dft.bytes_computed": moved,
        "dft.plan_table_bytes": sum(_table_bytes(hx.plan(n)) for n in table_sizes),
    }


def layer_metrics(tracer, tallies: dict, extra: dict, workload: str, hx) -> dict:
    """Per-layer values from the traced run; each is a median over cycles."""
    s = tracer.spans
    dur = [spans.duration_ms(x) for x in s]
    own = spans.self_times_ms(s)

    def pick(name, values=dur, sources=("loop", "probe"), match=None):
        match = match or (lambda k: k == name)
        for source in sources:
            v = spans.cycle_median(s, values, match, source)
            if v is not None:
                return v
        raise RuntimeError(f"the traced run recorded no {name} span")

    startup = pick("cli.startup")
    kids: dict[int, list[int]] = {}
    for j, x in enumerate(s):
        kids.setdefault(x[3], []).append(j)
    cli_self = [None] * len(s)
    for i, x in enumerate(s):
        mains = [j for j in kids.get(i, []) if s[j][0] == "cli.main"]
        if x[0] == "cli.process" and mains:
            inner = sum(dur[j] for j in kids.get(mains[0], []))
            cli_self[i] = dur[i] - startup - inner

    # the ratio's base is the full-length inverse from the same source
    half_source = next(
        src for src in ("loop", "probe")
        if spans.cycle_median(s, dur, lambda k: k == "dft.inverse_halfband", src) is not None
    )
    ratio = pick("dft.inverse_halfband", sources=(half_source,)) / pick(
        "dft.inverse", sources=(half_source,)
    )
    traced, untraced = tallies[True], tallies[False]
    cli_sources = ("loop", "cli-probe")
    return {
        "dft.plan_ms": pick("dft.plan"),
        "dft.forward_ms": pick("dft.forward"),
        "dft.inverse_ms": pick("dft.inverse"),
        "dft.inverse_halfband_ms": pick("dft.inverse_halfband"),
        "dft.halfband_ratio": ratio,
        **plan_counts(hx, workload),
        "hilbert.first_ms": pick("hilbert.first"),
        "hilbert.second_ms": pick("hilbert.second"),
        "hilbert.second_halfband_ms": pick("hilbert.second_halfband"),
        "hilbert.analytic_ms": pick("hilbert.analytic"),
        "hilbert.self_ms": pick("hilbert.*", own, match=lambda k: k.startswith("hilbert.")),
        "sigio.read_ms.csv": pick("sigio.read.csv"),
        "sigio.read_ms.f64le": pick("sigio.read.f64le"),
        "sigio.write_ms.csv": pick("sigio.write.csv"),
        "sigio.write_ms.f64le": pick("sigio.write.f64le"),
        "cli.process_ms": pick("cli.process", sources=cli_sources),
        "cli.startup_ms": startup,
        "cli.self_ms": pick("cli.process", cli_self, sources=cli_sources),
        "bench.self_ms": pick("bench.run", own, sources=("bench",)),
        **extra,
        "trace.throughput_msps": traced.throughput_msps(),
        "trace.overhead_frac": 1.0 - traced.throughput_msps() / untraced.throughput_msps(),
    }


def setup_seconds(workload: str, seed: int, workdir: Path, repeats: int) -> list:
    """Set-up times of ``repeats`` fresh interpreters, one after another."""
    out = []
    for i in range(repeats):
        sub = workdir / f"setup-{i}"
        sub.mkdir()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(sub)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


