"""The hxkit benchmark: one workload, one run, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository: hxkit is imported
from the checkout's src/, and ``python -m hxkit`` children get the same
directory on PYTHONPATH, so an installed copy is never measured.  There is
nothing to build.

Standard output is a table of every metric with its unit, an environment
stamp, and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the ``end_to_end`` list of BENCHMARK.json; with ``--trace 1`` they are its
``per_layer`` list, from a run whose cycles alternate traced and untraced.
Each run also writes ``.perfbench_out/<workload>-seed<N>-trace<T>.json``
with the samples behind the metrics, the spans of a traced run, and the
environment stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import measure
import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# fresh-interpreter set-ups per untraced run; setup_s is their median
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def end_to_end(workload, tally, setup_samples) -> dict:
    latency_ms = [s * 1e3 for s in tally.latencies_s]
    if workload == "cli-files":
        rss = tally.peak_child_rss_mb
    else:
        rss = measure.self_peak_rss_mb()
    return {
        "throughput_msps": tally.throughput_msps(),
        "latency_p50_ms": measure.quantile(latency_ms, 0.5),
        "latency_p90_ms": measure.quantile(latency_ms, 0.9),
        "setup_s": measure.median(setup_samples),
        "peak_rss_mb": rss,
        "accuracy_digits": min(tally.digits),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hxkit" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/hxkit; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        oracle.self_test(work)
        setup_samples = []
        if not args.trace:
            setup_samples = workloads.setup_seconds(args.workload, args.seed, work, SETUP_REPEATS)
        inputs = workloads.setup(args.workload, args.seed, work)
        env = measure.environment_stamp(ROOT, inputs.hx)
        workloads.check_child_import()
        if args.trace:
            tracer = spans.Tracer()
            tallies = workloads.timed_loop(args.workload, inputs, args.seconds, work, tracer)
            probe_tally = workloads.Tally()
            extra = workloads.run_probes(args.workload, inputs, args.seed, work, tracer, probe_tally)
            values = workloads.layer_metrics(tracer, tallies, extra, args.workload, inputs.hx)
            counted = [tallies[False], tallies[True], probe_tally]
        else:
            tallies = workloads.timed_loop(args.workload, inputs, args.seconds, work)
            values = end_to_end(args.workload, tallies[False], setup_samples)
            counted = [tallies[False]]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(t.attempted for t in counted)
    failures = [f for t in counted for f in t.failures]
    latency_ms = [s * 1e3 for s in tallies[False].latencies_s]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'ops_failed_frac':28s} {len(failures) / attempted:>16.6g} ratio"
          f"  ({len(failures)} of {attempted} operations)")
    print(f"  {'latency samples':28s} {len(latency_ms):>16d} count  (untraced operations)")
    if args.trace:
        for layer, total in spans.layer_self_totals_ms(tracer.spans).items():
            print(f"  self time in {layer:15s} {total:>16.6g} ms  (traced loop cycles)")
        pct, ratio = values["bench.percent_increase"], values["dft.halfband_ratio"]
        agree = (pct > 0) == (ratio < 1)
        print(f"  criterion 6: bench.percent_increase {pct:+.2f}% and dft.halfband_ratio "
              f"{ratio:.4f} {'agree' if agree else 'DISAGREE'} in sign")
    for reason in failures[:10]:
        print(f"  failed: {reason}")
    print("env " + json.dumps(env, sort_keys=True))

    artifact = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "metrics": values,
        "attempted": attempted, "failures": failures,
        "latency_ms": measure.summary(latency_ms) if latency_ms else None,
        "setup_s_samples": setup_samples,
    }
    if args.trace:
        artifact["layer_self_ms"] = spans.layer_self_totals_ms(tracer.spans)
        artifact["span_fields"] = ["name", "start_ns", "end_ns", "parent", "op", "cycle", "source", "n"]
        artifact["spans"] = tracer.spans
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(artifact, indent=1))

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
