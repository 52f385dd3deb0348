"""Repeat the benchmark over seeds and summarise it.

    python3 perfbench/collect.py --seeds 1-10 --seconds 30 --out FILE
        [--workloads api-radix2,cli-files]

For each workload, one untraced run per seed and then one traced run with
the first seed.  The summary gives, per end-to-end metric, the median, the
quartiles from
``statistics.quantiles(values, n=4)`` and the spread (interquartile range
over the median), which is how BENCHMARK.json's bounds are checked; the
traced run's per-layer metrics; and the criterion-6 sign check, which
compares dft.halfband_ratio with bench.percent_increase from the same
traced run at 2^18 (api-radix2).  Runs go one after another, never in
parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: {done.stderr.strip()[-1000:]}")
    lines = done.stdout.strip().splitlines()
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    return {"env": env, **json.loads(lines[-1])}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", default=str(spec["run_seconds"]))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seeds": seed_list(args.seeds), "seconds": float(args.seconds), "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in summary["seeds"]:
            result = run(workload, seed, args.seconds, 0)
            summary["env"] = result["env"]
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed} reported incorrect output")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        end_to_end = {}
        for name, vals in values.items():
            q1, mid, q3 = statistics.quantiles(vals, n=4)
            end_to_end[name] = {
                "unit": next(m["unit"] for m in spec["end_to_end"] if m["name"] == name),
                "median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid,
                "bound": bounds[name], "values": vals,
            }
            print(f"  {name:18s} median {mid:.5g}  spread {(q3 - q1) / mid:.4f}  "
                  f"bound {bounds[name]}", flush=True)
        traced = run(workload, summary["seeds"][0], args.seconds, 1)
        summary["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_seed": summary["seeds"][0],
        }
    radix2 = summary["workloads"].get("api-radix2")
    if radix2:
        ratio = radix2["per_layer"]["dft.halfband_ratio"]
        pct = radix2["per_layer"]["bench.percent_increase"]
        summary["criterion_6_at_2^18"] = {
            "dft.halfband_ratio": ratio,
            "bench.percent_increase": pct,
            "agree_in_sign": (ratio < 1) == (pct > 0),
        }
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
