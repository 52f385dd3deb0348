"""The benchmark harness under perfbench/ runs against this checkout's code."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_a_traced_run_times_the_dft_and_hilbert_layers(tmp_path):
    # the traced run rebinds hilbert's dft names (TestTraceBoundary); it
    # runs on a copy of perfbench/, src/ and BENCHMARK.json, so that its
    # output and work folders land in tmp_path, not in the checkout
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "api-bluestein",
         "--seed", "9901", "--seconds", "0.5", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    for name in ("dft.forward_ms", "dft.inverse_ms", "dft.inverse_halfband_ms",
                 "hilbert.self_ms"):
        assert math.isfinite(result["metrics"][name]["value"]), name
