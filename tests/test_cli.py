import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hxkit.cli as cli
from hxkit.bench import CSV_HEADER
from hxkit.cli import main
from hxkit.errors import DomainError, InvariantBreach


def write_cos(path, n=256):
    th = 2.0 * np.pi * np.arange(n) / n
    path.write_text("\n".join(repr(float(v)) for v in np.cos(th)) + "\n")
    return th


class TestExitCodeMapping:
    def test_no_arguments_is_usage(self, capsys):
        assert main([]) == 2

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0

    def test_missing_required_flag(self, capsys, tmp_path):
        assert main(["transform", "--out", str(tmp_path / "o.csv"), "--form", "first"]) == 2

    def test_unreadable_input(self, capsys, tmp_path):
        code = main(["transform", "--in", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "o.csv"), "--form", "first"])
        assert code == 2

    def test_malformed_data(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("spam\neggs\n")
        code = main(["transform", "--in", str(bad),
                     "--out", str(tmp_path / "o.csv"), "--form", "first"])
        assert code == 3

    def test_non_ascii_csv(self, capsys, tmp_path):
        bad = tmp_path / "bom.csv"
        bad.write_bytes(b"\xef\xbb\xbf1.0\n2.0\n3.0\n")
        code = main(["transform", "--in", str(bad),
                     "--out", str(tmp_path / "o.csv"), "--form", "first"])
        assert code == 3
        assert "offset 0" in capsys.readouterr().err

    def test_empty_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = main(["analytic", "--in", str(empty), "--out", str(tmp_path / "o.csv")])
        assert code == 3

    def test_invariant_breach_maps_to_4(self, capsys, monkeypatch):
        def boom(args):
            raise InvariantBreach("synthetic")
        monkeypatch.setattr(cli, "cmd_verify", boom)
        assert main(["verify", "--suite", "core"]) == 4


class TestSeedResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("HX_SEED", raising=False)
        assert cli._resolve_seed(None) == 42

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("HX_SEED", "7")
        assert cli._resolve_seed(None) == 7

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("HX_SEED", "7")
        assert cli._resolve_seed(13) == 13

    def test_bad_env(self, monkeypatch):
        monkeypatch.setenv("HX_SEED", "lots")
        with pytest.raises(DomainError):
            cli._resolve_seed(None)

    def test_negative_rejected(self, monkeypatch):
        monkeypatch.setenv("HX_SEED", "-1")
        with pytest.raises(DomainError):
            cli._resolve_seed(None)


class TestTransform:
    def test_first_on_constant_is_zero(self, capsys, tmp_path):
        src = tmp_path / "c.csv"
        src.write_text("\n".join(["3.25"] * 64) + "\n")
        dst = tmp_path / "o.csv"
        assert main(["transform", "--in", str(src), "--out", str(dst), "--form", "first"]) == 0
        out = np.array([float(v) for v in dst.read_text().split()])
        assert np.abs(out).max() <= 1e-12

    def test_second_plus_on_cosine(self, capsys, tmp_path):
        src = tmp_path / "cos.csv"
        th = write_cos(src)
        dst = tmp_path / "o.csv"
        assert main(["transform", "--in", str(src), "--out", str(dst),
                     "--form", "second-plus"]) == 0
        rows = np.array([[float(f) for f in line.split(",")]
                         for line in dst.read_text().splitlines()])
        assert np.abs(rows[:, 0] - np.sin(th)).max() <= 1e-12
        assert np.abs(rows[:, 1] + np.cos(th)).max() <= 1e-12

    def test_f64le_pipeline(self, capsys, tmp_path):
        src = tmp_path / "in.f64le"
        th = 2.0 * np.pi * np.arange(128) / 128
        src.write_bytes(np.cos(th).astype("<f8").tobytes())
        dst = tmp_path / "out.f64le"
        assert main(["transform", "--in", str(src), "--out", str(dst),
                     "--form", "first"]) == 0
        out = np.frombuffer(dst.read_bytes(), dtype="<f8")
        assert np.abs(out + np.sin(th)).max() <= 1e-12

    def test_f64le_peak_near_float_max_is_not_bad_data(self, capsys, tmp_path):
        # a peak near the float64 limit is valid data: no overflow, no exit 3
        x = np.random.default_rng(5).standard_normal(100_000)
        src = tmp_path / "big.f64le"
        src.write_bytes((1e305 * x / np.abs(x).max()).astype("<f8").tobytes())
        dst = tmp_path / "out.f64le"
        assert main(["transform", "--in", str(src), "--out", str(dst),
                     "--form", "first"]) == 0
        out = np.frombuffer(dst.read_bytes(), dtype="<f8")
        assert out.shape == (100_000,)
        assert np.all(np.isfinite(out))

    def test_f64le_result_beyond_float64_range_exits_2(self, capsys, tmp_path):
        # valid data whose transform cannot be represented: exit 2, not 3
        n = 4096
        src = tmp_path / "square.f64le"
        src.write_bytes(np.where(np.arange(n) < n // 2, 1.7e308, -1.7e308).astype("<f8").tobytes())
        assert main(["transform", "--in", str(src), "--out", str(tmp_path / "out.f64le"),
                     "--form", "first"]) == 2
        assert "float64 range" in capsys.readouterr().err

    def test_explicit_format_overrides_extension(self, capsys, tmp_path):
        src = tmp_path / "in.dat"
        src.write_bytes(np.arange(32, dtype="<f8").tobytes())
        dst = tmp_path / "out.dat"
        assert main(["transform", "--in", str(src), "--out", str(dst),
                     "--form", "first", "--format", "f64le"]) == 0
        assert len(dst.read_bytes()) == 32 * 8


class TestAnalytic:
    def test_cosine_envelope_is_one(self, capsys, tmp_path):
        src = tmp_path / "cos.csv"
        write_cos(src)
        dst = tmp_path / "env.csv"
        assert main(["analytic", "--in", str(src), "--out", str(dst), "--envelope"]) == 0
        env = np.array([float(v) for v in dst.read_text().split()])
        assert np.abs(env - 1.0).max() <= 1e-10

    def test_constant_has_zero_imaginary_part(self, capsys, tmp_path):
        src = tmp_path / "c.csv"
        src.write_text("\n".join(["2.0"] * 32) + "\n")
        dst = tmp_path / "a.csv"
        assert main(["analytic", "--in", str(src), "--out", str(dst)]) == 0
        rows = np.array([[float(f) for f in line.split(",")]
                         for line in dst.read_text().splitlines()])
        assert np.array_equal(rows[:, 0], np.full(32, 2.0))
        assert np.abs(rows[:, 1]).max() <= 1e-12


class TestBench:
    def test_report_shape(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["bench", "--powers", "6", "--trials", "4", "--warmup", "1",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "form,power,trials,percent_increase,mean_ms,stddev_ms"
        assert len(lines) == 3
        assert lines[1].startswith("first,6,4,,")
        table = capsys.readouterr().out
        assert "mean_ms" in table

    def test_trials_floor(self, capsys, tmp_path):
        assert main(["bench", "--powers", "10,11", "--trials", "0",
                     "--out", str(tmp_path / "r.csv")]) == 2

    def test_invalid_power_list(self, capsys, tmp_path):
        # inf and 1e6 have no finite size 2**power; validation rejects them
        for powers in ("10,eleven", "inf", "1e6"):
            assert main(["bench", "--powers", powers,
                         "--out", str(tmp_path / "r.csv")]) == 2
        assert not (tmp_path / "r.csv").exists()

    def test_memory_error_maps_to_2(self, capsys, monkeypatch, tmp_path):
        def too_big(config):
            raise MemoryError("Unable to allocate 8.00 TiB")
        monkeypatch.setattr(cli, "run_bench", too_big)
        assert main(["bench", "--powers", "40", "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 8.00 TiB\n"

    def test_default_powers_pinned(self):
        assert cli._DEFAULT_POWERS == "10,12,12.5,18.5,20"


class TestVerify:
    def test_core_suite_passes_and_prints_findings(self, capsys):
        assert main(["verify", "--suite", "core"]) == 0
        out = capsys.readouterr().out
        assert "im_identity: -log10 Linf >= 12" in out
        assert "corollary_2_4: c_fit=-1.000, paper +/-2 NOT matched" in out
        assert "checks passed" in out

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "everything"]) == 2

    def test_impossible_tolerance_fails(self, capsys):
        assert main(["verify", "--suite", "quadrature", "--tol-scale", "1e-18"]) == 1

    def test_negative_tolerance_rejected(self, capsys):
        assert main(["verify", "--suite", "core", "--tol-scale", "-1"]) == 2


class TestContour:
    def test_polynomial_example(self, capsys, tmp_path):
        code = main(["contour", "--poly", "1,-2,0,1", "--curve", "circle:0,0,2",
                     "--point", "0.3,0.2", "--nodes", "4096"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cauchy_integral" in out
        assert "3.910000000000e-01" in out
        assert "start-corrected" in out
        assert "|log_kernel - (f(z) - f(z0))|" in out

    def test_constant_gives_zero_log_integral(self, capsys):
        assert main(["contour", "--poly", "5", "--point", "0,0"]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("log_kernel_line_integral"))
        assert "0.000000000000e+00+0.000000000000e+00j" in line

    def test_exterior_point(self, capsys):
        assert main(["contour", "--poly", "1", "--point", "5,0"]) == 2

    def test_exponential_function(self, capsys):
        assert main(["contour", "--exp", "1,1", "--curve", "circle:0,0,1",
                     "--point", "0,0", "--nodes", "1024"]) == 0
        out = capsys.readouterr().out
        assert "1.000000000000e+00" in out

    def test_rect_curve(self, capsys):
        assert main(["contour", "--poly", "0,0,1", "--curve", "rect:-2,-2,2,2",
                     "--point", "1,0", "--nodes", "2048"]) == 0

    def test_bad_curve_kind(self, capsys):
        assert main(["contour", "--poly", "1", "--curve", "triangle:0,0,2",
                     "--point", "0,0"]) == 2

    def test_too_few_nodes(self, capsys):
        assert main(["contour", "--poly", "1", "--point", "0,0", "--nodes", "8"]) == 2

    def test_function_flags_mutually_exclusive(self, capsys):
        assert main(["contour", "--poly", "1", "--exp", "1,1", "--point", "0,0"]) == 2

    def test_needs_a_function(self, capsys):
        assert main(["contour", "--point", "0,0"]) == 2


class TestModuleEntry:
    def test_python_dash_m(self):
        proc = subprocess.run([sys.executable, "-m", "hxkit", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "transform" in proc.stdout


class TestScripts:
    ROOT = Path(__file__).resolve().parents[1]

    def run_script(self, name, args, cwd):
        env = {**os.environ, "PYTHONPATH": str(self.ROOT / "src")}
        return subprocess.run([sys.executable, str(self.ROOT / "scripts" / name), *args],
                              cwd=cwd, env=env, capture_output=True, text=True)

    def test_run_bench_writes_default_report(self, tmp_path):
        proc = self.run_script("run_bench.py", ["--powers", "5", "--trials", "2", "--warmup", "0"],
                               tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "bench_report.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_run_verify_contour_suite(self, tmp_path):
        proc = self.run_script("run_verify.py", ["--suite", "contour"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "suite contour: 7/7 checks passed" in proc.stdout
