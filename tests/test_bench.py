import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hxkit.bench
from hxkit import cli
from hxkit.bench import (
    CSV_HEADER,
    BenchConfig,
    BenchRecord,
    csv_rows,
    generate_test_signal,
    percent_increase,
    _durations,
    run_bench,
    size_for_power,
    stats,
    write_csv,
)
from hxkit.dft import dft_forward, dft_inverse, dft_inverse_halfband, plan
from hxkit.errors import (
    DataError,
    DomainError,
    InsufficientDataError,
    InvalidSizeError,
    InvariantBreach,
)
from hxkit.hilbert import Branch, infinity_norm_log10, multiplier_bins


class TestSizeForPower:
    def test_integer_powers_exact(self):
        assert size_for_power(10) == 1024
        assert size_for_power(12) == 4096
        assert size_for_power(18) == 2**18
        assert size_for_power(20) == 1048576

    def test_fractional_power_rounds_to_even(self):
        # round(2**12.5) = 5793 is odd; the even neighbor keeps the
        # half-length inverse applicable
        assert size_for_power(12.5) == 5792
        assert size_for_power(18.5) == 370728

    @given(st.floats(4.0, 21.0))
    def test_always_even_and_large_enough(self, power):
        n = size_for_power(power)
        assert n % 2 == 0
        assert n >= 16


class TestGenerateTestSignal:
    def test_deterministic(self):
        a = generate_test_signal(1024, 42)
        b = generate_test_signal(1024, 42)
        assert np.array_equal(a.samples, b.samples)

    def test_zero_mean(self):
        x = generate_test_signal(4096, 0).samples
        assert abs(x.mean()) <= 1e-12 * x.std()

    def test_length(self):
        assert len(generate_test_signal(16, 7)) == 16

    def test_seeds_differ(self):
        a = generate_test_signal(64, 1).samples
        b = generate_test_signal(64, 2).samples
        assert not np.array_equal(a, b)

    def test_too_small(self):
        with pytest.raises(InvalidSizeError):
            generate_test_signal(8, 42)


class TestStats:
    def test_simple(self):
        mean, stddev = stats([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert stddev == pytest.approx(1.0)

    def test_constant(self):
        assert stats([5.0, 5.0, 5.0, 5.0]) == (5.0, 0.0)

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            stats([1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            stats([1.0, math.inf])

    @given(st.lists(st.floats(1e-9, 1e3), min_size=2, max_size=40))
    @example([683.6445316627203] * 3)
    def test_mean_bounded_and_stddev_nonnegative(self, xs):
        mean, stddev = stats(xs)
        assert min(xs) <= mean <= max(xs)
        assert stddev >= 0.0


class TestPercentIncrease:
    def test_double(self):
        assert percent_increase(2.0, 1.0) == pytest.approx(100.0)

    def test_equal(self):
        assert percent_increase(1.0, 1.0) == 0.0

    def test_frozen_pair_of_means(self):
        # (baseline/fast - 1) * 100, i.e. ratio minus one, on a fixed pair
        assert percent_increase(3283.840, 740.877) == pytest.approx(343.237, abs=0.001)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            percent_increase(0.0, 1.0)
        with pytest.raises(DomainError):
            percent_increase(1.0, -2.0)

    @given(
        st.floats(1e-6, 1e6),
        st.floats(1e-6, 1e6),
    )
    def test_antisymmetric_sign(self, a, b):
        if a == b:
            return
        assert (percent_increase(a, b) > 0) == (percent_increase(b, a) < 0)


def test_halfband_output_matches_full_inverse():
    n = 1024
    x = generate_test_signal(n, 42).samples
    p = plan(n)
    spectrum = dft_forward(p, x) * multiplier_bins(n, Branch.PLUS)
    fast = dft_inverse_halfband(plan(n // 2), spectrum[: n // 2 + 1])
    full = dft_inverse(p, spectrum)
    assert infinity_norm_log10(fast, full) >= 12.0


class TestDurations:
    def test_duration_shape(self):
        calls = []

        def counted(name):
            def call():
                calls.append(name)
                return len(calls)
            return call

        durations, last = _durations((counted("a"), counted("b")), 5, 1)
        assert [len(d) for d in durations] == [5, 5]
        assert all(d >= 0 and math.isfinite(d) for ds in durations for d in ds)
        # rounds alternate the calls; warmup discarded, last timed output kept
        assert calls == ["a", "b"] * 6 and last == 12


class TestBenchConfig:
    def test_defaults(self):
        cfg = BenchConfig(powers=(10,))
        assert cfg.trials == 100 and cfg.warmup == 10 and cfg.seed == 42
        assert cfg.powers == (10.0,)

    def test_trials_floor(self):
        with pytest.raises(InsufficientDataError):
            BenchConfig(powers=(10,), trials=1)

    def test_size_floor(self):
        with pytest.raises(InvalidSizeError):
            BenchConfig(powers=(3,))

    def test_empty_powers(self):
        with pytest.raises(DataError):
            BenchConfig(powers=())

    def test_negative_warmup(self):
        with pytest.raises(DomainError):
            BenchConfig(powers=(10,), warmup=-1)

    def test_too_few_trials(self):
        for trials in (-3, 0, 1):
            with pytest.raises(InsufficientDataError):
                BenchConfig(powers=(10,), trials=trials)
        assert BenchConfig(powers=(10,), trials=2).trials == 2


class TestBenchRecord:
    def test_percent_only_on_second(self):
        with pytest.raises(DataError):
            BenchRecord(form="first", power=10, trials=5, mean_ms=1, stddev_ms=0,
                        percent_increase=3.0)
        with pytest.raises(DataError):
            BenchRecord(form="second", power=10, trials=5, mean_ms=1, stddev_ms=0)

    def test_unknown_form(self):
        with pytest.raises(DataError):
            BenchRecord(form="zeroth", power=10, trials=5, mean_ms=1, stddev_ms=0)


class TestRunBench:
    def test_single_power_shape(self):
        records = run_bench(BenchConfig(powers=(6,), trials=5, warmup=1))
        assert len(records) == 2
        assert [r.form for r in records] == ["first", "second"]
        assert records[0].percent_increase is None
        assert records[1].percent_increase is not None
        assert all(r.trials == 5 for r in records)

    def test_records_sorted_by_power_then_form(self):
        records = run_bench(BenchConfig(powers=(7, 6), trials=4, warmup=0))
        assert [(r.power, r.form) for r in records] == [
            (6.0, "first"), (6.0, "second"), (7.0, "first"), (7.0, "second"),
        ]

    def test_each_plan_and_forward_once_per_power(self, monkeypatch):
        plans, forwards = [], []

        def counted_plan(n):
            plans.append(n)
            return plan(n)

        def counted_forward(p, x):
            forwards.append(p.size)
            return dft_forward(p, x)

        monkeypatch.setattr(hxkit.bench, "plan", counted_plan)
        monkeypatch.setattr(hxkit.bench, "dft_forward", counted_forward)
        run_bench(BenchConfig(powers=(6, 7), trials=2, warmup=0))
        assert plans == [64, 32, 128, 64]
        assert forwards == [64, 128]

    def test_timed_calls_per_form(self, monkeypatch):
        # warmups then trials, each a full and then a half-length inverse,
        # then one reference inverse for the gate
        calls = []

        def counted(name, fn):
            def call(*args):
                calls.append(name)
                return fn(*args)
            return call

        monkeypatch.setattr(hxkit.bench, "dft_inverse", counted("full", dft_inverse))
        monkeypatch.setattr(hxkit.bench, "dft_inverse_halfband",
                            counted("half", dft_inverse_halfband))
        records = run_bench(BenchConfig(powers=(6,), trials=3, warmup=2))
        assert calls == ["full", "half"] * 5 + ["full"]
        assert [r.trials for r in records] == [3, 3]

    def test_second_form_runs(self):
        # 12.5 -> n = 5792: the half-length inverse runs at 2896 = 16 * 181,
        # which is not 5-smooth
        first, second = run_bench(BenchConfig(powers=(12.5,), trials=3, warmup=0))
        assert size_for_power(12.5) == 5792
        assert second.form == "second" and second.trials == 3
        assert math.isfinite(second.percent_increase)
        assert second.mean_ms > 0

    def test_gate_checks_timed_output(self, monkeypatch):
        timed = []

        def perturbed(p_half, spectrum):
            timed.append(None)
            out = dft_inverse_halfband(p_half, spectrum)
            if len(timed) == 4:  # the last timed call of warmup=1, trials=3
                out[0] += 1e-9
            return out

        monkeypatch.setattr(hxkit.bench, "dft_inverse_halfband", perturbed)
        with pytest.raises(InvariantBreach):
            run_bench(BenchConfig(powers=(6,), trials=3, warmup=1))

    def test_gate_trip_exits_4(self, monkeypatch, tmp_path, capsys):
        def perturbed(p_half, spectrum):
            return dft_inverse_halfband(p_half, spectrum) + 1e-6

        monkeypatch.setattr(hxkit.bench, "dft_inverse_halfband", perturbed)
        out = tmp_path / "r.csv"
        assert cli.main(["bench", "--powers", "5", "--trials", "2", "--out", str(out)]) == 4
        assert "invariant breach" in capsys.readouterr().err
        assert not out.exists()

    def test_statistics_sane(self):
        records = run_bench(BenchConfig(powers=(8,), trials=6, warmup=2))
        for r in records:
            assert r.mean_ms >= 0 and r.stddev_ms >= 0
            assert isinstance(r.resolution_warning, bool)


class TestCsvReport:
    def _records(self):
        return [
            BenchRecord(form="first", power=12.5, trials=100,
                        mean_ms=1234.567891, stddev_ms=0.00123456789),
            BenchRecord(form="second", power=12.5, trials=100,
                        mean_ms=740.877, stddev_ms=12.25,
                        percent_increase=343.211234),
        ]

    def test_header_exact(self):
        assert csv_rows([])[0] == CSV_HEADER
        assert CSV_HEADER == "form,power,trials,percent_increase,mean_ms,stddev_ms"

    def test_first_form_percent_field_empty(self):
        row = csv_rows(self._records())[1].split(",")
        assert row[0] == "first"
        assert row[3] == ""

    def test_six_significant_digits(self):
        rows = csv_rows(self._records())
        assert rows[1] == "first,12.5,100,,1234.57,0.00123457"
        assert rows[2] == "second,12.5,100,343.211,740.877,12.25"

    def test_values_parse_back(self):
        for row in csv_rows(self._records())[1:]:
            form, power, trials, pct, mean_ms, stddev_ms = row.split(",")
            float(power), int(trials), float(mean_ms), float(stddev_ms)
            if pct:
                float(pct)

    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "bench.csv"
        write_csv(self._records(), path)
        text = path.read_text()
        assert text.splitlines() == csv_rows(self._records())
        assert text.endswith("\n")

    def test_real_run_rows(self):
        records = run_bench(BenchConfig(powers=(6,), trials=4, warmup=0))
        rows = csv_rows(records)
        assert len(rows) == 3
        assert rows[1].startswith("first,6,4,,")
        assert rows[2].startswith("second,6,4,")
