"""Timing harness for the inverse stage of the two transform forms.

The protocol times *only* the inverse transform: plans, forward spectra,
and multiplier application are all precomputed outside the clocked region.
The first form inverts the full-length i*sgn-multiplied spectrum; the
second form inverts the one-sided spectrum through the half-length path
(:func:`hxkit.dft.dft_inverse_halfband`).  After timing, every second-form
output is checked against the full-length inverse of the same spectrum to
at least 12 digits; a miss raises :class:`~hxkit.errors.InvariantBreach`
rather than reporting a tainted speedup.

Sizes come from ``size_for_power``: the nearest even integer to 2**power.
Plain rounding of 2**power can land on an odd size (12.5 -> 5793), which
the half-length inverse cannot split, so we round the half size instead.

Timed regions run sequentially on one thread.  Raw mean and sample
standard deviation are reported without outlier rejection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .dft import dft_forward, dft_inverse, dft_inverse_halfband, plan
from .errors import (
    DataError,
    DomainError,
    InsufficientDataError,
    InvalidSizeError,
    InvariantBreach,
)
from .hilbert import Branch, Signal, infinity_norm_log10, multiplier_bins

__all__ = [
    "BenchConfig",
    "BenchRecord",
    "CSV_HEADER",
    "csv_rows",
    "generate_test_signal",
    "percent_increase",
    "run_bench",
    "size_for_power",
    "stats",
    "time_inverse_stage",
    "timer_resolution_s",
    "write_csv",
]

FORMS = ("first", "second")

CSV_HEADER = "form,power,trials,percent_increase,mean_ms,stddev_ms"


def size_for_power(power: float) -> int:
    """Nearest even size to 2**power (exact at integer powers >= 1)."""
    return 2 * int(round(2.0 ** (float(power) - 1.0)))


@dataclass(frozen=True)
class BenchConfig:
    powers: tuple
    trials: int = 100
    warmup: int = 10
    seed: int = 42

    def __post_init__(self):
        powers = tuple(float(p) for p in self.powers)
        if not powers:
            raise DataError("need at least one power")
        object.__setattr__(self, "powers", powers)
        if self.trials < 2:
            raise InsufficientDataError("need trials >= 2 for a standard deviation")
        if self.warmup < 0:
            raise DomainError(f"warmup must be nonnegative, got {self.warmup}")
        if self.seed < 0:
            raise DomainError("seed must be unsigned")
        for p in powers:
            try:
                n = size_for_power(p)
            except (OverflowError, ValueError):  # inf, nan, or 2**p beyond float64
                raise DomainError(f"power {p} gives no finite size") from None
            if n < 16:
                raise InvalidSizeError(f"power {p} gives size < 16")


@dataclass(frozen=True)
class BenchRecord:
    form: str
    power: float
    trials: int
    mean_ms: float
    stddev_ms: float
    percent_increase: float | None = None
    resolution_warning: bool = False

    def __post_init__(self):
        if self.form not in FORMS:
            raise DataError(f"unknown form {self.form!r}")
        if (self.percent_increase is not None) != (self.form == "second"):
            raise DataError("percent_increase is present exactly for second-form rows")
        if self.mean_ms < 0 or self.stddev_ms < 0:
            raise DataError("negative timing statistics")


def generate_test_signal(n: int, seed: int) -> Signal:
    if n < 16:
        raise InvalidSizeError(f"benchmark signals need n >= 16, got {n}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x -= x.mean()
    return Signal(x)


def _spectrum(form: str, n: int, seed: int) -> tuple:
    """(plan, multiplied spectrum) of the test signal; plus branch for "second"."""
    if form not in FORMS:
        raise DataError(f"unknown form {form!r}")
    if form == "second" and n % 2:
        raise InvalidSizeError("the half-length inverse needs an even size")
    x = generate_test_signal(n, seed).samples
    p = plan(n)
    branch = None if form == "first" else Branch.PLUS
    return p, dft_forward(p, x) * multiplier_bins(n, branch)


def _inverse_runner(form: str, n: int, seed: int) -> Callable[[], np.ndarray]:
    """Precompute everything but the inverse; return the zero-arg timed call."""
    p, spectrum = _spectrum(form, n, seed)
    if form == "first":
        return lambda: dft_inverse(p, spectrum)
    p_half = plan(n // 2)
    return lambda: dft_inverse_halfband(p_half, spectrum)


def time_inverse_stage(form: str, n: int, trials: int, warmup: int, seed: int) -> list:
    """Per-trial inverse-stage durations in seconds, warmup runs discarded."""
    if trials < 2:
        raise InsufficientDataError("need trials >= 2 for a standard deviation")
    if warmup < 0:
        raise DomainError(f"warmup must be nonnegative, got {warmup}")
    run = _inverse_runner(form, n, seed)
    for _ in range(warmup):
        run()
    out = []
    for _ in range(trials):
        t0 = time.perf_counter_ns()
        run()
        out.append((time.perf_counter_ns() - t0) * 1e-9)
    return out


def stats(durations: Sequence[float]) -> tuple:
    """(arithmetic mean, sample standard deviation with n-1 divisor)."""
    d = np.asarray(durations, dtype=np.float64)
    if d.size < 2:
        raise InsufficientDataError("need at least 2 samples")
    if not np.all(np.isfinite(d)):
        raise DataError("non-finite duration")
    # clamp: the rounded mean of equal samples can land one ulp outside them
    mean = min(max(float(d.mean()), float(d.min())), float(d.max()))
    return mean, float(d.std(ddof=1))


def percent_increase(baseline_mean: float, fast_mean: float) -> float:
    if not (baseline_mean > 0 and fast_mean > 0):
        raise DomainError("means must be positive")
    return (baseline_mean / fast_mean - 1.0) * 100.0


def timer_resolution_s() -> float:
    return float(time.get_clock_info("perf_counter").resolution)


def _check_halfband_agreement(n: int, seed: int) -> None:
    # correctness gate: the timed fast path must match the full-length inverse
    p, spectrum = _spectrum("second", n, seed)
    fast = dft_inverse_halfband(plan(n // 2), spectrum)
    full = dft_inverse(p, spectrum)
    digits = infinity_norm_log10(fast, full)
    if digits < 12.0:
        raise InvariantBreach(
            f"half-length inverse agrees with full inverse to only {digits:.2f} digits at n={n}"
        )


def run_bench(config: BenchConfig) -> list:
    """Two records per power (first then second), powers ascending."""
    resolution = timer_resolution_s()
    records = []
    for power in sorted(config.powers):
        n = size_for_power(power)
        _check_halfband_agreement(n, config.seed)
        baseline_mean = None
        for form in FORMS:
            durations = time_inverse_stage(form, n, config.trials, config.warmup, config.seed)
            mean_s, stddev_s = stats(durations)
            pct = None
            if form == "first":
                baseline_mean = mean_s
            else:
                pct = percent_increase(baseline_mean, mean_s)
            records.append(
                BenchRecord(
                    form=form,
                    power=power,
                    trials=config.trials,
                    mean_ms=mean_s * 1e3,
                    stddev_ms=stddev_s * 1e3,
                    percent_increase=pct,
                    resolution_warning=resolution > 0.01 * mean_s,
                )
            )
    return records


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def csv_rows(records: Sequence[BenchRecord]) -> list:
    rows = [CSV_HEADER]
    for r in records:
        pct = "" if r.percent_increase is None else _fmt(r.percent_increase)
        rows.append(
            f"{r.form},{_fmt(r.power)},{r.trials},{pct},{_fmt(r.mean_ms)},{_fmt(r.stddev_ms)}"
        )
    return rows


def write_csv(records: Sequence[BenchRecord], path) -> None:
    Path(path).write_text("\n".join(csv_rows(records)) + "\n", encoding="ascii")
