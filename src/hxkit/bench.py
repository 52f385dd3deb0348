"""Timing harness for the inverse stage of the two transform forms.

The protocol times *only* the inverse transform: plans, forward spectra,
and multiplier application are all precomputed outside the clocked region.
Each power builds its test signal, the length-N and N/2 plans, one forward
spectrum and its two multiplied copies once.  The first form inverts the
full-length i*sgn-multiplied spectrum; the second form inverts bins 0..N/2
of the one-sided spectrum through the half-length path
(:func:`hxkit.dft.dft_inverse_halfband`).
After timing, the output of the last timed second-form call is checked
against the full-length inverse of the same spectrum to at least 12
digits; a miss raises :class:`~hxkit.errors.InvariantBreach` rather than
reporting a tainted speedup.

Sizes come from ``size_for_power``: the nearest even integer to 2**power.
Plain rounding of 2**power can land on an odd size (12.5 -> 5793), which
the half-length inverse cannot split, so we round the half size instead.

Timed regions run sequentially on one Python thread; the stage products
inside them run on BLAS's threads, as many as ``OPENBLAS_NUM_THREADS``
sets.  Each trial makes one call of each form with both plans built, so
drift in the host's speed moves both means alike.  Raw mean and sample
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


def _durations(calls: Sequence[Callable[[], np.ndarray]], trials: int, warmup: int) -> tuple:
    """(per-trial durations in seconds of each of ``calls``, output of the
    last call); a trial runs the calls in turn, after discarded warmups."""
    for _ in range(warmup):
        for call in calls:
            call()
    out = [[] for _ in calls]
    for _ in range(trials):
        for i, call in enumerate(calls):
            t0 = time.perf_counter_ns()
            last = call()
            out[i].append((time.perf_counter_ns() - t0) * 1e-9)
    return out, last


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


def _power_records(power: float, config: BenchConfig, resolution: float) -> list:
    """Time both forms at one power and gate the last half-length output.

    Everything built here dies on return, which keeps the peak memory of a
    run at that of its largest power.
    """
    n = size_for_power(power)
    p, p_half = plan(n), plan(n // 2)
    second = dft_forward(p, generate_test_signal(n, config.seed).samples)
    first = second * multiplier_bins(n)
    second *= multiplier_bins(n, Branch.PLUS)
    one_sided = second[: n // 2 + 1]
    calls = (lambda: dft_inverse(p, first), lambda: dft_inverse_halfband(p_half, one_sided))
    (first_s, second_s), fast = _durations(calls, config.trials, config.warmup)
    # correctness gate on the output of the last timed call
    digits = infinity_norm_log10(fast, dft_inverse(p, second))
    if digits < 12.0:
        raise InvariantBreach(
            f"half-length inverse agrees with full inverse to only {digits:.2f} digits at n={n}"
        )
    first_mean = stats(first_s)[0]
    records = []
    for form, durations in zip(FORMS, (first_s, second_s)):
        mean_s, stddev_s = stats(durations)
        records.append(
            BenchRecord(
                form=form,
                power=power,
                trials=config.trials,
                mean_ms=mean_s * 1e3,
                stddev_ms=stddev_s * 1e3,
                percent_increase=None if form == "first" else percent_increase(first_mean, mean_s),
                resolution_warning=resolution > 0.01 * mean_s,
            )
        )
    return records


def run_bench(config: BenchConfig) -> list:
    """Two records per power (first then second), powers ascending."""
    resolution = timer_resolution_s()
    records = []
    for power in sorted(config.powers):
        records += _power_records(power, config, resolution)
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
