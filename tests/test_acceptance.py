"""Acceptance gate: eight numbered criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line; under
plain ``pytest`` the lines for failing criteria appear in the captured
output.  Criteria 2, 4, and 6 measure quantities this environment
genuinely contradicts; they fail with the measured numbers printed rather
than with loosened thresholds.  The analysis lives in README.md
("Testing": "Why criteria 2 and 4 are red", "Why criterion 6 is red") and
in each failure message:

* 2 and 4: the spectral transforms are circular, i.e. they transform the
  16-periodized Gaussian, while the stated targets are infinite-line
  values; the periodization gap (7.3e-3 at x=1, 7.1e-2 at the window
  edges) exceeds the 5e-3-relative budgets and no grid refinement
  shrinks it.  The gap itself is reproduced to 1e-6 by an independent
  lattice-image oracle, so it is understood, not mysterious.
* 6: a one-sided spectrum has N/2 nonzero bins, and pruning them from a
  radix-2 FFT saves only about 1/log2 N of its operations: it still costs
  about N*log2(N/2) against N*log2(N) for the full inverse (Sorensen &
  Burrus 1993, "Efficient computation of the DFT with only a subset of
  input or output points").  The operation count therefore suggests a
  second/first ratio near (log2 N - 1)/log2 N = 17/18 ~ 0.944 at
  N = 2^18, above the 0.87 bound.  On the matrix-stage engine two bare
  length-2^17 inverses took 0.80-0.82 of one 2^18 inverse, and
  ``dft_inverse_halfband``, with its half-band split and each half
  written into every other output sample, 0.91-0.95 of it.
"""

import ctypes
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from _oracles import line_hilbert_gaussian

from hxkit.bench import (
    CSV_HEADER,
    BenchConfig,
    _durations,
    csv_rows,
    generate_test_signal,
    run_bench,
    stats,
)
from hxkit.contour import (
    AnalyticTestFunction,
    JordanCurve,
    cauchy_integral,
    log_kernel_line_integral,
)
from hxkit.dft import dft_direct_reference, dft_forward, dft_inverse, plan
from hxkit.hilbert import (
    Branch,
    Signal,
    corollary_equivalence_report,
    hilbert_first,
    hilbert_second,
    hilbert_second_via_log_image,
)
from hxkit.quadrature import (
    GridFunction,
    grid_derivative,
    hilbert_second_quadrature,
    log_kernel_convolve,
    pv_symmetric_demo,
    stieltjes_residual,
)
from hxkit.verify import run_suite


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} {'PASS' if ok else 'FAIL'} {label}: {detail}")


def seeded(seed: int, n: int) -> np.ndarray:
    x = np.random.default_rng(seed).standard_normal(n)
    return x - x.mean()


def blas_threads() -> str:
    """The thread count OpenBLAS reports, from numpy's bundled library where
    it has one, else the OPENBLAS_NUM_THREADS setting."""
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if (get := getattr(ctypes.CDLL(str(lib)), name, None)) is not None:
                return str(get())
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}"


def bare_pair_ratio(n: int, trials: int, warmup: int) -> float:
    """Mean time of two bare length-n/2 inverses over that of one length-n
    inverse, timed in alternation as run_bench times the two forms: the
    engine's floor for the half-length route, without its own passes."""
    p, p_half = plan(n), plan(n // 2)
    spectrum = dft_forward(p, generate_test_signal(n, 42).samples)
    lo, hi = spectrum[: n // 2].copy(), spectrum[n // 2:].copy()
    calls = (lambda: dft_inverse(p, spectrum),
             lambda: (dft_inverse(p_half, lo), dft_inverse(p_half, hi)))
    (full_s, pair_s), _ = _durations(calls, trials, warmup)
    return stats(pair_s)[0] / stats(full_s)[0]


def gaussian_grid(n: int = 4096, half: float = 8.0):
    dx = 2.0 * half / n
    x = -half + dx * np.arange(n)
    return x, np.exp(-x * x)


def test_criterion_1_dft_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    fwd_err = 0.0
    for n in range(2, 65):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = dft_forward(plan(n), x)
        ref = dft_direct_reference(x)
        fwd_err = max(fwd_err, float(np.abs(got - ref).max() / np.abs(ref).max()))
    rt_err = 0.0
    for n in (1024, 5793):
        x = rng.standard_normal(n)
        p = plan(n)
        rt_err = max(rt_err, float(np.abs(dft_inverse(p, dft_forward(p, x)) - x).max()))
    elapsed = time.monotonic() - t0
    ok = fwd_err <= 1e-10 and rt_err <= 1e-12 and elapsed <= 10.0
    report(1, "dft-oracle-equivalence", ok,
           f"fast vs direct max rel {fwd_err:.2e} (<= 1e-10, all n in 2..64); "
           f"round trip max {rt_err:.2e} (<= 1e-12, n in {{1024, 5793}}); "
           f"runtime {elapsed:.1f}s (<= 10s)")
    assert fwd_err <= 1e-10
    assert rt_err <= 1e-12
    assert elapsed <= 10.0


def test_criterion_2_classical_form_correctness():
    t0 = time.monotonic()
    x, g = gaussian_grid()
    f = Signal(g, x0=x[0], dx=x[1] - x[0])
    got = hilbert_first(f).samples
    target = np.array([line_hilbert_gaussian(float(v)) for v in x])
    budget = 5e-3 * float(np.abs(target).max())
    gap = float(np.abs(got - target).max())

    n = 4096
    th = 2.0 * np.pi * np.arange(n) / n
    cos_err = float(np.abs(hilbert_first(Signal(np.cos(th))).samples + np.sin(th)).max())

    elapsed = time.monotonic() - t0
    ok = gap <= budget and cos_err <= 1e-12 and elapsed <= 5.0
    report(2, "classical-form-correctness", ok,
           f"gaussian vs infinite-line values L_inf {gap:.2e} vs budget {budget:.2e} "
           f"(periodization gap: 7.3e-3 at x=1, largest at the window edges; "
           f"n-independent, window-limited); "
           f"cos -> -sin {cos_err:.2e} (<= 1e-12); runtime {elapsed:.1f}s (<= 5s)")
    assert cos_err <= 1e-12
    assert elapsed <= 5.0
    assert gap <= budget, (
        f"L_inf {gap:.3e} > {budget:.3e}: the discrete transform is circular, so it "
        f"computes the transform of the 16-periodized Gaussian; the neighboring-image "
        f"kernel tails contribute O(1/(sqrt(pi)*8)) near the window edges, which no "
        f"grid refinement removes. The same gap is matched to 1e-6 by the "
        f"lattice-image oracle in tests/test_hilbert.py and tests/_oracles.py."
    )


def test_criterion_3_second_form_multiplier_identities():
    t0 = time.monotonic()
    re_err = im_err = route_err = 0.0
    for n in (64, 1024):
        f = Signal(seeded(n, n))
        h2 = hilbert_second(f, Branch.PLUS).samples
        h1 = hilbert_first(f).samples
        re_err = max(re_err, float(np.abs(h2.real + h1).max()))
        im_err = max(im_err, float(np.abs(h2.imag + f.samples).max()))
        for b in (Branch.PLUS, Branch.MINUS):
            route_err = max(route_err, float(np.abs(
                hilbert_second(f, b).samples - hilbert_second_via_log_image(f, b).samples
            ).max()))
    re_digits = -math.log10(re_err) if re_err else math.inf
    im_digits = -math.log10(im_err) if im_err else math.inf
    elapsed = time.monotonic() - t0
    ok = re_digits >= 12 and im_digits >= 12 and route_err <= 1e-10 and elapsed <= 5.0
    report(3, "second-form-multiplier-identities", ok,
           f"Re = -H digits {re_digits:.2f}, Im = -f digits {im_digits:.2f} (>= 12, "
           f"n in {{64, 1024}}); multiplier route vs log-image route {route_err:.2e} "
           f"(<= 1e-10); runtime {elapsed:.1f}s (<= 5s)")
    assert re_digits >= 12.0
    assert im_digits >= 12.0
    assert route_err <= 1e-10
    assert elapsed <= 5.0


def test_criterion_4_oracle_confrontation_of_equivalence_factor():
    t0 = time.monotonic()
    x, g = gaussian_grid()
    f = Signal(g, x0=x[0], dx=x[1] - x[0])
    spectral = hilbert_second(f, Branch.PLUS).samples
    quad = hilbert_second_quadrature(GridFunction(x, g), Branch.PLUS).values
    re_gap = float(np.abs(quad.real - spectral.real).max())
    im_gap = float(np.abs(quad.imag - spectral.imag).max())
    re_budget = 5e-3 * float(np.abs(spectral.real).max())
    im_budget = 5e-3 * float(np.abs(spectral.imag).max())

    rep = corollary_equivalence_report(f, Branch.PLUS)
    c_err = abs(rep.c_fit - (-1.0))

    elapsed = time.monotonic() - t0
    ok = (re_gap <= re_budget and im_gap <= im_budget and c_err <= 1e-3
          and rep.paper_consistent is False and elapsed <= 30.0)
    report(4, "oracle-confrontation-of-equivalence-factor", ok,
           f"quadrature vs spectral: Re gap {re_gap:.2e} vs budget {re_budget:.2e} "
           f"(quadrature approximates the infinite-line transform, the spectral route "
           f"the periodized one; same window-edge gap as criterion 2), "
           f"Im gap {im_gap:.2e} vs budget {im_budget:.2e}; "
           f"c_fit {rep.c_fit:+.6f} (need -1 +/- 1e-3), paper_consistent "
           f"{rep.paper_consistent} (need False); runtime {elapsed:.1f}s (<= 30s)")
    assert im_gap <= im_budget
    assert c_err <= 1e-3
    assert rep.paper_consistent is False
    assert elapsed <= 30.0
    assert re_gap <= re_budget, (
        f"Re gap {re_gap:.3e} > {re_budget:.3e}: the two oracles compute different "
        f"integrals near the window edge -- the log-kernel quadrature integrates over "
        f"[-8, 8] only, while the spectral route sees all periodic images. "
        f"tests/test_quadrature.py shows the pointwise difference equals the "
        f"lattice-image correction to 1.5e-3 across the grid, so both routes are "
        f"individually correct; the stated budget is what fails."
    )


def test_criterion_5_machine_error_equality_of_fast_inverse():
    t0 = time.monotonic()
    worst = 0.0
    for n in (2**10, 2**16):
        f = Signal(seeded(5, n))
        full = hilbert_second(f, Branch.PLUS).samples
        fast = hilbert_second(f, Branch.PLUS, halfband=True).samples
        worst = max(worst, float(np.abs(full - fast).max()))
    digits = -math.log10(worst) if worst else math.inf
    elapsed = time.monotonic() - t0
    ok = digits >= 12.0 and elapsed <= 5.0
    report(5, "machine-error-equality-of-fast-inverse", ok,
           f"half-length vs full-length pipeline -log10 L_inf {digits:.2f} "
           f"(>= 12, n in {{2^10, 2^16}}); runtime {elapsed:.1f}s (<= 5s)")
    assert digits >= 12.0
    assert elapsed <= 5.0


def test_criterion_6_benchmark_direction():
    t0 = time.monotonic()
    records = run_bench(BenchConfig(powers=(18,), trials=100, warmup=10, seed=42))
    first, second = records
    ratio = second.mean_ms / first.mean_ms
    rows = csv_rows(records)
    columns_ok = rows[0] == "form,power,trials,percent_increase,mean_ms,stddev_ms"
    floor = bare_pair_ratio(1 << 18, trials=100, warmup=10)
    elapsed = time.monotonic() - t0
    ok = ratio <= 0.87 and columns_ok and elapsed <= 180.0
    report(6, "benchmark-direction", ok,
           f"n=2^18, 100 trials, 10 warmups: second/first mean ratio {ratio:.3f} "
           f"(need <= 0.87, i.e. >= 15% faster); first {first.mean_ms:.3f}ms, "
           f"second {second.mean_ms:.3f}ms, percent_increase "
           f"{second.percent_increase:+.1f}%; two bare 2^17 inverses / one 2^18 "
           f"inverse {floor:.3f} (the engine's floor, same protocol); BLAS threads "
           f"{blas_threads()}; CSV header {'exact' if columns_ok else 'WRONG'}; "
           f"runtime {elapsed:.1f}s (<= 180s)")
    assert columns_ok
    assert CSV_HEADER == "form,power,trials,percent_increase,mean_ms,stddev_ms"
    assert elapsed <= 180.0
    assert ratio <= 0.87, (
        f"second-form inverse measured {100 * (ratio - 1):+.1f}% vs first form "
        f"(need >= 15% faster). Both pipelines are correct to >= 12 digits "
        f"(criterion 5). Pruning the N/2 zero bins of a one-sided spectrum "
        f"saves only about 1/log2 N of a radix-2 FFT's operations, N*log2(N/2) "
        f"against N*log2(N) (Sorensen & Burrus 1993), so the operation count "
        f"suggests a ratio near 17/18 = 0.944 at N = 2^18; the half-band split, "
        f"which builds both half inputs, adds its own passes on top, and each "
        f"half's 1/N read writes every other output sample."
    )


def test_criterion_7_closed_curve_integrals():
    t0 = time.monotonic()
    f = AnalyticTestFunction.polynomial([1, -2, 0, 1])
    z = 0.3 + 0.2j
    circle = JordanCurve.circle(0.0, 2.0, 4096)
    cauchy_err = abs(cauchy_integral(f, circle, z) - f.value(z))

    base = log_kernel_line_integral(f, circle, z).value
    doubled = log_kernel_line_integral(f, JordanCurve.circle(0.0, 2.0, 8192), z).value
    refine_err = abs(doubled - base)

    rect = JordanCurve.rectangle(-2.0, -2.0, 2.0, 2.0, 4096, t0=0.375)
    shape_err = abs(log_kernel_line_integral(f, rect, z).value - base)

    outcome = run_suite("contour")
    lemma = next(c for c in outcome.checks if c.name == "lemma_2_6")
    notes = " ".join(lemma.notes)
    exact_err = abs(base - (f.value(z) - f.value(circle.start)))
    prints_comparison = ("claimed f(z)" in notes and "start-corrected" in notes
                         and lemma.measured == exact_err)

    elapsed = time.monotonic() - t0
    ok = (cauchy_err <= 1e-8 and refine_err <= 1e-8 and shape_err <= 1e-6
          and prints_comparison and lemma.passed and elapsed <= 30.0)
    report(7, "closed-curve-integrals", ok,
           f"cauchy vs direct evaluation {cauchy_err:.2e} (<= 1e-8, M=4096); "
           f"refinement delta {refine_err:.2e} (<= 1e-8); circle-vs-rectangle at "
           f"fixed start {shape_err:.2e} (<= 1e-6); verify suite prints claimed-f(z) "
           f"vs start-corrected comparison against the exact f(z)-f(z0): {prints_comparison}; "
           f"runtime {elapsed:.1f}s (<= 30s)")
    assert cauchy_err <= 1e-8
    assert refine_err <= 1e-8
    assert shape_err <= 1e-6
    assert prints_comparison
    assert lemma.passed
    assert elapsed <= 30.0


def test_criterion_8_quadrature_theorems():
    t0 = time.monotonic()
    t = np.linspace(0.0, 3.0, 2001)
    stieltjes = stieltjes_residual(GridFunction(t, t * t), GridFunction(t, np.sin(t)),
                                   0.0, 3.0)

    pv_err = max(abs(pv_symmetric_demo(-2.0, 2.0, 0.1)),
                 abs(pv_symmetric_demo(-2.0, 2.0, 1e-9)),
                 abs(pv_symmetric_demo(-1.0, math.e, 0.01) - 1.0),
                 abs(pv_symmetric_demo(-0.5, 4.0, 1e-6) - math.log(8.0)))

    nodes = np.linspace(-8.0, 8.0, 1025)
    g = GridFunction(nodes, np.exp(-nodes * nodes))
    h = g.spacing
    lhs = grid_derivative(log_kernel_convolve(g, Branch.PLUS).values, h)
    rhs = log_kernel_convolve(GridFunction(nodes, grid_derivative(g.values, h)),
                              Branch.PLUS).values
    swap_gap = float(np.abs(lhs - rhs).max())
    swap_budget = 5e-3 * float(np.abs(rhs).max())

    elapsed = time.monotonic() - t0
    ok = (stieltjes <= 1e-5 and pv_err <= 1e-12 and swap_gap <= swap_budget
          and elapsed <= 10.0)
    report(8, "quadrature-theorems", ok,
           f"integration-by-parts residual {stieltjes:.2e} (<= 1e-5, n=2000); "
           f"principal-value demo max error {pv_err:.2e} (<= 1e-12, symmetric and "
           f"asymmetric); derivative/convolution swap {swap_gap:.2e} vs budget "
           f"{swap_budget:.2e}; runtime {elapsed:.1f}s (<= 10s)")
    assert stieltjes <= 1e-5
    assert pv_err <= 1e-12
    assert swap_gap <= swap_budget
    assert elapsed <= 10.0
