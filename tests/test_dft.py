import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import threading
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import geometric_dft, unit_roots_reference
from conftest import minor_faults, rss_growth_mb, table_arrays, traced_peak
from hxkit import (Branch, Signal, analytic_signal, dft, hilbert_first, hilbert_second,
                   multiplier_bins)
from hxkit.dft import (
    BLUESTEIN,
    STOCKHAM,
    dft_direct_reference,
    dft_forward,
    dft_inverse,
    dft_inverse_halfband,
    plan,
)
from hxkit.errors import DataError, InvalidSizeError, SizeMismatchError


def rel_err(got, want):
    want = np.asarray(want, dtype=np.complex128)
    scale = np.abs(want).max()
    if scale == 0.0:
        scale = 1.0
    return np.abs(np.asarray(got) - want).max() / scale


class TestPlan:
    @pytest.mark.parametrize("n", [1024, 3**7, 100_000])
    def test_five_smooth_size_selects_stockham(self, n):
        p = plan(n)
        assert p.strategy == STOCKHAM
        assert p.bitrev is None and p.pad_plan is None

    def test_fractional_power_size_selects_arbitrary_length(self):
        # 5793 = round(2^12.5)
        assert plan(5793).strategy == BLUESTEIN

    # a bool is an int, but not a size
    @pytest.mark.parametrize("n", [0, True, False])
    def test_zero_size_rejected(self, n):
        with pytest.raises(InvalidSizeError):
            plan(n)

    def test_size_one_is_identity(self):
        p = plan(1)
        assert rel_err(dft_forward(p, [3.5]), [3.5]) < 1e-15


class TestForwardExamples:
    def test_constant_concentrates_at_dc(self):
        p = plan(4)
        assert rel_err(dft_forward(p, [1, 1, 1, 1]), [4, 0, 0, 0]) < 1e-14

    def test_unit_impulse_flat_spectrum(self):
        p = plan(4)
        assert rel_err(dft_forward(p, [1, 0, 0, 0]), [1, 1, 1, 1]) < 1e-14

    def test_shifted_impulse(self):
        # direct evaluation of the defining sum: exp(-2*pi*i*k/4)
        p = plan(4)
        assert rel_err(dft_forward(p, [0, 1, 0, 0]), [1, -1j, -1, 1j]) < 1e-14

    def test_length_mismatch(self):
        with pytest.raises(SizeMismatchError):
            dft_forward(plan(8), np.ones(4))


class TestInverseExamples:
    def test_inverse_of_constant_case(self):
        p = plan(4)
        assert rel_err(dft_inverse(p, [4, 0, 0, 0]), [1, 1, 1, 1]) < 1e-14

    def test_inverse_of_shifted_bin(self):
        p = plan(4)
        want = [0.25, 0.25j, -0.25, -0.25j]
        assert rel_err(dft_inverse(p, [0, 1, 0, 0]), want) < 1e-14

    def test_round_trip_n8(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        p = plan(8)
        assert rel_err(dft_inverse(p, dft_forward(p, x)), x) < 1e-12


class TestDirectReference:
    def test_forward_trivials(self):
        assert rel_err(dft_direct_reference([1, 1, 1, 1]), [4, 0, 0, 0]) < 1e-14
        assert rel_err(dft_direct_reference([1, 0, 0, 0]), [1, 1, 1, 1]) < 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf), complex(np.nan, 1.0)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DataError):
            dft_direct_reference(np.array([1.0, bad, 0.0], dtype=np.complex128))

    def test_inverse_direction_normalization(self):
        x = np.array([2.0, -1.0, 0.5, 3.0])
        X = dft_direct_reference(x, "forward")
        back = dft_direct_reference(X, "inverse")
        assert rel_err(back, x) < 1e-13


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_oracle_equivalence_all_small_sizes(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    p = plan(n)
    assert rel_err(dft_forward(p, x), dft_direct_reference(x, "forward")) < 1e-10
    assert rel_err(dft_inverse(p, x), dft_direct_reference(x, "inverse")) < 1e-10


@pytest.mark.parametrize("n", [4, 8, 12, 64, 100, 5793, 1024])
def test_round_trip_spanning_strategies(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    p = plan(n)
    assert rel_err(dft_inverse(p, dft_forward(p, x)), x) < 1e-12


def is_five_smooth(m):
    for r in (2, 3, 5):
        while m % r == 0:
            m //= r
    return m == 1


# 3^7 = [27, 9, 9], 5^5 = [25, 25, 5] and 2*4^5 = [16, 16, 8] keep to
# one prime; the rest mix them (25 000 = [25, 10, 10, 10], 100 000 =
# [25, 20, 20, 10]).  The last stage lands in the output after an even
# (2^16, 2^17) or odd (3^7, 15, 2) number of stages, or after none (1)
@pytest.mark.parametrize("n", [3**7, 5**5, 2 * 4**5, 2**16, 2**17, 25_000, 50_000, 100_000,
                               15, 2, 1])
def test_stockham_matches_numpy(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    p = plan(n)
    assert p.strategy == STOCKHAM
    assert rel_err(dft_forward(p, x), np.fft.fft(x)) <= 1e-13
    assert rel_err(dft_inverse(p, x), np.fft.ifft(x)) <= 1e-13


@given(
    n=st.sampled_from([m for m in range(1, 4097) if is_five_smooth(m)]),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_property_five_smooth_sizes_match_direct_sum(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    p = plan(n)
    assert p.strategy == STOCKHAM
    assert rel_err(dft_forward(p, x), dft_direct_reference(x, "forward")) <= 1e-10
    assert rel_err(dft_inverse(p, x), dft_direct_reference(x, "inverse")) <= 1e-10


@pytest.mark.parametrize("n", [1009, 5793])
def test_bluestein_pads_to_smallest_five_smooth_length(n):
    p = plan(n)
    assert p.strategy == BLUESTEIN
    m = p.pad_plan.size
    assert m >= 2 * n - 1 and is_five_smooth(m)
    assert not any(is_five_smooth(k) for k in range(2 * n - 1, m))
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert rel_err(dft_forward(p, x), dft_direct_reference(x, "forward")) <= 1e-12
    assert rel_err(dft_inverse(p, x), dft_direct_reference(x, "inverse")) <= 1e-12


@pytest.mark.slow
def test_large_bluestein_size_matches_numpy():
    # n = 3^12 is 5-smooth, so this pins a large mixed-radix (radix-3) size
    n = 3**12
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert rel_err(dft_forward(plan(n), x), np.fft.fft(x)) <= 1e-13


@pytest.mark.slow
def test_large_prime_factor_size_runs_bluestein():
    # n = 2^20 + 2 = 2 * 3 * 174763 pads to 2 099 520 = 2^6 * 3^8 * 5
    n = 2**20 + 2
    p = plan(n)
    assert p.strategy == BLUESTEIN and p.pad_plan.size == 2_099_520
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert rel_err(dft_forward(p, x), np.fft.fft(x)) <= 1e-13


def test_bluestein_transforms_near_the_top_of_the_range_are_finite():
    # n = 100 003 pads to m = 202 500.  With the 1/m of the convolution
    # applied in the final chirp product, the second padded transform held
    # m times the result: for this signal at peak 0.75 * 2^1000 the forward
    # returned 4949 non-finite bins (all 100 003 at 2^1003, where the true
    # peak is 1.5e304), and the inverse of this spectrum of peak 1e301
    # returned 28 779 non-finite values.  The chirp spectrum now carries the 1/m,
    # and a power-of-two scale of the input scales the output exactly
    n = 100_003
    p = plan(n)
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    x *= 0.75 / np.abs(x).max()
    unit = dft_forward(p, x)
    for k in (997, 1000, 1003):
        y = dft_forward(p, np.ldexp(x, k))
        assert np.isfinite(y).all(), k
        assert y.tobytes() == np.ldexp(unit.view(np.float64), k).tobytes(), k
    X = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    X *= 1e301 / np.abs(X).max()
    assert np.isfinite(dft_inverse(p, X)).all()


@given(
    a=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    b=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=50, deadline=None)
def test_linearity(a, b, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    p = plan(16)
    lhs = dft_forward(p, a * x + b * y)
    rhs = a * dft_forward(p, x) + b * dft_forward(p, y)
    scale = max(np.abs(rhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() / scale < 1e-12


@pytest.mark.parametrize("n", [64, 100, 1024])
def test_parseval(n):
    rng = np.random.default_rng(n + 1)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    X = dft_forward(plan(n), x)
    lhs = np.sum(np.abs(x) ** 2)
    rhs = np.sum(np.abs(X) ** 2) / n
    assert abs(lhs - rhs) / lhs < 1e-10


def one_sided_spectrum(n, rng):
    """Random spectrum with zero strictly-negative-frequency bins."""
    X = np.zeros(n, dtype=np.complex128)
    X[: n // 2 + 1] = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
    return X


class TestHalfband:
    def test_cosine_multiplier_case_n16(self):
        n = 16
        theta = 2 * np.pi * np.arange(n) / n
        f = np.cos(theta)
        F = dft_forward(plan(n), f)
        s = np.where(np.arange(n) <= n // 2, np.arange(n), np.arange(n) - n) / n
        mult = -1j * (np.sign(s) + 1.0)
        mult[0] = -1j
        mult[n // 2] = -1j
        X = mult * F
        X[n // 2 + 1:] = 0.0
        full = dft_inverse(plan(n), X)
        half = dft_inverse_halfband(plan(n // 2), X[: n // 2 + 1])
        assert rel_err(half, full) < 1e-12

    def test_dc_only_constant(self):
        X = np.zeros(5, dtype=np.complex128)
        c = 3.0 - 1.0j
        X[0] = c
        out = dft_inverse_halfband(plan(4), X)
        assert rel_err(out, np.full(8, c / 8)) < 1e-13

    # half plans with 0 (2), 1 (4 to 64), 2 (200, 1024), 3 (2^16) and 4
    # (100 000, 2^17) stages, and a Bluestein half plan (2 * 1009)
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 30, 64, 200, 1024, 2 * 1009, 100_000, 2**16,
                                   2**17])
    def test_matches_full_inverse_on_random_one_sided(self, n):
        rng = np.random.default_rng(n)
        X = one_sided_spectrum(n, rng)
        full = dft_inverse(plan(n), X)
        half = dft_inverse_halfband(plan(n // 2), X[: n // 2 + 1])
        assert rel_err(half, full) < 1e-12

    @pytest.mark.parametrize("n", [4, 16, 1024])
    def test_rejects_full_length_spectrum(self, n):
        # the call takes bins 0..N/2 only, so a length-N spectrum, even a
        # one-sided one, fails loudly instead of losing bins
        X = one_sided_spectrum(n, np.random.default_rng(n))
        with pytest.raises(SizeMismatchError, match=f"{n // 2 + 1} of them"):
            dft_inverse_halfband(plan(n // 2), X)

    def test_rejects_odd_total_length(self):
        with pytest.raises(SizeMismatchError):
            dft_inverse_halfband(plan(4), np.zeros(9, dtype=np.complex128))

    # each half is written straight into out[0::2] or out[1::2] and gives
    # the bits of its own length-N/2 inverse, halved (exactly), for half
    # plans with 3 (1000) and 4 (2^16) stages and Bluestein ones whose pads
    # have an even (127, pad 256 = [16, 16]) and an odd (1009) stage count
    @pytest.mark.parametrize("nh", [1000, 2**16, 127, 1009])
    def test_halves_are_the_half_length_inverses_bit_for_bit(self, nh):
        rng = np.random.default_rng(nh)
        v = rng.standard_normal(nh + 1) + 1j * rng.standard_normal(nh + 1)
        p = plan(nh)
        even = v[:nh].copy()
        even[0] += v[nh]
        # the cached table, as the call reads it; a fresh one would be a
        # temporary that numpy multiplies in place, operands swapped
        odd = v[:nh] * dft._table("roots", 2 * nh, dft._half_roots)[:nh]  # exp(+2*pi*i*j/N)
        odd[0] -= v[nh]
        want = np.empty(2 * nh, dtype=np.complex128)
        want[0::2] = dft_inverse(p, even) * 0.5
        want[1::2] = dft_inverse(p, odd) * 0.5
        assert dft_inverse_halfband(p, v).tobytes() == want.tobytes()


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_halfband_exactness_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([8, 32, 64, 128]))
    X = one_sided_spectrum(n, rng)
    full = dft_inverse(plan(n), X)
    half = dft_inverse_halfband(plan(n // 2), X[: n // 2 + 1])
    assert rel_err(half, full) < 1e-12


class TestWorkspace:
    """Transforms run in a per-thread workspace and allocate only their result."""

    # when every stage's output and the butterflies' temporaries were
    # allocated, these peaks were 3.00x, 3.00x and 3.63x the result; with a
    # twiddle pass per later stage they were 1.13x or less, numpy's 128 KiB
    # iterator buffer for its strided writes; with the twiddles folded into
    # the stage matrices they are 1.01x or less.  Real input is widened in
    # whichever of the result and the work row the first stage does not
    # write; in a temporary, the peak was 2.06x the result.
    # The inverse lands its stages in the workspace and reads them back
    # reversed into the result, for an even (2^16, 4) and an odd (2^15, 3)
    # stage count
    @pytest.mark.parametrize(
        "kind", ["forward", "inverse", "inverse-odd-stages", "halfband", "real-forward",
                 "real-forward-odd-stages"]
    )
    def test_warmed_transform_allocates_only_its_result(self, kind):
        n = 1 << 15 if kind.endswith("odd-stages") else 1 << 16
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) if kind.startswith("real") else one_sided_spectrum(n, rng)
        if kind == "halfband":
            half, bins = plan(n // 2), x[: n // 2 + 1]
            def call():
                return dft_inverse_halfband(half, bins)
        else:
            p = plan(n)
            fn = dft_inverse if kind.startswith("inverse") else dft_forward
            def call():
                return fn(p, x)
        out, peak = traced_peak(call)
        assert peak <= 1.5 * out.nbytes

    def test_warmed_bluestein_transform_allocates_only_its_result(self):
        # n = 3027 = 3 * 1009 pads to 6075 = 3^5 * 5^2.  With a zero-filled
        # padded array, a second one for the padded forward transform and
        # the conj(x) and chirp/m temporaries the peak was 6.40x the result.
        # Here it is 1.05x or less; it was 1.32x while the pad's later stages
        # wrote strided twiddle passes through numpy's iterator buffers.  Real
        # input, to either direction, is widened into the padded row before
        # the chirp product; widened inside that product, through numpy's
        # cast buffer, it peaked at 2.01x.  The half-band inverse of N = 2018
        # runs a Bluestein half plan (1009) into out[N/2:], moved to
        # out[0::2], and into out[1::2]
        n = 3027
        p = plan(n)
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        z = x + 1j * rng.standard_normal(n)
        half, bins = plan(1009), z[:1010]
        for call, bound in ((lambda: dft_forward(p, x), 1.5),
                            (lambda: dft_inverse(p, z), 2.5),
                            (lambda: dft_inverse(p, x), 2.5),
                            (lambda: dft_inverse_halfband(half, bins), 1.5)):
            out, peak = traced_peak(call)
            assert peak <= bound * out.nbytes

    def test_two_threads_match_one_thread_bit_for_bit(self):
        sizes = (1 << 12, 3**7, 1009)
        rng = np.random.default_rng(7)
        inputs = {n: rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in sizes}
        halves = {n: one_sided_spectrum(2 * n, rng)[: n + 1] for n in sizes}

        def run(n):
            p = plan(n)
            return (dft_forward(p, inputs[n]), dft_inverse(p, inputs[n]),
                    dft_inverse_halfband(p, halves[n]))

        want = {n: run(n) for n in sizes}
        mismatches, errors = [], []
        start = threading.Barrier(2, timeout=30)

        def worker(offset):
            try:
                start.wait()
                for i in range(30):
                    n = sizes[(i + offset) % len(sizes)]  # the threads never share a size
                    got = run(n)
                    if not all(np.array_equal(g, w) for g, w in zip(got, want[n])):
                        mismatches.append(n)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors and not mismatches


def _routes_reference(x):
    """Every public route of real x through direct sums, keyed like
    :func:`_routes`."""
    n = x.shape[0]
    X = dft_direct_reference(x)
    h = dft_direct_reference(multiplier_bins(n) * X, "inverse").real
    plus = dft_direct_reference(multiplier_bins(n, Branch.PLUS) * X, "inverse")
    minus = dft_direct_reference(multiplier_bins(n, Branch.MINUS) * X, "inverse")
    return {"first": h, "second-plus": plus, "second-minus": minus, "halfband-plus": plus,
            "halfband-minus": minus, "analytic": x - 1j * h}


def _routes(x):
    f = Signal(x)
    return {"first": hilbert_first(f).samples,
            "second-plus": hilbert_second(f, Branch.PLUS).samples,
            "second-minus": hilbert_second(f, Branch.MINUS).samples,
            "halfband-plus": hilbert_second(f, Branch.PLUS, halfband=True).samples,
            "halfband-minus": hilbert_second(f, Branch.MINUS, halfband=True).samples,
            "analytic": analytic_signal(f).samples}


@pytest.fixture(params=["plans", "small-radix plans"])
def stage_sizes(request, monkeypatch, fresh_tables):
    """Sizes whose plans run 1, 2, 3 and 4 stages: from every radix up to 32
    (4 stages start at 25 000, too large for direct sums), or from the
    radices up to 5 alone, where 4^k runs k radix-4 stages; either way with
    a table cache of their own."""
    if request.param == "plans":
        return [16, 64, 1000]
    monkeypatch.setattr(dft, "_RADICES", (5, 4, 3, 2))
    return [4, 16, 64, 256]


class TestBufferPlacement:
    """Each transform's stages run between the size's one work row and an
    array the call owns; inputs sit where the first stage does not write,
    or are copied there once."""

    def test_stage_sizes_run_one_to_four_stages(self, stage_sizes):
        counts = [len(plan(n).stages_fwd) for n in stage_sizes]
        assert counts == list(range(1, len(counts) + 1))

    def test_forward_reads_contiguous_strided_and_float32_input(self, stage_sizes):
        for n in [*stage_sizes, 1009]:
            p = plan(n)
            rng = np.random.default_rng(n)
            z = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
            for x in (z[:n], z[::2], z.real[:n].astype(np.float32)):
                before = x.copy()
                assert rel_err(dft_forward(p, x), dft_direct_reference(x)) <= 1e-12, n
                assert np.array_equal(x, before)

    def test_inverse_reads_a_callers_array_and_the_spare_row(self, stage_sizes):
        for n in [*stage_sizes, 1009]:
            p = plan(n)
            rng = np.random.default_rng(n)
            X = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            before = X.copy()
            want = dft_inverse(p, X)
            assert np.array_equal(X, before)
            assert rel_err(want, dft_direct_reference(X, "inverse")) <= 1e-12, n
            row = dft._spare_row(p)
            row[...] = X
            assert dft_inverse(p, row).tobytes() == want.tobytes()

    def test_halfband_inverse_and_public_routes_at_each_stage_count(self, stage_sizes):
        # the half plans of 2*nh: every stage count, and a Bluestein half
        # plan (2897, N = 5794)
        for nh in [*stage_sizes, 2897]:
            rng = np.random.default_rng(nh)
            v = rng.standard_normal(nh + 1) + 1j * rng.standard_normal(nh + 1)
            spectrum = np.zeros(2 * nh, dtype=np.complex128)
            spectrum[: nh + 1] = v
            got = dft_inverse_halfband(plan(nh), v)
            assert rel_err(got, dft_direct_reference(spectrum, "inverse")) <= 1e-12, nh
            x = rng.standard_normal(2 * nh)
            want = _routes_reference(x)
            for route, out in _routes(x).items():
                assert rel_err(out, want[route]) <= 1e-12, (nh, route)

    # the spare row as either direction's input, and the result as an
    # inverse's, at an odd (2^15, 3) and an even (2^16, 4) stage count.
    # Where the first stage writes the input's buffer, the input is copied
    # once into the other; a product whose operand overlaps its output
    # would make numpy copy the operand, and over several row blocks the
    # first would overwrite what the later ones read
    @pytest.mark.parametrize("n", [1 << 15, 1 << 16])
    def test_an_input_in_a_stage_buffer_costs_no_temporary(self, n):
        p = plan(n)
        rng = np.random.default_rng(n)
        X = rng.standard_normal(n) + 1j * rng.standard_normal(n)

        def from_row(fn):
            dft._spare_row(p)[...] = X
            return fn(p, dft._spare_row(p))

        def in_place():
            Y = X.copy()
            dft._inverse_into(p, Y, Y, 1.0 / n)
            return Y

        for call, want in ((lambda: from_row(dft_forward), dft_forward(p, X)),
                           (lambda: from_row(dft_inverse), dft_inverse(p, X)),
                           (in_place, dft_inverse(p, X))):
            out, peak = traced_peak(call)
            assert out.tobytes() == want.tobytes()
            assert peak <= 1.1 * out.nbytes, peak / out.nbytes

    def test_spreading_the_upper_half_moves_every_sample(self):
        for nh in (1, 2, 3, 5, 8, 1000, 2897):
            out = np.arange(2 * nh, dtype=np.complex128)
            dft._spread_upper_half(out)
            assert np.array_equal(out[0::2], np.arange(nh, 2 * nh)), nh

    def test_a_stockham_size_keeps_one_row_and_a_pad_two(self, cold):
        rng = np.random.default_rng(5)
        for n, held in ((1 << 12, 1 << 12), (1009, plan(1009).pad_plan.size)):
            p = plan(n)
            dft_forward(p, rng.standard_normal(n))
            dft_inverse(p, rng.standard_normal(n))
            rows = 1 if p.strategy == STOCKHAM else 2
            assert dft._WORKSPACE.buffers[held].shape == (rows, held)
        assert len(dft._WORKSPACE.buffers) == 2


class TestTableCache:
    """Per-size tables sit in one least-recently-used cache keyed by (kind, n)
    and bounded by the bytes it holds (``dft._table``)."""

    @staticmethod
    def zeros(kind, n, built):
        def build(k):
            built.append((kind, k))
            return np.zeros(k)  # 8*k bytes
        return dft._table(kind, n, build)

    def test_a_hit_returns_the_same_read_only_table(self, fresh_tables):
        built = []
        t = self.zeros("a", 8, built)
        assert self.zeros("a", 8, built) is t and built == [("a", 8)]
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0] = 1.0

    def test_entries_are_keyed_by_kind_not_by_builder(self, fresh_tables):
        # a tracer rebinds the plan builder; its wrapper must find the entry
        p = dft._table("plan", 12, plan)
        assert dft._table("plan", 12, lambda n: pytest.fail("rebuilt")) is p
        assert dft._table("other plan", 12, plan) is not p

    def test_least_recently_used_go_first_and_the_newest_stays(self, fresh_tables,
                                                               monkeypatch):
        monkeypatch.setattr(dft, "_TABLE_BUDGET", 3300)
        built = []
        for n in range(100, 104):
            self.zeros("a", n, built)  # 8n bytes each, 3248 in all: they fit
        self.zeros("a", 100, built)  # a hit makes 100 the most recent
        self.zeros("a", 104, built)  # so 101, the least recent, goes
        assert [k[1] for k in dft._TABLES] == [102, 103, 100, 104]
        assert dft._table_bytes == 3272
        self.zeros("f", 1000, built)  # 8000 bytes, over the budget alone
        assert list(dft._TABLES) == [("f", 1000)] and dft._table_bytes == 8000
        self.zeros("g", 500, built)  # half of f's size: one call may read both
        assert list(dft._TABLES) == [("f", 1000), ("g", 500)]
        assert dft._table_bytes == 12000
        self.zeros("h", 1001, built)  # none of its sizes: both go
        assert list(dft._TABLES) == [("h", 1001)] and dft._table_bytes == 8008
        self.zeros("a", 101, built)
        assert list(dft._TABLES) == [("a", 101)] and dft._table_bytes == 808
        assert built.count(("a", 101)) == 2

    def test_a_hit_allocates_nothing(self, fresh_tables):
        # a hit relinks its entry as the most recent; popping and
        # re-inserting it in a plain dict rebuilt the dict's keys table
        # every few hits (4.6 kB peak here), which a traced call could catch
        for n in range(1, 41):
            dft._table("a", n, np.zeros)

        def hits():
            for i in range(2000):
                dft._table("a", 1 + i % 2, pytest.fail)  # a miss would build

        _, peak = traced_peak(hits, warm=False)
        assert len(dft._TABLES) == 40 and list(dft._TABLES)[-2:] == [("a", 1), ("a", 2)]
        assert peak <= 512

    @pytest.mark.parametrize("n", [1, 1024, 1009])
    def test_plan_bytes_count_every_table_and_the_pad_plans(self, n):
        p = plan(n)
        arrays = table_arrays(p)
        assert p.nbytes == sum(a.nbytes for a in arrays)
        assert (p.pad_plan is not None) == (n == 1009)
        assert all(not a.flags.writeable for a in arrays)


@given(a=st.integers(0, 24), b=st.integers(0, 15), c=st.integers(0, 10),
       other=st.sampled_from([1, 7, 11, 49, 1009, 131_071]))
@settings(max_examples=200, deadline=None)
def test_property_radices_split_five_smooth_sizes(a, b, c, other):
    n = 2**a * 3**b * 5**c * other
    got = dft._radices(n)
    if other > 1:
        assert got is None
        return
    assert math.prod(got) == n
    assert all(2 <= r <= 32 and is_five_smooth(r) for r in got)
    assert got == sorted(got, reverse=True)


@pytest.mark.parametrize("n, want", [(1, []), (64, [8, 8]), (2**17, [32, 16, 16, 16]),
                                     (100_000, [25, 20, 20, 10]), (6075, [27, 15, 15])])
def test_radices_examples(n, want):
    assert dft._radices(n) == want


@lru_cache(maxsize=None)
def _stage_case(n):
    """Input and its direct-sum forward and inverse transforms."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if n < 4096:
        return x, dft_direct_reference(x, "forward"), dft_direct_reference(x, "inverse")
    # one O(n^2) sum for a large n: by definition the inverse sum at j is
    # the forward sum at -j mod n, over n
    fwd = dft_direct_reference(x, "forward")
    return x, fwd, np.roll(fwd[::-1], 1) / n


def _first_radix_sizes():
    """For each radix r, the smallest size up to 32^2 whose split starts
    with r and has more stages, so that r runs as the first stage's
    transposed product with m > 1.  A split led by r <= 5 has every radix
    <= 5, and its last two would merge into one radix <= 25, so no
    fewest-stage split starts with one."""
    sizes = {}
    for n in range(2, 32 * 32 + 1):
        split = dft._radices(n)
        if split and len(split) > 1:
            sizes.setdefault(split[0], n)
    return sizes


_FIRST_RADIX_SIZES = _first_radix_sizes()


def _table_shapes(n):
    """Shapes of a 5-smooth n's stage tables: (m0, r0), then (m, r, r)."""
    radices = dft._radices(n)
    m = n // radices[0]
    shapes = [(m, radices[0])]
    for r in radices[1:]:
        m //= r
        shapes.append((m, r, r))
    return shapes


class TestStages:
    """The first stage is one matrix product and one twiddle pass, each
    later stage one batched product with its twiddled matrices; the engine
    stays pinned to the direct sum for every radix and stage count."""

    @pytest.mark.parametrize("r", [r for r in range(2, 33) if is_five_smooth(r)])
    def test_single_stage_radix_matches_direct_sum(self, r):
        p = plan(r)
        assert dft._radices(r) == [r] and len(p.stages_fwd) == 1
        x, fwd, inv = _stage_case(r)
        assert rel_err(dft_forward(p, x), fwd) <= 1e-12
        assert rel_err(dft_inverse(p, x), inv) <= 1e-12

    # 2 to 3 stages with twiddles on all but the last; 2^15 = [32, 32, 32]
    # runs the largest radix at every stage
    @pytest.mark.parametrize("n", [64, 96, 243, 625, 1000,
                                   pytest.param(2**15, marks=pytest.mark.slow)])
    def test_multi_stage_size_matches_direct_sum(self, n):
        p = plan(n)
        assert p.strategy == STOCKHAM and len(p.stages_fwd) >= 2
        x, fwd, inv = _stage_case(n)
        assert rel_err(dft_forward(p, x), fwd) <= 1e-12
        assert rel_err(dft_inverse(p, x), inv) <= 1e-12

    def test_every_radix_above_5_leads_a_multi_stage_split(self):
        assert sorted(_FIRST_RADIX_SIZES) == [r for r in range(6, 33) if is_five_smooth(r)]

    @pytest.mark.parametrize("r, n", sorted(_FIRST_RADIX_SIZES.items()))
    def test_first_stage_radix_matches_direct_sum(self, r, n):
        p = plan(n)
        m = n // r
        assert p.stages_fwd[0].shape == (m, r) and m > 1
        x, fwd, inv = _stage_case(n)
        assert rel_err(dft_forward(p, x), fwd) <= 1e-12
        assert rel_err(dft_inverse(p, x), inv) <= 1e-12

    # the first stage keeps one (m0, r0) twiddle table with its column of
    # ones and each later stage an (m, r, r) array of twiddled DFT matrices:
    # n + sum m*r^2 values, and the plan holds no other array, since the
    # inverse runs on the forward stages.  Single stage (32), 2 to 4
    # stages, a Bluestein pad
    @pytest.mark.parametrize("n", [32, 36, 1000, 2**17, 100_000, 1009])
    def test_stage_tables_hold_n_plus_later_m_r_squared_values(self, n):
        p = plan(n)
        p = p.pad_plan or p
        shapes = _table_shapes(p.size)
        assert [t.shape for t in p.stages_fwd] == shapes
        held = [getattr(p, f.name) for f in dataclasses.fields(p)]
        arrays = [a for v in held for a in (v if isinstance(v, tuple) else (v,))
                  if isinstance(a, np.ndarray)]
        assert sum(a.size for a in arrays) == p.size + sum(m * r * r for m, r, _ in shapes[1:])

    def test_stage_tables_stay_within_2_1_n_up_to_2_20(self):
        # sum m*r^2 over the later stages is n * sum r_i/(r_0*...*r_(i-1)),
        # largest for 1000 = [10, 10, 10]: 1000 + 100 values more than n
        def held(n):
            return sum(math.prod(shape) for shape in _table_shapes(n))

        sizes = [n for n in range(2, 2**20 + 1) if is_five_smooth(n)]
        assert all(10 * held(n) <= 21 * n for n in sizes)
        assert max(sizes, key=lambda n: held(n) / n) == 1000 and held(1000) == 2100

    # pads 2025 = [15, 15, 9], 6075 = [27, 15, 15] and 256 = [16, 16]; in
    # the even-stage pad the second padded transform reads row 1 and lands
    # in it.  Both transforms run in the pad's two workspace rows
    @pytest.mark.parametrize("n", [1009, 3027, 127])
    def test_bluestein_size_matches_direct_sum(self, n):
        p = plan(n)
        assert p.strategy == BLUESTEIN
        x, fwd, inv = _stage_case(n)
        assert rel_err(dft_forward(p, x), fwd) <= 1e-12
        assert rel_err(dft_inverse(p, x), inv) <= 1e-12
        assert dft._WORKSPACE.buffers[p.pad_plan.size].shape == (2, p.pad_plan.size)

    def test_dft_matrix_is_read_only_and_shared(self):
        f = dft._dft_matrix(8)
        assert f is dft._dft_matrix(8) and not f.flags.writeable

    # a single-stage, a multi-stage and a Bluestein plan, which plan caches
    # share between calls
    @pytest.mark.parametrize("n", [32, 1000, 1009])
    def test_every_plan_array_is_read_only(self, n):
        p = plan(n)
        arrays = [*p.stages_fwd]
        if p.pad_plan is not None:
            arrays += [*p.pad_plan.stages_fwd, p.chirp, p.chirp_spectrum]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0

    # stages [32, r, 2] make each radix r a later stage with m = 2 and
    # s = 32, so its twiddled matrices differ per p and it reads strided
    # rows; n = 64*r
    @pytest.mark.parametrize("r", [r for r in range(2, 33) if is_five_smooth(r)])
    def test_folded_stage_radix_matches_direct_sum(self, r):
        n = 64 * r
        stages = dft._stage_tables(n, [32, r, 2])
        assert stages[1].shape == (2, r, r)
        x, fwd, inv = _stage_case(n)
        y = dft._stockham(x, stages, np.empty(n, dtype=np.complex128),
                          np.empty(n, dtype=np.complex128))
        assert rel_err(y, fwd) <= 1e-12
        # the inverse is the forward transform of x[-k mod n], over n
        y = dft._stockham(np.roll(x[::-1], 1), stages, np.empty_like(y), np.empty_like(y))
        assert rel_err(y / n, inv) <= 1e-12

    # the inverse is the forward transform read at -k mod n, times 1/n,
    # over one stage (16), an odd (1000, 3) and an even (2^16, 4) stage
    # count, and Bluestein at an even (127, pad 256 = [16, 16], F in the
    # input's row 1) and an odd (1009, pad 2025 = [15, 15, 9]) pad stage count
    @pytest.mark.parametrize("n", [16, 1000, 2**16, 127, 1009])
    def test_inverse_is_the_reversed_forward_over_n_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        X = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p = plan(n)
        want = dft_forward(p, X)[-np.arange(n) % n] * (1 / n)
        assert dft_inverse(p, X).tobytes() == want.tobytes()

    # one stage (16), an odd (1000, 3) and an even (2^16, 4) stage count,
    # and Bluestein at an even (127) and an odd (1009) pad stage count,
    # each from a strided, reversed and real view
    @pytest.mark.parametrize("n", [16, 1000, 2**16, 127, 1009])
    def test_strided_input_gives_the_bits_of_its_contiguous_copy(self, n):
        rng = np.random.default_rng(n)
        z = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        p = plan(n)
        for view in (z[::2], z[n:][::-1], z.real[1::2]):
            for fn in (dft_forward, dft_inverse):
                assert fn(p, view).tobytes() == fn(p, view.copy()).tobytes()


@lru_cache(maxsize=None)
def _tile_case(n):
    """Input, one-sided bins and the direct-sum results for TestTiles."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    spectrum = np.zeros(2 * n, dtype=np.complex128)
    spectrum[: n + 1] = v
    want = (dft_direct_reference(x, "forward"), dft_direct_reference(x, "inverse"),
            dft_direct_reference(spectrum, "inverse"))
    return x, v, want


def _tiled_stockham(tile):
    """A stand-in for ``dft._stockham`` that writes each stage out by
    explicit index arithmetic.  The first stage (s = 1) takes T = x read as
    (r, m), transposed, times F_r, as one whole product (the BLAS
    product's bits depend on its shape, so it is not cut), already in
    output order, and writes y[p*r + j] = T[p, j] * w[p, j] over tiles of
    ``tile`` elements of its (m, r) index space.  Every later stage is cut
    along its batch axis p: one product T = G[p] @ x read as (r, m, s) at
    [:, p, :], written to y[(p*r + j)*s + q] = T[j, q]."""

    def stockham(x, stages, out, partner):
        x = np.array(x, dtype=np.complex128)
        n, s = x.shape[0], 1
        for i, w in enumerate(stages):
            m, r = w.shape[:2]
            y = np.empty(n, dtype=np.complex128)
            if i == 0:
                t = np.matmul(x.reshape(r, m).T, dft._dft_matrix(r))
                for a in range(0, n, tile):
                    p, j = np.divmod(np.arange(a, min(a + tile, n)), r)
                    y[p * r + j] = t[p, j] * w[p, j]
            else:
                j, q = np.divmod(np.arange(r * s), s)
                for p in range(m):
                    t = np.matmul(w[p], x.reshape(r, m, s)[:, p, :])
                    y[(p * r + j) * s + q] = t[j, q]
            x = y
            s *= r
        out[...] = x
        return out

    return stockham


class TestGeometricOracle:
    """x[k] = a^k has the rational spectrum (1 - a^N)/(1 - a*w^k), a closed
    form that costs O(N) at any size (:func:`geometric_dft`)."""

    A = 0.9995 * np.exp(0.3j)

    @pytest.mark.parametrize("n", [8, 7])
    def test_oracle_is_the_direct_sum(self, n):
        for direction in ("forward", "inverse"):
            x, want = geometric_dft(self.A, n, direction)
            assert rel_err(dft_direct_reference(x, direction), want.astype(np.complex128)) <= 1e-15

    # relative L2 error <= C * eps * log2 N; the worst reading was 0.35
    # (3.53 eps, dft_inverse at N = 1009), so C = 1 leaves a margin of 2.8x.
    # Scaling a Bluestein plan's chirp spectrum by 1 - 32 eps puts each
    # transform at those sizes about 32 eps off, past this budget
    C = 1.0

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="np.longdouble is float64 on this platform, so the spectrum "
                               "would be no more exact than the transform under test")
    @pytest.mark.parametrize("n", [64, 4096, 100_000,  # Stockham
                                   127, 1009, 5793, 100_003])  # Bluestein
    def test_forward_and_inverse_meet_the_closed_form(self, n):
        p = plan(n)
        budget = self.C * np.finfo(np.float64).eps * math.log2(n)
        for direction, fn in (("forward", dft_forward), ("inverse", dft_inverse)):
            x, want = geometric_dft(self.A, n, direction)
            err = fn(p, x) - want
            rel = float(np.sqrt(np.sum(np.abs(err) ** 2) / np.sum(np.abs(want) ** 2)))
            assert rel <= budget, (direction, rel / np.finfo(np.float64).eps)


class TestTiles:
    """The engine runs each stage whole, with the (m, r, s) output read
    through views; the first stage's twiddle pass tiled over its (m, r)
    index space, and every later stage run as one product per p, written
    out by explicit index arithmetic, give its bits."""

    # radix 16 x 8 (128), 27 x 9 (3^5), 25 x 25 (5^4), 15 x 10 (150),
    # 16 x 15 (240), 30 x 24 (720), 10 x 10 x 10 (1000) and a Bluestein
    # size (1009, pad 2025 = [15, 15, 9]).  Tiles of 1 to 64 elements cut
    # the first stage's (m, r) table across its rows
    @pytest.mark.parametrize("n", [128, 243, 625, 150, 240, 720, 1000, 1009])
    @pytest.mark.parametrize("tile", [1, 2, 3, 8, 64])
    def test_tiled_stages_match_whole_stages_bit_for_bit(self, monkeypatch, tile, n):
        x, v, want = _tile_case(n)

        def run():
            p = plan(n)  # a Bluestein plan transforms its chirp on these stages too
            return dft_forward(p, x), dft_inverse(p, x), dft_inverse_halfband(p, v)

        whole = run()
        monkeypatch.setattr(dft, "_stockham", _tiled_stockham(tile))
        tiled = run()
        for got, ref, oracle in zip(tiled, whole, want):
            assert got.tobytes() == ref.tobytes()
            assert rel_err(ref, oracle) <= 1e-12


class TestRootTables:
    """Every table is built from roots formed as cos t and 0.0 - sin t in
    place; each must equal the complex-exp build in every bit, signed
    zeros included."""

    @staticmethod
    def _tables(n):
        tables = table_arrays(plan(n))
        if n % 2 == 0:
            tables.append(dft._half_roots(n))
        return tables

    # 1 to 4 stages, even and odd (2, 27; 64, 225; 1000, 3^7; 2^17, 5^7),
    # and Bluestein, odd and even (7, 63, 1009, 5793; 2018, 5794)
    @pytest.mark.parametrize("n", [2, 27, 64, 225, 1000, 3**7, 1 << 17, 5**7,
                                   7, 63, 1009, 5793, 2018, 5794])
    def test_plans_and_roots_match_the_complex_exp_build(self, n, monkeypatch):
        stages = {2: 1, 27: 1, 64: 2, 225: 2, 1000: 3, 3**7: 3, 1 << 17: 4, 5**7: 4}
        assert len(plan(n).stages_fwd) == stages.get(n, 0)
        got = self._tables(n)
        monkeypatch.setattr(dft, "_unit_roots", unit_roots_reference)
        want = self._tables(n)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_dft_matrices_match_the_complex_exp_build(self, monkeypatch):
        got = [dft._dft_matrix.__wrapped__(r) for r in dft._RADICES]
        monkeypatch.setattr(dft, "_unit_roots", unit_roots_reference)
        want = [dft._dft_matrix.__wrapped__(r) for r in dft._RADICES]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_exponents_past_2_53_are_reduced_in_integers(self):
        # the chirp exponents k^2 of a size near 10^8, as a Bluestein plan
        # forms them: past 2^53 a float angle would lose the residue
        n = 100_000_007
        k = np.arange(n - 1000, n, dtype=np.int64)
        e = k * k
        assert int(e[0]) > 2**53
        got = dft._unit_roots(e, 2 * n)
        assert got.tobytes() == unit_roots_reference(e, 2 * n).tobytes()
        assert int(e[0]) == (n - 1000) ** 2  # the exponents are not written


def test_outputs_do_not_depend_on_the_blas_thread_count():
    """The stage products run in BLAS zgemm; one BLAS thread gives the bits
    of the default thread count, and so does the equivalence report's fit,
    whose sums are numpy's.  (A different BLAS CPU kernel, chosen with
    OPENBLAS_CORETYPE, may differ in the last ulp.)"""
    script = textwrap.dedent("""
        import hashlib
        import numpy as np
        from hxkit import Branch, Signal, corollary_equivalence_report, hilbert_first
        from hxkit.dft import dft_forward, plan

        for n in (1 << 17, 100_000, 3027):
            rng = np.random.default_rng(n)
            x = rng.standard_normal(n)
            z = x + 1j * rng.standard_normal(n)
            out = dft_forward(plan(n), z).tobytes() + hilbert_first(Signal(x)).samples.tobytes()
            print(hashlib.sha256(out).hexdigest())
            for b in Branch:
                rep = corollary_equivalence_report(Signal(x), b)
                print(f"{b.name}:{rep.c_fit!r}:{rep.residual_inf!r}")
    """)
    src = str(Path(dft.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = []
    exec(script, {"print": want.append})  # the same script in this process
    assert proc.stdout.split() == want


class TestFirstStageBlocks:
    """The first stage's transposed product runs in row blocks of at least
    dft._BLOCK values, so threaded OpenBLAS packs one block at a time."""

    @staticmethod
    def _first_products(monkeypatch, n):
        shapes, matmul = [], np.matmul

        def recorded(a, b, *args, **kwargs):
            if a.ndim == 2:  # the later stages' products are batched (3-d)
                shapes.append(a.shape)
            return matmul(a, b, *args, **kwargs)

        p = plan(n)
        x = np.random.default_rng(n).standard_normal(2 * n).view(np.complex128)
        monkeypatch.setattr(np, "matmul", recorded)
        dft_forward(p, x)
        monkeypatch.undo()
        return shapes

    @pytest.mark.parametrize("n", [1024, 32768, 50_000, 100_000, 1 << 17, 1 << 18])
    def test_blocks_hold_block_to_twice_block_values(self, monkeypatch, n):
        r = dft._radices(n)[0]
        shapes = self._first_products(monkeypatch, n)
        assert sum(rows for rows, _ in shapes) == n // r
        assert {cols for _, cols in shapes} == {r}
        if n < 2 * dft._BLOCK:
            assert len(shapes) == 1  # an operand under two blocks stays whole
        else:
            assert all(dft._BLOCK <= rows * r < 2 * dft._BLOCK + r for rows, _ in shapes)

    @pytest.mark.parametrize("n", [4096, 50_000, 100_000, 1 << 17, 5793, 262_142])
    def test_blocks_change_no_byte(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(2 * n).view(np.complex128)
        p = plan(n)
        blocked = dft_forward(p, x).tobytes() + dft_inverse(p, x).tobytes()
        monkeypatch.setattr(dft, "_BLOCK", 1 << 40)
        assert dft_forward(p, x).tobytes() + dft_inverse(p, x).tobytes() == blocked


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif(_cpus() < 2, reason="one CPU: OpenBLAS runs one thread")
@pytest.mark.parametrize("n", [1 << 20, pytest.param(1 << 22, marks=pytest.mark.slow)])
def test_a_second_blas_thread_adds_no_copy_of_the_transform(n):
    # tracemalloc does not see BLAS's packing buffers.  With the first
    # stage's product over the whole operand, a cold hilbert_first grew the
    # resident set by 59.6 MB on two OpenBLAS threads against 50.8 MB on one
    # at 2^20, and by 200.0 against 183.2 MB at 2^22; in row blocks the gap
    # is 0.7 and 0.6 MB
    setup = f"""
        import numpy as np
        from hxkit import Signal, hilbert_first
        f = Signal(np.random.default_rng(1).standard_normal({n}))
    """
    one, two = (rss_growth_mb("hilbert_first(f)", setup, threads) for threads in (1, 2))
    assert two - one <= 2.0, (one, two)


@pytest.mark.parametrize("n", [1 << 20, pytest.param(1 << 22, marks=pytest.mark.slow)])
def test_a_cold_first_form_keeps_one_work_row(n):
    # a cold hilbert_first leaves its half plan and roots cached and holds
    # one work row beside its spectrum or its result, never both; 4 MB of
    # slack covers the interpreter and BLAS.  With glibc's mmap threshold
    # held (rss_growth_mb), a second row of the half size grew the peak by
    # 51.2 MB at 2^20 and 183.0 MB at 2^22 (one BLAS thread); one row
    # grows it by 42.7 and 149.5 MB
    setup = f"""
        import numpy as np
        from hxkit import Signal, hilbert_first
        f = Signal(np.random.default_rng(1).standard_normal({n}))
    """
    tables = plan(n // 2).nbytes + dft._half_roots(n).nbytes
    row, output = 16 * (n // 2), 8 * n
    grown = rss_growth_mb("hilbert_first(f)", setup)
    assert grown <= (tables + row + output) / 1e6 + 4.0, grown


def test_warm_public_routes_take_no_page_faults():
    # every warm call reuses its size's cached work row, and the allocator
    # reuses the memory of the results it freed: no page is touched for
    # the first time.  A work row allocated per call took 511-2017 minor
    # faults per call at 2^18
    setup = """
        import numpy as np
        from hxkit import Branch, Signal, analytic_signal, hilbert_first, hilbert_second
        f = Signal(np.random.default_rng(1).standard_normal(1 << 18))
        calls = [lambda: hilbert_first(f), lambda: hilbert_second(f, Branch.PLUS),
                 lambda: hilbert_second(f, Branch.PLUS, halfband=True),
                 lambda: analytic_signal(f)]
        for _ in range(2):
            for call in calls:
                call()
    """
    snippet = """
        for _ in range(8):
            for call in calls:
                call()
    """
    assert minor_faults(snippet, setup) <= 32
