import importlib
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    DAWSON_AT_1,
    TWO_OVER_SQRT_PI,
    boundary_values,
    dawson,
    line_hilbert_gaussian,
    periodic_hilbert_kernel,
    periodized_line_hilbert_gaussian,
    spectral_oracle,
    unpacked_bins_reference,
)
from conftest import cached_bytes, table_arrays, traced_peak
from hxkit.dft import dft_direct_reference
from hxkit.errors import (
    DataError,
    DegenerateFitError,
    DomainError,
    InvalidSizeError,
    InvariantBreach,
    ResultOverflowError,
    SingularFrequencyError,
    SizeMismatchError,
)
from hxkit.hilbert import (
    Branch,
    Signal,
    analytic_signal,
    bin_frequencies,
    corollary_equivalence_report,
    hilbert_first,
    hilbert_second,
    hilbert_second_via_log_image,
    infinity_norm_log10,
    log_image,
    multiplier_bins,
)


def theta(n):
    return 2.0 * np.pi * np.arange(n) / n


def strip_dc_nyquist(v):
    # remove the two bins the classical multiplier annihilates
    v = v - v.mean()
    n = len(v)
    if n % 2 == 0:
        alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        v = v - alt * (v @ alt) / n
    return v


def seeded(seed, n):
    return np.random.default_rng(seed).normal(size=n)


class TestDawsonOracle:
    def test_frozen_value_at_one(self):
        assert abs(dawson(1.0) - DAWSON_AT_1) < 1e-10

    def test_cross_check_against_scipy(self):
        dawsn = pytest.importorskip("scipy.special").dawsn
        for x in (0.1, 0.5, 1.0, 2.0, 4.4, 4.5, 8.0, 19.9, 20.0, 25.0, 488.0):
            assert abs(dawson(x) - float(dawsn(x))) < 1e-7

    def test_oddness(self):
        assert dawson(-3.0) == -dawson(3.0)

    def test_line_transform_value(self):
        want = -TWO_OVER_SQRT_PI * DAWSON_AT_1
        assert abs(line_hilbert_gaussian(1.0) - want) < 1e-10


class TestMultiplierValues:
    def test_first_form_table(self):
        want = np.array([0, 1j, 1j, 1j, 0, -1j, -1j, -1j])
        assert np.array_equal(multiplier_bins(8), want)

    def test_second_form_plus(self):
        # -2i above DC, 0 below, -i at DC and Nyquist
        want = np.array([-1j, -2j, -2j, -2j, -1j, 0, 0, 0])
        assert np.array_equal(multiplier_bins(8, Branch.PLUS), want)

    def test_second_form_minus(self):
        want = np.array([1j, 0, 0, 0, 1j, 2j, 2j, 2j])
        assert np.array_equal(multiplier_bins(8, Branch.MINUS), want)

    def test_branch_accepts_strings(self):
        assert np.array_equal(multiplier_bins(8, "plus"), multiplier_bins(8, Branch.PLUS))
        assert np.array_equal(multiplier_bins(8, "minus"), multiplier_bins(8, Branch.MINUS))
        with pytest.raises(ValueError):
            multiplier_bins(8, "neither")

    # a DomainError is a ValueError, and the CLI exits 2 on either
    @pytest.mark.parametrize("bad", ["bogus", "PLUS", "", 1])
    def test_unknown_branch_is_a_domain_error_naming_both(self, bad):
        with pytest.raises(DomainError, match="branch must be 'plus' or 'minus'"):
            log_image(0.5, bad)
        with pytest.raises(DomainError, match=repr(bad)):
            hilbert_second(Signal(seeded(1, 8)), bad)

    def test_public_table_is_fresh_and_the_odd_first_form_does_not_read_it(self):
        # callers of the public function get their own writable array, and
        # writing it does not change the odd first form, which weighs its
        # spectrum by three scalars
        n = 3**5
        f = Signal(seeded(n, n))
        before = hilbert_first(f).samples
        m = multiplier_bins(n)
        assert m.flags.writeable
        m[:] = 0.0
        assert np.any(multiplier_bins(n))
        assert np.array_equal(hilbert_first(f).samples, before)

    def test_log_image_values(self):
        assert log_image(1.0, Branch.PLUS) == -1.0
        assert log_image(-1.0, Branch.PLUS) == 0.0
        assert log_image(2.0, Branch.MINUS) == 0.0
        assert log_image(-2.0, Branch.MINUS) == -0.5
        assert isinstance(log_image(0.25, Branch.PLUS), complex)
        s = np.array([1.0, -1.0, 0.25, -0.375, 3.0])
        for b in Branch:
            got = log_image(s, b)
            assert got.dtype == np.complex128 and got.shape == s.shape
            assert np.array_equal(got, [log_image(float(v), b) for v in s])

    def test_log_image_singular_at_dc(self):
        with pytest.raises(SingularFrequencyError):
            log_image(0.0, Branch.PLUS)
        with pytest.raises(SingularFrequencyError):
            log_image(np.array([0.5, 0.0, -0.25]), Branch.MINUS)

    def test_bin_frequencies_even(self):
        got = bin_frequencies(8)
        want = [0, 0.125, 0.25, 0.375, 0.5, -0.375, -0.25, -0.125]
        assert np.array_equal(got, want)

    def test_bin_frequencies_odd(self):
        assert np.array_equal(bin_frequencies(5), [0, 0.2, 0.4, -0.4, -0.2])

    @pytest.mark.parametrize("n", [0, -4, 4.0, 2.5, -3, True])
    def test_tables_take_the_plan_size_rule(self, n):
        # InvalidSizeError is a validation error: the CLI exits 2 on it
        with pytest.raises(InvalidSizeError, match="positive integer"):
            bin_frequencies(n)
        with pytest.raises(InvalidSizeError, match="positive integer"):
            multiplier_bins(n)

    def test_tables_take_numpy_integer_sizes(self):
        assert np.array_equal(bin_frequencies(np.int64(8)), bin_frequencies(8))
        for b in (None, Branch.PLUS, Branch.MINUS):
            assert np.array_equal(multiplier_bins(np.int64(8), b), multiplier_bins(8, b))


class TestSignal:
    def test_too_short(self):
        with pytest.raises(InvalidSizeError):
            Signal(np.array([1.0]))

    def test_non_finite(self):
        with pytest.raises(DataError):
            Signal(np.array([1.0, np.nan]))
        with pytest.raises(DataError):
            Signal(np.array([1.0, complex(0.0, np.inf)]))

    def test_bad_spacing(self):
        with pytest.raises(DataError):
            Signal(np.zeros(4), dx=0.0)

    @pytest.mark.parametrize("grid", [{"dx": math.inf}, {"dx": math.nan},
                                      {"x0": math.nan}, {"x0": math.inf}, {"x0": -math.inf}])
    def test_non_finite_grid(self, grid):
        with pytest.raises(DataError, match="finite"):
            Signal(np.zeros(4), **grid)

    def test_grid(self):
        s = Signal(np.zeros(4), x0=-1.0, dx=0.5)
        assert np.array_equal(s.grid, [-1.0, -0.5, 0.0, 0.5])


class TestHilbertFirst:
    def test_cosine_maps_to_negated_sine(self):
        th = theta(16)
        got = hilbert_first(Signal(np.cos(th))).samples
        assert np.abs(got - (-np.sin(th))).max() < 1e-12

    def test_sine_maps_to_cosine(self):
        th = theta(16)
        got = hilbert_first(Signal(np.sin(th))).samples
        assert np.abs(got - np.cos(th)).max() < 1e-12

    def test_constant_annihilated(self):
        got = hilbert_first(Signal(np.full(8, 3.25))).samples
        assert np.abs(got).max() < 1e-14

    def test_nyquist_annihilated(self):
        alt = np.where(np.arange(8) % 2 == 0, 2.0, -2.0)
        got = hilbert_first(Signal(3.0 + alt)).samples
        assert np.abs(got).max() < 1e-13

    def test_output_is_real_valued(self):
        out = hilbert_first(Signal(seeded(7, 64)))
        assert not np.iscomplexobj(out.samples)

    def test_complex_input_rejected(self):
        with pytest.raises(DataError):
            hilbert_first(Signal(np.array([1 + 1j, 2, 3, 4])))

    def test_complex_dtype_with_zero_imag_accepted(self):
        th = theta(16)
        got = hilbert_first(Signal(np.cos(th).astype(complex))).samples
        assert np.abs(got - (-np.sin(th))).max() < 1e-12


def public_outputs(f):
    """Every public transform of f (half-band at even length), and the
    equivalence reports' (c, residual)."""
    outs = [hilbert_first(f), analytic_signal(f)]
    for b in Branch:
        outs += [hilbert_second(f, b), hilbert_second_via_log_image(f, b)]
        if len(f) % 2 == 0:
            outs.append(hilbert_second(f, b, halfband=True))
    reports = [corollary_equivalence_report(f, b) for b in Branch]
    return [o.samples for o in outs], [(r.c_fit, r.residual_inf) for r in reports]


def output_bytes(f):
    outs, reports = public_outputs(f)
    return [o.tobytes() for o in outs], reports


class TestInputHandling:
    """Every route reads the caller's samples in place and writes none of
    them; input that is not one contiguous float64 array is copied to one."""

    @staticmethod
    def kinds(x):
        # float32 cannot hold a peak outside the window, so it runs inside only
        wide = np.empty(2 * len(x))
        wide[::2], wide[1::2] = x, -1.0
        kinds = {"contiguous": x, "strided": wide[::2], "complex": x + 0j}
        if 1e-30 < np.abs(x).max() < 1e30:
            kinds["float32"] = x.astype(np.float32)
        return kinds

    @pytest.mark.parametrize("scale", [1.0, 2.0**-600, 2.0**600], ids=["inside", "below", "above"])
    @pytest.mark.parametrize("n", [64, 63, 5794])
    def test_input_is_read_only_and_copied_when_not_contiguous_float64(self, n, scale):
        x = scale * seeded(n, n)
        for kind, v in self.kinds(x).items():
            before = v.tobytes()
            v.setflags(write=False)  # a route that wrote into it would raise
            got = output_bytes(Signal(v))
            assert v.tobytes() == before, kind
            want = output_bytes(Signal(np.ascontiguousarray(v.real, dtype=np.float64)))
            assert got == want, kind


def gaussian_signal(n=4096, half=8.0):
    dx = 2.0 * half / n
    x = -half + dx * np.arange(n)
    return Signal(np.exp(-x * x), x0=-half, dx=dx)


class TestGaussianAgainstOracle:
    """The circular transform converges to the periodized line transform.

    The pointwise gap to the *whole-line* closed form -(2/sqrt(pi))*D(x) is
    a property of periodization, not an implementation error; it is pinned
    here at x = 1 so a regression in either direction gets noticed.
    """

    def test_matches_periodized_oracle(self):
        f = gaussian_signal()
        got = hilbert_first(f).samples
        for xv in (-8.0, -5.0, -1.0, -0.25, 0.5, 1.0, 2.0, 3.0, 7.0):
            j = int(round((xv - f.x0) / f.dx))
            want = periodized_line_hilbert_gaussian(xv, 16.0)
            assert abs(got[j] - want) < 1e-6, f"x={xv}"

    def test_frozen_value_at_one(self):
        f = gaussian_signal()
        j = int(round((1.0 - f.x0) / f.dx))
        assert abs(hilbert_first(f).samples[j] - (-0.5998600101)) < 1e-6

    def test_periodization_gap_at_one(self):
        f = gaussian_signal()
        j = int(round((1.0 - f.x0) / f.dx))
        gap = abs(hilbert_first(f).samples[j] - line_hilbert_gaussian(1.0))
        assert 6e-3 < gap < 9e-3


class TestHilbertSecond:
    def test_cosine_plus(self):
        th = theta(16)
        got = hilbert_second(Signal(np.cos(th)), Branch.PLUS).samples
        assert np.abs(got - (np.sin(th) - 1j * np.cos(th))).max() < 1e-12
        assert np.abs(got - (-1j * np.exp(1j * th))).max() < 1e-12

    def test_sine_plus(self):
        th = theta(16)
        got = hilbert_second(Signal(np.sin(th)), Branch.PLUS).samples
        assert np.abs(got - (-np.cos(th) - 1j * np.sin(th))).max() < 1e-12

    def test_constant_dc_weight(self):
        got = hilbert_second(Signal(np.full(8, 2.5)), Branch.PLUS).samples
        assert np.abs(got - (-2.5j)).max() < 1e-14
        got = hilbert_second(Signal(np.full(8, 2.5)), Branch.MINUS).samples
        assert np.abs(got - (+2.5j)).max() < 1e-14

    def test_real_and_imag_parts_recover_first_form(self):
        # Re H2+ = -H f and Im H2+ = -f, bin-exact, DC and Nyquist included
        x = seeded(3, 64)
        f = Signal(x)
        h2 = hilbert_second(f, Branch.PLUS).samples
        h1 = hilbert_first(f).samples
        peak = np.abs(x).max()
        assert np.abs(h2.real + h1).max() < 1e-12 * peak
        assert np.abs(h2.imag + x).max() < 1e-12 * peak

    def test_branch_conjugacy(self):
        f = Signal(seeded(4, 48))
        plus = hilbert_second(f, Branch.PLUS).samples
        minus = hilbert_second(f, Branch.MINUS).samples
        assert np.abs(minus - np.conj(plus)).max() < 1e-13 * np.abs(plus).max()

    def test_halfband_matches_full(self):
        for n in (16, 64, 1024):
            f = Signal(seeded(n, n))
            for b in (Branch.PLUS, Branch.MINUS):
                full = hilbert_second(f, b).samples
                fast = hilbert_second(f, b, halfband=True).samples
                assert np.abs(full - fast).max() < 1e-12 * np.abs(full).max()

    def test_halfband_with_bluestein_half_plan_matches_oracle(self):
        # 1009 is prime, so both half inverses run Bluestein in place
        n = 2 * 1009
        x = seeded(n, n)
        got = hilbert_second(Signal(x), Branch.PLUS, halfband=True).samples
        assert np.abs(got - spectral_oracle(x, Branch.PLUS)).max() <= 1e-13 * np.abs(x).max()

    def test_halfband_needs_even_length(self):
        with pytest.raises(InvalidSizeError):
            hilbert_second(Signal(seeded(0, 15)), Branch.PLUS, halfband=True)

    @pytest.mark.parametrize("n", [1 << 16, 5794])
    def test_warmed_halfband_peak_memory(self, n):
        # the route builds bins 0..N/2 of the one-sided spectrum only; with a
        # zero-filled length-N spectrum the peak was 2.75x the output, 2.00x
        # with a scaled copy of the input as the unpack's scratch, and it is
        # 1.50x reading the input in place with a workspace row as scratch;
        # 5794 has a Bluestein half plan, whose inverses' inputs are built
        # in the pad's workspace row (1.53x)
        f = Signal(seeded(n, n))

        def call():
            return hilbert_second(f, Branch.PLUS, halfband=True).samples

        out, peak = traced_peak(call)
        assert peak <= 1.75 * out.nbytes

    @pytest.mark.parametrize("route, n", [("second", 1 << 16), ("second", 3**7),
                                          ("analytic", 1 << 16)])
    def test_warmed_complex_output_peak_memory(self, route, n):
        # the complex output is allocated only once the first form has
        # returned, so it never sits beside the first form's scratch arrays;
        # allocated before the first form, the second form peaked at 2.00x
        # the output at 2^16 and 2.54x at 3^7; 1.56x and 1.61x after, with a
        # scaled copy of the input and a finite check of the output; 1.50x
        # and 1.52x with neither
        f = Signal(seeded(n, n))

        def call():
            if route == "analytic":
                return analytic_signal(f).samples
            return hilbert_second(f, Branch.MINUS).samples

        out, peak = traced_peak(call)
        assert peak <= 1.55 * out.nbytes

    # 5794 has a Bluestein half plan, 2^15 a half plan of three stages
    @pytest.mark.parametrize("n", [64, 5794, 1 << 15])
    def test_halfband_bins_are_the_multiplier_table_product(self, monkeypatch, n):
        # the route multiplies the unpacked bins 0..N/2 in place by the two
        # values of the plus-branch table, -2i and -i, which must give the
        # table product bit for bit, against an unpack written as
        # whole-array passes.  Constant, alternating and zero signals give
        # zero bins of either sign.  Peaks in [1/2, 1) leave the signals
        # unscaled
        import hxkit.hilbert as hilbert

        seen = []
        inverse = hilbert.dft_inverse_halfband

        def captured(p, bins):
            seen.append(bins.copy())
            return inverse(p, bins)

        monkeypatch.setattr(hilbert, "dft_inverse_halfband", captured)
        x = seeded(n, n)
        for sig in (0.75 * x / np.abs(x).max(), np.full(n, 0.5), np.full(n, -0.5),
                    0.5 * (-1.0) ** np.arange(n), np.zeros(n), np.eye(1, n, 3)[0] * 0.5):
            hilbert_second(Signal(sig), Branch.PLUS, halfband=True)
            bins = unpacked_bins_reference(hilbert._packed_forward(sig.copy()),
                                           hilbert._table("roots", n, hilbert._half_roots))
            want = bins * multiplier_bins(n, Branch.PLUS)[: n // 2 + 1]
            assert seen[-1].tobytes() == want.tobytes()


class TestChunks:
    """The even routes' element-wise passes (the first-form repack, the
    half-band bins and the complex assembly) run in spans of dft._CHUNK
    bins, each element with the same float operations in the same order,
    so no output depends on the span length."""

    ROUTES = {
        "first": hilbert_first,
        "analytic": analytic_signal,
        "second-plus": lambda f: hilbert_second(f, Branch.PLUS),
        "second-minus": lambda f: hilbert_second(f, Branch.MINUS),
        "halfband-plus": lambda f: hilbert_second(f, Branch.PLUS, halfband=True),
        "halfband-minus": lambda f: hilbert_second(f, Branch.MINUS, halfband=True),
    }

    @staticmethod
    def signals(n):
        impulse = np.zeros(n)
        impulse[n // 3] = 1.0
        return (seeded(n, n), np.full(n, 0.5), (-1.0) ** np.arange(n), np.zeros(n), impulse)

    # 5794 has a Bluestein half plan, 2^15 a half plan of three stages;
    # spans of 3, 5 and 1000 bins put span edges at many offsets, and at an
    # even N/2 the last mirrored span is one bin shorter than its lower one
    @pytest.mark.parametrize("n, spans", [(8, (3, 5)), (64, (3, 5)), (2018, (3, 5, 1000)),
                                          (5794, (3, 5, 1000)),
                                          pytest.param(1 << 15, (3, 5, 1000),
                                                       marks=pytest.mark.slow),
                                          (100_000, ()), (1 << 18, ())])
    def test_span_length_changes_no_byte(self, monkeypatch, n, spans):
        dft = importlib.import_module("hxkit.dft")
        fs = [Signal(x) for x in self.signals(n)]

        def outputs():
            return [route(f).samples.tobytes() for route in self.ROUTES.values() for f in fs]

        want = outputs()
        for chunk in (1 << 40, *spans):  # one span, as whole-array passes
            monkeypatch.setattr(dft, "_CHUNK", chunk)
            assert outputs() == want, chunk

    def test_spans_cover_the_range_and_mirror_the_repack_bins(self, monkeypatch):
        import hxkit.hilbert as hilbert

        dft = importlib.import_module("hxkit.dft")
        monkeypatch.setattr(dft, "_CHUNK", 3)
        assert dft._chunks(2, 12) == [(2, 5), (5, 8), (8, 12)]  # no one-bin span
        assert dft._chunks(0, 5) == [(0, 5)]
        for nh in (1, 2, 3, 4, 5, 8, 9, 16, 17):
            groups = hilbert._mirrored_chunks(nh)
            bins = [k for spans in groups for a, b in spans for k in range(a, b)]
            assert sorted(bins) == list(range(1, nh)), nh  # each bin once
            for spans in groups:
                group = {k for a, b in spans for k in range(a, b)}
                assert group == {nh - k for k in group}, (nh, spans)
        assert hilbert._mirrored_chunks(4) == [[(1, 4)]]  # one chunk: one span


class TestTraceBoundary:
    """perfbench/spans.py times the dft layer by rebinding these imported
    names in the calling modules, so the calls must go through them."""

    NAMES = ("plan", "dft_forward", "dft_inverse", "dft_inverse_halfband")

    @pytest.mark.parametrize("module", ["hxkit.hilbert", "hxkit.bench"])
    def test_dft_names_are_module_attributes(self, module):
        dft = importlib.import_module("hxkit.dft")
        mod = importlib.import_module(module)
        for name in self.NAMES:
            assert getattr(mod, name) is getattr(dft, name)

    def test_halfband_route_calls_the_bound_inverse_once(self, monkeypatch):
        import hxkit.hilbert as hilbert

        n = 1024
        f = Signal(seeded(n, n))
        want = hilbert_second(f, Branch.PLUS, halfband=True).samples  # warms the plans
        lengths = []
        inverse = hilbert.dft_inverse_halfband

        def counted(p, bins):
            lengths.append(len(bins))
            return inverse(p, bins)

        monkeypatch.setattr(hilbert, "dft_inverse_halfband", counted)
        got = hilbert_second(f, Branch.PLUS, halfband=True).samples
        assert lengths == [n // 2 + 1]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("route", ["first", "second", "analytic"])
    def test_warmed_even_call_runs_one_forward_and_one_inverse(self, monkeypatch, route):
        import hxkit.hilbert as hilbert

        n = 1024
        f = Signal(seeded(n, n))
        call = {"first": lambda: hilbert_first(f), "analytic": lambda: analytic_signal(f),
                "second": lambda: hilbert_second(f, Branch.MINUS)}[route]
        want = call().samples
        names = []
        for name in ("dft_forward", "dft_inverse"):
            bound = getattr(hilbert, name)
            monkeypatch.setattr(hilbert, name, lambda p, x, name=name, bound=bound:
                                names.append(name) or bound(p, x))
        got = call().samples
        assert sorted(names) == ["dft_forward", "dft_inverse"]
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def count_plans(monkeypatch):
        import hxkit.hilbert as hilbert

        built, bound = [], hilbert.plan
        monkeypatch.setattr(hilbert, "plan", lambda n: built.append(n) or bound(n))
        return built

    # the cache is keyed by the string "plan", not by the builder, so the
    # rebound name builds a plan on a miss and finds it on every later hit
    @pytest.mark.parametrize("n", [3000, 3001])
    def test_cold_call_builds_its_plan_once_through_the_bound_name(self, monkeypatch,
                                                                    fresh_tables, n):
        built = self.count_plans(monkeypatch)
        hilbert_first(Signal(seeded(n, n)))
        assert built == [n // 2 if n % 2 == 0 else n]

    def test_first_form_tables_fit_a_budget_of_plan_and_weights(self, monkeypatch,
                                                                 fresh_tables):
        # the first form reads its half plan and one roots table; when it
        # also cached pack twiddles, a budget short of them pushed the half
        # plan out: a cold call built it twice, and every warm call once more
        dft = importlib.import_module("hxkit.dft")
        n = 1 << 16
        budget = dft.plan(n // 2).nbytes + dft._half_roots(n).nbytes
        monkeypatch.setattr(dft, "_TABLE_BUDGET", budget)
        built = self.count_plans(monkeypatch)
        f = Signal(seeded(n, n))
        hilbert_first(f)
        assert built == [n // 2]
        hilbert_first(f)
        assert built == [n // 2]

    @pytest.mark.parametrize("route", ["first", "halfband"])
    def test_calls_past_the_budget_build_their_plan_once(self, monkeypatch, fresh_tables,
                                                         route):
        # when one call's tables exceed the budget, none of them goes: each
        # warm call used to evict its own half plan and build it again
        dft = importlib.import_module("hxkit.dft")
        n = 1 << 16
        budget = dft.plan(n // 2).nbytes + dft._half_roots(n).nbytes - 1
        monkeypatch.setattr(dft, "_TABLE_BUDGET", budget)
        built = self.count_plans(monkeypatch)
        f = Signal(seeded(n, n))
        for _ in range(5):
            if route == "first":
                hilbert_first(f)
            else:
                hilbert_second(f, Branch.PLUS, halfband=True)
        assert built == [n // 2]
        assert dft._table_bytes > budget

    def test_calls_past_the_budget_drop_the_other_sizes_tables(self, monkeypatch,
                                                              fresh_tables):
        # alternating an even and an odd size, each past the budget on its
        # own: each call leaves its own tables and none of the other's
        dft = importlib.import_module("hxkit.dft")
        monkeypatch.setattr(dft, "_TABLE_BUDGET", 1)
        n = 1 << 12
        for _ in range(2):
            hilbert_first(Signal(seeded(n, n)))
            assert set(fresh_tables) == {("plan", n // 2), ("roots", n)}
            hilbert_first(Signal(seeded(n + 1, n + 1)))
            assert set(fresh_tables) == {("plan", n + 1)}

    def test_warm_calls_at_2_20_build_no_plan(self, monkeypatch, fresh_tables):
        n = 1 << 20
        f = Signal(seeded(n, n))
        calls = [lambda: hilbert_first(f), lambda: analytic_signal(f),
                 lambda: hilbert_second(f, Branch.MINUS),
                 lambda: hilbert_second(f, Branch.PLUS, halfband=True)]
        for call in calls:
            call()
        built = self.count_plans(monkeypatch)
        for call in calls:
            call()
        assert built == []


class TestTableCache:
    """Plans and roots of unity come from the one byte-bounded table cache
    in dft, shared by every thread."""

    def test_every_table_the_cache_holds_is_read_only(self, fresh_tables):
        for n in (64, 63, 5794, 5793):  # Stockham and Bluestein, even and odd
            f = Signal(seeded(n, n))
            hilbert_first(f)
            analytic_signal(f)
            hilbert_second(f, Branch.MINUS)
            if n % 2 == 0:
                hilbert_second(f, Branch.PLUS, halfband=True)
        kinds = {kind for kind, _ in fresh_tables}
        assert kinds == {"plan", "roots"}
        for table in fresh_tables.values():
            assert all(not a.flags.writeable for a in table_arrays(table))

    def test_two_threads_on_different_sizes_match_one_thread(self, fresh_tables,
                                                             monkeypatch):
        dft = importlib.import_module("hxkit.dft")
        pairs = ((4096, 3**7), (5794, 1 << 14))

        def run(n):
            f = Signal(seeded(n, n))
            outs = [hilbert_first(f), analytic_signal(f), hilbert_second(f, Branch.MINUS)]
            if n % 2 == 0:
                outs.append(hilbert_second(f, Branch.PLUS, halfband=True))
            return [o.samples.tobytes() for o in outs]

        # a budget below the tables of two sizes: each call evicts and
        # rebuilds tables, in the threads while the other reads its own
        monkeypatch.setattr(dft, "_TABLE_BUDGET", 1 << 18)
        want = {n: run(n) for pair in pairs for n in pair}
        mismatches, errors = [], []
        start = threading.Barrier(2, timeout=30)

        def worker(pair):
            try:
                start.wait()
                for i in range(20):
                    n = pair[i % 2]
                    if run(n) != want[n]:
                        mismatches.append(n)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(pair,)) for pair in pairs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors and not mismatches
        assert dft._table_bytes == sum(t.nbytes for t in fresh_tables.values())
        if dft._table_bytes > dft._TABLE_BUDGET:  # only the newest call's sizes stay
            n = next(reversed(fresh_tables))[1]
            assert all(k[1] in (n, 2 * n) or 2 * k[1] == n for k in fresh_tables)

    @pytest.mark.slow
    def test_forty_sizes_near_2_19_keep_the_tables_within_the_budget(self, cold):
        # with one entry-count-bounded cache per kind, 33 sizes from 2^18 to
        # 393 660 held 153 MB of half-length plans alone
        dft = importlib.import_module("hxkit.dft")
        smooth = (2**a * 3**b * 5**c for a in range(1, 21) for b in range(13) for c in range(9))
        sizes = sorted(smooth, key=lambda n: abs(math.log2(n) - 19))[:40]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n in sizes:
                hilbert_first(Signal(np.random.default_rng(n).standard_normal(n)))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        held -= sum(b.nbytes for b in dft._WORKSPACE.buffers.values())
        newest = next(reversed(cold.values())).nbytes
        assert dft._table_bytes == sum(t.nbytes for t in cold.values())
        assert dft._table_bytes <= dft._TABLE_BUDGET
        assert ("plan", sizes[0] // 2) not in cold  # the first went
        # what the loop left allocated, less the workspace's rows: the
        # tables, and at most 1 MiB of Python objects
        assert held <= dft._TABLE_BUDGET + newest + (1 << 20), (held, dft._table_bytes)


class TestImpulseOracle:
    """H of a unit impulse at j is the periodic kernel shifted by j, a
    closed form that costs O(N) at any size (:func:`periodic_hilbert_kernel`)."""

    @pytest.mark.parametrize("n", [8, 7])
    def test_kernel_is_the_inverse_transform_of_the_multiplier(self, n):
        want = dft_direct_reference(multiplier_bins(n), "inverse")
        assert np.abs(want.imag).max() <= 1e-15
        assert np.abs(periodic_hilbert_kernel(n) - want.real).max() <= 1e-15

    # relative L2 error <= C * eps * log2 N; the worst reading was 0.43 (2.58
    # eps at N = 63, a Bluestein size), so C = 1 leaves a margin of 2.3x.
    # Scaling a Bluestein plan's chirp spectrum by 1 - 32 eps puts those
    # sizes about 64 eps off, past this budget
    C = 1.0

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="np.longdouble is float64 on this platform, so the kernel "
                               "would be no more exact than the transform under test")
    @pytest.mark.parametrize("n", [64, 1 << 15, 3**7, 1 << 18, 100_000,
                                   63, 1009, 5793, 100_003])  # the last four Bluestein
    def test_first_form_of_an_impulse_is_the_shifted_kernel(self, n):
        h = periodic_hilbert_kernel(n)
        budget = self.C * np.finfo(np.float64).eps * math.log2(n)
        for j in (0, 1, n // 3, n - 1):
            x = np.zeros(n)
            x[j] = 1.0
            err = hilbert_first(Signal(x)).samples - np.roll(h, j)
            rel = float(np.sqrt(np.sum(err * err) / np.sum(h * h)))
            assert rel <= budget, (j, rel / np.finfo(np.float64).eps)

    # the second form of an impulse at j is -roll(h, j) -/+ i*delta_j.  The
    # default route is assembled from hilbert_first's bits, so only the two
    # routes with transforms of their own need a case: the half-band one at
    # even N, and the log-image one.  The worst reading was 0.60 (log-image
    # route, minus branch, N = 63) and 0.47 on the half-band route (N = 5794,
    # a Bluestein half plan), both within the same C = 1 budget
    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="np.longdouble is float64 on this platform, so the kernel "
                               "would be no more exact than the transform under test")
    @pytest.mark.parametrize("n", [64, 1 << 15, 3**7, 1 << 18, 100_000, 5794,
                                   63, 1009, 5793, 100_003])  # the last four Bluestein
    def test_second_form_of_an_impulse_is_the_shifted_kernel(self, n):
        h = periodic_hilbert_kernel(n)
        budget = self.C * np.finfo(np.float64).eps * math.log2(n)
        routes = {"log image": hilbert_second_via_log_image}
        if n % 2 == 0:
            routes["half-band"] = lambda f, b: hilbert_second(f, b, halfband=True)
        for j in (0, 1, n // 3, n - 1):
            x = np.zeros(n)
            x[j] = 1.0
            for b in Branch:
                want = -np.roll(h, j).astype(np.clongdouble)
                want[j] -= 1j * b.sign
                for name, route in routes.items():
                    err = route(Signal(x), b).samples - want
                    rel = float(np.sqrt(np.sum(np.abs(err) ** 2) / np.sum(np.abs(want) ** 2)))
                    assert rel <= budget, (name, b, j, rel / np.finfo(np.float64).eps)


class TestBoundaryValueOracle:
    """Re and Im of f = exp(a*z) on the unit circle are a periodic Hilbert
    pair (:func:`boundary_values`): with vbar the sample mean of v = Im f,
    H u = -(v - vbar), the analytic signal of u is g = f - i*vbar, the
    plus-branch second form is -i*g and the minus branch its conjugate,
    up to aliasing, a closed form at any size with no DFT inside."""

    # relative L2 error <= C * eps * log2 N; the worst reading was 0.60
    # (the log-image route at N = 63, a = 3), so C = 1 leaves a margin of
    # 1.7x.  Aliasing, the Taylor tail sum_{k >= N/2} |a|^k/k!, exceeds the
    # budget below N = 39 at a = 1.3+0.4i and below N = 52 at a = 3; at
    # N <= 31 it reads 10^3 to 10^17 times the budget, so no size there
    # can be pinned.  Scaling a Bluestein plan's chirp spectrum by 1 - 32 eps
    # puts 63, 127, 1009, 5793 and 5794 5 to 11 times past it
    C = 1.0

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="np.longdouble is float64 on this platform, so the boundary "
                               "values would be no more exact than the transforms under test")
    @pytest.mark.parametrize("a", [1.3 + 0.4j, 3.0])
    @pytest.mark.parametrize("n", [63, 64, 127, 1009, 2187, 4096, 100_000,
                                   5793, 5794])  # the last Bluestein, and a Bluestein half plan
    def test_every_periodic_route_meets_the_boundary_values(self, n, a):
        u, f, vbar = boundary_values(a, n)
        g = f - 1j * vbar
        u = Signal(u)
        cases = [("first", hilbert_first(u).samples, -g.imag),
                 ("analytic", analytic_signal(u).samples, g)]
        for b in Branch:
            want = -1j * g if b is Branch.PLUS else np.conjugate(-1j * g)
            cases.append((f"second {b.value}", hilbert_second(u, b).samples, want))
            cases.append((f"log image {b.value}",
                          hilbert_second_via_log_image(u, b).samples, want))
            if n % 2 == 0:
                cases.append((f"half-band {b.value}",
                              hilbert_second(u, b, halfband=True).samples, want))
        budget = self.C * np.finfo(np.float64).eps * math.log2(n)
        for name, got, want in cases:
            err = got - want
            rel = float(np.sqrt(np.sum(np.abs(err) ** 2) / np.sum(np.abs(want) ** 2)))
            assert rel <= budget, (name, rel / np.finfo(np.float64).eps)


class TestPackedPath:
    """Even lengths run half-length transforms; the length-N pipeline is the oracle.

    The second form is -H f -/+ i*f at every length, odd lengths included.
    """

    @pytest.mark.parametrize("n", [2, 4, 6, 10, 100, 1024, 5794, 100_000, 1 << 18])
    def test_matches_spectral_oracle(self, n):
        x = seeded(n, n)
        f = Signal(x)
        tol = 1e-13 * np.abs(x).max()
        h = spectral_oracle(x)
        assert np.abs(hilbert_first(f).samples - h).max() <= tol
        for b in Branch:
            assert np.abs(hilbert_second(f, b).samples - spectral_oracle(x, b)).max() <= tol
        assert np.abs(analytic_signal(f).samples - (x - 1j * h)).max() <= tol

    @pytest.mark.parametrize("n", [2, 3, 6, 63, 64, 100, 5793, 5794])
    def test_second_form_identities_are_bit_exact(self, n):
        x = seeded(n + 1, n)
        f = Signal(x)
        h1 = hilbert_first(f).samples
        for b in Branch:
            z = hilbert_second(f, b).samples
            assert np.array_equal(z.real, -h1)
            assert np.array_equal(z.imag, -b.sign * x)

    @pytest.mark.parametrize("n", [2, 4, 8, 64, 1000, 5794, 100_000, 1 << 16])
    def test_first_form_weights_are_the_multiplier_derivation_bit_for_bit(self, n):
        # alpha = (m1+m2)/2 + (m1-m2)*Re t = i*a and beta = -i*(m1-m2)*Im t = b,
        # with m = multiplier_bins(n) and the unpack twiddles t = -(i/2)*w^k,
        # w = exp(-2*pi*i/n), for 0 < k < n/2; the repack reads a and b off
        # the cached roots c = exp(+2*pi*i*k/n) as a = -Im c and b = -Re c
        dft = importlib.import_module("hxkit.dft")
        nh = n // 2
        m = multiplier_bins(n)[: nh + 1]
        lo, hi = m.imag[:nh], m.imag[nh:0:-1]  # m1 = i*lo, m2 = -i*hi
        t = -0.5j * dft._unit_roots(np.arange(nh), n)
        want = np.stack((0.5 * (lo - hi) + (lo + hi) * t.real, (lo + hi) * t.imag))
        assert not np.any(m.real)
        c = dft._table("roots", n, dft._half_roots)[1:nh]
        assert np.stack((-c.imag, -c.real)).tobytes() == want[:, 1:].tobytes()

    @pytest.mark.parametrize("n", [1 << 16, 5794])
    def test_warmed_even_first_form_peak_memory(self, n):
        # the spectrum is repacked into a workspace row and freed before the
        # output is allocated: 1.00x the output at 2^16, against 2.00x with
        # the product repacked into a scaled copy of the input
        f = Signal(seeded(n, n))
        out, peak = traced_peak(lambda: hilbert_first(f).samples)
        assert peak <= 1.25 * out.nbytes

    def test_residue_check_guards_the_odd_path(self, monkeypatch):
        import hxkit.hilbert as hilbert

        full_length = hilbert._full_length
        monkeypatch.setattr(hilbert, "_full_length", lambda x, m: full_length(x, m) + 1e-9j)
        with pytest.raises(InvariantBreach):
            hilbert_first(Signal(seeded(0, 63)))
        hilbert_first(Signal(seeded(0, 64)))  # real by construction: nothing to check

    @pytest.mark.parametrize("n", [63, 3**7, 3**11, 5793, 100_003])
    def test_odd_first_form_is_the_multiplier_table_product(self, n):
        # the odd first form weighs its spectrum by three scalars in place
        # of the table; its output keeps the table product's bits, signed
        # zeros included (constant, alternating and impulse signals give
        # zero parts)
        dft = importlib.import_module("hxkit.dft")
        p = dft.plan(n)
        x = seeded(n, n)
        for sig in (0.75 * x / np.abs(x).max(), np.full(n, 0.5), np.full(n, -0.5),
                    0.5 * (-1.0) ** np.arange(n), np.zeros(n), np.eye(1, n, 3)[0] * 0.5):
            want = dft.dft_inverse(p, dft.dft_forward(p, sig) * multiplier_bins(n)).real
            assert hilbert_first(Signal(sig)).samples.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [3**11, 3**7])  # four stages and three
    def test_odd_first_form_inverse_reads_its_product_in_place(self, monkeypatch, n):
        # the product is written where the inverse's first stage does not
        # write: the work row at an even stage count, the spectrum at an
        # odd one.  So only the forward copies its input, to widen the
        # real samples; formed in the spectrum at every count, the product
        # was copied into the row at 3^11
        dft = importlib.import_module("hxkit.dft")
        stockham, copies = dft._stockham, []

        def spy(x, stages, out, partner):
            first = out if len(stages) % 2 else partner  # the first stage's output
            copies.append(x.dtype != np.complex128 or not x.flags.c_contiguous
                          or np.may_share_memory(x, first))
            return stockham(x, stages, out, partner)

        monkeypatch.setattr(dft, "_stockham", spy)
        hilbert_first(Signal(seeded(n, n)))
        assert copies == [True, False]

    @pytest.mark.parametrize("n", [3**11, 5**7, 100_003])  # the last Bluestein
    def test_warmed_odd_length_peak_memory(self, n):
        # the odd first form runs the length-N pipeline.  Its spectrum
        # costs 2x the output; with the real input widened in a temporary,
        # the inverse run into a new array and the real part copied out,
        # the peak was 7.19x the output at 3^11, 5.19x without them, 3.15x
        # with the multiplier table cached and 3.00x with a new array for
        # the real part beside the spectrum.  The real part now goes into
        # the spare work row, and the spectrum is freed before the result
        # is copied out: 2.00x
        f = Signal(seeded(n, n))

        def call():
            return hilbert_first(f).samples

        out, peak = traced_peak(call)
        assert peak <= 2.25 * out.nbytes

    @pytest.mark.parametrize("k", [997, -997])  # peaks near 1e300 and 1e-300
    def test_scaled_odd_length_keeps_one_copy_beside_its_spectrum(self, k):
        # outside the window the odd first form runs on a scaled copy of
        # the input, which lives until the call returns: 3.00x the output,
        # the copy beside the spectrum, against 4.00x with a new array for
        # the real part beside both.  The output stays 2^k times the
        # unit-scale one, bit for bit
        n = 3**11
        x = seeded(n, n)
        x *= 0.75 / np.abs(x).max()
        f = Signal(np.ldexp(x, k))
        out, peak = traced_peak(lambda: hilbert_first(f).samples)
        assert peak <= 3.05 * out.nbytes
        assert out.tobytes() == np.ldexp(hilbert_first(Signal(x)).samples, k).tobytes()


class TestColdCalls:
    """A first call at a new size builds its tables before its working arrays."""

    @pytest.mark.parametrize("route, n", [(route, n) for route in
                                          ("first", "second", "halfband", "analytic")
                                          for n in (1 << 16, 1 << 18, 5794)]
                             + [("first", 100_003)])
    def test_a_cold_call_allocates_only_its_cache_beyond_its_warm_peak(self, cold, route, n):
        # the cold peak, less the tables and workspace the call leaves
        # cached and less its warm peak.  With the even roots built inside
        # the repack through a complex exp, beside the spectrum and both
        # workspace rows, the first form's excess was 1.51-1.64x the output,
        # the half-band route's 0.26-0.32x; with a Bluestein plan's padded
        # chirp in a fresh array, 2.07x at 100 003.  Now at most 0.18x
        f = Signal(seeded(n, n))
        call = {"first": lambda: hilbert_first(f).samples,
                "second": lambda: hilbert_second(f, Branch.MINUS).samples,
                "halfband": lambda: hilbert_second(f, Branch.PLUS, halfband=True).samples,
                "analytic": lambda: analytic_signal(f).samples}[route]
        out, cold_peak = traced_peak(call, warm=False)
        held = cached_bytes()
        del out
        out, warm_peak = traced_peak(call, warm=False)
        assert held == cached_bytes()  # the second call was warm
        excess = cold_peak - held - warm_peak
        assert excess <= 0.2 * out.nbytes, excess / out.nbytes


def ldexp_any(a, k):
    """a * 2**k for real or complex arrays."""
    return np.ldexp(a.view(np.float64), k).view(a.dtype)


class TestMagnitudeRange:
    """Signals are scaled to a unit peak by a power of two before transforming."""

    @pytest.mark.parametrize("peak", [1e-300, 1e300, 1e305, 1e307])
    @pytest.mark.parametrize("n", [3, 6, 1024, 5793, 100_000])
    def test_extreme_peaks_match_unit_scale(self, peak, n):
        x = seeded(n, n)
        x /= np.abs(x).max()
        big, unit = Signal(peak * x), Signal(x)
        pairs = [
            (hilbert_first(big), hilbert_first(unit)),
            (analytic_signal(big), analytic_signal(unit)),
            *((hilbert_second(big, b), hilbert_second(unit, b)) for b in Branch),
        ]
        if n % 2 == 0:
            pairs.append((hilbert_second(big, Branch.PLUS, halfband=True),
                          hilbert_second(unit, Branch.PLUS, halfband=True)))
        for got, want in pairs:
            assert np.all(np.isfinite(got.samples))
            assert np.abs(got.samples / peak - want.samples).max() <= 1e-13 * np.abs(want.samples).max()

    @pytest.mark.parametrize("n", [64, 63, 5794])
    def test_power_of_two_identity_across_the_window_edges(self, n):
        # peaks in [2^(k-1), 2^k) with |k| <= 512 run unscaled, the others
        # at unit scale; both give 2^k times the unit-peak result, bit for bit
        x = seeded(n, n)
        x *= 0.75 / np.abs(x).max()
        unit, unit_reports = public_outputs(Signal(x))
        for k in (-514, -513, -512, -511, -1, 1, 511, 512, 513, 514):
            got, reports = output_bytes(Signal(np.ldexp(x, k)))
            assert got == [ldexp_any(a, k).tobytes() for a in unit], k
            assert reports == [(c, math.ldexp(r, k)) for c, r in unit_reports], k

    @pytest.mark.parametrize("peak", [1e-300, 1e300, 1e305, 1e307])
    @pytest.mark.parametrize("n", [63, 100, 1024])
    def test_log_image_route_matches_unit_scale(self, peak, n):
        x = seeded(n, n)
        x /= np.abs(x).max()
        for b in Branch:
            got = hilbert_second_via_log_image(Signal(peak * x), b).samples
            want = hilbert_second_via_log_image(Signal(x), b).samples
            assert np.all(np.isfinite(got))
            assert np.abs(got / peak - want).max() <= 1e-15 * np.abs(want).max()

    def test_result_beyond_float64_range_is_not_bad_data(self):
        # H of a unit square wave peaks at 5.4 next to its jumps (n = 4096),
        # so at amplitude 1.7e308 the result is past the largest float64
        n = 4096
        f = Signal(np.where(np.arange(n) < n // 2, 1.7e308, -1.7e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResultOverflowError, match="float64 range"):
                hilbert_first(f)

    @pytest.mark.parametrize("n", [6, 7])
    def test_zero_signal_gives_zeros(self, n):
        f = Signal(np.zeros(n))
        outs = [hilbert_first(f), analytic_signal(f), hilbert_second(f, Branch.MINUS)]
        if n % 2 == 0:
            outs.append(hilbert_second(f, Branch.PLUS, halfband=True))
        for out in outs:
            assert not np.any(out.samples)


class TestRouteB:
    def test_cosine_matches_route_a(self):
        th = theta(16)
        f = Signal(np.cos(th))
        a = hilbert_second(f, Branch.PLUS).samples
        b = hilbert_second_via_log_image(f, Branch.PLUS).samples
        assert np.abs(a - b).max() < 1e-12

    def test_random_even_and_odd_lengths(self):
        for n in (63, 64):
            f = Signal(seeded(n, n))
            for br in (Branch.PLUS, Branch.MINUS):
                a = hilbert_second(f, br).samples
                b = hilbert_second_via_log_image(f, br).samples
                assert np.abs(a - b).max() < 1e-10 * max(1.0, np.abs(a).max())

    def test_constant_uses_product_limit(self):
        got = hilbert_second_via_log_image(Signal(np.full(6, 1.5)), Branch.PLUS)
        assert np.abs(got.samples - (-1.5j)).max() < 1e-14


class TestAnalyticSignal:
    def test_real_part_is_input(self):
        x = seeded(11, 32)
        z = analytic_signal(Signal(x)).samples
        assert np.array_equal(z.real, x)

    def test_cosine_becomes_complex_exponential(self):
        th = theta(32)
        z = analytic_signal(Signal(np.cos(th))).samples
        assert np.abs(z - np.exp(1j * th)).max() < 1e-12

    def test_spectrum_is_one_sided(self):
        from hxkit.dft import dft_forward, plan

        n = 64
        z = analytic_signal(Signal(seeded(5, n))).samples
        Z = dft_forward(plan(n), z)
        upper = np.abs(Z[n // 2 + 1 :]).max()
        assert upper < 1e-12 * np.abs(Z).max()

    def test_complex_input_error_names_analytic_signal(self):
        with pytest.raises(DataError, match="^analytic_signal expects a real-valued signal$"):
            analytic_signal(Signal(seeded(12, 16) + 0.5j))

    def test_matches_second_form(self):
        # i * H2+{f} = f - i*H{f} when DC and Nyquist carry no energy
        x = strip_dc_nyquist(seeded(6, 64))
        f = Signal(x)
        z = analytic_signal(f).samples
        via2 = 1j * hilbert_second(f, Branch.PLUS).samples
        assert np.abs(z - via2).max() < 1e-12 * np.abs(z).max()


class TestEquivalenceReport:
    def test_cosine_plus_branch(self):
        rep = corollary_equivalence_report(Signal(np.cos(theta(16))), Branch.PLUS)
        assert abs(rep.c_fit - (-1.0)) < 1e-12
        assert rep.residual_inf < 1e-12
        assert rep.paper_consistent is False
        assert rep.branch is Branch.PLUS

    def test_cosine_minus_branch(self):
        rep = corollary_equivalence_report(Signal(np.cos(theta(16))), Branch.MINUS)
        assert abs(rep.c_fit - 1.0) < 1e-12

    def test_gaussian(self):
        rep = corollary_equivalence_report(gaussian_signal(2048), Branch.PLUS)
        assert abs(rep.c_fit - (-1.0)) < 1e-6
        assert rep.paper_consistent is False

    def test_zero_signal_degenerate(self):
        with pytest.raises(DegenerateFitError):
            corollary_equivalence_report(Signal(np.zeros(16)), Branch.PLUS)

    def test_tiny_amplitude_is_not_degenerate(self):
        f = Signal(1e-200 * np.cos(theta(16)))
        rep = corollary_equivalence_report(f, Branch.PLUS)
        assert abs(rep.c_fit - (-1.0)) < 1e-9

    def test_a_norm_below_1e_300_still_fits(self):
        # every sample near 1e-305: the l2 norm is under 1e-300, but the fit
        # runs at a unit peak, so only the zero signal is degenerate
        rep = corollary_equivalence_report(Signal(1e-305 * np.cos(theta(16))), Branch.PLUS)
        assert abs(rep.c_fit + 1.0) < 1e-12

    @pytest.mark.parametrize("n", [64, 63])
    @pytest.mark.parametrize("k", [997, -997])  # peaks near 1e300 and 1e-300
    def test_scaling_by_a_power_of_two_keeps_the_fit(self, n, k):
        x = seeded(n, n)
        x /= 2.0 * np.abs(x).max()  # a peak of 1/2: the unit peak's own scale
        for b in Branch:
            unit = corollary_equivalence_report(Signal(x), b)
            scaled = corollary_equivalence_report(Signal(np.ldexp(x, k)), b)
            assert scaled.c_fit == unit.c_fit
            assert scaled.residual_inf == math.ldexp(unit.residual_inf, k)

    @pytest.mark.parametrize("n", [1 << 18, 3**11])
    def test_warmed_report_peak_memory(self, n):
        # the fit runs in the spectrum H2 is formed in, with no complex copy
        # of the signal, no peak-divided copies and no |.| of a difference:
        # 5.06x and 6.00x N float64 at 2^18 and 3^11, 12.00x before
        f = Signal(seeded(n, n))
        _, peak = traced_peak(lambda: corollary_equivalence_report(f, Branch.PLUS))
        assert peak <= 6.5 * 8 * n


class TestInfinityNormLog10:
    def test_exact_equality_is_infinite(self):
        a = Signal(np.ones(4))
        assert infinity_norm_log10(a, a) == math.inf

    def test_known_difference(self):
        a = np.zeros(8)
        b = np.full(8, 1e-8)
        assert abs(infinity_norm_log10(a, b) - 8.0) < 1e-9

    def test_signals_and_arrays_both_accepted(self):
        s = Signal(np.ones(4))
        assert infinity_norm_log10(s, np.ones(4)) == math.inf

    def test_shape_mismatch(self):
        with pytest.raises(SizeMismatchError):
            infinity_norm_log10(np.ones(4), np.ones(5))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([16, 64]))
def test_property_involution_on_live_bins(seed, n):
    x = strip_dc_nyquist(seeded(seed, n))
    f = Signal(x)
    back = hilbert_first(hilbert_first(f)).samples
    assert np.abs(back + x).max() < 1e-10 * max(1.0, np.abs(x).max())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([16, 63, 64]))
def test_property_energy_preserved_on_live_bins(seed, n):
    x = strip_dc_nyquist(seeded(seed, n))
    h = hilbert_first(Signal(x)).samples
    assert math.isclose(
        float(np.linalg.norm(h)), float(np.linalg.norm(x)), rel_tol=1e-10, abs_tol=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    a=st.floats(-10, 10, allow_nan=False),
    b=st.floats(-10, 10, allow_nan=False),
)
def test_property_linearity(seed, a, b):
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=16), rng.normal(size=16)
    lhs = hilbert_first(Signal(a * x + b * y)).samples
    rhs = a * hilbert_first(Signal(x)).samples + b * hilbert_first(Signal(y)).samples
    assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([16, 63, 64]))
def test_property_branch_conjugacy(seed, n):
    f = Signal(seeded(seed, n))
    plus = hilbert_second(f, Branch.PLUS).samples
    minus = hilbert_second(f, Branch.MINUS).samples
    assert np.abs(minus - np.conj(plus)).max() < 1e-12 * max(1.0, np.abs(plus).max())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([16, 63, 64]))
def test_property_route_equivalence(seed, n):
    f = Signal(seeded(seed, n))
    a = hilbert_second(f, Branch.PLUS).samples
    b = hilbert_second_via_log_image(f, Branch.PLUS).samples
    assert np.abs(a - b).max() < 1e-10 * max(1.0, np.abs(a).max())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_property_analytic_signal_one_sided(seed):
    from hxkit.dft import dft_forward, plan

    n = 64
    z = analytic_signal(Signal(seeded(seed, n))).samples
    Z = dft_forward(plan(n), z)
    assert np.abs(Z[n // 2 + 1 :]).max() < 1e-10 * max(1.0, np.abs(Z).max())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([16, 64, 256]))
def test_property_halfband_composition_digits(seed, n):
    f = Signal(seeded(seed, n))
    full = hilbert_second(f, Branch.PLUS).samples
    fast = hilbert_second(f, Branch.PLUS, halfband=True).samples
    assert infinity_norm_log10(full, fast) >= 12.0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([64, 63, 100]),
    k=st.integers(-900, 900),
)
def test_property_power_of_two_scaling_is_exact(seed, n, k):
    # even radix-2, odd and even Bluestein sizes (the half plan of 100 is 50)
    x = seeded(seed, n)
    f, g = Signal(x), Signal(np.ldexp(x, k))
    assert np.array_equal(hilbert_first(g).samples, ldexp_any(hilbert_first(f).samples, k))
    for b in Branch:
        assert np.array_equal(hilbert_second(g, b).samples, ldexp_any(hilbert_second(f, b).samples, k))
