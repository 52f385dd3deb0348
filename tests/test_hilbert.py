import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    DAWSON_AT_1,
    TWO_OVER_SQRT_PI,
    dawson,
    line_hilbert_gaussian,
    periodized_line_hilbert_gaussian,
    spectral_oracle,
)
from hxkit.errors import (
    DataError,
    DegenerateFitError,
    InvalidSizeError,
    InvariantBreach,
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

    def test_log_image_values(self):
        assert log_image(1.0, Branch.PLUS) == -1.0
        assert log_image(-1.0, Branch.PLUS) == 0.0
        assert log_image(2.0, Branch.MINUS) == 0.0
        assert log_image(-2.0, Branch.MINUS) == -0.5

    def test_log_image_singular_at_dc(self):
        with pytest.raises(SingularFrequencyError):
            log_image(0.0, Branch.PLUS)

    def test_bin_frequencies_even(self):
        got = bin_frequencies(8)
        want = [0, 0.125, 0.25, 0.375, 0.5, -0.375, -0.25, -0.125]
        assert np.array_equal(got, want)

    def test_bin_frequencies_odd(self):
        assert np.array_equal(bin_frequencies(5), [0, 0.2, 0.4, -0.4, -0.2])


class TestSignal:
    def test_too_short(self):
        with pytest.raises(InvalidSizeError):
            Signal(np.array([1.0]))

    def test_non_finite(self):
        with pytest.raises(DataError):
            Signal(np.array([1.0, np.nan]))

    def test_bad_spacing(self):
        with pytest.raises(DataError):
            Signal(np.zeros(4), dx=0.0)

    def test_grid(self):
        s = Signal(np.zeros(4), x0=-1.0, dx=0.5)
        assert np.array_equal(s.grid, [-1.0, -0.5, 0.0, 0.5])

    def test_with_samples_keeps_grid(self):
        s = Signal(np.zeros(4), x0=2.0, dx=0.25)
        t = s.with_samples(np.ones(4))
        assert (t.x0, t.dx) == (2.0, 0.25)


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

    def test_halfband_needs_even_length(self):
        with pytest.raises(InvalidSizeError):
            hilbert_second(Signal(seeded(0, 15)), Branch.PLUS, halfband=True)


class TestPackedPath:
    """Even lengths run half-length transforms; the length-N pipeline is the oracle."""

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

    @pytest.mark.parametrize("n", [2, 6, 64, 100, 5794])
    def test_second_form_identities_are_bit_exact(self, n):
        x = seeded(n + 1, n)
        f = Signal(x)
        h1 = hilbert_first(f).samples
        for b in Branch:
            z = hilbert_second(f, b).samples
            assert np.array_equal(z.real, -h1)
            assert np.array_equal(z.imag, -b.sign * x)

    def test_residue_check_guards_the_odd_path(self, monkeypatch):
        import hxkit.hilbert as hilbert

        inverse = hilbert.dft_inverse
        monkeypatch.setattr(hilbert, "dft_inverse", lambda p, X: inverse(p, X) + 1e-9j)
        with pytest.raises(InvariantBreach):
            hilbert_first(Signal(seeded(0, 63)))
        hilbert_first(Signal(seeded(0, 64)))  # real by construction: nothing to check


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
