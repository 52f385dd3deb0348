import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hxkit.dft import (
    BLUESTEIN,
    RADIX2,
    dft_direct_reference,
    dft_forward,
    dft_inverse,
    dft_inverse_halfband,
    plan,
)
from hxkit.errors import InvalidSizeError, NotOneSidedError, SizeMismatchError


def rel_err(got, want):
    want = np.asarray(want, dtype=np.complex128)
    scale = np.abs(want).max()
    if scale == 0.0:
        scale = 1.0
    return np.abs(np.asarray(got) - want).max() / scale


class TestPlan:
    def test_power_of_two_selects_radix2(self):
        assert plan(1024).strategy == RADIX2

    def test_fractional_power_size_selects_arbitrary_length(self):
        # 5793 = round(2^12.5)
        assert plan(5793).strategy == BLUESTEIN

    def test_zero_size_rejected(self):
        with pytest.raises(InvalidSizeError):
            plan(0)

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


@pytest.mark.slow
def test_large_bluestein_size_matches_numpy():
    # n = 3^12 pads to a 2^21 convolution
    n = 3**12
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert rel_err(dft_forward(plan(n), x), np.fft.fft(x)) <= 1e-13


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
        half = dft_inverse_halfband(plan(n // 2), X)
        assert rel_err(half, full) < 1e-12

    def test_dc_only_constant(self):
        X = np.zeros(8, dtype=np.complex128)
        c = 3.0 - 1.0j
        X[0] = c
        out = dft_inverse_halfband(plan(4), X)
        assert rel_err(out, np.full(8, c / 8)) < 1e-13

    @pytest.mark.parametrize("n", [8, 16, 64, 200, 1024, 100_000])
    def test_matches_full_inverse_on_random_one_sided(self, n):
        rng = np.random.default_rng(n)
        X = one_sided_spectrum(n, rng)
        full = dft_inverse(plan(n), X)
        half = dft_inverse_halfband(plan(n // 2), X)
        assert rel_err(half, full) < 1e-12

    def test_rejects_energy_above_nyquist(self):
        n = 16
        X = np.zeros(n, dtype=np.complex128)
        X[0] = 1.0
        X[3 * n // 4] = 1.0
        with pytest.raises(NotOneSidedError):
            dft_inverse_halfband(plan(n // 2), X)

    def test_rejects_odd_total_length(self):
        with pytest.raises(SizeMismatchError):
            dft_inverse_halfband(plan(4), np.zeros(9, dtype=np.complex128))


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_halfband_exactness_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([8, 32, 64, 128]))
    X = one_sided_spectrum(n, rng)
    full = dft_inverse(plan(n), X)
    half = dft_inverse_halfband(plan(n // 2), X)
    assert rel_err(half, full) < 1e-12
