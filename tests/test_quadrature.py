import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import line_hilbert_gaussian, periodized_line_hilbert_gaussian
from hxkit.errors import (
    DataError,
    DecayError,
    DomainError,
    InvalidSizeError,
    NonUniformGridError,
    ResultOverflowError,
    SizeMismatchError,
)
from hxkit.hilbert import Branch, Signal, hilbert_first, hilbert_second
from hxkit.quadrature import (
    GridFunction,
    grid_derivative,
    hilbert_first_pv_quadrature,
    hilbert_second_quadrature,
    log_kernel_convolve,
    pv_symmetric_demo,
    stieltjes_residual,
)

PROBES = [-2.0, -1.0, 0.5, 1.0, 3.0]


def gauss_grid(n, half=8.0):
    x = np.linspace(-half, half, n + 1)
    return GridFunction(x, np.exp(-x * x))


class TestPVSymmetricDemo:
    def test_symmetric_interval_vanishes(self):
        assert abs(pv_symmetric_demo(-1.0, 1.0, 1e-6)) < 1e-12

    def test_asymmetric_intervals(self):
        assert abs(pv_symmetric_demo(-1.0, 2.0, 1e-6) - math.log(2.0)) < 1e-12
        assert abs(pv_symmetric_demo(-2.0, 1.0, 1e-3) + math.log(2.0)) < 1e-12

    def test_eps_independence(self):
        vals = {pv_symmetric_demo(-3.0, 5.0, e) for e in (1e-9, 1e-3, 1.0, 2.999)}
        assert len(vals) == 1

    def test_eps_out_of_range(self):
        with pytest.raises(DomainError):
            pv_symmetric_demo(-1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            pv_symmetric_demo(-1.0, 2.0, 0.0)

    def test_interval_must_straddle_zero(self):
        with pytest.raises(DomainError):
            pv_symmetric_demo(1.0, 2.0, 0.5)


class TestGridFunction:
    def test_needs_three_nodes(self):
        with pytest.raises(InvalidSizeError):
            GridFunction(np.array([0.0, 1.0]), np.zeros(2))

    def test_length_mismatch(self):
        with pytest.raises(SizeMismatchError):
            GridFunction(np.arange(4.0), np.zeros(3))

    def test_nodes_must_increase(self):
        with pytest.raises(DataError):
            GridFunction(np.array([0.0, 2.0, 1.0]), np.zeros(3))

    def test_non_finite_values(self):
        with pytest.raises(DataError):
            GridFunction(np.arange(3.0), np.array([0.0, np.inf, 0.0]))
        with pytest.raises(DataError):
            GridFunction(np.arange(3.0), np.array([0.0, complex(1.0, -np.inf), 0.0]))

    def test_uniform_flag(self):
        assert GridFunction(np.arange(5.0), np.zeros(5)).uniform
        assert not GridFunction(np.array([0.0, 1.0, 3.0]), np.zeros(3)).uniform

    def test_spacing(self):
        g = GridFunction(np.linspace(-8, 8, 17), np.zeros(17))
        assert g.spacing == 1.0


class TestPVQuadrature:
    def test_gaussian_matches_dawson_closed_form(self):
        g = gauss_grid(4096)
        got = hilbert_first_pv_quadrature(g, PROBES).values
        want = np.array([line_hilbert_gaussian(x) for x in PROBES])
        # budget from the frozen example is 5e-3 absolute; the corrected
        # rule actually sits at the oracle floor
        assert np.abs(got - want).max() < 5e-3
        assert np.abs(got - want).max() < 1e-8

    def test_value_at_one(self):
        g = gauss_grid(4096)
        out = hilbert_first_pv_quadrature(g, [0.5, 1.0, 2.0]).values
        assert abs(out[1] - (-0.6071577058)) < 5e-3

    def test_zero_signal(self):
        g = GridFunction(np.linspace(-8, 8, 65), np.zeros(65))
        assert np.all(hilbert_first_pv_quadrature(g).values == 0.0)

    def test_constant_cancels_at_center(self):
        # symmetric grid, center node: the odd kernel cancels in pairs
        g = GridFunction(np.linspace(-8, 8, 129), np.full(129, 2.0))
        out = hilbert_first_pv_quadrature(g, [-0.125, 0.0, 0.125], enforce_decay=False)
        assert abs(out.values[1]) < 1e-12

    def test_constant_fails_decay_check(self):
        g = GridFunction(np.linspace(-8, 8, 65), np.ones(65))
        with pytest.raises(DecayError):
            hilbert_first_pv_quadrature(g)

    def test_non_uniform_grid_unsupported(self):
        nodes = np.array([0.0, 1.0, 1.5, 3.0, 4.0])
        g = GridFunction(nodes, np.exp(-((nodes - 2.0) ** 2) * 8))
        with pytest.raises(NonUniformGridError):
            hilbert_first_pv_quadrature(g, enforce_decay=False)

    def test_eval_point_off_grid(self):
        g = gauss_grid(64)
        with pytest.raises(DomainError):
            hilbert_first_pv_quadrature(g, [0.1, 0.2, 0.3])

    def test_convergence_under_refinement(self):
        want = np.array([line_hilbert_gaussian(x) for x in PROBES])
        errs = []
        for n in (512, 1024, 2048):
            got = hilbert_first_pv_quadrature(gauss_grid(n), PROBES).values
            errs.append(np.abs(got - want).max())
        assert errs[0] / errs[1] >= 3.0
        assert errs[1] / errs[2] >= 3.0

    def test_gap_to_spectral_is_periodization(self):
        """The circular transform and the truncated-line quadrature disagree
        by exactly the image sum of the whole-line result; both sides of
        that equation are computed independently here."""
        n = 2048
        g = gauss_grid(n)
        sig = Signal(np.exp(-np.linspace(-8, 8, n + 1)[:-1] ** 2), x0=-8.0, dx=16.0 / n)
        spec = hilbert_first(sig).samples
        idxs = list(range(128, n, 128))
        quad = hilbert_first_pv_quadrature(g, [sig.grid[j] for j in idxs]).values
        for i, j in enumerate(idxs):
            x = sig.grid[j]
            gap = spec[j] - quad[i]
            want = periodized_line_hilbert_gaussian(x, 16.0) - line_hilbert_gaussian(x)
            assert abs(gap - want) < 1e-6, f"x={x}"


class TestEvalPoints:
    """``x_eval`` needs at least 3 strictly increasing grid nodes, since the
    result is a GridFunction on them; it is checked before any quadrature."""

    ROUTES = {
        "pv": lambda g, xs: hilbert_first_pv_quadrature(g, xs),
        "log_kernel": lambda g, xs: log_kernel_convolve(g, Branch.PLUS, xs),
        "second": lambda g, xs: hilbert_second_quadrature(g, Branch.MINUS, xs),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("xs", [[0.0], [-1.0, 1.0], [-1.0, 0.0, 0.0, 1.0],
                                    [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    def test_rejected_before_the_quadrature(self, route, xs, monkeypatch):
        import hxkit.quadrature as quadrature

        def weights(n):  # every route builds its weights right before its loop
            raise AssertionError("the quadrature ran")

        monkeypatch.setattr(quadrature, "_trapezoid_weights", weights)
        with pytest.raises(DomainError, match="x_eval"):
            self.ROUTES[route](gauss_grid(64), xs)

    # the points are checked before their float index is cast to int, where
    # numpy would warn on these first (a RuntimeWarning fails this suite)
    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308, -1e308])
    def test_non_finite_or_far_point_rejected_without_a_warning(self, route, bad):
        with pytest.raises(DomainError, match="grid nodes"):
            self.ROUTES[route](gauss_grid(64), [-1.0, 0.0, bad])

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_three_increasing_nodes_accepted(self, route):
        g = gauss_grid(64)
        xs = [-1.0, 0.0, 1.0]
        full = self.ROUTES[route](g, None)
        got = self.ROUTES[route](g, xs)
        assert np.array_equal(got.nodes, xs)
        assert np.array_equal(got.values, full.values[np.searchsorted(g.nodes, xs)])


class TestSecondFormQuadrature:
    def test_gaussian_real_part(self):
        q = hilbert_second_quadrature(gauss_grid(4096), Branch.PLUS, PROBES)
        want = np.array([-line_hilbert_gaussian(x) for x in PROBES])
        assert np.abs(q.values.real - want).max() < 5e-3

    def test_gaussian_imag_part(self):
        q = hilbert_second_quadrature(gauss_grid(4096), Branch.PLUS, PROBES)
        want = -np.exp(-np.array(PROBES) ** 2)
        assert np.abs(q.values.imag - want).max() < 5e-3

    def test_branch_conjugacy(self):
        g = gauss_grid(512)
        plus = hilbert_second_quadrature(g, Branch.PLUS, PROBES).values
        minus = hilbert_second_quadrature(g, Branch.MINUS, PROBES).values
        assert np.abs(minus - np.conj(plus)).max() < 1e-12

    def test_constant_gives_zero(self):
        # flat input has zero stencil derivative; nothing to convolve (the
        # quadrature itself refuses a constant, which does not decay, so its
        # two steps are run by hand).  note the deliberate divergence from
        # the spectral DC convention, which sends the same constant to -i*c
        g = GridFunction(np.linspace(-8, 8, 65), np.full(65, 2.5))
        deriv = GridFunction(g.nodes, grid_derivative(g.values, g.spacing))
        q = log_kernel_convolve(deriv, Branch.PLUS)
        assert np.all(q.values == 0.0)
        spectral = hilbert_second(Signal(np.full(64, 2.5)), Branch.PLUS).samples
        assert np.abs(spectral - (-2.5j)).max() < 1e-13

    def test_constant_fails_decay_check(self):
        g = GridFunction(np.linspace(-8, 8, 65), np.full(65, 2.5))
        with pytest.raises(DecayError):
            hilbert_second_quadrature(g, Branch.PLUS)

    def test_real_gap_to_spectral_is_periodization(self):
        n = 2048
        g = gauss_grid(n)
        sig = Signal(np.exp(-np.linspace(-8, 8, n + 1)[:-1] ** 2), x0=-8.0, dx=16.0 / n)
        spec = hilbert_second(sig, Branch.PLUS).samples
        idxs = list(range(128, n, 128))
        quad = hilbert_second_quadrature(g, Branch.PLUS, [sig.grid[j] for j in idxs]).values
        for i, j in enumerate(idxs):
            x = sig.grid[j]
            # Re H2 = -H, so the gap flips sign relative to the first form
            want = -(periodized_line_hilbert_gaussian(x, 16.0) - line_hilbert_gaussian(x))
            assert abs((spec[j].real - quad[i].real) - want) < 1.5e-3, f"x={x}"

    def test_imag_part_matches_spectral_directly(self):
        # Im H2+ = -f on both routes; periodization cancels in f itself
        n = 1024
        g = gauss_grid(n)
        q = hilbert_second_quadrature(g, Branch.PLUS)
        assert np.abs(q.values.imag + g.values).max() < 1e-3

    def test_corollary_factor_from_quadrature_alone(self):
        """Independent least-squares estimate of c in H2 = -H + c*i*f using
        only time-domain quadrature; lands at -1 and nowhere near -2."""
        g = gauss_grid(1024)
        h2 = hilbert_second_quadrature(g, Branch.PLUS).values
        h1 = hilbert_first_pv_quadrature(g).values
        r = h2 + h1
        v = 1j * g.values
        c = float(np.real(np.vdot(v, r)) / np.sum(g.values**2))
        assert abs(c - (-1.0)) < 0.01
        assert abs(c - (-2.0)) > 0.9

    def test_derivative_commutes_with_log_convolution(self):
        # translation-invariant stencil vs fixed-kernel convolution: exact
        # commutation in the interior, edge stencils differ harmlessly
        g = gauss_grid(1024)
        h = g.spacing
        lhs = grid_derivative(log_kernel_convolve(g, Branch.PLUS).values, h)
        dg = GridFunction(g.nodes, grid_derivative(g.values, h))
        rhs = log_kernel_convolve(dg, Branch.PLUS).values
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() < 5e-3 * scale
        assert np.abs(lhs - rhs)[4:-4].max() < 1e-10 * scale


ORACLES = {
    "pv": hilbert_first_pv_quadrature,
    "second": lambda f: hilbert_second_quadrature(f, Branch.PLUS),
    "log": lambda f: log_kernel_convolve(f, Branch.MINUS),
}


class TestMagnitudeRange:
    """The oracles run at a unit peak and scale back by the same power of 2."""

    @pytest.mark.parametrize("peak", [2e306, 5e306, 1e-300])
    @pytest.mark.parametrize("oracle", ORACLES)
    def test_extreme_peaks_are_the_unit_scale_result_times_a_power_of_two(self, oracle, peak):
        # unscaled, the pv oracle's sums overflowed at a peak of 5e306 and
        # the others' at 2e306, raising DataError on finite input
        g = gauss_grid(512)
        big = peak * g.values
        k = math.frexp(float(np.abs(big).max()))[1]
        unit = ORACLES[oracle](GridFunction(g.nodes, np.ldexp(big, -k))).values
        got = ORACLES[oracle](GridFunction(g.nodes, big)).values
        assert got.tobytes() == np.ldexp(unit.view(np.float64), k).view(unit.dtype).tobytes()

    def test_a_result_beyond_float64_raises_result_overflow(self):
        # the log kernel's result peaks at about twice the samples' peak
        g = gauss_grid(512)
        with pytest.raises(ResultOverflowError):
            log_kernel_convolve(GridFunction(g.nodes, 1.7e308 * g.values), Branch.PLUS)


class TestGridDerivative:
    def test_fourth_order_interior_is_exact_on_cubics(self):
        x = np.linspace(0, 1, 21)
        g = grid_derivative(x**3, x[1] - x[0])
        assert np.abs(g[2:-2] - 3 * x[2:-2] ** 2).max() < 1e-12

    def test_edges_second_order_exact_on_quadratics(self):
        x = np.linspace(0, 1, 11)
        g = grid_derivative(x**2, x[1] - x[0])
        assert np.abs(g - 2 * x).max() < 1e-12

    def test_short_input_rejected(self):
        with pytest.raises(InvalidSizeError):
            grid_derivative(np.ones(2), 1.0)


class TestStieltjesResidual:
    def test_power_pair(self):
        x = np.linspace(0, 1, 1001)
        r = stieltjes_residual(GridFunction(x, x), GridFunction(x, x * x), 0.0, 1.0)
        assert r <= 1e-5
        assert r <= 1e-12  # trapezoid pairing telescopes exactly

    def test_sin_log_pair(self):
        x = np.linspace(0, 1, 2001)
        f = GridFunction(x, np.sin(x))
        a = GridFunction(x, np.log(x + 2.0))
        assert stieltjes_residual(f, a, 0.0, 1.0) <= 1e-5

    def test_constants_vanish_exactly(self):
        x = np.linspace(0, 1, 11)
        f = GridFunction(x, np.full(11, 3.0))
        a = GridFunction(x, np.full(11, -2.0))
        assert stieltjes_residual(f, a, 0.0, 1.0) == 0.0

    def test_non_uniform_grid_allowed(self):
        rng = np.random.default_rng(9)
        x = np.sort(rng.uniform(0, 1, 40))
        x[0], x[-1] = 0.0, 1.0
        f = GridFunction(x, x**2)
        a = GridFunction(x, np.sin(x))
        assert stieltjes_residual(f, a, 0.0, 1.0) <= 1e-12

    def test_mismatched_grids(self):
        x = np.linspace(0, 1, 11)
        y = np.linspace(0, 2, 11)
        with pytest.raises(SizeMismatchError):
            stieltjes_residual(GridFunction(x, x), GridFunction(y, y), 0.0, 1.0)

    def test_wrong_span(self):
        x = np.linspace(0, 1, 11)
        with pytest.raises(DomainError):
            stieltjes_residual(GridFunction(x, x), GridFunction(x, x), 0.0, 2.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_property_telescoping_on_random_smooth_pairs(self, seed):
        rng = np.random.default_rng(seed)
        x = np.linspace(0, 1, 200)
        cf, ca = rng.normal(size=4), rng.normal(size=4)
        f = GridFunction(x, np.polyval(cf, x))
        a = GridFunction(x, np.polyval(ca, x))
        scale = max(1.0, np.abs(f.values).max() * np.abs(a.values).max())
        assert stieltjes_residual(f, a, 0.0, 1.0) <= 1e-10 * scale
