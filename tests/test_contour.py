import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hxkit import contour
from hxkit.contour import (
    AnalyticTestFunction,
    JordanCurve,
    Segment,
    cauchy_integral,
    log_kernel_line_integral,
    unwrap_argument,
)
from hxkit.errors import DataError, DensityError, DomainError, GeometryError, InvalidSizeError

POLY = AnalyticTestFunction.polynomial([1, -2, 0, 1])  # 1 - 2z + z^3
Z_IN = 0.3 + 0.2j


class TestAnalyticTestFunction:
    def test_polynomial_value(self):
        assert POLY.value(Z_IN) == pytest.approx(0.391 - 0.354j, abs=1e-15)

    def test_polynomial_derivative(self):
        z = 0.7 - 0.4j
        assert POLY.derivative(z) == pytest.approx(-2 + 3 * z * z, abs=1e-15)

    def test_constant_polynomial_derivative_is_zero(self):
        const = AnalyticTestFunction.polynomial([5])
        assert np.all(const.derivative(np.array([1j, 2.0, -3.0])) == 0)

    def test_exponential(self):
        f = AnalyticTestFunction.exponential(2.0, -1j)
        z = 0.3 + 0.1j
        assert f.value(z) == pytest.approx(2.0 * np.exp(-1j * z), abs=1e-15)
        assert f.derivative(z) == pytest.approx(-2j * np.exp(-1j * z), abs=1e-15)

    @pytest.mark.parametrize("build, name", [
        (lambda: AnalyticTestFunction.polynomial([math.nan, 1]), "coefficient 0"),
        (lambda: AnalyticTestFunction.polynomial([1, complex(0, math.inf)]), "coefficient 1"),
        (lambda: AnalyticTestFunction.exponential(1, math.inf), "rate b"),
        (lambda: AnalyticTestFunction.exponential(math.nan, 1), "scale a"),
    ])
    def test_non_finite_coefficients_are_domain_errors(self, build, name):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            build()

    def test_empty_polynomial_rejected(self):
        with pytest.raises(DataError):
            AnalyticTestFunction.polynomial([])


class TestUnwrapArgument:
    def test_wrap_event_continues_upward(self):
        tr = unwrap_argument([math.pi - 0.1, -math.pi + 0.1])
        assert np.allclose(tr.angles, [math.pi - 0.1, math.pi + 0.1])
        assert tr.winding == pytest.approx(0.2)

    def test_constant_arguments_unchanged(self):
        tr = unwrap_argument([0.3, 0.3, 0.3])
        assert np.array_equal(tr.angles, [0.3, 0.3, 0.3])
        assert tr.winding == 0.0

    def test_full_loop_accumulates_two_pi(self):
        th = np.linspace(0.0, 2.0 * math.pi, 65)
        tr = unwrap_argument(np.angle(np.exp(1j * th)))
        assert tr.winding == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_exact_pi_increment_is_ambiguous(self):
        with pytest.raises(DensityError):
            unwrap_argument([0.0, math.pi])

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            unwrap_argument([0.0, math.nan])


class TestJordanCurve:
    def test_circle_is_closed(self):
        c = JordanCurve.circle(0, 2.0, 64)
        chain = c.chain()
        assert chain[0] == c.start and chain[-1] == c.start

    def test_circle_start_honors_t0(self):
        c = JordanCurve.circle(1 + 2j, 2.0, 64, t0=0.25)
        assert c.start == pytest.approx(1 + 4j, abs=1e-12)

    def test_minimum_node_count(self):
        with pytest.raises(InvalidSizeError):
            JordanCurve.circle(0, 1.0, 8)
        with pytest.raises(InvalidSizeError):
            JordanCurve.rectangle(-1, -1, 1, 1, 8)

    def test_rectangle_start_parameter_splits_side(self):
        r = JordanCurve.rectangle(-2, -2, 2, 2, 4096, t0=0.375)
        assert r.start == pytest.approx(2 + 0j, abs=1e-12)
        # the split side contributes two half-sides
        assert len(r.segments) == 5

    def test_rectangle_corner_ordering(self):
        with pytest.raises(GeometryError):
            JordanCurve.rectangle(2, -2, -2, 2)

    def test_open_curve_rejected(self):
        sides = JordanCurve.rectangle(-2, -2, 2, 2, 256).segments
        with pytest.raises(GeometryError, match="not closed"):
            JordanCurve(segments=sides[:-1], start=-2 - 2j)

    def test_closed_far_from_origin(self):
        JordanCurve.circle(1e8 + 1e8j, 1.0, 4096)
        JordanCurve.rectangle(1e8, 1e8, 1e8 + 1, 1e8 + 1, 4096, t0=0.375)

    def test_node_count_near_request(self):
        # each side rounds its share of the nodes to whole panels
        for t0 in (0.0, 0.375):
            c = JordanCurve.rectangle(-2, -2, 2, 2, 4096, t0=t0)
            assert abs((len(c.chain()) - 1) - 4096) <= 8

    def test_circle_start_is_reduced_mod_one_bit_for_bit(self):
        # 1e6 + 0.375 is exact in double, and t0 % 1.0 gives back 0.375
        a = JordanCurve.circle(0, 2.0, 4096, t0=0.375)
        b = JordanCurve.circle(0, 2.0, 4096, t0=1e6 + 0.375)
        assert a.start == b.start
        assert a.chain().tobytes() == b.chain().tobytes()
        assert a.segments[0].weights.tobytes() == b.segments[0].weights.tobytes()
        assert cauchy_integral(POLY, a, Z_IN) == cauchy_integral(POLY, b, Z_IN)
        assert log_kernel_line_integral(POLY, a, Z_IN) == log_kernel_line_integral(POLY, b, Z_IN)

    @pytest.mark.parametrize("build, name", [
        (lambda: JordanCurve.circle(0, 2.0, 256, t0=math.nan), "t0"),
        (lambda: JordanCurve.circle(0, 2.0, 256, t0=math.inf), "t0"),
        (lambda: JordanCurve.circle(complex(0, math.nan), 2.0, 256), "centre"),
        (lambda: JordanCurve.circle(0, math.inf, 256), "radius"),
        (lambda: JordanCurve.rectangle(-2, -2, 2, 2, 256, t0=math.nan), "t0"),
        (lambda: JordanCurve.rectangle(-2, -2, 2, 2, 256, t0=-math.inf), "t0"),
        (lambda: JordanCurve.rectangle(-2, -2, math.inf, 2, 256), "x1"),
        (lambda: JordanCurve.rectangle(-2, -math.inf, 2, 2, 256), "y0"),
    ])
    def test_non_finite_parameters_are_geometry_errors(self, build, name):
        with pytest.raises(GeometryError, match=f"{name} must be finite"):
            build()


class TestWinding:
    def test_interior_point_winds_once(self):
        chain = JordanCurve.circle(0, 2.0, 256).chain()
        tr = unwrap_argument(np.angle(chain - (0.5 + 0.5j)))
        assert abs(tr.winding - 2.0 * math.pi) < 1e-6

    def test_exterior_point_does_not_wind(self):
        chain = JordanCurve.circle(0, 2.0, 256).chain()
        tr = unwrap_argument(np.angle(chain - (3.0 + 1.0j)))
        assert abs(tr.winding) < 1e-6

    def test_rectangle_interior_winding(self):
        chain = JordanCurve.rectangle(-2, -2, 2, 2, 256).chain()
        tr = unwrap_argument(np.angle(chain - Z_IN))
        assert abs(tr.winding - 2.0 * math.pi) < 1e-6


class TestCauchyIntegral:
    def test_square_on_circle(self):
        f = AnalyticTestFunction.polynomial([0, 0, 1])
        got = cauchy_integral(f, JordanCurve.circle(0, 2.0, 1024), 1.0)
        assert abs(got - 1.0) < 1e-10

    def test_cubic_frozen_value(self):
        got = cauchy_integral(POLY, JordanCurve.circle(0, 2.0, 4096), Z_IN)
        assert abs(got - (0.391 - 0.354j)) < 1e-8
        assert abs(got - POLY.value(Z_IN)) < 1e-10

    def test_exp_at_origin(self):
        f = AnalyticTestFunction.exponential(1.0, 1.0)
        got = cauchy_integral(f, JordanCurve.circle(0, 1.0, 1024), 0.0)
        assert abs(got - 1.0) < 1e-10

    def test_rectangle_path(self):
        got = cauchy_integral(POLY, JordanCurve.rectangle(-2, -2, 2, 2, 4096), Z_IN)
        assert abs(got - POLY.value(Z_IN)) < 1e-8

    def test_exterior_point_rejected(self):
        with pytest.raises(GeometryError):
            cauchy_integral(POLY, JordanCurve.circle(0, 2.0, 256), 5.0)

    def test_point_near_curve_rejected(self):
        with pytest.raises(GeometryError):
            cauchy_integral(POLY, JordanCurve.circle(0, 2.0, 256), 1.9999)

    @pytest.mark.parametrize("z", [complex(math.nan, 0), complex(math.inf, 0), complex(0, -math.inf)])
    def test_non_finite_point_rejected(self, z):
        with pytest.raises(GeometryError, match="point z must be finite"):
            cauchy_integral(POLY, JordanCurve.circle(0, 2.0, 256), z)


class TestLogKernelLineIntegral:
    def test_circle_matches_start_corrected_prediction(self):
        curve = JordanCurve.circle(0, 2.0, 4096)
        res = log_kernel_line_integral(POLY, curve, Z_IN)
        pred = POLY.value(Z_IN) - POLY.value(curve.start)
        assert abs(res.value - pred) < 1e-12
        assert res.start == curve.start
        assert abs(res.winding - 2.0 * math.pi) < 1e-6

    def test_claimed_bare_value_is_off_by_start_term(self):
        # the integral recovers f(z) only up to the f(z0) boundary term;
        # here |f(z0)| = |f(2)| = 5, far outside quadrature noise
        res = log_kernel_line_integral(POLY, JordanCurve.circle(0, 2.0, 4096), Z_IN)
        assert abs(res.value - POLY.value(Z_IN)) > 1.0

    def test_shape_invariance_at_fixed_start(self):
        circ = JordanCurve.circle(0, 2.0, 4096)
        rect = JordanCurve.rectangle(-2, -2, 2, 2, 4096, t0=0.375)
        assert abs(circ.start - rect.start) < 1e-12
        a = log_kernel_line_integral(POLY, circ, Z_IN).value
        b = log_kernel_line_integral(POLY, rect, Z_IN).value
        assert abs(a - b) < 1e-6

    def test_refinement_stability(self):
        a = log_kernel_line_integral(POLY, JordanCurve.circle(0, 2.0, 4096), Z_IN).value
        b = log_kernel_line_integral(POLY, JordanCurve.circle(0, 2.0, 8192), Z_IN).value
        assert abs(a - b) < 1e-12

    def test_against_high_resolution_oracle(self):
        a = log_kernel_line_integral(POLY, JordanCurve.circle(0, 2.0, 4096), Z_IN).value
        hi = log_kernel_line_integral(POLY, JordanCurve.circle(0, 2.0, 2**16), Z_IN).value
        assert abs(a - hi) < 1e-12

    def test_kernel_orders_agree(self):
        curve = JordanCurve.circle(0, 2.0, 2048)
        a = log_kernel_line_integral(POLY, curve, Z_IN, kernel="z-zp").value
        b = log_kernel_line_integral(POLY, curve, Z_IN, kernel="zp-z").value
        assert abs(a - b) < 1e-12

    def test_unknown_kernel_rejected(self):
        with pytest.raises(DataError):
            log_kernel_line_integral(POLY, JordanCurve.circle(0, 2.0, 256), Z_IN, kernel="zz")

    def test_constant_function_integrates_to_zero(self):
        const = AnalyticTestFunction.polynomial([5])
        res = log_kernel_line_integral(const, JordanCurve.circle(0, 2.0, 256), Z_IN)
        assert res.value == 0

    def test_exponential_prediction(self):
        f = AnalyticTestFunction.exponential(1.0, 1.0)
        curve = JordanCurve.circle(0, 2.0, 4096)
        res = log_kernel_line_integral(f, curve, 0.4 - 0.1j)
        pred = f.value(0.4 - 0.1j) - f.value(curve.start)
        assert abs(res.value - pred) < 1e-12

    def test_start_point_moves_the_value(self):
        rotated = JordanCurve.circle(0, 2.0, 4096, t0=0.5)
        assert rotated.start == pytest.approx(-2 + 0j, abs=1e-12)
        res = log_kernel_line_integral(POLY, rotated, Z_IN)
        pred = POLY.value(Z_IN) - POLY.value(-2.0)
        assert abs(res.value - pred) < 1e-12

    @pytest.mark.parametrize("z", [complex(math.nan, 0), complex(math.inf, 0), complex(0, -math.inf)])
    def test_non_finite_point_rejected(self, z):
        with pytest.raises(GeometryError, match="point z must be finite"):
            log_kernel_line_integral(POLY, JordanCurve.circle(0, 2.0, 256), z)

    def test_exterior_point_rejected(self):
        with pytest.raises(GeometryError):
            log_kernel_line_integral(POLY, JordanCurve.circle(0, 2.0, 256), 5.0)

    def test_point_near_curve_rejected(self):
        for kernel in ("z-zp", "zp-z"):
            with pytest.raises(GeometryError, match="too close"):
                log_kernel_line_integral(POLY, JordanCurve.circle(0, 2.0, 256), 1.9999,
                                         kernel=kernel)


# 1e-4 inside the curve at a panel's centre, where the Gauss-Legendre
# nodes are furthest apart: farther from every node than the distance
# guard's threshold, so the guard must measure to the curve, not the nodes
PANEL_CENTRE_POINTS = {
    "circle": (JordanCurve.circle(0, 2.0, 4096), 1.9999 * np.exp(2j * math.pi * 100.5 / 256)),
    "square": (JordanCurve.rectangle(-2, -2, 2, 2, 4096, t0=0.375),
               complex(2 - 20.5 * 4 / 64, 2 - 1e-4)),
}


@pytest.mark.parametrize("cname", PANEL_CENTRE_POINTS)
def test_point_near_curve_between_nodes_rejected(cname):
    curve, z = PANEL_CENTRE_POINTS[cname]
    with pytest.raises(GeometryError, match="too close"):
        cauchy_integral(POLY, curve, z)
    for kernel in ("z-zp", "zp-z"):
        with pytest.raises(GeometryError, match="too close"):
            log_kernel_line_integral(POLY, curve, z, kernel=kernel)


CURVES = {
    "circle": JordanCurve.circle(0, 2.0, 4096),
    "square": JordanCurve.rectangle(-2, -2, 2, 2, 4096, t0=0.375),
}
FUNCTIONS = {"poly": POLY, "exp": AnalyticTestFunction.exponential(1.0, 1.3 + 0.4j)}
NEAR_POINTS = [Z_IN, 1.96, complex(0, -1.96), -1.5 + 0.9j]
CORNER_POINTS = [1.96 + 1.96j, -1.96 + 1.96j]  # inside the square only


@pytest.mark.parametrize("fname", FUNCTIONS)
@pytest.mark.parametrize("cname,z", [(c, z) for c in CURVES for z in NEAR_POINTS]
                         + [("square", z) for z in CORNER_POINTS])
def test_both_integrals_exact_at_default_nodes(fname, cname, z):
    # points 1% of the curve's size from it, corners included: the
    # Gauss-Legendre panels reach both exact values at 4096 nodes
    f, curve = FUNCTIONS[fname], CURVES[cname]
    assert abs(cauchy_integral(f, curve, z) - f.value(z)) < 1e-13
    res = log_kernel_line_integral(f, curve, z)
    assert abs(res.value - (f.value(z) - f.value(curve.start))) < 1e-13


@settings(max_examples=20, deadline=None)
@given(
    coeffs=st.lists(
        st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=5,
    ),
    zr=st.floats(-0.9, 0.9),
    zi=st.floats(-0.9, 0.9),
)
def test_property_start_corrected_identity(coeffs, zr, zi):
    f = AnalyticTestFunction.polynomial(coeffs)
    curve = JordanCurve.circle(0, 2.0, 2048)
    z = complex(zr, zi)
    res = log_kernel_line_integral(f, curve, z)
    pred = f.value(z) - f.value(curve.start)
    scale = max(1.0, abs(pred))
    assert abs(res.value - pred) < 1e-12 * scale
    assert abs(cauchy_integral(f, curve, z) - f.value(z)) < 1e-12 * scale


def _guard_distance(curve):
    """The distance guard's stated threshold, 1e-3 of the curve's size
    (README "Quick start (API)"), not read off the module, so that a moved
    threshold shows."""
    chain = curve.chain()
    return 1e-3 * float(np.abs(chain - chain.mean()).max())


def _spots(cname, where):
    """(panel length, points at depth d inside the curve as functions of d)
    at panel centres or at panel joints, on several panels (each side of
    the square)."""
    off = 0.5 if where == "centre" else 0.0
    if cname == "circle":  # 256 panels of 2*pi*2/256
        panel = 2 * math.pi * 2.0 / 256
        spots = [lambda d, j=j: (2.0 - d) * np.exp(2j * math.pi * (j + off) / 256)
                 for j in (37, 100, 201)]
    else:  # 64 panels of 4/64 per side, the right side split at (2, 0)
        panel = 4 / 64
        spots = [lambda d: complex(-2 + (20 + off) * panel, -2 + d),
                 lambda d: complex(-2 + (40 + off) * panel, 2 - d),
                 lambda d: complex(-2 + d, (-10 + off) * panel),
                 lambda d: complex(2 - d, (12 + off) * panel)]
    return panel, spots


def _near_points(cname, where):
    """Points from just outside the distance guard to one panel length
    inside the curve (:func:`_spots`)."""
    curve = CURVES[cname]
    panel, spots = _spots(cname, where)
    distances = np.geomspace(1.01 * _guard_distance(curve), panel, 9)
    return curve, [spot(d) for d in distances for spot in spots]


@pytest.mark.parametrize("where", ["centre", "joint"])
@pytest.mark.parametrize("cname", CURVES)
def test_the_distance_guard_sits_at_its_threshold(cname, where):
    # 1% either side of the threshold, where a chord is within 1.3e-6 of
    # the curve: both integrals refuse the nearer point and take the other
    curve = CURVES[cname]
    guard = _guard_distance(curve)
    for spot in _spots(cname, where)[1]:
        near, clear = spot(0.99 * guard), spot(1.01 * guard)
        with pytest.raises(GeometryError, match="too close"):
            cauchy_integral(POLY, curve, near)
        assert np.isfinite(cauchy_integral(POLY, curve, clear))
        for kernel in ("z-zp", "zp-z"):
            with pytest.raises(GeometryError, match="too close"):
                log_kernel_line_integral(POLY, curve, near, kernel=kernel)
            assert np.isfinite(log_kernel_line_integral(POLY, curve, clear, kernel=kernel).value)


@pytest.mark.parametrize("fname", FUNCTIONS)
@pytest.mark.parametrize("where", ["centre", "joint"])
@pytest.mark.parametrize("cname", CURVES)
def test_cauchy_integral_is_exact_from_the_guard_to_a_panel_away(fname, cname, where):
    # the barycentric quotient: dividing the first sum by 2*pi*i instead
    # left 0.50-0.63 at 2.1e-3 inside the circle at these panel centres,
    # 1.1e-2-1.4e-2 at 5e-3 and 1.7e-5-2.2e-5 at 1e-2
    f = FUNCTIONS[fname]
    curve, points = _near_points(cname, where)
    worst = max(abs(cauchy_integral(f, curve, z) - f.value(z)) for z in points)
    assert worst <= 1e-13, worst
