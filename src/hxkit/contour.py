"""Closed-contour integration with a branch-tracked logarithm.

The log-kernel line integral -(1/2pi*i) * contour_integral ln(z - z') f'(z') dz'
only makes sense once ln is single-valued along the path, so the argument of
the kernel is unwrapped continuously around the curve, anchored at the
principal value at the curve's start node.  One full counterclockwise loop
adds 2*pi to the tracked argument; integrating by parts, that jump produces
a boundary term at the start point, and the integral evaluates to
f(z) - f(z0) rather than the bare f(z).  Both candidates are computed and
compared by the verify suite; this module just does the geometry and
quadrature honestly.

Curves are discretized per smooth segment (a circle is one segment, a
rectangle one per side) and integrated with composite Simpson on each
segment.  The unwrapped argument lives on a single chain of nodes running
once around the curve, so the closing node carries the accumulated value,
not a copy of the starting one; corner nodes are shared between adjacent
segments but appear once in the chain.  The classical Cauchy integral uses
the periodic trapezoid rule on circles, where it is spectrally accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DataError, DensityError, GeometryError, InvalidSizeError

__all__ = [
    "AnalyticTestFunction",
    "BranchTrace",
    "JordanCurve",
    "LogIntegralResult",
    "Segment",
    "cauchy_integral",
    "log_kernel_line_integral",
    "unwrap_argument",
]

_MIN_NODES = 16
_INTERIOR_TOL = 1e-6
_DISTANCE_RTOL = 1e-3


@dataclass(frozen=True)
class AnalyticTestFunction:
    """Entire test function with its exact derivative: polynomial (ascending
    coefficients) or a*exp(b*z)."""

    kind: str
    coefficients: Tuple[complex, ...] = ()
    scale: complex = 0j
    rate: complex = 0j

    @classmethod
    def polynomial(cls, coefficients) -> "AnalyticTestFunction":
        coeffs = tuple(complex(c) for c in coefficients)
        if not coeffs:
            raise DataError("a polynomial needs at least one coefficient")
        return cls(kind="polynomial", coefficients=coeffs)

    @classmethod
    def exponential(cls, a, b) -> "AnalyticTestFunction":
        return cls(kind="exponential", scale=complex(a), rate=complex(b))

    def value(self, z):
        if self.kind == "polynomial":
            return np.polyval(self.coefficients[::-1], z)
        return self.scale * np.exp(self.rate * np.asarray(z))

    def derivative(self, z):
        if self.kind == "polynomial":
            dcoeffs = [k * c for k, c in enumerate(self.coefficients)][1:]
            if not dcoeffs:
                return np.zeros_like(np.asarray(z, dtype=np.complex128))
            return np.polyval(dcoeffs[::-1], z)
        return self.scale * self.rate * np.exp(self.rate * np.asarray(z))


@dataclass(frozen=True)
class Segment:
    """One smooth piece of a curve: nodes, dz/dt at the nodes, and the span
    of the global parameter it covers.  Node count is even so composite
    Simpson applies directly."""

    points: np.ndarray
    dzdt: np.ndarray
    tspan: float


@dataclass(frozen=True)
class BranchTrace:
    """Continuously unwrapped argument along a node chain."""

    angles: np.ndarray
    winding: float


def unwrap_argument(raw_args) -> BranchTrace:
    """Lift principal arguments to a continuous branch.

    Each successive increment is shifted by the multiple of 2*pi that
    minimizes its magnitude.  An increment of exactly pi has no preferred
    shift; that only happens when neighboring nodes straddle the branch
    point too coarsely, so the caller is told to raise the node count.
    """
    a = np.asarray(raw_args, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] < 1:
        raise DataError("need a one-dimensional sequence of arguments")
    if not np.all(np.isfinite(a)):
        raise DataError("non-finite arguments")
    d = np.diff(a)
    shifted = np.mod(d + math.pi, 2.0 * math.pi) - math.pi
    if shifted.size and np.abs(np.abs(shifted) - math.pi).min() < 1e-12:
        raise DensityError(
            "argument increment of exactly pi is ambiguous; increase the node count"
        )
    angles = np.concatenate([[a[0]], a[0] + np.cumsum(shifted)])
    return BranchTrace(angles=angles, winding=float(angles[-1] - angles[0]))


def _even_at_least(n: int) -> int:
    n = max(2, int(n))
    return n + (n % 2)


@dataclass(frozen=True)
class JordanCurve:
    """Closed, counterclockwise, piecewise-smooth curve, discretized."""

    kind: str
    segments: Tuple[Segment, ...]
    start: complex

    def __post_init__(self):
        first = self.segments[0].points[0]
        last = self.segments[-1].points[-1]
        if abs(first - last) > 1e-12 * max(1.0, abs(first)):
            raise GeometryError("curve is not closed")

    def chain(self) -> np.ndarray:
        """All nodes once around the curve; the closing node is a separate
        final entry (same point as the start, its own branch value)."""
        parts = [self.segments[0].points]
        parts += [s.points[1:] for s in self.segments[1:]]
        return np.concatenate(parts)

    @classmethod
    def circle(cls, center, radius, nodes=4096, t0=0.0) -> "JordanCurve":
        if radius <= 0:
            raise GeometryError("radius must be positive")
        if nodes < _MIN_NODES:
            raise InvalidSizeError(f"need at least {_MIN_NODES} nodes")
        m = _even_at_least(nodes)
        t = 2.0 * math.pi * (t0 + np.linspace(0.0, 1.0, m + 1))
        z = complex(center) + radius * np.exp(1j * t)
        dzdt = 2j * math.pi * radius * np.exp(1j * t)
        seg = Segment(points=z, dzdt=dzdt, tspan=1.0)
        return cls(kind="circle", segments=(seg,), start=complex(z[0]))

    @classmethod
    def rectangle(cls, x0, y0, x1, y1, nodes=4096, t0=0.0) -> "JordanCurve":
        """Axis-aligned rectangle walked counterclockwise from the point at
        perimeter fraction ``t0`` (0 is the corner (x0, y0)), one segment
        per side, the side holding that point split in two."""
        if not (x0 < x1 and y0 < y1):
            raise GeometryError("need x0 < x1 and y0 < y1")
        if nodes < _MIN_NODES:
            raise InvalidSizeError(f"need at least {_MIN_NODES} nodes")
        verts = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
        lengths = [abs(verts[(i + 1) % 4] - verts[i]) for i in range(4)]
        perimeter = sum(lengths)

        # rotate the corner cycle so the walk starts at parameter t0,
        # splitting a side when t0 lands strictly inside one
        s = (t0 % 1.0) * perimeter
        cum = np.concatenate([[0.0], np.cumsum(lengths)])
        side = int(np.searchsorted(cum, s, side="right") - 1)
        side = min(side, 3)
        frac = (s - cum[side]) / lengths[side]
        if frac < 1e-12 or frac > 1.0 - 1e-12:
            anchor = (side + (frac > 0.5)) % 4
            cycle = [verts[(anchor + i) % 4] for i in range(4)]
        else:
            p = verts[side] + frac * (verts[(side + 1) % 4] - verts[side])
            cycle = [p] + [verts[(side + 1 + i) % 4] for i in range(4)]
        cycle.append(cycle[0])

        segments = []
        for a, b in zip(cycle[:-1], cycle[1:]):
            ln = abs(b - a)
            m = _even_at_least(round(nodes * ln / perimeter))
            u = np.linspace(0.0, 1.0, m + 1)
            tspan = ln / perimeter
            points = a + u * (b - a)
            dzdt = np.full(m + 1, (b - a) / tspan, dtype=np.complex128)
            segments.append(Segment(points=points, dzdt=dzdt, tspan=tspan))
        return cls(kind="rectangle", segments=tuple(segments), start=complex(cycle[0]))


@dataclass(frozen=True)
class LogIntegralResult:
    """Value of the log-kernel line integral plus the start point it is
    anchored to; the winding of the kernel argument is kept for diagnosis."""

    value: complex
    start: complex
    winding: float


def _simpson(values: np.ndarray, tspan: float) -> complex:
    m = values.shape[0] - 1
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return complex((tspan / m) / 3.0 * np.dot(w, values))


def _interior_trace(curve: JordanCurve, z: complex) -> BranchTrace:
    chain = curve.chain()
    scale = float(np.abs(chain - chain.mean()).max())
    if float(np.abs(chain - z).min()) < _DISTANCE_RTOL * scale:
        raise GeometryError("evaluation point is too close to the curve")
    return unwrap_argument(np.angle(chain - z))


def _require_interior(curve: JordanCurve, z: complex) -> None:
    trace = _interior_trace(curve, z)
    if abs(trace.winding - 2.0 * math.pi) < _INTERIOR_TOL:
        return
    if abs(trace.winding) < _INTERIOR_TOL:
        raise GeometryError("evaluation point lies outside the curve")
    raise GeometryError(
        f"unexpected winding {trace.winding:.6f}; curve is not a simple loop around z"
    )


def cauchy_integral(f: AnalyticTestFunction, curve: JordanCurve, z) -> complex:
    """(1/2pi*i) * contour_integral f(z')/(z' - z) dz' for interior z.

    Periodic trapezoid on circles (spectrally accurate), composite Simpson
    per side on rectangles.
    """
    z = complex(z)
    _require_interior(curve, z)
    total = 0j
    if curve.kind == "circle":
        seg = curve.segments[0]
        g = f.value(seg.points[:-1]) / (seg.points[:-1] - z) * seg.dzdt[:-1]
        total = complex(g.sum() * (seg.tspan / (len(seg.points) - 1)))
    else:
        for seg in curve.segments:
            g = f.value(seg.points) / (seg.points - z) * seg.dzdt
            total += _simpson(g, seg.tspan)
    return total / (2j * math.pi)


def log_kernel_line_integral(
    f: AnalyticTestFunction, curve: JordanCurve, z, kernel: str = "z-zp"
) -> LogIntegralResult:
    """-(1/2pi*i) * contour_integral ln(z - z') f'(z') dz', branch-tracked.

    ``kernel`` selects ln(z - z') or the reversed ln(z' - z); around a
    closed curve the two differ by a constant i*pi, which integrates
    against f' to zero, so both orders give the same value (the verify
    suite prints both).  The logarithm's argument is unwrapped along the
    whole chain from the principal value at the start node, so the closing
    node carries arg(start) + 2*pi and the integrand is smooth on the
    parameter interval even though its endpoint values differ.
    """
    z = complex(z)
    if kernel not in ("z-zp", "zp-z"):
        raise DataError(f"kernel must be 'z-zp' or 'zp-z', got {kernel!r}")
    _require_interior(curve, z)
    chain = curve.chain()
    w = (z - chain) if kernel == "z-zp" else (chain - z)
    trace = unwrap_argument(np.angle(w))
    logs = np.log(np.abs(w)) + 1j * trace.angles
    total = 0j
    offset = 0
    for seg in curve.segments:
        m = len(seg.points) - 1
        vals = logs[offset : offset + m + 1] * f.derivative(seg.points) * seg.dzdt
        total += _simpson(vals, seg.tspan)
        offset += m
    return LogIntegralResult(
        value=complex(total / (-2j * math.pi)),
        start=curve.start,
        winding=trace.winding,
    )
