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
rectangle one per side) into composite 16-point Gauss-Legendre panels in
the segment's own parameter, and both integrals are one weighted sum over
the nodes: exponentially accurate on any smooth segment, periodic or not.
The unwrapped argument lives on a single chain running once around the
curve, from the start point through every node to a separate closing
node, which carries the accumulated value, not a copy of the starting one.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DataError, DensityError, DomainError, GeometryError, InvalidSizeError

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

_PANEL = 16  # Gauss-Legendre nodes per panel
_MIN_NODES = _PANEL
_INTERIOR_TOL = 1e-6
_DISTANCE_RTOL = 1e-3


def _require_finite(error, values: dict) -> None:
    """Raise ``error`` naming the first of ``values`` (name -> number) that
    is not finite."""
    for name, v in values.items():
        if not cmath.isfinite(complex(v)):
            raise error(f"{name} must be finite, got {v!r}")


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
        _require_finite(DomainError, {f"polynomial coefficient {k}": c
                                      for k, c in enumerate(coeffs)})
        return cls(kind="polynomial", coefficients=coeffs)

    @classmethod
    def exponential(cls, a, b) -> "AnalyticTestFunction":
        _require_finite(DomainError, {"exponential scale a": a, "exponential rate b": b})
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
    """One smooth piece of a curve: its Gauss-Legendre nodes, in order, and
    their weights (the panel weights in the segment's own parameter times
    dz/dt), so that sum(weights * g(points)) integrates g dz along it."""

    points: np.ndarray
    weights: np.ndarray


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


@functools.cache
def _rule() -> Tuple[np.ndarray, np.ndarray]:
    """The 16-point Gauss-Legendre nodes and weights on [-1, 1]."""
    from numpy.polynomial.legendre import leggauss  # not at import: hx start-up

    return leggauss(_PANEL)


def _panels(nodes: int, share: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] of max(1, round(nodes*share/16)) equal
    16-point Gauss-Legendre panels."""
    count = max(1, round(nodes * share / _PANEL))
    x, w = _rule()
    u = (np.arange(count)[:, None] + (x + 1.0) / 2.0) / count
    return u.ravel(), np.tile(w / (2.0 * count), count)


@dataclass(frozen=True)
class JordanCurve:
    """Closed, counterclockwise, piecewise-smooth curve, discretized."""

    segments: Tuple[Segment, ...]
    start: complex

    def __post_init__(self):
        # the weights of a closed curve integrate dz to zero
        gap = abs(sum(complex(s.weights.sum()) for s in self.segments))
        if gap > 1e-12 * max(1.0, float(np.abs(self.chain()).max())):
            raise GeometryError("curve is not closed")

    def chain(self) -> np.ndarray:
        """The start, then every node once around the curve; the closing
        node is a separate final entry (same point as the start, its own
        branch value)."""
        return np.concatenate([[self.start], *(s.points for s in self.segments), [self.start]])

    @classmethod
    def circle(cls, center, radius, nodes=4096, t0=0.0) -> "JordanCurve":
        """Circle walked counterclockwise from the point at turn fraction
        ``t0`` (0 is due east of the centre), one segment."""
        _require_finite(GeometryError, {"circle centre": center, "circle radius": radius,
                                        "start parameter t0": t0})
        if radius <= 0:
            raise GeometryError("radius must be positive")
        if nodes < _MIN_NODES:
            raise InvalidSizeError(f"need at least {_MIN_NODES} nodes")
        t0 = t0 % 1.0  # as rectangle reduces it; a t0 in [0, 1) keeps its bits
        u, w = _panels(nodes)
        r = radius * np.exp(2j * math.pi * (t0 + u))
        seg = Segment(points=complex(center) + r, weights=2j * math.pi * r * w)
        start = complex(center) + radius * np.exp(2j * math.pi * t0)
        return cls(segments=(seg,), start=start)

    @classmethod
    def rectangle(cls, x0, y0, x1, y1, nodes=4096, t0=0.0) -> "JordanCurve":
        """Axis-aligned rectangle walked counterclockwise from the point at
        perimeter fraction ``t0`` (0 is the corner (x0, y0)), one segment
        per side, the side holding that point split in two."""
        _require_finite(GeometryError, {"corner x0": x0, "corner y0": y0, "corner x1": x1,
                                        "corner y1": y1, "start parameter t0": t0})
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
            u, w = _panels(nodes, abs(b - a) / perimeter)
            segments.append(Segment(points=a + u * (b - a), weights=(b - a) * w))
        return cls(segments=tuple(segments), start=complex(cycle[0]))


@dataclass(frozen=True)
class LogIntegralResult:
    """Value of the log-kernel line integral plus the start point it is
    anchored to; the winding of the kernel argument is kept for diagnosis."""

    value: complex
    start: complex
    winding: float


def _interior_trace(chain: np.ndarray, w: np.ndarray) -> BranchTrace:
    """The unwrapped argument of w = +/-(chain - z) along the chain, once z
    is found inside the curve and clear of it: clear of every chord between
    neighboring nodes, not just of the nodes, which sit up to 1.5 times
    their mean spacing apart at a panel's centre."""
    scale = float(np.abs(chain - chain.mean()).max())
    a, d = w[:-1], np.diff(w)
    t = np.clip(-(a * d.conj()).real / np.maximum(np.abs(d) ** 2, 1e-300), 0.0, 1.0)
    if float(np.abs(a + t * d).min()) < _DISTANCE_RTOL * scale:
        raise GeometryError("evaluation point is too close to the curve")
    trace = unwrap_argument(np.angle(w))
    if abs(trace.winding - 2.0 * math.pi) < _INTERIOR_TOL:
        return trace
    if abs(trace.winding) < _INTERIOR_TOL:
        raise GeometryError("evaluation point lies outside the curve")
    raise GeometryError(
        f"unexpected winding {trace.winding:.6f}; curve is not a simple loop around z"
    )


def _weights(curve: JordanCurve) -> np.ndarray:
    return np.concatenate([s.weights for s in curve.segments])


def cauchy_integral(f: AnalyticTestFunction, curve: JordanCurve, z) -> complex:
    """(1/2pi*i) * contour_integral f(z')/(z' - z) dz' for interior z.

    The integral is the barycentric quotient of two Gauss-Legendre sums on
    the same nodes, sum w_j f_j/(z_j - z) over sum w_j/(z_j - z), the
    second being the rule applied to f = 1, whose integral is 2*pi*i.  Near
    the curve both sums err alike and their errors cancel in the quotient,
    which dividing the first by 2*pi*i would leave (Ioakimidis, Papadakis
    & Perdios 1991; Austin, Kravanja & Trefethen 2014).
    """
    _require_finite(GeometryError, {"evaluation point z": z})
    z = complex(z)
    chain = curve.chain()
    w = chain - z
    _interior_trace(chain, w)
    q = _weights(curve) / w[1:-1]
    return complex(np.dot(q, f.value(chain[1:-1])) / q.sum())


def log_kernel_line_integral(
    f: AnalyticTestFunction, curve: JordanCurve, z, kernel: str = "z-zp"
) -> LogIntegralResult:
    """-(1/2pi*i) * contour_integral ln(z - z') f'(z') dz', branch-tracked.

    ``kernel`` selects ln(z - z') or the reversed ln(z' - z); around a
    closed curve the two differ by a constant i*pi, which integrates
    against f' to zero, so both orders give the same value (the verify
    suite prints both).  The logarithm's argument is unwrapped once along
    the whole chain from the principal value at the start point, so the
    closing node carries arg(start) + 2*pi; that one trace also gives the
    winding and distance verdicts.  The integral is one Gauss-Legendre
    weighted sum over the nodes between.
    """
    _require_finite(GeometryError, {"evaluation point z": z})
    z = complex(z)
    if kernel not in ("z-zp", "zp-z"):
        raise DataError(f"kernel must be 'z-zp' or 'zp-z', got {kernel!r}")
    chain = curve.chain()
    w = (z - chain) if kernel == "z-zp" else (chain - z)
    trace = _interior_trace(chain, w)
    logs = np.log(np.abs(w[1:-1])) + 1j * trace.angles[1:-1]
    total = np.dot(_weights(curve), logs * f.derivative(chain[1:-1]))
    return LogIntegralResult(
        value=complex(total / (-2j * math.pi)),
        start=curve.start,
        winding=trace.winding,
    )
