"""Time-domain oracles for the singular integrals behind the transforms.

Everything in this module works directly on sampled grids with no spectral
machinery, so it can confront the multiplier-based transforms with
independently computed numbers.  Three singular-integral tools live here:

* principal-value quadrature of the Cauchy kernel 1/(x - x'), realized by
  symmetric exclusion of the singular node (the odd kernel cancels in pairs);
* branch-resolved quadrature of the logarithmic kernel ln(x - x'), where
  ln of a negative argument is split as ln|.| + i*pi with the sign of the
  imaginary part tied to the chosen Branch;
* the Stieltjes integration-by-parts residual, a direct numeric statement of
  integral f dalpha + integral alpha df = boundary product.

The log kernel is integrable through its singularity, so the cell that
contains the evaluation point is integrated analytically instead of being
dropped; dropping it costs an O(h ln h) bias that would blow the error
budget of the cross-oracle comparisons.

The quadrature oracles are linear in the samples, so each runs on them
scaled to a unit peak by an exact power of 2 and scales its result back,
as the spectral transforms do outside their window: finite samples of any
magnitude give the bits of the unit-scale run, and only a result beyond
the float64 range raises :class:`~hxkit.errors.ResultOverflowError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    DecayError,
    DomainError,
    InvalidSizeError,
    NonUniformGridError,
    SizeMismatchError,
)
from .hilbert import Branch, _as_branch, _scaled_back, _unit_peak

__all__ = [
    "GridFunction",
    "pv_symmetric_demo",
    "grid_derivative",
    "hilbert_first_pv_quadrature",
    "hilbert_second_quadrature",
    "log_kernel_convolve",
    "stieltjes_residual",
]

# relative wiggle below which a grid counts as uniformly spaced
_UNIFORM_RTOL = 1e-9

# endpoint samples must sit this far below the peak before the truncated
# whole-line integrals are trustworthy
_DECAY_RTOL = 1e-6


@dataclass(frozen=True)
class GridFunction:
    """Samples of a function on strictly increasing abscissae."""

    nodes: np.ndarray
    values: np.ndarray
    uniform: bool = field(init=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        values = np.asarray(self.values)
        if nodes.ndim != 1 or nodes.shape[0] < 3:
            raise InvalidSizeError("a grid function needs at least 3 nodes")
        if values.shape != nodes.shape:
            raise SizeMismatchError(
                f"{values.shape[0] if values.ndim == 1 else values.shape} values "
                f"for {nodes.shape[0]} nodes"
            )
        if not np.all(np.isfinite(nodes)):
            raise DataError("non-finite nodes")
        if not np.isfinite(values).all():
            raise DataError("non-finite values")
        d = np.diff(nodes)
        if np.any(d <= 0):
            raise DataError("nodes must be strictly increasing")
        h = float(d.mean())
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "uniform", bool(np.abs(d - h).max() <= _UNIFORM_RTOL * h))

    def __len__(self) -> int:
        return self.nodes.shape[0]

    @property
    def spacing(self) -> float:
        """Mean node spacing; only meaningful when ``uniform`` is true."""
        return float((self.nodes[-1] - self.nodes[0]) / (len(self) - 1))


def pv_symmetric_demo(a: float, b: float, eps: float) -> float:
    """The two-sided limit definition applied to the kernel 1/x, analytically.

    integral_a^-eps dx/x + integral_eps^b dx/x = ln(eps/-a) + ln(b/eps)
    = ln(b/-a): the eps dependence cancels exactly, which is the whole point
    of taking the excision symmetrically.  Returns ln(b/-a); zero when the
    interval is symmetric.
    """
    if not (a < 0.0 < b):
        raise DomainError(f"need a < 0 < b, got a={a}, b={b}")
    if not (0.0 < eps < min(-a, b)):
        raise DomainError(f"need 0 < eps < min(-a, b) = {min(-a, b)}, got {eps}")
    return math.log(b / -a)


def _require_uniform(f: GridFunction) -> float:
    if not f.uniform:
        raise NonUniformGridError("only uniform grids are supported")
    return f.spacing


def _require_decay(f: GridFunction) -> None:
    peak = float(np.abs(f.values).max())
    edge = max(float(abs(f.values[0])), float(abs(f.values[-1])))
    if edge > _DECAY_RTOL * peak:
        raise DecayError(
            f"endpoint magnitude {edge:.3e} exceeds {_DECAY_RTOL:.0e} * peak {peak:.3e}; "
            "the truncated whole-line integral would be unreliable"
        )


def _eval_indices(f: GridFunction, x_eval) -> np.ndarray:
    if x_eval is None:
        return np.arange(len(f))
    h = f.spacing
    xs = np.atleast_1d(np.asarray(x_eval, dtype=np.float64))
    pos = np.rint((np.clip(xs, f.nodes[0] - h, f.nodes[-1] + h) - f.nodes[0]) / h)
    ok = (pos >= 0) & (pos < len(f))  # false for NaN; clipped, no index overflows
    idx = np.where(ok, pos, 0).astype(int)
    if not ok.all() or np.abs(f.nodes[idx] - xs).max() > 1e-9 * h:
        raise DomainError("evaluation points must coincide with grid nodes")
    if idx.shape[0] < 3 or np.any(np.diff(idx) <= 0):  # the nodes of the result
        raise DomainError("x_eval must name at least 3 grid nodes, strictly increasing")
    return idx


def _trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def grid_derivative(values, h: float):
    """Finite-difference derivative: 4th-order centered stencils where the
    five-point window fits, 2nd-order centered one node in from each end,
    one-sided 2nd-order at the ends themselves."""
    v = np.asarray(values)
    n = v.shape[0]
    if n < 3:
        raise InvalidSizeError("derivative stencil needs at least 3 nodes")
    g = np.empty(n, dtype=np.result_type(v.dtype, np.float64))
    g[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    g[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    if n >= 5:
        g[1] = (v[2] - v[0]) / (2.0 * h)
        g[-2] = (v[-1] - v[-3]) / (2.0 * h)
        g[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    else:
        g[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    return g


def hilbert_first_pv_quadrature(
    f: GridFunction, x_eval=None, enforce_decay: bool = True
) -> GridFunction:
    """Principal-value quadrature of -(1/pi) * integral f(x')/(x - x') dx'.

    At each evaluation node the band |x' - x| < h, which holds only the
    singular node, is skipped; the exclusion is symmetric about the node, so
    the odd kernel cancels in pairs.  Trapezoid endpoint weights.  The
    excluded band is then restored analytically: its principal value is
    -h*f'(x) + O(h^3), nonzero for asymmetric f, and leaving it out would
    cap the rule at first order.  ``enforce_decay=False`` skips the
    endpoint-decay check for deliberate experiments with non-decaying inputs
    (the truncated integral then carries an O(1) domain-boundary term; see
    pv_symmetric_demo).
    """
    h = _require_uniform(f)
    if enforce_decay:
        _require_decay(f)
    idx = _eval_indices(f, x_eval)
    v, e = _unit_peak(f.values)
    w = _trapezoid_weights(len(f)) * v
    deriv = grid_derivative(v, h)
    out = np.empty(idx.shape[0], dtype=v.dtype)
    for row, j in enumerate(idx):
        with np.errstate(divide="ignore"):
            k = 1.0 / (f.nodes[j] - f.nodes)
        k[j] = 0.0
        out[row] = -(h / math.pi) * np.dot(w, k) + (h / math.pi) * deriv[j]
    return GridFunction(f.nodes[idx], _scaled_back(out, e))


def _log_kernel_row(f: GridFunction, j: int, h: float, bsign: int) -> np.ndarray:
    """Kernel samples ln(x_j - x') over all nodes, singular cell integrated
    analytically: the cell's |.| part is h*(ln(h/2) - 1) and its arg part
    contributes i*pi over the half of the cell where the argument is
    negative (absent when x_j is the last node)."""
    d = f.nodes[j] - f.nodes
    n = len(f)
    k = np.empty(n, dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore"):
        k.real = np.log(np.abs(d))
        k.imag = np.where(d < 0, bsign * math.pi, 0.0)
    cell = h * (math.log(0.5 * h) - 1.0)
    if j == 0 or j == n - 1:
        cell *= 0.5
    imag_cell = 0.0 if j == n - 1 else bsign * math.pi * 0.5 * h
    # fold the analytic cell integral back into "kernel value * weight * h"
    # form so one dot product covers every node
    wj = 0.5 if (j == 0 or j == n - 1) else 1.0
    k[j] = (cell + 1j * imag_cell) / (wj * h)
    return k


def log_kernel_convolve(f: GridFunction, branch, x_eval=None) -> GridFunction:
    """(1/pi) * integral ln(x - x') g(x') dx' by trapezoid with the singular
    cell handled analytically; the branch fixes arg of negative arguments."""
    b = _as_branch(branch)
    h = _require_uniform(f)
    idx = _eval_indices(f, x_eval)
    v, e = _unit_peak(f.values)
    w = _trapezoid_weights(len(f)) * v
    out = np.empty(idx.shape[0], dtype=np.complex128)
    for row, j in enumerate(idx):
        out[row] = np.dot(w, _log_kernel_row(f, j, h, b.sign))
    out *= h / math.pi
    return GridFunction(f.nodes[idx], _scaled_back(out, e))


def hilbert_second_quadrature(f: GridFunction, branch, x_eval=None) -> GridFunction:
    """Second-form transform by direct quadrature: differentiate f on the
    grid, then convolve with the branch-resolved log kernel.

    Independent of the spectral route end to end: stencil derivative, real
    logarithm plus explicit i*pi*branch bookkeeping, trapezoid weights.
    For real decaying f the real part reproduces -(classical transform) and
    the imaginary part reproduces -/+ f, up to quadrature error.  f must
    decay to 1e-6 of its peak at both ends, or :class:`DecayError` is raised.
    """
    h = _require_uniform(f)
    _require_decay(f)
    v, e = _unit_peak(f.values)
    out = log_kernel_convolve(GridFunction(f.nodes, grid_derivative(v, h)), branch, x_eval)
    return GridFunction(out.nodes, _scaled_back(out.values, e))


def stieltjes_residual(f: GridFunction, alpha: GridFunction, a: float, b: float) -> float:
    """|integral f dalpha + integral alpha df - boundary product|.

    Both Stieltjes integrals use the trapezoid pairing
    sum (f_i + f_{i+1})/2 * (alpha_{i+1} - alpha_i), which telescopes
    against the boundary product exactly (discrete summation by parts), so
    the residual sits at rounding level for any resolution; it is the
    float-arithmetic statement of the integration-by-parts identity.
    Works on non-uniform grids.
    """
    if len(f) != len(alpha) or np.abs(f.nodes - alpha.nodes).max() > 1e-12 * max(
        1.0, float(np.abs(f.nodes).max())
    ):
        raise SizeMismatchError("f and alpha must share one grid")
    span_tol = 1e-12 * max(1.0, abs(a), abs(b))
    if abs(f.nodes[0] - a) > span_tol or abs(f.nodes[-1] - b) > span_tol:
        raise DomainError(f"grid must span [{a}, {b}]")
    fv, av = f.values, alpha.values
    f_mid = 0.5 * (fv[1:] + fv[:-1])
    a_mid = 0.5 * (av[1:] + av[:-1])
    f_dalpha = np.sum(f_mid * np.diff(av))
    alpha_df = np.sum(a_mid * np.diff(fv))
    boundary = fv[-1] * av[-1] - fv[0] * av[0]
    return float(abs(f_dalpha + alpha_df - boundary))
