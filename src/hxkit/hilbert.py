"""Discrete Hilbert transforms as spectral multiplier passes.

Sign convention.  The classical transform here is convolution with the
kernel -1/(pi*x), which in the frequency domain is multiplication by
i*sgn(s).  Under this convention H{cos} = -sin and H{sin} = cos; the common
alternative (+1/(pi*x) kernel) flips both signs.

Second form.  Integrating the defining integral by parts moves the
derivative onto the transformed function and replaces the Cauchy kernel with
a logarithm.  In the frequency domain the result is multiplication by
-i*(sgn(s) +/- 1), where the +/- tracks the branch chosen for the argument
of the logarithm of a negative number (arg = +pi or -pi).  The plus branch
nullifies every strictly negative frequency bin, so its multiplied spectrum
is one-sided and the inverse transform can run at half length
(:func:`hxkit.dft.dft_inverse_halfband`).

DC and Nyquist.  sgn is taken as 0 at both bins.  The second-form multiplier
therefore carries a finite DC weight of -i (plus branch) or +i (minus
branch): the delta mass that formally sits at s = 0 is folded into the DC
bin, the unique choice that keeps the multiplier equal to -i*(sgn(s) +/- 1)
at every bin and makes Im(H2{f}) = -/+ f exact.  A consequence worth noting:
the fitted constant in H2 = -H + c*i*f comes out at c = -/+ 1, not -/+ 2;
:func:`corollary_equivalence_report` measures and reports exactly this.

One spectral pipeline.  Every public transform takes a real signal.  Off
the half-band route, the second form -H f -/+ i*f and the analytic signal
f - i*H f are assembled from one H f, so their Re/Im identities hold bit
for bit.  For even length N, H f runs one length-N/2 complex DFT in each
direction (Sorensen, Jones, Heideman & Burrus 1987, "Real-valued FFT
algorithms").  The forward one reads x[2m] + i*x[2m+1] without a copy.
Unpacking its spectrum Z, multiplying and repacking are linear in Z[k]
and conj Z[N/2-k], so they run as one O(N) pass with weights derived from
:func:`multiplier_bins`, and the inverse of the result, read as pairs, is
the real output by construction.  The half-band route unpacks and
multiplies bins 0..N/2 only, for :func:`hxkit.dft.dft_inverse_halfband`.
These passes, and the assembly of a complex output from H f and f, run
span by span (:func:`hxkit.dft._chunks`; the repack takes each span of
bins with its mirror N/2 - k), so that a span's operands stay in cache
from one pass to the next; each bin takes the same float operations in
the same order, so the span length changes no output bit.
Odd lengths, the log-image route and the equivalence report run one
length-N forward -> multiply -> inverse pipeline; the odd first form
raises :class:`~hxkit.errors.InvariantBreach` if the imaginary residue of
its inverse exceeds 1e-12 of the peak; its multiplier, 0 at DC and +/-i
elsewhere, is applied as three scalars, with no table.  Plans and the
roots of unity of each even size (every even-N weight is read off them)
come from the one byte-bounded table cache in :mod:`hxkit.dft`, and
scratch rows from the engine's per-thread workspace, so a warmed call
allocates a few arrays of the output's size.  Each route takes its tables
before it allocates its spectrum or touches the workspace, so a first
call at a new size allocates little more than the tables and workspace it
leaves cached and its warm peak.

No route writes into its input: each reads the samples in place (copied
once to contiguous float64 if strided, float32 or complex) and allocates
only its spectrum and its result.  A peak outside [2^-513, 2^512) is
first scaled into [1/2, 1) by a power of two and the result scaled back
(:func:`_at_unit_scale`), which is exact, so finite input of any
magnitude cannot overflow inside the engine.  A result beyond the float64
range (peaks near 1.8e308) raises :class:`~hxkit.errors.ResultOverflowError`.

Grid metadata (x0, dx) rides along unchanged: the multipliers are
dimensionless, so spacing only matters to quadrature oracles that need the
two representations on a common axis.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dft import (
    _chunks,
    _half_roots,
    _inverse_into,
    _spare_row,
    _table,
    _transform_size,
    dft_forward,
    dft_inverse,
    dft_inverse_halfband,
    plan,
)
from .errors import (
    DataError,
    DegenerateFitError,
    DomainError,
    InvalidSizeError,
    ResultOverflowError,
    SingularFrequencyError,
    SizeMismatchError,
    InvariantBreach,
)

__all__ = [
    "Signal",
    "Branch",
    "bin_frequencies",
    "multiplier_bins",
    "log_image",
    "hilbert_first",
    "hilbert_second",
    "hilbert_second_via_log_image",
    "analytic_signal",
    "corollary_equivalence_report",
    "EquivalenceReport",
    "infinity_norm_log10",
]


class Branch(Enum):
    """Branch of the logarithm's argument for negative reals: +pi or -pi."""

    PLUS = "plus"
    MINUS = "minus"

    @property
    def sign(self) -> int:
        return +1 if self is Branch.PLUS else -1


def _as_branch(branch) -> Branch:
    if isinstance(branch, Branch) or branch in ("plus", "minus"):
        return Branch(branch)
    raise DomainError(f"branch must be 'plus' or 'minus', got {branch!r}")


@dataclass(frozen=True)
class Signal:
    """Samples on a uniform grid x_n = x0 + n*dx."""

    samples: np.ndarray
    x0: float = 0.0
    dx: float = 1.0

    def __post_init__(self):
        arr = np.asarray(self.samples)
        if arr.ndim != 1 or arr.shape[0] < 2:
            raise InvalidSizeError("a signal needs at least 2 samples on one axis")
        if not np.isfinite(arr).all():
            raise DataError("non-finite samples")
        if not (0 < self.dx < math.inf and math.isfinite(self.x0)):
            raise DataError(f"grid needs a finite x0 and dx > 0, got x0={self.x0}, dx={self.dx}")
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def grid(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(len(self))


def bin_frequencies(n: int) -> np.ndarray:
    """Dimensionless bin frequencies: k/n below Nyquist, (k-n)/n above."""
    n = _transform_size(n)
    k = np.arange(n)
    return np.where(k <= n // 2, k, k - n) / n


def multiplier_bins(n: int, branch=None) -> np.ndarray:
    """Spectral multiplier on the n bins, with sgn = 0 at DC and Nyquist.

    ``branch=None`` gives the classical i*sgn(s); a branch gives the second
    form -i*(sgn(s) +/- 1), whose DC weight is therefore -/+ i.
    """
    sgn = np.sign(bin_frequencies(n))
    if n % 2 == 0:
        sgn[n // 2] = 0.0
    if branch is None:
        return 1j * sgn
    return -1j * (sgn + _as_branch(branch).sign)


def log_image(s, branch):
    """Frequency image of the log kernel, -(1/2)(1/|s| +/- 1/s); singular at 0.

    A scalar s gives a ``complex``; an array of frequencies gives a complex
    array of the same shape.
    """
    s = np.asarray(s, dtype=np.float64)
    if np.any(s == 0):
        raise SingularFrequencyError(
            "log image is unbounded at s = 0; use the product-limit DC weight instead"
        )
    img = (-0.5 * (1.0 / np.abs(s) + _as_branch(branch).sign / s)).astype(np.complex128)
    return complex(img) if img.ndim == 0 else img


def _packed_forward(x: np.ndarray) -> np.ndarray:
    """Forward DFT of the packed sequence z[m] = x[2m] + i*x[2m+1] of real
    x (even N), one length-N/2 transform; z is a view, not a copy."""
    return dft_forward(_table("plan", x.shape[0] // 2, plan), x.view(np.complex128))


def _plus_bins(z: np.ndarray, out: np.ndarray, scratch: np.ndarray, c: np.ndarray) -> None:
    """Bins 0..N/2 of the plus-branch product, the length-N spectrum
    unpacked from the packed transform z and multiplied by the plus-branch
    table's -i (DC and Nyquist) and -2i (between), for the half-band route:
    ten passes over each span of :func:`hxkit.dft._chunks`.

    With Z[N/2] := Z[0] and w = exp(-2*pi*i/N), X[k] = (Z[k] + conj
    Z[N/2-k])/2 - (i/2)*w^k*(Z[k] - conj Z[N/2-k]).  w^k is read off the
    roots c = conj w^k (:func:`hxkit.dft._half_roots`) as d*w^k =
    conj(conj(d)*c), which is exact.  The weights are written with +0.0
    real parts (the literal -2j's -0.0 would flip some zero products'
    signs), so each bin has the bits of the table product.  ``scratch``
    has at least N/2 bins.
    """
    nh = z.shape[0]
    for a, e in _chunks(0, nh):
        b, d = scratch[a:e], out[a:e]
        j = a or 1  # bin 0 reads conj Z[N/2] = conj Z[0], set below
        np.conjugate(z[nh - j:nh - e:-1], out=scratch[j:e])
        if a == 0:
            b[0] = np.conj(z[0])
        np.subtract(z[a:e], b, out=d)
        np.conjugate(d, out=d)
        d *= c[a:e]
        np.conjugate(d, out=d)
        d *= -0.5j
        b += z[a:e]
        b *= 0.5
        d += b
        np.multiply(out[j:e], complex(0.0, -2.0), out=out[j:e])
    # A = Z[0], B = conj Z[0]; c[nh] = w^(N/2), both angles reduced to -pi
    out[nh] = z[0].real + (-0.5j * c[nh]) * (2j * z[0].imag)
    np.multiply(out[::nh], complex(0.0, -1.0), out=out[::nh])


def _full_length(x: np.ndarray, weigh) -> np.ndarray:
    """The length-N pipeline: forward DFT, multiply, inverse.

    ``weigh(X, out)`` (:func:`_times` or :func:`_odd_first_weights`)
    writes the spectrum X times the multiplier into ``out``, X or the spare
    row (:func:`hxkit.dft._spare_row`), which the inverse reads uncopied
    on its way into X: the call allocates only the spectrum."""
    n = x.shape[0]
    p = _table("plan", n, plan)
    X = dft_forward(p, x)
    weigh(X, product := _spare_row(p, X))
    _inverse_into(p, product, X, 1.0 / n)
    return X


def _times(m: np.ndarray):
    """Multiplication by the table m of N weights, for :func:`_full_length`."""
    return lambda X, out: np.multiply(X, m, out=out)


def _odd_first_weights(X: np.ndarray, out: np.ndarray) -> None:
    """out = X * multiplier_bins(N) for odd N, with no table: 0 at DC, +i
    on bins 1..(N-1)/2 and -i above.  Each scalar is the table's entry
    (-1j has the -0.0 real part of the table's 1j*(-1.0)), so the product
    has the table product's bits, signed zeros included."""
    h = (X.shape[0] + 1) // 2
    np.multiply(X[:1], 0j, out=out[:1])
    np.multiply(X[1:h], 1j, out=out[1:h])
    np.multiply(X[h:], -1j, out=out[h:])


def _first_form_repack(Z: np.ndarray, out: np.ndarray, roots: np.ndarray) -> None:
    """out[k] = Z'[k], the repacked first-form product, in six real passes
    over each group of spans of :func:`_mirrored_chunks`, on the roots c =
    exp(2*pi*i*k/N) (:func:`hxkit.dft._half_roots`); Z is overwritten.

    Unpacking bins 0..N/2 of the spectrum from the packed transform Z
    (X[k] = (A+B)/2 + t[k]*(A-B) with A = Z[k], B = conj Z[N/2-k] and
    t[k] = -(i/2)*conj c[k], :func:`_plus_bins`), multiplying them by
    m = :func:`multiplier_bins` and repacking the product with conj(t) are
    all linear in A and B, so the three passes collapse into
    Z'[k] = alpha*A + beta*B.  With |t| = 1/2 the weights are
    alpha = (m1+m2)/2 + (m1-m2)*Re t and beta = -i*(m1-m2)*Im t, where
    m1 = m[k] and m2 = conj m[N/2-k].  The first-form multiplier i*sgn is
    imaginary, so alpha is imaginary and beta real; with sgn = 0 at DC and
    Nyquist they are alpha = -i*Im c[k] and beta = -Re c[k], exactly, for
    0 < k < N/2, and Z'[0] = 0.  So Re Z'[k] = Im c*Im Z[k] - Re c*Re
    Z[N/2-k] and Im Z'[k] = Re c*Im Z[N/2-k] - Im c*Re Z[k].
    """
    nh = Z.shape[0]
    cr, ci = roots.real, roots.imag
    zr, zi = Z.real, Z.imag
    re, im = out.real, out.imag
    for spans in _mirrored_chunks(nh):
        for a, b in spans:
            np.multiply(cr[a:b], zr[nh - a:nh - b:-1], out=re[a:b])
            np.multiply(ci[a:b], zi[a:b], out=im[a:b])
            np.subtract(im[a:b], re[a:b], out=re[a:b])  # Im c*Im Z[k] - Re c*Re Z[N/2-k]
        for a, b in spans:
            rev = zi[nh - a:nh - b:-1]
            np.multiply(rev, cr[a:b], out=rev)  # in place: the spans' Im Z[k] have been read
            np.multiply(ci[a:b], zr[a:b], out=im[a:b])
            np.subtract(rev, im[a:b], out=im[a:b])  # Re c*Im Z[N/2-k] - Im c*Re Z[k]
    out[0] = 0.0  # Z'[0] = 0


def _mirrored_chunks(nh: int):
    """Bins 1..N/2-1 as groups of spans closed under k -> N/2 - k: each
    span (a, b) of the lower bins (:func:`hxkit.dft._chunks`) with its
    mirror among the upper ones, or all of them as one span if
    :func:`hxkit.dft._chunks` keeps them whole.  A pass over a group's spans reads Im Z at k and N/2 - k for
    the same bins, so the repack may overwrite them in place."""
    if len(whole := _chunks(1, nh)) == 1:
        return [whole]
    mid = nh // 2 + 1  # bins below mid, N/2 - k above (N/2 itself too, if even)
    return [((a, b), (max(nh - b + 1, mid), nh - a + 1)) for a, b in _chunks(1, mid)]


def _first_form(x: np.ndarray) -> np.ndarray:
    """H x for real x: the packed path for even N, the complex one for odd.

    The even path repacks the product into the spare row; its length-N/2
    inverse is y[2m] + i*y[2m+1], real by construction.  The odd path's
    inverse lands in its spectrum, which leaves the spare row free: the
    real part goes there, the spectrum is dropped, and the result is a
    copy of the row, so no new array is alive beside the spectrum.
    Neither path writes into ``x``.  Each path takes its tables before it
    allocates its spectrum.
    """
    n = x.shape[0]
    if n % 2 == 0:
        p = _table("plan", n // 2, plan)
        roots = _table("roots", n, _half_roots)
        _first_form_repack(_packed_forward(x), zp := _spare_row(p), roots)
        return dft_inverse(p, zp).view(np.float64)
    h = _full_length(x, _odd_first_weights)
    if (residue := _peak(h.imag)) > 1e-12 * (peak := _peak(x)):
        raise InvariantBreach(f"imaginary residue {residue:.3e} exceeds 1e-12 * peak {peak:.3e}")
    row = _spare_row(_table("plan", n, plan)).view(np.float64)[:n]
    row[...] = h.real
    del h
    return row.copy()


def _halfband_plus(x: np.ndarray) -> np.ndarray:
    """Plus-branch second form through the half-length inverse (even N) of
    the plus-branch bins 0..N/2 (:func:`_plus_bins`, its scratch the spare
    row)."""
    nh = x.shape[0] // 2
    p = _table("plan", nh, plan)
    roots = _table("roots", 2 * nh, _half_roots)
    bins = np.empty(nh + 1, dtype=np.complex128)
    _plus_bins(_packed_forward(x), bins, _spare_row(p), roots)
    return dft_inverse_halfband(p, bins)


def _at_unit_scale(x: np.ndarray, transform) -> np.ndarray:
    """transform(x) on x itself or at a unit peak; the result is finite.

    Every public transform enters here; ``transform`` only reads ``x``.
    Within the window below it runs on ``x``: no copy, no scale-back and no
    scan of an output that cannot overflow.  Outside, x is scaled to a peak
    in [1/2, 1) by an exact power of 2 and the result scaled back, so such
    input keeps the bits of the unit-scale run; a result past the float64
    range raises :class:`~hxkit.errors.ResultOverflowError`.
    """
    e = _peak_exponent(x)
    # The window: a peak in [2^(e-1), 2^e) with |e| <= 512.  An output is at
    # most N peaks, a value inside a route at most 8*N^3 (a length-n
    # Bluestein pass holds at most m*n < m^2 of its input's peak, m < 4n,
    # and an inverse's input is at most 2N peaks), under 2^135 for N < 2^44:
    # below 2^647, so nothing overflows.  For e >= -512 each value of at
    # least 2^-509 peaks is normal and rounds as at unit scale, 2^e times
    # smaller; only terms far under the output's rounding can be subnormal.
    if abs(e) <= 512:
        return transform(x)
    return _scaled_back(transform(np.ldexp(x, -e)), e)


def _unit_peak(values: np.ndarray) -> tuple[np.ndarray, int]:
    """values as contiguous float64 or complex128, scaled by 2^-e to a peak
    in [1/2, 1), and e; the scale is exact."""
    v = np.ascontiguousarray(values, dtype=np.result_type(values.dtype, np.float64))
    e = _peak_exponent(parts := v.view(np.float64))
    return np.ldexp(parts, -e).view(v.dtype), e


def _scaled_back(out: np.ndarray, e: int) -> np.ndarray:
    """out * 2^e, in place and exact, for a contiguous float64 or complex128
    ``out``; a result past the float64 range raises
    :class:`~hxkit.errors.ResultOverflowError`."""
    parts = out.view(np.float64)
    top = _peak_exponent(parts) + e
    if top > sys.float_info.max_exp:
        raise ResultOverflowError(
            f"result peak is at least 2^{top - 1}, beyond the float64 range "
            f"(largest finite value {sys.float_info.max:.4g})"
        )
    return np.ldexp(parts, e, out=parts).view(out.dtype)


def _peak(a: np.ndarray) -> float:
    """max|a| for real a, without an |a| temporary."""
    return max(float(a.max()), -float(a.min()))


def _peak_exponent(a: np.ndarray) -> int:
    """The binary exponent of max|a| for real a."""
    return math.frexp(_peak(a))[1]


def _require_real(f: Signal, op: str) -> np.ndarray:
    """The samples as one contiguous float64 array, copied only if they are not."""
    x = f.samples
    if np.iscomplexobj(x) and x.imag.any():
        raise DataError(f"{op} expects a real-valued signal")
    return np.ascontiguousarray(x.real, dtype=np.float64)


def _result(f: Signal, samples: np.ndarray) -> Signal:
    """``samples`` on f's grid, without re-scanning a finite result."""
    out = object.__new__(Signal)
    out.__dict__.update(samples=samples, x0=f.x0, dx=f.dx)
    return out


def hilbert_first(f: Signal) -> Signal:
    """Classical discrete Hilbert transform (multiplier i*sgn(s)); real output.

    DC and Nyquist content is annihilated.  A peak outside [2^-513, 2^512)
    is first scaled into [1/2, 1) by a power of two, which is exact.  Even
    lengths run one length-N/2 forward DFT of the packed real signal and
    one length-N/2 inverse whose output is real by construction.  Odd
    lengths run the length-N pipeline; the imaginary residue of its
    inverse is checked against 1e-12*max|f| and truncated.
    """
    x = _require_real(f, "hilbert_first")
    return _result(f, _at_unit_scale(x, _first_form))


def hilbert_second(f: Signal, branch, halfband: bool = False) -> Signal:
    """Second-form transform: multiplier -i*(sgn(s) +/- 1); complex output.

    The multiplier is -(i*sgn(s)) -/+ i, so the output z satisfies
    Re z = -hilbert_first(f) and Im z = -/+ f (plus/minus branch).  z is
    built as exactly that at every length, so both identities hold bit for
    bit.

    With ``halfband=True`` the packed forward DFT gives the one-sided
    multiplied spectrum (plus branch) and the inverse stage runs at half
    length (:func:`hxkit.dft.dft_inverse_halfband`); the minus branch is
    the conjugate of the plus-branch output, taken in place and valid for
    real f.  Requires even length.  Every route scales its input as
    :func:`hilbert_first` does.
    """
    b = _as_branch(branch)
    x = _require_real(f, "hilbert_second")
    if halfband:
        if len(x) % 2:
            raise InvalidSizeError("halfband inverse needs an even signal length")
        z = _at_unit_scale(x, _halfband_plus)
        return _result(f, z if b is Branch.PLUS else np.conjugate(z, out=z))
    h = _at_unit_scale(x, _first_form)
    z = np.empty(len(h), dtype=np.complex128)
    zr, zi = z.real, z.imag
    for a, e in _chunks(0, len(h)):  # both parts of a span while it is in cache
        np.negative(h[a:e], out=zr[a:e])
        np.multiply(x[a:e], -b.sign, out=zi[a:e])
    return _result(f, z)


def _log_image_route(x: np.ndarray, b: Branch) -> np.ndarray:
    """The second form of real x through the three spectral factors."""
    n = len(x)
    s = bin_frequencies(n)
    mask = s != 0.0
    if n % 2 == 0:
        mask[n // 2] = False
    sm = s[mask]
    m = np.full(n, -1j * b.sign)  # limit of the three-factor product as s -> 0
    m[mask] = (1.0 / np.pi) * (2j * np.pi * sm) * log_image(sm, b)
    return _full_length(x, _times(m))


def hilbert_second_via_log_image(f: Signal, branch) -> Signal:
    """Second form routed through the derivative theorem and the log image.

    Three spectral factors: the derivative image 2*pi*i*s, the log image
    -(1/2)(1/|s| +/- 1/s), and the 1/pi prefactor of the defining
    convolution.  Their product collapses to -i*(sgn(s) +/- 1) away from
    s = 0, with the frequency scale cancelling between the first two
    factors.  At DC (and Nyquist, where sgn is pinned to 0) the finite
    product limit -/+ i is used directly.  Scales its input as
    :func:`hilbert_first` does.
    """
    b = _as_branch(branch)
    x = _require_real(f, "hilbert_second_via_log_image")
    return _result(f, _at_unit_scale(x, lambda v: _log_image_route(v, b)))


def analytic_signal(f: Signal) -> Signal:
    """f - i*H{f}: real part is f, strictly negative frequency bins vanish.

    Assembled from one first-form call, as :func:`hilbert_second` is."""
    x = _require_real(f, "analytic_signal")
    h = _at_unit_scale(x, _first_form)
    z = np.empty(len(h), dtype=np.complex128)
    zr, zi = z.real, z.imag
    for a, e in _chunks(0, len(h)):  # both parts of a span while it is in cache
        zr[a:e] = x[a:e]
        np.subtract(0.0, h[a:e], out=zi[a:e])  # np.negative would turn a zero of H f into -0.0
    return _result(f, z)


@dataclass(frozen=True)
class EquivalenceReport:
    """Fitted constant in H2 = -H + c*i*f, with the fit residual."""

    c_fit: float
    residual_inf: float
    paper_consistent: bool
    branch: Branch


def corollary_equivalence_report(f: Signal, branch) -> EquivalenceReport:
    """Least-squares verdict on the claimed identity H2 = -H +/- 2i*f.

    Fits the real scalar c minimizing ||H2 - (-H + c*i*f)||_2 and reports
    whether |c_fit| lands within 1e-3 of 2 (the claimed factor).  Multiplier
    algebra puts c at -/+ 1, so ``paper_consistent`` is expected false; the
    report exists to surface that discrepancy, not to hide it.  H2 comes
    from the length-N pipeline and H from the first form behind
    :func:`hilbert_first`, so the residual compares two pipelines.  The fit
    runs at a unit peak with numpy's sums, not BLAS, so c_fit is the same
    on any BLAS thread count and for f times any power of 2.
    """
    b = _as_branch(branch)
    x = _require_real(f, "corollary_equivalence_report")
    xs, e = _unit_peak(x)  # exact, so no sum underflows; only 0 has no fit
    if (ss := float(np.sum(xs * xs))) == 0.0:
        raise DegenerateFitError("cannot fit against a zero signal")
    # the public H2 is built as -H f -/+ i*f, so its residual would read 0
    r = _full_length(xs, _times(multiplier_bins(len(xs), b)))
    r += _first_form(xs)  # H2 + H, what c*i*f must explain
    c = float(np.sum(xs * r.imag)) / ss
    r.imag -= c * xs
    residual = math.ldexp(float(np.abs(r).max()), e)
    return EquivalenceReport(
        c_fit=c,
        residual_inf=residual,
        paper_consistent=bool(abs(abs(c) - 2.0) <= 1e-3),
        branch=b,
    )


def infinity_norm_log10(a, b) -> float:
    """-log10 of the max absolute difference; +inf for exact equality."""
    av = a.samples if isinstance(a, Signal) else np.asarray(a)
    bv = b.samples if isinstance(b, Signal) else np.asarray(b)
    if av.shape != bv.shape:
        raise SizeMismatchError(f"shape mismatch: {av.shape} vs {bv.shape}")
    diff = np.abs(av - bv).max()
    if diff == 0.0:
        return math.inf
    return float(-math.log10(diff))
