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

One real-data pipeline.  Every public transform takes a real signal, and
for even length N it runs one length-N/2 complex DFT in each direction
(Sorensen, Jones, Heideman & Burrus 1987, "Real-valued FFT algorithms").
The forward transform packs x[2m] + i*x[2m+1] without a copy and unpacks
bins 0..N/2 of the length-N spectrum in O(N).  The inverse repacks the
multiplied Hermitian spectrum from the same bins, and its length-N/2 output,
read as interleaved pairs, is the real result by construction.  The second
form is then built as -H f -/+ i*f, so its Re/Im identities hold bit for
bit.  Odd lengths keep the length-N complex pipeline, whose inverse leaves
an imaginary rounding residue; only that path checks the residue and raises
:class:`~hxkit.errors.InvariantBreach` if it exceeds 1e-12 of the peak.
Before any of this the signal is scaled to a peak in [1/2, 1) by a power of
two and the result scaled back.  That is exact, so ordinary input keeps
the same bits, and finite input of any magnitude cannot overflow inside the
engine.  A result that itself exceeds the float64 range (possible only for
peaks near 1.8e308) raises :class:`~hxkit.errors.ResultOverflowError`
instead of being scaled back.

Grid metadata (x0, dx) rides along unchanged: the multipliers are
dimensionless, so spacing only matters to quadrature oracles that need the
two representations on a common axis.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .dft import DftPlan, dft_forward, dft_inverse, dft_inverse_halfband, plan
from .errors import (
    DataError,
    DegenerateFitError,
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
    if isinstance(branch, Branch):
        return branch
    return Branch(str(branch))


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
        if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
            raise DataError("non-finite samples")
        if not (self.dx > 0):
            raise DataError(f"grid spacing must be positive, got {self.dx}")
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def grid(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(len(self))

    def with_samples(self, samples: np.ndarray) -> "Signal":
        return Signal(samples, self.x0, self.dx)


def bin_frequencies(n: int) -> np.ndarray:
    """Dimensionless bin frequencies: k/n below Nyquist, (k-n)/n above."""
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


def log_image(s: float, branch) -> complex:
    """Frequency image of the log kernel, -(1/2)(1/|s| +/- 1/s); singular at 0."""
    if s == 0:
        raise SingularFrequencyError(
            "log image is unbounded at s = 0; use the product-limit DC weight instead"
        )
    b = _as_branch(branch)
    return complex(-0.5 * (1.0 / abs(s) + b.sign / s))


@lru_cache(maxsize=32)
def _cached_plan(n: int) -> DftPlan:
    return plan(n)


@lru_cache(maxsize=32)
def _pack_twiddles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """-(i/2)*w^k for k <= n/2 (unpack) and (i/2)*conj(w)^k for k < n/2
    (repack), with w = exp(-2*pi*i/n)."""
    w = np.exp(-2j * np.pi * np.arange(n // 2 + 1) / n)
    unpack = -0.5j * w
    repack = 0.5j * np.conj(w[:-1])
    unpack.setflags(write=False)
    repack.setflags(write=False)
    return unpack, repack


@lru_cache(maxsize=32)
def _half_multiplier(n: int, branch) -> np.ndarray:
    """multiplier_bins(n, branch) on bins 0..n/2, which the packed path uses."""
    m = multiplier_bins(n, branch)[: n // 2 + 1].copy()
    m.setflags(write=False)
    return m


def _butterfly(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(a + b)/2 + t*(a - b), the shared step of the unpack and the repack."""
    d = a - b
    d *= t
    s = a + b
    s *= 0.5
    s += d
    return s


def _packed_forward(x: np.ndarray) -> np.ndarray:
    """Bins 0..N/2 of the DFT of real x (even N) from one length-N/2 DFT.

    z[m] = x[2m] + i*x[2m+1] is a view, not a copy.  With Z its transform
    and Z[N/2] := Z[0], X[k] = (Z[k] + conj Z[N/2-k])/2
    - (i/2)*w^k*(Z[k] - conj Z[N/2-k]).
    """
    nh = x.shape[0] // 2
    z = dft_forward(_cached_plan(nh), x.view(np.complex128))
    a = np.append(z, z[0])
    return _butterfly(a, np.conj(a[::-1]), _pack_twiddles(2 * nh)[0])


def _packed_inverse(y: np.ndarray) -> np.ndarray:
    """Real length-N inverse of a Hermitian spectrum given on bins 0..N/2.

    The repacked Z'[k] = (Y[k] + conj Y[N/2-k])/2
    + (i/2)*conj(w)^k*(Y[k] - conj Y[N/2-k]) has the length-N/2 inverse
    y[2m] + i*y[2m+1], so the output is real by construction.
    """
    nh = y.shape[0] - 1
    zp = _butterfly(y[:nh], np.conj(y[nh:0:-1]), _pack_twiddles(2 * nh)[1])
    return dft_inverse(_cached_plan(nh), zp).view(np.float64)


def _full_length(x: np.ndarray, branch=None) -> np.ndarray:
    """The complex pipeline: length-N forward, multiply, length-N inverse."""
    n = x.shape[0]
    p = _cached_plan(n)
    return dft_inverse(p, dft_forward(p, x) * multiplier_bins(n, branch))


def _first_form(x: np.ndarray) -> np.ndarray:
    """H x for real x: the packed path for even N, the complex one for odd."""
    n = x.shape[0]
    if n % 2 == 0:
        return _packed_inverse(_packed_forward(x) * _half_multiplier(n, None))
    out = _full_length(x)
    peak = np.abs(x).max()
    residue = np.abs(out.imag).max()
    if residue > 1e-12 * peak:
        raise InvariantBreach(
            f"imaginary residue {residue:.3e} exceeds 1e-12 * peak {peak:.3e}"
        )
    return out.real.copy()


def _halfband_plus(x: np.ndarray) -> np.ndarray:
    """Plus-branch second form through the half-length inverse (even N)."""
    n = x.shape[0]
    spectrum = np.zeros(n, dtype=np.complex128)
    spectrum[: n // 2 + 1] = _packed_forward(x) * _half_multiplier(n, Branch.PLUS)
    return dft_inverse_halfband(_cached_plan(n // 2), spectrum)


def _at_unit_scale(x: np.ndarray, transform) -> np.ndarray:
    """transform(x) computed on x scaled to a peak in [1/2, 1) by a power of 2.

    Every public transform enters here.  The transforms are linear and
    scaling by 2**e is exact, so ordinary input keeps the same bits while
    finite input of any magnitude stays clear of overflow inside the
    engine.  A zero signal has e = 0 and passes through unscaled.  A
    result whose peak would exceed the float64 range after scaling back
    raises :class:`~hxkit.errors.ResultOverflowError`.
    """
    e = math.frexp(float(np.abs(x).max()))[1]
    out = transform(np.ldexp(x, -e))
    parts = out.view(np.float64)
    top = math.frexp(float(np.abs(parts).max()))[1] + e
    if top > sys.float_info.max_exp:
        raise ResultOverflowError(
            f"result peak is at least 2^{top - 1}, beyond the float64 range "
            f"(largest finite value {sys.float_info.max:.4g})"
        )
    return np.ldexp(parts, e).view(out.dtype)


def _require_real(f: Signal, op: str) -> np.ndarray:
    x = f.samples
    if np.iscomplexobj(x) and np.abs(x.imag).max() > 0:
        raise DataError(f"{op} expects a real-valued signal")
    return x.real.astype(np.float64, copy=False)


def hilbert_first(f: Signal) -> Signal:
    """Classical discrete Hilbert transform (multiplier i*sgn(s)); real output.

    DC and Nyquist content is annihilated.  The signal is first scaled to a
    peak in [1/2, 1) by a power of two, which is exact.  Even lengths run
    one length-N/2 forward DFT of the packed real signal and one length-N/2
    inverse whose output is real by construction.  Odd lengths run the
    length-N complex pipeline; the imaginary residue of its inverse is
    checked against 1e-12*max|f| and truncated.
    """
    x = _require_real(f, "hilbert_first")
    return f.with_samples(_at_unit_scale(x, _first_form))


def hilbert_second(f: Signal, branch, halfband: bool = False) -> Signal:
    """Second-form transform: multiplier -i*(sgn(s) +/- 1); complex output.

    By multiplier algebra the output z satisfies Re z = -hilbert_first(f)
    and Im z = -/+ f (plus/minus branch).  For even lengths z is built as
    exactly that, from the packed first-form pipeline, so both identities
    hold bit for bit.  Odd lengths run the length-N complex pipeline with
    the second-form multiplier, where they hold to rounding.

    With ``halfband=True`` the packed forward DFT gives the one-sided
    multiplied spectrum (plus branch) and the inverse stage runs at half
    length (:func:`hxkit.dft.dft_inverse_halfband`); the minus branch is
    the conjugate of the plus-branch output, valid for real f.  Requires
    even length.  Every route runs at unit scale, as in
    :func:`hilbert_first`.
    """
    b = _as_branch(branch)
    x = _require_real(f, "hilbert_second")
    n = len(x)
    if halfband:
        if n % 2:
            raise InvalidSizeError("halfband inverse needs an even signal length")
        z = _at_unit_scale(x, _halfband_plus)
        return f.with_samples(z if b is Branch.PLUS else np.conj(z))
    if n % 2:
        return f.with_samples(_at_unit_scale(x, lambda v: _full_length(v, b)))
    z = np.empty(n, dtype=np.complex128)
    z.real = -_at_unit_scale(x, _first_form)
    z.imag = -b.sign * x
    return f.with_samples(z)


def _log_image_route(x: np.ndarray, b: Branch) -> np.ndarray:
    """The second form of real x through the three spectral factors."""
    n = len(x)
    p = _cached_plan(n)
    s = bin_frequencies(n)
    F = dft_forward(p, x)
    out = np.empty(n, dtype=np.complex128)
    mask = s != 0.0
    if n % 2 == 0:
        mask[n // 2] = False
    sm = s[mask]
    log_img = -0.5 * (1.0 / np.abs(sm) + b.sign / sm)
    out[mask] = (1.0 / np.pi) * (2j * np.pi * sm) * log_img * F[mask]
    limit = -1j * b.sign  # limit of the three-factor product as s -> 0
    out[~mask] = limit * F[~mask]
    return dft_inverse(p, out)


def hilbert_second_via_log_image(f: Signal, branch) -> Signal:
    """Second form routed through the derivative theorem and the log image.

    Three spectral factors: the derivative image 2*pi*i*s, the log image
    -(1/2)(1/|s| +/- 1/s), and the 1/pi prefactor of the defining
    convolution.  Their product collapses to -i*(sgn(s) +/- 1) away from
    s = 0, with the frequency scale cancelling between the first two
    factors.  At DC (and Nyquist, where sgn is pinned to 0) the finite
    product limit -/+ i is used directly.  Runs at unit scale, as in
    :func:`hilbert_first`.
    """
    b = _as_branch(branch)
    x = _require_real(f, "hilbert_second_via_log_image")
    return f.with_samples(_at_unit_scale(x, lambda v: _log_image_route(v, b)))


def analytic_signal(f: Signal) -> Signal:
    """f - i*H{f}: real part is f, strictly negative frequency bins vanish."""
    h = hilbert_first(f)
    return f.with_samples(f.samples.real - 1j * h.samples)


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
    report exists to surface that discrepancy, not to hide it.
    """
    b = _as_branch(branch)
    x = _require_real(f, "corollary_equivalence_report")
    peak = float(np.abs(x).max())
    # l2 norm via peak scaling: squaring tiny samples directly would underflow
    if peak == 0.0 or peak * float(np.linalg.norm(x / peak)) < 1e-300:
        raise DegenerateFitError("cannot fit against a zero signal")
    # fit on the peak-normalized signal: c is scale invariant and the inner
    # products stay clear of underflow for tiny-amplitude inputs
    g = f.with_samples(x / peak)
    xs = g.samples
    h2 = hilbert_second(g, b).samples
    h1 = hilbert_first(g).samples
    r = h2 + h1  # what c*i*f must explain
    v = 1j * xs
    c = float(np.real(np.vdot(v, r)) / np.sum(xs * xs))  # vdot conjugates arg 1
    residual = peak * np.abs(h2 - (-h1 + c * v)).max()
    return EquivalenceReport(
        c_fit=c,
        residual_inf=float(residual),
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
