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

Grid metadata (x0, dx) rides along unchanged: the multipliers are
dimensionless, so spacing only matters to quadrature oracles that need the
two representations on a common axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .dft import DftPlan, dft_forward, dft_inverse, dft_inverse_halfband, plan
from .errors import (
    DataError,
    DegenerateFitError,
    InvalidSizeError,
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


def _require_real(f: Signal, op: str) -> np.ndarray:
    x = f.samples
    if np.iscomplexobj(x) and np.abs(x.imag).max() > 0:
        raise DataError(f"{op} expects a real-valued signal")
    return x.real.astype(np.float64, copy=False)


def hilbert_first(f: Signal) -> Signal:
    """Classical discrete Hilbert transform (multiplier i*sgn(s)).

    DC and Nyquist content is annihilated.  The inverse transform of a
    Hermitian-symmetric product is real up to rounding; the imaginary
    residue is checked against 1e-12*max|f| and truncated.
    """
    x = _require_real(f, "hilbert_first")
    n = len(x)
    p = _cached_plan(n)
    out = dft_inverse(p, dft_forward(p, x) * multiplier_bins(n))
    scale = np.abs(x).max()
    residue = np.abs(out.imag).max()
    if residue > 1e-12 * max(scale, 1e-300):
        raise InvariantBreach(
            f"imaginary residue {residue:.3e} exceeds 1e-12 * peak {scale:.3e}"
        )
    return f.with_samples(out.real.copy())


def hilbert_second(f: Signal, branch, halfband: bool = False) -> Signal:
    """Second-form transform: multiplier -i*(sgn(s) +/- 1); complex output.

    By multiplier algebra the output z satisfies Re z = -hilbert_first(f)
    and Im z = -/+ f exactly (plus/minus branch), bin for bin.

    With ``halfband=True`` the inverse stage runs at half length on the
    one-sided multiplied spectrum (plus branch; the minus branch is obtained
    from the conjugate of the plus-branch output, valid for real f).
    Requires even length.
    """
    b = _as_branch(branch)
    x = _require_real(f, "hilbert_second")
    n = len(x)
    p = _cached_plan(n)
    if not halfband:
        X = dft_forward(p, x) * multiplier_bins(n, b)
        return f.with_samples(dft_inverse(p, X))
    if n % 2:
        raise InvalidSizeError("halfband inverse needs an even signal length")
    X = dft_forward(p, x) * multiplier_bins(n, Branch.PLUS)
    z = dft_inverse_halfband(_cached_plan(n // 2), X)
    return f.with_samples(z if b is Branch.PLUS else np.conj(z))


def hilbert_second_via_log_image(f: Signal, branch) -> Signal:
    """Second form routed through the derivative theorem and the log image.

    Three spectral factors: the derivative image 2*pi*i*s, the log image
    -(1/2)(1/|s| +/- 1/s), and the 1/pi prefactor of the defining
    convolution.  Their product collapses to -i*(sgn(s) +/- 1) away from
    s = 0, with the frequency scale cancelling between the first two
    factors.  At DC (and Nyquist, where sgn is pinned to 0) the finite
    product limit -/+ i is used directly.
    """
    b = _as_branch(branch)
    x = _require_real(f, "hilbert_second_via_log_image")
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
    return f.with_samples(dft_inverse(p, out))


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
