"""Self-contained discrete Fourier transforms.

Conventions used throughout the package:

    forward   X[k] = sum_n x[n] exp(-2*pi*i*k*n/N)     (no prefactor)
    inverse   x[n] = (1/N) sum_k X[k] exp(+2*pi*i*k*n/N)

Bin k maps to the dimensionless frequency s = k/N for k < N/2, s = (k-N)/N
for k > N/2, with the Nyquist bin at k = N/2 for even N.  Real input gives a
Hermitian spectrum, X[N-k] = conj(X[k]).

Two strategies sit behind :func:`plan`: an iterative radix-2 transform for
power-of-two sizes and a chirp-based (Bluestein) reduction to a padded
power-of-two cyclic convolution for every other size.  Both act on one
1-d sequence; there is no batch axis.  :func:`dft_direct_reference`
evaluates the defining sums in O(N^2) and is the oracle the fast paths are
tested against.

:func:`dft_inverse_halfband` inverts a one-sided spectrum of even length N
with two inverse transforms of length N/2, one for the even output samples
(Nyquist bin folded into DC) and one for the odd.  It returns the exact
length-N inverse, interchangeable with :func:`dft_inverse` up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DataError,
    DomainError,
    InvalidSizeError,
    NotOneSidedError,
    SizeMismatchError,
)

__all__ = [
    "DftPlan",
    "plan",
    "dft_forward",
    "dft_inverse",
    "dft_direct_reference",
    "dft_inverse_halfband",
]

RADIX2 = "radix2"
BLUESTEIN = "bluestein"


@dataclass(frozen=True)
class DftPlan:
    """Precomputed tables for one transform size; immutable and shareable."""

    size: int
    strategy: str
    # radix-2 tables (populated for power-of-two sizes, and for the padded
    # power-of-two transform inside a Bluestein plan)
    bitrev: np.ndarray | None = field(default=None, repr=False)
    stages_fwd: tuple[np.ndarray, ...] = field(default=(), repr=False)
    stages_inv: tuple[np.ndarray, ...] = field(default=(), repr=False)
    # Bluestein tables
    pad_plan: "DftPlan | None" = field(default=None, repr=False)
    chirp: np.ndarray | None = field(default=None, repr=False)
    chirp_spectrum: np.ndarray | None = field(default=None, repr=False)


def _bitrev_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    rev = np.zeros(n, dtype=np.int64)
    work = np.arange(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (work & 1)
        work >>= 1
    return rev


def _stage_twiddles(n: int, sign: int) -> tuple[np.ndarray, ...]:
    out = []
    m = 2
    while m <= n:
        out.append(np.exp(sign * 2j * np.pi * np.arange(m // 2) / m))
        m *= 2
    return tuple(out)


def plan(n: int) -> DftPlan:
    """Build a reusable transform plan for size ``n``.

    Power-of-two sizes get the radix-2 strategy, everything else the
    chirp-based arbitrary-length strategy.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidSizeError(f"transform size must be a positive integer, got {n!r}")
    n = int(n)
    if n & (n - 1) == 0:
        return DftPlan(
            size=n,
            strategy=RADIX2,
            bitrev=_bitrev_indices(n),
            stages_fwd=_stage_twiddles(n, -1),
            stages_inv=_stage_twiddles(n, +1),
        )
    m = 1 << (2 * n - 1).bit_length()
    # chirp exponent reduced mod 2n: exp(-i*pi*k^2/n) is periodic in k^2
    # with period 2n, and the reduction keeps the angle small and accurate
    k = np.arange(n, dtype=np.int64)
    chirp = np.exp(-1j * np.pi * ((k * k) % (2 * n)) / n)
    pad_plan = plan(m)
    b = np.zeros(m, dtype=np.complex128)
    b[:n] = np.conj(chirp)
    b[m - n + 1:] = np.conj(chirp[1:])[::-1]
    chirp_spectrum = _fft_pow2(b, pad_plan.bitrev, pad_plan.stages_fwd)
    return DftPlan(
        size=n,
        strategy=BLUESTEIN,
        pad_plan=pad_plan,
        chirp=chirp,
        chirp_spectrum=chirp_spectrum,
    )


def _fft_pow2(x: np.ndarray, bitrev: np.ndarray, stages: tuple[np.ndarray, ...]) -> np.ndarray:
    """Iterative radix-2 transform of a 1-d sequence; returns a new array."""
    y = x[bitrev].astype(np.complex128, copy=False)
    n = y.shape[0]
    m = 2
    for w in stages:
        half = m // 2
        v = y.reshape(n // m, m)
        t = v[:, half:] * w
        upper = v[:, :half] - t
        v[:, :half] += t
        v[:, half:] = upper
        m *= 2
    return y


def _bluestein(x: np.ndarray, p: DftPlan) -> np.ndarray:
    """Arbitrary-length forward transform via padded cyclic convolution."""
    n = p.size
    m = p.pad_plan.size
    a = np.zeros(m, dtype=np.complex128)
    a[:n] = x * p.chirp
    A = _fft_pow2(a, p.pad_plan.bitrev, p.pad_plan.stages_fwd)
    A *= p.chirp_spectrum
    conv = _fft_pow2(A, p.pad_plan.bitrev, p.pad_plan.stages_inv)
    return conv[:n] * (p.chirp / m)


def _forward_core(p: DftPlan, x: np.ndarray) -> np.ndarray:
    if p.strategy == RADIX2:
        return _fft_pow2(x, p.bitrev, p.stages_fwd)
    return _bluestein(x, p)


def _inverse_core(p: DftPlan, X: np.ndarray, scale: float) -> np.ndarray:
    if p.strategy == RADIX2:
        y = _fft_pow2(X, p.bitrev, p.stages_inv)
        y *= scale
        return y
    y = np.conj(_bluestein(np.conj(X), p))
    y *= scale
    return y


def _as_vector(x, n: int) -> np.ndarray:
    v = np.asarray(x)
    if v.ndim != 1:
        raise SizeMismatchError(f"expected a 1-d sequence, got shape {v.shape}")
    if v.shape[0] != n:
        raise SizeMismatchError(f"sequence length {v.shape[0]} does not match plan size {n}")
    return v.astype(np.complex128, copy=False)


def dft_forward(p: DftPlan, x) -> np.ndarray:
    """Forward transform of ``x`` (length must equal ``p.size``)."""
    return _forward_core(p, _as_vector(x, p.size))


def dft_inverse(p: DftPlan, X) -> np.ndarray:
    """Inverse transform with the 1/N prefactor."""
    return _inverse_core(p, _as_vector(X, p.size), 1.0 / p.size)


def dft_direct_reference(x, direction: str = "forward") -> np.ndarray:
    """Defining double sum in O(N^2); the oracle for the fast paths."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1 or v.shape[0] < 1:
        raise InvalidSizeError("reference transform needs a nonempty 1-d sequence")
    if not (np.all(np.isfinite(v.real)) and np.all(np.isfinite(v.imag))):
        raise DataError("non-finite samples")
    if direction not in ("forward", "inverse"):
        raise DomainError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    n = v.shape[0]
    k = np.arange(n, dtype=np.int64)
    sign = -1.0 if direction == "forward" else 1.0
    # reduce k*l mod n before forming the angle: keeps the kernel accurate
    # for every N without large-angle trig loss
    e = np.exp((sign * 2j * np.pi / n) * ((k[:, None] * k[None, :]) % n))
    y = e @ v
    return y if direction == "forward" else y / n


@lru_cache(maxsize=64)
def _double_twiddle(nh: int) -> np.ndarray:
    """exp(+2*pi*i*j/(2*nh)) for j < nh, used by the odd-output half."""
    w = np.exp(2j * np.pi * np.arange(nh) / (2 * nh))
    w.setflags(write=False)
    return w


def dft_inverse_halfband(plan_half: DftPlan, X) -> np.ndarray:
    """Exact length-N inverse of a one-sided spectrum via two N/2 inverses.

    ``X`` must have even length N = 2*plan_half.size with X[k] = 0 for
    N/2 < k < N (tolerance 1e-12 relative to the peak magnitude).  Even
    output samples come from the inverse of the low half with the Nyquist
    bin folded into DC; odd samples from the inverse of the twiddled low
    half.  The two half transforms run as separate length-N/2 inverses.
    """
    nh = plan_half.size
    n = 2 * nh
    v = np.asarray(X)
    if v.ndim != 1 or v.shape[0] != n:
        raise SizeMismatchError(
            f"one-sided spectrum must have length {n} (= 2 * plan size), got {v.shape}"
        )
    v = v.astype(np.complex128, copy=False)
    peak = np.abs(v).max()
    if nh + 1 < n:
        upper = np.abs(v[nh + 1:]).max()
        if upper > 1e-12 * peak:
            raise NotOneSidedError(
                f"spectrum has magnitude {upper:.3e} above Nyquist (peak {peak:.3e})"
            )
    even = v[:nh].copy()
    even[0] += v[nh]
    odd = v[:nh] * _double_twiddle(nh)
    odd[0] -= v[nh]  # the twiddle at j = 0 is 1
    out = np.empty(n, dtype=np.complex128)
    out[0::2] = _inverse_core(plan_half, even, 1.0 / n)
    out[1::2] = _inverse_core(plan_half, odd, 1.0 / n)
    return out
