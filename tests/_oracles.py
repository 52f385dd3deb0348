"""Independent numeric oracles used to freeze expected values in tests.

Most of what is here is deliberately built from different mathematics than
the package under test: Simpson quadrature of an exponential integral and an
asymptotic tail series for the Dawson function, plus an exact lattice sum
(cotangent identity) for periodization.  The one spectral oracle,
:func:`spectral_oracle`, is the length-N complex pipeline that the public
transforms replace with half-length transforms for even N.
:func:`unit_roots_reference` builds roots of unity through one complex exp,
the reference the engine's table builder must match in every bit.
:func:`unpacked_bins_reference` is the half-band route's unpack written
as whole-array passes, the reference its chunked passes must match in
every bit.  :func:`periodic_hilbert_kernel` and :func:`geometric_dft` are
closed forms in ``np.longdouble`` that cost O(N) at any size: the
transform of an impulse and of a geometric sequence, and
:func:`boundary_values` gives a periodic Hilbert pair at any size: the
real and imaginary parts of an analytic function on the unit circle.
"""

import math

import numpy as np

from hxkit.dft import dft_forward, dft_inverse, plan
from hxkit.hilbert import multiplier_bins

TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

# frozen reference: Dawson's integral at 1, correct to all shown digits
DAWSON_AT_1 = 0.53807950691276841914


def dawson(x: float) -> float:
    """Dawson's integral D(x) = exp(-x^2) * integral_0^x exp(t^2) dt.

    Evaluated as integral_0^x exp(-u*(2x - u)) du (substitute u = x - t),
    which keeps every intermediate bounded.  Simpson on the effective
    support [0, min(x, 20/x)]; the truncated tail is below exp(-40).
    For |x| >= 20 a five-term asymptotic series is accurate to ~1e-12.
    """
    if x == 0.0:
        return 0.0
    if x < 0.0:
        return -dawson(-x)
    if x >= 20.0:
        inv2 = 1.0 / (x * x)
        # D(x) ~ (1/2x) * (1 + 1/2 x^-2 + 3/4 x^-4 + 15/8 x^-6 + 105/16 x^-8)
        series = 1.0 + inv2 * (0.5 + inv2 * (0.75 + inv2 * (1.875 + inv2 * 6.5625)))
        return series / (2.0 * x)
    upper = min(x, 20.0 / x)
    m = 2000  # even interval count for Simpson
    u = np.linspace(0.0, upper, m + 1)
    y = np.exp(-u * (2.0 * x - u))
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((upper / m) / 3.0 * np.dot(w, y))


def line_hilbert_gaussian(x: float) -> float:
    """Whole-line transform of exp(-x^2) under the -1/(pi x) kernel."""
    return -TWO_OVER_SQRT_PI * dawson(x)


def periodized_line_hilbert_gaussian(x: float, period: float, images: int = 30) -> float:
    """Lattice sum g(x - m*period) of the whole-line Gaussian transform.

    This is what a circular (DFT-based) transform of a sampled Gaussian
    converges to.  The slowly decaying 1/y part of g is summed exactly over
    the whole lattice via sum_m 1/(x - m*L) = (pi/L) * cot(pi*x/L); the
    cubically decaying remainder is summed over |m| <= images.
    """
    L = float(period)
    if math.isclose(x % L, 0.0, abs_tol=1e-12) or math.isclose(x % L, L, abs_tol=1e-12):
        return 0.0  # odd symmetry of g about each lattice point
    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
    total = (math.pi / L) / math.tan(math.pi * x / L) * (-inv_sqrt_pi)
    for m in range(-images, images + 1):
        y = x - m * L
        total += line_hilbert_gaussian(y) + inv_sqrt_pi / y
    return total


def spectral_oracle(x, branch=None) -> np.ndarray:
    """Length-N forward DFT, multiplier, length-N inverse DFT; complex output.

    ``branch=None`` gives the classical transform (real up to rounding), a
    branch the second form.
    """
    n = len(x)
    p = plan(n)
    return dft_inverse(p, dft_forward(p, x) * multiplier_bins(n, branch))


def unit_roots_reference(e, n: int) -> np.ndarray:
    """exp(-2*pi*i*e/n) as one complex exp of the angles, with e reduced in
    integers to the residue mod n nearest 0."""
    e = e % n
    e = np.where(2 * e > n, e - n, e)
    return np.exp((-2j * np.pi / n) * e)


def unpacked_bins_reference(z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Bins 0..N/2 of the length-N spectrum of real x from its packed
    transform z (length N/2) and the roots c = exp(+2*pi*i*k/N), k <= N/2:
    X[k] = (Z[k] + conj Z[N/2-k])/2 - (i/2)*w^k*(Z[k] - conj Z[N/2-k]),
    with Z[N/2] := Z[0] and w^k*d formed as conj(conj(d)*c[k]), in the
    engine's sequence of float operations, each over the whole array."""
    nh = z.shape[0]
    b = np.conjugate(np.concatenate((z[:1], z[:0:-1])))
    d = np.conjugate(np.conjugate(z - b) * c[:nh]) * -0.5j
    d += (b + z) * 0.5
    # A = Z[0], B = conj Z[0]; c[nh] = w^(N/2), both angles reduced to -pi
    top = z[0].real + (-0.5j * c[nh]) * (2j * z[0].imag)
    return np.concatenate((d, [top]))


def periodic_hilbert_kernel(n: int) -> np.ndarray:
    """h = H delta_0, the length-n periodic kernel of the multiplier i*sgn(s)
    with sgn = 0 at DC and Nyquist, in ``np.longdouble``.

    With r the residue of k mod n nearest 0 (in (-n/2, n/2]):
    even n: h[k] = -(2/n)*cot(pi*r/n) for odd r, 0 for even r;
    odd n: h[k] = tan(pi*r/(2n))/n for even r, -cot(pi*r/(2n))/n for odd r.
    Each angle is formed from the residue, within [-pi/2, pi/2], so the
    trigonometry loses nothing to a large argument."""
    k = np.arange(n)
    r = np.where(2 * k > n, k - n, k)
    odd = r % 2 == 1
    r = r.astype(np.longdouble)
    pi = 4 * np.arctan(np.longdouble(1))
    h = np.zeros(n, dtype=np.longdouble)
    if n % 2 == 0:
        t = pi * r[odd] / n
        h[odd] = -2 * np.cos(t) / (np.sin(t) * n)
    else:
        t = pi * r / (2 * n)
        h[~odd] = np.tan(t[~odd]) / n
        h[odd] = -np.cos(t[odd]) / (np.sin(t[odd]) * n)
    return h


def _longdouble_powers(a: np.clongdouble, e: np.ndarray) -> np.ndarray:
    """a**e for an array of non-negative integers e, by binary powering in
    ``np.clongdouble``: at most 2*log2(max e) roundings of 2^-64 each."""
    out = np.ones(e.shape, dtype=np.clongdouble)
    while e.any():
        out = np.where(e & 1, out * a, out)
        a = a * a
        e = e >> 1
    return out


def geometric_dft(a: complex, n: int, direction: str = "forward"):
    """x[k] = a^k, k < n, rounded to double, and the exact transform of the
    unrounded sequence in ``np.clongdouble``: forward X[k] = (1 - a^n) /
    (1 - a*w^k), inverse (1 - a^n) / (n*(1 - a*w^-k)), w = exp(-2*pi*i/n).

    ``a`` is a double, held exactly in long double; its powers are formed
    in long double before they are rounded to the double input.  Each w^k
    is formed from the residue of k mod n nearest 0, so its angle lies
    within [-pi, pi]."""
    a = np.clongdouble(complex(a))
    powers = _longdouble_powers(a, np.arange(n + 1))
    k = np.arange(n)
    r = np.where(2 * k > n, k - n, k).astype(np.longdouble)
    t = 8 * np.arctan(np.longdouble(1)) * r / n
    sign = -1 if direction == "forward" else 1
    w = np.cos(t) + sign * 1j * np.sin(t)
    X = (1 - powers[n]) / (1 - a * w)
    return powers[:n].astype(np.complex128), X if direction == "forward" else X / n


def boundary_values(a: complex, n: int):
    """f = exp(a*z) at z = exp(2*pi*i*j/n), j < n, in ``np.clongdouble``;
    returns u = Re f rounded to double, f, and vbar, the sample mean of
    v = Im f.

    f is analytic in the unit disk, so u and v are a periodic Hilbert pair
    (conjugate functions): sampled, H u = -(v - vbar) and the analytic
    signal of u is f - i*vbar, up to aliasing, the Taylor tail
    sum_{k >= n/2} |a|^k/k!, which folds the terms of degree n/2 and above
    onto the negative bins.  No DFT is inside.  Each z is formed from the
    residue of j mod n nearest 0, so its angle lies within [-pi, pi]."""
    k = np.arange(n)
    r = np.where(2 * k > n, k - n, k).astype(np.longdouble)
    t = 8 * np.arctan(np.longdouble(1)) * r / n
    f = np.exp(np.clongdouble(complex(a)) * (np.cos(t) + 1j * np.sin(t)))
    return f.real.astype(np.float64), f, f.imag.mean()
