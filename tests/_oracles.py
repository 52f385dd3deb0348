"""Independent numeric oracles used to freeze expected values in tests.

Most of what is here is deliberately built from different mathematics than
the package under test: Simpson quadrature of an exponential integral and an
asymptotic tail series for the Dawson function, plus an exact lattice sum
(cotangent identity) for periodization.  The one spectral oracle,
:func:`spectral_oracle`, is the length-N complex pipeline that the public
transforms replace with half-length transforms for even N.
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
