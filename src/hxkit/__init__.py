"""Discrete Hilbert transform toolkit.

Spectral transforms (both the classical sign-multiplier form and the
log-kernel second form), independent singular-quadrature oracles, contour
integration with branch tracking, and a benchmark harness for the
inverse-transform stage.
"""

from .bench import BenchConfig, BenchRecord, run_bench
from .contour import (
    AnalyticTestFunction,
    JordanCurve,
    cauchy_integral,
    log_kernel_line_integral,
    unwrap_argument,
)
from .dft import (
    DftPlan,
    dft_direct_reference,
    dft_forward,
    dft_inverse,
    dft_inverse_halfband,
    plan,
)
from .errors import ResultOverflowError
from .hilbert import (
    Branch,
    EquivalenceReport,
    Signal,
    analytic_signal,
    bin_frequencies,
    corollary_equivalence_report,
    hilbert_first,
    hilbert_second,
    hilbert_second_via_log_image,
    infinity_norm_log10,
    log_image,
    multiplier_bins,
)
from .quadrature import (
    GridFunction,
    PVRule,
    grid_derivative,
    hilbert_first_pv_quadrature,
    hilbert_second_quadrature,
    log_kernel_convolve,
    pv_symmetric_demo,
    stieltjes_residual,
)
from .verify import VerifyOutcome, run_suite

__version__ = "0.1.0"
