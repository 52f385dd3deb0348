"""Discrete Hilbert transform toolkit.

Spectral transforms (both the classical sign-multiplier form and the
log-kernel second form), independent singular-quadrature oracles, contour
integration with branch tracking, and a benchmark harness for the
inverse-transform stage.

Each name below loads its submodule on first use (PEP 562), so a caller
that only transforms never imports the bench, contour, quadrature or
verify modules.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("BenchConfig", "BenchRecord", "run_bench"), "bench"),
    **dict.fromkeys(("AnalyticTestFunction", "JordanCurve", "cauchy_integral",
                     "log_kernel_line_integral", "unwrap_argument"), "contour"),
    **dict.fromkeys(("DftPlan", "dft_direct_reference", "dft_forward", "dft_inverse",
                     "dft_inverse_halfband", "plan"), "dft"),
    "ResultOverflowError": "errors",
    **dict.fromkeys(("Branch", "EquivalenceReport", "Signal", "analytic_signal",
                     "bin_frequencies", "corollary_equivalence_report", "hilbert_first",
                     "hilbert_second", "hilbert_second_via_log_image", "infinity_norm_log10",
                     "log_image", "multiplier_bins"), "hilbert"),
    **dict.fromkeys(("GridFunction", "grid_derivative", "hilbert_first_pv_quadrature",
                     "hilbert_second_quadrature", "log_kernel_convolve", "pv_symmetric_demo",
                     "stieltjes_residual"), "quadrature"),
    **dict.fromkeys(("VerifyOutcome", "run_suite"), "verify"),
}
_SUBMODULES = ("bench", "contour", "dft", "errors", "hilbert", "quadrature", "verify")

# what `from hxkit import *` bound when every submodule loaded at import
__all__ = [*_EXPORTS, *_SUBMODULES]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    # the names an eager import bound, loaded or not, without this loader's own
    return sorted({*globals(), *__all__} - {"importlib", "_EXPORTS", "_SUBMODULES",
                                            "__getattr__", "__dir__"})
