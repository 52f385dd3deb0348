"""Command-line front end.

Subcommands: ``transform`` and ``analytic`` move signals between files,
``bench`` times the two inverse pipelines, ``verify`` runs the identity
suites, ``contour`` evaluates the closed-curve integrals for a chosen
analytic function.  Exit codes are a stable contract: 0 success, 2
usage/validation (including unreadable input and a size too large to
allocate), 3 malformed data, 4 internal invariant breach; a verify run
with failing checks exits 1.

Human-readable output goes to stdout and diagnostics to stderr; the only
machine-read artifacts are the signal/report files themselves.  The RNG
seed is --seed, 42 by default.

The bench, contour and verify modules load inside the commands that use
them, so ``hx transform`` and ``hx analytic`` start without them.  The
process entries (``python -m hxkit`` and the ``hx`` script, both
:func:`hxkit.__main__.run`) freeze the collector once :func:`main` has
returned, so the interpreter's collections at exit sweep nothing;
:func:`main` itself, called in-process, leaves the collector alone.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import DataError, DomainError, InvariantBreach
from .hilbert import Branch, analytic_signal, hilbert_first, hilbert_second
from .sigio import infer_format, read_signal, write_values

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INVARIANT = 4

_BRANCH_FORMS = {"second-plus": Branch.PLUS, "second-minus": Branch.MINUS}

_DEFAULT_POWERS = "10,12,12.5,18.5,20"

# the --suite choices, :data:`hxkit.verify.SUITES`, named here so that
# building the parser does not load the verify module
_SUITES = ("core", "quadrature", "contour", "all")


def _parse_floats(text: str, n: int, what: str) -> tuple:
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) != n:
        raise DomainError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    try:
        return tuple(float(t) for t in tokens)
    except ValueError:
        raise DomainError(f"{what}: {text!r} does not parse as numbers") from None


def _parse_complex_list(text: str, what: str) -> list:
    try:
        return [complex(t.strip()) for t in text.split(",")]
    except ValueError:
        raise DomainError(f"{what}: {text!r} does not parse as numbers") from None


def _parse_curve(desc: str, nodes: int, t0: float):
    from .contour import JordanCurve

    kind, _, rest = desc.partition(":")
    if kind == "circle":
        cx, cy, r = _parse_floats(rest, 3, "circle curve")
        return JordanCurve.circle(complex(cx, cy), r, nodes, t0=t0)
    if kind == "rect":
        x0, y0, x1, y1 = _parse_floats(rest, 4, "rect curve")
        return JordanCurve.rectangle(x0, y0, x1, y1, nodes, t0=t0)
    raise DomainError(
        f"unknown curve kind {kind!r}; expected circle:cx,cy,r or rect:x0,y0,x1,y1"
    )


def cmd_transform(args) -> int:
    signal = read_signal(args.infile, infer_format(args.infile, args.fmt))
    if args.form == "first":
        out = hilbert_first(signal).samples
    else:
        out = hilbert_second(signal, _BRANCH_FORMS[args.form]).samples
    write_values(args.outfile, infer_format(args.outfile, args.fmt), out)
    kind = "complex" if np.iscomplexobj(out) else "real"
    print(f"wrote {out.shape[0]} {kind} samples to {args.outfile}")
    return EXIT_OK


def cmd_analytic(args) -> int:
    signal = read_signal(args.infile, infer_format(args.infile, args.fmt))
    out = analytic_signal(signal).samples
    if args.envelope:
        out = np.abs(out)
    write_values(args.outfile, infer_format(args.outfile, args.fmt), out)
    what = "envelope values" if args.envelope else "analytic-signal samples"
    print(f"wrote {out.shape[0]} {what} to {args.outfile}")
    return EXIT_OK


def cmd_bench(args) -> int:
    from . import bench

    tokens = [t.strip() for t in args.powers.split(",")]
    try:
        powers = tuple(float(t) for t in tokens)
    except ValueError:
        raise DomainError(f"invalid power list {args.powers!r}") from None
    config = bench.BenchConfig(powers=powers, trials=args.trials, warmup=args.warmup,
                               seed=args.seed)
    records = bench.run_bench(config)
    bench.write_csv(records, args.out)
    print(f"{'power':>7} {'n':>8} {'form':>7} {'mean_ms':>12} {'stddev_ms':>12} {'vs_first':>9}")
    for r in records:
        pct = "" if r.percent_increase is None else f"{r.percent_increase:+.1f}%"
        print(
            f"{r.power:>7g} {bench.size_for_power(r.power):>8d} {r.form:>7} "
            f"{r.mean_ms:>12.6g} {r.stddev_ms:>12.6g} {pct:>9}"
        )
        if r.resolution_warning:
            print(
                f"warning: timer resolution exceeds 1% of the mean for {r.form} at power {r.power:g}",
                file=sys.stderr,
            )
    print(f"report written to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    outcome = verify.run_suite(args.suite, seed=args.seed)
    for check in outcome.checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.line}")
        for note in check.notes:
            print(f"     {note}")
    n_pass = sum(1 for c in outcome.checks if c.passed)
    print(f"suite {outcome.suite}: {n_pass}/{len(outcome.checks)} checks passed")
    return EXIT_OK if outcome.passed else EXIT_CHECKS_FAILED


def _contour_function(args):
    from .contour import AnalyticTestFunction

    if args.poly is not None:
        return AnalyticTestFunction.polynomial(_parse_complex_list(args.poly, "--poly"))
    params = _parse_complex_list(args.exp, "--exp")
    if len(params) != 2:
        raise DomainError("--exp needs exactly two numbers a,b")
    return AnalyticTestFunction.exponential(params[0], params[1])


def cmd_contour(args) -> int:
    from .contour import cauchy_integral, log_kernel_line_integral

    f = _contour_function(args)
    curve = _parse_curve(args.curve, args.nodes, args.start)
    zx, zy = _parse_floats(args.point, 2, "--point")
    z = complex(zx, zy)
    # + 0.0 collapses IEEE negative zeros for display
    cauchy = cauchy_integral(f, curve, z) + 0.0
    result = log_kernel_line_integral(f, curve, z)
    value = result.value + 0.0
    direct = complex(f.value(z))
    start_value = complex(f.value(curve.start))
    predicted = direct - start_value
    print(f"curve start z0                  = {curve.start:.12g}")
    print(f"cauchy_integral                 = {cauchy:.12e}")
    print(f"log_kernel_line_integral        = {value:.12e}")
    print(f"direct f(z)                     = {direct:.12e}")
    print(f"start-corrected f(z) - f(z0)    = {predicted:.12e}")
    print(f"|cauchy - f(z)|                 = {abs(cauchy - direct):.3e}")
    print(f"|log_kernel - f(z)|             = {abs(value - direct):.3e}")
    print(f"|log_kernel - (f(z) - f(z0))|   = {abs(value - predicted):.3e}")
    print(f"|cauchy - log_kernel|           = {abs(cauchy - value):.3e}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hx",
        description=(
            "Discrete Hilbert transforms (classical and logarithmic-kernel second "
            "form), analytic signals, singular-integral cross-checks, contour "
            "integrals, and inverse-stage benchmarks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform", help="apply a transform to a signal file")
    t.add_argument("--in", dest="infile", required=True, help="input signal file")
    t.add_argument("--out", dest="outfile", required=True, help="output file")
    t.add_argument("--form", required=True, choices=["first", "second-plus", "second-minus"])
    t.add_argument("--format", dest="fmt", choices=["csv", "f64le"], default=None,
                   help="file format; default csv unless the extension is .f64le")
    t.set_defaults(func=cmd_transform)

    a = sub.add_parser("analytic", help="write the analytic signal (or its envelope)")
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--out", dest="outfile", required=True)
    a.add_argument("--envelope", action="store_true", help="write |analytic| instead of re,im")
    a.add_argument("--format", dest="fmt", choices=["csv", "f64le"], default=None)
    a.set_defaults(func=cmd_analytic)

    b = sub.add_parser("bench", help="time the inverse stage of both transform forms")
    b.add_argument("--powers", default=_DEFAULT_POWERS,
                   help=f"comma-separated exponents, size = nearest even 2^p (default {_DEFAULT_POWERS})")
    b.add_argument("--trials", type=int, default=100)
    b.add_argument("--warmup", type=int, default=10)
    b.add_argument("--seed", type=int, default=42)
    b.add_argument("--out", required=True, help="CSV report path")
    b.set_defaults(func=cmd_bench)

    v = sub.add_parser("verify", help="run identity and cross-check suites")
    v.add_argument("--suite", choices=_SUITES, default="all")
    v.add_argument("--seed", type=int, default=42)
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("contour", help="closed-curve integrals of an analytic function")
    fn = c.add_mutually_exclusive_group(required=True)
    fn.add_argument("--poly", help="ascending coefficients c0,c1,...,cn")
    fn.add_argument("--exp", help="a,b for a*exp(b*z)")
    c.add_argument("--curve", default="circle:0,0,2",
                   help="circle:cx,cy,r or rect:x0,y0,x1,y1 (default circle:0,0,2)")
    c.add_argument("--start", type=float, default=0.0,
                   help="start point as a curve-parameter fraction in [0,1)")
    c.add_argument("--point", required=True, help="evaluation point zx,zy (interior)")
    c.add_argument("--nodes", type=int, default=4096,
                   help="quadrature nodes, rounded to whole 16-node panels (default 4096)")
    c.set_defaults(func=cmd_contour)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return EXIT_OK if code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except InvariantBreach as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a size too large to allocate is a usage error
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
