"""Reference outputs from numpy.fft, and the checker every timed output passes.

The references use hxkit's documented convention (multiplier i*sgn(s), so
H{cos} = -sin), written independently of hxkit's code:

    first      H f  = ifft(fft(f) * i*sgn), with the DC and Nyquist bins zeroed
    second     H2+ f = -H f - i f
    analytic   f - i H f
    envelope   |f - i H f|

numpy.fft lives here only, never in the package under test.  An output
passes when it has the expected shape and kind (real or complex) and agrees
with its reference to at least ``MIN_DIGITS`` digits relative to max|f|,
the package's own correctness gate for its half-length inverse.

Run ``python3 perfbench/oracle.py`` to run the self-test on its own.
"""

from __future__ import annotations

import math
import sys
import tempfile
from pathlib import Path

import numpy as np

MIN_DIGITS = 12.0

KINDS = ("first", "second", "analytic", "envelope")
COMPLEX_KINDS = ("second", "analytic")


def hilbert_reference(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    k = np.arange(n)
    sgn = np.sign(np.where(k <= n // 2, k, k - n)).astype(np.float64)
    sgn[0] = 0.0
    if n % 2 == 0:
        sgn[n // 2] = 0.0
    return np.fft.ifft(np.fft.fft(x) * (1j * sgn)).real


def reference(kind: str, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Expected output of ``kind`` for real input x with H x = h."""
    if kind == "first":
        return h
    if kind == "second":
        return -h - 1j * x
    if kind == "analytic":
        return x - 1j * h
    if kind == "envelope":
        return np.hypot(x, h)
    raise ValueError(f"unknown output kind {kind!r}")


def accuracy_digits(out: np.ndarray, ref: np.ndarray, scale: float) -> float:
    """-log10(max|out - ref| / scale); 300 stands for exact agreement."""
    err = float(np.abs(out - ref).max()) / scale
    return -math.log10(max(err, 1e-300))


def check(kind: str, out, x: np.ndarray, h: np.ndarray) -> tuple[float, str | None]:
    """(digits, reason); reason is None when ``out`` passes."""
    out = np.asarray(out)
    if out.shape != x.shape:
        return 0.0, f"{kind}: shape {out.shape}, expected {x.shape}"
    if np.iscomplexobj(out) != (kind in COMPLEX_KINDS):
        return 0.0, f"{kind}: wrong value kind {out.dtype}"
    if not np.all(np.isfinite(out)):
        return 0.0, f"{kind}: non-finite output"
    digits = accuracy_digits(out, reference(kind, x, h), float(np.abs(x).max()))
    if digits < MIN_DIGITS:
        return digits, f"{kind}: {digits:.2f} digits < {MIN_DIGITS:g}"
    return digits, None


def write_signal(path: Path, fmt: str, x: np.ndarray) -> None:
    """Write a real input signal in hxkit's csv or f64le format."""
    if fmt == "f64le":
        path.write_bytes(x.astype("<f8").tobytes())
    else:
        path.write_text("".join(f"{float(v)!r}\n" for v in x), encoding="ascii")


def read_output(path: Path, fmt: str, complex_values: bool) -> np.ndarray:
    """Read an hx output file without hxkit; raises ValueError if malformed."""
    width = 2 if complex_values else 1
    if fmt == "f64le":
        raw = path.read_bytes()
        if len(raw) % (8 * width):
            raise ValueError(f"{path.name}: {len(raw)} bytes is not a whole number of values")
        flat = np.frombuffer(raw, dtype="<f8")
    else:
        rows = [line.split(",") for line in path.read_text(encoding="ascii").splitlines() if line]
        if any(len(r) != width for r in rows):
            raise ValueError(f"{path.name}: expected {width} csv columns")
        flat = np.array([float(v) for r in rows for v in r], dtype=np.float64)
    if complex_values:
        return flat[0::2] + 1j * flat[1::2]
    return flat.copy()


def check_file(path: Path, fmt: str, kind: str, x: np.ndarray, h: np.ndarray):
    """``check`` on an output file; a missing or malformed file fails."""
    try:
        out = read_output(path, fmt, kind in COMPLEX_KINDS)
    except (OSError, ValueError) as exc:
        return 0.0, f"{kind}: unreadable output ({exc})"
    return check(kind, out, x, h)


def self_test(workdir: Path) -> None:
    """Show that the checker accepts known answers and rejects wrong ones.

    The known answers are closed forms (H cos = -sin, H sin = cos), not
    outputs of ``hilbert_reference``, so a wrong oracle fails here too.
    """
    n = 96
    t = 2 * np.pi * np.arange(n) / n
    x = np.cos(3 * t) + 0.5 * np.sin(5 * t)
    exact = -np.sin(3 * t) + 0.5 * np.cos(5 * t)
    h = hilbert_reference(x)
    failures = []

    def expect(label, result, ok):
        if (result[1] is None) != ok:
            failures.append(f"{label}: {'rejected' if ok else 'accepted'} ({result})")

    for kind in KINDS:
        expect(f"exact {kind}", check(kind, reference(kind, x, exact), x, h), True)
    expect("sign-flipped H f", check("first", -exact, x, h), False)
    expect("wrong-branch H2", check("second", -exact + 1j * x, x, h), False)
    expect("real H2", check("second", -exact, x, h), False)
    expect("short H f", check("first", exact[:-1], x, h), False)

    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        for fmt in ("csv", "f64le"):
            path = Path(tmp) / f"out.{fmt}"
            z = reference("second", x, exact)
            flat = np.column_stack([z.real, z.imag])
            if fmt == "f64le":
                path.write_bytes(flat.astype("<f8").tobytes())
            else:
                path.write_text("".join(f"{a!r},{b!r}\n" for a, b in flat.tolist()), encoding="ascii")
            expect(f"whole {fmt} file", check_file(path, fmt, "second", x, h), True)
            whole = path.read_bytes()
            for cut in (8, len(whole) // 3):
                path.write_bytes(whole[:-cut])
                expect(f"{fmt} file cut by {cut} B", check_file(path, fmt, "second", x, h), False)
        expect("missing file", check_file(Path(tmp) / "none.csv", "csv", "first", x, h), False)

    from measure import quantile
    if quantile([683.6445316627203] * 3, 0.5) != 683.6445316627203:
        failures.append("median of a constant sample is not that constant")
    if not quantile([1.0, 2.0, 3.0, 4.0], 0.9) <= 4.0:
        failures.append("p90 lies above the maximum")
    if failures:
        raise RuntimeError("oracle self-test failed: " + "; ".join(failures))


if __name__ == "__main__":
    work = Path(__file__).resolve().parent.parent / ".perfbench_work"
    work.mkdir(exist_ok=True)
    self_test(work)
    print("oracle self-test passed")
    sys.exit(0)
