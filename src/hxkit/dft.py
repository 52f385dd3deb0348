"""Self-contained discrete Fourier transforms.

Conventions used throughout the package:

    forward   X[k] = sum_n x[n] exp(-2*pi*i*k*n/N)     (no prefactor)
    inverse   x[n] = (1/N) sum_k X[k] exp(+2*pi*i*k*n/N)

Bin k maps to the dimensionless frequency s = k/N for k < N/2, s = (k-N)/N
for k > N/2, with the Nyquist bin at k = N/2 for even N.  Real input gives a
Hermitian spectrum, X[N-k] = conj(X[k]).

Two strategies sit behind :func:`plan`.  Every size n = 2^a * 3^b * 5^c
runs a self-sorting (Stockham) mixed-radix transform (Cochran et al. 1967;
Temperton 1983, "Self-sorting mixed-radix fast Fourier transforms") in the
fewest stages of 5-smooth radices up to 32.  Each stage is written as a
Kronecker factor (Van Loan 1992, "Computational Frameworks for the FFT"):
products of r-point DFT matrices with the data, run by BLAS zgemm.  The
first stage takes the data transposed, as the four-step FFT does (Bailey
1990, "FFTs in external or hierarchical memory"), so that its product
lands in output order and takes its twiddles in contiguous multiplies;
as the four-step FFT bounds its working set, that product runs in row
blocks of 512 KiB of operand, each multiplied by its twiddles while it is
in cache, so that threaded OpenBLAS never takes resident memory of the
whole transform's size for it.  For the same reason :func:`_chunks` splits
the element-wise passes of :mod:`hxkit.hilbert`'s real-data pipeline into
spans of at least 2^14 bins, 256 KiB of each complex operand, so that a
span's operands stay in a 2 MiB L2 cache from one pass to the next.
Each later stage folds its twiddles into its matrices, diag(twiddles) @
F_r, as FFTW's twiddle codelets fold them into the butterfly (Frigo &
Johnson 2005), and is one batched product with no twiddle pass.  The
spectrum comes out in natural order, with no bit-reversal gather.  Each
size keeps one per-thread work row, and the stages ping-pong between it
and an array the call owns anyway, its result, with the parity chosen so
that a forward transform's last stage lands in the result and an
inverse's in the row.  Only forward stages exist: the inverse's 1/N
pass, its one write to the result, reads the row back at -k mod N, x[k]
= DFT(X)[-k mod N] / N (Van Loan 1992).  So a warmed transform allocates
nothing but its result, and no second row outlives it.  Every other size
takes the chirp-based (Bluestein) reduction to a cyclic convolution,
padded to the smallest 5-smooth length >= 2n-1 and run on the same stages
in two work rows of the pad's length, since no result of that length
exists to borrow, so it too allocates only its result.  Its chirp
spectrum carries the convolution's 1/m, so its second padded transform
holds the result at the result's own scale and no pass divides by m, and
its final chirp product lands DFT(x) in natural order as well, in the
result or, for an inverse, in the head of a pad row, so the one reversed
1/N read serves every plan (Bluestein 1970).  Both act on one
1-d sequence; there is no batch axis.  Every table is built from roots of
unity formed in place (:func:`_unit_roots`), and a Bluestein plan forms
its padded chirp in its pad's rows, so a plan build allocates little
beyond the tables it returns and the rows its transforms reuse.
:func:`dft_direct_reference` evaluates the defining sums in O(N^2) and is
the oracle the fast paths are tested against.

Outputs do not depend on the number of BLAS threads, but BLAS picks its
compute kernel for the CPU it runs on, and another kernel (for example
one forced with OPENBLAS_CORETYPE) may round the products differently in
the last ulp.

:func:`dft_inverse_halfband` inverts a one-sided spectrum of even length N,
given as its bins 0..N/2, with two inverse transforms of length N/2, one
for the even output samples (Nyquist bin folded into DC) and one for the
odd, each run against one half of the one array it allocates and then
placed in every other sample of it: the exact length-N inverse, equal to
:func:`dft_inverse`'s up to rounding.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DataError, DomainError, InvalidSizeError, SizeMismatchError

__all__ = [
    "DftPlan",
    "plan",
    "dft_forward",
    "dft_inverse",
    "dft_direct_reference",
    "dft_inverse_halfband",
]

STOCKHAM = "stockham"
BLUESTEIN = "bluestein"


@dataclass(frozen=True)
class DftPlan:
    """Precomputed tables for one transform size; immutable and shareable."""

    size: int
    strategy: str
    # Stockham stages, run by both directions (populated for 5-smooth
    # sizes, and for the padded 5-smooth transform inside a Bluestein
    # plan): one table per full-array pass, r the radix, m = the stage's
    # remaining length / r; the first stage's (m, r) twiddles with their
    # column of ones, each later stage's (m, r, r) twiddled DFT matrices
    # (:func:`_stage_tables`)
    stages_fwd: tuple[np.ndarray, ...] = field(default=(), repr=False)
    # Bluestein tables: the chirp exp(-i*pi*k^2/n), and the spectrum of the
    # padded conj(chirp) divided by the pad length m
    pad_plan: "DftPlan | None" = field(default=None, repr=False)
    chirp: np.ndarray | None = field(default=None, repr=False)
    chirp_spectrum: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # plans are shared through the table cache, so every table is read-only
        for t in (*self.stages_fwd, self.chirp, self.chirp_spectrum):
            if t is not None:
                t.setflags(write=False)

    @property
    def nbytes(self) -> int:
        """Bytes of the plan's tables, its pad plan's included."""
        tables = (*self.stages_fwd, self.chirp, self.chirp_spectrum, self.pad_plan)
        return sum(t.nbytes for t in tables if t is not None)

    @property
    def bitrev(self) -> None:
        """Always None: the self-sorting stages need no bit-reversal gather."""
        return None


# the 5-smooth stage radices, largest first
_RADICES = (32, 30, 27, 25, 24, 20, 18, 16, 15, 12, 10, 9, 8, 6, 5, 4, 3, 2)


def _splits(n: int, k: int, top: int):
    """Non-increasing lists of k radices <= top whose product is n."""
    if k == 0:
        if n == 1:
            yield []
        return
    for r in _RADICES:
        if r <= top and n % r == 0 and r**k >= n:
            for rest in _splits(n // r, k - 1, r):
                yield [r, *rest]


def _radices(n: int) -> list[int] | None:
    """Stage radices of a 5-smooth n, largest first, else None.

    Each stage is a full pass over the data, so the split has the fewest
    stages; of those it takes the least sum of radices, since a stage of
    radix r costs r multiply-adds per element in its matrix product.  So
    2^17 runs as [32, 16, 16, 16], not [32, 32, 32, 4], and 64 as [8, 8],
    not [32, 2].
    """
    m = n
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    if m != 1:
        return None
    k = 0
    while (best := min(_splits(n, k, _RADICES[0]), key=sum, default=None)) is None:
        k += 1
    return best


def _next_smooth(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = p35
            while q < n:
                q *= 2
            best = min(best, q)
            p35 *= 3
        p5 *= 5
    return best


def _unit_roots(e: np.ndarray, n: int) -> np.ndarray:
    """exp(-2*pi*i*e/n) for an integer array e, reduced mod n to the residue
    nearest 0.

    The reduction runs in integers, in place, so it is exact for any e,
    and keeps every angle t within [-pi, pi], where it is formed with the
    least rounding.  cos t and 0.0 - sin t (+0.0 at t = 0, as exp gives)
    go straight into the result's real and imaginary parts, sin t through
    the angle array itself, so the build holds the residues, one float
    array of angles and the result, and no complex temporary: the same
    bits as one complex exp of the angles.
    """
    e = e % n
    np.subtract(e, n, out=e, where=e > n // 2)
    t = np.multiply(e, 2 * np.pi / n)
    del e
    out = np.empty(t.shape, dtype=np.complex128)
    np.cos(t, out=out.real)
    np.subtract(0.0, np.sin(t, out=t), out=out.imag)
    return out


def _half_roots(n: int) -> np.ndarray:
    """exp(+2*pi*i*k/n) for k <= n/2: the one table of the even-n real-data
    path, read by the packed unpack and repack and the half-band odd half."""
    return _unit_roots(-np.arange(n // 2 + 1), n)


@lru_cache(maxsize=len(_RADICES))
def _dft_matrix(r: int) -> np.ndarray:
    """The r-point DFT as a read-only (r, r) matrix, exp(-2*pi*i*j*t/r)."""
    e = np.arange(r)
    f = _unit_roots(np.outer(e, e), r)
    f.setflags(write=False)
    return f


def _stage_tables(n: int, radices: list[int]) -> tuple[np.ndarray, ...]:
    """Forward tables of each stage of length L = r*m, with
    w_L = exp(-2*pi*i/L): the first stage's twiddles w_L^(j*p) as one (m, r)
    table (its column j = 0 all ones), each later stage's twiddled DFT
    matrices G[p] = diag(w_L^(j*p)) @ F_r as one (m, r, r) array, the last
    of several (m = 1) being F_r itself.  That is n + sum m*r^2 values over
    the later stages, at most 2.1*n (1000 = [10, 10, 10])."""
    if not radices:
        return ()
    m = n // radices[0]
    out = [_unit_roots(np.outer(np.arange(m), np.arange(radices[0])), n)]
    length = m
    for r in radices[1:]:
        m = length // r
        w = _unit_roots(np.outer(np.arange(m), np.arange(r)), length)
        out.append(w[:, :, None] * _dft_matrix(r))
        length = m
    return tuple(out)


def _transform_size(n) -> int:
    """n as an int, or InvalidSizeError: the size rule of plans and bin tables."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidSizeError(f"transform size must be a positive integer, got {n!r}")
    return int(n)


def plan(n: int) -> DftPlan:
    """Build a reusable transform plan for size ``n``.

    Sizes 2^a * 3^b * 5^c get the Stockham strategy, every other size the
    chirp-based (Bluestein) strategy on a 5-smooth padded length.
    """
    n = _transform_size(n)
    radices = _radices(n)
    if radices is not None:
        return DftPlan(size=n, strategy=STOCKHAM, stages_fwd=_stage_tables(n, radices))
    m = _next_smooth(2 * n - 1)
    # exp(-i*pi*k^2/n) is periodic in k^2 with period 2n
    k = np.arange(n, dtype=np.int64)
    chirp = _unit_roots(k * k, 2 * n)
    pad_plan = plan(m)
    # the zero-padded conj(chirp) is built in the pad's row 1, which the
    # forward stages below never write, so the build holds no length-m
    # temporary
    b = _workspace(m, 2)[1]
    np.conjugate(chirp, out=b[:n])
    b[n:m - n + 1] = 0.0
    np.conjugate(chirp[:0:-1], out=b[m - n + 1:])
    # the spectrum carries the convolution's 1/m, so no transform divides by m
    spectrum = dft_forward(pad_plan, b)
    spectrum /= m
    return DftPlan(size=n, strategy=BLUESTEIN, pad_plan=pad_plan, chirp=chirp,
                   chirp_spectrum=spectrum)


# (kind, n) -> table, least recently used first, shared by every thread
_TABLE_BUDGET = 128 << 20  # each even route's half plan and roots up to n = 2^22
_TABLES: OrderedDict[tuple[str, int], "np.ndarray | DftPlan"] = OrderedDict()
_TABLES_LOCK = threading.Lock()
_table_bytes = 0  # the bytes _TABLES holds


def _table(kind: str, n: int, build):
    """build(n), an array (made read-only) or a plan, cached under (kind, n).

    The key names the kind, not ``build``, so a rebound builder (a tracer's
    wrapper of :func:`plan`) shares the entries.  A miss builds outside the
    lock; then the least recently used entries go until the tables held fit
    in :data:`_TABLE_BUDGET` bytes, save those at size n, 2n or n/2, the
    sizes one public call reads together.  Past the budget a call keeps its
    own tables and drops the other sizes'."""
    global _table_bytes
    key = (kind, n)
    with _TABLES_LOCK:
        if (hit := _TABLES.get(key)) is not None:
            _TABLES.move_to_end(key)  # relinks; a dict re-insert would compact its keys
            return hit
    table = build(n)
    if isinstance(table, np.ndarray):
        table.setflags(write=False)  # a plan's arrays already are
    with _TABLES_LOCK:
        if _TABLES.setdefault(key, table) is table:  # else another thread's build stays
            _table_bytes += table.nbytes
        while _table_bytes > _TABLE_BUDGET:
            old = next((k for k in _TABLES if k[1] not in (n, 2 * n) and 2 * k[1] != n), None)
            if old is None:
                break
            _table_bytes -= _TABLES.pop(old).nbytes
    return table


# per-thread complex work rows for the sizes used last: one at a Stockham
# size, the partner of its transforms' stages beside an array each call
# owns (its result), and two at a Bluestein pad, whose transforms have no
# pad-length array to borrow (:func:`_in_rows`)
_WORKSPACE = threading.local()
_WORKSPACE_SIZES = 2


def _workspace(n: int, rows: int = 1) -> np.ndarray:
    """The calling thread's first ``rows`` work rows of length n, as one
    (rows, n) array; a size keeps the most rows it was asked for."""
    cache = _WORKSPACE.__dict__.setdefault("buffers", {})
    buf = cache.pop(n, None)
    if buf is None or buf.shape[0] < rows:
        buf = np.empty((rows, n), dtype=np.complex128)
    cache[n] = buf
    if len(cache) > _WORKSPACE_SIZES:
        del cache[next(iter(cache))]
    return buf[:rows]


# complex values of the first stage's transposed operand per product (512
# KiB): the blocks of :func:`_stockham`, measured in README "Table memory"
_BLOCK = 1 << 15

# least bins per span of the real-data pipeline's element-wise passes (256
# KiB of each complex operand), so that the few operands of a span stay in
# a 2 MiB L2 cache from one pass to the next: :func:`_chunks`, measured in
# README "Matrix stages"
_CHUNK = 1 << 14


def _chunks(lo: int, hi: int):
    """[lo, hi) split evenly into the most consecutive spans (a, b) of at
    least :data:`_CHUNK` bins; a range below 2*_CHUNK is one span.

    No span of a longer range holds one bin: numpy multiplies a one-element
    complex array in place through its scalar loop, which rounds some
    products differently from the vector loop that a longer array takes."""
    k = max(1, (hi - lo) // _CHUNK)
    return [(lo + (hi - lo) * i // k, lo + (hi - lo) * (i + 1) // k) for i in range(k)]


def _stockham(x: np.ndarray, stages: tuple[np.ndarray, ...], out: np.ndarray,
              partner: np.ndarray) -> np.ndarray:
    """Self-sorting mixed-radix forward transform of a 1-d sequence into ``out``.

    Stage by stage, with s the product of the radices already done, the
    input is read as (r, m, s) and an (m, r, s) output is written:
    y[p, j, q] = w_(r*m)^(j*p) * sum_t x[t, p, q] * w_r^(j*t), w_L =
    exp(-2*pi*i/L).  Each of the s interleaved sub-transforms of length
    r*m becomes r of length m, and after the last stage (m = 1, where
    every twiddle is 1) the spectrum is in natural order.

    Each stage is a matrix product (Van Loan 1992, "Computational
    Frameworks for the FFT"), which numpy hands to BLAS zgemm.  The first
    stage (s = 1) computes y read as (m, r) = (x read as (r, m)).T @ F_r,
    with F_r the r-point DFT matrix (:func:`_dft_matrix`), straight into y,
    since F_r is symmetric and BLAS reads the transposed operand in place,
    then multiplies y by its (m, r) twiddle table in place; a single stage
    (m = 1) does the same with its (1, r) table of ones.  That product runs
    in row blocks, m split evenly into the most blocks of at least
    :data:`_BLOCK` values (one block below 2*_BLOCK), as the four-step FFT
    bounds its working set (Bailey 1990), and each block takes its twiddle
    rows right after its product, while it is still in cache.  On two
    OpenBLAS threads one product over all m rows raised the process's peak
    resident set by about the transform's size, in memory that BLAS keeps
    and tracemalloc does not see; a block raises it by at most its own
    size.  Each output value is the same dot product and the same twiddle
    multiply however the rows are blocked.  Each later stage has its
    twiddles folded into its matrices, G[p] =
    diag(w_(r*m)^(j*p)) @ F_r (:func:`_stage_tables`), and runs as one
    batched product, y read as (m, r, s) = G @ (x read as (r, m, s),
    transposed to (m, r, s)), one zgemm per p with BLAS reading the rows of
    x at their stride; the last of several stages is the single product
    F_r @ (x read as (r, s)).

    The stages alternate between ``out`` and ``partner``, two distinct
    contiguous rows, starting with ``out`` for an odd stage count so that
    the last stage lands in ``out``.  ``x`` is read by the first stage
    only, in place if it is contiguous complex128 and may not overlap the
    buffer that stage writes.  Any other ``x`` (strided, another dtype, or
    in that buffer) is first copied into the other buffer: that widens
    other dtypes without a temporary, and keeps the first product on BLAS,
    which a strided operand falls off.  So ``x`` may be either buffer.
    """
    if not stages:
        out[...] = x
        return out
    buffers = (out, partner) if len(stages) % 2 else (partner, out)
    if x.dtype != np.complex128 or not x.flags.c_contiguous or np.may_share_memory(x, buffers[0]):
        buffers[1][...] = x
        x = buffers[1]
    m, r = stages[0].shape
    y, s = buffers[0], r
    xt, t, f = x.reshape(r, m).T, y.reshape(m, r), _dft_matrix(r)
    # m split evenly into the most blocks of at least _BLOCK values
    rows = -(-m // max(1, m * r // _BLOCK))
    for lo in range(0, m, rows):
        block = t[lo:lo + rows]
        np.matmul(xt[lo:lo + rows], f, out=block)
        block *= stages[0][lo:lo + rows]
    for i, g in enumerate(stages[1:], 1):
        m, r = g.shape[:2]
        x, y = y, buffers[i % 2]
        np.matmul(g, x.reshape(r, m, s).transpose(1, 0, 2), out=y.reshape(m, r, s))
        s *= r
    return out


def _spare_row(p: DftPlan, partner: np.ndarray | None = None) -> np.ndarray:
    """p.size values where a transform by ``p`` may take its input: the one
    work row of a Stockham size, or row 1 of a Bluestein pad's two, which
    the pad's transforms read before they write it.  An inverse against
    ``partner`` (:func:`_transformed`) reads it there uncopied, save at an
    odd Stockham stage count, whose first stage writes the row: there the
    input goes in ``partner`` itself.  With no partner, the Stockham row
    costs one copy when the first stage writes it: at an even stage count
    forward, an odd one inverse (:func:`_stockham`)."""
    if partner is not None and len(p.stages_fwd) % 2:
        return partner
    if p.strategy == STOCKHAM:
        return _workspace(p.size)[0]
    return _workspace(p.pad_plan.size, 2)[1][: p.size]


def _in_rows(p: DftPlan, x: np.ndarray) -> np.ndarray:
    """The stages of ``p`` run on ``x`` in its workspace's two rows: the
    first writes row 0, so ``x`` may be row 1, and the last lands in (and
    returns) row 0 for an odd stage count, row 1 for an even one."""
    w = _workspace(p.size, 2)
    odd = len(p.stages_fwd) % 2
    return _stockham(x, p.stages_fwd, w[1 - odd], w[odd])


def _bluestein(x: np.ndarray, p: DftPlan, out: np.ndarray | None = None) -> np.ndarray:
    """DFT(x) of arbitrary length n by the chirp-based padded cyclic
    convolution, in natural order, into ``out`` or, with no ``out``, into
    the head of a pad work row; returns where it landed.

    Two forward padded transforms run in the pad's two rows, each on an
    input built in row 1 (:func:`_in_rows`).  The chirp spectrum carries
    the 1/m of the cyclic convolution (:func:`plan`), so the second
    transform, F, holds the result at its own scale, and the final chirp
    product reads bin k as F[-k mod m] * chirp[k]; bins 1..n-1 read
    F[m-n+1:], which lies past F[:n] since m >= 2n-1, so they may land in
    F's own head.  So the transform allocates nothing but its result.
    """
    n = p.size
    m = p.pad_plan.size
    a = _workspace(m, 2)[1]
    a[:n] = x  # a real x in the chirp product would widen in a cast buffer
    a[:n] *= p.chirp
    a[n:] = 0.0
    A = np.multiply(_in_rows(p.pad_plan, a), p.chirp_spectrum, out=a)
    F = _in_rows(p.pad_plan, A)
    if out is None:
        out = F[:n]
    out[0] = F[0]  # chirp[0] = 1
    np.multiply(F[:m - n:-1], p.chirp[1:], out=out[1:])
    return out


def _transformed(p: DftPlan, X: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """DFT(X) in natural order in a work row, which is returned, for an
    inverse to read back: a Stockham transform's stages run between the
    row and ``partner`` (an array of p.size values that the call owns) and
    land in the row; a Bluestein transform lands in its pad's rows
    (:func:`_bluestein`).  ``X`` may be ``partner``."""
    if p.strategy == STOCKHAM:
        return _stockham(X, p.stages_fwd, _workspace(p.size)[0], partner)
    return _bluestein(X, p)


def _inverse_read(w: np.ndarray, out: np.ndarray, scale: float) -> None:
    """out[k] = scale * w[-k mod n], read reversed off :func:`_transformed`'s
    ``w``; ``out`` may be any view that ``w`` does not overlap."""
    out[0] = w[0] * scale
    np.multiply(w[:0:-1], scale, out=out[1:])


def _inverse_into(p: DftPlan, X: np.ndarray, out: np.ndarray, scale: float) -> None:
    """out[k] = scale * DFT(X)[-k mod n], with ``out``, a contiguous row of
    p.size values, as the stages' partner (:func:`_transformed`).  ``X``
    may be ``out`` itself or the spare row; a Stockham inverse copies it
    once where the first stage writes it: ``out`` at an even stage count,
    the row at an odd one."""
    _inverse_read(_transformed(p, X, out), out, scale)


def _as_vector(x, n: int) -> np.ndarray:
    v = np.asarray(x)
    if v.ndim != 1:
        raise SizeMismatchError(f"expected a 1-d sequence, got shape {v.shape}")
    if v.shape[0] != n:
        raise SizeMismatchError(f"sequence length {v.shape[0]} does not match plan size {n}")
    return v


def dft_forward(p: DftPlan, x) -> np.ndarray:
    """Forward transform of ``x`` (length must equal ``p.size``)."""
    x = _as_vector(x, p.size)
    out = np.empty(p.size, dtype=np.complex128)
    if p.strategy == STOCKHAM:
        return _stockham(x, p.stages_fwd, out, _workspace(p.size)[0])
    return _bluestein(x, p, out)


def dft_inverse(p: DftPlan, X) -> np.ndarray:
    """Inverse transform with the 1/N prefactor."""
    X = _as_vector(X, p.size)
    out = np.empty(p.size, dtype=np.complex128)
    _inverse_into(p, X, out, 1.0 / p.size)
    return out


def dft_direct_reference(x, direction: str = "forward") -> np.ndarray:
    """Defining double sum in O(N^2); the oracle for the fast paths."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1 or v.shape[0] < 1:
        raise InvalidSizeError("reference transform needs a nonempty 1-d sequence")
    if not np.isfinite(v).all():
        raise DataError("non-finite samples")
    if direction not in ("forward", "inverse"):
        raise DomainError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    n = v.shape[0]
    # every k*l < n^2 fits int32 for n <= 46341, which halves the index
    # traffic of the int64 products
    k = np.arange(n, dtype=np.int32 if (n - 1) ** 2 < 2**31 else np.int64)
    sign = -1.0 if direction == "forward" else 1.0
    # reduce k*l mod n before forming the angle: keeps the kernel accurate
    # for every N without large-angle trig loss
    roots = np.exp((sign * 2j * np.pi / n) * k)
    # the kernel is built in one preallocated block of rows of at most 2^20
    # entries, so memory stays O(N) however large N is
    rows = min(n, max(1, (1 << 20) // n))
    index = np.empty((rows, n), dtype=k.dtype)
    kernel = np.empty((rows, n), dtype=np.complex128)
    y = np.empty(n, dtype=np.complex128)
    for lo in range(0, n, rows):
        i, w = index[: n - lo], kernel[: n - lo]
        np.multiply(k[lo:lo + rows, None], k, out=i)
        np.remainder(i, n, out=i)
        np.take(roots, i, out=w, mode="clip")  # every index is in range
        np.matmul(w, v, out=y[lo:lo + rows])
    return y if direction == "forward" else y / n


def dft_inverse_halfband(plan_half: DftPlan, V) -> np.ndarray:
    """Exact length-N inverse of a one-sided spectrum via two N/2 inverses.

    A one-sided spectrum of even length N = 2*plan_half.size is zero above
    Nyquist, so ``V`` is just its bins 0..N/2 (plan_half.size + 1 of them).
    Even output samples are the inverse of the low half with the Nyquist
    bin folded into DC, odd samples that of the twiddled low half.  The
    one array allocated, the result, is each half's partner in turn
    (:func:`_transformed`), and each input is built where the first stage
    does not write, so it is never copied: the even half runs against
    out[N/2:] and is read back into it, the odd half against out[:N/2];
    then the even samples move from out[N/2:] to out[0::2]
    (:func:`_spread_upper_half`) and the odd half is read into out[1::2].
    """
    nh = plan_half.size
    v = np.asarray(V)
    if v.ndim != 1 or v.shape[0] != nh + 1:
        raise SizeMismatchError(
            f"one-sided spectrum must hold bins 0..N/2, {nh + 1} of them "
            f"(= plan size + 1), got shape {v.shape}"
        )
    # a cold call builds the roots before its result and workspace exist
    roots = _table("roots", 2 * nh, _half_roots)
    v = v.astype(np.complex128, copy=False)
    out = np.empty(2 * nh, dtype=np.complex128)
    lo, hi, scale = out[:nh], out[nh:], 1.0 / (2 * nh)
    x = _spare_row(plan_half, hi)
    x[...] = v[:nh]
    x[0] += v[nh]
    _inverse_into(plan_half, x, hi, scale)
    x = _spare_row(plan_half, lo)
    np.multiply(v[:nh], roots[:nh], out=x)
    x[0] -= v[nh]  # the root at j = 0 is 1
    w = _transformed(plan_half, x, lo)
    _spread_upper_half(out)
    _inverse_read(w, out[1::2], scale)
    return out


def _spread_upper_half(out: np.ndarray) -> None:
    """out[2k] = out[N/2 + k] for every k < N/2, in place: in ascending
    chunks of halving length, each one's destinations below the values not
    yet read, so no chunk's copy overlaps its own source."""
    nh = out.shape[0] // 2
    k = 0
    while k < nh:
        k1 = (nh + k + 1) // 2  # 2*(k1 - 1) < nh + k
        out[2 * k:2 * k1:2] = out[nh + k:nh + k1]
        k = k1
