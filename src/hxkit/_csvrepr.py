"""``repr``'s bytes for whole float64 arrays, for the csv writer.

:func:`csv_chunks` yields the bytes of ``"".join(",".join(map(repr, row))
+ "\\n" for row in rows)`` in pieces, with no Python object per value.

Digits: Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020), as the JDK's ``DoubleToDecimal`` computes it, in uint64 numpy
arithmetic.  For v = c 2^q it finds the shortest decimal d 10^k in v's
rounding interval, the closest to v when two are as short, the interval's
ends included when c is even: the digits ``repr`` prints.  Java's
two-digit minimum (its ``s >= 100`` guard and its scaling of the least
subnormals, which give ``4.9E-324``) is left out: ``repr`` gives
``5e-324``.

Layout: ``repr`` writes fixed notation when -4 < decpt <= 16, where
d 10^k = 0.ddd 10^decpt, with ``0.`` before a value below 1 and ``.0``
after an integral one; otherwise ``d[.ddd]e±XX``, with at least two
exponent digits.  Each value's digits are rendered once as 24 zero-padded
ASCII columns; its integer and fraction digits are masked out of them
into NUL-padded fields of a byte row (sign, integer, point, fraction,
exponent, separator), and one compress drops every NUL.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["csv_chunks"]

CHUNK = 4096  # values per pass: the working arrays stay in L2

_u = np.uint64
_M32 = _u(0xFFFFFFFF)
_M63 = _u((1 << 63) - 1)
_K_MIN, _K_MAX = -324, 292  # the k of every nonzero double's d 10^k
_E_MIN, _E_MAX = -324, 308  # the exponents repr prints, 5e-324 .. 1e+308

# byte-row columns; a digit field holds digit columns 2..23 of 10 n
_LO, _HI = 2, 24
_FIELD = _HI - _LO
_INT = slice(1, 1 + _FIELD)
_DOT = _INT.stop
_FRAC = slice(_DOT + 1, _DOT + 1 + _FIELD)
_EXP = slice(_FRAC.stop, _FRAC.stop + 5)
_WIDTH = _EXP.stop + 1
_POW10 = np.array([10**i for i in range(20)], dtype=_u)


@functools.cache
def _tables():
    """The lookup tables, built on first use.

    - g: rows g0, g1 of g = g1 2^63 + g0 = floor(beta) + 1 for k = K_MIN..K_MAX,
      where 10^-k = beta 2^r and 2^125 <= beta < 2^126; then their high and
      low 32-bit halves;
    - 0xFF masks of the field columns lo <= j < hi, at row lo (FIELD + 1) + hi;
    - ``e±XX`` NUL-padded to 5 bytes at row e - E_MIN, and an all-NUL last row.
    """
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10 ** -k
            shift = p.bit_length() - 126
            g.append((p >> shift if shift >= 0 else p << -shift) + 1)
        else:
            p = 10 ** k
            g.append((1 << (p.bit_length() + 125)) // p + 1)
    g = np.array([[x & ((1 << 63) - 1) for x in g], [x >> 63 for x in g]], dtype=_u)
    j = np.arange(_FIELD)
    lo, hi = np.divmod(np.arange((_FIELD + 1) ** 2), _FIELD + 1)
    ranges = ((j >= lo[:, None]) & (j < hi[:, None])).astype(np.uint8) * np.uint8(0xFF)
    rows = [f"e{e:+03d}".encode().ljust(5, b"\0") for e in range(_E_MIN, _E_MAX + 1)]
    exponents = np.frombuffer(b"".join(rows) + bytes(5), np.uint8).reshape(-1, 5)
    return (g, g >> _u(32), g & _M32), ranges, exponents


def _product(i, cp, high, low) -> None:
    """high, low = the words of g0 cp and g1 cp, exactly, for g at index i
    of the table: 32-bit halves, four partial products each."""
    _, gh_table, gl_table = _tables()[0]
    gh, gl = gh_table.take(i, axis=1), gl_table.take(i, axis=1)
    c1, c0 = cp >> _u(32), cp & _M32
    lo, m1, m2 = gl * c0, gh * c0, gl * c1
    mid = (lo >> _u(32)) + (m1 & _M32) + (m2 & _M32)
    np.multiply(gh, c1, out=high)
    high += m1 >> _u(32)
    high += m2 >> _u(32)
    high += mid >> _u(32)
    np.bitwise_or(mid << _u(32), lo & _M32, out=low)


def _bounds(c, h, irregular, i, products) -> np.ndarray:
    """Schubfach's vb, vbr, vbl: 4 v 10^-k and its interval's right and left
    ends, each as the JDK's ``rop`` (round to odd) of g cp 2^-127 with
    g = g1 2^63 + g0.  ``products`` is a (2, 3, 2, m) uint64 work array."""
    # rows 0, 1, 2 of high, low: the words of g0 cp and g1 cp for
    # cp = 4 c 2^h, and at the interval's ends cp +- g 2^sh, by 128-bit adds
    high, low = products
    _product(i, c << (h + _u(2)), high[0], low[0])
    g = _tables()[0][0].take(i, axis=1)
    sh = h + _u(1)
    np.add(low[0], g << sh, out=low[1])
    np.add(high[0], g >> (_u(64) - sh), out=high[1])
    high[1] += low[1] < low[0]
    sh -= irregular
    gs = g << sh
    np.subtract(low[0], gs, out=low[2])
    np.subtract(high[0], g >> (_u(64) - sh), out=high[2])
    high[2] -= low[0] < gs
    z = (low[:, 1] >> _u(1)) + high[:, 0]
    return (high[:, 1] + (z >> _u(63))) | (((z & _M63) + _M63) >> _u(63))


def _shortest(bits: np.ndarray, products: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, k) with d 10^k the shortest closest decimal of each nonzero
    finite double's magnitude, and (0, 0) for a zero."""
    t = bits & _u((1 << 52) - 1)
    e = ((bits >> _u(52)) & _u(0x7FF)).astype(np.int64)
    subnormal = e == 0
    c = t | ((~subnormal).astype(_u) << _u(52))
    q = e - 1075 + subnormal
    # v = c 2^q.  At the bottom of a binade the interval below v is half as
    # wide, and k = floor(log10(3/4 2^q)) there, else floor(log10(2^q))
    irregular = (t == 0) & (e > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(_u)
    vb, vbr, vbl = _bounds(c, h, irregular, k - _K_MIN, products)
    # 4 x lies in the interval iff vbl + out <= 4 x <= vbr - out
    out = c & _u(1)
    vbl += out
    vbr -= out
    s = vb >> _u(2)
    # one digit fewer: at most one of s' = 10 floor(s / 10) and s' + 10 is in
    sp10 = (s // _u(10)) * _u(10)
    upin = vbl <= sp10 << _u(2)
    wpin = (sp10 << _u(2)) + _u(40) <= vbr
    # else s or s + 1, whichever is in; the closer to v if both are, and s
    # on a tie when s is even
    s4 = s << _u(2)
    uin = vbl <= s4
    win = s4 + _u(4) <= vbr
    s4 += _u(2)
    below = (vb < s4) | ((vb == s4) & ((s & _u(1)) == 0))
    d = np.where(upin != wpin, sp10 + _u(10) * wpin, s + (win & ~(uin & below)))
    zero = c == 0
    d[zero] = 0
    k[zero] = 0
    return d, k


def _digits(n: np.ndarray) -> np.ndarray:
    """The 24 decimal digits of each n < 10^18, first digit first, as the
    bytes of three little-endian words: 8-digit groups, split into 4-digit
    halves, pairs and digits, each step dividing every lane of a word."""
    x = np.empty((n.shape[0], 3), _u)
    upper = n // _u(10**8)
    x[:, 2] = n - upper * _u(10**8)
    x[:, 0] = upper // _u(10**8)
    x[:, 1] = upper - x[:, 0] * _u(10**8)
    q = (x * _u(109951163)) >> _u(40)  # x // 10^4
    x = q | ((x - q * _u(10**4)) << _u(32))
    q = ((x * _u(5243)) >> _u(19)) & _u(0x000001FF000001FF)  # // 100 in 32-bit lanes
    x = q | ((x - q * _u(100)) << _u(16))
    q = ((x * _u(103)) >> _u(10)) & _u(0x000F000F000F000F)  # // 10 in 16-bit lanes
    return q | ((x - q * _u(10)) << _u(8))


def _bit_length(x: np.ndarray) -> np.ndarray:
    """The bit lengths of positive integers x < 2^53, from their float64 exponents."""
    return (x.astype(np.float64).view(_u) >> _u(52)).astype(np.int64) - 1022


def _span(words: np.ndarray, zero: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, end): the columns of the first digit that is not 0 and one
    past the last, of :func:`_digits`'s words; a zero value has the one
    column 22."""
    flags = ((words + _u(0x7F7F7F7F7F7F7F7F)) & _u(0x8080808080808080)) >> _u(7)
    flags = (flags * _u(0x0102040810204080)) >> _u(56)  # a bit per byte
    nonzero = flags[:, 0] | (flags[:, 1] << _u(8)) | (flags[:, 2] << _u(16)) | (zero << _u(22))
    return _bit_length(nonzero & (_u(0) - nonzero)) - 1, _bit_length(nonzero)


def _layout(values: np.ndarray, d: np.ndarray, k: np.ndarray, sep: np.ndarray,
            row: np.ndarray) -> None:
    """Fill ``row`` (m, WIDTH) with the NUL-padded fields of ``repr`` of
    ``values`` = d 10^k, each followed by its byte of ``sep``."""
    _, ranges, exponents = _tables()
    # 1e16 is a double and 1e-4 the one closest to 10^-4, so no other
    # double's interval holds either: decpt lies in (-4, 16] iff v does
    magnitude = np.abs(values)
    zero = d == 0
    fixed = ((magnitude >= 1e-4) & (magnitude < 1e16)) | zero
    # a fixed-notation integral value renders as n = d 10^k (< 10^16)
    shift = fixed & (k > 0)
    n = np.where(shift, d * _POW10[np.where(shift, k, 0)], d)
    k = np.where(shift, 0, k)
    # the digits of 10 n, so that a "0" follows the last one; n's point
    # precedes column 23 + k
    words = _digits(n * _u(10))
    first, end = _span(words, zero)
    # p, the first fraction column: after n's point (fixed) or its first
    # digit; integer digits [first, p), or the "0" at p - 1 below 1;
    # fraction digits [p, end), or the "0" at p after an integral value
    p = np.where(fixed, 23 + k, first + 1)
    int_lo = np.minimum(first, p - 1)
    frac_hi = np.maximum(end, p + fixed)
    words |= _u(0x3030303030303030)
    field = words.astype("<u8", copy=False).view(np.uint8)[:, _LO:_HI]
    row[:, 0] = (values.view(_u) >> _u(63)).astype(np.uint8) * np.uint8(45)
    np.bitwise_and(field, ranges.take((int_lo - _LO) * (_FIELD + 1) + (p - _LO), axis=0),
                   out=row[:, _INT])
    row[:, _DOT] = (frac_hi > p) * np.uint8(46)
    np.bitwise_and(field, ranges.take((p - _LO) * (_FIELD + 1) + (frac_hi - _LO), axis=0),
                   out=row[:, _FRAC])
    # decpt - 1 = 22 - first + k, the exponent printed
    row[:, _EXP] = exponents.take(np.where(fixed, -1, 22 - first + k - _E_MIN), axis=0)
    row[:, -1] = sep


def csv_chunks(values: np.ndarray, columns: int):
    """Yield the csv text of finite float64 ``values``, ``columns`` to a
    row, as uint8 arrays of ASCII bytes that each end a row.  One work
    array is made per call and reused by every chunk."""
    values = np.ascontiguousarray(values, np.float64)
    step = CHUNK - CHUNK % columns
    size = min(step, values.shape[0])
    sep = np.full(size, ord(","), np.uint8)
    sep[columns - 1::columns] = ord("\n")
    # the products of _bounds, then the byte row and its NUL mask
    work = np.empty(size * max(96, 2 * _WIDTH), np.uint8)
    for lo in range(0, values.shape[0], step):
        part = values[lo:lo + step]
        m = part.shape[0]
        d, k = _shortest(part.view(_u), work[:96 * m].view(_u).reshape(2, 3, 2, m))
        row = work[:m * _WIDTH].reshape(m, _WIDTH)
        keep = work[m * _WIDTH:2 * m * _WIDTH].view(bool).reshape(m, _WIDTH)
        _layout(part, d, k, sep[:m], row)
        np.not_equal(row, 0, out=keep)
        yield np.compress(keep.ravel(), row.ravel())
