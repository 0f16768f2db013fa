"""The text of float64 and index arrays, made in bulk and byte for byte as
``float.__repr__`` and ``str`` write it.

``float.__repr__`` prints the shortest decimal that reads back as the same
double, and of those the nearest (D. Gay, *Correctly rounded binary-decimal
and decimal-binary conversions*, 1990).  For a finite x with
1e-4 <= |x| < 1e16, which ``repr`` writes without an exponent, and whose
mantissa field is nonzero, this module finds that decimal with numpy:

- y = |x|·10**s lies in [1e16, 1e17), computed as one long-double product
  (10**s is exact there).  The correctly rounded 17-, 16- and 15-digit
  significands are y rounded to a multiple of 1, 10 and 100.
- x reads back from every decimal strictly inside its rounding interval,
  ``spacing(x)·10**s/2`` around y; the interval is symmetric because the
  mantissa field is nonzero (a power of two has a narrower gap below).
- An interval is less than one unit of the 15th digit wide, so it holds at
  most one 15-digit decimal; a shorter decimal is a 15-digit one ending in
  zeros.  Being symmetric about y, it holds a decimal of 15, 16 or 17
  digits only if it holds the nearest one, and ``repr`` prints the nearest
  of the shortest.  It is wider than one unit of the 17th digit, so the
  nearest 17-digit decimal is always inside.  So repr's decimal is the
  first of the three candidates, from 15 digits up, that lies inside.

Each of those decisions must clear a margin of a few long-double rounding
errors: a rounding to 10 or 100 near a tie, a candidate near the interval
edge, and a candidate that rounds up to a power of ten.  Every value that
fails one, and every value outside the fast set (zero, -0.0, subnormals,
non-finite values, powers of two, magnitudes outside [1e-4, 1e16)), is
printed by ``float.__repr__`` itself.  Where long double is plain double,
no value clears the margin, and every value is printed that way.

The digits come from a table of the 10,000 four-digit groups.  Each value
is laid out in a fixed-width field of NUL-padded slots: the text is the
field with its NUL bytes deleted, which the writers do with one
``bytes.translate`` per chunk of values.
"""

import numpy as np

# Bytes of a float field: sign, "0." and three zeros for 1e-4 <= |x| < 0.1,
# then 17 digits, each followed by a slot for the decimal point.
FLOAT_WIDTH = 40

# Precision of the long-double products that every decision's margin is
# measured in.
_EPS = float(np.finfo(np.longdouble).eps)
# float.__repr__ for the values the fast path cannot certify.
_fallback = float.__repr__

_MANTISSA = np.uint64((1 << 52) - 1)
# 10**s for s = 0..21, exact in long double (and in double up to 10**22)
_POW10 = np.cumprod(np.full(22, 10, dtype=np.longdouble)) / 10
_POW10_F = _POW10.astype(np.float64)
# "0000" .. "9999" as uint32 words
_n = np.arange(10000)
_GROUPS = (
    (np.stack([_n // 1000, _n // 100 % 10, _n // 10 % 10, _n % 10], axis=1) + ord("0"))
    .astype(np.uint8).view(np.uint32).ravel()
)
del _n


def _frames():
    """The bytes of a float field other than its digits, for each sign and
    count k = -3..16 of digits before the decimal point: "-", "0." and -k
    zeros for k <= 0, and the point after digit k for k >= 1."""
    neg, k = (a.reshape(-1, 1) for a in np.meshgrid([0, 1], np.arange(-3, 17), indexing="ij"))
    col = np.arange(FLOAT_WIDTH)
    return np.select(
        [col == 0, (col == 1) & (k <= 0), (col == 2) & (k <= 0),
         (col >= 3) & (col < 3 - k), (col >= 7) & (col == 5 + 2 * k)],
        [neg * ord("-"), ord("0"), ord("."), ord("0"), ord(".")],
        0,
    ).astype(np.uint8)


_FRAME = _frames()
# row e keeps the first e of 17 digits
_SHOWN = np.where(np.arange(17) < np.arange(18)[:, None], 0xFF, 0).astype(np.uint8)
_POW10_INT = 10 ** np.arange(1, 17)


def _digits(c):
    """The 17 zero-padded decimal digits of each int64 0 <= c < 10**17, as
    an (n, 17) uint8 array of ASCII digits."""
    hi = c // 10**8  # floor division by a constant is much cheaper than %
    lo = c - hi * 10**8
    top = hi // 10**8
    hi -= top * 10**8
    words = np.empty((c.size, 5), np.uint32)
    words[:, 0] = np.take(_GROUPS, top)  # "000d"
    for col, group in ((1, hi), (3, lo)):
        left = group // 10**4
        words[:, col] = np.take(_GROUPS, left)
        words[:, col + 1] = np.take(_GROUPS, group - left * 10**4)
    return words.view(np.uint8)[:, 3:]


def float_fields(x):
    """(n, FLOAT_WIDTH) uint8 fields of the float64 values ``x``: row i with
    its NUL bytes deleted is ``float.__repr__(x[i])`` in ASCII."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16) & (x.view(np.uint64) & _MANTISSA != 0)
    a[~fast] = 1.5  # any fast value: these rows are replaced at the end
    s = 16 - np.floor(np.log10(a)).astype(np.intp)
    y = a.astype(np.longdouble) * _POW10[s]
    wrong = (y < 1e16).astype(np.intp) - (y >= 1e17)
    if wrong.any():  # log10 rounded across a power of ten
        s += wrong
        y = a.astype(np.longdouble) * _POW10[s]
    # y = c + r, with r exact in double; all distances below are in units
    # of the 17th digit
    yl = np.rint(y)
    c = yl.astype(np.int64)
    r = (y - yl).astype(np.float64)
    h = np.spacing(a) * _POW10_F[s] / 2
    # long-double rounding of y, plus the double rounding of the small
    # offsets below where long double is wider than 80 bits
    m = 4 * _EPS * y.astype(np.float64) + 2.0**-40
    inside, outside = h - m, h + m
    low100 = c - c // 100 * 100
    low10 = low100 - low100 // 10 * 10
    # distances from y to the nearest multiples of 100 and 10 (c15, c16)
    # and to c; a tie at q/2 is undecided
    off100, off10 = low100 + r, low10 + r
    d15 = np.minimum(np.abs(off100), 100 - off100)
    d16 = np.minimum(np.abs(off10), 10 - off10)
    d17 = np.abs(r)
    fits15 = (d15 < inside) & (d15 < 50 - m)
    fits16 = (d16 < inside) & (d16 < 5 - m)
    ok = fits15 | (
        (d15 > outside) & (d15 < 50 - m)
        & (fits16 | ((d16 > outside) & (d16 < 5 - m) & (d17 < inside) & (d17 < 0.5 - m)))
    )
    chosen = np.where(
        fits15, c - low100 + 100 * (off100 >= 50), np.where(fits16, c - low10 + 10 * (off10 >= 5), c)
    )
    ok &= fast & (chosen >= 10**16) & (chosen < 10**17)

    digits = _digits(np.where(ok, chosen, 10**16))
    n = 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)  # significant digits
    k = 17 - s  # digits before the decimal point; 0 to -3 for 0.0001 to 0.0999...
    out = np.take(_FRAME, (x < 0) * 20 + (k + 3), axis=0)
    # every significant digit, and the integer digits with the one digit
    # after the point ("120.0", "5.0")
    out[:, 6::2] = digits & np.take(_SHOWN, np.maximum(n, k + 1), axis=0)

    slow = np.flatnonzero(~ok)
    if slow.size:
        texts = [_fallback(v) for v in x[slow].tolist()]
        out[slow] = np.array(texts, dtype=f"S{FLOAT_WIDTH}").view(np.uint8).reshape(-1, FLOAT_WIDTH)
    return out


def int_fields(values):
    """(n, 17) uint8 fields of the integers 0 <= v < 10**17: row i with
    its NUL bytes deleted is ``str(values[i])``."""
    c = np.ascontiguousarray(values, dtype=np.int64).ravel()
    if c.size and (c.min() < 0 or c.max() >= 10**17):
        raise ValueError("int_fields takes integers in [0, 10**17)")
    width = 1 + np.searchsorted(_POW10_INT, c, side="right")  # digits of each value
    return _digits(c) & np.take(_SHOWN[:, ::-1], width, axis=0)
