"""CSV rows of float64 values, each exactly as ``'%.17g' %`` prints it.

``row_chunks(values)`` turns a matrix into the bytes of its rows, ``ROWS``
rows a piece, values separated by commas and rows ended by newlines:
joined, the pieces equal byte for byte
``(",".join(["%.17g"] * cols) + "\\n") * rows % tuple(values.flat)``.
CPython reaches each value's 17 digits by a correctly rounded
conversion (Gay, "Correctly rounded binary-decimal and decimal-binary
conversions", 1990), several hundred ns per value; this module reaches
the same digits for a whole matrix in numpy.

Digits. For |v| with e = floor(log10 |v|), the 17 significant digits
are round(y), y = |v| 10^(16 - e) in [10^16, 10^17). y is formed as a
double-double: the product of |v| with a power of ten held as an
unevaluated sum hi + lo (hi correctly rounded, lo the correctly rounded
rest, both built from exact integers) is split by Dekker's exact
two-product ("A floating-point technique for extending the available
precision", 1971) into an integer-valued double and a small correction.
Against the exact y the result is off by less than 1e-14: the table's
2^-106 relative error and the rounding of |v| lo (together below
3e-15 at y < 10^17) and the two roundings of the correction (below
5e-15). The digits are therefore decided wherever the fraction of y is
more than ``BAND`` (1e-7) from one half; exact ties, which ``%`` rounds
half to even, always fall in the band.

A value is instead printed by ``'%.17g' %`` itself when its fraction
lies in the band, when it is not finite or its magnitude lies outside
[1e-230, 1e250] (where the table or the split would under- or
overflow), or when the floor of y is not a 17-digit integer. That
happens where log10 rounds across a power of ten: it gives k for the
doubles just below 10^k, such as fl(1e-14), which prints as ``1e-14``.
Zeros are printed directly. A y that rounds up to 10^17 stands for
10^16 with the exponent one higher, which is how such a double prints
where log10 leaves it below k.

Bytes. Each value is laid out in a 48-byte template: sign, ``0.000``,
the 17 digits, a point, the 17 digits again, ``e``, the exponent's sign
and three digits, and the separator. A mask from a table indexed by
(layout, significant digits, sign) keeps the bytes of the printed form:
layout is the position of the point (17 fixed forms with 1 to 17
digits before it, four ``0.`` forms with 0 to 3 zeros after it), an
exponential form with a two- or three-digit exponent, zero, or the
per-value fallback, which keeps only the separator. Dropped bytes are
zeroed and deleted from the text in one pass.
"""

from __future__ import annotations

import numpy as np

__all__ = ["row_chunks"]

# rows formatted per pass: a pass holds about 20 temporaries of one word
# per value and the template of 48 bytes per value. At 36 values per row
# (example2's CSV), 128 rows peak at 1.8 MB (tracemalloc) and 1024 rows
# at 14.7 MB, which ran at half the speed (2-vCPU x86-64 host, numpy 2.4).
ROWS = 128

# fraction of y this close to one half falls back to '%.17g' %
BAND = 1e-7
LOWEST, HIGHEST = 1e-230, 1e250
# floor(log10 |v|) over [LOWEST, HIGHEST], and the exponent after a carry
E_MIN, E_MAX = -231, 251
_SPLIT = 2.0**27 + 1


def _powers_of_ten():
    """(hi, hi's two halves by Dekker's split, lo) of 10^q, q = 16 - e, by e."""
    hi, lo = [], []
    for e in range(E_MIN, E_MAX):
        q = 16 - e
        if q >= 0:
            exact = 10**q
            h = float(exact)
            lo.append(float(exact - int(h)))
        else:
            den = 10**-q
            h = 1 / den
            num, pow2 = h.as_integer_ratio()
            lo.append((pow2 - num * den) / (pow2 * den))
        hi.append(h)
    hi = np.array(hi)
    c = hi * _SPLIT
    upper = c - (c - hi)
    return np.stack([hi, upper, hi - upper, np.array(lo)])


_POW = _powers_of_ten()

# template byte positions
W = 48
SIGN, ZERO, DIGITS, POINT, FRACTION, EXP, EXP_SIGN, EXP_DIGITS, SEP = 0, 1, 6, 23, 24, 41, 42, 43, 46
_ROW = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"e+000,\0", np.uint8)

# layouts: 0..16 fixed with that exponent, 17..20 fixed 0.d to 0.000d,
# then exponential with two and with three exponent digits, zero, fallback
_EXP2, _EXP3, _ZERO, _FALLBACK = 21, 22, 23, 24


def _masks():
    """Kept template bytes, rows indexed by (layout * 18 + digits) * 2 + negative."""
    m = np.zeros((25, 18, 2, W), bool)
    m[..., SEP] = True
    m[:, :, 1, SIGN] = True
    for s in range(1, 18):
        for x in range(17):
            r = m[x, s]
            r[:, DIGITS:DIGITS + x + 1] = True
            if s > x + 1:
                r[:, POINT] = True
                r[:, FRACTION + x + 1:FRACTION + s] = True
        for zeros in range(4):
            r = m[17 + zeros, s]
            r[:, ZERO:ZERO + 2 + zeros] = True
            r[:, FRACTION:FRACTION + s] = True
        for layout, width in ((_EXP2, 2), (_EXP3, 3)):
            r = m[layout, s]
            r[:, DIGITS] = True
            if s > 1:
                r[:, POINT] = True
                r[:, FRACTION + 1:FRACTION + s] = True
            r[:, EXP] = r[:, EXP_SIGN] = True
            r[:, EXP_DIGITS + 3 - width:EXP_DIGITS + 3] = True
    m[_ZERO, :, :, ZERO] = True
    m[_FALLBACK, :, :, SIGN] = False
    return m.reshape(-1, W)


_MASKS = _masks()

_k = np.arange(10000)
_quad = np.stack([_k // 1000, _k // 100 % 10, _k // 10 % 10, _k % 10], axis=1)
# the four ASCII digits of 0..9999, one uint32 each
_QUADS = (_quad + 48).astype(np.uint8).view(np.uint32).reshape(-1)
# at 10000 j + k: the significant digits of the 17 when quad j (digits
# 4 j + 1 .. 4 j + 4 after the leading one) holds k, counted up to its
# last nonzero digit; 1 when k is 0
_last = np.where(_quad[:, 3] > 0, 4, np.where(_quad[:, 2] > 0, 3, np.where(_quad[:, 1] > 0, 2, 1)))
_SIGNIFICANT = np.concatenate([np.where(_k > 0, 1 + 4 * j + _last, 1) for j in range(4)]).astype(np.uint8)
_QUAD_OFFSET = np.arange(4) * 10000

_x = np.arange(E_MIN, E_MAX + 1)
# exponent sign and three digits, and layout, by exponent - E_MIN
_EXPONENT = np.stack([np.where(_x < 0, 45, 43), *(abs(_x) // 10**k % 10 + 48 for k in (2, 1, 0))],
                     axis=1).astype(np.uint8)
_LAYOUT = np.where(
    (_x >= -4) & (_x <= 16), np.where(_x >= 0, _x, 16 - _x), np.where(abs(_x) < 100, _EXP2, _EXP3)
)
del _k, _quad, _last, _x


def row_chunks(values):
    """The CSV text of a float matrix as bytes, in consecutive pieces of
    ``ROWS`` rows: each value as ``'%.17g' %`` prints it, comma
    separated, one newline-ended line per row."""
    return (_format(values[k:k + ROWS]) for k in range(0, len(values), ROWS))


def _format(values):
    rows, cols = values.shape
    v = values.reshape(-1)
    n = v.size
    a = np.abs(v)
    zero = a == 0
    direct = (a >= LOWEST) & (a <= HIGHEST)
    a[~direct] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    # y = a (hi + lo) = p + t: p the rounded product a hi, t its exact
    # error (Dekker) plus a lo
    hi, hi_upper, hi_lower, lo = _POW.take(e - E_MIN, axis=1)
    c = a * _SPLIT
    a_upper = c - (c - a)
    a_lower = a - a_upper
    p = a * hi
    t = (((a_upper * hi_upper - p) + a_upper * hi_lower + a_lower * hi_upper) + a_lower * hi_lower) + a * lo
    whole = np.floor(p)
    f = (p - whole) + t
    carried = np.floor(f)
    frac = f - carried
    base = whole.astype(np.int64) + carried.astype(np.int64)
    direct &= (np.abs(frac - 0.5) > BAND) & (base >= 10**16) & (base < 10**17)
    m = base + (frac > 0.5)
    carry = m == 10**17
    m[carry] = 10**16
    e += carry

    # the 17 digits: the leading one and four quads
    top = m // 10**8
    lead = top // 10**8
    upper8 = top - lead * 10**8
    lower8 = m - top * 10**8
    quads = np.empty((n, 4), np.intp)
    quads[:, 0] = upper8 // 10000
    quads[:, 1] = upper8 - quads[:, 0] * 10000
    quads[:, 2] = lower8 // 10000
    quads[:, 3] = lower8 - quads[:, 2] * 10000
    sig = _SIGNIFICANT.take(quads + _QUAD_OFFSET)
    significant = np.maximum(np.maximum(sig[:, 0], sig[:, 1]), np.maximum(sig[:, 2], sig[:, 3]))
    digits = _QUADS.take(quads).view(np.uint8)
    lead = (lead + 48).astype(np.uint8)

    text = np.empty((n, W), np.uint8)
    text[:] = _ROW
    text[:, DIGITS] = lead
    text[:, DIGITS + 1:DIGITS + 17] = digits
    text[:, FRACTION] = lead
    text[:, FRACTION + 1:FRACTION + 17] = digits
    text[:, EXP_SIGN:EXP_SIGN + 4] = _EXPONENT.take(e - E_MIN, axis=0)
    text.reshape(rows, cols, W)[:, -1, SEP] = ord("\n")

    layout = _LAYOUT.take(e - E_MIN)
    layout[~direct] = _FALLBACK
    layout[zero] = _ZERO
    keep = _MASKS.take((layout * 18 + significant) * 2 + np.signbit(v), axis=0)
    text *= keep
    out = text.tobytes().translate(None, b"\0")
    fallback = np.flatnonzero(layout == _FALLBACK)
    if fallback.size == 0:
        return out
    # a fallback value kept only its separator: put its text before it
    ends = np.cumsum(keep.sum(axis=1)) - 1
    pieces, start = [], 0
    for i in fallback.tolist():
        pieces += [out[start:ends[i]], b"%.17g" % v[i]]
        start = ends[i]
    pieces.append(out[start:])
    return b"".join(pieces)
