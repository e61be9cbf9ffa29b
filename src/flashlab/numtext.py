"""Decimal text of number arrays, character for character as Python
prints each number, computed in numpy with no Python object per value.

Each function returns a uint8 matrix with one row per value.  A row holds
the ASCII characters of its value's text in order, with NUL bytes in the
slots that text does not use, so ``m[m != 0]`` is the texts end to end,
row after row.  A writer can set such matrices side by side, with columns
of separator bytes between them, and drop the NULs of the whole table in
one step.
"""

from __future__ import annotations

import functools

import numpy as np

_POW10 = 10 ** np.arange(19, dtype=np.int64)
# 10**k is a double exactly for k <= 22, since 5**22 < 2**53; each is also
# split into two 26-bit halves for Dekker's product
_EXACT_POW10 = np.array([float(10**k) for k in range(23)])
_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter for 53-bit significands


def _split(a):
    """Veltkamp's split: (hi, lo) with a == hi + lo, each of at most 26
    significant bits, so products of halves are exact."""
    c = _SPLIT * a
    a_hi = c - (c - a)
    return a_hi, a - a_hi


_POW10_HI, _POW10_LO = _split(_EXACT_POW10)
# _shortest compares a candidate's distance from mag 10^k with half an ulp
# of mag times 10^k, which lies in (0.55, 11.2), and with half the step
# between candidates.  Near those thresholds the computed distance is off
# by less than 1e-13; a decision closer than this to its threshold is left
# to repr.
_MARGIN = 1e-6


def int_chars(values) -> np.ndarray:
    """The characters of str(int(v)) for each v of an integer array, for
    |v| < 2**63."""
    v = np.asarray(values, dtype=np.int64).ravel()
    mag = np.abs(v)
    width = len(str(int(mag.max()))) if v.size else 1
    negative = v < 0
    chars = np.zeros((width + 1, v.size), dtype=np.uint8)
    chars[0] = negative * ord("-")
    rest = mag
    for row in range(width, 0, -1):
        above = rest // 10
        # a digit above the first is a NUL, not a leading zero
        chars[row] = np.where((rest > 0) | (row == width), rest - above * 10 + ord("0"), 0)
        rest = above
    return chars[0 if negative.any() else 1 :].T


def repr_chars(values) -> np.ndarray:
    """The characters of repr(float(v)) for each v of a float array.

    repr gives the shortest digit string that reads back as the same
    double, the nearest one to it if there are several, laid out as
    positional text from 1e-4 up to 1e16 (with '.0' on an integral
    value) and as d.ddde±XX outside that range.  Here a nonzero finite
    value with 1e-6 <= |a| < 1e17 is written exactly as a 10^K = hi + lo
    with 17 digits before the point: K <= 22 keeps 10^K exact, and a
    Dekker product makes hi + lo exact.  The nearest p-digit candidate
    reads back as a iff its distance from a 10^K is below half an ulp of
    a times 10^K, itself an exact double; p starts at 17 and shrinks
    while the candidate still reads back.  repr itself prints the values
    this test cannot decide: zero, inf, nan, a power of two (whose lower
    neighbour is nearer than its upper), a magnitude outside that range,
    and a distance within _MARGIN of its threshold or of a tie between
    two candidates.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    q, digits, point, sure = _shortest(np.abs(x))
    chars = _layout(np.signbit(x), q, digits, point)
    unsure = np.flatnonzero(~sure)
    if unsure.size:
        texts = np.array([repr(v).encode() for v in x[unsure].tolist()])
        texts = texts.view(np.uint8).reshape(unsure.size, -1)
        if texts.shape[1] > chars.shape[1]:
            chars = np.pad(chars, ((0, 0), (0, texts.shape[1] - chars.shape[1])))
        # at least as long as the 3-character text laid out for them
        chars[unsure, : texts.shape[1]] = texts
    return chars


def _shortest(mag: np.ndarray):
    """repr's digits of each magnitude: ``(q, digits, point, sure)`` with
    mag read back from 0.d1 d2 ... dn x 10^point, d1 ... dn the n =
    ``digits`` decimal digits of q, the last nonzero.  Where ``sure`` is
    False they are those of 1.0, and the caller must ask repr.

    The last digit of q is never 0.  If the candidate q at level m ended
    in 0, q 10^m would be a multiple of 10^(m + 1), and so the candidate
    at level m + 1 too, q / 10.  Its computed distance would be the same
    double, as ``up * step - rest`` in _nearest is the same exact integer,
    q 10^m - whole, at both levels; so level m + 1 would read back as
    well, and the search would not have stopped at m.  It stops only at a
    q with no trailing zero, and an unsure value gets q = 1.
    """
    sure, k, whole, lo, half_ulp = _scaled(mag)
    # level m rounds whole + lo to a multiple of 10^m, 17 - m digits; level
    # 0 always reads back, as its distance is at most 1/2 < 1e16 / 2^54
    up = np.floor(lo + 0.5)
    q, distance = whole + up.astype(np.int64), np.abs(up - lo)
    level = np.zeros(mag.size, dtype=np.intp)
    live = np.flatnonzero(sure)
    for m in range(1, 18):
        qm, dm = _nearest(whole[live], lo[live], _POW10[m])
        threshold = half_ulp[live]
        sure[live[np.abs(dm - threshold) <= _MARGIN]] = False
        shorter = dm < threshold
        live = live[shorter]
        if not live.size:
            break
        q[live], distance[live], level[live] = qm[shorter], dm[shorter], m
    # a tie: the candidate on the other side is as near
    sure &= _POW10[level] - 2.0 * distance > _MARGIN
    q[~sure] = 1
    # q 10^level is within 1 of [1e16, 1e17], so q has 17 - level digits
    # unless it rounded up to a power of ten or lies just below 1e16
    digits = (17 - level) + (q >= _POW10[17 - level]) - (q < _POW10[np.maximum(16 - level, 0)])
    return q, np.where(sure, digits, 1), np.where(sure, digits + level - k, 1), sure


def _scaled(mag: np.ndarray):
    """``(sure, k, whole, lo, half_ulp)``: where ``sure``, mag 10^k ==
    whole + lo exactly, with whole an integer in [1e16, 1e17) and
    |lo| <= 8, and half_ulp is half an ulp of mag times 10^k.  ``sure`` is
    False on the values this cannot be done for."""
    frac, exp2 = np.frexp(mag)
    with np.errstate(divide="ignore", invalid="ignore"):
        decade = np.floor(np.log10(mag))
    sure = (decade >= -6) & (decade <= 16) & (frac != 0.5)  # false on 0, inf and nan too
    k = (16 - np.where(sure, decade, 0)).astype(np.intp)
    # Dekker's product: hi = fl(mag 10^k), and hi + lo == mag 10^k
    mag = np.where(sure, mag, 1.0)
    hi = mag * _EXACT_POW10[k]
    a_hi, a_lo = _split(mag)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    lo = a_lo * b_lo - (((hi - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)
    # log10 may land one decade off next to a power of ten
    sure &= (hi >= 1e16) & (hi < 1e17)
    # hi is an integer, being above 2^53
    return sure, k, hi.astype(np.int64), lo, np.ldexp(_EXACT_POW10[k], exp2 - 54)


def _nearest(whole: np.ndarray, lo: np.ndarray, step):
    """The multiple of ``step`` nearest to whole + lo, divided by step,
    and its distance from whole + lo.  Only the distance is rounded, and
    the choice of multiple, which may pick the other one of a near tie,
    at a distance within rounding of the same."""
    above = whole // step
    rest = whole - above * step
    up = np.floor((rest + lo) / step + 0.5).astype(np.int64)
    return above + up, np.abs((up * step - rest) - lo)


# A value's text is gathered from 40 source bytes, ten 4-byte words: words
# 0-5 hold the digits of q as six three-digit chunks (bytes 0-2 of each),
# right-aligned, and words 6-9 hold "0123", "4567", "89.e" and "-+" and
# two NULs.  A source position p is byte p % 4 of word p // 4.
_TRIPLE_WORDS = np.zeros((1000, 4), dtype=np.uint8)
_TRIPLE_WORDS[:, :3] = np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
_TRIPLE_WORDS = _TRIPLE_WORDS.view(np.uint32).ravel()
_CONSTANT_WORDS = np.frombuffer(b"0123456789.e-+\0\0", dtype=np.uint32)
_ZERO, _DOT, _E, _MINUS, _PLUS, _NUL = 24, 34, 35, 36, 37, 38
# point = digits + level - k, with digits + level in 16..18 and k in 0..22
_MIN_POINT, _MAX_POINT = -6, 18


def _layout(negative, q, digits, point) -> np.ndarray:
    """repr's text of each value (-1)^negative 0.d1 d2 ... x 10^point,
    d1 d2 ... the ``digits`` decimal digits of q."""
    n = q.size
    # word-major, so each word of every value is one contiguous row
    source = np.empty((10, n), dtype=np.uint32)
    source[6:] = _CONSTANT_WORDS[:, None]
    rest = q
    for word in range(5, -1, -1):
        above = rest // 1000
        np.take(_TRIPLE_WORDS, rest - above * 1000, out=source[word])
        rest = above
    templates, lengths = _templates()
    kind = (negative * 17 + digits - 1) * (_MAX_POINT - _MIN_POINT + 1) + point - _MIN_POINT
    width = int(lengths[kind].max(initial=0))
    offsets = templates[:, :width] // 4 * (4 * n) + templates[:, :width] % 4
    # one output column at a time keeps the index arrays one value wide
    source_bytes, value_start = source.view(np.uint8).reshape(-1), 4 * np.arange(n)
    chars = np.empty((width, n), dtype=np.uint8)
    for offset, out in zip(offsets.T, chars):
        np.take(source_bytes, value_start + np.take(offset, kind), out=out)
    return chars.T


@functools.cache
def _templates():
    """For each (sign, digit count, point): the source positions of the
    value's text, padded with NUL, and the text's length."""
    texts = [
        _text(negative, digits, point)
        for negative in (False, True)
        for digits in range(1, 18)
        for point in range(_MIN_POINT, _MAX_POINT + 1)
    ]
    templates = np.full((len(texts), max(map(len, texts))), _NUL, dtype=np.intp)
    for row, text in zip(templates, texts):
        row[: len(text)] = text
    return templates, np.array([len(t) for t in texts])


def _text(negative: bool, digits: int, point: int) -> list[int]:
    """Source positions of repr's text of ±0.d1 ... dn x 10^point, n =
    ``digits``, in the layout of CPython's float_repr_style 'short'."""
    d = [4 * (c // 3) + c % 3 for c in range(18 - digits, 18)]
    if point < -3 or point > 16:
        exponent = point - 1
        body = d[:1] + ([_DOT] + d[1:] if digits > 1 else []) + [
            _E,
            _PLUS if exponent > 0 else _MINUS,
            _ZERO + abs(exponent) // 10,
            _ZERO + abs(exponent) % 10,
        ]
    elif point <= 0:
        body = [_ZERO, _DOT] + [_ZERO] * -point + d
    elif point < digits:
        body = d[:point] + [_DOT] + d[point:]
    else:
        body = d + [_ZERO] * (point - digits) + [_DOT, _ZERO]
    return [_MINUS] * negative + body
