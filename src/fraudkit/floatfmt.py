"""CSV rows of float64 features and 0/1 labels, byte-identical to repr.

repr(x) prints the shortest decimal that reads back as x, the closer one
when two are that short (the even one on a tie). It is positional where
its decimal point position decpt (x = 0.d1d2... * 10**decpt) has
-4 < decpt <= 16, that is for 0.0001 <= |x| < 1e16, and in exponent
form elsewhere. format_rows finds the positional values' digits for a
whole block at once with Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020; the algorithm behind OpenJDK's Double.toString),
whose only arithmetic is integer products against powers of ten. Those
products and their digits are computed on uint64 and uint32 arrays alone,
so no numpy promotion rule turns one into a float. Subnormals and
exponent forms, rare in data, go through repr itself.
"""

import numpy as np

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)

# Schubfach scales a double c * 2**q by g(k) ~ 10**-k, with k =
# floor(log10(2**q)). A positional value has -20 <= k <= 0, where g(k) =
# 10**-k * 2**r + 1 exactly, r putting g in [2**125, 2**126): its low 63
# bits are 1, so only its top 63 bits g1 are kept, in 32-bit limbs.
_K_MIN = -20
_G1 = np.array(
    [(10**e << 126 - (10**e).bit_length()) >> 63 for e in range(-_K_MIN, -1, -1)], dtype=_U64
)
_G1_HI, _G1_LO = _G1 >> _U64(32), _G1 & _LOW32

# A value's field: '-', '0', '.', three '0's, then the 17 digits of f
# with a '.' slot after each but the last, then ','. _TEMPLATES holds it
# for each decpt, digit count n and sign, with 0 in every byte the text
# drops; the digits are added to the '0's of the digit slots, and the 0
# bytes are then deleted.
_FIELD = np.frombuffer(b"-0.000" + b"0." * 16 + b"0,", dtype=np.uint8)
_DIGITS = slice(6, 39, 2)


def _template(decpt, n, neg):
    keep = np.zeros(len(_FIELD), dtype=bool)
    keep[[0, -1]] = neg, True
    if decpt <= 0:  # 0.000ddd
        keep[[1, 2]] = True
        keep[6 + decpt : 6] = True
        keep[_DIGITS][:n] = True
    else:  # ddd.ddd, or ddd.0 where decpt >= n
        keep[_DIGITS][: max(n, decpt + 1)] = True
        keep[5 + 2 * decpt] = True
    return np.where(keep, _FIELD, 0)


_TEMPLATES = np.array(
    [_template(decpt, n, neg) for decpt in range(-3, 17) for n in range(1, 18) for neg in (0, 1)],
    dtype=np.uint8,
)


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """The high 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    cross1, cross2 = a_hi * b_lo, a_lo * b_hi
    mid = ((a_lo * b_lo) >> _U64(32)) + (cross1 & _LOW32) + (cross2 & _LOW32)
    return a_hi * b_hi + (cross1 >> _U64(32)) + (cross2 >> _U64(32)) + (mid >> _U64(32))


def _interval(bits):
    """(vb, vbl, vbr, k, ok) for doubles given as their bits, where ok:
    Schubfach's value v * 10**-k and the ends of its rounding interval,
    each times 4 and rounded to odd; ok holds for every positional value
    and a few that are not."""
    exp = (bits >> _U64(52)) & _U64(0x7FF)
    q = exp.astype(np.int64) - 1075
    k = (q * 661971961083) >> 41
    ok = (exp != _U64(0)) & (k >= _K_MIN) & (k <= 0)
    k = np.where(ok, k, 0)
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(_U64)
    i = k - _K_MIN
    g1 = _G1[i]
    # Schubfach's rop(g, cb << h) for g = g1 * 2**63 + 1: the high word
    # of g1 * cb * 2**h, rounded to odd, where cb is 4 c and c the
    # significand. The three values share the product g1 * cb = hi *
    # 2**64 + lo, held exactly.
    cb = ((bits & _U64(2**52 - 1)) | _U64(2**52)) << _U64(2)
    hi, lo = _mulhi(_G1_HI[i], _G1_LO[i], cb >> _U64(32), cb & _LOW32), g1 * cb
    down = _U64(64) - h

    def rop(hi, lo):
        return (hi << h) | (lo >> down) | ((lo << h) > _U64(1))

    # The rounding interval [vbl, vbr] around vb, for cb -+ 2. Two of
    # Schubfach's refinements change no positional value's digits, so
    # they are left out. The interval is open where c is odd, but its ends
    # have more digits than the candidates below, save above 2**53, where
    # the value itself is the nearer candidate. Below a power of two (c =
    # 2**52) the next double is half as far away, but every power of two
    # from 2**-13 to 2**53 has the same shortest digits either way.
    two_g1 = g1 << _U64(1)
    lo_r = lo + two_g1
    return (
        rop(hi, lo),
        rop(hi - (lo < two_g1), lo - two_g1),
        rop(hi + (lo_r < two_g1), lo_r),
        k,
        ok,
    )


def _shortest(bits):
    """(f, decpt, ok) for doubles given as their bits: where ok, f is the
    shortest round-trip decimal's digits as a 17-digit integer (zeros
    appended; 0 for a zero), and the value is 0.f * 10**decpt. ok holds
    for zeros, every positional value and a few that are not."""
    vb, vbl, vbr, k, ok = _interval(bits)
    # One digit shorter, s' 10**(k+1) or t' 10**(k+1), if just one is in
    # the interval; else s 10**k or t 10**k, if just one is; else the
    # closer, the even one on a tie.
    s = vb >> _U64(2)
    sp = (s // _U64(10)) * _U64(10)
    tp = sp + _U64(10)
    upin, wpin = vbl <= sp << _U64(2), tp << _U64(2) <= vbr
    uin, win = vbl <= s << _U64(2), (s + _U64(1)) << _U64(2) <= vbr
    closer_s = vb + (s & _U64(1)) <= (s << _U64(2)) + _U64(2)
    pick_s = np.where(uin != win, uin, closer_s)
    d = np.where(upin != wpin, np.where(upin, sp, tp), s + (~pick_s).astype(_U64))
    # d has 16 or 17 digits.
    short = d < _U64(10**16)
    zero = (bits << _U64(1)) == _U64(0)
    f = np.where(zero, _U64(0), np.where(short, d * _U64(10), d))
    return f, np.where(zero, 0, k + 17 - short), ok | zero


def format_rows(features, labels):
    """The CSV bytes of features' rows, each followed by its 0/1 label and
    CRLF, every value as repr writes it and comma-separated."""
    n_rows, n_cols = features.shape
    x = np.ascontiguousarray(features).reshape(-1)
    bits = x.view(_U64)
    f, decpt, ok = _shortest(bits)

    # f's digits, one row each, and the count of its trailing zeros after
    # the first digit.
    digits = np.empty((17, len(x)), dtype=np.uint8)
    zeros = np.zeros(len(x), dtype=np.uint8)
    trailing = np.ones(len(x), dtype=bool)
    hi = f // _U64(10**9)
    for part, rows in ((f - hi * _U64(10**9), range(16, 7, -1)), (hi, range(7, -1, -1))):
        part = part.astype(np.uint32)
        for j in rows:
            rest = part // np.uint32(10)
            np.subtract(part, rest * np.uint32(10), out=digits[j], casting="unsafe")
            if j:
                trailing &= digits[j] == 0
                zeros += trailing
            part = rest

    out = np.empty((n_rows, n_cols * len(_FIELD) + 3), dtype=np.uint8)
    fields = out[:, :-3].reshape(n_rows, n_cols, len(_FIELD))
    neg = (bits >> _U64(63)).astype(np.int64)
    code = ((np.clip(decpt, -3, 16) + 3) * 17 + (16 - zeros)) * 2 + neg
    # Every code is in range; mode="clip" spares take a buffered copy.
    np.take(_TEMPLATES, code.reshape(n_rows, n_cols), axis=0, out=fields, mode="clip")
    # A digit slot that the template drops holds one of f's trailing zeros,
    # so it stays 0.
    fields[:, :, _DIGITS] += digits.T.reshape(n_rows, n_cols, 17)

    other = np.flatnonzero(~(ok & (decpt > -4) & (decpt <= 16)))
    if other.size:
        row, col = np.divmod(other, n_cols)
        fields[row, col, :-1] = 0
        text = np.array([repr(v) for v in x[other].tolist()], dtype="S24")
        fields[row, col, :24] = text.view(np.uint8).reshape(-1, 24)
    out[:, -3] = labels + ord("0")
    out[:, -2:] = (13, 10)
    return out.tobytes().translate(None, b"\0")
