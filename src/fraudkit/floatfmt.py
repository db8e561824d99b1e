"""CSV rows of float64 features and 0/1 labels, byte-identical to repr.

repr(x) prints the shortest decimal that reads back as x, the closer one
when two are that short (the even one on a tie). It is positional where
its decimal point position decpt (x = 0.d1d2... * 10**decpt) has
-4 < decpt <= 16, that is for 0.0001 <= |x| < 1e16, and in exponent
form elsewhere. RowFormatter finds the positional values' digits for a
whole block at once with Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020; the algorithm behind OpenJDK's Double.toString),
whose only arithmetic is integer products against powers of ten. Those
products and their digits are computed on uint64 and uint32 arrays alone,
so no numpy promotion rule turns one into a float. Subnormals and
exponent forms, rare in data, go through repr itself.

A RowFormatter allocates every array a block needs once, for its largest
block. Each block, a short last one included, computes into leading
views of them and lays its text out in a reused buffer, so after the
first block formatting allocates no array or bytes object and touches
no page it has not touched before.
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


# A positional field is [-]0.[000]ddd, where decpt <= 0, or [-]ddd.ddd
# (ddd00.0 where decpt >= n), then a comma, for f's first n digits ddd.
# Its code is ((decpt + 3) * 17 + n - 1) * 2 + neg, and the tables below
# give, for each code, its length with the comma and the offsets of its
# '-', its '.' and each of f's 17 digits. Every other byte is a '0'. An
# absent '-' and the digits past n point at the comma, written after
# them. _REPR is the code of a field that repr writes: its offsets are 0,
# where repr's text is written after them.
def _layout(decpt, n, neg):
    if decpt <= 0:
        digits = [neg + 2 - decpt + j for j in range(n)]
        point, length = neg + 1, neg + 3 - decpt + n
    else:
        digits = [neg + j + (j >= decpt) for j in range(n)]
        point, length = neg + decpt, neg + max(n, decpt + 1) + 2
    comma = length - 1
    return [length, 0 if neg else comma, point, *digits, *[comma] * (17 - n)]


_LAYOUTS = np.array(
    [_layout(decpt, n, neg) for decpt in range(-3, 17) for n in range(1, 18) for neg in (0, 1)]
    + [[0] * 20],
    dtype=np.uint8,
).T
_REPR = _LAYOUTS.shape[1] - 1
_LENGTH, _MINUS_AT, _POINT_AT, _DIGIT_AT = _LAYOUTS[0], _LAYOUTS[1], _LAYOUTS[2], _LAYOUTS[3:]
# The longest field: a 24-character repr and its comma.
_WIDEST = 25


def _mulhi(a_hi, a_lo, b_hi, b_lo, out, scratch):
    """out = the high 64 bits of the 128-bit products a * b, from 32-bit
    limbs. a_lo, b_hi, b_lo and scratch are overwritten."""
    np.multiply(a_hi, b_hi, out=out)
    cross1 = np.multiply(a_hi, b_lo, out=scratch)
    mid = b_lo
    mid *= a_lo
    cross2 = a_lo
    cross2 *= b_hi
    mid >>= _U64(32)
    mid += np.bitwise_and(cross1, _LOW32, out=b_hi)
    mid += np.bitwise_and(cross2, _LOW32, out=b_hi)
    for part in (cross1, cross2, mid):
        part >>= _U64(32)
        out += part


def _rop(hi, lo, h, down, out, scratch, flag):
    """out = Schubfach's (hi << h) | (lo >> down) | ((lo << h) > 1), the
    high word hi:lo << h rounded to odd. out may be hi."""
    np.left_shift(hi, h, out=out)
    out |= np.right_shift(lo, down, out=scratch)
    out |= np.greater(np.left_shift(lo, h, out=scratch), _U64(1), out=flag)


class RowFormatter:
    """The arrays that format blocks of up to rows rows of cols values."""

    def __init__(self, rows, cols):
        n = rows * cols
        self.cols = cols
        self._u64 = np.empty((8, n), dtype=_U64)
        self._i64 = np.empty((3, n), dtype=np.int64)
        self._u32 = np.empty((3, n), dtype=np.uint32)
        self._flags = np.empty((7, n), dtype=bool)
        self._digits = np.empty((17, n), dtype=np.uint8)
        self._offsets = np.empty(n, dtype=np.uint8)
        # Each row's fields, then its label and CRLF as one 3-byte field.
        self._lengths = np.empty((rows, cols + 1), dtype=np.intp)
        self._ends = np.empty((rows, cols + 1), dtype=np.intp)
        self._trailers = np.empty(rows, dtype=np.intp)
        self._labels = np.empty(rows, dtype=np.uint8)
        self._text = np.empty(rows * (cols * _WIDEST + 3), dtype=np.uint8)

    def format(self, features, labels):
        """The CSV bytes of features' rows, each followed by its 0/1 label
        and CRLF, every value as repr writes it and comma-separated: a
        memoryview of this formatter's buffer, valid until its next call."""
        n = features.size
        x = np.ascontiguousarray(features).reshape(-1)
        bits = x.view(_U64)
        u, i, flags = self._u64[:, :n], self._i64[:, :n], self._flags[:, :n]
        vb, vbl, vbr, k, ok = _interval(bits, u, i, flags)
        f, decpt = _shortest(bits, vb, vbl, vbr, k, ok, u, flags)
        digits, part, rest, digit = self._digits[:, :n], *self._u32[:, :n]
        last = _digits(f, digits, part, rest, digit, u, i[2], flags)
        return self._lay_out(x, labels, digits, last, decpt, ok, i[0], flags)

    def _lay_out(self, x, labels, digits, last, decpt, ok, code, flags):
        """The rows' text: each field's length from its code, then, at the
        offsets its code gives, every byte a '0', then f's digits, the '-'
        and '.', repr's text and the commas, then each row's label and
        CRLF."""
        rows, cols = len(labels), self.cols
        neg, positional, flag = flags[1:4]
        np.clip(decpt, -3, 16, out=code)
        code += 3
        code *= 17
        code += last
        code *= 2
        code += np.signbit(x, out=neg)
        np.greater(decpt, -4, out=positional)
        positional &= np.less_equal(decpt, 16, out=flag)
        positional &= ok
        others = np.flatnonzero(np.logical_not(positional, out=flag))
        code[others] = _REPR
        other_rows, other_cols = np.divmod(others, max(cols, 1))
        texts = [repr(v).encode() for v in x[others].tolist()]

        # decpt's and last's places are free once the codes are known.
        offset, pos, field_start = self._offsets[: rows * cols], decpt, last
        lengths, ends = self._lengths[:rows], self._ends[:rows]
        np.take(_LENGTH, code, out=offset, mode="clip")
        np.copyto(lengths[:, :cols], offset.reshape(rows, cols))
        lengths[:, cols] = 3
        lengths[other_rows, other_cols] = [len(t) + 1 for t in texts]
        np.cumsum(lengths.reshape(-1), out=ends.reshape(-1))
        starts = np.subtract(ends, lengths, out=lengths)
        text = self._text[: ends[-1, -1] if rows else 0]
        text.fill(ord("0"))

        np.copyto(field_start.reshape(rows, cols), starts[:, :cols])
        for at, byte in [*zip(_DIGIT_AT, digits), (_MINUS_AT, ord("-")), (_POINT_AT, ord("."))]:
            np.add(field_start, np.take(at, code, out=offset, mode="clip"), out=pos)
            text[pos] = byte
        for start, t in zip(starts[other_rows, other_cols].tolist(), texts):
            text[start : start + len(t)] = np.frombuffer(t, dtype=np.uint8)
        np.subtract(ends[:, :cols], 1, out=pos.reshape(rows, cols))
        text[pos] = ord(",")

        trailer, label = self._trailers[:rows], self._labels[:rows]
        np.copyto(trailer, starts[:, cols])
        np.copyto(label, labels, casting="unsafe")
        label += np.uint8(ord("0"))
        text[trailer] = label
        for byte in b"\r\n":
            trailer += 1
            text[trailer] = byte
        return text.data


def _digits(f, digits, part, rest, digit, u, last, flags):
    """Put f's 17 digits in digits' rows, as ASCII, and give last, the
    index of f's last nonzero digit (0 for a zero). part, rest and digit
    are uint32 scratch."""
    trailing, is_zero = flags[1:3]
    trailing.fill(True)
    last.fill(16)
    f_hi = np.floor_divide(f, _U64(10**9), out=u[1])
    f_lo = np.multiply(f_hi, _U64(10**9), out=u[3])
    np.subtract(f, f_lo, out=f_lo)
    for half, rows in ((f_lo, range(16, 7, -1)), (f_hi, range(7, -1, -1))):
        np.copyto(part, half, casting="unsafe")
        for j in rows:
            np.floor_divide(part, np.uint32(10), out=rest)
            np.subtract(part, np.multiply(rest, np.uint32(10), out=digit), out=digit)
            np.copyto(digits[j], digit, casting="unsafe")
            if j:
                trailing &= np.equal(digit, np.uint32(0), out=is_zero)
                last -= trailing
            part, rest = rest, part
    digits += np.uint8(ord("0"))
    return last


def _interval(bits, u, i, flags):
    """(vb, vbl, vbr, k, ok) for doubles given as their bits, where ok:
    Schubfach's value v * 10**-k and the ends of its rounding interval,
    each times 4 and rounded to odd; ok holds for every positional value
    and a few that are not. u, i and flags are scratch rows of uint64,
    int64 and bool; the results are rows of them."""
    q, k, index = i
    ok, flag = flags[:2]
    exp = np.right_shift(bits, _U64(52), out=u[0])
    exp &= _U64(0x7FF)
    np.subtract(exp.view(np.int64), 1075, out=q)
    np.right_shift(np.multiply(q, 661971961083, out=k), 41, out=k)
    np.not_equal(exp, _U64(0), out=ok)
    ok &= np.greater_equal(k, _K_MIN, out=flag)
    ok &= np.less_equal(k, 0, out=flag)
    # h = q + ((-k * 913124641741) >> 38) + 2, in q's place.
    q += np.right_shift(np.multiply(k, -913124641741, out=index), 38, out=index)
    q += 2
    h = q.view(_U64)
    # mode="clip" keeps the index of a value that is not ok in range, and
    # spares take a buffered copy.
    np.subtract(k, _K_MIN, out=index)
    g1 = np.take(_G1, index, out=u[1], mode="clip")
    g1_hi = np.take(_G1_HI, index, out=u[2], mode="clip")
    g1_lo = np.take(_G1_LO, index, out=u[3], mode="clip")
    # Schubfach's rop(g, cb << h) for g = g1 * 2**63 + 1: the high word
    # of g1 * cb * 2**h, rounded to odd, where cb is 4 c and c the
    # significand. The three values share the product g1 * cb = hi *
    # 2**64 + lo, held exactly.
    cb = np.bitwise_and(bits, _U64(2**52 - 1), out=u[4])
    cb |= _U64(2**52)
    cb <<= _U64(2)
    cb_hi = np.right_shift(cb, _U64(32), out=u[5])
    cb_lo = np.bitwise_and(cb, _LOW32, out=u[6])
    hi = u[7]
    _mulhi(g1_hi, g1_lo, cb_hi, cb_lo, out=hi, scratch=u[0])
    lo = cb
    lo *= g1
    down = np.subtract(_U64(64), h, out=u[0])
    vb = u[2]
    _rop(hi, lo, h, down, out=vb, scratch=u[3], flag=flag)

    # The rounding interval [vbl, vbr] around vb, for cb -+ 2. Two of
    # Schubfach's refinements change no positional value's digits, so
    # they are left out. The interval is open where c is odd, but its ends
    # have more digits than the candidates below, save above 2**53, where
    # the value itself is the nearer candidate. Below a power of two (c =
    # 2**52) the next double is half as far away, but every power of two
    # from 2**-13 to 2**53 has the same shortest digits either way.
    two_g1 = g1
    two_g1 <<= _U64(1)
    vbl = np.subtract(hi, np.less(lo, two_g1, out=flag), out=u[5])  # less lo - two_g1's borrow
    _rop(vbl, np.subtract(lo, two_g1, out=u[6]), h, down, out=vbl, scratch=u[3], flag=flag)
    vbr = hi
    lo += two_g1
    vbr += np.less(lo, two_g1, out=flag)  # lo + two_g1's carry
    _rop(vbr, lo, h, down, out=vbr, scratch=u[3], flag=flag)
    return vb, vbl, vbr, k, ok


def _shortest(bits, vb, vbl, vbr, k, ok, u, flags):
    """(f, decpt) for doubles given as their bits: where ok, f is the
    shortest round-trip decimal's digits as a 17-digit integer (zeros
    appended; 0 for a zero), and the value is 0.f * 10**decpt. decpt
    takes k's place. ok is widened to the zeros, and then holds for every
    positional value and a few that are not."""
    upin, wpin, uin, win, closer_s, differ = flags[1:]
    # One digit shorter, s' 10**(k+1) or t' 10**(k+1), if just one is in
    # the interval; else s 10**k or t 10**k, if just one is; else the
    # closer, the even one on a tie.
    s = np.right_shift(vb, _U64(2), out=u[0])
    sp = np.floor_divide(s, _U64(10), out=u[1])
    sp *= _U64(10)
    tp = np.add(sp, _U64(10), out=u[3])
    np.less_equal(vbl, np.left_shift(sp, _U64(2), out=u[4]), out=upin)
    np.less_equal(np.left_shift(tp, _U64(2), out=u[4]), vbr, out=wpin)
    four_s = np.left_shift(s, _U64(2), out=u[4])
    np.less_equal(vbl, four_s, out=uin)
    four_t = np.add(s, _U64(1), out=u[6])
    four_t <<= _U64(2)
    np.less_equal(four_t, vbr, out=win)
    # closer_s = vb + (s & 1) <= 4 s + 2
    vb_s = np.bitwise_and(s, _U64(1), out=u[6])
    vb_s += vb
    four_s += _U64(2)
    np.less_equal(vb_s, four_s, out=closer_s)
    # pick_s: uin where uin != win, else closer_s; t = s + 1 unless pick_s.
    np.not_equal(uin, win, out=differ)
    uin &= differ
    closer_s &= np.logical_not(differ, out=win)
    pick_s = np.logical_or(uin, closer_s, out=uin)
    t = s
    t += np.logical_not(pick_s, out=win)
    # d: the shorter candidate (s' where upin, else t') where upin != wpin,
    # else t.
    shorter = sp
    shorter += np.multiply(np.logical_not(upin, out=win), _U64(10), out=u[4])
    shorter -= t
    shorter *= np.not_equal(upin, wpin, out=differ)
    d = t
    d += shorter
    # d has 16 or 17 digits; f is 0 for a zero.
    short = np.less(d, _U64(10**16), out=upin)
    nonzero = np.not_equal(np.left_shift(bits, _U64(1), out=u[1]), _U64(0), out=wpin)
    f = d
    ten_or_one = np.multiply(short, _U64(9), out=u[1])
    ten_or_one += _U64(1)
    f *= ten_or_one
    f *= nonzero
    decpt = k
    decpt += 17
    decpt -= short
    decpt *= nonzero
    ok |= np.logical_not(nonzero, out=differ)
    return f, decpt
