"""Python's repr of many finite doubles at once, in numpy.

The shortest digits that read back to each double come from Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020) on uint64
arrays, laid out by repr's rules byte for byte.  Unlike Java, repr may
print one digit (`5e-324`), so the one-digit-shorter candidates are tried
for every value.  Digits stay uint64: numpy makes uint64 with int64 float64.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["repr_lines"]

_U = np.uint64
_K_MIN, _K_MAX = -324, 292  # decimal exponents of the Schubfach grid
_M32 = _U(0xFFFF_FFFF)
_M63 = _U((1 << 63) - 1)
_ONES = _U(0x0101_0101_0101_0101)
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_WORDS = 6


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per k - _K_MIN, g >> 63 and g mod 2^63 for g = floor(10^-k / 2^r) + 1 in [2^125, 2^126);
    per x + 324, the bytes of repr's exponent suffix for 10^x ("e-05", "e+308")."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = ((-k * 913_124_641_741) >> 38) - 125  # floor(log2 10^-k) - 125
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        g.append((num << max(-r, 0)) // (den << max(r, 0)) + 1)
    high = np.array([x >> 63 for x in g], np.uint64)
    low = np.array([x & ((1 << 63) - 1) for x in g], np.uint64)
    suffix = [int.from_bytes(f"e{x:+03d}".encode(), "little") for x in range(-324, 309)]
    return high, low, np.array(suffix, np.uint64)


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a b, through 32-bit limbs."""
    a1, a0, b1, b0 = a >> _U(32), a & _M32, b >> _U(32), b & _M32
    x = a1 * b0 + ((a0 * b0) >> _U(32))
    y = a0 * b1 + (x & _M32)
    return a1 * b1 + (x >> _U(32)) + (y >> _U(32))


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """cp g / 2^127 rounded to odd, for g = g1 2^63 + g0."""
    z = ((g1 * cp) >> _U(1)) + _mulhi(g0, cp)
    return (_mulhi(g1, cp) + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest decimal d 10^k reading back to each positive double: the closest, then even."""
    t = bits & _U((1 << 52) - 1)
    bq = (bits >> _U(52)).astype(np.int64)
    c = np.where(bq > 0, t | _U(1 << 52), t)
    q = np.maximum(bq, 1) - 1075  # the value is c 2^q
    # Where c = 2^52 above the smallest binade, the gap below is half the gap above.
    irregular = (t == 0) & (bq > 1)
    k = (q * 661_971_961_083 - np.where(irregular, 274_743_187_321, 0)) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    g1, g0 = (table[k - _K_MIN] for table in _tables()[:2])
    cb = c << _U(2)
    vb = _rop(g1, g0, cb << h)
    vbl = _rop(g1, g0, (cb - np.where(irregular, _U(1), _U(2))) << h)
    vbr = _rop(g1, g0, (cb + _U(2)) << h)
    out = c & _U(1)  # an odd c leaves out the ends of the rounding interval
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    tp10 = sp10 + _U(10)
    upin = vbl + out <= sp10 << _U(2)
    wpin = (tp10 << _U(2)) + out <= vbr
    t = s + _U(1)
    uin = vbl + out <= s << _U(2)
    win = (t << _U(2)) + out <= vbr
    mid = (s + t) << _U(1)
    take_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & _U(1)) == 0)))
    d = np.where(upin != wpin, np.where(upin, sp10, tp10), np.where(take_s, s, t))
    return d, k


def _swar8(x: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each x < 10^8 as the bytes of a word, the first lowest."""
    hi = x // _U(10_000)
    x = hi | ((x - hi * _U(10_000)) << _U(32))  # two 4-digit halves in 32-bit lanes
    hi = (x * _U(10_486)) >> _U(20) & _U(0x0000_007F_0000_007F)  # lane // 100
    x = hi | ((x - hi * _U(100)) << _U(16))
    hi = (x * _U(103)) >> _U(10) & _U(0x000F_000F_000F_000F)  # lane // 10
    return hi | ((x - hi * _U(10)) << _U(8))


def _kept(digits: np.ndarray) -> np.ndarray:
    """1 in each byte of a word of digits up to its last nonzero digit, else 0."""
    kept = ((digits + _ONES * _U(0x7F)) >> _U(7)) & _ONES  # 1 in each nonzero byte
    for shift in (8, 16, 32):
        kept |= kept >> _U(shift)
    return kept


@functools.cache
def _layouts() -> np.ndarray:
    """The masks, then the constant bytes, of the _WORDS words of a field per layout key.

    Key point + 3 is fixed notation, the point `point` digits in (-3..16); keys 20 and 21
    are exponent notation without and with digits after the first.  Byte 0 is the sign,
    byte 6 digit 0, and digit j = 1..16 is byte 7 + j before the point, 23 + j after it.
    """
    masks, consts = [], []
    for point, dot in [(p, p >= 1) for p in range(-3, 17)] + [(None, False), (None, True)]:
        mask, const = bytearray(8 * _WORDS), bytearray(8 * _WORDS)
        whole = 1 if point is None else max(point, 1)
        mask[0] = mask[6] = 0xFF
        mask[8 : 7 + whole] = b"\xff" * (whole - 1)
        mask[23 + whole : 40] = b"\xff" * (17 - whole)
        if point is None:
            mask[40:] = b"\xff" * 8
        elif point <= 0:
            const[1 : 3 - point] = b"0." + b"0" * -point
        else:
            const[23 + point] = ord("0")  # ".0" when _fields zeroed the trailing zeros
        const[7 if point is None or point == 1 else 23] = ord(".") if dot else 0
        masks.append(mask)
        consts.append(const)
    return np.frombuffer(b"".join(masks + consts), np.uint64).reshape(2, -1, _WORDS)


def _fields(values: np.ndarray) -> np.ndarray:
    """repr of each value in the _WORDS words of _layouts, with 0 bytes unused and byte 45 free."""
    bits = values.view(np.uint64)
    zero = (bits & _M63) == 0
    d, k = _shortest(bits & _M63)
    d[zero] = 0
    n = np.searchsorted(_POW10, d, side="right")  # digits in d
    d = d * _POW10[17 - n]
    first = d // _POW10[16]
    d -= first * _POW10[16]
    hi = d // _POW10[8]
    digits1, digits2 = _swar8(hi), _swar8(d - hi * _POW10[8])
    point = np.where(zero, 1, k + n)  # the value is 0.<digits> 10^point
    sci = (point < -3) | (point > 16)
    key = np.where(sci, 20 + ((digits1 | digits2) > 0), point + 3)
    out = np.zeros((len(values), _WORDS), np.uint64)
    out[:, 0] = ((bits >> _U(63)) * _U(ord("-"))) | ((first + _U(48)) << _U(48))
    out[:, 1] = digits1 + _ONES * _U(48)
    out[:, 2] = digits2 + _ONES * _U(48)
    out[:, 3] = digits1 + np.where(digits2 > 0, _ONES, _kept(digits1)) * _U(48)
    out[:, 4] = digits2 + _kept(digits2) * _U(48)
    out[sci, 5] = _tables()[2][point[sci] - 1 + 324]
    masks, consts = _layouts()
    out &= np.take(masks, key, axis=0)  # np.take: a fancy index gathers rows far slower
    out |= np.take(consts, key, axis=0)
    return out


def repr_lines(columns) -> str:
    """A line per row of the repr of each column's value, separated by spaces.

    The columns are equal-length float64 arrays of finite values.  Equal
    neighbours (equal bits: -0.0 and 0.0 differ) are formatted once.
    """
    index, distinct = [], []
    for column in columns:
        bits = column.view(np.uint64)
        start = np.ones(len(column), dtype=bool)
        np.not_equal(bits[1:], bits[:-1], out=start[1:])
        index.append(np.cumsum(start) - 1 + sum(map(len, distinct)))
        distinct.append(column[start])
    table = np.take(_fields(np.concatenate(distinct)), np.stack(index, axis=1), axis=0)
    text = table.view(np.uint8).reshape(len(index[0]), len(index), 8 * _WORDS)
    text[:, :, 45] = ord(" ")
    text[:, -1, 45] = ord("\n")
    return text.tobytes().translate(None, b"\0").decode("ascii")
