import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from scorecraft.floatrepr import repr_lines

BLOCK = 1 << 14
MIN_NORMAL = 2.2250738585072014e-308
MAX_FINITE = 1.7976931348623157e308


def assert_reprs(values):
    """repr_lines writes each value as Python's repr, one per line."""
    values = np.asarray(values, dtype=np.float64)
    for a in range(0, len(values), BLOCK):
        block = values[a : a + BLOCK]
        got = repr_lines([block]).split("\n")
        want = list(map(repr, block.tolist())) + [""]
        if got != want:
            wrong = [(w, g) for w, g in zip(want, got) if w != g]
            pytest.fail(f"{len(wrong)} of {len(block)} differ from repr, first {wrong[:5]}")


def with_neighbours(values):
    """Positive values, the doubles one ulp below and above them, and their negatives."""
    bits = np.asarray(values, dtype=np.float64).view(np.uint64)
    bits = np.concatenate([bits, bits - np.uint64(1), bits + np.uint64(1)])
    both = bits[bits < 0x7FF0_0000_0000_0000].view(np.float64)  # finite
    return np.concatenate([both, -both])


def finite_patterns(rng, n, top=0x7FF0_0000_0000_0000):
    """n random bit patterns below `top` (finite magnitudes), half of them negative."""
    bits = rng.integers(0, top, size=n, dtype=np.uint64)
    bits[::2] |= np.uint64(1 << 63)
    return bits.view(np.float64)


def test_random_bit_patterns_match_repr():
    assert_reprs(finite_patterns(np.random.default_rng(20241019), 1_000_000))


def test_powers_of_two_and_their_neighbours_match_repr():
    assert_reprs(with_neighbours(2.0 ** np.arange(-1074, 1024)))


def test_subnormals_match_repr():
    smallest = np.arange(1, 20_001, dtype=np.uint64).view(np.float64)
    assert_reprs(np.concatenate([smallest, -smallest]))
    assert_reprs(finite_patterns(np.random.default_rng(7), 100_000, top=1 << 52))


def test_notation_boundaries_and_zeros_match_repr():
    # Python switches to exponent notation below 1e-4 and from 1e16 on.
    edges = [1e-4, 1e-5, 1e16, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, MIN_NORMAL, MAX_FINITE]
    assert_reprs(with_neighbours(edges))
    assert_reprs([0.0, -0.0, 5e-324, -5e-324, 1.0, 100.0, 0.1, 1e22, 123.456])
    assert repr_lines([np.array([0.0, -0.0])]) == "0.0\n-0.0\n"


def test_columns_join_into_lines():
    a = np.array([-1.5, 0.0, 2.0, 2.0])
    b = np.array([1e-5, 1e-5, 0.25, 1.0])
    assert repr_lines([a, b, b]) == (
        "-1.5 1e-05 1e-05\n0.0 1e-05 1e-05\n2.0 0.25 0.25\n2.0 1.0 1.0\n"
    )


def schubfach_choice(v):
    """Which of the five candidates Schubfach takes for v > 0, and its value, exactly.

    The decimals d 10^k are on the grid 10^k just finer than the gap
    between doubles; s 10^k <= v < t 10^k with t = s + 1, and sp/tp are the
    multiples of 10 around s (the one-digit-shorter candidates).  The
    rounding interval keeps its ends when the significand c is even.
    """
    frac, exponent = math.frexp(v)
    c, q = int(frac * 2**53), exponent - 53
    if q < -1074:  # subnormal
        c, q = c >> (-1074 - q), -1074
    irregular = c == 2**52 and q > -1074
    below = Fraction(2) ** q / (4 if irregular else 2)
    above = Fraction(2) ** q / 2
    value = Fraction(c) * Fraction(2) ** q
    k = math.floor(math.log10(float(below + above)))
    while Fraction(10) ** k > below + above:
        k -= 1
    while Fraction(10) ** (k + 1) <= below + above:
        k += 1
    unit = Fraction(10) ** k
    s = math.floor(value / unit)
    sp, tp = s // 10 * 10, s // 10 * 10 + 10

    def inside(d):
        x = d * unit
        if c % 2 == 0:
            return value - below <= x <= value + above
        return value - below < x < value + above

    if inside(sp) != inside(tp):
        return ("shorter-down", sp * unit) if inside(sp) else ("shorter-up", tp * unit)
    if inside(s) != inside(s + 1):
        return ("s", s * unit) if inside(s) else ("t", (s + 1) * unit)
    gap = 2 * value - (2 * s + 1) * unit
    if gap == 0:
        return "even tie", (s if s % 2 == 0 else s + 1) * unit
    return ("s", s * unit) if gap < 0 else ("t", (s + 1) * unit)


def test_inputs_reach_every_digit_choice():
    # The powers of two and their neighbours take all five candidates:
    # one digit shorter below or above, s, t, and a tie broken to even.
    values = with_neighbours(2.0 ** np.arange(-1074, 1024))
    values = values[values > 0]
    seen = Counter()
    for v, text in zip(values.tolist(), repr_lines([values]).split("\n")):
        choice, decimal = schubfach_choice(v)
        assert Fraction(text) == decimal, (v, text, choice)
        seen[choice] += 1
    assert set(seen) == {"shorter-down", "shorter-up", "s", "t", "even tie"}, seen
