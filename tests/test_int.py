"""floor_divmod and isqrt against the builtins, on both sides of the
recursion's cutoff: every quotient, remainder and root is the builtin's."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilab import _int
from pilab._int import _DIV_LIMIT, floor_divmod, isqrt


def _ints(max_bits: int):
    """Ints of a drawn bit length from 0 to max_bits, the rest of the bits drawn by seed."""
    return st.builds(lambda bits, seed: random.Random(seed).getrandbits(bits) | 1 << bits >> 1,
                     st.integers(0, max_bits), st.integers(0, 2**32))


# divisors from one bit to six cutoffs wide, powers of two among them
_DIVISORS = st.one_of(_ints(6 * _DIV_LIMIT).filter(bool), st.builds(lambda k: 1 << k, st.integers(0, 6 * _DIV_LIMIT)))


def _dividend(q: int, b: int, shape: str, seed: int) -> int:
    """q b plus a remainder of the given shape: none, b - 1, a drawn one, or
    one less than q b (q b - 1 < b when q is 0 or 1)."""
    if shape == "minus_one":
        return max(q * b - 1, 0)
    return q * b + {"exact": 0, "last": b - 1, "drawn": random.Random(seed).randrange(b)}[shape]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(b=_DIVISORS, q=_ints(5 * _DIV_LIMIT), shape=st.sampled_from(["exact", "last", "drawn", "minus_one"]),
       seed=st.integers(0, 2**32))
def test_floor_divmod_matches_divmod(b, q, shape, seed):
    a = _dividend(q, b, shape, seed)
    assert floor_divmod(a, b) == divmod(a, b)


@pytest.mark.parametrize("b_bits, q_bits", [(100, 100), (3 * _DIV_LIMIT, 0), (_DIV_LIMIT + 1, _DIV_LIMIT + 1),
                                            (3 * _DIV_LIMIT, 3 * _DIV_LIMIT), (3 * _DIV_LIMIT + 1, _DIV_LIMIT // 2),
                                            (2 * _DIV_LIMIT, 20 * _DIV_LIMIT)])
@pytest.mark.parametrize("shape", ["exact", "last", "drawn", "minus_one"])
def test_floor_divmod_recursion_at_fixed_widths(b_bits, q_bits, shape):
    # the recursion runs where both the divisor and the quotient pass the cutoff;
    # a quotient of 0 bits leaves a below b
    draw = random.Random(b_bits * q_bits)
    for _ in range(5):
        b = draw.getrandbits(b_bits) | 1 << b_bits - 1
        a = _dividend(draw.getrandbits(q_bits), b, shape, draw.getrandbits(32))
        assert floor_divmod(a, b) == divmod(a, b)


@pytest.mark.parametrize("a, b", [(-1, 3), (3, -1), (5, 0), (0, 0),
                                  (-(1 << 9000), 1 << 5000), (1 << 9000, -(1 << 5000))])
def test_floor_divmod_refuses_negative_or_zero(a, b):
    with pytest.raises(ValueError):
        floor_divmod(a, b)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(r=_ints(4 * _DIV_LIMIT), shape=st.sampled_from(["square", "square_minus_one", "square_plus_2r", "drawn"]),
       seed=st.integers(0, 2**32))
def test_isqrt_matches_math_isqrt(r, shape, seed):
    # r^2 + 2r is the widest n with root r
    n = {"square": r * r, "square_minus_one": max(r * r - 1, 0), "square_plus_2r": r * r + 2 * r,
         "drawn": random.Random(seed).getrandbits(2 * r.bit_length())}[shape]
    assert isqrt(n) == math.isqrt(n)


@pytest.mark.parametrize("bits", [1, 64, 2 * _DIV_LIMIT + 1, 8 * _DIV_LIMIT, 8 * _DIV_LIMIT + 1])
def test_isqrt_of_squares_and_their_neighbours(bits):
    r = random.Random(bits).getrandbits(bits) | 1 << bits - 1
    assert [isqrt(n) for n in (r * r - 1, r * r, r * r + 2 * r, r * r + 2 * r + 1)] == [r - 1, r, r, r + 1]


def test_isqrt_of_zero_and_one_and_negative():
    assert (isqrt(0), isqrt(1)) == (0, 1)
    with pytest.raises(ValueError):
        isqrt(-1)
    with pytest.raises(ValueError):
        isqrt(-(1 << 9000))


def _saturating_operands(draws: int):
    """(a, b) with b of n bits, n from 4100 to 20 000, and a = b 2^n - 1,
    b 2^n - b or b 2^n - small: the top n bits of a are b - 1, so a quotient
    digit of the recursion meets its divisor's top half and saturates."""
    draw = random.Random(29)
    for _ in range(draws):
        n = draw.randrange(4100, 20001)
        b = draw.getrandbits(n) | 1 << n - 1
        for x in (1, b, draw.randrange(2, 1 << 16)):
            yield (b << n) - x, b


def test_floor_divmod_through_the_saturated_quotient_digit(monkeypatch):
    reached = []
    div3n2n = _int._div3n2n

    def spy(a12, a3, b, b1, b2, n):
        reached[-1] |= a12 >> n == b1
        return div3n2n(a12, a3, b, b1, b2, n)

    monkeypatch.setattr(_int, "_div3n2n", spy)
    for a, b in _saturating_operands(20):
        reached.append(False)
        assert floor_divmod(a, b) == divmod(a, b)
    assert sum(reached) / len(reached) > 0.9


def test_div3n2n_corrects_each_quotient_digit_at_most_twice(monkeypatch):
    # the first estimate, a12 // b1 capped at 2^n - 1, is never below the
    # digit, and above it by at most 2; odd widths take _div2n1n's pad
    corrections = []
    div3n2n = _int._div3n2n

    def counting(a12, a3, b, b1, b2, n):
        q, r = div3n2n(a12, a3, b, b1, b2, n)
        corrections.append(min(a12 // b1, (1 << n) - 1) - q)
        return q, r

    monkeypatch.setattr(_int, "_div3n2n", counting)
    draw = random.Random(30)
    operands = list(_saturating_operands(5))
    for b_bits in (2 * _DIV_LIMIT + 1, 3 * _DIV_LIMIT - 1, 4 * _DIV_LIMIT, 5 * _DIV_LIMIT + 3):
        b = draw.getrandbits(b_bits) | 1 << b_bits - 1
        operands += [(draw.randrange(b << b_bits), b) for _ in range(3)]
    for a, b in operands:
        assert floor_divmod(a, b) == divmod(a, b)
    assert corrections and 0 <= min(corrections) and max(corrections) <= 2
