"""Exact floor division and integer square root in subquadratic time.

CPython 3.11 divides ints in schoolbook, quadratic time, and math.isqrt ends
in one such division.  Burnikel & Ziegler's recursive division ("Fast
Recursive Division", MPI-I-98-1-022, 1998) splits a 2n-by-n division into two
3n/2-by-n ones, each one n/2-wide division and one product, so a division
costs a small multiple of one of CPython's Karatsuba products.  _div2n1n and _div3n2n follow CPython
3.12's Lib/_pylong.py, where the same recursion backs int division.  Both
functions here give exactly the builtin's results.
"""

from __future__ import annotations

# Below this many bits of divisor, or of quotient, the builtin divmod is faster
# than the recursion (the cutoff of Lib/_pylong.py).
_DIV_LIMIT = 4000


def floor_divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for a >= 0 and b > 0.

    A dividend wider than 2^n b, n the bit length of b, splits at s bits:
    floor(a / 2^s) = q1 b + r1 gives a = q1 b 2^s + (r1 2^s + a mod 2^s), the
    second part below b 2^s, so q = q1 2^s + floor((r1 2^s + a mod 2^s) / b).
    s halves the excess width, so both parts are narrower than a.
    """
    if a < 0 or b <= 0:
        raise ValueError("floor_divmod needs a >= 0 and b > 0")
    n = b.bit_length()
    if n <= _DIV_LIMIT or a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    if a < b << n:
        return _div2n1n(a, b, n)
    s = (a.bit_length() - n) // 2
    q1, r = floor_divmod(a >> s, b)
    q2, r = floor_divmod(r << s | a & (1 << s) - 1, b)
    return q1 << s | q2, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < 2^n b."""
    if a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    pad = n & 1
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, a >> half & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    return q1 << half | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    """divmod(a12 2^n + a3, b) for b = b1 2^n + b2 of 2n bits, a3 < 2^n and
    a12 < b: the quotient of a12 by b1, at most 2^n - 1, overshoots the true
    one by at most 2, and each correction adds b back."""
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def isqrt(n: int) -> int:
    """math.isqrt(n): its Newton recurrence on the top bits, doubling the
    precision at each step, with each division through floor_divmod.  The
    last iterate a satisfies (a - 1)^2 < n < (a + 1)^2, so one step down
    corrects it."""
    if n < 0:
        raise ValueError("isqrt needs n >= 0")
    if n == 0:
        return 0
    c = (n.bit_length() - 1) // 2
    a, d = 1, 0
    for s in reversed(range(c.bit_length())):
        # invariant: (a - 1)^2 < n >> 2 (c - d) < (a + 1)^2
        e, d = d, c >> s
        a = (a << d - e - 1) + floor_divmod(n >> 2 * c - e - d + 1, a)[0]
    return a - (a * a > n)
