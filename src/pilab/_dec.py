"""Exact integer arithmetic on stdlib ``decimal``, and exact rationals
N / (d 10^e) built on it.

CPython 3.11 converts int to text and text to int in quadratic time; libmpdec
does both in linear time, and multiplies by number-theoretic transform.
Values are built from digit text or from small ints, never converted from a
full-width int by Decimal() (that conversion is quadratic too: 25.6 s at 10^6
digits); decimal_from_int splits such an int first.
"""

from __future__ import annotations

import decimal
import functools
import math
from decimal import Decimal
from fractions import Fraction

_ONE = Decimal(1)
_TRAPS = [decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow]


def exact_context(digits: int) -> decimal.Context:
    """A context for integer results of at most ``digits`` digits.

    ``Inexact`` and ``Rounded`` are trapped, so a result that does not fit
    raises instead of rounding; so does an integer division whose quotient
    does not fit.
    """
    return decimal.Context(prec=digits, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX, traps=_TRAPS)


@functools.lru_cache(maxsize=None)
def _power_of_two_context(bits: int) -> decimal.Context:
    return exact_context(1 << bits)


def context_for(digits: int) -> decimal.Context:
    """A shared exact context of at least ``digits`` digits (the next power of two)."""
    return _power_of_two_context(max(digits, 1).bit_length())


def decimal_from_int(n: int, leaf_bits: int) -> Decimal:
    """An int n >= 0 as an integer-valued Decimal with exponent 0, exactly.

    Past ``leaf_bits`` bits, n is split on 2^(2^k), 2^k < its bit length; the
    halves, converted the same way, are joined as hi 2^(2^k) + lo.  A context
    too small would trap, not round.
    """
    bits = n.bit_length()
    if bits <= leaf_bits:
        return Decimal(n)
    k = (bits - 1).bit_length() - 1  # 2^k < bits <= 2^(k+1)
    hi, lo = n >> (1 << k), n & ((1 << (1 << k)) - 1)
    # n < 2^bits has at most bits // 3 + 1 digits, as log10(2) < 1/3
    return context_for(bits // 3 + 1).fma(decimal_from_int(hi, leaf_bits), _two_to_the_two_to_the(k),
                                          decimal_from_int(lo, leaf_bits))


@functools.lru_cache(maxsize=None)
def _two_to_the_two_to_the(k: int) -> Decimal:
    """2^(2^k) as a Decimal, by squaring."""
    if k == 0:
        return Decimal(2)
    root = _two_to_the_two_to_the(k - 1)
    return context_for((1 << k) // 3 + 1).multiply(root, root)


def _digits(x: Decimal) -> int:
    """Digit count of a nonzero integer-valued Decimal with exponent 0 (1 for 0)."""
    return x.adjusted() + 1


class DecimalFraction(Fraction):
    """The exact rational num / (den 10^exp), held unreduced.

    ``num`` is an integer-valued Decimal with exponent 0, ``den`` a positive
    int, ``exp`` >= 0.  It is a ``Fraction``: ``numerator`` and
    ``denominator`` give lowest terms on first use, which converts ``num``
    to an int.  ``text()`` gives the same lowest terms as "num/den" without
    that conversion.  ``*`` by an int stays in this form; any other
    arithmetic is Fraction's, on the lowest terms.
    """

    __slots__ = ("num", "den", "exp", "_terms")

    def __new__(cls, num, den: int = 1, exp: int = 0):
        if den < 1 or exp < 0:
            raise ValueError(f"need den >= 1 and exp >= 0, got {den}, {exp}")
        self = object.__new__(cls)
        self.num = num if isinstance(num, Decimal) else Decimal(num)
        self.den, self.exp, self._terms = den, exp, None
        return self

    def _lowest_terms(self) -> tuple[int, int]:
        if self._terms is None:
            reduced = Fraction(int(self.num), self.den * 10**self.exp)
            self._terms = (reduced.numerator, reduced.denominator)
        return self._terms

    # Fraction's own methods read these, so they all see lowest terms
    numerator = _numerator = property(lambda self: self._lowest_terms()[0])
    denominator = _denominator = property(lambda self: self._lowest_terms()[1])

    def __bool__(self):
        return bool(self.num)

    def __mul__(self, other):
        if not isinstance(other, int):
            return super().__mul__(other)
        factor = Decimal(other)
        ctx = context_for(_digits(self.num) + _digits(factor))
        return DecimalFraction(ctx.multiply(self.num, factor), self.den, self.exp)

    __rmul__ = __mul__

    def text(self) -> str:
        """Lowest terms as "num/den", reduced in decimal.

        Write N = num, d = den, e = exp.  Every factor 2 and 5 that N shares
        with d 10^e is already shared with d 10^T, T = min(e, max(v2(N),
        v5(N))), so g = gcd(N mod d 10^T, d 10^T) is the whole gcd.
        """
        n, d, e = self.num, self.den, self.exp
        if not n:
            return "0/1"
        big_d = Decimal(d)
        ctx = context_for(max(_digits(n), _digits(big_d)))
        t = _max_valuation(n, e, ctx)
        modulus = d * 10**t
        g = math.gcd(int(ctx.remainder(n, ctx.scaleb(big_d, t))), modulus)
        if g > 1:
            n = ctx.divide_int(n, Decimal(g))
        return f"{n}/{modulus // g}{'0' * (e - t)}"


def _max_valuation(n: Decimal, cap: int, ctx: decimal.Context) -> int:
    """min(cap, max(v2(n), v5(n))) for a nonzero integer n, read off its last
    digits: n = w mod 10^width, so a valuation of w below width is n's own.
    The window doubles while it does not settle."""
    width = 16
    while True:
        w = abs(int(ctx.remainder(n, ctx.scaleb(_ONE, width))))
        if w:
            v2 = (w & -w).bit_length() - 1
            v5 = 0
            while w % 5 == 0:
                w //= 5
                v5 += 1
            found = max(v2, v5)
        else:
            found = width
        if found < width or width >= cap:
            return min(cap, found)
        width *= 2
